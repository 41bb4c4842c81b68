//! Round-trip properties of the serve wire protocol.
//!
//! Request lines carry whole netlist files and arbitrary CLI tokens, so
//! every Unicode scalar — 1- to 4-byte UTF-8, control characters,
//! quotes and backslashes — must survive `format_request` →
//! `parse_request`. A second encoder spells the same strings with every
//! escape the grammar accepts (`\" \\ \/ \n \t \r \b \f`, `\uXXXX` and
//! UTF-16 surrogate pairs), chosen per character, so the parser's
//! escape handling is exercised next to multi-byte text as well.

use std::fmt::Write as _;

use proptest::prelude::*;

use nanobound_service::proto::{
    format_request, parse_request, parse_response_header, response_header,
};

/// One generated character: `(class, raw, spelling)`.
type CharSpec = (u8, u32, u8);

/// Characters the grammar has a two-character escape for.
const SHORT_ESCAPES: [(char, &str); 8] = [
    ('"', "\\\""),
    ('\\', "\\\\"),
    ('/', "\\/"),
    ('\n', "\\n"),
    ('\t', "\\t"),
    ('\r', "\\r"),
    ('\u{8}', "\\b"),
    ('\u{c}', "\\f"),
];

/// Maps a generated spec onto a scalar of the chosen UTF-8 width.
fn char_of((class, raw, _): CharSpec) -> char {
    let code = match class {
        // ASCII, control characters included.
        0 => raw % 0x80,
        // The escapable characters, often.
        1 => u32::from(SHORT_ESCAPES[raw as usize % SHORT_ESCAPES.len()].0),
        // 2-byte scalars.
        2 => 0x80 + raw % (0x800 - 0x80),
        // 3-byte scalars, stepping over the surrogate block.
        3 => {
            let code = 0x800 + raw % (0x1_0000 - 0x800);
            if (0xD800..=0xDFFF).contains(&code) {
                code + 0x800
            } else {
                code
            }
        }
        // 4-byte scalars.
        _ => 0x1_0000 + raw % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(code).expect("generated codes avoid surrogates")
}

/// JSON-escapes `ch` one of several valid ways, picked by `spelling`:
/// literal where the grammar allows it, its short escape, or `\uXXXX`
/// (a surrogate pair for astral characters).
fn encode_char(out: &mut String, ch: char, spelling: u8) {
    let short = SHORT_ESCAPES
        .iter()
        .find(|(c, _)| *c == ch)
        .map(|(_, e)| *e);
    let must_escape = ch == '"' || ch == '\\' || (ch as u32) < 0x20;
    match (spelling % 3, short) {
        (0, _) if !must_escape => out.push(ch),
        (1, Some(escape)) => out.push_str(escape),
        _ => {
            let mut units = [0u16; 2];
            for unit in ch.encode_utf16(&mut units) {
                let _ = write!(out, "\\u{unit:04x}");
            }
        }
    }
}

fn string_strategy() -> impl Strategy<Value = Vec<CharSpec>> {
    prop::collection::vec((0u8..5, any::<u32>(), 0u8..3), 0..48)
}

fn text_of(specs: &[CharSpec]) -> String {
    specs.iter().map(|&spec| char_of(spec)).collect()
}

fn encoded_of(specs: &[CharSpec]) -> String {
    let mut out = String::from("\"");
    for &spec in specs {
        encode_char(&mut out, char_of(spec), spec.2);
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn format_request_roundtrips_arbitrary_unicode(
        id in string_strategy(),
        workload in string_strategy(),
        args in prop::collection::vec(string_strategy(), 0..6),
    ) {
        // `?` alone is reserved; any prefix keeps the id claimable.
        let id = format!("r{}", text_of(&id));
        let workload = text_of(&workload);
        let args: Vec<String> = args.iter().map(|a| text_of(a)).collect();
        let line = format_request(&id, &workload, &args);
        prop_assert!(!line.contains('\n'), "a request is one line: {line:?}");
        let parsed = parse_request(&line).expect("formatted lines parse");
        prop_assert_eq!(parsed.id, id);
        prop_assert_eq!(parsed.workload, workload);
        prop_assert_eq!(parsed.args, args);
    }

    #[test]
    fn every_escape_spelling_decodes_to_the_same_text(
        id in string_strategy(),
        args in prop::collection::vec(string_strategy(), 0..6),
    ) {
        let encoded: Vec<String> = args.iter().map(|a| encoded_of(a)).collect();
        let line = format!(
            "{{\"id\":\"r\", \"workload\" : \"ping\", \"args\": [{}]}}",
            encoded.join(", "),
        );
        let parsed = parse_request(&line).expect("escaped lines parse");
        prop_assert_eq!(parsed.id, "r");
        let args: Vec<String> = args.iter().map(|a| text_of(a)).collect();
        prop_assert_eq!(parsed.args, args);
        // And the id slot decodes the same spellings.
        let line = format!("{{\"workload\":\"ping\",\"id\":{}}}", encoded_of(&id));
        let text = text_of(&id);
        match parse_request(&line) {
            Ok(parsed) => prop_assert_eq!(parsed.id, text),
            Err(message) => prop_assert!(
                text == "?" && message.contains("reserved"),
                "id {text:?}: {message}"
            ),
        }
    }

    #[test]
    fn response_headers_roundtrip_arbitrary_ids(
        id in string_strategy(),
        ok in any::<bool>(),
        bytes in 0usize..1 << 40,
    ) {
        let id = text_of(&id);
        let header = response_header(&id, ok, bytes);
        prop_assert_eq!(
            parse_response_header(&header).expect("formatted headers parse"),
            (id, ok, bytes as u64)
        );
    }
}
