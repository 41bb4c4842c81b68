//! The nanobound benchmark harness.
//!
//! ```text
//! perfbench-harness run --workload W --seed N --seconds S --trace 0|1
//!                       --nanobound BIN --work DIR
//! perfbench-harness noise [--seconds S]
//! ```
//!
//! `run` generates the workload's inputs from the seed, then either
//! drives the release `nanobound` binary the way users do and reports
//! the end-to-end metrics (`--trace 0`), or replays the same inputs
//! in-process through each layer's public functions under a span
//! recorder and reports the per-layer metrics (`--trace 1`). The last
//! line of stdout is the JSON result.

mod drive;
mod inputs;
mod noise;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 2] = ["mc_vn", "serve_mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nanobound: PathBuf,
    pub work: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        nanobound: PathBuf::new(),
        work: PathBuf::from(".perfbench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("--seed: `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = v.parse().map_err(|_| format!("--seconds: `{v}`"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` (expected 0 or 1)")),
                }
            }
            "--nanobound" => out.nanobound = PathBuf::from(value()?),
            "--work" => out.work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !out.workload.is_empty() && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (expected one of {})",
            out.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse(&argv[1..]).and_then(|args| {
            if args.workload.is_empty() {
                return Err("run needs --workload".into());
            }
            let report = if args.trace {
                trace::run(&args)?
            } else {
                drive::run(&args)?
            };
            for problem in &report.problems {
                println!("CHECK FAILED: {problem}");
            }
            println!("{}", report.json());
            Ok(())
        }),
        Some("noise") => parse(&argv[1..]).map(|args| noise::run(args.seconds)),
        _ => Err("usage: perfbench-harness run|noise [flags]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-harness: {message}");
            ExitCode::FAILURE
        }
    }
}
