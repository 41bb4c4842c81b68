//! Workload inputs, generated in-process from the workload seed with the
//! repository's own generator crates: von Neumann NAND-multiplexed array
//! multipliers written as ISCAS `.bench` text, and the request lines
//! that carry them.

use nanobound_gen::multiplier;
use nanobound_io::{bench, Design};
use nanobound_redundancy::{multiplex_full, MultiplexConfig};

/// A generated netlist and its sizes.
#[derive(Clone, Debug)]
pub struct Circuit {
    pub text: String,
    pub gates: usize,
    pub inputs: usize,
    pub outputs: usize,
}

impl Circuit {
    /// von Neumann multiplexing (one restorative stage) of the
    /// `wa × wb` array multiplier with the given bundle width; `seed`
    /// drives the randomizing permutations.
    pub fn vn(wa: usize, wb: usize, bundle: usize, seed: u64) -> Result<Circuit, String> {
        let base = multiplier::array(wa, wb).map_err(|e| e.to_string())?;
        let config = MultiplexConfig {
            bundle,
            restorative_stages: 1,
            seed,
        };
        let mux = multiplex_full(&base, &config).map_err(|e| e.to_string())?;
        let text = bench::write(&Design::combinational(mux.netlist));
        // Sizes of what the program will parse, not of what was built.
        let parsed = bench::parse(&text).map_err(|e| e.to_string())?;
        Ok(Circuit {
            gates: parsed.netlist.gate_count(),
            inputs: parsed.netlist.input_count(),
            outputs: parsed.netlist.output_count(),
            text,
        })
    }

    pub fn describe(&self) -> String {
        format!(
            "{} gates, {} inputs, {} outputs, {} bytes",
            self.gates,
            self.inputs,
            self.outputs,
            self.text.len()
        )
    }
}

/// One Monte-Carlo experiment as `nanobound cluster` takes it.
#[derive(Clone, Debug)]
pub struct McJob {
    pub eps: f64,
    pub fault_seed: u64,
    pub pattern_seed: u64,
    pub patterns: usize,
    pub chunk: usize,
}

impl McJob {
    pub fn new(seed: u64, patterns: usize) -> McJob {
        McJob {
            eps: 0.01,
            fault_seed: 2 * seed + 1,
            pattern_seed: 2 * seed + 2,
            patterns,
            chunk: 4096,
        }
    }

    pub fn shards(&self) -> usize {
        self.patterns.div_ceil(self.chunk)
    }

    /// Gate-words (64 patterns of one gate) the experiment evaluates.
    pub fn gate_words(&self, gates: usize) -> f64 {
        gates as f64 * self.patterns as f64 / 64.0
    }

    /// The `cluster` flags naming this experiment.
    pub fn cluster_args(&self) -> Vec<String> {
        vec![
            "--eps".into(),
            self.eps.to_string(),
            "--fault-seed".into(),
            self.fault_seed.to_string(),
            "--pattern-seed".into(),
            self.pattern_seed.to_string(),
            "--patterns".into(),
            self.patterns.to_string(),
            "--chunk".into(),
            self.chunk.to_string(),
        ]
    }

    /// The `mc_shards` arguments for shards `first..last`, netlist
    /// shipped in-band the way the cluster coordinator ships it.
    pub fn mc_shards_args(&self, netlist: &str, first: usize, last: usize) -> Vec<String> {
        vec![
            "--netlist".into(),
            netlist.to_owned(),
            "--eps".into(),
            self.eps.to_string(),
            "--fault-seed".into(),
            self.fault_seed.to_string(),
            "--pattern-seed".into(),
            self.pattern_seed.to_string(),
            "--patterns".into(),
            self.patterns.to_string(),
            "--chunk".into(),
            self.chunk.to_string(),
            "--first".into(),
            first.to_string(),
            "--last".into(),
            last.to_string(),
        ]
    }
}

/// `mc_vn`: `array(8,8)`, bundle 9 — 31 872 gates.
pub fn mc_vn_circuit(seed: u64) -> Result<Circuit, String> {
    Circuit::vn(8, 8, 9, seed)
}

/// Patterns of one measured `mc_vn` run.
pub const MC_VN_PATTERNS: usize = 131_072;

/// The ε grid every `profile` request of the benchmark asks for.
pub const PROFILE_EPS: [&str; 3] = ["0.001", "0.01", "0.1"];

pub fn profile_args(path: &str) -> Vec<String> {
    let mut args = vec![path.to_owned()];
    for eps in PROFILE_EPS {
        args.push("--eps".into());
        args.push(eps.into());
    }
    args
}

pub const BOUND_ARGS: [&str; 10] = [
    "--size",
    "21",
    "--sensitivity",
    "10",
    "--activity",
    "0.5",
    "--fanin",
    "3",
    "--eps",
    "0.01",
];

/// The small netlist of `serve_mix` (its `lint`, `profile` and
/// `mc_shards` requests).
pub fn mix_circuit(seed: u64) -> Result<Circuit, String> {
    Circuit::vn(2, 2, 3, seed)
}

/// Shards per `serve_mix` `mc_shards` request.
pub const MIX_MC_SHARDS: usize = 4;

/// The `serve_mix` Monte-Carlo experiment (its shards are warmed into
/// the cache during set-up, so measured requests are cache reads).
pub fn mix_job(seed: u64) -> McJob {
    McJob::new(seed, MIX_MC_SHARDS * 4096)
}

/// One request class of the `serve_mix` deck.
pub struct MixClass {
    pub name: &'static str,
    pub workload: &'static str,
    pub args: Vec<String>,
    /// Copies of the class in one deck.
    pub weight: usize,
}

/// The `serve_mix` request classes over the small netlist at `file`.
pub fn mix_classes(file: &str, small: &Circuit, job: &McJob) -> Vec<MixClass> {
    let class = |name, workload, args: Vec<String>, weight| MixClass {
        name,
        workload,
        args,
        weight,
    };
    let mut classes = vec![
        class("ping", "ping", vec![], 2),
        class("stats", "stats", vec![], 1),
        class(
            "bound",
            "bound",
            BOUND_ARGS.iter().map(|s| (*s).to_owned()).collect(),
            3,
        ),
        class("lint", "lint", vec![file.to_owned()], 2),
        class("profile", "profile", profile_args(file), 2),
        class(
            "mc_shards",
            "mc_shards",
            job.mc_shards_args(&small.text, 0, MIX_MC_SHARDS),
            2,
        ),
    ];
    for fig in ["fig2", "fig3", "fig4", "fig5", "fig6"] {
        classes.push(class(fig, "figure", vec![fig.to_owned()], 1));
    }
    classes
}

/// `copies` decks of `classes`, shuffled by `seed`: the fixed request
/// sequence (class indices) of one run.
pub fn mix_order(classes: &[MixClass], copies: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::new();
    for _ in 0..copies {
        for (c, class) in classes.iter().enumerate() {
            order.extend(std::iter::repeat_n(c, class.weight));
        }
    }
    crate::util::shuffle(&mut order, seed);
    order
}
