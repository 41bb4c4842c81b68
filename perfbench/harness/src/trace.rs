//! The traced run: the workload's inputs replayed in-process through
//! each layer's public functions, with a span around every call.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `<work>.trace.jsonl` when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.
//!
//! Root spans say where a measurement comes from:
//!
//! - `setup` and `run`: the workload's own path — the same requests,
//!   in the same order, through the same layers as its end-to-end run
//!   (`setup` is the cold warm-up, `run` the measured part). The path
//!   runs in alternating untraced/traced pairs on fresh state; the
//!   median paired difference of the `run` roots' wall is the tracing
//!   overhead.
//! - `pair`: the executor called directly and through the runner over
//!   the same shards of the workload's own job.
//! - `loopback`: the workload's own lines sent to a loopback
//!   `serve --listen` worker.
//! - `ref`: the result line carries every per-layer metric, so a layer
//!   the workload's path never calls is measured on the `serve_mix`
//!   path (same seed) under this root, and the output says so.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nanobound_analyze::{lint_design, LintOptions};
use nanobound_cache::{encode_to_vec, Fingerprint, ProfileLayer, ProfileStore, ShardCache};
use nanobound_core::{BoundReport, CircuitProfile};
use nanobound_experiments::profiles::ProfileConfig;
use nanobound_experiments::{generate_figure_cached, FigureId};
use nanobound_io::{bench, Design};
use nanobound_logic::{output_cone_hashes, transform, CircuitStats, Netlist};
use nanobound_runner::{
    experiment_builder, monte_carlo_fingerprint, monte_carlo_shard_tallies, shard_seed, ShardPlan,
    ShardRange, ThreadPool,
};
use nanobound_service::args::parse_flags;
use nanobound_service::cluster::encode_tally_frames;
use nanobound_service::proto::{format_request, parse_request, read_response, write_response};
use nanobound_service::requests::{BoundRequest, LintRequest, McShardsRequest, ProfileRequest};
use nanobound_service::Engine;
use nanobound_sim::{sensitivity, NoisyConfig, NoisyTally, ProgramCache, ShardSpec, SimProgram};

use crate::drive::Nb;
use crate::inputs::{
    mc_vn_circuit, mix_circuit, mix_classes, mix_job, mix_order, Circuit, McJob, BOUND_ARGS,
    MC_VN_PATTERNS, MIX_MC_SHARDS, PROFILE_EPS,
};
use crate::util::{fresh_dir, median, write_file, Report};
use crate::Args;

/// Untraced/traced pairs of the workload's path.
const OVERHEAD_PAIRS: usize = 5;
/// Direct-executor / runner pairs.
const EXECUTOR_PAIRS: u64 = 3;
/// `mc_vn` shards the executor pair replays.
const MC_VN_PAIR_SHARDS: usize = 8;
/// Times the `serve_mix` deck is replayed under `run` roots.
const MIX_REPLAY: usize = 150;
/// Loopback `bound`/`figure` round trips (the first two warm up).
const LOOPBACK_REQUESTS: u64 = 40;

// ---------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
}

/// An in-memory span recorder. With `on == false` it records nothing
/// but the total wall of the top-level `run` spans, so a traced and an
/// untraced pass are timed over the same scope.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    depth: usize,
    /// Wall of top-level `run` spans, in nanoseconds.
    run_ns: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            depth: 0,
            run_ns: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let timed = self.depth == 0 && name == "run";
        if !self.on && !timed {
            self.depth += 1;
            let out = f(self);
            self.depth -= 1;
            return out;
        }
        let start = self.now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.stack.last().copied(),
                req,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        let end = self.now();
        if let Some(index) = index {
            self.stack.pop();
            self.spans[index].end = end;
        }
        if timed {
            self.run_ns += end - start;
        }
        out
    }

    /// Self time of every span: duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// `(total self ns, span count, from ref)` of spans named `name`:
    /// those on the workload's own path (`setup`/`run` roots), or, if
    /// the path never calls the layer, those under `ref` roots.
    fn layer(&self, name: &str) -> (f64, usize, bool) {
        let own = self.self_times();
        let sum = |roots: &[&str]| {
            let mut total = 0u64;
            let mut count = 0;
            for (i, s) in self.spans.iter().enumerate() {
                if s.name == name && roots.contains(&self.root_name(i)) {
                    total += own[i];
                    count += 1;
                }
            }
            (total as f64, count)
        };
        match sum(&["setup", "run"]) {
            (_, 0) => {
                let (total, count) = sum(&["ref"]);
                (total, count, true)
            }
            (total, count) => (total, count, false),
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start, s.end, s.req
            );
        }
        write_file(path, &out)
    }
}

// ---------------------------------------------------------------------
// Replay state and steps
// ---------------------------------------------------------------------

/// Fresh per-pass state: every cache starts empty, so the traced and
/// untraced passes do identical work.
struct State {
    dir: PathBuf,
    pool: ThreadPool,
    programs: ProgramCache,
    store: ProfileStore,
    /// Gate-words evaluated by direct executor calls.
    gate_words: f64,
    /// Gate-words of activity passes.
    activity_words: f64,
    /// Shards run through the runner.
    runner_shards: u64,
    /// Bytes of request lines handed to `service.parse`.
    parsed_bytes: usize,
    /// Shard-cache `(hits, misses)` of the `serve_mix` engine.
    engine_cache: (u64, u64),
    problems: Vec<String>,
}

impl State {
    fn new(dir: PathBuf) -> Result<State, String> {
        fresh_dir(&dir)?;
        let store = ProfileStore::open(dir.join("profiles")).map_err(|e| e.to_string())?;
        Ok(State {
            dir,
            pool: ThreadPool::serial(),
            programs: ProgramCache::new(),
            store,
            gate_words: 0.0,
            activity_words: 0.0,
            runner_shards: 0,
            parsed_bytes: 0,
            engine_cache: (0, 0),
            problems: Vec::new(),
        })
    }
}

fn parse_netlist(t: &mut Tracer, req: u64, text: &str) -> Result<Design, String> {
    t.span("io.parse", req, |_| bench::parse(text))
        .map_err(|e| e.to_string())
}

fn mc_config(job: &McJob) -> Result<(NoisyConfig, ShardPlan), String> {
    Ok((
        NoisyConfig::new(job.eps, job.fault_seed).map_err(|e| e.to_string())?,
        ShardPlan::new(job.patterns, job.chunk).map_err(|e| e.to_string())?,
    ))
}

fn fingerprint(netlist: &Netlist, job: &McJob) -> Result<Fingerprint, String> {
    let (config, _) = mc_config(job)?;
    Ok(monte_carlo_fingerprint(
        netlist,
        &config,
        job.patterns,
        job.pattern_seed,
        job.chunk,
    ))
}

/// Shards `range` of `job` through the runner (serial pool, no cache,
/// the state's program cache) — what a `--jobs 1` run executes.
fn runner_shards(
    t: &mut Tracer,
    st: &mut State,
    req: u64,
    netlist: &Netlist,
    job: &McJob,
    range: ShardRange,
) -> Result<Vec<NoisyTally>, String> {
    let (config, plan) = mc_config(job)?;
    st.runner_shards += range.len() as u64;
    t.span("runner.shards", req, |_| {
        monte_carlo_shard_tallies(
            &st.pool,
            netlist,
            &config,
            &plan,
            job.pattern_seed,
            range,
            None,
            Some(&st.programs),
        )
    })
    .map_err(|e| e.to_string())
}

/// The executor called directly over `range`, grouped exactly as the
/// runner groups it. Returns the tallies and the arena size in MiB.
fn direct_tallies(
    t: &mut Tracer,
    st: &mut State,
    req: u64,
    netlist: &Netlist,
    job: &McJob,
    range: ShardRange,
) -> Result<(Vec<NoisyTally>, f64), String> {
    let (config, plan) = mc_config(job)?;
    let program = st.programs.get_or_compile(netlist);
    let batch = program.preferred_batch(plan.chunk());
    let mut scratch = program.scratch();
    let mut tallies = Vec::with_capacity(range.len());
    let mut first = range.first;
    while first < range.last {
        let last = (first + batch).min(range.last);
        let specs: Vec<ShardSpec> = (first..last)
            .map(|i| ShardSpec {
                fault_seed: shard_seed(config.seed, i as u64),
                pattern_seed: shard_seed(job.pattern_seed, i as u64),
                patterns: plan.shard_patterns(i),
            })
            .collect();
        let mut fresh = vec![program.empty_tally(); specs.len()];
        t.span("sim.tally", req, |_| {
            program.run_tally_batch(&mut scratch, config.epsilon, &specs, &mut fresh)
        })
        .map_err(|e| e.to_string())?;
        for spec in &specs {
            st.gate_words += program.gate_count() as f64 * spec.patterns as f64 / 64.0;
        }
        tallies.extend(fresh);
        first = last;
    }
    // Computed, not measured: clean + noisy slot per node, one word per
    // 64 patterns, `batch` shards side by side.
    let arena_mib =
        2.0 * netlist.node_count() as f64 * (plan.chunk().div_ceil(64) * batch) as f64 * 8.0
            / f64::from(1 << 20);
    Ok((tallies, arena_mib))
}

/// The profile-store keys of a mapped netlist's activity and
/// sensitivity measurements (structure, budget and seed — never ε).
fn profile_keys(mapped: &Netlist) -> (Fingerprint, Fingerprint) {
    let cfg = ProfileConfig::default();
    let key = |domain: &str, n: usize| {
        let mut b = experiment_builder(domain, mapped);
        b.push_usize(n);
        b.push_u64(cfg.seed);
        b.finish()
    };
    (
        key("profile-activity", cfg.patterns),
        key("profile-sensitivity", cfg.sensitivity_samples),
    )
}

/// A cold `profile` request's measurement path: cone hashing, map,
/// compile, activity, sensitivity, profile-store traffic and bound
/// evaluation. Returns the payload.
fn profile_path(
    t: &mut Tracer,
    st: &mut State,
    req: u64,
    netlist: &Netlist,
) -> Result<Vec<u8>, String> {
    // The engine keys the request by the netlist's cone hashes.
    t.span("logic.cone_hash", req, |_| output_cone_hashes(netlist));
    let cfg = ProfileConfig::default();
    let mapped = t
        .span("logic.map", req, |_| {
            transform::prepare(netlist, cfg.max_fanin)
        })
        .map_err(|e| e.to_string())?;
    let program: Arc<SimProgram> =
        t.span("sim.compile", req, |_| st.programs.get_or_compile(&mapped));
    let mut scratch = program.scratch();
    let (akey, skey) = profile_keys(&mapped);
    t.span("cache.profile_load", req, |_| {
        st.store.load::<f64>(ProfileLayer::Activity, &akey)
    });
    let activity = t
        .span("sim.activity", req, |_| {
            program.estimate_activity(&mut scratch, cfg.patterns, cfg.seed)
        })
        .map_err(|e| e.to_string())?
        .avg_gate_activity;
    st.activity_words += program.gate_count() as f64 * cfg.patterns.div_ceil(64) as f64;
    t.span("cache.profile_store", req, |_| {
        st.store.store(&akey, &activity)
    });
    t.span("cache.profile_load", req, |_| {
        st.store.load::<f64>(ProfileLayer::Sensitivity, &skey)
    });
    let sens = t
        .span("sim.sensitivity", req, |_| {
            sensitivity::estimate_with(&program, &mut scratch, cfg.sensitivity_samples, cfg.seed)
        })
        .map_err(|e| e.to_string())?;
    let sens = f64::from(sens.value());
    t.span("cache.profile_store", req, |_| st.store.store(&skey, &sens));
    let stats = CircuitStats::of(&mapped);
    let profile = CircuitProfile {
        name: netlist.name().to_owned(),
        inputs: stats.num_inputs,
        outputs: stats.num_outputs,
        size: stats.num_gates,
        depth: stats.depth,
        sensitivity: sens,
        activity: activity.clamp(1e-6, 1.0 - 1e-6),
        fanin: (stats.max_fanin.max(2)) as f64,
        leak_share: cfg.leak_share,
    };
    let mut payload = format!("profile: {profile}\n");
    for eps in PROFILE_EPS {
        let eps: f64 = eps.parse().expect("literal ε");
        let r = t
            .span("core.bound_eval", req, |_| {
                BoundReport::evaluate(&profile, eps, 0.01)
            })
            .map_err(|e| e.to_string())?;
        let _ = writeln!(
            payload,
            "\nbounds at eps = {eps}: size >= {:.4}x, energy >= {:.4}x",
            r.size_factor, r.total_energy_factor
        );
    }
    Ok(payload.into_bytes())
}

fn frame(t: &mut Tracer, req: u64, id: &str, payload: &[u8]) {
    let mut wire = Vec::with_capacity(payload.len() + 64);
    t.span("service.frame", req, |_| {
        write_response(&mut wire, id, true, payload)
    })
    .expect("writing to memory cannot fail");
}

fn service_parse(t: &mut Tracer, st: &mut State, req: u64, line: &str) {
    st.parsed_bytes += line.len();
    if t.span("service.parse", req, |_| parse_request(line))
        .is_err()
    {
        st.problems
            .push(format!("request line {req} did not parse"));
    }
}

// ---------------------------------------------------------------------
// The workloads' paths
// ---------------------------------------------------------------------

/// `mc_vn`: one zero-worker `cluster` run — parse, fingerprint, compile,
/// every shard through the runner.
fn mc_vn_path(
    t: &mut Tracer,
    st: &mut State,
    circuit: &Circuit,
    job: &McJob,
) -> Result<(), String> {
    t.span("run", 0, |t| {
        let design = parse_netlist(t, 0, &circuit.text)?;
        t.span("logic.cone_hash", 0, |_| fingerprint(&design.netlist, job))?;
        t.span("sim.compile", 0, |_| {
            st.programs.get_or_compile(&design.netlist)
        });
        let range = ShardRange {
            first: 0,
            last: job.shards(),
        };
        runner_shards(t, st, 0, &design.netlist, job, range).map(drop)
    })
}

/// `serve_mix`: the warm-up under `setup` roots — every class once,
/// cold, through the layers (the `mc_shards` shards are computed and
/// stored into the engine's shard cache) — then `MIX_REPLAY` decks
/// under `run` roots against the warmed in-process `Engine`, the
/// `mc_shards` class decomposed into its cache reads.
fn serve_mix_path(t: &mut Tracer, st: &mut State, seed: u64) -> Result<(), String> {
    let small = mix_circuit(seed)?;
    let job = mix_job(seed);
    let file = st.dir.join("serve_mix.bench");
    write_file(&file, &small.text)?;
    let file = file.to_string_lossy().into_owned();
    let engine = Engine::new(
        ThreadPool::serial(),
        Some(ShardCache::open(st.dir.join("engine-cache")).map_err(|e| e.to_string())?),
    );
    let cache = engine.cache().ok_or("the engine has a shard cache")?;
    let classes = mix_classes(&file, &small, &job);
    let warm_fp = fingerprint(
        &bench::parse(&small.text)
            .map_err(|e| e.to_string())?
            .netlist,
        &job,
    )?;
    let call = |t: &mut Tracer, req: u64, workload: &str, a: &[String]| {
        let name = match workload {
            "ping" => "engine.ping",
            "stats" => "engine.stats",
            "bound" => "engine.bound",
            "lint" => "engine.lint",
            "profile" => "engine.profile",
            "figure" => "engine.figure",
            _ => "engine.mc_shards",
        };
        t.span(name, req, |t| -> Result<Vec<u8>, String> {
            let text = match workload {
                "ping" => "pong\n".to_owned(),
                "stats" => engine.cache_report(),
                "bound" => {
                    let (p, f) = parse_flags(a, &BoundRequest::FLAGS)?;
                    engine.bound(&BoundRequest::from_parts(&p, &f)?)?
                }
                "lint" => {
                    let (p, f) = parse_flags(a, &LintRequest::FLAGS)?;
                    engine.lint(&LintRequest::from_parts(&p, &f)?)?.text
                }
                "profile" => {
                    let (p, f) = parse_flags(a, &ProfileRequest::FLAGS)?;
                    engine.profile(&ProfileRequest::from_parts(&p, &f)?)?
                }
                "figure" => {
                    let id = FigureId::parse(&a[0]).ok_or("figure id")?;
                    engine.figure_csv(id)?
                }
                _ => {
                    // Warm mc_shards: the engine's cache reads, then
                    // the frame encoding it answers with.
                    let (p, f) = parse_flags(a, &McShardsRequest::FLAGS)?;
                    let r = McShardsRequest::from_parts(&p, &f)?;
                    let mut tallies = Vec::new();
                    for shard in r.first..r.last {
                        let bytes = t.span("cache.load", req, |_| cache.load(&warm_fp, shard));
                        let tally = bytes
                            .and_then(|b| nanobound_cache::decode_from_slice::<NoisyTally>(&b))
                            .ok_or("warm shard missing from the cache")?;
                        tallies.push(tally);
                    }
                    return Ok(encode_tally_frames(r.first, &tallies));
                }
            };
            Ok(text.into_bytes())
        })
    };

    for (c, class) in classes.iter().enumerate() {
        let req = c as u64;
        let id = format!("w{c}");
        let line = format_request(&id, class.workload, &class.args);
        t.span("setup", req, |t| -> Result<(), String> {
            service_parse(t, st, req, &line);
            let payload = match class.workload {
                "profile" => {
                    let design = parse_netlist(t, req, &small.text)?;
                    profile_path(t, st, req, &design.netlist)?
                }
                "lint" => {
                    let design = parse_netlist(t, req, &small.text)?;
                    let report = t.span("analyze.lint", req, |_| {
                        lint_design(&design, &LintOptions::default())
                    });
                    let mut text = String::new();
                    report.write_text(&mut text);
                    text.into_bytes()
                }
                "figure" => {
                    let id = FigureId::parse(&class.args[0]).ok_or("figure id")?;
                    let figure = t
                        .span("experiments.figure", req, |_| {
                            generate_figure_cached(id, &st.pool, None, &[])
                        })
                        .map_err(|e| e.to_string())?;
                    let mut csv = String::new();
                    for table in &figure.tables {
                        csv.push_str(&t.span("report.csv", req, |_| table.to_csv()));
                    }
                    csv.into_bytes()
                }
                "mc_shards" => {
                    // Misses, the shards through the runner, stores.
                    let design = parse_netlist(t, req, &small.text)?;
                    let fp = t.span("logic.cone_hash", req, |_| {
                        fingerprint(&design.netlist, &job)
                    })?;
                    for shard in 0..MIX_MC_SHARDS as u64 {
                        t.span("cache.load", req, |_| cache.load(&fp, shard));
                    }
                    let range = ShardRange {
                        first: 0,
                        last: MIX_MC_SHARDS,
                    };
                    let tallies = runner_shards(t, st, req, &design.netlist, &job, range)?;
                    for (shard, tally) in tallies.iter().enumerate() {
                        let bytes = encode_to_vec(tally);
                        t.span("cache.store", req, |_| {
                            cache.store(&fp, shard as u64, &bytes)
                        });
                    }
                    encode_tally_frames(0, &tallies)
                }
                _ => call(t, req, class.workload, &class.args)?,
            };
            frame(t, req, &id, &payload);
            Ok(())
        })?;
    }
    // The engine's own warm-up (its in-memory registries), unrecorded;
    // its shards are already in the cache.
    for class in classes.iter().filter(|c| c.workload != "mc_shards") {
        call(&mut Tracer::new(false), 0, class.workload, &class.args)?;
    }

    for (i, &c) in mix_order(&classes, MIX_REPLAY, seed).iter().enumerate() {
        let req = i as u64;
        let class = &classes[c];
        let id = format!("m{i}");
        let line = format_request(&id, class.workload, &class.args);
        t.span("run", req, |t| -> Result<(), String> {
            service_parse(t, st, req, &line);
            let payload = call(t, req, class.workload, &class.args)?;
            frame(t, req, &id, &payload);
            Ok(())
        })?;
    }
    let s = cache.stats();
    st.engine_cache.0 += s.hits;
    st.engine_cache.1 += s.misses;
    Ok(())
}

/// The `serve_mix` lines over a loopback worker: its `mc_shards` batch
/// (checked against the in-process tallies), and warm `bound`/`figure`
/// requests timed over TCP and as direct `Engine` calls. Returns the
/// batch round trip and the median service overhead, both in ms.
fn loopback(t: &mut Tracer, st: &mut State, nb: &Nb, seed: u64) -> Result<(f64, f64), String> {
    let small = mix_circuit(seed)?;
    let job = mix_job(seed);
    let worker = nb.worker(1)?;
    let (mut w, mut r) = worker.connect()?;
    let mut rtt = |line: &str| -> Result<(f64, Vec<u8>), String> {
        let start = Instant::now();
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .map_err(|e| e.to_string())?;
        let (_, ok, payload) = read_response(&mut r)
            .map_err(|e| e.to_string())?
            .ok_or("worker closed the connection")?;
        if !ok {
            return Err(format!(
                "worker error: {}",
                String::from_utf8_lossy(&payload)
            ));
        }
        Ok((start.elapsed().as_secs_f64(), payload))
    };
    let line = format_request(
        "rtt",
        "mc_shards",
        &job.mc_shards_args(&small.text, 0, MIX_MC_SHARDS),
    );
    let (secs, payload) = t.span("service.mc_shards_rtt", 0, |_| rtt(&line))?;
    let design = bench::parse(&small.text).map_err(|e| e.to_string())?;
    let range = ShardRange {
        first: 0,
        last: MIX_MC_SHARDS,
    };
    let local = runner_shards(t, st, 0, &design.netlist, &job, range)?;
    if payload != encode_tally_frames(0, &local) {
        st.problems
            .push("mc_shards over loopback differs from the in-process tallies".into());
    }

    // Service overhead: warm round trip minus the matching engine call.
    let engine = Engine::new(ThreadPool::serial(), None);
    let bound: Vec<String> = BOUND_ARGS.iter().map(|s| (*s).to_owned()).collect();
    let (p, f) = parse_flags(&bound, &BoundRequest::FLAGS)?;
    let bound_req = BoundRequest::from_parts(&p, &f)?;
    let mut overheads = Vec::new();
    for k in 0..LOOPBACK_REQUESTS {
        let (wire, direct) = if k % 2 == 0 {
            let line = format_request(&format!("o{k}"), "bound", &bound);
            let (wire, _) = t.span("service.rtt", k, |_| rtt(&line))?;
            let start = Instant::now();
            t.span("engine.bound", k, |_| engine.bound(&bound_req))?;
            (wire, start.elapsed().as_secs_f64())
        } else {
            let line = format_request(&format!("o{k}"), "figure", &["fig3".to_owned()]);
            let (wire, _) = t.span("service.rtt", k, |_| rtt(&line))?;
            let start = Instant::now();
            t.span("engine.figure", k, |_| engine.figure_csv(FigureId::Fig3))?;
            (wire, start.elapsed().as_secs_f64())
        };
        if k >= 2 {
            overheads.push((wire - direct) * 1e3);
        }
    }
    drop((w, r));
    worker.stop()?;
    Ok((secs * 1e3, median(&overheads)))
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

pub fn run(args: &Args) -> Result<Report, String> {
    fresh_dir(&args.work)?;
    let nb = Nb {
        bin: args.nanobound.clone(),
    };
    let seed = args.seed;
    let mc_vn = args.workload == "mc_vn";
    let circuit = if mc_vn {
        mc_vn_circuit(seed)?
    } else {
        mix_circuit(seed)?
    };
    let job = if mc_vn {
        McJob::new(seed, MC_VN_PATTERNS)
    } else {
        mix_job(seed)
    };
    println!("input main netlist: {}", circuit.describe());
    let path = |t: &mut Tracer, st: &mut State| {
        if mc_vn {
            mc_vn_path(t, st, &circuit, &job)
        } else {
            serve_mix_path(t, st, seed)
        }
    };

    // The workload's path in untraced/traced pairs on fresh state, the
    // order alternating; the first traced pass is the one recorded.
    let mut overheads = Vec::new();
    let mut kept = None;
    for k in 0..OVERHEAD_PAIRS {
        let mut run_ns = [0.0; 2];
        for traced in [k % 2 == 1, k % 2 == 0] {
            let mut t = Tracer::new(traced);
            let mut st = State::new(args.work.join(format!("pass{k}-{traced}")))?;
            path(&mut t, &mut st)?;
            run_ns[usize::from(traced)] = t.run_ns as f64;
            if traced && kept.is_none() {
                kept = Some((t, st));
            }
        }
        println!(
            "pass pair {k}: untraced {:.4} s, traced {:.4} s",
            run_ns[0] / 1e9,
            run_ns[1] / 1e9
        );
        overheads.push((run_ns[1] - run_ns[0]) / run_ns[0] * 100.0);
    }
    let (mut t, mut st) = kept.expect("at least one traced pass");

    // The executor called directly and through the runner over the
    // same shards, alternating; request id = repetition.
    let design = bench::parse(&circuit.text).map_err(|e| e.to_string())?;
    let pair_range = ShardRange {
        first: 0,
        last: if mc_vn {
            MC_VN_PAIR_SHARDS
        } else {
            MIX_MC_SHARDS
        },
    };
    let mut arena_mib = 0.0;
    for rep in 0..EXECUTOR_PAIRS {
        let (direct, arena) = t.span("pair", rep, |t| {
            direct_tallies(t, &mut st, rep, &design.netlist, &job, pair_range)
        })?;
        let via_runner = t.span("pair", rep, |t| {
            t.span("pair.runner", rep, |t| {
                runner_shards(t, &mut st, rep, &design.netlist, &job, pair_range)
            })
        })?;
        if direct != via_runner {
            st.problems
                .push("direct executor tallies differ from the runner's".into());
        }
        arena_mib = arena;
    }

    // mc_vn's path calls no service, cache, profile, bound, lint or
    // figure layer: those come from the serve_mix path under `ref`.
    if mc_vn {
        t.span("ref", 0, |t| serve_mix_path(t, &mut st, seed))?;
    }
    let (rtt_ms, overhead_ms) = t.span(if mc_vn { "ref" } else { "loopback" }, 0, |t| {
        loopback(t, &mut st, &nb, seed)
    })?;
    t.write(&args.work.with_extension("trace.jsonl"))?;

    // ---- metrics ----
    let mut report = Report::default();
    let own = t.self_times();
    let per_rep = |name: &str, parent: &str| -> Vec<f64> {
        (0..EXECUTOR_PAIRS)
            .map(|rep| {
                t.spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| {
                        s.name == name
                            && s.req == rep
                            && s.parent.is_some_and(|p| t.spans[p].name == parent)
                    })
                    .map(|(i, _)| own[i] as f64)
                    .sum()
            })
            .collect()
    };
    let tally_ns = median(&per_rep("sim.tally", "pair"));
    let runner_ns = median(&per_rep("runner.shards", "pair.runner"));
    let (hits, misses) = st.engine_cache;
    let pa = st.store.layer_stats(ProfileLayer::Activity);
    let ps = st.store.layer_stats(ProfileLayer::Sensitivity);

    let layer = |name: &str| {
        let (total, count, _) = t.layer(name);
        (total, count)
    };
    let mean = |name: &str, unit_ns: f64| {
        let (total, count) = layer(name);
        total / count.max(1) as f64 / unit_ns
    };
    let metrics: Vec<(&str, f64, &'static str)> = vec![
        (
            "sim.tally_ns_per_gate_word",
            tally_ns * EXECUTOR_PAIRS as f64 / st.gate_words,
            "ns",
        ),
        ("sim.arena_mib", arena_mib, "MiB"),
        (
            "sim.activity_ns_per_gate_word",
            layer("sim.activity").0 / st.activity_words,
            "ns",
        ),
        ("sim.sensitivity_ms", mean("sim.sensitivity", 1e6), "ms"),
        ("sim.compile_ms", mean("sim.compile", 1e6), "ms"),
        ("io.parse_ms", mean("io.parse", 1e6), "ms"),
        ("logic.cone_hash_ms", mean("logic.cone_hash", 1e6), "ms"),
        (
            "runner.overhead_pct",
            (runner_ns - tally_ns) / tally_ns * 100.0,
            "%",
        ),
        (
            "service.parse_us_per_kib",
            layer("service.parse").0 / 1e3 / (st.parsed_bytes.max(1) as f64 / 1024.0),
            "us",
        ),
        ("service.frame_us", mean("service.frame", 1e3), "us"),
        ("service.overhead_ms", overhead_ms, "ms"),
        ("service.mc_shards_rtt_ms", rtt_ms, "ms"),
        ("cache.load_us", mean("cache.load", 1e3), "us"),
        (
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        ("cache.store_us", mean("cache.store", 1e3), "us"),
        (
            "cache.profile_store_us",
            mean("cache.profile_store", 1e3),
            "us",
        ),
        ("core.bound_eval_us", mean("core.bound_eval", 1e3), "us"),
        ("report.csv_us", mean("report.csv", 1e3), "us"),
        ("analyze.lint_ms", mean("analyze.lint", 1e6), "ms"),
        (
            "experiments.figure_ms",
            mean("experiments.figure", 1e6),
            "ms",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    let mut from_ref: Vec<&str> = [
        "sim.activity",
        "sim.sensitivity",
        "sim.compile",
        "io.parse",
        "logic.cone_hash",
        "service.parse",
        "service.frame",
        "cache.load",
        "cache.store",
        "cache.profile_store",
        "core.bound_eval",
        "report.csv",
        "analyze.lint",
        "experiments.figure",
    ]
    .into_iter()
    .filter(|name| t.layer(name).2)
    .collect();
    if mc_vn {
        from_ref.extend([
            "service.overhead",
            "service.mc_shards_rtt",
            "cache.hit_ratio",
        ]);
    }
    if !from_ref.is_empty() {
        println!(
            "not on this workload's path, measured on the serve_mix path: {}",
            from_ref.join(", ")
        );
    }
    let counts: [(&str, u64); 7] = [
        ("sim.gate_words", st.gate_words as u64),
        ("runner.shards", st.runner_shards),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("programs.compiled", st.programs.stats().compiled),
        ("profiles.measured", pa.measured + ps.measured),
        ("profiles.reused", pa.reused + ps.reused),
    ];
    for (name, v) in counts {
        report.metric(name, v as f64, "count");
    }
    report.metric("trace.overhead_pct", median(&overheads), "%");
    println!(
        "trace overhead: median of {OVERHEAD_PAIRS} paired passes {:.3} %",
        median(&overheads)
    );

    // Self-time shares over the recorded pass, per root kind.
    for root in ["setup", "run"] {
        let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
        let mut total = 0.0;
        for (i, s) in t.spans.iter().enumerate() {
            if t.root_name(i) == root {
                *shares.entry(s.name).or_default() += own[i] as f64;
                total += own[i] as f64;
            }
        }
        if shares.is_empty() {
            continue;
        }
        println!("{root} path: {:.4} s traced self time", total / 1e9);
        let mut shares: Vec<(&str, f64)> = shares.into_iter().collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, self_ns) in &shares {
            println!(
                "share {root:<5} {name:<22} {:6.2}%  ({:.3} ms self)",
                self_ns / total * 100.0,
                self_ns / 1e6
            );
        }
    }

    // Exact counts must repeat across runs: drift means the harness,
    // not the program, changed.
    let counts_text: String = counts.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    let counts_file = args.work.with_extension("counts");
    match std::fs::read_to_string(&counts_file) {
        Ok(prev) if prev != counts_text => report.problem(format!(
            "exact counts drifted from the previous run ({}): {prev:?} vs {counts_text:?}",
            counts_file.display()
        )),
        Ok(_) => {}
        Err(_) => write_file(&counts_file, &counts_text)?,
    }
    report.check(st.problems.is_empty(), || st.problems.join("; "));
    Ok(report)
}
