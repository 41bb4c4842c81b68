//! End-to-end runs: the release `nanobound` binary driven the way users
//! drive it — one-shot `cluster` commands and a `serve` session on
//! stdio — by this single generator process, with tracing off. (The
//! loopback `serve --listen` worker here is the traced run's.)
//!
//! Every workload reports the same metric set (see `perfbench/README.md`
//! for each one's definition per workload), checks every output it
//! times, and counts each mismatch as a failed operation.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nanobound_runner::{monte_carlo_shard_tallies, ShardPlan, ShardRange, ThreadPool};
use nanobound_service::cluster::encode_tally_frames;
use nanobound_service::proto::{format_request, read_response};
use nanobound_sim::NoisyConfig;

use crate::inputs::{
    mc_vn_circuit, mix_circuit, mix_classes, mix_job, mix_order, Circuit, McJob, MC_VN_PATTERNS,
    MIX_MC_SHARDS,
};
use crate::util::{
    children_peak_rss_kib, count_above, fresh_dir, median, quantile, write_file, Report,
};
use crate::Args;

/// Set-ups per run; `setup_s` is their median. `serve_mix` set-up is
/// a few milliseconds, so it takes more samples for the same steadiness.
const MC_VN_SETUPS: usize = 15;
const SERVE_MIX_SETUPS: usize = 61;

/// Nominal seconds of one measured `mc_vn` run: sizes the fixed
/// repetition count from `--seconds`.
const MC_VN_NOMINAL_S: f64 = 1.8;
/// `serve_mix` requests per second of `--seconds`.
const SERVE_MIX_RATE: f64 = 5600.0;
/// `serve_mix` requests kept in flight by the client.
const SERVE_MIX_WINDOW: usize = 2;

pub fn run(args: &Args) -> Result<Report, String> {
    fresh_dir(&args.work)?;
    let nb = Nb {
        bin: args.nanobound.clone(),
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "mc_vn" => mc_vn(&nb, args, &mut report)?,
        "serve_mix" => serve_mix(&nb, args, &mut report)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    report.metric(
        "peak_rss_mib",
        children_peak_rss_kib() as f64 / 1024.0,
        "MiB",
    );
    println!(
        "fail_ratio: {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    Ok(report)
}

/// The binary under test.
pub struct Nb {
    pub bin: PathBuf,
}

/// What a one-shot invocation produced.
pub struct Shot {
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
    pub secs: f64,
}

impl Nb {
    /// Runs one one-shot command to completion, timing spawn to exit.
    pub fn shot(&self, args: &[String], env: &[(&str, &str)]) -> Result<Shot, String> {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args).stdin(Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let start = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", self.bin.display()))?;
        let secs = start.elapsed().as_secs_f64();
        Ok(Shot {
            ok: out.status.success(),
            stdout: out.stdout,
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            secs,
        })
    }

    /// Spawns `serve` on stdio.
    pub fn serve(&self, args: &[String]) -> Result<Session, String> {
        let mut child = Command::new(&self.bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let stdin = BufWriter::new(child.stdin.take().expect("piped stdin"));
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Session {
            child,
            stdin: Some(stdin),
            stdout,
        })
    }

    /// Spawns a `serve --listen` worker on an ephemeral loopback port.
    pub fn worker(&self, jobs: usize) -> Result<Worker, String> {
        let mut child = Command::new(&self.bin)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn worker: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut addr = None;
        let mut line = String::new();
        while stderr.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
            if let Some(a) = line.trim().strip_prefix("nanobound serve: listening on ") {
                addr = Some(a.to_owned());
                break;
            }
            line.clear();
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("worker never announced its address".into());
        };
        // Keep draining diagnostics so the worker never blocks on a
        // full stderr pipe; the thread ends when the worker exits.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).unwrap_or(0) > 0 {
                sink.clear();
            }
        });
        Ok(Worker {
            child,
            addr,
            drain: Some(drain),
        })
    }
}

/// A `serve` session on the child's stdio.
pub struct Session {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
}

impl Session {
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("session closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))
    }

    pub fn recv(&mut self) -> Result<(String, bool, Vec<u8>), String> {
        read_response(&mut self.stdout)
            .map_err(|e| format!("serve stdout: {e}"))?
            .ok_or_else(|| "serve closed its stdout".to_owned())
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, line: &str) -> Result<(bool, Vec<u8>), String> {
        self.send(line)?;
        let (_, ok, payload) = self.recv()?;
        Ok((ok, payload))
    }

    /// Closes stdin (EOF ends the session) and reaps the process.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status}"))
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            drop(self.stdin.take());
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A loopback `serve --listen` worker process.
pub struct Worker {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    /// Opens a protocol connection to the worker.
    pub fn connect(&self) -> Result<(BufWriter<TcpStream>, BufReader<TcpStream>), String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok((BufWriter::new(stream), reader))
    }

    /// Asks the worker to shut down and reaps it.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|(mut w, mut r)| {
            w.write_all(format_request("bye", "shutdown", &[]).as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .and_then(|()| w.flush())
                .map_err(|e| e.to_string())?;
            read_response(&mut r).map_err(|e| e.to_string())?;
            Ok(())
        });
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        if self.drain.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(drain) = self.drain.take() {
                let _ = drain.join();
            }
        }
    }
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

fn path_str(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Fixed repetitions of a run of nominal length `nominal_s` that fit
/// in `seconds` (at least 3, so a median exists).
fn repetitions(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(3)
}

/// Reports the median request as `req_ms` and prints p50, p90 (with
/// the samples beyond it) and the throughput beside it. `req_per_s` (a
/// closed loop's throughput is its concurrency over the mean latency)
/// and `req_p90_ms` are printed, not gated: their run-to-run spread is
/// far wider.
fn latency_metrics(report: &mut Report, what: &str, latencies_s: &[f64], wall_s: f64) {
    let ms: Vec<f64> = latencies_s.iter().map(|s| s * 1e3).collect();
    let p90 = quantile(&ms, 0.9);
    println!(
        "{what}: {} samples, min {:.3} ms, max {:.3} ms",
        ms.len(),
        quantile(&ms, 0.0),
        quantile(&ms, 1.0),
    );
    println!("req_per_s: {} 1/s", ms.len() as f64 / wall_s);
    println!(
        "req_p90_ms: {p90} ms ({} of {} samples beyond it)",
        count_above(&ms, p90),
        ms.len()
    );
    // Drift inside the run (a slower second half means the session
    // itself slows down, not the host).
    let quarters: Vec<String> = ms
        .chunks(ms.len().div_ceil(4).max(1))
        .map(|q| format!("{:.3}", median(q)))
        .collect();
    println!(
        "{what}: p50 by quarter of the run: {} ms",
        quarters.join(" / ")
    );
    println!("req_p50_ms: {} ms", median(&ms));
    report.metric("req_ms", median(&ms), "ms");
}

fn setup_metric(report: &mut Report, samples: &[f64]) -> f64 {
    println!(
        "setup: {} samples, min {:.4} s, q1 {:.4} s, median {:.4} s, q3 {:.4} s, max {:.4} s",
        samples.len(),
        quantile(samples, 0.0),
        quantile(samples, 0.25),
        median(samples),
        quantile(samples, 0.75),
        quantile(samples, 1.0)
    );
    report.metric("setup_s", median(samples), "s");
    median(samples)
}

/// Checks that a one-shot run exited 0 and printed exactly `expected`.
fn check_shot(report: &mut Report, shot: &Shot, expected: &[u8], what: &str) {
    report.check(shot.ok && shot.stdout == expected, || {
        format!(
            "{what}: exit ok = {}, stdout {} bytes vs expected {} bytes; stderr: {}",
            shot.ok,
            shot.stdout.len(),
            expected.len(),
            shot.stderr.trim()
        )
    });
}

/// Checks the exact `cluster: N shards, C cached, L local, R retries,
/// E ejections` counters on a coordinator's stderr; a drift means the
/// run was not the experiment the harness set up.
fn check_counts(report: &mut Report, shot: &Shot, want: [u64; 5], what: &str, rep: usize) {
    let counts: Option<[u64; 5]> = shot
        .stderr
        .lines()
        .find_map(|l| l.strip_prefix("nanobound cluster: "))
        .and_then(|line| line.split(" | ").next())
        .and_then(|head| {
            let nums: Vec<u64> = head
                .split(", ")
                .filter_map(|part| part.split_whitespace().next()?.parse().ok())
                .collect();
            nums.try_into().ok()
        });
    if counts != Some(want) {
        report.problem(format!(
            "{what} run {rep}: cluster counters {counts:?}, expected {want:?}"
        ));
    }
}

// ---------------------------------------------------------------------
// mc_vn: the zero-worker (serial) Monte-Carlo baseline
// ---------------------------------------------------------------------

fn mc_vn(nb: &Nb, args: &Args, report: &mut Report) -> Result<(), String> {
    let circuit = mc_vn_circuit(args.seed)?;
    let file = args.work.join("mc_vn.bench");
    write_file(&file, &circuit.text)?;
    let job = McJob::new(args.seed, MC_VN_PATTERNS);
    println!("input mc_vn.bench: {}", circuit.describe());
    println!(
        "experiment: eps {}, {} patterns in {} shards of {}, --jobs 1, no cache",
        job.eps,
        job.patterns,
        job.shards(),
        job.chunk
    );
    let cluster = |job: &McJob, jobs: &str| {
        let mut a = vec!["cluster".to_owned(), path_str(&file)];
        a.extend(job.cluster_args());
        a.extend(strings(&["--jobs", jobs]));
        a
    };

    // Set-up: one single-shard run is parse + compile + one shard; its
    // stdout must match the interpreted oracle engine's (bit-identical
    // by contract, independent executor code).
    let single = McJob {
        patterns: job.chunk,
        ..job.clone()
    };
    let oracle = nb.shot(&cluster(&single, "1"), &[("NANOBOUND_ENGINE", "interp")])?;
    report.check(oracle.ok, || {
        format!("oracle run failed: {}", oracle.stderr)
    });
    let mut setup = Vec::new();
    for rep in 0..MC_VN_SETUPS {
        let shot = nb.shot(&cluster(&single, "1"), &[])?;
        setup.push(shot.secs);
        check_shot(
            report,
            &shot,
            &oracle.stdout,
            &format!("single-shard run {rep}"),
        );
    }
    // Pin the measured run's stdout at set-up: the same experiment at
    // --jobs 2 (byte-identical to --jobs 1 by the runner contract).
    let pin = nb.shot(&cluster(&job, "2"), &[])?;
    report.check(pin.ok, || format!("pinning run failed: {}", pin.stderr));

    let reps = repetitions(args.seconds, MC_VN_NOMINAL_S);
    let mut walls = Vec::new();
    for rep in 0..reps {
        let shot = nb.shot(&cluster(&job, "1"), &[])?;
        walls.push(shot.secs);
        check_shot(report, &shot, &pin.stdout, &format!("mc_vn run {rep}"));
        let shards = job.shards() as u64;
        check_counts(report, &shot, [shards, 0, shards, 0, 0], "mc_vn", rep);
    }
    let gate_words = job.gate_words(circuit.gates);
    println!("gate-words per run: {gate_words}");
    println!(
        "mc_vn runs: {} samples, median {:.3} ms, min {:.3} ms, max {:.3} ms",
        walls.len(),
        median(&walls) * 1e3,
        quantile(&walls, 0.0) * 1e3,
        quantile(&walls, 1.0) * 1e3
    );
    let setup_s = setup_metric(report, &setup);
    let mean_wall = walls.iter().sum::<f64>() / walls.len() as f64;
    report.metric("gate_words_per_s", gate_words / mean_wall, "1/s");
    // A run past its set-up: the Monte-Carlo proper of one invocation.
    // Mean-based like the throughput (single runs are bimodal under the
    // host's speed phases), but net of the separately measured set-up.
    report.metric("req_ms", (mean_wall - setup_s) * 1e3, "ms");
    Ok(())
}

// ---------------------------------------------------------------------
// serve_mix: warm short-request mix, 2 in flight, --concurrency 2
// ---------------------------------------------------------------------

/// `(hits, misses, entries written)` off a `stats` payload's shard
/// cache line.
fn shard_counters(stats: &[u8]) -> Option<(u64, u64, u64)> {
    let text = String::from_utf8_lossy(stats);
    let (_, counts) = text.lines().next()?.rsplit_once(": ")?;
    let nums: Vec<u64> = counts
        .split(", ")
        .filter_map(|part| part.split_whitespace().next()?.parse().ok())
        .collect();
    match nums[..] {
        [h, m, w] => Some((h, m, w)),
        _ => None,
    }
}

/// The `mc_shards` payload of the mix, computed in-process.
fn mix_frames(small: &Circuit, job: &McJob) -> Result<Vec<u8>, String> {
    let design = nanobound_io::bench::parse(&small.text).map_err(|e| e.to_string())?;
    let config = NoisyConfig::new(job.eps, job.fault_seed).map_err(|e| e.to_string())?;
    let plan = ShardPlan::new(job.patterns, job.chunk).map_err(|e| e.to_string())?;
    let range = ShardRange {
        first: 0,
        last: MIX_MC_SHARDS,
    };
    let tallies = monte_carlo_shard_tallies(
        &ThreadPool::serial(),
        &design.netlist,
        &config,
        &plan,
        job.pattern_seed,
        range,
        None,
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok(encode_tally_frames(0, &tallies))
}

fn serve_mix(nb: &Nb, args: &Args, report: &mut Report) -> Result<(), String> {
    let small = mix_circuit(args.seed)?;
    let file = path_str(&args.work.join("serve_mix.bench"));
    write_file(Path::new(&file), &small.text)?;
    let mc = mix_job(args.seed);
    println!("input serve_mix.bench: {}", small.describe());
    let classes = mix_classes(&file, &small, &mc);

    // Expected payloads: the matching one-shot CLI stdout; `ping` and
    // `mc_shards` have no one-shot twin and are pinned below, and
    // `stats`, whose counters move with every request, is checked for
    // shape.
    let mut expect: Vec<Vec<u8>> = Vec::with_capacity(classes.len());
    for class in &classes {
        let argv: Option<Vec<String>> = match class.workload {
            "bound" => Some([strings(&["bounds"]), class.args.clone()].concat()),
            "lint" | "profile" => {
                Some([vec![class.workload.to_owned()], class.args.clone()].concat())
            }
            "figure" => Some(strings(&["figures", "--only", &class.args[0], "--stdout"])),
            "ping" => {
                expect.push(b"pong\n".to_vec());
                None
            }
            _ => {
                expect.push(Vec::new());
                None
            }
        };
        if let Some(mut argv) = argv {
            // `lint` is single-threaded and takes no --jobs.
            if class.workload != "lint" {
                argv.extend(strings(&["--jobs", "1"]));
            }
            let shot = nb.shot(&argv, &[])?;
            if !shot.ok {
                return Err(format!("one-shot {} failed: {}", class.name, shot.stderr));
            }
            expect.push(shot.stdout);
        }
    }
    for class in &classes {
        let line = format_request("r0", class.workload, &class.args);
        println!(
            "class {}: weight {}, request line {} bytes",
            class.name,
            class.weight,
            line.len() + 1
        );
    }

    // The mc_shards payload is pinned to the same shards computed
    // in-process; every other class to its one-shot stdout.
    let frames = mix_frames(&small, &mc)?;
    for (class, e) in classes.iter().zip(&mut expect) {
        if class.workload == "mc_shards" {
            e.clone_from(&frames);
        }
    }
    // Set-up is a restart on a warm cache directory: an untimed first
    // session fills it (figure cells, shards, profile measurements),
    // then each timed session runs from spawn until every class has
    // been answered once. The last session is measured.
    let serve_args = strings(&[
        "--jobs",
        "1",
        "--concurrency",
        "2",
        "--cache-dir",
        &path_str(&args.work.join("serve-cache")),
    ]);
    let warm_up = |s: &mut Session, report: &mut Report| -> Result<(), String> {
        for (c, class) in classes.iter().enumerate() {
            let line = format_request(&format!("w{c}"), class.workload, &class.args);
            let (ok, payload) = s.call(&line)?;
            let good = ok && (class.workload == "stats" || payload == expect[c]);
            report.check(good, || format!("serve_mix warm-up {} failed", class.name));
        }
        Ok(())
    };
    let mut prime = nb.serve(&serve_args)?;
    warm_up(&mut prime, report)?;
    prime.finish()?;
    let mut setup = Vec::new();
    let mut session = None;
    for _ in 0..SERVE_MIX_SETUPS {
        let start = Instant::now();
        let mut s = nb.serve(&serve_args)?;
        warm_up(&mut s, report)?;
        setup.push(start.elapsed().as_secs_f64());
        if let Some(prev) = session.replace(s) {
            Session::finish(prev)?;
        }
    }
    let mut session = session.expect("at least one set-up session");
    let (_, stats) = session.call(&format_request("st0", "stats", &[]))?;
    let before = shard_counters(&stats).ok_or_else(|| {
        format!(
            "unreadable stats payload {:?}",
            String::from_utf8_lossy(&stats)
        )
    })?;

    // The fixed, seed-shuffled request sequence.
    let deck: usize = classes.iter().map(|c| c.weight).sum();
    let copies = ((args.seconds * SERVE_MIX_RATE / deck as f64).round() as usize).max(5);
    let order = mix_order(&classes, copies, args.seed);
    let n = order.len();
    // Each class's request line after its id, so a line is built per
    // send without keeping 10^5 of them in memory.
    let tails: Vec<String> = classes
        .iter()
        .map(|c| format_request("", c.workload, &c.args)["{\"id\":\"".len()..].to_owned())
        .collect();
    let line = |i: usize| format!("{{\"id\":\"m{i}{}", tails[order[i]]);

    // The client keeps SERVE_MIX_WINDOW requests in flight.
    let mut sent_at = vec![Instant::now(); n];
    let mut latencies = Vec::with_capacity(n);
    let mut mc_count = 0u64;
    let mut next = 0;
    let start = Instant::now();
    while next < n.min(SERVE_MIX_WINDOW) {
        sent_at[next] = Instant::now();
        session.send(&line(next))?;
        next += 1;
    }
    for i in 0..n {
        let (id, ok, payload) = session.recv()?;
        latencies.push(sent_at[i].elapsed().as_secs_f64());
        if next < n {
            sent_at[next] = Instant::now();
            session.send(&line(next))?;
            next += 1;
        }
        let class = &classes[order[i]];
        if class.workload == "mc_shards" {
            mc_count += 1;
        }
        let good = ok
            && id == format!("m{i}")
            && if class.workload == "stats" {
                payload.starts_with(b"cache ")
            } else {
                payload == expect[order[i]]
            };
        report.check(good, || {
            format!(
                "serve_mix request {i} ({}): ok = {ok}, id {id}, {} bytes",
                class.name,
                payload.len()
            )
        });
    }
    let wall = start.elapsed().as_secs_f64();
    // Exact counts: every measured mc_shards request read all of its
    // shards from the cache, nothing else touched the shard cache.
    let (_, stats) = session.call(&format_request("st", "stats", &[]))?;
    session.finish()?;
    let after = shard_counters(&stats);
    let want = (
        before.0 + mc_count * MIX_MC_SHARDS as u64,
        before.1,
        before.2,
    );
    if after != Some(want) {
        report.problem(format!(
            "serve_mix shard-cache counters drifted: got {after:?} (hits, misses, writes), expected {want:?}"
        ));
    }
    let per_class = |name: &str| -> Vec<f64> {
        order
            .iter()
            .zip(&latencies)
            .filter(|(&c, _)| classes[c].name == name)
            .map(|(_, &l)| l * 1e3)
            .collect()
    };
    for class in &classes {
        let l = per_class(class.name);
        println!(
            "  {:<9} {:>6} requests, p50 {:.4} ms, p90 {:.4} ms",
            class.name,
            l.len(),
            median(&l),
            quantile(&l, 0.9)
        );
    }
    setup_metric(report, &setup);
    // One mc_shards answer's gate-words over its median latency.
    let mc_ms = per_class("mc_shards");
    report.metric(
        "gate_words_per_s",
        mc.gate_words(small.gates) / (median(&mc_ms) / 1e3),
        "1/s",
    );
    latency_metrics(report, "mix requests", &latencies, wall);
    Ok(())
}
