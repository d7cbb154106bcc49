//! The repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload scan_heavy --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `run.sh` builds `snoopyd` and this binary, then runs it from the
//! repository root. Each run boots a real `snoopyd` cluster on loopback
//! (one balancer plus the workload's subORAMs), drives open-loop traffic
//! from this single-threaded process at the workload's two fixed rates,
//! checks every reply (a linearizability check over the full history), and
//! prints every metric by name with its unit. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.
//!
//! A `--trace 1` run repeats the same TCP run (for the daemons' scraped
//! counters), climbs the rate ladder where the workload has one, then
//! replays the same seeded requests in-process with a span around each
//! layer call (see `replay`), byte-compares the replay against the
//! reference engine, and times single kernels.
//!
//! Everything the run writes lives under `.bench_run/` in the working
//! directory and is removed before exit.

mod cluster;
mod gen;
mod idle;
mod kernels;
mod replay;
mod stats;
mod workload;

use cluster::Cluster;
use gen::{Gen, OpState};
use snoopy_enclave::wire::Request;
use snoopy_lb::{partition_objects, LoadBalancer};
use snoopy_store::StorageKind;
use snoopy_telemetry::slo::Scrape;
use stats::{
    max_passing_rate, mean_ms, median, nested_ns, quantile, quiet_window_quantile, total_ns,
    unattributed_pct, Rung, Span,
};
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::{Duration, Instant};
use workload::{schedule, Arrival, Keys, Rng, Threads, Workload, LAMBDA, VALUE_LEN};

/// Cluster boots per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 7;
/// Unmeasured traffic at the low rate before the first block.
const WARMUP_SECS: f64 = 1.0;
/// Blocks a run's measured traffic is split into, alternating the low and
/// the high rate (low first), so a stretch of host noise falls on both
/// phases and each phase's windows spread over the whole run.
const BLOCKS: usize = 10;
/// Unmeasured start of every block (ns), while the epoch in flight from
/// the previous rate drains.
const SETTLE_NS: u64 = 500_000_000;
/// A run whose generator sent its p99 request later than this after its
/// due time is invalid: the offered load was not the schedule.
const GEN_LATE_LIMIT_MS: f64 = 0.5 * workload::EPOCH_MS as f64;
/// Equal windows each phase's latencies are split into (two per block);
/// a reported quantile is the lower quartile of the windows' quantiles.
const WINDOWS: usize = BLOCKS;
/// Untraced/traced replay pass pairs (the overhead row compares them).
const REPLAY_PAIRS: usize = 2;
/// Length of one ladder rung.
const RUNG_SECS: f64 = 1.5;
/// How long replies may trail the last send before the rest time out.
const DRAIN: Duration = Duration::from_secs(15);

/// The metrics a `--trace 0` run reports, with units, in report order —
/// `end_to_end` in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms.lo", "ms"),
    ("p99_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("p99_ms.hi", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The metrics a `--trace 1` run reports, with units, in report order —
/// `per_layer` in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("error_ratio", "ratio"),
    ("max_rate_rps", "1/s"),
    ("space_amp", "ratio"),
    ("bench.gen_late_ms_p99", "ms"),
    ("core.epoch_ms", "ms"),
    ("core.reqs_per_epoch", "count"),
    ("core.lb_make_ms", "ms"),
    ("core.lb_match_ms", "ms"),
    ("core.sub_wait_ms", "ms"),
    ("core.replays", "count"),
    ("core.degraded_epochs", "count"),
    ("suboram.scan_stage_ms", "ms"),
    ("store.scan_stage_ms", "ms"),
    ("store.commit_stage_ms", "ms"),
    ("net.sub_rtt_ms", "ms"),
    ("loadbalancer.pad_ratio", "ratio"),
    ("store.write_bytes_per_user_byte", "ratio"),
    ("store.fsyncs_per_epoch", "count"),
    ("replay.epoch_ms", "ms"),
    ("replay.unattributed_pct", "%"),
    ("replay.scan_share_pct", "%"),
    ("replay.lb_ohash_share_pct", "%"),
    ("replay.store_share_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("suboram.scan_ns_per_object", "ns"),
    ("ohash.construct_ms", "ms"),
    ("ohash.ns_per_entry", "ns"),
    ("loadbalancer.make_batches_ms", "ms"),
    ("loadbalancer.match_responses_ms", "ms"),
    ("core.link_seal_open_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("net.checkpoint_save_ms", "ms"),
    ("bench.memcpy_gb_s", "GB/s"),
    ("suboram.scan_floor_x", "ratio"),
    ("crypto.aead_seal_mb_s", "MB/s"),
    ("crypto.aead_open_mb_s", "MB/s"),
    ("crypto.siphash_ns", "ns"),
    ("obliv.osort_ms.t1", "ms"),
    ("obliv.osort_ms.tN", "ms"),
    ("obliv.ocompact_ms.t1", "ms"),
    ("obliv.ocompact_ms.tN", "ms"),
    ("suboram.batch_access_ms.t1", "ms"),
    ("suboram.batch_access_ms.tN", "ms"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    snoopyd: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --snoopyd PATH --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned();
    let name = get("--workload").unwrap_or_else(|| usage());
    let workload = workload::all().into_iter().find(|w| w.name == name).unwrap_or_else(|| usage());
    let seed = get("--seed").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    let seconds: f64 = get("--seconds").and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    if seconds <= 0.0 {
        usage();
    }
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage(),
    };
    let snoopyd = PathBuf::from(get("--snoopyd").unwrap_or_else(|| usage()));
    Args { workload, seed, seconds, trace, snoopyd }
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Report {
    fn add(&mut self, name: &str, unit: &'static str, value: f64) {
        self.add_noted(name, unit, value, String::new());
    }

    fn add_noted(&mut self, name: &str, unit: &'static str, value: f64, note: String) {
        debug_assert!(stats::valid_metric_name(name) && stats::valid_unit(unit), "{name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name: name.to_string(), unit, value, note });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything one TCP run measured.
struct TcpRun {
    setup_s: Vec<f64>,
    /// Raw latencies (ms) of the low- and high-rate phases.
    lat: [Vec<f64>; 2],
    late_ms: Vec<f64>,
    cpu_s: f64,
    /// Requests of the blocks that completed (settle periods included).
    block_ops: usize,
    rss_mb: f64,
    disk_bytes: u64,
    /// Scrapes at the start and end of each high-rate block.
    scrapes: Vec<(Vec<Scrape>, Vec<Scrape>)>,
    hi_secs: f64,
    hi_writes: usize,
    hi_plan: Vec<Arrival>,
    rungs: Vec<Rung>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory only
/// (no search of parent directories); `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            let packed = read("packed-refs")?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
        }),
        None => Some(head),
    };
    id.map(|h| h.trim().chars().take(12).collect::<String>())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Boots the cluster `SETUP_BOOTS` times, timing each from spawn to the
/// first served reply; keeps the last one running for the traffic phases.
fn boot_timed(
    args: &Args,
    threads: &Threads,
    dir: &Path,
    probe_id: u64,
) -> std::io::Result<(Cluster, Gen, Vec<f64>)> {
    let w = &args.workload;
    let sessions = nproc().clamp(1, 2);
    let mut setups = Vec::new();
    for b in 0..SETUP_BOOTS {
        let t0 = Instant::now();
        let cluster =
            Cluster::boot(&args.snoopyd, w, threads, args.seed, &dir.join(format!("boot{b}")))?;
        let mut gen = Gen::connect(cluster.lb_addr(), args.seed, sessions)?;
        if !gen.probe(probe_id, Duration::from_secs(60)) {
            return Err(std::io::Error::other("setup probe was never answered"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if b + 1 == SETUP_BOOTS {
            return Ok((cluster, gen, setups));
        }
        drop(gen);
        cluster.shutdown();
    }
    unreachable!("SETUP_BOOTS > 0")
}

/// Ops tagged `phase`: raw latencies (ms) of the completed ones, and how
/// many failed or are still pending.
fn phase_samples(gen: &Gen, phase: usize) -> (Vec<f64>, u64) {
    let mut lat = Vec::new();
    let mut bad = 0;
    for op in gen.ops.iter().filter(|o| o.phase == Some(phase)) {
        match op.latency_ms() {
            Some(ms) => lat.push(ms),
            None => bad += 1,
        }
    }
    (lat, bad)
}

fn run_tcp(
    args: &Args,
    threads: &Threads,
    dir: &Path,
    report: &mut Report,
) -> std::io::Result<TcpRun> {
    let w = &args.workload;
    let keys = Keys::for_workload(w);
    let mut rng = Rng::new(args.seed);
    let probe_id = rng.next_u64() % w.objects;
    let (cluster, mut gen, setup_s) = boot_timed(args, threads, dir, probe_id)?;

    let warm = schedule(&mut rng, &keys, w.lo_rps, WARMUP_SECS, w.write_frac);
    let block_secs = args.seconds / BLOCKS as f64;
    let blocks: Vec<(usize, Vec<Arrival>)> = (0..BLOCKS)
        .map(|b| {
            let rate = if b % 2 == 0 { w.lo_rps } else { w.hi_rps };
            (b % 2, schedule(&mut rng, &keys, rate, block_secs, w.write_frac))
        })
        .collect();
    gen.run(&warm, Instant::now(), None);

    let cpu0 = cluster.cpu_seconds()?;
    let first_op = gen.ops.len();
    let mut late_ms = Vec::new();
    let mut scrapes = Vec::new();
    let mut hi_secs = 0.0;
    let mut hi_plan = Vec::new();
    for (phase, plan) in &blocks {
        let before = if *phase == 1 { Some(cluster.scrape()?) } else { None };
        let settle = plan.partition_point(|a| a.due_ns < SETTLE_NS);
        let start = Instant::now();
        late_ms.extend(gen.run(&plan[..settle], start, None));
        late_ms.extend(gen.run(&plan[settle..], start, Some(*phase)));
        if let Some(before) = before {
            hi_secs += start.elapsed().as_secs_f64();
            scrapes.push((before, cluster.scrape()?));
            hi_plan.extend_from_slice(plan);
        }
    }
    gen.drain(DRAIN);
    let cpu_s = cluster.cpu_seconds()? - cpu0;
    let block_ops = gen.ops[first_op..].iter().filter(|o| o.latency_ms().is_some()).count();

    let mut rungs = Vec::new();
    if args.trace {
        for (k, &rate) in w.ladder_rps.iter().enumerate() {
            let plan = schedule(&mut rng, &keys, rate, RUNG_SECS, w.write_frac);
            gen.run(&plan, Instant::now(), Some(2 + k));
            gen.drain(Duration::from_secs(2));
            let (lat, bad) = phase_samples(&gen, 2 + k);
            let (first, second) = lat.split_at(lat.len() / 2);
            let rung = Rung {
                rate_rps: rate,
                p99_ms: quantile(&lat, 0.99).unwrap_or(f64::INFINITY),
                p50_first_ms: median(first).unwrap_or(f64::INFINITY),
                p50_second_ms: median(second).unwrap_or(f64::INFINITY),
                failed: bad,
            };
            println!(
                "ladder {rate:.0} rps: p99 {:.1} ms, p50 {:.1} -> {:.1} ms, {} failed, n={}",
                rung.p99_ms,
                rung.p50_first_ms,
                rung.p50_second_ms,
                bad,
                lat.len()
            );
            rungs.push(rung);
            if !stats::rung_passes(&rung, workload::LADDER_LIMIT_MS, workload::EPOCH_MS as f64) {
                break;
            }
        }
        gen.drain(DRAIN);
    }
    gen.finish();

    let rss_mb = cluster.peak_rss_mb()?;
    let disk_bytes = cluster.bytes_on_disk();
    gen_finish(&gen, report);
    cluster.shutdown();

    let (lat_lo, _) = phase_samples(&gen, 0);
    let (lat_hi, _) = phase_samples(&gen, 1);
    Ok(TcpRun {
        setup_s,
        lat: [lat_lo, lat_hi],
        late_ms,
        cpu_s,
        block_ops,
        rss_mb,
        disk_bytes,
        scrapes,
        hi_secs,
        hi_writes: hi_plan.iter().filter(|a| a.write).count(),
        hi_plan,
        rungs,
    })
}

/// Folds the generator's outcome into the report: attempts, failures, and
/// the linearizability verdict over the whole history.
fn gen_finish(gen: &Gen, report: &mut Report) {
    report.attempted += gen.ops.len();
    report.failed += gen.failed();
    let done = gen.ops.iter().filter(|o| matches!(o.state, OpState::Done { .. })).count();
    match gen.check_history() {
        Ok(()) => println!("history: {done} replies linearizable"),
        Err(v) => {
            report.failed += 1;
            report.problems.push(format!("linearizability violation: {}", v.message));
        }
    }
}

/// Scrapes of every daemon (balancer first) before and after each
/// high-rate block.
type ScrapePairs = [(Vec<Scrape>, Vec<Scrape>)];

/// How much `series` (summed over its label sets) grew on daemon `d`
/// across the high-rate blocks.
fn grew(pairs: &ScrapePairs, d: usize, series: &str) -> f64 {
    pairs.iter().map(|(a, b)| b[d].sum(series) - a[d].sum(series)).sum()
}

/// Mean time (ms) of `stage` on daemon `d` across the high-rate blocks.
fn stage_mean_ms(pairs: &ScrapePairs, d: usize, stage: &str) -> f64 {
    let grew = |series: &str| -> f64 {
        let get = |s: &Scrape| s.value_labeled(series, "stage", stage).unwrap_or(0.0);
        pairs.iter().map(|(a, b)| get(&b[d]) - get(&a[d])).sum()
    };
    let count = grew("snoopy_stage_seconds_count");
    let sum = grew("snoopy_stage_seconds_sum");
    if count > 0.0 {
        sum / count * 1e3
    } else {
        0.0
    }
}

fn end_to_end(run: &TcpRun, report: &mut Report) {
    report.add_noted(
        "setup_s",
        "s",
        median(&run.setup_s).unwrap_or(0.0),
        format!("median of {} boots: {:.3?}", run.setup_s.len(), run.setup_s),
    );
    for (i, phase) in ["lo", "hi"].iter().enumerate() {
        let lat = &run.lat[i];
        let n = format!(
            "lower quartile of {WINDOWS} windows of n={} (all-sample p50 {:.2}, p99 {:.2})",
            lat.len().div_ceil(WINDOWS),
            median(lat).unwrap_or(0.0),
            quantile(lat, 0.99).unwrap_or(0.0)
        );
        for (p, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let per = stats::window_quantiles(lat, WINDOWS, p);
            println!("windows {tag}_ms.{phase}: {per:.1?}");
            let value = quiet_window_quantile(lat, WINDOWS, p).unwrap_or(0.0);
            report.add_noted(&format!("{tag}_ms.{phase}"), "ms", value, n.clone());
        }
    }
    report.add_noted(
        "cpu_ms_per_req",
        "ms",
        run.cpu_s * 1e3 / run.block_ops.max(1) as f64,
        format!("{:.2} CPU s over {} requests", run.cpu_s, run.block_ops),
    );
    report.add("peak_rss_mb", "MB", run.rss_mb);
}

/// Per-layer numbers read from the daemons' own series over the
/// high-rate blocks (deltas between the scrapes around each block;
/// histogram means from `_sum/_count`, never bucket quantiles).
fn scraped(run: &TcpRun, report: &mut Report) -> f64 {
    let pairs = &run.scrapes[..];
    let subs = 1..pairs.first().map_or(1, |(a, _)| a.len());
    let epochs = grew(pairs, 0, "snoopy_epochs_total").max(1.0);
    let requests = grew(pairs, 0, "snoopy_requests_total");
    let entries = grew(pairs, 0, "snoopy_batch_entries_total");
    let sub_wait = stage_mean_ms(pairs, 0, "sub_wait");
    let per_sub = |stage: &str| -> Vec<f64> {
        subs.clone().map(|d| stage_mean_ms(pairs, d, stage)).collect()
    };
    let scan = per_sub("suboram_scan");
    let commit = per_sub("store_commit");
    let ckpt = per_sub("checkpoint_seal");
    let sub_work = (0..scan.len()).map(|i| scan[i] + commit[i] + ckpt[i]).fold(0.0, f64::max);
    let sub_sum = |name: &str| subs.clone().map(|d| grew(pairs, d, name)).sum::<f64>();

    report.add("core.epoch_ms", "ms", run.hi_secs * 1e3 / epochs);
    report.add("core.reqs_per_epoch", "count", requests / epochs);
    report.add("core.lb_make_ms", "ms", stage_mean_ms(pairs, 0, "lb_make"));
    report.add("core.lb_match_ms", "ms", stage_mean_ms(pairs, 0, "lb_match"));
    report.add("core.sub_wait_ms", "ms", sub_wait);
    report.add("core.replays", "count", grew(pairs, 0, "snoopy_replays_total"));
    report.add("core.degraded_epochs", "count", grew(pairs, 0, "snoopy_degraded_epochs_total"));
    report.add("suboram.scan_stage_ms", "ms", stats::mean(&scan));
    report.add("store.scan_stage_ms", "ms", stats::mean(&per_sub("store_scan")));
    report.add("store.commit_stage_ms", "ms", stats::mean(&commit));
    report.add("net.sub_rtt_ms", "ms", sub_wait - sub_work);
    report.add(
        "loadbalancer.pad_ratio",
        "ratio",
        if requests > 0.0 { entries / requests } else { 0.0 },
    );
    let user_bytes = (run.hi_writes * VALUE_LEN) as f64;
    let written = sub_sum("snoopy_store_bytes_written_total");
    report.add(
        "store.write_bytes_per_user_byte",
        "ratio",
        if user_bytes > 0.0 { written / user_bytes } else { 0.0 },
    );
    report.add("store.fsyncs_per_epoch", "count", sub_sum("snoopy_store_fsyncs_total") / epochs);
    requests / epochs
}

/// Groups the high-rate phase's requests into replay epochs of the size
/// the TCP run achieved.
fn replay_epochs(w: &Workload, plan: &[Arrival], per_epoch: f64) -> Vec<Vec<Request>> {
    let size = (per_epoch.round() as usize).max(1);
    plan.chunks(size)
        .take(w.replay_epochs)
        .enumerate()
        .map(|(k, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    let seq = (k * size + j) as u64;
                    if a.write {
                        Request::write(a.id, &workload::write_value(seq), VALUE_LEN, j as u64, seq)
                    } else {
                        Request::read(a.id, VALUE_LEN, j as u64, seq)
                    }
                })
                .collect()
        })
        .collect()
}

fn traced(
    args: &Args,
    threads: &Threads,
    dir: &Path,
    run: &TcpRun,
    per_epoch: f64,
    report: &mut Report,
) -> std::io::Result<()> {
    let w = &args.workload;
    let epochs = replay_epochs(w, &run.hi_plan, per_epoch);
    // Alternate untraced and traced passes (each on a fresh deployment) so
    // warm-up lands on both sides. The overhead compares, epoch by epoch,
    // the fastest pass of each kind: host jitter only ever adds time.
    let mut best = [vec![u64::MAX; epochs.len()], vec![u64::MAX; epochs.len()]];
    let mut passes = Vec::new();
    for _ in 0..REPLAY_PAIRS {
        for on in [false, true] {
            let out = replay::replay(w, threads, args.seed, &epochs, &dir.join("replay"), on)?;
            for (b, &ns) in best[usize::from(on)].iter_mut().zip(&out.epoch_ns) {
                *b = (*b).min(ns);
            }
            passes.push(out);
        }
    }
    let traced = passes.pop().expect("REPLAY_PAIRS > 0");
    let mut mismatches = replay::compare_with_reference(w, args.seed, &epochs, &traced.responses)?;
    mismatches += passes.iter().filter(|p| p.responses != traced.responses).count();
    let replies: usize = traced.responses.iter().map(Vec::len).sum();
    report.attempted += replies;
    if mismatches > 0 {
        report.failed += mismatches;
        report.problems.push(format!("{mismatches} replay responses differ from the reference"));
    } else {
        println!("replay: {replies} responses over {} epochs match the reference", epochs.len());
    }
    print_spans(&traced.spans);

    let spans: &[Span] = &traced.spans;
    let e = epochs.len().max(1) as f64;
    let per_epoch_ms = |name: &str| total_ns(spans, name) as f64 / e / 1e6;
    let epoch_ns = total_ns(spans, "epoch") as f64;
    let handle = total_ns(spans, "suboram.handle_batch") as f64;
    let construct = total_ns(spans, "ohash.construct") as f64;
    let make = total_ns(spans, "lb.make_batches") as f64;
    let matching = total_ns(spans, "lb.match_responses") as f64;
    let store = (nested_ns(spans, "store.commit") + nested_ns(spans, "net.checkpoint_save")) as f64;
    let lb = LoadBalancer::new(&replay::shared_key(args.seed), w.suborams, VALUE_LEN, LAMBDA);
    let batches = lb.make_batches(&epochs[0]).map_err(std::io::Error::other)?;
    let entries: f64 =
        epochs.iter().map(|r| (lb.epoch_batch_size(r.len()) * w.suborams) as f64).sum();
    let scan_ns_per_object = (handle - construct) / (e * w.objects as f64);
    let share = |ns: f64| 100.0 * ns / epoch_ns.max(1.0);
    print_premise(w, share(handle - construct), share(make + matching + construct), share(store));

    report.add("replay.epoch_ms", "ms", epoch_ns / e / 1e6);
    report.add("replay.unattributed_pct", "%", unattributed_pct(spans, "epoch"));
    report.add("replay.scan_share_pct", "%", share(handle - construct));
    report.add("replay.lb_ohash_share_pct", "%", share(make + matching + construct));
    report.add("replay.store_share_pct", "%", share(store));
    let (plain_ns, traced_ns): (u64, u64) = (best[0].iter().sum(), best[1].iter().sum());
    report.add_noted(
        "bench.trace_overhead_pct",
        "%",
        100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns.max(1) as f64,
        format!("best-of-{REPLAY_PAIRS} epochs: {traced_ns} ns traced vs {plain_ns} ns untraced"),
    );
    report.add("suboram.scan_ns_per_object", "ns", scan_ns_per_object);
    report.add("ohash.construct_ms", "ms", construct / (e * w.suborams as f64) / 1e6);
    report.add("ohash.ns_per_entry", "ns", construct / entries.max(1.0));
    report.add("loadbalancer.make_batches_ms", "ms", per_epoch_ms("lb.make_batches"));
    report.add("loadbalancer.match_responses_ms", "ms", per_epoch_ms("lb.match_responses"));
    report.add(
        "core.link_seal_open_ms",
        "ms",
        per_epoch_ms("link.batches") + per_epoch_ms("link.responses"),
    );
    report.add("store.commit_ms", "ms", per_epoch_ms("store.commit"));
    report.add_noted(
        "net.checkpoint_save_ms",
        "ms",
        mean_ms(spans, "net.checkpoint_save"),
        if w.checkpoint { "per save, every epoch" } else { "per save, beside the replay" }.into(),
    );

    // Single kernels on this workload's sizes.
    let gb_s = kernels::memcpy_gb_s();
    report.add("bench.memcpy_gb_s", "GB/s", gb_s);
    let floor_ns = (8 + VALUE_LEN) as f64 / gb_s;
    report.add_noted(
        "suboram.scan_floor_x",
        "ratio",
        scan_ns_per_object / floor_ns,
        format!("floor {floor_ns:.2} ns/object = {} B / memcpy bandwidth", 8 + VALUE_LEN),
    );
    let (seal, open) = kernels::aead_mb_s(replay::disk_config().block_bytes);
    report.add("crypto.aead_seal_mb_s", "MB/s", seal);
    report.add("crypto.aead_open_mb_s", "MB/s", open);
    report.add("crypto.siphash_ns", "ns", kernels::siphash_ns(w.suborams));
    let r = epochs[0].len();
    let n = r + w.suborams * lb.epoch_batch_size(r);
    let tn = nproc();
    for (t, tag) in [(1, "t1"), (tn, "tN")] {
        report.add_noted(
            &format!("obliv.osort_ms.{tag}"),
            "ms",
            kernels::osort_ms(n, t, args.seed),
            format!("n={n}, threads={t}"),
        );
        report.add_noted(
            &format!("obliv.ocompact_ms.{tag}"),
            "ms",
            kernels::ocompact_ms(n, t, args.seed),
            format!("n={n}, threads={t}"),
        );
    }
    let part = partition_objects(
        replay::initial_objects(w.objects),
        &replay::shared_key(args.seed),
        w.suborams,
    )
    .into_iter()
    .next()
    .unwrap_or_default();
    for (t, tag) in [(1, "t1"), (tn, "tN")] {
        report.add_noted(
            &format!("suboram.batch_access_ms.{tag}"),
            "ms",
            kernels::batch_access_ms(&part, &batches[0], t),
            format!("{} objects in memory, batch {}, threads={t}", part.len(), batches[0].len()),
        );
    }
    Ok(())
}

/// States whether the traced replay bears out the workload's premise.
fn print_premise(w: &Workload, scan_pct: f64, lb_ohash_pct: f64, store_pct: f64) {
    let (claim, holds) = match w.name {
        "scan_heavy" => {
            ("the subORAM scan is the largest share", scan_pct > lb_ohash_pct.max(store_pct))
        }
        "batch_heavy" => ("balancer plus ohash spans outweigh the scan", lb_ohash_pct > scan_pct),
        _ => ("store commit and checkpoint spans are visible", store_pct >= 1.0),
    };
    println!(
        "premise {}: {claim}: scan {scan_pct:.1}%, balancer+ohash {lb_ohash_pct:.1}%, \
         commit+checkpoint {store_pct:.1}% of replay epoch time -> {}",
        w.name,
        if holds { "confirmed" } else { "NOT confirmed" }
    );
}

/// One run: the TCP run, then (traced) the scraped, replay and kernel rows.
fn measure(args: &Args, threads: &Threads, dir: &Path, report: &mut Report) -> std::io::Result<()> {
    let w = &args.workload;
    let disk_io = w.storage != StorageKind::Memory || w.checkpoint;
    let spinners = if disk_io { None } else { idle::Spinners::start(nproc()) };
    println!(
        "idle spinners during the TCP run: {}",
        match (&spinners, disk_io) {
            (Some(_), _) => format!("{} at SCHED_IDLE", nproc()),
            (None, true) => "off (the workload does disk I/O)".into(),
            (None, false) => "off (SCHED_IDLE refused)".into(),
        }
    );
    let run = run_tcp(args, threads, dir, report)?;
    drop(spinners);
    let late_p99 = quantile(&run.late_ms, 0.99).unwrap_or(0.0);
    if late_p99 > GEN_LATE_LIMIT_MS {
        report.problems.push(format!(
            "generator fell behind: p99 send lateness {late_p99:.2} ms > {GEN_LATE_LIMIT_MS} ms"
        ));
    }
    if !args.trace {
        end_to_end(&run, report);
        return Ok(());
    }
    report.add("bench.gen_late_ms_p99", "ms", late_p99);
    let max_rate =
        max_passing_rate(&run.rungs, workload::LADDER_LIMIT_MS, workload::EPOCH_MS as f64);
    report.add_noted(
        "max_rate_rps",
        "1/s",
        max_rate.unwrap_or(0.0),
        if w.ladder_rps.is_empty() {
            "no ladder on this workload".into()
        } else {
            format!("{} rungs run", run.rungs.len())
        },
    );
    let user = (w.objects as usize * VALUE_LEN) as f64;
    report.add_noted(
        "space_amp",
        "ratio",
        run.disk_bytes as f64 / user,
        format!("{} B on disk", run.disk_bytes),
    );
    let per_epoch = scraped(&run, report);
    traced(args, threads, dir, &run, per_epoch, report)?;
    let error_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.add("error_ratio", "ratio", error_ratio);
    Ok(())
}

/// Prints the span tree's totals per layer boundary: spans, epochs
/// covered, total and self time.
fn print_spans(spans: &[Span]) {
    let mut names: Vec<&str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    println!("spans: name count epochs total_ms self_ms");
    for name in names {
        let idx: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].name == name).collect();
        let mut epochs: Vec<u64> = idx.iter().map(|&i| spans[i].epoch).collect();
        epochs.dedup();
        let total: u64 = idx.iter().map(|&i| spans[i].dur_ns()).sum();
        let own: u64 = idx.iter().map(|&i| stats::self_time_ns(spans, i)).sum();
        println!(
            "span {name} {} {} {:.3} {:.3}",
            idx.len(),
            epochs.len(),
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn run(args: &Args) -> std::io::Result<Report> {
    let w = &args.workload;
    let threads = Threads::for_host();
    let dir = std::env::current_dir()?.join(".bench_run").join(format!(
        "{}-{}",
        w.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "host: nproc={} profile={} rustc=\"{}\" commit={} lb_threads={} sub_threads={} \
         SNOOPY_NET_WORKERS={} generator=1 thread, {} sessions",
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        rustc_version(),
        commit(),
        threads.lb_threads,
        threads.sub_threads,
        threads.net_workers,
        nproc().clamp(1, 2),
    );
    println!(
        "workload {}: {} subORAM(s), {} objects x {} B, {} tier{}, zipf {}, {:.0}% writes, \
         lo {} rps / hi {} rps, epoch {} ms, lambda {}",
        w.name,
        w.suborams,
        w.objects,
        VALUE_LEN,
        w.storage,
        if w.checkpoint { " + checkpoint" } else { "" },
        w.zipf_theta,
        w.write_frac * 100.0,
        w.lo_rps,
        w.hi_rps,
        workload::EPOCH_MS,
        LAMBDA
    );
    let mut report = Report::default();
    let result = measure(args, &threads, &dir, &mut report);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(dir.parent().expect("run dir has a parent"));
    result?;
    let want = if args.trace { PER_LAYER } else { END_TO_END };
    if sorted(report.metrics.iter().map(|m| (m.name.as_str(), m.unit)))
        != sorted(want.iter().copied())
    {
        return Err(std::io::Error::other("reported metrics differ from the declared list"));
    }
    Ok(report)
}

fn sorted<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<(&'a str, &'a str)> {
    let mut v: Vec<_> = pairs.collect();
    v.sort_unstable();
    v
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(report) => {
            for m in &report.metrics {
                println!("metric {} {} {} {}", m.name, m.value, m.unit, m.note);
            }
            for p in &report.problems {
                println!("FAILED: {p}");
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric section of BENCHMARK.json.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("section closes")];
        let field = |chunk: &str, f: &str| {
            let at = chunk.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
            chunk[at..at + chunk[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|c| (field(c, "name"), field(c, "unit"))).collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json_and_the_grammar() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = section(&json, key);
            let ours: Vec<(String, String)> =
                list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(declared, ours, "{key}");
            for (name, unit) in list {
                assert!(stats::valid_metric_name(name), "{name}");
                assert!(stats::valid_unit(unit), "{name}: {unit}");
            }
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are used once");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn report_json_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.add("setup_s", "s", 0.25);
        r.add("p99_ms.hi", "ms", f64::NAN);
        r.attempted = 3;
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"p99_ms.hi\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
        r.problems.push("x".into());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
