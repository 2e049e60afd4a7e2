//! One CQL-to-sink benchmark of the PIPES toolkit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload windowed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload installs its standing queries through the public CQL
//! path (`compile_cql` → `Optimizer::install` → `QueryGraph::add_sink`)
//! over pre-generated, seeded input and runs them under
//! `WorkStealingExecutor` with `FifoStrategy`, in three phases:
//!
//! * `sat-N`: saturated sources, one worker per available core;
//! * `sat-1`: saturated sources, one worker;
//! * `paced`: N workers, sources on an open-loop schedule at the
//!   workload's fixed rate, while this thread installs a fleet of bid
//!   queries into the running graph.
//!
//! Every sink is checked against a `run_to_completion` reference of the
//! same plans and inputs. With `--trace 0` the flight recorder is off and
//! the end-to-end metrics are printed; `--trace 1` is a separate run with
//! the recorder on that prints the per-layer metrics (`ledger.rs`). The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod digest;
mod input;
mod ledger;
mod phase;
mod workload;

use input::Inputs;
use ledger::Buckets;
use phase::{run_phase, PhaseOut, Reference, Tally};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use workload::Workload;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 31;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Input generation and the reference run sit outside every timed region.
    let inputs = Inputs::generate(args.seed, w.nexmark_events, w.traffic);
    let reference = Reference::compute(&w, &inputs);

    let mut tally = Tally::default();
    let mut record = Record::new(&w, &args, cores, &inputs);
    record.fact("rss_mb_after_reference", peak_rss_mb().to_string());
    let metrics = if args.trace {
        traced_run(&w, &inputs, &reference, cores, &mut tally, &mut record)
    } else {
        measured_run(
            &w,
            &inputs,
            &reference,
            cores,
            &args,
            &mut tally,
            &mut record,
        )
    };
    for f in &tally.failures {
        println!("FAILED {f}");
    }
    for (name, (value, unit)) in &metrics {
        println!("{name} = {value:.6} {unit}");
    }
    println!("run record: {}", record.json());
    let correct = tally.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end run: recorder off, a fixed number of `sat-1`/`sat-N`
/// pairs and of `paced` phases for `--seconds`, interleaved so that noise
/// from outside the process spreads over all of them; medians over
/// repetitions.
fn measured_run(
    w: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    cores: usize,
    args: &Args,
    tally: &mut Tally,
    record: &mut Record,
) -> Metrics {
    pipes::trace::set_enabled(false);
    let (mut tp_n, mut tp_1, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_p50, mut lat_p99, mut first_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = None;
    let (sat_reps, paced_reps) = w.reps(args.seconds);
    for i in 0..sat_reps.max(paced_reps) {
        let mut phases = Vec::new();
        if i < sat_reps {
            let sat_1 = run_phase(w, inputs, "sat-1", 1, false, false, false);
            // Peak memory is read once, after the reference run and the
            // first single-worker phase. With N workers a saturated source
            // floods the other worker's queues (no backpressure) by an
            // amount that depends on timing: 57 to 268 MB on one windowed
            // seed on a 2-core host.
            rss_mb.get_or_insert_with(peak_rss_mb);
            let sat_n = run_phase(w, inputs, "sat-N", cores, false, false, false);
            tp_1.push(sat_1.throughput());
            tp_n.push(sat_n.throughput());
            phases.extend([sat_1, sat_n]);
        }
        if i < paced_reps {
            phases.push(run_phase(w, inputs, "paced", cores, true, true, false));
        }
        for p in &phases {
            tally.check_phase(p, reference);
            setups.push(p.setup.as_secs_f64());
            record.phase(p);
        }
        let Some(paced) = phases.iter().find(|p| p.label == "paced") else {
            continue;
        };
        // Per-phase percentiles, then their median over phases: one phase
        // hit by a stall from outside the process moves the p99 of its own
        // samples but not the median of the phases'.
        let mut lat_ms: Vec<f64> = paced
            .sinks
            .iter()
            .filter_map(|(_, out)| out.as_ref())
            .flat_map(|o| o.lat_us.iter().map(|&u| u as f64 / 1e3))
            .collect();
        lat_p50.push(percentile(&mut lat_ms, 0.50));
        lat_p99.push(percentile(&mut lat_ms, 0.99));
        first_ms.extend(first_results_ms(paced));
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(phase::build(w, inputs, None).setup.as_secs_f64());
    }
    let (tail_label, first_tail) = tail(&mut first_ms);
    record.samples("throughput_eps", &tp_n);
    record.samples("throughput_1t_eps", &tp_1);
    record.samples("setup_s", &setups);
    record.samples("latency_p50_ms", &lat_p50);
    record.samples("latency_p99_ms", &lat_p99);
    record.samples("first_result_ms", &first_ms);
    // Printed and recorded but not one of the benchmark's gated metrics:
    // over ten seeds on a 2-core VM its quartile spread reached 0.44 of
    // the median on live_install, beyond the largest bound a metric may
    // have.
    println!("first_result_tail_ms = {first_tail:.6} ms ({tail_label})");
    record.fact("first_result_tail_ms", first_tail.to_string());
    record.fact("first_result_tail_percentile", format!("\"{tail_label}\""));

    let mut m = Metrics::new();
    m.insert("setup_s".into(), (median(&mut setups), "s"));
    m.insert("throughput_eps".into(), (median(&mut tp_n), "1/s"));
    m.insert("throughput_1t_eps".into(), (median(&mut tp_1), "1/s"));
    m.insert("latency_p50_ms".into(), (median(&mut lat_p50), "ms"));
    m.insert("latency_p99_ms".into(), (median(&mut lat_p99), "ms"));
    m.insert(
        "first_result_p50_ms".into(),
        (percentile(&mut first_ms, 0.5), "ms"),
    );
    m.insert("peak_rss_mb".into(), (rss_mb.unwrap_or_default(), "MB"));
    m
}

/// Install → first result of each live install that delivered one, ms.
fn first_results_ms(p: &PhaseOut) -> Vec<f64> {
    p.fleet
        .iter()
        .filter_map(|(f, out)| {
            let first = out.as_ref()?.first?;
            Some(first.saturating_duration_since(f.returned).as_secs_f64() * 1e3)
        })
        .collect()
}

/// `sat-N` phases run with the recorder off and on, alternating, for
/// `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 5;

/// The traced run: `sat-N` with the recorder off and on (no sampler) for
/// the recorder's overhead, then `sat-N` and `paced` traced with the
/// sampler thread for the ledger. Each group of per-layer metrics below
/// names the end-to-end metric it should move, and on which workload.
fn traced_run(
    w: &Workload,
    inputs: &Inputs,
    reference: &Reference,
    cores: usize,
    tally: &mut Tally,
    record: &mut Record,
) -> Metrics {
    let (mut tp_off, mut tp_on) = (Vec::new(), Vec::new());
    let mut plain = None;
    for _ in 0..OVERHEAD_PAIRS {
        for on in [false, true] {
            pipes::trace::set_enabled(on);
            pipes::trace::clear();
            let label = if on { "sat-N recorder on" } else { "sat-N" };
            let p = run_phase(w, inputs, label, cores, false, false, false);
            tally.check_phase(&p, reference);
            record.phase(&p);
            if on {
                tp_on.push(p.throughput());
            } else {
                tp_off.push(p.throughput());
                plain = Some(p);
            }
        }
    }
    let plain = plain.expect("at least one pair");
    pipes::trace::set_enabled(true);
    pipes::trace::clear();
    let sat = run_phase(w, inputs, "sat-N traced", cores, false, false, true);
    pipes::trace::clear();
    let paced = run_phase(w, inputs, "paced traced", cores, true, true, true);
    pipes::trace::set_enabled(false);
    for p in [&sat, &paced] {
        tally.check_phase(p, reference);
        record.phase(p);
    }
    let sat_s = sat.sampled.as_ref().expect("traced phase sampled");
    let paced_s = paced.sampled.as_ref().expect("traced phase sampled");

    // cql and optimizer: compile and install time move `setup_s` everywhere
    // and `first_result_p50_ms` on live_install; the reuse ratio moves
    // `peak_rss_mb` and `latency_p99_ms` on live_install.
    let mut m = Metrics::new();
    let phases = [&plain, &sat, &paced];
    let mut compile: Vec<f64> = phases
        .iter()
        .map(|p| p.compile.as_secs_f64() * 1e3)
        .collect();
    let mut install: Vec<f64> = phases
        .iter()
        .map(|p| p.install.as_secs_f64() * 1e3)
        .collect();
    m.insert("cql.compile_ms".into(), (median(&mut compile), "ms"));
    m.insert("optimizer.install_ms".into(), (median(&mut install), "ms"));
    let created = paced.created + paced.fleet.iter().map(|(f, _)| f.created).sum::<usize>();
    let reused = paced.reused + paced.fleet.iter().map(|(f, _)| f.reused).sum::<usize>();
    m.insert(
        "optimizer.reuse_ratio".into(),
        (reused as f64 / (created + reused).max(1) as f64, "ratio"),
    );

    // graph: the node count is context; the mean drained run moves
    // `throughput_eps` on live_install; backlog peak and slope (positive: the
    // rate is not sustainable) move `latency_p99_ms` in paced phases.
    let merged = pipes::sched::ExecutionReport::merge(&plain.reports);
    m.insert("graph.nodes".into(), (plain.nodes as f64, "count"));
    m.insert(
        "graph.run_len_avg".into(),
        (merged.avg_batch_size(), "msgs"),
    );
    let (peak, slope) = backlog(&paced_s.backlog);
    m.insert("graph.backlog_peak".into(), (peak, "msgs"));
    m.insert("graph.backlog_slope".into(), (slope, "msgs/s"));

    // source and sink: lag moves `latency_p99_ms` and empty polls
    // `latency_p50_ms` in paced phases; result counts feed the checks.
    let mut lag_ms: Vec<f64> = paced
        .sources
        .iter()
        .flat_map(|(_, s)| s.lag_us.iter().map(|&u| u as f64 / 1e3))
        .collect();
    m.insert(
        "source.lag_p99_ms".into(),
        (percentile(&mut lag_ms, 0.99), "ms"),
    );
    let polls: u64 = paced.sources.iter().map(|(_, s)| s.polls).sum();
    let empty: u64 = paced.sources.iter().map(|(_, s)| s.empty_polls).sum();
    m.insert(
        "source.empty_poll_ratio".into(),
        (empty as f64 / polls.max(1) as f64, "ratio"),
    );
    for q in ALL_QUERIES {
        let n = paced
            .sinks
            .iter()
            .find(|(name, _)| *name == q)
            .and_then(|(_, o)| o.as_ref())
            .map_or(0, |o| o.digest.count);
        m.insert(format!("sink.results.{q}"), (n as f64, "count"));
    }
    let fleet_results: u64 = paced
        .fleet
        .iter()
        .filter_map(|(_, o)| o.as_ref().map(|o| o.digest.count))
        .sum();
    m.insert("sink.results.fleet".into(), (fleet_results as f64, "count"));

    // ops: node.step time and selectivity per operator kind, from sat-N.
    // aggregate and join time move `throughput_eps` and
    // `throughput_1t_eps` on windowed; map, filter and sink time move
    // `throughput_eps` on live_install; sampled state bytes move
    // `peak_rss_mb` on windowed; selectivity is context.
    let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
    let mut flow: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (id, name, kind, inn, out) in &sat.node_info {
        let Some(k) = op_kind(name, *kind) else {
            continue;
        };
        *busy.entry(k).or_default() += sat_s
            .ledger
            .step_ns
            .get(&(*id as u64))
            .copied()
            .unwrap_or(0) as f64
            / 1e6;
        let f = flow.entry(k).or_default();
        f.0 += inn;
        f.1 += out;
    }
    for k in OP_KINDS {
        m.insert(
            format!("ops.{k}.busy_ms"),
            (busy.get(k).copied().unwrap_or(0.0), "ms"),
        );
        // Sources have no input and sinks no output: no selectivity.
        if k != "source" && k != "sink" {
            let (inn, out) = flow.get(k).copied().unwrap_or((0, 0));
            let sel = if inn > 0 {
                out as f64 / inn as f64
            } else {
                0.0
            };
            m.insert(format!("ops.{k}.selectivity"), (sel, "ratio"));
        }
    }
    m.insert(
        "ops.state_bytes_peak".into(),
        (
            sat_s.state_bytes_peak.max(paced_s.state_bytes_peak) as f64,
            "bytes",
        ),
    );

    // sched: counters from the untraced sat-N run, buckets from the traces.
    // Steals, skew and peak queue move `throughput_eps` but not
    // `throughput_1t_eps` on live_install; the busy/self/park shares move
    // `throughput_eps` in sat-N and `latency_p50_ms` in paced phases.
    m.insert("sched.steals".into(), (merged.steals as f64, "count"));
    m.insert(
        "sched.peak_queue".into(),
        (merged.peak_queue as f64, "msgs"),
    );
    let consumed: Vec<u64> = plain.reports.iter().map(|r| r.consumed).collect();
    let skew = consumed.iter().max().copied().unwrap_or(0) as f64
        / consumed.iter().min().copied().unwrap_or(0).max(1) as f64;
    m.insert("sched.worker_skew".into(), (skew, "ratio"));
    let mut cover = f64::INFINITY;
    for (prefix, p, s) in [("sched", &sat, sat_s), ("sched.paced", &paced, paced_s)] {
        let b = s.ledger.workers();
        let covered: u64 = b.iter().map(|b| b.covered).sum();
        let frac = |x: u64| x as f64 / covered.max(1) as f64;
        m.insert(
            format!("{prefix}.busy_frac"),
            (frac(b.iter().map(|b| b.quantum).sum()), "ratio"),
        );
        m.insert(
            format!("{prefix}.self_frac"),
            (frac(b.iter().map(Buckets::self_time).sum()), "ratio"),
        );
        m.insert(
            format!("{prefix}.park_frac"),
            (frac(b.iter().map(|b| b.parked).sum()), "ratio"),
        );
        for b in &b {
            let wall = p
                .reports
                .get(b.worker)
                .map_or(0, |r| r.wall.as_nanos() as u64);
            cover = cover.min(b.covered as f64 / wall.max(1) as f64);
            record.fact(
                &format!("{} worker-{} buckets_ms", p.label, b.worker),
                format!(
                    "{{\"wall\": {:.3}, \"quantum\": {:.3}, \"self\": {:.3}, \"parked\": {:.3}}}",
                    wall as f64 / 1e6,
                    b.quantum as f64 / 1e6,
                    b.self_time() as f64 / 1e6,
                    b.parked as f64 / 1e6
                ),
            );
        }
    }
    // ROADMAP item 1: the buckets must add up to within 5% of each
    // worker's wall time, i.e. the drained events must cover 95% of it.
    // A shortfall is a gap in the measurement (the sampler thread did not
    // get a core in time), not wrong output, so it is reported, not
    // counted as a failed check.
    if cover < 0.95 {
        println!(
            "WARNING trace ledger covers only {:.1}% of a worker's wall time",
            cover * 100.0
        );
    }
    m.insert("trace.cover_frac".into(), (cover, "ratio"));

    // Install stages over the paced phase's live installs (p50s); on
    // live_install they should account for `first_result_p50_ms`.
    let (mut replan, mut claim, mut first) = (Vec::new(), Vec::new(), Vec::new());
    for (f, out) in &paced.fleet {
        let Some(first_at) = out.as_ref().and_then(|o| o.first) else {
            continue;
        };
        let ret = paced_s.trace_ns(f.returned);
        let ms = |ns: u64| ns.saturating_sub(ret) as f64 / 1e6;
        if let Some(&(ts, _)) = paced_s
            .ledger
            .replans
            .iter()
            .find(|(ts, ep)| *ts >= ret && *ep >= f.epoch)
        {
            replan.push(ms(ts));
        }
        if let Some(&ts) = paced_s.ledger.first_step.get(&(f.sink as u64)) {
            claim.push(ms(ts));
        }
        first.push(ms(paced_s.trace_ns(first_at)));
    }
    record.samples("install_replan_wait_ms", &replan);
    record.samples("install_claim_wait_ms", &claim);
    record.samples("install_first_result_ms", &first);
    m.insert(
        "sched.replan_wait_ms".into(),
        (percentile(&mut replan, 0.5), "ms"),
    );
    m.insert(
        "sched.claim_wait_ms".into(),
        (percentile(&mut claim, 0.5), "ms"),
    );
    m.insert(
        "graph.first_result_ms".into(),
        (percentile(&mut first, 0.5), "ms"),
    );

    // meta and trace: no end-to-end metric.
    let mut meta: Vec<f64> = sat_s
        .meta_snapshot_ms
        .iter()
        .chain(&paced_s.meta_snapshot_ms)
        .copied()
        .collect();
    m.insert("meta.snapshot_ms".into(), (median(&mut meta), "ms"));
    let (tp0, tp1) = (median(&mut tp_off), median(&mut tp_on));
    m.insert(
        "trace.overhead_pct".into(),
        ((tp0 - tp1) / tp0 * 100.0, "%"),
    );
    m.insert(
        "trace.drain_ms".into(),
        (sat_s.drain_ms + paced_s.drain_ms, "ms"),
    );
    m
}

/// Standing-query sinks across all workloads; each traced run prints a
/// result count for every one (0 where the workload lacks it).
const ALL_QUERIES: [&str; 8] = [
    "q2_selection",
    "q3_highest_bid",
    "q4_hot_items",
    "q5_bid_auction_join",
    "q7_avg_price_per_category",
    "fsp_q1_hov_avg_speed",
    "fsp_q3_section_flow",
    "fsp_q4_truck_share",
];

/// Operator kinds the per-layer ops metrics are grouped by.
const OP_KINDS: [&str; 8] = [
    "window",
    "aggregate",
    "join",
    "every",
    "map",
    "filter",
    "source",
    "sink",
];

/// The kind of a node, from the name `compile` gives it.
fn op_kind(name: &str, kind: pipes::graph::NodeKind) -> Option<&'static str> {
    use pipes::graph::NodeKind;
    Some(match kind {
        NodeKind::Source => "source",
        NodeKind::Sink => "sink",
        _ if name.starts_with("window") => "window",
        _ if name.starts_with("aggregate[flatten]") || name.starts_with("project") => "map",
        _ if name.starts_with("aggregate") => "aggregate",
        _ if name.starts_with("join") || name.starts_with("reljoin") => "join",
        _ if name.starts_with("every") => "every",
        _ if name.starts_with("filter") => "filter",
        _ => return None,
    })
}

/// Peak and least-squares slope of the sampled backlog.
fn backlog(samples: &[(f64, usize)]) -> (f64, f64) {
    let peak = samples.iter().map(|s| s.1).max().unwrap_or(0) as f64;
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return (peak, 0.0);
    }
    let mx = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1 as f64).sum::<f64>() / n;
    let sxy: f64 = samples.iter().map(|s| (s.0 - mx) * (s.1 as f64 - my)).sum();
    let sxx: f64 = samples.iter().map(|s| (s.0 - mx).powi(2)).sum();
    (peak, if sxx > 0.0 { sxy / sxx } else { 0.0 })
}

fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    sort(v);
    // The epsilon keeps an exact rank such as 0.95 × 240 from rounding up.
    let rank = (q * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest of p99.9, p99, p95, p90 and p50 with at least ten samples
/// beyond it, and its label. A run's install count is fixed per workload,
/// so every run of a workload reports the same percentile.
fn tail(v: &mut [f64]) -> (String, f64) {
    let n = v.len();
    for per_mille in [999, 990, 950, 900, 500] {
        // Samples beyond the nearest-rank percentile, in integers.
        if n - (per_mille * n).div_ceil(1000) >= 10 {
            let q = per_mille as f64 / 1000.0;
            return (format!("p{} of {n}", q * 100.0), percentile(v, q));
        }
    }
    (format!("max of {n}"), percentile(v, 1.0))
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s, then fourteen `long`s), `r` is a valid,
    // writable instance of it, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc == 0 {
        r.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The run record: host facts and per-run samples, printed as one JSON
/// object so a number measured on one or two cores is labelled as such.
struct Record {
    facts: Vec<(String, String)>,
}

impl Record {
    fn new(w: &Workload, args: &Args, cores: usize, inputs: &Inputs) -> Record {
        let mut r = Record { facts: Vec::new() };
        r.fact("workload", format!("\"{}\"", w.name));
        r.fact("seed", args.seed.to_string());
        r.fact("seconds", args.seconds.to_string());
        r.fact("trace", args.trace.to_string());
        r.fact("cores", cores.to_string());
        r.fact("git_revision", format!("\"{}\"", git_revision()));
        r.fact("paced_rate_eps", w.paced_rate.to_string());
        r.fact("events_per_phase", inputs.events(w.streams).to_string());
        r.fact(
            "fleet_installs_per_paced_phase",
            w.fleet.installs.to_string(),
        );
        r
    }

    fn fact(&mut self, key: &str, json_value: String) {
        self.facts.push((key.to_string(), json_value));
    }

    fn samples(&mut self, key: &str, v: &[f64]) {
        let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
        self.fact(&format!("{key}_samples"), format!("[{}]", items.join(", ")));
    }

    fn phase(&mut self, p: &PhaseOut) {
        let n = self
            .facts
            .iter()
            .filter(|(k, _)| k.starts_with("phase "))
            .count();
        let mut per_query = Vec::new();
        for (name, out) in &p.sinks {
            let Some(out) = out else { continue };
            let mut lat: Vec<f64> = out.lat_us.iter().map(|&u| u as f64 / 1e3).collect();
            per_query.push(format!(
                "\"{name}\": {{\"results\": {}, \"latency_p50_ms\": {}}}",
                out.digest.count,
                percentile(&mut lat, 0.5)
            ));
        }
        // A stream can have several source nodes (unshared scans), so
        // sources are keyed by creation order as well as by stream.
        for (i, (name, st)) in p.sources.iter().enumerate() {
            let mut lag: Vec<f64> = st.lag_us.iter().map(|&u| u as f64 / 1e3).collect();
            per_query.push(format!(
                "\"source {i} {name}\": {{\"emitted\": {}, \"lag_p50_ms\": {}, \"lag_p90_ms\": {}, \"lag_p99_ms\": {}}}",
                st.emitted,
                percentile(&mut lag, 0.5),
                percentile(&mut lag, 0.9),
                percentile(&mut lag, 0.99)
            ));
        }
        self.fact(
            &format!("phase {n}"),
            format!(
                "{{\"label\": \"{}\", \"workers\": {}, \"events\": {}, \"wall_s\": {}, \"setup_s\": {}, \"installs\": {}, \"rss_mb_after\": {}, \"peak_queue\": {}, \"sinks\": {{{}}}}}",
                p.label,
                p.workers,
                p.events,
                p.wall.as_secs_f64(),
                p.setup.as_secs_f64(),
                p.fleet.len(),
                peak_rss_mb(),
                pipes::sched::ExecutionReport::merge(&p.reports).peak_queue,
                per_query.join(", ")
            ),
        );
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The checked-out revision, read from `.git` inside the working
/// directory; "unknown" outside a git checkout.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}
