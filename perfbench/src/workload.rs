//! The workloads: which queries, which inputs, which rates, and why.
//!
//! Gulisano et al. find that stream engines differ on exactly three
//! operator classes: stateless, windowed aggregate and join. `windowed`
//! covers the last two; `live_install` adds topology writes beside steady
//! reads, and its q2 and the fleet are stateless (filter, map). Which
//! layer metric should move which end-to-end metric is noted per workload
//! and in `traced_run`.
//!
//! A `stateless` workload (q0, q1, q2 and q6 fanned out from one bid
//! source, so that edge push/drain, `step_node` bookkeeping and the
//! scheduler dominate) was built and dropped: its results take well under
//! a millisecond, so their tail is set by the host's scheduling noise,
//! not by the program. Over ten seeds on a 2-core VM its paced p99
//! ranged 0.85–5.3 ms (quartile spread 1.1 of the median) and its
//! first-result p95 37–72 ms (0.32), wider than any bound the benchmark
//! may set.
//!
//! Left out on purpose: `mem` (memory-budgeted shedding) and `cursor` are
//! not on the CQL-to-sink path, and overload traffic needs the bounded-
//! memory work of ROADMAP item 6; both belong to a later benchmark change.

use pipes::nexmark::queries as nex;
use pipes::traffic::queries as fsp;
use std::time::Duration;

/// A fleet of E20-style bid queries installed into the running paced
/// phase on a fixed schedule. They share scan, window and filter, and
/// rotate through `distinct` projections.
pub struct Fleet {
    /// Installs per paced phase.
    pub installs: usize,
    /// Installs run between these shares of the paced schedule, so each
    /// one meets a flowing stream and has time left for its first result.
    pub window: (f64, f64),
    /// Distinct projection bodies.
    pub distinct: usize,
}

/// One workload.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// (sink name, CQL text) of the standing queries.
    pub queries: Vec<(&'static str, &'static str)>,
    /// Streams those queries scan; their events are the phase's input.
    pub streams: &'static [&'static str],
    /// NEXMark events generated from the seed.
    pub nexmark_events: u64,
    /// Whether FSP readings over the same interval are generated.
    pub traffic: bool,
    /// Input events per second in the paced phase: about half of what
    /// `sat-N` reaches on this workload at the commit that set it, so the
    /// paced phase measures latency below saturation.
    pub paced_rate: f64,
    /// Live installs during the paced phase.
    pub fleet: Fleet,
    /// Share of the input timeline whose standing-query results count
    /// towards `latency_*`. Where the fleet only serves the first-result
    /// metrics it installs after this point, so the standing queries are
    /// timed undisturbed (40 installs into a bid fan-out paced at 100 k
    /// events/s raised its p99 from 2–13 ms to about 200 ms on a 2-core
    /// host); on `live_install` every result counts, since that
    /// disturbance is what the workload measures.
    pub latency_share: f64,
    /// Seconds a `sat-1` plus a `sat-N` phase, and a `paced` phase, took
    /// on the 2-core host the rates were tuned on. With `paced_share` they
    /// turn `--seconds` into fixed repetition counts ([`Workload::reps`]),
    /// so a run makes the same measurements however fast the code under
    /// test is.
    pub phase_secs: (f64, f64),
    /// Share of `--seconds` given to paced phases. On `live_install` the
    /// installs, and with them the first-result samples, come only from
    /// paced phases.
    pub paced_share: f64,
}

impl Workload {
    /// Repetitions of the saturated pair and of the paced phase in a run
    /// of `seconds`.
    pub fn reps(&self, seconds: u64) -> (usize, usize) {
        let n = |share: f64, secs: f64| {
            (seconds as f64 * share / secs).round().clamp(1.0, 100.0) as usize
        };
        (
            n(1.0 - self.paced_share, self.phase_secs.0),
            n(self.paced_share, self.phase_secs.1),
        )
    }
}

/// Text of fleet query `k`.
pub fn fleet_query(k: usize) -> String {
    format!(
        "SELECT auction, price * {} AS scaled FROM bid [RANGE 2 MINUTES] WHERE price > 1000",
        k + 1
    )
}

/// Longest a phase may run before its checks fail.
pub const PHASE_BOUND: Duration = Duration::from_secs(60);

/// Longest an installed query may take to deliver its first result.
pub const FIRST_RESULT_BOUND: Duration = Duration::from_secs(5);

/// The light fleet of `windowed`: enough installs for a first-result tail,
/// late enough in the schedule that the fleet's own results stay a small
/// share of the phase's work.
const LIGHT_FLEET: Fleet = Fleet {
    installs: 48,
    window: (0.5, 0.9),
    distinct: 4,
};

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        // Operators do most of the work: window scans, SweepArea joins and
        // grouped aggregates with high (q4, per auction) and low (q7, per
        // category; FSP q3, per section) key counts; graph and scheduler
        // work per event is small. The CQL aggregate `TupleAggs` does not
        // implement `combinable()`, so the partial-aggregate tree never runs
        // behind CQL and every insert rescans the window: q3's ~2.2 k-bid
        // window makes it the dominant query here, and FSP q1's one-hour
        // window the second. An ops change (aggregate, join) should move
        // `throughput_eps` and `throughput_1t_eps` here, and
        // `ops.state_bytes_peak` should track `peak_rss_mb`. Paced at about
        // half of `sat-N` (~10 k events/s on a 2-core host); the light
        // fleet is there so that every workload reports every end-to-end
        // metric.
        "windowed" => Workload {
            name: "windowed",
            queries: vec![
                ("q3_highest_bid", nex::q3_highest_bid_10min()),
                ("q4_hot_items", nex::q4_hot_items()),
                ("q5_bid_auction_join", nex::q5_bid_auction_join()),
                (
                    "q7_avg_price_per_category",
                    nex::q7_avg_price_per_category(),
                ),
                ("fsp_q1_hov_avg_speed", fsp::q1_hov_avg_speed_cql()),
                ("fsp_q3_section_flow", fsp::q3_section_flow_cql()),
                ("fsp_q4_truck_share", fsp::q4_truck_share_cql()),
            ],
            streams: &["bid", "auction", "traffic"],
            nexmark_events: 8_000,
            traffic: true,
            paced_rate: 5_000.0,
            fleet: LIGHT_FLEET,
            latency_share: LIGHT_FLEET.window.0,
            phase_secs: (3.2, 2.9),
            paced_share: 0.5,
        },
        // Topology writes beside steady reads: cql, the optimizer's MQO
        // probe, the graph splice and the scheduler replan do the work.
        // Shows whether installs disturb the running q2/q4
        // (`latency_p99_ms`) and measures the install → first-result delay
        // of ROADMAP item 5; `sched.replan_wait_ms`, `sched.claim_wait_ms`
        // and `graph.first_result_ms` should account for
        // `first_result_p50_ms`. Paced far below half of `sat-N` (~60 k
        // events/s for q2+q4 alone on a 2-core host): every install adds
        // work for each later bid, and at 20 k events/s with 200 installs
        // the phase ran 10 s for a 5.4 s schedule with 1.1 M messages
        // queued. The saturated phases run q2+q4 without the fleet, so
        // that every workload reports every end-to-end metric.
        "live_install" => Workload {
            name: "live_install",
            queries: vec![
                ("q2_selection", nex::q2_selection()),
                ("q4_hot_items", nex::q4_hot_items()),
            ],
            streams: &["bid"],
            nexmark_events: 30_000,
            traffic: false,
            paced_rate: 5_000.0,
            fleet: Fleet {
                installs: 100,
                window: (0.1, 0.7),
                distinct: 10,
            },
            latency_share: 1.0,
            phase_secs: (0.9, 5.5),
            paced_share: 0.75,
        },
        _ => return None,
    })
}

/// Every workload name.
pub const NAMES: [&str; 2] = ["windowed", "live_install"];
