//! The traced run: a sampler thread that drains the flight recorder and
//! samples graph gauges while a phase runs, and the per-worker ledger
//! built from the recorder's existing events.
//!
//! The ledger reads only events the toolkit already records
//! (`node.step`, `sched.quantum`, `sched.park`/`unpark`, `sched.replan`)
//! through `pipes::trace::snapshot`; it adds no recording site to the
//! toolkit. Each worker's wall time splits into three buckets: inside
//! `sched.quantum` spans (busy), between a park and its unpark (parked),
//! and the rest (scheduler self time: strategy selection, claim, steal,
//! replan, spin and yield). A layer's self time is its span minus the
//! child spans inside it, so `node.step` time is the operator share of the
//! busy bucket.
//!
//! The recorder keeps the last `RING_CAPACITY` events per thread, so the
//! sampler drains it before a ring refills (see [`DRAIN_EVERY`]). A drain that finds a full ring
//! whose oldest event is newer than the last one seen has lost events; the
//! interval is booked as a gap and the ledger reports the share of each
//! worker's wall time its events cover.

use pipes::prelude::*;
use pipes::trace::{names, EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration as StdDuration, Instant};

/// The recorder's per-thread ring size (`pipes_trace`'s `RING_CAPACITY`).
const RING_CAPACITY: usize = 16 * 1024;

/// Bounds of the sampler's drain period. Each drain copies whole rings,
/// so the sampler drains as rarely as it can: it halves the period when a
/// drain found a ring over a quarter refilled and doubles it below a
/// sixteenth.
const DRAIN_EVERY: (StdDuration, StdDuration) =
    (StdDuration::from_micros(250), StdDuration::from_millis(32));

/// Time buckets of one worker thread, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Buckets {
    /// Worker index (from the `worker-N` thread name).
    pub worker: usize,
    /// First to last recorded event, minus gaps.
    pub covered: u64,
    /// Inside `sched.quantum` spans.
    pub quantum: u64,
    /// Between `sched.park` and the following `sched.unpark`.
    pub parked: u64,
}

impl Buckets {
    /// Scheduler self time: covered time outside quanta and parks.
    pub fn self_time(&self) -> u64 {
        self.covered.saturating_sub(self.quantum + self.parked)
    }
}

#[derive(Default)]
struct ThreadLedger {
    name: String,
    first: Option<u64>,
    last: u64,
    /// Events already consumed at timestamp `last`.
    seen_at_last: usize,
    gap: u64,
    quantum: u64,
    parked: u64,
    open_quantum: Option<u64>,
    open_park: Option<u64>,
    open_step: Option<(u64, u64)>,
}

/// Events folded from successive recorder drains.
#[derive(Default)]
pub struct Ledger {
    threads: BTreeMap<usize, ThreadLedger>,
    /// `node.step` time per node id, ns.
    pub step_ns: HashMap<u64, u64>,
    /// First `node.step` begin per node id, trace ns.
    pub first_step: HashMap<u64, u64>,
    /// `sched.replan` instants: (trace ns, topology epoch).
    pub replans: Vec<(u64, u64)>,
}

impl Ledger {
    /// Drains the recorder and folds in every event not seen before.
    /// Returns the most new events any one thread had.
    pub fn drain(&mut self) -> usize {
        let mut most_new = 0;
        let trace = pipes::trace::snapshot();
        let mut by_thread: BTreeMap<usize, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &trace.events {
            by_thread.entry(e.thread).or_default().push(e);
        }
        for (thread, evs) in by_thread {
            let t = self.threads.entry(thread).or_default();
            if let Some(info) = trace.threads.iter().find(|i| i.index == thread) {
                t.name.clone_from(&info.name);
            }
            let mut skip = 0;
            if t.first.is_some() {
                let mut at_last = 0;
                while skip < evs.len()
                    && (evs[skip].ts_ns < t.last
                        || (evs[skip].ts_ns == t.last && at_last < t.seen_at_last))
                {
                    at_last += usize::from(evs[skip].ts_ns == t.last);
                    skip += 1;
                }
                if evs[0].ts_ns > t.last && evs.len() + 64 >= RING_CAPACITY {
                    t.gap += evs[0].ts_ns - t.last;
                    t.open_quantum = None;
                    t.open_park = None;
                    t.open_step = None;
                }
            }
            most_new = most_new.max(evs.len() - skip);
            for e in &evs[skip..] {
                apply(
                    t,
                    e,
                    &mut self.step_ns,
                    &mut self.first_step,
                    &mut self.replans,
                );
            }
            let last = evs[evs.len() - 1].ts_ns;
            t.seen_at_last = evs.iter().rev().take_while(|e| e.ts_ns == last).count();
            t.last = last;
        }
        most_new
    }

    /// Buckets of every `worker-N` thread that recorded.
    pub fn workers(&self) -> Vec<Buckets> {
        self.threads
            .values()
            .filter_map(|t| {
                let worker = t.name.strip_prefix("worker-")?.parse().ok()?;
                let first = t.first?;
                Some(Buckets {
                    worker,
                    covered: (t.last - first).saturating_sub(t.gap),
                    quantum: t.quantum,
                    parked: t.parked,
                })
            })
            .collect()
    }
}

fn apply(
    t: &mut ThreadLedger,
    e: &TraceEvent,
    step_ns: &mut HashMap<u64, u64>,
    first_step: &mut HashMap<u64, u64>,
    replans: &mut Vec<(u64, u64)>,
) {
    let ts = e.ts_ns;
    t.first.get_or_insert(ts);
    match (e.kind, e.name.as_str()) {
        (EventKind::SpanBegin, names::QUANTUM) => t.open_quantum = Some(ts),
        (EventKind::SpanEnd, names::QUANTUM) => {
            if let Some(b) = t.open_quantum.take() {
                t.quantum += ts - b;
            }
        }
        (EventKind::SpanBegin, names::NODE_STEP) => {
            t.open_step = Some((e.args[0], ts));
            first_step.entry(e.args[0]).or_insert(ts);
        }
        (EventKind::SpanEnd, names::NODE_STEP) => {
            if let Some((node, b)) = t.open_step.take() {
                *step_ns.entry(node).or_default() += ts - b;
            }
        }
        (EventKind::Instant, names::PARK) => t.open_park = Some(ts),
        (EventKind::Instant, names::UNPARK) => {
            if let Some(b) = t.open_park.take() {
                t.parked += ts - b;
            }
        }
        (EventKind::Instant, names::SCHED_REPLAN) => replans.push((ts, e.args[0])),
        _ => {}
    }
}

/// What the sampler collected over one phase.
pub struct SamplerOut {
    pub ledger: Ledger,
    /// (seconds since sampler start, `QueryGraph::total_queued`).
    pub backlog: Vec<(f64, usize)>,
    /// Largest sampled sum of `QueryGraph::state_bytes` over all nodes.
    pub state_bytes_peak: usize,
    /// Durations of `QueryGraph::meta_snapshot` calls, ms.
    pub meta_snapshot_ms: Vec<f64>,
    /// Time spent draining the recorder, ms.
    pub drain_ms: f64,
    /// An (`Instant`, trace ns) pair taken together, to map one clock on
    /// the other.
    pub clock_pair: (Instant, u64),
}

impl SamplerOut {
    /// `t` on the recorder's clock.
    pub fn trace_ns(&self, t: Instant) -> u64 {
        let (i, ns) = self.clock_pair;
        if t >= i {
            ns + (t - i).as_nanos() as u64
        } else {
            ns.saturating_sub((i - t).as_nanos() as u64)
        }
    }
}

/// The traced run's one sampler thread.
pub struct Sampler<'scope> {
    stop: Arc<AtomicBool>,
    handle: ScopedJoinHandle<'scope, SamplerOut>,
}

impl<'scope> Sampler<'scope> {
    /// Starts sampling `graph` on a thread of scope `s`.
    pub fn start<'env>(s: &'scope Scope<'scope, 'env>, graph: Arc<QueryGraph>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = s.spawn(move || {
            let clock_pair = (Instant::now(), pipes::trace::now_ns());
            let t0 = clock_pair.0;
            let mut out = SamplerOut {
                ledger: Ledger::default(),
                backlog: Vec::new(),
                state_bytes_peak: 0,
                meta_snapshot_ms: Vec::new(),
                drain_ms: 0.0,
                clock_pair,
            };
            let mut period = DRAIN_EVERY.0;
            for tick in 0u64.. {
                // ordering: Acquire pairs with the Release in finish(): the
                // drain after it sees every event of the joined executor.
                let last = flag.load(Ordering::Acquire);
                let td = Instant::now();
                let fill = out.ledger.drain();
                if fill > RING_CAPACITY / 4 {
                    period = (period / 2).max(DRAIN_EVERY.0);
                } else if fill < RING_CAPACITY / 16 {
                    period = (period * 2).min(DRAIN_EVERY.1);
                }
                out.drain_ms += td.elapsed().as_secs_f64() * 1e3;
                out.backlog
                    .push((t0.elapsed().as_secs_f64(), graph.total_queued()));
                let state: usize = graph.node_ids().map(|id| graph.state_bytes(id)).sum();
                out.state_bytes_peak = out.state_bytes_peak.max(state);
                if tick % 8 == 0 {
                    let tm = Instant::now();
                    std::hint::black_box(graph.meta_snapshot(&MetaConfig::default()));
                    out.meta_snapshot_ms.push(tm.elapsed().as_secs_f64() * 1e3);
                }
                if last {
                    break;
                }
                std::thread::sleep(period);
            }
            out
        });
        Sampler { stop, handle }
    }

    /// Stops the sampler after one last drain and returns what it saw.
    pub fn finish(self) -> SamplerOut {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler thread")
    }
}
