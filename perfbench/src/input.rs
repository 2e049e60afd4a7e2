//! Seeded inputs and the replay sources that feed them to the graph.
//!
//! All input is generated from the seed before any timed region, so the
//! generators' own cost never shows in a measurement. Sources only hand
//! out pre-built elements: a *saturated* source as fast as the executor
//! polls it, a *paced* source on an open-loop wall-clock schedule.

use pipes::graph::{Collector, SourceOp, SourceStatus};
use pipes::nexmark::generator::{NexmarkConfig, NexmarkGenerator};
use pipes::nexmark::Event;
use pipes::prelude::*;
use pipes::traffic::generator::{FspConfig, FspGenerator};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration as StdDuration, Instant};

/// A pre-generated stream: start-ordered elements.
pub type Stream = Arc<Vec<Element<Tuple>>>;

/// E11's mean NEXMark event gap. At 4 events per simulated second q3's
/// 10-minute window holds about 2.2 k bids.
const NEXMARK_GAP_MS: f64 = 250.0;

/// Every input a workload can scan, generated once per seed.
pub struct Inputs {
    /// NEXMark bids (`bid` stream).
    pub bid: Stream,
    /// NEXMark auction openings (`auction` stream).
    pub auction: Stream,
    /// FSP loop-detector readings (`traffic` stream); empty unless asked for.
    pub traffic: Stream,
    /// Person rows; the `people` relation is built from them during set-up.
    pub persons: Arc<Vec<Tuple>>,
}

impl Inputs {
    /// Generates `nexmark_events` NEXMark events and, when `with_traffic`,
    /// FSP readings covering the same simulated interval, both from `seed`.
    /// The generator's default hot-auction skew is kept.
    pub fn generate(seed: u64, nexmark_events: u64, with_traffic: bool) -> Inputs {
        let gen = NexmarkGenerator::new(NexmarkConfig {
            seed,
            max_events: nexmark_events,
            mean_inter_event_ms: NEXMARK_GAP_MS,
            ..Default::default()
        });
        let (mut bid, mut auction, mut persons) = (Vec::new(), Vec::new(), Vec::new());
        for ev in gen {
            match ev {
                Event::Bid(b) => bid.push(Element::at(b.to_tuple(), b.ts)),
                Event::Auction(a) => auction.push(Element::at(a.to_tuple(), a.ts)),
                Event::Person(p) => persons.push(p.to_tuple()),
            }
        }
        let mut traffic = Vec::new();
        if with_traffic {
            let end_ms = bid.last().map_or(0, |e| e.start().ticks());
            // Two highway sections at a light base load keep the FSP stream
            // at about the NEXMark event rate, so neither scenario swamps
            // the other on the shared schedule.
            let fsp = FspGenerator::new(FspConfig {
                seed: seed ^ 0xF5B0_F5B0,
                duration_secs: end_ms / 1000 + 1,
                sections: 2,
                base_vehicles_per_min: 0.5,
                ..Default::default()
            });
            traffic.extend(fsp.map(|r| r.to_element()));
        }
        Inputs {
            bid: Arc::new(bid),
            auction: Arc::new(auction),
            traffic: Arc::new(traffic),
            persons: Arc::new(persons),
        }
    }

    /// The stream registered under `name`.
    pub fn stream(&self, name: &str) -> &Stream {
        match name {
            "bid" => &self.bid,
            "auction" => &self.auction,
            "traffic" => &self.traffic,
            other => panic!("no pre-generated stream '{other}'"),
        }
    }

    /// Events in the named streams.
    pub fn events(&self, streams: &[&str]) -> usize {
        streams.iter().map(|s| self.stream(s).len()).sum()
    }

    /// First and last event timestamp over the named streams.
    pub fn span(&self, streams: &[&str]) -> (u64, u64) {
        let ts = streams.iter().flat_map(|s| {
            let v = self.stream(s);
            v.first()
                .into_iter()
                .chain(v.last())
                .map(|e| e.start().ticks())
        });
        ts.fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)))
    }
}

/// The open-loop schedule of a paced phase: an event with timestamp `ts`
/// is due at `t0 + (ts - ts0) * ns_per_tick`. `t0` is fixed at executor
/// launch and never moves, so a stall delays every later event's release
/// without delaying its due time, and latency measured from the due time
/// includes the stall.
pub struct PaceClock {
    t0: OnceLock<Instant>,
    ts0: u64,
    ns_per_tick: f64,
}

impl PaceClock {
    /// A schedule releasing `events` events spread over `[ts0, ts_end]` at
    /// `rate` events per second on average.
    pub fn new(ts0: u64, ts_end: u64, events: usize, rate: f64) -> Arc<PaceClock> {
        let secs = events as f64 / rate;
        let ticks = (ts_end - ts0).max(1) as f64;
        Arc::new(PaceClock {
            t0: OnceLock::new(),
            ts0,
            ns_per_tick: secs * 1e9 / ticks,
        })
    }

    /// Fixes `t0` to now (first call wins) and returns it.
    pub fn start(&self) -> Instant {
        *self.t0.get_or_init(Instant::now)
    }

    /// Due time of timestamp `ts`, or `None` before the schedule started.
    pub fn due(&self, ts: u64) -> Option<Instant> {
        let t0 = self.t0.get()?;
        let ns = ts.saturating_sub(self.ts0) as f64 * self.ns_per_tick;
        Some(*t0 + StdDuration::from_nanos(ns as u64))
    }
}

/// What one source did during a phase, published when it is exhausted.
#[derive(Clone, Debug, Default)]
pub struct SourceStats {
    /// `produce()` calls.
    pub polls: u64,
    /// `produce()` calls that emitted nothing.
    pub empty_polls: u64,
    /// Elements emitted.
    pub emitted: u64,
    /// Per element, emission time minus due time, µs (paced only).
    pub lag_us: Vec<u32>,
}

/// Shared slot a source publishes its [`SourceStats`] into.
pub type SourceSlot = Arc<Mutex<Option<SourceStats>>>;

/// Longest a paced source waits inside one `produce()` call for its next
/// event. The executor retires a worker after 10 000 unproductive quanta
/// in a row; bounding each empty poll from below keeps that far beyond any
/// gap of the schedules used here, and a wait this short costs queued work
/// on the same worker at most this much.
const MAX_WAIT: StdDuration = StdDuration::from_micros(50);

/// How often a paced source punctuates. A saturated source punctuates once
/// per `produce()` call, i.e. per scheduling quantum of elements, as the
/// toolkit's `VecSource` does; paced, that would be once per element,
/// and `GroupedAggregate` answers each heartbeat with output for every
/// live group: at one heartbeat per bid, q4's aggregate alone queued
/// 3.3 M messages from 21 k input events (2-core host) and the phase measured that
/// backlog instead of the queries. Paced sources therefore punctuate on a
/// fixed wall-clock cadence, as paced stream sources commonly do.
const PUNCTUATE_EVERY: StdDuration = StdDuration::from_millis(10);

/// Replays a pre-generated stream, saturated or paced.
pub struct ReplaySource {
    data: Stream,
    next: usize,
    pace: Option<Arc<PaceClock>>,
    /// Paced only: when the last heartbeat went out, and whether an
    /// element has been emitted since.
    punctuated: Option<Instant>,
    unpunctuated: bool,
    stats: SourceStats,
    slot: SourceSlot,
}

impl ReplaySource {
    /// A source over `data`; `pace` selects the paced schedule.
    pub fn new(data: Stream, pace: Option<Arc<PaceClock>>, slot: SourceSlot) -> Self {
        ReplaySource {
            data,
            next: 0,
            pace,
            punctuated: None,
            unpunctuated: false,
            stats: SourceStats::default(),
            slot,
        }
    }

    fn due(&self, clock: &PaceClock) -> Option<Instant> {
        clock.due(self.data.get(self.next)?.start().ticks())
    }
}

impl SourceOp for ReplaySource {
    type Out = Tuple;

    fn produce(&mut self, budget: usize, out: &mut dyn Collector<Tuple>) -> SourceStatus {
        self.stats.polls += 1;
        let first = self.next;
        let mut punctuate = true;
        match self.pace.clone() {
            None => {
                let end = (self.next + budget).min(self.data.len());
                for e in &self.data[self.next..end] {
                    out.element(e.clone());
                }
                self.next = end;
            }
            Some(clock) => {
                let Some(due) = self.due(&clock) else {
                    return SourceStatus::Idle; // polled before launch
                };
                let mut now = Instant::now();
                if due > now {
                    let until = due.min(now + MAX_WAIT);
                    while now < until {
                        std::thread::yield_now();
                        now = Instant::now();
                    }
                }
                while self.next - first < budget {
                    match self.due(&clock) {
                        Some(due) if due <= now => {
                            let lag = now.duration_since(due).as_micros();
                            self.stats.lag_us.push(lag.min(u32::MAX as u128) as u32);
                            out.element(self.data[self.next].clone());
                            self.next += 1;
                        }
                        _ => break,
                    }
                }
                self.unpunctuated |= self.next > first;
                punctuate = self.unpunctuated
                    && self
                        .punctuated
                        .is_none_or(|t| now.duration_since(t) >= PUNCTUATE_EVERY);
                if punctuate {
                    self.punctuated = Some(now);
                    self.unpunctuated = false;
                }
            }
        }
        let n = self.next - first;
        self.stats.emitted += n as u64;
        if n == 0 {
            self.stats.empty_polls += 1;
        }
        if punctuate && self.next > 0 {
            // Start-ordered stream: the last start is the strongest valid
            // punctuation, as in the toolkit's own `VecSource`.
            out.heartbeat(self.data[self.next - 1].start());
        }
        if self.next == self.data.len() {
            *self.slot.lock().expect("source slot poisoned") =
                Some(std::mem::take(&mut self.stats));
            SourceStatus::Exhausted
        } else if n == 0 {
            SourceStatus::Idle
        } else {
            SourceStatus::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut ReplaySource) -> Vec<Message<Tuple>> {
        let mut out: Vec<Message<Tuple>> = Vec::new();
        while src.produce(64, &mut out) != SourceStatus::Exhausted {}
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(7, 3_000, true);
        let b = Inputs::generate(7, 3_000, true);
        let c = Inputs::generate(8, 3_000, true);
        for s in ["bid", "auction", "traffic"] {
            assert!(!a.stream(s).is_empty(), "{s} is empty");
            assert_eq!(a.stream(s), b.stream(s), "{s} differs under one seed");
        }
        assert_eq!(a.persons, b.persons);
        assert_ne!(a.bid, c.bid, "two seeds gave identical bids");
        assert_ne!(a.traffic, c.traffic, "two seeds gave identical readings");
    }

    #[test]
    fn saturated_source_replays_everything_in_order() {
        let inputs = Inputs::generate(3, 2_000, false);
        let slot = SourceSlot::default();
        let mut src = ReplaySource::new(Arc::clone(&inputs.bid), None, Arc::clone(&slot));
        let got: Vec<Element<Tuple>> = drain(&mut src)
            .into_iter()
            .filter_map(|m| match m {
                Message::Element(e) => Some(e),
                _ => None,
            })
            .collect();
        assert_eq!(&got, inputs.bid.as_ref());
        assert_eq!(
            slot.lock().unwrap().as_ref().unwrap().emitted,
            got.len() as u64
        );
    }

    #[test]
    fn paced_source_never_emits_early_and_lag_is_measured_from_due_time() {
        let inputs = Inputs::generate(5, 600, false);
        let (ts0, ts_end) = inputs.span(&["bid"]);
        let n = inputs.bid.len();
        // The whole stream over about 60 ms.
        let clock = PaceClock::new(ts0, ts_end, n, n as f64 / 0.06);
        let slot = SourceSlot::default();
        let mut src = ReplaySource::new(
            Arc::clone(&inputs.bid),
            Some(Arc::clone(&clock)),
            Arc::clone(&slot),
        );
        let mut out: Vec<Message<Tuple>> = Vec::new();
        assert_eq!(
            src.produce(64, &mut out),
            SourceStatus::Idle,
            "emitted before launch"
        );
        clock.start();
        let mut emitted = 0;
        let mut lag_bounds = Vec::new();
        loop {
            let status = src.produce(8, &mut out);
            let after = Instant::now();
            for m in out.drain(..) {
                if let Message::Element(e) = m {
                    let due = clock.due(e.start().ticks()).unwrap();
                    // Emitted no earlier than due: the due time has passed
                    // by the time produce() returns it.
                    assert!(due <= after, "element released before its due time");
                    lag_bounds.push(after.duration_since(due).as_micros() as u32 + 1);
                    emitted += 1;
                }
            }
            if status == SourceStatus::Exhausted {
                break;
            }
        }
        assert_eq!(emitted, n);
        let stats = slot.lock().unwrap().clone().unwrap();
        assert_eq!(stats.lag_us.len(), n);
        // Each recorded lag is measured from the due time: it cannot exceed
        // the time from due to the return of the call that emitted it.
        for (lag, bound) in stats.lag_us.iter().zip(&lag_bounds) {
            assert!(
                lag <= bound,
                "lag {lag} µs beyond the due-to-return bound {bound} µs"
            );
        }
        assert!(stats.polls >= stats.empty_polls);
    }
}
