//! The engine-level telemetry observer.
//!
//! [`TelemetryObserver`] implements [`cs_sim::Observer`]: it counts every
//! dispatch per event kind (`engine_events_total{kind=…}`), tracks the
//! pending-queue depth (`engine_queue_depth`, including the event being
//! dispatched, plus an `engine_queue_high_water` gauge), drives the
//! [`WindowedAggregator`] clock, and — optionally — feeds the wall-clock
//! [`DispatchProfiler`].
//!
//! The registry is shared (`Rc<RefCell<…>>`) so protocol-level samplers
//! (cs-proto's `ProtoTelemetry`) write into the same instrument space and
//! land in the same window snapshots. Ordering matters: attach samplers
//! *before* this observer in a `MultiObserver`, so their `after_handle`
//! gauges are recorded before this observer's `after_handle` closes a
//! window.
//!
//! Hot-path design: the per-event work touches only observer-local state —
//! the classifier returns a dense per-kind index, so counting a dispatch
//! is an array increment, plus two plain integers for queue accounting.
//! Registry interning happens lazily at flush time, and the shared
//! registry is written exactly once per window flush, immediately before
//! the aggregator snapshots it, so snapshot values are identical to
//! writing through on every event at a fraction of the cost. Wall-clock
//! profiling samples one dispatch in [`PROFILE_SAMPLE_EVERY`] rather than
//! timing all of them.
//!
//! Everything here is passive: no simulation state is read mutably and no
//! events are scheduled, so trace hashes are identical with or without
//! telemetry attached.

use std::cell::RefCell;
use std::rc::Rc;

use cs_sim::{KindClassify, Observer, SimTime, World};

use crate::profile::DispatchProfiler;
use crate::registry::{MetricId, MetricRegistry};
use crate::window::{WindowSnapshot, WindowedAggregator};
use crate::TelemetryConfig;

/// The profiler times one dispatch in this many (the rest cost a counter
/// check). Sampling keeps the two `Instant` reads off the per-event path;
/// kinds rarer than roughly this many events per run may go untimed.
pub const PROFILE_SAMPLE_EVERY: u64 = 128;

/// One buffered per-kind counter, addressed by the classifier's dense
/// index. `name` is set on first dispatch; the registry id is interned
/// lazily at flush time, keeping the dispatch path free of registry
/// traffic.
#[derive(Default)]
struct KindSlot {
    name: &'static str,
    id: Option<MetricId>,
    /// Dispatches seen (cumulative).
    count: u64,
    /// Portion of `count` already pushed into the registry.
    flushed: u64,
}

/// Engine-level metrics observer (see module docs). The classifier `C`
/// is the event alphabet's single [`KindClassify`] impl (cs-proto's
/// `EventKinds`), shared with `TraceHasher` so kind names agree across
/// every instrument.
pub struct TelemetryObserver<E, C: KindClassify<E>> {
    classify: std::marker::PhantomData<fn(&E) -> C>,
    registry: Rc<RefCell<MetricRegistry>>,
    windows: WindowedAggregator,
    profiler: Option<DispatchProfiler>,
    /// True while the profiler is timing the current dispatch.
    timing: bool,
    /// Per-kind counters, indexed by the classifier's dense index.
    slots: Vec<KindSlot>,
    queue_gauge: MetricId,
    high_water_gauge: MetricId,
    last_depth: usize,
    high_water: usize,
    events: u64,
}

impl<E, C: KindClassify<E>> TelemetryObserver<E, C> {
    /// Build an observer over a shared registry. `start` anchors the
    /// window grid (pass the scenario's window start).
    pub fn new(
        registry: Rc<RefCell<MetricRegistry>>,
        config: TelemetryConfig,
        start: SimTime,
    ) -> Self {
        let (queue_gauge, high_water_gauge) = {
            let mut reg = registry.borrow_mut();
            (
                reg.gauge("engine_queue_depth", &[]),
                reg.gauge("engine_queue_high_water", &[]),
            )
        };
        TelemetryObserver {
            classify: std::marker::PhantomData,
            windows: WindowedAggregator::new(config.effective_window(), start),
            profiler: config.profile.then(DispatchProfiler::new),
            timing: false,
            registry,
            slots: Vec::new(),
            queue_gauge,
            high_water_gauge,
            last_depth: 0,
            high_water: 0,
            events: 0,
        }
    }

    /// Push buffered counts and queue gauges into the shared registry,
    /// interning ids for kinds seen since the last flush. Interning is
    /// content-keyed, so a same-text kind reached through two indices
    /// would share the MetricId and the flush deltas still add up.
    fn flush_to_registry(&mut self) {
        let mut reg = self.registry.borrow_mut();
        for slot in self.slots.iter_mut().filter(|s| s.count > 0) {
            let id = *slot
                .id
                .get_or_insert_with(|| reg.counter("engine_events_total", &[("kind", slot.name)]));
            reg.inc(id, slot.count - slot.flushed);
            slot.flushed = slot.count;
        }
        reg.set(
            self.queue_gauge,
            i64::try_from(self.last_depth).unwrap_or(i64::MAX),
        );
        reg.set(
            self.high_water_gauge,
            i64::try_from(self.high_water).unwrap_or(i64::MAX),
        );
    }

    /// Flush buffered counters and the final (partial) window at the run
    /// end.
    pub fn finish(&mut self, end: SimTime) {
        self.flush_to_registry();
        self.windows.finish(end, &self.registry.borrow());
    }

    /// Events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Largest queue depth seen (including the in-flight event).
    pub fn queue_high_water(&self) -> usize {
        self.high_water
    }

    /// Windows flushed so far (complete only, until [`Self::finish`]).
    pub fn snapshots(&self) -> &[WindowSnapshot] {
        self.windows.snapshots()
    }

    /// The wall-clock profiler, if enabled.
    pub fn profiler(&self) -> Option<&DispatchProfiler> {
        self.profiler.as_ref()
    }

    /// Tear down into `(windows, profiler)` after the run.
    pub fn into_parts(self) -> (Vec<WindowSnapshot>, Option<DispatchProfiler>) {
        (self.windows.into_snapshots(), self.profiler)
    }

    /// [`Self::into_parts`] through a mutable borrow, for observers
    /// recovered as `&mut` via `Observer::as_any_mut` downcasting. The
    /// snapshots and profiler are moved out; the observer stays usable
    /// as an (empty) accumulator.
    pub fn take_parts(&mut self) -> (Vec<WindowSnapshot>, Option<DispatchProfiler>) {
        (self.windows.take_snapshots(), self.profiler.take())
    }
}

impl<W: World, C: KindClassify<W::Event>> Observer<W> for TelemetryObserver<W::Event, C> {
    fn on_dispatch(&mut self, _now: SimTime, event: &W::Event, queue_depth: usize) {
        let (index, kind) = C::class(event);
        let index = usize::from(index);
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, KindSlot::default);
        }
        let slot = &mut self.slots[index];
        slot.name = kind;
        slot.count += 1;
        // `queue_depth` counts events pending *after* the pop; + 1 includes
        // the event being dispatched.
        let depth = queue_depth.saturating_add(1);
        self.last_depth = depth;
        if depth > self.high_water {
            self.high_water = depth;
        }
        if let Some(p) = &mut self.profiler {
            if self.events % PROFILE_SAMPLE_EVERY == 0 {
                self.timing = true;
                p.begin(kind);
            }
        }
        self.events += 1;
    }

    fn after_handle(&mut self, now: SimTime, _world: &W) {
        if self.timing {
            self.timing = false;
            if let Some(p) = &mut self.profiler {
                p.end();
            }
        }
        if now >= self.windows.next_end() {
            self.flush_to_registry();
            self.windows.roll(now, &self.registry.borrow());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Metric;
    use cs_sim::{Ctx, Engine};

    struct Ticker {
        remaining: u64,
    }

    #[derive(Clone, Copy)]
    struct Tick;

    impl World for Ticker {
        type Event = Tick;
        fn handle(&mut self, ctx: &mut Ctx<'_, Tick>, _: Tick) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimTime::from_secs(60), Tick);
            }
        }
    }

    struct TickKinds;
    impl KindClassify<Tick> for TickKinds {
        fn class(_: &Tick) -> (u8, &'static str) {
            (0, "tick")
        }
    }

    fn run(
        ticks: u64,
        profile: bool,
    ) -> (
        Rc<RefCell<MetricRegistry>>,
        TelemetryObserver<Tick, TickKinds>,
    ) {
        let registry = Rc::new(RefCell::new(MetricRegistry::new()));
        let obs = Rc::new(RefCell::new(TelemetryObserver::<Tick, TickKinds>::new(
            Rc::clone(&registry),
            TelemetryConfig {
                window: SimTime::from_secs(300),
                profile,
            },
            SimTime::ZERO,
        )));
        let mut eng = Engine::new(Ticker { remaining: ticks });
        eng.set_observer(Box::new(Rc::clone(&obs)));
        eng.schedule_at(SimTime::ZERO, Tick);
        eng.run_until(SimTime::MAX);
        let end = eng.now();
        eng.take_observer();
        let mut o = match Rc::try_unwrap(obs) {
            Ok(cell) => cell.into_inner(),
            Err(_) => unreachable!("engine handle was dropped"),
        };
        o.finish(end);
        (registry, o)
    }

    #[test]
    fn counts_dispatches_and_rolls_windows() {
        // 10 ticks at 60 s → events at 0..=600 s; 300 s windows.
        let (registry, obs) = run(10, false);
        assert_eq!(obs.events(), 11);
        assert_eq!(
            registry
                .borrow()
                .get("engine_events_total", &[("kind", "tick")]),
            Some(&Metric::Counter(11))
        );
        // Queue never holds more than the in-flight event + 1 pending.
        assert_eq!(obs.queue_high_water(), 1);
        let snaps = obs.snapshots();
        // Events at 0, 60, …, 600 s with 300 s windows: [0,300) closed by
        // the t=300 event, [300,600) closed by the t=600 event; the run
        // ends exactly on a boundary, so no partial window remains.
        assert_eq!(snaps.len(), 2, "expected 2 windows, got {}", snaps.len());
        assert_eq!(snaps[0].end, SimTime::from_secs(300));
        assert!(snaps.iter().all(|s| !s.partial));
        // The boundary event at t=300 closes window 0 (documented smear):
        // events at 0,60,…,300 → 6 dispatches in window 0.
        match &snaps[0]
            .series
            .iter()
            .find(|(id, _)| id.starts_with("engine_events_total"))
        {
            Some((_, crate::window::SnapValue::Counter { delta, .. })) => assert_eq!(*delta, 6),
            other => panic!("missing counter: {other:?}"),
        }
    }

    #[test]
    fn profiler_samples_dispatches() {
        // 40 ticks → 41 events; samples at event indices 0 and multiples
        // of PROFILE_SAMPLE_EVERY → 3 timed dispatches.
        let (_, obs) = run(40, true);
        assert_eq!(obs.events(), 41);
        let prof = obs.profiler().expect("profiler enabled");
        assert_eq!(prof.events(), 41_u64.div_ceil(PROFILE_SAMPLE_EVERY));
        let (kind, timing) = {
            let mut it = prof.kinds();
            let first = it.next().expect("one kind");
            (first.0, first.1.clone())
        };
        assert_eq!(kind, "tick");
        assert_eq!(timing.count, prof.events());
        assert!(timing.max_ns >= timing.min_ns);
    }

    #[test]
    fn buffered_counts_match_registry_after_finish() {
        // Counts are buffered between flushes: the registry must agree
        // with the observer's totals once finish() has run, and each
        // window snapshot's cumulative total must equal the count at the
        // flush that produced it.
        let (registry, obs) = run(7, false);
        let total = match registry
            .borrow()
            .get("engine_events_total", &[("kind", "tick")])
        {
            Some(Metric::Counter(n)) => *n,
            other => panic!("missing counter: {other:?}"),
        };
        assert_eq!(total, obs.events());
        let sum: u64 = obs
            .snapshots()
            .iter()
            .map(|s| {
                s.series
                    .iter()
                    .find_map(|(id, v)| match v {
                        crate::window::SnapValue::Counter { delta, .. }
                            if id.starts_with("engine_events_total") =>
                        {
                            Some(*delta)
                        }
                        _ => None,
                    })
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(sum, total, "window deltas must partition the total");
    }
}
