//! Engine instrumentation.
//!
//! An [`Observer`] is attached to an [`Engine`](crate::Engine) and sees
//! every dispatched event twice: once *before* the world's handler runs
//! ([`Observer::on_dispatch`], with the event itself) and once *after*
//! ([`Observer::after_handle`], with the post-event world). This is the
//! hook through which correctness tooling — invariant checkers, trace
//! hashers, event accounting — watches a run without the world knowing
//! it is being watched.
//!
//! Built-in observers:
//!
//! * [`TraceHasher`] — folds `(time, event kind)` of every dispatch into
//!   one `u64` (FNV-1a), so two runs can be compared for behavioural
//!   identity by comparing a single number,
//! * [`MultiObserver`] — fan-out to several observers.
//!
//! Instruments name events through one [`KindClassify`] impl per event
//! alphabet (e.g. cs-proto's `EventKinds`), so every layer of
//! instrumentation — trace hashes, telemetry counters — agrees on kind
//! names by construction.
//!
//! Observers are attached as `Box<dyn Observer<W>>`, which would normally
//! mean losing access to the concrete value's results. To keep a handle,
//! wrap the observer in `Rc<RefCell<_>>` — the blanket impl forwards the
//! hooks — attach a clone, and read the original after the run:
//!
//! ```
//! use cs_sim::{Ctx, Engine, KindClassify, SimTime, TraceHasher, World};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! struct Nop;
//! impl World for Nop {
//!     type Event = ();
//!     fn handle(&mut self, _: &mut Ctx<'_, ()>, _: ()) {}
//! }
//!
//! struct TickKinds;
//! impl KindClassify<()> for TickKinds {
//!     fn class(_: &()) -> (u8, &'static str) {
//!         (0, "tick")
//!     }
//! }
//!
//! let hasher = Rc::new(RefCell::new(TraceHasher::<(), TickKinds>::new()));
//! let mut eng = Engine::new(Nop);
//! eng.set_observer(Box::new(Rc::clone(&hasher)));
//! eng.schedule_at(SimTime::from_secs(1), ());
//! eng.run_until(SimTime::from_secs(10));
//! assert_eq!(hasher.borrow().events(), 1);
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use crate::engine::World;
use crate::time::SimTime;

/// Maps events to `(dense index, kind name)` — see e.g. `Event::kind_class`
/// in cs-proto. Indices only need to be small and stable within a run; the
/// name is what reaches counters and hashes. A trait with a static method
/// (rather than a stored `fn` pointer) so the classification — typically a
/// jump-table match — inlines into the observers' `on_dispatch` instead of
/// costing an indirect call per event.
///
/// One impl per event alphabet: every instrument that names events
/// ([`TraceHasher`], cs-telemetry's engine observer)
/// takes its classifier through this trait, so kind names cannot drift
/// apart between instruments.
pub trait KindClassify<E> {
    /// Classify one event.
    fn class(event: &E) -> (u8, &'static str);
}

/// Maps events to the *manager* (subsystem) whose handler runs them —
/// e.g. cs-proto's membership / partnership / stream / chaos split.
/// Span-tracing instruments group per-event cost by this coarser axis;
/// like [`KindClassify`] there is one impl per event alphabet so every
/// span stream agrees on manager names.
pub trait ManagerClassify<E> {
    /// Name of the subsystem that handles `event`.
    fn manager(event: &E) -> &'static str;
}

/// Scheduling metadata for one dispatched event, delivered through
/// [`Observer::on_dispatch_meta`] immediately before
/// [`Observer::on_dispatch`].
///
/// `seq` is the event's queue insertion sequence — unique per engine and
/// monotone in scheduling order, so it doubles as a span id. `cause` is
/// the seq of the event whose handler scheduled this one (`None` for
/// events scheduled from outside any handler: initial events, workload
/// arrivals, chaos injections). Following `cause` links recovers the
/// causal tree of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchMeta {
    /// Queue insertion seq of the event being dispatched.
    pub seq: u64,
    /// Insertion seq of the scheduling event, if any.
    pub cause: Option<u64>,
}

/// A passive watcher of the engine's dispatch loop.
///
/// Both hooks default to no-ops so an observer implements only what it
/// needs. Observers must not assume they see *all* events of a run: one
/// can be attached or detached between `run_until` segments.
pub trait Observer<W: World> {
    /// Called for every event immediately before [`Observer::on_dispatch`]
    /// with the event's scheduling metadata (queue seq and causal
    /// parent). Separate from `on_dispatch` so existing observers that
    /// ignore causality pay nothing and change nothing.
    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        let _ = meta;
    }

    /// Called for every event immediately before the world handles it.
    ///
    /// `queue_depth` is the number of events still pending *after* this
    /// one was popped.
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, queue_depth: usize) {
        let _ = (now, event, queue_depth);
    }

    /// Called immediately after the world's handler returns, with the
    /// post-event world state. The event itself was consumed by the
    /// handler; stash anything needed from it in [`Observer::on_dispatch`].
    fn after_handle(&mut self, now: SimTime, world: &W) {
        let _ = (now, world);
    }

    /// Escape hatch for recovering a by-value observer after
    /// [`Engine::take_observer`](crate::Engine::take_observer): an
    /// observer attached as a plain `Box` (no `Rc<RefCell<_>>` handle,
    /// so no per-event borrow checks) overrides this to `Some(self)`
    /// and the caller downcasts the returned `Any`. The default keeps
    /// existing observers opaque.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Forward hooks through a shared handle, so callers can keep reading
/// an observer they have attached to an engine (see module docs).
impl<W: World, T: Observer<W>> Observer<W> for Rc<RefCell<T>> {
    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        self.borrow_mut().on_dispatch_meta(meta);
    }
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, queue_depth: usize) {
        self.borrow_mut().on_dispatch(now, event, queue_depth);
    }
    fn after_handle(&mut self, now: SimTime, world: &W) {
        self.borrow_mut().after_handle(now, world);
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into an FNV-1a accumulator.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic trace digest: folds `(timestamp, event kind)` of every
/// dispatched event into a single `u64`.
///
/// Two runs with the same configuration and seed must produce the same
/// digest; a digest difference means the runs diverged at *some* event,
/// which is exactly the property determinism tests need — without
/// retaining the (potentially hundreds of millions of events) trace.
pub struct TraceHasher<E, C: KindClassify<E>> {
    classify: PhantomData<fn(&E) -> C>,
    hash: u64,
    events: u64,
}

impl<E, C: KindClassify<E>> TraceHasher<E, C> {
    /// A hasher using `C` to name each event.
    pub fn new() -> Self {
        TraceHasher {
            classify: PhantomData,
            hash: FNV_OFFSET,
            events: 0,
        }
    }

    /// The digest so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events folded in.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl<E, C: KindClassify<E>> Default for TraceHasher<E, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World, C: KindClassify<W::Event>> Observer<W> for TraceHasher<W::Event, C> {
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, _queue_depth: usize) {
        self.hash = fnv1a(self.hash, &now.as_micros().to_le_bytes());
        self.hash = fnv1a(self.hash, C::class(event).1.as_bytes());
        self.events += 1;
    }
}

/// Fan-out: forwards every hook to each inner observer, in order.
pub struct MultiObserver<W: World> {
    inner: Vec<Box<dyn Observer<W>>>,
}

impl<W: World> MultiObserver<W> {
    /// An empty fan-out.
    pub fn new() -> Self {
        MultiObserver { inner: Vec::new() }
    }

    /// Append an observer (builder style).
    pub fn with(mut self, obs: Box<dyn Observer<W>>) -> Self {
        self.inner.push(obs);
        self
    }

    /// Append an observer.
    pub fn push(&mut self, obs: Box<dyn Observer<W>>) {
        self.inner.push(obs);
    }

    /// Number of inner observers.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the fan-out is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<W: World> Default for MultiObserver<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Observer<W> for MultiObserver<W> {
    fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
        for obs in &mut self.inner {
            obs.on_dispatch_meta(meta);
        }
    }
    fn on_dispatch(&mut self, now: SimTime, event: &W::Event, queue_depth: usize) {
        for obs in &mut self.inner {
            obs.on_dispatch(now, event, queue_depth);
        }
    }
    fn after_handle(&mut self, now: SimTime, world: &W) {
        for obs in &mut self.inner {
            obs.after_handle(now, world);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, Engine};
    use std::collections::BTreeMap;

    /// Fans out `n` one-shot events per tick until `depth` generations.
    struct Fanout {
        handled: u64,
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Spawn(u32),
        Leaf,
    }

    struct EvKinds;
    impl KindClassify<Ev> for EvKinds {
        fn class(e: &Ev) -> (u8, &'static str) {
            match e {
                Ev::Spawn(_) => (0, "spawn"),
                Ev::Leaf => (1, "leaf"),
            }
        }
    }

    impl World for Fanout {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
            self.handled += 1;
            if let Ev::Spawn(gen) = event {
                if gen > 0 {
                    ctx.schedule_in(SimTime::from_secs(1), Ev::Spawn(gen - 1));
                }
                ctx.schedule_in(SimTime::from_secs(1), Ev::Leaf);
                ctx.schedule_in(SimTime::from_secs(1), Ev::Leaf);
            }
        }
    }

    /// Per-kind dispatch counts, total events and the queue high-water
    /// mark *including* the event being dispatched (the engine reports
    /// the depth after the pop, so one pending event at a time peaks
    /// at 1).
    #[derive(Default)]
    struct Counts {
        by_kind: BTreeMap<&'static str, u64>,
        events: u64,
        high_water: usize,
    }

    impl Observer<Fanout> for Counts {
        fn on_dispatch(&mut self, _now: SimTime, event: &Ev, queue_depth: usize) {
            *self.by_kind.entry(EvKinds::class(event).1).or_insert(0) += 1;
            self.high_water = self.high_water.max(queue_depth + 1);
            self.events += 1;
        }
    }

    fn run_instrumented(seed_gen: u32) -> (u64, u64, BTreeMap<&'static str, u64>, usize) {
        let stats = Rc::new(RefCell::new(Counts::default()));
        let hasher = Rc::new(RefCell::new(TraceHasher::<Ev, EvKinds>::new()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(
            MultiObserver::new()
                .with(Box::new(Rc::clone(&stats)))
                .with(Box::new(Rc::clone(&hasher))),
        ));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(seed_gen));
        eng.run_until(SimTime::MAX);
        let handled = eng.world().handled;
        let h = hasher.borrow();
        let s = stats.borrow();
        (h.hash(), handled, s.by_kind.clone(), s.high_water)
    }

    #[test]
    fn stats_count_every_dispatch_by_kind() {
        let (_, handled, counts, high_water) = run_instrumented(3);
        // Spawn(3..=0) → 4 spawn events, each emitting 2 leaves.
        assert_eq!(counts["spawn"], 4);
        assert_eq!(counts["leaf"], 8);
        assert_eq!(handled, 12);
        assert!(high_water >= 2, "high water {high_water}");
    }

    #[test]
    fn high_water_includes_the_dispatched_event() {
        // A single event, never more than one pending: the queue peaked
        // at 1, and the mark must say so even though the pending count
        // at dispatch time is 0.
        let stats = Rc::new(RefCell::new(Counts::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&stats)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(0));
        eng.run_until(SimTime::MAX);
        // Spawn(0) enqueues 2 leaves → depth peaked at 2 mid-run.
        assert_eq!(stats.borrow().high_water, 2);

        let stats = Rc::new(RefCell::new(Counts::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&stats)));
        eng.schedule_at(SimTime::ZERO, Ev::Leaf);
        eng.run_until(SimTime::MAX);
        assert_eq!(stats.borrow().high_water, 1);
    }

    #[test]
    fn trace_hash_is_reproducible_and_discriminates() {
        let (h1, ..) = run_instrumented(3);
        let (h2, ..) = run_instrumented(3);
        let (h3, ..) = run_instrumented(4);
        assert_eq!(h1, h2, "same run must hash identically");
        assert_ne!(h1, h3, "different runs must (overwhelmingly) differ");
    }

    #[test]
    fn observer_can_be_detached_and_read() {
        let stats = Rc::new(RefCell::new(Counts::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&stats)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(0));
        eng.run_until(SimTime::MAX);
        assert!(eng.take_observer().is_some());
        assert!(eng.take_observer().is_none());
        // Detached runs see nothing new.
        let before = stats.borrow().events;
        eng.schedule_at(eng.now(), Ev::Leaf);
        eng.run_until(SimTime::MAX);
        assert_eq!(stats.borrow().events, before);
    }

    #[test]
    fn dispatch_meta_links_causes() {
        // Record (seq, cause) for every dispatch and check the causal
        // tree: the root has no cause, every other event is caused by a
        // previously dispatched seq.
        #[derive(Default)]
        struct MetaLog {
            metas: Vec<DispatchMeta>,
        }
        impl Observer<Fanout> for MetaLog {
            fn on_dispatch_meta(&mut self, meta: DispatchMeta) {
                self.metas.push(meta);
            }
        }
        let log = Rc::new(RefCell::new(MetaLog::default()));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&log)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(2));
        eng.run_until(SimTime::MAX);
        let metas = log.borrow().metas.clone();
        // Spawn(2..=0) → 3 spawns + 6 leaves.
        assert_eq!(metas.len(), 9);
        assert_eq!(metas[0].cause, None, "external schedule has no cause");
        let mut seen = vec![metas[0].seq];
        for m in &metas[1..] {
            let c = m.cause.expect("handler-scheduled events carry a cause");
            assert!(seen.contains(&c), "cause {c} must already be dispatched");
            seen.push(m.seq);
        }
        // Each Spawn causes 2 leaves (+1 follow-up spawn while gen > 0):
        // the root seq must appear as a cause exactly 3 times.
        let root = metas[0].seq;
        let root_children = metas.iter().filter(|m| m.cause == Some(root)).count();
        assert_eq!(root_children, 3);
    }

    #[test]
    fn after_handle_sees_post_event_world() {
        struct Snoop {
            last_handled: u64,
        }
        impl Observer<Fanout> for Snoop {
            fn after_handle(&mut self, _now: SimTime, world: &Fanout) {
                self.last_handled = world.handled;
            }
        }
        let snoop = Rc::new(RefCell::new(Snoop { last_handled: 0 }));
        let mut eng = Engine::new(Fanout { handled: 0 });
        eng.set_observer(Box::new(Rc::clone(&snoop)));
        eng.schedule_at(SimTime::ZERO, Ev::Spawn(1));
        eng.run_until(SimTime::MAX);
        assert_eq!(snoop.borrow().last_handled, eng.world().handled);
    }
}
