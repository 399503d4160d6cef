//! The traced run: the engine assembled from public constructors, with a
//! benchmark-owned observer that times every handler by manager and
//! kind, the engine loop between handlers, and the wrapped trace hasher
//! and invariant checker.
//!
//! The clock is read at each hook boundary, so the intervals chain with
//! no gaps from the first dispatch to the last handler's return:
//!
//! ```text
//! on_dispatch:  t0 ─tracer─ ta ─hash─ tb ─check─ t1
//! handler:      t1 ─────────── handler ────────── t2
//! after_handle: t2 ─check─ t3 ─tracer─ t4
//! next event:   t4 ─────── loop (queue pop) ──── t0'
//! ```
//!
//! Without a checker `t1 = tb` and `t3 = t2`.

use std::time::{Duration, Instant};

use coolstreaming::Scenario;
use cs_net::Network;
use cs_proto::{finalize_sessions, CsWorld, Event, EventKinds, InvariantChecker, UserSpec};
use cs_sim::{Engine, Observer, SimTime, TraceHasher};

/// Manager names reported per layer, in report order. The topology
/// snapshot is world-level housekeeping; it is reported as its own
/// layer because its cost grows with the population.
pub const MANAGERS: [&str; 5] = ["membership", "partnership", "stream", "chaos", "snapshot"];

/// Per-kind accumulator.
#[derive(Clone, Debug, Default)]
pub struct KindTime {
    /// Event kind name.
    pub name: &'static str,
    /// Manager that handles the kind.
    pub manager: &'static str,
    /// Events handled.
    pub events: u64,
    /// Handler time.
    pub ns: u64,
}

/// Timings gathered by [`LayerTracer`]; summed over every traced run of
/// an invocation with [`Layers::absorb`].
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Per-kind handler time, indexed by the kind's dense index.
    pub kinds: Vec<KindTime>,
    /// Handler durations per manager (ns), for the percentiles; index
    /// follows `manager_names`.
    pub samples: Vec<Vec<u32>>,
    /// Manager names in sample order.
    pub manager_names: Vec<&'static str>,
    /// Engine loop time between a handler's return and the next dispatch.
    pub loop_ns: u64,
    /// Time inside the wrapped trace hasher.
    pub hash_ns: u64,
    /// Time inside the wrapped invariant checker, horizon check included.
    pub check_ns: u64,
    /// The tracer's own bookkeeping and clock reads.
    pub tracer_ns: u64,
    /// Events dispatched.
    pub events: u64,
    /// Deepest queue seen at a dispatch, counting the popped event.
    pub queue_depth_max: usize,
    /// Most live peers seen after any handler.
    pub peak_peers: usize,
    /// Full-world invariant checks run.
    pub checks: u64,
    /// Invariant violations found.
    pub violations: u64,
    /// Host time of the traced simulations, from first schedule to the
    /// horizon check.
    pub wall: Duration,
}

impl Layers {
    /// Handler time of all kinds.
    pub fn handler_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.ns).sum()
    }

    /// Sum of every timed interval: handlers, loop, hasher, checker and
    /// the tracer itself. At most `wall`.
    pub fn attributed_ns(&self) -> u64 {
        self.handler_ns() + self.loop_ns + self.hash_ns + self.check_ns + self.tracer_ns
    }

    /// Fold another run's timings into this one.
    pub fn absorb(&mut self, other: Layers) {
        for k in other.kinds {
            match self.kinds.iter_mut().find(|m| m.name == k.name) {
                Some(m) => {
                    m.events += k.events;
                    m.ns += k.ns;
                }
                None => self.kinds.push(k),
            }
        }
        for (name, samples) in other.manager_names.into_iter().zip(other.samples) {
            let ix = manager_index(&mut self.manager_names, &mut self.samples, name);
            self.samples[ix].extend(samples);
        }
        self.loop_ns += other.loop_ns;
        self.hash_ns += other.hash_ns;
        self.check_ns += other.check_ns;
        self.tracer_ns += other.tracer_ns;
        self.events += other.events;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.peak_peers = self.peak_peers.max(other.peak_peers);
        self.checks += other.checks;
        self.violations += other.violations;
        self.wall += other.wall;
    }
}

fn manager_index(
    names: &mut Vec<&'static str>,
    samples: &mut Vec<Vec<u32>>,
    name: &'static str,
) -> usize {
    names.iter().position(|&n| n == name).unwrap_or_else(|| {
        names.push(name);
        samples.push(Vec::new());
        names.len() - 1
    })
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The benchmark's observer. Wraps the public [`TraceHasher`] and,
/// optionally, an [`InvariantChecker`], and times both.
pub struct LayerTracer {
    hasher: TraceHasher<Event, EventKinds>,
    checker: Option<InvariantChecker>,
    layers: Layers,
    /// Dense kind index of the event being handled.
    current: usize,
    /// Sample slot of the current event's manager.
    current_manager: usize,
    handler_start: Instant,
    last_exit: Option<Instant>,
}

impl LayerTracer {
    /// A tracer that hashes the dispatch sequence and, if `checker` is
    /// given, validates invariants after each event.
    pub fn new(checker: Option<InvariantChecker>) -> Self {
        LayerTracer {
            hasher: TraceHasher::new(),
            checker,
            layers: Layers::default(),
            current: 0,
            current_manager: 0,
            handler_start: Instant::now(),
            last_exit: None,
        }
    }
}

impl Observer<CsWorld> for LayerTracer {
    fn on_dispatch(&mut self, now: SimTime, event: &Event, queue_depth: usize) {
        let t0 = Instant::now();
        if let Some(prev) = self.last_exit {
            self.layers.loop_ns += nanos(t0 - prev);
        }
        let (ix, name) = event.kind_class();
        let ix = usize::from(ix);
        let l = &mut self.layers;
        if l.kinds.len() <= ix {
            l.kinds.resize_with(ix + 1, KindTime::default);
        }
        if l.kinds[ix].name.is_empty() {
            let manager = if name == "snapshot" {
                "snapshot"
            } else {
                event.manager()
            };
            l.kinds[ix].name = name;
            l.kinds[ix].manager = manager;
        }
        self.current_manager =
            manager_index(&mut l.manager_names, &mut l.samples, l.kinds[ix].manager);
        self.current = ix;
        l.events += 1;
        l.queue_depth_max = l.queue_depth_max.max(queue_depth + 1);
        let ta = Instant::now();
        Observer::<CsWorld>::on_dispatch(&mut self.hasher, now, event, queue_depth);
        let tb = Instant::now();
        let t1 = match &mut self.checker {
            Some(c) => {
                c.on_dispatch(now, event, queue_depth);
                let t1 = Instant::now();
                l.check_ns += nanos(t1 - tb);
                t1
            }
            None => tb,
        };
        l.tracer_ns += nanos(ta - t0);
        l.hash_ns += nanos(tb - ta);
        self.handler_start = t1;
    }

    fn after_handle(&mut self, now: SimTime, world: &CsWorld) {
        let t2 = Instant::now();
        let handler = nanos(t2 - self.handler_start);
        let l = &mut self.layers;
        let t3 = match &mut self.checker {
            Some(c) => {
                c.after_handle(now, world);
                let t3 = Instant::now();
                l.check_ns += nanos(t3 - t2);
                t3
            }
            None => t2,
        };
        let kind = &mut l.kinds[self.current];
        kind.events += 1;
        kind.ns += handler;
        l.samples[self.current_manager].push(u32::try_from(handler).unwrap_or(u32::MAX));
        l.peak_peers = l.peak_peers.max(world.peer_count());
        let t4 = Instant::now();
        l.tracer_ns += nanos(t4 - t3);
        self.last_exit = Some(t4);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The output of one traced run.
pub struct TracedRun {
    /// The finished world, sessions finalized.
    pub world: CsWorld,
    /// Trace hash of the dispatch sequence.
    pub trace_hash: u64,
    /// Per-layer timings.
    pub layers: Layers,
}

/// Run `scenario` on `arrivals` plus chaos `injections` under a
/// [`LayerTracer`], assembling the engine from public constructors the
/// way `Scenario::run_injected_observed` does, so the trace hash must
/// equal an untraced run's. `check` attaches an invariant checker at
/// stride 1.
pub fn run_traced(
    scenario: &Scenario,
    arrivals: Vec<(SimTime, UserSpec)>,
    injections: Vec<(SimTime, Event)>,
    check: bool,
) -> TracedRun {
    let start = Instant::now();
    let net = Network::new(scenario.policy, scenario.latency, scenario.seed);
    let mut world = CsWorld::new(
        scenario.params,
        net,
        scenario.servers,
        scenario.server_bw,
        scenario.seed,
    );
    world.snapshot_interval = scenario.snapshot_interval;
    world.reserve_peers(arrivals.len() + scenario.servers);
    let mut engine = Engine::with_queue_capacity(world, arrivals.len() + injections.len() + 16);
    engine.event_budget = 4_000_000_000;
    let checker = check.then(|| InvariantChecker::with_stride(1));
    engine.set_observer(Box::new(LayerTracer::new(checker)));
    for (t, e) in engine.world().initial_events() {
        engine.schedule_at(t.max(scenario.start), e);
    }
    for (t, spec) in arrivals {
        engine.schedule_at(t, Event::Arrive(spec));
    }
    for (t, e) in injections {
        engine.schedule_at(t, e);
    }
    engine.run_until(scenario.horizon);
    let end = engine.now();
    let mut observer = engine.take_observer();
    let mut world = engine.into_world();
    let tracer = observer
        .as_mut()
        .and_then(|o| o.as_any_mut())
        .and_then(|a| a.downcast_mut::<LayerTracer>())
        .expect("the tracer was attached by value above");
    let mut layers = std::mem::take(&mut tracer.layers);
    if let Some(c) = &mut tracer.checker {
        // The horizon state is checked too, as in an untraced run.
        let t = Instant::now();
        c.check_world(end, &world);
        layers.check_ns += nanos(t.elapsed());
        layers.checks = c.checks_run();
        layers.violations = c.total_violations();
    }
    finalize_sessions(&mut world);
    layers.wall = start.elapsed();
    TracedRun {
        world,
        trace_hash: tracer.hasher.hash(),
        layers,
    }
}
