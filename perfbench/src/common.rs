//! Pieces every workload shares: set-up timing, the timed repeat loop,
//! the log statistics behind `continuity_index` and `ready_p50_s`, and
//! the per-layer metric emission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use coolstreaming::experiments::LogView;
use coolstreaming::RunArtifacts;
use cs_analysis::Cdf;
use cs_net::{Network, NodeClass};
use cs_proto::CsWorld;
use cs_sim::SimTime;

use crate::report::Report;
use crate::stats::{band_quantile, cpu_time, digest, median, peak_rss_kb};
use crate::tracer::{Layers, MANAGERS};

/// Kinds whose handler cost is reported on its own, as
/// `<manager>.<kind>.ns_per_event`.
pub const KINDS: [(&str, &str); 6] = [
    ("stream", "bm_tick"),
    ("stream", "playback_tick"),
    ("stream", "sched_round"),
    ("membership", "gossip_tick"),
    ("membership", "arrive"),
    ("partnership", "partners_ready"),
];

/// How long one set-up batch runs before or between repeats.
pub const SETUP_BATCH: Duration = Duration::from_millis(250);

/// Set-up timings of one invocation. Set-up takes milliseconds, while the
/// host's speed drifts over seconds, so set-up is timed in batches spread
/// over the whole run and the median of all calls is reported.
#[derive(Debug, Default)]
pub struct SetupTimer {
    times: Vec<f64>,
}

impl SetupTimer {
    /// Run `setup` at least 9 times and for at least `window`; returns
    /// its last result.
    pub fn batch<T>(&mut self, window: Duration, mut setup: impl FnMut() -> T) -> T {
        let begin = Instant::now();
        let mut n = 0;
        loop {
            let t = Instant::now();
            let out = std::hint::black_box(setup());
            self.times.push(t.elapsed().as_secs_f64());
            n += 1;
            if n >= 9 && begin.elapsed() >= window {
                return out;
            }
        }
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Call `repeat` until `seconds` are used up (at least once; another
/// repeat starts only if one more of average length still fits), and
/// `between` after each call. Each `repeat` is one checked run: `Ok`
/// carries its sample, `Err` the failed checks; a panic counts as a
/// failed run.
pub fn timed_repeats<S>(
    seconds: u64,
    report: &mut Report,
    mut repeat: impl FnMut() -> Result<S, Vec<String>>,
    mut between: impl FnMut(),
) -> Vec<S> {
    let budget = Duration::from_secs(seconds);
    let begin = Instant::now();
    let mut samples = Vec::new();
    let mut done = 0;
    loop {
        let (wall, cpu) = (Instant::now(), cpu_time());
        let outcome = catch_unwind(AssertUnwindSafe(&mut repeat));
        let on_cpu = cpu.zip(cpu_time()).map(|(a, b)| b - a);
        done += 1;
        // On-CPU time close to wall time means the host slowed the run,
        // not the scheduler.
        eprintln!(
            "  repeat {done}: {:.3} s, {:.3} s on cpu",
            wall.elapsed().as_secs_f64(),
            on_cpu.unwrap_or_default().as_secs_f64()
        );
        match outcome {
            Ok(Ok(sample)) => {
                report.checked_run(Vec::new());
                samples.push(sample);
            }
            Ok(Err(problems)) => report.checked_run(problems),
            Err(_) => report.checked_run(vec!["a timed run panicked".to_string()]),
        }
        between();
        let elapsed = begin.elapsed();
        if elapsed + elapsed / done > budget {
            return samples;
        }
    }
}

/// The session statistics the end-to-end metrics report, pooled over
/// every run of a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogStats {
    /// Per-session continuity index of normal sessions (Fig. 8's
    /// quantity, aggregated per session).
    pub continuity: Vec<f64>,
    /// Join → media-ready delays in seconds (Fig. 6's media-ready CDF).
    pub ready: Vec<f64>,
}

impl LogStats {
    /// Add every session of one run's log.
    pub fn add(&mut self, view: &LogView) {
        for s in &view.sessions {
            if s.is_normal() {
                self.continuity.extend(s.continuity());
            }
            self.ready.extend(s.ready_delay().map(SimTime::as_secs_f64));
        }
    }

    /// Mean continuity index of normal sessions.
    pub fn continuity_index(&self) -> f64 {
        self.continuity.iter().sum::<f64>() / self.continuity.len() as f64
    }

    /// Median media-ready delay (nearest rank, as Fig. 6 reports it).
    pub fn ready_p50(&self) -> f64 {
        Cdf::new(self.ready.clone()).median().unwrap_or(f64::NAN)
    }
}

/// Simulated peer-seconds of user sessions: each session from join to
/// leave, or to `horizon` if it was still live.
pub fn peer_seconds(world: &CsWorld, horizon: SimTime) -> f64 {
    world
        .sessions
        .iter()
        .filter(|s| s.class.is_user())
        .map(|s| {
            s.leave
                .unwrap_or(horizon)
                .saturating_sub(s.join)
                .as_secs_f64()
        })
        .sum()
}

/// Digest of a world's log text: equal digests mean equal runs.
pub fn log_digest(world: &CsWorld) -> u64 {
    digest(world.log.to_text().as_bytes())
}

/// The traced run must reproduce the untraced run's log and, where the
/// untraced run reported one, its trace hash.
pub fn fidelity(hash: Option<u64>, digest: u64, traced_hash: u64, world: &CsWorld) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(hash) = hash.filter(|&h| h != traced_hash) {
        problems.push(format!(
            "traced run hash {traced_hash:016x} differs from untraced {hash:016x}"
        ));
    }
    if log_digest(world) != digest {
        problems.push("traced run log differs from the untraced run's".to_string());
    }
    problems
}

/// Emit the six end-to-end metrics.
pub fn push_end_to_end(
    report: &mut Report,
    setup_s: f64,
    walls: &[f64],
    peer_rates: &[f64],
    stats: &LogStats,
) {
    report.push("setup_s", "s", setup_s);
    report.push("wall_s", "s", median(walls));
    report.push("peer_s_per_s", "peer-s/s", median(peer_rates));
    let rss_kb = peak_rss_kb().unwrap_or(0) as f64;
    report.push("peak_rss_mb", "MB", rss_kb / 1024.0);
    report.push("continuity_index", "ratio", stats.continuity_index());
    report.push("ready_p50_s", "s", stats.ready_p50());
}

/// Layer spans the benchmark takes around the log and analysis calls of
/// the untraced runs, plus their counts.
#[derive(Debug, Default)]
pub struct Pipeline {
    /// Log entries.
    pub entries: u64,
    /// Bytes of log text.
    pub bytes: u64,
    /// `LogServer::to_text`.
    pub encode: Duration,
    /// `LogServer::parse_all`.
    pub parse: Duration,
    /// Lines that failed to parse.
    pub parse_failures: u64,
    /// `LogView::build`.
    pub logview: Duration,
    /// The workload's figure extractors.
    pub figures: Duration,
    /// Sessions reconstructed from the log.
    pub sessions: u64,
    /// Connection attempts over all target classes.
    pub connect_attempts: u64,
    /// Successful connections over all target classes.
    pub connect_successes: u64,
    /// Connection attempts towards NAT peers.
    pub nat_attempts: u64,
    /// Successful connections towards NAT peers.
    pub nat_successes: u64,
}

impl Pipeline {
    /// Time the log and analysis layers over one run's artifacts;
    /// `figures` runs the workload's figure extractors.
    pub fn measure(&mut self, artifacts: &RunArtifacts, figures: impl FnOnce(&LogView)) {
        let log = &artifacts.world.log;
        let t = Instant::now();
        let text = std::hint::black_box(log.to_text());
        self.encode += t.elapsed();
        let t = Instant::now();
        let (parsed, failures) = std::hint::black_box(log.parse_all());
        self.parse += t.elapsed();
        self.entries += log.len() as u64;
        self.bytes += text.len() as u64;
        self.parse_failures += failures.len() as u64;
        drop((text, parsed));
        let t = Instant::now();
        let view = LogView::build(artifacts);
        self.logview += t.elapsed();
        let t = Instant::now();
        figures(&view);
        self.figures += t.elapsed();
        self.sessions += view.sessions.len() as u64;
        self.count_connections(&artifacts.world.net);
    }

    fn count_connections(&mut self, net: &Network) {
        use NodeClass::*;
        for class in [DirectConnect, Upnp, Nat, Firewall, Server, Source] {
            let s = net.connect_stats(class);
            self.connect_attempts += s.attempts;
            self.connect_successes += s.successes;
        }
        let nat = net.connect_stats(Nat);
        self.nat_attempts += nat.attempts;
        self.nat_successes += nat.successes;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64
    }
}

/// What a traced invocation measured besides the tracer's own layers.
pub struct Untraced {
    /// Host time of the untraced simulations (no analysis).
    pub sim: Duration,
    /// Peak RSS after the untraced runs, before the traced ones, KiB.
    pub rss_kb: u64,
    /// Sum of the per-run serial times (`ensemble.serial_s`).
    pub serial: Duration,
    /// `serial` over the batch runner's wall time (1 where the workload
    /// runs serially).
    pub speedup: f64,
}

/// Share of traced wall time the layers must account for.
pub const MIN_ATTRIBUTED: f64 = 0.90;

/// Emit every per-layer metric and check the traced run's fidelity.
pub fn push_per_layer(report: &mut Report, layers: &mut Layers, pipe: &Pipeline, un: &Untraced) {
    let s = |ns: u64| ns as f64 * 1e-9;
    let wall_ns = u64::try_from(layers.wall.as_nanos()).unwrap_or(u64::MAX);
    report.push("sim.events", "count", layers.events as f64);
    report.push(
        "sim.events_per_s",
        "1/s",
        layers.events as f64 / un.sim.as_secs_f64(),
    );
    report.push("sim.loop_s", "s", s(layers.loop_ns));
    report.push(
        "sim.loop_ns_per_event",
        "ns",
        per(layers.loop_ns, layers.events),
    );
    report.push(
        "sim.queue_depth_max",
        "count",
        layers.queue_depth_max as f64,
    );
    report.push("observer.hash_s", "s", s(layers.hash_ns));
    for manager in MANAGERS {
        let (events, ns) = layers
            .kinds
            .iter()
            .filter(|k| k.manager == manager)
            .fold((0, 0), |(e, n), k| (e + k.events, n + k.ns));
        let mut samples = layers
            .manager_names
            .iter()
            .position(|&n| n == manager)
            .map(|i| std::mem::take(&mut layers.samples[i]))
            .unwrap_or_default();
        report.push(format!("{manager}.self_s"), "s", s(ns));
        report.push(format!("{manager}.events"), "count", events as f64);
        report.push(format!("{manager}.ns_per_event"), "ns", per(ns, events));
        report.push(
            format!("{manager}.p50_ns"),
            "ns",
            band_quantile(&mut samples, 0.50),
        );
        report.push(
            format!("{manager}.p99_ns"),
            "ns",
            band_quantile(&mut samples, 0.99),
        );
    }
    for (manager, kind) in KINDS {
        let k = layers.kinds.iter().find(|k| k.name == kind);
        let (events, ns) = k.map_or((0, 0), |k| (k.events, k.ns));
        report.push(
            format!("{manager}.{kind}.ns_per_event"),
            "ns",
            per(ns, events),
        );
    }
    report.push("handler.self_s", "s", s(layers.handler_ns()));
    report.push("invariant.self_s", "s", s(layers.check_ns));
    report.push("invariant.checks", "count", layers.checks as f64);
    report.push(
        "invariant.ns_per_check",
        "ns",
        per(layers.check_ns, layers.checks),
    );
    report.push("invariant.violations", "count", layers.violations as f64);
    report.push(
        "net.connect_attempts",
        "count",
        pipe.connect_attempts as f64,
    );
    report.push(
        "net.nat.connect_success_ratio",
        "ratio",
        ratio(pipe.nat_successes, pipe.nat_attempts),
    );
    report.push(
        "net.connect_success_ratio",
        "ratio",
        ratio(pipe.connect_successes, pipe.connect_attempts),
    );
    report.push("log.entries", "count", pipe.entries as f64);
    report.push("log.bytes", "bytes", pipe.bytes as f64);
    report.push("log.encode_s", "s", pipe.encode.as_secs_f64());
    report.push("log.parse_s", "s", pipe.parse.as_secs_f64());
    report.push("log.parse_failures", "count", pipe.parse_failures as f64);
    report.push("analysis.logview_s", "s", pipe.logview.as_secs_f64());
    report.push("analysis.figures_s", "s", pipe.figures.as_secs_f64());
    report.push("analysis.sessions", "count", pipe.sessions as f64);
    report.push("ensemble.serial_s", "s", un.serial.as_secs_f64());
    report.push("ensemble.speedup", "ratio", un.speedup);
    report.push(
        "mem.rss_kb_per_peer",
        "kB/peer",
        ratio(un.rss_kb, layers.peak_peers as u64),
    );
    report.push("trace.wall_s", "s", layers.wall.as_secs_f64());
    report.push(
        "trace.overhead_ratio",
        "ratio",
        layers.wall.as_secs_f64() / un.sim.as_secs_f64(),
    );
    report.push("trace.self_s", "s", s(layers.tracer_ns));
    let attributed = layers.attributed_ns();
    let unattributed = wall_ns.saturating_sub(attributed);
    report.push("trace.unattributed_s", "s", s(unattributed));
    report.push(
        "trace.unattributed_share",
        "ratio",
        ratio(unattributed, wall_ns),
    );
    if attributed > wall_ns {
        report.problem(format!(
            "layer self times {attributed} ns exceed the traced wall time {wall_ns} ns"
        ));
    }
    if ratio(attributed, wall_ns) < MIN_ATTRIBUTED {
        report.problem(format!(
            "layer self times cover {:.1}% of traced wall time, below {:.0}%",
            100.0 * ratio(attributed, wall_ns),
            100.0 * MIN_ATTRIBUTED
        ));
    }
    if pipe.parse_failures > 0 {
        report.problem(format!("{} log lines failed to parse", pipe.parse_failures));
    }
}
