//! `evening`: the paper's headline broadcast evening at the largest
//! population that fits a run — `Scenario::event_day(0.02)`, 19:00 to
//! 22:30, trace hash on — followed by the log → figure pipeline.

use std::time::Instant;

use coolstreaming::experiments::{
    fig10_sessions, fig3_user_types, fig4_convergence, fig6_startup, fig8_continuity, LogView,
};
use coolstreaming::{RunArtifacts, RunOptions, Scenario};
use cs_proto::UserSpec;
use cs_sim::SimTime;

use crate::common::{
    fidelity, log_digest, peer_seconds, push_end_to_end, push_per_layer, timed_repeats, LogStats,
    Pipeline, SetupTimer, Untraced, SETUP_BATCH,
};
use crate::report::Report;
use crate::stats::peak_rss_kb;
use crate::tracer::run_traced;

/// The workload's size.
#[derive(Clone, Copy, Debug)]
pub struct Evening {
    /// `event_day` population scale.
    pub scale: f64,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// Master seed.
    pub seed: u64,
}

/// The seed the paper's broadcast date gives the scenario.
pub const DEFAULT_SEED: u64 = 20060927;

impl Evening {
    /// The benchmark's size: 6,051 arrivals and 8.4 M events at the
    /// default seed.
    pub fn full(seed: u64) -> Self {
        Evening {
            scale: 0.02,
            start: SimTime::from_hours(19),
            end: SimTime::from_hours(22) + SimTime::from_mins(30),
            seed,
        }
    }

    /// A few simulated minutes, for the benchmark's own tests.
    pub fn small(seed: u64) -> Self {
        Evening {
            scale: 0.002,
            start: SimTime::from_hours(19),
            end: SimTime::from_hours(19) + SimTime::from_mins(8),
            seed,
        }
    }

    /// The audience is the broadcast evening generated from
    /// [`DEFAULT_SEED`] whatever the seed; `seed` drives the protocol,
    /// network and latency draws. Every seed so carries the same load,
    /// and the figures of different seeds compare.
    fn setup(&self) -> (Scenario, Vec<(SimTime, UserSpec)>) {
        let scenario = Scenario::event_day(self.scale)
            .with_seed(self.seed)
            .with_window(self.start, self.end);
        let arrivals = scenario
            .workload
            .generate(DEFAULT_SEED, scenario.start, scenario.horizon);
        (scenario, arrivals)
    }

    fn figures(&self, artifacts: &RunArtifacts, view: &LogView) {
        let bin = SimTime::from_mins(5);
        std::hint::black_box((
            fig3_user_types(artifacts, view),
            fig4_convergence(artifacts),
            fig6_startup(view, self.start, self.end),
            fig8_continuity(view, self.start, self.end, bin),
            fig10_sessions(view),
        ));
    }

    /// Timed runs, tracing off: the end-to-end metrics.
    pub fn timed(&self, seconds: u64, report: &mut Report) {
        let mut setup = SetupTimer::default();
        let (scenario, arrivals) = setup.batch(SETUP_BATCH, || self.setup());
        let options = RunOptions {
            trace_hash: true,
            ..RunOptions::default()
        };
        let mut reference: Option<(u64, LogStats)> = None;
        let samples = timed_repeats(
            seconds,
            report,
            || {
                let input = arrivals.clone();
                let t = Instant::now();
                let run = scenario.run_with_arrivals_observed(input, options);
                let sim = t.elapsed();
                let view = LogView::build(&run.artifacts);
                self.figures(&run.artifacts, &view);
                let mut stats = LogStats::default();
                stats.add(&view);
                let wall = t.elapsed();
                let peer_s = peer_seconds(&run.artifacts.world, scenario.horizon);
                let hash = run.trace_hash.unwrap_or(0);
                let (ref_hash, _) = reference.get_or_insert((hash, stats));
                if hash != *ref_hash {
                    return Err(vec![format!(
                        "trace hash {hash:016x} differs from the first repeat's {ref_hash:016x}"
                    )]);
                }
                Ok((wall.as_secs_f64(), peer_s / sim.as_secs_f64()))
            },
            || {
                setup.batch(SETUP_BATCH, || self.setup());
            },
        );
        let (walls, rates): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
        let stats = reference.map(|(_, s)| s).unwrap_or_default();
        push_end_to_end(report, setup.median(), &walls, &rates, &stats);
    }

    /// One untraced and one traced run: the per-layer metrics.
    pub fn traced(&self, report: &mut Report) {
        let (scenario, arrivals) = self.setup();
        let options = RunOptions {
            trace_hash: true,
            ..RunOptions::default()
        };
        let t = Instant::now();
        let run = scenario.run_with_arrivals_observed(arrivals.clone(), options);
        let sim = t.elapsed();
        let rss_kb = peak_rss_kb().unwrap_or(0);
        let mut pipe = Pipeline::default();
        pipe.measure(&run.artifacts, |view| self.figures(&run.artifacts, view));
        let (hash, digest) = (
            run.trace_hash.unwrap_or(0),
            log_digest(&run.artifacts.world),
        );
        drop(run);

        let traced = run_traced(&scenario, arrivals, Vec::new(), false);
        report.checked_run(fidelity(
            Some(hash),
            digest,
            traced.trace_hash,
            &traced.world,
        ));
        let mut layers = traced.layers;
        let untraced = Untraced {
            sim,
            rss_kb,
            serial: sim,
            speedup: 1.0,
        };
        push_per_layer(report, &mut layers, &pipe, &untraced);
    }
}
