//! `seed_ensemble`: `run_all` over eight seeds of `Scenario::steady(1.0)`
//! for 20 simulated minutes, each result then reduced to the Fig. 8
//! continuity index and the Fig. 6 media-ready delay — the claim-ensemble
//! pattern, and the one workload where independent-run parallelism can
//! act.

use std::time::{Duration, Instant};

use coolstreaming::experiments::{fig6_startup, fig8_continuity, LogView};
use coolstreaming::{run_all, RunArtifacts, Scenario};
use cs_sim::SimTime;

use crate::common::{
    fidelity, log_digest, peer_seconds, push_end_to_end, push_per_layer, timed_repeats, LogStats,
    Pipeline, SetupTimer, Untraced, SETUP_BATCH,
};
use crate::report::Report;
use crate::stats::peak_rss_kb;
use crate::tracer::{run_traced, Layers};

/// First seed of the default ensemble.
pub const DEFAULT_SEED: u64 = 1;

/// The workload's size.
#[derive(Clone, Copy, Debug)]
pub struct Ensemble {
    /// Arrivals per second.
    pub rate: f64,
    /// Simulated length of each run.
    pub length: SimTime,
    /// Runs in the ensemble, seeded `seed, seed + 1, …`.
    pub runs: u64,
    /// First seed.
    pub seed: u64,
}

impl Ensemble {
    /// The benchmark's size.
    pub fn full(seed: u64) -> Self {
        Ensemble {
            rate: 1.0,
            length: SimTime::from_mins(20),
            runs: 8,
            seed,
        }
    }

    /// Two short runs, for the benchmark's own tests.
    pub fn small(seed: u64) -> Self {
        Ensemble {
            rate: 0.2,
            length: SimTime::from_mins(4),
            runs: 2,
            seed,
        }
    }

    fn scenarios(&self) -> Vec<Scenario> {
        (0..self.runs)
            .map(|i| {
                Scenario::steady(self.rate)
                    .with_seed(self.seed.wrapping_add(i))
                    .with_window(SimTime::ZERO, self.length)
            })
            .collect()
    }

    /// Scenario construction plus workload generation. `run_all` takes
    /// scenarios, not arrivals, so the timed runs generate again.
    fn setup(&self) -> Vec<Scenario> {
        let scenarios = self.scenarios();
        for s in &scenarios {
            std::hint::black_box(s.workload.generate(s.seed, s.start, s.horizon));
        }
        scenarios
    }

    fn figures(&self, view: &LogView, stats: &mut LogStats) {
        std::hint::black_box((
            fig8_continuity(view, SimTime::ZERO, self.length, SimTime::from_secs(60)),
            fig6_startup(view, SimTime::ZERO, SimTime::MAX),
        ));
        stats.add(view);
    }

    /// Timed runs, tracing off: the end-to-end metrics.
    pub fn timed(&self, seconds: u64, report: &mut Report) {
        let mut setup = SetupTimer::default();
        let scenarios = setup.batch(SETUP_BATCH, || self.setup());
        let mut reference: Option<(Vec<u64>, LogStats)> = None;
        let samples = timed_repeats(
            seconds,
            report,
            || {
                let input = scenarios.clone();
                let t = Instant::now();
                let results = run_all(input);
                let sim = t.elapsed();
                let mut stats = LogStats::default();
                for r in &results {
                    self.figures(&LogView::build(r), &mut stats);
                }
                let wall = t.elapsed();
                let peer_s: f64 = results
                    .iter()
                    .map(|r| peer_seconds(&r.world, self.length))
                    .sum();
                let digests = digests(&results);
                let (want, _) = reference.get_or_insert_with(|| (digests.clone(), stats));
                if digests != *want {
                    return Err(vec![
                        "ensemble logs differ from the first repeat's".to_string()
                    ]);
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

    /// `run_all` twice and each seed once serially and once traced: the
    /// per-layer metrics.
    pub fn traced(&self, report: &mut Report) {
        let scenarios = self.setup();
        let t = Instant::now();
        let results = run_all(scenarios.clone());
        let batch = t.elapsed();
        let mut pipe = Pipeline::default();
        for r in &results {
            pipe.measure(r, |view| self.figures(view, &mut LogStats::default()));
        }
        let want = digests(&results);
        drop(results);
        let rss_kb = peak_rss_kb().unwrap_or(0);

        // Each seed runs serially and then traced, back to back, so host
        // speed drifts as little as possible between the two.
        let mut serial = Duration::ZERO;
        let mut layers = Layers::default();
        for (s, &digest) in scenarios.iter().zip(&want) {
            let t = Instant::now();
            let run = s.run();
            serial += t.elapsed();
            if log_digest(&run.world) != digest {
                report.problem(format!("seed {}: serial run differs from run_all", s.seed));
            }
            drop(run);
            let arrivals = s.workload.generate(s.seed, s.start, s.horizon);
            let traced = run_traced(s, arrivals, Vec::new(), false);
            // `run_all` reports no trace hash: the log is the reference.
            report.checked_run(fidelity(None, digest, traced.trace_hash, &traced.world));
            layers.absorb(traced.layers);
        }
        // Time `run_all` once more, warm like the serial runs, and use
        // the mean of both batches.
        let t = Instant::now();
        drop(run_all(scenarios.clone()));
        let batch = (batch + t.elapsed()) / 2;
        let untraced = Untraced {
            sim: serial,
            rss_kb,
            serial,
            speedup: serial.as_secs_f64() / batch.as_secs_f64(),
        };
        push_per_layer(report, &mut layers, &pipe, &untraced);
    }
}

fn digests(results: &[RunArtifacts]) -> Vec<u64> {
    results.iter().map(|r| log_digest(&r.world)).collect()
}
