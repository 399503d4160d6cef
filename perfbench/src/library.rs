//! `library_checked`: the golden scenario library under the full
//! invariant checker at stride 1, each trace hash checked against
//! `tests/golden/scenario_hashes.txt` — the conformance path tier-1 and
//! CI pay for — plus one replica of a library scenario on the
//! benchmark's seed, so the workload's inputs follow `--seed`.

use std::path::Path;
use std::time::{Duration, Instant};

use coolstreaming::experiments::{fig6_startup, fig8_continuity, LogView};
use coolstreaming::{ObservedRun, RunOptions, Scenario, ScenarioSpec};
use cs_proto::Event;
use cs_sim::SimTime;

use crate::common::{
    fidelity, log_digest, peer_seconds, push_end_to_end, push_per_layer, timed_repeats, LogStats,
    Pipeline, SetupTimer, Untraced, SETUP_BATCH,
};
use crate::report::Report;
use crate::stats::peak_rss_kb;
use crate::tracer::{run_traced, Layers};

/// The seven golden scenarios timed. `congestion_storm` and
/// `regional_outage` are left out: checked, they alone would double the
/// run.
pub const GOLDEN: [&str; 7] = [
    "steady_state",
    "flash_crowd",
    "bootstrap_flap",
    "nat_dominant",
    "server_crash",
    "upload_skew",
    "free_rider",
];

/// The scenario replayed on the benchmark's seed.
pub const REPLICA: &str = "steady_state";

/// `steady_state`'s own seed: with it the replica must reproduce that
/// scenario's golden hash too.
pub const DEFAULT_SEED: u64 = 401;

/// Full invariant checking at stride 1 plus the trace hash.
fn full_check() -> RunOptions {
    RunOptions {
        check_invariants: true,
        invariant_stride: 1,
        trace_hash: true,
        ..RunOptions::default()
    }
}

/// The workload's size.
#[derive(Clone, Debug)]
pub struct Library {
    /// Golden scenarios to run, by name.
    pub golden: Vec<&'static str>,
    /// The scenario replayed on `seed`.
    pub replica: &'static str,
    /// Seed of the replica.
    pub seed: u64,
}

/// One scenario ready to run.
struct Item {
    label: String,
    scenario: Scenario,
    injections: Vec<(SimTime, Event)>,
    /// The hash the run must reproduce, if the golden file pins it.
    golden: Option<u64>,
}

/// Golden hashes by scenario name.
fn read_golden(root: &Path) -> Result<Vec<(String, u64)>, String> {
    let path = root.join("tests/golden/scenario_hashes.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').ok_or(format!("bad golden line {l:?}"))?;
            let hash = u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("{l:?}: {e}"))?;
            Ok((name.to_string(), hash))
        })
        .collect()
}

fn load_spec(root: &Path, name: &str) -> Result<ScenarioSpec, String> {
    let path = root.join("scenarios").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioSpec::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn stats_figures(view: &LogView, scenario: &Scenario, stats: &mut LogStats) {
    std::hint::black_box((
        fig6_startup(view, SimTime::ZERO, SimTime::MAX),
        fig8_continuity(
            view,
            scenario.start,
            scenario.horizon,
            SimTime::from_secs(60),
        ),
    ));
    stats.add(view);
}

impl Library {
    /// The benchmark's size.
    pub fn full(seed: u64) -> Self {
        Library {
            golden: GOLDEN.to_vec(),
            replica: REPLICA,
            seed,
        }
    }

    /// One small golden scenario and its replica, for the benchmark's
    /// own tests.
    pub fn small(seed: u64) -> Self {
        Library {
            golden: vec!["flash_crowd"],
            replica: "flash_crowd",
            seed,
        }
    }

    /// Spec load and compile, plus workload generation.
    fn setup(&self, root: &Path) -> Result<Vec<Item>, String> {
        let golden = read_golden(root)?;
        let pinned = |name: &str| {
            golden
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, h)| h)
                .ok_or(format!("{name} has no golden hash"))
        };
        let mut items = Vec::new();
        for &name in &self.golden {
            let compiled = load_spec(root, name)?
                .compile()
                .map_err(|e| e.to_string())?;
            items.push(Item {
                label: name.to_string(),
                scenario: compiled.scenario,
                injections: compiled.injections,
                golden: Some(pinned(name)?),
            });
        }
        let mut spec = load_spec(root, self.replica)?;
        let own_seed = spec.seed;
        spec.seed = Some(self.seed);
        let compiled = spec.compile().map_err(|e| e.to_string())?;
        items.push(Item {
            label: format!("{}@{}", self.replica, self.seed),
            scenario: compiled.scenario,
            injections: compiled.injections,
            golden: if own_seed == Some(self.seed) {
                Some(pinned(self.replica)?)
            } else {
                None
            },
        });
        for item in &items {
            let s = &item.scenario;
            std::hint::black_box(s.workload.generate(s.seed, s.start, s.horizon));
        }
        Ok(items)
    }

    /// Run one item checked; returns the run, its host time and any
    /// failed check. `reference` is the hash an unpinned item produced
    /// before.
    fn run_checked(item: &Item, reference: Option<u64>) -> (ObservedRun, Duration, Vec<String>) {
        let t = Instant::now();
        let run = item
            .scenario
            .run_injected_observed(item.injections.clone(), full_check());
        let sim = t.elapsed();
        let mut problems = Vec::new();
        let hash = run.trace_hash.unwrap_or(0);
        if let Some(want) = item.golden.or(reference) {
            if hash != want {
                problems.push(format!(
                    "{}: trace hash {hash:016x}, expected {want:016x}",
                    item.label
                ));
            }
        }
        match &run.invariants {
            Some(c) if c.is_clean() => {}
            Some(c) => problems.push(format!(
                "{}: {} invariant violations\n{}",
                item.label,
                c.total_violations(),
                c.report()
            )),
            None => problems.push(format!("{}: invariant checker missing", item.label)),
        }
        (run, sim, problems)
    }

    /// Timed runs, tracing off: the end-to-end metrics. A pass is one
    /// long repeat, so a short set-up batch follows every scenario (and
    /// is left out of the pass's time) to spread set-up timing over the
    /// run.
    pub fn timed(&self, root: &Path, seconds: u64, report: &mut Report) {
        let mut setup = SetupTimer::default();
        let items = match setup.batch(SETUP_BATCH, || self.setup(root)) {
            Ok(items) => items,
            Err(e) => return report.problem(e),
        };
        let between_items = SETUP_BATCH / 4;
        let mut references = vec![None; items.len()];
        let mut first_stats = None;
        let samples = timed_repeats(
            seconds,
            report,
            || {
                let (mut wall, mut sim, mut peer_s) = (Duration::ZERO, Duration::ZERO, 0.0);
                let mut stats = LogStats::default();
                let mut problems = Vec::new();
                for (item, reference) in items.iter().zip(&mut references) {
                    let begin = Instant::now();
                    let (run, took, failed) = Self::run_checked(item, *reference);
                    sim += took;
                    reference.get_or_insert(run.trace_hash.unwrap_or(0));
                    problems.extend(failed);
                    let view = LogView::build(&run.artifacts);
                    stats_figures(&view, &item.scenario, &mut stats);
                    peer_s += peer_seconds(&run.artifacts.world, item.scenario.horizon);
                    wall += begin.elapsed();
                    drop((view, run));
                    let _ = setup.batch(between_items, || self.setup(root));
                }
                first_stats.get_or_insert(stats);
                if problems.is_empty() {
                    Ok((wall.as_secs_f64(), peer_s / sim.as_secs_f64()))
                } else {
                    Err(problems)
                }
            },
            || {},
        );
        let (walls, rates): (Vec<f64>, Vec<f64>) = samples.into_iter().unzip();
        let stats = first_stats.unwrap_or_default();
        push_end_to_end(report, setup.median(), &walls, &rates, &stats);
    }

    /// Every item once untraced and once traced: the per-layer metrics.
    pub fn traced(&self, root: &Path, report: &mut Report) {
        let items = match self.setup(root) {
            Ok(items) => items,
            Err(e) => return report.problem(e),
        };
        let mut pipe = Pipeline::default();
        let mut sim = Duration::ZERO;
        let mut expected = Vec::new();
        for item in &items {
            let (run, took, problems) = Self::run_checked(item, None);
            sim += took;
            for p in problems {
                report.problem(p);
            }
            pipe.measure(&run.artifacts, |view| {
                stats_figures(view, &item.scenario, &mut LogStats::default())
            });
            expected.push((
                run.trace_hash.unwrap_or(0),
                log_digest(&run.artifacts.world),
            ));
        }
        let rss_kb = peak_rss_kb().unwrap_or(0);
        let mut layers = Layers::default();
        for (item, (hash, digest)) in items.iter().zip(expected) {
            let s = &item.scenario;
            let arrivals = s.workload.generate(s.seed, s.start, s.horizon);
            let traced = run_traced(s, arrivals, item.injections.clone(), true);
            let mut problems = fidelity(Some(hash), digest, traced.trace_hash, &traced.world);
            if traced.layers.violations > 0 {
                problems.push(format!(
                    "{}: traced run found {} invariant violations",
                    item.label, traced.layers.violations
                ));
            }
            report.checked_run(problems);
            layers.absorb(traced.layers);
        }
        let untraced = Untraced {
            sim,
            rss_kb,
            serial: sim,
            speedup: 1.0,
        };
        push_per_layer(report, &mut layers, &pipe, &untraced);
    }
}
