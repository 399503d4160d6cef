//! Benchmark of record for coolstreaming-rs.
//!
//! Three closed-loop batch workloads — `evening`, `library_checked` and
//! `seed_ensemble` — each measured end to end with tracing off, and
//! layer by layer in a separate traced run. `BENCHMARK.json` declares
//! the two that are steady enough to gate changes on; `evening` runs on
//! demand. See `README.md` in this directory for why each workload
//! exists and which layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod common;
pub mod declared;
pub mod ensemble;
pub mod evening;
pub mod library;
pub mod report;
pub mod stats;
pub mod tracer;

use std::path::{Path, PathBuf};

use declared::Declarations;
use report::{valid_name, valid_unit, Report};

/// The repository checkout this benchmark was built from: scenario
/// files, golden hashes and `BENCHMARK.json` are read from it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The broadcast evening at scale 0.02 with the figure pipeline. Not
    /// declared in `BENCHMARK.json`: two or three 12-s repeats per run
    /// are too few to be steady on a noisy host.
    Evening,
    /// The golden library under the stride-1 invariant checker.
    LibraryChecked,
    /// Eight steady-state seeds through `run_all`.
    SeedEnsemble,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Evening,
        Workload::LibraryChecked,
        Workload::SeedEnsemble,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Evening => "evening",
            Workload::LibraryChecked => "library_checked",
            Workload::SeedEnsemble => "seed_ensemble",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Evening => evening::DEFAULT_SEED,
            Workload::LibraryChecked => library::DEFAULT_SEED,
            Workload::SeedEnsemble => ensemble::DEFAULT_SEED,
        }
    }
}

/// How big the workloads are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark of record.
    Full,
    /// Seconds-long versions for the benchmark's own tests.
    Small,
}

/// Run one workload and return its report: the end-to-end metrics with
/// `traced` false, the per-layer metrics with `traced` true.
pub fn run(workload: Workload, seed: u64, seconds: u64, traced: bool, size: Size) -> Report {
    let mut report = Report::default();
    let root = repo_root();
    match workload {
        Workload::Evening => {
            let w = match size {
                Size::Full => evening::Evening::full(seed),
                Size::Small => evening::Evening::small(seed),
            };
            if traced {
                w.traced(&mut report);
            } else {
                w.timed(seconds, &mut report);
            }
        }
        Workload::LibraryChecked => {
            let w = match size {
                Size::Full => library::Library::full(seed),
                Size::Small => library::Library::small(seed),
            };
            if traced {
                w.traced(&root, &mut report);
            } else {
                w.timed(&root, seconds, &mut report);
            }
        }
        Workload::SeedEnsemble => {
            let w = match size {
                Size::Full => ensemble::Ensemble::full(seed),
                Size::Small => ensemble::Ensemble::small(seed),
            };
            if traced {
                w.traced(&mut report);
            } else {
                w.timed(seconds, &mut report);
            }
        }
    }
    report
}

/// Check that `report` emits exactly the metrics `decl` declares for
/// this mode, each once, with the declared unit and a legal name.
/// Returns the mismatches.
pub fn conformance(report: &Report, decl: &Declarations, traced: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let expected = decl.expected(traced);
    for d in expected {
        match report.metrics.iter().filter(|m| m.name == d.name).count() {
            1 => {}
            0 => problems.push(format!("declared metric {} was not emitted", d.name)),
            n => problems.push(format!("metric {} emitted {n} times", d.name)),
        }
    }
    for m in &report.metrics {
        if !valid_name(&m.name) {
            problems.push(format!("illegal metric name {:?}", m.name));
        }
        if !valid_unit(&m.unit) {
            problems.push(format!("{}: illegal unit {:?}", m.name, m.unit));
        }
        match expected.iter().find(|d| d.name == m.name) {
            Some(d) if d.unit != m.unit => problems.push(format!(
                "{}: emitted in {} but declared in {}",
                m.name, m.unit, d.unit
            )),
            Some(_) => {}
            None => problems.push(format!("metric {} is not declared", m.name)),
        }
    }
    problems
}
