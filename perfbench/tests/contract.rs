//! The benchmark's own tests: `BENCHMARK.json` is well-formed and agrees
//! with the program, every workload emits every declared metric with its
//! unit, and the traced run is faithful and accounts for its wall time.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use coolstreaming::{RunOptions, Scenario, ScenarioSpec};
use cs_perfbench::declared::Declarations;
use cs_perfbench::report::{valid_name, valid_unit, Report};
use cs_perfbench::tracer::run_traced;
use cs_perfbench::{conformance, repo_root, run, Size, Workload};
use cs_sim::SimTime;

fn declarations() -> Declarations {
    Declarations::load(&repo_root()).expect("BENCHMARK.json parses")
}

#[test]
fn declared_metrics_have_legal_unique_names_and_units() {
    let decl = declarations();
    let mut names: Vec<&str> = Vec::new();
    for d in decl.end_to_end.iter().chain(&decl.per_layer) {
        assert!(valid_name(&d.name), "illegal metric name {:?}", d.name);
        assert!(valid_unit(&d.unit), "{}: illegal unit {:?}", d.name, d.unit);
        assert!(
            d.better == "higher" || d.better == "lower",
            "{}: better is {:?}",
            d.name,
            d.better
        );
        assert!(
            !names.contains(&d.name.as_str()),
            "{} declared twice",
            d.name
        );
        names.push(&d.name);
    }
    assert!((1..=16).contains(&decl.end_to_end.len()));
    assert!((1..=128).contains(&decl.per_layer.len()));
    for d in &decl.per_layer {
        assert_eq!(
            d.bound, None,
            "{}: per-layer metrics carry no bound",
            d.name
        );
    }
}

#[test]
fn setup_time_is_declared_with_the_largest_bound() {
    let decl = declarations();
    let setup = decl
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    let setup_bound = setup.bound.expect("setup_s has a bound");
    for d in &decl.end_to_end {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        assert!(
            d.name == "setup_s" || bound < setup_bound,
            "setup_s must have the largest bound, but {} has {bound}",
            d.name
        );
    }
}

#[test]
fn declared_workloads_exist_and_record_their_seeds() {
    let decl = declarations();
    assert!((2..=8).contains(&decl.workloads.len()));
    for (name, why) in &decl.workloads {
        let w = Workload::from_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
        let seed = format!("default seed {}", w.default_seed());
        assert!(why.contains(&seed), "{name}: why must record {seed:?}");
    }
    assert!((1..=60).contains(&decl.run_seconds));
    assert!(decl
        .command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}

/// Run one small workload in one mode and check its output against the
/// declarations.
fn emitted(workload: Workload, traced: bool) -> Report {
    let report = run(workload, 7, 1, traced, Size::Small);
    let problems = conformance(&report, &declarations(), traced);
    assert!(problems.is_empty(), "{}: {problems:#?}", workload.name());
    assert!(
        report.correct(),
        "{} traced={traced}: {:#?}",
        workload.name(),
        report.problems
    );
    report
}

/// Handler, loop, hasher, checker and tracer self times fit inside the
/// traced wall time.
fn self_times_fit(report: &Report) {
    let get = |name: &str| report.get(name).expect(name);
    let parts = get("handler.self_s")
        + get("sim.loop_s")
        + get("observer.hash_s")
        + get("invariant.self_s")
        + get("trace.self_s");
    let wall = get("trace.wall_s");
    assert!(
        parts <= wall,
        "self times {parts} s exceed traced wall {wall} s"
    );
    assert!(
        (parts + get("trace.unattributed_s") - wall).abs() < 1e-6,
        "the remainder is reported"
    );
}

#[test]
fn evening_emits_every_declared_metric() {
    emitted(Workload::Evening, false);
    self_times_fit(&emitted(Workload::Evening, true));
}

#[test]
fn library_checked_emits_every_declared_metric() {
    emitted(Workload::LibraryChecked, false);
    let traced = emitted(Workload::LibraryChecked, true);
    self_times_fit(&traced);
    assert!(traced.get("invariant.checks").expect("emitted") > 0.0);
    assert_eq!(traced.get("invariant.violations"), Some(0.0));
}

#[test]
fn seed_ensemble_emits_every_declared_metric() {
    emitted(Workload::SeedEnsemble, false);
    self_times_fit(&emitted(Workload::SeedEnsemble, true));
}

#[test]
fn seeds_change_the_inputs() {
    let a = run(Workload::SeedEnsemble, 1, 1, false, Size::Small);
    let b = run(Workload::SeedEnsemble, 2, 1, false, Size::Small);
    assert_ne!(a.get("ready_p50_s"), b.get("ready_p50_s"));
}

#[test]
fn traced_run_reproduces_the_untraced_run() {
    let scenario = Scenario::steady(0.3)
        .with_seed(5)
        .with_window(SimTime::ZERO, SimTime::from_mins(5));
    let untraced = scenario.run_observed(RunOptions {
        trace_hash: true,
        ..RunOptions::default()
    });
    let arrivals = scenario
        .workload
        .generate(scenario.seed, scenario.start, scenario.horizon);
    let traced = run_traced(&scenario, arrivals, Vec::new(), false);
    assert_eq!(Some(traced.trace_hash), untraced.trace_hash);
    assert_eq!(
        traced.world.log.to_text(),
        untraced.artifacts.world.log.to_text()
    );
    let layers = &traced.layers;
    assert_eq!(layers.events, untraced.artifacts.run_stats.events);
    assert!(layers.attributed_ns() as u128 <= layers.wall.as_nanos());
}

#[test]
fn checked_traced_run_matches_the_golden_library_hash() {
    let root = repo_root();
    let text = std::fs::read_to_string(root.join("scenarios/flash_crowd.json")).expect("spec");
    let compiled = ScenarioSpec::from_json(&text)
        .expect("valid spec")
        .compile()
        .expect("compiles");
    let golden = std::fs::read_to_string(root.join("tests/golden/scenario_hashes.txt"))
        .expect("golden file");
    let want = golden
        .lines()
        .find_map(|l| l.strip_prefix("flash_crowd "))
        .expect("flash_crowd is pinned");
    let s = &compiled.scenario;
    let arrivals = s.workload.generate(s.seed, s.start, s.horizon);
    let traced = run_traced(s, arrivals, compiled.injections.clone(), true);
    assert_eq!(format!("{:016x}", traced.trace_hash), want.trim());
    assert_eq!(traced.layers.violations, 0);
    assert_eq!(traced.layers.checks, traced.layers.events + 1);
}
