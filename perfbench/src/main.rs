//! `cs-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics as a table on stderr and as
//! one JSON object on the last line of stdout. Exits 1 when a
//! correctness check fails, 2 on bad arguments. `--workload all` runs
//! every workload untraced and traced, each in its own process.

use std::process::{Command, ExitCode};

use cs_perfbench::declared::Declarations;
use cs_perfbench::report::Report;
use cs_perfbench::{conformance, repo_root, run, Size, Workload};
use serde::Value;

const USAGE: &str =
    "usage: cs-perfbench --workload <evening|library_checked|seed_ensemble|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
struct Args {
    /// `None` means every workload.
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 45;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => {
                let w = Workload::from_name(value).ok_or(format!("unknown workload {value}"))?;
                workload = Some(Some(w));
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_one(workload: Workload, args: &Args) -> Report {
    let seed = args.seed.unwrap_or(workload.default_seed());
    eprintln!(
        "{} seed {seed}, {} s, trace {}",
        workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    let mut report = run(workload, seed, args.seconds, args.trace, Size::Full);
    match Declarations::load(&repo_root()) {
        Ok(decl) => {
            for p in conformance(&report, &decl, args.trace) {
                report.problem(p);
            }
        }
        Err(e) => report.problem(e),
    }
    report
}

/// Run each workload untraced and traced in a child process of its own,
/// so each reports its own peak RSS, and merge the results under
/// `<workload>.<metric>` names.
fn run_all(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Report::default();
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            let out = cmd
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let child = stdout.lines().last().unwrap_or_default();
            merge(&mut merged, workload.name(), child)
                .map_err(|e| format!("{} trace {trace}: {e}", workload.name()))?;
        }
    }
    Ok(merged)
}

/// Fold one child's JSON result line into `merged`.
fn merge(merged: &mut Report, prefix: &str, line: &str) -> Result<(), String> {
    let tree: Value = serde_json::from_str(line).map_err(|e| format!("bad result line: {e}"))?;
    let top = tree.as_map().ok_or("result is not an object")?;
    let get = |key: &str| top.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let count = |key: &str| match get(key) {
        Some(Value::Int(n)) => u64::try_from(*n).map_err(|e| e.to_string()),
        _ => Err(format!("result has no integer `{key}`")),
    };
    merged.attempted += count("attempted")?;
    merged.failed += count("failed")?;
    if !matches!(get("correct"), Some(Value::Bool(true))) {
        merged.problem(format!("{prefix}: a correctness check failed"));
    }
    let metrics = get("metrics")
        .and_then(Value::as_map)
        .ok_or("result has no metrics")?;
    for (name, m) in metrics {
        let m = m.as_map().ok_or("metric is not an object")?;
        let field = |key: &str| m.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let value = match field("value") {
            Some(Value::Float(x)) => *x,
            Some(Value::Int(n)) => *n as f64,
            _ => return Err(format!("{name}: no numeric value")),
        };
        let unit = field("unit").and_then(Value::as_str).unwrap_or("");
        merged.push(format!("{prefix}.{name}"), unit, value);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Some(w) => run_one(w, &args),
        None => match run_all(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        },
    };
    eprint!("{}", report.to_table());
    for p in &report.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
