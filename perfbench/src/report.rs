//! The result of one benchmark invocation: named metrics with units,
//! the attempted/failed run count, and the correctness problems found.

use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `stream.self_s`.
    pub name: String,
    /// Unit, e.g. `s`, `ns`, `count`.
    pub unit: String,
    /// The value as measured, unrounded.
    pub value: f64,
}

/// Metrics plus the correctness verdict of one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked runs attempted.
    pub attempted: u64,
    /// Checked runs that failed a correctness check or panicked.
    pub failed: u64,
    /// One line per failed check, for the human-readable output.
    pub problems: Vec<String>,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

impl Report {
    /// Record a metric. A non-finite value is a correctness problem (it
    /// cannot be rendered as JSON) and is emitted as 0.
    pub fn push(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            self.problem(format!("metric {name} is not finite ({value})"));
            0.0
        };
        self.metrics.push(Metric {
            name,
            unit: unit.to_string(),
            value,
        });
    }

    /// Record a correctness problem that is not tied to one checked run.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Record the outcome of one checked run: `problems` empty means it
    /// passed.
    pub fn checked_run(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest digits that round-trip, always
            // with a fraction or exponent, so no digit is lost.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// An aligned `name value unit` table for people.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        assert!(valid_name("stream.bm_tick.ns_per_event"));
        assert!(valid_name("net.nat.connect_success_ratio"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("evening/wall_s"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("peer-s/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("a unit"));
    }

    #[test]
    fn json_keeps_every_digit_and_verdict() {
        let mut r = Report::default();
        r.push("wall_s", "s", 1.234_567_890_123);
        r.push("events", "count", 42.0);
        r.checked_run(Vec::new());
        let json = r.to_json();
        assert!(json.contains("\"value\": 1.234567890123"), "{json}");
        assert!(json.contains("\"value\": 42.0"), "{json}");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        r.push("bad", "s", f64::NAN);
        assert!(!r.correct());
        assert!(r.to_json().contains("\"bad\": {\"value\": 0.0"));
    }
}
