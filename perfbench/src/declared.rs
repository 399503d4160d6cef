//! The metric and workload declarations in `BENCHMARK.json`, which the
//! benchmark checks its own output against.

use std::path::Path;

use serde::Value;

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
#[derive(Clone, Debug)]
pub struct Declarations {
    /// Workload names with their one-line reason.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics (emitted with tracing off).
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics (emitted by the traced run).
    pub per_layer: Vec<Declared>,
    /// The `command` list.
    pub command: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or(format!("BENCHMARK.json: missing `{key}`"))
}

fn text(map: &[(String, Value)], key: &str) -> Result<String, String> {
    field(map, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: `{key}` is not a string"))
}

fn list<'a>(map: &'a [(String, Value)], key: &str) -> Result<&'a [Value], String> {
    field(map, key)?
        .as_seq()
        .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
}

fn entry(v: &Value) -> Result<&[(String, Value)], String> {
    v.as_map()
        .ok_or("BENCHMARK.json: list entry is not an object".to_string())
}

fn metrics(top: &[(String, Value)], key: &str) -> Result<Vec<Declared>, String> {
    list(top, key)?
        .iter()
        .map(|m| {
            let m = entry(m)?;
            let bound = match m.iter().find(|(k, _)| k == "bound").map(|(_, v)| v) {
                None => None,
                Some(Value::Float(x)) => Some(*x),
                Some(Value::Int(n)) => Some(*n as f64),
                Some(_) => return Err("BENCHMARK.json: `bound` is not a number".to_string()),
            };
            Ok(Declared {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: text(m, "better")?,
                bound,
            })
        })
        .collect()
}

impl Declarations {
    /// Parse `BENCHMARK.json` text.
    pub fn parse(json: &str) -> Result<Self, String> {
        let tree: Value = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let top = entry(&tree)?;
        let workloads = list(top, "workloads")?
            .iter()
            .map(|w| {
                let w = entry(w)?;
                Ok((text(w, "name")?, text(w, "why")?))
            })
            .collect::<Result<_, String>>()?;
        let command = list(top, "command")?
            .iter()
            .map(|c| {
                c.as_str()
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: command entry is not a string".to_string())
            })
            .collect::<Result<_, String>>()?;
        Ok(Declarations {
            workloads,
            end_to_end: metrics(top, "end_to_end")?,
            per_layer: metrics(top, "per_layer")?,
            command,
            run_seconds: match field(top, "run_seconds")? {
                Value::Int(n) => u64::try_from(*n).map_err(|e| e.to_string())?,
                _ => return Err("BENCHMARK.json: `run_seconds` is not an integer".to_string()),
            },
        })
    }

    /// Read `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("BENCHMARK.json");
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&json)
    }

    /// The metrics an invocation must emit: per-layer when traced,
    /// end-to-end otherwise.
    pub fn expected(&self, traced: bool) -> &[Declared] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
