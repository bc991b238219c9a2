//! `BENCHMARK.json`, compiled into the binary: the declared workloads and
//! metrics are the single source of names, units, directions and bounds,
//! and every run checks that what it emits is exactly what is declared.

use crate::json::{parse, Value};

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn metric_list(v: Option<&Value>) -> Result<Vec<MetricDecl>, String> {
    v.map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("metric without {k}"))
            };
            Ok(MetricDecl {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: match field("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better: {other:?}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let v = parse(text)?;
        Ok(Spec {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("run_seconds missing")?,
            workloads: v
                .get("workloads")
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metric_list(v.get("end_to_end"))?,
            per_layer: metric_list(v.get("per_layer"))?,
        })
    }

    /// The specification this binary was built against.
    pub fn embedded() -> Spec {
        Spec::parse(SPEC_JSON).expect("BENCHMARK.json is valid")
    }

    /// The metrics a run with this `--trace` value must emit.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Names must match `[A-Za-z0-9_.-]+` and start with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WORKLOADS;

    #[test]
    fn the_embedded_specification_is_well_formed() {
        let spec = Spec::embedded();
        let declared: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            declared, built,
            "workloads in BENCHMARK.json and in the code"
        );
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!(spec.end_to_end.len() <= 16 && spec.per_layer.len() <= 128);
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(declared.iter().copied())
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "every name is used once");
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("tx_per_kref.tl2") && valid_name("1t-x"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }
}
