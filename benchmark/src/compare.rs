//! `--compare A.json B.json`: is B worse than A by more than a bound?
//!
//! For every workload and end-to-end metric the two result files share,
//! the change of the median from A to B is set against the bound in
//! `BENCHMARK.json`. Where either side's own quartile range is wider than
//! the bound, the row is `unresolved`, not `ok`. A breach makes the exit
//! code non-zero.

use crate::json::{parse, Value};
use crate::spec::Spec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Breach,
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Breach
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The runs in a result file: a set (`{"set": [...]}`) or a single run.
fn runs(v: &Value) -> Vec<&Value> {
    match v.get("set") {
        Some(set) => set.as_array().iter().collect(),
        None => vec![v],
    }
}

/// Median and quartile spread of metric `name` in one run.
fn reading(run: &Value, name: &str) -> Option<(f64, f64)> {
    let m = run.get("metrics")?.get(name)?;
    let value = m.get("value")?.as_f64()?;
    let q = |k| m.get(k).and_then(Value::as_f64).unwrap_or(value);
    let spread = if value == 0.0 {
        0.0
    } else {
        (q("q3") - q("q1")).abs() / value.abs()
    };
    Some((value, spread))
}

/// Compare two result files; returns the report and whether any row
/// breached its bound.
pub fn compare(spec: &Spec, a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse(a_text)?, parse(b_text)?);
    let mut report = format!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse%", "bound%"
    );
    let (mut rows, mut breached) = (0, false);
    for run_a in runs(&a) {
        let workload = run_a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let same = |r: &&Value| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace") == run_a.get("trace")
        };
        let Some(run_b) = runs(&b).into_iter().find(same) else {
            continue;
        };
        for decl in &spec.end_to_end {
            let (Some((va, sa)), Some((vb, sb))) =
                (reading(run_a, &decl.name), reading(run_b, &decl.name))
            else {
                continue;
            };
            let bound = decl.bound.unwrap_or(0.0);
            let worse = worsening(va, vb, decl.higher_is_better);
            let v = verdict(worse, sa, sb, bound);
            breached |= v == Verdict::Breach;
            rows += 1;
            report.push_str(&format!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>8.2} {:>7.1}  {}\n",
                workload,
                decl.name,
                va,
                vb,
                worse * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Breach => "BREACH",
                }
            ));
        }
    }
    if rows == 0 {
        return Err("the two files share no workload with end-to-end metrics".into());
    }
    Ok((report, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.05, 0.02, 0.03, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.02, 0.03, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.05, 0.12, 0.03, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.11, 0.02, 0.03, 0.10), Verdict::Breach);
    }

    #[test]
    fn compare_reads_sets_and_flags_a_breach() {
        let spec = Spec::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w"}], "per_layer": [],
                "end_to_end": [
                  {"name": "rate", "unit": "1/kref", "better": "higher", "bound": 0.1},
                  {"name": "lat", "unit": "ref", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let run = |rate: f64, lat: f64| {
            format!(
                r#"{{"set": [{{"workload": "w", "trace": false, "metrics": {{
                    "rate": {{"value": {rate}, "q1": {rate}, "q3": {rate}}},
                    "lat": {{"value": {lat}, "q1": {}, "q3": {}}}}}}}]}}"#,
                lat * 0.99,
                lat * 1.01
            )
        };
        let (report, breached) = compare(&spec, &run(100.0, 50.0), &run(95.0, 51.0)).unwrap();
        assert!(!breached, "{report}");
        assert_eq!(report.matches(" ok").count(), 2);
        let (report, breached) = compare(&spec, &run(100.0, 50.0), &run(80.0, 51.0)).unwrap();
        assert!(breached && report.contains("BREACH"), "{report}");
        assert!(compare(&spec, &run(1.0, 1.0), r#"{"workload": "other"}"#).is_err());
    }
}
