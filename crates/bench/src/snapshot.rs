//! The fig5 trace snapshot and its exact regression gate.
//!
//! Runs the fig5 quick pipeline traced in memory and compares what the
//! tracer recorded — its record count and its own event, byte, span and
//! window totals — against the checked-in `BENCH_perf_baseline.json` (the
//! `perf_snapshot` test of this crate does both; `UPDATE_GOLDEN=1`
//! re-records the baseline). Every key is an integer, byte-identical at
//! every `--jobs` value and on every host, so each must match exactly: any
//! drift is a real behaviour change, not noise. The figure's own numbers
//! are not here; its stdout golden (`tests/figures.rs`) pins them.
//!
//! The snapshot carries no wall-clock numbers or host context: wall-clock
//! performance is measured in one place, `benchmark/` (`BENCHMARK.json`).
//!
//! The baseline is a *flat* JSON object (dotted keys, one per line,
//! sorted) in the same dialect `tracetool::json::parse_object` reads, so
//! the gate needs no external JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One snapshot value: the flat JSON file only ever holds unsigned
/// integers and strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Unsigned integer (counts, byte totals).
    U(u64),
    /// String (tool tag).
    S(String),
}

/// Trace fig5 on a small fixed corpus (this is a perf smoke, not a
/// statistics run; the same size at every invocation, so the keys are
/// comparable across commits) and collect the flat snapshot map.
pub fn collect() -> BTreeMap<String, Val> {
    let mut snap: BTreeMap<String, Val> = BTreeMap::new();
    snap.insert("schema".into(), Val::U(obs::SCHEMA_VERSION as u64));
    snap.insert(
        "tool".into(),
        Val::S("cargo test -p bench --test perf_snapshot".into()),
    );
    obs::start_trace_memory();
    crate::fig5::run_with(12);
    let report = obs::finish_trace();
    let oh = &report.overhead;
    for (key, n) in [
        ("trace.events", report.events),
        ("obs.events", oh.events),
        ("obs.bytes", oh.bytes),
        ("obs.spans", oh.spans),
        ("obs.windows", oh.windows),
    ] {
        snap.insert(format!("fig5.{key}"), Val::U(n));
    }
    snap
}

/// Encode the snapshot as flat JSON, one key per line, sorted.
pub fn render(snap: &BTreeMap<String, Val>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in snap.iter().enumerate() {
        let _ = write!(out, "\"{k}\": ");
        match v {
            Val::U(n) => {
                let _ = write!(out, "{n}");
            }
            Val::S(s) => {
                let _ = write!(out, "{:?}", s);
            }
        }
        out.push_str(if i + 1 < snap.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Parse a snapshot file previously written by [`render`].
pub fn parse(text: &str) -> Result<BTreeMap<String, Val>, String> {
    let mut out = BTreeMap::new();
    for (k, v) in tracetool::json::parse_object(text)? {
        let val = match v {
            tracetool::json::JsonValue::U64(n) => Val::U(n),
            tracetool::json::JsonValue::Str(s) => Val::S(s),
            other => return Err(format!("snapshot key {k:?}: unexpected value {other:?}")),
        };
        out.insert(k, val);
    }
    Ok(out)
}

/// Compare `current` against `baseline`. Returns the human-readable
/// verdict text and whether the gate passed. Every key is gated, in both
/// directions: a key present on one side only is a failure.
pub fn compare(
    current: &BTreeMap<String, Val>,
    baseline: &BTreeMap<String, Val>,
) -> (String, bool) {
    let mut out = String::new();
    let mut failures = 0usize;
    let keys: std::collections::BTreeSet<&String> = current.keys().chain(baseline.keys()).collect();
    for key in keys {
        match (current.get(key), baseline.get(key)) {
            (Some(cur), Some(base)) => {
                if cur != base {
                    failures += 1;
                    let _ = writeln!(
                        out,
                        "  FAIL  {key}: {cur:?} != baseline {base:?} (deterministic key)"
                    );
                }
            }
            (Some(cur), None) => {
                failures += 1;
                let _ = writeln!(
                    out,
                    "  FAIL  {key}: new deterministic key {cur:?} not in baseline (update it)"
                );
            }
            (None, Some(base)) => {
                failures += 1;
                let _ = writeln!(
                    out,
                    "  FAIL  {key}: baseline key {base:?} missing from this run"
                );
            }
            (None, None) => unreachable!("key came from one of the maps"),
        }
    }
    let ok = failures == 0;
    let _ = writeln!(
        out,
        "perf gate: {} ({} deterministic checks failed)",
        if ok { "PASS" } else { "FAIL" },
        failures,
    );
    (out, ok)
}

/// Compare `snap` against the baseline file at `baseline`. `Err` carries
/// the verdict text; a baseline that cannot be read fails the gate, so it
/// never passes by absence.
pub fn gate(snap: &BTreeMap<String, Val>, baseline: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("no baseline at {}: {e}", baseline.display()))?;
    let base = parse(&text).map_err(|e| format!("invalid baseline {}: {e}", baseline.display()))?;
    match compare(snap, &base) {
        (_, true) => Ok(()),
        (verdict, false) => Err(verdict),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> BTreeMap<String, Val> {
        let mut m = BTreeMap::new();
        m.insert("fig5.obs.events".into(), Val::U(100));
        m.insert("fig5.obs.bytes".into(), Val::U(9913));
        m
    }

    #[test]
    fn identical_snapshots_pass() {
        let m = base();
        let (text, ok) = compare(&m, &m);
        assert!(ok, "{text}");
        assert!(text.contains("PASS"));
    }

    #[test]
    fn deterministic_drift_fails() {
        let b = base();
        let mut c = base();
        c.insert("fig5.obs.bytes".into(), Val::U(9914));
        let (text, ok) = compare(&c, &b);
        assert!(!ok);
        assert!(text.contains("fig5.obs.bytes"), "{text}");
    }

    #[test]
    fn missing_deterministic_keys_fail_in_both_directions() {
        let b = base();
        let mut c = base();
        c.remove("fig5.obs.events");
        assert!(!compare(&c, &b).1, "baseline key missing from run");
        let mut c = base();
        c.insert("fig5.obs.spans".into(), Val::U(7));
        assert!(!compare(&c, &b).1, "new deterministic key not in baseline");
        // A baseline file that is not there fails the gate: no pass by
        // absence.
        let nowhere = Path::new("no-such-dir/BENCH_perf_baseline.json");
        let err = gate(&b, nowhere).unwrap_err();
        assert!(err.contains("no baseline at"), "{err}");
    }

    #[test]
    fn render_parse_roundtrip_is_lossless() {
        let mut m = base();
        m.insert(
            "tool".into(),
            Val::S("cargo test -p bench --test perf_snapshot".into()),
        );
        let text = render(&m);
        let back = parse(&text).unwrap();
        assert_eq!(m, back);
        // And the rendering itself is stable.
        assert_eq!(text, render(&back));
    }
}
