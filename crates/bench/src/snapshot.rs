//! The fig4/fig5 trace snapshot and its exact regression gate.
//!
//! Runs the fig4/fig5 quick pipelines traced in memory for the
//! flight-recorder aggregates and compares the flat snapshot against the
//! checked-in `BENCH_perf_baseline.json` (the `perf_snapshot` test of this
//! crate does both; `UPDATE_GOLDEN=1` re-records the baseline). Every key
//! is deterministic — byte-identical at every `--jobs` value and on every
//! host — so any drift is a real behaviour change, not noise:
//!
//! - **Counts** (trace records, spans, windows, samples) must match the
//!   baseline exactly.
//! - **Float aggregates** (per-series means, and the byte totals derived
//!   from their formatting) get a hair of relative tolerance so a
//!   different host's libm cannot trip the gate on the last bit.
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

/// One snapshot value: the flat JSON file only ever holds numbers and
/// strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// Unsigned integer (counts, byte totals).
    U(u64),
    /// Float (means, percentages).
    F(f64),
    /// String (tool tag).
    S(String),
}

impl Val {
    /// Numeric view of the value, for gating; `None` for strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::U(v) => Some(*v as f64),
            Val::F(v) => Some(*v),
            Val::S(_) => None,
        }
    }
}

/// The benchmark stages: small fixed corpora (this is a perf smoke, not a
/// statistics run), the same sizes at every invocation so the
/// deterministic keys are comparable across commits.
fn stages() -> Vec<(&'static str, fn())> {
    vec![
        ("fig4", || crate::fig4::run_with(24)),
        ("fig5", || crate::fig5::run_with(12)),
    ]
}

/// Run the pipelines and collect the flat snapshot map.
pub fn collect() -> Result<BTreeMap<String, Val>, String> {
    let mut snap: BTreeMap<String, Val> = BTreeMap::new();
    snap.insert("schema".into(), Val::U(obs::SCHEMA_VERSION as u64));
    snap.insert(
        "tool".into(),
        Val::S("cargo test -p bench --test perf_snapshot".into()),
    );
    for (name, f) in stages() {
        obs::start_trace_memory();
        f();
        let report = obs::finish_trace();

        let bytes = report.bytes.as_deref().unwrap_or_default();
        let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: trace: {e}"))?;
        let trace = tracetool::parse_trace(text).map_err(|e| format!("{name}: {e}"))?;

        snap.insert(format!("{name}.trace.events"), Val::U(report.events));
        let oh = &report.overhead;
        snap.insert(format!("{name}.obs.events"), Val::U(oh.events));
        snap.insert(format!("{name}.obs.bytes"), Val::U(oh.bytes));
        snap.insert(format!("{name}.obs.spans"), Val::U(oh.spans));
        snap.insert(format!("{name}.obs.windows"), Val::U(oh.windows));
        for (series, points) in trace.windows() {
            let agg = tracetool::perf::SeriesAgg::of(points);
            let key = |field: &str| format!("{name}.series.{series}.{field}");
            snap.insert(key("windows"), Val::U(agg.windows as u64));
            snap.insert(key("samples"), Val::U(agg.samples));
            snap.insert(key("mean"), Val::F(agg.mean));
        }
    }
    Ok(snap)
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
            // Rust's shortest-roundtrip float formatting: deterministic,
            // and re-read losslessly by tracetool's parser. Keep a
            // fractional part so integral floats parse back as floats.
            Val::F(f) if f.is_finite() => {
                let s = format!("{f}");
                let _ = write!(out, "{s}");
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Val::F(f) => {
                let _ = write!(out, "\"{f}\"");
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
            tracetool::json::JsonValue::I64(n) => Val::F(n as f64),
            tracetool::json::JsonValue::F64(f) => Val::F(f),
            tracetool::json::JsonValue::Str(s) => Val::S(s),
            other => return Err(format!("snapshot key {k:?}: unexpected value {other:?}")),
        };
        out.insert(k, val);
    }
    Ok(out)
}

/// How a key is gated against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyClass {
    /// Deterministic count (or tag): must match the baseline exactly.
    Exact,
    /// Deterministic float aggregate (and the byte totals derived from
    /// float formatting): a hair of relative tolerance absorbs last-bit
    /// libm differences across hosts; any real regression is orders of
    /// magnitude larger.
    NearExact,
}

const NEAR_EXACT_RTOL: f64 = 1e-6;

fn classify(key: &str) -> KeyClass {
    if key.ends_with(".mean") || key.ends_with(".bytes") {
        KeyClass::NearExact
    } else {
        KeyClass::Exact
    }
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
            (Some(cur), Some(base)) => match classify(key) {
                KeyClass::Exact => {
                    if cur != base {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "  FAIL  {key}: {cur:?} != baseline {base:?} (deterministic key)"
                        );
                    }
                }
                KeyClass::NearExact => {
                    let near = match (cur.as_f64(), base.as_f64()) {
                        (Some(c), Some(b)) => (c - b).abs() <= b.abs().max(1.0) * NEAR_EXACT_RTOL,
                        _ => cur == base,
                    };
                    if !near {
                        failures += 1;
                        let _ = writeln!(
                            out,
                            "  FAIL  {key}: {cur:?} != baseline {base:?} (deterministic \
                             aggregate, tolerance {NEAR_EXACT_RTOL:e})"
                        );
                    }
                }
            },
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
        m.insert("fig4.obs.events".into(), Val::U(100));
        m.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.25));
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
        c.insert("fig4.obs.events".into(), Val::U(101));
        let (text, ok) = compare(&c, &b);
        assert!(!ok);
        assert!(text.contains("fig4.obs.events"), "{text}");
    }

    #[test]
    fn float_aggregates_get_last_bit_tolerance_but_real_drift_fails() {
        let b = base();
        let mut c = base();
        // One ulp-ish wobble: inside the near-exact tolerance.
        c.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.25 + 1e-9));
        let (text, ok) = compare(&c, &b);
        assert!(ok, "{text}");
        // A real change in the aggregate fails.
        c.insert("fig4.series.fig4.mape.mean".into(), Val::F(0.26));
        let (text, ok) = compare(&c, &b);
        assert!(!ok);
        assert!(text.contains("fig4.series.fig4.mape.mean"), "{text}");
    }

    #[test]
    fn missing_deterministic_keys_fail_in_both_directions() {
        let b = base();
        let mut c = base();
        c.remove("fig4.obs.events");
        assert!(!compare(&c, &b).1, "baseline key missing from run");
        let mut c = base();
        c.insert("fig5.obs.events".into(), Val::U(7));
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
