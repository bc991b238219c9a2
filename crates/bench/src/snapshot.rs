//! `experiments bench-snapshot` — the exact regression gate.
//!
//! Runs the fig4/fig5 quick pipelines traced in memory for the
//! flight-recorder aggregates, writes a structured `BENCH_perf.json`, and
//! compares it against the checked-in baseline. Every key is
//! deterministic — byte-identical at every `--jobs` value and on every
//! host — so any drift is a real behaviour change, not noise:
//!
//! - **Counts** (trace records, spans, windows, samples) must match the
//!   baseline exactly.
//! - **Float aggregates** (per-series means, and the byte totals derived
//!   from their formatting) get a hair of relative tolerance so a
//!   different host's libm cannot trip the gate on the last bit.
//! - **Virtual-time keys** (`vtime.*` / `durable.*`, in the
//!   `BENCH_vtime.json` / `BENCH_durable.json` sections) are exact
//!   integers on a simulated clock and are gated exactly.
//!
//! No section carries wall-clock numbers or host context: wall-clock
//! performance is measured in one place, `benchmark/` (`BENCHMARK.json`).
//!
//! The snapshot file is a *flat* JSON object (dotted keys, one per line,
//! sorted) in the same dialect `tracetool::json::parse_object` reads, so
//! the gate needs no external JSON parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

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

/// Arguments of the `bench-snapshot` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotArgs {
    /// `--out PATH`: where to write the snapshot (default `BENCH_perf.json`).
    pub out: PathBuf,
    /// `--baseline PATH`: the checked-in reference
    /// (default `BENCH_perf_baseline.json`).
    pub baseline: PathBuf,
    /// `--update-baseline`: also write the snapshot to the baseline path
    /// (and pass the gate trivially).
    pub update_baseline: bool,
}

impl Default for SnapshotArgs {
    fn default() -> Self {
        SnapshotArgs {
            out: PathBuf::from("BENCH_perf.json"),
            baseline: PathBuf::from("BENCH_perf_baseline.json"),
            update_baseline: false,
        }
    }
}

impl SnapshotArgs {
    /// Parse the subcommand's extra flags (everything the shared
    /// [`crate::opts::Options`] parser left in `targets` after
    /// `bench-snapshot` itself, plus unknown `--flags` re-scanned here).
    pub fn parse(args: &[String]) -> Result<SnapshotArgs, String> {
        let mut out = SnapshotArgs::default();
        let mut iter = args.iter();
        while let Some(a) = iter.next() {
            let (name, inline) = match a.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (a.as_str(), None),
            };
            let mut value = || {
                inline
                    .or_else(|| iter.next().map(String::as_str))
                    .ok_or_else(|| format!("{name} expects a value"))
            };
            match name {
                "--out" => out.out = PathBuf::from(value()?),
                "--baseline" => out.baseline = PathBuf::from(value()?),
                "--update-baseline" if inline.is_none() => out.update_baseline = true,
                _ => return Err(format!("bench-snapshot: unknown argument {a:?}")),
            }
        }
        Ok(out)
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
    snap.insert("tool".into(), Val::S("experiments bench-snapshot".into()));
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
    // Virtual-time keys first: every `vtime.*` / `durable.*` value is an
    // exact integer on a simulated clock, identical on every host by
    // construction — no float tolerance even for suffixes like `.mean`
    // that soften the trace section.
    if key.starts_with("vtime.") || key.starts_with("durable.") {
        KeyClass::Exact
    } else if key.ends_with(".mean") || key.ends_with(".bytes") {
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

/// Compare a freshly collected section against its checked-in baseline
/// file; one that cannot be read fails the gate.
fn gate_against_baseline(snap: &BTreeMap<String, Val>, baseline: &PathBuf) -> Result<bool, String> {
    let baseline_text = match std::fs::read_to_string(baseline) {
        Ok(t) => t,
        Err(e) => {
            println!(
                "  FAIL  {}: no baseline ({e}; record one with --update-baseline)",
                baseline.display()
            );
            println!("perf gate: FAIL (nothing to compare against)");
            return Ok(false);
        }
    };
    let base = parse(&baseline_text)
        .map_err(|e| format!("invalid baseline {}: {e}", baseline.display()))?;
    let (verdict, ok) = compare(snap, &base);
    print!("{verdict}");
    Ok(ok)
}

/// Run the whole subcommand. Returns `true` when every gate passed.
///
/// Besides the fig4/fig5 trace snapshot at `--out`, two more sections are
/// written next to it, each with its baseline next to `--baseline`: the
/// virtual-time scalability report ([`crate::vtime`], `BENCH_vtime.json`)
/// and the durability-tax report ([`crate::durable`],
/// `BENCH_durable.json`). Their values live on a simulated clock — log
/// traffic, fsync counts and the crash-recovery drill are modeled
/// integers — so every key is gated byte-for-byte.
pub fn run(args: &SnapshotArgs) -> Result<bool, String> {
    println!("== bench-snapshot: fig4/fig5 quick pipelines, traced ==");
    let snap = collect()?;
    let text = render(&snap);
    std::fs::write(&args.out, &text)
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
    println!("snapshot written to {}", args.out.display());

    println!("== bench-snapshot: virtual-time scalability (exact cross-host) ==");
    let vsnap = crate::vtime::collect();
    let vtext = render(&vsnap);
    let vout = args.out.with_file_name("BENCH_vtime.json");
    let vbaseline = args.baseline.with_file_name("BENCH_vtime_baseline.json");
    std::fs::write(&vout, &vtext).map_err(|e| format!("cannot write {}: {e}", vout.display()))?;
    println!("vtime snapshot written to {}", vout.display());

    println!("== bench-snapshot: durability tax + crash-recovery drill (exact cross-host) ==");
    let dsnap = crate::durable::collect();
    let dtext = render(&dsnap);
    let dout = args.out.with_file_name("BENCH_durable.json");
    let dbaseline = args.baseline.with_file_name("BENCH_durable_baseline.json");
    std::fs::write(&dout, &dtext).map_err(|e| format!("cannot write {}: {e}", dout.display()))?;
    println!("durable snapshot written to {}", dout.display());

    if args.update_baseline {
        std::fs::write(&args.baseline, &text)
            .map_err(|e| format!("cannot write {}: {e}", args.baseline.display()))?;
        println!("baseline updated at {}", args.baseline.display());
        std::fs::write(&vbaseline, &vtext)
            .map_err(|e| format!("cannot write {}: {e}", vbaseline.display()))?;
        println!("vtime baseline updated at {}", vbaseline.display());
        std::fs::write(&dbaseline, &dtext)
            .map_err(|e| format!("cannot write {}: {e}", dbaseline.display()))?;
        println!("durable baseline updated at {}", dbaseline.display());
        return Ok(true);
    }
    let ok = gate_against_baseline(&snap, &args.baseline)?;
    let v_ok = gate_against_baseline(&vsnap, &vbaseline)?;
    let d_ok = gate_against_baseline(&dsnap, &dbaseline)?;
    Ok(ok && v_ok && d_ok)
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
        // A baseline file that is not there fails every key at once.
        let nowhere = PathBuf::from("no-such-dir/BENCH_perf_baseline.json");
        assert_eq!(gate_against_baseline(&b, &nowhere), Ok(false));
    }

    #[test]
    fn vtime_keys_always_classify_exact() {
        // Even suffixes that soften the trace section (`.mean`, `.bytes`)
        // stay exact under the vtime prefix.
        for key in [
            "vtime.machine-a.tl2.t8.tx_per_sec",
            "vtime.machine-b.switch.latency_ns",
            "vtime.machine-a.htm.t4.mean",
            "vtime.machine-a.htm.t4.bytes",
            "vtime.seed",
        ] {
            assert_eq!(classify(key), KeyClass::Exact, "{key}");
        }
    }

    #[test]
    fn durable_keys_always_classify_exact() {
        for key in [
            "durable.machine-a.strict.t8.tx_per_sec",
            "durable.machine-b.drill.recovery_ns",
            "durable.machine-a.buffered.t4.mean",
            "durable.machine-a.buffered.t4.bytes",
            "durable.seed",
        ] {
            assert_eq!(classify(key), KeyClass::Exact, "{key}");
        }
    }

    #[test]
    fn render_parse_roundtrip_is_lossless() {
        let mut m = base();
        m.insert("tool".into(), Val::S("experiments bench-snapshot".into()));
        let text = render(&m);
        let back = parse(&text).unwrap();
        assert_eq!(m, back);
        // And the rendering itself is stable.
        assert_eq!(text, render(&back));
    }

    #[test]
    fn snapshot_args_parse_both_spellings() {
        let a = SnapshotArgs::parse(&["--out".into(), "x.json".into(), "--baseline=y.json".into()])
            .unwrap();
        assert_eq!(a.out, PathBuf::from("x.json"));
        assert_eq!(a.baseline, PathBuf::from("y.json"));
        assert!(!a.update_baseline);
        let b = SnapshotArgs::parse(&["--out=x.json".into(), "--baseline".into(), "y.json".into()]);
        assert_eq!(b, Ok(a), "`--x V` and `--x=V` parse alike");
        assert!(SnapshotArgs::parse(&["--noise".into(), "0.2".into()])
            .unwrap_err()
            .contains("unknown argument"));
    }
}
