//! The performance view over a trace's `metrics.window` records.
//!
//! [`render`] turns one trace into the KPI time-series view: per-series
//! window tables aligned with the switch/quiesce decisions that happened
//! between them, plus the instrumentation self-overhead audit from the
//! trailing `obs.overhead` records.
//!
//! Like every view in this crate, it is a pure function of the input
//! bytes: same trace, same output.

use crate::{banner, elide, Record, Trace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// How many windows a view lists per series before eliding the rest.
pub(crate) const WINDOW_LIMIT: usize = 16;

/// One parsed `metrics.window` record.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPoint {
    /// 0-based window index.
    pub window: u64,
    /// Sample tick at flush time.
    pub tick: u64,
    /// Samples aggregated into this window.
    pub n: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Smallest sample value.
    pub min: f64,
    /// Largest sample value.
    pub max: f64,
    /// Last sample value.
    pub last: f64,
}

impl WindowPoint {
    /// The `(series, point)` of a `metrics.window` record; `None` for any
    /// other record, or one without a series name and window index.
    pub(crate) fn of(r: &Record) -> Option<(String, WindowPoint)> {
        if r.kind != "metrics.window" {
            return None;
        }
        Some((
            r.str("series")?.to_string(),
            WindowPoint {
                window: r.u64("window")?,
                tick: r.u64("tick").unwrap_or(0),
                n: r.u64("n").unwrap_or(0),
                mean: r.f64("mean").unwrap_or(0.0),
                min: r.f64("min").unwrap_or(0.0),
                max: r.f64("max").unwrap_or(0.0),
                last: r.f64("last").unwrap_or(0.0),
            },
        ))
    }
}

/// One series folded over all its windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesAgg {
    /// Windows flushed.
    pub windows: usize,
    /// Samples over all windows (`Σ n`).
    pub samples: u64,
    /// Sample-weighted mean over all windows (`Σ mean·n / Σ n`, 0 when
    /// the series holds no sample).
    pub mean: f64,
}

impl SeriesAgg {
    /// Fold the windows of one series.
    pub fn of(points: &[WindowPoint]) -> SeriesAgg {
        let samples: u64 = points.iter().map(|p| p.n).sum();
        let sum: f64 = points.iter().map(|p| p.mean * p.n as f64).sum();
        SeriesAgg {
            windows: points.len(),
            samples,
            mean: if samples == 0 {
                0.0
            } else {
                sum / samples as f64
            },
        }
    }
}

/// Which window of the run a record falls in: the index of the window
/// still accumulating when the record was emitted, i.e. one past the last
/// window flushed before it.
fn window_at(closes: &[(u64, u64)], seq: u64) -> u64 {
    closes
        .iter()
        .filter(|(close_seq, _)| *close_seq < seq)
        .map(|(_, w)| w + 1)
        .max()
        .unwrap_or(0)
}

fn fmt_val(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if !(1e-3..1e6).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Render the performance view of one trace.
pub fn render(trace: &Trace) -> String {
    let mut out = banner("perf", trace.complete);

    let by_series = trace.windows();
    if by_series.is_empty() {
        out.push_str("no metrics.window records (no KPI sample points ticked during the run)\n");
    }
    // Virtual-time series get their own compact table below instead of a
    // per-window listing (each holds a single deterministic sample, so
    // dozens of one-window listings would drown the view).
    let (vtime, general): (Vec<_>, Vec<_>) = by_series
        .iter()
        .partition(|(name, _)| name.starts_with("vtime."));
    for (series, points) in general {
        let agg = SeriesAgg::of(points);
        let lo = points.iter().map(|p| p.min).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.max).fold(-f64::INFINITY, f64::max);
        let [mean, lo, hi] = [agg.mean, lo, hi].map(fmt_val);
        let _ = writeln!(
            out,
            "series {series}: {} windows, {} samples, mean={mean} min={lo} max={hi}",
            agg.windows, agg.samples
        );
        for p in points.iter().take(WINDOW_LIMIT) {
            let [mean, min, max, last] = [p.mean, p.min, p.max, p.last].map(fmt_val);
            let _ = writeln!(
                out,
                "  w{:<3} tick={:<5} n={:<5} mean={mean} min={min} max={max} last={last}",
                p.window, p.tick, p.n
            );
        }
        elide(&mut out, points.len(), WINDOW_LIMIT, "windows");
    }
    if !vtime.is_empty() {
        vtime_section(&mut out, &vtime);
    }

    // Phase alignment: where the adaptation decisions landed relative to
    // the window stream.
    let closes: Vec<(u64, u64)> = trace
        .of_kind("metrics.window")
        .filter_map(|r| Some((r.seq?, r.u64("window")?)))
        .collect();
    let mut phase_lines: Vec<(u64, String)> = Vec::new();
    for r in &trace.records {
        let name = r.str("name").unwrap_or("");
        let what = match r.kind.as_str() {
            "config.switch" => format!(
                "switch {} -> {}",
                r.str("from").unwrap_or("?"),
                r.str("to").unwrap_or("?")
            ),
            "span.begin" if name == "switch" || name.starts_with("quiesce") => {
                format!("span {name} opens")
            }
            _ => continue,
        };
        let Some(seq) = r.seq else { continue };
        let window = window_at(&closes, seq);
        phase_lines.push((
            seq,
            format!("  seq {seq:<6} during window {window:<3} {what}"),
        ));
    }
    if !phase_lines.is_empty() {
        phase_lines.sort();
        let _ = writeln!(out, "phase alignment (decisions vs windows):");
        for (_, line) in phase_lines {
            let _ = writeln!(out, "{line}");
        }
    }

    // Self-overhead audit from the trailing obs.overhead records.
    let audits: Vec<&Record> = trace.of_kind("obs.overhead").collect();
    if audits.is_empty() {
        out.push_str("no obs.overhead records (capture trace): overhead audit unavailable\n");
    } else {
        let _ = writeln!(out, "obs.overhead audit:");
        for r in &audits {
            let sub = r.str("subsystem").unwrap_or("?");
            let [events, bytes, spans, windows] =
                ["events", "bytes", "spans", "windows"].map(|key| r.u64(key).unwrap_or(0));
            if sub == "total" {
                let _ = writeln!(
                    out,
                    "  total: {events} records, {bytes} bytes, {spans} spans, {windows} windows"
                );
            } else {
                let _ = writeln!(out, "  {sub:<28} events={events:<8} bytes={bytes}");
            }
        }
    }
    out
}

/// The virtual-time scalability table: `vtime.<machine>.<backend>.t<N>.
/// <metric>` series become one row per (machine, backend, metric) with
/// numerically sorted thread columns; switch/resize latencies (and any
/// other non-curve `vtime.*` series) render as single lines. Values are
/// exact integers on a simulated clock, so they print without decimals.
fn vtime_section(out: &mut String, vtime: &[(&String, &Vec<WindowPoint>)]) {
    let _ = writeln!(out, "vtime scalability (virtual ns, host-independent):");
    let mut curves: BTreeMap<_, Vec<(u64, f64)>> = BTreeMap::new();
    let mut singles: Vec<(&str, f64)> = Vec::new();
    for (name, points) in vtime {
        let v = points.last().map(|p| p.last).unwrap_or(0.0);
        let parts: Vec<&str> = name.split('.').collect();
        let threads = |t: &str| t.strip_prefix('t')?.parse::<u64>().ok();
        let curve = match parts[..] {
            [_, machine, backend, t, metric] => threads(t).map(|n| ((machine, backend, metric), n)),
            _ => None,
        };
        match curve {
            Some((key, n)) => curves.entry(key).or_default().push((n, v)),
            None => singles.push((name, v)),
        }
    }
    for ((machine, backend, metric), mut pts) in curves {
        pts.sort_by_key(|&(n, _)| n);
        let cells: Vec<String> = pts.iter().map(|(n, v)| format!("t{n}={v:.0}")).collect();
        let _ = writeln!(
            out,
            "  {machine} {backend:<7} {metric:<11} {}",
            cells.join(" ")
        );
    }
    for (name, v) in singles {
        let _ = writeln!(out, "  {name} = {v:.0}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(body: &str) -> Trace {
        crate::tests::trace_of(&[body])
    }

    fn window_line(seq: u64, series: &str, window: u64, mean: f64) -> String {
        format!(
            "{{\"seq\":{seq},\"kind\":\"metrics.window\",\"series\":\"{series}\",\
             \"window\":{window},\"tick\":{},\"n\":4,\"mean\":{mean},\"min\":{mean},\
             \"max\":{mean},\"last\":{mean}}}\n",
            (window + 1) * 8
        )
    }

    #[test]
    fn perf_renders_series_phases_and_overhead() {
        let body = format!(
            "{}{}{}{}",
            window_line(0, "kpi.abort_rate", 0, 0.25),
            "{\"seq\":1,\"kind\":\"config.switch\",\"from\":\"TL2:8t\",\"to\":\"NOrec:4t\"}\n",
            window_line(2, "kpi.abort_rate", 1, 0.1),
            "{\"seq\":3,\"kind\":\"obs.overhead\",\"subsystem\":\"kpi\",\"events\":2,\"bytes\":300}\n\
             {\"seq\":4,\"kind\":\"obs.overhead\",\"subsystem\":\"total\",\"events\":3,\
             \"bytes\":450,\"spans\":0,\"windows\":2,\"histogram_updates\":5}\n",
        );
        let text = render(&trace_of(&body));
        assert!(
            text.contains("series kpi.abort_rate: 2 windows, 8 samples"),
            "{text}"
        );
        assert!(text.contains("w0"));
        assert!(
            text.contains("during window 1   switch TL2:8t -> NOrec:4t"),
            "{text}"
        );
        assert!(text.contains("obs.overhead audit:"));
        assert!(text.contains("total: 3 records, 450 bytes"));
        // Pure function: same trace, same bytes.
        assert_eq!(text, render(&trace_of(&body)));
    }

    #[test]
    fn perf_renders_vtime_series_as_a_scalability_table() {
        let body = format!(
            "{}{}{}{}{}",
            window_line(0, "vtime.machine-a.tl2.t1.tx_per_sec", 0, 659050.0),
            window_line(1, "vtime.machine-a.tl2.t8.tx_per_sec", 1, 2863022.0),
            window_line(2, "vtime.machine-a.tl2.t16.tx_per_sec", 2, 3000000.0),
            window_line(3, "vtime.machine-a.switch.latency_ns", 3, 7158.0),
            window_line(4, "kpi.abort_rate", 4, 0.25),
        );
        let text = render(&trace_of(&body));
        // Curve series collapse into one row with numerically sorted
        // thread columns (t8 before t16, not lexicographic) ...
        assert!(
            text.contains("machine-a tl2     tx_per_sec  t1=659050 t8=2863022 t16=3000000"),
            "{text}"
        );
        // ... non-curve vtime series print as single exact lines ...
        assert!(
            text.contains("vtime.machine-a.switch.latency_ns = 7158"),
            "{text}"
        );
        // ... and they are excluded from the generic window listing,
        // which still covers everything else.
        assert!(!text.contains("series vtime."), "{text}");
        assert!(text.contains("series kpi.abort_rate"), "{text}");
        assert_eq!(text, render(&trace_of(&body)));
    }

    #[test]
    fn perf_on_windowless_trace_degrades_gracefully() {
        let text = render(&trace_of(
            "{\"seq\":0,\"kind\":\"config.switch\",\"to\":\"b\"}\n",
        ));
        assert!(text.contains("no metrics.window records"));
        assert!(text.contains("overhead audit unavailable"));
    }
}
