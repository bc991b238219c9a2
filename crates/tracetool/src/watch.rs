//! `proteus-trace watch` — follow-mode dashboard over a growing JSONL
//! trace.
//!
//! The [`Watcher`] hands the bytes it is fed to the crate's one
//! [`TraceReader`] and folds the records that come back into frames. The
//! reader buffers partial lines, so the frame stream is a function of the
//! byte *sequence* alone — feeding a trace in one chunk, per byte, or in
//! any other split yields identical frames (pinned by tests), which is
//! what makes `watch` output byte-comparable across `--jobs` values
//! exactly like the trace itself.
//!
//! A *frame* covers one flight-recorder window: the `metrics.window`
//! records that closed it, the `slo.state` evaluations riding behind them
//! (schema v4), the set of alerts active after the window, and any
//! markers (RecTM `config.switch` / `gate.resize`, fault and recovery
//! events) seen since the previous frame. A frame is sealed by the first
//! record of the *next* window — or by the `obs.overhead` total trailer,
//! which also marks the trace as complete ([`Watcher::done`]).
//!
//! A sealed frame (`Frame`) is rendered one of two ways: a plain-text
//! dashboard (KPI sparklines, SLO gauges, active alerts) or, with `--json`,
//! one JSON object per frame with the same information.

use crate::json::{JsonValue, Writer};
use crate::{Record, TraceError, TraceReader};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// How many window means the per-series sparkline ring retains.
const SPARK_CAPACITY: usize = 32;

/// Sparkline glyphs, lowest to highest.
const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Output mode of a [`Watcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Mode {
    /// Human dashboard frames.
    #[default]
    Plain,
    /// One JSON object per frame (`--json`).
    Json,
}

/// Latest SLO evaluation of one objective, as displayed.
#[derive(Debug, Clone)]
struct SloRow {
    slo: String,
    state: String,
    ok: bool,
    /// Value token as the trace spells it.
    value: String,
    burn_fast_pm: u64,
    burn_slow_pm: u64,
}

/// One series row of a frame.
#[derive(Debug, Clone)]
struct SeriesRow {
    name: String,
    /// Mean token as the trace spells it.
    mean: String,
    n: u64,
    /// Recent window means of the series as of the frame's seal.
    spark: String,
}

/// One dashboard frame: what both render modes format.
#[derive(Debug, Clone, Default)]
struct Frame {
    /// 1-based frame number (set when the frame seals).
    number: u64,
    window: u64,
    tick: u64,
    series: Vec<SeriesRow>,
    slo: Vec<SloRow>,
    /// Alerts firing after this window: SLO name → window of the fire.
    alerts: BTreeMap<String, u64>,
    /// Markers seen since the previous frame.
    markers: Vec<String>,
}

/// Incremental follow-mode renderer. Feed it trace bytes as they arrive;
/// it returns rendered frames as windows seal.
#[derive(Debug, Default)]
pub struct Watcher {
    mode: Mode,
    reader: TraceReader,
    frames_sealed: u64,
    open: Option<Frame>,
    /// Ring of recent window means per series, for the sparklines.
    sparks: BTreeMap<String, VecDeque<f64>>,
    /// Alerts currently firing: SLO name → window of the `alert.fire`.
    active: BTreeMap<String, u64>,
    /// Markers seen since the last sealed frame.
    markers: Vec<String>,
}

/// Whether a record kind is surfaced as a dashboard marker.
fn is_marker(kind: &str) -> bool {
    let families = ["fault.", "recovery.", "drill."];
    matches!(kind, "config.switch" | "gate.resize") || families.iter().any(|f| kind.starts_with(f))
}

/// Render `values` (oldest first) as a sparkline scaled to its own range.
fn sparkline(values: &VecDeque<f64>) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                SPARK_GLYPHS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                let idx = (t * (SPARK_GLYPHS.len() as f64 - 1.0)).round() as usize;
                SPARK_GLYPHS[idx.min(SPARK_GLYPHS.len() - 1)]
            }
        })
        .collect()
}

impl Watcher {
    /// A fresh watcher in the given output mode.
    pub fn new(mode: Mode) -> Watcher {
        Watcher {
            mode,
            ..Watcher::default()
        }
    }

    /// Whether the end-of-trace trailer (`obs.overhead` with
    /// `subsystem:"total"`) has been seen — the stream is complete.
    pub fn done(&self) -> bool {
        self.reader.done()
    }

    /// Feed the next chunk of trace bytes; returns the frames sealed by
    /// it. Any chunking of the same byte stream yields the same
    /// concatenated frame sequence.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<String>, TraceError> {
        let mut frames = Vec::new();
        for record in self.reader.feed(chunk)? {
            self.record(&record, &mut frames);
        }
        Ok(frames)
    }

    /// Flush: seal the still-open frame, if any (call when the stream has
    /// ended — on `done()`, timeout, or EOF of a complete file). A last
    /// line without its terminator is not parsed: the writer may yet be
    /// in the middle of it.
    pub fn finish(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        self.seal(&mut frames);
        frames
    }

    fn record(&mut self, r: &Record, frames: &mut Vec<String>) {
        let u64_of = |key: &str| r.u64(key).unwrap_or(0);
        let str_of = |key: &str| r.str(key).unwrap_or("").to_string();
        let token_of = |key: &str| r.get(key).map(|v| v.display()).unwrap_or_default();
        match r.kind.as_str() {
            "metrics.window" => {
                let window = u64_of("window");
                if self.open.as_ref().map(|f| f.window) != Some(window) {
                    self.seal(frames);
                    self.open = Some(Frame {
                        window,
                        tick: u64_of("tick"),
                        ..Frame::default()
                    });
                }
                let name = str_of("series");
                if let Some(mean) = r.f64("mean") {
                    let ring = self.sparks.entry(name.clone()).or_default();
                    ring.push_back(mean);
                    if ring.len() > SPARK_CAPACITY {
                        ring.pop_front();
                    }
                }
                if let Some(open) = self.open.as_mut() {
                    open.series.push(SeriesRow {
                        name,
                        mean: token_of("mean"),
                        n: u64_of("n"),
                        spark: String::new(),
                    });
                }
            }
            "slo.state" => {
                if let Some(open) = self.open.as_mut() {
                    open.slo.push(SloRow {
                        slo: str_of("slo"),
                        state: str_of("state"),
                        ok: r.get("ok") == Some(&JsonValue::Bool(true)),
                        value: token_of("value"),
                        burn_fast_pm: u64_of("burn_fast_pm"),
                        burn_slow_pm: u64_of("burn_slow_pm"),
                    });
                }
            }
            "alert.fire" => {
                let slo = str_of("slo");
                self.markers.push(format!("alert.fire slo={slo}"));
                self.active.insert(slo, u64_of("window"));
            }
            "alert.resolve" => {
                let (slo, windows) = (str_of("slo"), u64_of("firing_windows"));
                self.active.remove(&slo);
                self.markers
                    .push(format!("alert.resolve slo={slo} firing_windows={windows}"));
            }
            _ if r.is_trailer() => self.seal(frames),
            kind if is_marker(kind) && r.fields.is_empty() => self.markers.push(kind.to_string()),
            kind if is_marker(kind) => self.markers.push(format!("{kind} {}", r.summary())),
            _ => {}
        }
    }

    fn seal(&mut self, frames: &mut Vec<String>) {
        let Some(mut frame) = self.open.take() else {
            return;
        };
        self.frames_sealed += 1;
        frame.number = self.frames_sealed;
        for row in &mut frame.series {
            let ring = self.sparks.get(&row.name);
            row.spark = ring.map(sparkline).unwrap_or_default();
        }
        frame.alerts = self.active.clone();
        frame.markers = std::mem::take(&mut self.markers);
        frames.push(match self.mode {
            Mode::Plain => plain(&frame),
            Mode::Json => json(&frame),
        });
    }
}

fn plain(f: &Frame) -> String {
    let mut out = format!("frame {}  window {}  tick {}\n", f.number, f.window, f.tick);
    for r in &f.series {
        let _ = writeln!(
            out,
            "  {:<28} n={:<4} mean={:<12} {}",
            r.name, r.n, r.mean, r.spark
        );
    }
    for s in &f.slo {
        let ok = if s.ok { "ok " } else { "VIOL" };
        let burn = format!("{}/{}pm", s.burn_fast_pm, s.burn_slow_pm);
        let _ = writeln!(
            out,
            "  slo {:<24} {:<8} {ok} burn={burn} value={}",
            s.slo, s.state, s.value
        );
    }
    if !f.alerts.is_empty() {
        let since = |(name, win)| format!("{name} (since window {win})");
        let list: Vec<String> = f.alerts.iter().map(since).collect();
        let _ = writeln!(out, "  alerts: {}", list.join(", "));
    }
    for m in &f.markers {
        let _ = writeln!(out, "  marker: {m}");
    }
    out + "\n"
}

fn json(f: &Frame) -> String {
    let mut w = Writer::default();
    w.open('{').key("frame").raw(f.number);
    w.key("window").raw(f.window);
    w.key("tick").raw(f.tick).key("series").open('[');
    for row in &f.series {
        w.open('{').key("name").str(&row.name).key("n").raw(row.n);
        w.key("mean").raw(&row.mean).key("spark").str(&row.spark);
        w.close('}');
    }
    w.close(']').key("slo").open('[');
    for s in &f.slo {
        w.open('{').key("slo").str(&s.slo);
        w.key("state").str(&s.state).key("ok").raw(s.ok);
        w.key("value").raw(&s.value);
        w.key("burn_fast_pm").raw(s.burn_fast_pm);
        w.key("burn_slow_pm").raw(s.burn_slow_pm).close('}');
    }
    w.close(']').key("alerts").open('[');
    for (name, win) in &f.alerts {
        w.open('{').key("slo").str(name);
        w.key("since_window").raw(win).close('}');
    }
    w.close(']').key("markers").open('[');
    for m in &f.markers {
        w.str(m);
    }
    w.close(']').close('}');
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> String {
        let mut t = format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
            obs::SCHEMA_VERSION
        );
        t.push_str("{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"a\",\"to\":\"b\"}\n");
        for w in 0..3u64 {
            let tick = (w + 1) * 8;
            t.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"metrics.window\",\"series\":\"kpi.x\",\
                 \"window\":{w},\"tick\":{tick},\"n\":8,\"mean\":{},\"min\":0,\"max\":1,\
                 \"last\":1}}\n",
                w * 3 + 1,
                w as f64 * 0.25
            ));
            t.push_str(&format!(
                "{{\"seq\":{},\"kind\":\"slo.state\",\"slo\":\"demo\",\"series\":\"kpi.x\",\
                 \"window\":{w},\"tick\":{tick},\"value\":{},\"ok\":{},\
                 \"burn_fast_pm\":{},\"burn_slow_pm\":{},\"state\":\"{}\"}}\n",
                w * 3 + 2,
                w as f64 * 0.25,
                w == 0,
                if w == 0 { 0 } else { 500 },
                if w == 0 { 0 } else { 250 },
                if w == 0 { "inactive" } else { "firing" }
            ));
            if w == 1 {
                t.push_str(&format!(
                    "{{\"seq\":{},\"kind\":\"alert.fire\",\"slo\":\"demo\",\"window\":1,\
                     \"tick\":16,\"value\":0.25,\"burn_fast_pm\":500,\"burn_slow_pm\":250}}\n",
                    w * 3 + 3
                ));
            }
        }
        t.push_str(
            "{\"seq\":10,\"kind\":\"obs.overhead\",\"subsystem\":\"total\",\"events\":10,\
             \"bytes\":100}\n",
        );
        t
    }

    #[test]
    fn frames_are_chunking_invariant() {
        let trace = demo_trace();
        let whole = {
            let mut w = Watcher::new(Mode::Plain);
            let mut frames = w.feed(trace.as_bytes()).unwrap();
            frames.extend(w.finish());
            assert!(w.done());
            frames.concat()
        };
        for chunk in [1usize, 3, 7, 64] {
            let mut w = Watcher::new(Mode::Plain);
            let mut frames = Vec::new();
            for piece in trace.as_bytes().chunks(chunk) {
                frames.extend(w.feed(piece).unwrap());
            }
            frames.extend(w.finish());
            assert_eq!(frames.concat(), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn plain_frames_carry_series_slo_alerts_and_markers() {
        let mut w = Watcher::new(Mode::Plain);
        let mut frames = w.feed(demo_trace().as_bytes()).unwrap();
        frames.extend(w.finish());
        assert_eq!(frames.len(), 3, "{frames:?}");
        assert!(frames[0].starts_with("frame 1  window 0  tick 8\n"));
        assert!(frames[0].contains("kpi.x"));
        assert!(frames[0].contains("slo demo"));
        assert!(frames[0].contains("inactive"));
        // The config.switch marker precedes the first window: frame 1.
        assert!(frames[0].contains("marker: config.switch from=a to=b"));
        // The fire rides in window 1's frame: alert list + marker.
        assert!(frames[1].contains("alerts: demo (since window 1)"));
        assert!(frames[1].contains("marker: alert.fire slo=demo"));
        assert!(frames[2].contains("alerts: demo"));
    }

    #[test]
    fn json_twin_mirrors_the_plain_frames() {
        let mut w = Watcher::new(Mode::Json);
        let mut frames = w.feed(demo_trace().as_bytes()).unwrap();
        frames.extend(w.finish());
        assert_eq!(frames.len(), 3);
        assert!(frames[0].starts_with("{\"frame\":1,\"window\":0,\"tick\":8,"));
        assert!(frames[0].contains("\"name\":\"kpi.x\""));
        assert!(frames[0].contains("\"slo\":\"demo\""));
        assert!(frames[1].contains("\"alerts\":[{\"slo\":\"demo\",\"since_window\":1}]"));
        assert!(frames[1].contains("\"markers\":[\"alert.fire slo=demo\"]"));
        for f in &frames {
            // One closed object per line (the trace-dialect parser is
            // flat-only, so balance-check the braces instead).
            assert!(f.starts_with('{') && f.ends_with("]}\n"));
            assert!(!f.trim_end().contains('\n'), "one frame, one line: {f}");
            let opens = f.matches(['{', '[']).count();
            let closes = f.matches(['}', ']']).count();
            assert_eq!(opens, closes, "unbalanced frame: {f}");
        }
    }

    #[test]
    fn header_contract_is_enforced() {
        let mut w = Watcher::new(Mode::Plain);
        assert!(matches!(
            w.feed(b"{\"seq\":0,\"kind\":\"config.switch\"}\n"),
            Err(TraceError::MissingHeader { .. })
        ));
        let mut w = Watcher::new(Mode::Plain);
        assert!(matches!(
            w.feed(b"{\"kind\":\"trace.meta\",\"schema\":99}\n"),
            Err(TraceError::UnsupportedSchema { found: 99 })
        ));
        let mut w = Watcher::new(Mode::Plain);
        assert!(matches!(
            w.feed(b"{\"kind\":\"trace.meta\",\"schema\":3}\n"),
            Err(TraceError::UnsupportedSchema { found: 3 })
        ));
    }

    #[test]
    fn a_record_without_a_kind_is_malformed_here_too() {
        let mut w = Watcher::new(Mode::Plain);
        let header = format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
            obs::SCHEMA_VERSION
        );
        assert!(w.feed(header.as_bytes()).unwrap().is_empty());
        assert!(matches!(
            w.feed(b"{\"seq\":0,\"series\":\"kpi.x\"}\n"),
            Err(TraceError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn sparkline_scales_to_its_own_range() {
        let flat: VecDeque<f64> = [1.0, 1.0, 1.0].into_iter().collect();
        assert_eq!(sparkline(&flat), "▄▄▄");
        let ramp: VecDeque<f64> = [0.0, 0.5, 1.0].into_iter().collect();
        assert_eq!(sparkline(&ramp), "▁▅█");
    }
}
