//! `proteus-trace watch` — follow-mode dashboard over a growing JSONL
//! trace.
//!
//! The [`Watcher`] is a **pure incremental parser**: bytes in, rendered
//! frames out. It buffers partial lines, so the frame stream is a function
//! of the byte *sequence* alone — feeding a trace in one chunk, per byte,
//! or in any other split yields identical frames (pinned by tests), which
//! is what makes `watch` output byte-comparable across `--jobs` values
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
//! Two render modes: a plain-text dashboard (KPI sparklines, SLO gauges,
//! active alerts) and a `--json` twin emitting one JSON object per frame
//! with the same information.

use crate::json::{self, JsonValue};
use crate::TraceError;
use obs::encode_str;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// How many window means the per-series sparkline ring retains.
const SPARK_CAPACITY: usize = 32;

/// Sparkline glyphs, lowest to highest.
const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Output mode of a [`Watcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Human dashboard frames.
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
    /// Raw value token from the trace (byte-exact display).
    value: String,
    burn_fast_pm: u64,
    burn_slow_pm: u64,
}

/// One series row of the frame being accumulated.
#[derive(Debug, Clone)]
struct SeriesRow {
    name: String,
    /// Raw mean token from the trace (byte-exact display).
    mean: String,
    n: u64,
}

#[derive(Debug, Clone)]
struct FrameAccum {
    window: u64,
    tick: u64,
    series: Vec<SeriesRow>,
    slo: Vec<SloRow>,
}

/// Incremental follow-mode renderer. Feed it trace bytes as they arrive;
/// it returns rendered frames as windows seal.
#[derive(Debug)]
pub struct Watcher {
    mode: Mode,
    buf: String,
    line_no: usize,
    header_seen: bool,
    frame_no: u64,
    open: Option<FrameAccum>,
    /// Ring of recent window means per series, for the sparklines.
    sparks: BTreeMap<String, VecDeque<f64>>,
    /// Alerts currently firing: SLO name → window of the `alert.fire`.
    active: BTreeMap<String, u64>,
    /// Markers seen since the last sealed frame.
    markers: Vec<String>,
    done: bool,
}

/// Whether a record kind is surfaced as a dashboard marker.
fn is_marker(kind: &str) -> bool {
    kind == "config.switch"
        || kind == "gate.resize"
        || kind.starts_with("fault.")
        || kind.starts_with("recovery.")
        || kind.starts_with("drill.")
}

/// Render `values` (oldest first) as a sparkline scaled to its own range.
fn sparkline(values: &VecDeque<f64>) -> String {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
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
            buf: String::new(),
            line_no: 0,
            header_seen: false,
            frame_no: 0,
            open: None,
            sparks: BTreeMap::new(),
            active: BTreeMap::new(),
            markers: Vec::new(),
            done: false,
        }
    }

    /// Whether the end-of-trace trailer (`obs.overhead` with
    /// `subsystem:"total"`) has been seen — the stream is complete.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Feed the next chunk of trace bytes; returns the frames sealed by
    /// it. Partial trailing lines are buffered, so any chunking of the
    /// same byte stream yields the same concatenated frame sequence.
    pub fn feed(&mut self, chunk: &str) -> Result<Vec<String>, TraceError> {
        self.buf.push_str(chunk);
        let mut frames = Vec::new();
        while let Some(pos) = self.buf.find('\n') {
            let line: String = self.buf[..pos].to_string();
            self.buf.drain(..=pos);
            self.line_no += 1;
            let line = line.trim_end_matches('\r').trim();
            if line.is_empty() {
                continue;
            }
            self.line(line.strip_prefix('\u{feff}').unwrap_or(line), &mut frames)?;
        }
        Ok(frames)
    }

    /// Flush: seal the still-open frame, if any (call when the stream has
    /// ended — on `done()`, timeout, or EOF of a complete file).
    pub fn finish(&mut self) -> Vec<String> {
        let mut frames = Vec::new();
        self.seal(&mut frames);
        frames
    }

    fn line(&mut self, line: &str, frames: &mut Vec<String>) -> Result<(), TraceError> {
        if !self.header_seen {
            crate::check_header(self.line_no, line)?;
            self.header_seen = true;
            return Ok(());
        }
        let fields = json::parse_object(line).map_err(|msg| TraceError::Malformed {
            line: self.line_no,
            msg,
        })?;
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let kind = field("kind").and_then(JsonValue::as_str).unwrap_or("");
        let u64_of = |key: &str| field(key).and_then(JsonValue::as_u64).unwrap_or(0);
        let str_of = |key: &str| {
            field(key)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string()
        };
        let token_of = |key: &str| field(key).map(|v| v.display()).unwrap_or_default();
        match kind {
            "metrics.window" => {
                let window = u64_of("window");
                if self.open.as_ref().map(|f| f.window) != Some(window) {
                    self.seal(frames);
                    self.open = Some(FrameAccum {
                        window,
                        tick: u64_of("tick"),
                        series: Vec::new(),
                        slo: Vec::new(),
                    });
                }
                let name = str_of("series");
                if let Some(mean) = field("mean").and_then(JsonValue::as_f64) {
                    let ring = self.sparks.entry(name.clone()).or_default();
                    ring.push_back(mean);
                    while ring.len() > SPARK_CAPACITY {
                        ring.pop_front();
                    }
                }
                if let Some(open) = self.open.as_mut() {
                    open.series.push(SeriesRow {
                        name,
                        mean: token_of("mean"),
                        n: u64_of("n"),
                    });
                }
            }
            "slo.state" => {
                if let Some(open) = self.open.as_mut() {
                    open.slo.push(SloRow {
                        slo: str_of("slo"),
                        state: str_of("state"),
                        ok: field("ok").and_then(JsonValue::as_bool).unwrap_or(false),
                        value: token_of("value"),
                        burn_fast_pm: u64_of("burn_fast_pm"),
                        burn_slow_pm: u64_of("burn_slow_pm"),
                    });
                }
            }
            "alert.fire" => {
                self.active.insert(str_of("slo"), u64_of("window"));
                self.markers
                    .push(format!("alert.fire slo={}", str_of("slo")));
            }
            "alert.resolve" => {
                self.active.remove(&str_of("slo"));
                self.markers.push(format!(
                    "alert.resolve slo={} firing_windows={}",
                    str_of("slo"),
                    u64_of("firing_windows")
                ));
            }
            "obs.overhead" if str_of("subsystem") == "total" => {
                self.seal(frames);
                self.done = true;
            }
            "obs.overhead" => {}
            "counter" | "trace.meta" => {}
            k if is_marker(k) => {
                let mut m = k.to_string();
                for (key, v) in &fields {
                    if key == "seq" || key == "kind" {
                        continue;
                    }
                    let _ = write!(m, " {key}={}", v.display());
                }
                self.markers.push(m);
            }
            _ => {}
        }
        Ok(())
    }

    fn seal(&mut self, frames: &mut Vec<String>) {
        let Some(frame) = self.open.take() else {
            return;
        };
        self.frame_no += 1;
        let markers = std::mem::take(&mut self.markers);
        let rendered = match self.mode {
            Mode::Plain => self.render_plain(&frame, &markers),
            Mode::Json => self.render_json(&frame, &markers),
        };
        frames.push(rendered);
    }

    fn render_plain(&self, frame: &FrameAccum, markers: &[String]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "frame {}  window {}  tick {}",
            self.frame_no, frame.window, frame.tick
        );
        for row in &frame.series {
            let spark = self
                .sparks
                .get(&row.name)
                .map(sparkline)
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<28} n={:<4} mean={:<12} {spark}",
                row.name, row.n, row.mean
            );
        }
        for s in &frame.slo {
            let _ = writeln!(
                out,
                "  slo {:<24} {:<8} {} burn={}/{}pm value={}",
                s.slo,
                s.state,
                if s.ok { "ok " } else { "VIOL" },
                s.burn_fast_pm,
                s.burn_slow_pm,
                s.value
            );
        }
        if !self.active.is_empty() {
            let list: Vec<String> = self
                .active
                .iter()
                .map(|(name, win)| format!("{name} (since window {win})"))
                .collect();
            let _ = writeln!(out, "  alerts: {}", list.join(", "));
        }
        for m in markers {
            let _ = writeln!(out, "  marker: {m}");
        }
        out.push('\n');
        out
    }

    fn render_json(&self, frame: &FrameAccum, markers: &[String]) -> String {
        let mut out = String::from("{\"frame\":");
        let _ = write!(out, "{}", self.frame_no);
        let _ = write!(out, ",\"window\":{},\"tick\":{}", frame.window, frame.tick);
        out.push_str(",\"series\":[");
        for (i, row) in frame.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            encode_str(&mut out, &row.name);
            let _ = write!(out, ",\"n\":{},\"mean\":{},\"spark\":", row.n, row.mean);
            let spark = self
                .sparks
                .get(&row.name)
                .map(sparkline)
                .unwrap_or_default();
            encode_str(&mut out, &spark);
            out.push('}');
        }
        out.push_str("],\"slo\":[");
        for (i, s) in frame.slo.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"slo\":");
            encode_str(&mut out, &s.slo);
            out.push_str(",\"state\":");
            encode_str(&mut out, &s.state);
            let _ = write!(
                out,
                ",\"ok\":{},\"value\":{},\"burn_fast_pm\":{},\"burn_slow_pm\":{}}}",
                s.ok, s.value, s.burn_fast_pm, s.burn_slow_pm
            );
        }
        out.push_str("],\"alerts\":[");
        for (i, (name, win)) in self.active.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"slo\":");
            encode_str(&mut out, name);
            let _ = write!(out, ",\"since_window\":{win}}}");
        }
        out.push_str("],\"markers\":[");
        for (i, m) in markers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            encode_str(&mut out, m);
        }
        out.push_str("]}\n");
        out
    }
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
            let mut frames = w.feed(&trace).unwrap();
            frames.extend(w.finish());
            assert!(w.done());
            frames.concat()
        };
        for chunk in [1usize, 3, 7, 64] {
            let mut w = Watcher::new(Mode::Plain);
            let mut frames = Vec::new();
            let bytes = trace.as_bytes();
            let mut at = 0;
            while at < bytes.len() {
                let end = (at + chunk).min(bytes.len());
                // Chunks split at char boundaries here (trace is ASCII).
                frames.extend(
                    w.feed(std::str::from_utf8(&bytes[at..end]).unwrap())
                        .unwrap(),
                );
                at = end;
            }
            frames.extend(w.finish());
            assert_eq!(frames.concat(), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn plain_frames_carry_series_slo_alerts_and_markers() {
        let mut w = Watcher::new(Mode::Plain);
        let mut frames = w.feed(&demo_trace()).unwrap();
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
        let mut frames = w.feed(&demo_trace()).unwrap();
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
            w.feed("{\"seq\":0,\"kind\":\"config.switch\"}\n"),
            Err(TraceError::MissingHeader { .. })
        ));
        let mut w = Watcher::new(Mode::Plain);
        assert!(matches!(
            w.feed("{\"kind\":\"trace.meta\",\"schema\":99}\n"),
            Err(TraceError::UnsupportedSchema { found: 99, .. })
        ));
        let mut w = Watcher::new(Mode::Plain);
        assert!(matches!(
            w.feed("{\"kind\":\"trace.meta\",\"schema\":3}\n"),
            Err(TraceError::UnsupportedSchema { found: 3, .. })
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
