//! Trace lifecycle: start/finish a JSONL trace, emit events into it.
//!
//! One trace can be active per process. Starting a trace zeroes the
//! metrics registry and the logical sequence
//! counter, so every captured stream is self-contained and starts at
//! `seq == 0` — a precondition for the byte-identity determinism tests.
//!
//! [`finish_trace`] appends a sorted dump of non-zero counters to the
//! stream; [`capture_trace`] deliberately does **not** (concurrent tests
//! in the same binary would otherwise leak their counter increments into
//! each other's captures), which is what makes it safe to compare two
//! captures byte-for-byte.

use crate::event::{Event, PendingEvent, Value};
use crate::metrics;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

enum Sink {
    File(BufWriter<File>),
    Memory(Vec<u8>),
}

struct TraceState {
    sink: Sink,
    seq: u64,
    events: u64,
    /// Next span id to hand out (ids are 1-based; 0 means "no span").
    span_next: u64,
    /// Ids of the currently open *scoped* spans, innermost last. Detached
    /// spans (see [`span_begin_detached`]) never enter this stack.
    span_stack: Vec<u64>,
    /// Self-overhead accounting: bytes written to the sink so far.
    bytes: u64,
    /// Per-subsystem (kind prefix before the first `.`) event and byte
    /// counts. Keys borrow from the `&'static` kind strings, so this costs
    /// no allocation on the emit path.
    subsystems: BTreeMap<&'static str, (u64, u64)>,
    /// `span.begin` records emitted (span count).
    spans: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<TraceState>> = Mutex::new(None);
// Serializes whole capture_trace sections (not just individual emits) so
// concurrent tests in one binary can't interleave events into each
// other's captured streams.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether a trace is currently active (the hot-path guard behind
/// [`crate::enabled`]).
#[inline(always)]
pub(crate) fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Event kind opening a logical span. Emitting this kind (directly, via
/// [`crate::span!`], or by replaying a buffered [`PendingEvent`]) makes the
/// trace assign the record a fresh `id` field (and a `parent` field when
/// another scoped span is open) and push it on the scoped-span stack.
pub const SPAN_BEGIN: &str = "span.begin";

/// Event kind closing the innermost scoped span: the trace pops the stack
/// and attaches the popped `id`, pairing the record with its
/// [`SPAN_BEGIN`]. Detached spans close via [`span_end_detached`] instead.
pub const SPAN_END: &str = "span.end";

/// Emit one event into the active trace.
///
/// Prefer the [`crate::event!`] macro, which guards field construction
/// behind [`crate::enabled`]. Calling this with no active trace is a
/// silent no-op.
///
/// The kinds [`SPAN_BEGIN`] and [`SPAN_END`] are special: span ids (and
/// parent links) are assigned here, under the same lock that assigns
/// sequence numbers. Buffered span records therefore get their ids at
/// *replay* time, which keeps them deterministic for the same reason
/// replayed sequence numbers are (DESIGN.md §7, rule 1).
pub fn emit(kind: &'static str, fields: Vec<(&'static str, Value)>) {
    let mut state = lock(&STATE);
    let Some(state) = state.as_mut() else {
        return;
    };
    let fields = if kind == SPAN_BEGIN {
        let id = state.span_next;
        state.span_next += 1;
        let parent = state.span_stack.last().copied();
        state.span_stack.push(id);
        span_fields(id, parent, fields)
    } else if kind == SPAN_END {
        match state.span_stack.pop() {
            Some(id) => span_fields(id, None, fields),
            // Unbalanced end (a bug in the instrumentation site): keep the
            // record, id-less, so the analyzer can flag it.
            None => fields,
        }
    } else {
        fields
    };
    emit_locked(state, kind, fields);
}

/// Prepend `id` (and `parent`, when present) to a span record's fields.
fn span_fields(
    id: u64,
    parent: Option<u64>,
    fields: Vec<(&'static str, Value)>,
) -> Vec<(&'static str, Value)> {
    let mut out = Vec::with_capacity(fields.len() + 2);
    out.push(("id", Value::U64(id)));
    if let Some(p) = parent {
        out.push(("parent", Value::U64(p)));
    }
    out.extend(fields);
    out
}

/// Open a *detached* span: one that outlives the current call stack (e.g.
/// a Monitor alarm window spanning many `observe` calls). The span gets an
/// id and a parent link like a scoped span but is **not** pushed on the
/// scoped-span stack, so scoped spans opened and closed while it is live
/// nest correctly. Returns the id to pass to [`span_end_detached`], or `0`
/// when no trace is active.
pub fn span_begin_detached(fields: Vec<(&'static str, Value)>) -> u64 {
    let mut state = lock(&STATE);
    let Some(state) = state.as_mut() else {
        return 0;
    };
    let id = state.span_next;
    state.span_next += 1;
    let parent = state.span_stack.last().copied();
    let fields = span_fields(id, parent, fields);
    emit_locked(state, SPAN_BEGIN, fields);
    id
}

/// Close a detached span by id (from [`span_begin_detached`]). No-op when
/// `id` is 0 or no trace is active, so callers can store the id
/// unconditionally.
pub fn span_end_detached(id: u64, fields: Vec<(&'static str, Value)>) {
    if id == 0 {
        return;
    }
    let mut state = lock(&STATE);
    let Some(state) = state.as_mut() else {
        return;
    };
    let fields = span_fields(id, None, fields);
    emit_locked(state, SPAN_END, fields);
}

/// Subsystem a kind belongs to for overhead accounting: the prefix before
/// the first `.` (`"quiesce.drain"` → `"quiesce"`, `"counter"` →
/// `"counter"`). Kinds are `&'static str`, so the prefix is too — no
/// allocation on the emit path.
fn subsystem_of(kind: &'static str) -> &'static str {
    match kind.find('.') {
        Some(i) => &kind[..i],
        None => kind,
    }
}

fn emit_locked(state: &mut TraceState, kind: &'static str, fields: Vec<(&'static str, Value)>) {
    let event = Event {
        seq: state.seq,
        kind,
        fields,
    };
    state.seq += 1;
    state.events += 1;
    if kind == SPAN_BEGIN {
        state.spans += 1;
    }
    let json = event.to_json();
    let line_bytes = json.len() as u64 + 1; // trailing newline
    state.bytes += line_bytes;
    let sub = state.subsystems.entry(subsystem_of(kind)).or_insert((0, 0));
    sub.0 += 1;
    sub.1 += line_bytes;
    write_line(&mut state.sink, &json);
}

/// Replay events that were buffered off the serial path (see
/// [`PendingEvent`]) into the active trace, in slice order.
///
/// Sequence numbers are assigned here, at replay time, so the stream stays
/// deterministic as long as the *replay* happens from serial driver code —
/// the buffering itself may occur inside `parx` workers. No-op when no
/// trace is active.
///
/// ```
/// let ((), bytes) = obs::capture_trace(|| {
///     // Imagine this Vec came back from a parallel worker.
///     let buffered = vec![obs::pending_event!("demo.buffered", "i" => 1u64)];
///     obs::emit_pending(&buffered);
/// });
/// assert!(String::from_utf8(bytes).unwrap().contains("demo.buffered"));
/// ```
pub fn emit_pending(events: &[PendingEvent]) {
    for e in events {
        emit(e.kind, e.fields.clone());
    }
}

fn write_line(sink: &mut Sink, json: &str) {
    match sink {
        Sink::File(w) => {
            let _ = w.write_all(json.as_bytes());
            let _ = w.write_all(b"\n");
        }
        Sink::Memory(buf) => {
            buf.extend_from_slice(json.as_bytes());
            buf.push(b'\n');
        }
    }
}

fn start(sink: Sink) {
    let mut state = lock(&STATE);
    metrics::reset();
    let mut sink = sink;
    // Schema header: always the first line of a trace, outside the event
    // sequence (no seq number, not counted in the report). `proteus-trace`
    // refuses streams whose header is missing or names a schema it does
    // not understand.
    write_line(
        &mut sink,
        &format!(
            "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
            crate::SCHEMA_VERSION
        ),
    );
    *state = Some(TraceState {
        sink,
        seq: 0,
        events: 0,
        span_next: 1,
        span_stack: Vec::new(),
        bytes: 0,
        subsystems: BTreeMap::new(),
        spans: 0,
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Start a trace writing JSONL to `path` (truncating it).
pub fn start_trace_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    start(Sink::File(BufWriter::new(file)));
    Ok(())
}

/// Start a trace buffering JSONL in memory; retrieve the bytes from the
/// [`TraceReport`] returned by [`finish_trace`].
pub fn start_trace_memory() {
    start(Sink::Memory(Vec::new()));
}

/// Instrumentation self-overhead: what the observability layer itself
/// cost, counted at the emit path (DESIGN.md §7). Covers every record
/// written through the event path plus the counter dump; the one-line
/// schema header and the trailing `obs.overhead` records themselves are
/// excluded (the snapshot is taken before they are written).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadSnapshot {
    /// Records emitted (events + spans + counter-dump lines).
    pub events: u64,
    /// JSONL bytes written, trailing newlines included.
    pub bytes: u64,
    /// `span.begin` records among them.
    pub spans: u64,
    /// `(subsystem, events, bytes)` rows, sorted by subsystem — the kind
    /// prefix before the first `.`.
    pub per_subsystem: Vec<(String, u64, u64)>,
}

fn overhead_of(state: &TraceState) -> OverheadSnapshot {
    OverheadSnapshot {
        events: state.events,
        bytes: state.bytes,
        spans: state.spans,
        per_subsystem: state
            .subsystems
            .iter()
            .map(|(k, (e, b))| (k.to_string(), *e, *b))
            .collect(),
    }
}

/// End-of-trace accounting returned by [`finish_trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total events emitted (excluding the trailing counter dump).
    pub events: u64,
    /// The JSONL bytes, for memory-sink traces only.
    pub bytes: Option<Vec<u8>>,
    /// Instrumentation self-overhead accounting.
    pub overhead: OverheadSnapshot,
}

fn end(dump_counters: bool) -> TraceReport {
    ACTIVE.store(false, Ordering::Relaxed);
    let taken = lock(&STATE).take();
    let Some(mut state) = taken else {
        return TraceReport::default();
    };
    let mut dump_lines = 0u64;
    if dump_counters {
        for (name, value) in metrics::counter_snapshot() {
            let event = Event {
                seq: state.seq,
                kind: "counter",
                fields: vec![("name", Value::Str(name)), ("value", Value::U64(value))],
            };
            state.seq += 1;
            dump_lines += 1;
            let json = event.to_json();
            let line_bytes = json.len() as u64 + 1;
            state.bytes += line_bytes;
            let sub = state.subsystems.entry("counter").or_insert((0, 0));
            sub.0 += 1;
            sub.1 += line_bytes;
            write_line(&mut state.sink, &json);
        }
    }
    let mut overhead = overhead_of(&state);
    // `TraceReport::events` keeps its historical meaning (records emitted
    // before the dump); the overhead audit counts the dump lines too.
    overhead.events += dump_lines;
    if dump_counters {
        // The overhead audit rides in the stream too, after the snapshot
        // is taken (so it does not count itself).
        for (name, events, bytes) in &overhead.per_subsystem {
            let event = Event {
                seq: state.seq,
                kind: "obs.overhead",
                fields: vec![
                    ("subsystem", Value::Str(name.clone())),
                    ("events", Value::U64(*events)),
                    ("bytes", Value::U64(*bytes)),
                ],
            };
            state.seq += 1;
            write_line(&mut state.sink, &event.to_json());
        }
        let total = Event {
            seq: state.seq,
            kind: "obs.overhead",
            fields: vec![
                ("subsystem", Value::Str("total".to_string())),
                ("events", Value::U64(overhead.events)),
                ("bytes", Value::U64(overhead.bytes)),
                ("spans", Value::U64(overhead.spans)),
            ],
        };
        state.seq += 1;
        write_line(&mut state.sink, &total.to_json());
    }
    let bytes = match state.sink {
        Sink::File(mut w) => {
            let _ = w.flush();
            None
        }
        Sink::Memory(buf) => Some(buf),
    };
    TraceReport {
        events: state.events,
        bytes,
        overhead,
    }
}

/// Finish the active trace: append a sorted dump of all non-zero counters
/// as `{"kind":"counter","name":…,"value":…}` lines, flush the sink, and
/// return the accounting. No-op (empty report) when no trace is active.
pub fn finish_trace() -> TraceReport {
    end(true)
}

#[cfg(test)]
pub(crate) fn hold_capture_lock_for_test() -> MutexGuard<'static, ()> {
    lock(&CAPTURE_LOCK)
}

struct CaptureGuard;

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        // Runs on panic inside the captured closure too, so a failing test
        // can't leave the trace active for unrelated tests.
        ACTIVE.store(false, Ordering::Relaxed);
        *lock(&STATE) = None;
    }
}

/// Run `f` with an in-memory trace active and return `(f(), jsonl_bytes)`.
///
/// Captures serialize on an internal lock, so concurrent captures (e.g.
/// tests in one binary) never interleave. Unlike [`finish_trace`], no
/// counter dump is appended — counters are process-global and other
/// threads may touch them mid-capture, which would break the byte-identity
/// guarantee this function exists to provide.
pub fn capture_trace<T>(f: impl FnOnce() -> T) -> (T, Vec<u8>) {
    let _serial = lock(&CAPTURE_LOCK);
    start_trace_memory();
    let guard = CaptureGuard;
    let out = f();
    let report = end(false);
    std::mem::forget(guard); // end() already cleared the state
    (out, report.bytes.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_byte_stable_and_self_contained() {
        let run = || {
            crate::event!("test.trace", "step" => 0u64);
            crate::event!("test.trace", "step" => 1u64, "label" => "x");
            "done"
        };
        let (out, a) = capture_trace(run);
        let (_, b) = capture_trace(run);
        assert_eq!(out, "done");
        assert_eq!(a, b, "identical runs must capture identical bytes");
        let text = String::from_utf8(a).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            format!(
                "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
                crate::SCHEMA_VERSION
            ),
            "first line must be the schema header"
        );
        assert!(lines[1].starts_with("{\"seq\":0,\"kind\":\"test.trace\""));
        assert!(lines[2].contains("\"label\":\"x\""));
    }

    #[test]
    fn scoped_spans_get_nested_ids_at_emit_time() {
        let ((), bytes) = capture_trace(|| {
            emit(SPAN_BEGIN, vec![("name", Value::from("outer"))]);
            emit(SPAN_BEGIN, vec![("name", Value::from("inner"))]);
            emit("test.span.body", vec![]);
            emit(SPAN_END, vec![("name", Value::from("inner"))]);
            emit(SPAN_END, vec![("name", Value::from("outer"))]);
        });
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"span."))
            .collect();
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("\"name\":\"outer\""));
        assert!(!lines[0].contains("\"parent\""), "root span has no parent");
        assert!(
            lines[1].contains("\"id\":2") && lines[1].contains("\"parent\":1"),
            "inner span must link to outer: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"id\":2"), "LIFO end pairs inner first");
        assert!(lines[3].contains("\"id\":1"));
    }

    #[test]
    fn detached_spans_do_not_disturb_scoped_nesting() {
        let ((), bytes) = capture_trace(|| {
            let win = span_begin_detached(vec![("name", Value::from("window"))]);
            emit(SPAN_BEGIN, vec![("name", Value::from("scoped"))]);
            emit(SPAN_END, vec![("name", Value::from("scoped"))]);
            span_end_detached(win, vec![("name", Value::from("window"))]);
        });
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"span."))
            .collect();
        assert!(lines[0].contains("\"id\":1") && lines[0].contains("window"));
        // The scoped span opened while the detached one is live must NOT
        // treat it as an enclosing scope.
        assert!(
            lines[1].contains("\"id\":2") && !lines[1].contains("\"parent\""),
            "detached spans are not scope parents: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"id\":2"));
        assert!(lines[3].contains("\"id\":1") && lines[3].contains("window"));
    }

    #[test]
    fn detached_span_id_zero_is_a_noop() {
        let ((), bytes) = capture_trace(|| {
            span_end_detached(0, vec![("name", Value::from("ghost"))]);
        });
        assert!(!String::from_utf8(bytes).unwrap().contains("ghost"));
    }

    #[test]
    fn unbalanced_span_end_keeps_the_record_without_id() {
        let ((), bytes) = capture_trace(|| {
            emit(SPAN_END, vec![("name", Value::from("orphan"))]);
        });
        let text = String::from_utf8(bytes).unwrap();
        let line = text.lines().find(|l| l.contains("orphan")).unwrap();
        assert!(!line.contains("\"id\""));
    }

    #[test]
    fn finish_trace_dumps_counters() {
        let _serial = lock(&CAPTURE_LOCK);
        start_trace_memory();
        crate::metrics::counter("test.trace.finish").inc();
        emit("test.finish", vec![]);
        let report = finish_trace();
        assert_eq!(report.events, 1);
        let text = String::from_utf8(report.bytes.unwrap()).unwrap();
        assert!(
            text.contains("\"kind\":\"counter\",\"name\":\"test.trace.finish\",\"value\":1"),
            "missing counter dump in: {text}"
        );
    }

    #[test]
    fn emit_without_trace_is_a_noop() {
        // Hold the capture lock so this stray emit can't land inside a
        // concurrently running test's capture.
        let _serial = lock(&CAPTURE_LOCK);
        emit("test.orphan", vec![]);
        let report = finish_trace();
        assert_eq!(report.events, 0);
        assert!(report.bytes.is_none());
    }

    #[test]
    fn file_sink_writes_jsonl() {
        let _serial = lock(&CAPTURE_LOCK);
        let path = std::env::temp_dir().join("obs_trace_test.jsonl");
        start_trace_file(&path).unwrap();
        emit("test.file", vec![("ok", Value::Bool(true))]);
        let report = finish_trace();
        assert_eq!(report.events, 1);
        assert!(report.bytes.is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"kind\":\"test.file\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_trace_means_zero_windows_and_zero_overhead() {
        let _serial = lock(&CAPTURE_LOCK);
        // Without an active trace, emitting is a no-op...
        emit("test.oh.orphan", vec![("v", Value::F64(9.0))]);
        let report = finish_trace();
        assert_eq!(report.overhead, OverheadSnapshot::default());
        // ...and nothing leaks into the next trace.
        drop(_serial);
        let ((), bytes) = capture_trace(|| {});
        let text = String::from_utf8(bytes).unwrap();
        assert!(!text.contains("test.oh.orphan"));
    }

    #[test]
    fn overhead_accounting_matches_the_stream() {
        let _serial = lock(&CAPTURE_LOCK);
        start_trace_memory();
        emit("test.oh.alpha", vec![("x", Value::U64(1))]);
        emit("quiesce.fake", vec![]);
        crate::metrics::counter("test.oh.counter").inc();
        let report = finish_trace();
        let text = String::from_utf8(report.bytes.unwrap()).unwrap();
        // Bytes cover every line except the header and the obs.overhead
        // trailer (the snapshot is taken before the trailer is written).
        let accounted: usize = text
            .lines()
            .filter(|l| !l.contains("\"kind\":\"trace.meta\"") && !l.contains("obs.overhead"))
            .map(|l| l.len() + 1)
            .sum();
        assert_eq!(report.overhead.bytes, accounted as u64, "in: {text}");
        // 2 events + 1 counter-dump line.
        assert_eq!(report.overhead.events, 3);
        let subs: Vec<&str> = report
            .overhead
            .per_subsystem
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        assert_eq!(subs, vec!["counter", "quiesce", "test"]);
        // The audit rides in the finished stream.
        assert!(text.contains("\"kind\":\"obs.overhead\",\"subsystem\":\"quiesce\""));
        // The total record carries exactly these four fields.
        let total = format!("\"total\",\"events\":3,\"bytes\":{accounted},\"spans\":0}}");
        assert!(text.trim_end().ends_with(&total), "in: {text}");
    }

    #[test]
    fn spans_leave_the_counters_alone() {
        let ((before, after), _) = capture_trace(|| {
            crate::metrics::counter("test.span.registry").inc();
            let before = crate::metrics::counter_snapshot();
            drop(crate::Span::enter("test.reg.scoped", vec![]));
            drop(crate::Span::timed("test.reg.timed", vec![]));
            span_end_detached(span_begin_detached(vec![]), vec![]);
            (before, crate::metrics::counter_snapshot())
        });
        assert_eq!(before, after, "a span must not bump any counter");
    }
}
