//! Structured observability for the ProteusTM stack.
//!
//! The adaptation loop of ProteusTM makes decisions — quiescence switches,
//! thread-gate resizes, CUSUM alarms, EI exploration steps — that used to
//! leave no trace. This crate makes those decisions first-class, measurable
//! events:
//!
//! * **Events** ([`Event`]): structured records with a monotonic *logical*
//!   sequence number, a kind from a small stable taxonomy (DESIGN.md §7)
//!   and typed fields. Events flow to a JSONL sink, one object per line.
//!   That trace is the one record of a run; `proteus-trace` reads it.
//! * **Metrics** ([`metrics`]): a process-wide registry of named counters,
//!   dumped at the end of the trace. Counters on the deterministic
//!   learning path hold logically deterministic values; wall-clock
//!   durations are not recorded (`benchmark/` measures them).
//! * **Determinism**: traces captured around the learning pipeline are
//!   byte-identical at every `--jobs` value because events are only
//!   emitted from serial driver code, sequence numbers are logical, and no
//!   wall-clock field exists on that path (`crates/bench/tests/
//!   determinism.rs` enforces this).
//! * **Cost**: every instrumentation site is guarded by [`enabled`]. With
//!   no trace active that guard is one relaxed atomic load and the site
//!   does nothing else.
//!
//! # Example
//!
//! ```
//! let (out, trace) = obs::capture_trace(|| {
//!     obs::event!("demo.tick", "step" => 1u64, "label" => "warmup");
//!     42
//! });
//! assert_eq!(out, 42);
//! let text = String::from_utf8(trace).unwrap();
//! assert!(text.contains("\"kind\":\"demo.tick\""));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod metrics;
mod span;
mod trace;

pub use event::{Event, PendingEvent, Value};
pub use metrics::{counter, Counter};
pub use span::Span;
pub use trace::{
    capture_trace, emit, emit_pending, finish_trace, span_begin_detached, span_end_detached,
    start_trace_file, start_trace_memory, OverheadSnapshot, TraceReport, SPAN_BEGIN, SPAN_END,
};

/// Version of the JSONL trace schema, written as the
/// `{"kind":"trace.meta","schema":N}` header line of every trace.
///
/// Bump when a change would make old analyzers misread new traces: a
/// record-shape change, a field re-type, a semantic change to an existing
/// kind. Adding a new event kind is *not* a schema bump — analyzers skip
/// kinds they do not know. Version history: 1 = events + counter dump
/// (PR 2–3, no header line); 2 = header line + span records; 3 =
/// windowed KPI time-series + self-overhead audit (`obs.overhead`)
/// records; 4 = three SLO-evaluation kinds and an `alerts` field, since
/// retired without a bump (a removal is none of the above; DESIGN.md
/// §13), as were the fifth count of the `obs.overhead` total and, later,
/// the time-series window records with the total's `windows` count
/// (DESIGN.md §7). Analyzers accept exactly this version:
/// emitter and analyzer ship from one tree, so a trace with any other
/// header is skew and is rejected.
pub const SCHEMA_VERSION: u32 = 4;

/// Fast-path guard: `true` only while a trace is active.
///
/// Instrumentation sites check this before building any event fields or
/// metric names, so an inactive pipeline costs one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    trace::active()
}

/// Emit a structured event if a trace is active.
///
/// Fields are `"key" => value` pairs; values can be any type with a
/// [`Value`] conversion (unsigned/signed integers, `f64`, `bool`, strings).
/// The whole expansion is guarded by [`enabled`], so arguments are not
/// evaluated when no trace is active.
///
/// ```
/// obs::event!("config.switch", "from" => "TL2:8t", "to" => "NOrec:4t");
/// ```
#[macro_export]
macro_rules! event {
    ($kind:expr $(, $key:literal => $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit($kind, vec![$(($key, $crate::Value::from($val))),*]);
        }
    };
}

/// Open a scoped [`Span`] if a trace is active (else an inactive guard).
///
/// Same `"key" => value` field syntax as [`event!`]; the begin record gets
/// a logical `id` (and `parent` when nested inside another scoped span),
/// the end record is emitted when the returned guard drops. Bind the
/// result — `let _guard = obs::span!(...)` — or the span closes
/// immediately.
///
/// ```
/// let _sw = obs::span!("switch", "from" => "TL2:8t", "to" => "NOrec:4t");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:literal => $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Span::enter($name, vec![$(($key, $crate::Value::from($val))),*])
        } else {
            $crate::Span::inactive()
        }
    };
}

/// Like [`span!`] but the end record carries wall-clock `duration_ns`.
/// Reserved for serial-protocol paths outside the deterministic learning
/// trace (DESIGN.md §7, rule 3).
#[macro_export]
macro_rules! timed_span {
    ($name:literal $(, $key:literal => $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Span::timed($name, vec![$(($key, $crate::Value::from($val))),*])
        } else {
            $crate::Span::inactive()
        }
    };
}

/// Build a [`PendingEvent`] for later serial emission via [`emit_pending`].
///
/// Same `"key" => value` field syntax as [`event!`], but nothing is
/// emitted and no guard is applied — callers buffering events off the
/// serial path wrap construction in `if obs::enabled()` so buffers stay
/// empty (and arguments unevaluated) when no trace is active.
#[macro_export]
macro_rules! pending_event {
    ($kind:expr $(, $key:literal => $val:expr)* $(,)?) => {
        $crate::PendingEvent {
            kind: $kind,
            fields: vec![$(($key, $crate::Value::from($val))),*],
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn event_macro_compiles_with_mixed_field_types() {
        // Runs inside a capture so the emits can't leak into a concurrent
        // test's trace.
        let (_, bytes) = crate::capture_trace(|| {
            crate::event!(
                "test.mixed",
                "u" => 3u64,
                "i" => -4i64,
                "f" => 2.5f64,
                "b" => true,
                "s" => "text",
                "owned" => String::from("owned"),
            );
            crate::event!("test.bare");
        });
        // Schema header + the two events.
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 3);
    }

    #[test]
    fn span_macros_compile_and_nest() {
        let (_, bytes) = crate::capture_trace(|| {
            let _outer = crate::span!("test.macro.outer", "step" => 1u64);
            let _inner = crate::timed_span!("test.macro.inner");
        });
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.matches("span.begin").count(), 2);
        assert_eq!(text.matches("span.end").count(), 2);
    }
}
