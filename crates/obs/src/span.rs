//! RAII guards for logical spans.
//!
//! A span is a pair of `span.begin`/`span.end` records bracketing one
//! phase of the adaptive loop (a quiescence drain, an EI round, a CV
//! fold). Span records obey the same determinism discipline as events:
//! ids, parent links and sequence numbers are all *logical*, assigned
//! under the trace lock at emission (or replay) time, so traces stay
//! byte-identical across `--jobs` values. Wall-clock duration is not
//! recorded (`benchmark/` is where time is measured); only
//! [`Span::timed`] spans — reserved for serial-protocol paths whose
//! timing is part of the observable protocol, like a configuration
//! switch — carry a `duration_ns` field on their end record (DESIGN.md
//! §7, rule 3).
//!
//! Code that runs inside `parx` workers must not open spans directly;
//! it buffers `span.begin`/`span.end` [`crate::PendingEvent`]s (kinds
//! [`crate::SPAN_BEGIN`]/[`crate::SPAN_END`]) and the serial driver
//! replays them with [`crate::emit_pending`] — ids are assigned at
//! replay, exactly like sequence numbers. For spans that outlive a call
//! stack (a Monitor alarm window), use [`crate::span_begin_detached`].

use crate::event::Value;
use crate::trace;
use std::time::Instant;

/// RAII guard for a scoped span: emits `span.begin` on construction and
/// `span.end` on drop.
///
/// Construct via [`crate::span!`] / [`crate::timed_span!`], which guard
/// field evaluation behind [`crate::enabled`]. An inactive guard (no
/// trace active) costs nothing on drop.
///
/// ```
/// let ((), bytes) = obs::capture_trace(|| {
///     let _sw = obs::span!("switch", "from" => "TL2:8t", "to" => "NOrec:4t");
///     let _drain = obs::span!("quiesce.drain");
///     // ... phase body ...
/// });
/// let text = String::from_utf8(bytes).unwrap();
/// assert!(text.contains("\"kind\":\"span.begin\""));
/// assert!(text.contains("\"parent\":1")); // drain nests under switch
/// ```
#[must_use = "a span closes when dropped; binding it to `_` closes it immediately"]
pub struct Span {
    name: &'static str,
    started: Option<Instant>,
    timed: bool,
}

impl Span {
    /// Open a scoped span named `name` with extra begin-record fields.
    pub fn enter(name: &'static str, fields: Vec<(&'static str, Value)>) -> Span {
        Span::begin(name, fields, false)
    }

    /// Open a scoped span whose end record carries a wall-clock
    /// `duration_ns` field.
    ///
    /// Only for serial-protocol paths (e.g. `PolyTm::apply`'s switch
    /// path) that never appear in byte-compared deterministic traces —
    /// the same carve-out as `config.switch`'s `latency_ns`.
    pub fn timed(name: &'static str, fields: Vec<(&'static str, Value)>) -> Span {
        Span::begin(name, fields, true)
    }

    fn begin(name: &'static str, fields: Vec<(&'static str, Value)>, timed: bool) -> Span {
        if !crate::enabled() {
            return Span::inactive();
        }
        let mut f = Vec::with_capacity(fields.len() + 1);
        f.push(("name", Value::Str(name.to_string())));
        f.extend(fields);
        trace::emit(trace::SPAN_BEGIN, f);
        Span {
            name,
            started: Some(Instant::now()),
            timed,
        }
    }

    /// A guard that does nothing on drop (used when no trace is active).
    pub fn inactive() -> Span {
        Span {
            name: "",
            started: None,
            timed: false,
        }
    }

    /// Whether this guard will emit an end record on drop.
    pub fn is_active(&self) -> bool {
        self.started.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut fields = vec![("name", Value::Str(self.name.to_string()))];
        if self.timed {
            fields.push(("duration_ns", Value::U64(elapsed)));
        }
        trace::emit(trace::SPAN_END, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_emits_paired_records() {
        let ((), bytes) = crate::capture_trace(|| {
            let outer = Span::enter("test.outer", vec![("k", Value::from(1u64))]);
            {
                let _inner = Span::enter("test.inner", vec![]);
            }
            drop(outer);
        });
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.matches("\"kind\":\"span.begin\"").count(), 2);
        assert_eq!(text.matches("\"kind\":\"span.end\"").count(), 2);
        assert!(text.contains("\"parent\":1"));
        assert!(
            !text.contains("duration_ns"),
            "plain spans must not leak wall-clock into the stream"
        );
    }

    #[test]
    fn timed_span_carries_duration() {
        let ((), bytes) = crate::capture_trace(|| {
            let _s = Span::timed("test.timed", vec![]);
        });
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"duration_ns\":"));
    }

    #[test]
    fn inactive_guard_is_silent() {
        let ((), bytes) = crate::capture_trace(|| {
            let s = Span::inactive();
            assert!(!s.is_active());
        });
        assert!(!String::from_utf8(bytes).unwrap().contains("span."));
    }

    #[test]
    fn pending_span_records_get_ids_at_replay() {
        // Simulates the Controller pattern: spans buffered off the serial
        // path, replayed in order by the driver.
        let ((), bytes) = crate::capture_trace(|| {
            let buffered = vec![
                crate::pending_event!(crate::SPAN_BEGIN, "name" => "explore"),
                crate::pending_event!(crate::SPAN_BEGIN, "name" => "ei.round", "step" => 0u64),
                crate::pending_event!(crate::SPAN_END, "name" => "ei.round"),
                crate::pending_event!(crate::SPAN_END, "name" => "explore"),
            ];
            crate::emit_pending(&buffered);
        });
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"id\":1,\"name\":\"explore\""));
        assert!(text.contains("\"id\":2,\"parent\":1,\"name\":\"ei.round\""));
    }
}
