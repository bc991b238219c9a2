//! `obs::slo` — a deterministic online SLO engine over the flight
//! recorder's logical windows.
//!
//! Declarative [`SloSpec`]s (goodput ratio, abort rate, commit-latency
//! tail, switch latency, recovery success — or anything else a
//! [`crate::TsSeries`] records) are evaluated as each `metrics.window`
//! closes, **never against wall clock**: a window's verdict is a pure
//! function of its aggregate and the spec, and the multi-window burn-rate
//! alerting ([`BurnTracker`]) is a pure fold over the verdict sequence.
//! Because windows only close from serial driver code (DESIGN.md §7), the
//! whole alert stream — `slo.state`, `alert.fire`, `alert.resolve`
//! records, schema v4 — is byte-identical at every `PROTEUS_JOBS` value
//! and across same-seed reruns.
//!
//! Like `faultsim`, the engine is armed explicitly ([`install`] /
//! [`uninstall`]): default traces carry no SLO records, so every
//! pre-existing byte-identity baseline is undisturbed until a run opts in
//! (`experiments --slo ...`).
//!
//! # Spec grammar
//!
//! One spec per line; `#` starts a comment; blank lines are ignored:
//!
//! ```text
//! <name> <series> <stat> <op> <target> fast=<F> slow=<S> burn=<FPM>/<SPM> [pending=<P>]
//! ```
//!
//! * `name` — unique slug naming the objective (`goodput`, `abort_rate`).
//! * `series` — the [`crate::TsSeries`] whose windows are judged.
//! * `stat` — which window aggregate to judge: `mean`, `min`, `max`,
//!   `last` or `count`. (Windows carry no exact p99; `max` is the
//!   windowed tail statistic — at ≤100 samples per window the maximum IS
//!   the p99 observation.)
//! * `op` — `>=` (at least) or `<=` (at most), against `target`.
//! * `fast=F slow=S` — the two burn windows, in closed flight-recorder
//!   windows (`S >= F`).
//! * `burn=FPM/SPM` — per-mille violation thresholds for the fast and
//!   slow windows. The alert *condition* holds when **both** windows
//!   burn at or above their thresholds; comparisons are exact integer
//!   cross-multiplications, never floats.
//! * `pending=P` — consecutive condition windows before the alert fires
//!   (default 1).
//!
//! # Example
//!
//! ```
//! let specs = obs::slo::parse_specs(
//!     "demo test.slo.doc mean <= 0.5 fast=2 slow=4 burn=500/250\n",
//! )
//! .unwrap();
//! assert_eq!(specs[0].name, "demo");
//! assert_eq!(specs[0].fast, 2);
//! ```

use crate::event::Value;
use crate::timeseries::WindowAgg;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Event kind of one per-window SLO evaluation (schema v4). Fields:
/// `slo`, `series`, `window`, `tick`, `value`, `ok`, `burn_fast_pm`,
/// `burn_slow_pm`, `state`.
pub const SLO_STATE: &str = "slo.state";

/// Event kind of a pending→firing transition (schema v4). Fields: `slo`,
/// `window`, `tick`, `value`, `burn_fast_pm`, `burn_slow_pm`.
pub const ALERT_FIRE: &str = "alert.fire";

/// Event kind of a firing→resolved transition (schema v4). Fields: `slo`,
/// `window`, `tick`, `firing_windows`.
pub const ALERT_RESOLVE: &str = "alert.resolve";

/// Which aggregate of a closed window a spec judges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Window mean (`sum / n`). Order-dependent float arithmetic when the
    /// series is fed from concurrent threads; exact for serial series.
    Mean,
    /// Window minimum (fold-order independent).
    Min,
    /// Window maximum (fold-order independent) — the windowed tail
    /// statistic standing in for p99.
    Max,
    /// Last sample of the window (depends on serial record order).
    Last,
    /// Samples in the window (fold-order independent).
    Count,
}

impl Stat {
    /// Stable grammar token.
    pub fn slug(self) -> &'static str {
        match self {
            Stat::Mean => "mean",
            Stat::Min => "min",
            Stat::Max => "max",
            Stat::Last => "last",
            Stat::Count => "count",
        }
    }

    fn parse(token: &str) -> Option<Stat> {
        Some(match token {
            "mean" => Stat::Mean,
            "min" => Stat::Min,
            "max" => Stat::Max,
            "last" => Stat::Last,
            "count" => Stat::Count,
            _ => return None,
        })
    }

    /// Extract this statistic from a window's aggregates.
    pub fn of(self, w: &WindowStats) -> f64 {
        match self {
            Stat::Mean => {
                if w.n == 0 {
                    0.0
                } else {
                    w.sum / w.n as f64
                }
            }
            Stat::Min => w.min,
            Stat::Max => w.max,
            Stat::Last => w.last,
            Stat::Count => w.n as f64,
        }
    }
}

/// Comparison direction against the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Healthy while `value >= target` (grammar token `>=`).
    AtLeast,
    /// Healthy while `value <= target` (grammar token `<=`).
    AtMost,
}

impl Op {
    /// Stable grammar token.
    pub fn slug(self) -> &'static str {
        match self {
            Op::AtLeast => ">=",
            Op::AtMost => "<=",
        }
    }

    /// Whether `value` meets the objective.
    pub fn ok(self, value: f64, target: f64) -> bool {
        match self {
            Op::AtLeast => value >= target,
            Op::AtMost => value <= target,
        }
    }
}

/// One closed window's aggregates, decoupled from the flight recorder's
/// internal accumulator so pure evaluation code (and property tests) can
/// build them directly.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Samples in the window.
    pub n: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Last sample recorded.
    pub last: f64,
}

impl WindowStats {
    /// Fold `samples` into window aggregates (`None` for an empty window)
    /// — the same fold [`crate::TsSeries`] performs with atomics.
    pub fn from_samples(samples: &[f64]) -> Option<WindowStats> {
        let (&first, rest) = samples.split_first()?;
        let mut w = WindowStats {
            n: 1,
            sum: first,
            min: first,
            max: first,
            last: first,
        };
        for &v in rest {
            w.n += 1;
            w.sum += v;
            w.min = w.min.min(v);
            w.max = w.max.max(v);
            w.last = v;
        }
        Some(w)
    }
}

impl WindowStats {
    /// Borrow the flight recorder's drained accumulator (crate-internal:
    /// `WindowAgg` never crosses the crate boundary).
    pub(crate) fn from_agg(agg: &WindowAgg) -> WindowStats {
        WindowStats {
            n: agg.n,
            sum: agg.sum,
            min: agg.min,
            max: agg.max,
            last: agg.last,
        }
    }
}

/// One declarative objective: judge `series` windows with `stat op
/// target`, alert on the fast/slow burn-rate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Unique objective slug (`goodput`, `abort_rate`, ...).
    pub name: String,
    /// Flight-recorder series whose windows are judged.
    pub series: String,
    /// Window aggregate to judge.
    pub stat: Stat,
    /// Comparison direction.
    pub op: Op,
    /// Objective threshold.
    pub target: f64,
    /// Fast burn window, in closed windows (`>= 1`).
    pub fast: u64,
    /// Slow burn window, in closed windows (`>= fast`).
    pub slow: u64,
    /// Fast-window violation threshold, per mille of `fast`.
    pub fast_burn_pm: u64,
    /// Slow-window violation threshold, per mille of `slow`.
    pub slow_burn_pm: u64,
    /// Consecutive condition windows before the alert fires (`>= 1`).
    pub pending: u64,
}

/// Why a spec text failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// 1-based line number of the offending spec line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SLO spec, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecParseError {}

/// The built-in objectives armed by `experiments --slo default`: the five
/// KPIs the paper's adaptation loop watches. Targets are written against
/// the repo's deterministic drill/workload series; a deployment tunes
/// them by shipping its own spec file.
pub const DEFAULT_SPECS: &str = "\
# name               series                 stat op target    fast slow  burn       pending
goodput              goodput.ratio          mean >= 0.5       fast=3 slow=8 burn=600/250 pending=1
abort_rate           kpi.abort_rate         mean <= 0.5       fast=3 slow=8 burn=600/250 pending=1
commit_latency_p99   kpi.commit_latency_ns  max  <= 50000     fast=3 slow=8 burn=600/250 pending=1
switch_latency       switch.latency_ns      max  <= 10000000  fast=2 slow=8 burn=500/125 pending=1
recovery             recovery.success       min  >= 1         fast=2 slow=8 burn=500/125 pending=1
";

/// The five built-in objectives, parsed from [`DEFAULT_SPECS`].
pub fn default_specs() -> Vec<SloSpec> {
    parse_specs(DEFAULT_SPECS).expect("DEFAULT_SPECS parses")
}

/// Parse a spec file (see the module-level grammar). Every line is
/// validated; names must be unique.
pub fn parse_specs(text: &str) -> Result<Vec<SloSpec>, SpecParseError> {
    let mut specs: Vec<SloSpec> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        let err = |message: String| SpecParseError {
            line: line_no,
            message,
        };
        if tokens.len() < 5 {
            return Err(err(format!(
                "expected `<name> <series> <stat> <op> <target> fast=F slow=S burn=FPM/SPM \
                 [pending=P]`, found {} token(s)",
                tokens.len()
            )));
        }
        let name = tokens[0].to_string();
        if specs.iter().any(|s| s.name == name) {
            return Err(err(format!("duplicate SLO name {name:?}")));
        }
        let series = tokens[1].to_string();
        let stat = Stat::parse(tokens[2]).ok_or_else(|| {
            err(format!(
                "unknown stat {:?} (expected mean|min|max|last|count)",
                tokens[2]
            ))
        })?;
        let op = match tokens[3] {
            ">=" => Op::AtLeast,
            "<=" => Op::AtMost,
            other => return Err(err(format!("unknown op {other:?} (expected >= or <=)"))),
        };
        let target: f64 = tokens[4]
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite())
            .ok_or_else(|| err(format!("target {:?} is not a finite number", tokens[4])))?;
        let mut fast = None;
        let mut slow = None;
        let mut burn = None;
        let mut pending = 1u64;
        for token in &tokens[5..] {
            if let Some(v) = token.strip_prefix("fast=") {
                fast = Some(parse_count("fast", v, line_no)?);
            } else if let Some(v) = token.strip_prefix("slow=") {
                slow = Some(parse_count("slow", v, line_no)?);
            } else if let Some(v) = token.strip_prefix("pending=") {
                pending = parse_count("pending", v, line_no)?;
            } else if let Some(v) = token.strip_prefix("burn=") {
                let (f, s) = v
                    .split_once('/')
                    .ok_or_else(|| err(format!("burn={v:?} must be `burn=FPM/SPM`")))?;
                let fpm = parse_permille("burn (fast)", f, line_no)?;
                let spm = parse_permille("burn (slow)", s, line_no)?;
                burn = Some((fpm, spm));
            } else {
                return Err(err(format!("unknown token {token:?}")));
            }
        }
        let fast = fast.ok_or_else(|| err("missing fast=F".to_string()))?;
        let slow = slow.ok_or_else(|| err("missing slow=S".to_string()))?;
        let (fast_burn_pm, slow_burn_pm) =
            burn.ok_or_else(|| err("missing burn=FPM/SPM".to_string()))?;
        if slow < fast {
            return Err(err(format!(
                "slow window ({slow}) must be at least the fast window ({fast})"
            )));
        }
        specs.push(SloSpec {
            name,
            series,
            stat,
            op,
            target,
            fast,
            slow,
            fast_burn_pm,
            slow_burn_pm,
            pending,
        });
    }
    Ok(specs)
}

fn parse_count(what: &str, v: &str, line: usize) -> Result<u64, SpecParseError> {
    v.parse::<u64>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| SpecParseError {
            line,
            message: format!("{what}={v:?} must be a positive integer"),
        })
}

fn parse_permille(what: &str, v: &str, line: usize) -> Result<u64, SpecParseError> {
    v.parse::<u64>()
        .ok()
        .filter(|&n| (1..=1000).contains(&n))
        .ok_or_else(|| SpecParseError {
            line,
            message: format!("{what} {v:?} must be an integer in 1..=1000 (per mille)"),
        })
}

/// Alert lifecycle state of one SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Objective healthy (or burn below thresholds).
    Inactive,
    /// Burn condition holds but for fewer than `pending` consecutive
    /// windows.
    Pending,
    /// Alert raised; an `alert.fire` record marked the transition.
    Firing,
}

impl AlertState {
    /// Stable record/exposition token.
    pub fn slug(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }

    /// Numeric gauge value for the health exposition (0/1/2).
    pub fn code(self) -> u64 {
        match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }
}

/// What one [`BurnTracker::observe`] call decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State after the observation.
    pub state: AlertState,
    /// This observation crossed pending→firing.
    pub fired: bool,
    /// This observation crossed firing→inactive.
    pub resolved: bool,
    /// Fast-window burn after the observation, per mille of `fast`.
    pub burn_fast_pm: u64,
    /// Slow-window burn after the observation, per mille of `slow`.
    pub burn_slow_pm: u64,
    /// Windows the alert had been firing for (meaningful on `resolved`).
    pub firing_windows: u64,
}

/// The multi-window burn-rate state machine of one SLO: a **pure fold**
/// over the per-window verdict sequence. No clocks, no floats beyond the
/// verdict itself — burn comparisons are integer cross-multiplications —
/// so the trajectory is a function of the verdicts alone.
#[derive(Debug, Clone, Default)]
pub struct BurnTracker {
    /// Recent verdicts, newest first, capped at `spec.slow`.
    ring: VecDeque<bool>,
    consecutive: u64,
    state: Option<AlertState>,
    windows: u64,
    violations: u64,
    fires: u64,
    resolves: u64,
    firing_windows: u64,
    last_burn_fast_pm: u64,
    last_burn_slow_pm: u64,
}

impl BurnTracker {
    /// A fresh tracker (state `Inactive`, empty history).
    pub fn new() -> BurnTracker {
        BurnTracker::default()
    }

    /// Current alert state.
    pub fn state(&self) -> AlertState {
        self.state.unwrap_or(AlertState::Inactive)
    }

    /// Windows observed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Violating windows observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Pending→firing transitions so far.
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Firing→resolved transitions so far.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Latest fast burn, per mille.
    pub fn burn_fast_pm(&self) -> u64 {
        self.last_burn_fast_pm
    }

    /// Latest slow burn, per mille.
    pub fn burn_slow_pm(&self) -> u64 {
        self.last_burn_slow_pm
    }

    /// Fold one window verdict (`ok`) into the state machine.
    ///
    /// Burn denominators are the *configured* window sizes — windows not
    /// yet observed count as healthy — so the fold needs no warm-up
    /// special case and early windows cannot over-trigger.
    pub fn observe(&mut self, spec: &SloSpec, ok: bool) -> Transition {
        self.windows += 1;
        if !ok {
            self.violations += 1;
        }
        self.ring.push_front(!ok);
        self.ring.truncate(spec.slow as usize);
        let viol = |win: u64| -> u64 {
            self.ring.iter().take(win as usize).filter(|&&v| v).count() as u64
        };
        let fast_viol = viol(spec.fast);
        let slow_viol = viol(spec.slow);
        // Exact integer comparisons: violations/window >= threshold/1000
        // cross-multiplied. The reported per-mille value rounds down.
        let condition = fast_viol * 1000 >= spec.fast_burn_pm * spec.fast
            && slow_viol * 1000 >= spec.slow_burn_pm * spec.slow;
        self.last_burn_fast_pm = fast_viol * 1000 / spec.fast;
        self.last_burn_slow_pm = slow_viol * 1000 / spec.slow;
        let before = self.state();
        let mut fired = false;
        let mut resolved = false;
        if condition {
            self.consecutive += 1;
            if before == AlertState::Firing {
                self.firing_windows += 1;
            } else if self.consecutive >= spec.pending {
                self.state = Some(AlertState::Firing);
                self.firing_windows = 1;
                self.fires += 1;
                fired = true;
            } else {
                self.state = Some(AlertState::Pending);
            }
        } else {
            self.consecutive = 0;
            if before == AlertState::Firing {
                resolved = true;
                self.resolves += 1;
            }
            self.state = Some(AlertState::Inactive);
        }
        Transition {
            state: self.state(),
            fired,
            resolved,
            burn_fast_pm: self.last_burn_fast_pm,
            burn_slow_pm: self.last_burn_slow_pm,
            firing_windows: self.firing_windows,
        }
    }
}

struct Engine {
    entries: Vec<(SloSpec, BurnTracker)>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ENGINE: Mutex<Option<Engine>> = Mutex::new(None);
/// Serializes [`with_specs`] sections so concurrent tests in one binary
/// cannot re-arm the process-global engine under each other.
static SPEC_LOCK: Mutex<()> = Mutex::new(());

fn lock_engine() -> MutexGuard<'static, Option<Engine>> {
    ENGINE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Whether an SLO spec set is installed (one relaxed load — the guard the
/// flush path checks before doing any work).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Install `specs`, replacing any previous set and resetting all rolling
/// state. Specs are evaluated (and emitted) in name order regardless of
/// input order.
pub fn install(specs: Vec<SloSpec>) {
    let mut entries: Vec<(SloSpec, BurnTracker)> =
        specs.into_iter().map(|s| (s, BurnTracker::new())).collect();
    entries.sort_by(|a, b| a.0.name.cmp(&b.0.name));
    let any = !entries.is_empty();
    *lock_engine() = Some(Engine { entries });
    ARMED.store(any, Ordering::Release);
}

/// Disarm the engine; the flush path returns to its no-op fast path.
pub fn uninstall() {
    ARMED.store(false, Ordering::Release);
    *lock_engine() = None;
}

/// Run `f` with `specs` installed, uninstalling afterwards (also on
/// panic). Serializes with every other `with_specs` in the process, so
/// concurrent tests cannot interleave their spec sets.
pub fn with_specs<T>(specs: Vec<SloSpec>, f: impl FnOnce() -> T) -> T {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            uninstall();
        }
    }
    let _serial = SPEC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    install(specs);
    let _guard = Disarm;
    f()
}

/// Reset every tracker's rolling state (keeping the installed specs) —
/// called at trace start so each trace's alert trajectory starts clean
/// and same-seed reruns stay byte-identical.
pub(crate) fn reset_run() {
    if let Some(engine) = lock_engine().as_mut() {
        for (_, tracker) in &mut engine.entries {
            *tracker = BurnTracker::new();
        }
    }
}

/// Evaluate every armed spec against the windows that just closed and
/// emit `slo.state` / `alert.*` records. Called by the trace layer right
/// after the `metrics.window` records of window `window` (serial code, by
/// the flush contract), with `drained` sorted by series name.
pub(crate) fn evaluate_window(window: u64, tick: u64, drained: &[(String, WindowAgg)]) {
    if !armed() {
        return;
    }
    let mut guard = lock_engine();
    let Some(engine) = guard.as_mut() else {
        return;
    };
    for (spec, tracker) in &mut engine.entries {
        let Some((_, agg)) = drained.iter().find(|(name, _)| *name == spec.series) else {
            continue;
        };
        let stats = WindowStats::from_agg(agg);
        let value = spec.stat.of(&stats);
        let ok = spec.op.ok(value, spec.target);
        let t = tracker.observe(spec, ok);
        crate::trace::emit(
            SLO_STATE,
            vec![
                ("slo", Value::Str(spec.name.clone())),
                ("series", Value::Str(spec.series.clone())),
                ("window", Value::U64(window)),
                ("tick", Value::U64(tick)),
                ("value", Value::F64(value)),
                ("ok", Value::Bool(ok)),
                ("burn_fast_pm", Value::U64(t.burn_fast_pm)),
                ("burn_slow_pm", Value::U64(t.burn_slow_pm)),
                ("state", Value::Str(t.state.slug().to_string())),
            ],
        );
        if t.fired {
            crate::trace::emit(
                ALERT_FIRE,
                vec![
                    ("slo", Value::Str(spec.name.clone())),
                    ("window", Value::U64(window)),
                    ("tick", Value::U64(tick)),
                    ("value", Value::F64(value)),
                    ("burn_fast_pm", Value::U64(t.burn_fast_pm)),
                    ("burn_slow_pm", Value::U64(t.burn_slow_pm)),
                ],
            );
        }
        if t.resolved {
            crate::trace::emit(
                ALERT_RESOLVE,
                vec![
                    ("slo", Value::Str(spec.name.clone())),
                    ("window", Value::U64(window)),
                    ("tick", Value::U64(tick)),
                    ("firing_windows", Value::U64(t.firing_windows)),
                ],
            );
        }
    }
}

/// Names of the SLOs currently firing, sorted (empty when disarmed).
pub fn firing() -> Vec<String> {
    lock_engine()
        .as_ref()
        .map(|e| {
            e.entries
                .iter()
                .filter(|(_, t)| t.state() == AlertState::Firing)
                .map(|(s, _)| s.name.clone())
                .collect()
        })
        .unwrap_or_default()
}

/// The firing SLO names joined with `,` — the `alerts` annotation the
/// adaptation layer stamps on `config.switch` / `gate.resize` records.
pub fn firing_csv() -> String {
    firing().join(",")
}

/// Render the deterministic Prometheus-style text exposition
/// (`experiments --health-out`): one gauge and six counters per
/// SLO, sorted by name, integer-valued throughout — equal engine state
/// yields equal bytes.
pub fn render_health() -> String {
    let guard = lock_engine();
    let Some(engine) = guard.as_ref().filter(|_| armed()) else {
        return "# proteus-slo: engine disarmed (no specs installed)\n".to_string();
    };
    let mut out = String::new();
    let mut metric = |name: &str, help: &str, kind: &str, value: &dyn Fn(&BurnTracker) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (spec, tracker) in &engine.entries {
            let _ = writeln!(out, "{name}{{slo=\"{}\"}} {}", spec.name, value(tracker));
        }
    };
    metric(
        "proteus_slo_state",
        "Alert state of the SLO (0=inactive, 1=pending, 2=firing).",
        "gauge",
        &|t| t.state().code(),
    );
    metric(
        "proteus_slo_windows_total",
        "Flight-recorder windows evaluated against the SLO.",
        "counter",
        &|t| t.windows(),
    );
    metric(
        "proteus_slo_violations_total",
        "Evaluated windows that violated the SLO target.",
        "counter",
        &|t| t.violations(),
    );
    metric(
        "proteus_slo_burn_fast_permille",
        "Latest fast-window burn rate, per mille of the fast window.",
        "gauge",
        &|t| t.burn_fast_pm(),
    );
    metric(
        "proteus_slo_burn_slow_permille",
        "Latest slow-window burn rate, per mille of the slow window.",
        "gauge",
        &|t| t.burn_slow_pm(),
    );
    metric(
        "proteus_alert_fires_total",
        "pending->firing transitions since the trace started.",
        "counter",
        &|t| t.fires(),
    );
    metric(
        "proteus_alert_resolves_total",
        "firing->resolved transitions since the trace started.",
        "counter",
        &|t| t.resolves(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, series: &str) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            series: series.to_string(),
            stat: Stat::Mean,
            op: Op::AtMost,
            target: 0.5,
            fast: 2,
            slow: 4,
            fast_burn_pm: 500,
            slow_burn_pm: 250,
            pending: 1,
        }
    }

    #[test]
    fn default_specs_parse_and_cover_the_five_objectives() {
        let specs = default_specs();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "goodput",
                "abort_rate",
                "commit_latency_p99",
                "switch_latency",
                "recovery"
            ]
        );
        let recovery = &specs[4];
        assert_eq!(recovery.series, "recovery.success");
        assert_eq!(recovery.stat, Stat::Min);
        assert_eq!(recovery.op, Op::AtLeast);
        assert!(specs.iter().all(|s| s.slow >= s.fast));
    }

    #[test]
    fn grammar_rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("x", "token(s)"),
            ("a s mean >= nope fast=1 slow=1 burn=1/1", "finite number"),
            ("a s p42 >= 1 fast=1 slow=1 burn=1/1", "unknown stat"),
            ("a s mean == 1 fast=1 slow=1 burn=1/1", "unknown op"),
            ("a s mean >= 1 slow=1 burn=1/1", "missing fast"),
            ("a s mean >= 1 fast=1 burn=1/1", "missing slow"),
            ("a s mean >= 1 fast=1 slow=1", "missing burn"),
            ("a s mean >= 1 fast=4 slow=2 burn=1/1", "at least the fast"),
            ("a s mean >= 1 fast=0 slow=2 burn=1/1", "positive integer"),
            ("a s mean >= 1 fast=1 slow=2 burn=0/1", "per mille"),
            ("a s mean >= 1 fast=1 slow=2 burn=1/2000", "per mille"),
            ("a s mean >= 1 fast=1 slow=2 burn=11", "burn=FPM/SPM"),
            (
                "a s mean >= 1 fast=1 slow=2 burn=1/1 bogus=3",
                "unknown token",
            ),
            (
                "a s mean >= 1 fast=1 slow=2 burn=1/1\na t min <= 0 fast=1 slow=1 burn=1/1",
                "duplicate",
            ),
        ] {
            let err = parse_specs(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: expected {needle:?} in {err}"
            );
        }
        // The duplicate error points at the second line.
        let err = parse_specs(
            "a s mean >= 1 fast=1 slow=2 burn=1/1\na t min <= 0 fast=1 slow=1 burn=1/1",
        )
        .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let specs = parse_specs(
            "# heading\n\n  demo test.s mean <= 0.5 fast=2 slow=4 burn=500/250 # inline\n",
        )
        .unwrap();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "demo");
        assert_eq!(specs[0].pending, 1, "pending defaults to 1");
    }

    #[test]
    fn stats_extract_the_documented_aggregates() {
        let w = WindowStats::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(Stat::Mean.of(&w), 2.0);
        assert_eq!(Stat::Min.of(&w), 1.0);
        assert_eq!(Stat::Max.of(&w), 3.0);
        assert_eq!(Stat::Last.of(&w), 2.0);
        assert_eq!(Stat::Count.of(&w), 3.0);
        assert!(WindowStats::from_samples(&[]).is_none());
    }

    #[test]
    fn tracker_fires_after_pending_and_resolves_when_fast_clears() {
        let mut s = spec("a", "s");
        s.pending = 2;
        let mut t = BurnTracker::new();
        // Healthy windows: inactive, burn 0.
        for _ in 0..3 {
            let tr = t.observe(&s, true);
            assert_eq!(tr.state, AlertState::Inactive);
            assert_eq!((tr.burn_fast_pm, tr.burn_slow_pm), (0, 0));
        }
        // First violating window: condition holds (1/2 fast = 500pm,
        // 1/4 slow = 250pm) but pending=2 keeps it pending.
        let tr = t.observe(&s, false);
        assert_eq!(tr.state, AlertState::Pending);
        assert!(!tr.fired);
        // Second: fires.
        let tr = t.observe(&s, false);
        assert_eq!(tr.state, AlertState::Firing);
        assert!(tr.fired);
        assert_eq!(t.fires(), 1);
        // One healthy window: fast window still half-violating, stays
        // firing (2 violations among last 4 slow ≥ 250pm; 1 of last 2
        // fast = 500pm ≥ 500pm).
        let tr = t.observe(&s, true);
        assert_eq!(tr.state, AlertState::Firing);
        assert!(!tr.resolved);
        // Second healthy window clears the fast window: resolves.
        let tr = t.observe(&s, true);
        assert!(tr.resolved);
        assert_eq!(tr.state, AlertState::Inactive);
        assert_eq!(tr.firing_windows, 2);
        assert_eq!(t.resolves(), 1);
    }

    #[test]
    fn tracker_is_a_pure_fold() {
        let s = spec("a", "s");
        let verdicts = [true, false, false, true, false, true, true, true, false];
        let run = || {
            let mut t = BurnTracker::new();
            verdicts
                .iter()
                .map(|&ok| t.observe(&s, ok))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same verdicts, same trajectory");
    }

    #[test]
    fn engine_emits_state_and_alert_records_deterministically() {
        let run = || {
            crate::capture_trace(|| {
                let series = crate::ts_series("test.slo.engine");
                for window in 0..4 {
                    for _ in 0..crate::TICKS_PER_WINDOW {
                        series.record(if window >= 1 { 1.0 } else { 0.0 });
                        crate::ts_tick();
                    }
                }
            })
            .1
        };
        with_specs(vec![spec("demo", "test.slo.engine")], || {
            let a = run();
            let b = run();
            assert_eq!(a, b, "slo records must be byte-stable across reruns");
            if !crate::telemetry_compiled() {
                return;
            }
            let text = String::from_utf8(a).unwrap();
            let states: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("\"kind\":\"slo.state\""))
                .collect();
            assert_eq!(states.len(), 4, "one evaluation per closed window: {text}");
            assert!(
                states[0].contains("\"ok\":true") && states[0].contains("\"state\":\"inactive\"")
            );
            assert!(
                states[1].contains("\"ok\":false") && states[1].contains("\"state\":\"firing\"")
            );
            assert!(states[1].contains("\"burn_fast_pm\":500"));
            let fires: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("\"kind\":\"alert.fire\""))
                .collect();
            assert_eq!(fires.len(), 1, "{text}");
            assert!(fires[0].contains("\"slo\":\"demo\""));
            assert!(fires[0].contains("\"window\":1"));
            assert!(
                !text.contains("alert.resolve"),
                "storm never clears in this run: {text}"
            );
            // The state record rides after its window's metrics.window
            // records.
            let w1 = text.find("\"window\":1,\"tick\":16").unwrap();
            let s1 = text.find(states[1]).unwrap();
            assert!(s1 > w1, "slo.state follows the window it judges");
        });
    }

    #[test]
    fn disarmed_engine_emits_nothing_and_health_says_so() {
        // Empty spec set == disarmed; with_specs still holds the spec
        // lock so concurrent tests cannot arm the engine underneath us.
        with_specs(vec![], || {
            let ((), bytes) = crate::capture_trace(|| {
                let series = crate::ts_series("test.slo.disarmed");
                series.record(1.0);
                crate::ts_tick();
            });
            let text = String::from_utf8(bytes).unwrap();
            assert!(!text.contains("slo.state"), "{text}");
            assert!(render_health().contains("disarmed"));
            assert!(firing().is_empty(), "disarmed engine reports no alerts");
        });
    }

    #[test]
    fn health_exposition_is_deterministic_and_integer_valued() {
        with_specs(
            vec![spec("beta", "test.slo.h2"), spec("alpha", "test.slo.h1")],
            || {
                let ((), _) = crate::capture_trace(|| {
                    for _ in 0..crate::TICKS_PER_WINDOW {
                        crate::ts_series("test.slo.h1").record(9.0);
                        crate::ts_tick();
                    }
                });
                let a = render_health();
                assert_eq!(a, render_health(), "pure function of engine state");
                // Sorted by SLO name, alpha before beta.
                let alpha = a.find("proteus_slo_state{slo=\"alpha\"}").unwrap();
                let beta = a.find("proteus_slo_state{slo=\"beta\"}").unwrap();
                assert!(alpha < beta);
                if crate::telemetry_compiled() {
                    assert!(
                        a.contains("proteus_slo_windows_total{slo=\"alpha\"} 1"),
                        "{a}"
                    );
                    assert!(
                        a.contains("proteus_slo_violations_total{slo=\"alpha\"} 1"),
                        "{a}"
                    );
                    assert!(
                        a.contains("proteus_alert_fires_total{slo=\"alpha\"} 1"),
                        "{a}"
                    );
                }
                assert!(a.contains("proteus_slo_windows_total{slo=\"beta\"} 0"));
                // Integer-valued throughout: no '.' outside comments.
                for line in a.lines().filter(|l| !l.starts_with('#')) {
                    let value = line.rsplit(' ').next().unwrap();
                    assert!(
                        value.parse::<u64>().is_ok(),
                        "non-integer exposition value in {line:?}"
                    );
                }
            },
        );
    }

    #[test]
    fn firing_names_surface_for_switch_annotation() {
        with_specs(
            vec![
                spec("hot", "test.slo.firing"),
                spec("calm", "test.slo.other"),
            ],
            || {
                let ((), _) = crate::capture_trace(|| {
                    for _ in 0..crate::TICKS_PER_WINDOW {
                        crate::ts_series("test.slo.firing").record(2.0);
                        crate::ts_tick();
                    }
                    if crate::telemetry_compiled() {
                        assert_eq!(firing(), vec!["hot".to_string()]);
                        assert_eq!(firing_csv(), "hot");
                    }
                });
            },
        );
    }

    #[test]
    fn trace_start_resets_rolling_state() {
        with_specs(vec![spec("r", "test.slo.reset")], || {
            let storm = || {
                crate::capture_trace(|| {
                    for _ in 0..crate::TICKS_PER_WINDOW {
                        crate::ts_series("test.slo.reset").record(1.0);
                        crate::ts_tick();
                    }
                })
                .1
            };
            let a = storm();
            // Without the reset, the second trace would start with the
            // ring already violating and skip the fire transition.
            let b = storm();
            assert_eq!(a, b, "each trace starts from a clean tracker");
        });
    }
}
