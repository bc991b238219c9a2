//! Fault plans: what to inject, where, how often — and their JSON form.
//!
//! A plan is the unit of reproducibility: the same plan (same seed)
//! replays the same fault schedule byte-for-byte. Plans are built in code
//! (tests) or parsed from the JSON accepted by `experiments --faults
//! <plan.json>`:
//!
//! ```json
//! {
//!   "seed": 42,
//!   "htm_spurious":  {"probability": 0.01, "after": 100, "max_fires": 50},
//!   "gate_stall":    {"probability": 0.002, "stall_ms": 5},
//!   "switch_apply":  {"probability": 0.2},
//!   "kpi_corrupt":   {"probability": 0.05},
//!   "adapter_panic": {"probability": 0.1},
//!   "crash_point":   {"probability": 1, "after": 17, "max_fires": 1}
//! }
//! ```
//!
//! The parser is a tiny recursive-descent reader for exactly this shape
//! (an object of numbers and one-level site objects) — the offline build
//! environment has no JSON dependency to lean on.

use crate::Site;
use std::fmt;

/// Per-site injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that one occurrence fires, in `[0, 1]`.
    pub probability: f64,
    /// Occurrences to skip before the probability applies (trigger-after-N).
    pub after: u64,
    /// Cap on total fires (`u64::MAX` = unlimited).
    pub max_fires: u64,
    /// Stall duration for stall-type sites, in milliseconds.
    pub stall_ms: u64,
}

impl FaultSpec {
    /// A spec firing every occurrence.
    pub fn always() -> Self {
        Self::with_probability(1.0)
    }

    /// A spec firing each occurrence with probability `p`.
    pub fn with_probability(p: f64) -> Self {
        FaultSpec {
            probability: p,
            after: 0,
            max_fires: u64::MAX,
            stall_ms: 0,
        }
    }

    /// Skip the first `n` occurrences.
    pub fn skip_first(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fire at most `n` times.
    pub fn fires(mut self, n: u64) -> Self {
        self.max_fires = n;
        self
    }

    /// Stall for `ms` milliseconds when firing (stall sites only).
    pub fn stall(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }
}

/// A full fault plan: one seed plus per-site specs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every site derives its decision stream from it.
    pub seed: u64,
    specs: [Option<FaultSpec>; Site::ALL.len()],
}

impl FaultPlan {
    /// An empty plan (no site enabled) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: [None; Site::ALL.len()],
        }
    }

    /// Enable `site` with `spec`.
    pub fn with(mut self, site: Site, spec: FaultSpec) -> Self {
        self.specs[site.index()] = Some(spec);
        self
    }

    /// The spec for `site`, if enabled.
    pub fn spec(&self, site: Site) -> Option<FaultSpec> {
        self.specs[site.index()]
    }

    /// Whether any site is enabled.
    pub fn any_enabled(&self) -> bool {
        self.specs.iter().any(|s| s.is_some())
    }

    /// Parse the JSON plan format (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`PlanParseError`] describing the first malformed token,
    /// unknown key, or out-of-range value.
    pub fn parse_json(text: &str) -> Result<FaultPlan, PlanParseError> {
        Parser::new(text).parse_plan()
    }
}

/// Why a plan failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    /// Human-readable description, with byte offset where applicable.
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl std::error::Error for PlanParseError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> PlanParseError {
        PlanParseError {
            message: format!("{} (at byte {})", message.into(), self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), PlanParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn string(&mut self) -> Result<&'a str, PlanParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b'"' {
                let s = &self.text[start..self.pos];
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err(self.err("escape sequences are not supported in plan keys"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<f64, PlanParseError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| self.err("expected a number"))
    }

    fn integer_field(&mut self, key: &str) -> Result<u64, PlanParseError> {
        let v = self.number()?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(self.err(format!("\"{key}\" must be a non-negative integer")));
        }
        Ok(v as u64)
    }

    fn site_spec(&mut self, site: Site) -> Result<FaultSpec, PlanParseError> {
        self.expect(b'{')?;
        let mut spec = FaultSpec::with_probability(0.0);
        let mut first = true;
        while self.peek() != Some(b'}') {
            if !first {
                self.expect(b',')?;
            }
            first = false;
            let key = self.string()?.to_string();
            self.expect(b':')?;
            match key.as_str() {
                "probability" => {
                    let p = self.number()?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(self.err("\"probability\" must be within [0, 1]"));
                    }
                    spec.probability = p;
                }
                "after" => spec.after = self.integer_field("after")?,
                "max_fires" => spec.max_fires = self.integer_field("max_fires")?,
                "stall_ms" => {
                    if site != Site::GateStall {
                        return Err(
                            self.err(format!("\"stall_ms\" is not valid for site \"{site}\""))
                        );
                    }
                    spec.stall_ms = self.integer_field("stall_ms")?;
                }
                other => return Err(self.err(format!("unknown spec key \"{other}\""))),
            }
        }
        self.expect(b'}')?;
        // A spec that can never fire is almost always a typo (a missing
        // "probability" key, "max_fires": 0, or an unreachable "after");
        // silently-inert entries would mask a mis-spelled plan, so they
        // are rejected up front.
        if spec.probability == 0.0 {
            return Err(self.err(format!(
                "site \"{site}\" needs a positive \"probability\" (a spec without one is inert)"
            )));
        }
        if spec.max_fires == 0 {
            return Err(self.err(format!(
                "\"max_fires\" for site \"{site}\" must be at least 1 (0 makes the spec inert)"
            )));
        }
        if spec.after == u64::MAX {
            return Err(self.err(format!(
                "\"after\" for site \"{site}\" is out of range (no occurrence can follow it)"
            )));
        }
        Ok(spec)
    }

    fn parse_plan(mut self) -> Result<FaultPlan, PlanParseError> {
        self.expect(b'{')?;
        let mut plan = FaultPlan::new(0);
        let mut first = true;
        while self.peek() != Some(b'}') {
            if !first {
                self.expect(b',')?;
            }
            first = false;
            let key = self.string()?.to_string();
            self.expect(b':')?;
            if key == "seed" {
                plan.seed = self.integer_field("seed")?;
                continue;
            }
            let site = Site::ALL
                .into_iter()
                .find(|s| s.slug() == key)
                .ok_or_else(|| self.err(format!("unknown site \"{key}\"")))?;
            let spec = self.site_spec(site)?;
            plan = plan.with(site, spec);
        }
        self.expect(b'}')?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing content after plan object"));
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse_json(
            r#"{
              "seed": 42,
              "htm_spurious":  {"probability": 0.01, "after": 100, "max_fires": 50},
              "gate_stall":    {"probability": 0.002, "stall_ms": 5},
              "switch_apply":  {"probability": 0.2},
              "kpi_corrupt":   {"probability": 0.05},
              "adapter_panic": {"probability": 0.1}
            }"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        let htm = plan.spec(Site::HtmSpurious).unwrap();
        assert_eq!(htm.probability, 0.01);
        assert_eq!(htm.after, 100);
        assert_eq!(htm.max_fires, 50);
        assert_eq!(plan.spec(Site::GateStall).unwrap().stall_ms, 5);
        assert_eq!(plan.spec(Site::SwitchApply).unwrap().max_fires, u64::MAX);
        assert!(plan.any_enabled());
    }

    #[test]
    fn empty_plan_enables_nothing() {
        let plan = FaultPlan::parse_json(r#"{"seed": 7}"#).unwrap();
        assert_eq!(plan.seed, 7);
        assert!(!plan.any_enabled());
        assert!(!FaultPlan::parse_json("{}").unwrap().any_enabled());
    }

    #[test]
    fn rejects_malformed_plans() {
        for (text, needle) in [
            ("", "expected '{'"),
            ("{", "expected '\"'"),
            (r#"{"seed": -1}"#, "non-negative"),
            (r#"{"seed": 1.5}"#, "non-negative"),
            (r#"{"bogus_site": {"probability": 0.5}}"#, "unknown site"),
            (r#"{"switch_apply": {"probability": 1.5}}"#, "within [0, 1]"),
            (r#"{"switch_apply": {"chance": 0.5}}"#, "unknown spec key"),
            (r#"{"switch_apply": {"stall_ms": 5}}"#, "not valid for site"),
            (r#"{"seed": 1} trailing"#, "trailing content"),
            // Silently-inert specs are typos until proven otherwise.
            (r#"{"switch_apply": {}}"#, "positive \"probability\""),
            (
                r#"{"crash_point": {"after": 3}}"#,
                "positive \"probability\"",
            ),
            (
                r#"{"switch_apply": {"probability": 1, "max_fires": 0}}"#,
                "at least 1",
            ),
            (
                r#"{"crash_point": {"probability": 1, "after": 18446744073709551615}}"#,
                "out of range",
            ),
        ] {
            let err = FaultPlan::parse_json(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "{text}: expected {needle:?} in {err}"
            );
        }
    }

    #[test]
    fn crash_point_parses_as_a_deterministic_kill() {
        let plan = FaultPlan::parse_json(
            r#"{"seed": 3, "crash_point": {"probability": 1, "after": 17, "max_fires": 1}}"#,
        )
        .unwrap();
        let spec = plan.spec(Site::CrashPoint).unwrap();
        assert_eq!(spec.probability, 1.0);
        assert_eq!(spec.after, 17);
        assert_eq!(spec.max_fires, 1);
    }

    #[test]
    fn builder_and_json_agree() {
        let parsed = FaultPlan::parse_json(
            r#"{"seed": 9, "kpi_corrupt": {"probability": 0.25, "after": 2, "max_fires": 3}}"#,
        )
        .unwrap();
        let built = FaultPlan::new(9).with(
            Site::KpiCorrupt,
            FaultSpec::with_probability(0.25).skip_first(2).fires(3),
        );
        assert_eq!(parsed, built);
    }
}
