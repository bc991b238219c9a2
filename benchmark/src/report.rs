//! Filing what a run measured under the metric names of `BENCHMARK.json`.

use crate::spec::{valid_name, MetricDecl};
use crate::stats::{median, percentile, summarize, Summary};
use crate::world::{layer, slug};
use crate::{probes, storm, tm, tuner};
use polytm::BackendId;
use txcore::AbortCode;

/// Probe series under this prefix are the bare envelope: context for the
/// reader (`over_bare + bare = empty_tx`), not a layer metric.
pub const BARE_PREFIX: &str = "bare_tx_ref.";

/// Everything one run measured, before it is filed under metric names.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub tm: tm::TmOutcome,
    pub storm: storm::StormOutcome,
    pub tuner: tuner::TunerOutcome,
    pub probes: probes::Series,
    pub peak_rss_mb: f64,
}

pub type Metrics = Vec<(String, Summary)>;

fn put(out: &mut Metrics, name: impl Into<String>, summary: Summary) {
    out.push((name.into(), summary));
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

pub fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::new();
    for (b, s) in &m.tm.series {
        put(
            &mut out,
            format!("tx_per_kref.{}", slug(*b)),
            summarize(&s.tx_per_kref),
        );
    }
    // The default configuration, TL2, is the first backend of every plan.
    let tl2 = &m.tm.series[0].1;
    let decisions = m.tuner.dfo_pct.len();
    put(&mut out, "tx_p95_ref", summarize(&tl2.p95_ref));
    put(
        &mut out,
        "switch_idle_ref",
        summarize(&m.storm.idle_p50_ref),
    );
    put(&mut out, "fit_mref", summarize(&m.tuner.fit_mref));
    // One decision = one exploration step (timed, median over slices) times
    // the explorations a decision takes (exact mean over the run).
    let steps = mean(&m.tuner.explorations);
    let step = summarize(&m.tuner.step_kref);
    put(
        &mut out,
        "decide_kref",
        Summary {
            median: step.median * steps,
            q1: step.q1 * steps,
            q3: step.q3 * steps,
            n: step.n,
        },
    );
    put(
        &mut out,
        "dfo_pct",
        Summary::exact(mean(&m.tuner.dfo_pct), decisions),
    );
    put(
        &mut out,
        "explorations",
        Summary::exact(mean(&m.tuner.explorations), decisions),
    );
    put(&mut out, "peak_rss_mb", Summary::exact(m.peak_rss_mb, 1));
    // A set-up is raw wall time and too short to average interference out:
    // in a noisy regime of this host the median set-up took a third longer
    // while the fastest hardly moved. Interference only ever adds time, so
    // the fastest of the run's set-ups is reported; the upper quartile of
    // them all stays beside it to show how noisy the run was.
    let all = summarize(&m.setup_s);
    let fastest = m.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    put(
        &mut out,
        "setup_s",
        Summary {
            median: fastest,
            q1: fastest,
            ..all
        },
    );
    out
}

/// `benchmark.trace_overhead_pct`: how much slower the rounds that recorded
/// spans ran than the rounds that did not, averaged over the backends.
fn trace_overhead_pct(tm: &tm::TmOutcome) -> f64 {
    let per_backend: Vec<f64> = tm
        .series
        .iter()
        .filter_map(|(_, s)| {
            let pick = |traced: bool| -> Vec<f64> {
                s.tx_per_kref
                    .iter()
                    .zip(&s.traced)
                    .filter(|(_, t)| **t == traced)
                    .map(|(v, _)| *v)
                    .collect()
            };
            let (on, off) = (pick(true), pick(false));
            (!on.is_empty() && !off.is_empty())
                .then(|| (median(&off) - median(&on)) / median(&off) * 100.0)
        })
        .collect();
    if per_backend.is_empty() {
        0.0
    } else {
        mean(&per_backend)
    }
}

pub fn per_layer(m: &Measured) -> Metrics {
    let mut out = Metrics::new();
    for (name, values) in &m.probes {
        if !name.starts_with(BARE_PREFIX) {
            put(&mut out, name.as_str(), summarize(values));
        }
    }
    let (mut commits, mut reads, mut writes) = (0, 0, 0);
    // The application's own allocations: over the volatile backends only,
    // because the durable one allocates for its redo log at every commit.
    let (mut volatile_commits, mut volatile_allocs) = (0, 0);
    for (b, s) in &m.tm.series {
        let (l, n) = (layer(*b), slug(*b));
        let per_ktx = |events: u64| {
            Summary::exact(
                events as f64 * 1000.0 / s.stats.commits.max(1) as f64,
                s.tx_per_kref.len(),
            )
        };
        put(
            &mut out,
            format!("{l}.{n}.aborts_per_ktx"),
            per_ktx(s.stats.total_aborts()),
        );
        if b.is_hardware() {
            put(
                &mut out,
                format!("htm.{n}.fallback_per_ktx"),
                per_ktx(s.stats.fallback_commits),
            );
            put(
                &mut out,
                format!("htm.{n}.capacity_per_ktx"),
                per_ktx(s.stats.aborts_of(AbortCode::Capacity)),
            );
        }
        put(
            &mut out,
            format!("{l}.{n}.tx_p99_ref"),
            summarize(&s.p99_ref),
        );
        put(
            &mut out,
            format!("benchmark.tx_per_s.{n}"),
            summarize(&s.tx_per_s),
        );
        if *b == BackendId::Durable {
            put(
                &mut out,
                "stm.durable.tx_per_kref",
                summarize(&s.tx_per_kref),
            );
        } else {
            volatile_commits += s.stats.commits;
            volatile_allocs += s.allocs;
        }
        commits += s.stats.commits;
        reads += s.stats.committed_reads;
        writes += s.stats.committed_writes;
    }
    let slices = m.tm.ref_ns.len();
    let per = |events: u64, base: u64, scale: f64| {
        Summary::exact(events as f64 * scale / base.max(1) as f64, slices)
    };
    put(
        &mut out,
        "polytm.serial_escapes_per_mtx",
        per(m.tm.serial_escapes, commits, 1e6),
    );
    put(&mut out, "apps.reads_per_tx", per(reads, commits, 1.0));
    put(&mut out, "apps.writes_per_tx", per(writes, commits, 1.0));
    put(
        &mut out,
        "apps.allocs_per_ktx",
        per(volatile_allocs, volatile_commits, 1000.0),
    );

    let storm = &m.storm;
    put(
        &mut out,
        "polytm.switch_p50_ref",
        summarize(&storm.load_p50_ref),
    );
    put(
        &mut out,
        "polytm.switch_p95_ref",
        summarize(&storm.load_p95_ref),
    );
    put(
        &mut out,
        "polytm.storm_tx_per_kref",
        summarize(&storm.tx_per_kref),
    );
    put(
        &mut out,
        "polytm.switch_errors",
        Summary::exact(storm.errors as f64, storm.load_p95_ref.len()),
    );

    let t = &m.tuner;
    let p = t.pieces.as_ref().expect("a traced run times the pieces");
    put(
        &mut out,
        "tmsim.matrix_build_kref",
        summarize(&p.matrix_build_kref),
    );
    put(&mut out, "recsys.tune_cf_kref", summarize(&p.tune_cf_kref));
    put(
        &mut out,
        "rectm.recommender_fit_kref",
        summarize(&p.recommender_fit_kref),
    );
    put(
        &mut out,
        "rectm.controller_fit_kref",
        summarize(&p.controller_fit_kref),
    );
    put(
        &mut out,
        "rectm.offline_residual_pct",
        Summary::exact(tuner::offline_residual_pct(t), t.fit_mref.len()),
    );
    put(
        &mut out,
        "rectm.recommend_kref",
        summarize(&p.recommend_kref),
    );
    put(
        &mut out,
        "rectm.monitor_observe_ref",
        summarize(&p.monitor_observe_ref),
    );
    put(&mut out, "smbo.ei_ref", summarize(&p.ei_ref));
    // Tails of the exact quality numbers, over every decision of the run.
    let decisions = t.dfo_pct.len();
    let tail = |v: &[f64], p: f64| Summary::exact(percentile(&mut v.to_vec(), p), decisions);
    put(
        &mut out,
        "rectm.explorations_p95",
        tail(&t.explorations, 95.0),
    );
    put(&mut out, "rectm.dfo_p95_pct", tail(&t.dfo_pct, 95.0));
    put(&mut out, "rectm.dfo_max_pct", tail(&t.dfo_pct, 100.0));

    let reference = summarize(&m.tm.ref_ns);
    put(&mut out, "benchmark.ref_ns", reference);
    put(
        &mut out,
        "benchmark.ref_spread_pct",
        Summary::exact(reference.spread() * 100.0, slices),
    );
    put(
        &mut out,
        "benchmark.trace_overhead_pct",
        Summary::exact(trace_overhead_pct(&m.tm), slices),
    );
    out
}

/// The emitted names must be exactly the declared names, each well formed.
pub fn check_names(emitted: &Metrics, declared: &[MetricDecl]) -> Result<(), String> {
    let mut have: Vec<&str> = emitted.iter().map(|(n, _)| n.as_str()).collect();
    let mut want: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    have.sort_unstable();
    want.sort_unstable();
    if let Some(bad) = have.iter().find(|n| !valid_name(n)) {
        return Err(format!("metric name {bad:?} is not [A-Za-z0-9_.-]+"));
    }
    if have != want {
        let missing: Vec<_> = want.iter().filter(|n| !have.contains(n)).collect();
        let extra: Vec<_> = have.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "emitted metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_must_equal_the_declared_set() {
        let decl = |name: &str| MetricDecl {
            name: name.into(),
            unit: "ref".into(),
            higher_is_better: false,
            bound: None,
        };
        let declared = [decl("a.x"), decl("b")];
        let emit = |names: &[&str]| -> Metrics {
            names
                .iter()
                .map(|n| (n.to_string(), Summary::exact(1.0, 1)))
                .collect()
        };
        assert!(check_names(&emit(&["b", "a.x"]), &declared).is_ok());
        let missing = check_names(&emit(&["b"]), &declared).unwrap_err();
        assert!(missing.contains("missing [\"a.x\"]"), "{missing}");
        let extra = check_names(&emit(&["b", "a.x", "c"]), &declared).unwrap_err();
        assert!(extra.contains("undeclared [\"c\"]"), "{extra}");
        assert!(check_names(&emit(&["b", "a x"]), &declared).is_err());
    }
}
