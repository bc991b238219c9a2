//! Golden net over every `proteus-trace` view.
//!
//! `fixtures/all_sections.jsonl` is a hand-written trace that reaches every
//! section of every view; `fixtures/all_sections_drift.jsonl` is the same
//! trace with one drifted window, one drifted counter and one diverging
//! record. The files under `golden/` are what the binary printed for them
//! when the fixtures were written, re-recorded only where a view's output
//! changes on purpose — a refactor of the analyzer must reproduce them byte
//! for byte.

use std::process::Command;

fn path(rel: &str) -> String {
    format!("{}/tests/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn every_view_prints_its_golden_bytes() {
    let (a, b) = (
        path("fixtures/all_sections.jsonl"),
        path("fixtures/all_sections_drift.jsonl"),
    );
    let cases: [(&str, &[&str], i32); 9] = [
        ("report.txt", &["report", &a], 0),
        ("report.json", &["report", &a, "--json"], 0),
        ("perf.txt", &["perf", &a], 0),
        ("perf_diff_self.txt", &["perf-diff", &a, &a], 0),
        ("perf_diff_drift.txt", &["perf-diff", &a, &b], 1),
        ("diff_self.txt", &["diff", &a, &a], 0),
        ("diff_drift.txt", &["diff", &a, &b], 1),
        ("conflicts.txt", &["conflicts", &a], 0),
        ("conflicts.json", &["conflicts", &a, "--json"], 0),
    ];
    for (golden, args, code) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(code), "{golden}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            read(&format!("golden/{golden}")),
            "{golden} drifted"
        );
    }
}
