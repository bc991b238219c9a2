//! Golden net over every `proteus-trace` view.
//!
//! `fixtures/all_sections.jsonl` is a hand-written trace that reaches every
//! section of every view. The files under `golden/` are what the binary
//! printed for it when the fixture was written, re-recorded only where a
//! view's output changes on purpose — a refactor of the analyzer must
//! reproduce them byte for byte.

use std::process::Command;

fn path(rel: &str) -> String {
    format!("{}/tests/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn every_view_prints_its_golden_bytes() {
    let a = path("fixtures/all_sections.jsonl");
    for view in ["report", "conflicts"] {
        let golden = format!("{view}.txt");
        let out = Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
            .args([view, a.as_str()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{golden}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            read(&format!("golden/{golden}")),
            "{golden} drifted"
        );
    }
}
