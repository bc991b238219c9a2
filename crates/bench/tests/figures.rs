//! Golden fixtures for the figures: the stdout of `experiments`, byte-exact.
//!
//! Every figure here is deterministic: the off-line figures (Table 2/3,
//! Figs. 1 and 4–7) fold their per-workload work in a fixed order at any
//! `--jobs`, and the on-line figures (8 and 9) run Algorithm 2 on the
//! analytical model with fixed seeds and no wall clock. Each printed number
//! has this one exact gate; any change to the model, the recommender, the
//! loop or the render format shows up here as a reviewable diff.
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bench --test figures
//! ```
//!
//! and run the test again without the variable: a golden checked at two
//! job counts is rewritten by the last one, so only that second run
//! compares them.

use std::path::Path;
use std::process::Command;

fn check_stdout(args: &[&str], name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary");
    assert!(out.status.success(), "experiments {args:?} failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "experiments {args:?} drifted from {name}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn fig8_and_fig9_match_golden() {
    check_stdout(&["fig8", "fig9"], "fig8_fig9.txt");
}

#[test]
fn table23_and_fig1_match_golden() {
    check_stdout(&["table23", "fig1"], "table23_fig1.txt");
}

/// The learning figures fan their per-workload evaluation out on the parx
/// pool, so one golden at two job counts is also their cross-`--jobs`
/// byte comparison.
#[test]
fn quick_fig4_fig5_fig6_match_golden_at_jobs_1_and_4() {
    for jobs in ["1", "4"] {
        let args = ["--quick", "--jobs", jobs, "fig4", "fig5", "fig6"];
        check_stdout(&args, "quick_fig4_fig5_fig6.txt");
    }
}

#[test]
fn quick_fig7_matches_golden() {
    check_stdout(&["--quick", "--jobs", "4", "fig7"], "quick_fig7.txt");
}
