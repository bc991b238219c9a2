//! Golden fixture for the on-line figures: the stdout of
//! `experiments fig8 fig9`, byte-exact.
//!
//! Both figures run the on-line loop (Algorithm 2) on the analytical model
//! with fixed seeds and no wall clock, so every row is deterministic. Any
//! change to the loop, the Monitor, the Controller or the render format
//! shows up here as a reviewable diff. Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p bench --test figures
//! ```

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
