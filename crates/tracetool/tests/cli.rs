//! Exit-code contract of the `proteus-trace` binary: missing/unknown
//! subcommands print the full usage block and exit 2, analysis failures
//! exit 1, and a trace without its trailer is a visible state — an
//! `INCOMPLETE` line under every view's banner.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_proteus-trace"))
}

fn complete_trace() -> String {
    let mut t = format!(
        "{{\"kind\":\"trace.meta\",\"schema\":{}}}\n",
        obs::SCHEMA_VERSION
    );
    t.push_str("{\"seq\":0,\"kind\":\"config.switch\",\"from\":\"TL2:8t\",\"to\":\"NOrec:4t\"}\n");
    t.push_str(
        "{\"seq\":1,\"kind\":\"obs.overhead\",\"subsystem\":\"total\",\"events\":1,\
         \"bytes\":10}\n",
    );
    t
}

fn tmp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("proteus_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.trim().strip_prefix("proteus-trace "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, ["report", "conflicts"], "{stderr}");
    let header = format!(
        "{{\"kind\":\"trace.meta\",\"schema\":{}}}",
        obs::SCHEMA_VERSION
    );
    assert!(
        stderr.contains(&header),
        "usage must name the schema: {stderr}"
    );
}

#[test]
fn unknown_subcommand_names_itself_and_exits_2() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown subcommand \"frobnicate\""),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    // These were subcommands once; now they are unknown like any other.
    for (sub, operands) in [
        ("watch", &["t.jsonl"][..]),
        ("diff", &["a.jsonl", "b.jsonl"]),
        ("perf-diff", &["a.jsonl", "b.jsonl"]),
        ("perf", &["t.jsonl"]),
    ] {
        let out = bin().arg(sub).args(operands).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let want = format!("unknown subcommand {sub:?}\nusage:");
        assert!(stderr.contains(&want), "{stderr}");
    }
}

#[test]
fn every_subcommand_rejects_missing_operands_with_2() {
    for sub in ["report", "conflicts"] {
        let out = bin().arg(sub).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sub} without operands");
    }
}

#[test]
fn unreadable_trace_exits_1() {
    // A missing file, an empty one, and one from an unknown schema.
    let empty = tmp("empty.jsonl", "");
    let future = tmp("future.jsonl", "{\"kind\":\"trace.meta\",\"schema\":999}\n");
    for path in [
        "/nonexistent/trace.jsonl",
        empty.to_str().unwrap(),
        future.to_str().unwrap(),
    ] {
        for sub in ["report", "conflicts"] {
            let out = bin().args([sub, path]).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{sub} on {path}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
        }
    }
    let _ = std::fs::remove_file(empty);
    let _ = std::fs::remove_file(future);
}

const WHOLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/all_sections.jsonl"
);

#[test]
fn a_trace_without_its_trailer_is_a_visible_state() {
    // The fixture cut after line 60 of 80: the writer "died" before the
    // counter dump and the `obs.overhead total` trailer.
    let text = std::fs::read_to_string(WHOLE).unwrap();
    let cut = tmp(
        "cut.jsonl",
        &text.split_inclusive('\n').take(60).collect::<String>(),
    );
    let cut = cut.to_str().unwrap();
    let stdout = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    for view in ["report", "conflicts"] {
        let text = stdout(&[view, cut]);
        let under_banner = text.lines().nth(1).unwrap();
        assert!(under_banner.starts_with("INCOMPLETE: no end-of-"), "{text}");
        assert!(!stdout(&[view, WHOLE]).contains("INCOMPLETE"), "{view}");
    }
    let _ = std::fs::remove_file(cut);
}

#[test]
fn a_gate_cannot_be_talked_out_of_failing() {
    // No view takes a flag: a threshold a caller could widen (`--noise`,
    // `--epsilon`) or a second output form (`--json`) is an operand too
    // many.
    let path = tmp("gate.jsonl", &complete_trace());
    let path = path.to_str().unwrap();
    for view in ["report", "conflicts"] {
        for flag in ["--noise", "--epsilon", "--json"] {
            let out = bin().args([view, path, flag, "0.1"]).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{view} {flag}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unexpected argument {flag:?}")),
                "{stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(path);
}
