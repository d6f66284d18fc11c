//! The `replay` binary's exit-code contract: 0 clean, 1 when a journal
//! divergence is found, 2 on usage or I/O errors — the workspace-wide
//! convention shared with `certify` and `lint`. `sweep`, `tables`,
//! `figures` and `perf` follow it too: every usage error exits 2, never
//! a fallback default or a panic, and `--help` exits 0 on stdout.

use std::process::Command;

fn replay(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .output()
        .expect("spawn replay");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[][..], // --snapshot is required
        &["--bogus"],
        &["--snapshot"],
        &["--snapshot", "x.snap", "--to", "notanumber"],
        &["--snapshot", "x.snap", "--watchdog", "0"],
    ] {
        let (code, _, stderr) = replay(args);
        assert_eq!(code, Some(2), "args {args:?}: {stderr}");
    }
}

#[test]
fn io_errors_exit_two() {
    let (code, _, stderr) = replay(&["--snapshot", "/nonexistent/ckpt.snap"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, _, stderr) = replay(&["--snapshot", "/nonexistent/ckpt.snap", "--diff", "j.txt"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn malformed_snapshot_exits_two() {
    let dir = std::env::temp_dir().join("fadr-replay-exit-codes");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("garbage.snap");
    std::fs::write(&path, "not a fadr-snapshot/1 document").expect("write");
    let (code, _, stderr) = replay(&["--snapshot", path.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(2), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn help_exits_zero() {
    let (code, stdout, _) = replay(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage: replay"), "{stdout}");
}

#[test]
fn sweep_usage_errors_exit_two() {
    // Each case carries a small `--n`/`--cycles` where it can, so a
    // build that wrongly accepts it finishes fast instead of sweeping.
    for args in [
        &[][..],
        &["bogus"],
        &["lambda", "--n", "abc", "--cycles", "1"],
        &["capacity", "--n", "3", "--table", "x"],
        &["lambda", "--n", "0", "--cycles", "1"],
        &["lambda", "--n", "40", "--cycles", "1"],
        &["capacity", "--n", "3", "--table", "99"],
        &["lambda", "--n", "3", "--cycles", "0"],
        &["lambda", "--n", "3", "--cycles", "1", "--jobs", "0"],
        &["lambda", "--n", "3", "--cycles", "1", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .output()
            .expect("spawn sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "args {args:?} printed output");
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
}

/// Run `bin` on each argument list and demand exit 2 with nothing on
/// stdout and no panic.
fn assert_usage_errors(bin: &str, cases: &[&[&str]]) {
    for args in cases {
        let out = Command::new(bin).args(*args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed output");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn tables_usage_errors_exit_two() {
    // Every case names one cheap table, so a build that wrongly accepts
    // it finishes fast instead of regenerating all twelve.
    assert_usage_errors(
        env!("CARGO_BIN_EXE_tables"),
        &[
            &["--bogus"],
            &["--table", "0"],
            &["--table", "13"],
            &["--table", "x"],
            &["--table"],
            &["--table", "9", "--cycles", "0"],
            &["--table", "9", "--cycles", "-5"],
            &["--table", "1", "--reps", "0"],
            &["--table", "1", "--lanes", "0"],
            &["--table", "1", "--cap", "-1"],
            &["--table", "1", "--cap", "0"],
            &["--table", "1", "--seed", "x"],
            &["--table", "1", "--jobs", "0"],
            &["--table", "1", "--algo", "bogus"],
            &["--table", "1", "--watchdog", "0"],
            &["--table", "1", "--faults", "/nonexistent/plan.json"],
        ],
    );
}

#[test]
fn figures_usage_errors_exit_two() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_figures"),
        &[
            &["--bogus"],
            &["--figure", "0"],
            &["--figure", "9"],
            &["--figure", "x"],
            &["--figure"],
            &["--out"],
        ],
    );
}

#[test]
fn perf_usage_errors_exit_two() {
    assert_usage_errors(
        env!("CARGO_BIN_EXE_perf"),
        &[
            &["--bogus"],
            &["--quick", "--samples", "0"],
            &["--quick", "--samples", "x"],
            &["--quick", "--lanes", "0"],
            &["--quick", "--jobs", "0"],
            &["--quick", "--shards", "0"],
            &["--quick", "--partition", "bogus"],
            &["--compare", "bogus"],
            &["--compare"],
            &["--compare", "self", "--trace", "/tmp/never-written.jsonl"],
        ],
    );
}

#[test]
fn tables_figures_perf_help_exits_zero() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_tables"), "tables"),
        (env!("CARGO_BIN_EXE_figures"), "figures"),
        (env!("CARGO_BIN_EXE_perf"), "perf"),
    ] {
        let out = Command::new(bin).arg("--help").output().expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name} --help");
        assert!(stdout.contains(&format!("usage: {name}")), "{stdout}");
    }
}
