//! The `replay` binary's exit-code contract: 0 clean, 1 when a journal
//! divergence is found, 2 on usage or I/O errors — the workspace-wide
//! convention shared with `certify` and `lint`. `sweep`, `tables`,
//! `figures` and `perf` follow it too: every usage error exits 2, never
//! a fallback default or a panic, and `--help` exits 0 on stdout.

use std::path::{Path, PathBuf};
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

/// `a` followed by `b`.
fn join<'a>(a: &[&'a str], b: &[&'a str]) -> Vec<&'a str> {
    [a, b].concat()
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fadr-exit-codes-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Run `bin` on `args`, demanding success; returns its stdout.
fn run_ok(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Copy the snapshot directory `from` to a new directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy");
    }
}

/// Give snapshot `file` the meta line of snapshot `donor`: the file then
/// claims the donor's work unit, so only the engine's own check of the
/// configuration record can refuse it.
fn graft_meta(file: &Path, donor: &Path) {
    let meta = |text: &str| text.lines().nth(1).expect("meta line").to_string();
    let text = std::fs::read_to_string(file).expect("read");
    let donor = std::fs::read_to_string(donor).expect("read");
    std::fs::write(file, text.replacen(&meta(&text), &meta(&donor), 1)).expect("write");
}

/// Snapshots that cannot be restored (corrupt, from another router,
/// from another seed, or with another configuration behind a matching
/// meta line), a `--resume-from` path that is not a directory, and a
/// snapshot that cannot be written are I/O errors: `tables` names the
/// problem and exits 2, never panics or reruns from cycle 0.
#[test]
fn tables_snapshot_errors_exit_two() {
    let bin = env!("CARGO_BIN_EXE_tables");
    let root = scratch_dir("tables");
    let dir = |name: &str| root.join(name).to_str().expect("utf-8 path").to_string();
    let (good, corrupt, grafted, file, blocked) = (
        dir("good"),
        dir("corrupt"),
        dir("grafted"),
        dir("file"),
        dir("blocked"),
    );
    // Table 2 needs 2n + 1 = 21 cycles at n = 10, so cycle 5 checkpoints
    // every row.
    let plain = run_ok(bin, &["--table", "2", "--csv"]);
    let ckpt = |dir: &str, seed: &str| {
        let args = [
            "--table",
            "2",
            "--csv",
            "--seed",
            seed,
            "--checkpoint-at",
            "5",
        ];
        run_ok(bin, &join(&args, &["--checkpoint-dir", dir]))
    };
    assert_eq!(ckpt(&good, "64210"), plain, "64210 is the default seed");
    assert_eq!(
        run_ok(bin, &["--table", "2", "--csv", "--resume-from", &good]),
        plain
    );
    let snap = |dir: &str| Path::new(dir).join("t2_n10_q5_r0.snap");
    copy_dir(Path::new(&good), Path::new(&corrupt));
    std::fs::write(snap(&corrupt), "not a snapshot").expect("write");
    ckpt(&grafted, "7");
    graft_meta(&snap(&grafted), &snap(&good));
    std::fs::write(&file, "not a directory").expect("write");
    std::fs::create_dir_all(snap(&blocked)).expect("mkdir");
    assert_usage_errors(
        bin,
        &[
            &["--table", "2", "--resume-from", &corrupt],
            &[
                "--table",
                "2",
                "--algo",
                "ecube-sbp",
                "--resume-from",
                &good,
            ],
            &["--table", "2", "--seed", "7", "--resume-from", &good],
            &["--table", "2", "--resume-from", &grafted],
            &["--table", "2", "--resume-from", "/nonexistent/snapshots"],
            &["--table", "2", "--resume-from", &file],
            &[
                "--table",
                "2",
                "--checkpoint-at",
                "5",
                "--checkpoint-dir",
                &blocked,
            ],
        ],
    );
    std::fs::remove_dir_all(&root).ok();
}

/// The same contract for `sweep`: a corrupt snapshot, one from another
/// router, one from another horizon, a missing resume directory and an
/// unwritable checkpoint all exit 2.
#[test]
fn sweep_snapshot_errors_exit_two() {
    let bin = env!("CARGO_BIN_EXE_sweep");
    let root = scratch_dir("sweep");
    let dir = |name: &str| root.join(name).to_str().expect("utf-8 path").to_string();
    let (good, corrupt, swapped, file, blocked) = (
        dir("good"),
        dir("corrupt"),
        dir("swapped"),
        dir("file"),
        dir("blocked"),
    );
    // Every λ point runs 20 cycles, so cycle 5 checkpoints each of them.
    let lambda = ["lambda", "--n", "4", "--cycles", "20", "--jobs", "1"];
    let plain = run_ok(bin, &lambda);
    let ckpt = ["--checkpoint-at", "5", "--checkpoint-dir", &good];
    assert_eq!(run_ok(bin, &join(&lambda, &ckpt)), plain);
    assert_eq!(
        run_ok(bin, &join(&lambda, &["--resume-from", &good])),
        plain
    );
    let point = |dir: &str, name: &str| Path::new(dir).join(name);
    let first = "lambda0.05_fully-adaptive.snap";
    copy_dir(Path::new(&good), Path::new(&corrupt));
    std::fs::write(point(&corrupt, first), "garbage").expect("write");
    copy_dir(Path::new(&good), Path::new(&swapped));
    let other_router = point(&good, "lambda0.05_static-hang.snap");
    std::fs::copy(other_router, point(&swapped, first)).expect("copy");
    std::fs::write(&file, "not a directory").expect("write");
    std::fs::create_dir_all(point(&blocked, first)).expect("mkdir");
    let cases = [
        join(&lambda, &["--resume-from", &corrupt]),
        join(&lambda, &["--resume-from", &swapped]),
        // `--cycles 30`: the snapshots hold units of another horizon.
        join(&lambda[..4], &["30", "--resume-from", &good]),
        join(&lambda, &["--resume-from", "/nonexistent/snapshots"]),
        join(&lambda, &["--resume-from", &file]),
        join(
            &lambda,
            &["--checkpoint-at", "5", "--checkpoint-dir", &blocked],
        ),
    ];
    let cases: Vec<&[&str]> = cases.iter().map(Vec::as_slice).collect();
    assert_usage_errors(bin, &cases);
    std::fs::remove_dir_all(&root).ok();
}
