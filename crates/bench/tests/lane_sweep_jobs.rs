//! The lane-batched λ sweep fans its routers out over `--jobs` and
//! prints rows in λ-major order: the CSV must be byte-identical for
//! every job count, including counts above the number of routers.

use std::process::Command;

fn lane_sweep(jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "lambda", "--n", "5", "--cycles", "30", "--lanes", "3", "--jobs", jobs,
        ])
        .output()
        .expect("spawn sweep");
    assert!(
        out.status.success(),
        "--jobs {jobs}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn lane_sweep_output_is_independent_of_jobs() {
    let base = lane_sweep("1");
    let text = String::from_utf8_lossy(&base);
    // Header plus 11 λ points × 3 routers.
    assert_eq!(text.lines().count(), 1 + 11 * 3, "{text}");
    for jobs in ["2", "3", "4"] {
        assert!(
            lane_sweep(jobs) == base,
            "--jobs {jobs} changed the lane sweep output"
        );
    }
}
