//! The `perf` report's workload names are its keys: a consumer reading
//! the JSON as a name → timing map must never see one name twice.

use std::collections::HashSet;
use std::process::Command;

#[test]
fn quick_report_with_one_job_has_unique_workload_names() {
    let dir = std::env::temp_dir().join(format!("fadr-perf-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let out = dir.join("bench.json");
    let status = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--samples", "1", "--jobs", "1", "--out"])
        .arg(&out)
        .output()
        .expect("spawn perf");
    assert!(
        status.status.success(),
        "{}",
        String::from_utf8_lossy(&status.stderr)
    );
    let json = std::fs::read_to_string(&out).expect("read report");
    std::fs::remove_dir_all(&dir).ok();
    let names: Vec<&str> = json
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closing quote"))
        .collect();
    assert!(names.contains(&"table6_rows_jobs1"), "{names:?}");
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate workload names: {names:?}"
    );
}
