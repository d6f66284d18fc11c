//! Launch one command and report its own wall time and peak RSS.
//!
//! ```text
//! spawn CMD [ARGS...]
//! ```
//!
//! The command inherits stdin, stdout and stderr. After it exits, one
//! line `@@spawn {"wall_s":…,"maxrss_kb":…,"code":…}` is appended to
//! stderr. A forked child starts with its parent's resident set, and
//! Linux carries that high-water mark across `exec`, so a large launcher
//! (a Python interpreter, about 14 MB) would floor every reading. This
//! launcher is a small Rust binary that links only the standard library,
//! so the floor it leaves is far below the smallest command the benchmark
//! runs.

use std::process::{Command, ExitCode};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(program) = args.next() else {
        eprintln!("usage: spawn CMD [ARGS...]");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let status = match Command::new(&program).args(args).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("spawn: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout declared above; getrusage only writes into it. The one
    // child has been waited for, so RUSAGE_CHILDREN covers exactly it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        eprintln!("spawn: getrusage failed");
        return ExitCode::from(2);
    }
    // A signal death has no exit code; report it as -signal like Python.
    let code = status.code().unwrap_or_else(|| {
        use std::os::unix::process::ExitStatusExt;
        -status.signal().unwrap_or(0)
    });
    eprintln!(
        "\n@@spawn {{\"wall_s\":{wall},\"maxrss_kb\":{},\"code\":{code}}}",
        usage.maxrss
    );
    ExitCode::SUCCESS
}
