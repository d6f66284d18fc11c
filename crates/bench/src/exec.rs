//! Deterministic parallel execution of independent work items.
//!
//! The harness's unit of work is one simulation run (one table row ×
//! one replication), and every run derives its RNG stream purely from
//! `(seed, table, rep, n)` — no shared mutable state. That makes the
//! fan-out embarrassingly parallel *and* order-independent: workers may
//! finish in any order, but each result lands in the slot of its item
//! index, and callers reduce the slots in the same fixed order a
//! sequential loop would. Output is therefore bit-identical for any
//! `--jobs` value (enforced by `tests/parallel_identity.rs`).
//!
//! Built on `std::thread::scope` only; no external dependencies.

use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the machine's available parallelism (1 if it
/// cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Evaluate `f(0), f(1), …, f(count - 1)` on up to `jobs` worker
/// threads and return the results in index order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs — e.g. table rows at growing dimension — still load-balance.
/// With `jobs <= 1` the items run inline on the caller's thread, with
/// no thread machinery at all; results are identical either way as long
/// as `f` is a pure function of its index.
///
/// # Panics
///
/// Propagates a panic from any worker (the first one joined).
pub fn run_indexed<T, F>(count: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.clamp(1, count.max(1));
    if jobs == 1 {
        return (0..count).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    // `forbid(unsafe_code)` rules out writing into shared slots from the
    // workers, so each worker returns its own (index, value) batch and
    // the gather below scatters them back into index order.
    let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    for batch in batches {
        for (i, v) in batch {
            debug_assert!(slots[i].is_none(), "item {i} computed twice");
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("item {i} never computed")))
        .collect()
}

/// Exit code of a usage or I/O error, shared by every binary in the
/// workspace (`lint`, `certify`, `replay`, `sweep`, `tables`,
/// `figures`, `perf`): 0 clean, 1 findings, 2 usage or I/O.
pub const USAGE_ERROR: u8 = 2;

/// Parse `flag`'s value strictly as a number in `range`; `what` names
/// the accepted values in the error message.
///
/// # Errors
///
/// A missing value, an unparsable one, or one outside `range`.
pub fn parse_in<T>(
    flag: &str,
    value: Option<&str>,
    range: RangeInclusive<T>,
    what: &str,
) -> Result<T, String>
where
    T: FromStr + PartialOrd,
{
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse::<T>() {
        Ok(x) if range.contains(&x) => Ok(x),
        _ => Err(format!("{flag} must be {what}, got {v:?}")),
    }
}

/// Parse a `--jobs` value: a positive thread count.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs must be a positive integer, got {s:?}")),
    }
}

/// Parse a `--shards` value: a positive intra-simulation shard count
/// (threads *inside* one simulation; composes with `--jobs`, which
/// spreads independent simulations across workers).
pub fn parse_shards(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--shards must be a positive integer, got {s:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = run_indexed(37, jobs, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn handles_empty_and_tiny() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn uneven_items_still_ordered() {
        // Make early items slow so late items finish first on other
        // workers; the gather must still restore index order.
        let out = run_indexed(16, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn parse_jobs_accepts_positive_only() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("many").is_err());
    }

    #[test]
    fn parse_in_is_strict() {
        assert_eq!(parse_in("--k", Some("3"), 1..=5u32, "1..=5"), Ok(3));
        for bad in [None, Some("0"), Some("6"), Some("-1"), Some("x"), Some("")] {
            assert!(parse_in("--k", bad, 1..=5u32, "1..=5").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
