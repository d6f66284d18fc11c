//! The `lint` command-line front end.
//!
//! ```text
//! lint --family hypercube --n 8
//! lint --family se --n 4 --algo paper-literal --json out.json
//! lint --family hypercube --n 4 --faults plan.json --expect fault-dead-end
//! lint --family mesh --width 16 --height 16 --algo xy --deny-warnings
//! lint --list
//! ```
//!
//! Families and sizes mirror the `certify` bin. Exit status: 0 when the
//! battery is clean (no errors; warnings tolerated unless
//! `--deny-warnings`), 1 when findings gate, 2 on usage or I/O errors.
//! With `--expect ID...` the polarity flips to corpus mode: exit 0 iff
//! every expected lint fired (the fail-closed negative-corpus check).

use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::ExitCode;

use fadr_core::{
    EcubeSbp, HypercubeFullyAdaptive, HypercubeStaticHang, MeshFullyAdaptive, MeshStaticHang,
    MeshXY, ShuffleExchangeRouting, TorusTwoPhase,
};
use fadr_qdg::sym::Symmetry;
use fadr_sim::FaultPlan;
use fadr_topology::{Hypercube, Mesh2D, ShuffleExchange, Torus2D};

use crate::{lint_all, LintConfig, LintId, Report, ALL_LINTS};

#[derive(Debug)]
struct Opts {
    family: String,
    algo: String,
    n: usize,
    width: usize,
    height: usize,
    faults: Option<PathBuf>,
    json: Option<PathBuf>,
    allow: Vec<LintId>,
    only: Vec<LintId>,
    deny_warnings: bool,
    expect: Vec<LintId>,
}

fn usage() -> &'static str {
    "usage: lint --family <hypercube|mesh|torus|se> [options]\n\
     \n\
     --family hypercube  --n DIMS   --algo fully-adaptive|static-hang|ecube-sbp\n\
     --family mesh       --width W --height H (or --n for square)\n\
     \x20                           --algo fully-adaptive|static-hang|xy\n\
     --family torus      --width W --height H (or --n for square)\n\
     --family se         --n DIMS   --algo adaptive|static|paper-literal\n\
     \n\
     --faults FILE     also lint FILE's fadr-faults/1 plan against the instance\n\
     --json FILE       write the fadr-lint/1 report to FILE\n\
     --allow ID        disable a lint (repeatable)\n\
     --only ID         run only the named lint(s) (repeatable)\n\
     --deny-warnings   gate on warnings too, not just errors\n\
     --expect ID       corpus mode: exit 0 iff every expected lint fired (repeatable)\n\
     --list            print the lint registry and exit"
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        family: String::new(),
        algo: "fully-adaptive".into(),
        n: 0,
        width: 0,
        height: 0,
        faults: None,
        json: None,
        allow: Vec::new(),
        only: Vec::new(),
        deny_warnings: false,
        expect: Vec::new(),
    };
    let want = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    let lint_id =
        |s: String| LintId::from_id(&s).ok_or(format!("unknown lint id {s} (see lint --list)"));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--family" => o.family = want(&mut args, "--family")?,
            "--algo" => o.algo = want(&mut args, "--algo")?,
            "--n" => o.n = parse_num(&want(&mut args, "--n")?)?,
            "--width" => o.width = parse_num(&want(&mut args, "--width")?)?,
            "--height" => o.height = parse_num(&want(&mut args, "--height")?)?,
            "--faults" => o.faults = Some(PathBuf::from(want(&mut args, "--faults")?)),
            "--json" => o.json = Some(PathBuf::from(want(&mut args, "--json")?)),
            "--allow" => o.allow.push(lint_id(want(&mut args, "--allow")?)?),
            "--only" => o.only.push(lint_id(want(&mut args, "--only")?)?),
            "--deny-warnings" => o.deny_warnings = true,
            "--expect" => o.expect.push(lint_id(want(&mut args, "--expect")?)?),
            "--list" => return Err(registry()),
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if o.width == 0 {
        o.width = o.n;
    }
    if o.height == 0 {
        o.height = o.width;
    }
    Ok(o)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

/// Refuse a size outside the `--family` constructor's own range before
/// the constructor runs (it would panic); the error names the range.
/// Unknown families pass, for the dispatch to name. Shared with the
/// `certify` front end, which takes the same family flags.
pub fn check_size(family: &str, n: usize, width: usize, height: usize) -> Result<(), String> {
    let dims = |range: RangeInclusive<usize>| {
        if range.contains(&n) {
            Ok(())
        } else {
            Err(format!(
                "--family {family} needs --n in {}..={}, got {n}",
                range.start(),
                range.end()
            ))
        }
    };
    let sides = |min: usize| {
        if width >= min && height >= min && width.checked_mul(height).is_some() {
            Ok(())
        } else {
            Err(format!(
                "--family {family} needs sides (--width/--height or --n) >= {min} \
                 whose product fits in usize, got {width}x{height}"
            ))
        }
    };
    match family {
        "hypercube" => dims(1..=Hypercube::MAX_DIMS),
        "se" => dims(ShuffleExchange::MIN_DIMS..=ShuffleExchange::MAX_DIMS),
        "mesh" => sides(Mesh2D::MIN_SIDE),
        "torus" => sides(Torus2D::MIN_SIDE),
        _ => Ok(()),
    }
}

/// The `--list` output: every lint with severity and clause.
fn registry() -> String {
    let mut s = String::from("the fadr-lint battery:\n");
    for &l in ALL_LINTS {
        s.push_str(&format!(
            "  {:<26} {:<8} {}\n",
            l.id(),
            l.severity().as_str(),
            l.clause()
        ));
    }
    s.pop();
    s
}

/// Parse `std::env::args`, lint the requested instance, and return the
/// process exit code.
pub fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            // `--help` and `--list` surface through the same path but are
            // not errors.
            let informational = e == usage() || e.starts_with("the fadr-lint battery");
            if informational {
                println!("{e}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_size(&opts.family, opts.n, opts.width, opts.height) {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let code = match (opts.family.as_str(), opts.algo.as_str()) {
        ("hypercube", "fully-adaptive") => run(&HypercubeFullyAdaptive::new(opts.n), &opts),
        ("hypercube", "static-hang") => run(&HypercubeStaticHang::new(opts.n), &opts),
        ("hypercube", "ecube-sbp") => run(&EcubeSbp::new(opts.n), &opts),
        ("mesh", "fully-adaptive") => run(&MeshFullyAdaptive::new(opts.width, opts.height), &opts),
        ("mesh", "static-hang") => run(&MeshStaticHang::new(opts.width, opts.height), &opts),
        ("mesh", "xy") => run(&MeshXY::new(opts.width, opts.height), &opts),
        ("torus", "fully-adaptive") => run(&TorusTwoPhase::new(opts.width, opts.height), &opts),
        ("se", "adaptive" | "fully-adaptive") => run(&ShuffleExchangeRouting::new(opts.n), &opts),
        ("se", "static") => run(
            &ShuffleExchangeRouting::without_dynamic_links(opts.n),
            &opts,
        ),
        ("se", "paper-literal") => run(&ShuffleExchangeRouting::paper_literal(opts.n), &opts),
        (fam, algo) => {
            eprintln!("unsupported family/algo: {fam}/{algo}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    ExitCode::from(code)
}

fn run<R: Symmetry>(rf: &R, opts: &Opts) -> u8 {
    let plan = match &opts.faults {
        None => None,
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return 2;
                }
            };
            match FaultPlan::parse(&text) {
                Ok(p) => Some(p),
                Err(e) => {
                    eprintln!("bad fault plan {}: {e}", path.display());
                    return 2;
                }
            }
        }
    };
    let cfg = if opts.only.is_empty() {
        LintConfig {
            disabled: opts.allow.clone(),
        }
    } else {
        LintConfig::only(&opts.only)
    };
    let started = std::time::Instant::now();
    let report = lint_all(rf, plan.as_ref(), &cfg);
    print!("{}", report.render_text());
    println!("completed in {:.2?}", started.elapsed());
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            return 2;
        }
        println!("report: {}", path.display());
    }
    verdict(&report, opts)
}

/// Gate: normally 0 iff no errors (and no warnings under
/// `--deny-warnings`); with `--expect`, 0 iff every expected lint fired.
fn verdict(report: &Report, opts: &Opts) -> u8 {
    if !opts.expect.is_empty() {
        let missing: Vec<&str> = opts
            .expect
            .iter()
            .filter(|&&l| !report.has(l))
            .map(|l| l.id())
            .collect();
        return if missing.is_empty() {
            println!("expected lint(s) fired");
            0
        } else {
            eprintln!("expected lint(s) did not fire: {}", missing.join(", "));
            1
        };
    }
    let gated = report.errors()
        + if opts.deny_warnings {
            report.warnings()
        } else {
            0
        };
    u8::from(gated > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Opts, String> {
        parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parse_family_size_and_lists() {
        let o = opts(&[
            "--family",
            "se",
            "--n",
            "4",
            "--algo",
            "paper-literal",
            "--expect",
            "class-capacity-exhausted",
            "--allow",
            "shadowed-buffer-class",
        ])
        .unwrap();
        assert_eq!(o.family, "se");
        assert_eq!(o.n, 4);
        assert_eq!(o.expect, vec![LintId::ClassCapacityExhausted]);
        assert_eq!(o.allow, vec![LintId::ShadowedBufferClass]);
    }

    #[test]
    fn square_defaults_from_n() {
        let o = opts(&["--family", "mesh", "--n", "7"]).unwrap();
        assert_eq!((o.width, o.height), (7, 7));
    }

    #[test]
    fn sizes_are_checked_against_the_constructor_ranges() {
        assert!(check_size("hypercube", 30, 0, 0).is_ok());
        assert!(check_size("hypercube", 31, 0, 0).is_err());
        assert!(check_size("se", 2, 0, 0).is_ok());
        assert!(check_size("mesh", 0, 2, 3).is_ok());
        assert!(check_size("mesh", 0, usize::MAX, 2).is_err());
        assert!(check_size("torus", 0, 3, 2).is_err());
        // Unknown families are left for the dispatch to name.
        assert!(check_size("klein-bottle", 0, 0, 0).is_ok());
    }

    #[test]
    fn unknown_lint_id_is_a_usage_error() {
        assert!(opts(&["--only", "bogus"]).unwrap_err().contains("bogus"));
    }

    #[test]
    fn registry_names_every_lint() {
        let r = registry();
        for &l in ALL_LINTS {
            assert!(r.contains(l.id()), "registry missing {}", l.id());
        }
    }
}
