//! Regenerate the paper's Figures 1–6.
//!
//! ```text
//! figures [--figure K]... [--out DIR]
//! ```
//!
//! * Figures 1–3 — queue dependency graphs (Graphviz DOT) of the
//!   3-hypercube, 3×3 mesh, and 3-shuffle-exchange hung from a node, with
//!   dynamic links drawn dashed, regenerated from the *actual* routing
//!   functions via `fadr-qdg`.
//! * Figures 4–6 — the § 6 node designs (text): node 0101 of the
//!   4-hypercube, the mesh node, and the shuffle-exchange node.
//!
//! Without `--out`, everything is printed to stdout; with `--out DIR`,
//! files `figure<K>.dot` / `figure<K>.txt` are written. Exit codes: 0
//! on success (and for `--help`, which prints to stdout), 2 on a usage
//! or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fadr_bench::exec;
use fadr_core::{HypercubeFullyAdaptive, MeshFullyAdaptive, ShuffleExchangeRouting};
use fadr_qdg::dot::{qdg_to_dot, DotOptions};
use fadr_qdg::explore::build_qdg;
use fadr_qdg::{QueueId, QueueKind};
use fadr_sim::node_design::describe_node;

fn binary_label(q: QueueId, bits: usize) -> String {
    let name = match q.kind {
        QueueKind::Inject => "i",
        QueueKind::Deliver => "d",
        QueueKind::Central(0) => "qA",
        QueueKind::Central(1) => "qB",
        QueueKind::Central(c) => return format!("q{}[{:0bits$b}]", c, q.node),
    };
    format!("{name}[{:0bits$b}]", q.node)
}

fn figure(k: usize) -> (String, &'static str) {
    match k {
        1 => {
            let rf = HypercubeFullyAdaptive::new(3);
            let qdg = build_qdg(&rf);
            (
                qdg_to_dot(
                    &qdg,
                    "Figure 1: 3-hypercube hung from 000, with dynamic links",
                    &|q| binary_label(q, 3),
                    DotOptions::default(),
                ),
                "dot",
            )
        }
        2 => {
            let rf = MeshFullyAdaptive::new(3, 3);
            let mesh = *rf.mesh();
            let qdg = build_qdg(&rf);
            (
                qdg_to_dot(
                    &qdg,
                    "Figure 2: 3-mesh hung from (0,0), with dynamic links",
                    &|q| {
                        let (x, y) = mesh.coords(q.node);
                        let name = match q.kind {
                            QueueKind::Inject => "i",
                            QueueKind::Deliver => "d",
                            QueueKind::Central(0) => "qA",
                            _ => "qB",
                        };
                        format!("{name}({x},{y})")
                    },
                    DotOptions::default(),
                ),
                "dot",
            )
        }
        3 => {
            let rf = ShuffleExchangeRouting::new(3);
            let qdg = build_qdg(&rf);
            (
                qdg_to_dot(
                    &qdg,
                    "Figure 3: 3-shuffle-exchange hung from 000, with dynamic links",
                    &|q| match q.kind {
                        QueueKind::Inject => format!("i[{:03b}]", q.node),
                        QueueKind::Deliver => format!("d[{:03b}]", q.node),
                        QueueKind::Central(c) => {
                            let phase = if c < 2 { 1 } else { 2 };
                            format!("p{}c{}[{:03b}]", phase, c % 2, q.node)
                        }
                    },
                    DotOptions::default(),
                ),
                "dot",
            )
        }
        4 => {
            let rf = HypercubeFullyAdaptive::new(4);
            (
                format!(
                    "Figure 4: Node 0101 of the 4-Hypercube.\n\n{}",
                    describe_node(&rf, 0b0101, 5)
                ),
                "txt",
            )
        }
        5 => {
            let rf = MeshFullyAdaptive::new(3, 3);
            let center = rf.mesh().node_at(1, 1);
            (
                format!(
                    "Figure 5: The node for the Mesh (interior node (1,1) of a 3x3 mesh).\n\n{}",
                    describe_node(&rf, center, 5)
                ),
                "txt",
            )
        }
        6 => {
            let rf = ShuffleExchangeRouting::new(3);
            (
                format!(
                    "Figure 6: The node for the Shuffle-Exchange (node 001 of the 8-node network).\n\n{}",
                    describe_node(&rf, 0b001, 5)
                ),
                "txt",
            )
        }
        _ => unreachable!(),
    }
}

const USAGE: &str = "usage: figures [--figure K]... [--out DIR]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(exec::USAGE_ERROR)
        }
    }
}

fn run() -> Result<(), String> {
    let mut figures: Vec<usize> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--figure" => figures.push(exec::parse_in(
                "--figure",
                it.next().as_deref(),
                1..=6,
                "a figure number in 1..=6",
            )?),
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a directory")?)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if figures.is_empty() {
        figures = (1..=6).collect();
    }
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    for k in figures {
        let (content, ext) = figure(k);
        match &out {
            Some(dir) => {
                let path = dir.join(format!("figure{k}.{ext}"));
                std::fs::write(&path, &content)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            None => println!("{content}"),
        }
    }
    Ok(())
}
