//! # earth-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §4 for the index):
//!
//! * [`table1`] — communication cost microkernels (Table I),
//! * [`experiments`] — Figure 10 (dynamic communication counts) and
//!   Table III (performance improvement),
//! * [`ablation`] — component / threshold / frequency ablations beyond the
//!   paper,
//! * [`commopt`] — the alias-mode ablation (simple / static / prob-alias /
//!   profile-fed prob-alias) behind the `BENCH_commopt.json` artifact,
//! * [`incremental`] — from-scratch vs incremental recompile latency after
//!   a one-function edit, behind the `BENCH_incremental.json` artifact,
//! * [`exec`] — interpreter vs native execution tier run latency, behind
//!   the `BENCH_exec.json` artifact,
//! * [`pgo`] — static heuristics vs measured-profile feedback
//!   (instrument → simulate → recompile).
//!
//! Runnable binaries: `table1`, `table2`, `fig10`, `table3`,
//! `ablation_threshold`, `ablation_placement`, `ablation_freq`,
//! `ablation_pgo`, `bench_commopt` (all accept `--small` / `--full` to
//! change the problem size) — plus Criterion benches `comm_costs`,
//! `olden`, and `pipeline`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod commopt;
pub mod exec;
pub mod experiments;
pub mod incremental;
pub mod pgo;
pub mod render;
pub mod table1;

use earth_olden::Preset;

/// Parses the common `--small` / `--full` / `--test` size flags
/// (default: `Preset::Small`).
pub fn preset_from_args() -> Preset {
    preset_from_args_or(Preset::Small)
}

/// [`preset_from_args`] with another default.
pub fn preset_from_args_or(default: Preset) -> Preset {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full") {
        Preset::Full
    } else if args.iter().any(|a| a == "--test") {
        Preset::Test
    } else if args.iter().any(|a| a == "--small") {
        Preset::Small
    } else {
        default
    }
}

/// Parses `--nodes N` (default 8).
pub fn nodes_from_args() -> u16 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--nodes")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}
