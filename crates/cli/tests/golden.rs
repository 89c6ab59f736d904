//! Golden equivalence suite (CLI layer): the optimized engine — paged
//! flat stores, flat-array metadata cache, fused cache ops — must
//! produce byte-identical end-to-end outputs to the seed `HashMap`
//! implementation.
//!
//! `simulate_*` fixtures and `fig07_seed.txt` were captured from the seed
//! implementation before the optimization landed; `fig07_quick.txt` pins
//! the (already-verified-equivalent) engine at a fast operating point so
//! debug test runs still cover the figure pipeline.

use morphtree_cli::run;
use morphtree_experiments::{checkpoint, driver, Lab, Setup};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| (*a).to_owned()).collect()
}

#[test]
fn simulate_mix1_matches_seed_capture() {
    let out = run(
        "simulate",
        &args(&[
            "--workload", "mix1", "--scale", "64", "--warmup", "100000", "--instructions",
            "100000", "--seed", "7",
        ]),
    )
    .expect("simulate runs");
    assert_eq!(out, include_str!("fixtures/simulate_mix1_seed7.txt"));
}

#[test]
fn simulate_mcf_sc64_matches_seed_capture() {
    let out = run(
        "simulate",
        &args(&[
            "--workload", "mcf", "--config", "sc64", "--scale", "64", "--warmup", "80000",
            "--instructions", "80000", "--seed", "11",
        ]),
    )
    .expect("simulate runs");
    assert_eq!(out, include_str!("fixtures/simulate_mcf_sc64_seed11.txt"));
}

/// Renders `fig07` in-memory (no `results/` side effects) and returns the
/// figure text as [`driver::run_figures`] embeds it in the report.
fn render_fig07(setup: Setup) -> String {
    let mut lab = Lab::new(setup);
    lab.emit_reports = false;
    let outcome = driver::run_figures(&mut lab, &["fig07"]).expect("fig07 is a known figure");
    assert!(outcome.is_clean(), "sweep reported failures");
    outcome.report
}

#[test]
fn fig07_quick_point_matches_fixture() {
    let report = render_fig07(Setup {
        scale: 64,
        warmup_instructions: 200_000,
        measure_instructions: 100_000,
        seed: 42,
    });
    let expected = format!("\n==== fig07 ====\n\n{}\n", include_str!("fixtures/fig07_quick.txt"));
    assert_eq!(report, expected);
}

/// Interrupt-and-resume must be invisible in the output: a sweep resumed
/// from a checkpoint serves every run from the checkpoint (zero new
/// simulations) and renders the figure byte-identical to the golden
/// fixture from an uninterrupted run.
#[test]
fn fig07_resumed_sweep_matches_the_golden_fixture() {
    let setup = Setup {
        scale: 64,
        warmup_instructions: 200_000,
        measure_instructions: 100_000,
        seed: 42,
    };

    // The "interrupted" sweep: run to completion, checkpoint the memo.
    let mut lab = Lab::new(setup.clone());
    lab.emit_reports = false;
    driver::run_figures(&mut lab, &["fig07"]).expect("fig07 is a known figure");
    let path = std::env::temp_dir().join("morphtree-golden-fig07.mtlc");
    checkpoint::save_checkpoint(&lab, &path).expect("checkpoint writes");
    let runs_before = lab.sim_results().len() + lab.engine_results().len();
    assert!(runs_before > 0, "fig07 must memoize runs");

    // The resumed sweep: a fresh lab seeded only from the checkpoint.
    let mut resumed = Lab::new(setup);
    resumed.emit_reports = false;
    let (sims, engines) =
        checkpoint::load_checkpoint(&mut resumed, &path).expect("checkpoint loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(sims + engines, runs_before, "every memoized run round-trips");
    let outcome = driver::run_figures(&mut resumed, &["fig07"]).expect("resumed sweep renders");
    assert!(outcome.is_clean(), "resumed sweep reported failures");
    assert_eq!(
        resumed.sim_results().len() + resumed.engine_results().len(),
        runs_before,
        "a resumed sweep must not simulate anything new"
    );
    let expected = format!("\n==== fig07 ====\n\n{}\n", include_str!("fixtures/fig07_quick.txt"));
    assert_eq!(outcome.report, expected, "resumed render must be byte-identical");
}

/// The full default operating point — the exact output captured from the
/// seed implementation. Takes ~1 min unoptimized, so it is ignored by
/// default; CI runs it in release via `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow in debug builds; run with --ignored (release)"]
fn fig07_default_point_matches_seed_capture() {
    let report = render_fig07(Setup {
        scale: 16,
        warmup_instructions: 4_000_000,
        measure_instructions: 2_000_000,
        seed: 42,
    });
    let expected = format!("\n==== fig07 ====\n\n{}\n", include_str!("fixtures/fig07_seed.txt"));
    assert_eq!(report, expected);
}
