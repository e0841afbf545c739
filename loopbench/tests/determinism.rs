//! Determinism self-tests of the benchmark: the same seed, thread count and
//! tracing mode must not change any run's outcome, and seed 0 must reproduce the
//! paper protocol that the `table3` experiment binary runs.

use rechisel_benchsuite::{mean_pass_at_k, run_model, sampled_suite, ExperimentConfig};
use rechisel_llm::ModelProfile;
use rechisel_loopbench::check::{reference_pass, run_digest};
use rechisel_loopbench::served::draw_requests;
use rechisel_loopbench::timing::{sweep_once, RunRecord};
use rechisel_loopbench::trace::Tracer;
use rechisel_loopbench::workload::{build, Sweep, WorkloadKind, MAX_ITERATIONS, PAPER_SAMPLES};

/// 12 suite cases × 5 models × 3 samples = 180 runs.
fn small_sweep(seed: u64) -> Sweep {
    let sweep = Sweep::new(
        WorkloadKind::PaperSweep,
        sampled_suite(12),
        ModelProfile::paper_models(),
        0..3,
        seed,
    );
    sweep.prepare_references();
    sweep
}

fn digests(records: &[RunRecord]) -> Vec<Option<u64>> {
    records.iter().map(|r| r.digest).collect()
}

#[test]
fn the_same_seed_gives_the_same_outcomes() {
    let first = digests(&sweep_once(&small_sweep(7), 1));
    assert!(first.iter().all(Option::is_some), "no run panics");
    assert_eq!(first, digests(&sweep_once(&small_sweep(7), 1)));
    assert_ne!(first, digests(&sweep_once(&small_sweep(8), 1)), "the seed perturbs the runs");
}

#[test]
fn one_and_two_threads_give_the_same_outcomes() {
    let sweep = small_sweep(3);
    assert_eq!(digests(&sweep_once(&sweep, 1)), digests(&sweep_once(&sweep, 2)));
}

#[test]
fn traced_and_untraced_runs_give_the_same_outcomes() {
    let sweep = small_sweep(5);
    let tracer = Tracer::new();
    let traced: Vec<_> = reference_pass(&sweep, Some(&tracer)).iter().map(|c| c.digest).collect();
    let untraced: Vec<_> = reference_pass(&sweep, None).iter().map(|c| c.digest).collect();
    assert_eq!(traced, untraced);
    assert_eq!(traced, digests(&sweep_once(&sweep, 1)));
    assert_eq!(tracer.calls("bench.run") as usize, sweep.runs.len());
    assert_eq!(tracer.calls("llm.generate") as usize, sweep.runs.len());
}

#[test]
fn seed_zero_paper_sweep_reproduces_table3() {
    let (sweep, _) = build(WorkloadKind::PaperSweep, 0, &[]);
    assert_eq!(sweep.runs.len(), 216 * 5 * PAPER_SAMPLES as usize);
    let records = sweep_once(&sweep, 2);
    // The configuration of the `table3` binary at the full protocol (216 × 10).
    let config =
        ExperimentConfig::paper().with_samples(PAPER_SAMPLES).with_max_iterations(MAX_ITERATIONS);
    for (model, profile) in sweep.models.iter().enumerate() {
        let table3 = run_model(profile, &sweep.cases, &config);
        let mut counts = vec![Vec::new(); 4];
        for (case, outcome) in table3.cases.iter().enumerate() {
            let ours: Vec<&RunRecord> = sweep
                .runs
                .iter()
                .zip(&records)
                .filter(|(key, _)| key.case as usize == case && key.model as usize == model)
                .map(|(_, record)| record)
                .collect();
            for (sample, result) in outcome.samples.iter().enumerate() {
                assert_eq!(
                    ours[sample].digest,
                    Some(run_digest(result)),
                    "{} / {} / sample {sample}",
                    profile.name,
                    outcome.case_id
                );
            }
            for (slot, cap) in [0u32, 1, 5, 10].into_iter().enumerate() {
                let solved =
                    ours.iter().filter(|r| r.success_iteration.is_some_and(|i| i <= cap)).count();
                counts[slot].push((ours.len(), solved));
            }
        }
        for (slot, cap) in [0u32, 1, 5, 10].into_iter().enumerate() {
            for k in [1usize, 5, 10] {
                assert_eq!(
                    mean_pass_at_k(&counts[slot], k),
                    table3.pass_at_k(k, cap),
                    "{} Pass@{k} at n={cap}",
                    profile.name
                );
            }
        }
    }
}

#[test]
fn served_requests_are_seeded_and_distinct() {
    let a = draw_requests(1, 216, 5, 1024);
    assert_eq!(a, draw_requests(1, 216, 5, 1024));
    assert_ne!(a, draw_requests(2, 216, 5, 1024));
    let distinct: std::collections::HashSet<_> = a.iter().collect();
    assert_eq!(distinct.len(), a.len());
    assert!(a.iter().all(|k| k.case < 216 && k.model < 5 && k.sample < PAPER_SAMPLES));
}
