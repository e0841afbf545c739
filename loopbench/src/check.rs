//! The reference pass: every run of a sweep once, outside any timed window, with
//! each iteration's verdict re-checked independently.
//!
//! The re-check compiles the iteration's candidate from scratch with a fresh
//! `ChiselCompiler::compile` and, when it compiles, simulates it on the
//! tree-walking interpreter (the engine behind `EngineKind::Interp`) against the
//! outputs the interpreter recorded for the freshly compiled reference: a different
//! compile path (no incremental reuse) and a different simulator from the ones the
//! loop uses. The verdict is the `Interp` tester's, from the same testbench walk
//! (`run_testbench_against_trace`); each case's reference is simulated once, not
//! once per candidate, and identical circuits of one case are re-checked once.
//!
//! A run fails when it panics or when any reported status differs from its
//! re-check. A run that ends unsolved, or a candidate the checker rejects, is not a
//! failure as long as the re-check agrees.
//!
//! The pass also yields each run's outcome digest: the timed runs must reproduce it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rechisel_benchsuite::BenchmarkCase;
use rechisel_core::{
    ChiselCompiler, IterationStatus, TemplateReviewer, TraceInspector, WorkflowResult,
};
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::lower::Netlist;
use rechisel_firrtl::Fingerprint;
use rechisel_sim::{
    record_reference_trace, run_testbench_against_trace, OutputTrace, Simulator, Testbench,
};

use crate::trace::{replay, Recorder, Traced, Tracer};
use crate::workload::{RunKey, Sweep};

/// FNV-1a step over a 64-bit word.
fn fnv(hash: u64, word: u64) -> u64 {
    let mut hash = hash;
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn status_code(status: IterationStatus) -> u64 {
    match status {
        IterationStatus::Success => 1,
        IterationStatus::SyntaxError => 2,
        IterationStatus::FunctionalError => 3,
    }
}

/// A digest of one run's outcome: every iteration status, the success iteration,
/// the escape count and the final candidate's id.
pub fn run_digest(result: &WorkflowResult) -> u64 {
    let mut hash = FNV_OFFSET;
    for status in &result.statuses {
        hash = fnv(hash, status_code(*status));
    }
    hash = fnv(hash, result.success_iteration.map_or(u64::MAX, u64::from));
    hash = fnv(hash, u64::from(result.escapes));
    fnv(hash, result.final_candidate.id)
}

/// Combines per-run digests, in run order, into one workload digest.
pub fn combine_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    digests.into_iter().fold(FNV_OFFSET, fnv)
}

/// What the reference pass established about one run.
#[derive(Debug, Clone)]
pub struct RunCheck {
    /// Outcome digest; `None` when the run panicked.
    pub digest: Option<u64>,
    /// Reported status of every iteration.
    pub statuses: Vec<IterationStatus>,
    /// Iteration of the first success.
    pub success_iteration: Option<u32>,
    /// Escape firings.
    pub escapes: u32,
    /// Wall time of the run (agents and loop, without replay or re-check).
    pub compute: Duration,
    /// Why the run failed, if it did.
    pub failure: Option<String>,
}

/// The interpreter's view of one case: the testbench and the reference outputs
/// the interpreter recorded on a freshly compiled reference (`None` when the
/// interpreter cannot simulate the reference, which fails every candidate).
struct CaseOracle {
    testbench: Testbench,
    expected: Option<OutputTrace>,
}

impl CaseOracle {
    fn new(compiler: &ChiselCompiler, case: &BenchmarkCase) -> Self {
        let testbench = case.tester().testbench().clone();
        let expected = compiler.compile(case.reference()).ok().and_then(|reference| {
            record_reference_trace(&mut Simulator::new(reference.netlist), &testbench).ok()
        });
        Self { testbench, expected }
    }

    /// Whether the interpreter finds `dut`'s outputs equal to the reference's at
    /// every checked point (the `Interp` tester's verdict).
    fn passes(&self, dut: Netlist) -> bool {
        let Some(expected) = &self.expected else { return false };
        run_testbench_against_trace(&mut Simulator::new(dut), expected, &self.testbench)
            .is_ok_and(|report| report.passed())
    }
}

/// Re-checks candidates with a fresh compile and the interpreter, memoizing
/// verdicts of identical circuits within one case.
struct Rechecker {
    compiler: ChiselCompiler,
    case: Option<(u32, CaseOracle)>,
    memo: HashMap<Fingerprint, Vec<(Circuit, IterationStatus)>>,
}

impl Rechecker {
    fn new() -> Self {
        Self { compiler: ChiselCompiler::new(), case: None, memo: HashMap::new() }
    }

    fn status(&mut self, sweep: &Sweep, case: u32, circuit: &Circuit) -> IterationStatus {
        if self.case.as_ref().map(|(index, _)| *index) != Some(case) {
            let oracle = CaseOracle::new(&self.compiler, &sweep.cases[case as usize]);
            self.case = Some((case, oracle));
            self.memo.clear();
        }
        let fingerprint = circuit.fingerprint();
        if let Some(seen) = self.memo.get(&fingerprint) {
            if let Some((_, status)) = seen.iter().find(|(c, _)| c == circuit) {
                return *status;
            }
        }
        let (_, oracle) = self.case.as_ref().expect("oracle set with the case");
        let status = match self.compiler.compile(circuit) {
            Err(_) => IterationStatus::SyntaxError,
            Ok(compiled) => {
                if oracle.passes(compiled.netlist) {
                    IterationStatus::Success
                } else {
                    IterationStatus::FunctionalError
                }
            }
        };
        self.memo.entry(fingerprint).or_default().push((circuit.clone(), status));
        status
    }
}

/// Runs every run of `sweep` once, in order, re-checking each iteration's verdict.
///
/// With a tracer, the agents are timed in place (`bench.run` ⊃ `core.session` ⊃
/// agent spans) and each run's circuits are replayed through the compile and
/// simulate layers (see [`replay`]); neither the replay nor the re-check falls inside
/// a `bench.run` span.
pub fn reference_pass(sweep: &Sweep, tracer: Option<&Tracer>) -> Vec<RunCheck> {
    let mut rechecker = Rechecker::new();
    let mut checks = Vec::with_capacity(sweep.runs.len());
    for (index, &key) in sweep.runs.iter().enumerate() {
        if let Some(tracer) = tracer {
            tracer.begin_run(index as u32);
        }
        let start = Instant::now();
        let run_span = tracer.map(|t| t.open("bench.run"));
        let mut recorder = Recorder::new(sweep.llm(key), tracer);
        let result = catch_unwind(AssertUnwindSafe(|| match tracer {
            Some(t) => t.time("core.session", || {
                sweep.run_with(
                    key,
                    &mut recorder,
                    Traced::new(TemplateReviewer::new(), t),
                    Traced::new(TraceInspector::new(), t),
                )
            }),
            None => {
                sweep.run_with(key, &mut recorder, TemplateReviewer::new(), TraceInspector::new())
            }
        }));
        if let (Some(t), Some(id)) = (tracer, run_span) {
            t.close(id);
        }
        let compute = start.elapsed();
        let Ok(result) = result else {
            checks.push(RunCheck {
                digest: None,
                statuses: Vec::new(),
                success_iteration: None,
                escapes: 0,
                compute,
                failure: Some("the run panicked".into()),
            });
            continue;
        };
        if let Some(tracer) = tracer {
            tracer.add("core.escapes", f64::from(result.escapes));
            replay(tracer, sweep, key, &recorder.circuits);
        }
        let failure = recheck(&mut rechecker, sweep, key, &result, &recorder.circuits);
        checks.push(RunCheck {
            digest: Some(run_digest(&result)),
            statuses: result.statuses.clone(),
            success_iteration: result.success_iteration,
            escapes: result.escapes,
            compute,
            failure,
        });
    }
    checks
}

/// Compares every reported status of a run with the re-check of its candidate.
fn recheck(
    rechecker: &mut Rechecker,
    sweep: &Sweep,
    key: RunKey,
    result: &WorkflowResult,
    circuits: &[Circuit],
) -> Option<String> {
    if circuits.len() != result.statuses.len() {
        return Some(format!(
            "{} statuses reported for {} emitted candidates",
            result.statuses.len(),
            circuits.len()
        ));
    }
    let mismatches: Vec<String> = circuits
        .iter()
        .zip(&result.statuses)
        .enumerate()
        .filter_map(|(iteration, (circuit, reported))| {
            let rechecked = rechecker.status(sweep, key.case, circuit);
            (rechecked != *reported).then(|| {
                format!("iteration {iteration} reported {reported:?}, re-check {rechecked:?}")
            })
        })
        .collect();
    (!mismatches.is_empty()).then(|| mismatches.join("; "))
}
