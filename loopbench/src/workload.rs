//! The workloads: which cases, models and samples a sweep runs, how the benchmark
//! seed perturbs them, and the set-up that builds them.
//!
//! Every in-process workload is a [`Sweep`]: a list of [`RunKey`]s over a case list
//! and the five paper model profiles, each run being one reflection run of the
//! paper's loop (generate → check → lower → emit → simulate → review → revise)
//! capped at [`MAX_ITERATIONS`], on the Chisel path with escape and knowledge on and
//! the `Compiled` simulation engine. A run mirrors
//! `rechisel_benchsuite::run_sample_with_engine` step for step; the only difference
//! is that on `paper_sweep` a non-zero benchmark seed perturbs the synthetic LLM's
//! case seed (on `large_designs` the seed selects the sample indices instead).

use std::time::{Duration, Instant};

use rechisel_benchsuite::{
    full_suite, random_circuit, BenchmarkCase, Category, RandomCircuitConfig, SourceFamily,
};
use rechisel_core::{
    Engine, EngineKind, Generator, Inspector, Reviewer, TemplateReviewer, TraceInspector,
    WorkflowConfig, WorkflowResult,
};
use rechisel_firrtl::lower_circuit;
use rechisel_llm::{Language, ModelProfile, SyntheticLlm};

/// The paper's iteration cap.
pub const MAX_ITERATIONS: u32 = 10;

/// Samples per case and model on `paper_sweep` (the paper's protocol).
pub const PAPER_SAMPLES: u32 = 10;

/// Random reference designs on `large_designs`.
pub const LARGE_DESIGNS: usize = 32;
/// Samples per design and model on `large_designs`.
pub const LARGE_SAMPLES: u32 = 16;
/// Expression-pool operations per random design (about 80 netlist definitions).
pub const LARGE_MAX_OPS: usize = 150;
/// Testbench points per random design.
pub const LARGE_TEST_POINTS: usize = 256;
/// Clock cycles per testbench point on `large_designs`.
pub const LARGE_CYCLES_PER_POINT: u32 = 4;

/// The named workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 216 cases × 10 samples × 5 models, one closed-loop worker.
    PaperSweep,
    /// Seeded `run_session` requests against a fresh in-process server, two clients.
    ServedSessions,
    /// Seeded random reference designs with long testbenches.
    LargeDesigns,
}

impl WorkloadKind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::PaperSweep, WorkloadKind::ServedSessions, WorkloadKind::LargeDesigns];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperSweep => "paper_sweep",
            WorkloadKind::ServedSessions => "served_sessions",
            WorkloadKind::LargeDesigns => "large_designs",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One reflection run of a sweep: indices into the sweep's cases and models, plus
/// the sample index handed to the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Index into [`Sweep::cases`].
    pub case: u32,
    /// Index into [`Sweep::models`].
    pub model: u8,
    /// Sample index (the paper's 10 samples per case).
    pub sample: u32,
}

/// splitmix64 finalizer: a stateless, platform-independent 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthetic LLM's case seed under benchmark seed `seed`: seed 0 keeps the
/// paper protocol's per-case seed, any other seed perturbs it.
pub fn llm_case_seed(case_seed: u64, seed: u64) -> u64 {
    if seed == 0 {
        case_seed
    } else {
        case_seed ^ splitmix64(seed)
    }
}

/// Set-up times of one build of a workload's cases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the case list (suite assembly or random design generation).
    pub suite: Duration,
    /// Lowering the references, compiling their tapes and recording their output
    /// traces.
    pub reference: Duration,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total(&self) -> Duration {
        self.suite + self.reference
    }
}

/// An in-process workload: cases, models, the ordered run list and the engine.
pub struct Sweep {
    /// Which workload this sweep belongs to (used for labels only).
    pub workload: WorkloadKind,
    /// The benchmark cases.
    pub cases: Vec<BenchmarkCase>,
    /// The synthetic LLM case seed of each case (perturbed by the benchmark seed).
    pub llm_seeds: Vec<u64>,
    /// The model profiles.
    pub models: Vec<ModelProfile>,
    /// The runs, in sweep order (case-major, then model, then sample).
    pub runs: Vec<RunKey>,
    engine: Engine,
}

impl Sweep {
    /// A sweep over every `cases × models × samples` combination, case-major.
    pub fn new(
        workload: WorkloadKind,
        cases: Vec<BenchmarkCase>,
        models: Vec<ModelProfile>,
        samples: std::ops::Range<u32>,
        seed: u64,
    ) -> Self {
        let mut runs = Vec::with_capacity(cases.len() * models.len() * samples.len());
        for case in 0..cases.len() as u32 {
            for model in 0..models.len() as u8 {
                for sample in samples.clone() {
                    runs.push(RunKey { case, model, sample });
                }
            }
        }
        Self::with_runs(workload, cases, models, runs, seed)
    }

    /// A sweep over an explicit run list.
    pub fn with_runs(
        workload: WorkloadKind,
        cases: Vec<BenchmarkCase>,
        models: Vec<ModelProfile>,
        runs: Vec<RunKey>,
        seed: u64,
    ) -> Self {
        let llm_seeds = cases.iter().map(|c| llm_case_seed(c.seed(), seed)).collect();
        let engine = Engine::builder()
            .config(WorkflowConfig::paper_default().with_max_iterations(MAX_ITERATIONS))
            .sim_engine(EngineKind::Compiled)
            .build();
        Self { workload, cases, llm_seeds, models, runs, engine }
    }

    /// The engine every run of the sweep uses.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Lowers every reference, compiles its tape and records its output trace, so
    /// that none of this lazy work lands in a timed run.
    pub fn prepare_references(&self) {
        for case in &self.cases {
            let tester = case.tester_with_engine(self.engine.sim_engine());
            let tape = tester.shared_tape().ok();
            // Testing the reference against itself records the shared reference
            // trace that every later sample of the case is compared against.
            let report = tester.test_with_tape(tester.reference(), tape);
            assert!(report.passed(), "reference {} fails its own testbench", case.id);
        }
    }

    /// The synthetic LLM of one run.
    pub fn llm(&self, key: RunKey) -> SyntheticLlm {
        let case = &self.cases[key.case as usize];
        SyntheticLlm::new(
            self.models[key.model as usize].clone(),
            Language::Chisel,
            case.reference().clone(),
            self.llm_seeds[key.case as usize],
        )
    }

    /// Runs one reflection run with the standard agents.
    pub fn run(&self, key: RunKey) -> WorkflowResult {
        self.run_with(key, self.llm(key), TemplateReviewer::new(), TraceInspector::new())
    }

    /// Runs one reflection run with the given agents (wrappers of the standard ones).
    pub fn run_with<G: Generator, R: Reviewer, I: Inspector>(
        &self,
        key: RunKey,
        generator: G,
        reviewer: R,
        inspector: I,
    ) -> WorkflowResult {
        let case = &self.cases[key.case as usize];
        self.engine
            .session(
                generator,
                reviewer,
                inspector,
                case.spec.clone(),
                case.tester_with_engine(self.engine.sim_engine()),
            )
            .run(key.sample)
    }

    /// `(workload, model, case, sample)` label of a run, as failure reports print it.
    pub fn label(&self, key: RunKey) -> String {
        format!(
            "{} / {} / {} / sample {}",
            self.workload.name(),
            self.models[key.model as usize].name,
            self.cases[key.case as usize].id,
            key.sample
        )
    }
}

/// The sample indices `large_designs` runs under benchmark seed `seed`:
/// `LARGE_SAMPLES` consecutive attempts starting at `seed × LARGE_SAMPLES`.
///
/// Unlike `paper_sweep`, the seed does not perturb the LLM's case seed here: that
/// seed also draws which (case, model) pairs are hard, and with only
/// `LARGE_DESIGNS × 5` pairs, each hard pair costing eleven long simulations, the
/// number of hard pairs would dominate every seed-to-seed difference.
pub fn large_samples(seed: u64) -> std::ops::Range<u32> {
    let first = (seed % u64::from(u32::MAX / LARGE_SAMPLES - 1)) as u32 * LARGE_SAMPLES;
    first..first + LARGE_SAMPLES
}

/// Netlist definitions a `large_designs` reference must lower to (random designs
/// average about 80).
pub const LARGE_DEFS: std::ops::RangeInclusive<usize> = 72..=96;

/// `large_designs` references: the first `count` random circuits (design seeds
/// `splitmix64(0)`, `splitmix64(1)`, …) that lower to [`LARGE_DEFS`] netlist
/// definitions, wrapped as benchmark cases.
///
/// The population is the same for every benchmark seed (which selects the
/// samples, see [`large_samples`]), and its designs are of similar size:
/// random circuits range from a handful of definitions to a few hundred, so with a
/// population that changed with the seed, or mixed tiny and huge designs, seed-to-seed
/// differences would measure the population instead of the loop.
pub fn large_design_cases(count: usize) -> Vec<BenchmarkCase> {
    let config = RandomCircuitConfig { max_ops: LARGE_MAX_OPS, ..RandomCircuitConfig::default() };
    (0u64..)
        .map(|i| (splitmix64(i), random_circuit(splitmix64(i), &config)))
        .filter(|(_, circuit)| {
            lower_circuit(circuit).is_ok_and(|netlist| LARGE_DEFS.contains(&netlist.defs.len()))
        })
        .take(count)
        .map(|(design_seed, circuit)| {
            BenchmarkCase::new(
                format!("random/{design_seed:016x}"),
                SourceFamily::HdlBits,
                Category::Sequential,
                "Implement the seeded random datapath described by the interface.",
                circuit,
                LARGE_TEST_POINTS,
                LARGE_CYCLES_PER_POINT,
            )
        })
        .collect()
}

/// Builds a workload's in-process sweep and prepares its references, timing both.
///
/// `served_sessions` gets the in-process twin of its request list (the suite at the
/// paper's case seeds, which is what the server runs); `requests` is ignored for the
/// other workloads.
pub fn build(kind: WorkloadKind, seed: u64, requests: &[RunKey]) -> (Sweep, SetupTimes) {
    let models = ModelProfile::paper_models();
    let start = Instant::now();
    let cases = match kind {
        WorkloadKind::LargeDesigns => large_design_cases(LARGE_DESIGNS),
        WorkloadKind::PaperSweep | WorkloadKind::ServedSessions => full_suite(),
    };
    let suite = start.elapsed();
    let sweep = match kind {
        WorkloadKind::PaperSweep => Sweep::new(kind, cases, models, 0..PAPER_SAMPLES, seed),
        WorkloadKind::LargeDesigns => Sweep::new(kind, cases, models, large_samples(seed), 0),
        WorkloadKind::ServedSessions => Sweep::with_runs(kind, cases, models, requests.to_vec(), 0),
    };
    let start = Instant::now();
    sweep.prepare_references();
    (sweep, SetupTimes { suite, reference: start.elapsed() })
}
