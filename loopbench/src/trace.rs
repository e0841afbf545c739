//! In-memory spans and counters for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into the public
//! functions of the layer crates: the agent wrappers ([`Recorder`], [`Traced`]) time
//! `Generator`, `Reviewer` and `Inspector` calls inside `Session::run`, and
//! [`replay`] pushes each run's emitted circuits, in order, through the compile and
//! simulate entry points the loop uses internally. Every span carries its run (an
//! index into the sweep's run list, which names workload, model, case and sample)
//! and its parent span. Spans stay in memory until [`Tracer::write_tsv`].

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rechisel_core::{
    Candidate, CommonErrorKnowledge, Feedback, Generator, Inspector, Reviewer, RevisionPlan, Spec,
    Trace,
};
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::{RebuildReason, RecompileOutcome};
use rechisel_sim::Tape;

use crate::workload::{RunKey, Sweep};

/// Span id; 0 means "no span" (a root's parent).
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the run (into the sweep's run list) the span belongs to.
    pub run: u32,
    /// The enclosing span, or 0.
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `llm.revise`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans and counters of one traced run, single-threaded.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    counters: RefCell<BTreeMap<String, f64>>,
    /// Run index and parent span new spans are attached to.
    scope: Cell<(u32, SpanId)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; span times are relative to now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
            scope: Cell::new((0, 0)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span in the current scope and makes it the parent of later spans.
    pub fn open(&self, name: &'static str) -> SpanId {
        let (run, parent) = self.scope.get();
        let mut spans = self.spans.borrow_mut();
        let start_ns = self.now_ns();
        spans.push(Span { run, parent, name, start_ns, end_ns: start_ns });
        let id = spans.len() as SpanId;
        self.scope.set((run, id));
        id
    }

    /// Closes a span opened by [`open`](Self::open), restoring its parent as scope.
    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize - 1];
        span.end_ns = end_ns;
        self.scope.set((span.run, span.parent));
    }

    /// Starts a new run: later spans belong to run `run` and have no parent.
    pub fn begin_run(&self, run: u32) {
        self.scope.set((run, 0));
    }

    /// Times `f` as a leaf span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Like [`time`](Self::time), naming the span after the result.
    pub fn time_named<T>(&self, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
        let id = self.open("");
        let out = f();
        self.close(id);
        self.spans.borrow_mut()[id as usize - 1].name = name(&out);
        out
    }

    /// Adds `value` to a named counter.
    pub fn add(&self, counter: &str, value: f64) {
        *self.counters.borrow_mut().entry(counter.to_string()).or_default() += value;
    }

    /// A counter's value (0 when never added to).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.borrow().get(counter).copied().unwrap_or_default()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.borrow().iter().filter(|s| s.name == name).count() as u64
    }

    /// Total seconds of the spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::seconds).sum()
    }

    /// Total seconds of spans named `name` whose parent is named `parent`.
    pub fn child_seconds(&self, parent: &str, names: &[&str]) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .filter(|s| s.parent != 0 && spans[s.parent as usize - 1].name == parent)
            .map(Span::seconds)
            .sum()
    }

    /// Writes the spans to `<stem>.spans.tsv` (`id parent run name start_ns end_ns`)
    /// and the runs they refer to to `<stem>.runs.tsv`
    /// (`run workload model case sample`).
    pub fn write_tsv(&self, dir: &Path, stem: &str, sweep: &Sweep) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut runs =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}.runs.tsv")))?);
        writeln!(runs, "run\tworkload\tmodel\tcase\tsample")?;
        for (index, key) in sweep.runs.iter().enumerate() {
            writeln!(
                runs,
                "{index}\t{}\t{}\t{}\t{}",
                sweep.workload.name(),
                sweep.models[key.model as usize].name,
                sweep.cases[key.case as usize].id,
                key.sample
            )?;
        }
        runs.flush()?;
        let mut spans =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}.spans.tsv")))?);
        writeln!(spans, "id\tparent\trun\tname\tstart_ns\tend_ns")?;
        for (index, span) in self.spans.borrow().iter().enumerate() {
            writeln!(
                spans,
                "{}\t{}\t{}\t{}\t{}\t{}",
                index + 1,
                span.parent,
                span.run,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        spans.flush()
    }
}

/// A generator wrapper that keeps every emitted circuit (one per iteration, in
/// order) and, given a tracer, times each call.
pub struct Recorder<'t, G> {
    inner: G,
    tracer: Option<&'t Tracer>,
    /// The circuits emitted so far, in iteration order.
    pub circuits: Vec<Circuit>,
}

impl<'t, G> Recorder<'t, G> {
    /// Wraps `inner`.
    pub fn new(inner: G, tracer: Option<&'t Tracer>) -> Self {
        Self { inner, tracer, circuits: Vec::new() }
    }

    fn timed(&mut self, name: &'static str, f: impl FnOnce(&mut G) -> Candidate) -> Candidate {
        let candidate = match self.tracer {
            Some(tracer) => tracer.time(name, || f(&mut self.inner)),
            None => f(&mut self.inner),
        };
        self.circuits.push(candidate.circuit.clone());
        candidate
    }
}

impl<G: Generator> Generator for Recorder<'_, G> {
    fn generate(&mut self, spec: &Spec, attempt: u32) -> Candidate {
        self.timed("llm.generate", |g| g.generate(spec, attempt))
    }

    fn revise(&mut self, previous: &Candidate, plan: &RevisionPlan, iteration: u32) -> Candidate {
        self.timed("llm.revise", |g| g.revise(previous, plan, iteration))
    }
}

/// A reviewer or inspector wrapper that times each call as a span.
pub struct Traced<'t, A> {
    inner: A,
    tracer: &'t Tracer,
}

impl<'t, A> Traced<'t, A> {
    /// Wraps `inner`.
    pub fn new(inner: A, tracer: &'t Tracer) -> Self {
        Self { inner, tracer }
    }
}

impl<A: Reviewer> Reviewer for Traced<'_, A> {
    fn review(
        &mut self,
        candidate: &Candidate,
        feedback: &Feedback,
        trace: &Trace,
        knowledge: &CommonErrorKnowledge,
    ) -> RevisionPlan {
        let inner = &mut self.inner;
        self.tracer.time("core.review", || inner.review(candidate, feedback, trace, knowledge))
    }
}

impl<A: Inspector> Inspector for Traced<'_, A> {
    fn detect_cycle(&mut self, trace: &Trace, feedback: &Feedback) -> Option<usize> {
        let inner = &mut self.inner;
        self.tracer.time("core.inspect", || inner.detect_cycle(trace, feedback))
    }
}

/// Replays one run's emitted circuits, in order, through the entry points the loop
/// calls internally, recording a span per call under a `bench.replay` span:
///
/// * `ChiselCompiler::incremental().compile` (`core.compile`), which also yields the
///   reuse tier and the tape patch/rebuild counts;
/// * `Pipeline::check_timed` (`firrtl.check.accepted` / `firrtl.check.rejected`),
///   whose `run_timed` stats give the per-pass times;
/// * on accepted circuits, `Pipeline::lower` (`firrtl.lower`), `Pipeline::emit`
///   (`verilog.emit`), `Tape::compile` (`sim.tape_compile`) and
///   `FunctionalTester::test_with_tape` (`sim.test`).
pub fn replay(tracer: &Tracer, sweep: &Sweep, key: RunKey, circuits: &[Circuit]) {
    let replay = tracer.open("bench.replay");
    let compiler = sweep.engine().compiler();
    let pipeline = compiler.pipeline();
    let tester = sweep.cases[key.case as usize].tester_with_engine(sweep.engine().sim_engine());
    let mut incremental = compiler.incremental();
    for circuit in circuits {
        if let Ok(compiled) = tracer.time("core.compile", || incremental.compile(circuit)) {
            let tier = match compiled.outcome {
                RecompileOutcome::Identical => "identical",
                RecompileOutcome::Patched { .. } => "patched",
                RecompileOutcome::ScopedCheck { .. } => "scoped",
                RecompileOutcome::FullRebuild(RebuildReason::FirstRevision) => "full_first",
                RecompileOutcome::FullRebuild(_) => "full_other",
            };
            tracer.add(&format!("firrtl.incremental.{tier}"), 1.0);
        }
        let (checked, stats) = tracer.time_named(
            || pipeline.check_timed(circuit),
            |(checked, _)| {
                if checked.is_ok() {
                    "firrtl.check.accepted"
                } else {
                    "firrtl.check.rejected"
                }
            },
        );
        for timing in stats.timings() {
            tracer.add(&format!("firrtl.pass.{}.s", timing.name), timing.duration.as_secs_f64());
        }
        let Ok(checked) = checked else { continue };
        let Ok(netlist) = tracer.time("firrtl.lower", || pipeline.lower(&checked)) else {
            continue;
        };
        let _verilog = tracer.time("verilog.emit", || pipeline.emit(&checked, &netlist));
        let tape = tracer.time("sim.tape_compile", || Tape::compile(&netlist)).ok().map(Arc::new);
        let report = tracer.time("sim.test", || tester.test_with_tape(&netlist, tape));
        tracer.add("sim.test.points", report.total_points as f64);
    }
    let (patched, rebuilt) = incremental.tape_stats();
    tracer.add("core.tape.patched", patched as f64);
    tracer.add("core.tape.rebuilt", rebuilt as f64);
    tracer.close(replay);
}
