//! `ist-direct`: the library path on the paper's IST suite.
//!
//! QASM text → `qcir::qasm::parse` → `EdmRunner::run` and
//! `EdmRunner::run_baseline` at 16 384 shots on the paper-regime
//! melbourne14. Simulation dominates, so shot-loop work shows here.

use crate::inputs::{self, CircuitInput, PAPER_SHOTS};
use crate::registry::Snapshot;
use crate::report::{gate, peak_rss_mb, GateError, Report};
use crate::span::Tracer;
use crate::stats;
use edm_core::{metrics, Backend, EdmResult, EdmRunner, EnsembleConfig, MemberRun};
use qcir::Circuit;
use qdevice::{Calibration, DeviceModel};
use qmap::Transpiler;
use qsim::{Counts, NoisySimulator};
use std::time::Instant;

/// Suite passes on all threads a run makes at least.
const MIN_PASSES: usize = 3;

/// Untraced set-ups per run; the median is reported. Set-up is cheap here
/// (sub-millisecond), so many repeats keep its median steady.
const SETUPS: usize = 9;

struct Device {
    model: DeviceModel,
    calibration: Calibration,
}

/// Builds the device, transpiler, simulator and worker pool, and parses the
/// inputs once so a malformed input fails before timing starts.
fn set_up(suite: &[CircuitInput]) -> Result<(Device, f64), GateError> {
    let start = Instant::now();
    let model = DeviceModel::synthesize_with(
        qdevice::presets::melbourne14(),
        &inputs::paper_profile(),
        inputs::PAPER_DEVICE_SEED,
    );
    let calibration = model.calibration();
    let _ = Transpiler::new(model.topology(), &calibration);
    let _ = NoisySimulator::from_device(&model);
    for c in suite {
        qcir::qasm::parse(&c.qasm).map_err(|e| format!("{}: bad QASM: {e}", c.name))?;
    }
    let _ = qsim::pool::WorkerPool::global();
    Ok((Device { model, calibration }, start.elapsed().as_secs_f64()))
}

/// Histograms of one circuit: EDM members in order, then the baseline.
type Answer = Vec<Counts>;

struct Pass {
    wall_s: f64,
    job_ms: Vec<f64>,
    answers: Vec<Answer>,
    runs: Vec<(EdmResult, MemberRun)>,
}

fn answer(edm: &EdmResult, baseline: &MemberRun) -> Answer {
    edm.members
        .iter()
        .map(|m| m.counts.clone())
        .chain(std::iter::once(baseline.counts.clone()))
        .collect()
}

/// One suite pass through the public runner: per circuit, one EDM job and
/// one baseline job, each from QASM text to merged answer.
fn pass(
    runner: &EdmRunner<'_, &NoisySimulator<'_>>,
    suite: &[CircuitInput],
    seeds: &[u64],
) -> Result<Pass, GateError> {
    let start = Instant::now();
    let mut job_ms = Vec::with_capacity(2 * suite.len());
    let mut runs = Vec::with_capacity(suite.len());
    for (c, &seed) in suite.iter().zip(seeds) {
        let t = Instant::now();
        let circuit = parse(c)?;
        let edm = runner
            .run(&circuit, PAPER_SHOTS, seed)
            .map_err(|e| format!("{}: EDM run failed: {e}", c.name))?;
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let circuit = parse(c)?;
        let baseline = runner
            .run_baseline(&circuit, PAPER_SHOTS, seed)
            .map_err(|e| format!("{}: baseline run failed: {e}", c.name))?;
        job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        runs.push((edm, baseline));
    }
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        job_ms,
        answers: runs.iter().map(|(e, b)| answer(e, b)).collect(),
        runs,
    })
}

fn parse(c: &CircuitInput) -> Result<Circuit, GateError> {
    Ok(qcir::qasm::parse(&c.qasm).map_err(|e| format!("{}: bad QASM: {e}", c.name))?)
}

/// Shots one suite pass executes.
fn pass_shots(suite: &[CircuitInput]) -> f64 {
    (2 * suite.len() as u64 * PAPER_SHOTS) as f64
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The quality section: IST per circuit and the geomean gains. Quality
/// values are deterministic for a seed and never mixed with timings.
fn quality(report: &mut Report, suite: &[CircuitInput], p: &Pass) -> Result<(), GateError> {
    report.say("quality (deterministic for a seed; not a timing):");
    report.say(format!(
        "  {:<9} {:>9} {:>9} {:>9}",
        "circuit", "ist_base", "ist_edm", "ist_wedm"
    ));
    let (mut edm_gain, mut wedm_gain) = (Vec::new(), Vec::new());
    for (c, (edm, base)) in suite.iter().zip(&p.runs) {
        let ib = metrics::ist(&base.dist, c.correct);
        let ie = edm.ist_edm(c.correct);
        let iw = edm.ist_wedm(c.correct);
        gate(
            [ib, ie, iw].iter().all(|x| x.is_finite() && *x > 0.0),
            || format!("{}: IST not finite and positive ({ib}, {ie}, {iw})", c.name),
        )?;
        report.say(format!("  {:<9} {ib:>9.4} {ie:>9.4} {iw:>9.4}", c.name));
        edm_gain.push(ie / ib);
        wedm_gain.push(iw / ib);
    }
    report.say(format!(
        "  ist_gain_edm {:.6}  ist_gain_wedm {:.6}  (geomean of merged IST / best-estimated baseline IST)",
        geomean(&edm_gain),
        geomean(&wedm_gain)
    ));
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Report, GateError> {
    let suite = inputs::ist_suite();
    let seeds = inputs::ist_run_seeds(seed, suite.len());
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setups.push(set_up(&suite)?.1);
    }
    let (device, secs) = set_up(&suite)?;
    setups.push(secs);
    let transpiler = Transpiler::new(device.model.topology(), &device.calibration);
    let sim = NoisySimulator::from_device(&device.model);
    let config = EnsembleConfig::default();
    let nproc = qsim::pool::default_threads();
    let all = EdmRunner::new(&transpiler, &sim, config).with_threads(nproc);
    let one = EdmRunner::new(&transpiler, &sim, config).with_threads(1);

    // Gate: every pass, at either thread count, is bit-identical to the
    // first. Later passes keep only their timings, so memory does not grow
    // with the number of passes.
    let same = |i: usize, p: &Pass, first: &Pass| {
        gate(p.answers == first.answers, || {
            format!("pass {i}: histograms differ between passes or thread counts")
        })
    };
    let start = Instant::now();
    let first = pass(&all, &suite, &seeds)?;
    let mut job_ms = vec![first.job_ms.clone()];
    while job_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = pass(&all, &suite, &seeds)?;
        same(job_ms.len(), &p, &first)?;
        job_ms.push(p.job_ms);
    }
    let passes = job_ms.len();
    // Outside the timed window: one pass on a single thread, for the
    // thread-count gate and the single-thread rate.
    let single = pass(&one, &suite, &seeds)?;
    same(passes, &single, &first)?;
    report.attempted = (passes + 1) as u64 * 2 * suite.len() as u64;

    // Each of the 12 jobs of a pass (EDM and baseline per circuit) is
    // timed in every pass. Machine noise comes in bursts of about a
    // second, so the median is taken per job across passes; the suite's
    // rate is its shots over the sum of those medians, and the typical
    // job latency is their geometric mean.
    let job_medians: Vec<f64> = (0..2 * suite.len())
        .map(|j| stats::median(&job_ms.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect();
    let suite_ms: f64 = job_medians.iter().sum();
    let shots_per_s = pass_shots(&suite) / (suite_ms / 1e3);
    let single_rate = pass_shots(&suite) / single.wall_s;

    report.set("setup_s", stats::median(&setups));
    report.set("shots_per_s", shots_per_s);
    report.set("latency_p50_ms", geomean(&job_medians));
    report.set("peak_rss_mb", peak_rss_mb()?);
    report.say(format!(
        "ist-direct: {} circuits x (EDM + baseline) x {PAPER_SHOTS} shots, {} pass(es) at {nproc} thread(s) in {:.1} s, then 1 at one thread",
        suite.len(),
        passes,
        start.elapsed().as_secs_f64()
    ));
    report.say(format!(
        "  shots_per_s ({nproc} threads) {shots_per_s:.1}  shots_per_s_1t {single_rate:.1} (one pass)"
    ));
    report.say("  median job ms per circuit (EDM, baseline):");
    for (c, m) in suite.iter().zip(job_medians.chunks(2)) {
        report.say(format!("    {:<9} {:>10.3} {:>10.3}", c.name, m[0], m[1]));
    }
    report.say(format!(
        "  latency_p50_ms = geomean of those medians, {:.3} (each over {} passes)",
        geomean(&job_medians),
        passes
    ));
    report.say(format!(
        "  setup: {}",
        setups
            .iter()
            .map(|s| format!("{s:.6} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    quality(&mut report, &suite, &first)?;
    Ok(report)
}

/// The call-by-call path with its spans and the counts it gathers.
struct TracedPath<'a> {
    transpiler: &'a Transpiler<'a>,
    sim: &'a NoisySimulator<'a>,
    threads: usize,
    tracer: Tracer,
    embeddings: u64,
    kept: u64,
    shots: u64,
    /// Every executed member circuit, for timing `qsim` compilation.
    members: Vec<Circuit>,
}

impl TracedPath<'_> {
    /// One EDM or baseline job through the individual public calls that
    /// `EdmRunner::run` makes, each wrapped in its own span.
    fn job(
        &mut self,
        c: &CircuitInput,
        config: &EnsembleConfig,
        seed: u64,
    ) -> Result<EdmResult, GateError> {
        let (transpiler, sim, threads) = (self.transpiler, self.sim, self.threads);
        let tracer = &mut self.tracer;
        let circuit = tracer.time("qcir.parse_us", |_| parse(c))?;
        let routed = tracer
            .time("qmap.transpile_us", |_| transpiler.transpile(&circuit))
            .map_err(|e| format!("{}: transpile failed: {e}", c.name))?;
        let before = Snapshot::take();
        let members = tracer
            .time("edm-core.diversify_us", |_| {
                edm_core::diversify(transpiler, &routed.physical, config)
            })
            .map_err(|e| format!("{}: diversify failed: {e}", c.name))?;
        self.embeddings += Snapshot::take().embeddings() - before.embeddings();
        self.kept += members.len() as u64;
        let plan = tracer
            .time("edm-core.plan_us", |_| {
                edm_core::plan_run(members, PAPER_SHOTS, seed, config.shot_allocation)
            })
            .map_err(|e| format!("{}: plan failed: {e}", c.name))?;
        let jobs = plan.jobs();
        let raw = tracer.time("qsim.execute_us", |_| sim.execute_batch(&jobs, threads));
        drop(jobs);
        self.shots += PAPER_SHOTS;
        self.members
            .extend(plan.members.iter().map(|m| m.physical.clone()));
        Ok(tracer
            .time("edm-core.merge_us", |_| {
                edm_core::assemble_result(plan.members, raw, config)
            })
            .map_err(|e| format!("{}: merge failed: {e}", c.name))?)
    }
}

/// The traced run: the same suite pass once through `EdmRunner` with
/// tracing off, then once call by call with spans and telemetry on.
pub fn run_traced(seed: u64) -> Result<Report, GateError> {
    let suite = inputs::ist_suite();
    let seeds = inputs::ist_run_seeds(seed, suite.len());
    let mut report = Report::default();
    let (device, _) = set_up(&suite)?;
    let transpiler = Transpiler::new(device.model.topology(), &device.calibration);
    let sim = NoisySimulator::from_device(&device.model);
    let config = EnsembleConfig::default();
    let mut baseline_config = config;
    baseline_config.size = 1;
    baseline_config.invert_measurements = false;
    let nproc = qsim::pool::default_threads();
    let runner = EdmRunner::new(&transpiler, &sim, config).with_threads(nproc);

    let untraced = pass(&runner, &suite, &seeds)?;

    edm_telemetry::set_enabled(true);
    let before = Snapshot::take();
    let mut path = TracedPath {
        transpiler: &transpiler,
        sim: &sim,
        threads: nproc,
        tracer: Tracer::new(),
        embeddings: 0,
        kept: 0,
        shots: 0,
        members: Vec::new(),
    };
    let start = Instant::now();
    let mut answers = Vec::with_capacity(suite.len());
    for (c, &seed) in suite.iter().zip(&seeds) {
        let edm = path.job(c, &config, seed)?;
        let base = path.job(c, &baseline_config, seed)?;
        let base = base.members.into_iter().next().expect("one member");
        answers.push(answer(&edm, &base));
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let after = Snapshot::take();
    edm_telemetry::set_enabled(false);
    report.attempted = 4 * suite.len() as u64;

    gate(answers == untraced.answers, || {
        "the call-by-call traced path differs from EdmRunner::run".into()
    })?;

    // Compiling nests inside execute_batch; time it as its own call on the
    // same members, outside the wall-clock sum.
    let (mut compile_us, mut fused, mut sites) = (0.0, 0u64, 0u64);
    for m in &path.members {
        let t = Instant::now();
        let plan = sim.compile(m).map_err(|e| format!("compile failed: {e}"))?;
        compile_us += t.elapsed().as_secs_f64() * 1e6;
        fused += plan.num_fused_ops() as u64;
        sites += plan.num_event_sites() as u64;
    }

    let self_times = path.tracer.self_times();
    let layered: f64 = self_times.values().sum();
    for (name, us) in &self_times {
        report.set(name, *us);
    }
    report.set("wall_us", wall_us);
    report.set("other_us", wall_us - layered);
    report.set("trace.overhead", wall_us / (untraced.wall_s * 1e6));
    report.set("qsim.compile_us", compile_us);
    report.set("qsim.fused_ops", fused as f64);
    report.set("qsim.event_sites", sites as f64);
    report.set(
        "qsim.slices",
        (after.counter("edm_qsim_slices_total") - before.counter("edm_qsim_slices_total")) as f64,
    );
    report.say(format!(
        "  shots executed in the traced pass: {}",
        path.shots
    ));
    report.set(
        "qsim.ns_per_shot",
        self_times["qsim.execute_us"] * 1e3 / path.shots as f64,
    );
    report.set("qdevice.embeddings", path.embeddings as f64);
    report.set(
        "edm-core.kept_ratio",
        path.kept as f64 / path.embeddings.max(1) as f64,
    );
    report.say(format!(
        "ist-direct traced: {} EDM + {} baseline jobs call by call at {nproc} thread(s); matches EdmRunner::run",
        suite.len(),
        suite.len()
    ));
    Ok(report)
}
