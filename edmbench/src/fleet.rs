//! `fleet-hot` and `fleet-cold`: the serving path over TCP against an
//! in-process `FleetServer` with the default three-device fleet.
//!
//! - `fleet-hot` is an open loop of 64-shot jobs drawn from the IST suite
//!   after a warm-up that fills every device's compile cache, so framing,
//!   admission, routing, coalescing and the per-dispatch `qsim` compile
//!   show.
//! - `fleet-cold` is a closed loop of recalibration rounds: each round
//!   sends `BumpCalibration`, then submits the nine Table-1 circuits, and
//!   every routing lookup misses the cache on every device, so transpile,
//!   embedding and ESP ranking show.

use crate::client::Conn;
use crate::inputs::{self, CircuitInput, SERVE_SHOTS};
use crate::registry::Snapshot;
use crate::report::{gate, peak_rss_mb, GateError, Report};
use crate::span::Tracer;
use crate::stats;
use edm_core::{EdmRunner, EnsembleConfig, EnsembleMember};
use edm_fleet::backend::DeviceBackend;
use edm_fleet::fleet::{Fleet, FleetConfig};
use edm_fleet::server::{handle_request, FleetServer, ServerConfig};
use edm_serve::protocol::{DeviceStatus, JobSummary, Request, Response};
use edm_serve::queue::{JobRequest, Priority};
use qcir::Circuit;
use qdevice::{DeviceModel, Topology};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Delay between polls of one unfinished job: a tenth of the time since it
/// was accepted, within these limits. A finish is then timed to within
/// about 10% of the job's latency (and at most 100 µs for jobs that finish
/// within a millisecond of acceptance), while a job that waits in a deep
/// queue is not polled hundreds of times, which would load the very
/// server being measured.
const POLL_MIN: Duration = Duration::from_micros(100);
const POLL_MAX: Duration = Duration::from_millis(5);

fn poll_delay(since_accepted: Duration) -> Duration {
    (since_accepted / 10).clamp(POLL_MIN, POLL_MAX)
}

/// How the poll cadence is stated in the report.
fn cadence() -> String {
    format!(
        "poll every tenth of a job's age, {}-{} us",
        POLL_MIN.as_micros(),
        POLL_MAX.as_micros()
    )
}

/// A `fleet-hot` job not finished this long after it was due counts as
/// failed.
const HOT_DEADLINE: Duration = Duration::from_secs(2);

/// A `fleet-cold` job's deadline: a round compiles every circuit on every
/// device inside routing, which takes seconds.
const COLD_DEADLINE: Duration = Duration::from_secs(60);

/// The `fleet-hot` latency limit: an offered rate is sustained when the
/// p99 latency stays within it, no job fails, and the backlog does not
/// grow.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// The fixed `fleet-hot` reference rate (jobs/s) for latency, well below
/// saturation, and the jobs sent at it: enough for a p99 under the
/// ten-beyond rule.
const REFERENCE_RATE: f64 = 200.0;
const REFERENCE_JOBS: usize = 1400;

/// The reference and capacity phases each run as this many equal
/// sub-phases, and report the median over them: the host slows down in
/// bursts of about a second, and a burst then spoils one sub-phase instead
/// of the whole figure.
const SUB_PHASES: usize = 7;

/// Rate-search steps: the first rate, the growth factor, and the jobs per
/// step (enough for a p99).
const SEARCH_START: f64 = 1000.0;
const SEARCH_GROWTH: f64 = 1.25;
const SEARCH_JOBS: usize = 1000;

/// The `fleet-hot` capacity phase: a closed loop holding this many jobs
/// unfinished (below the routing depth cap of 64, so routing never fails
/// over) until this many jobs have run. A fixed count keeps the memory the
/// fleet retains for finished jobs, and so the peak RSS, the same on every
/// run.
const SATURATION_WINDOW: usize = 48;
const SATURATION_JOBS: usize = 11_200;

/// Untraced set-ups per run; the median is reported. A hot set-up compiles
/// the suite on three devices (seconds); a cold one takes well under a
/// millisecond, so it is repeated more often.
const HOT_SETUPS: usize = 2;
const COLD_SETUPS: usize = 9;

/// `fleet-cold` rounds a run makes at least: three rounds of nine jobs
/// give 27 latencies, enough for a median under the ten-beyond rule.
const MIN_ROUNDS: usize = 3;

/// Jobs a traced `fleet-hot` run drives in process, then over TCP at the
/// reference rate.
const TRACED_HOT_JOBS: usize = 300;
const TRACED_TCP_JOBS: usize = 1000;

/// The default fleet: the three presets with device seeds 42, 43, 44.
fn presets() -> [(Topology, &'static str); 3] {
    [
        (qdevice::presets::melbourne14(), "melbourne14"),
        (qdevice::presets::guadalupe16(), "guadalupe16"),
        (qdevice::presets::tokyo20(), "tokyo20"),
    ]
}

fn make_fleet() -> Fleet<DeviceBackend> {
    Fleet::synthesize(
        &presets(),
        inputs::FLEET_DEVICE_SEED,
        FleetConfig::default(),
    )
}

fn parse_all(suite: &[CircuitInput]) -> Result<Vec<Circuit>, GateError> {
    suite
        .iter()
        .map(|c| {
            qcir::qasm::parse(&c.qasm).map_err(|e| GateError(format!("{}: bad QASM: {e}", c.name)))
        })
        .collect()
}

/// A fleet served on an ephemeral loopback port by its own threads.
struct Served {
    addr: SocketAddr,
    fleet: Arc<Fleet<DeviceBackend>>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Served {
    /// Binds a fresh fleet; `prepare` runs on it before any server thread
    /// starts (the cache warm-up, or traced in-process passes).
    fn start(
        prepare: impl FnOnce(&Fleet<DeviceBackend>) -> Result<(), GateError>,
    ) -> Result<Served, GateError> {
        let server = FleetServer::bind(make_fleet(), "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind failed: {e}"))?;
        let fleet = server.fleet();
        prepare(&fleet)?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Served {
            addr,
            fleet,
            shutdown,
            thread,
        })
    }

    fn stop(self) -> Result<(), GateError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .map_err(|_| GateError("fleet server thread panicked".into()))
    }
}

/// Fills every device's compile cache with the suite: one job per circuit,
/// processed to completion.
fn warm(fleet: &Fleet<DeviceBackend>, circuits: &[Circuit]) -> Result<(), GateError> {
    let mut ids = Vec::new();
    for c in circuits {
        let ticket = fleet
            .submit(JobRequest {
                circuit: c.clone(),
                shots: SERVE_SHOTS,
                seed: 0,
                priority: Priority::Normal,
            })
            .map_err(|e| format!("warm-up submit rejected: {e}"))?;
        ids.push(ticket.id);
    }
    fleet.process_all();
    for id in ids {
        gate(
            matches!(fleet.poll(id), Some(edm_serve::service::JobState::Done(_))),
            || format!("warm-up job {id} did not finish"),
        )?;
    }
    Ok(())
}

/// Per-device counters summed into the quantities the gates and the
/// per-layer section read.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    completed: u64,
    batches: u64,
    compilations: u64,
    rejected: u64,
    submitted: [u64; 3],
}

impl Counters {
    fn from_status(devices: &[DeviceStatus]) -> Self {
        let mut c = Counters::default();
        for (i, d) in devices.iter().enumerate() {
            c.hits += d.stats.cache.hits;
            c.misses += d.stats.cache.misses;
            c.completed += d.stats.completed;
            c.batches += d.stats.batches;
            c.compilations += d.stats.compilations;
            c.rejected += d.stats.rejected;
            c.submitted[i] = d.stats.submitted;
        }
        c
    }

    fn over_tcp(conn: &mut Conn<()>) -> Result<Self, GateError> {
        match conn.call(&Request::FleetStats)? {
            Response::FleetStats { devices } => Ok(Self::from_status(&devices)),
            other => Err(GateError(format!("unexpected FleetStats reply {other:?}"))),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        let mut submitted = [0; 3];
        for (i, s) in submitted.iter_mut().enumerate() {
            *s = self.submitted[i] - before.submitted[i];
        }
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            completed: self.completed - before.completed,
            batches: self.batches - before.batches,
            compilations: self.compilations - before.compilations,
            rejected: self.rejected - before.rejected,
            submitted,
        }
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }

    fn report(&self, report: &mut Report) {
        let total: u64 = self.submitted.iter().sum();
        report.set("edm-serve.cache_hit_ratio", self.hit_ratio());
        report.set("edm-serve.compilations", self.compilations as f64);
        report.set("edm-serve.rejected", self.rejected as f64);
        report.set(
            "edm-serve.jobs_per_batch",
            self.completed as f64 / self.batches.max(1) as f64,
        );
        report.say(format!(
            "  jobs routed: {total} ({:?} per device)",
            self.submitted
        ));
        for (name, n) in [
            "edm-fleet.routed_share.d0",
            "edm-fleet.routed_share.d1",
            "edm-fleet.routed_share.d2",
        ]
        .into_iter()
        .zip(self.submitted)
        {
            report.set(name, n as f64 / total.max(1) as f64);
        }
    }
}

/// One finished job as the client saw it.
struct Finished {
    circuit: usize,
    seed: u64,
    id: u64,
    summary: JobSummary,
}

fn submit_request(qasm: &str, seed: u64) -> Request {
    Request::Submit {
        qasm: qasm.to_string(),
        shots: SERVE_SHOTS,
        seed,
        priority: Priority::Normal,
        trace_id: 0,
        parent_span: 0,
    }
}

#[derive(Clone, Copy)]
enum Tag {
    Submit(usize),
    Poll(usize),
}

/// What one batch of jobs measured at the client.
#[derive(Default)]
struct Phase {
    /// Per finished job: ms from when it was due (open loop) or sent
    /// (closed loop) to the `Finished` reply, in job order.
    latency_ms: Vec<(usize, f64)>,
    /// How late the generator sent each job, µs (open loop only).
    lateness_us: Vec<f64>,
    submit_rtt_us: Vec<f64>,
    poll_rtt_us: Vec<f64>,
    finished: Vec<Finished>,
    failed: u64,
    /// When the last `Finished` reply arrived.
    last_finish: Option<Instant>,
}

#[derive(Clone, Copy, Default)]
struct JobState {
    id: Option<u64>,
    accepted: Option<Instant>,
    next_poll: Option<Instant>,
    done: bool,
}

/// When the generator sends each job.
#[derive(Clone, Copy)]
enum Schedule {
    /// Open loop: job `k` is due at `start + k / rate`, whether or not
    /// earlier jobs have finished; latency counts from the due time.
    Open { start: Instant, rate: f64 },
    /// Closed loop: at most `window` jobs unfinished at once, each sent as
    /// soon as a slot frees; latency counts from the send.
    Closed { window: usize },
}

/// Sends `jobs` on `conns` per `schedule` (round-robin over the
/// connections), polls every accepted job (see [`poll_delay`]) until it
/// finishes, fails, or misses `deadline`.
fn drive(
    conns: &mut [Conn<Tag>],
    qasm: &[String],
    jobs: &[(usize, u64)],
    schedule: Schedule,
    deadline: Duration,
) -> Result<Phase, GateError> {
    let mut phase = Phase::default();
    let mut state = vec![JobState::default(); jobs.len()];
    let mut due: Vec<Instant> = Vec::with_capacity(jobs.len());
    let mut active: Vec<usize> = Vec::new();
    let mut responses = Vec::new();
    let mut open = 0;
    loop {
        let now = Instant::now();
        let mut busy = false;
        loop {
            let k = due.len();
            let send_at = match schedule {
                _ if k == jobs.len() => break,
                Schedule::Open { start, rate } => {
                    let at = start + Duration::from_secs_f64(k as f64 / rate);
                    if at > now {
                        break;
                    }
                    at
                }
                Schedule::Closed { window } => {
                    if open >= window {
                        break;
                    }
                    now
                }
            };
            let (circuit, seed) = jobs[k];
            let n = conns.len();
            conns[k % n].send(&submit_request(&qasm[circuit], seed), Tag::Submit(k));
            phase
                .lateness_us
                .push(now.duration_since(send_at).as_secs_f64() * 1e6);
            due.push(send_at);
            open += 1;
            busy = true;
        }
        if open == 0 && due.len() == jobs.len() {
            break;
        }
        for &j in &active {
            if let (Some(id), Some(at)) = (state[j].id, state[j].next_poll) {
                if at <= now {
                    let n = conns.len();
                    conns[j % n].send(&Request::Poll { id }, Tag::Poll(j));
                    state[j].next_poll = None;
                    busy = true;
                }
            }
        }
        for conn in conns.iter_mut() {
            busy |= conn.pump(&mut responses)?;
        }
        let now = Instant::now();
        for (tag, sent, response) in responses.drain(..) {
            let rtt = now.duration_since(sent).as_secs_f64() * 1e6;
            let j = match tag {
                Tag::Submit(j) | Tag::Poll(j) => j,
            };
            let finished = match (tag, response) {
                (Tag::Submit(_), Response::Accepted { id, .. }) => {
                    phase.submit_rtt_us.push(rtt);
                    state[j].id = Some(id);
                    state[j].accepted = Some(now);
                    state[j].next_poll = Some(now);
                    active.push(j);
                    false
                }
                (Tag::Submit(_), Response::Rejected { reason }) => {
                    eprintln!("job {j} rejected: {reason}");
                    phase.failed += 1;
                    true
                }
                (Tag::Poll(_), Response::Queued { .. }) => {
                    phase.poll_rtt_us.push(rtt);
                    let accepted = state[j].accepted.expect("polled jobs were accepted");
                    state[j].next_poll = Some(now + poll_delay(now.duration_since(accepted)));
                    false
                }
                (Tag::Poll(_), Response::Finished { id, summary }) => {
                    phase.poll_rtt_us.push(rtt);
                    let latency = now.duration_since(due[j]);
                    if latency > deadline {
                        phase.failed += 1;
                    } else {
                        phase.latency_ms.push((j, latency.as_secs_f64() * 1e3));
                        phase.finished.push(Finished {
                            circuit: jobs[j].0,
                            seed: jobs[j].1,
                            id,
                            summary,
                        });
                    }
                    phase.last_finish = Some(now);
                    true
                }
                (Tag::Poll(_), Response::Failed { reason, .. }) => {
                    eprintln!("job {j} failed: {reason}");
                    phase.failed += 1;
                    true
                }
                (_, other) => return Err(GateError(format!("unexpected reply {other:?}"))),
            };
            if finished {
                state[j].done = true;
                open -= 1;
            }
        }
        active.retain(|&j| !state[j].done);
        if let Some(oldest) = active.iter().map(|&j| due[j]).min() {
            gate(now.duration_since(oldest) < deadline * 2, || {
                "a job was never answered; the connection is out of sync".into()
            })?;
        }
        if !busy {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    phase.latency_ms.sort_by_key(|&(j, _)| j);
    Ok(phase)
}

fn latencies(phase: &Phase) -> Vec<f64> {
    phase.latency_ms.iter().map(|&(_, ms)| ms).collect()
}

/// One open-loop step at a fixed offered rate.
struct Step {
    rate: f64,
    /// p99 latency, when the sample supports one.
    p99: Option<f64>,
    /// p99 within the limit, no failures, no growing backlog.
    sustained: bool,
    /// Jobs finished per second, from the first job's due time to the last
    /// finish: the offered rate below saturation, the fleet's capacity
    /// above it.
    completion_rate: f64,
    phase: Phase,
}

fn open_loop(
    conns: &mut [Conn<Tag>],
    qasm: &[String],
    jobs: &[(usize, u64)],
    rate: f64,
) -> Result<Step, GateError> {
    let t0 = Instant::now() + Duration::from_millis(1);
    let schedule = Schedule::Open { start: t0, rate };
    let phase = drive(conns, qasm, jobs, schedule, HOT_DEADLINE)?;
    let lat = latencies(&phase);
    let p99 = stats::percentile(&lat, 99.0);
    // A growing backlog shows as the last quarter of jobs waiting much
    // longer than the first.
    let quarter = lat.len() / 4;
    let growing = quarter >= 20
        && stats::median(&lat[lat.len() - quarter..]) > 2.0 * stats::median(&lat[..quarter]);
    let sustained = phase.failed == 0 && !growing && p99.is_some_and(|p| p <= LATENCY_LIMIT_MS);
    let completion_rate = match phase.last_finish {
        Some(last) => lat.len() as f64 / last.duration_since(t0).as_secs_f64(),
        None => 0.0,
    };
    Ok(Step {
        rate,
        p99,
        sustained,
        completion_rate,
        phase,
    })
}

/// Jobs finished per second by a closed loop that keeps
/// [`SATURATION_WINDOW`] of `jobs` in the fleet until all have run.
fn saturate(
    conns: &mut [Conn<Tag>],
    qasm: &[String],
    jobs: &[(usize, u64)],
) -> Result<(f64, Phase), GateError> {
    let start = Instant::now();
    let schedule = Schedule::Closed {
        window: SATURATION_WINDOW,
    };
    let phase = drive(conns, qasm, jobs, schedule, HOT_DEADLINE)?;
    let last = phase
        .last_finish
        .ok_or("the capacity phase finished no job")?;
    let rate = phase.latency_ms.len() as f64 / last.duration_since(start).as_secs_f64();
    Ok((rate, phase))
}

/// The highest sustained rate, refined by interpolating p99 between the
/// last sustained step and the first that was not (geometrically in rate,
/// linearly in p99).
fn interpolate(good: &Step, bad: &Step) -> f64 {
    let p_good = good.p99.expect("a sustained step has a p99");
    match bad.p99 {
        Some(p_bad) if p_bad > LATENCY_LIMIT_MS && p_bad > p_good => {
            let f = (LATENCY_LIMIT_MS - p_good) / (p_bad - p_good);
            good.rate * (bad.rate / good.rate).powf(f.clamp(0.0, 1.0))
        }
        _ => good.rate,
    }
}

/// Direct runs on replicas of the fleet's devices, for checking answers.
struct Direct {
    devices: Vec<DeviceModel>,
    ensembles: BTreeMap<(usize, usize), Vec<EnsembleMember>>,
}

impl Direct {
    fn new() -> Self {
        Direct {
            devices: presets()
                .into_iter()
                .enumerate()
                .map(|(i, (t, _))| DeviceModel::synthesize(t, inputs::FLEET_DEVICE_SEED + i as u64))
                .collect(),
            ensembles: BTreeMap::new(),
        }
    }

    /// The ensemble `EdmRunner::run` builds for `circuit` on `device`.
    fn ensemble(
        &mut self,
        device: usize,
        index: usize,
        circuit: &Circuit,
    ) -> Result<&[EnsembleMember], GateError> {
        if !self.ensembles.contains_key(&(device, index)) {
            let model = &self.devices[device];
            let cal = model.calibration();
            let transpiler = qmap::Transpiler::new(model.topology(), &cal);
            let members =
                edm_core::build_ensemble(&transpiler, circuit, &EnsembleConfig::default())
                    .map_err(|e| format!("direct build failed: {e}"))?;
            self.ensembles.insert((device, index), members);
        }
        Ok(&self.ensembles[&(device, index)])
    }

    /// Checks that a fleet answer equals a direct `EdmRunner` run on the
    /// device the fleet routed it to.
    fn check(
        &mut self,
        fleet: &Fleet<DeviceBackend>,
        circuits: &[Circuit],
        job: &Finished,
    ) -> Result<(), GateError> {
        let (device, _) = fleet
            .placement(job.id)
            .ok_or_else(|| format!("fleet lost job {}", job.id))?;
        let members = self
            .ensemble(device, job.circuit, &circuits[job.circuit])?
            .to_vec();
        let model = &self.devices[device];
        let cal = model.calibration();
        let transpiler = qmap::Transpiler::new(model.topology(), &cal);
        let sim = qsim::NoisySimulator::from_device(model);
        let runner = EdmRunner::new(&transpiler, &sim, EnsembleConfig::default());
        let direct = runner
            .run_members(members, SERVE_SHOTS, job.seed)
            .map_err(|e| format!("direct run failed: {e}"))?;
        let want = JobSummary::from_result(job.id, 0, &direct, 0);
        let got = &job.summary;
        gate(
            got.top_outcome == want.top_outcome
                && got.top_probability.to_bits() == want.top_probability.to_bits()
                && got.members == want.members
                && got.shots == want.shots,
            || {
                format!(
                    "job {}: fleet answer {got:?} != direct run {want:?}",
                    job.id
                )
            },
        )
    }
}

/// Checks `count` seeded samples of `finished` against direct runs.
fn check_sample(
    fleet: &Fleet<DeviceBackend>,
    circuits: &[Circuit],
    finished: &[&Finished],
    seed: u64,
    count: usize,
) -> Result<usize, GateError> {
    let mut direct = Direct::new();
    let picks = inputs::sample_indices(seed, finished.len(), count);
    for &i in &picks {
        direct.check(fleet, circuits, finished[i])?;
    }
    Ok(picks.len())
}

fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Conn<Tag>>, GateError> {
    (0..n)
        .map(|_| Conn::connect(addr).map_err(|e| GateError(format!("connect failed: {e}"))))
        .collect()
}

/// Sets up a served fleet with a warm cache; returns it and the seconds
/// it took.
fn hot_setup(circuits: &[Circuit]) -> Result<(Served, f64), GateError> {
    let start = Instant::now();
    let served = Served::start(|fleet| warm(fleet, circuits))?;
    Ok((served, start.elapsed().as_secs_f64()))
}

/// `fleet-hot`, untraced: latency at the reference rate, then the rate
/// search.
pub fn run_hot(seed: u64, seconds: f64) -> Result<Report, GateError> {
    let suite = inputs::ist_suite();
    let circuits = parse_all(&suite)?;
    let qasm: Vec<String> = suite.iter().map(|c| c.qasm.clone()).collect();
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(HOT_SETUPS);
    for _ in 1..HOT_SETUPS {
        let (served, secs) = hot_setup(&circuits)?;
        served.stop()?;
        setups.push(secs);
    }
    let (served, secs) = hot_setup(&circuits)?;
    setups.push(secs);

    let nproc = qsim::pool::default_threads();
    let mut control: Conn<()> =
        Conn::connect(served.addr).map_err(|e| format!("connect failed: {e}"))?;
    let mut conns = connect(served.addr, nproc)?;
    let before = Counters::over_tcp(&mut control)?;

    // Jobs are drawn from one seeded stream, step after step.
    let budget = REFERENCE_JOBS + SATURATION_JOBS + 16 * SEARCH_JOBS;
    let stream = inputs::hot_jobs(seed, suite.len(), budget);

    let start = Instant::now();
    // The reference phase runs first, on the fleet as the warm-up left it;
    // both phases run as sub-phases and report their median.
    let (ref_jobs, sat_jobs) = stream.split_at(REFERENCE_JOBS);
    let mut reference = Vec::with_capacity(SUB_PHASES);
    for part in ref_jobs.chunks(REFERENCE_JOBS / SUB_PHASES) {
        reference.push(open_loop(&mut conns, &qasm, part, REFERENCE_RATE)?);
    }
    let mut rates = Vec::with_capacity(SUB_PHASES);
    let mut saturated = Vec::with_capacity(SUB_PHASES);
    for part in sat_jobs[..SATURATION_JOBS].chunks(SATURATION_JOBS / SUB_PHASES) {
        let (rate, phase) = saturate(&mut conns, &qasm, part)?;
        rates.push(rate);
        saturated.push(phase);
    }
    let mut offset = REFERENCE_JOBS + SATURATION_JOBS;
    let capacity = stats::median(&rates);
    let peak_rss = peak_rss_mb()?;
    // Grow the offered rate until a step fails the limit twice in a row (a
    // single failure may be a scheduling hiccup of the machine).
    let mut steps: Vec<Step> = Vec::new();
    let mut rate = SEARCH_START;
    let mut misses = 0;
    while misses < 2 && offset + SEARCH_JOBS <= stream.len() {
        let step = open_loop(
            &mut conns,
            &qasm,
            &stream[offset..offset + SEARCH_JOBS],
            rate,
        )?;
        offset += SEARCH_JOBS;
        if step.sustained {
            misses = 0;
            rate *= SEARCH_GROWTH;
        } else {
            misses += 1;
        }
        steps.push(step);
        if misses == 0 && start.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let good = reference.iter().chain(&steps).rev().find(|s| s.sustained);
    let max_rate = match (good, steps.last()) {
        (Some(good), Some(bad)) if !bad.sustained => interpolate(good, bad),
        (Some(good), _) => good.rate,
        (None, _) => 0.0,
    };
    let elapsed = start.elapsed().as_secs_f64();
    let window = Counters::over_tcp(&mut control)?.since(&before);

    let ref_lat: Vec<f64> = reference.iter().flat_map(|s| latencies(&s.phase)).collect();
    let ref_p50s = reference
        .iter()
        .map(|s| stats::percentile(&latencies(&s.phase), 50.0))
        .collect::<Option<Vec<f64>>>()
        .ok_or("too few reference latencies")?;
    let ref_lateness: Vec<f64> = reference
        .iter()
        .flat_map(|s| s.phase.lateness_us.clone())
        .collect();
    report.attempted = offset as u64;
    report.failed = reference
        .iter()
        .map(|s| &s.phase)
        .chain(&saturated)
        .chain(steps.iter().map(|s| &s.phase))
        .map(|p| p.failed)
        .sum();
    gate(window.hit_ratio() == 1.0, || {
        format!(
            "fleet-hot must be served from a warm cache, but hit ratio was {} ({} misses)",
            window.hit_ratio(),
            window.misses
        )
    })?;
    let finished: Vec<&Finished> = reference.iter().flat_map(|s| &s.phase.finished).collect();
    let checked = check_sample(&served.fleet, &circuits, &finished, seed, 6)?;
    served.stop()?;

    report.set("setup_s", stats::median(&setups));
    report.set("shots_per_s", capacity * SERVE_SHOTS as f64);
    report.set("latency_p50_ms", stats::median(&ref_p50s));
    report.set("peak_rss_mb", peak_rss);
    report.say(format!(
        "fleet-hot: {SERVE_SHOTS}-shot IST-suite jobs, {nproc} connection(s), {}, measured {elapsed:.1} s",
        cadence()
    ));
    report.say(format!(
        "  at the reference rate {REFERENCE_RATE}/s: {}; latency_p50_ms is the median of the sub-phase p50s ({})",
        stats::describe(&ref_lat, &[50.0, 99.0], "ms"),
        ref_p50s.iter().map(|p| format!("{p:.3}")).collect::<Vec<_>>().join(", ")
    ));
    report.say(format!(
        "  generator lateness at the reference rate: {}",
        stats::describe(&ref_lateness, &[50.0, 99.0], "us")
    ));
    for step in &steps {
        report.say(format!(
            "  step {:>8.1} jobs/s: p99 {}, finished {:.1} jobs/s -> {}",
            step.rate,
            step.p99.map_or("n/a".into(), |p| format!("{p:.3} ms")),
            step.completion_rate,
            if step.sustained {
                "sustained"
            } else {
                "not sustained"
            }
        ));
    }
    report.say(format!(
        "  max_rate_jobs_per_s {max_rate:.2} (p99 <= {LATENCY_LIMIT_MS} ms, no failures, no growing backlog; peak_rss_mb is read before this search)"
    ));
    report.say(format!(
        "  capacity {capacity:.2} jobs/s with {SATURATION_WINDOW} jobs in flight: median of {} sub-phases of {} jobs ({}); shots_per_s = {SERVE_SHOTS} x that",
        SUB_PHASES,
        SATURATION_JOBS / SUB_PHASES,
        rates.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(", ")
    ));
    report.say(format!(
        "  cache hit ratio {} over {} lookups; {:.2} jobs per coalesced dispatch; {checked} sampled answers equal direct runs",
        window.hit_ratio(),
        window.hits + window.misses,
        window.completed as f64 / window.batches.max(1) as f64
    ));
    report.say(format!(
        "  setup (fleet + server + cache warm-up): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(report)
}

/// The in-process path of one job, call by call: JSON decode → parse →
/// `Fleet::route` → `Fleet::submit` → `Fleet::process_device` →
/// `handle_request(Poll)` → encode. With a tracer each call is a span; the
/// compile work the fleet times itself inside `route`, and the execute and
/// merge work inside `process_device`, become nested children read from the
/// telemetry registry.
fn in_process_job(
    fleet: &Fleet<DeviceBackend>,
    qasm: &str,
    seed: u64,
    tracer: &mut Option<Tracer>,
) -> Result<(usize, u64), GateError> {
    let mut t = tracer.take();
    let line = serde_json::to_string(&submit_request(qasm, seed)).expect("requests serialize");
    let out = (|| -> Result<(usize, u64), GateError> {
        let request: Request = timed(&mut t, "edm-serve.protocol_us", || {
            serde_json::from_str(&line)
        })
        .map_err(|e| format!("decode failed: {e}"))?;
        let Request::Submit {
            qasm,
            shots,
            seed,
            priority,
            ..
        } = request
        else {
            return Err(GateError("decoded a non-submit".into()));
        };
        let circuit = timed(&mut t, "qcir.parse_us", || qcir::qasm::parse(&qasm))
            .map_err(|e| format!("bad QASM: {e}"))?;
        let before = t.as_ref().map(|_| Snapshot::take());
        let route = timed(&mut t, "edm-fleet.route_us", || fleet.route(&circuit))
            .ok_or("no device can map the circuit")?;
        if let (Some(tr), Some(before)) = (t.as_mut(), before) {
            let after = Snapshot::take();
            let transpile = (after.histogram_sum("edm_qmap_transpile_us")
                - before.histogram_sum("edm_qmap_transpile_us")) as f64;
            let build = (after.histogram_sum("edm_core_ensemble_build_us")
                - before.histogram_sum("edm_core_ensemble_build_us"))
                as f64;
            let span = tr.last("edm-fleet.route_us").expect("route span recorded");
            tr.record_nested(
                span,
                &[
                    ("qmap.transpile_us", transpile),
                    ("edm-core.diversify_us", (build - transpile).max(0.0)),
                ],
            );
        }
        let ticket = timed(&mut t, "edm-serve.submit_us", || {
            fleet.submit(JobRequest {
                circuit,
                shots,
                seed,
                priority,
            })
        })
        .map_err(|e| format!("submit rejected: {e}"))?;
        let accepted = Response::Accepted {
            id: ticket.id,
            trace_id: ticket.trace_id,
        };
        timed(&mut t, "edm-serve.protocol_us", || {
            serde_json::to_string(&accepted)
        })
        .map_err(|e| format!("encode failed: {e}"))?;
        gate(ticket.device == route.device, || {
            "route and submit chose different devices".into()
        })?;
        let before = t.as_ref().map(|_| Snapshot::take());
        timed(&mut t, "edm-serve.process_us", || {
            fleet.process_device(ticket.device)
        });
        if let (Some(tr), Some(before)) = (t.as_mut(), before) {
            let after = Snapshot::take();
            let execute = (after.histogram_sum("edm_serve_dispatch_us")
                - before.histogram_sum("edm_serve_dispatch_us")) as f64;
            let merge = (after.histogram_sum("edm_core_merge_us")
                - before.histogram_sum("edm_core_merge_us")) as f64;
            let span = tr
                .last("edm-serve.process_us")
                .expect("process span recorded");
            tr.record_nested(
                span,
                &[("qsim.execute_us", execute), ("edm-core.merge_us", merge)],
            );
        }
        let poll_line =
            serde_json::to_string(&Request::Poll { id: ticket.id }).expect("requests serialize");
        let poll: Request = timed(&mut t, "edm-serve.protocol_us", || {
            serde_json::from_str(&poll_line)
        })
        .map_err(|e| format!("decode failed: {e}"))?;
        let response = timed(&mut t, "edm-serve.poll_us", || handle_request(fleet, poll));
        timed(&mut t, "edm-serve.protocol_us", || {
            serde_json::to_string(&response)
        })
        .map_err(|e| format!("encode failed: {e}"))?;
        match response {
            Response::Finished { .. } => Ok((ticket.device, ticket.id)),
            other => Err(GateError(format!(
                "in-process job did not finish: {other:?}"
            ))),
        }
    })();
    *tracer = t;
    out
}

/// Runs `f`, inside a span when tracing.
fn timed<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(name, |_| f()),
        None => f(),
    }
}

/// Runs `jobs` in process, untraced then traced, and fills the per-layer
/// metrics they give. Returns the routed (device, circuit) of each traced
/// job.
fn in_process_layers(
    fleet: &Fleet<DeviceBackend>,
    qasm: &[String],
    jobs: &[(usize, u64)],
    before_each: impl Fn(&Fleet<DeviceBackend>),
    report: &mut Report,
) -> Result<Vec<(usize, usize)>, GateError> {
    let start = Instant::now();
    let mut none = None;
    for (i, &(c, seed)) in jobs.iter().enumerate() {
        if i == 0 {
            before_each(fleet);
        }
        in_process_job(fleet, &qasm[c], seed, &mut none)?;
    }
    let untraced_us = start.elapsed().as_secs_f64() * 1e6;

    edm_telemetry::set_enabled(true);
    let counters_before = Counters::from_status(&fleet.device_status());
    let snap_before = Snapshot::take();
    let mut tracer = Some(Tracer::new());
    let mut routed = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for (i, &(c, seed)) in jobs.iter().enumerate() {
        if i == 0 {
            before_each(fleet);
        }
        let (device, _) = in_process_job(fleet, &qasm[c], seed, &mut tracer)?;
        routed.push((device, c));
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let snap_after = Snapshot::take();
    edm_telemetry::set_enabled(false);
    let window = Counters::from_status(&fleet.device_status()).since(&counters_before);

    let tracer = tracer.expect("tracer returned");
    let self_times = tracer.self_times();
    let layered: f64 = self_times.values().sum();
    for (name, us) in &self_times {
        report.set(name, *us);
    }
    report.set("wall_us", wall_us);
    report.set("other_us", wall_us - layered);
    report.set("trace.overhead", wall_us / untraced_us);
    let delta = |name: &str| (snap_after.counter(name) - snap_before.counter(name)) as f64;
    report.set("qsim.slices", delta("edm_qsim_slices_total"));
    report.say(format!(
        "  shots executed in the traced pass: {}",
        delta("edm_qsim_shots_total")
    ));
    report.set(
        "qdevice.embeddings",
        snap_after.embeddings() as f64 - snap_before.embeddings() as f64,
    );
    if let Some(execute) = self_times.get("qsim.execute_us") {
        report.set(
            "qsim.ns_per_shot",
            execute * 1e3 / delta("edm_qsim_shots_total").max(1.0),
        );
    }
    window.report(report);
    Ok(routed)
}

/// Times `qsim` compilation of the members each traced job executed, as
/// its own call outside the wall-clock sum (it nests inside
/// `execute_batch`).
fn compile_layers(
    routed: &[(usize, usize)],
    circuits: &[Circuit],
    report: &mut Report,
) -> Result<(), GateError> {
    let mut direct = Direct::new();
    let (mut us, mut fused, mut sites) = (0.0, 0u64, 0u64);
    for &(device, c) in routed {
        let members = direct.ensemble(device, c, &circuits[c])?.to_vec();
        let sim = qsim::NoisySimulator::from_device(&direct.devices[device]);
        for m in &members {
            let t = Instant::now();
            let plan = sim
                .compile(&m.physical)
                .map_err(|e| format!("compile failed: {e}"))?;
            us += t.elapsed().as_secs_f64() * 1e6;
            fused += plan.num_fused_ops() as u64;
            sites += plan.num_event_sites() as u64;
        }
    }
    report.set("qsim.compile_us", us);
    report.set("qsim.fused_ops", fused as f64);
    report.set("qsim.event_sites", sites as f64);
    Ok(())
}

/// `fleet-hot`, traced: the in-process layer breakdown on a warm fleet,
/// then a short open loop over TCP at the reference rate for the client
/// and generator layers.
pub fn run_hot_traced(seed: u64) -> Result<Report, GateError> {
    let suite = inputs::ist_suite();
    let circuits = parse_all(&suite)?;
    let qasm: Vec<String> = suite.iter().map(|c| c.qasm.clone()).collect();
    let mut report = Report::default();
    let jobs = inputs::hot_jobs(seed, suite.len(), TRACED_HOT_JOBS + TRACED_TCP_JOBS);
    let (in_process, over_tcp) = jobs.split_at(TRACED_HOT_JOBS);

    let mut routed = Vec::new();
    let served = Served::start(|fleet| {
        warm(fleet, &circuits)?;
        routed = in_process_layers(fleet, &qasm, in_process, |_| {}, &mut report)?;
        Ok(())
    })?;
    gate(report.metrics["edm-serve.cache_hit_ratio"] == 1.0, || {
        "fleet-hot in-process jobs missed the warm cache".into()
    })?;

    let nproc = qsim::pool::default_threads();
    let mut control: Conn<()> =
        Conn::connect(served.addr).map_err(|e| format!("connect failed: {e}"))?;
    let mut conns = connect(served.addr, nproc)?;
    let before = Counters::over_tcp(&mut control)?;
    let phase = open_loop(&mut conns, &qasm, over_tcp, REFERENCE_RATE)?.phase;
    let window = Counters::over_tcp(&mut control)?.since(&before);
    served.stop()?;
    // In process every dispatch carries one job; coalescing shows only
    // under concurrent load.
    report.set(
        "edm-serve.jobs_per_batch",
        window.completed as f64 / window.batches.max(1) as f64,
    );
    compile_layers(&routed, &circuits, &mut report)?;

    let median = |xs: &[f64]| stats::percentile(xs, 50.0).ok_or("too few client samples");
    report.set("client.submit_rtt_us", median(&phase.submit_rtt_us)?);
    report.set("client.poll_rtt_us", median(&phase.poll_rtt_us)?);
    report.set("loadgen.lateness_us", median(&phase.lateness_us)?);
    report.attempted = jobs.len() as u64;
    report.failed = phase.failed;
    report.say(format!(
        "fleet-hot traced: {TRACED_HOT_JOBS} jobs in process on a warm fleet, then {} over TCP at {REFERENCE_RATE}/s; client and generator values are medians",
        over_tcp.len()
    ));
    Ok(report)
}

/// Sets up a served cold fleet; returns it and the seconds it took.
fn cold_setup() -> Result<(Served, f64), GateError> {
    let start = Instant::now();
    let served = Served::start(|_| Ok(()))?;
    Ok((served, start.elapsed().as_secs_f64()))
}

/// `fleet-cold`, untraced: closed-loop recalibration rounds.
pub fn run_cold(seed: u64, seconds: f64) -> Result<Report, GateError> {
    let suite = inputs::table1();
    let circuits = parse_all(&suite)?;
    let qasm: Vec<String> = suite.iter().map(|c| c.qasm.clone()).collect();
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(COLD_SETUPS);
    for _ in 1..COLD_SETUPS {
        let (served, secs) = cold_setup()?;
        served.stop()?;
        setups.push(secs);
    }
    let (served, secs) = cold_setup()?;
    setups.push(secs);

    let mut control: Conn<()> =
        Conn::connect(served.addr).map_err(|e| format!("connect failed: {e}"))?;
    let mut conns = connect(served.addr, 1)?;
    let before = Counters::over_tcp(&mut control)?;
    let start = Instant::now();
    let mut rounds_s = Vec::new();
    let mut latency = Vec::new();
    let mut last = Phase::default();
    let mut failed = 0;
    let mut round = 0u64;
    let mut peak_rss = None;
    while rounds_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        // The peak is read after a fixed number of rounds: a round's
        // embedding search now and then adds a transient ~30 MB peak, so
        // counting more rounds would make the figure depend on run length.
        if rounds_s.len() == MIN_ROUNDS {
            peak_rss = Some(peak_rss_mb()?);
        }
        match control.call(&Request::BumpCalibration)? {
            Response::Recalibrated { .. } => {}
            other => {
                return Err(GateError(format!(
                    "unexpected BumpCalibration reply {other:?}"
                )))
            }
        }
        let bumped = Instant::now();
        let jobs: Vec<(usize, u64)> = inputs::cold_round_seeds(seed, round, suite.len())
            .into_iter()
            .enumerate()
            .collect();
        // Closed loop: the whole round is sent at once and the next round
        // waits for every answer.
        let schedule = Schedule::Closed { window: jobs.len() };
        let phase = drive(&mut conns, &qasm, &jobs, schedule, COLD_DEADLINE)?;
        let finish = phase.last_finish.ok_or("a round finished no job")?;
        rounds_s.push(finish.duration_since(bumped).as_secs_f64());
        latency.extend(latencies(&phase));
        failed += phase.failed;
        last = phase;
        round += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let window = Counters::over_tcp(&mut control)?.since(&before);
    let jobs = round * suite.len() as u64;
    report.attempted = jobs;
    report.failed = failed;

    // Every routing lookup misses on every device; the only hits are the
    // executors reusing, for each job, the entry its routing just compiled.
    let routing_hits = window.hits.saturating_sub(window.completed);
    let routing_lookups = (window.hits + window.misses).saturating_sub(window.completed);
    gate(
        routing_hits == 0 && window.misses == jobs * presets().len() as u64,
        || {
            format!(
                "fleet-cold routing must miss the cache on every device: {} hits, {} misses for {jobs} jobs",
                window.hits, window.misses
            )
        },
    )?;
    let finished: Vec<&Finished> = last.finished.iter().collect();
    let checked = check_sample(&served.fleet, &circuits, &finished, seed, 2)?;
    served.stop()?;

    // Rounds are few and long, and the host slows down in bursts: the
    // median round sets the rate, so one slow round does not.
    let recal_round_s = stats::median(&rounds_s);
    let jobs_per_s = suite.len() as f64 / recal_round_s;
    report.set("setup_s", stats::median(&setups));
    report.set("shots_per_s", jobs_per_s * SERVE_SHOTS as f64);
    report.set(
        "latency_p50_ms",
        stats::percentile(&latency, 50.0).ok_or("too few job latencies")?,
    );
    let peak_rss = match peak_rss {
        Some(mb) => mb,
        None => peak_rss_mb()?,
    };
    report.set("peak_rss_mb", peak_rss);
    report.say(format!(
        "fleet-cold: {round} closed-loop round(s) of BumpCalibration + {} Table-1 jobs at {SERVE_SHOTS} shots, {}",
        suite.len(),
        cadence()
    ));
    report.say(format!(
        "  jobs_per_s {jobs_per_s:.4} (round jobs over the median round; {:.4} over all {elapsed:.1} s)  recal_round_s median {recal_round_s:.4} (rounds: {})",
        jobs as f64 / elapsed,
        rounds_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.say(format!(
        "  job latency from submit: {}",
        stats::describe(&latency, &[50.0, 90.0], "ms")
    ));
    report.say(format!(
        "  cache: {} hits, {} misses; routing-lookup hit ratio {} over {routing_lookups}; {checked} sampled answers equal direct runs",
        window.hits,
        window.misses,
        routing_hits as f64 / routing_lookups.max(1) as f64
    ));
    report.say(format!(
        "  setup (fleet + server): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(report)
}

/// `fleet-cold`, traced: one recalibration round in process, untraced then
/// traced.
pub fn run_cold_traced(seed: u64) -> Result<Report, GateError> {
    let suite = inputs::table1();
    let circuits = parse_all(&suite)?;
    let qasm: Vec<String> = suite.iter().map(|c| c.qasm.clone()).collect();
    let mut report = Report::default();
    let jobs: Vec<(usize, u64)> = inputs::cold_round_seeds(seed, 0, suite.len())
        .into_iter()
        .enumerate()
        .collect();
    let fleet = make_fleet();
    let routed = in_process_layers(
        &fleet,
        &qasm,
        &jobs,
        |fleet| {
            handle_request(fleet, Request::BumpCalibration);
        },
        &mut report,
    )?;
    // Routing scores every device twice per job (route, then submit); only
    // the first can miss, and on a cold fleet it always does.
    let misses = report.metrics["edm-serve.compilations"];
    gate(misses == (jobs.len() * presets().len()) as f64, || {
        format!(
            "fleet-cold in-process routing compiled {misses} times, not once per device and job"
        )
    })?;
    compile_layers(&routed, &circuits, &mut report)?;
    report.attempted = 2 * jobs.len() as u64;
    report.say(format!(
        "fleet-cold traced: one recalibration round of {} jobs in process, untraced then traced",
        jobs.len()
    ));
    Ok(report)
}
