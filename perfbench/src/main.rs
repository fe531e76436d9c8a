//! The repository benchmark: host cost and simulated results of the
//! gang-comm simulator on three workloads, with a per-layer traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale_n1024|serve|flush|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run repeats the workload, untraced, for `--seconds`
//! host seconds and reports the end-to-end metrics. Each untraced
//! repetition is timed in segments of [`SEGMENT_EVENTS`] events; `wall_s`
//! sums every segment's fastest time over the run's repetitions, and
//! `setup_s` is the fastest of the run's set-ups (see `METRICS.md` for
//! why not the median). With `--trace 1` it alternates untraced and
//! traced repetitions and reports the per-layer metrics (see `METRICS.md`).
//! Every repetition is checked: it must go quiescent, finish every job,
//! and end on the same digest as the first repetition and, at seed 42, on
//! the pinned digest. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` (counted in jobs) and `metrics`.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use cluster::event::KIND_NAMES;
use cluster::procsim::ProcPhase;
use sim_core::time::CYCLES_PER_US;

use trace::{Traced, HANDLERS};
use workload::{Built, Workload, SERVE_SLO};

/// Before each repetition, set-ups are timed and dropped until at least
/// `SETUPS_MIN` of them have run and together taken `SETUP_SAMPLE_S`
/// host seconds (or `SETUPS_MAX` have run); `setup_s` is the fastest of
/// them all and the repetitions' own.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 1000;
const SETUP_SAMPLE_S: f64 = 0.05;
/// Events per timed segment of an untraced repetition: a few
/// milliseconds of host time on every workload. Shorter segments fit
/// into shorter lulls of a shared host (see `METRICS.md`).
const SEGMENT_EVENTS: u64 = 1 << 14;
/// The traced run fails when its handlers account for less than this
/// share of the traced wall time; the rest is the tracer's own
/// bookkeeping between steps.
const MIN_HANDLER_COVERAGE: f64 = 0.7;

/// Command-line options.
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut workloads = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&v).ok_or(format!("unknown workload {v:?}"))?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Nearest-rank `q`-quantile of `v`, which it sorts in place; NaN for
/// no samples.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v`, which it sorts in place.
fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Smallest of `v`; NaN for no samples.
fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Host seconds of a run whose every segment goes at the fastest any
/// repetition timed it: the sum over segment positions of the minimum
/// across `reps` (each one repetition's segment times, in run order).
fn fastest_segments(reps: &[Vec<f64>]) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for rep in reps {
        for (i, &t) in rep.iter().enumerate() {
            match best.get_mut(i) {
                Some(b) => *b = b.min(t),
                None => best.push(t),
            }
        }
    }
    best.iter().sum()
}

/// The process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Simulated results and end-of-run state of one finished repetition.
/// The simulation is deterministic, so these repeat exactly for a seed.
#[derive(Debug, Clone, Default)]
struct SimResults {
    events: u64,
    pops: u64,
    pending_start: u64,
    pending_end: u64,
    stream: u64,
    digest: u64,
    quiescent: bool,
    offered: u64,
    finished: u64,
    agg_mbps: f64,
    switch_latency_us: f64,
    switch_count: u64,
    halt_us: f64,
    copy_us: f64,
    release_us: f64,
    ctx_switch_us: f64,
    e2e_p50_ms: f64,
    e2e_p90_ms: f64,
    slo_attainment: f64,
    retransmits: u64,
    wire_losses: u64,
    drops: u64,
    qdepth_mean: f64,
    wait_p90_ms: f64,
    tier_pkts: [u64; 3],
    procs_resident: u64,
    procs_finished_resident: u64,
}

fn results(w: Workload, b: &Built, quiescent: bool) -> SimResults {
    let sim = &b.sim;
    let world = sim.world();
    let s = &world.stats;
    let us = |cycles: f64| cycles / CYCLES_PER_US as f64;
    let (halt, copy, release) = s.ledger.mean_stages();
    // Serving latency per offered job; a job rejected or unfinished is a
    // miss at infinite latency.
    let mut e2e: Vec<f64> = s
        .job_submitted
        .iter()
        .filter_map(|(j, at)| {
            s.job_finished
                .get(&j)
                .map(|f| us(f.since(*at).raw() as f64))
        })
        .collect();
    let met = e2e
        .iter()
        .filter(|&&x| x <= us(SERVE_SLO.raw() as f64))
        .count();
    e2e.resize(b.offered as usize, f64::INFINITY);
    let serving = w == Workload::Serve;
    let mut procs_resident = 0;
    let mut procs_finished_resident = 0;
    for n in &world.nodes {
        for p in n.apps.values() {
            procs_resident += 1;
            procs_finished_resident += u64::from(p.phase == ProcPhase::Finished);
        }
    }
    SimResults {
        events: sim.engine.logical_events(),
        pops: sim.engine.events_processed(),
        pending_start: b.pending_start,
        pending_end: sim.engine.pending() as u64,
        stream: sim.engine.stream_digest(),
        digest: workload::digest(w, sim),
        quiescent,
        offered: b.offered,
        finished: s.job_finished.len() as u64,
        agg_mbps: workload::agg_mbps(w, sim, &b.jobs),
        switch_latency_us: s.mean_switch_latency().map_or(0.0, us),
        switch_count: s.switches,
        halt_us: us(halt),
        copy_us: us(copy),
        release_us: us(release),
        ctx_switch_us: us(s.ledger.mean_total()),
        e2e_p50_ms: if serving {
            quantile(&mut e2e, 0.5) / 1e3
        } else {
            0.0
        },
        e2e_p90_ms: if serving {
            quantile(&mut e2e, 0.9) / 1e3
        } else {
            0.0
        },
        slo_attainment: if serving {
            met as f64 / b.offered as f64
        } else {
            0.0
        },
        retransmits: s.retransmits,
        wire_losses: s.wire_losses,
        drops: s.drops,
        qdepth_mean: s.queue_depth.mean(),
        wait_p90_ms: us(s.wait_latency.quantile_ppk(900) as f64) / 1e3,
        tier_pkts: world.tier_traffic().packets,
        procs_resident,
        procs_finished_resident,
    }
}

/// One repetition: set-up, a run to quiescence (traced or not), results.
struct Rep {
    wall_s: f64,
    /// Host seconds of each segment of an untraced run.
    laps: Vec<f64>,
    res: SimResults,
    traced: Option<Traced>,
}

fn repetition(w: Workload, seed: u64, traced: bool, setups: &mut Setups) -> Rep {
    let mut b = workload::build(w, seed);
    setups.record(&b);
    let mut laps = Vec::new();
    let (wall_s, quiescent, traced) = if traced {
        let t = trace::run_traced(&mut b.sim, w.horizon());
        (t.wall_s, t.quiescent, Some(t))
    } else {
        let q = workload::run_segments(w, &mut b.sim, SEGMENT_EVENTS, &mut laps);
        (laps.iter().sum(), q, None)
    };
    Rep {
        wall_s,
        laps,
        res: results(w, &b, quiescent),
        traced,
    }
}

/// The checks every repetition must pass; returns the problems found.
/// Unfinished jobs fail one by one; any other problem fails the whole
/// repetition.
fn check(w: Workload, seed: u64, first: &SimResults, r: &SimResults) -> Vec<String> {
    let mut bad = Vec::new();
    if !r.quiescent {
        bad.push("did not go quiescent before the horizon".to_string());
    }
    if r.drops != 0 {
        bad.push(format!("{} packets dropped", r.drops));
    }
    if r.stream != first.stream || r.digest != first.digest {
        bad.push(format!(
            "digest {:#018x} differs from the first repetition's {:#018x}",
            r.digest, first.digest
        ));
    }
    if let Some(pin) = w.pinned(seed) {
        if r.digest != pin {
            bad.push(format!(
                "digest {:#018x} is not the pinned {pin:#018x}",
                r.digest
            ));
        }
    }
    bad
}

/// Set-up times, sampled through the whole run so they span the same
/// stretch of host time as the repetitions.
#[derive(Default)]
struct Setups {
    sim_new: Vec<f64>,
    submit: Vec<f64>,
    total: Vec<f64>,
}

impl Setups {
    fn record(&mut self, b: &Built) {
        self.sim_new.push(b.sim_new.as_secs_f64());
        self.submit.push(b.submit.as_secs_f64());
        self.total.push((b.sim_new + b.submit).as_secs_f64());
    }

    /// Time extra set-ups of `w`, each dropped unrun (see
    /// [`SETUP_SAMPLE_S`]).
    fn sample(&mut self, w: Workload, seed: u64) {
        let mut spent = 0.0;
        for n in 0..SETUPS_MAX {
            if n >= SETUPS_MIN && spent >= SETUP_SAMPLE_S {
                break;
            }
            let b = workload::build(w, seed);
            self.record(&b);
            spent += (b.sim_new + b.submit).as_secs_f64();
        }
    }
}

/// The run's time budget: repeat while another repetition, at the mean
/// length of those so far, still ends inside it (at least one runs).
struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    fn another(&self, done: usize) -> bool {
        let spent = self.start.elapsed().as_secs_f64();
        done == 0 || spent + spent / done as f64 <= self.seconds
    }
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, in order (none if the mask cannot
/// be read).
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // `mask`, which lives for the call.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
    (0..1024)
        .filter(|&c| ok && mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Move this thread to `cpu`; if the kernel refuses, it stays where it
/// is, which only costs the spread the move was for.
fn run_on(cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// Spreads a run's repetitions over the CPUs it may use, one CPU per
/// repetition in turn. On a shared host each CPU is slowed by other
/// tenants at its own times, so taking turns gives every segment more
/// chances to be timed on an uncontended CPU.
struct Cpus {
    cpus: Vec<usize>,
    next: usize,
}

impl Cpus {
    fn new() -> Self {
        Cpus {
            cpus: allowed_cpus(),
            next: 0,
        }
    }

    /// Move to the next CPU in turn.
    fn advance(&mut self) {
        if let Some(&cpu) = self.cpus.get(self.next % self.cpus.len().max(1)) {
            run_on(cpu);
        }
        self.next += 1;
    }
}

/// `(name, value, unit)`.
type Metric = (String, f64, String);

/// What a run reports: `correct`, `attempted`, `failed` and `metrics`.
type Outcome = (bool, u64, u64, Vec<Metric>);

/// The outcome of measuring one workload.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In report order.
    metrics: Vec<Metric>,
    /// Wall seconds of every untraced repetition, in run order.
    walls: Vec<f64>,
    /// Segments per untraced repetition (0 for a traced run).
    segments: usize,
}

/// Tallies repetitions into job counts, set-up times and problems.
#[derive(Default)]
struct Tally {
    first: Option<SimResults>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    setups: Setups,
}

impl Tally {
    /// Sample set-ups, then run one repetition, catching a simulator
    /// panic as a failed one.
    fn rep(&mut self, w: Workload, seed: u64, traced: bool) -> Option<Rep> {
        let setups = &mut self.setups;
        match catch_unwind(AssertUnwindSafe(|| {
            setups.sample(w, seed);
            repetition(w, seed, traced, setups)
        })) {
            Ok(rep) => {
                let r = &rep.res;
                let first = self.first.get_or_insert_with(|| r.clone());
                let bad = check(w, seed, first, r);
                let unfinished = r.offered.saturating_sub(r.finished);
                self.attempted += r.offered;
                self.failed += if bad.is_empty() {
                    unfinished
                } else {
                    r.offered
                };
                if unfinished > 0 {
                    self.problems
                        .push(format!("{unfinished} of {} jobs did not finish", r.offered));
                }
                self.problems.extend(bad);
                Some(rep)
            }
            Err(_) => {
                let offered = self.first.as_ref().map_or(1, |f| f.offered.max(1));
                self.attempted += offered;
                self.failed += offered;
                self.problems.push("the simulator panicked".to_string());
                None
            }
        }
    }
}

fn measure_e2e(w: Workload, opts: &Opts) -> Measured {
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut laps = Vec::new();
    let mut cpus = Cpus::new();
    let clock = Budget::new(opts.seconds);
    while clock.another(walls.len()) {
        cpus.advance();
        let Some(rep) = tally.rep(w, opts.seed, false) else {
            break;
        };
        walls.push(rep.wall_s);
        laps.push(rep.laps);
        if !tally.problems.is_empty() {
            break;
        }
    }
    let rss = peak_rss_mb();
    let setup_s = fastest(&tally.setups.total);
    let first = tally.first.clone().unwrap_or_default();
    let n = walls.len();
    let segments = laps.first().map_or(0, Vec::len);
    if laps.iter().any(|l| l.len() != segments) {
        tally
            .problems
            .push("repetitions ran different numbers of segments".to_string());
    }
    let wall_s = fastest_segments(&laps);
    let events_per_s = first.events as f64 / wall_s;
    let mut sorted = walls.clone();
    let wall_p50 = median(&mut sorted);
    // The highest whole percentile with at least ten samples beyond it,
    // by nearest rank (`median` left `sorted` sorted).
    let pct = 100 * n.saturating_sub(10) / n.max(1);
    let rank = (pct * n).div_ceil(100);
    println!(
        "{:<11} seed={} reps={} segments={segments} wall_s={wall_s:.4} (fastest per segment) \
         per-repetition wall p50={wall_p50:.4} {} events={} ev/s={:.0} setup_s={:.6} \
         peak_rss_mb={:.1} digest={:#018x}{}",
        w.name(),
        opts.seed,
        n,
        if pct > 50 {
            format!("p{pct}={:.4}", sorted[rank - 1])
        } else {
            "(no percentile above the median has 10 samples beyond it)".to_string()
        },
        first.events,
        events_per_s,
        setup_s,
        rss,
        first.digest,
        match w.pinned(opts.seed) {
            Some(_) => " (pinned)",
            None => " (recorded, not pinned)",
        }
    );
    print_sim(w, &first);
    for p in &tally.problems {
        println!("FAILED {}: {p}", w.name());
    }
    Measured {
        correct: tally.problems.is_empty() && n > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: vec![
            ("wall_s".into(), wall_s, "s".into()),
            ("events_per_s".into(), events_per_s, "1/s".into()),
            ("setup_s".into(), setup_s, "s".into()),
            ("peak_rss_mb".into(), rss, "MB".into()),
        ],
        walls,
        segments,
    }
}

/// Print the workload's simulated results (they repeat exactly per seed).
fn print_sim(w: Workload, r: &SimResults) {
    let line = match w {
        Workload::ScaleN1024 => format!(
            "sim_agg_mbps={:.2} sim_switch_latency_us={:.2}",
            r.agg_mbps, r.switch_latency_us
        ),
        Workload::Serve => format!(
            "sim_e2e_p50_ms={:.2} sim_e2e_p90_ms={:.2} sim_slo_attainment={:.4} jobs={}",
            r.e2e_p50_ms, r.e2e_p90_ms, r.slo_attainment, r.offered
        ),
        Workload::Flush => format!(
            "sim_ctx_switch_us={:.2} (halt {:.2} + buffer switch {:.2} + release {:.2}, \
             {} switches)",
            r.ctx_switch_us, r.halt_us, r.copy_us, r.release_us, r.switch_count
        ),
    };
    println!("{:<11} {line}", w.name());
}

fn measure_layers(w: Workload, opts: &Opts) -> Measured {
    let mut tally = Tally::default();
    let mut plain = Vec::new();
    let mut traced: Vec<(f64, Traced)> = Vec::new();
    let mut cpus = Cpus::new();
    let clock = Budget::new(opts.seconds);
    while clock.another(traced.len()) {
        cpus.advance();
        let Some(a) = tally.rep(w, opts.seed, false) else {
            break;
        };
        let Some(b) = tally.rep(w, opts.seed, true) else {
            break;
        };
        plain.push(a.wall_s);
        traced.push((b.wall_s, b.traced.expect("a traced repetition")));
        if !tally.problems.is_empty() {
            break;
        }
    }
    let r = tally.first.clone().unwrap_or_default();
    let sim_new_s = fastest(&tally.setups.sim_new);
    let submit_s = fastest(&tally.setups.submit);
    let reps = traced.len().max(1) as f64;
    let kinds = KIND_NAMES.len();
    let mut kind_n = vec![0u64; kinds];
    let mut kind_ns = vec![0u64; kinds];
    let mut pending_mean = 0.0;
    let mut pending_max = 0usize;
    for (_, t) in &traced {
        for k in 0..kinds {
            kind_n[k] += t.kind_n[k];
            kind_ns[k] += t.kind_ns[k];
        }
        pending_mean += t.pending_mean() / reps;
        pending_max = pending_max.max(t.pending_max);
    }
    let depth = pending_mean.round() as usize;
    let hold_ns = trace::queue_hold_ns(depth, opts.seed);
    let core_ns = trace::engine_core_ns(depth, opts.seed);
    let mut traced_walls: Vec<f64> = traced.iter().map(|(s, _)| *s).collect();
    let traced_wall = median(&mut traced_walls);
    let plain_walls = plain.clone();
    let plain_wall = median(&mut plain);

    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| m.push((name.into(), value, unit.into()));
    put("engine.pops", r.pops as f64, "count");
    // Every event pushed during the run was popped or is still pending.
    put(
        "engine.pushes",
        (r.pops + r.pending_end - r.pending_start) as f64,
        "count",
    );
    put("engine.inline", (r.events - r.pops) as f64, "count");
    put("engine.pending_mean", pending_mean, "count");
    put("engine.pending_max", pending_max as f64, "count");
    put("queue.hold_ns", hold_ns, "ns");
    put("engine.core_ns", core_ns, "ns");
    let mut handler_ms_sum = 0.0;
    for (h, name) in HANDLERS.iter().enumerate() {
        let ks = (0..kinds).filter(|&k| trace::handler_of(k) == h);
        let (n, ns) = ks.fold((0u64, 0u64), |(n, ns), k| (n + kind_n[k], ns + kind_ns[k]));
        let events = n as f64 / reps;
        let ms = ns as f64 / reps / 1e6;
        handler_ms_sum += ms;
        put(&format!("handler.{name}.events"), events, "count");
        put(&format!("handler.{name}.ms"), ms, "ms");
        put(
            &format!("handler.{name}.self_ms"),
            ms - events * core_ns / 1e6,
            "ms",
        );
    }
    for (k, name) in KIND_NAMES.iter().enumerate() {
        put(&format!("kind.{name}.n"), kind_n[k] as f64 / reps, "count");
        put(
            &format!("kind.{name}.ns"),
            if kind_n[k] == 0 {
                0.0
            } else {
                kind_ns[k] as f64 / kind_n[k] as f64
            },
            "ns",
        );
    }
    put("app.procs_resident", r.procs_resident as f64, "count");
    put(
        "app.procs_finished_resident",
        r.procs_finished_resident as f64,
        "count",
    );
    put("setup.sim_new_ms", sim_new_s * 1e3, "ms");
    put("setup.submit_ms", submit_s * 1e3, "ms");
    put("switch.count", r.switch_count as f64, "count");
    put("switch.halt_us", r.halt_us, "us");
    put("switch.copy_us", r.copy_us, "us");
    put("switch.release_us", r.release_us, "us");
    put("fm.retransmits", r.retransmits as f64, "count");
    put("fm.wire_losses", r.wire_losses as f64, "count");
    put("nic.drops", r.drops as f64, "count");
    put("jobrep.qdepth_mean", r.qdepth_mean, "count");
    put("jobrep.wait_p90_ms", r.wait_p90_ms, "ms");
    put("net.edge_pkts", r.tier_pkts[0] as f64, "count");
    put("net.agg_pkts", r.tier_pkts[1] as f64, "count");
    put("net.spine_pkts", r.tier_pkts[2] as f64, "count");
    put("sim.agg_mbps", r.agg_mbps, "MB/s");
    put("sim.switch_latency_us", r.switch_latency_us, "us");
    put("sim.ctx_switch_us", r.ctx_switch_us, "us");
    put("sim.e2e_p50_ms", r.e2e_p50_ms, "ms");
    put("sim.e2e_p90_ms", r.e2e_p90_ms, "ms");
    put("sim.slo_attainment", r.slo_attainment, "ratio");
    put("trace.overhead", traced_wall / plain_wall, "ratio");

    // Every popped event must be attributed to exactly one kind, and the
    // attributed step times must cover most of the traced wall. (They
    // cannot exceed it: the steps are timed inside it and do not overlap.)
    // Handler times are per-repetition means, so they are held to the
    // mean traced wall.
    let traced_mean_ms = traced_walls.iter().sum::<f64>() / reps * 1e3;
    let coverage = handler_ms_sum / traced_mean_ms;
    let mut problems = tally.problems;
    for (_, t) in &traced {
        if t.steps() != t.popped {
            problems.push(format!(
                "{} steps attributed, but the engine popped {} events",
                t.steps(),
                t.popped
            ));
        }
    }
    if coverage.is_nan() || coverage < MIN_HANDLER_COVERAGE {
        problems.push(format!(
            "handler time {handler_ms_sum:.1} ms covers {:.0}% of the traced wall \
             {traced_mean_ms:.1} ms, under {:.0}%",
            coverage * 100.0,
            MIN_HANDLER_COVERAGE * 100.0
        ));
    }
    println!(
        "{:<11} seed={} traced reps={} traced wall_s={:.4} untraced wall_s={:.4} \
         trace.overhead={:.2}x handler ms sum={:.1} ({:.0}% of traced wall) depth={depth} \
         queue.hold_ns={hold_ns:.1} engine.core_ns={core_ns:.1}",
        w.name(),
        opts.seed,
        traced.len(),
        traced_wall,
        plain_wall,
        traced_wall / plain_wall,
        handler_ms_sum,
        coverage * 100.0,
    );
    for p in &problems {
        println!("FAILED {}: {p}", w.name());
    }
    Measured {
        correct: problems.is_empty() && !traced.is_empty(),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: m,
        walls: plain_walls,
        segments: 0,
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}").expect("write to String");
    }
    s.push('}');
    s
}

/// The result line: the last line of standard output.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Read back a result line written by [`result_json`].
fn parse_result(line: &str) -> Option<Outcome> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(q) = rest.find('"') {
        rest = &rest[q + 1..];
        let name = &rest[..rest.find('"')?];
        rest = &rest[rest.find("\"value\": ")? + 9..];
        // `null` (a non-finite value) reads back as NaN.
        let value = rest[..rest.find(',')?].parse().unwrap_or(f64::NAN);
        rest = &rest[rest.find("\"unit\": \"")? + 9..];
        let unit = &rest[..rest.find('"')?];
        rest = &rest[unit.len() + 1..];
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    Some((correct, attempted, failed, metrics))
}

/// Measure one workload in this process and print its record; returns
/// its result.
fn measure_one(w: Workload, opts: &Opts) -> Outcome {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = if opts.trace {
        measure_layers(w, opts)
    } else {
        measure_e2e(w, opts)
    };
    // One record per workload, beside the result line.
    println!(
        "RECORD {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host_cores\": {host_cores}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"walls_s\": {:?}, \"segments\": {}, \"metrics\": {}}}",
        w.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        m.correct,
        m.attempted,
        m.failed,
        m.walls,
        m.segments,
        metrics_json(&m.metrics)
    );
    let correct = m.correct && m.metrics.iter().all(|(_, v, _)| v.is_finite());
    (correct, m.attempted, m.failed, m.metrics)
}

/// Measure `w` in a child process of its own, so that its peak resident
/// memory is its own; pass its output through and return its result,
/// or `None` if it failed to give one.
fn measure_child(w: Workload, opts: &Opts) -> Option<Outcome> {
    let out = Command::new(std::env::current_exe().ok()?)
        .args(["--workload", w.name(), "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let text = text.trim_end();
    let (body, last) = text.rsplit_once('\n').unwrap_or(("", text));
    if !body.is_empty() {
        println!("{body}");
    }
    let result = out.status.success().then(|| parse_result(last)).flatten();
    if result.is_none() {
        println!("{last}");
        println!("FAILED {}: the run gave no result", w.name());
    }
    result
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let [w] = opts.workloads[..] {
        let (correct, attempted, failed, metrics) = measure_one(w, &opts);
        println!("{}", result_json(correct, attempted, failed, &metrics));
        return ExitCode::SUCCESS;
    }
    // Several workloads: each in its own process, metric names prefixed
    // with the workload's name.
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut all = Vec::new();
    for &w in &opts.workloads {
        let Some((c, a, f, metrics)) = measure_child(w, &opts) else {
            correct = false;
            attempted += 1;
            failed += 1;
            continue;
        };
        correct &= c;
        attempted += a;
        failed += f;
        all.extend(
            metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{}.{n}", w.name()), v, u)),
        );
    }
    println!("{}", result_json(correct, attempted, failed, &all));
    ExitCode::SUCCESS
}
