//! The three benchmark workloads, built only from the simulator's public
//! API at the default engine settings (`batch = 0`, `threads = 1`).

use std::time::{Duration, Instant};

use bench_harness::FIG7_NODES;
use cluster::{ArrivalPlan, ClusterConfig, ControlPlane, FatTreeShape, Sim, TopologyKind};
use fastmsg::division::{BufferPolicy, CreditRounding};
use hostsim::costs::HostCosts;
use parpar::JobId;
use sim_core::rng::DetRng;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;

/// Hosts of `scale_n1024`: the largest `scale_sweep` cell whose
/// repetition is short enough (about 1 s) for a run to hold dozens.
const SCALE_NODES: usize = 1024;
/// Messages per `p2p` job in `scale_n1024` (`scale_sweep`'s default size).
const SCALE_MSGS: u64 = 100;
/// Bytes per `p2p` message (the registry's `p2p` entry).
const MSG_BYTES: u64 = 65_536;
/// Offered load of `serve`, jobs per simulated second.
const SERVE_RATE: f64 = 6.0;
/// Jobs `serve` offers: the first this many arrivals of its Poisson
/// stream (about 8 simulated seconds at [`SERVE_RATE`]).
const SERVE_JOBS: usize = 48;
/// Message counts of `serve`'s jobs: evenly spaced over this range and
/// dealt to the arrivals in a seed-drawn order, so the work of a run is
/// the same at every seed and only its timing varies.
const SERVE_SIZES: (u64, u64) = (200, 800);
/// Nodes of `flush`: the largest machine of the paper's Figs. 7/9.
const FLUSH_NODES: usize = FIG7_NODES[FIG7_NODES.len() - 1];
/// All-to-all rounds each `flush` job runs. The Figs. 7/9 harness runs
/// the jobs without end and stops after a number of switches; a finite
/// count lets the run go quiescent, so it can be checked.
const FLUSH_ROUNDS: u64 = 100;
/// The seed `scale_sweep` runs at; `scale_n1024` uses its placements
/// there and a seed-drawn variant of them at every other seed.
const SCALE_SWEEP_SEED: u64 = 42;
/// End-to-end latency objective of `serve`.
pub const SERVE_SLO: Cycles = Cycles::from_secs(1);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fat-tree N = 1024, serial control plane, two rotating slots.
    ScaleN1024,
    /// 8 nodes, 2 slots, Poisson job arrivals, reliability on.
    Serve,
    /// The paper's Figs. 7/9 set-up: two whole-machine all-to-all jobs
    /// gang-switched under the FullBuffer scheme.
    Flush,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::ScaleN1024, Workload::Serve, Workload::Flush];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleN1024 => "scale_n1024",
            Workload::Serve => "serve",
            Workload::Flush => "flush",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed output digest at `seed`, where one is pinned: the
    /// physical stream digest for the batch workloads (`serial_n1024` of
    /// `BENCH_scale.json`; recorded by this benchmark for `flush`), the
    /// logical fingerprint for `serve` (recorded by this benchmark).
    pub fn pinned(self, seed: u64) -> Option<u64> {
        match (self, seed) {
            (Workload::ScaleN1024, 42) => Some(0x7b18_6df5_a313_74de),
            (Workload::Serve, 42) => Some(0xf738_225d_75ef_f585),
            (Workload::Flush, 42) => Some(0x1919_d745_ca76_a2f0),
            _ => None,
        }
    }

    /// Simulated-time limit: a run that has not gone quiescent by then
    /// fails.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::Serve => SimTime::ZERO + Cycles::from_secs(150),
            _ => SimTime::ZERO + Cycles::from_secs(600),
        }
    }
}

/// A simulation built and ready to run.
pub struct Built {
    /// The simulation, with every job submitted or arrival installed.
    pub sim: Sim,
    /// Batch jobs (empty for `serve`).
    pub jobs: Vec<JobId>,
    /// Events pending once set-up is done.
    pub pending_start: u64,
    /// Jobs offered (batch jobs or planned arrivals).
    pub offered: u64,
    /// Host time in `Sim::new`.
    pub sim_new: Duration,
    /// Host time submitting jobs or installing arrivals.
    pub submit: Duration,
}

/// Build `w` at `seed`, timing the two set-up phases.
pub fn build(w: Workload, seed: u64) -> Built {
    let cfg = config(w, seed);
    let t0 = Instant::now();
    let mut sim = Sim::new(cfg);
    let sim_new = t0.elapsed();
    let t1 = Instant::now();
    let mut jobs = Vec::new();
    let offered = match w {
        Workload::ScaleN1024 => {
            let bench =
                workloads::registry::build("p2p", 2, seed, SCALE_MSGS).expect("registry has p2p");
            for (a, b) in scale_placements(SCALE_NODES, seed) {
                // Two jobs per pair fill both slots, so every quantum
                // switches the whole machine.
                for _ in 0..2 {
                    jobs.push(sim.submit(&*bench, Some(vec![a, b])).expect("slot free"));
                }
            }
            jobs.len() as u64
        }
        Workload::Flush => {
            // `Measurement::switch_overhead`'s traffic, with an end.
            let a2a = AllToAll {
                rounds: Some(FLUSH_ROUNDS),
                ..AllToAll::stress(FLUSH_NODES)
            };
            for _ in 0..2 {
                let all = (0..FLUSH_NODES).collect();
                jobs.push(sim.submit(&a2a, Some(all)).expect("slot free"));
            }
            jobs.len() as u64
        }
        Workload::Serve => {
            let (lo, hi) = SERVE_SIZES;
            let mut entries =
                ArrivalPlan::poisson(seed, SERVE_RATE, Cycles::from_secs(60), 2, lo, hi)
                    .jobs()
                    .to_vec();
            entries.truncate(SERVE_JOBS);
            let last = SERVE_JOBS as u64 - 1;
            let mut sizes: Vec<u64> = (0..=last).map(|k| lo + (hi - lo) * k / last).collect();
            DetRng::new(seed).shuffle(&mut sizes);
            for (e, size) in entries.iter_mut().zip(sizes) {
                e.size = size;
            }
            let plan = ArrivalPlan::trace(entries);
            sim.install_arrivals(&plan, |i, spec| {
                let job_seed = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                workloads::registry::build("p2p", spec.nprocs, job_seed, spec.size)
                    .expect("registry has p2p")
            });
            plan.len() as u64
        }
    };
    let submit = t1.elapsed();
    Built {
        pending_start: sim.engine.pending() as u64,
        sim,
        jobs,
        offered,
        sim_new,
        submit,
    }
}

/// The cluster configuration of `w`.
fn config(w: Workload, seed: u64) -> ClusterConfig {
    let mut cfg = match w {
        Workload::ScaleN1024 => {
            let mut cfg = ClusterConfig::parpar(SCALE_NODES, 2, BufferPolicy::StaticDivision);
            cfg.topology = TopologyKind::FatTree {
                shape: FatTreeShape::for_hosts(SCALE_NODES),
            };
            cfg.control = ControlPlane::Serial;
            cfg.fm.rounding = CreditRounding::Ceil;
            cfg.host_costs = HostCosts::deterministic();
            cfg.quantum = Cycles::from_ms(20);
            cfg
        }
        Workload::Serve => {
            let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::StaticDivision);
            cfg.gang_scheduling = true;
            cfg.quantum = Cycles::from_ms(100);
            cfg.eager_reclaim = true;
            cfg.reliability.enabled = true;
            cfg
        }
        Workload::Flush => {
            // `Measurement::switch_overhead` with the full buffer copy.
            let mut cfg = ClusterConfig::parpar(FLUSH_NODES, 2, BufferPolicy::FullBuffer);
            cfg.quantum = Cycles::from_ms(50);
            cfg
        }
    };
    cfg.seed = seed;
    cfg.batch = 0;
    cfg.threads = 1;
    cfg
}

/// One cross-edge pair per 16-host block (edge switches hold 8 hosts),
/// with two blocks' destinations swapped so two pairs cross the spine.
/// At [`SCALE_SWEEP_SEED`] these are `scale_sweep`'s placements: the
/// first and last hosts of each block, the first and last blocks
/// swapped. At any other seed the hosts and the swapped blocks are drawn
/// from the seed, so a held-out seed runs different inputs.
fn scale_placements(nodes: usize, seed: u64) -> Vec<(usize, usize)> {
    let blocks = nodes / 16;
    let (mut pairs, i, j): (Vec<(usize, usize)>, usize, usize) = if seed == SCALE_SWEEP_SEED {
        let pairs = (0..blocks).map(|g| (g * 16, g * 16 + 15)).collect();
        (pairs, 0, blocks - 1)
    } else {
        let mut rng = DetRng::new(seed);
        let mut host = |g: usize, edge: usize| g * 16 + edge * 8 + rng.below(8) as usize;
        let pairs = (0..blocks).map(|g| (host(g, 0), host(g, 1))).collect();
        // Blocks in different halves of the machine, so the swap crosses
        // the spine.
        let i = rng.below(blocks as u64 / 2) as usize;
        (pairs, i, blocks / 2 + rng.below(blocks as u64 / 2) as usize)
    };
    let (di, dj) = (pairs[i].1, pairs[j].1);
    pairs[i].1 = dj;
    pairs[j].1 = di;
    pairs
}

/// Run `sim` to quiescence through the program's own loop, at most
/// `segment` events per call (the engine's public `event_limit`), and
/// push each call's host seconds onto `laps`; `true` if it got there
/// before the horizon. The loop checks its stop predicate before every
/// event, so the calls together dispatch exactly the events one
/// unbounded call would, and the segments fall on the same events in
/// every repetition of a seed.
pub fn run_segments(w: Workload, sim: &mut Sim, segment: u64, laps: &mut Vec<f64>) -> bool {
    sim.engine.event_limit = segment;
    loop {
        let before = sim.engine.events_processed();
        let t0 = Instant::now();
        let done = match w {
            Workload::Serve => sim.run_until_quiescent(w.horizon()),
            _ => sim.run_until_jobs_done(w.horizon()),
        };
        laps.push(t0.elapsed().as_secs_f64());
        // Fewer events than the limit: the loop stopped on its own.
        if done || sim.engine.events_processed() - before < segment {
            return done;
        }
    }
}

/// The digest this benchmark checks for `w`: the physical stream digest
/// for the batch workloads, the logical fingerprint for `serve` (it folds
/// the per-job latencies too).
pub fn digest(w: Workload, sim: &Sim) -> u64 {
    match w {
        Workload::Serve => sim.logical_fingerprint(),
        _ => sim.engine.stream_digest(),
    }
}

/// Summed simulated per-job bandwidth of a batch workload, MB/s.
pub fn agg_mbps(w: Workload, sim: &Sim, jobs: &[JobId]) -> f64 {
    let msgs = match w {
        Workload::ScaleN1024 => SCALE_MSGS,
        // The all-to-all jobs run whole rounds, not messages of one size
        // per job; their simulated result is the switch cost.
        Workload::Flush | Workload::Serve => return 0.0,
    };
    let s = &sim.world().stats;
    jobs.iter()
        .filter_map(|j| s.job_bandwidth_mbps(*j, MSG_BYTES * msgs))
        .sum()
}
