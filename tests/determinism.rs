//! The simulation is deterministic: identical configuration and seed give
//! bit-identical runs; the figures are exactly reproducible.

use cluster::measure::Measurement;
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

#[test]
fn same_seed_same_event_count_and_bandwidth() {
    let run = || {
        let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
        cfg.quantum = Cycles::from_ms(30);
        cfg.seed = 77;
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(4096, 500);
        let j = sim.submit(&bench, Some(vec![0, 1])).unwrap();
        sim.submit(&bench, Some(vec![0, 1])).unwrap();
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
        (
            sim.engine.events_processed(),
            sim.world().stats.job_finished[&j],
            sim.world().stats.switches,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Golden digests recorded from the seed engine (BinaryHeap pending queue,
/// monolithic dispatcher) before the event-queue and event-bus refactors.
/// The digest is FNV-1a over the delivered `(time, kind)` stream, so any
/// change to event ordering, timing, or the stable kind mapping in
/// `cluster::event::KIND_NAMES` shows up here. Identical in debug and
/// release builds.
mod golden {
    /// 4 nodes / 2 slots / FullBuffer / 30 ms quantum / seed 77,
    /// two P2pBandwidth(4096 B × 500) jobs pinned to nodes [0, 1].
    pub const FULL_BUFFER_EVENTS: u64 = 18_197;
    pub const FULL_BUFFER_DIGEST: u64 = 0xd76b_ef7d_1b3f_c15a;
    /// 2 nodes / 4 slots / CachedEndpoints (max_contexts 2) / 25 ms
    /// quantum / seed 1234, three P2pBandwidth(4096 B × 800) jobs on [0, 1].
    pub const VN_CACHE_EVENTS: u64 = 43_422;
    pub const VN_CACHE_DIGEST: u64 = 0xb1b5_b5ea_bd1b_8f67;
}

#[test]
fn event_stream_digest_matches_pre_refactor_golden() {
    // Scenario A: gang-scheduled buffer switching.
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    cfg.seed = 77;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 500);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
    assert_eq!(sim.engine.events_processed(), golden::FULL_BUFFER_EVENTS);
    assert_eq!(sim.engine.stream_digest(), golden::FULL_BUFFER_DIGEST);
    assert_eq!(sim.engine.causality_clamps(), 0);
    // Every event was classified: the per-kind counts sum to the total.
    let counted: u64 = sim.engine.dispatch_counts().map(|(_, c)| c).sum();
    assert_eq!(counted, sim.engine.events_processed());

    // Scenario B: VN endpoint caching with faults.
    let mut cfg = ClusterConfig::parpar(2, 4, BufferPolicy::CachedEndpoints);
    cfg.fm.max_contexts = 2;
    cfg.quantum = Cycles::from_ms(25);
    cfg.seed = 1234;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 800);
    for _ in 0..3 {
        sim.submit(&bench, Some(vec![0, 1])).unwrap();
    }
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
    assert_eq!(sim.engine.events_processed(), golden::VN_CACHE_EVENTS);
    assert_eq!(sim.engine.stream_digest(), golden::VN_CACHE_DIGEST);
    assert_eq!(sim.engine.causality_clamps(), 0);
    // Faults occurred, so the fault_done counter is live.
    let faults = sim
        .engine
        .dispatch_counts()
        .find(|(n, _)| *n == "fault_done")
        .map(|(_, c)| c)
        .unwrap();
    assert!(faults > 0, "VN scenario should take endpoint faults");
}

#[test]
fn fig_cells_are_reproducible() {
    let a = Measurement::fig5(3, 4096, 100).seed(5).run();
    let b = Measurement::fig5(3, 4096, 100).seed(5).run();
    assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());

    let a = Measurement::fig6(2, 1536, Cycles::from_ms(50), Cycles::from_ms(100))
        .seed(5)
        .run();
    let b = Measurement::fig6(2, 1536, Cycles::from_ms(50), Cycles::from_ms(100))
        .seed(5)
        .run();
    assert_eq!(a.total_mbps.to_bits(), b.total_mbps.to_bits());

    let a = Measurement::switch_overhead(4, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 3)
        .seed(5)
        .run();
    let b = Measurement::switch_overhead(4, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 3)
        .seed(5)
        .run();
    assert_eq!(
        a.ledger.mean_total().to_bits(),
        b.ledger.mean_total().to_bits()
    );
    assert_eq!(a.queue_samples.len(), b.queue_samples.len());
}

/// Golden [`Sim::logical_fingerprint`] values per buffer policy: the
/// one-word summary of a run's results (event count, job lifecycle times,
/// delivered messages, switches, losses). Any change to those shows up
/// here. Identical in debug and release builds.
#[test]
fn logical_fingerprint_goldens_per_policy_and_batch() {
    let run = |policy: BufferPolicy| {
        let mut cfg = ClusterConfig::parpar(8, 1, policy);
        cfg.auto_rotate = false;
        cfg.seed = 2025;
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(4096, 150);
        for pair in [[0usize, 1], [2, 3], [4, 5], [6, 7]] {
            sim.submit(&bench, Some(pair.to_vec())).unwrap();
        }
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
        sim.logical_fingerprint()
    };
    // Three policies share a value: on disjoint one-slot pairs the NIC
    // memory scheme does not change any logical observable, only Demand's
    // credit-window sizing moves packet timing. That collapse is itself
    // part of the golden.
    let goldens: &[(BufferPolicy, u64)] = &[
        (BufferPolicy::StaticDivision, 0xdac4_d486_6096_8900),
        (BufferPolicy::FullBuffer, 0xdac4_d486_6096_8900),
        (BufferPolicy::CachedEndpoints, 0xdac4_d486_6096_8900),
        (BufferPolicy::Demand, 0x2290_ddc6_eb19_4988),
    ];
    for &(policy, want) in goldens {
        assert_eq!(run(policy), want, "{policy:?}");
    }
}

#[test]
fn different_seeds_vary_jitter_but_preserve_shape() {
    let x = Measurement::switch_overhead(8, CopyStrategy::Full, SwitchStrategy::GangFlush, 3)
        .seed(1)
        .run();
    let y = Measurement::switch_overhead(8, CopyStrategy::Full, SwitchStrategy::GangFlush, 3)
        .seed(2)
        .run();
    // Halt depends on daemon jitter → differs across seeds.
    let (hx, bx, _) = x.ledger.mean_stages();
    let (hy, by, _) = y.ledger.mean_stages();
    assert_ne!(hx.to_bits(), hy.to_bits());
    // The full-copy cost is structural → nearly identical.
    assert!((bx - by).abs() / bx < 0.1, "{bx} vs {by}");
}
