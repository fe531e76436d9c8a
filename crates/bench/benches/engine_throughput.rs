//! End-to-end engine throughput on two fixed workloads: a 4-node ring
//! pushing 1 MiB messages over shared links, and 32 disjoint
//! point-to-point pairs on 64 nodes (a deep queue of independent
//! traffic). Criterion reports wall time per run; dividing the event
//! count printed once at startup by it gives events per second.

use cluster::{ClusterConfig, Sim};
use criterion::{criterion_group, criterion_main, Criterion};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use std::hint::black_box;
use workloads::p2p::P2pBandwidth;
use workloads::ring::Ring;

const LAPS: u64 = 4;
const PAIR_MSGS: u64 = 120;

fn run_ring() -> u64 {
    let mut cfg = ClusterConfig::parpar(4, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = 42;
    let mut sim = Sim::new(cfg);
    let w = Ring {
        nprocs: 4,
        msg_bytes: 1 << 20,
        laps: LAPS,
    };
    sim.submit(&w, Some(vec![0, 1, 2, 3])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)));
    sim.engine.events_processed()
}

fn run_pairs64() -> u64 {
    let mut cfg = ClusterConfig::parpar(64, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = 42;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(65_536, PAIR_MSGS);
    for pair in 0..32 {
        sim.submit(&bench, Some(vec![2 * pair, 2 * pair + 1]))
            .unwrap();
    }
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)));
    sim.engine.events_processed()
}

fn bench_engine_throughput(c: &mut Criterion) {
    println!("engine_throughput_ring_1mib: {} events per run", run_ring());
    println!(
        "engine_throughput_pairs64: {} events per run",
        run_pairs64()
    );

    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("ring_1mib", |b| b.iter(|| black_box(run_ring())));
    g.bench_function("pairs64", |b| b.iter(|| black_box(run_pairs64())));
    g.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
