//! Engine performance snapshot: wall-clock throughput of the discrete-event
//! core on the micro-benchmark scenarios, written to `BENCH_engine.json`.
//!
//! Two default scenarios, one row each (`--scenario NAME` swaps in any
//! scenario from [`workloads::registry`] instead — resolved by name, run
//! on 8 nodes):
//!
//! * `ring_1mib` — the `engine_throughput` criterion scenario: 4 nodes,
//!   one ring job pushing 1 MiB messages for 4 laps over shared links.
//! * `pairs64` — 64 nodes, 32 disjoint point-to-point pairs, static
//!   division, no rotation: a deep queue of independent traffic.
//!
//! Every row carries the engine's event-stream digest, also printed as a
//! stable `DIGEST` line so two runs can be compared with
//! `grep ^DIGEST`. The row format and its JSON round-trip live in
//! [`bench_harness::snapshot`].
//!
//! ```text
//! cargo run --release -p bench-harness --bin perf_snapshot \
//!     [--seed N] [--out FILE] [--quick] [--scenario NAME]
//! ```

use std::time::Instant;

use bench_harness::snapshot::{Row, Snapshot};
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::ring::Ring;

/// Run `sim` to completion and return `(events, stream digest)`.
fn finish(mut sim: Sim, name: &str) -> (u64, u64) {
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)),
        "{name} did not finish"
    );
    (sim.engine.events_processed(), sim.engine.stream_digest())
}

fn run_ring(seed: u64, laps: u64) -> (u64, u64) {
    let mut cfg = ClusterConfig::parpar(4, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let ring = Ring {
        nprocs: 4,
        msg_bytes: 1 << 20,
        laps,
    };
    sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
    finish(sim, "ring")
}

fn run_pairs64(seed: u64, count: u64) -> (u64, u64) {
    let mut cfg = ClusterConfig::parpar(64, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let bench = workloads::registry::build("p2p", 2, seed, count).expect("registry has p2p");
    for pair in 0..32 {
        sim.submit(&*bench, Some(vec![2 * pair, 2 * pair + 1]))
            .unwrap();
    }
    finish(sim, "pairs")
}

/// One registry scenario on 8 nodes, static division, no rotation: the
/// shared path every sweep bin resolves scenario names through.
fn run_scenario(name: &str, seed: u64, size: u64) -> (u64, u64) {
    let bench = workloads::registry::build(name, 8, seed, size).unwrap_or_else(|| {
        panic!(
            "unknown scenario {name:?} (known: {:?})",
            workloads::registry::names()
        )
    });
    let mut cfg = ClusterConfig::parpar(8, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let nodes: Vec<usize> = (0..bench.nprocs()).collect();
    sim.submit(&*bench, Some(nodes)).unwrap();
    finish(sim, name)
}

/// Median-of-three wall time (single run with `--quick`) as one row.
fn measure(scenario: &str, quick: bool, f: impl Fn() -> (u64, u64)) -> Row {
    let reps = if quick { 1 } else { 3 };
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let o = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(o);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("wall time is finite"));
    let wall_ms = times[times.len() / 2];
    let (events, digest) = out.expect("at least one rep");
    Row {
        scenario: scenario.to_string(),
        wall_ms,
        events,
        events_per_sec: events as f64 / (wall_ms / 1e3),
        digest,
    }
}

fn main() {
    let mut seed = 42u64;
    let mut out_path = String::from("BENCH_engine.json");
    let mut quick = false;
    let mut scenario: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let take = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        if let Some(rest) = a.strip_prefix("--seed") {
            let v = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--seed"),
                _ => panic!("unknown flag {a}"),
            };
            seed = v.parse().expect("seed must be an integer");
        } else if let Some(rest) = a.strip_prefix("--out") {
            out_path = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--out"),
                _ => panic!("unknown flag {a}"),
            };
        } else if let Some(rest) = a.strip_prefix("--scenario") {
            scenario = Some(match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--scenario"),
                _ => panic!("unknown flag {a}"),
            });
        } else if a == "--quick" {
            quick = true;
        } else if a == "--help" || a == "-h" {
            eprintln!(
                "flags: --seed N --out FILE --quick --scenario NAME\n\
                 scenarios: {:?}",
                workloads::registry::names()
            );
            std::process::exit(0);
        } else {
            panic!("unknown flag {a}");
        }
    }

    let (ring_laps, pairs_count) = if quick { (1, 60) } else { (4, 400) };
    let scenario_size = if quick { 20 } else { 100 };
    let rows = match &scenario {
        Some(name) => vec![measure(name, quick, || {
            run_scenario(name, seed, scenario_size)
        })],
        None => vec![
            measure("ring_1mib", quick, || run_ring(seed, ring_laps)),
            measure("pairs64", quick, || run_pairs64(seed, pairs_count)),
        ],
    };

    println!(
        "{:<10} {:>10} {:>12} {:>12}  digest",
        "scenario", "wall ms", "events", "events/s"
    );
    for r in &rows {
        println!(
            "{:<10} {:>10.1} {:>12} {:>12.0}  {:#018x}",
            r.scenario, r.wall_ms, r.events, r.events_per_sec, r.digest
        );
    }
    for r in &rows {
        println!(
            "DIGEST scenario={} events={} digest={:#018x}",
            r.scenario, r.events, r.digest
        );
    }

    let snap = Snapshot {
        bench: "engine_throughput".into(),
        seed,
        host_cores: sim_core::pool::max_parallelism(),
        rows,
    };
    std::fs::write(&out_path, snap.to_json()).expect("write snapshot json");
    eprintln!("wrote {out_path}");
}
