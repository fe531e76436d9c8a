//! The traced run and the engine replays behind the per-layer metrics.
//!
//! Everything here observes the simulator from outside: it steps the
//! engine one event at a time through `Engine::step_bounded`, times each
//! call, and attributes it to the event kind whose dispatch counter moved.
//! Stepping this way reproduces `run_until_quiescent` event for event, so
//! the traced run must end on the untraced run's stream digest.

use std::hint::black_box;
use std::time::Instant;

use cluster::event::KIND_NAMES;
use cluster::{AppEvent, DaemonEvent, Event, FmEvent, NicEvent, Sim};
use hostsim::process::Pid;
use sim_core::engine::{Engine, Model, Scheduler};
use sim_core::queue::EventQueue;
use sim_core::rng::DetRng;
use sim_core::time::{Cycles, SimTime};

/// The cluster handlers, in report order.
pub const HANDLERS: [&str; 5] = ["daemon", "nic", "app", "switch", "fm"];

/// The handler that serves event kind `kind` (an index into
/// [`KIND_NAMES`]), following `Event::kind_index`.
pub fn handler_of(kind: usize) -> usize {
    match KIND_NAMES[kind] {
        "frame_arrive" | "send_engine_done" | "recv_engine_done" | "halt_bcast_done"
        | "ready_bcast_done" => 1,
        "proc_kick" | "host_op_done" => 2,
        "copy_done" => 3,
        "fault_done" | "retrans_timeout" | "demand_rebalance" => 4,
        _ => 0,
    }
}

/// What one traced run observed.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Host seconds from the first event to quiescence, tracing included.
    pub wall_s: f64,
    /// Did the run go quiescent before the horizon?
    pub quiescent: bool,
    /// Events dispatched, per kind.
    pub kind_n: Vec<u64>,
    /// Host nanoseconds inside `step_bounded`, per kind.
    pub kind_ns: Vec<u64>,
    /// Pending events after each step: sum and maximum.
    pub pending_sum: u128,
    /// Largest pending-queue depth seen.
    pub pending_max: usize,
    /// Events the engine popped during the run, by its own count.
    pub popped: u64,
}

impl Traced {
    /// Steps the run took.
    pub fn steps(&self) -> u64 {
        self.kind_n.iter().sum()
    }

    /// Mean pending-queue depth over the run's steps.
    pub fn pending_mean(&self) -> f64 {
        self.pending_sum as f64 / self.steps().max(1) as f64
    }
}

/// Run `sim` to quiescence (or `horizon`) one event at a time, timing
/// every `step_bounded` call.
pub fn run_traced(sim: &mut Sim, horizon: SimTime) -> Traced {
    let kinds = KIND_NAMES.len();
    let mut t = Traced {
        kind_n: vec![0; kinds],
        kind_ns: vec![0; kinds],
        ..Traced::default()
    };
    let mut seen: Vec<u64> = sim.engine.dispatch_counts().map(|(_, n)| n).collect();
    let popped = sim.engine.events_processed();
    let start = Instant::now();
    loop {
        if sim.world().quiescent() {
            t.quiescent = true;
            break;
        }
        let t0 = Instant::now();
        let fired = sim.engine.step_bounded(horizon);
        let ns = t0.elapsed().as_nanos() as u64;
        if fired.is_none() {
            break;
        }
        let kind = sim
            .engine
            .dispatch_counts()
            .zip(seen.iter_mut())
            .position(|((_, n), s)| {
                let moved = n != *s;
                *s = n;
                moved
            })
            .expect("a step dispatches exactly one event");
        t.kind_n[kind] += 1;
        t.kind_ns[kind] += ns;
        let pending = sim.engine.pending();
        t.pending_sum += pending as u128;
        t.pending_max = t.pending_max.max(pending);
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.popped = sim.engine.events_processed() - popped;
    t
}

/// Sample events for the replays: a few cheap variants spread over
/// several kinds, so the classifier does real work.
fn sample_event(i: u64) -> Event {
    let node = (i % 64) as usize;
    match i % 5 {
        0 => NicEvent::SendEngineDone { node }.into(),
        1 => AppEvent::ProcKick {
            node,
            pid: Pid(i as u32),
        }
        .into(),
        2 => DaemonEvent::NodeTick { node }.into(),
        3 => FmEvent::DemandRebalance { node }.into(),
        _ => DaemonEvent::JobArrival { index: node }.into(),
    }
}

/// Reschedule delays drawn once, so the timed loops do no RNG work.
struct Delays {
    d: Vec<u64>,
    i: usize,
}

impl Delays {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        Delays {
            d: (0..4096).map(|_| rng.range(1, 20_000)).collect(),
            i: 0,
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        self.i = (self.i + 1) & 4095;
        self.d[self.i]
    }
}

/// Operations per timed batch of a replay.
const REPLAY_OPS: u64 = 200_000;
/// Timed batches per replay; the median batch is reported.
const REPLAY_BATCHES: usize = 9;

fn median_ns_per_op(mut batch: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPLAY_BATCHES).map(|_| batch()).collect();
    crate::median(&mut v)
}

/// `EventQueue<Event>` hold time: one pop plus one push, at a steady
/// `depth`, in host nanoseconds.
pub fn queue_hold_ns(depth: usize, seed: u64) -> f64 {
    let mut delays = Delays::new(seed);
    let mut q: EventQueue<Event> = EventQueue::new();
    let mut seq = 0u64;
    for i in 0..depth.max(1) as u64 {
        q.push(SimTime(delays.next()), seq, sample_event(i));
        seq += 1;
    }
    median_ns_per_op(|| {
        let t0 = Instant::now();
        for _ in 0..REPLAY_OPS {
            let (t, ev) = q.pop().expect("queue holds `depth` events");
            q.push(t + Cycles(delays.next()), seq, black_box(ev));
            seq += 1;
        }
        t0.elapsed().as_nanos() as f64 / REPLAY_OPS as f64
    })
}

/// A model that does nothing but put each event back in the queue.
struct Echo(Delays);

impl Model for Echo {
    type Event = Event;

    fn handle(&mut self, _now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let d = self.0.next();
        sched.after(Cycles(d), black_box(event));
    }
}

/// `Engine::step` over [`Echo`] at a steady `depth`, with the cluster's
/// kind classifier installed: queue hold plus dispatch bookkeeping (the
/// classifier, the per-kind counter and the FNV stream digest), in host
/// nanoseconds per event.
pub fn engine_core_ns(depth: usize, seed: u64) -> f64 {
    let mut engine = Engine::new(Echo(Delays::new(seed)));
    engine.set_event_kinds(KIND_NAMES, Event::kind_index);
    for i in 0..depth.max(1) as u64 {
        let d = engine.model.0.next();
        engine.schedule_at(SimTime(d), sample_event(i));
    }
    median_ns_per_op(|| {
        let t0 = Instant::now();
        for _ in 0..REPLAY_OPS {
            engine.step();
        }
        t0.elapsed().as_nanos() as f64 / REPLAY_OPS as f64
    })
}
