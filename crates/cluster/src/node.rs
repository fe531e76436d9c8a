//! Per-node composite state: host, NIC, daemon, processes.

use std::collections::{BTreeMap, VecDeque};

use fastmsg::packet::Packet;
use gang_comm::sequencer::SwitchSequencer;
use gang_comm::state::SavedCommState;
use hostsim::backing::BackingStore;
use hostsim::cpu::HostCpu;
use hostsim::process::{Pid, ProcessTable};
use lanai::nic::Nic;
use parpar::noded::Noded;

use crate::procsim::ProcSim;

/// Pid → [`ProcSim`] map of one node, split into live and retired
/// processes.
///
/// A node hosts one process per gang slot — one or two in every
/// configuration the paper studies — and the hot handlers (`proc_kick`,
/// `HostOpDone`, packet landing, send-engine completion) do several
/// lookups and scans per event. Those processes are the **live** entries:
/// a flat `Vec` sorted by pid that never holds more than `slots` of them,
/// so a lookup stays inside a cache line or two.
///
/// `COMM_end_job` tears a finished process down, and the process then
/// moves to the pid-sorted **retired** list (`AppMap::retire`). Its
/// state is kept, because a late refill, drop-notify or retransmit timer
/// of the torn-down job can still find it, and the run's observables
/// (`msgs_received`, `phase`) are read after quiescence. Only the cold,
/// out-of-line fallbacks of [`AppMap::get`], [`AppMap::get_mut`] and
/// `AppMap::pid_of_job` search the retired list, so the per-event cost
/// is bounded by what is resident, not by how many jobs a serving run
/// has finished.
///
/// Invariant: each process is in exactly one list, the live list holds
/// at most `slots` processes (checked by `debug_assert!` in
/// [`AppMap::insert`]), and a process is retired only once its job's
/// context or backing-store entry has been released. The all-process view
/// (`keys`, `iter`, `values`, `values_mut`, `len`) merges both lists in
/// ascending pid order, so what it yields does not depend on which
/// processes have retired.
pub struct AppMap {
    /// Processes not yet torn down, ascending pid; at most `slots`.
    live: Vec<(Pid, ProcSim)>,
    /// Torn-down processes, ascending pid.
    retired: Vec<(Pid, ProcSim)>,
    /// Gang-matrix depth: the bound on `live.len()`.
    slots: usize,
}

impl AppMap {
    /// An empty map for a node with `slots` gang slots.
    pub fn new(slots: usize) -> Self {
        AppMap {
            live: Vec::new(),
            retired: Vec::new(),
            slots,
        }
    }

    /// The process with id `pid`, live or retired.
    #[inline]
    pub fn get(&self, pid: &Pid) -> Option<&ProcSim> {
        match self.live.iter().find(|(k, _)| k == pid) {
            Some((_, v)) => Some(v),
            None => self.get_retired(pid),
        }
    }

    /// Mutable access to the process with id `pid`, live or retired.
    #[inline]
    pub fn get_mut(&mut self, pid: &Pid) -> Option<&mut ProcSim> {
        match self.live.iter().position(|(k, _)| k == pid) {
            Some(i) => Some(&mut self.live[i].1),
            None => self.get_retired_mut(pid),
        }
    }

    #[cold]
    #[inline(never)]
    fn get_retired(&self, pid: &Pid) -> Option<&ProcSim> {
        let i = self.retired.binary_search_by_key(pid, |(k, _)| *k).ok()?;
        Some(&self.retired[i].1)
    }

    #[cold]
    #[inline(never)]
    fn get_retired_mut(&mut self, pid: &Pid) -> Option<&mut ProcSim> {
        let i = self.retired.binary_search_by_key(pid, |(k, _)| *k).ok()?;
        Some(&mut self.retired[i].1)
    }

    /// The pid of `job`'s process on this node, live or retired.
    #[inline]
    pub(crate) fn pid_of_job(&self, job: u32) -> Option<Pid> {
        match self.live.iter().find(|(_, p)| p.fm.job == job) {
            Some((pid, _)) => Some(*pid),
            None => self.retired_pid_of_job(job),
        }
    }

    #[cold]
    #[inline(never)]
    fn retired_pid_of_job(&self, job: u32) -> Option<Pid> {
        self.retired
            .iter()
            .find(|(_, p)| p.fm.job == job)
            .map(|(pid, _)| *pid)
    }

    /// The first live process with a pid above `after` (the first of all
    /// with `None`). Scans that may retire the process they visit step
    /// through the live entries with this instead of an iterator.
    #[inline]
    pub(crate) fn next_live(&self, after: Option<Pid>) -> Option<(Pid, &ProcSim)> {
        self.live
            .iter()
            .find(|(k, _)| after.is_none_or(|a| *k > a))
            .map(|(k, v)| (*k, v))
    }

    /// The live processes, ascending pid.
    #[inline]
    pub(crate) fn live(&self) -> impl Iterator<Item = &ProcSim> {
        self.live.iter().map(|(_, v)| v)
    }

    /// Insert a new live process `proc` under `pid`, returning the
    /// displaced process if the pid was already live.
    pub fn insert(&mut self, pid: Pid, proc: ProcSim) -> Option<ProcSim> {
        match self.live.binary_search_by_key(&pid, |(k, _)| *k) {
            Ok(i) => Some(std::mem::replace(&mut self.live[i].1, proc)),
            Err(i) => {
                self.live.insert(i, (pid, proc));
                debug_assert!(
                    self.live.len() <= self.slots,
                    "{} live processes on a node with {} gang slots",
                    self.live.len(),
                    self.slots
                );
                None
            }
        }
    }

    /// Move the live process `pid` to the retired list (its job has been
    /// torn down). A no-op if `pid` is not live.
    pub(crate) fn retire(&mut self, pid: &Pid) {
        if let Ok(i) = self.live.binary_search_by_key(pid, |(k, _)| *k) {
            let entry = self.live.remove(i);
            let j = self
                .retired
                .binary_search_by_key(pid, |(k, _)| *k)
                .expect_err("a pid is retired at most once");
            self.retired.insert(j, entry);
        }
    }

    /// Remove and return the process with id `pid`, live or retired.
    pub fn remove(&mut self, pid: &Pid) -> Option<ProcSim> {
        for list in [&mut self.live, &mut self.retired] {
            if let Ok(i) = list.binary_search_by_key(pid, |(k, _)| *k) {
                return Some(list.remove(i).1);
            }
        }
        None
    }

    /// All pids, live and retired, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Pid> {
        self.iter().map(|(k, _)| k)
    }

    /// All `(pid, process)` pairs, live and retired, in ascending pid
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&Pid, &ProcSim)> {
        merge_by_pid(self.live.iter(), self.retired.iter(), |e| e.0).map(|(k, v)| (k, v))
    }

    /// All processes, live and retired, in ascending pid order.
    pub fn values(&self) -> impl Iterator<Item = &ProcSim> {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable iteration over all processes in ascending pid order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut ProcSim> {
        merge_by_pid(self.live.iter_mut(), self.retired.iter_mut(), |e| e.0).map(|(_, v)| v)
    }

    /// Number of processes, live and retired.
    pub fn len(&self) -> usize {
        self.live.len() + self.retired.len()
    }

    /// Is there no process at all, live or retired?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live processes (at most the node's gang slots).
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Number of retired (torn-down) processes.
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }
}

/// Merge two pid-sorted sequences into one ascending sequence.
fn merge_by_pid<T>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    pid: impl Fn(&T) -> Pid,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if pid(y) < pid(x) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

impl std::ops::Index<&Pid> for AppMap {
    type Output = ProcSim;
    fn index(&self, pid: &Pid) -> &ProcSim {
        self.get(pid)
            .unwrap_or_else(|| panic!("no process with pid {}", pid.0))
    }
}

/// One compute node of the simulated cluster.
pub struct NodeSim {
    /// Node id (= host id on the data network).
    pub id: usize,
    /// The host CPU timeline.
    pub cpu: HostCpu,
    /// Kernel process table.
    pub procs: ProcessTable,
    /// The node daemon's slot bookkeeping.
    pub noded: Noded,
    /// The NIC.
    pub nic: Nic<Packet>,
    /// The three-phase switch sequencer.
    pub seq: SwitchSequencer,
    /// Pageable backing store for descheduled jobs' queue contents.
    pub backing: BackingStore<SavedCommState<Packet>>,
    /// Application-process simulation state by pid.
    pub apps: AppMap,
    /// True while a SendEngineDone event is outstanding.
    pub send_engine_busy: bool,
    /// The noded asked for a halt; the engine starts the halt broadcast at
    /// the next packet boundary.
    pub halt_requested: bool,
    /// The halt broadcast has been started (at most once per switch).
    pub halt_broadcast_started: bool,
    /// COMM_init_node has run (control program loaded into the LANai).
    pub nic_initialized: bool,
    /// The node is in service (COMM_add_node / COMM_remove_node).
    pub in_service: bool,
    /// Data packets injected but not yet acknowledged (AckDrain strategy).
    pub outstanding: u64,
    /// Endpoint fault in progress (CachedEndpoints policy): the job being
    /// faulted in.
    pub fault_in_progress: Option<u32>,
    /// Jobs waiting for an endpoint fault.
    pub fault_queue: VecDeque<u32>,
    /// Packets that arrived for non-resident endpoints, held until their
    /// endpoint faults in (virtual-networks semantics).
    pub parked: Vec<fastmsg::packet::Packet>,
    /// Last-activity instant per job, for LRU endpoint eviction.
    pub lru: BTreeMap<u32, sim_core::time::SimTime>,
    /// Endpoint faults served on this node.
    pub faults: u64,
    /// State of a non-flush switch in progress (ShareDiscard / AckDrain).
    pub alt_switch: Option<AltSwitch>,
    /// Recycled [`SavedCommState`] shells. Buffer switches happen every
    /// quantum; draining into a pooled shell and loading back out of it
    /// keeps the switch path allocation-free at steady state.
    state_pool: Vec<SavedCommState<Packet>>,
}

/// Progress of a ShareDiscard or AckDrain switch on one node.
#[derive(Debug, Clone, Copy)]
pub struct AltSwitch {
    /// Switch epoch.
    pub epoch: u64,
    /// Slot being descheduled.
    pub from: usize,
    /// Slot being scheduled.
    pub to: usize,
    /// When the SwitchSlot command was acted on.
    pub started: sim_core::time::SimTime,
    /// When the halt/drain phase completed (copy began).
    pub halt_done: sim_core::time::SimTime,
    /// True once the copy has been scheduled.
    pub copying: bool,
}

impl NodeSim {
    /// A fresh node with `slots` gang slots.
    pub fn new(id: usize, peers: usize, slots: usize, nic: Nic<Packet>) -> Self {
        NodeSim {
            id,
            cpu: HostCpu::new(),
            procs: ProcessTable::new(),
            noded: Noded::new(id),
            nic,
            seq: SwitchSequencer::new(peers),
            backing: BackingStore::new(),
            apps: AppMap::new(slots),
            send_engine_busy: false,
            halt_requested: false,
            halt_broadcast_started: false,
            nic_initialized: false,
            in_service: true,
            outstanding: 0,
            fault_in_progress: None,
            fault_queue: VecDeque::new(),
            parked: Vec::new(),
            lru: BTreeMap::new(),
            faults: 0,
            alt_switch: None,
            state_pool: Vec::new(),
        }
    }

    /// Free NIC context `ctx_id` and save its queue contents to the
    /// backing store under `pid`, in a pooled shell when one is available.
    pub fn save_context(&mut self, ctx_id: usize, pid: Pid) {
        let mut ctx = self.nic.free_context(ctx_id).unwrap();
        let mut saved = match self.state_pool.pop() {
            Some(mut s) => {
                s.job = ctx.job;
                s
            }
            None => SavedCommState::empty(ctx.job),
        };
        ctx.send_q.drain_into(&mut saved.send_q);
        ctx.recv_q.drain_into(&mut saved.recv_q);
        let bytes = saved.stored_bytes();
        self.backing.save(pid, saved, bytes);
    }

    /// Load saved queue contents into the freshly allocated NIC context
    /// `ctx_id` and return the emptied shell to the pool.
    pub fn load_context(&mut self, ctx_id: usize, mut saved: SavedCommState<Packet>) {
        let ctx = self.nic.context_mut(ctx_id).unwrap();
        ctx.send_q.load_from(&mut saved.send_q);
        ctx.recv_q.load_from(&mut saved.recv_q);
        self.state_pool.push(saved);
    }

    /// The app process (if any) occupying `slot` on this node.
    pub fn app_in_slot(&self, slot: usize) -> Option<Pid> {
        self.noded.in_slot(slot).map(|(_, pid)| pid)
    }
}
