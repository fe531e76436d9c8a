//! Gang-switch handler: the three-phase context switch (paper §3.2) and
//! the §5 baseline strategies.

use fastmsg::division::BufferPolicy;
use gang_comm::sequencer::StageBreakdown;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher;
use hostsim::process::Signal;
use parpar::protocol::MasterMsg;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::bus::Bus;
use crate::event::{AppEvent, DaemonEvent, SwitchEvent};
use crate::node::AltSwitch;
use crate::stats::QueueSample;
use crate::world::World;

impl World {
    /// Dispatch one switch event.
    #[inline(never)]
    pub(crate) fn on_switch(&mut self, now: SimTime, ev: SwitchEvent, bus: &mut Bus) {
        match ev {
            SwitchEvent::CopyDone { node } => self.on_copy_done(now, node, bus),
        }
    }

    /// The noded received SwitchSlot: run the strategy's switch sequence.
    pub(crate) fn start_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        from: usize,
        to: usize,
        bus: &mut Bus,
    ) {
        self.nodes[node].noded.current_slot = to;
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("switch epoch {epoch}: slot {from} -> {to}")
        });

        // SIGSTOP the outgoing process first: "at this point it is assured
        // that the process will not produce any more packets".
        if let Some(pid) = self.nodes[node].app_in_slot(from) {
            self.nodes[node].procs.signal(pid, Signal::Stop);
        }

        match self.cfg.strategy {
            // The paper's scheme: halt + global flush, copy, release (three
            // phases, each a broadcast barrier).
            SwitchStrategy::GangFlush => {
                if self.cfg.fm.policy != BufferPolicy::FullBuffer {
                    // Every context is permanently resident: nothing to
                    // flush or copy — the switch is just signals.
                    self.resume_incoming(now, node, to, bus);
                    self.report_switch_done(now, node, epoch, bus);
                    return;
                }
                self.nodes[node].seq.start(now, epoch, from, to);
                // COMM_halt_network: stop sending on a packet boundary and
                // run the global flush protocol.
                self.comm_halt_network(now, node, bus)
                    .expect("halt ordered while idle");
            }
            // SHARE/PM-style baseline: no flush — copy immediately and let
            // stragglers be dropped by the job-ID check on arrival.
            SwitchStrategy::ShareDiscard { .. } => {
                self.start_alt_switch(now, node, epoch, from, to, true);
                self.schedule_copy(now, node, from, to, bus);
            }
            // Per-node drain baseline: stop sending and wait until every
            // in-flight packet is acknowledged, then copy. No broadcasts.
            SwitchStrategy::AckDrain => {
                self.start_alt_switch(now, node, epoch, from, to, false);
                self.alt_drain_maybe_done(now, node, bus);
            }
        }
    }

    /// Stop the send queues and record a baseline switch in flight.
    fn start_alt_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        from: usize,
        to: usize,
        copying: bool,
    ) {
        let n = &mut self.nodes[node];
        n.nic.set_halt_bit(true); // stop draining the send queue
        n.alt_switch = Some(AltSwitch {
            epoch,
            from,
            to,
            started: now,
            halt_done: now,
            copying,
        });
    }

    /// AckDrain: if the send engine is quiet and nothing is outstanding,
    /// the drain phase is over. Called by the NIC handler per ack.
    pub(crate) fn alt_drain_maybe_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        let Some(ref mut alt) = n.alt_switch else {
            return;
        };
        if alt.copying || n.outstanding > 0 || n.send_engine_busy {
            return;
        }
        alt.copying = true;
        alt.halt_done = now;
        let (from, to) = (alt.from, alt.to);
        self.schedule_copy(now, node, from, to, bus);
    }

    /// Run the buffer copy on the host CPU at its occupancy-dependent cost
    /// and raise `CopyDone` when it ends; also records the Fig. 8 queue
    /// sample for the outgoing context. Used by `COMM_context_switch`.
    pub(crate) fn schedule_copy(
        &mut self,
        now: SimTime,
        node: usize,
        from: usize,
        to: usize,
        bus: &mut Bus,
    ) {
        let out = self.occupancy_of_slot(node, from);
        let inc = self.incoming_occupancy(node, to);
        let epoch = self.current_epoch(node);
        if let Some((s, r)) = out {
            self.stats.queue_samples.push(QueueSample {
                node,
                epoch,
                send_valid: s,
                recv_valid: r,
            });
        }
        let mut cost = Cycles::from_us(5); // noded bookkeeping floor
        if let Some((s, r)) = out {
            cost += switcher::save_cost(
                self.cfg.copy,
                &self.cfg.fm,
                &self.cfg.mem,
                &self.cfg.switch_costs,
                s,
                r,
            );
        }
        if let Some((s, r)) = inc {
            cost += switcher::restore_cost(
                self.cfg.copy,
                &self.cfg.fm,
                &self.cfg.mem,
                &self.cfg.switch_costs,
                s,
                r,
            );
        }
        // Real copies vary run to run (cache state, DRAM refresh); the
        // variance is what desynchronizes the release phase.
        if self.cfg.copy_jitter_pct > 0.0 {
            let f = 1.0 + self.cfg.copy_jitter_pct * (2.0 * self.rng.unit() - 1.0);
            cost = Cycles((cost.raw() as f64 * f) as u64);
        }
        let r = self.nodes[node].cpu.reserve(now, cost);
        bus.emit(r.end, SwitchEvent::CopyDone { node });
    }

    /// The flush completed on this node: begin the buffer switch. Called
    /// by the NIC handler when the last halt message is counted.
    pub(crate) fn finish_flush(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].seq.flush_complete(now);
        self.trace
            .emit(now, Category::Switch, Some(node), || "flushed".to_string());
        // COMM_context_switch: swap buffers.
        self.comm_context_switch(now, node, None, None, bus)
            .expect("copy ordered before flush completed");
    }

    /// Release protocol complete: restart communication and resume the
    /// incoming process. Called by the NIC handler when the last ready
    /// message is counted.
    pub(crate) fn finish_release(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let breakdown = self.nodes[node].seq.finish(now);
        let epoch = self.nodes[node].seq.epoch;
        let to = self.nodes[node].seq.to_slot;
        self.end_switch(now, node, epoch, to, breakdown, bus);
    }

    /// Common tail of every buffer-switching strategy: record the stages,
    /// restart sending, resume the incoming process and report done.
    fn end_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        to: usize,
        breakdown: StageBreakdown,
        bus: &mut Bus,
    ) {
        self.stats.record_switch(node, epoch, breakdown);
        let n = &mut self.nodes[node];
        n.nic.set_halt_bit(false);
        n.halt_requested = false;
        n.halt_broadcast_started = false;
        n.noded.switches_done += 1;
        self.kick_send_engine(now, node, bus);
        self.resume_incoming(now, node, to, bus);
        self.report_switch_done(now, node, epoch, bus);
    }

    fn current_epoch(&self, node: usize) -> u64 {
        self.nodes[node]
            .alt_switch
            .map(|a| a.epoch)
            .unwrap_or(self.nodes[node].seq.epoch)
    }

    /// (send, recv) occupancy of the resident context of the job in `slot`
    /// on `node`, if any.
    fn occupancy_of_slot(&self, node: usize, slot: usize) -> Option<(usize, usize)> {
        let n = &self.nodes[node];
        let pid = n.app_in_slot(slot)?;
        let ctx_id = n.nic.find_context(n.apps.get(&pid)?.fm.job)?;
        let ctx = n.nic.context(ctx_id)?;
        Some((ctx.send_q.len(), ctx.recv_q.len()))
    }

    /// Saved occupancy of the incoming job's state in the backing store.
    fn incoming_occupancy(&self, node: usize, to: usize) -> Option<(usize, usize)> {
        let pid = self.nodes[node].app_in_slot(to)?;
        self.nodes[node].backing.peek(pid).map(|s| s.occupancy())
    }

    /// The buffer copy finished: move the queue contents and enter the
    /// release phase (or, for the baselines, finish directly).
    fn on_copy_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let (from, to, alt) = match self.nodes[node].alt_switch {
            Some(a) => (a.from, a.to, true),
            None => {
                let s = &self.nodes[node].seq;
                (s.from_slot, s.to_slot, false)
            }
        };
        self.move_buffers(now, node, from, to);
        if alt {
            self.finish_alt_switch(now, node, to, bus);
        } else {
            self.nodes[node].seq.copy_complete(now);
            // COMM_release_network: broadcast ready, collect peers' readys.
            self.comm_release_network(now, node, bus)
                .expect("release ordered before the copy completed");
        }
    }

    /// Physically exchange the queue contents (paper Fig. 4).
    fn move_buffers(&mut self, now: SimTime, node: usize, from: usize, to: usize) {
        // Save the outgoing context.
        if let Some(pid_out) = self.nodes[node].app_in_slot(from) {
            let n = &mut self.nodes[node];
            if let Some(ctx_id) = n.nic.find_context(n.apps[&pid_out].fm.job) {
                n.save_context(ctx_id, pid_out);
            }
        }
        // Restore the incoming context.
        if let Some(pid_in) = self.nodes[node].app_in_slot(to) {
            let n = &mut self.nodes[node];
            if let Some(saved) = n.backing.restore(pid_in) {
                let geo = self.cfg.fm.geometry();
                let proc = &n.apps[&pid_in];
                assert_eq!(saved.job, proc.fm.job, "backing store mix-up");
                let ctx_id = n
                    .nic
                    .alloc_context(saved.job, proc.rank, geo.send_slots, geo.recv_slots)
                    .expect("NIC context slot must be free after eviction");
                n.load_context(ctx_id, saved);
            }
        }
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("buffers switched (slot {from} -> {to})")
        });
    }

    /// Finish a ShareDiscard/AckDrain switch (no release protocol).
    fn finish_alt_switch(&mut self, now: SimTime, node: usize, to: usize, bus: &mut Bus) {
        let alt = self.nodes[node].alt_switch.take().unwrap();
        let breakdown = StageBreakdown {
            halt: alt.halt_done.since(alt.started),
            buffer_switch: now.since(alt.halt_done),
            release: Cycles::ZERO,
        };
        self.end_switch(now, node, alt.epoch, to, breakdown, bus);
    }

    fn resume_incoming(&mut self, now: SimTime, node: usize, to: usize, bus: &mut Bus) {
        if let Some(pid_in) = self.nodes[node].app_in_slot(to) {
            self.nodes[node].procs.signal(pid_in, Signal::Cont);
            bus.emit(
                now + self.cfg.host_costs.signal,
                AppEvent::ProcKick { node, pid: pid_in },
            );
        }
    }

    fn report_switch_done(&mut self, now: SimTime, node: usize, epoch: u64, bus: &mut Bus) {
        if self.tree.is_some() {
            // Combining tree: the ack joins the local reduction instead of
            // unicasting to the master; counts ascend the tree.
            self.tree_report_switch_done(now, node, epoch, 1, bus);
            return;
        }
        let t = self.ctrl.unicast_to_master(now);
        bus.emit(
            t,
            DaemonEvent::CtrlToMaster {
                msg: MasterMsg::SwitchDone { epoch, node },
            },
        );
    }
}
