//! Data-plane handler: the NIC send/receive engines, frame arrival, and
//! the halt/ready serial broadcasts.

use fastmsg::packet::{Packet, PacketKind};
use gang_comm::strategy::SwitchStrategy;
use myrinet::broadcast::{serial_broadcast, CONTROL_PACKET_BYTES};
use sim_core::time::SimTime;
use sim_core::trace::Category;

use crate::bus::Bus;
use crate::event::{AppEvent, Frame, NicEvent};
use crate::procsim::{BlockReason, ProcPhase};
use crate::world::World;

/// Which barrier of the gang switch a control broadcast belongs to.
#[derive(Clone, Copy)]
pub(crate) enum Broadcast {
    /// The flush barrier: `Frame::Halt`, completing in `HaltBroadcastDone`.
    Halt,
    /// The release barrier: `Frame::Ready`, completing in
    /// `ReadyBroadcastDone`.
    Ready,
}

impl World {
    /// Dispatch one data-plane event.
    #[inline(never)]
    pub(crate) fn on_nic(&mut self, now: SimTime, ev: NicEvent, bus: &mut Bus) {
        match ev {
            NicEvent::FrameArrive { node, frame } => self.on_frame_arrive(now, node, frame, bus),
            NicEvent::SendEngineDone { node } => self.on_send_engine_done(now, node, bus),
            NicEvent::RecvEngineDone { node, pkt } => self.land_packet(now, node, pkt, bus),
            NicEvent::HaltBroadcastDone { node } => self.on_halt_broadcast_done(now, node, bus),
            NicEvent::ReadyBroadcastDone { node } => self.on_ready_broadcast_done(now, node, bus),
        }
    }

    /// Let the send engine pick up work if it is idle: the LANai send
    /// context scanning the send queues (paper §2.2), extended with the
    /// halt-bit check on packet boundaries (paper §3.2). Called whenever a
    /// handler enqueues into a send queue or clears the halt bit.
    pub(crate) fn kick_send_engine(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        if n.send_engine_busy {
            return;
        }
        if n.nic.halt_bit() {
            if n.halt_requested && !n.halt_broadcast_started {
                self.begin_halt_broadcast(now, node, bus);
            }
            return;
        }
        // Scan contexts for a pending packet (round-robin is moot: under
        // gang scheduling only the running job produces traffic).
        let Some(ctx_id) = n
            .nic
            .resident_contexts()
            .find(|&c| !n.nic.context(c).unwrap().send_q.is_empty())
        else {
            return;
        };
        let pkt = n.nic.context_mut(ctx_id).unwrap().send_q.pop().unwrap();
        let overhead = n.nic.costs.send_per_packet;
        // The single LANai processor must be free of queued receive work
        // before the send context can run.
        let fw_done = n.nic.reserve_engine(now, overhead);
        let tx = self
            .net
            .transmit(fw_done, node, pkt.dst_host, pkt.wire_bytes());
        let n = &mut self.nodes[node];
        n.nic.engine_extend_to(tx.injection_done);
        n.nic.stats.data_sent += 1;
        n.send_engine_busy = true;
        if matches!(self.cfg.strategy, SwitchStrategy::AckDrain) && pkt.kind == PacketKind::Data {
            n.outstanding += 1;
        }
        let dst = pkt.dst_host;
        bus.emit(tx.injection_done, NicEvent::SendEngineDone { node });
        if self.lose_frame() {
            return;
        }
        bus.emit(
            tx.arrival,
            NicEvent::FrameArrive {
                node: dst,
                frame: Frame::Data(pkt),
            },
        );
    }

    /// Start the serial halt broadcast (the send engine is at a packet
    /// boundary with the halt bit set).
    pub(crate) fn begin_halt_broadcast(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        debug_assert!(n.nic.halt_bit() && n.halt_requested);
        n.halt_broadcast_started = true;
        self.control_broadcast(now, node, Broadcast::Halt, bus);
    }

    /// Reliability layer: repeat the halt or ready broadcast for the
    /// in-flight epoch (a ResendProtocol response). Every receiver treats
    /// the copies idempotently, including our own completion event.
    pub(crate) fn rebroadcast(
        &mut self,
        now: SimTime,
        node: usize,
        which: Broadcast,
        bus: &mut Bus,
    ) {
        debug_assert!(self.cfg.reliability.enabled);
        debug_assert!(!self.nodes[node].send_engine_busy);
        self.stats.rebroadcasts += 1;
        self.control_broadcast(now, node, which, bus);
    }

    /// The serial control broadcast both barriers of the switch use
    /// (paper Fig. 3): the LANai sends one control packet to every peer,
    /// back to back, holding its engine until the last is injected, then
    /// raises the matching completion event.
    pub(crate) fn control_broadcast(
        &mut self,
        now: SimTime,
        node: usize,
        which: Broadcast,
        bus: &mut Bus,
    ) {
        let n = &mut self.nodes[node];
        n.send_engine_busy = true;
        let peers = self.cfg.nodes - 1;
        let firmware = n.nic.costs.control_packet * peers as u64;
        let epoch = n.seq.epoch;
        n.nic.stats.control_sent += peers as u64;
        let start = n.nic.reserve_engine(now, firmware);
        let res = serial_broadcast(&mut self.net, start, node, CONTROL_PACKET_BYTES);
        for (dst, tx) in &res {
            if self.lose_frame() {
                continue;
            }
            let frame = match which {
                Broadcast::Halt => Frame::Halt { epoch, src: node },
                Broadcast::Ready => Frame::Ready { epoch, src: node },
            };
            bus.emit(tx.arrival, NicEvent::FrameArrive { node: *dst, frame });
        }
        let done = res.last().map(|(_, tx)| tx.injection_done).unwrap_or(start);
        self.nodes[node].nic.engine_extend_to(done);
        let ev = match which {
            Broadcast::Halt => NicEvent::HaltBroadcastDone { node },
            Broadcast::Ready => NicEvent::ReadyBroadcastDone { node },
        };
        bus.emit(done, ev);
    }

    /// The receive engine landed one packet (also the re-entry point for
    /// parked packets the FM handler delivers after a fault).
    pub(crate) fn land_packet(&mut self, now: SimTime, node: usize, pkt: Packet, bus: &mut Bus) {
        if pkt.kind == PacketKind::Refill {
            // Refills are consumed at the NIC layer: credits are host
            // memory, no queue slot is used (paper §2.2).
            self.nodes[node].nic.stats.data_received += 1;
            let pid = self.find_proc_by_job(node, pkt.job);
            if let Some(pid) = pid {
                let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                proc.fm.on_refill(&pkt);
                if matches!(proc.blocked, Some(BlockReason::Credits { peer }) if peer == pkt.src_host)
                {
                    bus.emit_now(AppEvent::ProcKick { node, pid });
                }
                // Reliability: the piggybacked ack may have released the
                // last unacked packet of a finished process whose teardown
                // was deferred on it.
                if self.cfg.reliability.enabled
                    && self.nodes[node].apps[&pid].phase == ProcPhase::Finished
                {
                    self.try_end_job(now, node, pid, bus);
                }
            }
            return;
        }
        // Data packet: land it in its context's receive queue.
        let vn = self.vn_active();
        let n = &mut self.nodes[node];
        match n.nic.find_context(pkt.job) {
            None if vn => {
                // Virtual-networks semantics: hold the packet and fault
                // the endpoint in.
                self.vn_park_arrival(now, node, pkt, bus);
            }
            None if self.cfg.reliability.enabled => {
                // A late retransmission arrived after the destination
                // context was torn down (its job finished while copies were
                // in flight). Send a context-free cumulative ack home so
                // the sender's retransmit timer stops chasing it.
                n.nic.stats.dropped_no_context += 1;
                let ghost = pkt.ghost_ack();
                let tx = self
                    .net
                    .transmit(now, node, ghost.dst_host, ghost.wire_bytes());
                if !self.lose_frame() {
                    bus.emit(
                        tx.arrival,
                        NicEvent::FrameArrive {
                            node: ghost.dst_host,
                            frame: Frame::Data(ghost),
                        },
                    );
                }
            }
            None => {
                // Only the no-flush baselines can reach this: the context
                // was swapped out with packets still in flight.
                assert!(
                    self.cfg.strategy.may_drop(),
                    "data packet for non-resident context under {} (job {})",
                    self.cfg.strategy.name(),
                    pkt.job
                );
                n.nic.stats.dropped_no_context += 1;
                self.stats.drops += 1;
                let notify = Frame::DropNotify {
                    job: pkt.job,
                    src_host: pkt.src_host,
                    drop_host: node,
                };
                let tx = self
                    .net
                    .transmit(now, node, pkt.src_host, CONTROL_PACKET_BYTES);
                bus.emit(
                    tx.arrival,
                    NicEvent::FrameArrive {
                        node: pkt.src_host,
                        frame: notify,
                    },
                );
            }
            Some(ctx_id) => {
                let src_host = pkt.src_host;
                let job = pkt.job;
                if self.cfg.reliability.enabled && n.nic.context(ctx_id).unwrap().recv_q.is_full() {
                    // Retransmitted duplicates do not consume credits, so
                    // they can arrive with the credit-sized ring already
                    // full; drop silently — go-back-N retries until a slot
                    // frees up.
                    n.nic.stats.dropped_ring_full += 1;
                    return;
                }
                n.nic
                    .context_mut(ctx_id)
                    .unwrap()
                    .recv_q
                    .push(pkt)
                    .expect("receive ring overflow: credit accounting violated");
                n.nic.stats.data_received += 1;
                self.vn_touch(now, node, job);
                // Wake the owning process if it is waiting for traffic.
                if let Some(pid) = self.find_proc_by_job(node, job) {
                    let proc = &self.nodes[node].apps[&pid];
                    if !proc.busy
                        && matches!(
                            proc.blocked,
                            Some(
                                BlockReason::RecvWait { .. }
                                    | BlockReason::Credits { .. }
                                    | BlockReason::SendSpace
                            )
                        )
                    {
                        bus.emit_now(AppEvent::ProcKick { node, pid });
                    }
                    // Dynamic coscheduling (§5): the arrival preempts the
                    // node in favor of the destination process.
                    if self.cfg.dynamic_coscheduling && !self.cfg.gang_scheduling {
                        self.dynamic_cosched_preempt(now, node, pid, bus);
                    }
                }
                // AckDrain: acknowledge receipt to the sender's NIC.
                if self.cfg.strategy.uses_acks() {
                    let tx = self.net.transmit(now, node, src_host, CONTROL_PACKET_BYTES);
                    bus.emit(
                        tx.arrival,
                        NicEvent::FrameArrive {
                            node: src_host,
                            frame: Frame::Ack { to: src_host },
                        },
                    );
                }
            }
        }
    }

    /// Fault injection: FM assumes "an insignificant error rate on a SAN"
    /// (§2.2); a lost frame silently never arrives. Applied to data
    /// packets, refills, and (so the recovery protocol is exercised too)
    /// halt/ready control broadcasts. Never touches the RNG at
    /// `wire_loss_ppm = 0`, keeping loss-free runs bit-identical.
    fn lose_frame(&mut self) -> bool {
        if self.cfg.wire_loss_ppm > 0 && self.rng.below(1_000_000) < self.cfg.wire_loss_ppm as u64 {
            self.stats.wire_losses += 1;
            true
        } else {
            false
        }
    }

    /// The send engine finished injecting a packet.
    fn on_send_engine_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        // Queue space freed: unblock senders, flush deferred refills, and
        // complete any deferred job teardown. Only live processes can be
        // waiting. On the streaming fast path nothing here applies, so a
        // cheap scan gates the walk; the walk steps through the live
        // entries by pid, since `try_end_job` retires the one it tears
        // down, and this handler must stay allocation-free.
        let any_waiting = self.nodes[node]
            .apps
            .live()
            .any(|p| p.blocked == Some(BlockReason::SendSpace) || p.phase == ProcPhase::Finished);
        if any_waiting {
            let mut after = None;
            while let Some((pid, p)) = self.nodes[node].apps.next_live(after) {
                after = Some(pid);
                let finished = p.phase == ProcPhase::Finished;
                if p.blocked == Some(BlockReason::SendSpace) {
                    bus.emit_now(AppEvent::ProcKick { node, pid });
                }
                if finished {
                    self.try_end_job(now, node, pid, bus);
                }
            }
        }
        self.drain_pending_refills(now, node, bus);
        self.kick_send_engine(now, node, bus);
    }

    /// A frame fully arrived at this node's NIC.
    fn on_frame_arrive(&mut self, now: SimTime, node: usize, frame: Frame, bus: &mut Bus) {
        match frame {
            Frame::Data(pkt) => {
                // Both data and refill packets pass through the receive
                // engine (interrupt + classify + DMA).
                let n = &mut self.nodes[node];
                let work = n.nic.costs.recv_cycles(pkt.wire_bytes());
                let end = n.nic.reserve_engine(now, work);
                bus.emit(end, NicEvent::RecvEngineDone { node, pkt });
            }
            Frame::Halt { epoch, src } => {
                let n = &mut self.nodes[node];
                n.nic.stats.control_received += 1;
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("halt from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_halt_msg(epoch, src) {
                    self.finish_flush(now, node, bus);
                }
            }
            Frame::Ready { epoch, src } => {
                let n = &mut self.nodes[node];
                n.nic.stats.control_received += 1;
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("ready from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_ready_msg(epoch, src) {
                    self.finish_release(now, node, bus);
                }
            }
            Frame::Ack { to } => {
                debug_assert_eq!(to, node);
                let n = &mut self.nodes[node];
                n.nic.stats.control_received += 1;
                assert!(n.outstanding > 0, "ack without outstanding packet");
                n.outstanding -= 1;
                if n.outstanding == 0 {
                    self.alt_drain_maybe_done(now, node, bus);
                }
            }
            Frame::DropNotify {
                job,
                src_host,
                drop_host,
            } => {
                debug_assert_eq!(src_host, node);
                // Return the credit the dropped packet consumed, standing
                // in for the higher-layer retransmission path.
                let pid = self.find_proc_by_job(node, job);
                if let Some(pid) = pid {
                    let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                    proc.fm.flow.refill(drop_host, 1);
                    if proc.blocked == Some(BlockReason::Credits { peer: drop_host }) {
                        bus.emit_now(AppEvent::ProcKick { node, pid });
                    }
                }
                // Under AckDrain a nack settles the outstanding packet too.
                if self.cfg.strategy.uses_acks() {
                    let n = &mut self.nodes[node];
                    assert!(n.outstanding > 0, "nack without outstanding packet");
                    n.outstanding -= 1;
                    if n.outstanding == 0 {
                        self.alt_drain_maybe_done(now, node, bus);
                    }
                }
            }
        }
    }

    /// The halt broadcast finished: the local halt ("lh") transition.
    fn on_halt_broadcast_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        let complete = self.nodes[node].seq.on_local_halt();
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!(
                "local halt done, state {}",
                self.nodes[node].seq.flush_label()
            )
        });
        if complete {
            self.finish_flush(now, node, bus);
        } else if self.cfg.reliability.enabled
            && self.nodes[node].seq.phase() == gang_comm::sequencer::SwitchPhase::Releasing
        {
            // This completion was a recovery re-broadcast from a node
            // already past the flush: repeat the ready broadcast too, in
            // case that was the frame that got lost.
            self.rebroadcast(now, node, Broadcast::Ready, bus);
        }
    }

    /// The ready broadcast finished: the local ready transition.
    fn on_ready_broadcast_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        if self.nodes[node].seq.on_local_ready() {
            self.finish_release(now, node, bus);
        } else if self.cfg.reliability.enabled {
            // A recovery re-broadcast completion (the sequencer treated it
            // as a no-op): the engine was reserved for it, so let queued
            // data traffic resume. During a real release this kick is a
            // no-op — the halt bit is still set.
            self.kick_send_engine(now, node, bus);
        }
    }
}
