//! The all-to-all stress benchmark (paper §4.2).
//!
//! "To measure the context switch overhead we used an all-to-all
//! benchmark, that will stress the buffers during the test." Every round,
//! each rank sends a burst of messages to every other rank, then waits for
//! the corresponding arrivals before starting the next round. The bursts
//! are what populate the receive queues that Fig. 8 samples at switch
//! time.

use crate::program::{Op, ProcView, Program, Workload};

/// All-to-all exchange in bursty rounds.
#[derive(Debug, Clone, Copy)]
pub struct AllToAll {
    /// Processes in the job (= nodes it occupies).
    pub nprocs: usize,
    /// Message payload bytes.
    pub msg_bytes: u64,
    /// Messages sent to each peer per round.
    pub burst: u64,
    /// Rounds to run; `None` = run until the harness stops the simulation.
    pub rounds: Option<u64>,
}

impl AllToAll {
    /// The configuration used by the switch-overhead experiments: full
    /// packets, bursts sized to occupy the receive queue the way Fig. 8
    /// shows (roughly linear in the node count).
    pub fn stress(nprocs: usize) -> Self {
        AllToAll {
            nprocs,
            msg_bytes: 1536,
            burst: 16,
            rounds: None,
        }
    }
}

#[derive(Debug, Clone)]
struct A2aProgram {
    cfg: AllToAll,
    rank: usize,
    round: u64,
    /// Sends issued in the current round (0..(nprocs-1)*burst).
    sent_in_round: u64,
}

impl Program for A2aProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let peers = (self.cfg.nprocs - 1) as u64;
        let per_round = peers * self.cfg.burst;
        if let Some(r) = self.cfg.rounds {
            if self.round >= r {
                return Op::Done;
            }
        }
        if self.sent_in_round < per_round {
            // Interleave peers: burst b to peer k ordered (b0 p0..pk, b1 p0..).
            let k = (self.sent_in_round % peers) as usize;
            let dst_idx = if k >= self.rank { k + 1 } else { k };
            self.sent_in_round += 1;
            Op::Send {
                dst: dst_idx,
                bytes: self.cfg.msg_bytes,
            }
        } else {
            // End of round: wait for every peer's burst of this round.
            let target = (self.round + 1) * per_round;
            if view.msgs_received < target {
                Op::WaitRecvMsgs { target }
            } else {
                self.round += 1;
                self.sent_in_round = 0;
                // Re-enter to emit the first send of the next round.
                self.next_op(view)
            }
        }
    }
    fn name(&self) -> &'static str {
        "all-to-all"
    }
}

impl Workload for AllToAll {
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(rank < self.nprocs);
        Box::new(A2aProgram {
            cfg: *self,
            rank,
            round: 0,
            sent_in_round: 0,
        })
    }

    fn name(&self) -> &'static str {
        "all-to-all"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    fn view(received: u64) -> ProcView {
        ProcView {
            now: SimTime::ZERO,
            rank: 1,
            nprocs: 4,
            msgs_received: received,
            msgs_sent: 0,
        }
    }

    #[test]
    fn one_round_targets_every_peer_evenly() {
        let w = AllToAll {
            nprocs: 4,
            msg_bytes: 100,
            burst: 2,
            rounds: Some(1),
        };
        let mut p = w.program(1);
        let mut counts = [0u32; 4];
        for _ in 0..6 {
            match p.next_op(&view(0)) {
                Op::Send { dst, bytes: 100 } => counts[dst] += 1,
                other => panic!("expected send, got {other:?}"),
            }
        }
        assert_eq!(counts, [2, 0, 2, 2]); // never to self (rank 1)
                                          // Then waits for 6 arrivals...
        assert_eq!(p.next_op(&view(0)), Op::WaitRecvMsgs { target: 6 });
        // ...and exits after its single round.
        assert_eq!(p.next_op(&view(6)), Op::Done);
    }

    #[test]
    fn endless_mode_starts_next_round() {
        let w = AllToAll {
            nprocs: 2,
            msg_bytes: 10,
            burst: 1,
            rounds: None,
        };
        let mut p = w.program(0);
        assert!(matches!(p.next_op(&view(0)), Op::Send { dst: 1, .. }));
        assert_eq!(p.next_op(&view(0)), Op::WaitRecvMsgs { target: 1 });
        // Round satisfied → immediately sends round 2's first message.
        assert!(matches!(p.next_op(&view(1)), Op::Send { dst: 1, .. }));
    }

    #[test]
    fn stress_preset_is_endless() {
        let w = AllToAll::stress(16);
        assert_eq!(w.nprocs(), 16);
        assert_eq!(w.rounds, None);
        assert_eq!(w.msg_bytes, 1536);
    }
}
