//! Token-ring workload: a message circulates rank 0 → 1 → … → N-1 → 0.
//!
//! Not from the paper's evaluation, but a classic latency-sensitive pattern
//! that exercises per-hop credit turnover; the examples use it to show the
//! scheme with more than two ranks per job.

use crate::program::{Op, ProcView, Program, Workload};

/// Token ring configuration.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    /// Processes in the ring.
    pub nprocs: usize,
    /// Token payload bytes.
    pub msg_bytes: u64,
    /// Complete laps around the ring.
    pub laps: u64,
}

#[derive(Debug, Clone)]
struct RingProgram {
    cfg: Ring,
    rank: usize,
    forwarded: u64,
}

impl Program for RingProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let next = (self.rank + 1) % self.cfg.nprocs;
        if self.rank == 0 {
            // Rank 0 injects the token each lap, then waits for its return.
            if self.forwarded < self.cfg.laps {
                if view.msgs_sent == self.forwarded {
                    return Op::Send {
                        dst: next,
                        bytes: self.cfg.msg_bytes,
                    };
                }
                if view.msgs_received < self.forwarded + 1 {
                    return Op::WaitRecvMsgs {
                        target: self.forwarded + 1,
                    };
                }
                self.forwarded += 1;
                return self.next_op(view);
            }
            Op::Done
        } else {
            // Other ranks forward the token `laps` times.
            if self.forwarded < self.cfg.laps {
                if view.msgs_received < self.forwarded + 1 {
                    return Op::WaitRecvMsgs {
                        target: self.forwarded + 1,
                    };
                }
                self.forwarded += 1;
                return Op::Send {
                    dst: next,
                    bytes: self.cfg.msg_bytes,
                };
            }
            Op::Done
        }
    }
    fn name(&self) -> &'static str {
        "ring"
    }
}

impl Workload for Ring {
    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(rank < self.nprocs);
        Box::new(RingProgram {
            cfg: *self,
            rank,
            forwarded: 0,
        })
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    fn view(rank: usize, received: u64, sent: u64) -> ProcView {
        ProcView {
            now: SimTime::ZERO,
            rank,
            nprocs: 3,
            msgs_received: received,
            msgs_sent: sent,
        }
    }

    #[test]
    fn rank0_injects_waits_and_exits() {
        let w = Ring {
            nprocs: 3,
            msg_bytes: 64,
            laps: 2,
        };
        let mut p = w.program(0);
        assert_eq!(p.next_op(&view(0, 0, 0)), Op::Send { dst: 1, bytes: 64 });
        assert_eq!(p.next_op(&view(0, 0, 1)), Op::WaitRecvMsgs { target: 1 });
        // Token returned: inject lap 2.
        assert_eq!(p.next_op(&view(0, 1, 1)), Op::Send { dst: 1, bytes: 64 });
        assert_eq!(p.next_op(&view(0, 1, 2)), Op::WaitRecvMsgs { target: 2 });
        assert_eq!(p.next_op(&view(0, 2, 2)), Op::Done);
    }

    #[test]
    fn middle_rank_forwards() {
        let w = Ring {
            nprocs: 3,
            msg_bytes: 64,
            laps: 1,
        };
        let mut p = w.program(2);
        assert_eq!(p.next_op(&view(2, 0, 0)), Op::WaitRecvMsgs { target: 1 });
        // Wraps to rank 0.
        assert_eq!(p.next_op(&view(2, 1, 0)), Op::Send { dst: 0, bytes: 64 });
        assert_eq!(p.next_op(&view(2, 1, 1)), Op::Done);
    }
}
