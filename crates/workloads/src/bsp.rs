//! Bulk-synchronous (BSP) application: compute, exchange with ring
//! neighbors, repeat.
//!
//! The canonical workload class behind gang scheduling's existence: every
//! superstep ends in a neighbor exchange, so a rank that is descheduled
//! while its peers run stalls the whole application. The
//! `gang_vs_uncoordinated` experiment uses this program to reproduce the
//! classic result that motivates the paper's premise.

use sim_core::time::Cycles;

use crate::program::{Op, ProcView, Program, Workload};

/// Ring-neighbor BSP configuration.
#[derive(Debug, Clone, Copy)]
pub struct Bsp {
    /// Processes (ring size).
    pub nprocs: usize,
    /// Compute phase per superstep.
    pub compute: Cycles,
    /// Bytes exchanged with each of the two ring neighbors.
    pub msg_bytes: u64,
    /// Supersteps to run.
    pub supersteps: u64,
}

#[derive(Debug, Clone)]
struct BspProgram {
    cfg: Bsp,
    rank: usize,
    step: u64,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Compute,
    SendLeft,
    SendRight,
    Wait,
}

impl Program for BspProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let n = self.cfg.nprocs;
        if self.step >= self.cfg.supersteps {
            return Op::Done;
        }
        match self.phase {
            Phase::Compute => {
                self.phase = Phase::SendLeft;
                Op::Compute(self.cfg.compute)
            }
            Phase::SendLeft => {
                self.phase = Phase::SendRight;
                Op::Send {
                    dst: (self.rank + n - 1) % n,
                    bytes: self.cfg.msg_bytes,
                }
            }
            Phase::SendRight => {
                self.phase = Phase::Wait;
                Op::Send {
                    dst: (self.rank + 1) % n,
                    bytes: self.cfg.msg_bytes,
                }
            }
            Phase::Wait => {
                // Two arrivals per superstep (left + right neighbors).
                let target = 2 * (self.step + 1);
                if view.msgs_received < target {
                    Op::WaitRecvMsgs { target }
                } else {
                    self.step += 1;
                    self.phase = Phase::Compute;
                    self.next_op(view)
                }
            }
        }
    }
    fn name(&self) -> &'static str {
        "bsp"
    }
}

impl Workload for Bsp {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(self.nprocs >= 3, "a ring exchange needs at least 3 ranks");
        Box::new(BspProgram {
            cfg: *self,
            rank,
            step: 0,
            phase: Phase::Compute,
        })
    }
    fn name(&self) -> &'static str {
        "bsp"
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
    fn superstep_structure() {
        let w = Bsp {
            nprocs: 4,
            compute: Cycles(1000),
            msg_bytes: 512,
            supersteps: 2,
        };
        let mut p = w.program(1);
        // Step 0: compute, send to 0 and 2, wait for 2 messages.
        assert_eq!(p.next_op(&view(0)), Op::Compute(Cycles(1000)));
        assert_eq!(p.next_op(&view(0)), Op::Send { dst: 0, bytes: 512 });
        assert_eq!(p.next_op(&view(0)), Op::Send { dst: 2, bytes: 512 });
        assert_eq!(p.next_op(&view(0)), Op::WaitRecvMsgs { target: 2 });
        // Step 1 begins once both neighbors delivered.
        assert_eq!(p.next_op(&view(2)), Op::Compute(Cycles(1000)));
        assert_eq!(p.next_op(&view(2)), Op::Send { dst: 0, bytes: 512 });
        assert_eq!(p.next_op(&view(2)), Op::Send { dst: 2, bytes: 512 });
        assert_eq!(p.next_op(&view(3)), Op::WaitRecvMsgs { target: 4 });
        assert_eq!(p.next_op(&view(4)), Op::Done);
    }

    #[test]
    fn wraps_around_the_ring() {
        let w = Bsp {
            nprocs: 3,
            compute: Cycles(1),
            msg_bytes: 64,
            supersteps: 1,
        };
        let mut p0 = w.program(0);
        p0.next_op(&view(0)); // compute
        assert_eq!(p0.next_op(&view(0)), Op::Send { dst: 2, bytes: 64 });
        assert_eq!(p0.next_op(&view(0)), Op::Send { dst: 1, bytes: 64 });
    }
}
