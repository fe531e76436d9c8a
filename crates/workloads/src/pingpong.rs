//! Ping-pong latency workload: one message bounces between two ranks.
//!
//! FM's claim to fame was its low small-message latency; the `latency`
//! harness uses this workload to report one-way latency per message size
//! on the simulated stack, and to show it is unchanged by running under
//! the gang-scheduled buffer-switching scheme.

use crate::program::{Op, ProcView, Program, Workload};

/// Two-rank ping-pong.
#[derive(Debug, Clone, Copy)]
pub struct PingPong {
    /// Message payload bytes.
    pub msg_bytes: u64,
    /// Full round trips.
    pub round_trips: u64,
}

#[derive(Debug, Clone)]
struct PingPongProgram {
    cfg: PingPong,
    rank: usize,
    bounces: u64,
}

impl Program for PingPongProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let total = self.cfg.round_trips;
        if self.rank == 0 {
            // Sends on even bounces, then waits for the echo.
            if self.bounces >= total {
                return Op::Done;
            }
            if view.msgs_sent == self.bounces {
                return Op::Send {
                    dst: 1,
                    bytes: self.cfg.msg_bytes,
                };
            }
            if view.msgs_received < self.bounces + 1 {
                return Op::WaitRecvMsgs {
                    target: self.bounces + 1,
                };
            }
            self.bounces += 1;
            self.next_op(view)
        } else {
            // Echoes everything back.
            if self.bounces >= total {
                return Op::Done;
            }
            if view.msgs_received < self.bounces + 1 {
                return Op::WaitRecvMsgs {
                    target: self.bounces + 1,
                };
            }
            if view.msgs_sent == self.bounces {
                return Op::Send {
                    dst: 0,
                    bytes: self.cfg.msg_bytes,
                };
            }
            self.bounces += 1;
            self.next_op(view)
        }
    }
    fn name(&self) -> &'static str {
        "ping-pong"
    }
}

impl Workload for PingPong {
    fn nprocs(&self) -> usize {
        2
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(rank < 2);
        Box::new(PingPongProgram {
            cfg: *self,
            rank,
            bounces: 0,
        })
    }
    fn name(&self) -> &'static str {
        "ping-pong"
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
            nprocs: 2,
            msgs_received: received,
            msgs_sent: sent,
        }
    }

    #[test]
    fn pinger_alternates_send_and_wait() {
        let w = PingPong {
            msg_bytes: 64,
            round_trips: 2,
        };
        let mut p = w.program(0);
        assert_eq!(p.next_op(&view(0, 0, 0)), Op::Send { dst: 1, bytes: 64 });
        assert_eq!(p.next_op(&view(0, 0, 1)), Op::WaitRecvMsgs { target: 1 });
        assert_eq!(p.next_op(&view(0, 1, 1)), Op::Send { dst: 1, bytes: 64 });
        assert_eq!(p.next_op(&view(0, 1, 2)), Op::WaitRecvMsgs { target: 2 });
        assert_eq!(p.next_op(&view(0, 2, 2)), Op::Done);
    }

    #[test]
    fn echoer_waits_then_replies() {
        let w = PingPong {
            msg_bytes: 64,
            round_trips: 1,
        };
        let mut p = w.program(1);
        assert_eq!(p.next_op(&view(1, 0, 0)), Op::WaitRecvMsgs { target: 1 });
        assert_eq!(p.next_op(&view(1, 1, 0)), Op::Send { dst: 0, bytes: 64 });
        assert_eq!(p.next_op(&view(1, 1, 1)), Op::Done);
    }
}
