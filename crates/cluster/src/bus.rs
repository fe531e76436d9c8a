//! The typed event bus: how subsystem handlers schedule follow-up events.
//!
//! [`Bus`] is a view over the engine's [`Scheduler`] that accepts any
//! subsystem sub-enum (anything `Into<Event>`), so a handler emits its own
//! event vocabulary — `bus.emit(t, NicEvent::SendEngineDone { node })` —
//! without naming the top-level wrapper.

use sim_core::engine::Scheduler;
use sim_core::time::SimTime;

use crate::event::Event;

/// A typed view over the pending-event queue, handed to subsystem
/// handlers during event handling.
pub struct Bus<'a> {
    sched: &'a mut Scheduler<Event>,
    now: SimTime,
}

impl<'a> Bus<'a> {
    /// Wrap a scheduler for one dispatch at the scheduler's clock.
    #[inline]
    pub fn new(sched: &'a mut Scheduler<Event>) -> Self {
        let now = sched.now();
        Bus { sched, now }
    }

    /// Instant of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emit `event` at absolute instant `t`.
    #[inline]
    pub fn emit<E: Into<Event>>(&mut self, t: SimTime, event: E) {
        self.sched.at(t, event.into());
    }

    /// Emit `event` at the current instant (delivered after the events
    /// already queued for this instant).
    #[inline]
    pub fn emit_now<E: Into<Event>>(&mut self, event: E) {
        self.emit(self.now, event);
    }
}
