//! Subsystem event handlers behind the typed event bus.
//!
//! The [`crate::world::World`] dispatcher does no work of its own: each
//! [`crate::event::Event`] group routes to one module's `impl World`
//! block —
//!
//! | sub-enum                      | entry point                     | module     |
//! |-------------------------------|---------------------------------|------------|
//! | [`crate::event::DaemonEvent`] | `World::on_daemon`              | [`daemon`] |
//! | [`crate::event::NicEvent`]    | `World::on_nic`                 | [`nic`]    |
//! | [`crate::event::AppEvent`]    | `World::on_app`                 | [`app`]    |
//! | [`crate::event::SwitchEvent`] | `World::on_switch`              | [`switch`] |
//! | [`crate::event::FmEvent`]     | `World::on_fm`                  | [`fm`]     |
//!
//! Each module is a self-contained state machine: it owns its event
//! group's handling plus the `pub(crate)` entry points other subsystems
//! call (for example `kick_send_engine` in [`nic`] or `finish_flush` in
//! [`switch`]); everything else in the module is private.

pub mod app;
pub mod daemon;
pub mod fm;
pub mod nic;
pub mod switch;
