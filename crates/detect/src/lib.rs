//! # rpcv-detect — unreliable failure detectors
//!
//! On an asynchronous network, failure *detection* is impossible; RPC-V
//! only ever *suspects* (paper §4.1: "As we assume an asynchronous
//! network, the fault detection can only be used for suspecting a
//! component failure.  To avoid confusion ... we use the term fault
//! suspicion instead of fault detection").
//!
//! * [`HeartbeatMonitor`] — timeout-based suspicion over periodic "heart
//!   beat" signals (§4.2: a beat every 5 s, suspicion after 30 s of
//!   silence, in the confined experiments);
//! * [`BeatSchedule`] — when a component should emit its next beat;
//! * [`CoordinatorList`] — the "finite list of known coordinators" every
//!   component carries, with local suspicion updates, periodic merging at
//!   beat reception, and the common-order successor relationship used by
//!   the passive-replication ring.

pub mod coordlist;
pub mod heartbeat;

pub use coordlist::CoordinatorList;
pub use heartbeat::{BeatSchedule, HeartbeatMonitor};
