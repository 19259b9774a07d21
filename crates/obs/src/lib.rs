//! # rpcv-obs — the deterministic telemetry plane
//!
//! Aggregate numbers (events/sec, bytes/round, wasted units) say *that* the
//! grid is healthy; they cannot say *where* a job spent its time or what the
//! failover detect→recover gap looked like under a chaos plan.  This crate
//! is the answer, built with the same determinism discipline as the rest of
//! the workspace:
//!
//! - [`TelemetrySnapshot`] — named counters, gauges and log2
//!   [`Histogram`]s over **virtual** time, stored in `BTreeMap`s so
//!   traversal order (and hence every serialized byte) is
//!   machine-independent.  It is both the live aggregation target and the
//!   frozen form: stable JSON for humans and the flatness gate, the wire
//!   codec plus a CRC-64 seal for `Msg::StatusReply` frames.  Same seed ⇒
//!   byte-identical snapshot.
//! - [`SpanBook`] — per-job lifecycle spans (submitted → dispatched →
//!   first-unit → checkpointed×N → finished → archive-stored → collected →
//!   gc'd) with failover annotations, each gap recorded into its per-edge
//!   histogram the moment the edge is stamped; an export merges those
//!   histograms and never re-walks a job's history.
//!
//! Typed metrics structs (`CoordMetrics`, `DbStats`, `NetStats`, …) name
//! each counter once, in their `rpcv_simnet::counters!` declaration, and
//! export by adding their `counters()` into a snapshot under a dotted
//! prefix ([`TelemetrySnapshot::add_counters`]).  Exports *add*, so a
//! fleet of actors exports straight into one snapshot.  The simnet
//! kernel's profile is folded in by
//! [`TelemetrySnapshot::add_kernel_profile`].

#![warn(missing_docs)]

pub mod hist;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, BUCKETS};
pub use snapshot::TelemetrySnapshot;
pub use span::{SpanBook, SpanEdge};
