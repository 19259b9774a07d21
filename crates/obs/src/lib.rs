//! # rpcv-obs — the deterministic telemetry plane
//!
//! Aggregate numbers (events/sec, bytes/round, wasted units) say *that* the
//! grid is healthy; they cannot say *where* a job spent its time or what the
//! failover detect→recover gap looked like under a chaos plan.  This crate
//! is the answer, built with the same determinism discipline as the rest of
//! the workspace:
//!
//! - [`Registry`] — named counters, gauges and log2 [`Histogram`]s over
//!   **virtual** time, stored in `BTreeMap`s so traversal order (and hence
//!   every serialized byte) is machine-independent.
//! - [`TelemetrySnapshot`] — a frozen registry: stable JSON for humans and
//!   the flatness gate, the wire codec plus a CRC-64 seal for
//!   `Msg::StatusReply` frames.  Same seed ⇒ byte-identical snapshot.
//! - [`SpanBook`] — per-job lifecycle spans (submitted → dispatched →
//!   first-unit → checkpointed×N → finished → archive-stored → collected →
//!   gc'd) with failover annotations, each gap recorded into its per-edge
//!   histogram the moment the edge is stamped; a snapshot merges those
//!   histograms and never re-walks a job's history.
//! - [`ExportTelemetry`] — the bridge trait: existing typed metrics structs
//!   (`CoordMetrics`, `DbStats`, `NetStats`, …) export into a registry under
//!   a dotted prefix without giving up their field accessors.
//!
//! The simnet kernel's profiling hooks live in `rpcv-simnet` itself (the
//! kernel depends on nothing), but their output is folded into the same
//! registry by the actors that own a [`Registry`].

#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use hist::{Histogram, BUCKETS};
pub use registry::{ExportTelemetry, Registry};
pub use snapshot::TelemetrySnapshot;
pub use span::{SpanBook, SpanEdge};
