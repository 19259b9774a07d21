//! Per-job lifecycle spans, recorded as streaming series.
//!
//! A job's life is a timeline of edges — submitted → dispatched → first-unit
//! → checkpointed×N → finished → archive-stored → collected → gc'd — and the
//! coordinator stamps each edge with the virtual instant it was observed.
//! Failovers and re-executions annotate the span rather than restarting it,
//! which is what makes the detect→recover gap *measurable* instead of
//! inferred from makespans.
//!
//! The `span.*` series are the only record: each gap is folded into its
//! histogram the moment its later edge (or annotation) is stamped, so a
//! [`crate::TelemetrySnapshot`] merges a handful of histograms instead of
//! re-walking every job's history.  Per job the book keeps only what the
//! next stamp needs: which edges were stamped, the latest mark, the
//! submit/collect instants and the suspicion instants of unresolved
//! failovers.

use std::collections::BTreeMap;

use rpcv_simnet::{SimDuration, SimTime};
use rpcv_xw::JobKey;

use crate::hist::Histogram;
use crate::snapshot::TelemetrySnapshot;

/// A lifecycle edge in a job's span timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanEdge {
    /// Job registered at the coordinator.
    Submitted,
    /// First task instance handed to a server.
    Dispatched,
    /// First unit of progress checkpointed or reported.
    FirstUnit,
    /// A checkpoint advanced the resume point (repeatable edge).
    Checkpointed,
    /// A server reported the final result.
    Finished,
    /// The result archive was persisted in the coordinator store.
    ArchiveStored,
    /// The owning client pulled the result.
    Collected,
    /// The archive was garbage-collected after collection.
    Gc,
}

impl SpanEdge {
    /// Stable lowercase name used in histogram keys and JSON.
    pub const fn name(&self) -> &'static str {
        match self {
            SpanEdge::Submitted => "submitted",
            SpanEdge::Dispatched => "dispatched",
            SpanEdge::FirstUnit => "first_unit",
            SpanEdge::Checkpointed => "checkpointed",
            SpanEdge::Finished => "finished",
            SpanEdge::ArchiveStored => "archive_stored",
            SpanEdge::Collected => "collected",
            SpanEdge::Gc => "gc",
        }
    }

    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One job's streaming state: just enough to record the next gap.
#[derive(Debug, Clone, Copy, Default)]
struct JobState {
    /// [`SpanEdge::bit`]s of the edges stamped so far.
    stamped: u8,
    /// Latest mark: the left end of the next edge-pair gap.
    last: Option<(SpanEdge, SimTime)>,
    submitted: Option<SimTime>,
    collected: Option<SimTime>,
    /// Failovers noted / resolved; the unresolved ones, in between, are
    /// keyed by ordinal in [`SpanBook::unresolved`].
    failovers: u32,
    recovered: u32,
}

/// The coordinator's book of job spans, keyed by the paper's RPC identity.
#[derive(Debug, Clone, Default)]
pub struct SpanBook {
    jobs: BTreeMap<JobKey, JobState>,
    /// Suspicion instants of failovers awaiting a replacement dispatch,
    /// keyed by `(job, failover ordinal)`.
    unresolved: BTreeMap<(JobKey, u32), SimTime>,
    /// Consecutive-mark gaps, named `span.{a}_to_{b}` at export.
    edge_gaps: BTreeMap<(SpanEdge, SpanEdge), Histogram>,
    submit_to_collect: Histogram,
    detect_gaps: Histogram,
    recovery_gaps: Histogram,
    failovers: u64,
    checkpoints: u64,
}

impl SpanBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps `edge` on `key`'s span at `now`, recording the gap from the
    /// previous mark (and submit→collect once both ends are known).  Every
    /// edge except [`SpanEdge::Checkpointed`] is stamped at most once
    /// (re-executions do not restart the timeline — they annotate it via
    /// [`SpanBook::note_failover`]).
    pub fn mark(&mut self, key: JobKey, edge: SpanEdge, now: SimTime) {
        let job = self.jobs.entry(key).or_default();
        if edge == SpanEdge::Checkpointed {
            self.checkpoints += 1;
        } else if job.stamped & edge.bit() != 0 {
            return;
        }
        job.stamped |= edge.bit();
        if let Some((prev, at)) = job.last {
            self.edge_gaps.entry((prev, edge)).or_default().record_gap(now.since(at));
        }
        job.last = Some((edge, now));
        match edge {
            SpanEdge::Submitted => job.submitted = Some(now),
            SpanEdge::Collected => job.collected = Some(now),
            _ => return,
        }
        if let (Some(sub), Some(col)) = (job.submitted, job.collected) {
            self.submit_to_collect.record_gap(col.since(sub));
        }
    }

    /// Annotates `key`'s span with a failover: the executing server was
    /// suspected at `suspected_at` after `detect_gap` of silence, and a
    /// replacement instance was queued.
    pub fn note_failover(&mut self, key: JobKey, suspected_at: SimTime, detect_gap: SimDuration) {
        let job = self.jobs.entry(key).or_default();
        self.unresolved.insert((key, job.failovers), suspected_at);
        job.failovers += 1;
        self.failovers += 1;
        self.detect_gaps.record_gap(detect_gap);
    }

    /// Resolves the earliest unresolved failover of `key` at `now` (the
    /// replacement instance was handed to a server), recording the
    /// suspicion → re-dispatch gap.
    pub fn note_recovered(&mut self, key: JobKey, now: SimTime) {
        let Some(job) = self.jobs.get_mut(&key) else { return };
        if let Some(suspected_at) = self.unresolved.remove(&(key, job.recovered)) {
            job.recovered += 1;
            self.recovery_gaps.record_gap(now.since(suspected_at));
        }
    }

    /// Exports `{prefix}.jobs`; once any span exists, the
    /// `failovers` / `reexecutions` / `checkpoints` totals; and every
    /// non-empty gap histogram: `{prefix}.{a}_to_{b}`,
    /// `submit_to_collect`, `failover_detect_gap`, `failover_recovery_gap`.
    pub fn export(&self, prefix: &str, snap: &mut TelemetrySnapshot) {
        snap.add_counter(&format!("{prefix}.jobs"), self.jobs.len() as u64);
        if !self.jobs.is_empty() {
            snap.add_counters(
                prefix,
                [
                    ("failovers", self.failovers),
                    // Every failover queues exactly one replacement instance.
                    ("reexecutions", self.failovers),
                    ("checkpoints", self.checkpoints),
                ],
            );
        }
        for ((a, b), h) in &self.edge_gaps {
            snap.merge_hist(&format!("{prefix}.{}_to_{}", a.name(), b.name()), h);
        }
        for (field, h) in [
            ("submit_to_collect", &self.submit_to_collect),
            ("failover_detect_gap", &self.detect_gaps),
            ("failover_recovery_gap", &self.recovery_gaps),
        ] {
            if !h.is_empty() {
                snap.merge_hist(&format!("{prefix}.{field}"), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_xw::ClientKey;

    fn key(seq: u64) -> JobKey {
        JobKey::new(ClientKey::default(), seq)
    }

    fn snapshot(book: &SpanBook) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        book.export("span", &mut snap);
        snap
    }

    /// `(count, sum)` of histogram `name`, `(0, 0)` when absent.
    fn hist(snap: &TelemetrySnapshot, name: &str) -> (u64, SimDuration) {
        snap.hist(name).map_or((0, SimDuration::ZERO), |h| (h.count(), SimDuration(h.sum_nanos())))
    }

    #[test]
    fn empty_book_exports_only_the_job_count() {
        let snap = snapshot(&SpanBook::new());
        assert_eq!(snap.counters, [("span.jobs".to_owned(), 0)].into());
        assert!(snap.hists.is_empty());
    }

    #[test]
    fn edges_stamp_once_except_checkpointed() {
        let mut book = SpanBook::new();
        let k = key(1);
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(1));
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(9));
        book.mark(k, SpanEdge::Checkpointed, SimTime::from_millis(2));
        book.mark(k, SpanEdge::Checkpointed, SimTime::from_millis(5));
        let snap = snapshot(&book);
        assert_eq!(snap.counter("span.jobs"), 1);
        assert_eq!(snap.counter("span.checkpoints"), 2);
        assert_eq!(snap.counter("span.failovers"), 0);
        // Three marks ⇒ two gaps; the repeated Submitted left no trace.
        assert_eq!(hist(&snap, "span.submitted_to_checkpointed"), (1, SimDuration::from_millis(1)));
        assert_eq!(
            hist(&snap, "span.checkpointed_to_checkpointed"),
            (1, SimDuration::from_millis(3))
        );
        assert_eq!(snap.hists.len(), 2);
    }

    #[test]
    fn failover_annotations_resolve_in_order() {
        let mut book = SpanBook::new();
        let k = key(7);
        book.note_failover(k, SimTime::from_secs(10), SimDuration::from_secs(5));
        book.note_failover(k, SimTime::from_secs(40), SimDuration::from_secs(6));
        book.note_recovered(k, SimTime::from_secs(12));
        book.note_recovered(key(8), SimTime::from_secs(12));
        let snap = snapshot(&book);
        assert_eq!(snap.counter("span.jobs"), 1, "recovering an unknown job opens no span");
        assert_eq!(snap.counter("span.failovers"), 2);
        assert_eq!(snap.counter("span.reexecutions"), 2);
        assert_eq!(hist(&snap, "span.failover_detect_gap"), (2, SimDuration::from_secs(11)));
        assert_eq!(hist(&snap, "span.failover_recovery_gap"), (1, SimDuration::from_secs(2)));

        // The second failover resolves against its own suspicion instant;
        // a third recovery has nothing left to resolve.
        book.note_recovered(k, SimTime::from_secs(45));
        book.note_recovered(k, SimTime::from_secs(50));
        let snap = snapshot(&book);
        assert_eq!(hist(&snap, "span.failover_recovery_gap"), (2, SimDuration::from_secs(7)));
    }

    #[test]
    fn marks_produce_edge_histograms() {
        let mut book = SpanBook::new();
        let k = key(3);
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(0));
        book.mark(k, SpanEdge::Dispatched, SimTime::from_millis(10));
        book.mark(k, SpanEdge::Finished, SimTime::from_millis(250));
        book.mark(k, SpanEdge::Collected, SimTime::from_millis(400));
        let snap = snapshot(&book);
        assert_eq!(snap.counter("span.jobs"), 1);
        assert_eq!(hist(&snap, "span.submit_to_collect"), (1, SimDuration::from_millis(400)));
        assert_eq!(hist(&snap, "span.submitted_to_dispatched"), (1, SimDuration::from_millis(10)));
        assert_eq!(hist(&snap, "span.dispatched_to_finished"), (1, SimDuration::from_millis(240)));
        assert_eq!(hist(&snap, "span.finished_to_collected"), (1, SimDuration::from_millis(150)));
    }

    #[test]
    fn submit_to_collect_records_on_whichever_end_comes_second() {
        let mut book = SpanBook::new();
        let k = key(4);
        book.mark(k, SpanEdge::Collected, SimTime::from_millis(30));
        assert!(snapshot(&book).hist("span.submit_to_collect").is_none());
        book.mark(k, SpanEdge::Submitted, SimTime::from_millis(50));
        // A collect stamped before the submit saturates to a zero gap.
        assert_eq!(hist(&snapshot(&book), "span.submit_to_collect"), (1, SimDuration::ZERO));
        book.mark(k, SpanEdge::Collected, SimTime::from_millis(90));
        assert_eq!(snapshot(&book).hist("span.submit_to_collect").unwrap().count(), 1);
    }
}
