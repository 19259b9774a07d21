//! End-to-end chaos harness: wire corruption for real protocol frames and
//! a safety oracle that runs a full grid under a seeded [`FaultPlan`].
//!
//! The simulator's chaos plane ([`rpcv_simnet::chaos`]) decides *when* a
//! frame is corrupted or duplicated; this module decides *what that means
//! for the RPC-V wire format*.  Every frame crosses the modelled wire as
//! a digest-sealed datagram (`body ‖ crc64(body)` — the same
//! [`rpcv_wire::seal_frame`] envelope archives and checkpoints already
//! use).  [`MsgChaos`] re-encodes the victim frame into its sealed form,
//! flips one seeded bit anywhere in it — body or digest tail — and
//! reopens the damaged datagram:
//!
//! * the envelope rejects it (CRC-64 detects *every* single-bit error,
//!   so for this fault model that is always) → the receiver gets the
//!   [`Msg::Corrupt`] poison frame, which every actor counts in its
//!   `bad_frames` metric and drops without touching any other state;
//! * the flip somehow survives both envelope and decoder → the receiver
//!   gets a **garbled but well-formed** message; the `garbled` counter
//!   exists to *prove this never happens* (a garbled frame is a
//!   Byzantine lie — e.g. a forged catalog removal — that no protocol
//!   defense downstream can be expected to absorb).
//!
//! [`ChaosOracle`] then asserts the safety invariants the paper's
//! volatile-node story rests on: every submitted job's result reaches its
//! owning client exactly once, the grid goes quiescent after the plan
//! heals (no ghost re-executions), completion metrics stay monotone
//! modulo accounted at-least-once re-execution, replication deltas drain
//! to empty, and every corruption event is accounted for —
//! `garbled + poisoned == corrupted` exactly, with `garbled == 0`.
//!
//! [`FaultPlan`]: rpcv_simnet::chaos::FaultPlan

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpcv_obs::{Histogram, TelemetrySnapshot};
use rpcv_simnet::chaos::{ChaosProfile, ChaosTargets, FaultCounts, FaultPlan};
use rpcv_simnet::{DetRng, FrameOps, NetStats, SimDuration, SimTime};
use rpcv_wire::{from_bytes, open_frame, seal_frame, to_bytes, Blob};

use crate::config::ProtocolConfig;
use crate::grid::{GridSpec, SimGrid};
use crate::msg::Msg;
use crate::util::CallSpec;

/// Shared read side of [`MsgChaos`]'s corruption accounting.
#[derive(Debug, Clone)]
pub struct ChaosCounters {
    garbled: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

impl ChaosCounters {
    /// Corrupted frames that slipped past the digest envelope *and* the
    /// decoder — a Byzantine forgery.  CRC-64 detects every single-bit
    /// error, so under this fault model the count is provably zero; the
    /// oracle asserts it stays that way.
    pub fn garbled(&self) -> u64 {
        self.garbled.load(Ordering::Relaxed)
    }

    /// Corrupted frames the envelope (or decoder) rejected, delivered as
    /// [`Msg::Corrupt`] poison.
    pub fn poisoned(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// [`FrameOps`] for real protocol frames: corruption flips one seeded bit
/// of the digest-sealed encoding, duplication clones the frame.
#[derive(Debug, Default)]
pub struct MsgChaos {
    garbled: Arc<AtomicU64>,
    poisoned: Arc<AtomicU64>,
}

impl MsgChaos {
    /// The hook plus its shared counters (install the hook with
    /// [`rpcv_simnet::World::set_frame_ops`], keep the counters).
    pub fn new() -> (MsgChaos, ChaosCounters) {
        let ops = MsgChaos::default();
        let counters = ChaosCounters {
            garbled: Arc::clone(&ops.garbled),
            poisoned: Arc::clone(&ops.poisoned),
        };
        (ops, counters)
    }
}

impl FrameOps<Msg> for MsgChaos {
    fn duplicate(&mut self, msg: &Msg) -> Option<Msg> {
        // Poison is never duplicated: each poisoned delivery then maps to
        // exactly one corruption event, which keeps the `bad_frames`
        // accounting exact.
        if matches!(msg, Msg::Corrupt { .. }) {
            return None;
        }
        Some(msg.clone())
    }

    fn corrupt(&mut self, msg: Msg, rng: &mut DetRng) -> Msg {
        // The modelled wire carries digest-sealed datagrams
        // (`body ‖ crc64(body)`), so the flip lands on the sealed bytes —
        // body or digest tail alike — and the receiver's envelope check
        // runs before the decoder ever sees the payload.  A lone
        // bit-flip that decodes to a *different* well-formed frame would
        // be a forgery the protocol cannot defend against (it once
        // manufactured a catalog removal and wedged a client); CRC-64
        // closes that door for every single-bit error.
        let mut bytes = seal_frame(to_bytes(&msg));
        let bit = rng.below(bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        match open_frame(&bytes).and_then(from_bytes::<Msg>) {
            Ok(m) => {
                self.garbled.fetch_add(1, Ordering::Relaxed);
                m
            }
            Err(_) => {
                self.poisoned.fetch_add(1, Ordering::Relaxed);
                Msg::Corrupt { len: bytes.len() as u64 }
            }
        }
    }
}

/// One oracle run: a confined grid, a workload, and a seeded fault plan.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: drives the grid, the fault plan and every chaos draw.
    pub seed: u64,
    /// Fault intensity in `[0, 1]` (see [`ChaosProfile::from_intensity`]).
    pub intensity: f64,
    /// Coordinator count *per shard* (≥ 2 so partitions can split the
    /// group).
    pub n_coordinators: usize,
    /// Coordinator shards (1 = the flat plane; the chaos invariants are
    /// shard-count independent).
    pub shards: usize,
    /// Server count.
    pub n_servers: usize,
    /// Jobs submitted in total, split round-robin across the clients.
    pub jobs: usize,
    /// Client count (> 1 exercises cross-shard traffic: each client hashes
    /// to one shard, so a sharded oracle needs several).
    pub clients: usize,
    /// Per-job execution cost in seconds.
    pub exec_cost: f64,
    /// Fault window start.
    pub fault_from: SimTime,
    /// Fault window end: every episode is healed by this instant.
    pub fault_until: SimTime,
    /// Give-up horizon for the whole run.
    pub horizon: SimTime,
}

impl ChaosConfig {
    /// The standard oracle cell: 3 coordinators, 8 servers, 24 jobs of
    /// 12 s each, faults over `[2 s, 60 s]`, an hour of virtual time to
    /// finish.  The fault window is sized to the workload's fault-free
    /// makespan (~40 s), so completion happens *under* active chaos —
    /// not after it — and the post-heal recovery makespan is a real
    /// measurement, not zero.
    pub fn new(seed: u64, intensity: f64) -> Self {
        ChaosConfig {
            seed,
            intensity,
            n_coordinators: 3,
            shards: 1,
            n_servers: 8,
            jobs: 24,
            clients: 1,
            exec_cost: 12.0,
            fault_from: SimTime::from_secs(2),
            fault_until: SimTime::from_secs(60),
            horizon: SimTime::from_secs(3600),
        }
    }

    /// Builder: a sharded oracle cell — `shards` coordinator groups and
    /// enough clients that several shards see traffic (both floor at 1).
    pub fn with_shards(mut self, shards: usize, clients: usize) -> Self {
        self.shards = shards.max(1);
        self.clients = clients.max(1);
        self
    }
}

/// What one oracle run observed.  `violations` is empty iff every safety
/// invariant held.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the run replays from.
    pub seed: u64,
    /// Intensity the profile was scaled by.
    pub intensity: f64,
    /// Invariant violations, human-readable; empty means survival.
    pub violations: Vec<String>,
    /// Faults the plan scheduled, by family.
    pub counts: FaultCounts,
    /// Final network statistics.
    pub stats: NetStats,
    /// Jobs planned.
    pub jobs: u64,
    /// Results the client ended with.
    pub results: u64,
    /// Corrupted frames that stayed decodable.
    pub garbled: u64,
    /// Corrupted frames that became poison.
    pub poisoned: u64,
    /// Poison frames counted by actors (`Σ bad_frames`).
    pub bad_frames: u64,
    /// When the plan finished, if it did.
    pub done_at: Option<SimTime>,
    /// Virtual time from full heal to completion (zero when the workload
    /// outran the chaos).
    pub recovery_makespan: SimDuration,
    /// Grid-wide telemetry at the end of the run (every live coordinator's
    /// snapshot aggregated with server/client/net counters and span
    /// histograms).
    pub telemetry: TelemetrySnapshot,
    /// Suspicion → re-dispatch gaps of every resolved failover annotation
    /// across the run (the aggregated `span.failover_recovery_gap` series)
    /// — the per-plan post-heal recovery-gap histogram the chaos bench
    /// embeds.
    pub recovery_gaps: Histogram,
}

impl ChaosReport {
    /// True iff every safety invariant held.
    pub fn survived(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs a grid under a seeded fault plan and checks the post-heal safety
/// invariants.
pub struct ChaosOracle {
    cfg: ChaosConfig,
}

impl ChaosOracle {
    /// An oracle for one configuration.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosOracle { cfg }
    }

    /// Shorthand: the standard cell at `(seed, intensity)`.
    pub fn seeded(seed: u64, intensity: f64) -> Self {
        ChaosOracle::new(ChaosConfig::new(seed, intensity))
    }

    /// Builds the grid, applies the plan, runs to completion plus a
    /// settle window, and audits every invariant.
    pub fn run(&self) -> ChaosReport {
        let cfg = &self.cfg;
        // The workload splits round-robin across the clients; each client
        // submits its own contiguous seq space.  One client is exactly the
        // historical single-plan oracle.
        let n_clients = cfg.clients.max(1);
        let mut plans: Vec<Vec<CallSpec>> = vec![Vec::new(); n_clients];
        for i in 0..cfg.jobs {
            plans[i % n_clients].push(CallSpec::new(
                "chaos",
                Blob::synthetic(2048, i as u64),
                cfg.exec_cost,
                256,
            ));
        }
        // Tight failure detection: the fault window is minutes, so the
        // confined defaults (30 s suspicion) would spend the whole run
        // waiting instead of failing over.
        let proto = ProtocolConfig::confined()
            .with_heartbeat(SimDuration::from_secs(1))
            .with_suspicion(SimDuration::from_secs(5))
            .with_replication_period(SimDuration::from_secs(2));
        let spec = GridSpec::confined(cfg.n_coordinators, cfg.n_servers)
            .with_seed(cfg.seed)
            .with_cfg(proto)
            .with_shards(cfg.shards)
            .with_client_plans(plans.clone());
        let base_link = spec.link;
        let mut g = SimGrid::build(spec);
        let (ops, counters) = MsgChaos::new();
        g.world.set_frame_ops(ops);

        let targets = ChaosTargets {
            coordinators: g.coords.iter().map(|&(_, n)| n).collect(),
            servers: g.servers.iter().map(|&(_, n)| n).collect(),
            clients: g.clients.iter().map(|&(_, n)| n).collect(),
        };
        let profile = ChaosProfile::from_intensity(cfg.intensity);
        let plan = FaultPlan::generate(
            cfg.seed,
            profile,
            &targets,
            base_link,
            cfg.fault_from,
            cfg.fault_until,
        );
        plan.apply(&mut g.world);

        let mut violations = Vec::new();
        let done = g.run_until_done(cfg.horizon);
        if done.is_none() {
            violations.push(format!(
                "plan did not complete within {}s of virtual time",
                cfg.horizon.as_secs_f64()
            ));
        }
        // Settle window: lets a client that crashed inside the disk
        // write-back window re-pull its last results, collected marks
        // propagate, and replication deltas drain.  A fast grid can
        // finish before the tail of the fault window, so the settle is
        // anchored at whichever comes later — completion or the plan's
        // own heal horizon (post-heal invariants only hold post-heal).
        let settle = SimDuration::from_secs(120);
        let healed = plan.heal_by().max(g.world.now());
        g.world.run_until(healed + settle);

        // Exactly-once delivery: every owning client holds exactly its own
        // planned seqs, each exactly once (`results_received` is keyed by
        // seq, so a duplicate delivery could only ever overwrite — the
        // dedup guard in `ingest_results` is what this audits end to end).
        // On a sharded plane this is also the cross-shard leak check: a
        // result delivered to the wrong shard's client would surface as a
        // count or seq mismatch on both sides.
        let mut results = 0;
        for (i, plan) in plans.iter().enumerate() {
            match g.client_at(i) {
                Some(c) => {
                    let held = c.results_count() as u64;
                    results += held;
                    if held != plan.len() as u64 {
                        violations.push(format!(
                            "client {i} holds {held} results, planned {}",
                            plan.len()
                        ));
                    }
                    let seqs: Vec<u64> = c.metrics.results_received.keys().copied().collect();
                    let want: Vec<u64> = (1..=plan.len() as u64).collect();
                    if seqs != want {
                        violations
                            .push(format!("client {i} result seqs {seqs:?} != 1..={}", plan.len()));
                    }
                }
                None => violations.push(format!("client {i} is down after the plan healed")),
            }
        }

        // Post-heal quiescence: with everything delivered and collected,
        // another settle window must execute nothing new anywhere —
        // collected jobs are never re-executed.
        let executed_before = self.total_executed(&g, &mut violations);
        g.world.run_for(settle);
        let executed_after = self.total_executed(&g, &mut violations);
        if executed_after != executed_before {
            violations.push(format!(
                "grid not quiescent after heal: executions {executed_before} -> {executed_after}"
            ));
        }

        // Completion metrics stay monotone through crash-restart churn.
        for (i, _) in g.coords.iter().enumerate() {
            let Some(c) = g.coordinator(i) else {
                violations.push(format!("coordinator {i} is down after the plan healed"));
                continue;
            };
            let tl = &c.metrics.completion_timeline;
            if tl.windows(2).any(|w| w[1].0 < w[0].0) {
                violations.push(format!("coordinator {i} completion timeline went back in time"));
            }
            // The finished count may dip — a disk wipe can destroy the
            // only copy of an uncollected result archive, and the
            // coordinator then reverts the job for at-least-once
            // re-execution — but every dip must be accounted for by a
            // counted re-execution.  An unaccounted dip is silent loss.
            let dips: u64 = tl.windows(2).map(|w| w[0].1.saturating_sub(w[1].1)).sum();
            if dips > c.metrics.reexecutions {
                violations.push(format!(
                    "coordinator {i} completion timeline lost {dips} jobs but only {} \
                     re-executions account for it",
                    c.metrics.reexecutions
                ));
            }
            // Replication deltas are O(changed): once the grid drained,
            // the latest acknowledged round carries zero records.
            if let Some(last) = c.metrics.repl_rounds.iter().rev().find(|r| r.acked_at.is_some()) {
                if last.records != 0 {
                    violations.push(format!(
                        "coordinator {i} still replicates {} records after quiescence",
                        last.records
                    ));
                }
            }
        }

        // Corruption accounting: every corruption event is either garbled
        // or poisoned; every poison an actor saw was counted.  (Poison
        // sent to a node that died before delivery lands in
        // `dropped_down`; wipes may discard a victim's counter with its
        // disk — hence ≤, with exact equality pinned by the crash-free
        // fuzz tests.)
        let stats = *g.world.stats();
        let garbled = counters.garbled();
        let poisoned = counters.poisoned();
        if garbled + poisoned != stats.corrupted {
            violations.push(format!(
                "corruption accounting leak: {garbled} garbled + {poisoned} poisoned != {} corrupted",
                stats.corrupted
            ));
        }
        // Every frame is digest-sealed and CRC-64 detects all single-bit
        // errors, so a garbled frame would mean the envelope let a
        // forgery through.
        if garbled > 0 {
            violations.push(format!("{garbled} corrupted frames slipped past the digest envelope"));
        }
        let bad_frames = self.total_bad_frames(&g);
        if bad_frames > poisoned {
            violations.push(format!(
                "actors counted {bad_frames} bad frames but only {poisoned} were poisoned"
            ));
        }

        let recovery_makespan = match done {
            Some(d) if d > plan.heal_by() => d.since(plan.heal_by()),
            _ => SimDuration::ZERO,
        };
        let telemetry = g.telemetry();
        let recovery_gaps =
            telemetry.hist("span.failover_recovery_gap").cloned().unwrap_or_default();
        ChaosReport {
            seed: cfg.seed,
            intensity: cfg.intensity,
            violations,
            counts: plan.counts(),
            stats,
            jobs: cfg.jobs as u64,
            results,
            garbled,
            poisoned,
            bad_frames,
            done_at: done,
            recovery_makespan,
            telemetry,
            recovery_gaps,
        }
    }

    fn total_executed(&self, g: &SimGrid, violations: &mut Vec<String>) -> u64 {
        let mut total = 0;
        for (i, _) in g.servers.iter().enumerate() {
            match g.server(i) {
                Some(s) => total += s.metrics.executed,
                None => violations.push(format!("server {i} is down after the plan healed")),
            }
        }
        total
    }

    fn total_bad_frames(&self, g: &SimGrid) -> u64 {
        let mut total = 0;
        for (i, _) in g.clients.iter().enumerate() {
            if let Some(c) = g.client_at(i) {
                total += c.metrics.bad_frames;
            }
        }
        for (i, _) in g.coords.iter().enumerate() {
            if let Some(c) = g.coordinator(i) {
                total += c.metrics.bad_frames;
            }
        }
        for (i, _) in g.servers.iter().enumerate() {
            if let Some(s) = g.server(i) {
                total += s.metrics.bad_frames;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpcv_xw::{ClientKey, JobKey, TaskId};

    #[test]
    fn corrupt_always_produces_a_frame() {
        let (mut ops, counters) = MsgChaos::new();
        let mut rng = DetRng::new(7);
        for i in 0..200u64 {
            let msg =
                Msg::TaskDoneAck { task: TaskId(i), job: JobKey::new(ClientKey::new(1, 2), i) };
            let out = ops.corrupt(msg, &mut rng);
            // Whatever came out is either poison or a decodable frame.
            let bytes = to_bytes(&out);
            assert!(from_bytes::<Msg>(&bytes).is_ok());
        }
        assert_eq!(counters.garbled() + counters.poisoned(), 200);
        // CRC-64 detects every single-bit error, so the sealed envelope
        // rejects every mutant: corruption is always poison, never a
        // garbled-but-decodable forgery.
        assert_eq!(counters.poisoned(), 200);
        assert_eq!(counters.garbled(), 0);
    }

    #[test]
    fn poison_is_never_duplicated() {
        let (mut ops, _) = MsgChaos::new();
        assert!(ops.duplicate(&Msg::Corrupt { len: 9 }).is_none());
        assert!(ops.duplicate(&Msg::NoWork).is_some());
    }

    #[test]
    fn oracle_survives_a_seeded_plan() {
        let report = ChaosOracle::seeded(0xD15EA5E, 0.5).run();
        assert!(report.survived(), "violations: {:?}", report.violations);
        assert_eq!(report.results, report.jobs);
        assert!(report.counts.crashes >= 1);
        assert!(report.counts.wipes >= 1);
        assert!(report.counts.partitions >= 1);
        assert!(report.counts.bursts >= 1);
        assert!(report.stats.corrupted > 0, "bursts must actually corrupt frames");
        assert!(report.stats.duplicated > 0, "bursts must actually duplicate frames");
    }

    #[test]
    fn oracle_is_deterministic() {
        let a = ChaosOracle::seeded(42, 0.7).run();
        let b = ChaosOracle::seeded(42, 0.7).run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.done_at, b.done_at);
        assert_eq!((a.garbled, a.poisoned, a.bad_frames), (b.garbled, b.poisoned, b.bad_frames));
        // The full telemetry plane is part of the determinism contract:
        // byte-identical snapshot JSON across same-seed runs.
        assert_eq!(a.telemetry.to_json(), b.telemetry.to_json());
        assert_eq!(a.recovery_gaps, b.recovery_gaps);
    }
}
