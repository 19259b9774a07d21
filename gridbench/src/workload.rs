//! The three workloads and one simulation of each: set-up, the closed-loop
//! drive to completion, and the post-run correctness audit.
//!
//! All load comes from this one process.  Each client is a closed loop:
//! `ClientParams::plan` submits its next call once the previous submission
//! interaction completed, and results are collected asynchronously, so the
//! client count is the concurrency.  Why each workload exists is recorded
//! in the `README.md` beside this file.

use std::time::Instant;

use rpcv_ckpt::{AdaptiveCheckpoint, CheckpointPolicy};
use rpcv_core::chaos::ChaosCounters;
use rpcv_core::util::CallSpec;
use rpcv_core::{
    ClientActor, ClientParams, CoordParams, CoordinatorActor, Directory, GridSpec, Msg, MsgChaos,
    ProtocolConfig, ServerActor, ServerParams, SimGrid,
};
use rpcv_simnet::chaos::{ChaosProfile, ChaosTargets, FaultPlan};
use rpcv_simnet::{NodeId, SimDuration, SimTime, World};
use rpcv_wire::Blob;
use rpcv_workload::SyntheticBench;
use rpcv_xw::JobKey;

use crate::layers::{self, Role, Tally, Timed};

/// A workload's fixed shape.  Only the seed varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub servers: usize,
    pub jobs: usize,
    pub clients: usize,
    pub shards: usize,
    pub coords_per_shard: usize,
    pub exec_secs: f64,
    pub work_units: u32,
    pub result_bytes: u64,
    /// Seeded chaos (fault plan + sealed-frame corruption) instead of the
    /// fault-free scale-bench grid with its periodic archive GC.
    pub churn: bool,
    /// An observer pulls every client's coordinator telemetry
    /// (`Msg::StatusRequest`) every chunk, as `GridClient::pull_status`
    /// does on a live grid.
    pub observer: bool,
    /// Simulations per pass, each on its own seed derived from `--seed`.
    pub sims: usize,
    /// A seed kept out of every tuning run, for confirming later claims.
    pub held_out_seed: u64,
}

impl Shape {
    /// Compute-bound ideal makespan: jobs × exec ÷ servers.
    pub fn ideal_secs(&self) -> f64 {
        self.jobs as f64 * self.exec_secs / self.servers as f64
    }

    /// Work units the plan requires (every job exactly once).
    pub fn required_units(&self) -> u64 {
        self.jobs as u64 * self.work_units as u64
    }
}

pub const WORKLOADS: [Shape; 3] = [
    // BENCH_scale's 200×30k×4 cell: many short jobs, collection-bound.
    Shape {
        name: "bulk_short",
        servers: 200,
        jobs: 30_000,
        clients: 4,
        shards: 1,
        coords_per_shard: 2,
        exec_secs: 0.05,
        work_units: 1,
        result_bytes: 64,
        churn: false,
        observer: true,
        sims: 3,
        held_out_seed: 0x5EED_B51C,
    },
    // The top of BENCH_scale's shard ladder: the same jobs and servers
    // spread over 192 clients and 4 coordinator shards.
    Shape {
        name: "fanin_sharded",
        servers: 200,
        jobs: 30_000,
        clients: 192,
        shards: 4,
        coords_per_shard: 2,
        exec_secs: 0.05,
        work_units: 1,
        result_bytes: 64,
        churn: false,
        observer: false,
        sims: 6,
        held_out_seed: 0x5EED_FA41,
    },
    // The chaos-oracle grid scaled up: detection, failover, replication
    // catch-up, re-execution, checkpoints and the seal/CRC path.
    Shape {
        name: "volatile_churn",
        servers: 32,
        jobs: 750,
        clients: 4,
        shards: 1,
        coords_per_shard: 3,
        exec_secs: 1.0,
        work_units: 4,
        result_bytes: 256,
        churn: true,
        observer: false,
        sims: 96,
        held_out_seed: 0x5EED_C4A0,
    },
];

pub fn shape(name: &str) -> Option<Shape> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The seed of simulation `i` of a run on `seed` (splitmix64 finalizer).
pub fn sim_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The scale bench's virtual-time chunk: completion is checked, GC run and
/// status pulled at this cadence.
const CHUNK: SimDuration = SimDuration(10_000_000_000);
/// Paper §4.2's user-triggered archive GC, as the scale bench plays it.
const GC_EVERY: SimDuration = SimDuration(50_000_000_000);
/// The chaos oracle's fault window and settle window.
const FAULT_FROM: SimTime = SimTime(2_000_000_000);
const FAULT_UNTIL: SimTime = SimTime(60_000_000_000);
const SETTLE: SimDuration = SimDuration(120_000_000_000);
/// The chaos oracle's give-up horizon: jobs not collected by then count
/// as failed.
const HORIZON: SimTime = SimTime(3600 * 1_000_000_000);

/// A built, not yet run, simulation.
pub struct Sim {
    shape: Shape,
    grid: SimGrid,
    plans: Vec<Vec<CallSpec>>,
    chaos: Option<(FaultPlan, ChaosCounters)>,
}

/// Builds one simulation: the plans, the fault plan and the grid.  With
/// `traced`, every node is re-installed behind a [`Timed`] wrapper.
pub fn setup(shape: Shape, seed: u64, traced: bool) -> Sim {
    let (spec, plans) = if shape.churn { churn_spec(shape, seed) } else { scale_spec(shape, seed) };
    let base_link = spec.link;
    let mut grid = SimGrid::build(spec.clone());
    if traced {
        reinstall_timed(&mut grid, &spec, &plans);
    }
    let chaos = shape.churn.then(|| {
        let (ops, counters) = MsgChaos::new();
        grid.world.set_frame_ops(ops);
        let targets = ChaosTargets {
            coordinators: grid.coords.iter().map(|&(_, n)| n).collect(),
            servers: grid.servers.iter().map(|&(_, n)| n).collect(),
            clients: grid.clients.iter().map(|&(_, n)| n).collect(),
        };
        // Intensity 1, with the storm count scaled from the oracle's
        // 8-server grid to this one.
        let mut profile = ChaosProfile::from_intensity(1.0);
        profile.storms = (profile.storms as usize * shape.servers).div_ceil(8) as u32;
        let plan = FaultPlan::generate(seed, profile, &targets, base_link, FAULT_FROM, FAULT_UNTIL);
        plan.apply(&mut grid.world);
        (plan, counters)
    });
    Sim { shape, grid, plans, chaos }
}

fn scale_spec(shape: Shape, seed: u64) -> (GridSpec, Vec<Vec<CallSpec>>) {
    let bench = SyntheticBench {
        calls: shape.jobs,
        param_bytes: 256,
        exec_secs: shape.exec_secs,
        result_bytes: shape.result_bytes,
        replication: 1,
        work_units: shape.work_units,
        seed,
    };
    let plans = bench.split_across(shape.clients);
    let mut spec = GridSpec::confined(shape.coords_per_shard, shape.servers)
        .with_shards(shape.shards)
        .with_client_plans(plans.clone())
        .with_seed(seed);
    spec.coord_host = spec.coord_host.with_db_per_op(SimDuration::from_micros(100));
    (spec, plans)
}

fn churn_spec(shape: Shape, seed: u64) -> (GridSpec, Vec<Vec<CallSpec>>) {
    let mut plans: Vec<Vec<CallSpec>> = vec![Vec::new(); shape.clients];
    for i in 0..shape.jobs {
        plans[i % shape.clients].push(
            CallSpec::new(
                "chaos",
                Blob::synthetic(2048, seed.wrapping_add(i as u64)),
                shape.exec_secs,
                shape.result_bytes,
            )
            .with_work_units(shape.work_units),
        );
    }
    // The chaos oracle's timing on its confined hosts (3 ms per DB op).
    let cfg = ProtocolConfig::confined()
        .with_heartbeat(SimDuration::from_secs(1))
        .with_suspicion(SimDuration::from_secs(5))
        .with_replication_period(SimDuration::from_secs(2))
        .with_checkpoint_policy(CheckpointPolicy::Adaptive(AdaptiveCheckpoint::default_grid()));
    let spec = GridSpec::confined(shape.coords_per_shard, shape.servers)
        .with_seed(seed)
        .with_cfg(cfg)
        .with_shards(shape.shards)
        .with_client_plans(plans.clone());
    (spec, plans)
}

/// Replaces every actor `SimGrid::build` installed with the same public
/// factory behind a [`Timed`] wrapper.  The only events this adds are the
/// replaced actors' stale `Start` events, one per node.
fn reinstall_timed(grid: &mut SimGrid, spec: &GridSpec, plans: &[Vec<CallSpec>]) {
    let groups: Vec<Vec<_>> =
        grid.coords.chunks(spec.n_coordinators).map(|group| group.to_vec()).collect();
    let directory = Directory::sharded(groups);
    for &(me, node) in &grid.coords {
        let params = CoordParams { me, cfg: spec.cfg.clone(), directory: directory.clone() };
        layers::install(
            &mut grid.world,
            node,
            Role::Coordinator,
            CoordinatorActor::factory(params),
        );
    }
    for &(id, node) in &grid.servers {
        let params = ServerParams {
            id,
            cfg: spec.cfg.clone(),
            directory: directory.clone(),
            registry: spec.registry.clone(),
            limits: spec.limits,
        };
        layers::install(&mut grid.world, node, Role::Server, ServerActor::factory(params));
    }
    for (i, &(key, node)) in grid.clients.iter().enumerate() {
        let params = ClientParams {
            key,
            cfg: spec.cfg.clone(),
            directory: directory.clone(),
            plan: plans[i].clone(),
        };
        layers::install(&mut grid.world, node, Role::Client, ClientActor::factory(params));
    }
}

/// Reads an actor whether or not it sits behind a [`Timed`] wrapper.
fn actor<T: 'static>(world: &World<Msg>, node: NodeId) -> Option<&T> {
    world.actor::<T>(node).or_else(|| world.actor::<Timed>(node)?.inner::<T>())
}

fn actor_mut<T: 'static>(world: &mut World<Msg>, node: NodeId) -> Option<&mut T> {
    if world.actor::<T>(node).is_some() {
        world.actor_mut::<T>(node)
    } else {
        world.actor_mut::<Timed>(node)?.inner_mut::<T>()
    }
}

/// What one simulation measured in virtual time: a deterministic function
/// of the seed, so every pass, traced or not, must reproduce it exactly.
#[derive(Debug, Default, PartialEq)]
pub struct Virtual {
    pub makespan_s: f64,
    /// Submit-requested → result-held latency of every collected job, ns.
    pub latencies: Vec<u64>,
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub jobs_failed: u64,
    pub violations: Vec<String>,
    /// Output-correctness failures (a subset of `violations`).
    pub incorrect: u64,
    pub recovery_s: f64,
    pub units_spent: u64,
    pub repl_lags: Vec<u64>,
    pub repl_unacked_rounds: u64,
    pub server_suspicions: u64,
    pub coordinator_suspicions: u64,
    pub crashes: u64,
    pub reexecutions: u64,
    pub ckpt_uploads: u64,
    pub ckpt_bytes: u64,
    pub resident_rows: u64,
    pub delta_bytes_per_round: f64,
    pub catalog_bytes_per_beat: f64,
    pub bad_frames: u64,
    pub log_replays: u64,
}

/// Everything one simulation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub v: Virtual,
    /// Events up to completion; a traced run adds one per node.
    pub events: u64,
    /// Nodes in the grid (the stale `Start` events a traced run adds).
    pub nodes: u64,
    /// `(job, submit requested, result received)` of every collected job.
    pub requested: Vec<(JobKey, SimTime, SimTime)>,
    // ---- host time
    pub setup_s: f64,
    pub wall_s: f64,
    /// Peak heap bytes the simulation held above what was live before it.
    pub peak_heap_bytes: u64,
    /// Host time spent inside `World::run_for` up to completion.
    pub run_for_s: f64,
    /// Outside-in trace up to completion (empty when untraced).
    pub tally: Tally,
}

impl Sim {
    fn node_count(&self) -> u64 {
        (self.grid.coords.len() + self.grid.servers.len() + self.grid.clients.len()) as u64
    }

    fn client(&self, i: usize) -> Option<&ClientActor> {
        actor::<ClientActor>(&self.grid.world, self.grid.clients[i].1)
    }

    fn coordinator(&self, i: usize) -> Option<&CoordinatorActor> {
        actor::<CoordinatorActor>(&self.grid.world, self.grid.coords[i].1)
    }

    fn server(&self, i: usize) -> Option<&ServerActor> {
        actor::<ServerActor>(&self.grid.world, self.grid.servers[i].1)
    }

    fn coordinators(&self) -> impl Iterator<Item = &CoordinatorActor> {
        (0..self.grid.coords.len()).filter_map(|i| self.coordinator(i))
    }

    fn servers(&self) -> impl Iterator<Item = &ServerActor> {
        (0..self.grid.servers.len()).filter_map(|i| self.server(i))
    }

    fn clients(&self) -> impl Iterator<Item = &ClientActor> {
        (0..self.grid.clients.len()).filter_map(|i| self.client(i))
    }

    /// The last client's `done_at`, once every client finished its plan.
    fn all_done(&self) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for i in 0..self.grid.clients.len() {
            latest = latest.max(self.client(i)?.metrics.done_at?);
        }
        Some(latest)
    }

    fn gc_all(&mut self) {
        for i in 0..self.grid.coords.len() {
            if let Some(c) =
                actor_mut::<CoordinatorActor>(&mut self.grid.world, self.grid.coords[i].1)
            {
                c.gc_now();
            }
        }
    }

    /// Advances one chunk, then plays the fault-free workloads' users: the
    /// periodic archive GC and, while `nonce` is given and the workload
    /// has one, the status observer.  Returns the host nanoseconds spent
    /// inside `World::run_for`.
    fn step(&mut self, next_gc: &mut SimTime, nonce: Option<&mut u64>) -> u64 {
        let t = Instant::now();
        self.grid.world.run_for(CHUNK);
        let run_for = t.elapsed().as_nanos() as u64;
        if self.shape.churn {
            return run_for;
        }
        let now = self.grid.world.now();
        if now >= *next_gc {
            *next_gc = now + GC_EVERY;
            self.gc_all();
        }
        if let Some(nonce) = nonce.filter(|_| self.shape.observer) {
            for &(_, node) in &self.grid.clients {
                *nonce += 1;
                self.grid.world.inject(now, node, Msg::StatusRequest { nonce: *nonce });
            }
        }
        run_for
    }

    /// Runs the workload to completion, then audits it.
    pub fn run(mut self, setup_s: f64) -> Outcome {
        let mut out = Outcome { setup_s, nodes: self.node_count(), ..Outcome::default() };
        let mut next_gc = SimTime::ZERO + GC_EVERY;
        let mut nonce = 0u64;
        let mut run_for = 0u64;
        let started = Instant::now();
        let done = loop {
            if let Some(done) = self.all_done() {
                break Some(done);
            }
            if self.grid.world.now() >= HORIZON {
                break None;
            }
            run_for += self.step(&mut next_gc, Some(&mut nonce));
        };
        out.wall_s = started.elapsed().as_secs_f64();
        out.run_for_s = run_for as f64 / 1e9;
        out.tally = layers::take();
        self.measure_at_completion(done, &mut out);
        self.audit(done, &mut out, &mut next_gc);
        // Drop what the wrappers saw during the audit's settle windows.
        layers::take();
        out
    }

    fn measure_at_completion(&self, done: Option<SimTime>, out: &mut Outcome) {
        let stats = *self.grid.world.stats();
        out.events = self.grid.world.events_processed();
        out.v.msgs_sent = stats.sent;
        out.v.bytes_sent = stats.bytes_sent;
        out.v.makespan_s = done.unwrap_or(self.grid.world.now()).as_secs_f64();
        for c in self.clients() {
            for (&seq, &received) in &c.metrics.results_received {
                if let Some(t) = c.metrics.submissions.get(&seq) {
                    out.v.latencies.push(received.since(t.requested_at).0);
                    let job = JobKey { client: c.key(), seq };
                    out.requested.push((job, t.requested_at, received));
                }
            }
        }
        let (mut rounds, mut repl_bytes, mut beats, mut catalog_bytes) = (0u64, 0u64, 0u64, 0u64);
        for c in self.coordinators() {
            rounds += c.metrics.repl_rounds.len() as u64;
            repl_bytes += c.metrics.repl_rounds.iter().map(|r| r.bytes).sum::<u64>();
            beats += c.metrics.sync_replies;
            catalog_bytes += c.metrics.catalog_bytes;
        }
        out.v.delta_bytes_per_round = repl_bytes as f64 / rounds.max(1) as f64;
        out.v.catalog_bytes_per_beat = catalog_bytes as f64 / beats.max(1) as f64;
    }

    /// The chaos oracle's post-heal audit, computed from public state, then
    /// the counters the per-layer metrics read.  Every failed check is kept
    /// in `out.v.violations`; those that concern the delivered outputs are
    /// also counted in `out.v.incorrect`.  The status observer is off here:
    /// it belongs to the measured workload, not to the audit.
    fn audit(&mut self, done: Option<SimTime>, out: &mut Outcome, next_gc: &mut SimTime) {
        let heal_by = self.chaos.as_ref().map_or(SimTime::ZERO, |(plan, _)| plan.heal_by());
        if let (Some(d), Some(_)) = (done, &self.chaos) {
            out.v.recovery_s = d.since(heal_by.min(d)).as_secs_f64();
        }
        let settle_until = heal_by.max(self.grid.world.now()) + SETTLE;
        while self.grid.world.now() < settle_until {
            self.step(next_gc, None);
        }

        // Exactly-once delivery: each client holds exactly seqs 1..=N of
        // its own plan, each with a result of the planned size.
        for i in 0..self.plans.len() {
            let planned = self.plans[i].len() as u64;
            let Some(c) = self.client(i) else {
                out.v.jobs_failed += planned;
                out.v.violations.push(format!("client {i} is down after the run"));
                continue;
            };
            let held: Vec<u64> = c.metrics.results_received.keys().copied().collect();
            let in_plan = held.iter().filter(|&&s| (1..=planned).contains(&s)).count() as u64;
            out.v.jobs_failed += planned - in_plan;
            if held.len() as u64 != in_plan || c.results_count() as u64 != held.len() as u64 {
                out.v.incorrect += 1;
                out.v.violations.push(format!(
                    "client {i} holds results outside 1..={planned} or twice ({} records, {} results)",
                    held.len(),
                    c.results_count()
                ));
            }
            if in_plan != planned {
                out.v.violations.push(format!("client {i} collected {in_plan} of {planned} jobs"));
            }
            let wrong_size = held
                .iter()
                .filter(|&&s| {
                    c.result_archive(s).is_some_and(|a| a.len() != self.shape.result_bytes)
                })
                .count();
            if wrong_size > 0 {
                out.v.incorrect += 1;
                out.v
                    .violations
                    .push(format!("client {i} holds {wrong_size} results of wrong size"));
            }
        }

        // Post-run quiescence: another settle window executes nothing.
        let executed = |sim: &Sim| sim.servers().map(|s| s.metrics.executed).sum::<u64>();
        let before = executed(self);
        let settle_until = self.grid.world.now() + SETTLE;
        while self.grid.world.now() < settle_until {
            self.step(next_gc, None);
        }
        let after = executed(self);
        if after != before {
            out.v.violations.push(format!("grid not quiescent: executions {before} -> {after}"));
        }
        let down = self.grid.servers.len() - self.servers().count();
        let down_coords = self.grid.coords.len() - self.coordinators().count();
        if down + down_coords > 0 {
            out.v.violations.push(format!("{down} servers, {down_coords} coordinators down"));
        }

        // Replication drained: the last acknowledged round carries nothing.
        for (i, c) in (0..self.grid.coords.len()).filter_map(|i| Some((i, self.coordinator(i)?))) {
            if let Some(last) = c.metrics.repl_rounds.iter().rev().find(|r| r.acked_at.is_some()) {
                if last.records != 0 {
                    out.v.violations.push(format!(
                        "coordinator {i} still replicates {} records after quiescence",
                        last.records
                    ));
                }
            }
        }

        // Sealed-frame accounting: no corrupted frame decodes as a forgery,
        // and every corruption is either garbled or poisoned.
        let stats = *self.grid.world.stats();
        let (garbled, poisoned) =
            self.chaos.as_ref().map_or((0, 0), |(_, c)| (c.garbled(), c.poisoned()));
        if garbled > 0 {
            out.v.incorrect += 1;
            out.v.violations.push(format!("{garbled} corrupted frames decoded as valid messages"));
        }
        if garbled + poisoned != stats.corrupted {
            out.v.violations.push(format!(
                "corruption accounting: {garbled} garbled + {poisoned} poisoned != {} corrupted",
                stats.corrupted
            ));
        }

        out.v.crashes = self.chaos.as_ref().map_or(0, |(plan, _)| plan.counts().crashes as u64);
        for c in self.coordinators() {
            out.v.server_suspicions += c.metrics.server_suspicions;
            out.v.coordinator_suspicions += c.metrics.coordinator_suspicions;
            out.v.reexecutions += c.metrics.reexecutions;
            out.v.bad_frames += c.metrics.bad_frames;
            out.v.resident_rows = out.v.resident_rows.max(c.db().resident_rows());
            for r in &c.metrics.repl_rounds {
                match r.acked_at {
                    Some(acked) => out.v.repl_lags.push(acked.since(r.started).0),
                    None => out.v.repl_unacked_rounds += 1,
                }
            }
        }
        for s in self.servers() {
            out.v.units_spent += s.metrics.units_spent;
            out.v.ckpt_uploads += s.metrics.ckpt_uploads;
            out.v.ckpt_bytes += s.metrics.ckpt_bytes;
            out.v.bad_frames += s.metrics.bad_frames;
        }
        for c in self.clients() {
            out.v.bad_frames += c.metrics.bad_frames;
            out.v.log_replays += c.metrics.log_replays;
        }
        if out.v.bad_frames > poisoned {
            out.v.violations.push(format!(
                "actors counted {} bad frames but only {poisoned} were poisoned",
                out.v.bad_frames
            ));
        }
    }
}
