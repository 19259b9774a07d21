//! Turns the passes' outcomes into the reported metrics, and checks that
//! the passes agree with each other.
//!
//! Aggregation rules, fixed so that later runs compare like with like.
//! End-to-end figures are a trimmed mean over the pass's simulations:
//! volatile_churn's per-seed makespans spread roughly uniformly over a 5×
//! range, where a mean is steadier than a median, but a rare simulation
//! that strands jobs runs to the horizon and would swing a plain mean
//! (it is counted in `failed` instead).  Job-latency quantiles are exact
//! (nearest rank) within each simulation first.  Wall time is the median
//! over passes of the per-pass trimmed mean; set-up time the median over
//! every set-up in the run, extra samples included.  Per-layer figures
//! are plain means per simulation, so that per-kind handler times add up
//! to their role's total; their quantiles are exact over every sample of
//! the pass.

use std::fmt::Write as _;

use crate::layers::{Role, ASSIGN, COLLECT, DONE, SUBMIT};
use crate::workload::{Outcome, Shape};

/// The message kinds each role receives, reported even when zero.
const KINDS: [(Role, &[&str]); 3] = [
    (
        Role::Coordinator,
        &[
            "ClientBeat",
            "Submit",
            "SubmitBatch",
            "ResultsRequest",
            "ServerBeat",
            "TaskDone",
            "CkptOffer",
            "ReplDelta",
            "ReplAck",
            "ReplArchives",
            "SnapshotRequest",
            "SnapshotChunk",
            "StatusRequest",
            "Batch",
            "Corrupt",
        ],
    ),
    (
        Role::Server,
        &[
            "Assign",
            "NoWork",
            "TaskDoneAck",
            "NeedArchives",
            "ArchivesSettled",
            "CkptAck",
            "Batch",
            "Corrupt",
        ],
    ),
    (
        Role::Client,
        &[
            "SubmitAck",
            "ClientSyncReply",
            "ResultsReply",
            "ShardMap",
            "StatusRequest",
            "StatusReply",
            "Corrupt",
        ],
    ),
];

/// Exact nearest-rank quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Mean of the middle 80%: the lowest and highest tenth are dropped.
fn trimmed_mean(xs: impl Iterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.collect();
    xs.sort_by(f64::total_cmp);
    let cut = xs.len() / 10;
    mean(xs[cut..xs.len() - cut].iter().copied())
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// One named metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    job_samples: usize,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

impl Report {
    pub fn new(
        shape: Shape,
        seeds: &[u64],
        setups: &[f64],
        untraced: &[Vec<Outcome>],
        traced: &[Vec<Outcome>],
    ) -> Report {
        let first = &untraced[0];
        let jobs = shape.jobs as f64;
        let mut violations: Vec<String> = Vec::new();
        let mut incorrect = 0u64;
        for (i, o) in first.iter().enumerate() {
            incorrect += o.v.incorrect;
            violations.extend(o.v.violations.iter().map(|v| format!("seed {:#x}: {v}", seeds[i])));
        }
        // Determinism: every later pass, traced or not, reproduces the
        // first pass's virtual-time results; tracing adds exactly the
        // replaced actors' stale `Start` events.
        for (p, outs) in untraced.iter().enumerate().skip(1) {
            for (i, o) in outs.iter().enumerate() {
                if o.v != first[i].v || o.events != first[i].events {
                    incorrect += 1;
                    violations.push(format!("seed {:#x}: pass {p} changed virtual time", seeds[i]));
                }
            }
        }
        for (p, outs) in traced.iter().enumerate() {
            for (i, o) in outs.iter().enumerate() {
                if o.v != first[i].v {
                    incorrect += 1;
                    violations.push(format!(
                        "seed {:#x}: traced pass {p} changed virtual-time results",
                        seeds[i]
                    ));
                }
                if o.events != first[i].events + o.nodes {
                    incorrect += 1;
                    violations.push(format!(
                        "seed {:#x}: traced pass {p} ran {} events, untraced {} + {} nodes",
                        seeds[i], o.events, first[i].events, o.nodes
                    ));
                }
            }
        }

        // Each simulation's exact quantile over every job it collected.
        let job_quantile = |q: f64| {
            trimmed_mean(first.iter().map(|o| {
                let mut l = o.v.latencies.clone();
                l.sort_unstable();
                secs(quantile(&l, q))
            }))
        };
        let job_samples: usize = first.iter().map(|o| o.v.latencies.len()).sum();
        let pass_wall = |outs: &Vec<Outcome>| trimmed_mean(outs.iter().map(|o| o.wall_s));
        let m =
            |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
        let end_to_end = vec![
            m("job_p50_s", job_quantile(0.50), "s"),
            m("job_p99_s", job_quantile(0.99), "s"),
            m(
                "makespan_over_ideal",
                trimmed_mean(first.iter().map(|o| o.v.makespan_s / shape.ideal_secs())),
                "ratio",
            ),
            m(
                "wire_bytes_per_job",
                trimmed_mean(first.iter().map(|o| o.v.bytes_sent as f64 / jobs)),
                "B",
            ),
            m(
                "work_spent_ratio",
                trimmed_mean(
                    first.iter().map(|o| o.v.units_spent as f64 / shape.required_units() as f64),
                ),
                "ratio",
            ),
            m("wall_s", median(untraced.iter().map(pass_wall).collect()), "s"),
            m(
                "setup_s",
                median(
                    setups
                        .iter()
                        .copied()
                        .chain(untraced.iter().flatten().map(|o| o.setup_s))
                        .collect(),
                ),
                "s",
            ),
            m(
                "peak_heap_mb",
                trimmed_mean(untraced.iter().flatten().map(|o| o.peak_heap_bytes as f64 / MIB)),
                "MiB",
            ),
        ];

        let mut per_layer = Vec::new();
        if !traced.is_empty() {
            let (layer, unreconciled) =
                per_layer_metrics(shape, seeds, untraced, traced, job_samples);
            if !shape.churn && unreconciled > 0 {
                incorrect += 1;
                violations.push(format!("{unreconciled} fault-free jobs do not reconcile"));
            }
            per_layer = layer;
        }
        let invariant_violations = violations.len() as f64;
        let planned = jobs * first.len() as f64;
        let failed: u64 = first.iter().map(|o| o.v.jobs_failed).sum();
        let totals = [
            m("jobs_failed_frac", failed as f64 / planned, "ratio"),
            m("invariant_violations", invariant_violations, "count"),
        ];
        if !per_layer.is_empty() {
            per_layer.extend(totals);
        }
        Report {
            correct: incorrect == 0,
            attempted: planned as u64,
            failed,
            violations,
            job_samples,
            end_to_end,
            per_layer,
        }
    }

    /// The final line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace { &self.per_layer } else { &self.end_to_end };
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// The traced passes' per-layer figures, and how many jobs' lifecycle
/// stamps failed to reconcile with their end-to-end latency.
fn per_layer_metrics(
    shape: Shape,
    seeds: &[u64],
    untraced: &[Vec<Outcome>],
    traced: &[Vec<Outcome>],
    job_samples: usize,
) -> (Vec<Metric>, u64) {
    let first = &untraced[0];
    let jobs = shape.jobs as f64;
    let all_traced: Vec<&Outcome> = traced.iter().flatten().collect();
    let per_sim = |f: &dyn Fn(&Outcome) -> f64| mean(all_traced.iter().map(|o| f(o)));
    let per_first = |f: &dyn Fn(&Outcome) -> f64| mean(first.iter().map(f));
    let mut out = Vec::new();
    let mut put =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    // simnet: the kernel is what `run_for` spent outside every handler.
    let kernel_s = |o: &Outcome| (o.run_for_s - secs(o.tally.handler_nanos())).max(0.0);
    put("simnet.events".into(), per_first(&|o| o.events as f64), "count");
    let (events, wall) =
        untraced.iter().flatten().fold((0u64, 0.0), |(e, w), o| (e + o.events, w + o.wall_s));
    put("simnet.events_per_s".into(), events as f64 / wall, "1/s");
    put("simnet.msgs_per_job".into(), per_first(&|o| o.v.msgs_sent as f64 / jobs), "msg/job");
    put("simnet.kernel_s".into(), per_sim(&|o| kernel_s(o)), "s");
    let traced_events: u64 = all_traced.iter().map(|o| o.events).sum();
    let kernel_total: f64 = all_traced.iter().map(|o| kernel_s(o)).sum();
    put("simnet.kernel_ns_per_event".into(), kernel_total * 1e9 / traced_events as f64, "ns");

    // Handlers, per role and per message kind.
    for (role, kinds) in KINDS {
        let r = role.name();
        put(format!("{r}.msg_s"), per_sim(&|o| secs(o.tally.msg_total(role).nanos)), "s");
        put(format!("{r}.msg_count"), per_sim(&|o| o.tally.msg_total(role).count as f64), "count");
        put(format!("{r}.timer_s"), per_sim(&|o| secs(o.tally.timer_busy(role).nanos)), "s");
        put(
            format!("{r}.timer_count"),
            per_sim(&|o| o.tally.timer_busy(role).count as f64),
            "count",
        );
        for kind in kinds {
            let busy = |o: &Outcome| o.tally.msg_busy(role, kind);
            put(format!("{r}.msg.{kind}_s"), per_sim(&|o| secs(busy(o).nanos)), "s");
            put(format!("{r}.msg.{kind}_count"), per_sim(&|o| busy(o).count as f64), "count");
        }
        for o in &all_traced {
            for (kind, _) in o.tally.msg_kinds(role) {
                if !kinds.contains(kind) {
                    eprintln!("gridbench: {r} received unlisted kind {kind}; counted in {r}.msg_s");
                }
            }
        }
    }
    put(
        "client.pulls_per_job".into(),
        per_sim(&|o| o.tally.msg_busy(Role::Client, "ResultsReply").count as f64 / jobs),
        "msg/job",
    );
    put(
        "obs.status_s".into(),
        per_sim(&|o| secs(o.tally.msg_busy(Role::Coordinator, "StatusRequest").nanos)),
        "s",
    );

    // Lifecycle waits, stamped outside-in on the first traced pass.  The
    // first wait starts where the job's latency starts (the client's
    // submit request), so on a reconciled job the three waits add up to
    // its end-to-end latency exactly.
    let mut waits: [Vec<u64>; 3] = Default::default();
    let mut unreconciled = 0u64;
    let mut examples = Vec::new();
    for (i, o) in traced[0].iter().enumerate() {
        for &(job, requested, received) in &o.requested {
            let s = o.tally.stamps.get(&job).copied().unwrap_or_default();
            let chain = [Some(requested), s[SUBMIT], s[ASSIGN], s[DONE], s[COLLECT]];
            let ok = chain.iter().all(Option::is_some)
                && chain.windows(2).all(|w| w[0] <= w[1])
                && s[COLLECT] == Some(received);
            if !ok {
                unreconciled += 1;
                if examples.len() < 3 {
                    examples.push(format!(
                        "seed {:#x} job {job:?}: {chain:?} received {received:?}",
                        seeds[i]
                    ));
                }
                continue;
            }
            let at = |x: Option<rpcv_simnet::SimTime>| x.map_or(0, |t| t.0);
            waits[0].push(at(s[ASSIGN]) - requested.0);
            waits[1].push(at(s[DONE]) - at(s[ASSIGN]));
            waits[2].push(at(s[COLLECT]) - at(s[DONE]));
        }
    }
    for e in &examples {
        eprintln!("gridbench: unreconciled lifecycle: {e}");
    }
    for (w, name) in
        waits.iter_mut().zip(["submit_to_dispatch", "dispatch_to_done", "done_to_collect"])
    {
        w.sort_unstable();
        put(format!("wait.{name}_p50_s"), secs(quantile(w, 0.50)), "s");
        put(format!("wait.{name}_p99_s"), secs(quantile(w, 0.99)), "s");
    }
    put("lifecycle.unreconciled_jobs".into(), unreconciled as f64, "count");
    put("job_samples".into(), job_samples as f64, "count");
    put("peak_rss_mb".into(), peak_rss_mb(), "MiB");

    // Replication, detection and re-execution.
    let mut lags: Vec<u64> = first.iter().flat_map(|o| o.v.repl_lags.iter().copied()).collect();
    lags.sort_unstable();
    put("coordinator.repl_lag_p99_s".into(), secs(quantile(&lags, 0.99)), "s");
    put(
        "coordinator.repl_unacked_rounds".into(),
        per_first(&|o| o.v.repl_unacked_rounds as f64),
        "count",
    );
    put("detect.server_suspicions".into(), per_first(&|o| o.v.server_suspicions as f64), "count");
    put(
        "detect.coordinator_suspicions".into(),
        per_first(&|o| o.v.coordinator_suspicions as f64),
        "count",
    );
    let suspicions: u64 =
        first.iter().map(|o| o.v.server_suspicions + o.v.coordinator_suspicions).sum();
    let crashes: u64 = first.iter().map(|o| o.v.crashes).sum();
    put("detect.suspicions_per_crash".into(), suspicions as f64 / crashes.max(1) as f64, "ratio");
    put("coordinator.reexecutions".into(), per_first(&|o| o.v.reexecutions as f64), "count");

    // Checkpointing and wasted work.
    let required = shape.required_units() as f64;
    put("ckpt.uploads".into(), per_first(&|o| o.v.ckpt_uploads as f64), "count");
    put("ckpt.bytes".into(), per_first(&|o| o.v.ckpt_bytes as f64), "B");
    put("server.units_wasted".into(), per_first(&|o| o.v.units_spent as f64 - required), "count");
    put(
        "wasted_work_frac".into(),
        per_first(&|o| (o.v.units_spent as f64 - required) / required),
        "ratio",
    );
    put("recovery_s".into(), per_first(&|o| o.v.recovery_s), "s");

    // Store footprint.
    put("store.resident_rows".into(), per_first(&|o| o.v.resident_rows as f64), "count");
    put("store.delta_bytes_per_round".into(), per_first(&|o| o.v.delta_bytes_per_round), "B");
    put("store.catalog_bytes_per_beat".into(), per_first(&|o| o.v.catalog_bytes_per_beat), "B");

    // Wire and logging.
    put("wire.bad_frames".into(), per_first(&|o| o.v.bad_frames as f64), "count");
    put("logging.log_replays".into(), per_first(&|o| o.v.log_replays as f64), "count");

    // The cost of tracing itself.
    let wall = |passes: &[Vec<Outcome>]| {
        median(passes.iter().map(|p| mean(p.iter().map(|o| o.wall_s))).collect())
    };
    put("trace.overhead_frac".into(), wall(traced) / wall(untraced) - 1.0, "ratio");
    put("trace.extra_events".into(), per_sim(&|o| o.nodes as f64), "count");
    (out, unreconciled)
}

/// Host metadata and the run's diagnostics, as one JSON line.
pub fn host_line(shape: Shape, seed: u64, seeds: &[u64], report: &Report) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let seeds: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    let violations: Vec<String> = report.violations.iter().take(20).map(|v| quote(v)).collect();
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}}}, \"workload\": {}, \
         \"seed\": {seed}, \"sim_seeds\": [{}], \"held_out_seed\": {}, \"job_samples\": {}, \
         \"invariant_violations\": {}, \"violations\": [{}]}}",
        quote(&cpu),
        quote(&rustc),
        quote(shape.name),
        seeds.join(", "),
        shape.held_out_seed,
        report.job_samples,
        report.violations.len(),
        violations.join(", "),
    )
}
