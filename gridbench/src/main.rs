//! `gridbench` — end-to-end and per-layer benchmark of the RPC-V grid.
//!
//! ```text
//! cargo run --release --offline --manifest-path gridbench/Cargo.toml -- \
//!     --workload bulk_short --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run builds and drives the workload's simulations (one seed each,
//! derived from `--seed`) in passes until `--seconds` of host time have
//! gone, checks every run's output, and prints one JSON object as its last
//! line of standard output.  `--trace 0` reports the end-to-end metrics
//! with tracing off; `--trace 1` alternates untraced and traced passes,
//! asserts that tracing changed no virtual-time result, and reports the
//! per-layer metrics.  See `README.md` beside this file.

mod heap;
mod layers;
mod metrics;
mod workload;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use std::process::ExitCode;
use std::time::Instant;

use workload::{Outcome, Shape};

struct Args {
    shape: Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = workload::shape(&workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {workload}; one of {names:?}")
    })?;
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

const MIB: f64 = 1024.0 * 1024.0;
const TRACE_SIMS: usize = 32;
const SETUP_SAMPLES: usize = 16;

/// One pass: every simulation of the run once, set up and driven in turn.
fn pass(shape: Shape, seeds: &[u64], traced: bool) -> Vec<Outcome> {
    seeds
        .iter()
        .map(|&seed| {
            let base = heap::reset_peak();
            let t = Instant::now();
            let sim = workload::setup(shape, seed, traced);
            let setup_s = t.elapsed().as_secs_f64();
            let mut out = sim.run(setup_s);
            out.peak_heap_bytes = (heap::peak() - base) as u64;
            eprintln!(
                "# sim {seed:#018x} traced={traced} setup={setup_s:.4}s wall={:.3}s heap={:.1}MiB \
                 events={} makespan={:.1}s violations={}",
                out.wall_s,
                out.peak_heap_bytes as f64 / MIB,
                out.events,
                out.v.makespan_s,
                out.v.violations.len()
            );
            out
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gridbench: {e}");
            return ExitCode::from(2);
        }
    };
    let shape = args.shape;
    // The per-layer figures are unbounded, so a traced run keeps its two
    // passes short by tracing at most `TRACE_SIMS` of the simulations.
    let sims = if args.trace { shape.sims.min(TRACE_SIMS) } else { shape.sims };
    let seeds: Vec<u64> = (0..sims).map(|i| workload::sim_seed(args.seed, i)).collect();
    let started = Instant::now();
    let budget = std::time::Duration::from_secs(args.seconds);

    // Set-up time is sampled on its own as well, so even a workload with
    // few simulations per pass reports a median over many set-ups.
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|i| {
            let t = Instant::now();
            let sim = workload::setup(shape, seeds[i % seeds.len()], false);
            let setup_s = t.elapsed().as_secs_f64();
            drop(sim);
            setup_s
        })
        .collect();

    // Passes while one more as long as the last still fits the budget: the
    // first untraced pass supplies every virtual-time figure, and each later
    // pass must reproduce it.
    let mut untraced: Vec<Vec<Outcome>> = Vec::new();
    let mut traced: Vec<Vec<Outcome>> = Vec::new();
    loop {
        let t = Instant::now();
        untraced.push(pass(shape, &seeds, false));
        if args.trace {
            traced.push(pass(shape, &seeds, true));
        }
        if started.elapsed() + t.elapsed() > budget {
            break;
        }
    }

    let report = metrics::Report::new(shape, &seeds, &setups, &untraced, &traced);
    println!("{}", metrics::host_line(shape, args.seed, &seeds, &report));
    println!("{}", report.result_line(args.trace));
    ExitCode::SUCCESS
}
