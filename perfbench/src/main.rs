//! The repository benchmark: one workload per invocation, in its own
//! process, so peak RSS is per workload.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     [--commit <id>] [--trace-out <path>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it measures the per-layer split
//! (spans from this crate around calls into each layer, plus layer
//! replays) and the tracing overhead. Both modes run the workload's
//! correctness gates. Human-readable rows go to stdout first; the last
//! stdout line is the JSON result. Exit status 1 when a gate fails.

mod layers;
mod matrix;
mod replay;
mod report;
mod stats;
mod streamed;
mod trace;
mod twin;

use fuzzy_handover::core::build_paper_flc;
use fuzzy_handover::fuzzy::CompiledFis;
use report::Report;
use std::hint::black_box;
use std::time::Instant;
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = [
    "matrix_dense_fuzzy",
    "streamed_edge_hysteresis",
    "twin_city_sessions",
];

/// Set-up repetitions before the timed window, and after each timed
/// run: spreading them over the window makes `setup_s` a median over the
/// whole run instead of one moment of it.
pub const SETUP_REPS_FIRST: usize = 25;
pub const SETUP_REPS_BETWEEN: usize = 8;

/// Shared state of one invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub workers: usize,
    pub tracer: Tracer,
    pub report: Report,
}

impl Ctx {
    /// Seed of one workload input stream, derived from the CLI seed.
    pub fn derive_seed(&self, domain: u64) -> u64 {
        splitmix(self.seed ^ domain.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }
}

/// SplitMix64 finalizer.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Per-run peak RSS; `peak_rss_mib` is the median over the timed runs.
/// Before each run the process's high-water mark is reset to its current
/// RSS (`/proc/self/clear_refs`), so one rare allocator spike does not
/// set the figure for the whole run. Where the reset is refused, every
/// reading is the process-lifetime peak so far.
#[derive(Debug, Default)]
pub struct PeakRss {
    samples: Vec<f64>,
}

impl PeakRss {
    pub fn start(&self) {
        // A refused reset leaves the lifetime high-water mark in place,
        // which only makes the reading conservative.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }

    pub fn stop(&mut self) {
        if let Some(mib) = peak_rss_mib() {
            self.samples.push(mib);
        }
    }

    pub fn report(&self, ctx: &mut Ctx) {
        let Some(d) = stats::Distribution::of(&self.samples) else {
            ctx.report
                .fail("VmHWM unavailable: /proc/self/status has no peak RSS");
            return;
        };
        let max = stats::sorted(&self.samples)[d.n - 1];
        ctx.report.metric(
            "peak_rss_mib",
            d.p50,
            "MiB",
            format!(
                "median over {} timed runs of this process's VmHWM during the run; max {max:.3}",
                d.n
            ),
        );
    }
}

/// Compile the paper FLC from scratch — the set-up cost the process-wide
/// `paper_flc_plan()` pays on first use.
pub fn compile_paper_flc() {
    black_box(CompiledFis::compile(&build_paper_flc()));
}

/// Set-up timings of one run; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct Setup {
    samples: Vec<f64>,
}

impl Setup {
    /// Time `once` `reps` times.
    pub fn sample(&mut self, reps: usize, once: &mut dyn FnMut()) {
        for _ in 0..reps {
            let t0 = Instant::now();
            once();
            self.samples.push(t0.elapsed().as_secs_f64());
        }
    }

    pub fn report(&self, ctx: &mut Ctx, what: &str) {
        let Some(d) = stats::Distribution::of(&self.samples) else {
            ctx.report.fail("set-up was never timed");
            return;
        };
        ctx.report.metric(
            "setup_s",
            d.p50,
            "s",
            format!(
                "median of {} set-ups spread over the run ({what}); p{} {:.6} s",
                d.n, d.tail_pct, d.tail
            ),
        );
    }
}

/// Whether another timed run fits the window: always until `min_runs`
/// ran, then only while the mean run so far still ends inside it.
pub fn another_run(start: Instant, runs: usize, min_runs: usize, window_s: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    runs < min_runs || elapsed + elapsed / runs as f64 <= window_s
}

/// Report `ue_steps_per_s` as the median of per-run rates.
pub fn report_throughput(ctx: &mut Ctx, rates: &[f64], steps_per_run: u64, what: &str) {
    let s = stats::sorted(rates);
    let q1 = stats::percentile_sorted(&s, 25.0);
    let q3 = stats::percentile_sorted(&s, 75.0);
    let median = stats::percentile_sorted(&s, 50.0);
    ctx.report.metric(
        "ue_steps_per_s",
        median,
        "1/s",
        format!(
            "median of {} timed {what} runs, {steps_per_run} UE-steps each; quartiles {q1:.1} .. {q3:.1}",
            s.len()
        ),
    );
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--commit <id>] [--trace-out <path>]",
        WORKLOADS.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("bad value for {name}: {raw:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = (|| -> Result<(String, u64, f64, bool), String> {
        let workload: String = parse(&args, "--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seed: u64 = parse(&args, "--seed")?;
        let seconds: f64 = parse(&args, "--seconds")?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must lie in (0, 3600], got {seconds}"));
        }
        let traced = match parse::<u8>(&args, "--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok((workload, seed, seconds, traced))
    })();
    let (workload, seed, seconds, traced) = match parsed {
        Ok(p) => p,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", usage());
            std::process::exit(2);
        }
    };
    let commit = flag(&args, "--commit").unwrap_or("unknown").to_string();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc;
    let context = format!(
        "workload={workload} seed={seed} trace={} nproc={nproc} workers={workers} commit={commit}",
        u8::from(traced)
    );
    println!("perfbench {context} seconds={seconds}");

    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        workers,
        tracer: Tracer::new(),
        report: Report::new(context),
    };
    match workload.as_str() {
        "matrix_dense_fuzzy" => matrix::run(&mut ctx),
        "streamed_edge_hysteresis" => streamed::run(&mut ctx),
        "twin_city_sessions" => twin::run(&mut ctx),
        _ => unreachable!("workload names are validated above"),
    }

    if traced {
        ctx.report.metric(
            "trace.spans",
            ctx.tracer.len() as f64,
            "count",
            "spans kept in memory",
        );
        if let Some(path) = flag(&args, "--trace-out") {
            match ctx.tracer.write_jsonl(std::path::Path::new(path)) {
                Ok(()) => println!("trace {} spans written to {path}", ctx.tracer.len()),
                Err(err) => eprintln!("perfbench: could not write {path}: {err}"),
            }
        }
    }
    let table: &[(&str, &str)] = if traced {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    if !ctx.report.finish(table, traced) {
        std::process::exit(3);
    }
    if !ctx.report.correct() {
        std::process::exit(1);
    }
}
