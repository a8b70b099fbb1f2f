//! Memory-bounded fleet scaling driver: run an arbitrarily large
//! homogeneous fleet through the streaming aggregator — no UEs×cells
//! matrix, no per-UE outcome vector — and report throughput. This is
//! the binary behind the 1M-UE acceptance run in `BENCH_fleet.json`:
//!
//! ```text
//! cargo run --release --example fleet_scale -- --ues 1000000 --walks 1000 \
//!     --candidate edge
//! ```
//!
//! Flags (all optional): `--ues N` (default 100 000), `--walks N`
//! (random-walk segments ≈ measurement steps per UE, default 1 000),
//! `--workers N` (default 4), `--mode streamed|dense`, `--candidate
//! all|nearest|edge`, `--seed N`.
//!
//! Malformed input never panics: a bad flag prints the typed error plus
//! the usage line and exits with status 2.

use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::server::cli::{choice_flag, parse_flag, ArgError};
use fuzzy_handover::sim::fleet::{
    CandidateMode, FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind,
};
use fuzzy_handover::sim::SimConfig;
use std::time::Instant;

const USAGE: &str = "usage: fleet_scale [--ues N] [--walks N] [--workers N] [--seed N] \
[--mode streamed|dense] [--candidate all|nearest|edge]";

#[derive(Clone, Copy)]
enum RunMode {
    Streamed,
    Dense,
}

fn main() {
    if let Err(err) = run() {
        eprintln!("fleet_scale: {err}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), ArgError> {
    let args: Vec<String> = std::env::args().collect();
    let n_ues: u64 = parse_flag(&args, "--ues", 100_000)?;
    let walks: usize = parse_flag(&args, "--walks", 1_000)?;
    let workers: usize = parse_flag(&args, "--workers", 4)?;
    let seed: u64 = parse_flag(&args, "--seed", 7)?;
    let mode = choice_flag(
        &args,
        "--mode",
        &[("streamed", RunMode::Streamed), ("dense", RunMode::Dense)],
        RunMode::Streamed,
    )?;
    let candidate = choice_flag(
        &args,
        "--candidate",
        &[
            ("edge", CandidateMode::EdgeSet { k: 7, margin_db: 6.0 }),
            ("nearest", CandidateMode::Nearest(7)),
            ("all", CandidateMode::All),
        ],
        CandidateMode::EdgeSet { k: 7, margin_db: 6.0 },
    )?;

    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    let fleet = FleetSimulation::new(cfg).with_workers(workers).with_candidate_mode(candidate);
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(
            fuzzy_handover::mobility::RandomWalk::paper_default(walks),
        ),
        policy: PolicyKind::Fuzzy,
        trajectory_seed: seed ^ 0x5CA1E,
        cell_radius_km: 2.0,
    };

    let mode_name = match mode {
        RunMode::Streamed => "streamed",
        RunMode::Dense => "dense",
    };
    println!(
        "fleet_scale: {n_ues} UEs × {walks} walk segments (~{} steps/UE), {workers} workers, \
         {candidate:?}, mode={mode_name}",
        (walks as f64 * 1.5) as u64
    );
    let t0 = Instant::now();
    let (summary, load_total) = match mode {
        RunMode::Streamed => {
            let out = fleet.run_streamed(&spec, n_ues, seed).expect("streamed run");
            let total = out.cell_load.total();
            (out.summary, total)
        }
        RunMode::Dense => {
            let out = fleet.run(&spec, n_ues, seed);
            let total = out.cell_load.total();
            (out.summary, total)
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();

    assert_eq!(summary.ues, n_ues);
    assert_eq!(load_total, summary.steps);
    // Fail loudly rather than print an all-zero record: a BENCH_fleet
    // acceptance row with steps_total / elapsed_s / throughput at 0.0
    // means the run never happened, and must never look like a result.
    assert!(summary.steps > 0, "acceptance run produced zero UE-steps");
    assert!(elapsed > 0.0, "elapsed time is zero — timer did not run");
    let rate_mps = summary.steps as f64 / elapsed / 1e6;
    assert!(
        rate_mps.is_finite() && rate_mps > 0.0,
        "throughput {rate_mps} M UE-steps/s is not a positive finite number"
    );
    println!(
        "ues={} steps={} handovers={} ping_pongs={} outage_steps={} mean_hd={:.6}",
        summary.ues,
        summary.steps,
        summary.handovers,
        summary.ping_pongs,
        summary.outage_steps,
        summary.mean_hd().unwrap_or(f64::NAN)
    );
    println!("elapsed {elapsed:.2} s, {rate_mps:.3} M UE-steps/s");
    match peak_rss_kb() {
        Some(kb) => {
            assert!(kb > 0, "peak RSS reads zero — /proc/self/status is lying");
            println!("peak RSS {:.1} MiB", kb as f64 / 1024.0);
        }
        None => println!("peak RSS unavailable on this platform"),
    }
    Ok(())
}

/// Peak resident set size of this process in KiB (Linux; `None`
/// elsewhere or when `/proc` is unavailable).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
