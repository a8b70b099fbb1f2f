//! `matrix_dense_fuzzy`: the headline 10k-UE × four-mobility-model
//! scenario matrix under the paper's fuzzy controller, dense 19-cell
//! measurement, moderate shadowing and 1 dB noise. The compiled FLC and
//! the dense radio sweep hold almost all of its time.

use crate::layers::{self, FleetTrace};
use crate::replay::{self, ReplayTotals, Sweep};
use crate::{
    another_run, compile_paper_flc, report_throughput, Ctx, PeakRss, Setup, SETUP_REPS_BETWEEN,
    SETUP_REPS_FIRST,
};
use fuzzy_handover::core::paper_flc_plan;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::CandidateMode;
use fuzzy_handover::sim::{
    FleetMobility, FleetSimulation, HomogeneousFleet, MatrixCellResult, PolicyKind, ScenarioMatrix,
    SimConfig,
};
use std::hint::black_box;
use std::time::Instant;

const DOMAIN: u64 = 1;
const UES: u64 = 10_000;
const LEGS: usize = 6;
const SPEED_KMH: f64 = 30.0;

fn base_config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn cell_config() -> SimConfig {
    let mut cfg = base_config();
    cfg.speed_kmh = SPEED_KMH;
    cfg
}

fn scenario(base_seed: u64, workers: usize) -> ScenarioMatrix {
    ScenarioMatrix {
        base: base_config(),
        ue_counts: vec![UES],
        mobilities: FleetMobility::standard_four(LEGS),
        speeds_kmh: vec![SPEED_KMH],
        policies: vec![PolicyKind::Fuzzy],
        traffics: vec![None],
        dynamics: vec![None],
        base_seed,
        workers,
        matrix_workers: 1,
        candidate_mode: CandidateMode::All,
    }
}

/// Each matrix cell's seed: the SplitMix64 finalizer over the master
/// seed and the cell's sweep index, as the matrix runner documents it.
/// Restated here so the gate rebuilds every cell without the runner.
fn cell_seed(base_seed: u64, cell_index: u64) -> u64 {
    let mut z = base_seed ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell_spec(mobility: FleetMobility, seed: u64) -> HomogeneousFleet {
    HomogeneousFleet {
        mobility,
        policy: PolicyKind::Fuzzy,
        trajectory_seed: seed,
        cell_radius_km: cell_config().layout.cell_radius_km(),
    }
}

fn same_cells(a: &[MatrixCellResult], b: &[MatrixCellResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.summary == y.summary && x.cell_load == y.cell_load)
}

pub fn run(ctx: &mut Ctx) {
    let base_seed = ctx.derive_seed(DOMAIN);
    let workers = ctx.workers;
    let matrix = scenario(base_seed, workers);
    let mobilities = matrix.mobilities.clone();
    let n_cells = matrix.len() as u64;

    let mut setup = Setup::default();
    let mut set_up = || {
        compile_paper_flc();
        let m = scenario(base_seed, workers);
        for _ in &m.mobilities {
            black_box(FleetSimulation::new(cell_config()).with_workers(workers));
        }
        black_box(m);
    };
    setup.sample(SETUP_REPS_FIRST, &mut set_up);
    black_box(paper_flc_plan());

    // Warm-up run: also the reference every later run must reproduce.
    ctx.report.attempt(n_cells);
    let reference = match matrix.try_run() {
        Ok(r) => r.cells,
        Err(err) => {
            ctx.report.fail(format!("warm-up matrix run failed: {err}"));
            return;
        }
    };
    let steps: u64 = reference.iter().map(|c| c.summary.steps).sum();
    let hd: u64 = reference.iter().map(|c| c.summary.hd_count).sum();
    ctx.report.tag_ue_steps(steps);

    let window = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut rates = Vec::new();
    let mut rss = PeakRss::default();
    let mut reruns_identical = true;
    let t_start = Instant::now();
    while another_run(t_start, rates.len(), 3, window) {
        ctx.report.attempt(n_cells);
        rss.start();
        let t0 = Instant::now();
        let result = matrix.try_run();
        let dt = t0.elapsed().as_secs_f64();
        rss.stop();
        match result {
            Ok(r) => {
                reruns_identical &= same_cells(&r.cells, &reference);
                rates.push(steps as f64 / dt);
                setup.sample(SETUP_REPS_BETWEEN, &mut set_up);
            }
            Err(err) => {
                ctx.report.fail(format!("matrix run failed: {err}"));
                return;
            }
        }
    }
    if !ctx.traced {
        setup.report(
            ctx,
            "paper FLC compile + matrix and per-cell engine construction",
        );
        report_throughput(ctx, &rates, steps, "ScenarioMatrix::run");
        rss.report(ctx);
    }

    if ctx.traced {
        // Traced runs: the matrix's cells run one by one through
        // FleetSimulation::run — exactly the per-cell work of
        // ScenarioMatrix::run — with a timing wrapper around the
        // population, under spans.
        let mut fleet = FleetTrace {
            ue_steps: steps,
            ..FleetTrace::default()
        };
        let mut traced_rates = Vec::new();
        let t_start = Instant::now();
        let mut rep = 0u64;
        while another_run(t_start, traced_rates.len(), 2, window) {
            rep += 1;
            let run_span = ctx.tracer.begin("matrix.run", rep);
            let t0 = Instant::now();
            let mut cells = Vec::with_capacity(mobilities.len());
            for (i, &mobility) in mobilities.iter().enumerate() {
                let seed = cell_seed(base_seed, i as u64);
                let spec = cell_spec(mobility, seed);
                let timed = crate::trace::TimedSpec::new(&spec);
                let engine = FleetSimulation::new(cell_config()).with_workers(workers);
                let result = ctx
                    .tracer
                    .span("fleet.run", rep, || engine.try_run(&timed, UES, seed));
                let (calls, ns) = timed.totals();
                fleet.trajectory_calls += calls;
                fleet.trajectory_ns += ns;
                ctx.report.attempt(1);
                match result {
                    Ok(r) => cells.push((r.summary, r.cell_load)),
                    Err(err) => {
                        ctx.report.fail(format!("traced fleet run failed: {err}"));
                        return;
                    }
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            ctx.tracer.end(run_span);
            let worker_ns = wall * 1e9 * workers as f64;
            fleet.worker_ns += worker_ns;
            fleet.ns_per_ue_step.push(worker_ns / steps as f64);
            fleet.runs += 1;
            traced_rates.push(steps as f64 / wall);
            reruns_identical &= cells.len() == reference.len()
                && cells
                    .iter()
                    .zip(&reference)
                    .all(|((s, l), c)| *s == c.summary && *l == c.cell_load);
        }
        layers::report_overhead(&mut ctx.report, &rates, &traced_rates);

        let mut totals = ReplayTotals::default();
        let cfg = cell_config();
        for (i, &mobility) in mobilities.iter().enumerate() {
            let seed = cell_seed(base_seed, i as u64);
            let spec = cell_spec(mobility, seed);
            let t = ctx.tracer.span("replay.cell", i as u64, || {
                replay::replay(&cfg, &spec, UES, seed, Sweep::Dense)
            });
            totals.absorb(&t);
        }
        layers::report_batch(&mut ctx.report, workers, &fleet, &totals, steps, hd);
        layers::absent_service(&mut ctx.report);
    }

    ctx.report.check(
        reruns_identical,
        format!(
            "every matrix run of this invocation is bit-identical to the first ({} runs)",
            rates.len() + 1
        ),
    );
    // Gate: every matrix cell equals a 1-worker FleetSimulation::run of
    // the same cell (worker invariance), rebuilt without the runner.
    for (i, (&mobility, cell)) in mobilities.iter().zip(&reference).enumerate() {
        let seed = cell_seed(base_seed, i as u64);
        let result = FleetSimulation::new(cell_config()).with_workers(1).try_run(
            &cell_spec(mobility, seed),
            UES,
            seed,
        );
        let ok =
            matches!(&result, Ok(r) if r.summary == cell.summary && r.cell_load == cell.cell_load);
        ctx.report.check(
            ok,
            format!(
                "cell {i} ({}) equals FleetSimulation::run at 1 worker",
                mobility.label()
            ),
        );
    }
}
