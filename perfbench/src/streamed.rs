//! `streamed_edge_hysteresis`: a large population of long random walks
//! through the memory-bounded `run_streamed` fold, with the edge-set
//! pruned measurement path and RSS hysteresis. It bypasses the FLC and
//! most of the dense sweep, so time shifts to mobility, the pruned path,
//! per-chunk orchestration, sharding and the streamed fold.

use crate::layers::{self, FleetTrace};
use crate::replay::{self, Sweep};
use crate::trace::TimedSpec;
use crate::{
    another_run, report_throughput, Ctx, PeakRss, Setup, SETUP_REPS_BETWEEN, SETUP_REPS_FIRST,
};
use fuzzy_handover::mobility::RandomWalk;
use fuzzy_handover::radio::{MeasurementNoise, ShadowingConfig};
use fuzzy_handover::sim::fleet::CandidateMode;
use fuzzy_handover::sim::{
    FleetMobility, FleetSimulation, HomogeneousFleet, PolicyKind, SimConfig,
};
use std::hint::black_box;
use std::time::Instant;

const DOMAIN: u64 = 2;
const UES: u64 = 50_000;
/// Random-walk legs per UE, as the `fleet_scale` example's long walks.
const LEGS: usize = 30;
const EDGE: CandidateMode = CandidateMode::EdgeSet {
    k: 7,
    margin_db: 6.0,
};
const EDGE_SWEEP: Sweep = Sweep::EdgeSet {
    k: 7,
    margin_db: 6.0,
};
const HYSTERESIS_DB: f64 = 4.0;

fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    cfg.shadowing = ShadowingConfig::moderate();
    cfg.noise = MeasurementNoise::new(1.0);
    cfg
}

fn engine(workers: usize) -> FleetSimulation {
    FleetSimulation::new(config())
        .with_workers(workers)
        .with_candidate_mode(EDGE)
}

pub fn run(ctx: &mut Ctx) {
    let base_seed = ctx.derive_seed(DOMAIN);
    let trajectory_seed = ctx.derive_seed(DOMAIN + 100);
    let workers = ctx.workers;
    let spec = HomogeneousFleet {
        mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(LEGS)),
        policy: PolicyKind::Hysteresis {
            margin_db: HYSTERESIS_DB,
        },
        trajectory_seed,
        cell_radius_km: config().layout.cell_radius_km(),
    };

    let mut setup = Setup::default();
    let mut set_up = || {
        black_box(engine(workers));
    };
    setup.sample(SETUP_REPS_FIRST, &mut set_up);
    let fleet = engine(workers);

    ctx.report.attempt(1);
    let reference = match fleet.run_streamed(&spec, UES, base_seed) {
        Ok(r) => r,
        Err(err) => {
            ctx.report
                .fail(format!("warm-up streamed run failed: {err}"));
            return;
        }
    };
    let steps = reference.summary.steps;
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
        ctx.report.attempt(1);
        rss.start();
        let t0 = Instant::now();
        let result = fleet.run_streamed(&spec, UES, base_seed);
        let dt = t0.elapsed().as_secs_f64();
        rss.stop();
        match result {
            Ok(r) => {
                reruns_identical &= r == reference;
                rates.push(steps as f64 / dt);
                setup.sample(SETUP_REPS_BETWEEN, &mut set_up);
            }
            Err(err) => {
                ctx.report.fail(format!("streamed run failed: {err}"));
                return;
            }
        }
    }
    if !ctx.traced {
        setup.report(
            ctx,
            "edge-set engine construction: compiled radio, candidate table, neighbour index",
        );
        report_throughput(ctx, &rates, steps, "run_streamed");
        rss.report(ctx);
    }

    if ctx.traced {
        let mut trace = FleetTrace {
            ue_steps: steps,
            ..FleetTrace::default()
        };
        let mut traced_rates = Vec::new();
        let t_start = Instant::now();
        let mut rep = 0u64;
        while another_run(t_start, traced_rates.len(), 2, window) {
            rep += 1;
            let timed = TimedSpec::new(&spec);
            let t0 = Instant::now();
            let result = ctx.tracer.span("fleet.run_streamed", rep, || {
                fleet.run_streamed(&timed, UES, base_seed)
            });
            let wall = t0.elapsed().as_secs_f64();
            ctx.report.attempt(1);
            match result {
                Ok(r) => reruns_identical &= r == reference,
                Err(err) => {
                    ctx.report
                        .fail(format!("traced streamed run failed: {err}"));
                    return;
                }
            }
            let (calls, ns) = timed.totals();
            trace.trajectory_calls += calls;
            trace.trajectory_ns += ns;
            let worker_ns = wall * 1e9 * workers as f64;
            trace.worker_ns += worker_ns;
            trace.ns_per_ue_step.push(worker_ns / steps as f64);
            trace.runs += 1;
            traced_rates.push(steps as f64 / wall);
        }
        layers::report_overhead(&mut ctx.report, &rates, &traced_rates);
        let cfg = config();
        let totals = ctx.tracer.span("replay.population", 0, || {
            replay::replay(&cfg, &spec, UES, base_seed, EDGE_SWEEP)
        });
        layers::report_batch(
            &mut ctx.report,
            workers,
            &trace,
            &totals,
            steps,
            reference.summary.hd_count,
        );
        layers::absent_service(&mut ctx.report);
    }

    ctx.report.check(
        reruns_identical,
        format!(
            "every streamed run of this invocation is bit-identical to the first ({} runs)",
            rates.len() + 1
        ),
    );
    // Gate: the streamed fold equals the dense `run` under the same
    // edge-set mode, summary bits and load histogram included.
    let dense = fleet.try_run(&spec, UES, base_seed);
    let ok = matches!(&dense, Ok(r) if r.summary == reference.summary && r.cell_load == reference.cell_load);
    ctx.report.check(
        ok,
        "run_streamed summary and load histogram equal the dense run's (same EdgeSet mode)",
    );
}
