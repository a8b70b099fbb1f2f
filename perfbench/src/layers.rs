//! Per-layer rows shared by the workloads.

use crate::replay::{ReplayTotals, HD_RATE_TOLERANCE};
use crate::report::{Report, PER_LAYER};
use crate::stats;

/// What the traced fleet runs of a batch workload measured from outside
/// the engine.
#[derive(Debug, Default)]
pub struct FleetTrace {
    /// UE-steps of one run.
    pub ue_steps: u64,
    /// Per traced run: wall ns × workers ÷ UE-steps.
    pub ns_per_ue_step: Vec<f64>,
    /// `trajectory()` calls and their busy ns, summed over traced runs.
    pub trajectory_calls: u64,
    pub trajectory_ns: u64,
    /// Wall ns × workers, summed over traced runs.
    pub worker_ns: f64,
    pub runs: u64,
}

/// Rows of the batch layers: mobility, radio, policy/FLC (replayed) and
/// the fleet spans, with the replay cross-checks. `real_steps` and
/// `real_hd` come from the real run's summary.
pub fn report_batch(
    r: &mut Report,
    workers: usize,
    fleet: &FleetTrace,
    replay: &ReplayTotals,
    real_steps: u64,
    real_hd: u64,
) {
    let per = |ns: u64| replay.per_step(ns);
    let runs = fleet.runs.max(1);
    r.metric(
        "mobility.trajectories",
        (fleet.trajectory_calls / runs) as f64,
        "count",
        format!("real trajectory() calls per traced run, {runs} runs"),
    );
    r.metric(
        "mobility.trajectory_us",
        fleet.trajectory_ns as f64 / fleet.trajectory_calls.max(1) as f64 / 1e3,
        "us",
        "mean per real trajectory() call, timed on the calling worker thread",
    );
    r.metric(
        "mobility.busy_share",
        fleet.trajectory_ns as f64 / fleet.worker_ns.max(1.0),
        "frac",
        format!("trajectory() busy time / (run wall time x {workers} workers)"),
    );
    r.metric(
        "mobility.resample_ns_per_ue_step",
        per(replay.resample_ns),
        "ns",
        "replayed: ResampleIter::next per UE-step",
    );
    r.metric(
        "radio.mean_rss_ns_per_ue_step",
        per(replay.mean_rss_ns),
        "ns",
        "replayed: CompiledBsRadio mean RSS (+ NeighborIndex candidate set when pruned)",
    );
    r.metric(
        "radio.shadow_noise_ns_per_ue_step",
        per(replay.shadow_noise_ns),
        "ns",
        "replayed: dense = standard_normal_fill + ShadowingLane::advance_all_with (the engine's fused kernel); pruned = advance_subset + MeasurementNoise::apply_slice",
    );
    r.metric(
        "radio.cells_per_ue_step",
        replay.cells_measured as f64 / replay.ue_steps.max(1) as f64,
        "count",
        "replayed: cells measured per UE-step",
    );
    r.metric(
        "radio.interior_frac",
        replay.interior_steps as f64 / replay.ue_steps.max(1) as f64,
        "frac",
        "replayed: EdgeSet interior UE-steps / UE-steps",
    );
    r.metric(
        "policy.pre_ns_per_ue_step",
        per(replay.pre_ns),
        "ns",
        "replayed: report build + decide_pre (or the whole decide for a policy without FLC)",
    );
    let evals_rate = replay.flc_evals as f64 / replay.ue_steps.max(1) as f64;
    let real_rate = real_hd as f64 / real_steps.max(1) as f64;
    r.metric(
        "flc.evals_per_ue_step",
        evals_rate,
        "frac",
        "replayed: CompiledFis evaluations per UE-step",
    );
    r.metric(
        "flc.real_hd_per_ue_step",
        real_rate,
        "frac",
        format!("real run: hd_count / steps = {real_hd} / {real_steps}"),
    );
    r.metric(
        "flc.eval_ns",
        replay.flc_ns as f64 / replay.flc_evals.max(1) as f64,
        "ns",
        format!(
            "replayed: per evaluation inside evaluate_batch, {} evaluations",
            replay.flc_evals
        ),
    );
    r.metric(
        "policy.commit_ns_per_ue_step",
        per(replay.commit_ns),
        "ns",
        "replayed: decide_with_hd + handover commit",
    );

    let fleet_ns = stats::median(&fleet.ns_per_ue_step);
    let traj_per_step = fleet.trajectory_ns as f64 / (fleet.ue_steps * runs).max(1) as f64;
    let layers = traj_per_step
        + per(replay.resample_ns)
        + per(replay.mean_rss_ns)
        + per(replay.shadow_noise_ns)
        + per(replay.pre_ns)
        + per(replay.flc_ns)
        + per(replay.commit_ns);
    r.metric(
        "fleet.ue_steps",
        fleet.ue_steps as f64,
        "count",
        "UE-steps of one run (spans around the run calls)",
    );
    r.metric(
        "fleet.ns_per_ue_step",
        fleet_ns,
        "ns",
        format!("median over {runs} traced runs of wall ns x {workers} workers / UE-steps"),
    );
    r.metric(
        "fleet.residual_ns_per_ue_step",
        fleet_ns - layers,
        "ns",
        "fleet.ns_per_ue_step minus mobility, radio, policy and FLC per UE-step: orchestration, arenas, commit/trace, sharding, merge",
    );

    // Replay cross-checks.
    r.metric(
        "replay.ue_steps",
        replay.ue_steps as f64,
        "count",
        "UE-steps the replay stepped",
    );
    r.metric(
        "replay.real_ue_steps",
        real_steps as f64,
        "count",
        "summary.steps of the real run",
    );
    r.check(
        replay.ue_steps == real_steps,
        format!(
            "replayed UE-steps {} == real summary.steps {real_steps}",
            replay.ue_steps
        ),
    );
    let hd_rate = replay.hd_decisions as f64 / replay.ue_steps.max(1) as f64;
    let gap = if real_rate > 0.0 {
        (hd_rate - real_rate).abs() / real_rate
    } else {
        hd_rate
    };
    r.metric(
        "replay.hd_rate_gap",
        gap,
        "frac",
        format!("|replayed HD-bearing decisions per UE-step {hd_rate} - real {real_rate}| / real"),
    );
    r.check(
        gap <= HD_RATE_TOLERANCE,
        format!(
            "replayed HD-bearing decisions per UE-step {hd_rate:.6} within {HD_RATE_TOLERANCE} of real hd_count/steps {real_rate:.6} (replayed FLC evals per UE-step {evals_rate:.6})"
        ),
    );
}

/// Metric-name prefixes of the service layers.
const SERVICE_LAYERS: [&str; 4] = ["checkpoint.", "supervisor.", "server.", "wire."];

/// Metric-name prefixes of the batch layers and their replay.
const BATCH_LAYERS: [&str; 6] = [
    "mobility.",
    "radio.",
    "policy.",
    "flc.",
    "fleet.",
    "replay.",
];

/// The batch layers, which the service workload does not replay.
pub fn absent_batch(r: &mut Report, why: &str) {
    for (name, _) in PER_LAYER
        .iter()
        .filter(|(n, _)| BATCH_LAYERS.iter().any(|p| n.starts_with(p)))
    {
        r.absent(name, why);
    }
}

/// The service layers, which batch workloads never call.
pub fn absent_service(r: &mut Report) {
    let why = "not called by this workload (batch engine only)";
    for (name, _) in PER_LAYER
        .iter()
        .filter(|(n, _)| SERVICE_LAYERS.iter().any(|p| n.starts_with(p)))
    {
        r.absent(name, why);
    }
}

/// Rows of the traced-vs-untraced comparison.
pub fn report_overhead(r: &mut Report, untraced: &[f64], traced: &[f64]) {
    let u = stats::median(untraced);
    let t = stats::median(traced);
    r.metric(
        "trace.overhead_frac",
        1.0 - t / u,
        "frac",
        format!(
            "1 - traced/untraced median UE-steps/s ({t:.1} over {} traced runs vs {u:.1} over {} untraced)",
            traced.len(),
            untraced.len()
        ),
    );
}
