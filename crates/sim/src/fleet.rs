//! Multi-UE fleet simulation: N mobile stations (hundreds to millions)
//! stepping concurrently through one shared [`CellLayout`].
//!
//! ## Architecture
//!
//! * **One record per UE, named phases** — each worker holds its chunk
//!   of UEs, never the whole fleet, as one record per UE (engine state,
//!   trajectory cursor, policy, churn window, tallies, optional trace),
//!   so memory stays proportional to `workers × chunk_size`. Every
//!   lockstep step runs five phases: advance/retire, dense mean RSS,
//!   measure + outage + policy front half, one batched FLC evaluation,
//!   commit. Retired UE states are recycled through a per-worker arena
//!   (a reset reuses every allocation), so a million-UE run performs a
//!   bounded number of state allocations.
//! * **Compiled measurement plane** — per measurement step the mean path
//!   loss is computed per (BS, UE-chunk) through the compiled link budget
//!   ([`radiolink::CompiledBsRadio`], every position-independent term
//!   folded once per run), per-UE shadowing advances through a batched
//!   [`radiolink::ShadowingLane`] and noise through
//!   [`radiolink::MeasurementNoise::apply_slice`] — all bit-identical to
//!   the scalar path [`Simulation::run`] uses. The opt-in
//!   [`CandidateMode::Nearest`] prunes the dense `cells × chunk` sweep to
//!   the cells near each UE, and [`CandidateMode::EdgeSet`] further
//!   restricts the full sweep to *cell-edge* UEs (see its docs).
//! * **Per-UE deterministic RNG streams** — UE `i`'s measurement
//!   randomness is seeded with [`ue_seed`]`(base_seed, i)`. UE 0 uses
//!   `base_seed` exactly, which is what makes a 1-UE fleet reproduce
//!   [`Simulation::run`] bit for bit; later UEs take golden-ratio-strided
//!   seeds (`StdRng::seed_from_u64` mixes them into independent ChaCha
//!   streams).
//! * **Sharded parallel stepping** — UE ids are split round-robin over
//!   workers by [`crate::shard::map_ordered`], the primitive the
//!   scenario matrix and `monte_carlo` share. Because every UE owns its
//!   stream and the merge sorts outcomes by UE id before folding the
//!   `f64` aggregates, the result is bit-identical for any worker count,
//!   chunk size, or UE submission order. Worker panics are caught and
//!   surfaced as the [`FleetError::WorkerPanic`] of the lowest failing
//!   shard through the `try_*` entry points.
//! * **Checkpoint/restore** — [`FleetSimulation::run_partial`] freezes a
//!   pass after a fixed number of lockstep steps into a serializable
//!   [`FleetCheckpoint`] (per-UE engine + policy + RNG stream state);
//!   [`FleetSimulation::resume`] continues it to completion,
//!   bit-identically to the uninterrupted run, for any worker count and
//!   chunk size on either side of the snapshot.
//! * **One pass, two sinks** — every entry point runs the same sharded
//!   pass; each chunk hands its finished, traced and suspended UEs to a
//!   sink. The run/checkpoint entry points collect them;
//!   [`FleetSimulation::run_streamed`] generates UE ids lazily and folds
//!   each outcome into a running [`FleetSummary`] instead, keeping only
//!   one `f64` per UE. That HD sum is folded in global UE-id order,
//!   keeping the aggregate bit-identical to [`FleetSimulation::run`].
//!
//! [`CellLayout`]: cellgeom::CellLayout

use crate::checkpoint::{CheckpointError, FleetCheckpoint, UeCheckpoint, CHECKPOINT_VERSION};
use crate::dynamics::{ChurnConfig, DynamicsConfig};
use crate::engine::{SimConfig, Simulation, StepOutcome, UeState};
use crate::resilience::{ConfigError, FaultInjector};
use crate::shard;
use crate::traffic::{replay_traffic, TrafficConfig, UeTrace};
use cellgeom::Axial;
use fuzzylogic::{CompiledFis, EvalScratch};
use handover_core::baselines::{
    HysteresisPolicy, HysteresisThresholdPolicy, LoadAwareHysteresisPolicy, ThresholdPolicy,
};
use handover_core::{
    jain_index, paper_flc_lut, CellLoadHistogram, ControllerConfig, Decision, DynamicReport,
    DynamicTrafficStats, FleetSummary, FlcStage, FuzzyHandoverController, HandoverPolicy,
    LatencyPercentiles, LoadField, MeasurementReport, PolicyCheckpoint, StayReason, TrafficReport,
};
use mobility::{
    GaussMarkov, ManhattanGrid, MobilityModel, RandomWalk, RandomWaypoint, ResampleIter,
    TracePoint, Trajectory,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Errors surfaced by the fallible fleet entry points
/// ([`FleetSimulation::try_run`] and friends) and the supervised runner
/// ([`FleetSimulation::run_supervised`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A worker thread panicked while stepping its shard. The payload's
    /// panic message is preserved; the other workers' partial results are
    /// discarded.
    WorkerPanic(String),
    /// The engine's configuration (simulation, traffic or dynamics
    /// plane) failed typed validation.
    InvalidConfig(ConfigError),
    /// A checkpoint could not be validated or unsealed — wrong version,
    /// bit-rot, truncation, or a plane mismatch with this engine.
    CorruptCheckpoint(CheckpointError),
    /// The virtual watchdog saw more stall delay in one supervised
    /// segment than the policy's deadline allows.
    WorkerStalled {
        /// Virtual stall delay the segment accumulated, in steps.
        stalled_steps: u64,
        /// The watchdog deadline it exceeded.
        deadline_steps: u64,
    },
    /// The supervised runner exhausted its retry budget; `last` is the
    /// error of the final failed attempt.
    RetriesExhausted {
        /// Failed attempts consumed (one more than the budget).
        attempts: u32,
        /// The last attempt's error.
        last: Box<FleetError>,
    },
}

impl FleetError {
    /// Whether [`FleetSimulation::run_supervised`] may retry after this
    /// error. Panics, stalls and corrupt snapshots are transient (the
    /// segment replays from the last good snapshot); a bad
    /// configuration or an exhausted budget is permanent.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            FleetError::WorkerPanic(_)
                | FleetError::WorkerStalled { .. }
                | FleetError::CorruptCheckpoint(_)
        )
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::WorkerPanic(msg) => write!(f, "fleet worker panicked: {msg}"),
            FleetError::InvalidConfig(err) => write!(f, "invalid configuration: {err}"),
            FleetError::CorruptCheckpoint(err) => {
                write!(f, "corrupt or unrestorable checkpoint: {err}")
            }
            FleetError::WorkerStalled { stalled_steps, deadline_steps } => write!(
                f,
                "fleet worker stalled: {stalled_steps} virtual steps of delay exceeded \
                 the {deadline_steps}-step watchdog deadline"
            ),
            FleetError::RetriesExhausted { attempts, last } => write!(
                f,
                "supervision retries exhausted after {attempts} failed attempts; \
                 last error: {last}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ConfigError> for FleetError {
    fn from(err: ConfigError) -> Self {
        FleetError::InvalidConfig(err)
    }
}

impl From<CheckpointError> for FleetError {
    fn from(err: CheckpointError) -> Self {
        FleetError::CorruptCheckpoint(err)
    }
}

/// Per-UE state of one fleet step between the measurement phase and the
/// commit phase: either already decided, or waiting for entry `k` of the
/// chunk's batched FLC evaluation.
#[derive(Debug, Clone, Copy)]
enum StepPending {
    Decided(Decision),
    AwaitHd(usize),
}

/// How the fleet engine selects which cells to measure per UE step.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum CandidateMode {
    /// Measure every layout cell for every UE (the dense
    /// `cells × chunk` sweep). This is the default and the only mode the
    /// byte-pinned golden reports run under.
    #[default]
    All,
    /// Measure only the `k` cells nearest each UE (via the layout's
    /// [`NeighborIndex`](cellgeom::NeighborIndex)), always force-including
    /// the UE's serving cell and its whole handover-candidate table, so
    /// the decision inputs are never approximated away. Unmeasured cells'
    /// shadowing slots accrue travelled distance and advance lazily when
    /// they re-enter the set — exact under the Gudmundson composition law
    /// `ρ(d₁+d₂) = ρ(d₁)·ρ(d₂)`, so the shadowing *law* is unchanged;
    /// only the RNG draw allocation differs from [`CandidateMode::All`].
    ///
    /// ## Equivalence bound
    ///
    /// With `k ≥ layout.len()` every cell is measured and the engine
    /// falls back to the [`CandidateMode::All`] code path, making the
    /// two modes **bit-identical** — on a 7-cell (one-ring) layout any
    /// `k ≥ 7` is exact. Below that bound the per-step decisions still
    /// see exact serving/neighbour readings (the force-include above);
    /// what changes is the random-stream allocation and, under a
    /// stateful [`RssiSmoother`](radiolink::RssiSmoother), the filter
    /// streams of out-of-set cells (which then skip samples). The pruned
    /// mode is pinned by its own golden
    /// (`tests/golden_radio/pruned_matrix.json`).
    Nearest(usize),
    /// The *edge-set* refinement of [`CandidateMode::Nearest`]: a UE
    /// measures the `k`-nearest set only while it is near a cell edge —
    /// when the deterministic mean RSS of its serving cell exceeds the
    /// best handover candidate's by more than `margin_db`, the UE is
    /// classified *interior* and measures only its serving cell and
    /// candidate table (the exact set its policy reads; see
    /// `report_from_measured`). Interior classification uses mean path
    /// loss only — no RNG draws — so it is deterministic and
    /// worker/chunk/order-invariant like everything else.
    ///
    /// ## Equivalence bound
    ///
    /// With `margin_db = f64::INFINITY` every UE classifies as edge and
    /// the mode is **bit-identical** to [`CandidateMode::Nearest`] with
    /// the same `k` (for `k <` layout size; classification draws no
    /// randomness). Finite margins reallocate shadowing/noise draws for
    /// interior UEs exactly as `Nearest` does for out-of-set cells.
    EdgeSet {
        /// Nearest-set size used for edge-classified UEs.
        k: usize,
        /// Serving-vs-best-candidate mean-RSS margin (dB) below which a
        /// UE counts as cell-edge.
        margin_db: f64,
    },
}

/// The resolved per-run measurement plan of a [`CandidateMode`] on a
/// concrete layout.
#[derive(Debug, Clone, Copy)]
enum PrunePlan {
    Dense,
    Pruned { k: usize, edge_margin_db: Option<f64> },
}

impl CandidateMode {
    /// Short label used in matrix tables and bench ids.
    pub fn label(&self) -> String {
        match self {
            CandidateMode::All => "all".to_string(),
            CandidateMode::Nearest(k) => format!("nearest{k}"),
            CandidateMode::EdgeSet { k, margin_db } => format!("edge{k}m{margin_db}"),
        }
    }

    /// The measurement plan actually used on an `n_cells` layout:
    /// [`PrunePlan::Dense`] for the full sweep (also when `Nearest(k)`
    /// covers the whole layout, which makes pruning a no-op and lets the
    /// engine take the bit-identical dense path), pruned otherwise.
    fn plan(self, n_cells: usize) -> PrunePlan {
        match self {
            CandidateMode::All => PrunePlan::Dense,
            CandidateMode::Nearest(k) if k >= n_cells => PrunePlan::Dense,
            CandidateMode::Nearest(k) => {
                PrunePlan::Pruned { k: k.max(1), edge_margin_db: None }
            }
            CandidateMode::EdgeSet { k, margin_db } => PrunePlan::Pruned {
                k: k.max(1).min(n_cells),
                edge_margin_db: Some(margin_db),
            },
        }
    }
}

/// The measurement-RNG seed of UE `ue_id` in a fleet seeded with
/// `base_seed`: `base_seed + ue_id · φ64` (golden-ratio stride, wrapping).
/// UE 0 gets `base_seed` itself — the contract that makes a 1-UE fleet
/// bit-identical to [`Simulation::run`] with the same seed.
pub fn ue_seed(base_seed: u64, ue_id: u64) -> u64 {
    base_seed.wrapping_add(ue_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Domain-separation mask for trajectory streams: [`HomogeneousFleet`]
/// folds it into its `trajectory_seed` before deriving per-UE streams,
/// so passing the *same* value as `trajectory_seed` and as the
/// measurement `base_seed` never hands one ChaCha stream to two
/// consumers (which would silently correlate mobility with fading).
pub const TRAJECTORY_STREAM: u64 = 0x7472_616A_6563_7421; // "traject!"

/// The mobility models a fleet can be populated with (the scenario
/// matrix sweeps all four).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FleetMobility {
    /// The paper's Monte-Carlo random walk.
    RandomWalk(RandomWalk),
    /// Gauss–Markov correlated (vehicular) motion.
    GaussMarkov(GaussMarkov),
    /// Manhattan street-grid motion.
    Manhattan(ManhattanGrid),
    /// Random waypoint inside a rectangle.
    Waypoint(RandomWaypoint),
}

impl FleetMobility {
    /// Short label used in matrix tables and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            FleetMobility::RandomWalk(_) => "random-walk",
            FleetMobility::GaussMarkov(_) => "gauss-markov",
            FleetMobility::Manhattan(_) => "manhattan",
            FleetMobility::Waypoint(_) => "waypoint",
        }
    }

    /// Generate one trajectory from the model.
    pub fn generate(&self, rng: &mut StdRng) -> Trajectory {
        match self {
            FleetMobility::RandomWalk(m) => m.generate(rng),
            FleetMobility::GaussMarkov(m) => m.generate(rng),
            FleetMobility::Manhattan(m) => m.generate(rng),
            FleetMobility::Waypoint(m) => m.generate(rng),
        }
    }

    /// The standard four-model spread used by the scenario matrix and the
    /// `fleet` bench: paper random walk, vehicular Gauss–Markov, downtown
    /// Manhattan, and a waypoint box covering the 2-ring layout, each
    /// sized to `n_segments` movement legs.
    pub fn standard_four(n_segments: usize) -> Vec<FleetMobility> {
        vec![
            FleetMobility::RandomWalk(RandomWalk::paper_default(n_segments)),
            FleetMobility::GaussMarkov(GaussMarkov::vehicular(n_segments)),
            FleetMobility::Manhattan(ManhattanGrid::downtown(n_segments)),
            FleetMobility::Waypoint(RandomWaypoint::centered(4.0, n_segments)),
        ]
    }
}

/// The handover policies a fleet can run (fuzzy + the conventional
/// baselines the paper defers to future work).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The paper's three-stage fuzzy controller.
    Fuzzy,
    /// The fuzzy controller on the precomputed 3-D LUT decision plane
    /// (trilinear interpolation; see
    /// [`handover_core::flc::paper_flc_lut`]) — the approximate ablation
    /// variant, trading
    /// [`PAPER_LUT_MAX_ABS_ERROR`](handover_core::flc::PAPER_LUT_MAX_ABS_ERROR)
    /// of HD accuracy for constant-time decisions.
    FuzzyLut,
    /// Pure RSS hysteresis with the given margin.
    Hysteresis {
        /// Required neighbour advantage, dB.
        margin_db: f64,
    },
    /// Absolute serving-RSS threshold.
    Threshold {
        /// Serving-RSS threshold, dBm.
        threshold_dbm: f64,
    },
    /// Combined hysteresis + threshold.
    HysteresisThreshold {
        /// Serving-RSS threshold, dBm.
        threshold_dbm: f64,
        /// Required neighbour advantage, dB.
        margin_db: f64,
    },
    /// Load-aware hysteresis: the RSS margin biased by the
    /// serving-vs-neighbour congestion difference read from the traffic
    /// plane's occupancy feedback (see
    /// [`handover_core::baselines::LoadAwareHysteresisPolicy`]).
    /// Without a traffic plane (or with
    /// [`TrafficConfig::load_feedback`] off) it decides exactly like
    /// [`PolicyKind::Hysteresis`] with the same margin.
    LoadHysteresis {
        /// Required neighbour advantage at equal load, dB.
        margin_db: f64,
        /// Margin shift per unit utilization difference, dB.
        load_bias_db: f64,
    },
}

impl PolicyKind {
    /// Short label used in matrix tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Fuzzy => "fuzzy",
            PolicyKind::FuzzyLut => "fuzzy-lut",
            PolicyKind::Hysteresis { .. } => "hysteresis",
            PolicyKind::Threshold { .. } => "threshold",
            PolicyKind::HysteresisThreshold { .. } => "hyst+thresh",
            PolicyKind::LoadHysteresis { .. } => "load-hyst",
        }
    }

    /// Build a fresh policy instance (`cell_radius_km` feeds the fuzzy
    /// controller's DMB normalisation).
    pub fn build(&self, cell_radius_km: f64) -> Box<dyn HandoverPolicy + Send> {
        match *self {
            PolicyKind::Fuzzy => Box::new(FuzzyHandoverController::new(
                ControllerConfig::paper_default(cell_radius_km),
            )),
            PolicyKind::FuzzyLut => Box::new(FuzzyHandoverController::with_lut(
                paper_flc_lut(),
                ControllerConfig::paper_default(cell_radius_km),
            )),
            PolicyKind::Hysteresis { margin_db } => Box::new(HysteresisPolicy::new(margin_db)),
            PolicyKind::Threshold { threshold_dbm } => {
                Box::new(ThresholdPolicy::new(threshold_dbm))
            }
            PolicyKind::HysteresisThreshold { threshold_dbm, margin_db } => {
                Box::new(HysteresisThresholdPolicy::new(threshold_dbm, margin_db))
            }
            PolicyKind::LoadHysteresis { margin_db, load_bias_db } => {
                Box::new(LoadAwareHysteresisPolicy::new(margin_db, load_bias_db))
            }
        }
    }
}

/// Describes one UE population. Implementations must be deterministic
/// functions of `ue_id` — the engine may query any UE from any worker
/// thread, in any order (and, on checkpoint resume, again in a later
/// process).
pub trait UeSpec: Sync {
    /// The UE's trajectory.
    fn trajectory(&self, ue_id: u64) -> Trajectory;
    /// A fresh policy instance for the UE.
    fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send>;
}

/// A homogeneous population: every UE draws its trajectory from the same
/// mobility model (via the per-UE stream `ue_seed(trajectory_seed, id)`)
/// and runs the same policy kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HomogeneousFleet {
    /// Mobility model shared by all UEs.
    pub mobility: FleetMobility,
    /// Policy kind shared by all UEs.
    pub policy: PolicyKind,
    /// Base seed of the trajectory streams (independent of the
    /// measurement `base_seed` passed to [`FleetSimulation::run`]).
    pub trajectory_seed: u64,
    /// Cell radius for the fuzzy controller's DMB normalisation.
    pub cell_radius_km: f64,
}

impl UeSpec for HomogeneousFleet {
    fn trajectory(&self, ue_id: u64) -> Trajectory {
        // The mask keeps trajectory streams disjoint from measurement
        // streams even when trajectory_seed == base_seed.
        let mut rng =
            StdRng::seed_from_u64(ue_seed(self.trajectory_seed ^ TRAJECTORY_STREAM, ue_id));
        self.mobility.generate(&mut rng)
    }

    fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        self.policy.build(self.cell_radius_km)
    }
}

/// A single UE wrapping a fixed trajectory and a policy factory — the
/// bridge used by tests to compare a 1-UE fleet against
/// [`Simulation::run`] on the same walk.
pub struct SingleUe<F: Fn() -> Box<dyn HandoverPolicy + Send> + Sync> {
    /// The UE's fixed trajectory.
    pub trajectory: Trajectory,
    /// Policy factory.
    pub make_policy: F,
}

impl<F: Fn() -> Box<dyn HandoverPolicy + Send> + Sync> UeSpec for SingleUe<F> {
    fn trajectory(&self, _ue_id: u64) -> Trajectory {
        self.trajectory.clone()
    }

    fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
        (self.make_policy)()
    }
}

/// The reduced, per-UE result of a fleet run. `hd_sum` is folded in step
/// order, so it doubles as a bit-sensitive checksum of the UE's entire
/// HD stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeOutcome {
    /// The UE id.
    pub ue_id: u64,
    /// Measurement steps taken.
    pub steps: u64,
    /// Executed handovers.
    pub handovers: u64,
    /// Ping-pongs (window from the simulation config).
    pub ping_pongs: u64,
    /// Steps spent in outage.
    pub outage_steps: u64,
    /// Sum of the FLC outputs observed, in step order.
    pub hd_sum: f64,
    /// Number of FLC outputs observed.
    pub hd_count: u64,
    /// Path length travelled, km.
    pub travelled_km: f64,
    /// Serving cell at the end of the walk.
    pub final_serving: Axial,
}

impl UeOutcome {
    /// Reduce a full [`SimResult`](crate::engine::SimResult) to the fleet
    /// outcome form — the reference the 1-UE equivalence tests compare
    /// against, field by field and bit by bit.
    pub fn from_sim_result(
        ue_id: u64,
        result: &crate::engine::SimResult,
        pingpong_window: usize,
    ) -> UeOutcome {
        let mut hd_sum = 0.0;
        let mut hd_count = 0u64;
        for s in &result.steps {
            if let Some(hd) = s.hd {
                hd_sum += hd;
                hd_count += 1;
            }
        }
        UeOutcome {
            ue_id,
            steps: result.log.step_count() as u64,
            handovers: result.log.handover_count() as u64,
            ping_pongs: result.log.ping_pong_report(pingpong_window).ping_pongs as u64,
            outage_steps: result.log.outage_step_count() as u64,
            hd_sum,
            hd_count,
            travelled_km: result.steps.last().map_or(0.0, |s| s.cum_km),
            final_serving: result.final_serving,
        }
    }

    fn summary(&self) -> FleetSummary {
        FleetSummary {
            ues: 1,
            steps: self.steps,
            handovers: self.handovers,
            ping_pongs: self.ping_pongs,
            outage_steps: self.outage_steps,
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
        }
    }
}

/// The outcome of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-UE outcomes, ascending by UE id.
    pub outcomes: Vec<UeOutcome>,
    /// Serving-load histogram over the layout cells (UE-steps served).
    pub cell_load: CellLoadHistogram,
    /// Fleet-level aggregate (folded in UE-id order).
    pub summary: FleetSummary,
    /// Traffic-plane accounting (`None` unless the fleet ran with
    /// [`FleetSimulation::with_traffic`]). Invariant to worker count,
    /// chunk size and UE submission order, like everything else here.
    pub traffic: Option<TrafficReport>,
    /// Dynamic-workload report (`None` unless the fleet ran with
    /// [`FleetSimulation::with_dynamics`]): population churn, serving
    /// fairness, handover dwell percentiles and — with a traffic plane —
    /// the dropped-Erlang breakdown by cause. Invariant like the rest.
    pub dynamics: Option<DynamicReport>,
}

/// The memory-bounded aggregate of [`FleetSimulation::run_streamed`]:
/// the fleet summary and load histogram of a run whose per-UE outcomes
/// were folded on the fly instead of materialized. `summary` (every
/// `f64` bit included) and `cell_load` equal those of the corresponding
/// [`FleetSimulation::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStreamSummary {
    /// Fleet-level aggregate, bit-identical to
    /// [`FleetResult::summary`].
    pub summary: FleetSummary,
    /// Serving-load histogram, identical to [`FleetResult::cell_load`].
    pub cell_load: CellLoadHistogram,
}

/// Which UEs a fleet pass steps: a fresh id set, the fresh ids `0..n`
/// (generated lazily, so the streamed path never builds the id vector),
/// or the live half of a checkpoint (plus the lockstep step it stopped
/// at).
#[derive(Clone, Copy)]
enum PassSource<'a> {
    Fresh(&'a [u64]),
    Range(u64),
    Restored(&'a [UeCheckpoint], u64),
}

impl PassSource<'_> {
    fn ue_count(&self) -> usize {
        match *self {
            PassSource::Fresh(ids) => ids.len(),
            PassSource::Range(n) => usize::try_from(n).unwrap_or(usize::MAX),
            PassSource::Restored(live, _) => live.len(),
        }
    }
}

/// One chunk's worth of a [`PassSource`].
#[derive(Clone, Copy)]
enum ChunkUes<'a> {
    Fresh(&'a [u64]),
    Restored(&'a [&'a UeCheckpoint]),
}

/// Where a fleet pass delivers each UE as it leaves its chunk. Every
/// worker fills its own sink; [`PassSink::merge`] joins them after the
/// pass, in shard order.
trait PassSink: Send + Sized {
    /// Whether the sink keeps the serving-cell traces of finished UEs
    /// (a pass whose sink drops them records none).
    const KEEPS_TRACES: bool;
    /// The empty sink of one of `workers` shards, which steps `ues` UEs.
    fn for_shard(workers: usize, ues: usize) -> Self;
    /// A UE finished its walk or departed; `trace` is its serving-cell
    /// trace when the pass records traces.
    fn finish(&mut self, outcome: UeOutcome, trace: Option<UeTrace>);
    /// A UE was still live at the pass's step bound.
    fn suspend(&mut self, ue: UeCheckpoint);
    /// Join the per-worker sinks into the pass result.
    fn merge(parts: Vec<Self>) -> Self;
}

/// The collecting sink of the run and checkpoint entry points. After
/// [`PassSink::merge`] every vector ascends by UE id.
#[derive(Default)]
struct Collected {
    outcomes: Vec<UeOutcome>,
    traces: Vec<UeTrace>,
    live: Vec<UeCheckpoint>,
}

impl PassSink for Collected {
    const KEEPS_TRACES: bool = true;

    fn for_shard(_workers: usize, _ues: usize) -> Self {
        Collected::default()
    }

    fn finish(&mut self, outcome: UeOutcome, trace: Option<UeTrace>) {
        self.outcomes.push(outcome);
        self.traces.extend(trace);
    }

    fn suspend(&mut self, ue: UeCheckpoint) {
        self.live.push(ue);
    }

    fn merge(parts: Vec<Self>) -> Self {
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        for part in parts {
            all.outcomes.extend(part.outcomes);
            all.traces.extend(part.traces);
            all.live.extend(part.live);
        }
        // UE-id order makes the f64 summary folds independent of the
        // sharding and of the submission order of `ids` — and gives the
        // traffic replay its deterministic event order.
        all.outcomes.sort_by_key(|o| o.ue_id);
        all.traces.sort_by_key(|t| t.ue_id);
        all.live.sort_by_key(|l| l.ue_id);
        all
    }
}

/// The folding sink of [`FleetSimulation::run_streamed`]: integer
/// tallies fold as UEs finish, while the `f64` HD sum waits for the
/// merge, which folds it in UE-id order so the fold order matches
/// [`FleetSimulation::run`]. It relies on the round-robin shards of a
/// [`PassSource::Range`] pass: shard `w` of `W` steps UEs `w + k·W`.
struct Folded {
    summary: FleetSummary,
    workers: usize,
    /// The shard's per-UE HD sums, UE `w + k·W` at slot `k`. A UE without
    /// HD observations keeps `+0.0`, which cannot change any bit of the
    /// non-negative total.
    hd_sums: Vec<f64>,
}

impl PassSink for Folded {
    const KEEPS_TRACES: bool = false;

    fn for_shard(workers: usize, ues: usize) -> Self {
        Folded { summary: FleetSummary::default(), workers, hd_sums: vec![0.0; ues] }
    }

    fn finish(&mut self, outcome: UeOutcome, _trace: Option<UeTrace>) {
        self.summary.absorb(&FleetSummary { hd_sum: 0.0, ..outcome.summary() });
        self.hd_sums[(outcome.ue_id / self.workers as u64) as usize] = outcome.hd_sum;
    }

    fn suspend(&mut self, _ue: UeCheckpoint) {
        // invariant: run_streamed passes carry no step bound.
        unreachable!("streamed passes never suspend UEs");
    }

    fn merge(parts: Vec<Self>) -> Self {
        let workers = parts.len();
        let ues: usize = parts.iter().map(|p| p.hd_sums.len()).sum();
        let mut summary = FleetSummary::default();
        for part in &parts {
            summary.absorb(&part.summary);
        }
        // UE i sits at slot i / W of shard i mod W.
        for i in 0..ues {
            summary.hd_sum += parts[i % workers].hd_sums[i / workers];
        }
        Folded { summary, workers, hd_sums: Vec::new() }
    }
}

/// Cut `items` into `size`-long chunks in one reused buffer and hand
/// each chunk to `f`.
fn for_each_chunk<T>(items: impl Iterator<Item = T>, size: usize, mut f: impl FnMut(&[T])) {
    let mut buf = Vec::with_capacity(size);
    for item in items {
        buf.push(item);
        if buf.len() == size {
            f(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(&buf);
    }
}

/// Per-worker scratch arena: every buffer a chunk needs, allocated once
/// per worker and reused across chunks — including retired [`UeState`]s,
/// which are recycled through [`UeState::reset`] instead of reallocated.
struct ChunkArena {
    flc_scratch: EvalScratch,
    /// Retired UE states available for reuse.
    spare: Vec<UeState>,
    /// Chunk slots of the UEs that measure this step, and their points.
    active: Vec<usize>,
    points: Vec<TracePoint>,
    positions: Vec<cellgeom::Vec2>,
    /// Dense mean-RSS matrix, `cells × active`.
    rss_matrix: Vec<f64>,
    /// Per-cell means of the UE currently being measured.
    means: Vec<f64>,
    /// Gaussian scratch for the fused begin-step measurement kernel.
    ///
    /// Sized once for the worst case (shadowing + noise both active:
    /// `2 × n_cells` draws per UE-step) so the per-step resize inside
    /// [`UeState::begin_step_fused`] never reallocates. The *used*
    /// length depends only on the [`SimConfig`] sigmas — never on the
    /// step index, UE id, or chunk layout — so a run resumed from a
    /// checkpoint consumes exactly the same RNG draws as an unbroken
    /// run and stays bit-identical.
    rng_scratch: Vec<f64>,
    subset: Vec<u32>,
    /// Per-cell BS-failure mask of the current step.
    down: Vec<bool>,
    reports: Vec<MeasurementReport>,
    pending: Vec<StepPending>,
    batch_inputs: Vec<f64>,
    batch_prev: Vec<Option<f64>>,
    batch_hd: Vec<f64>,
}

impl ChunkArena {
    fn new(n_cells: usize) -> Self {
        ChunkArena {
            flc_scratch: EvalScratch::new(),
            spare: Vec::new(),
            active: Vec::new(),
            points: Vec::new(),
            positions: Vec::new(),
            rss_matrix: Vec::new(),
            means: vec![0.0; n_cells],
            rng_scratch: Vec::with_capacity(2 * n_cells),
            subset: Vec::with_capacity(n_cells),
            down: vec![false; n_cells],
            reports: Vec::new(),
            pending: Vec::new(),
            batch_inputs: Vec::new(),
            batch_prev: Vec::new(),
            batch_hd: Vec::new(),
        }
    }
}

/// The per-pass invariants of a fleet pass, resolved once by
/// [`FleetSimulation::pass`] and shared by every worker. The phases of
/// the chunk step loop are its methods.
struct ChunkCtx<'p> {
    fleet: &'p FleetSimulation,
    cfg: &'p SimConfig,
    spec: &'p dyn UeSpec,
    base_seed: u64,
    /// Frozen occupancy timeline handed to every policy (load-feedback
    /// pass only).
    load_field: Option<&'p Arc<LoadField>>,
    /// Lockstep step at which every chunk suspends its still-live UEs.
    max_steps: Option<u64>,
    plan: PrunePlan,
    /// Whether UEs carry serving-cell traces.
    tracing: bool,
    churn: Option<&'p ChurnConfig>,
    /// Scheduled BS outages as `(cell index, from step, until step)`.
    outages: Vec<(usize, u64, u64)>,
}

/// One UE of a chunk, from the step it enters the chunk to the step it
/// leaves it. [`LiveUe::fresh`] and [`LiveUe::restore`] build it;
/// [`LiveUe::suspend`] and [`LiveUe::finish`] are the only ways out, to a
/// [`UeCheckpoint`] or a [`UeOutcome`].
struct LiveUe {
    id: u64,
    state: UeState,
    /// Lazy measurement-point cursor over the UE's own trajectory.
    cursor: ResampleIter<'static>,
    policy: Box<dyn HandoverPolicy + Send>,
    /// Churn presence window `(arrival step, lifetime in steps)`; `None`
    /// without churn.
    window: Option<(u64, u64)>,
    hd_sum: f64,
    hd_count: u64,
    travelled_km: f64,
    /// Run-length-encoded serving-cell trace, `Some` when the pass
    /// records traces.
    trace: Option<UeTrace>,
}

/// What a live UE does at one lockstep step.
enum Advance {
    /// Its churn arrival is still ahead: it sits the step out.
    Parked,
    /// It measures at this point.
    At(TracePoint),
    /// Its walk ended or its churn lifetime ran out: it retires.
    Done,
}

impl LiveUe {
    /// UE `id` at the start of its walk, on a recycled state when the
    /// arena has one (same layout, every allocation reused).
    fn fresh(ctx: &ChunkCtx<'_>, id: u64, spare: &mut Vec<UeState>) -> Self {
        let trajectory = ctx.spec.trajectory(id);
        let (start, seed) = (trajectory.start(), ue_seed(ctx.base_seed, id));
        let state = match spare.pop() {
            Some(mut state) => {
                state.reset(ctx.cfg, start, seed);
                state
            }
            None => UeState::new(ctx.cfg, start, seed),
        };
        LiveUe::enter(ctx, id, state, trajectory, None)
    }

    /// A UE suspended into `cp`, exactly as it was when suspended.
    fn restore(ctx: &ChunkCtx<'_>, cp: &UeCheckpoint) -> Self {
        let state = UeState::from_snapshot(ctx.cfg, &cp.engine);
        let trajectory = ctx.spec.trajectory(cp.ue_id);
        let mut ue = LiveUe::enter(ctx, cp.ue_id, state, trajectory, Some(&cp.policy));
        // The regenerated cursor skips the points the UE has already
        // measured: one per step it took (fewer than the snapshot's step
        // for a late churn arrival).
        ue.cursor.by_ref().take(cp.engine.steps as usize).for_each(drop);
        (ue.hd_sum, ue.hd_count, ue.travelled_km) = (cp.hd_sum, cp.hd_count, cp.travelled_km);
        if let Some(trace) = &mut ue.trace {
            trace.steps = cp.trace_steps;
            trace.changes.clone_from(&cp.trace_changes);
        }
        ue
    }

    /// What both entries share: the policy (restored from `policy_cp`
    /// when resuming, and handed the pass's occupancy field), the cursor,
    /// the churn window, and empty tallies and trace.
    fn enter(
        ctx: &ChunkCtx<'_>,
        id: u64,
        state: UeState,
        trajectory: Trajectory,
        policy_cp: Option<&PolicyCheckpoint>,
    ) -> Self {
        let mut policy = ctx.spec.policy(id);
        if let Some(cp) = policy_cp {
            policy.restore_policy_checkpoint(cp);
        }
        if let Some(field) = ctx.load_field {
            policy.set_load_field(field);
        }
        LiveUe {
            id,
            state,
            cursor: trajectory.into_resample_iter(ctx.cfg.sample_spacing_km),
            policy,
            window: ctx.churn.map(|churn| churn.window(ctx.base_seed, id)),
            hd_sum: 0.0,
            hd_count: 0,
            travelled_km: 0.0,
            trace: ctx.tracing.then(|| UeTrace { ue_id: id, steps: 0, changes: Vec::new() }),
        }
    }

    /// Freeze the UE into its checkpoint; its state comes back for
    /// recycling.
    fn suspend(self) -> (UeCheckpoint, UeState) {
        let (trace_steps, trace_changes) =
            self.trace.map_or((0, Vec::new()), |trace| (trace.steps, trace.changes));
        let cp = UeCheckpoint {
            ue_id: self.id,
            engine: self.state.snapshot(),
            policy: self.policy.policy_checkpoint(),
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
            travelled_km: self.travelled_km,
            trace_steps,
            trace_changes,
        };
        (cp, self.state)
    }

    /// Reduce a retired UE to its outcome and trace; its state comes
    /// back for recycling.
    fn finish(self, cfg: &SimConfig) -> (UeOutcome, Option<UeTrace>, UeState) {
        let log = self.state.log();
        let outcome = UeOutcome {
            ue_id: self.id,
            steps: self.state.step_count() as u64,
            handovers: log.handover_count() as u64,
            ping_pongs: log.ping_pong_report(cfg.pingpong_window_steps).ping_pongs as u64,
            outage_steps: log.outage_step_count() as u64,
            hd_sum: self.hd_sum,
            hd_count: self.hd_count,
            travelled_km: self.travelled_km,
            final_serving: self.state.serving_cell(cfg),
        };
        (outcome, self.trace, self.state)
    }

    /// The UE's next measurement point at lockstep `step`. With churn, a
    /// UE whose arrival is still ahead is parked, and one past its drawn
    /// lifetime departs exactly like one whose trajectory ended.
    fn advance(&mut self, step: u64) -> Advance {
        if let Some((arrival, lifetime)) = self.window {
            if step < arrival {
                return Advance::Parked;
            }
            if self.state.step_count() as u64 >= lifetime {
                return Advance::Done;
            }
        }
        self.cursor.next().map_or(Advance::Done, Advance::At)
    }

    /// Fold one committed step into the tallies and the trace.
    fn record(&mut self, step: u64, outcome: &StepOutcome, point: TracePoint) {
        if let Some(trace) = &mut self.trace {
            // Change points are recorded at the *global* lockstep step:
            // without churn it equals the per-UE step counter (every UE
            // starts at step 0), with churn it puts arrivals and handovers
            // of different UEs on one shared timeline for the replay.
            let cell = cell_index_u32(outcome.serving_after_idx);
            if trace.changes.last().map_or(true, |&(_, c)| c != cell) {
                trace.changes.push((step, cell));
            }
            trace.steps = step + 1;
        }
        if let Some(hd) = outcome.hd {
            self.hd_sum += hd;
            self.hd_count += 1;
        }
        self.travelled_km = point.cum_km;
    }
}

/// The fleet engine. Wraps a [`Simulation`]-compatible configuration and
/// runs any number of UEs through it; see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    sim: Simulation,
    workers: usize,
    chunk_size: usize,
    candidate_mode: CandidateMode,
    traffic: Option<TrafficConfig>,
    dynamics: Option<DynamicsConfig>,
    /// Armed chaos harness (testing only; `None` in production). The
    /// `Arc` is shared by clones, so a supervisor's degraded re-clones
    /// see the same one-shot fired flags.
    fault: Option<Arc<FaultInjector>>,
}

impl FleetSimulation {
    /// Default number of UEs stepped in lockstep per batch.
    pub const DEFAULT_CHUNK_SIZE: usize = 128;

    /// Build a fleet engine (1 worker, default chunk size, dense
    /// [`CandidateMode::All`] measurement).
    pub fn new(config: SimConfig) -> Self {
        FleetSimulation {
            sim: Simulation::new(config),
            workers: 1,
            chunk_size: Self::DEFAULT_CHUNK_SIZE,
            candidate_mode: CandidateMode::All,
            traffic: None,
            dynamics: None,
            fault: None,
        }
    }

    /// The crossbeam worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Attach an armed [`FaultInjector`] (see
    /// [`crate::resilience::FaultPlan`]): the engine's step loop and
    /// arena grow path consult it, firing each scripted fault exactly
    /// once. Chaos-testing hook — results under injection are only
    /// meaningful through [`FleetSimulation::run_supervised`], which
    /// recovers to the bit-identical clean answer.
    #[must_use]
    pub fn with_fault_injection(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Set the crossbeam worker count (clamped to ≥ 1). Results are
    /// bit-identical for every value.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the lockstep batch size (clamped to ≥ 1). Results are
    /// bit-identical for every value; larger chunks amortise the batched
    /// RSS evaluation better, smaller chunks bound memory tighter.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Select the per-UE candidate measurement mode (see
    /// [`CandidateMode`]). The default [`CandidateMode::All`] path is the
    /// byte-pinned one; [`CandidateMode::Nearest`] and
    /// [`CandidateMode::EdgeSet`] are the opt-in pruned modes.
    #[must_use]
    pub fn with_candidate_mode(mut self, mode: CandidateMode) -> Self {
        self.candidate_mode = mode;
        self
    }

    /// The active candidate measurement mode.
    pub fn candidate_mode(&self) -> CandidateMode {
        self.candidate_mode
    }

    /// Attach the cell-load traffic plane (see [`crate::traffic`]): the
    /// run additionally records per-UE serving-cell traces, replays the
    /// fleet's call sessions against per-cell channel capacities, and
    /// fills [`FleetResult::traffic`]. Without
    /// [`TrafficConfig::load_feedback`] the plane is purely
    /// observational — outcomes, summary and cell load stay
    /// **bit-identical** to the traffic-free run (the differential
    /// suite `tests/traffic_diff.rs` pins this); with it, the engine
    /// runs a second pass whose policies see the first pass's occupancy
    /// timeline.
    ///
    /// # Panics
    ///
    /// If `traffic` fails [`TrafficConfig::validated`].
    #[must_use]
    pub fn with_traffic(mut self, traffic: TrafficConfig) -> Self {
        if let Err(err) = traffic.validated() {
            panic!("{err}");
        }
        self.traffic = Some(traffic);
        self
    }

    /// The attached traffic plane, if any.
    pub fn traffic(&self) -> Option<&TrafficConfig> {
        self.traffic.as_ref()
    }

    /// Attach the dynamic-workload plane (see [`crate::dynamics`]): UE
    /// churn, tidal offered load, scheduled BS outages, and/or a
    /// voice/data service mix. The configuration is validated, every
    /// outage cell is checked against the layout, and an entirely inert
    /// configuration (everything off, or only a zero-amplitude tide)
    /// normalizes back to `None` — so "feature off" runs the exact
    /// byte-pinned static path. With any feature live the run records
    /// serving-cell traces (like the traffic plane does) and fills
    /// [`FleetResult::dynamics`]; tide and service classes only shape
    /// the *traffic* replay, so they additionally need
    /// [`FleetSimulation::with_traffic`] to have any observable effect.
    ///
    /// # Panics
    ///
    /// If `dynamics` fails [`DynamicsConfig::validated`] or names an
    /// outage cell outside the layout.
    #[must_use]
    pub fn with_dynamics(mut self, dynamics: DynamicsConfig) -> Self {
        if let Err(err) = self.validate_dynamics(&dynamics) {
            panic!("{err}");
        }
        self.dynamics = dynamics.normalized();
        self
    }

    /// A dynamics plane's own validation plus every outage cell's
    /// membership in this engine's layout.
    fn validate_dynamics(&self, dynamics: &DynamicsConfig) -> Result<(), ConfigError> {
        dynamics.validated()?;
        let cells = self.sim.config().layout.cells();
        match dynamics.failures.iter().find(|o| !cells.contains(&o.cell)) {
            Some(outage) => Err(ConfigError::UnknownCell { what: "outage", cell: outage.cell }),
            None => Ok(()),
        }
    }

    /// The attached dynamic-workload plane, if any (`None` also when an
    /// inert configuration was normalized away).
    pub fn dynamics(&self) -> Option<&DynamicsConfig> {
        self.dynamics.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }

    /// Typed validation of every attached plane: the [`SimConfig`]
    /// (NaN/negative sigmas, non-positive spacing), the traffic plane
    /// (zero capacities, exhausted guard channels), the dynamics plane
    /// (inverted windows, out-of-range shares) and every outage cell's
    /// layout membership. The fallible entry points run this before
    /// touching any worker, surfacing [`FleetError::InvalidConfig`]
    /// instead of a mid-run panic or a silent NaN propagation.
    pub(crate) fn validate_planes(&self) -> Result<(), ConfigError> {
        self.sim.config().validated()?;
        if let Some(traffic) = &self.traffic {
            traffic.validated()?;
        }
        if let Some(dynamics) = &self.dynamics {
            self.validate_dynamics(dynamics)?;
        }
        Ok(())
    }

    /// Run UEs `0..n_ues`. Panics if a worker panics; see
    /// [`FleetSimulation::try_run`] for the fallible form.
    pub fn run(&self, spec: &dyn UeSpec, n_ues: u64, base_seed: u64) -> FleetResult {
        self.try_run(spec, n_ues, base_seed).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`FleetSimulation::run`]: worker panics surface
    /// as [`FleetError::WorkerPanic`] instead of unwinding the caller.
    pub fn try_run(
        &self,
        spec: &dyn UeSpec,
        n_ues: u64,
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        let ids: Vec<u64> = (0..n_ues).collect();
        self.try_run_ids(spec, &ids, base_seed)
    }

    /// Run an explicit UE id set (ids should be distinct; each UE's
    /// result depends only on its own id, and the merge orders outcomes
    /// by id, so any permutation of `ids` produces the same result).
    /// Panics if a worker panics; see [`FleetSimulation::try_run_ids`]
    /// for the fallible form.
    ///
    /// With a traffic plane attached ([`FleetSimulation::with_traffic`])
    /// the run additionally replays every UE's call sessions against the
    /// per-cell channel capacities; with
    /// [`TrafficConfig::load_feedback`] it then reruns the fleet with
    /// the first pass's occupancy timeline injected into every policy
    /// (delayed load reports), and the returned fleet metrics and
    /// [`TrafficReport`] are those of the fed-back pass.
    pub fn run_ids(&self, spec: &dyn UeSpec, ids: &[u64], base_seed: u64) -> FleetResult {
        self.try_run_ids(spec, ids, base_seed).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible form of [`FleetSimulation::run_ids`].
    pub fn try_run_ids(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
    ) -> Result<FleetResult, FleetError> {
        self.validate_planes()?;
        let (out, cell_load) =
            self.pass::<Collected>(spec, PassSource::Fresh(ids), base_seed, None, None)?;
        debug_assert!(out.live.is_empty(), "unbounded passes run every UE to completion");
        let result = assemble(out.outcomes, cell_load);
        self.apply_traffic(spec, ids, base_seed, result, out.traces)
    }

    /// Freeze a fleet pass after `max_steps` lockstep steps: UEs whose
    /// walks end earlier finish normally, every other UE is suspended
    /// with its complete engine + policy + RNG-stream state, and the
    /// whole pass comes back as a serializable [`FleetCheckpoint`].
    /// [`FleetSimulation::resume`] continues it bit-identically to the
    /// uninterrupted [`FleetSimulation::run_ids`] — for any worker count
    /// and chunk size on either side, because the snapshot is sorted by
    /// UE id and each UE's state is self-contained.
    ///
    /// With a traffic plane the pass records serving-cell traces into
    /// the snapshot; the traffic replay itself (and the load-feedback
    /// second pass, if configured) runs at resume time, once the traces
    /// are complete.
    pub fn run_partial(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        max_steps: u64,
    ) -> Result<FleetCheckpoint, FleetError> {
        self.validate_planes()?;
        let (out, cell_load) =
            self.pass::<Collected>(spec, PassSource::Fresh(ids), base_seed, None, Some(max_steps))?;
        Ok(FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            step: max_steps,
            base_seed,
            finished: out.outcomes,
            finished_traces: out.traces,
            live: out.live,
            cell_load,
            tracing: self.tracing(),
        })
    }

    /// Continue a [`FleetSimulation::run_partial`] snapshot to
    /// completion. The engine must be configured like the one that took
    /// the snapshot (same [`SimConfig`], candidate mode and traffic
    /// plane — worker count and chunk size are free); the spec
    /// must be the same deterministic population. An invalid plane
    /// surfaces as [`FleetError::InvalidConfig`], and an incompatible or
    /// invalid snapshot ([`FleetSimulation::check_checkpoint`]) as
    /// [`FleetError::CorruptCheckpoint`].
    pub fn resume(
        &self,
        spec: &dyn UeSpec,
        cp: &FleetCheckpoint,
    ) -> Result<FleetResult, FleetError> {
        self.validate_planes()?;
        self.check_checkpoint(cp)?;
        let (out, cell_load) = self.resume_pass(spec, cp, None)?;
        debug_assert!(out.live.is_empty());
        let ids: Vec<u64> = out.outcomes.iter().map(|o| o.ue_id).collect();
        let result = assemble(out.outcomes, cell_load);
        self.apply_traffic(spec, &ids, cp.base_seed, result, out.traces)
    }

    /// Snapshot-vs-engine compatibility, run by every resume path before
    /// any worker starts: version + shape invariants
    /// ([`FleetCheckpoint::try_validate`]), the tracing plane, every
    /// live UE's per-cell lanes against this engine's layout, and the
    /// serving-cell traces against the layout — finished traces strictly
    /// ascending by UE id, and in every finished or live trace each
    /// change point names a layout cell, change steps strictly ascend
    /// below the trace's step count, and that count never passes the
    /// snapshot's step. The serving-load histogram must track exactly
    /// the layout's cells, in layout order. A forged lane, trace or
    /// histogram is rejected here instead of panicking a worker, the
    /// load merge or the traffic replay.
    pub fn check_checkpoint(&self, cp: &FleetCheckpoint) -> Result<(), CheckpointError> {
        cp.try_validate()?;
        let engine_tracing = self.tracing();
        if cp.tracing != engine_tracing {
            return Err(CheckpointError::PlaneMismatch {
                checkpoint_tracing: cp.tracing,
                engine_tracing,
            });
        }
        if !cp.finished_traces.windows(2).all(|w| w[0].ue_id < w[1].ue_id) {
            return Err(CheckpointError::ShapeMismatch(
                "finished traces are not strictly ascending by UE id".into(),
            ));
        }
        let layout_cells = self.config().layout.cells();
        let n_cells = layout_cells.len();
        if cp.cell_load.cells() != layout_cells || cp.cell_load.counts().len() != n_cells {
            return Err(CheckpointError::ShapeMismatch(format!(
                "the serving-load histogram does not track the {n_cells} layout cells in order"
            )));
        }
        // try_validate made every live UE's lanes as long as its
        // shadowing lane, which must have one slot per layout cell.
        if let Some(ue) = cp.live.iter().find(|ue| ue.engine.shadow.values.len() != n_cells) {
            let msg = format!("live UE {}: lanes do not fit the {n_cells}-cell layout", ue.ue_id);
            return Err(CheckpointError::ShapeMismatch(msg));
        }
        let finished = cp.finished_traces.iter().map(|t| (t.ue_id, t.steps, &t.changes));
        let live = cp.live.iter().map(|ue| (ue.ue_id, ue.trace_steps, &ue.trace_changes));
        for (ue_id, steps, changes) in finished.chain(live) {
            let bad = |what: String| {
                CheckpointError::ShapeMismatch(format!("trace of UE {ue_id}: {what}"))
            };
            if steps > cp.step {
                return Err(bad(format!("{steps} steps past the snapshot step {}", cp.step)));
            }
            if let Some(&(_, cell)) = changes.iter().find(|&&(_, c)| c as usize >= n_cells) {
                return Err(bad(format!("cell {cell} out of {n_cells} cells")));
            }
            let ascending = changes.windows(2).all(|w| w[0].0 < w[1].0);
            if !ascending || changes.last().is_some_and(|&(s, _)| s >= steps) {
                return Err(bad(format!(
                    "change steps are not strictly ascending below {steps}"
                )));
            }
        }
        Ok(())
    }

    /// The pass behind every resume: step `cp`'s live UEs (up to
    /// `max_steps`) and merge its finished halves and serving load back
    /// in, in UE-id order.
    fn resume_pass(
        &self,
        spec: &dyn UeSpec,
        cp: &FleetCheckpoint,
        max_steps: Option<u64>,
    ) -> Result<(Collected, CellLoadHistogram), FleetError> {
        let restored = PassSource::Restored(&cp.live, cp.step);
        let (out, out_load) =
            self.pass::<Collected>(spec, restored, cp.base_seed, None, max_steps)?;
        let finished = Collected {
            outcomes: cp.finished.clone(),
            traces: cp.finished_traces.clone(),
            live: Vec::new(),
        };
        let mut cell_load = cp.cell_load.clone();
        cell_load.merge(&out_load);
        Ok((Collected::merge(vec![finished, out]), cell_load))
    }

    /// Continue a snapshot up to a *later* step bound, producing the
    /// checkpoint [`FleetSimulation::run_partial`] would have produced
    /// at that bound directly — the segment primitive of
    /// [`FleetSimulation::run_supervised`]. Chaining
    /// `run_partial(c) → resume_partial(2c) → … → resume` is
    /// bit-identical to the uninterrupted run for any cadence and any
    /// worker/chunk shape on every segment (pinned by
    /// `tests/resilience_props.rs`). A bound at or before the
    /// snapshot's step returns the snapshot unchanged.
    pub fn resume_partial(
        &self,
        spec: &dyn UeSpec,
        cp: &FleetCheckpoint,
        max_steps: u64,
    ) -> Result<FleetCheckpoint, FleetError> {
        self.validate_planes()?;
        self.check_checkpoint(cp)?;
        if max_steps <= cp.step {
            return Ok(cp.clone());
        }
        let (out, cell_load) = self.resume_pass(spec, cp, Some(max_steps))?;
        Ok(FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            step: max_steps,
            base_seed: cp.base_seed,
            finished: out.outcomes,
            finished_traces: out.traces,
            live: out.live,
            cell_load,
            tracing: cp.tracing,
        })
    }

    /// Run UEs `0..n_ues` through the same pass as [`FleetSimulation::run`]
    /// with a folding sink: ids are generated lazily and every outcome
    /// folds into a running aggregate instead of the per-UE outcome
    /// vector — the memory-bounded path for million-UE fleets. Peak
    /// memory is `O(workers × chunk_size)` plus one `f64` per UE (its HD
    /// sum, kept for the id-ordered fold), and no `UEs × cells`
    /// structure ever exists (each worker holds one `cells × chunk`
    /// matrix).
    ///
    /// The returned [`FleetStreamSummary`] is bit-identical to the
    /// `summary`/`cell_load` of [`FleetSimulation::run`]: integer tallies
    /// commute, and the `f64` HD sum is re-folded in global UE-id order
    /// at the merge (UEs with no HD observations add a literal `+0.0`,
    /// which cannot change any bit of a non-negative sum).
    ///
    /// A traffic plane is rejected as [`FleetError::InvalidConfig`]:
    /// traces would rematerialize per-UE state, defeating the point —
    /// use [`FleetSimulation::run`] for traffic studies. A
    /// dynamic-workload plane is allowed: churn and BS failures act
    /// inside the engine loop and the streamed `summary`/`cell_load`
    /// stay bit-identical to [`FleetSimulation::run`] with the same
    /// dynamics, but no [`DynamicReport`] is produced (it is derived
    /// from traces) and tide/service classes — traffic-replay features —
    /// are inert here.
    pub fn run_streamed(
        &self,
        spec: &dyn UeSpec,
        n_ues: u64,
        base_seed: u64,
    ) -> Result<FleetStreamSummary, FleetError> {
        if self.traffic.is_some() {
            return Err(ConfigError::Unsupported {
                what: "traffic plane",
                by: "the streamed fleet path (its serving-cell traces would \
                     materialize per-UE state; use run/run_ids for traffic studies)",
            }
            .into());
        }
        self.validate_planes()?;
        let (folded, cell_load) =
            self.pass::<Folded>(spec, PassSource::Range(n_ues), base_seed, None, None)?;
        Ok(FleetStreamSummary { summary: folded.summary, cell_load })
    }

    /// The replay half of a run: derive the dynamic-workload report from
    /// the traces, replay them against the channel capacities, and, with
    /// load feedback on, rerun the fleet with the occupancy field
    /// injected. No-op without a traffic or dynamics plane.
    fn apply_traffic(
        &self,
        spec: &dyn UeSpec,
        ids: &[u64],
        base_seed: u64,
        mut result: FleetResult,
        mut traces: Vec<UeTrace>,
    ) -> Result<FleetResult, FleetError> {
        let Some(traffic) = &self.traffic else {
            if self.dynamics.is_some() {
                result.dynamics = Some(dynamic_report(&traces, &result.cell_load, None));
            }
            return Ok(result);
        };
        let cells = self.config().layout.cells();
        let none = DynamicsConfig::none();
        let dynamics = self.dynamics.as_ref().unwrap_or(&none);
        let replay = |traces: &[UeTrace]| replay_traffic(traffic, cells, traces, base_seed, dynamics);
        let (mut report, field, mut stats) = replay(&traces)?;
        if traffic.load_feedback {
            let field = Arc::new(field);
            let (fed, fed_load) =
                self.pass::<Collected>(spec, PassSource::Fresh(ids), base_seed, Some(&field), None)?;
            (report, _, stats) = replay(&fed.traces)?;
            result = assemble(fed.outcomes, fed_load);
            traces = fed.traces;
        }
        result.traffic = Some(report);
        if self.dynamics.is_some() {
            result.dynamics = Some(dynamic_report(&traces, &result.cell_load, Some(stats)));
        }
        Ok(result)
    }

    /// Whether this engine's passes record serving-cell traces: the
    /// traffic and dynamics planes replay them.
    fn tracing(&self) -> bool {
        self.traffic.is_some() || self.dynamics.is_some()
    }

    /// One fleet pass: the sharded parallel stepping, optionally
    /// injecting a frozen occupancy field (load-feedback pass), and
    /// optionally stopping at a lockstep step bound (checkpointing). UEs
    /// carry serving-cell traces when the engine's planes replay them and
    /// the sink keeps them. Worker `w` steps the `w`-th round-robin shard
    /// of `source`, cut lazily into chunks, into its own sink `S`; a
    /// worker panic surfaces as the lowest failing shard's
    /// [`FleetError::WorkerPanic`].
    fn pass<S: PassSink>(
        &self,
        spec: &dyn UeSpec,
        source: PassSource<'_>,
        base_seed: u64,
        load_field: Option<&Arc<LoadField>>,
        max_steps: Option<u64>,
    ) -> Result<(S, CellLoadHistogram), FleetError> {
        let n_ues = source.ue_count();
        let workers = self.workers.clamp(1, n_ues.max(1));
        let cells = self.config().layout.cells();
        let ctx = ChunkCtx {
            fleet: self,
            cfg: self.config(),
            spec,
            base_seed,
            load_field,
            max_steps,
            plan: self.candidate_mode.plan(cells.len()),
            tracing: S::KEEPS_TRACES && self.tracing(),
            churn: self.dynamics.as_ref().and_then(|d| d.churn.as_ref()),
            outages: self
                .dynamics
                .iter()
                .flat_map(|d| &d.failures)
                .map(|o| {
                    let idx = cells
                        .iter()
                        .position(|&c| c == o.cell)
                        // invariant: with_dynamics and validate_planes
                        // both check outage cells against the layout
                        // before any pass runs.
                        .expect("outage cell must be in the layout");
                    (idx, o.from_step, o.until_step)
                })
                .collect(),
        };
        let parts = shard::map_ordered(workers, workers, |w| {
            let mut arena = ChunkArena::new(cells.len());
            let mut load = CellLoadHistogram::new(cells.iter().copied());
            let mut sink = S::for_shard(workers, n_ues.saturating_sub(w).div_ceil(workers));
            let mut run_chunk = |chunk: ChunkUes<'_>, start_step: u64| {
                ctx.simulate_chunk(chunk, start_step, &mut arena, &mut load, &mut sink);
            };
            let size = self.chunk_size;
            match source {
                PassSource::Fresh(ids) => {
                    let shard = ids.iter().copied().skip(w).step_by(workers);
                    for_each_chunk(shard, size, |c| run_chunk(ChunkUes::Fresh(c), 0));
                }
                PassSource::Range(n) => {
                    let shard = (w as u64..n).step_by(workers);
                    for_each_chunk(shard, size, |c| run_chunk(ChunkUes::Fresh(c), 0));
                }
                PassSource::Restored(live, start_step) => {
                    let shard = live.iter().skip(w).step_by(workers);
                    for_each_chunk(shard, size, |c| run_chunk(ChunkUes::Restored(c), start_step));
                }
            }
            (sink, load)
        });
        if let Some(injector) = &self.fault {
            injector.end_pass();
        }

        let mut cell_load = CellLoadHistogram::new(cells.iter().copied());
        let mut sinks = Vec::with_capacity(workers);
        for part in parts {
            let (sink, load) = part.map_err(FleetError::WorkerPanic)?;
            cell_load.merge(&load);
            sinks.push(sink);
        }
        Ok((S::merge(sinks), cell_load))
    }
}

impl ChunkCtx<'_> {
    /// Step one chunk of UEs in lockstep from `start_step` (> 0 for
    /// restored UEs) until every UE has finished into `sink` or, at the
    /// pass's step bound, been suspended into it. Every step runs the
    /// phases in order: advance/retire, dense mean RSS, measure + outage
    /// + `decide_pre`, batched FLC, commit.
    fn simulate_chunk<S: PassSink>(
        &self,
        chunk: ChunkUes<'_>,
        start_step: u64,
        arena: &mut ChunkArena,
        load: &mut CellLoadHistogram,
        sink: &mut S,
    ) {
        let mut ues: Vec<LiveUe> = match chunk {
            ChunkUes::Fresh(ids) => {
                ids.iter().map(|&id| LiveUe::fresh(self, id, &mut arena.spare)).collect()
            }
            ChunkUes::Restored(live) => live.iter().map(|cp| LiveUe::restore(self, cp)).collect(),
        };
        // The chunk's shared FLC plan: when every pending fuzzy decision
        // runs on this plan (pointer-compared), the chunk evaluates them
        // through one `CompiledFis::evaluate_batch` call per step instead
        // of one virtual `decide` per UE. Controllers on other planes (a
        // custom per-UE FIS, the LUT/Sugeno ablations) fall back to their
        // own scalar path, so heterogeneous chunks stay correct.
        let flc_plan: Option<Arc<CompiledFis>> = ues
            .iter_mut()
            .find_map(|ue| ue.policy.as_fuzzy().and_then(|f| f.shared_plan().cloned()));

        let mut step = start_step;
        loop {
            // Chaos harness: fire any scripted stall/panic scheduled at
            // this lockstep step (every shard that gets there, used up
            // when the pass ends; see crate::resilience). `None` in
            // production — no cost.
            if let Some(injector) = &self.fleet.fault {
                injector.check_step(step);
            }
            if self.max_steps.is_some_and(|bound| step >= bound) {
                for ue in ues.drain(..) {
                    let (cp, state) = ue.suspend();
                    sink.suspend(cp);
                    arena.spare.push(state);
                }
                return;
            }
            let parked = self.advance(&mut ues, step, arena, sink);
            if arena.active.is_empty() {
                if parked == 0 {
                    return;
                }
                // Nothing is stepping yet but churned UEs are still due:
                // tick the lockstep clock without any engine work.
                step += 1;
                continue;
            }
            self.dense_means(step, arena);
            self.measure(&mut ues, step, flc_plan.as_ref(), arena);
            evaluate_flc(flc_plan.as_ref(), arena);
            self.commit(&mut ues, step, arena, load);
            step += 1;
        }
    }

    /// Phase 1 — advance every UE's trajectory cursor, collecting the
    /// active UEs' slots and points in the arena, and retire the UEs
    /// that just finished into `sink` (recycling their states). Returns
    /// how many UEs are parked ahead of their churn arrival.
    fn advance<S: PassSink>(
        &self,
        ues: &mut Vec<LiveUe>,
        step: u64,
        arena: &mut ChunkArena,
        sink: &mut S,
    ) -> usize {
        arena.active.clear();
        arena.points.clear();
        let mut parked = 0;
        let mut i = 0;
        while i < ues.len() {
            match ues[i].advance(step) {
                Advance::Parked => parked += 1,
                Advance::At(point) => {
                    arena.active.push(i);
                    arena.points.push(point);
                }
                Advance::Done => {
                    // The chunk's last UE, not yet advanced, takes slot
                    // `i` and is advanced next. Chunk order is free: every
                    // UE owns its RNG stream and the batched kernels are
                    // element-wise.
                    let (outcome, trace, state) = ues.swap_remove(i).finish(self.cfg);
                    sink.finish(outcome, trace);
                    arena.spare.push(state);
                    continue;
                }
            }
            i += 1;
        }
        parked
    }

    /// Phase 2 — the dense mode's batched mean RSS: one (BS × active
    /// UEs) pass per cell through the compiled link budget. The matrix
    /// is only resized when the active count changes; every slot is
    /// overwritten, so no zero-fill churn. The pruned modes compute
    /// their means per UE in [`ChunkCtx::measure`].
    fn dense_means(&self, step: u64, arena: &mut ChunkArena) {
        if !matches!(self.plan, PrunePlan::Dense) {
            return;
        }
        // Chaos harness: a scripted allocation failure in the arena grow
        // path fires here, where the dense matrix is about to be resized.
        if let Some(injector) = &self.fleet.fault {
            injector.check_arena_grow(step);
        }
        let ChunkArena { points, positions, rss_matrix, .. } = arena;
        positions.clear();
        positions.extend(points.iter().map(|p| p.pos));
        let a = positions.len();
        let sim = &self.fleet.sim;
        rss_matrix.resize(sim.bs_positions().len() * a, 0.0);
        for (k, &bs_pos) in sim.bs_positions().iter().enumerate() {
            sim.compiled_radio().received_power_dbm_batch(
                bs_pos,
                positions,
                &mut rss_matrix[k * a..(k + 1) * a],
            );
        }
    }

    /// Phase 3 — measure every active UE (RNG, fading, noise), apply the
    /// BS-failure plane, and run the batchable front half of its policy,
    /// queueing the chunk's outstanding FLC inputs for
    /// [`evaluate_flc`].
    fn measure(
        &self,
        ues: &mut [LiveUe],
        step: u64,
        flc_plan: Option<&Arc<CompiledFis>>,
        arena: &mut ChunkArena,
    ) {
        let down = self.outage_mask(step, &mut arena.down);
        let candidates = self.fleet.sim.candidates();
        let a = arena.active.len();
        arena.reports.clear();
        arena.pending.clear();
        arena.batch_inputs.clear();
        arena.batch_prev.clear();
        for (j, &i) in arena.active.iter().enumerate() {
            let (ue, point) = (&mut ues[i], arena.points[j]);
            let means = &mut arena.means;
            let mut report = match self.plan {
                PrunePlan::Dense => {
                    for (k, slot) in means.iter_mut().enumerate() {
                        *slot = arena.rss_matrix[k * a + j];
                    }
                    ue.state.begin_step_fused(self.cfg, candidates, means, point, &mut arena.rng_scratch)
                }
                PrunePlan::Pruned { k, edge_margin_db } => {
                    let subset = &mut arena.subset;
                    self.measure_pruned(&mut ue.state, point, k, edge_margin_db, means, subset)
                }
            };
            let forced = down.and_then(|down| self.outage_decision(ue, &mut report, point, down));
            arena.pending.push(match forced {
                Some(decision) => StepPending::Decided(decision),
                None => decide_pre(
                    ue.policy.as_mut(),
                    &report,
                    flc_plan,
                    &mut arena.batch_inputs,
                    &mut arena.batch_prev,
                ),
            });
            arena.reports.push(report);
        }
    }

    /// One pruned-mode measurement. The decision inputs — the serving
    /// cell and its candidate table — are always measured exactly. An
    /// edge UE (every UE under [`CandidateMode::Nearest`]) also measures
    /// its `k` index-nearest cells; the edge classification runs on
    /// deterministic means (no RNG), so interior UEs skip that sweep.
    fn measure_pruned(
        &self,
        state: &mut UeState,
        point: TracePoint,
        k: usize,
        edge_margin_db: Option<f64>,
        means: &mut [f64],
        subset: &mut Vec<u32>,
    ) -> MeasurementReport {
        let sim = &self.fleet.sim;
        let pos = point.pos;
        let mean_at = |slot: usize| sim.compiled_radio().received_power_dbm(sim.bs_positions()[slot], pos);
        let serving = state.serving_index();
        let cands = sim.candidates().of(serving);
        means[serving] = mean_at(serving);
        let mut best = f64::NEG_INFINITY;
        for &cand in cands {
            let m = mean_at(cand);
            means[cand] = m;
            best = best.max(m);
        }
        let is_edge = edge_margin_db.map_or(true, |margin| means[serving] - best <= margin);
        subset.clear();
        if is_edge {
            let nearest = sim.neighbor_index().nearest(pos, k);
            for &slot in nearest {
                let slot = slot as usize;
                if slot != serving && !cands.contains(&slot) {
                    means[slot] = mean_at(slot);
                }
            }
            // The subset order is the shadowing/noise draw order: the
            // k-nearest cells come first.
            subset.extend_from_slice(nearest);
        }
        for cell in std::iter::once(serving).chain(cands.iter().copied()) {
            let cell = cell_index_u32(cell);
            if !subset.contains(&cell) {
                subset.push(cell);
            }
        }
        state.begin_step_pruned(self.cfg, sim.candidates(), means, point, subset)
    }

    /// The BS-failure mask of `step`, or `None` when no outage window
    /// covers it (the common case costs one scan of the tiny outage
    /// list; the static path has none).
    fn outage_mask<'m>(&self, step: u64, mask: &'m mut [bool]) -> Option<&'m [bool]> {
        let covers = |&(_, from, until): &(usize, u64, u64)| from <= step && step < until;
        if !self.outages.iter().any(covers) {
            return None;
        }
        mask.fill(false);
        for &(cell, _, _) in self.outages.iter().filter(|o| covers(o)) {
            mask[cell] = true;
        }
        Some(mask)
    }

    /// The BS-failure plane's override of one step: with the serving
    /// cell down the UE is force-evicted onto the strongest live
    /// candidate (hd 1.0, the forced-decision convention the baselines
    /// use) without consulting its policy; with any candidate down the
    /// neighbour in `report` is re-picked among live cells so no policy
    /// ever hands over to a dead BS. No live target ⇒ forced stay.
    fn outage_decision(
        &self,
        ue: &LiveUe,
        report: &mut MeasurementReport,
        point: TracePoint,
        down: &[bool],
    ) -> Option<Decision> {
        let candidates = self.fleet.sim.candidates();
        let serving = ue.state.serving_index();
        let serving_down = down[serving];
        if !serving_down && !candidates.of(serving).iter().any(|&k| down[k]) {
            return None;
        }
        match ue.state.report_excluding(self.cfg, candidates, point, down) {
            Some(live) => {
                *report = live;
                serving_down.then_some(Decision::Handover { target: report.neighbor, hd: 1.0 })
            }
            None => Some(Decision::Stay(StayReason::ConditionNotMet)),
        }
    }

    /// Phase 5 — resolve every pending decision (with the batched HD
    /// where one was queued) and commit the step: handover, load, trace
    /// and tallies.
    fn commit(
        &self,
        ues: &mut [LiveUe],
        step: u64,
        arena: &ChunkArena,
        load: &mut CellLoadHistogram,
    ) {
        for (j, &i) in arena.active.iter().enumerate() {
            let ue = &mut ues[i];
            let (report, point) = (&arena.reports[j], arena.points[j]);
            let decision = match arena.pending[j] {
                StepPending::Decided(decision) => decision,
                StepPending::AwaitHd(k) => {
                    // invariant: only fuzzy policies queue FLC entries.
                    let fuzzy = ue.policy.as_fuzzy().expect("pending FLC entries are fuzzy");
                    fuzzy.decide_with_hd(report, arena.batch_hd[k], arena.batch_prev[k])
                }
            };
            let outcome =
                ue.state.finish_step(self.cfg, report, decision, point, ue.policy.as_mut());
            load.record_index(outcome.serving_after_idx);
            ue.record(step, &outcome, point);
        }
    }
}

/// The front half of one UE's decision: resolved outright, or its FLC
/// inputs queued for the chunk's batched evaluation when the policy runs
/// on the chunk's shared plan. Policies on other planes
/// (LUT/Sugeno/custom FIS) evaluate through the controller itself.
fn decide_pre(
    policy: &mut (dyn HandoverPolicy + Send),
    report: &MeasurementReport,
    flc_plan: Option<&Arc<CompiledFis>>,
    batch_inputs: &mut Vec<f64>,
    batch_prev: &mut Vec<Option<f64>>,
) -> StepPending {
    let Some(fuzzy) = policy.as_fuzzy() else {
        return StepPending::Decided(policy.decide(report));
    };
    match fuzzy.decide_pre(report) {
        FlcStage::Resolved(decision) => StepPending::Decided(decision),
        FlcStage::NeedsHd { inputs, prev_serving_rss } => {
            let batchable = match (flc_plan, fuzzy.shared_plan()) {
                (Some(chunk), Some(own)) => Arc::ptr_eq(chunk, own),
                _ => false,
            };
            if batchable {
                batch_inputs.extend(inputs.as_array());
                batch_prev.push(prev_serving_rss);
                StepPending::AwaitHd(batch_prev.len() - 1)
            } else {
                let hd = fuzzy.evaluate_hd(&inputs);
                StepPending::Decided(fuzzy.decide_with_hd(report, hd, prev_serving_rss))
            }
        }
    }
}

/// Phase 4 — one batched FLC evaluation for every HD the chunk queued
/// this step.
fn evaluate_flc(flc_plan: Option<&Arc<CompiledFis>>, arena: &mut ChunkArena) {
    if arena.batch_prev.is_empty() {
        return;
    }
    // invariant: AwaitHd entries are only queued when the policy's
    // shared plan pointer-equals the chunk's plan.
    let fis = flc_plan.expect("batched entries imply a chunk plan");
    arena.batch_hd.clear();
    arena.batch_hd.resize(arena.batch_prev.len(), 0.0);
    fis.evaluate_batch(&arena.batch_inputs, &mut arena.batch_hd, &mut arena.flc_scratch)
        // invariant: the paper rule base covers the whole input space, so
        // batched evaluation cannot fail on in-range inputs.
        .expect("the paper FLC fires on every input");
}

/// Narrow a layout cell index to the `u32` the pruned-subset buffers
/// and trace change points store. Upstream invariant: cell indices come
/// from `CellLayout`, whose construction is quadratic in the ring
/// radius and exhausts memory long before `u32::MAX` cells — so the
/// cast can never truncate for an engine-built layout. A violated
/// invariant fails loudly here instead of silently wrapping.
#[inline]
fn cell_index_u32(idx: usize) -> u32 {
    debug_assert!(u32::try_from(idx).is_ok(), "cell index {idx} exceeds u32 range");
    idx as u32
}

/// Assemble a [`FleetResult`] from id-sorted outcomes: the summary is
/// folded in UE-id order (the `f64` determinism contract), traffic is
/// left for [`FleetSimulation::apply_traffic`].
fn assemble(outcomes: Vec<UeOutcome>, cell_load: CellLoadHistogram) -> FleetResult {
    let mut summary = FleetSummary::default();
    for o in &outcomes {
        summary.absorb(&o.summary());
    }
    FleetResult { outcomes, cell_load, summary, traffic: None, dynamics: None }
}

/// Derive the [`DynamicReport`] of a run from its id-sorted traces and
/// serving-load histogram: the concurrent-population timeline (a
/// difference array over `[arrival, departure)` presence windows), the
/// Jain fairness of the per-cell serving load, and the dwell-time
/// percentiles between consecutive serving-cell changes. Everything is
/// a fold over sorted traces, so the report inherits the fleet's
/// worker/chunk/submission-order invariance.
fn dynamic_report(
    traces: &[UeTrace],
    cell_load: &CellLoadHistogram,
    traffic: Option<DynamicTrafficStats>,
) -> DynamicReport {
    let timeline = traces.iter().map(|t| t.steps).max().unwrap_or(0);
    let mut arrivals = 0u64;
    let mut departures = 0u64;
    let mut diff = vec![0i64; timeline as usize + 1];
    let mut dwells: Vec<u64> = Vec::new();
    for trace in traces {
        let Some(&(arrival, _)) = trace.changes.first() else {
            continue;
        };
        if arrival > 0 {
            arrivals += 1;
        }
        if trace.steps < timeline {
            departures += 1;
        }
        // invariant: engine-built traces record change points strictly
        // below `trace.steps`, and `timeline` is the max of all
        // `trace.steps` — both indices land inside `diff`
        // (len `timeline + 1`). A malformed (hand-built or foreign)
        // trace fails loudly in debug and is skipped in release rather
        // than panicking or silently corrupting the timeline.
        let a = arrival as usize;
        let e = trace.steps as usize;
        debug_assert!(
            arrival < trace.steps && trace.steps <= timeline,
            "malformed UeTrace: change at step {arrival} of {} steps (timeline {timeline})",
            trace.steps
        );
        if a >= diff.len() || e >= diff.len() || a > e {
            continue;
        }
        diff[a] += 1;
        diff[e] -= 1;
        for w in trace.changes.windows(2) {
            dwells.push(w[1].0 - w[0].0);
        }
    }
    let mut pop = 0i64;
    let mut peak = 0u64;
    let mut pop_steps = 0u64;
    for &d in diff.iter().take(timeline as usize) {
        pop += d;
        peak = peak.max(pop as u64);
        pop_steps += pop as u64;
    }
    let shares: Vec<f64> = cell_load.iter().map(|(_, n)| n as f64).collect();
    dwells.sort_unstable();
    DynamicReport {
        timeline_steps: timeline,
        arrivals,
        departures,
        mean_population: if timeline == 0 { 0.0 } else { pop_steps as f64 / timeline as f64 },
        peak_population: peak,
        jain_cell_load: jain_index(&shares),
        ho_dwell: LatencyPercentiles::from_sorted(&dwells),
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use radiolink::{MeasurementNoise, ShadowingConfig};

    fn noisy_config() -> SimConfig {
        let mut cfg = SimConfig::paper_default();
        cfg.shadowing = ShadowingConfig { sigma_db: 4.0, decorrelation_km: 0.05 };
        cfg.noise = MeasurementNoise::new(1.0);
        cfg.sample_spacing_km = 0.2;
        cfg
    }

    fn fuzzy_walk_spec(trajectory_seed: u64) -> HomogeneousFleet {
        HomogeneousFleet {
            mobility: FleetMobility::RandomWalk(RandomWalk::paper_default(6)),
            policy: PolicyKind::Fuzzy,
            trajectory_seed,
            cell_radius_km: 2.0,
        }
    }

    fn demo_traffic() -> TrafficConfig {
        TrafficConfig {
            channels_per_cell: 4,
            guard_channels: 1,
            mean_idle_steps: 6.0,
            mean_holding_steps: 4.0,
            load_feedback: false,
        }
    }

    #[test]
    fn ue_zero_uses_the_base_seed() {
        assert_eq!(ue_seed(42, 0), 42);
        assert_ne!(ue_seed(42, 1), 43, "later UEs stride, not increment");
        let spread: std::collections::HashSet<u64> = (0..1000).map(|i| ue_seed(7, i)).collect();
        assert_eq!(spread.len(), 1000, "per-UE seeds are distinct");
    }

    #[test]
    fn trajectory_and_measurement_streams_are_domain_separated() {
        // Passing the same value as trajectory_seed and base_seed must
        // not hand one RNG stream to two consumers: the trajectory of
        // UE 0 is drawn from the masked stream, not from seed 42 itself.
        let spec = fuzzy_walk_spec(42);
        let from_spec = spec.trajectory(0);
        let unmasked = spec
            .mobility
            .generate(&mut StdRng::seed_from_u64(42));
        assert_ne!(from_spec, unmasked, "trajectory stream must be masked");
        let masked = spec
            .mobility
            .generate(&mut StdRng::seed_from_u64(ue_seed(42 ^ TRAJECTORY_STREAM, 0)));
        assert_eq!(from_spec, masked, "mask contract is pinned");
    }

    #[test]
    fn one_ue_fleet_matches_single_run_bit_for_bit() {
        let cfg = noisy_config();
        let make = || -> Box<dyn HandoverPolicy + Send> { PolicyKind::Fuzzy.build(2.0) };
        let walk = RandomWalk::paper_default(8).generate(&mut StdRng::seed_from_u64(11));
        let spec = SingleUe { trajectory: walk.clone(), make_policy: make };

        let fleet = FleetSimulation::new(cfg.clone());
        let result = fleet.run(&spec, 1, 77);

        let sim = Simulation::new(cfg.clone());
        let mut policy = PolicyKind::Fuzzy.build(2.0);
        let reference = sim.run(&walk, policy.as_mut(), 77);
        let expected = UeOutcome::from_sim_result(0, &reference, cfg.pingpong_window_steps);

        assert_eq!(result.outcomes.len(), 1);
        assert_eq!(result.outcomes[0], expected);
        assert_eq!(result.outcomes[0].hd_sum.to_bits(), expected.hd_sum.to_bits());
        assert_eq!(result.summary.steps, expected.steps);
    }

    #[test]
    fn worker_count_and_chunk_size_do_not_change_results() {
        let spec = fuzzy_walk_spec(5);
        let reference = FleetSimulation::new(noisy_config()).run(&spec, 40, 9);
        for workers in [2, 3, 8] {
            for chunk in [1, 7, 64] {
                let got = FleetSimulation::new(noisy_config())
                    .with_workers(workers)
                    .with_chunk_size(chunk)
                    .run(&spec, 40, 9);
                assert_eq!(reference, got, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn ue_submission_order_does_not_change_results() {
        let spec = fuzzy_walk_spec(3);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2).with_chunk_size(4);
        let forward: Vec<u64> = (0..30).collect();
        let mut shuffled = forward.clone();
        shuffled.reverse();
        shuffled.swap(3, 17);
        shuffled.rotate_left(11);
        assert_eq!(fleet.run_ids(&spec, &forward, 4), fleet.run_ids(&spec, &shuffled, 4));
    }

    #[test]
    fn fleet_reruns_are_deterministic_and_seeds_matter() {
        let spec = fuzzy_walk_spec(1);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(4);
        let a = fleet.run(&spec, 25, 100);
        let b = fleet.run(&spec, 25, 100);
        let c = fleet.run(&spec, 25, 101);
        assert_eq!(a, b);
        assert_ne!(a, c, "the measurement base seed reaches every UE");
    }

    #[test]
    fn cell_load_accounts_every_ue_step() {
        let spec = fuzzy_walk_spec(2);
        let result = FleetSimulation::new(noisy_config()).with_workers(3).run(&spec, 50, 8);
        let total_steps: u64 = result.outcomes.iter().map(|o| o.steps).sum();
        assert_eq!(result.cell_load.total(), total_steps);
        assert_eq!(result.summary.steps, total_steps);
        assert_eq!(result.summary.ues, 50);
        assert!(result.cell_load.peak().1 > 0, "someone served someone");
        // Walks start at the origin BS, so the origin cell dominates.
        assert_eq!(result.cell_load.peak().0, Axial::ORIGIN);
    }

    #[test]
    fn outcomes_are_sorted_by_ue_id() {
        let spec = fuzzy_walk_spec(6);
        let result = FleetSimulation::new(noisy_config()).with_workers(5).run(&spec, 23, 1);
        let ids: Vec<u64> = result.outcomes.iter().map(|o| o.ue_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), 23);
    }

    #[test]
    fn empty_fleet_is_a_benign_no_op() {
        let spec = fuzzy_walk_spec(0);
        let result = FleetSimulation::new(noisy_config()).run(&spec, 0, 0);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.summary, FleetSummary::default());
        assert_eq!(result.cell_load.total(), 0);
    }

    #[test]
    fn hd_free_fleets_report_no_mean_hd() {
        // A threshold so deep it never fires: no handovers, no FLC
        // outputs — mean HD must be None, not NaN.
        let spec = HomogeneousFleet {
            policy: PolicyKind::Threshold { threshold_dbm: -500.0 },
            ..fuzzy_walk_spec(4)
        };
        let result = FleetSimulation::new(noisy_config()).run(&spec, 10, 2);
        assert_eq!(result.summary.handovers, 0);
        assert_eq!(result.summary.mean_hd(), None, "no FLC data is None, never NaN");
        assert!(result.summary.steps > 0);
        let json = serde_json::to_string(&result.summary).unwrap();
        assert!(!json.contains("NaN") && !json.contains("null"), "{json}");
    }

    #[test]
    fn fuzzy_fleet_pings_pongs_less_than_zero_margin_hysteresis() {
        let fuzzy = fuzzy_walk_spec(12);
        let naive = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 0.0 },
            ..fuzzy
        };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(4);
        let f = fleet.run(&fuzzy, 60, 5).summary;
        let n = fleet.run(&naive, 60, 5).summary;
        assert!(
            f.handovers < n.handovers,
            "fuzzy ({}) hands over less than naive ({})",
            f.handovers,
            n.handovers
        );
        assert!(f.ping_pong_ratio() <= n.ping_pong_ratio());
    }

    #[test]
    fn single_point_trajectories_take_exactly_one_step() {
        // A fleet of pinned UEs (zero-length walks): one measurement
        // step each, no handovers, all load on the origin cell.
        let make = || -> Box<dyn HandoverPolicy + Send> { PolicyKind::Fuzzy.build(2.0) };
        let spec = SingleUe {
            trajectory: Trajectory::new(vec![cellgeom::Vec2::new(0.2, 0.1)]),
            make_policy: make,
        };
        let result = FleetSimulation::new(noisy_config()).with_workers(2).run(&spec, 12, 1);
        assert_eq!(result.summary.steps, 12);
        assert_eq!(result.summary.handovers, 0);
        assert_eq!(result.cell_load.count(Axial::ORIGIN), 12);
        for o in &result.outcomes {
            assert_eq!(o.steps, 1);
            assert_eq!(o.travelled_km, 0.0);
            assert_eq!(o.final_serving, Axial::ORIGIN);
        }
    }

    #[test]
    fn lut_policy_fleet_tracks_the_exact_fuzzy_fleet() {
        // The fuzzy-lut ablation runs the same POTLC/PRTLC gates around a
        // trilinear HD approximation: fleet-level metrics must land close
        // to the exact controller (identical up to decisions whose exact
        // HD sits within the LUT error of the 0.7 threshold).
        let exact_spec = fuzzy_walk_spec(12);
        let lut_spec = HomogeneousFleet { policy: PolicyKind::FuzzyLut, ..exact_spec };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(3);
        let exact = fleet.run(&exact_spec, 40, 5).summary;
        let lut = fleet.run(&lut_spec, 40, 5).summary;
        assert_eq!(exact.steps, lut.steps, "gates and walks are identical");
        let per_ue_gap =
            (exact.handovers as f64 - lut.handovers as f64).abs() / exact.ues as f64;
        assert!(
            per_ue_gap < 0.5,
            "LUT fleet diverged: {} vs {} handovers",
            exact.handovers,
            lut.handovers
        );
        assert!(lut.mean_hd().is_some(), "the LUT plane still reports HD values");
    }

    #[test]
    fn mixed_plane_chunks_batch_only_the_shared_plan() {
        // A chunk mixing exact-plan, LUT-plan and baseline policies must
        // step every UE correctly: each UE's outcome equals the homogeneous
        // fleet outcome of its own policy (UE results are independent, so
        // mixing must not perturb them).
        struct Mixed;
        impl UeSpec for Mixed {
            fn trajectory(&self, ue_id: u64) -> Trajectory {
                fuzzy_walk_spec(7).trajectory(ue_id)
            }
            fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
                match ue_id % 3 {
                    0 => PolicyKind::Fuzzy.build(2.0),
                    1 => PolicyKind::FuzzyLut.build(2.0),
                    _ => PolicyKind::Hysteresis { margin_db: 4.0 }.build(2.0),
                }
            }
        }
        struct Uniform(PolicyKind);
        impl UeSpec for Uniform {
            fn trajectory(&self, ue_id: u64) -> Trajectory {
                fuzzy_walk_spec(7).trajectory(ue_id)
            }
            fn policy(&self, _ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
                self.0.build(2.0)
            }
        }
        let fleet = FleetSimulation::new(noisy_config()).with_chunk_size(6);
        let mixed = fleet.run(&Mixed, 18, 9);
        for (kind, residue) in [
            (PolicyKind::Fuzzy, 0),
            (PolicyKind::FuzzyLut, 1),
            (PolicyKind::Hysteresis { margin_db: 4.0 }, 2),
        ] {
            let uniform = fleet.run(&Uniform(kind), 18, 9);
            for (m, u) in mixed.outcomes.iter().zip(&uniform.outcomes) {
                if m.ue_id % 3 == residue {
                    assert_eq!(m, u, "{} UE {} drifted in the mixed chunk", kind.label(), m.ue_id);
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let spec = fuzzy_walk_spec(9);
        let result = FleetSimulation::new(noisy_config()).run(&spec, 3, 6);
        let back: FleetResult =
            serde_json::from_str(&serde_json::to_string(&result).unwrap()).unwrap();
        assert_eq!(result, back);
    }

    #[test]
    fn passive_traffic_plane_never_perturbs_the_fleet() {
        // The traffic plane is observational: with load_feedback off,
        // outcomes / summary / cell load are bit-identical to the
        // traffic-free run, and only `traffic` is added.
        let spec = fuzzy_walk_spec(21);
        let bare = FleetSimulation::new(noisy_config()).with_workers(3).run(&spec, 30, 7);
        let traffic = FleetSimulation::new(noisy_config())
            .with_workers(3)
            .with_traffic(demo_traffic())
            .run(&spec, 30, 7);
        assert_eq!(bare.outcomes, traffic.outcomes);
        assert_eq!(bare.summary, traffic.summary);
        assert_eq!(bare.cell_load, traffic.cell_load);
        assert_eq!(bare.traffic, None);
        let report = traffic.traffic.expect("traffic plane ran");
        assert_eq!(report.steps, bare.outcomes.iter().map(|o| o.steps).max().unwrap());
        assert!(report.offered_calls > 0, "30 UEs at 0.4 E each must dial");
        assert_eq!(report.offered_calls, report.carried_calls + report.blocked_calls);
    }

    #[test]
    fn traffic_report_is_worker_and_chunk_invariant() {
        let spec = fuzzy_walk_spec(13);
        let reference = FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .run(&spec, 40, 3);
        for (workers, chunk) in [(2, 1), (3, 7), (8, 64)] {
            let got = FleetSimulation::new(noisy_config())
                .with_traffic(demo_traffic())
                .with_workers(workers)
                .with_chunk_size(chunk)
                .run(&spec, 40, 3);
            assert_eq!(reference, got, "workers={workers} chunk={chunk}");
        }
    }

    #[test]
    fn load_feedback_changes_load_aware_decisions_only() {
        // A congested plane with a load-aware policy: the feedback pass
        // must shift decisions (the whole point), while a load-blind
        // policy under the same feedback flag stays bit-identical (the
        // field reaches it but its hook is a no-op).
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let aware = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(12)
        };
        let blind = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 4.0 },
            ..fuzzy_walk_spec(12)
        };
        let passive = TrafficConfig { load_feedback: false, ..congested };

        let fed_aware = FleetSimulation::new(noisy_config())
            .with_traffic(congested)
            .run(&aware, 60, 5);
        let passive_aware = FleetSimulation::new(noisy_config())
            .with_traffic(passive)
            .run(&aware, 60, 5);
        assert_ne!(
            fed_aware.outcomes, passive_aware.outcomes,
            "occupancy feedback must reach load-aware decisions"
        );

        let fed_blind = FleetSimulation::new(noisy_config())
            .with_traffic(congested)
            .run(&blind, 60, 5);
        let passive_blind = FleetSimulation::new(noisy_config())
            .with_traffic(passive)
            .run(&blind, 60, 5);
        assert_eq!(
            fed_blind.outcomes, passive_blind.outcomes,
            "load-blind policies ignore the field"
        );
    }

    #[test]
    fn load_hysteresis_without_traffic_matches_plain_hysteresis() {
        let aware = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(8)
        };
        let plain = HomogeneousFleet {
            policy: PolicyKind::Hysteresis { margin_db: 4.0 },
            ..fuzzy_walk_spec(8)
        };
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2);
        assert_eq!(
            fleet.run(&aware, 25, 4).outcomes,
            fleet.run(&plain, 25, 4).outcomes,
            "no field ⇒ the bias never engages"
        );
    }

    #[test]
    fn traffic_feedback_runs_are_deterministic() {
        let spec = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 8.0 },
            ..fuzzy_walk_spec(2)
        };
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let mk = |workers| {
            FleetSimulation::new(noisy_config())
                .with_traffic(congested)
                .with_workers(workers)
                .run(&spec, 30, 9)
        };
        let a = mk(1);
        assert_eq!(a, mk(1));
        assert_eq!(a, mk(4), "feedback passes stay worker-invariant");
        assert!(a.traffic.is_some());
    }

    #[test]
    fn all_four_mobility_models_run() {
        for mobility in FleetMobility::standard_four(5) {
            let spec = HomogeneousFleet {
                mobility,
                policy: PolicyKind::Fuzzy,
                trajectory_seed: 2,
                cell_radius_km: 2.0,
            };
            let result = FleetSimulation::new(noisy_config()).run(&spec, 8, 3);
            assert_eq!(result.outcomes.len(), 8, "{}", mobility.label());
            assert!(result.summary.steps > 0, "{}", mobility.label());
        }
    }

    struct PanickingPolicy;
    impl HandoverPolicy for PanickingPolicy {
        fn decide(&mut self, _report: &MeasurementReport) -> Decision {
            panic!("policy exploded on purpose");
        }
        fn notify_handover(&mut self, _new_serving: Axial) {}
        fn name(&self) -> &'static str {
            "panicking"
        }
    }

    fn panicking_spec() -> impl UeSpec {
        SingleUe {
            trajectory: RandomWalk::paper_default(4).generate(&mut StdRng::seed_from_u64(3)),
            make_policy: || Box::new(PanickingPolicy) as Box<dyn HandoverPolicy + Send>,
        }
    }

    #[test]
    fn worker_panics_surface_as_fleet_errors() {
        let err = FleetSimulation::new(noisy_config())
            .with_workers(2)
            .try_run(&panicking_spec(), 4, 1)
            .unwrap_err();
        match err {
            FleetError::WorkerPanic(msg) => {
                assert!(msg.contains("on purpose"), "original panic message is preserved: {msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// Panics with its own UE id; UE 0 sleeps first, so under a
    /// first-come merge a later shard's panic would usually win.
    struct IdPanicPolicy(u64);
    impl HandoverPolicy for IdPanicPolicy {
        fn decide(&mut self, _report: &MeasurementReport) -> Decision {
            if self.0 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            panic!("ue {}", self.0);
        }
        fn notify_handover(&mut self, _new_serving: Axial) {}
        fn name(&self) -> &'static str {
            "id-panic"
        }
    }

    #[test]
    fn worker_failures_report_the_lowest_failing_shard() {
        struct IdPanics;
        impl UeSpec for IdPanics {
            fn trajectory(&self, ue_id: u64) -> Trajectory {
                fuzzy_walk_spec(3).trajectory(ue_id)
            }
            fn policy(&self, ue_id: u64) -> Box<dyn HandoverPolicy + Send> {
                Box::new(IdPanicPolicy(ue_id))
            }
        }
        let fleet = FleetSimulation::new(noisy_config()).with_workers(3);
        for attempt in 0..5 {
            let err = fleet.try_run(&IdPanics, 6, 1).unwrap_err();
            assert_eq!(err, FleetError::WorkerPanic("ue 0".into()), "attempt {attempt}");
            let err = fleet.run_streamed(&IdPanics, 6, 1).unwrap_err();
            assert_eq!(err, FleetError::WorkerPanic("ue 0".into()), "streamed attempt {attempt}");
        }
    }

    #[test]
    #[should_panic(expected = "on purpose")]
    fn run_panics_on_worker_panic() {
        let _ = FleetSimulation::new(noisy_config()).run(&panicking_spec(), 2, 1);
    }

    #[test]
    fn try_run_matches_run() {
        let spec = fuzzy_walk_spec(5);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2);
        assert_eq!(fleet.try_run(&spec, 12, 3).unwrap(), fleet.run(&spec, 12, 3));
    }

    #[test]
    fn edge_set_with_infinite_margin_matches_nearest_bit_for_bit() {
        // Every UE classifies as edge ⇒ identical candidate subsets,
        // identical RNG draw allocation, identical everything.
        let spec = fuzzy_walk_spec(7);
        let nearest = FleetSimulation::new(noisy_config())
            .with_candidate_mode(CandidateMode::Nearest(9))
            .run(&spec, 30, 4);
        let edge = FleetSimulation::new(noisy_config())
            .with_candidate_mode(CandidateMode::EdgeSet { k: 9, margin_db: f64::INFINITY })
            .run(&spec, 30, 4);
        assert_eq!(nearest, edge);
    }

    #[test]
    fn edge_set_interior_fast_path_is_deterministic_and_sane() {
        let spec = fuzzy_walk_spec(7);
        let mode = CandidateMode::EdgeSet { k: 9, margin_db: 6.0 };
        let reference =
            FleetSimulation::new(noisy_config()).with_candidate_mode(mode).run(&spec, 30, 4);
        for (workers, chunk) in [(2, 5), (4, 64)] {
            let got = FleetSimulation::new(noisy_config())
                .with_candidate_mode(mode)
                .with_workers(workers)
                .with_chunk_size(chunk)
                .run(&spec, 30, 4);
            assert_eq!(reference, got, "workers={workers} chunk={chunk}");
        }
        let dense = FleetSimulation::new(noisy_config()).run(&spec, 30, 4);
        assert_eq!(reference.summary.steps, dense.summary.steps, "same walks, same steps");
        assert!(reference.summary.handovers > 0, "edge UEs still hand over");
    }

    #[test]
    fn checkpoint_resume_reproduces_the_uninterrupted_run() {
        let spec = fuzzy_walk_spec(11);
        let fleet = FleetSimulation::new(noisy_config()).with_workers(2).with_chunk_size(5);
        let ids: Vec<u64> = (0..20).collect();
        let full = fleet.run_ids(&spec, &ids, 6);
        // Bounds before, inside and past every walk (10_000 ⇒ the
        // snapshot holds only finished UEs).
        for k in [0, 1, 5, 13, 10_000] {
            let cp = fleet.run_partial(&spec, &ids, 6, k).unwrap();
            assert_eq!(cp.ue_count(), ids.len(), "snapshot at step {k} covers the fleet");
            let resumed = fleet.resume(&spec, &cp).unwrap();
            assert_eq!(full, resumed, "snapshot at step {k}");
            for (a, b) in full.outcomes.iter().zip(&resumed.outcomes) {
                assert_eq!(
                    a.hd_sum.to_bits(),
                    b.hd_sum.to_bits(),
                    "step {k} UE {} HD stream drifted",
                    a.ue_id
                );
            }
        }
    }

    #[test]
    fn checkpoint_is_worker_and_chunk_invariant() {
        let spec = fuzzy_walk_spec(3);
        let ids: Vec<u64> = (0..15).collect();
        let reference =
            FleetSimulation::new(noisy_config()).run_partial(&spec, &ids, 2, 4).unwrap();
        for (workers, chunk) in [(2, 1), (3, 7), (8, 64)] {
            let cp = FleetSimulation::new(noisy_config())
                .with_workers(workers)
                .with_chunk_size(chunk)
                .run_partial(&spec, &ids, 2, 4)
                .unwrap();
            assert_eq!(reference, cp, "workers={workers} chunk={chunk}");
        }
        // And the resume side is free to use a different pool shape.
        let full = FleetSimulation::new(noisy_config()).run_ids(&spec, &ids, 2);
        let resumed = FleetSimulation::new(noisy_config())
            .with_workers(5)
            .with_chunk_size(3)
            .resume(&spec, &reference)
            .unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn traffic_checkpoint_resumes_bit_identically() {
        let spec = fuzzy_walk_spec(21);
        let mk = || FleetSimulation::new(noisy_config()).with_workers(3).with_traffic(demo_traffic());
        let ids: Vec<u64> = (0..30).collect();
        let full = mk().run_ids(&spec, &ids, 7);
        let cp = mk().run_partial(&spec, &ids, 7, 6).unwrap();
        assert!(cp.tracing, "traffic engines checkpoint their traces");
        let resumed = mk().resume(&spec, &cp).unwrap();
        assert_eq!(full, resumed);
        assert!(resumed.traffic.is_some(), "the replay runs at resume time");
    }

    #[test]
    fn feedback_traffic_checkpoint_resumes_bit_identically() {
        let congested = TrafficConfig {
            channels_per_cell: 2,
            guard_channels: 0,
            mean_idle_steps: 3.0,
            mean_holding_steps: 9.0,
            load_feedback: true,
        };
        let spec = HomogeneousFleet {
            policy: PolicyKind::LoadHysteresis { margin_db: 4.0, load_bias_db: 12.0 },
            ..fuzzy_walk_spec(12)
        };
        let mk = || FleetSimulation::new(noisy_config()).with_traffic(congested);
        let ids: Vec<u64> = (0..30).collect();
        let full = mk().run_ids(&spec, &ids, 5);
        // The checkpoint freezes the first (load-blind) pass; resume
        // finishes it, replays traffic and reruns the fed pass — landing
        // on the uninterrupted result exactly.
        let cp = mk().run_partial(&spec, &ids, 5, 8).unwrap();
        let resumed = mk().with_workers(4).resume(&spec, &cp).unwrap();
        assert_eq!(full, resumed);
    }

    #[test]
    fn pruned_mode_checkpoints_too() {
        // The pruned modes carry extra lazy-shadowing state
        // (last_advanced_km) through the snapshot.
        let spec = fuzzy_walk_spec(9);
        let ids: Vec<u64> = (0..16).collect();
        for mode in
            [CandidateMode::Nearest(7), CandidateMode::EdgeSet { k: 7, margin_db: 4.0 }]
        {
            let mk = || FleetSimulation::new(noisy_config()).with_candidate_mode(mode);
            let full = mk().run_ids(&spec, &ids, 8);
            let cp = mk().run_partial(&spec, &ids, 8, 5).unwrap();
            let resumed = mk().with_workers(3).resume(&spec, &cp).unwrap();
            assert_eq!(full, resumed, "{}", mode.label());
        }
    }

    #[test]
    fn checkpoint_serde_round_trips() {
        let spec = fuzzy_walk_spec(2);
        let ids: Vec<u64> = (0..8).collect();
        let fleet = FleetSimulation::new(noisy_config());
        let cp = fleet.run_partial(&spec, &ids, 3, 4).unwrap();
        assert!(!cp.live.is_empty(), "mid-run snapshots carry live UEs");
        let back: FleetCheckpoint =
            serde_json::from_str(&serde_json::to_string(&cp).unwrap()).unwrap();
        assert_eq!(cp, back);
        assert_eq!(fleet.resume(&spec, &cp).unwrap(), fleet.resume(&spec, &back).unwrap());
    }

    #[test]
    fn resume_rejects_mismatched_traffic_plane() {
        let spec = fuzzy_walk_spec(1);
        let ids: Vec<u64> = (0..4).collect();
        let cp = FleetSimulation::new(noisy_config()).run_partial(&spec, &ids, 2, 3).unwrap();
        let err = FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .resume(&spec, &cp)
            .unwrap_err();
        assert!(
            matches!(err, FleetError::CorruptCheckpoint(CheckpointError::PlaneMismatch { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn streamed_summary_matches_dense_bit_for_bit() {
        let spec = fuzzy_walk_spec(5);
        let dense = FleetSimulation::new(noisy_config()).run(&spec, 40, 9);
        for workers in [1, 3] {
            let streamed = FleetSimulation::new(noisy_config())
                .with_workers(workers)
                .with_chunk_size(7)
                .run_streamed(&spec, 40, 9)
                .unwrap();
            assert_eq!(dense.summary, streamed.summary, "workers={workers}");
            assert_eq!(
                dense.summary.hd_sum.to_bits(),
                streamed.summary.hd_sum.to_bits(),
                "the streamed HD fold keeps UE-id order"
            );
            assert_eq!(dense.cell_load, streamed.cell_load);
        }
    }

    #[test]
    fn streamed_rejects_traffic_plane() {
        let spec = fuzzy_walk_spec(1);
        let err = FleetSimulation::new(noisy_config())
            .with_traffic(demo_traffic())
            .run_streamed(&spec, 4, 1)
            .unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::InvalidConfig(ConfigError::Unsupported { what: "traffic plane", .. })
            ),
            "{err:?}"
        );
    }
}
