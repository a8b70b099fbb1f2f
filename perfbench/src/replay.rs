//! Layer replay: re-executes the per-UE-step work a fleet run does inside
//! `run`/`run_streamed` — where no layer boundary is callable from outside
//! — through the layers' public functions, over the workload's own walks
//! and at the same volume, timing each layer phase.
//!
//! The replay mirrors the engine's step order (lockstep chunks, the dense
//! `cells × chunk` mean-RSS sweep and fused shadowing + noise kernel, or
//! the pruned edge-set path, drawing from each UE's own stream, the policy front half, one batched
//! FLC evaluation per chunk-step, commit), so its counts can be checked
//! against the real run's summary: the UE-step count must match exactly,
//! and the HD-bearing decision rate within [`HD_RATE_TOLERANCE`].

use fuzzy_handover::core::{Decision, FlcStage, HandoverPolicy, MeasurementReport, StayReason};
use fuzzy_handover::fuzzy::{CompiledFis, EvalScratch};
use fuzzy_handover::geometry::{NeighborIndex, Vec2};
use fuzzy_handover::mobility::{ResampleIter, TracePoint, Trajectory};
use fuzzy_handover::radio::{speed_penalty_db, standard_normal_fill, RssiSmoother, ShadowingLane};
use fuzzy_handover::sim::{ue_seed, FleetSimulation, SimConfig, UeSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Largest accepted gap between the replay's HD-bearing decisions per
/// UE-step and the real run's `hd_count / steps`, as a share of the
/// real rate. The replay draws the same per-UE streams as the engine, so
/// the two normally agree exactly.
pub const HD_RATE_TOLERANCE: f64 = 0.005;

/// The measurement path a replay follows.
#[derive(Debug, Clone, Copy)]
pub enum Sweep {
    /// Every layout cell each UE-step, mean RSS batched per BS.
    Dense,
    /// `CandidateMode::EdgeSet { k, margin_db }`.
    EdgeSet { k: usize, margin_db: f64 },
}

/// Counts and per-phase busy time of one replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayTotals {
    pub ue_steps: u64,
    pub hd_decisions: u64,
    pub flc_evals: u64,
    pub resample_ns: u64,
    pub mean_rss_ns: u64,
    pub shadow_noise_ns: u64,
    pub pre_ns: u64,
    pub flc_ns: u64,
    pub commit_ns: u64,
    pub cells_measured: u64,
    pub interior_steps: u64,
}

impl ReplayTotals {
    pub fn absorb(&mut self, o: &ReplayTotals) {
        self.ue_steps += o.ue_steps;
        self.hd_decisions += o.hd_decisions;
        self.flc_evals += o.flc_evals;
        self.resample_ns += o.resample_ns;
        self.mean_rss_ns += o.mean_rss_ns;
        self.shadow_noise_ns += o.shadow_noise_ns;
        self.pre_ns += o.pre_ns;
        self.flc_ns += o.flc_ns;
        self.commit_ns += o.commit_ns;
        self.cells_measured += o.cells_measured;
        self.interior_steps += o.interior_steps;
    }

    pub fn per_step(&self, ns: u64) -> f64 {
        ns as f64 / self.ue_steps.max(1) as f64
    }
}

/// Handover candidates per serving cell (layout indices, decision
/// order): the in-layout neighbours, or every other cell for a cell
/// with none — the engine's candidate table.
fn candidate_table(cfg: &SimConfig) -> Vec<Vec<usize>> {
    let cells = cfg.layout.cells();
    let index_of = |c| {
        cells
            .iter()
            .position(|&x| x == c)
            .expect("cell is in the layout")
    };
    cells
        .iter()
        .map(|&serving| {
            let neighbors = cfg.layout.neighbors_of(serving);
            if neighbors.is_empty() {
                (0..cells.len()).filter(|&k| cells[k] != serving).collect()
            } else {
                neighbors.into_iter().map(index_of).collect()
            }
        })
        .collect()
}

struct Ue<'t> {
    cursor: ResampleIter<'t>,
    rng: StdRng,
    shadow: ShadowingLane,
    serving: usize,
    prev_cum: f64,
    last_km: Vec<f64>,
    policy: Box<dyn HandoverPolicy + Send>,
}

enum Pending {
    Decided(Decision),
    Await(usize),
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replay UEs `0..n_ues` of `spec` under `cfg` and `sweep`.
pub fn replay(
    cfg: &SimConfig,
    spec: &dyn UeSpec,
    n_ues: u64,
    base_seed: u64,
    sweep: Sweep,
) -> ReplayTotals {
    assert!(
        cfg.smoothing == RssiSmoother::None,
        "the replay models the pass-through smoothing path only"
    );
    let radio = cfg.radio.compiled();
    let cells = cfg.layout.cells();
    let n = cells.len();
    let bs: Vec<Vec2> = cells.iter().map(|&c| cfg.layout.bs_position(c)).collect();
    let cands = candidate_table(cfg);
    let index = NeighborIndex::new(&cfg.layout);
    let penalty = speed_penalty_db(cfg.speed_kmh);
    let chunk = FleetSimulation::DEFAULT_CHUNK_SIZE as u64;

    let mut tot = ReplayTotals::default();
    let mut scratch = EvalScratch::new();
    // Chunk-step buffers, reused across chunks.
    let mut active: Vec<usize> = Vec::new();
    let mut points: Vec<TracePoint> = Vec::new();
    let mut positions: Vec<Vec2> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut means = vec![0.0; n];
    let mut subset: Vec<u32> = Vec::with_capacity(n);
    let mut gathered: Vec<f64> = Vec::with_capacity(n);
    let mut normals: Vec<f64> = Vec::with_capacity(2 * n);
    let mut measured: Vec<f64> = Vec::new();
    let mut reports: Vec<MeasurementReport> = Vec::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut inputs: Vec<f64> = Vec::new();
    let mut prevs: Vec<Option<f64>> = Vec::new();
    let mut hds: Vec<f64> = Vec::new();

    let mut first = 0u64;
    while first < n_ues {
        let ids: Vec<u64> = (first..(first + chunk).min(n_ues)).collect();
        first += chunk;

        // Trajectory generation is timed on the real runs (TimedSpec),
        // not here.
        let trajectories: Vec<Trajectory> = ids.iter().map(|&id| spec.trajectory(id)).collect();

        let mut ues: Vec<Option<Ue<'_>>> = ids
            .iter()
            .zip(&trajectories)
            .map(|(&id, t)| {
                let start = cfg.layout.nearest_cell(t.start());
                Some(Ue {
                    cursor: t.resample_iter(cfg.sample_spacing_km),
                    rng: StdRng::seed_from_u64(ue_seed(base_seed, id)),
                    shadow: ShadowingLane::new(cfg.shadowing, n),
                    serving: cells.iter().position(|&c| c == start).expect("in layout"),
                    prev_cum: 0.0,
                    last_km: Vec::new(),
                    policy: spec.policy(id),
                })
            })
            .collect();
        let plan: Option<Arc<CompiledFis>> = ues
            .iter_mut()
            .flatten()
            .find_map(|u| u.policy.as_fuzzy().and_then(|f| f.shared_plan().cloned()));

        loop {
            // Mobility: advance each live UE's resample cursor.
            let t0 = Instant::now();
            active.clear();
            points.clear();
            positions.clear();
            for (i, slot) in ues.iter_mut().enumerate() {
                let Some(ue) = slot else { continue };
                match ue.cursor.next() {
                    Some(p) => {
                        active.push(i);
                        points.push(p);
                        positions.push(p.pos);
                    }
                    None => *slot = None,
                }
            }
            tot.resample_ns += elapsed_ns(t0);
            let a = active.len();
            if a == 0 {
                break;
            }
            tot.ue_steps += a as u64;
            measured.clear();
            measured.resize(a * n, f64::NEG_INFINITY);

            match sweep {
                Sweep::Dense => {
                    let t0 = Instant::now();
                    rss.resize(n * a, 0.0);
                    for (k, &bs_pos) in bs.iter().enumerate() {
                        radio.received_power_dbm_batch(
                            bs_pos,
                            &positions,
                            &mut rss[k * a..(k + 1) * a],
                        );
                    }
                    tot.mean_rss_ns += elapsed_ns(t0);

                    // The engine's fused kernel: one bulk gaussian fill
                    // per UE-step covers the shadowing innovations and
                    // the noise draws (the same stream as advance_all
                    // followed by apply_slice).
                    let shadow_draws = if cfg.shadowing.sigma_db > 0.0 { n } else { 0 };
                    let noise_draws = if cfg.noise.sigma_db > 0.0 { n } else { 0 };
                    normals.resize(shadow_draws + noise_draws, 0.0);
                    let t0 = Instant::now();
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("active UE is live");
                        let delta = points[j].cum_km - ue.prev_cum;
                        ue.prev_cum = points[j].cum_km;
                        standard_normal_fill(&mut normals, &mut ue.rng);
                        ue.shadow.advance_all_with(delta, &normals[..shadow_draws]);
                        let row = &mut measured[j * n..(j + 1) * n];
                        for (k, (slot, &s)) in row.iter_mut().zip(ue.shadow.values()).enumerate() {
                            *slot = rss[k * a + j] + s;
                        }
                        if noise_draws > 0 {
                            let sigma = cfg.noise.sigma_db;
                            for (slot, &e) in row.iter_mut().zip(&normals[shadow_draws..]) {
                                *slot += sigma * e;
                            }
                        }
                    }
                    tot.shadow_noise_ns += elapsed_ns(t0);
                    tot.cells_measured += (a * n) as u64;
                }
                Sweep::EdgeSet { k, margin_db } => {
                    let k = k.clamp(1, n);
                    // Mean RSS of the pruned set: serving + candidate
                    // table always, the k index-nearest cells for
                    // edge UEs. The subsets are kept per UE for the
                    // shadowing phase.
                    let mut subsets: Vec<(usize, usize)> = Vec::with_capacity(a);
                    let mut flat: Vec<u32> = Vec::new();
                    let mut flat_means: Vec<f64> = Vec::new();
                    let t0 = Instant::now();
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_ref().expect("active UE is live");
                        let pos = positions[j];
                        let serving = ue.serving;
                        let cs = &cands[serving];
                        means[serving] = radio.received_power_dbm(bs[serving], pos);
                        let mut best = f64::NEG_INFINITY;
                        for &c in cs {
                            means[c] = radio.received_power_dbm(bs[c], pos);
                            best = best.max(means[c]);
                        }
                        let edge = means[serving] - best <= margin_db;
                        subset.clear();
                        if edge {
                            subset.extend_from_slice(index.nearest(pos, k));
                            if !subset.contains(&(serving as u32)) {
                                subset.push(serving as u32);
                            }
                            for &c in cs {
                                if !subset.contains(&(c as u32)) {
                                    subset.push(c as u32);
                                }
                            }
                            for &s in subset.iter() {
                                let s = s as usize;
                                if s != serving && !cs.contains(&s) {
                                    means[s] = radio.received_power_dbm(bs[s], pos);
                                }
                            }
                        } else {
                            tot.interior_steps += 1;
                            subset.push(serving as u32);
                            for &c in cs {
                                if !subset.contains(&(c as u32)) {
                                    subset.push(c as u32);
                                }
                            }
                        }
                        subsets.push((flat.len(), subset.len()));
                        flat.extend_from_slice(&subset);
                        flat_means.extend(subset.iter().map(|&s| means[s as usize]));
                    }
                    tot.mean_rss_ns += elapsed_ns(t0);

                    let t0 = Instant::now();
                    for (j, &i) in active.iter().enumerate() {
                        let ue = ues[i].as_mut().expect("active UE is live");
                        let (off, len) = subsets[j];
                        let slots = &flat[off..off + len];
                        if ue.last_km.is_empty() {
                            ue.last_km.resize(n, 0.0);
                        }
                        ue.shadow.advance_subset(
                            slots,
                            points[j].cum_km,
                            &mut ue.last_km,
                            &mut ue.rng,
                        );
                        gathered.clear();
                        gathered.extend(
                            slots
                                .iter()
                                .zip(&flat_means[off..off + len])
                                .map(|(&s, &m)| m + ue.shadow.values()[s as usize]),
                        );
                        cfg.noise.apply_slice(&mut gathered, &mut ue.rng);
                        let row = &mut measured[j * n..(j + 1) * n];
                        for (&s, &v) in slots.iter().zip(&gathered) {
                            row[s as usize] = v;
                        }
                    }
                    tot.shadow_noise_ns += elapsed_ns(t0);
                    tot.cells_measured += flat.len() as u64;
                }
            }

            // Policy front half: build the report (strongest
            // speed-penalised candidate), then `decide_pre` — or the
            // whole decision for a policy without an FLC stage.
            let t0 = Instant::now();
            reports.clear();
            pending.clear();
            inputs.clear();
            prevs.clear();
            for (j, &i) in active.iter().enumerate() {
                let ue = ues[i].as_mut().expect("active UE is live");
                let row = &measured[j * n..(j + 1) * n];
                let pos = points[j].pos;
                let (nb, nb_rss) = cands[ue.serving]
                    .iter()
                    .map(|&c| (c, row[c] - penalty))
                    .max_by(|x, y| x.1.partial_cmp(&y.1).expect("RSS is finite"))
                    .expect("layouts have at least two cells");
                let report = MeasurementReport {
                    serving: cells[ue.serving],
                    serving_rss_dbm: row[ue.serving],
                    neighbor: cells[nb],
                    neighbor_rss_dbm: nb_rss,
                    distance_to_serving_km: cfg.layout.distance_to_bs(cells[ue.serving], pos),
                    distance_to_neighbor_km: cfg.layout.distance_to_bs(cells[nb], pos),
                };
                let state = match ue.policy.as_fuzzy() {
                    Some(fuzzy) => match fuzzy.decide_pre(&report) {
                        FlcStage::Resolved(d) => Pending::Decided(d),
                        FlcStage::NeedsHd {
                            inputs: x,
                            prev_serving_rss,
                        } => {
                            let shared = match (&plan, fuzzy.shared_plan()) {
                                (Some(p), Some(own)) => Arc::ptr_eq(p, own),
                                _ => false,
                            };
                            if shared {
                                inputs.extend(x.as_array());
                                prevs.push(prev_serving_rss);
                                Pending::Await(prevs.len() - 1)
                            } else {
                                let hd = fuzzy.evaluate_hd(&x);
                                tot.flc_evals += 1;
                                Pending::Decided(fuzzy.decide_with_hd(
                                    &report,
                                    hd,
                                    prev_serving_rss,
                                ))
                            }
                        }
                    },
                    None => Pending::Decided(ue.policy.decide(&report)),
                };
                reports.push(report);
                pending.push(state);
            }
            tot.pre_ns += elapsed_ns(t0);

            if !prevs.is_empty() {
                let t0 = Instant::now();
                hds.clear();
                hds.resize(prevs.len(), 0.0);
                plan.as_ref()
                    .expect("batched entries imply a shared plan")
                    .evaluate_batch(&inputs, &mut hds, &mut scratch)
                    .expect("the paper FLC fires on every input");
                tot.flc_ns += elapsed_ns(t0);
                tot.flc_evals += prevs.len() as u64;
            }

            let t0 = Instant::now();
            for (j, &i) in active.iter().enumerate() {
                let ue = ues[i].as_mut().expect("active UE is live");
                let decision = match pending[j] {
                    Pending::Decided(d) => d,
                    Pending::Await(k) => ue
                        .policy
                        .as_fuzzy()
                        .expect("awaiting entries are fuzzy")
                        .decide_with_hd(&reports[j], hds[k], prevs[k]),
                };
                match decision {
                    Decision::Handover { target, .. } => {
                        tot.hd_decisions += 1;
                        ue.policy.notify_handover(target);
                        ue.serving = cells
                            .iter()
                            .position(|&c| c == target)
                            .expect("target in layout");
                    }
                    Decision::Stay(StayReason::BelowThreshold { .. })
                    | Decision::Stay(StayReason::SignalRecovering { .. }) => tot.hd_decisions += 1,
                    Decision::Stay(_) => {}
                }
            }
            tot.commit_ns += elapsed_ns(t0);
        }
    }
    tot
}
