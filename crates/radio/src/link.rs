//! The per-base-station link budget: TX power + antenna pattern − path loss.

use crate::antenna::DipoleAntenna;
use crate::db::watt_to_dbm;
use crate::pathloss::PathLoss;
use cellgeom::Vec2;
use serde::{Deserialize, Serialize};

/// Radio parameters of one base station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BsRadio {
    /// Transmit power in watts (paper Table 2: 10 W or 20 W).
    pub tx_power_w: f64,
    /// The BS antenna.
    pub antenna: DipoleAntenna,
    /// Propagation model.
    pub path_loss: PathLoss,
    /// Mobile antenna height in metres (paper Table 2: 1.5 m).
    pub ms_height_m: f64,
    /// Pattern floor in dB below peak gain (keeps the under-the-mast null
    /// finite).
    pub pattern_floor_db: f64,
}

impl BsRadio {
    /// The paper's configuration: 10 W, 3° tilt, 40 m mast, 1.5 m mobile,
    /// calibrated log-distance propagation.
    pub fn paper_default() -> Self {
        BsRadio {
            tx_power_w: 10.0,
            antenna: DipoleAntenna::paper_default(),
            path_loss: PathLoss::paper_calibrated(),
            ms_height_m: 1.5,
            pattern_floor_db: -40.0,
        }
    }

    /// Same as [`BsRadio::paper_default`] but with the literal eq.-(4)
    /// field model (n = 1.1) instead of the calibrated propagation.
    pub fn paper_field_model() -> Self {
        BsRadio { path_loss: PathLoss::paper_field(), ..Self::paper_default() }
    }

    /// Transmit power in dBm.
    pub fn tx_power_dbm(&self) -> f64 {
        watt_to_dbm(self.tx_power_w)
    }

    /// The position-dependent part of the budget, with the TX power (the
    /// only position-independent term) already converted to dBm. Shared
    /// by the scalar and batched entry points so both compute the exact
    /// same floating-point expression.
    #[inline]
    fn budget_dbm(&self, tx_dbm: f64, bs_pos: Vec2, ms_pos: Vec2) -> f64 {
        let horizontal_km = bs_pos.distance(ms_pos);
        let gain = self
            .antenna
            .gain_db_clamped(horizontal_km, self.ms_height_m, self.pattern_floor_db);
        let slant = self.antenna.slant_range_km(horizontal_km, self.ms_height_m);
        tx_dbm + gain - self.path_loss.loss_db(slant)
    }

    /// Mean received power in dBm at `ms_pos` from a BS at `bs_pos`
    /// (positions in km), before fading and measurement noise.
    pub fn received_power_dbm(&self, bs_pos: Vec2, ms_pos: Vec2) -> f64 {
        self.budget_dbm(self.tx_power_dbm(), bs_pos, ms_pos)
    }

    /// Mean received power for one BS over a batch of MS positions:
    /// `out[i]` receives the power at `ms_positions[i]`.
    ///
    /// Bit-identical to calling [`BsRadio::received_power_dbm`] once per
    /// position; the batch form hoists the dBm conversion of the TX power
    /// (a `log10`) out of the loop, so fleet-scale callers pay one
    /// conversion per (BS, UE-chunk) instead of one per (BS, UE).
    pub fn received_power_dbm_batch(&self, bs_pos: Vec2, ms_positions: &[Vec2], out: &mut [f64]) {
        assert_eq!(
            ms_positions.len(),
            out.len(),
            "output buffer length must match the position count"
        );
        let tx_dbm = self.tx_power_dbm();
        for (slot, &ms_pos) in out.iter_mut().zip(ms_positions) {
            *slot = self.budget_dbm(tx_dbm, bs_pos, ms_pos);
        }
    }

    /// Compile the link budget: precompute every position-independent
    /// term (TX dBm, antenna tilt in radians, height difference, gain
    /// floor, the path-loss model's constant sub-expressions) so a
    /// per-sample evaluation is just the position-dependent geometry and
    /// transcendentals. See [`CompiledBsRadio`] for the bit-identity
    /// contract.
    pub fn compiled(&self) -> CompiledBsRadio {
        let dz_km = (self.antenna.height_m - self.ms_height_m) / 1000.0;
        CompiledBsRadio {
            tx_dbm: self.tx_power_dbm(),
            dz_km,
            phi_rad: self.antenna.tilt_deg.to_radians(),
            peak_gain_dbi: self.antenna.peak_gain_dbi,
            floor_gain_db: self.antenna.peak_gain_dbi + self.pattern_floor_db,
            loss: CompiledPathLoss::compile(self.path_loss),
        }
    }
}

/// A [`PathLoss`] with its model-constant sub-expressions folded, leaving
/// one `log10` (plus adds/multiplies) per evaluation. Each folded
/// constant is the *same* sub-expression the interpreted
/// [`PathLoss::loss_db`] computes — merely computed once — and the
/// remaining arithmetic keeps the interpreted association order, so the
/// compiled loss is bit-identical to the interpreted one.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CompiledPathLoss {
    /// `PaperField` / `LogDistance`: `base + slope · log₁₀(d / d0)`.
    Reference {
        base_db: f64,
        slope_db: f64,
        d0_km: f64,
    },
    /// `FreeSpace`: `32.44 + 20 log₁₀ d + freq_term` (the association of
    /// the interpreted expression is preserved, so the frequency term
    /// stays the *last* addend).
    FreeSpace { freq_term_db: f64 },
    /// `TwoRay`: `40 log₁₀(1000 d) − height_term`.
    TwoRay { height_term_db: f64 },
    /// `OkumuraHata`: `base + slope · log₁₀(max(d, 0.02))`.
    Hata { base_db: f64, slope_db: f64 },
}

impl CompiledPathLoss {
    fn compile(model: PathLoss) -> Self {
        match model {
            PathLoss::PaperField { n, ref_km, ref_loss_db } => CompiledPathLoss::Reference {
                base_db: ref_loss_db,
                slope_db: 20.0 * n,
                d0_km: ref_km,
            },
            PathLoss::LogDistance { pl0_db, exponent, d0_km } => CompiledPathLoss::Reference {
                base_db: pl0_db,
                slope_db: 10.0 * exponent,
                d0_km,
            },
            PathLoss::FreeSpace { freq_mhz } => {
                CompiledPathLoss::FreeSpace { freq_term_db: 20.0 * freq_mhz.log10() }
            }
            PathLoss::TwoRay { h_bs_m, h_ms_m } => {
                CompiledPathLoss::TwoRay { height_term_db: 20.0 * (h_bs_m * h_ms_m).log10() }
            }
            PathLoss::OkumuraHata { freq_mhz, h_bs_m, h_ms_m } => {
                let a_hms = (1.1 * freq_mhz.log10() - 0.7) * h_ms_m
                    - (1.56 * freq_mhz.log10() - 0.8);
                let (c1, c2) = if freq_mhz > 1500.0 { (46.3, 33.9) } else { (69.55, 26.16) };
                CompiledPathLoss::Hata {
                    base_db: c1 + c2 * freq_mhz.log10() - 13.82 * h_bs_m.log10() - a_hms,
                    slope_db: 44.9 - 6.55 * h_bs_m.log10(),
                }
            }
        }
    }

    /// Loss at a (pre-clamped, ≥ 1 m) slant range — bit-identical to
    /// [`PathLoss::loss_db`] on the model this was compiled from.
    #[inline]
    fn loss_db(&self, d: f64) -> f64 {
        match *self {
            CompiledPathLoss::Reference { base_db, slope_db, d0_km } => {
                base_db + slope_db * (d / d0_km).log10()
            }
            CompiledPathLoss::FreeSpace { freq_term_db } => {
                32.44 + 20.0 * d.log10() + freq_term_db
            }
            CompiledPathLoss::TwoRay { height_term_db } => {
                40.0 * (d * 1000.0).log10() - height_term_db
            }
            CompiledPathLoss::Hata { base_db, slope_db } => {
                base_db + slope_db * d.max(0.02).log10()
            }
        }
    }
}

/// The compiled form of a [`BsRadio`] link budget — the measurement
/// plane's analogue of the fuzzy plane's `CompiledFis`.
///
/// Construction ([`BsRadio::compiled`]) folds every position-independent
/// term once: the TX power in dBm (a `log10`), the antenna tilt in
/// radians, the BS–MS height difference in km, the clamped gain floor,
/// and the path-loss model's constants (dispatching the model `match`
/// once instead of per sample). A per-sample evaluation is then one
/// distance, one `atan2`/`cos` for the pattern, two `log10`s (pattern
/// roll-off + path loss) and a handful of adds/multiplies.
///
/// ## Bit-identity contract
///
/// Every folded constant is the same floating-point sub-expression the
/// scalar [`BsRadio::received_power_dbm`] computes, and the remaining
/// per-sample arithmetic preserves the scalar association order — so the
/// compiled budget is **bit-identical** to the scalar one for every
/// model and position (asserted exhaustively by the unit tests here and
/// end-to-end by the 17 golden reports, which run the simulation engine
/// through this plane).
///
/// The same radio parameters are shared by every BS of a layout, so one
/// `CompiledBsRadio` serves all of them; the BS position is a call
/// argument, exactly like the scalar entry points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledBsRadio {
    tx_dbm: f64,
    dz_km: f64,
    phi_rad: f64,
    peak_gain_dbi: f64,
    floor_gain_db: f64,
    loss: CompiledPathLoss,
}

/// Fixed block width of the batched link-budget loops: the geometry pass
/// (distance per position) runs over one block at a time so the
/// subtract/multiply/add/sqrt chain autovectorizes, then the
/// transcendental pass consumes the block. Purely a loop-blocking factor
/// — every element still evaluates the exact scalar expression.
const BUDGET_BLOCK: usize = 8;

impl CompiledBsRadio {
    /// The budget from a precomputed horizontal distance — the shared
    /// per-sample tail of the scalar and batched entry points, so both
    /// compute the exact same floating-point expression. `loss_db` must
    /// be (an inlined copy of) [`CompiledPathLoss::loss_db`] on
    /// `self.loss`.
    #[inline(always)]
    fn budget_from_horizontal<L: Fn(f64) -> f64>(&self, horizontal_km: f64, loss_db: &L) -> f64 {
        // Antenna: depression angle → pattern factor → clamped gain, with
        // the tilt/height constants folded.
        let alpha = self.dz_km.atan2(horizontal_km.max(0.0));
        let factor = (alpha - self.phi_rad).cos().abs();
        let gain = (self.peak_gain_dbi + 20.0 * factor.log10()).max(self.floor_gain_db);
        // Path loss at the slant range (clamped below at 1 m).
        let slant = (horizontal_km * horizontal_km + self.dz_km * self.dz_km).sqrt();
        let loss = loss_db(slant.max(1e-3));
        self.tx_dbm + gain - loss
    }

    /// Mean received power in dBm at `ms_pos` from a BS at `bs_pos` —
    /// bit-identical to [`BsRadio::received_power_dbm`] on the source
    /// radio.
    #[inline]
    pub fn received_power_dbm(&self, bs_pos: Vec2, ms_pos: Vec2) -> f64 {
        self.budget_from_horizontal(bs_pos.distance(ms_pos), &|d| self.loss.loss_db(d))
    }

    /// The block-loop driver behind [`CompiledBsRadio::received_power_dbm_batch`]:
    /// per-BS constants live in locals (registers), the interior is
    /// branch-free (the path-loss `match` is dispatched once per batch,
    /// not per sample), positions stream through [`BUDGET_BLOCK`]-wide
    /// blocks with a vectorizable geometry pass, and the remainder
    /// drains through a scalar tail loop.
    #[inline(always)]
    fn fill_batch_with<L: Fn(f64) -> f64>(
        &self,
        bs_pos: Vec2,
        ms_positions: &[Vec2],
        out: &mut [f64],
        loss_db: L,
    ) {
        let mut horiz = [0.0f64; BUDGET_BLOCK];
        let mut pos_blocks = ms_positions.chunks_exact(BUDGET_BLOCK);
        let mut out_blocks = out.chunks_exact_mut(BUDGET_BLOCK);
        for (positions, slots) in (&mut pos_blocks).zip(&mut out_blocks) {
            // Geometry pass: distances only — autovectorizes.
            for (h, &ms) in horiz.iter_mut().zip(positions.iter()) {
                *h = bs_pos.distance(ms);
            }
            // Budget pass: the transcendental tail of the expression.
            for (slot, &h) in slots.iter_mut().zip(horiz.iter()) {
                *slot = self.budget_from_horizontal(h, &loss_db);
            }
        }
        // Tail loop for the remainder.
        for (slot, &ms) in out_blocks.into_remainder().iter_mut().zip(pos_blocks.remainder()) {
            *slot = self.budget_from_horizontal(bs_pos.distance(ms), &loss_db);
        }
    }

    /// Batched form of [`CompiledBsRadio::received_power_dbm`]:
    /// `out[i]` receives the power at `ms_positions[i]`. Allocation-free
    /// and bit-identical to the scalar call per position (same
    /// per-sample expression; the block structure only reorders
    /// independent elements' evaluation, never an element's own math).
    ///
    /// The path-loss variant is dispatched once, and the block driver
    /// runs with a monomorphized (hence branch-free-interior) loss
    /// closure. Each closure calls [`CompiledPathLoss::loss_db`] on the
    /// known variant, so there is exactly one source of truth for the
    /// loss expression.
    pub fn received_power_dbm_batch(&self, bs_pos: Vec2, ms_positions: &[Vec2], out: &mut [f64]) {
        assert_eq!(
            ms_positions.len(),
            out.len(),
            "output buffer length must match the position count"
        );
        match self.loss {
            loss @ CompiledPathLoss::Reference { .. } => {
                self.fill_batch_with(bs_pos, ms_positions, out, move |d| loss.loss_db(d))
            }
            loss @ CompiledPathLoss::FreeSpace { .. } => {
                self.fill_batch_with(bs_pos, ms_positions, out, move |d| loss.loss_db(d))
            }
            loss @ CompiledPathLoss::TwoRay { .. } => {
                self.fill_batch_with(bs_pos, ms_positions, out, move |d| loss.loss_db(d))
            }
            loss @ CompiledPathLoss::Hata { .. } => {
                self.fill_batch_with(bs_pos, ms_positions, out, move |d| loss.loss_db(d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_budget() {
        let bs = BsRadio::paper_default();
        assert!((bs.tx_power_dbm() - 40.0).abs() < 1e-9, "10 W = 40 dBm");
        // At 1 km the calibrated budget gives ≈ 40 + 1.76 − 128 ≈ −86 dBm.
        let rx = bs.received_power_dbm(Vec2::ZERO, Vec2::new(1.0, 0.0));
        assert!((-92.0..=-80.0).contains(&rx), "rx(1 km) = {rx}");
    }

    #[test]
    fn power_decreases_with_distance() {
        // The paper's Fig. 9 behaviour: monotone decay as the MS leaves
        // the serving BS (beyond the near-mast pattern region).
        let bs = BsRadio::paper_default();
        let mut prev = bs.received_power_dbm(Vec2::ZERO, Vec2::new(0.3, 0.0));
        for k in 1..70 {
            let d = 0.3 + 0.1 * k as f64;
            let rx = bs.received_power_dbm(Vec2::ZERO, Vec2::new(d, 0.0));
            assert!(rx < prev, "rx({d}) = {rx} not below {prev}");
            prev = rx;
        }
    }

    #[test]
    fn plotted_dynamic_range_matches_paper() {
        // Figs. 9–13 span roughly −60…−140 dB between ~0.2 and 7 km.
        let bs = BsRadio::paper_default();
        let near = bs.received_power_dbm(Vec2::ZERO, Vec2::new(0.15, 0.0));
        let far = bs.received_power_dbm(Vec2::ZERO, Vec2::new(7.0, 0.0));
        assert!(near > -70.0, "near reading {near}");
        assert!(far < -115.0, "far reading {far}");
        assert!(near - far > 55.0, "dynamic range {}", near - far);
    }

    #[test]
    fn rotational_symmetry() {
        let bs = BsRadio::paper_default();
        let d = 2.5;
        let a = bs.received_power_dbm(Vec2::ZERO, Vec2::new(d, 0.0));
        let b = bs.received_power_dbm(Vec2::ZERO, Vec2::new(0.0, d));
        let c = bs.received_power_dbm(Vec2::ZERO, Vec2::from_polar(d, 1.1));
        assert!((a - b).abs() < 1e-9);
        assert!((a - c).abs() < 1e-9);
    }

    #[test]
    fn translation_invariance() {
        let bs = BsRadio::paper_default();
        let offset = Vec2::new(3.46, -2.0);
        let a = bs.received_power_dbm(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let b = bs.received_power_dbm(offset, Vec2::new(1.0, 1.0) + offset);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn under_mast_is_finite_and_weaker_than_beam_peak() {
        let bs = BsRadio::paper_default();
        let under = bs.received_power_dbm(Vec2::ZERO, Vec2::ZERO);
        assert!(under.is_finite());
        // Under the mast the pattern factor is sin 3° ≈ −25.6 dB, above the
        // −40 dB floor, so the raw pattern value applies.
        let gain_at_mast = bs.antenna.gain_db_clamped(0.0, 1.5, bs.pattern_floor_db);
        let expected = bs.antenna.peak_gain_dbi + 20.0 * 3.0f64.to_radians().sin().log10();
        assert!((gain_at_mast - expected).abs() < 1e-9);
        assert!(gain_at_mast >= bs.antenna.peak_gain_dbi + bs.pattern_floor_db);
    }

    #[test]
    fn doubling_tx_power_adds_3db() {
        let mut bs = BsRadio::paper_default();
        let a = bs.received_power_dbm(Vec2::ZERO, Vec2::new(2.0, 0.0));
        bs.tx_power_w = 20.0;
        let b = bs.received_power_dbm(Vec2::ZERO, Vec2::new(2.0, 0.0));
        assert!((b - a - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn field_model_variant_is_shallower() {
        let cal = BsRadio::paper_default();
        let field = BsRadio::paper_field_model();
        let d1 = Vec2::new(1.0, 0.0);
        let d7 = Vec2::new(7.0, 0.0);
        let cal_drop =
            cal.received_power_dbm(Vec2::ZERO, d1) - cal.received_power_dbm(Vec2::ZERO, d7);
        let field_drop =
            field.received_power_dbm(Vec2::ZERO, d1) - field.received_power_dbm(Vec2::ZERO, d7);
        assert!(cal_drop > field_drop, "calibrated {cal_drop} vs field {field_drop}");
        // n = 1.1 amplitude exponent → 22 dB/decade → ~18.6 dB over 1→7 km.
        assert!((field_drop - 22.0 * 7f64.log10()).abs() < 0.5);
    }

    #[test]
    fn serde_round_trip() {
        let bs = BsRadio::paper_default();
        let back: BsRadio = serde_json::from_str(&serde_json::to_string(&bs).unwrap()).unwrap();
        assert_eq!(bs, back);
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let bs = BsRadio::paper_default();
        let bs_pos = Vec2::new(1.5, -0.7);
        let positions: Vec<Vec2> = (0..97)
            .map(|k| Vec2::from_polar(0.05 + 0.11 * k as f64, 0.37 * k as f64))
            .collect();
        let mut batch = vec![0.0; positions.len()];
        bs.received_power_dbm_batch(bs_pos, &positions, &mut batch);
        for (p, b) in positions.iter().zip(&batch) {
            let scalar = bs.received_power_dbm(bs_pos, *p);
            assert_eq!(scalar.to_bits(), b.to_bits(), "at {p:?}");
        }
    }

    #[test]
    fn compiled_is_bit_identical_to_scalar_for_every_model() {
        let models = [
            PathLoss::paper_calibrated(),
            PathLoss::paper_field(),
            PathLoss::free_space_2ghz(),
            PathLoss::TwoRay { h_bs_m: 40.0, h_ms_m: 1.5 },
            PathLoss::okumura_hata_paper(),
        ];
        let bs_pos = Vec2::new(-0.8, 2.1);
        for model in models {
            let bs = BsRadio { path_loss: model, ..BsRadio::paper_default() };
            let compiled = bs.compiled();
            for k in 0..400 {
                // Spiral sweep from under the mast out to ~9 km.
                let ms = bs_pos + Vec2::from_polar(0.0225 * k as f64, 0.711 * k as f64);
                let scalar = bs.received_power_dbm(bs_pos, ms);
                let fast = compiled.received_power_dbm(bs_pos, ms);
                assert_eq!(scalar.to_bits(), fast.to_bits(), "{model:?} at {ms:?}");
            }
        }
    }

    #[test]
    fn compiled_batch_matches_scalar_batch_bitwise() {
        let bs = BsRadio::paper_default();
        let compiled = bs.compiled();
        let bs_pos = Vec2::new(1.5, -0.7);
        let positions: Vec<Vec2> = (0..97)
            .map(|k| Vec2::from_polar(0.05 + 0.11 * k as f64, 0.37 * k as f64))
            .collect();
        let mut reference = vec![0.0; positions.len()];
        let mut fast = vec![0.0; positions.len()];
        bs.received_power_dbm_batch(bs_pos, &positions, &mut reference);
        compiled.received_power_dbm_batch(bs_pos, &positions, &mut fast);
        for (r, f) in reference.iter().zip(&fast) {
            assert_eq!(r.to_bits(), f.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn compiled_batch_length_mismatch_rejected() {
        let compiled = BsRadio::paper_default().compiled();
        let mut out = [0.0; 2];
        compiled.received_power_dbm_batch(Vec2::ZERO, &[Vec2::ZERO], &mut out);
    }

    #[test]
    fn batch_over_empty_slice_is_a_no_op() {
        let bs = BsRadio::paper_default();
        bs.received_power_dbm_batch(Vec2::ZERO, &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn batch_length_mismatch_rejected() {
        let bs = BsRadio::paper_default();
        let mut out = [0.0; 2];
        bs.received_power_dbm_batch(Vec2::ZERO, &[Vec2::ZERO], &mut out);
    }
}
