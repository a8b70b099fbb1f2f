//! Property tests pinning the compiled decision plane:
//!
//! * [`CompiledFis`] output is **bitwise identical** to the interpreted
//!   [`Fis`] engine for arbitrary in-range, edge-of-range and out-of-range
//!   CSSP/SSN/DMB inputs, for both FLC profiles and every defuzzifier —
//!   the contract that lets the fleet engine and the controllers swap the
//!   interpreted engine for the compiled plan without moving a single
//!   golden byte.
//! * The batch entry point equals the scalar path bit for bit.
//! * The sparse min–max path equals the interpreted engine bit for bit
//!   on random systems built to hit its edges: fractional weights on
//!   shared consequents, hedged antecedents, shoulders whose supports
//!   touch both grid ends, an output term that is zero on every grid
//!   sample, output universes below zero, two outputs, every
//!   defuzzifier and both no-fire policies.
//! * The paper LUT's absolute HD error stays under its documented bound.

use fuzzy_handover::core::flc::{
    build_flc_with, paper_flc_lut, paper_flc_plan, FlcProfile, CSSP_RANGE, DMB_RANGE, SSN_RANGE,
    PAPER_LUT_MAX_ABS_ERROR,
};
use fuzzy_handover::fuzzy::engine::mamdani::NoFirePolicy;
use fuzzy_handover::fuzzy::{
    Aggregation, Antecedent, CompiledFis, Connective, Consequent, Defuzzifier, EvalScratch, Fis,
    FisBuilder, FuzzyError, Hedge, Implication, LinguisticVariable, Mf, Rule, SNorm, TNorm,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every (profile, defuzzifier) variant of the paper FLC with its compiled
/// plan, built once per process.
fn variants() -> &'static Vec<(String, Fis, CompiledFis)> {
    static VARIANTS: OnceLock<Vec<(String, Fis, CompiledFis)>> = OnceLock::new();
    VARIANTS.get_or_init(|| {
        let mut out = Vec::new();
        for profile in [FlcProfile::Paper, FlcProfile::Product] {
            for defuzz in Defuzzifier::ALL {
                let fis = build_flc_with(profile, defuzz);
                let plan = fis.compile();
                out.push((format!("{profile:?}/{defuzz:?}"), fis, plan));
            }
        }
        out
    })
}

/// An axis value: mostly interior points, plus the exact universe edges
/// and clearly out-of-range values (which both engines clamp).
fn axis(range: (f64, f64)) -> impl Strategy<Value = f64> {
    let (min, max) = range;
    prop_oneof![
        min..=max,
        Just(min),
        Just(max),
        Just(min - 7.5),
        Just(max + 7.5),
    ]
}

fn flc_inputs() -> impl Strategy<Value = [f64; 3]> {
    (axis(CSSP_RANGE), axis(SSN_RANGE), axis(DMB_RANGE))
        .prop_map(|(cssp, ssn, dmb)| [cssp, ssn, dmb])
}

/// SplitMix64: the stream a random system is drawn from, one seed each.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An output variable over a random universe, possibly wholly below zero,
/// sampled at `res` points. Term 0 is a left shoulder (its support starts
/// at sample 0), term 3 a right shoulder (its support ends at sample
/// n − 1), and term 2 a sliver strictly inside one grid cell, so it is
/// zero on every grid sample.
fn random_output(r: &mut Mix, name: &str, res: usize) -> LinguisticVariable {
    let lo = -60.0 + 80.0 * r.unit();
    let width = 0.5 + 50.0 * r.unit();
    let at = |f: f64| lo + width * f;
    let step = width / (res - 1) as f64;
    let cell = r.below(res - 1) as f64;
    let (f1, t1, g1) = (0.5 * r.unit(), 0.6 * r.unit(), 0.3 + 0.6 * r.unit());
    let f2 = f1 + 0.05 + 0.45 * r.unit();
    let t2 = t1 + 0.2 * r.unit();
    let t3 = t2 + 0.01 + 0.39 * r.unit();
    let g2 = g1 + 0.01 + 0.09 * r.unit();
    LinguisticVariable::new(name, lo, lo + width)
        .with_term("low", Mf::left_shoulder(at(f1), at(f2)))
        .with_term("mid", Mf::triangular(at(t1), at(t2), at(t3)))
        .with_term(
            "sliver",
            Mf::triangular(
                lo + step * (cell + 0.2),
                lo + step * (cell + 0.5),
                lo + step * (cell + 0.8),
            ),
        )
        .with_term("high", Mf::right_shoulder(at(g1), at(g2)))
}

/// A random min-implication, max-aggregation system: two inputs, one or
/// two outputs, 1–8 rules with random hedges, connectives, fractional
/// weights and (often shared) consequents, one of three norm pairs, any
/// defuzzifier, either no-fire policy and a resolution from 2 to 501.
fn random_min_max_system(seed: u64) -> Fis {
    let mut r = Mix(seed);
    let res = [2, 3, 11, 64, 501][r.below(5)];
    let n_outputs = 1 + r.below(2);
    let mut builder = FisBuilder::new("random")
        .input(
            LinguisticVariable::new("x", 0.0, 10.0)
                .with_term("lo", Mf::left_shoulder(2.0, 5.0))
                .with_term("mid", Mf::triangular(2.0, 5.0, 8.0))
                .with_term("hi", Mf::right_shoulder(5.0, 8.0)),
        )
        .input(
            LinguisticVariable::new("y", -5.0, 5.0)
                .with_term("lo", Mf::left_shoulder(-3.0, 0.0))
                .with_term("mid", Mf::triangular(-3.0, 0.0, 3.0))
                .with_term("hi", Mf::right_shoulder(0.0, 3.0)),
        );
    for o in 0..n_outputs {
        builder = builder.output(random_output(&mut r, &format!("out{o}"), res));
    }
    for _ in 0..1 + r.below(8) {
        let antecedents = (0..1 + r.below(2))
            .map(|v| Antecedent::hedged(v, r.below(3), Hedge::ALL[r.below(Hedge::ALL.len())]))
            .collect();
        let connective = if r.below(2) == 0 { Connective::And } else { Connective::Or };
        let consequents = (0..n_outputs).map(|o| Consequent::new(o, r.below(4))).collect();
        let weight = if r.below(4) == 0 { 1.0 } else { 0.05 + 0.95 * r.unit() };
        builder = builder.rule(Rule::new(antecedents, connective, consequents).with_weight(weight));
    }
    let (and, or) = [
        (TNorm::Min, SNorm::Max),
        (TNorm::Product, SNorm::ProbabilisticSum),
        (TNorm::Lukasiewicz, SNorm::BoundedSum),
    ][r.below(3)];
    let no_fire = [NoFirePolicy::Error, NoFirePolicy::UniverseMidpoint][r.below(2)];
    builder
        .and(and)
        .or(or)
        .implication(Implication::Min)
        .aggregation(Aggregation::Max)
        .defuzzifier(Defuzzifier::ALL[r.below(Defuzzifier::ALL.len())])
        .resolution(res)
        .no_fire(no_fire)
        .build()
        .expect("a well-formed random system")
}

/// A probe for [`random_min_max_system`]: inside both input universes
/// most of the time, past their edges otherwise.
fn random_probe() -> impl Strategy<Value = [f64; 2]> {
    (-2.0..12.0f64, -7.0..7.0f64).prop_map(|(x, y)| [x, y])
}

proptest! {
    #[test]
    fn compiled_equals_interpreted_bitwise(x in flc_inputs()) {
        let mut scratch = EvalScratch::new();
        for (label, fis, plan) in variants() {
            let interpreted = fis.evaluate(&x).unwrap()[0];
            let compiled = plan.evaluate_one(&x, &mut scratch).unwrap();
            prop_assert_eq!(
                interpreted.to_bits(),
                compiled.to_bits(),
                "{} drifted at {:?}: {} vs {}",
                label,
                x,
                interpreted,
                compiled
            );
        }
    }

    #[test]
    fn plain_evaluate_equals_traced_evaluate(x in flc_inputs()) {
        // The interpreted engine's scratch-buffer plain path must remain
        // bit-identical to the allocating traced path it replaced.
        for (label, fis, _) in variants() {
            let plain = fis.evaluate(&x).unwrap();
            let traced = fis.evaluate_with_trace(&x).unwrap().outputs;
            prop_assert_eq!(plain[0].to_bits(), traced[0].to_bits(), "{} at {:?}", label, x);
        }
    }

    #[test]
    fn batch_equals_scalar_bitwise(
        rows in (flc_inputs(), flc_inputs(), flc_inputs(), flc_inputs())
            .prop_map(|(a, b, c, d)| [a, b, c, d])
    ) {
        let plan = paper_flc_plan();
        let mut scratch = EvalScratch::new();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut batch = vec![0.0; rows.len()];
        plan.evaluate_batch(&flat, &mut batch, &mut scratch).unwrap();
        for (row, &hd) in rows.iter().zip(&batch) {
            let scalar = plan.evaluate_one(row, &mut scratch).unwrap();
            prop_assert_eq!(scalar.to_bits(), hd.to_bits());
        }
    }

    #[test]
    fn sparse_path_equals_interpreted_on_random_systems(
        seed in 0..u64::MAX,
        probes in (random_probe(), random_probe(), random_probe(), random_probe())
    ) {
        let fis = random_min_max_system(seed);
        let plan = fis.compile();
        let rows = [probes.0, probes.1, probes.2, probes.3];
        let mut scratch = EvalScratch::new();
        let mut out = vec![0.0; plan.n_outputs()];
        let mut scalar: Vec<Result<Vec<f64>, FuzzyError>> = Vec::new();
        for x in &rows {
            let compiled = plan.evaluate(x, &mut scratch, &mut out).map(|()| out.clone());
            match (fis.evaluate(x), &compiled) {
                (Ok(a), Ok(b)) => {
                    let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(a, b, "seed {} drifted at {:?}", seed, x);
                }
                (Err(a), Err(b)) => prop_assert_eq!(&a, b, "seed {} at {:?}", seed, x),
                (a, b) => prop_assert!(false, "seed {} at {:?}: {:?} vs {:?}", seed, x, a, b),
            }
            scalar.push(compiled);
        }
        // The batch path stops at the first failing row; up to there it
        // equals the scalar path bit for bit.
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut batch = vec![0.0; rows.len() * plan.n_outputs()];
        let result = plan.evaluate_batch(&flat, &mut batch, &mut scratch);
        match scalar.iter().position(|r| r.is_err()) {
            Some(k) => prop_assert_eq!(&result, &scalar[k].clone().map(|_| ())),
            None => {
                prop_assert!(result.is_ok());
                let expected: Vec<u64> =
                    scalar.iter().flat_map(|r| r.as_ref().unwrap()).map(|v| v.to_bits()).collect();
                let got: Vec<u64> = batch.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(expected, got, "seed {}: batch drifted", seed);
            }
        }
    }

    #[test]
    fn paper_lut_error_within_documented_bound(x in flc_inputs()) {
        let plan = paper_flc_plan();
        let lut = paper_flc_lut();
        let mut scratch = EvalScratch::new();
        let exact = plan.evaluate_one(&x, &mut scratch).unwrap();
        let approx = lut.evaluate(x);
        prop_assert!(
            (exact - approx).abs() <= PAPER_LUT_MAX_ABS_ERROR,
            "LUT error {} at {:?} exceeds the documented bound {}",
            (exact - approx).abs(),
            x,
            PAPER_LUT_MAX_ABS_ERROR
        );
    }
}

/// Deterministic off-node sweep pinning the LUT bound (denser than the
/// proptest samples, aligned *between* the 33-node grid cells).
#[test]
fn paper_lut_dense_offgrid_sweep_within_bound() {
    let plan = paper_flc_plan();
    let lut = paper_flc_lut();
    let worst = lut
        .max_abs_error(&plan, 48)
        .expect("the paper FLC fires on every probe");
    assert!(
        worst <= PAPER_LUT_MAX_ABS_ERROR,
        "48³ off-grid sweep found error {worst} above the documented bound {PAPER_LUT_MAX_ABS_ERROR}"
    );
    assert!(worst > 0.0, "trilinear interpolation of a kinked surface is not exact");
}
