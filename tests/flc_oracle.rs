//! Analytic oracle for the paper FLC's decision surface.
//!
//! The Mamdani output of the paper profile is the clipped min–max
//! aggregate `f(x) = max_k min(W_k, μ_k(x))` of the piecewise-linear HD
//! terms, where `W_k` is the strongest firing of the rules that conclude
//! term `k`. Between consecutive breakpoints (term vertices, the points
//! where a term edge meets a clip level, and the points where two term
//! edges cross) `f` is linear, so its area and first moment integrate in
//! closed form, and so does its exact centroid.
//!
//! This file fuzzifies, fires and integrates on its own: membership
//! degrees are interpolated from the terms' vertex lists here, never
//! through `Mf::eval` or the engines' `grid_x` sampling. Over a dense
//! (CSSP, SSN, DMB) grid the 501-sample `CompiledFis` output must then lie
//! within an error bound derived from the trapezoid rule (see
//! [`sampling_bound`]) of the exact centroid.

use fuzzy_handover::core::flc::{
    build_paper_flc, paper_flc_plan, CSSP_RANGE, DMB_RANGE, HD_RANGE, SSN_RANGE,
};
use fuzzy_handover::fuzzy::{Connective, EvalScratch, Fis, Hedge, Mf};

/// A piecewise-linear membership function: vertices in strictly
/// increasing `x`, held constant beyond the first and last vertex.
struct Pwl(Vec<(f64, f64)>);

impl Pwl {
    fn of(mf: Mf) -> Pwl {
        let vertices = match mf {
            Mf::Triangular { a, b, c } => vec![(a, 0.0), (b, 1.0), (c, 0.0)],
            Mf::Trapezoidal { a, b, c, d } => vec![(a, 0.0), (b, 1.0), (c, 1.0), (d, 0.0)],
            Mf::LeftShoulder { a, b } => vec![(a, 1.0), (b, 0.0)],
            Mf::RightShoulder { a, b } => vec![(a, 0.0), (b, 1.0)],
            other => panic!("the oracle integrates piecewise-linear terms only, got {other:?}"),
        };
        assert!(
            vertices.windows(2).all(|w| w[0].0 < w[1].0),
            "vertices must be strictly increasing: {vertices:?}"
        );
        Pwl(vertices)
    }

    fn eval(&self, x: f64) -> f64 {
        let v = &self.0;
        if x <= v[0].0 {
            return v[0].1;
        }
        for w in v.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x <= x1 {
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
        }
        v[v.len() - 1].1
    }

    /// The sloped edges `((x0, y0), (x1, y1))`.
    fn edges(&self) -> impl Iterator<Item = ((f64, f64), (f64, f64))> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1])).filter(|(p, q)| p.1 != q.1)
    }
}

/// The clipped aggregate `max_k min(levels[k], terms[k](x))`.
fn aggregate(terms: &[Pwl], levels: &[f64], x: f64) -> f64 {
    terms.iter().zip(levels).map(|(t, &w)| t.eval(x).min(w)).fold(0.0, f64::max)
}

/// The exact integral of the aggregate over `[lo, hi]`.
struct Exact {
    area: f64,
    moment: f64,
    /// Largest `|f'|` over the linear pieces.
    max_slope: f64,
    /// Interior points where the slope of `f` changes.
    kinks: usize,
}

impl Exact {
    fn centroid(&self) -> f64 {
        self.moment / self.area
    }
}

fn integrate(terms: &[Pwl], levels: &[f64], (lo, hi): (f64, f64)) -> Exact {
    let mut cuts = vec![lo, hi];
    let mut cut = |x: f64| {
        if x > lo && x < hi {
            cuts.push(x);
        }
    };
    let edges: Vec<_> = terms.iter().flat_map(Pwl::edges).collect();
    for t in terms {
        t.0.iter().for_each(|&(x, _)| cut(x));
    }
    for &((x0, y0), (x1, y1)) in &edges {
        // Where this edge meets each clip level.
        for &w in levels {
            let t = (w - y0) / (y1 - y0);
            if (0.0..=1.0).contains(&t) {
                cut(x0 + t * (x1 - x0));
            }
        }
        // Where it crosses every other edge.
        for &((u0, v0), (u1, v1)) in &edges {
            let (s, r) = ((y1 - y0) / (x1 - x0), (v1 - v0) / (u1 - u0));
            if s != r {
                // y0 + s (x - x0) = v0 + r (x - u0)
                let x = (v0 - y0 + s * x0 - r * u0) / (s - r);
                if x >= x0.max(u0) && x <= x1.min(u1) {
                    cut(x);
                }
            }
        }
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let (mut area, mut moment, mut max_slope, mut kinks) = (0.0, 0.0, 0.0f64, 0);
    let mut last_slope = None;
    for w in cuts.windows(2) {
        let (p, q) = (w[0], w[1]);
        let (fp, fq) = (aggregate(terms, levels, p), aggregate(terms, levels, q));
        area += 0.5 * (fp + fq) * (q - p);
        moment += (q - p) / 6.0 * (p * (2.0 * fp + fq) + q * (fp + 2.0 * fq));
        let slope = (fq - fp) / (q - p);
        max_slope = max_slope.max(slope.abs());
        if last_slope.is_some_and(|s: f64| (s - slope).abs() > 1e-9) {
            kinks += 1;
        }
        last_slope = Some(slope);
    }
    Exact { area, moment, max_slope, kinks }
}

/// Per-term clip levels `W_k` of the paper FLC at `crisp`, fuzzified and
/// fired here from the rule table: AND is `min`, and a term's level is the
/// strongest weighted firing among the rules that conclude it.
fn clip_levels(fis: &Fis, crisp: [f64; 3]) -> Vec<f64> {
    let degrees: Vec<Vec<f64>> = fis
        .inputs()
        .iter()
        .zip(crisp)
        .map(|(var, x)| {
            let x = x.clamp(var.min, var.max);
            var.terms().iter().map(|t| Pwl::of(t.mf).eval(x)).collect()
        })
        .collect();
    let mut levels = vec![0.0f64; fis.outputs()[0].term_count()];
    for rule in fis.rules().rules() {
        assert_eq!(rule.connective, Connective::And, "the paper FRB is pure AND");
        let strength = rule
            .antecedents
            .iter()
            .map(|a| {
                assert_eq!(a.hedge, Hedge::Identity, "the paper FRB has no hedges");
                degrees[a.var][a.term]
            })
            .fold(1.0, f64::min)
            * rule.weight;
        for c in &rule.consequents {
            levels[c.term] = levels[c.term].max(strength);
        }
    }
    levels
}

/// The bound on `|c_h - c|`, where `c_h` is the trapezoid-rule centroid
/// from `n` uniform samples of `f` over `[lo, hi]` and `c` the exact one.
///
/// With `h = (hi - lo) / (n - 1)`, `L` the largest `|f'|` and `X` the
/// largest `|x|`:
///
/// * a panel with no kink inside holds a linear `f`, so its area is exact
///   and its moment (the integrand `x f` has second derivative `2 f'`)
///   errs by at most `h³ L / 6`;
/// * a panel holding a kink errs by at most `K h² / 3` for an integrand
///   with Lipschitz constant `K` (`|g - ℓ| ≤ 2K t (h - t) / h` against the
///   chord `ℓ`): `K = L` for the area and `K = X L + max f` for the
///   moment, with `max f ≤ 1`;
/// * so `|A_h - A| ≤ ε_A` and `|M_h - M| ≤ ε_M`, and
///   `|M_h / A_h - M / A| ≤ (ε_M + |c| ε_A) / (A - ε_A)`.
///
/// `1e-12` on each sum absorbs floating-point rounding.
fn sampling_bound(exact: &Exact, (lo, hi): (f64, f64), n: usize) -> f64 {
    let h = (hi - lo) / (n - 1) as f64;
    let l = exact.max_slope;
    let x_max = lo.abs().max(hi.abs());
    let kinks = exact.kinks as f64;
    let eps_area = kinks * l * h * h / 3.0 + 1e-12;
    let eps_moment =
        kinks * (x_max * l + 1.0) * h * h / 3.0 + (n - 1) as f64 * h.powi(3) * l / 6.0 + 1e-12;
    assert!(exact.area > eps_area, "area {} below its error bound {eps_area}", exact.area);
    (eps_moment + exact.centroid().abs() * eps_area) / (exact.area - eps_area)
}

fn linspace((lo, hi): (f64, f64), n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(move |i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
}

#[test]
fn oracle_reproduces_single_term_clipped_moments() {
    // One clipped term alone: the oracle must agree with the closed-form
    // single-MF integral the membership module provides.
    let fis = build_paper_flc();
    let hd = &fis.outputs()[0];
    let terms: Vec<Pwl> = hd.terms().iter().map(|t| Pwl::of(t.mf)).collect();
    for k in 0..terms.len() {
        for w in [0.1, 0.37, 0.5, 0.83, 1.0] {
            let mut levels = vec![0.0; terms.len()];
            levels[k] = w;
            let exact = integrate(&terms, &levels, HD_RANGE);
            let (area, moment) = hd.terms()[k].mf.clipped_moments(w, HD_RANGE.0, HD_RANGE.1);
            assert!((exact.area - area).abs() < 1e-12, "term {k} at {w}: area");
            assert!((exact.moment - moment).abs() < 1e-12, "term {k} at {w}: moment");
        }
    }
}

#[test]
fn sampled_centroid_within_derived_bound_of_exact_integral() {
    let fis = build_paper_flc();
    let plan = paper_flc_plan();
    let n = plan.config().resolution;
    let hd = &fis.outputs()[0];
    assert_eq!((hd.min, hd.max), HD_RANGE);
    let terms: Vec<Pwl> = hd.terms().iter().map(|t| Pwl::of(t.mf)).collect();
    let mut scratch = EvalScratch::new();
    let (mut worst_error, mut widest_bound, mut probes) = (0.0f64, 0.0f64, 0);
    for cssp in linspace(CSSP_RANGE, 25) {
        for ssn in linspace(SSN_RANGE, 25) {
            for dmb in linspace(DMB_RANGE, 25) {
                let crisp = [cssp, ssn, dmb];
                let exact = integrate(&terms, &clip_levels(&fis, crisp), HD_RANGE);
                let bound = sampling_bound(&exact, HD_RANGE, n);
                let sampled = plan.evaluate_one(&crisp, &mut scratch).unwrap();
                let error = (sampled - exact.centroid()).abs();
                assert!(
                    error <= bound,
                    "HD at {crisp:?}: sampled {sampled} vs exact {} (error {error} > bound {bound})",
                    exact.centroid()
                );
                worst_error = worst_error.max(error);
                widest_bound = widest_bound.max(bound);
                probes += 1;
            }
        }
    }
    assert_eq!(probes, 25 * 25 * 25);
    // The bound is tight enough to mean something next to the 0.7
    // handover threshold, and sampling is not exact on a kinked curve.
    assert!(widest_bound < 0.01, "derived bound {widest_bound} is too loose to be useful");
    assert!(worst_error > 0.0, "501 samples cannot integrate every kink exactly");
}
