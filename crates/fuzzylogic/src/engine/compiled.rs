//! A compiled, allocation-free Mamdani evaluation plan.
//!
//! [`CompiledFis`] is built once from a [`Fis`] and flattens everything the
//! hot path touches into dense, index-based arrays:
//!
//! * input variables become `(min, max)` bounds plus a flat array of term
//!   membership functions delimited by offsets — no nested `Vec<Vec<_>>`
//!   during fuzzification;
//! * rules become flat antecedent/consequent tables with pre-resolved
//!   membership indices — no bounds-checked nested lookups per clause;
//! * every output term's membership function is **pre-sampled** over the
//!   fixed-resolution output universe, so the imply/aggregate loop reads a
//!   contiguous `f64` row instead of re-evaluating the MF at every grid
//!   point of every call. Each row records its nonzero support
//!   `[start, end)`, and each output keeps its grid abscissae in a table.
//!
//! Evaluation writes into a caller-owned [`EvalScratch`], so after the
//! scratch has grown to the plan's dimensions (its first use) a call to
//! [`CompiledFis::evaluate`] performs **zero heap allocations** — verified
//! by a counting-allocator test in the workspace test suite.
//!
//! # Bit-identity with the interpreted engine
//!
//! `CompiledFis::evaluate` and [`Fis::evaluate`] return the same `f64`
//! bits for every input; property tests pin this. Fuzzification runs the
//! same arithmetic in the same order, rule firing folds the same degrees
//! in the same order, and both engines sample the output universe at the
//! same [`grid_x`] coordinates.
//!
//! The paper profile (`Implication::Min` + `Aggregation::Max`) takes a
//! sparse path that rests on these exact identities:
//!
//! * **Grouped consequents.** `max_r min(w_r, s) = min(max_r w_r, s)`, and
//!   `clamp` is monotone, so the fired rules of one consequent term fold
//!   into one strength `W_k = max_r w_r` and one pass over its row.
//!   `min` and `max` round nothing, so the order of the rules is free.
//! * **Support-bounded rows.** Outside a row's nonzero support the sample
//!   is `±0`: `min(W, ±0)` clamps to zero and `max(m, ±0) = m`, so those
//!   samples are skipped.
//! * **Fused centroid.** The trapezoid area and first moment are summed
//!   in one pass over the union of the fired supports, in grid order. A
//!   skipped sample would add an exact zero to each running sum, so both
//!   accumulators keep their bits. The endpoint terms are formed as in
//!   the interpreted defuzzifier, and the abscissae come from a table
//!   filled by [`grid_x`] at compile time. The samples are non-negative,
//!   so the defuzzifier's zero-height test is a positivity test on the
//!   same sums. A zero area falls back to the generic defuzzifier.
//! * **Hoisted dispatch.** The operator profile is matched once per call,
//!   not per sample. Rule firing matches its norm once per rule; with the
//!   `Min`/`Max` norms it folds with plain `min`/`max`, because the
//!   norms' own clamps are identities on the hedged degrees in `[0, 1]`.
//!
//! Only the sign of an exact zero can differ, and no defuzzifier output
//! depends on it. Every other operator profile runs the generic
//! rule-by-rule loop in the interpreted engine's order. The paper's
//! `Product` profile (product implication, probabilistic-sum aggregation)
//! is one of them: `a + b - ab` rounds at every step, so its result
//! depends on the order and grouping of the fired rules, and the same
//! holds for bounded-sum aggregation.
//!
//! Because the plan is immutable and `Send + Sync`, many consumers (e.g.
//! thousands of per-UE handover controllers) can share one plan behind an
//! `Arc` while each owns only a small scratch.

use crate::defuzz::Defuzzifier;
use crate::engine::mamdani::{EngineConfig, Fis, NoFirePolicy};
use crate::error::{FuzzyError, Result};
use crate::fuzzyset::grid_x;
use crate::hedge::Hedge;
use crate::membership::Mf;
use crate::norms::{Aggregation, Implication, SNorm, TNorm};
use crate::rule::Connective;

/// Sentinel membership index for antecedents whose variable/term index does
/// not resolve (the interpreted engine reads those as degree 0).
const NO_MEMBERSHIP: u32 = u32::MAX;

/// Marks an output term no consequent has referenced yet during compile.
const NO_ROW: u32 = u32::MAX;

/// One flattened antecedent clause: a pre-resolved index into the scratch
/// membership buffer plus the hedge to apply.
#[derive(Debug, Clone, Copy)]
struct FlatAntecedent {
    /// Index into [`EvalScratch::memberships`], or [`NO_MEMBERSHIP`].
    mu_index: u32,
    hedge: Hedge,
}

/// One flattened consequent clause of a specific output variable: which
/// rule gates it and which pre-sampled row shapes it.
#[derive(Debug, Clone, Copy)]
struct FlatConsequent {
    /// Index of the gating rule (into the firing-strength buffer).
    rule: u32,
    /// Row index into [`CompiledFis::samples`].
    row: u32,
}

/// A [`Fis`] compiled into dense arrays with pre-sampled consequent shapes.
///
/// Build with [`CompiledFis::compile`] (or [`Fis::compile`]), evaluate with
/// [`CompiledFis::evaluate`] / [`CompiledFis::evaluate_batch`] against a
/// reusable [`EvalScratch`]. See the [module docs](self) for the layout and
/// the bit-identity guarantee.
#[derive(Debug, Clone)]
pub struct CompiledFis {
    name: String,
    /// Universe bounds per input (for clamping before fuzzification).
    input_bounds: Vec<(f64, f64)>,
    /// `input_offsets[v]..input_offsets[v + 1]` delimits input `v`'s terms
    /// in both `input_mfs` and the scratch membership buffer.
    input_offsets: Vec<u32>,
    /// Flat input-term membership functions, in declaration order.
    input_mfs: Vec<Mf>,
    /// `ant_offsets[r]..ant_offsets[r + 1]` delimits rule `r`'s antecedents.
    ant_offsets: Vec<u32>,
    antecedents: Vec<FlatAntecedent>,
    connectives: Vec<Connective>,
    weights: Vec<f64>,
    /// Universe bounds per output.
    output_bounds: Vec<(f64, f64)>,
    /// `cons_offsets[o]..cons_offsets[o + 1]` delimits output `o`'s
    /// consequent table, in (rule, consequent) declaration order — the
    /// exact aggregation order of the interpreted engine.
    cons_offsets: Vec<u32>,
    consequents: Vec<FlatConsequent>,
    /// `row_offsets[o]..row_offsets[o + 1]` delimits output `o`'s rows in
    /// `samples` and `supports`.
    row_offsets: Vec<u32>,
    /// Pre-sampled output-term shapes: row `k` holds `resolution` samples
    /// of one output term's MF over its variable's universe.
    samples: Vec<f64>,
    /// Per row, the sample range `[start, end)` outside which every sample
    /// is zero (`start == end` for a row that is zero everywhere).
    supports: Vec<(u32, u32)>,
    /// Per output, the `resolution` grid abscissae [`grid_x`] yields.
    xs: Vec<f64>,
    config: EngineConfig,
}

impl CompiledFis {
    /// Compile a [`Fis`] into a dense evaluation plan.
    pub fn compile(fis: &Fis) -> Self {
        let config = *fis.config();
        let res = config.resolution;

        let mut input_bounds = Vec::with_capacity(fis.inputs().len());
        let mut input_offsets = Vec::with_capacity(fis.inputs().len() + 1);
        let mut input_mfs = Vec::new();
        input_offsets.push(0);
        for var in fis.inputs() {
            input_bounds.push((var.min, var.max));
            input_mfs.extend(var.terms().iter().map(|t| t.mf));
            input_offsets.push(input_mfs.len() as u32);
        }

        let rules = fis.rules().rules();
        let mut ant_offsets = Vec::with_capacity(rules.len() + 1);
        let mut antecedents = Vec::new();
        let mut connectives = Vec::with_capacity(rules.len());
        let mut weights = Vec::with_capacity(rules.len());
        ant_offsets.push(0);
        for rule in rules {
            for a in &rule.antecedents {
                let in_range = a.var < fis.inputs().len()
                    && a.term < fis.inputs()[a.var].term_count();
                antecedents.push(FlatAntecedent {
                    mu_index: if in_range {
                        input_offsets[a.var] + a.term as u32
                    } else {
                        NO_MEMBERSHIP
                    },
                    hedge: a.hedge,
                });
            }
            ant_offsets.push(antecedents.len() as u32);
            connectives.push(rule.connective);
            weights.push(rule.weight);
        }

        // Pre-sample every output term once from the output's abscissa
        // table, then trim the row's zero ends to find its support (a scan
        // that stops at the first nonzero sample from either side);
        // consequent tables reference the rows. `grid_x` makes the sample
        // coordinates bit-identical to the interpreted engine's
        // `SampledSet` grid.
        let outputs = fis.outputs();
        let mut output_bounds = Vec::with_capacity(outputs.len());
        let mut cons_offsets = Vec::with_capacity(outputs.len() + 1);
        let mut consequents = Vec::new();
        let mut row_offsets = Vec::with_capacity(outputs.len() + 1);
        let mut samples = Vec::new();
        let mut supports = Vec::new();
        let mut xs = Vec::with_capacity(outputs.len() * res);
        cons_offsets.push(0);
        row_offsets.push(0);
        for (oi, var) in outputs.iter().enumerate() {
            output_bounds.push((var.min, var.max));
            let grid = xs.len();
            xs.extend((0..res).map(|i| grid_x(var.min, var.max, res, i)));
            let mut row_of_term = vec![NO_ROW; var.term_count()];
            for (ri, rule) in rules.iter().enumerate() {
                for cons in rule.consequents.iter().filter(|c| c.var == oi) {
                    if row_of_term[cons.term] == NO_ROW {
                        row_of_term[cons.term] = supports.len() as u32;
                        let mf = var.terms()[cons.term].mf;
                        let base = samples.len();
                        samples.extend(xs[grid..].iter().map(|&x| mf.eval(x)));
                        let row = &samples[base..];
                        let start = row.iter().position(|&s| s != 0.0).unwrap_or(0);
                        let end = row.iter().rposition(|&s| s != 0.0).map_or(0, |i| i + 1);
                        supports.push((start as u32, end as u32));
                    }
                    consequents
                        .push(FlatConsequent { rule: ri as u32, row: row_of_term[cons.term] });
                }
            }
            cons_offsets.push(consequents.len() as u32);
            row_offsets.push(supports.len() as u32);
        }

        CompiledFis {
            name: fis.name().to_string(),
            input_bounds,
            input_offsets,
            input_mfs,
            ant_offsets,
            antecedents,
            connectives,
            weights,
            output_bounds,
            cons_offsets,
            consequents,
            row_offsets,
            samples,
            supports,
            xs,
            config,
        }
    }

    /// System name (inherited from the source [`Fis`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of crisp inputs.
    pub fn n_inputs(&self) -> usize {
        self.input_bounds.len()
    }

    /// Number of crisp outputs.
    pub fn n_outputs(&self) -> usize {
        self.output_bounds.len()
    }

    /// Number of rules.
    pub fn n_rules(&self) -> usize {
        self.weights.len()
    }

    /// Engine configuration (operators, resolution, defuzzifier).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Universe bounds `(min, max)` of input `v`.
    pub fn input_bounds(&self, v: usize) -> (f64, f64) {
        self.input_bounds[v]
    }

    /// Universe bounds `(min, max)` of output `o`.
    pub fn output_bounds(&self, o: usize) -> (f64, f64) {
        self.output_bounds[o]
    }

    /// A scratch pre-sized for this plan (a fresh [`EvalScratch::new`]
    /// works too; it grows to the right size on first use).
    pub fn scratch(&self) -> EvalScratch {
        let mut s = EvalScratch::new();
        s.prepare(self);
        s
    }

    /// Evaluate crisp inputs into `outputs` (one slot per declared output)
    /// using the caller's scratch. Zero heap allocations once `scratch` has
    /// been used with this plan (or was created by [`CompiledFis::scratch`]).
    ///
    /// Bit-identical to [`Fis::evaluate`] on the source system.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` differs from [`CompiledFis::n_outputs`]
    /// (a caller bug, unlike data-dependent errors which are returned).
    pub fn evaluate(
        &self,
        crisp: &[f64],
        scratch: &mut EvalScratch,
        outputs: &mut [f64],
    ) -> Result<()> {
        if crisp.len() != self.n_inputs() {
            return Err(FuzzyError::InputArity { expected: self.n_inputs(), got: crisp.len() });
        }
        for (i, &x) in crisp.iter().enumerate() {
            if !x.is_finite() {
                return Err(FuzzyError::NonFiniteInput { index: i, value: x });
            }
        }
        assert_eq!(
            outputs.len(),
            self.n_outputs(),
            "output buffer must have one slot per declared output"
        );
        scratch.prepare(self);

        // Step 1 — fuzzify (clamp to the universe, then every term MF).
        for (v, &(lo, hi)) in self.input_bounds.iter().enumerate() {
            let x = crisp[v].clamp(lo, hi);
            let start = self.input_offsets[v] as usize;
            let end = self.input_offsets[v + 1] as usize;
            for k in start..end {
                scratch.memberships[k] = self.input_mfs[k].eval(x);
            }
        }

        // Step 2 — firing strengths.
        for r in 0..self.n_rules() {
            let clauses =
                &self.antecedents[self.ant_offsets[r] as usize..self.ant_offsets[r + 1] as usize];
            let degrees = clauses.iter().map(|a| {
                let mu = if a.mu_index == NO_MEMBERSHIP {
                    0.0
                } else {
                    scratch.memberships[a.mu_index as usize]
                };
                a.hedge.apply(mu)
            });
            // Every hedged degree lies in [0, 1], where the min/max norms'
            // own clamps are identities, so those folds skip them.
            let strength = match (self.connectives[r], self.config.and, self.config.or) {
                (Connective::And, TNorm::Min, _) => degrees.fold(1.0, f64::min),
                (Connective::Or, _, SNorm::Max) => degrees.fold(0.0, f64::max),
                (Connective::And, and, _) => and.fold(degrees),
                (Connective::Or, _, or) => or.fold(degrees),
            };
            scratch.firing[r] = strength * self.weights[r];
        }

        // Steps 3–5 — imply/aggregate from the pre-sampled rows, then
        // defuzzify the scratch curve in place. The operator profile is
        // dispatched once per call.
        let min_max = self.config.implication == Implication::Min
            && self.config.aggregation == Aggregation::Max;
        let res = self.config.resolution;
        for (oi, out) in outputs.iter_mut().enumerate() {
            let (lo, hi) = self.output_bounds[oi];
            let table = &self.consequents
                [self.cons_offsets[oi] as usize..self.cons_offsets[oi + 1] as usize];
            let mu = &mut scratch.mu[..res];
            mu.fill(0.0);
            let crisp = if min_max {
                let span =
                    self.aggregate_min_max(oi, table, &scratch.firing, &mut scratch.strength, mu);
                match self.config.defuzzifier {
                    Defuzzifier::Centroid => self.centroid(oi, span, mu),
                    d => d.defuzzify_slice(lo, hi, mu),
                }
            } else {
                self.aggregate_generic(table, &scratch.firing, mu);
                self.config.defuzzifier.defuzzify_slice(lo, hi, mu)
            };
            *out = match crisp {
                Some(v) => v,
                None => match self.config.no_fire {
                    NoFirePolicy::Error => return Err(FuzzyError::NoRuleFired),
                    NoFirePolicy::UniverseMidpoint => 0.5 * (lo + hi),
                },
            };
        }
        Ok(())
    }

    /// Imply and aggregate every fired consequent of one output into `mu`
    /// rule by rule, in the interpreted engine's order, under any operator
    /// profile.
    fn aggregate_generic(&self, table: &[FlatConsequent], firing: &[f64], mu: &mut [f64]) {
        let res = mu.len();
        let implication = self.config.implication;
        let aggregation = self.config.aggregation;
        for cons in table {
            let w = firing[cons.rule as usize];
            if w <= 0.0 {
                continue;
            }
            let row = &self.samples[cons.row as usize * res..][..res];
            for (slot, &sample) in mu.iter_mut().zip(row) {
                *slot = aggregation.apply(*slot, implication.apply(w, sample).clamp(0.0, 1.0));
            }
        }
    }

    /// Min implication + max aggregation of one output into the zeroed
    /// `mu`: fired rules fold into one strength per consequent row, and
    /// each fired row is applied over its nonzero support only. Returns
    /// the union `[first, last)` of the fired supports (empty when no
    /// sample was touched); `mu` is zero outside it.
    ///
    /// Firing strengths are finite (weights lie in `[0, 1]` and every
    /// degree is clamped), so folding them with `max` drops nothing.
    fn aggregate_min_max(
        &self,
        oi: usize,
        table: &[FlatConsequent],
        firing: &[f64],
        strength: &mut [f64],
        mu: &mut [f64],
    ) -> (usize, usize) {
        let res = mu.len();
        let first_row = self.row_offsets[oi] as usize;
        let strength = &mut strength[first_row..self.row_offsets[oi + 1] as usize];
        strength.fill(0.0);
        for cons in table {
            let slot = &mut strength[cons.row as usize - first_row];
            *slot = slot.max(firing[cons.rule as usize]);
        }
        let (mut first, mut last) = (res, 0);
        for (k, &w) in strength.iter().enumerate() {
            let (start, end) = self.supports[first_row + k];
            let (start, end) = (start as usize, end as usize);
            if w <= 0.0 || start == end {
                continue;
            }
            first = first.min(start);
            last = last.max(end);
            let row = &self.samples[(first_row + k) * res..][start..end];
            for (slot, &sample) in mu[start..end].iter_mut().zip(row) {
                *slot = slot.max(w.min(sample).clamp(0.0, 1.0));
            }
        }
        (first, last)
    }

    /// The centroid of output `oi`'s aggregate `mu`, which is zero outside
    /// `span`: [`Defuzzifier::Centroid`]'s trapezoid area and first moment
    /// fused into one pass over the span, with both accumulators summed in
    /// grid order so the result keeps its bits.
    fn centroid(&self, oi: usize, (first, last): (usize, usize), mu: &[f64]) -> Option<f64> {
        let n = mu.len();
        let (lo, hi) = self.output_bounds[oi];
        let xs = &self.xs[oi * n..][..n];
        let (head, tail) = (mu[0], mu[n - 1]);
        let (mut interior_area, mut interior_moment) = (0.0, 0.0);
        for i in first.max(1)..last.min(n - 1) {
            let m = mu[i];
            interior_area += m;
            interior_moment += m * xs[i];
        }
        // Every sample lies in [0, 1], and a sum of non-negative terms is
        // positive exactly when one of them is, so this is the
        // defuzzifier's `height <= 0` test without a third running fold.
        if !(head > 0.0 || tail > 0.0 || interior_area > 0.0) {
            return None;
        }
        let dx = (hi - lo) / (n - 1) as f64;
        let area = dx * (0.5 * (head + tail) + interior_area);
        if area <= 0.0 {
            return Defuzzifier::Centroid.defuzzify_slice(lo, hi, mu);
        }
        let moment = dx * (0.5 * (head * xs[0] + tail * xs[n - 1]) + interior_moment);
        Some(moment / area)
    }

    /// Single-output convenience: evaluate and return the one crisp output.
    ///
    /// # Panics
    ///
    /// Panics if the system declares more than one output.
    pub fn evaluate_one(&self, crisp: &[f64], scratch: &mut EvalScratch) -> Result<f64> {
        assert_eq!(self.n_outputs(), 1, "evaluate_one requires a single-output system");
        let mut out = [0.0f64];
        self.evaluate(crisp, scratch, &mut out)?;
        Ok(out[0])
    }

    /// Evaluate a batch of input rows.
    ///
    /// `inputs` is row-major with [`CompiledFis::n_inputs`] values per row;
    /// `outputs` receives [`CompiledFis::n_outputs`] values per row. Each
    /// row is evaluated exactly like [`CompiledFis::evaluate`] (and is
    /// therefore bit-identical to the scalar path); the batch form
    /// amortises scratch reuse and keeps the plan's tables cache-hot across
    /// rows. Stops at the first row that fails.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of the input arity or
    /// `outputs` does not hold exactly one output row per input row.
    pub fn evaluate_batch(
        &self,
        inputs: &[f64],
        outputs: &mut [f64],
        scratch: &mut EvalScratch,
    ) -> Result<()> {
        let ni = self.n_inputs();
        let no = self.n_outputs();
        assert_eq!(inputs.len() % ni, 0, "inputs must be whole rows of {ni} values");
        let rows = inputs.len() / ni;
        assert_eq!(outputs.len(), rows * no, "outputs must hold {no} values per input row");
        for r in 0..rows {
            self.evaluate(
                &inputs[r * ni..(r + 1) * ni],
                scratch,
                &mut outputs[r * no..(r + 1) * no],
            )?;
        }
        Ok(())
    }
}

/// Reusable working memory for [`CompiledFis`] evaluation.
///
/// Holds the fuzzified membership degrees, the per-rule firing strengths,
/// the per-row folded strengths and the aggregated output curve. Buffers grow to the plan's dimensions
/// on first use and are reused (never freed, never reallocated) afterwards,
/// which is what makes the evaluation loop allocation-free. A scratch may
/// be reused across different plans; it simply grows to the largest.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    memberships: Vec<f64>,
    firing: Vec<f64>,
    /// Per consequent row, the folded strength of its fired rules.
    strength: Vec<f64>,
    mu: Vec<f64>,
}

impl EvalScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to `fis`'s dimensions (no-op once large enough).
    fn prepare(&mut self, fis: &CompiledFis) {
        if self.memberships.len() < fis.input_mfs.len() {
            self.memberships.resize(fis.input_mfs.len(), 0.0);
        }
        if self.firing.len() < fis.n_rules() {
            self.firing.resize(fis.n_rules(), 0.0);
        }
        if self.strength.len() < fis.supports.len() {
            self.strength.resize(fis.supports.len(), 0.0);
        }
        if self.mu.len() < fis.config.resolution {
            self.mu.resize(fis.config.resolution, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mamdani::FisBuilder;
    use crate::rule::{Antecedent, Consequent, Rule};
    use crate::variable::LinguisticVariable;

    fn tipper() -> Fis {
        let service = LinguisticVariable::new("service", 0.0, 10.0)
            .with_term("poor", Mf::gaussian(0.0, 1.5))
            .with_term("good", Mf::gaussian(5.0, 1.5))
            .with_term("excellent", Mf::gaussian(10.0, 1.5));
        let food = LinguisticVariable::new("food", 0.0, 10.0)
            .with_term("rancid", Mf::trapezoidal(0.0, 0.0, 1.0, 3.0))
            .with_term("delicious", Mf::trapezoidal(7.0, 9.0, 10.0, 10.0));
        let tip = LinguisticVariable::new("tip", 0.0, 30.0)
            .with_term("cheap", Mf::triangular(0.0, 5.0, 10.0))
            .with_term("average", Mf::triangular(10.0, 15.0, 20.0))
            .with_term("generous", Mf::triangular(20.0, 25.0, 30.0));
        FisBuilder::new("tipper")
            .input(service)
            .input(food)
            .output(tip)
            .rule_str("IF service IS poor OR food IS rancid THEN tip IS cheap")
            .unwrap()
            .rule_str("IF service IS good THEN tip IS average")
            .unwrap()
            .rule_str("IF service IS excellent OR food IS delicious THEN tip IS generous")
            .unwrap()
            .build()
            .unwrap()
    }

    /// Every defuzzifier × no-fire policy variant of `fis` under its own
    /// operators: at each probe the compiled plan returns the interpreted
    /// engine's bits, or its error.
    fn assert_bitwise_everywhere(fis: &Fis, probes: &[Vec<f64>]) {
        for defuzzifier in Defuzzifier::ALL {
            for no_fire in [NoFirePolicy::Error, NoFirePolicy::UniverseMidpoint] {
                let config = EngineConfig { defuzzifier, no_fire, ..*fis.config() };
                let fis = fis.clone().with_config(config);
                let plan = fis.compile();
                let mut scratch = EvalScratch::new();
                let mut out = vec![0.0; plan.n_outputs()];
                for x in probes {
                    let compiled = plan.evaluate(x, &mut scratch, &mut out).map(|()| &out);
                    match (fis.evaluate(x), compiled) {
                        (Ok(a), Ok(b)) => {
                            let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                            let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(a, b, "{defuzzifier:?}/{no_fire:?} drifted at {x:?}");
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{defuzzifier:?} at {x:?}"),
                        (a, b) => panic!("{defuzzifier:?}/{no_fire:?} at {x:?}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// A `steps`-point grid over `[lo, hi]` plus one point past each end.
    fn axis(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
        let mut xs: Vec<f64> =
            (0..steps).map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64).collect();
        xs.extend([lo - 1.0, hi + 1.0]);
        xs
    }

    /// The outer product of two axes as probe rows.
    fn probes2(a: &[f64], b: &[f64]) -> Vec<Vec<f64>> {
        a.iter().flat_map(|&x| b.iter().map(move |&y| vec![x, y])).collect()
    }

    #[test]
    fn matches_interpreted_engine_bitwise() {
        let fis = tipper();
        let plan = fis.compile();
        let mut scratch = plan.scratch();
        let mut out = [0.0f64];
        for x in [0.0, 0.5, 2.5, 5.0, 7.7, 10.0, -3.0, 13.0] {
            for y in [0.0, 1.0, 4.9, 8.1, 10.0, 42.0] {
                let interpreted = fis.evaluate(&[x, y]).unwrap()[0];
                plan.evaluate(&[x, y], &mut scratch, &mut out).unwrap();
                assert_eq!(
                    interpreted.to_bits(),
                    out[0].to_bits(),
                    "compiled drifted at ({x}, {y}): {interpreted} vs {}",
                    out[0]
                );
            }
        }
    }

    #[test]
    fn matches_across_operator_families_and_defuzzifiers() {
        for d in Defuzzifier::ALL {
            for (and, or, imp, agg) in [
                (TNorm::Min, SNorm::Max, Implication::Min, Aggregation::Max),
                (
                    TNorm::Product,
                    SNorm::ProbabilisticSum,
                    Implication::Product,
                    Aggregation::ProbabilisticSum,
                ),
                (TNorm::Lukasiewicz, SNorm::BoundedSum, Implication::Min, Aggregation::BoundedSum),
            ] {
                let fis = tipper().with_config(EngineConfig {
                    and,
                    or,
                    implication: imp,
                    aggregation: agg,
                    defuzzifier: d,
                    resolution: 301,
                    no_fire: NoFirePolicy::Error,
                });
                let plan = fis.compile();
                let mut scratch = EvalScratch::new();
                for x in [0.3, 4.2, 9.6] {
                    let a = fis.evaluate(&[x, 10.0 - x]).unwrap()[0];
                    let b = plan.evaluate_one(&[x, 10.0 - x], &mut scratch).unwrap();
                    assert_eq!(a.to_bits(), b.to_bits(), "{d:?}/{and:?} drifted at {x}");
                }
            }
        }
    }

    #[test]
    fn batch_equals_scalar() {
        let plan = tipper().compile();
        let mut scratch = plan.scratch();
        let inputs: Vec<f64> = (0..32).flat_map(|k| [k as f64 * 0.3, 10.0 - k as f64 * 0.25]).collect();
        let mut batch = vec![0.0; 32];
        plan.evaluate_batch(&inputs, &mut batch, &mut scratch).unwrap();
        for k in 0..32 {
            let scalar = plan.evaluate_one(&inputs[2 * k..2 * k + 2], &mut scratch).unwrap();
            assert_eq!(scalar.to_bits(), batch[k].to_bits());
        }
    }

    #[test]
    fn error_paths_match_interpreted() {
        let fis = tipper();
        let plan = fis.compile();
        let mut scratch = plan.scratch();
        let mut out = [0.0f64];
        assert_eq!(
            plan.evaluate(&[1.0], &mut scratch, &mut out),
            Err(FuzzyError::InputArity { expected: 2, got: 1 })
        );
        assert!(matches!(
            plan.evaluate(&[f64::NAN, 1.0], &mut scratch, &mut out),
            Err(FuzzyError::NonFiniteInput { index: 0, .. })
        ));
    }

    #[test]
    fn fractional_weights_sharing_a_consequent_match_bitwise() {
        // Four rules feed `average` with weights below 1, so the grouped
        // strength is a max over several scaled firings; two more share
        // `cheap`. Rule order interleaves the groups.
        let fis = FisBuilder::new("weighted")
            .input(
                LinguisticVariable::new("service", 0.0, 10.0)
                    .with_term("poor", Mf::left_shoulder(2.0, 5.0))
                    .with_term("good", Mf::triangular(2.0, 5.0, 8.0))
                    .with_term("excellent", Mf::right_shoulder(5.0, 8.0)),
            )
            .input(
                LinguisticVariable::new("food", 0.0, 10.0)
                    .with_term("rancid", Mf::left_shoulder(3.0, 7.0))
                    .with_term("delicious", Mf::right_shoulder(3.0, 7.0)),
            )
            .output(
                LinguisticVariable::new("tip", 0.0, 30.0)
                    .with_term("cheap", Mf::triangular(0.0, 5.0, 10.0))
                    .with_term("average", Mf::triangular(7.5, 15.0, 22.5))
                    .with_term("generous", Mf::triangular(20.0, 25.0, 30.0)),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(0, 1)],
                    Connective::And,
                    vec![Consequent::new(0, 1)],
                )
                .with_weight(0.9),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(0, 0)],
                    Connective::And,
                    vec![Consequent::new(0, 0)],
                )
                .with_weight(0.35),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(1, 0)],
                    Connective::And,
                    vec![Consequent::new(0, 1)],
                )
                .with_weight(0.4),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(0, 2), Antecedent::new(1, 1)],
                    Connective::And,
                    vec![Consequent::new(0, 2)],
                )
                .with_weight(0.75),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(1, 1)],
                    Connective::And,
                    vec![Consequent::new(0, 1)],
                )
                .with_weight(0.6),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(0, 0), Antecedent::new(1, 0)],
                    Connective::Or,
                    vec![Consequent::new(0, 0)],
                )
                .with_weight(0.5),
            )
            .rule(
                Rule::new(
                    vec![Antecedent::new(0, 2)],
                    Connective::And,
                    vec![Consequent::new(0, 1)],
                )
                .with_weight(0.05),
            )
            .build()
            .unwrap();
        let grid = axis(0.0, 10.0, 21);
        assert_bitwise_everywhere(&fis, &probes2(&grid, &grid));
    }

    #[test]
    fn shoulder_supports_touch_both_grid_ends() {
        // The left shoulder's support starts at sample 0 and the right
        // shoulder's ends at sample n - 1, so the fused centroid must take
        // both endpoint terms from the aggregate.
        let fis = FisBuilder::new("shoulders")
            .input(
                LinguisticVariable::new("x", 0.0, 1.0)
                    .with_term("lo", Mf::left_shoulder(0.3, 0.7))
                    .with_term("hi", Mf::right_shoulder(0.3, 0.7)),
            )
            .output(
                LinguisticVariable::new("y", 0.0, 1.0)
                    .with_term("down", Mf::left_shoulder(0.2, 0.6))
                    .with_term("up", Mf::right_shoulder(0.4, 0.8)),
            )
            .rule_str("IF x IS lo THEN y IS down")
            .unwrap()
            .rule_str("IF x IS hi THEN y IS up")
            .unwrap()
            .resolution(101)
            .build()
            .unwrap();
        let plan = fis.compile();
        // down: 1 up to x = 0.2, 0 from x = 0.6 (sample 60) on.
        assert_eq!(plan.supports, [(0, 60), (41, 101)]);
        assert_bitwise_everywhere(
            &fis,
            &axis(0.0, 1.0, 41).into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn output_term_zero_on_every_sample_matches() {
        // `sliver` lives strictly between the grid points 0.4 and 0.5 of an
        // 11-sample universe: its row has an empty support. Inputs that
        // fire only `sliver` leave the aggregate all zero (the no-fire
        // policy decides); mixed inputs must ignore it.
        let fis = FisBuilder::new("sliver")
            .input(
                LinguisticVariable::new("x", 0.0, 1.0)
                    .with_term("lo", Mf::left_shoulder(0.2, 0.5))
                    .with_term("hi", Mf::right_shoulder(0.5, 0.8)),
            )
            .output(
                LinguisticVariable::new("y", 0.0, 1.0)
                    .with_term("sliver", Mf::triangular(0.42, 0.45, 0.48))
                    .with_term("top", Mf::right_shoulder(0.6, 0.9)),
            )
            .rule_str("IF x IS lo THEN y IS sliver")
            .unwrap()
            .rule_str("IF x IS hi THEN y IS top")
            .unwrap()
            .resolution(11)
            .build()
            .unwrap();
        let plan = fis.compile();
        assert_eq!(plan.supports[0].0, plan.supports[0].1, "sliver is zero on the grid");
        let mut scratch = EvalScratch::new();
        assert_eq!(plan.evaluate_one(&[0.1], &mut scratch), Err(FuzzyError::NoRuleFired));
        assert_bitwise_everywhere(
            &fis,
            &axis(0.0, 1.0, 51).into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn negative_output_universe_matches() {
        let fis = FisBuilder::new("negative")
            .input(
                LinguisticVariable::new("x", -5.0, 5.0)
                    .with_term("lo", Mf::left_shoulder(-3.0, 1.0))
                    .with_term("mid", Mf::triangular(-3.0, 0.0, 3.0))
                    .with_term("hi", Mf::right_shoulder(-1.0, 3.0)),
            )
            .output(
                LinguisticVariable::new("y", -40.0, -2.5)
                    .with_term("deep", Mf::left_shoulder(-35.0, -20.0))
                    .with_term("mid", Mf::trapezoidal(-30.0, -22.0, -18.0, -10.0))
                    .with_term("shallow", Mf::right_shoulder(-20.0, -5.0)),
            )
            .rule_str("IF x IS lo THEN y IS deep")
            .unwrap()
            .rule_str("IF x IS mid THEN y IS mid")
            .unwrap()
            .rule_str("IF x IS hi THEN y IS shallow")
            .unwrap()
            .resolution(257)
            .build()
            .unwrap();
        let plan = fis.compile();
        assert!(plan.xs.iter().all(|&x| x < 0.0));
        assert_bitwise_everywhere(
            &fis,
            &axis(-5.0, 5.0, 81).into_iter().map(|x| vec![x]).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn hedged_antecedents_match() {
        let base = tipper();
        let mut builder = FisBuilder::new("hedged");
        for v in base.inputs() {
            builder = builder.input(v.clone());
        }
        let fis = builder
            .output(base.outputs()[0].clone())
            .rule_str("IF service IS very poor OR food IS somewhat rancid THEN tip IS cheap")
            .unwrap()
            .rule_str("IF service IS not good AND food IS extremely delicious THEN tip IS average")
            .unwrap()
            .rule_str("IF service IS slightly excellent THEN tip IS generous")
            .unwrap()
            .rule_str("IF service IS intensify good THEN tip IS average")
            .unwrap()
            .build()
            .unwrap();
        let grid = axis(0.0, 10.0, 17);
        assert_bitwise_everywhere(&fis, &probes2(&grid, &grid));
    }

    #[test]
    fn no_fire_policies_match() {
        let input = LinguisticVariable::new("x", 0.0, 10.0)
            .with_term("edge", Mf::triangular(0.0, 0.0, 1.0));
        let output = LinguisticVariable::new("y", 0.0, 10.0)
            .with_term("t", Mf::triangular(0.0, 5.0, 10.0));
        let build = |p: NoFirePolicy| {
            FisBuilder::new("nf")
                .input(input.clone())
                .output(output.clone())
                .rule_str("IF x IS edge THEN y IS t")
                .unwrap()
                .no_fire(p)
                .build()
                .unwrap()
        };
        let strict = build(NoFirePolicy::Error).compile();
        let mut scratch = EvalScratch::new();
        assert_eq!(strict.evaluate_one(&[5.0], &mut scratch), Err(FuzzyError::NoRuleFired));
        let lenient = build(NoFirePolicy::UniverseMidpoint).compile();
        assert_eq!(lenient.evaluate_one(&[5.0], &mut scratch).unwrap(), 5.0);
        // Both policies, fired and unfired inputs, against the interpreter.
        let probes: Vec<Vec<f64>> = axis(0.0, 10.0, 41).into_iter().map(|x| vec![x]).collect();
        assert_bitwise_everywhere(&build(NoFirePolicy::Error), &probes);
    }

    #[test]
    fn two_output_systems_compile() {
        let x = LinguisticVariable::new("x", 0.0, 1.0)
            .with_term("lo", Mf::left_shoulder(0.0, 1.0))
            .with_term("hi", Mf::right_shoulder(0.0, 1.0));
        let y1 = LinguisticVariable::new("y1", 0.0, 1.0)
            .with_term("a", Mf::triangular(0.0, 0.25, 0.5))
            .with_term("b", Mf::triangular(0.5, 0.75, 1.0));
        let y2 = LinguisticVariable::new("y2", 0.0, 1.0)
            .with_term("c", Mf::triangular(0.0, 0.25, 0.5))
            .with_term("d", Mf::triangular(0.5, 0.75, 1.0));
        let fis = FisBuilder::new("dual")
            .input(x)
            .output(y1)
            .output(y2)
            .rule_str("IF x IS lo THEN y1 IS a AND y2 IS d")
            .unwrap()
            .rule_str("IF x IS hi THEN y1 IS b AND y2 IS c")
            .unwrap()
            .build()
            .unwrap();
        let plan = fis.compile();
        assert_eq!(plan.n_outputs(), 2);
        let mut scratch = plan.scratch();
        let mut out = [0.0f64; 2];
        for x in [0.05, 0.5, 0.95] {
            plan.evaluate(&[x], &mut scratch, &mut out).unwrap();
            let reference = fis.evaluate(&[x]).unwrap();
            assert_eq!(out[0].to_bits(), reference[0].to_bits());
            assert_eq!(out[1].to_bits(), reference[1].to_bits());
        }
        // Each output folds its own rows: the plan keeps two rows per
        // output, and every defuzzifier matches on a dense sweep.
        assert_eq!(plan.row_offsets, [0, 2, 4]);
        let probes: Vec<Vec<f64>> = axis(0.0, 1.0, 41).into_iter().map(|x| vec![x]).collect();
        assert_bitwise_everywhere(&fis, &probes);
    }

    #[test]
    fn plan_reports_shape() {
        let plan = tipper().compile();
        assert_eq!(plan.name(), "tipper");
        assert_eq!(plan.n_inputs(), 2);
        assert_eq!(plan.n_outputs(), 1);
        assert_eq!(plan.n_rules(), 3);
        assert_eq!(plan.input_bounds(0), (0.0, 10.0));
        assert_eq!(plan.output_bounds(0), (0.0, 30.0));
        assert_eq!(plan.config().resolution, 501);
    }
}
