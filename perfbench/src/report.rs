//! Output: one human-readable row per metric and check, then the final
//! JSON result line.

use std::fmt::Write as _;

/// End-to-end metrics and units, reported by every workload with
/// `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("ue_steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and units, reported by every workload with
/// `--trace 1`. A layer the workload does not call (or that is not
/// replayed for it) reads 0 and its row says so.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("mobility.trajectories", "count"),
    ("mobility.trajectory_us", "us"),
    ("mobility.busy_share", "frac"),
    ("mobility.resample_ns_per_ue_step", "ns"),
    ("radio.mean_rss_ns_per_ue_step", "ns"),
    ("radio.shadow_noise_ns_per_ue_step", "ns"),
    ("radio.cells_per_ue_step", "count"),
    ("radio.interior_frac", "frac"),
    ("policy.pre_ns_per_ue_step", "ns"),
    ("flc.evals_per_ue_step", "frac"),
    ("flc.real_hd_per_ue_step", "frac"),
    ("flc.eval_ns", "ns"),
    ("policy.commit_ns_per_ue_step", "ns"),
    ("fleet.ue_steps", "count"),
    ("fleet.ns_per_ue_step", "ns"),
    ("fleet.residual_ns_per_ue_step", "ns"),
    ("checkpoint.sealed_kib", "KiB"),
    ("checkpoint.seal_ms", "ms"),
    ("checkpoint.unseal_ms", "ms"),
    ("supervisor.segments_per_advance", "count"),
    ("supervisor.retries", "count"),
    ("server.advance_ms", "ms"),
    ("server.advance_persist_share", "frac"),
    ("server.query_cells_us", "us"),
    ("server.query_ue_us", "us"),
    ("server.checkpoint_ms", "ms"),
    ("server.hydrate_ms", "ms"),
    ("server.finish_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes_per_frame", "B"),
    ("wire.codec_us", "us"),
    ("wire.overhead_us", "us"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
    ("replay.ue_steps", "count"),
    ("replay.real_ue_steps", "count"),
    ("replay.hd_rate_gap", "frac"),
];

#[derive(Debug, Clone)]
struct Row {
    name: String,
    value: Option<f64>,
    unit: &'static str,
    note: String,
}

/// Everything one invocation measured and checked.
#[derive(Debug)]
pub struct Report {
    context: String,
    rows: Vec<Row>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Add the UE-steps of one run to the tag every row carries.
    pub fn tag_ue_steps(&mut self, ue_steps: u64) {
        self.context
            .push_str(&format!(" ue_steps_per_run={ue_steps}"));
    }

    pub fn new(context: String) -> Self {
        Report {
            context,
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Record a measured metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.rows.push(Row {
            name: name.to_string(),
            value: Some(value),
            unit,
            note: note.into(),
        });
    }

    /// Record a metric this workload cannot measure (printed as n/a; a
    /// per-layer one reads 0 in the JSON line).
    pub fn absent(&mut self, name: &str, why: impl Into<String>) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |m| m.1);
        self.rows.push(Row {
            name: name.to_string(),
            value: None,
            unit,
            note: why.into(),
        });
    }

    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation or correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Count one correctness check, failing it unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        let what = what.into();
        if ok {
            println!("check ok    {} | {what}", self.context);
        } else {
            println!("check FAIL  {} | {what}", self.context);
            self.fail(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn value_of(&self, name: &str) -> Option<&Row> {
        self.rows.iter().rev().find(|r| r.name == name)
    }

    /// Print every row, then the result line carrying exactly the
    /// metrics of `table`. Returns false when one of them was never
    /// recorded, is not a finite number, or carries another unit.
    pub fn finish(&mut self, table: &[(&str, &str)], per_layer: bool) -> bool {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.metric(
            "failed_frac",
            failed_frac,
            "frac",
            format!(
                "{} failed of {} attempted operations and checks",
                self.failed, self.attempted
            ),
        );
        for r in &self.rows {
            match r.value {
                Some(v) => println!(
                    "metric {} | {} = {} {} | {}",
                    self.context, r.name, v, r.unit, r.note
                ),
                None => println!(
                    "metric {} | {} = n/a {} | {}",
                    self.context, r.name, r.unit, r.note
                ),
            }
        }
        for f in &self.failures {
            println!("failure {} | {f}", self.context);
        }
        let mut ok = true;
        let mut json = String::new();
        for &(name, unit) in table {
            let value = match self.value_of(name) {
                Some(Row {
                    value: Some(v),
                    unit: u,
                    ..
                }) if v.is_finite() && *u == unit => *v,
                Some(Row { value: None, .. }) if per_layer => 0.0,
                _ => {
                    eprintln!("perfbench: metric {name} was not measured in {unit}");
                    ok = false;
                    continue;
                }
            };
            if !json.is_empty() {
                json.push_str(", ");
            }
            write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        if !ok {
            return false;
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        true
    }
}
