//! What one run measured and how it is printed.

use crate::stats::Summary;
use std::time::Instant;

/// End-to-end metrics, every workload reports each: (name, unit).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("throughput_per_s", "1/s")];

/// Per-layer metrics of traced runs: (name, unit). A workload that
/// does no work in a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("core.env_build_ms", "ms"),
    ("core.env_cache_hit_rate", "ratio"),
    ("core.forward_ms", "ms"),
    ("core.forces_ms", "ms"),
    ("core.apply_update_ms", "ms"),
    ("train.targets_ms", "ms"),
    ("train.eval_ms", "ms"),
    ("train.snapshot_ms", "ms"),
    ("optim.kf_step_ms", "ms"),
    ("parallel.reduce_ms", "ms"),
    ("parallel.bytes_per_iter", "B"),
    ("parallel.calls_per_iter", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("shard.submit_us", "us"),
    ("serve.service_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.shed_share", "ratio"),
    ("serve.degraded_share", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("registry.publish_us", "us"),
    ("load.gen_lag_p99_ms", "ms"),
    ("domain.potential_ms", "ms"),
    ("domain.other_ms", "ms"),
    ("domain.imbalance", "ratio"),
    ("domain.centre_evals_per_atom", "ratio"),
    ("domain.ghosts_per_atom", "ratio"),
    ("trace.unit_wall_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Time `set_up` `repeats` times (dropping each result) and return
/// the median in seconds: `setup_s`.
pub fn time_setups<T>(repeats: usize, set_up: impl Fn() -> T) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            drop(std::hint::black_box(set_up()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&times).expect("at least one set-up")
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Median set-up time (s).
    pub setup_s: f64,
    /// Work completed per second (see [`Outcome::measured`]).
    pub throughput_per_s: f64,
    /// Named workload figures, printed for people.
    pub figures: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics by name (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Correctness checks: (passed, description).
    pub checks: Vec<(bool, String)>,
    /// Informational split claims: (met, description).
    pub splits: Vec<(bool, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Outcome {
    /// Record the workload's throughput and print the latencies of its
    /// unit of work.
    pub fn measured(&mut self, throughput_per_s: f64, latency: &Summary) {
        self.throughput_per_s = throughput_per_s;
        self.figure("latency_samples", latency.n as f64, "count");
        self.figure("latency_p50_ms", latency.p50, "ms");
        self.figure("latency_p99_ms", latency.p99, "ms");
        if let Some((p, v)) = latency.tail {
            self.figures
                .push((format!("latency_tail_p{p}_ms"), v, "ms"));
        }
    }

    /// Record a named figure.
    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_string(), value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Record a correctness check.
    pub fn check(&mut self, passed: bool, what: String) {
        self.checks.push((passed, what));
    }

    /// Record whether a traced share meets the split the workload was
    /// chosen for (`at_least`: share ≥ bound, else share ≤ bound).
    /// Informational: a later change may legitimately move a split.
    pub fn share_check(&mut self, what: &str, share: f64, bound: f64, at_least: bool) {
        let met = if at_least {
            share >= bound
        } else {
            share <= bound
        };
        let rel = if at_least { ">=" } else { "<=" };
        self.splits
            .push((met, format!("{what}: {share:.3} {rel} {bound}")));
    }

    /// All checks passed and every reported value is finite.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(ok, _)| *ok)
            && self.throughput_per_s.is_finite()
            && self.layers.iter().all(|(_, v)| v.is_finite())
    }

    /// Print the human-readable lines and, last, the JSON result line.
    pub fn print(&self, trace: bool) {
        for (name, value, unit) in &self.figures {
            println!("figure {name} = {value} {unit}");
        }
        for (ok, what) in &self.checks {
            println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        for (met, what) in &self.splits {
            println!("split {}: {what}", if *met { "met" } else { "not met" });
        }
        let mut metrics = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                metrics.push((name, v, unit));
            }
        } else {
            let [(setup, s_unit), (throughput, t_unit)] = END_TO_END;
            metrics.push((setup, self.setup_s, s_unit));
            metrics.push((throughput, self.throughput_per_s, t_unit));
        }
        for (name, v, unit) in &metrics {
            println!("metric {name} = {v} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        let correct = self.correct() && metrics.iter().all(|(_, v, _)| v.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A finite number in full precision, or `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = json.matches("\"name\": ").count();
        assert_eq!(
            count,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads plus every metric"
        );
    }
}
