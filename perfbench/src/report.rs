//! Metric catalogue and the one-line JSON result the benchmark prints.

use std::collections::BTreeMap;

/// Workloads `perfbench` runs, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim_bin2", "sim_bin1", "functional"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run. The
/// meaning of `ops_per_s`, `p50_us` and `tail_us` is each workload's unit
/// of work (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("sim.workloads.next_ref.s", "s"),
    ("sim.workloads.refs", "count"),
    ("sim.cpu.s", "s"),
    ("sim.llc.access.s", "s"),
    ("sim.llc.accesses", "count"),
    ("sim.llc.hit_ratio", "ratio"),
    ("sim.llc.writebacks", "count"),
    ("sim.schemes.ecc_line_of.s", "s"),
    ("sim.schemes.ecc_line_accesses", "count"),
    ("dram.submit.s", "s"),
    ("dram.requests", "count"),
    ("dram.activates", "count"),
    ("dram.sched.gap_fills", "count"),
    ("dram.finalize.s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.instructions", "count"),
    ("sim.epi_pj", "pJ"),
    ("core.write_lines.s", "s"),
    ("core.write.s", "s"),
    ("core.read.s", "s"),
    ("core.scrub.s", "s"),
    ("core.reads", "count"),
    ("core.writes", "count"),
    ("core.parity_reconstructions", "count"),
    ("core.ecc_line_corrections", "count"),
    ("core.parity_updates", "count"),
    ("core.pairs_migrated", "count"),
    ("core.health.retired_pages", "count"),
    ("ecc.encode_lines.ns_per_line", "ns"),
    ("ecc.correction.ns_per_line", "ns"),
    ("codec.batch.lines", "count"),
    ("service.rpc.fast_event.ns_per_line", "ns"),
    ("service.engine.router.s", "s"),
    ("service.engine.apply_wait.s", "s"),
    ("service.ingest.batch_ns", "ns"),
    ("service.engine.query_p50_us", "us"),
    ("service.engine.query_p99_us", "us"),
    ("service.socket.s", "s"),
    ("trace.layer_sum_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
];

#[cfg(test)]
/// Is `name` a legal metric or workload name: a leading letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`?
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Operation accounting and measured values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (each checked for correctness).
    pub attempted: u64,
    /// Operations that failed, were refused unexpectedly, returned wrong
    /// data or did not finish in time.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record one operation's verdict.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Merge another outcome's operation counts (not its values).
    pub fn absorb(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Set a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for the given metric catalogue, or an error naming
    /// a metric that was not measured or is not a finite number.
    pub fn render(&self, catalogue: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(v: &serde_json::Value) -> Vec<(String, String)> {
        v.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_name_uses_only_the_allowed_characters() {
        let all = WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n));
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(*name), "name {name:?} used twice");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&b["end_to_end"]), own(&END_TO_END));
        assert_eq!(names_units(&b["per_layer"]), own(&PER_LAYER));
    }

    #[test]
    fn render_refuses_missing_or_non_finite_metrics() {
        let mut o = Outcome::default();
        o.check(true);
        o.set("setup_s", 0.5);
        assert!(o
            .render(&[("setup_s", "s"), ("peak_heap_mb", "MB")])
            .is_err());
        o.set("peak_heap_mb", f64::NAN);
        assert!(o
            .render(&[("setup_s", "s"), ("peak_heap_mb", "MB")])
            .is_err());
        o.set("peak_heap_mb", 12.25);
        let line = o
            .render(&[("setup_s", "s"), ("peak_heap_mb", "MB")])
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"], serde_json::Value::Bool(true));
        assert_eq!(v["metrics"]["peak_heap_mb"]["value"].as_f64(), Some(12.25));
    }
}
