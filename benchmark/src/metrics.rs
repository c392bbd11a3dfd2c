//! Every metric the benchmark reports, declared once: `BENCHMARK.json`
//! is this table printed (`--describe`), and a run that leaves a declared
//! metric unset, or sets an undeclared one, aborts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use crate::stats::Better;
use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// What a user of the system sees. Reported by every workload on an
/// untraced run; README.md says what each means on each workload and
/// the run-to-run spread each bound was set from.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "bits_per_symbol",
        unit: "bit/sym",
        better: Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "build_msym_per_s",
        unit: "Msym/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cold_open_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "count_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "locate_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "extract_ns_per_symbol",
        unit: "ns/sym",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "paths_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, named `<module>.<what>`. Reported by every workload on
/// a traced run; a layer the workload never enters reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    l("succinct.rrr_rank1_ns", "ns", Lower),
    l("succinct.rrr_rank1_pair_ns", "ns", Lower),
    l("succinct.wt_rank_ns", "ns", Lower),
    l("succinct.wt_access_ns", "ns", Lower),
    l("bwt.sais_msym_per_s", "Msym/s", Higher),
    l("builder.stage_ingest_s", "s", Lower),
    l("builder.stage_sa_s", "s", Lower),
    l("builder.stage_bwt_s", "s", Lower),
    l("builder.stage_et_graph_s", "s", Lower),
    l("builder.stage_wt_s", "s", Lower),
    l("builder.stage_directory_s", "s", Lower),
    l("builder.build_s", "s", Lower),
    l("index.count_p2_ns", "ns", Lower),
    l("index.count_p5_ns", "ns", Lower),
    l("index.count_p10_ns", "ns", Lower),
    l("index.count_p20_ns", "ns", Lower),
    l("index.pseudo_rank_ns", "ns", Lower),
    l("index.lf_step_ns", "ns", Lower),
    l("index.locate_ns", "ns", Lower),
    l("index.extract_ns_per_symbol", "ns/sym", Lower),
    l("index.bits_per_symbol", "bit/sym", Lower),
    l("index.et_graph_bytes", "B", Lower),
    l("index.directory_bytes", "B", Lower),
    l("engine.run_one_overhead_ns", "ns", Lower),
    l("engine.parallel_speedup", "ratio", Higher),
    l("shard.count_default_us", "us", Lower),
    l("shard.count_fan1_us", "us", Lower),
    l("shard.visited_per_query", "count", Lower),
    l("shard.fanout_overhead_ns", "ns", Lower),
    l("shard.prepare_ms", "ms", Lower),
    l("shard.install_us", "us", Lower),
    l("shard.num_shards_end", "count", Lower),
    l("prune.rules_out_ns", "ns", Lower),
    l("prune.skipped_share", "share", Higher),
    l("prune.union_reject_share", "share", Higher),
    l("store.save_fast_ms", "ms", Lower),
    l("store.save_durable_ms", "ms", Lower),
    l("store.open_ms", "ms", Lower),
    l("store.disk_bytes_per_symbol", "B/sym", Lower),
    l("store.snapshot_ser_ms", "ms", Lower),
    l("store.snapshot_install_ms", "ms", Lower),
    l("wal.append_fsync_us", "us", Lower),
    l("wal.append_nosync_us", "us", Lower),
    l("wal.replay_ms", "ms", Lower),
    l("wal.bytes_per_symbol", "B/sym", Lower),
    l("json.parse_fast_ns_per_path", "ns", Lower),
    l("json.parse_generic_ns_per_path", "ns", Lower),
    l("json.render_ns_per_path", "ns", Lower),
    l("http.read_request_ns", "ns", Lower),
    l("http.write_response_ns", "ns", Lower),
    l("cache.get_hit_ns", "ns", Lower),
    l("cache.get_miss_ns", "ns", Lower),
    l("cache.insert_ns", "ns", Lower),
    l("cache.hit_ratio", "share", Higher),
    l("cache.evictions", "count", Lower),
    l("cache.stale", "count", Lower),
    l("service.count_ns", "ns", Lower),
    l("service.count_batch_ns_per_path", "ns", Lower),
    l("service.lock_overhead_ns", "ns", Lower),
    l("service.append_ms", "ms", Lower),
    l("server.wire_overhead_us", "us", Lower),
    l("server.req_p90_us", "us", Lower),
    l("server.req_p99_us", "us", Lower),
    l("server.req_max_us", "us", Lower),
    l("server.shed", "count", Lower),
    l("server.errors", "count", Lower),
    l("server.append_p50_ms", "ms", Lower),
    l("server.append_p90_ms", "ms", Lower),
    l("server.open_p50_us", "us", Lower),
    l("server.open_p99_us", "us", Lower),
    l("loadgen.late_max_us", "us", Lower),
    l("loadgen.samples", "count", Higher),
    l("loadgen.windows_dropped", "count", Lower),
    l("trace.spans", "count", Higher),
    l("trace.overhead_share", "share", Lower),
    l("trace.self_time_coverage", "share", Higher),
];

/// The values of one run, checked against one of the tables above.
pub struct Report {
    declared: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn end_to_end() -> Report {
        Report::over(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> Report {
        Report::over(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn over(declared: Vec<(&'static str, &'static str)>) -> Report {
        Report {
            declared,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Report 0 for every still-unset metric of `layer`: the workload
    /// never enters it.
    pub fn not_exercised(&mut self, layer: &str) {
        let prefix = format!("{layer}.");
        for (name, _) in self.declared.clone() {
            if name.starts_with(&prefix) && !self.values.contains_key(name) {
                self.set(name, 0.0);
            }
        }
    }

    /// `name value unit` lines, then nothing: the table a person reads.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit) in &self.declared {
            let _ = writeln!(out, "{name:<34} {:>16.4} {unit}", self.values[name]);
        }
        out
    }

    /// The `metrics` object of the result line. Panics on an unset
    /// metric: a partial result must not look like a result.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.declared.iter().enumerate() {
            let value = self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never set"));
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn better(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// `BENCHMARK.json`, from the tables above and the workloads' reasons.
pub fn describe(workloads: &[(&str, &str)], run_seconds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in workloads.iter().enumerate() {
        let comma = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is declared twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
    }

    #[test]
    fn report_refuses_partial_and_unknown() {
        let mut r = Report::per_layer();
        r.not_exercised("wal");
        assert_eq!(r.get("wal.replay_ms"), Some(0.0));
        assert!(std::panic::catch_unwind(|| Report::end_to_end().json()).is_err());
        assert!(std::panic::catch_unwind(|| Report::end_to_end().set("nope", 1.0)).is_err());
    }
}
