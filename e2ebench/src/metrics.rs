//! The metric names and units this benchmark reports — the same lists
//! `BENCHMARK.json` declares (a test keeps the two in step).

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Artifacts `experiments all` runs, in order.
pub const ALL_ARTIFACTS: [&str; 17] = [
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "costs",
    "ablations",
    "extensions",
    "analysis",
    "fetch",
    "grid",
];

/// The artifacts whose work is one serializable engine plan.
pub const PLANNED_ARTIFACTS: [&str; 11] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "extensions",
    "analysis",
    "fetch",
    "grid",
];

/// Per-layer metrics with fixed names, reported by the traced run.
const LAYER_FIXED: [(&str, &str); 26] = [
    ("workloads.trace_s", "s"),
    ("workloads.events", "count"),
    ("trace.pack_s", "s"),
    ("trace.intern_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.artifact_bytes", "B"),
    ("trace.decode_s", "s"),
    ("suite.first_touch_s.cold", "s"),
    ("suite.first_touch_s.warm", "s"),
    ("suite.hydrate_hit_frac", "frac"),
    ("suite.cache_bytes.packed", "B"),
    ("suite.cache_bytes.interned", "B"),
    ("suite.cache_bytes.streams", "B"),
    ("suite.cache_bytes.disk", "B"),
    ("runner.derive_s", "s"),
    ("runner.streams", "count"),
    ("runner.replay_preds_per_s", "1/s"),
    ("engine.ns_per_pred", "ns"),
    ("service.memo_hit_frac", "frac"),
    ("service.first_frame_ms.fresh", "ms"),
    ("service.response_bytes", "B"),
    ("experiments.unattributed_s", "s"),
    ("experiments.traced_wall_s", "s"),
    ("experiments.untraced_wall_s", "s"),
    ("experiments.tracing_overhead_s", "s"),
    ("experiments.layer_self_s", "s"),
];

/// Every per-layer metric, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect();
    for artifact in PLANNED_ARTIFACTS {
        metrics.push((format!("engine.plan_s.{artifact}"), "s"));
        metrics.push((format!("engine.first_outcome_ms.{artifact}"), "ms"));
        metrics.push((format!("engine.preds.{artifact}"), "count"));
    }
    for artifact in ALL_ARTIFACTS {
        metrics.push((format!("experiments.artifact_s.{artifact}"), "s"));
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name": "<x>"` values of one top-level section of
    /// `BENCHMARK.json`, in order.
    fn names_in(text: &str, section: &str, next: Option<&str>) -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let end =
            next.map_or(text.len(), |n| text.find(&format!("\"{n}\"")).expect("next section"));
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote").to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in(&text, "end_to_end", Some("per_layer")), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&text, "per_layer", None), layers);
        assert!(layers.len() <= 128);
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let all = END_TO_END.iter().map(|(n, u)| ((*n).to_owned(), *u)).chain(per_layer());
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
    }
}
