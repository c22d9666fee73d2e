//! `BENCHMARK.json` at the repository root must name exactly the metrics
//! the binary reports, under names the benchmark driver accepts.

use yalibench::{END_TO_END, PER_LAYER};

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `[A-Za-z0-9_.-]+`.
fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn entries<'a>(v: &'a serde_json::Value, key: &str) -> &'a Vec<serde_json::Value> {
    v[key]
        .as_array()
        .unwrap_or_else(|| panic!("{key} is a list"))
}

#[test]
fn every_name_matches_the_metric_name_pattern() {
    let v = benchmark_json();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for e in entries(&v, key) {
            let name = e["name"].as_str().expect("name is a string");
            assert!(is_metric_name(name), "{key} name {name:?}");
            assert!(name.len() <= 64, "{name} is too long");
        }
    }
    assert!(!is_metric_name(""));
    assert!(!is_metric_name("p99 ms"));
    assert!(!is_metric_name("ml.fit_ms/cnn"));
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let v = benchmark_json();
    for (key, catalogue) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(&str, &str)> = entries(&v, key)
            .iter()
            .map(|e| (e["name"].as_str().unwrap(), e["unit"].as_str().unwrap()))
            .collect();
        assert_eq!(listed, catalogue, "{key}");
    }
    for e in entries(&v, "end_to_end") {
        let bound = e["bound"].as_f64().expect("bound is a number");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{} bound {bound}",
            e["name"].as_str().unwrap()
        );
    }
    let setup = entries(&v, "end_to_end")
        .iter()
        .find(|e| e["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
}
