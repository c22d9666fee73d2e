//! Support code for the `yalibench` binary: its statistics and the
//! catalogue of metrics it reports.
//!
//! The catalogue is the contract between the binary and `BENCHMARK.json`:
//! a timed run (`--trace 0`) prints exactly [`END_TO_END`], a traced run
//! (`--trace 1`) exactly [`PER_LAYER`], and the tests check that the two
//! lists and the JSON file agree.

pub mod stats;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; README.md defines each per workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("heavy_tail_ms", "ms"),
    ("light_p50_ms", "ms"),
    ("light_tail_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by
/// crate. A layer a workload does not exercise reports 0 with a sample
/// count of 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("dataset.corpus_ms", "ms"),
    ("dataset.share", "frac"),
    ("minic.lower_us", "us"),
    ("minic.compile_us", "us"),
    ("opt.o3_us", "us"),
    ("opt.normalize_ms", "ms"),
    ("obf.ir_us", "us"),
    ("obf.source_ms", "ms"),
    ("embed.histogram_us", "us"),
    ("ml.fit_ms.rf", "ms"),
    ("ml.fit_ms.svm", "ms"),
    ("ml.fit_ms.knn", "ms"),
    ("ml.fit_ms.lr", "ms"),
    ("ml.fit_ms.mlp", "ms"),
    ("ml.fit_ms.cnn", "ms"),
    ("ml.infer_us_per_row.lr", "us"),
    ("ml.infer_us_per_row.mlp", "us"),
    ("ml.infer_us_per_row.cnn", "us"),
    ("ml.decode_us", "us"),
    ("ir.parse_us", "us"),
    ("core.transform_hit_ratio", "frac"),
    ("core.embed_hit_ratio", "frac"),
    ("core.model_hit_ratio", "frac"),
    ("core.scan_us", "us"),
    ("store.open_ms", "ms"),
    ("store.read_us", "us"),
    ("store.write_us", "us"),
    ("store.disk_hit_ratio", "frac"),
    ("store.read_mb", "MB"),
    ("store.write_mb", "MB"),
    ("par.speedup", "ratio"),
    ("par.regions_per_point", "count"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.batcher_ns", "ns"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_rows_mean", "count"),
    ("serve.full_batch_frac", "frac"),
    ("serve.overloaded", "count"),
    ("serve.max_rate_per_s", "1/s"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.recorder_dropped_frac", "frac"),
    ("load.late_frac", "frac"),
    ("load.max_late_ms", "ms"),
    ("trace.share.split", "frac"),
    ("trace.share.transform", "frac"),
    ("trace.share.fit", "frac"),
    ("trace.share.normalize", "frac"),
    ("trace.share.classify", "frac"),
    ("trace.share.codec", "frac"),
    ("trace.share.queue", "frac"),
    ("trace.share.compute", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// One reported metric: its value and how many samples it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value, in the catalogue's unit.
    pub value: f64,
    /// Samples behind the value (0 for a layer the workload skips).
    pub n: usize,
}
