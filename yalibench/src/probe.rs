//! Timing helpers shared by the traced runs' layer probes.

use std::hint::black_box;
use std::time::Instant;

use yali_ml::{ModelKind, TrainConfig, VectorClassifier};
use yalibench::Metric;

/// Mean microseconds per call of `f` over `items`, and the call count.
pub fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> (f64, usize) {
    let t = Instant::now();
    for it in items {
        f(it);
    }
    (
        t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64,
        items.len(),
    )
}

/// `ml.fit_ms.<model>` for each of `kinds` fitted on `(x, y)` with the
/// default training knobs, and `ml.decode_us` over 20 decodes of each
/// fitted model's blob.
pub fn fits(kinds: &[ModelKind], x: &[Vec<f64>], y: &[usize], n_classes: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut blobs = Vec::new();
    for &kind in kinds {
        let t = Instant::now();
        let clf = VectorClassifier::fit(kind, x, y, n_classes, &TrainConfig::default());
        out.push(Metric {
            name: format!("ml.fit_ms.{}", kind.name()),
            value: t.elapsed().as_secs_f64() * 1e3,
            n: 1,
        });
        blobs.push(clf.to_bytes());
    }
    let decodes: Vec<&Vec<u8>> = blobs.iter().cycle().take(blobs.len() * 20).collect();
    let (value, n) = mean_us(&decodes, |b| {
        black_box(VectorClassifier::from_bytes(b));
    });
    out.push(Metric {
        name: "ml.decode_us".into(),
        value,
        n,
    });
    out
}
