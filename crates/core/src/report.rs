use serde::{Deserialize, Serialize};

use qce_attack::ImageStatus;

/// Reconstruction quality of one extracted image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageReport {
    /// Index into the attack's target image list.
    pub target_index: usize,
    /// Index of the original image in the training dataset.
    pub dataset_index: usize,
    /// Layer group the image was decoded from.
    pub group: usize,
    /// Mean absolute pixel error vs. the original.
    pub mape: f32,
    /// Structural similarity vs. the original.
    pub ssim: f32,
    /// Whether the released model classifies the *decoded* image to the
    /// original's label — the paper's "recognizable by the model itself"
    /// criterion.
    pub recognized: bool,
}

/// Evaluation of one released model (uncompressed or quantized).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Human-readable stage label (e.g. `"weq 4-bit"`).
    pub label: String,
    /// Top-1 accuracy on the held-out validation split.
    pub accuracy: f32,
    /// Per-extracted-image quality.
    pub images: Vec<ImageReport>,
    /// Pearson correlation per layer group at release time.
    pub group_correlations: Vec<f32>,
    /// Wall time of the evaluation stage in milliseconds (observational;
    /// excluded from equality).
    pub wall_ms: f64,
    /// Snapshot of the relevant telemetry metrics at the end of the stage,
    /// as deterministic `(name, value)` pairs (observational; excluded
    /// from equality).
    pub metrics: Vec<(String, f64)>,
}

/// Equality covers the *result* of a stage — label, accuracy, images and
/// correlations — and deliberately ignores the observational `wall_ms`
/// and `metrics` fields: two bit-identical runs must compare equal even
/// though their wall-clock timings differ.
impl PartialEq for StageReport {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.accuracy == other.accuracy
            && self.images == other.images
            && self.group_correlations == other.group_correlations
    }
}

impl StageReport {
    /// Mean MAPE over the extracted images (`NaN`-free; 0 when none).
    pub fn mean_mape(&self) -> f32 {
        if self.images.is_empty() {
            return 0.0;
        }
        self.images.iter().map(|i| i.mape).sum::<f32>() / self.images.len() as f32
    }

    /// Mean SSIM over the extracted images (0 when none).
    pub fn mean_ssim(&self) -> f32 {
        if self.images.is_empty() {
            return 0.0;
        }
        self.images.iter().map(|i| i.ssim).sum::<f32>() / self.images.len() as f32
    }

    /// Number of extracted images the model itself recognizes.
    pub fn recognized_count(&self) -> usize {
        self.images.iter().filter(|i| i.recognized).count()
    }

    /// Recognized images as a fraction of everything encoded (0 when
    /// nothing was encoded).
    pub fn recognized_fraction(&self) -> f32 {
        if self.images.is_empty() {
            return 0.0;
        }
        self.recognized_count() as f32 / self.images.len() as f32
    }

    /// Number of images with MAPE strictly below `threshold` (Table IV
    /// uses 20).
    pub fn count_mape_below(&self, threshold: f32) -> usize {
        self.images.iter().filter(|i| i.mape < threshold).count()
    }

    /// Number of images with MAPE above `threshold` — the paper's "badly
    /// encoded" count (Table II uses 20).
    pub fn count_mape_above(&self, threshold: f32) -> usize {
        self.images.iter().filter(|i| i.mape > threshold).count()
    }

    /// Number of images with SSIM strictly above `threshold` (Table IV
    /// uses 0.5).
    pub fn count_ssim_above(&self, threshold: f32) -> usize {
        self.images.iter().filter(|i| i.ssim > threshold).count()
    }

    /// Per-group `(bad, total)` counts at the MAPE threshold — the rows of
    /// Table II.
    pub fn bad_by_group(&self, threshold: f32, groups: usize) -> Vec<(usize, usize)> {
        let mut out = vec![(0usize, 0usize); groups];
        for img in &self.images {
            if img.group < groups {
                out[img.group].1 += 1;
                if img.mape > threshold {
                    out[img.group].0 += 1;
                }
            }
        }
        out
    }

    /// The header matching [`StageReport::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "label,accuracy,encoded,mean_mape,mean_ssim,recognized,mape_below_20,ssim_above_0_5"
    }

    /// One CSV row summarizing this stage — for piping sweep results into
    /// external analysis tools. Commas in the label are replaced with
    /// semicolons to keep the row well-formed.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{:.6},{},{:.4},{:.6},{},{},{}",
            self.label.replace(',', ";"),
            self.accuracy,
            self.images.len(),
            self.mean_mape(),
            self.mean_ssim(),
            self.recognized_count(),
            self.count_mape_below(20.0),
            self.count_ssim_above(0.5),
        )
    }
}

/// Quality of one extraction attempt from a *faulted* release.
///
/// Unlike [`ImageReport`], quality metrics are optional: a chunk the
/// resilient decoder marked [`ImageStatus::Failed`] has no image to score.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultedImage {
    /// Index into the attack's target image list.
    pub target_index: usize,
    /// Layer group the image was decoded from.
    pub group: usize,
    /// The resilient decoder's verdict for this chunk.
    pub status: ImageStatus,
    /// Mean absolute pixel error vs. the original (decoded chunks only).
    pub mape: Option<f32>,
    /// Structural similarity vs. the original (decoded chunks only).
    pub ssim: Option<f32>,
}

/// Evaluation of one faulted release: task accuracy plus resilient-decode
/// quality with per-image status.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultedReport {
    /// Human-readable label (e.g. `"bitflip 0.1%"`).
    pub label: String,
    /// Top-1 accuracy of the faulted model on the held-out split.
    pub accuracy: f32,
    /// Per-chunk extraction outcome.
    pub images: Vec<FaultedImage>,
    /// Mean decoder confidence (histogram agreement) across groups.
    pub mean_confidence: f32,
}

impl FaultedReport {
    /// Chunks decoded without any repair.
    pub fn ok_count(&self) -> usize {
        self.images
            .iter()
            .filter(|i| matches!(i.status, ImageStatus::Ok))
            .count()
    }

    /// Chunks decoded after carrier repair.
    pub fn degraded_count(&self) -> usize {
        self.images
            .iter()
            .filter(|i| matches!(i.status, ImageStatus::Degraded { .. }))
            .count()
    }

    /// Chunks the decoder gave up on.
    pub fn failed_count(&self) -> usize {
        self.images
            .iter()
            .filter(|i| matches!(i.status, ImageStatus::Failed { .. }))
            .count()
    }

    /// Images actually *recovered*: decoded (`Ok` or `Degraded`) **and**
    /// faithful to the target (MAPE at or below `mape_ceiling`).
    ///
    /// Decode status alone over-counts under structural defenses: a
    /// correlation decode of permuted weights still reads out "images",
    /// just with scrambled pixels. The MAPE gate is what makes recovery
    /// numbers comparable across attack variants in the tournament.
    pub fn recovered_count(&self, mape_ceiling: f32) -> usize {
        self.images
            .iter()
            .filter(|i| {
                !matches!(i.status, ImageStatus::Failed { .. })
                    && i.mape.is_some_and(|m| m <= mape_ceiling)
            })
            .count()
    }

    /// Mean MAPE over decoded chunks (`None` when nothing decoded).
    pub fn mean_mape(&self) -> Option<f32> {
        mean_of(self.images.iter().filter_map(|i| i.mape))
    }

    /// Mean SSIM over decoded chunks (`None` when nothing decoded).
    pub fn mean_ssim(&self) -> Option<f32> {
        mean_of(self.images.iter().filter_map(|i| i.ssim))
    }
}

fn mean_of(values: impl Iterator<Item = f32>) -> Option<f32> {
    let (sum, n) = values.fold((0.0f32, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f32)
}

/// One severity step of a robustness sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustnessPoint {
    /// The severity factor the base [`Plan`](qce_defense::Plan) was
    /// scaled by.
    pub severity: f32,
    /// Task accuracy of the faulted release.
    pub accuracy: f32,
    /// Mean MAPE over decoded chunks (`None` when decoding failed
    /// entirely).
    pub mean_mape: Option<f32>,
    /// Mean SSIM over decoded chunks.
    pub mean_ssim: Option<f32>,
    /// Chunks decoded without repair.
    pub decoded: usize,
    /// Chunks decoded after repair.
    pub degraded: usize,
    /// Chunks the decoder gave up on.
    pub failed: usize,
    /// Mean decoder confidence.
    pub mean_confidence: f32,
}

/// Fault severity vs. extraction quality — the robustness analogue of the
/// paper's quantization sweeps: instead of "how few bits survive the
/// attack", it answers "how much release perturbation does".
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustnessReport {
    /// Label of the base fault plan that was swept.
    pub label: String,
    /// One point per severity, in ascending severity order.
    pub points: Vec<RobustnessPoint>,
}

impl RobustnessReport {
    /// The header matching [`RobustnessReport::to_csv`] rows.
    pub fn csv_header() -> &'static str {
        "label,severity,accuracy,mean_mape,mean_ssim,decoded,degraded,failed,mean_confidence"
    }

    /// All points as CSV rows (no header). Missing means render empty.
    pub fn to_csv(&self) -> String {
        let fmt_opt = |v: Option<f32>| v.map(|v| format!("{v:.4}")).unwrap_or_default();
        self.points
            .iter()
            .map(|p| {
                format!(
                    "{},{},{:.6},{},{},{},{},{},{:.4}",
                    self.label.replace(',', ";"),
                    p.severity,
                    p.accuracy,
                    fmt_opt(p.mean_mape),
                    fmt_opt(p.mean_ssim),
                    p.decoded,
                    p.degraded,
                    p.failed,
                    p.mean_confidence,
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Whether MAPE never *improves* by more than `tolerance` as severity
    /// rises (chunks that stop decoding count as degradation).
    pub fn mape_monotone(&self, tolerance: f32) -> bool {
        self.points.windows(2).all(|w| {
            match (w[0].mean_mape, w[1].mean_mape) {
                (Some(a), Some(b)) => b >= a - tolerance,
                // Losing all decodable chunks is degradation, not a dip.
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => true,
            }
        })
    }

    /// Whether SSIM never *improves* by more than `tolerance` as severity
    /// rises.
    pub fn ssim_monotone(&self, tolerance: f32) -> bool {
        self.points
            .windows(2)
            .all(|w| match (w[0].mean_ssim, w[1].mean_ssim) {
                (Some(a), Some(b)) => b <= a + tolerance,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => true,
            })
    }

    /// A compact human-readable table of the sweep.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<10} {:>8} {:>10} {:>10} {:>5} {:>5} {:>5} {:>6}\n",
            "severity", "acc", "mape", "ssim", "ok", "deg", "fail", "conf"
        );
        for p in &self.points {
            let mape = p.mean_mape.map(|v| format!("{v:.1}")).unwrap_or("-".into());
            let ssim = p.mean_ssim.map(|v| format!("{v:.3}")).unwrap_or("-".into());
            out.push_str(&format!(
                "{:<10} {:>8.3} {:>10} {:>10} {:>5} {:>5} {:>5} {:>6.3}\n",
                p.severity,
                p.accuracy,
                mape,
                ssim,
                p.decoded,
                p.degraded,
                p.failed,
                p.mean_confidence,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StageReport {
        StageReport {
            label: "test".to_string(),
            accuracy: 0.9,
            images: vec![
                ImageReport {
                    target_index: 0,
                    dataset_index: 5,
                    group: 0,
                    mape: 10.0,
                    ssim: 0.8,
                    recognized: true,
                },
                ImageReport {
                    target_index: 1,
                    dataset_index: 9,
                    group: 2,
                    mape: 30.0,
                    ssim: 0.3,
                    recognized: false,
                },
            ],
            group_correlations: vec![0.0, 0.0, 0.9],
            wall_ms: 0.0,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn aggregate_statistics() {
        let r = report();
        assert_eq!(r.mean_mape(), 20.0);
        assert!((r.mean_ssim() - 0.55).abs() < 1e-6);
        assert_eq!(r.recognized_count(), 1);
        assert_eq!(r.recognized_fraction(), 0.5);
        assert_eq!(r.count_mape_below(20.0), 1);
        assert_eq!(r.count_mape_above(20.0), 1);
        assert_eq!(r.count_ssim_above(0.5), 1);
    }

    #[test]
    fn equality_ignores_observational_fields() {
        let a = report();
        let mut b = report();
        b.wall_ms = 99.0;
        b.metrics = vec![("train.loss".to_string(), 0.5)];
        assert_eq!(a, b);
        b.accuracy = 0.1;
        assert_ne!(a, b);
    }

    #[test]
    fn per_group_bad_counts() {
        let r = report();
        let by_group = r.bad_by_group(20.0, 3);
        assert_eq!(by_group[0], (0, 1));
        assert_eq!(by_group[1], (0, 0));
        assert_eq!(by_group[2], (1, 1));
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = report();
        let header_cols = StageReport::csv_header().split(',').count();
        let row = r.to_csv_row();
        assert_eq!(row.split(',').count(), header_cols);
        assert!(row.starts_with("test,0.9"));
    }

    #[test]
    fn csv_row_escapes_commas_in_label() {
        let mut r = report();
        r.label = "weq, 4-bit".to_string();
        assert!(r.to_csv_row().starts_with("weq; 4-bit,"));
    }

    fn point(severity: f32, mape: Option<f32>, ssim: Option<f32>) -> RobustnessPoint {
        RobustnessPoint {
            severity,
            accuracy: 0.5,
            mean_mape: mape,
            mean_ssim: ssim,
            decoded: 1,
            degraded: 1,
            failed: 1,
            mean_confidence: 0.9,
        }
    }

    #[test]
    fn faulted_report_counts_and_means() {
        let r = FaultedReport {
            label: "f".to_string(),
            accuracy: 0.4,
            images: vec![
                FaultedImage {
                    target_index: 0,
                    group: 2,
                    status: ImageStatus::Ok,
                    mape: Some(10.0),
                    ssim: Some(0.9),
                },
                FaultedImage {
                    target_index: 1,
                    group: 2,
                    status: ImageStatus::Degraded { repaired_pixels: 3 },
                    mape: Some(30.0),
                    ssim: Some(0.5),
                },
                FaultedImage {
                    target_index: 2,
                    group: 2,
                    status: ImageStatus::Failed {
                        reason: "gone".to_string(),
                    },
                    mape: None,
                    ssim: None,
                },
            ],
            mean_confidence: 0.8,
        };
        assert_eq!(r.ok_count(), 1);
        assert_eq!(r.degraded_count(), 1);
        assert_eq!(r.failed_count(), 1);
        assert_eq!(r.mean_mape(), Some(20.0));
        assert!((r.mean_ssim().unwrap() - 0.7).abs() < 1e-6);
    }

    #[test]
    fn empty_faulted_report_has_no_means() {
        let r = FaultedReport {
            label: String::new(),
            accuracy: 0.0,
            images: Vec::new(),
            mean_confidence: 0.0,
        };
        assert_eq!(r.mean_mape(), None);
        assert_eq!(r.mean_ssim(), None);
    }

    #[test]
    fn robustness_monotonicity_checks() {
        let rising = RobustnessReport {
            label: "r".to_string(),
            points: vec![
                point(0.0, Some(1.0), Some(0.99)),
                point(1.0, Some(5.0), Some(0.80)),
                point(2.0, Some(40.0), Some(0.20)),
                point(4.0, None, None),
            ],
        };
        assert!(rising.mape_monotone(0.5));
        assert!(rising.ssim_monotone(0.05));
        let dipping = RobustnessReport {
            label: "d".to_string(),
            points: vec![
                point(0.0, Some(30.0), Some(0.2)),
                point(1.0, Some(5.0), Some(0.9)),
            ],
        };
        assert!(!dipping.mape_monotone(0.5));
        assert!(!dipping.ssim_monotone(0.05));
        // Chunks reappearing after total failure is non-monotone too.
        let resurrect = RobustnessReport {
            label: "z".to_string(),
            points: vec![point(0.0, None, None), point(1.0, Some(5.0), Some(0.9))],
        };
        assert!(!resurrect.mape_monotone(0.5));
    }

    #[test]
    fn robustness_csv_matches_header_arity() {
        let r = RobustnessReport {
            label: "sweep, base".to_string(),
            points: vec![point(0.0, Some(1.0), Some(0.9)), point(2.0, None, None)],
        };
        let cols = RobustnessReport::csv_header().split(',').count();
        for row in r.to_csv().lines() {
            assert_eq!(row.split(',').count(), cols, "row {row}");
            assert!(row.starts_with("sweep; base,"));
        }
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn empty_report_is_zero() {
        let r = StageReport {
            label: String::new(),
            accuracy: 0.0,
            images: Vec::new(),
            group_correlations: Vec::new(),
            wall_ms: 0.0,
            metrics: Vec::new(),
        };
        assert_eq!(r.mean_mape(), 0.0);
        assert_eq!(r.mean_ssim(), 0.0);
        assert_eq!(r.recognized_fraction(), 0.0);
    }
}
