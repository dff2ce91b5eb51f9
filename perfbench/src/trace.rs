//! Bench-side tracing: spans recorded around calls into each layer's
//! public API, kept in memory and analysed with `qce_obs` at the end.
//!
//! Spans are inert until [`start`] attaches the in-memory sink, so an
//! untraced run pays one branch per span. Once attached, the program's
//! own spans (`train.epoch`, `flow.quantize`, ...) land in the same
//! stream and nest under the bench spans that caused them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use qce_obs::{profile, validate, Trace, ValidateOptions};
use qce_telemetry::{MemorySink, Span};

static SINK: OnceLock<Arc<MemorySink>> = OnceLock::new();

/// Attaches the in-memory sink; every span after this is recorded.
pub fn start() {
    SINK.get_or_init(|| {
        let sink = MemorySink::shared();
        qce_telemetry::add_sink(sink.clone());
        sink
    });
}

/// Enters a bench span named `name` (interned: span names are
/// `&'static str`, and a run uses a bounded set of names).
pub fn span(name: &str) -> Span {
    Span::enter(intern(name), &[])
}

fn intern(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("span names");
    if let Some(&s) = names.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(name.to_string(), leaked);
    leaked
}

/// The recorded trace, validated with the same checks as `obs check`,
/// written as JSONL to `path`.
///
/// # Errors
///
/// A message naming the first structural problem.
pub fn finish(path: &std::path::Path, expected: &[&str]) -> Result<Analysis, String> {
    let sink = SINK.get().ok_or("trace was never started")?;
    qce_telemetry::flush();
    let mut body = sink.lines().join("\n");
    body.push('\n');
    std::fs::write(path, &body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let opts = ValidateOptions {
        partial: false,
        expected_spans: expected.iter().map(|s| (*s).to_string()).collect(),
    };
    let summary = validate(&body, &opts).map_err(|e| format!("trace check: {e}"))?;
    let trace = Trace::parse(&body).map_err(|e| format!("trace parse: {e}"))?;
    let labels = profile(&trace)
        .into_iter()
        .map(|p| (p.name.clone(), (p.total_ms, p.self_ms)))
        .collect();
    Ok(Analysis {
        events: summary.events,
        spans: summary.started,
        labels,
    })
}

/// Per-label aggregates of a validated trace.
pub struct Analysis {
    pub events: usize,
    pub spans: usize,
    /// label -> (total ms, self ms)
    labels: HashMap<String, (f64, f64)>,
}

impl Analysis {
    /// Total wall time of every span labelled `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.labels.get(name).map_or(0.0, |l| l.0)
    }

    /// Self time (not covered by child spans) of `name`, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.labels.get(name).map_or(0.0, |l| l.1)
    }
}
