//! The per-layer ledger and the probes that fill it.
//!
//! Every traced run reports the same metric names: the workload's own
//! layers from its traced phase, every other layer from fixed probes at
//! paper-flow shapes. Only counters and shares of machinery a workload
//! does not use (store counts on `paper_flow`, sweep shares outside
//! `sweep_grid`) stay 0.

use std::time::Instant;

use qce::{FlowConfig, Grouping, SignConvention};
use qce_attack::{CorrelationRegularizer, Decoder, EncodingLayout, GroupSpec};
use qce_defense::{DefenseContext, DefenseKind, DefensePlan, RotationMode};
use qce_nn::layers::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, ReLU, ResidualBlock};
use qce_nn::loss::softmax_cross_entropy;
use qce_nn::models::ResNetLite;
use qce_nn::{gather_batch, Layer, Mode, Network, Regularizer, Sgd};
use qce_quant::{
    finetune, quantize_network, FinetuneConfig, KMeansQuantizer, Quantizer,
    TargetCorrelatedQuantizer, WeightedEntropyQuantizer,
};
use qce_store::{persist, Artifact, CacheKey, StageCache};
use qce_telemetry::json::{parse, JsonValue};
use qce_tensor::conv::{conv2d, conv2d_backward, ConvGeometry};
use qce_tensor::{init, linalg, Tensor};

use crate::stats::{median, timed, Metrics};
use crate::trace::{self, Analysis};
use crate::RunOutcome;

/// `FlowMachine` steps, in order, as `qce.<step>_ms` metrics.
pub const QCE_STEPS: [&str; 7] = [
    "select",
    "train",
    "evaluate_float",
    "quantize",
    "evaluate_quantized",
    "defend",
    "finish",
];

/// Trainer phases replayed around the public `qce_nn` calls.
const NN_PHASES: [&str; 7] = [
    "gather",
    "zero_grad",
    "forward",
    "loss",
    "backward",
    "regularizer",
    "optimizer",
];

/// Top-level layers of the paper-flow ResNetLite (12/24/48 × 2 blocks).
const NN_LAYERS: [&str; 12] = [
    "00_conv2d",
    "01_batchnorm2d",
    "02_relu",
    "03_residual_block",
    "04_residual_block",
    "05_residual_block",
    "06_residual_block",
    "07_residual_block",
    "08_residual_block",
    "09_global_avg_pool",
    "10_flatten",
    "11_linear",
];

/// Batch of the kernel probes (the flow's mini-batch).
const BATCH: usize = 32;

/// Every convolution the paper-flow network runs:
/// `(in, out, kernel, stride, input edge)`.
const CONV_SHAPES: [(usize, usize, usize, usize, usize); 8] = [
    (3, 12, 3, 1, 16),
    (12, 12, 3, 1, 16),
    (12, 24, 3, 2, 16),
    (12, 24, 1, 2, 16),
    (24, 24, 3, 1, 8),
    (24, 48, 3, 2, 8),
    (24, 48, 1, 2, 8),
    (48, 48, 3, 1, 4),
];

/// Classes of the quickstart dataset (the final linear layer's width).
const CLASSES: usize = 10;

const QUANT_METHODS: [&str; 3] = ["kmeans", "weq", "target_correlated"];
const QUANT_BITS: [u32; 3] = [2, 4, 6];

/// Defense kinds of the sweep grid's `defense` axis.
pub const DEFENSE_KINDS: [&str; 2] = ["rotation", "noise_weights"];

fn conv_name(&(ci, co, k, s, h): &(usize, usize, usize, usize, usize)) -> String {
    format!("c{ci}o{co}k{k}s{s}h{h}")
}

fn linear_name() -> String {
    format!("b{BATCH}i48o{CLASSES}")
}

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let ms = |v: &mut Vec<_>, name: String| v.push((name, "ms", "lower"));
    for step in QCE_STEPS {
        ms(&mut v, format!("qce.{step}_ms"));
    }
    v.push(("qce.unnamed_share".into(), "share", "lower"));
    for phase in NN_PHASES {
        ms(&mut v, format!("nn.{phase}_ms"));
    }
    v.push(("nn.backward_over_forward".into(), "ratio", "lower"));
    v.push(("nn.unnamed_share".into(), "share", "lower"));
    for layer in NN_LAYERS {
        ms(&mut v, format!("nn.layer.{layer}.fwd_ms"));
        ms(&mut v, format!("nn.layer.{layer}.bwd_ms"));
    }
    for shape in &CONV_SHAPES {
        ms(&mut v, format!("tensor.conv2d.{}.ms", conv_name(shape)));
        ms(
            &mut v,
            format!("tensor.conv2d_backward.{}.ms", conv_name(shape)),
        );
    }
    ms(&mut v, format!("tensor.linear_fwd.{}.ms", linear_name()));
    ms(&mut v, format!("tensor.linear_bwd.{}.ms", linear_name()));
    for method in QUANT_METHODS {
        for bits in QUANT_BITS {
            ms(&mut v, format!("quant.fit_ms.{method}_{bits}"));
        }
    }
    ms(&mut v, "quant.finetune_ms".into());
    ms(&mut v, "attack.decode_ms".into());
    ms(&mut v, "attack.decode_resilient_ms".into());
    ms(&mut v, "metrics.report_ms".into());
    ms(&mut v, "data.synth_quickstart_ms".into());
    ms(&mut v, "data.synth_job_ms".into());
    for kind in DEFENSE_KINDS {
        ms(&mut v, format!("defense.{kind}_ms"));
    }
    v.push(("store.hit".into(), "count", "higher"));
    v.push(("store.miss".into(), "count", "lower"));
    v.push(("store.write".into(), "count", "lower"));
    v.push(("store.hit_ratio".into(), "share", "higher"));
    v.push(("store.dup_writes".into(), "count", "lower"));
    v.push(("store.bytes_written".into(), "bytes", "lower"));
    ms(&mut v, "store.load_ms".into());
    ms(&mut v, "store.store_ms".into());
    v.push(("sweep.trained_cell_share".into(), "share", "lower"));
    v.push(("sweep.worker_busy_share".into(), "share", "higher"));
    v.push(("sweep.worker_speedup".into(), "ratio", "higher"));
    ms(&mut v, "serve.cold_p50_ms".into());
    ms(&mut v, "serve.warm_p50_ms".into());
    ms(&mut v, "serve.queue_wait_p50_ms".into());
    ms(&mut v, "serve.run_p50_ms".into());
    v.push(("serve.dedup_share".into(), "share", "higher"));
    ms(&mut v, "serve.http_rtt_p50_ms".into());
    ms(&mut v, "loadgen.lag_p95_ms".into());
    v.push(("telemetry.trace_overhead_share".into(), "share", "lower"));
    v
}

/// The per-layer metric set of one traced run, zero-filled.
pub struct Ledger {
    metrics: Metrics,
}

impl Ledger {
    pub fn new() -> Ledger {
        let mut metrics = Metrics::default();
        for (name, unit, _) in per_layer_metrics() {
            metrics.put(name, 0.0, unit);
        }
        Ledger { metrics }
    }

    /// Sets a metric of the fixed set.
    ///
    /// # Panics
    ///
    /// On a name outside [`per_layer_metrics`] (a typo would otherwise
    /// add a metric the benchmark does not declare).
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = per_layer_metrics()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, unit, _)| unit)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.metrics.put(name, value, unit);
    }

    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }
}

/// `expected.json`: the committed outputs of every input set.
pub fn expected_doc() -> Result<JsonValue, String> {
    let path = crate::bench_dir().join("expected.json");
    let body =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse(&body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Median wall time (ms) of `reps` calls of `f`, each inside span `name`.
pub fn probe<T>(name: &str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let span = trace::span(name);
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
    }
    median(&times)
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The paper-flow ResNetLite as a list of its top-level layers, built
/// with the same seeded initialisation as `ResNetLite::build`.
fn paper_layers(seed: u64) -> Vec<Box<dyn Layer>> {
    let mut rng = init::seeded_rng(seed);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(3, 12, 3, ConvGeometry::new(1, 1), &mut rng)),
        Box::new(BatchNorm2d::new(12)),
        Box::new(ReLU::new()),
    ];
    let mut prev = 12;
    for (i, ch) in [12usize, 24, 48].into_iter().enumerate() {
        for b in 0..2 {
            let stride = if i > 0 && b == 0 { 2 } else { 1 };
            layers.push(Box::new(ResidualBlock::new(prev, ch, stride, &mut rng)));
            prev = ch;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(prev, CLASSES, &mut rng)));
    layers
}

/// The per-layer probes every traced run makes, all at paper-flow
/// shapes (`FlowConfig::small()` over the 1200-image quickstart set):
/// dataset synthesis; an encoding plan and its correlation regularizer;
/// one training epoch replayed through the public `qce_nn` calls, phase
/// by phase and then layer by layer; the conv/linear kernels at every
/// shape the network runs; quantizer fits and one fine-tune epoch on the
/// replayed weights; decoding, image metrics and the defenses on the
/// fine-tuned release; store and job-dataset timings.
pub fn layer_probes(ledger: &mut Ledger, out: &mut RunOutcome) -> Result<(), String> {
    let cfg = FlowConfig::small();
    let mut data = None;
    ledger.set(
        "data.synth_quickstart_ms",
        probe("data.synth_quickstart", 3, || {
            data = Some(qce_data::SynthCifar::new(16).generate(1200, 1));
        }),
    );
    let data = data.expect("synthesized").map_err(err("dataset"))?;
    let (train, _) = data
        .split(cfg.train_fraction, cfg.seed)
        .map_err(err("split"))?;
    let x = train.to_tensor();
    let y = train.labels().to_vec();
    let mut net = ResNetLite::builder()
        .input(3, 16)
        .classes(CLASSES)
        .stage_channels(&cfg.stage_channels)
        .blocks_per_stage(cfg.blocks_per_stage)
        .build(cfg.seed.wrapping_add(1))
        .map_err(err("model"))?;
    let Grouping::LayerWise(lambdas) = cfg.grouping else {
        return Err("the paper-flow preset groups layer-wise".to_string());
    };
    let specs = GroupSpec::paper_thirds(
        net.weight_slots().len(),
        lambdas.map(|l| l * cfg.lambda_scale),
    );
    let layout =
        EncodingLayout::plan(&net, &specs, train.images()).map_err(err("encoding plan"))?;
    let encoded: usize = layout
        .groups()
        .iter()
        .map(|g| g.image_indices().len())
        .sum();
    let targets = &train.images()[..encoded];
    let mut reg = CorrelationRegularizer::new(layout.clone(), SignConvention::Positive);

    // One epoch through `Network`, phase by phase.
    let mut sgd = Sgd::with_momentum(cfg.lr, 0.9, 5e-4);
    let order: Vec<usize> = (0..y.len()).collect();
    {
        let _epoch = trace::span("nn.epoch");
        for chunk in order.chunks(cfg.batch_size) {
            let (bx, by) = {
                let _s = trace::span("nn.gather");
                let bx = gather_batch(&x, chunk).map_err(err("gather"))?;
                (bx, chunk.iter().map(|&i| y[i]).collect::<Vec<_>>())
            };
            {
                let _s = trace::span("nn.zero_grad");
                net.zero_grad();
            }
            let logits = {
                let _s = trace::span("nn.forward");
                net.forward(&bx, Mode::Train).map_err(err("forward"))?
            };
            let loss = {
                let _s = trace::span("nn.loss");
                softmax_cross_entropy(&logits, &by).map_err(err("loss"))?
            };
            {
                let _s = trace::span("nn.backward");
                net.backward(&loss.grad).map_err(err("backward"))?;
            }
            {
                let _s = trace::span("nn.regularizer");
                reg.apply(&mut net).map_err(err("regularizer"))?;
            }
            {
                let _s = trace::span("nn.optimizer");
                sgd.step(&mut net.params_mut());
            }
        }
    }

    // The same epoch layer by layer (composite blocks count as one).
    {
        let mut layers = paper_layers(cfg.seed.wrapping_add(1));
        let fwd: Vec<String> = NN_LAYERS
            .iter()
            .map(|l| format!("nn.layer.{l}.fwd"))
            .collect();
        let bwd: Vec<String> = NN_LAYERS
            .iter()
            .map(|l| format!("nn.layer.{l}.bwd"))
            .collect();
        let _pass = trace::span("nn.layer_pass");
        for chunk in order.chunks(cfg.batch_size) {
            let mut h = gather_batch(&x, chunk).map_err(err("gather"))?;
            let by: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
            for (i, layer) in layers.iter_mut().enumerate() {
                let _s = trace::span(&fwd[i]);
                h = layer
                    .forward(&h, Mode::Train)
                    .map_err(err("layer forward"))?;
            }
            let mut g = softmax_cross_entropy(&h, &by).map_err(err("loss"))?.grad;
            for (i, layer) in layers.iter_mut().enumerate().rev() {
                let _s = trace::span(&bwd[i]);
                g = layer.backward(&g).map_err(err("layer backward"))?;
            }
            for layer in &mut layers {
                for p in layer.params_mut() {
                    p.zero_grad();
                }
            }
        }
    }

    tensor_probes(ledger, out)?;

    // Quantizer fits on the replayed weights, then one fine-tune epoch.
    let weights = net.flat_weights();
    let stream: Vec<u8> = targets
        .iter()
        .flat_map(|img| img.pixels().iter().copied())
        .collect();
    for method in QUANT_METHODS {
        for bits in QUANT_BITS {
            let levels = 1usize << bits;
            let quantizer: Box<dyn Quantizer> = match method {
                "kmeans" => Box::new(KMeansQuantizer::new(levels).map_err(err("kmeans"))?),
                "weq" => Box::new(WeightedEntropyQuantizer::new(levels).map_err(err("weq"))?),
                _ => Box::new(TargetCorrelatedQuantizer::new(levels, &stream).map_err(err("tcq"))?),
            };
            let name = format!("quant.fit_ms.{method}_{bits}");
            let ms = probe(&name, 3, || quantizer.fit(&weights).is_ok());
            ledger.set(&name, ms);
        }
    }
    let tcq = TargetCorrelatedQuantizer::new(16, &stream).map_err(err("tcq"))?;
    let mut qnet = quantize_network(&mut net, &tcq).map_err(err("quantize"))?;
    let ft = FinetuneConfig {
        epochs: 1,
        batch_size: cfg.batch_size,
        lr: 0.01,
        momentum: 0.9,
        shuffle_seed: cfg.seed.wrapping_add(4),
        verbose: false,
    };
    let ms = probe("quant.finetune", 1, || {
        finetune(&mut net, &mut qnet, &x, &y, &ft, Some(&mut reg)).map(|h| h.epoch_losses.len())
    });
    ledger.set("quant.finetune_ms", ms);

    // Decoding, image metrics and defenses on the fine-tuned release.
    let flat = net.flat_weights();
    let decoder = Decoder::new(layout, SignConvention::Positive);
    ledger.set(
        "attack.decode_ms",
        probe("attack.decode", 5, || decoder.decode(&flat)),
    );
    ledger.set(
        "attack.decode_resilient_ms",
        probe("attack.decode_resilient", 5, || {
            decoder.decode_resilient(&flat)
        }),
    );
    let decoded = decoder.decode(&flat).map_err(err("decode"))?;
    let report_ms = probe("metrics.report", 5, || {
        decoded
            .iter()
            .map(|d| {
                let original = &targets[d.target_index];
                qce_metrics::mape(original, &d.image) + qce_metrics::ssim(original, &d.image)
            })
            .sum::<f32>()
    });
    ledger.set("metrics.report_ms", report_ms);
    defense_probes(ledger, &mut net)?;
    store_probes(ledger, &mut net, &crate::work_dir().join("store-probe"))?;
    let job = crate::serve_mixed::job_dataset();
    ledger.set(
        "data.synth_job_ms",
        probe("data.synth_job", 21, || job.generate().is_ok()),
    );
    Ok(())
}

/// Each defense of the sweep grid's `defense` axis applied to `net`
/// (restored after every application).
fn defense_probes(ledger: &mut Ledger, net: &mut Network) -> Result<(), String> {
    let snapshot = net.snapshot();
    let kinds = [
        DefenseKind::Rotation {
            mode: RotationMode::Permute,
        },
        DefenseKind::NoiseWeights { fraction: 0.05 },
    ];
    for (name, kind) in DEFENSE_KINDS.into_iter().zip(kinds) {
        let plan = DefensePlan::new(1).with(kind);
        let label = format!("defense.{name}");
        let mut times = Vec::new();
        for _ in 0..21 {
            let span = trace::span(&label);
            let (applied, ms) = timed(|| plan.apply(net, &DefenseContext::empty()));
            drop(span);
            applied.map_err(|e| format!("{label}: {e}"))?;
            net.restore(&snapshot).map_err(err("restore"))?;
            times.push(ms);
        }
        ledger.set(&format!("{label}_ms"), median(&times));
    }
    Ok(())
}

/// Conv forward/backward at batch 32 for every conv shape of the
/// paper-flow network, plus the final linear layer's matmuls. Notes
/// each kernel's computed flops and bytes.
fn tensor_probes(ledger: &mut Ledger, out: &mut RunOutcome) -> Result<(), String> {
    const REPS: usize = 15;
    let mut rng = init::seeded_rng(0x7e50);
    for shape in &CONV_SHAPES {
        let &(ci, co, k, s, h) = shape;
        let geom = ConvGeometry::new(s, k / 2);
        let ho = (h + 2 * (k / 2) - k) / s + 1;
        let x = init::uniform(&[BATCH, ci, h, h], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[co, ci, k, k], -0.5, 0.5, &mut rng);
        let b = Tensor::zeros(&[co]);
        let g = init::uniform(&[BATCH, co, ho, ho], -1.0, 1.0, &mut rng);
        let name = conv_name(shape);
        let fwd_name = format!("tensor.conv2d.{name}");
        let bwd_name = format!("tensor.conv2d_backward.{name}");
        let fwd = probe(&fwd_name, REPS, || conv2d(&x, &w, Some(&b), geom));
        let bwd = probe(&bwd_name, REPS, || conv2d_backward(&x, &w, &g, geom));
        let flops = 2.0 * (BATCH * co * ho * ho * ci * k * k) as f64;
        let bytes = 4.0 * (x.len() + w.len() + g.len()) as f64;
        out.notes.push(format!(
            "{fwd_name}: {fwd:.4} ms, {flops:.0} flop, {bytes:.0} B ({:.2} GFLOP/s); backward {bwd:.4} ms, {:.0} flop ({:.2} GFLOP/s)",
            flops / fwd / 1e6,
            2.0 * flops,
            2.0 * flops / bwd / 1e6
        ));
        ledger.set(&format!("{fwd_name}.ms"), fwd);
        ledger.set(&format!("{bwd_name}.ms"), bwd);
    }
    let x = init::uniform(&[BATCH, 48], -1.0, 1.0, &mut rng);
    let w = init::uniform(&[CLASSES, 48], -0.5, 0.5, &mut rng);
    let g = init::uniform(&[BATCH, CLASSES], -1.0, 1.0, &mut rng);
    let name = linear_name();
    let fwd = probe(&format!("tensor.linear_fwd.{name}"), 200, || {
        linalg::matmul_b_t(&x, &w)
    });
    let bwd = probe(&format!("tensor.linear_bwd.{name}"), 200, || {
        (linalg::matmul_a_t(&g, &x), linalg::matmul(&g, &w))
    });
    let flops = 2.0 * (BATCH * 48 * CLASSES) as f64;
    out.notes.push(format!(
        "tensor.linear.{name}: forward {fwd:.5} ms ({flops:.0} flop), backward {bwd:.5} ms ({:.0} flop), {:.0} B",
        2.0 * flops,
        4.0 * (x.len() + w.len() + g.len()) as f64
    ));
    ledger.set(&format!("tensor.linear_fwd.{name}.ms"), fwd);
    ledger.set(&format!("tensor.linear_bwd.{name}.ms"), bwd);
    Ok(())
}

/// Step times of one flow drive (`paper_flow::drive`) and the share of
/// its traced wall (`qce.flow`) that no `qce.<step>` span covers.
pub fn set_qce(ledger: &mut Ledger, steps: &[(&str, f64)], analysis: &Analysis) {
    for (step, ms) in steps {
        ledger.set(&format!("qce.{step}_ms"), *ms);
    }
    let flow = analysis.total_ms("qce.flow");
    if flow > 0.0 {
        ledger.set("qce.unnamed_share", analysis.self_ms("qce.flow") / flow);
    }
}

/// Trainer-phase and per-layer metrics from the traced replay epoch.
pub fn nn_from_trace(ledger: &mut Ledger, analysis: &Analysis) {
    for phase in NN_PHASES {
        ledger.set(
            &format!("nn.{phase}_ms"),
            analysis.total_ms(&format!("nn.{phase}")),
        );
    }
    let forward = analysis.total_ms("nn.forward");
    if forward > 0.0 {
        ledger.set(
            "nn.backward_over_forward",
            analysis.total_ms("nn.backward") / forward,
        );
    }
    let epoch = analysis.total_ms("nn.epoch");
    if epoch > 0.0 {
        ledger.set("nn.unnamed_share", analysis.self_ms("nn.epoch") / epoch);
    }
    for layer in NN_LAYERS {
        for dir in ["fwd", "bwd"] {
            let label = format!("nn.layer.{layer}.{dir}");
            ledger.set(&format!("{label}_ms"), analysis.total_ms(&label));
        }
    }
}

/// The process-wide `store.{hit,miss,write}` counters.
pub fn store_counters() -> [u64; 3] {
    ["store.hit", "store.miss", "store.write"].map(|c| qce_telemetry::counter(c).get())
}

/// What a stage-cache directory holds: `(files, bytes)`, and how many of
/// the files are `train` checkpoints.
pub fn cache_files(dir: &std::path::Path) -> ((u64, u64), u64) {
    let mut totals = ((0, 0), 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".qcs") {
            totals.0 .0 += 1;
            totals.0 .1 += entry.metadata().map_or(0, |m| m.len());
            totals.1 += u64::from(name.ends_with("-train.qcs"));
        }
    }
    totals
}

/// Store metrics from the `store.{hit,miss,write}` deltas of a window and
/// the distinct `(files, bytes)` its writes left in the cache.
pub fn set_store(ledger: &mut Ledger, [hit, miss, write]: [u64; 3], (files, bytes): (u64, u64)) {
    ledger.set("store.hit", hit as f64);
    ledger.set("store.miss", miss as f64);
    ledger.set("store.write", write as f64);
    ledger.set("store.hit_ratio", hit as f64 / (hit + miss).max(1) as f64);
    ledger.set("store.dup_writes", write.saturating_sub(files) as f64);
    ledger.set("store.bytes_written", bytes as f64);
}

/// Store timings for a paper-flow-sized network artifact: encode + write
/// `net`, and read + decode it back into `net`, through a fresh
/// `StageCache`.
fn store_probes(
    ledger: &mut Ledger,
    net: &mut Network,
    dir: &std::path::Path,
) -> Result<(), String> {
    let cache = StageCache::at(dir);
    let key = CacheKey::new(0x5eed, 1, "perfbench-network");
    let store_ms = probe("store.store", 9, || {
        let bytes = persist::network_to_bytes(net).expect("network encodes");
        let mut artifact = Artifact::new();
        artifact.push(qce_store::section_kind::NETWORK, bytes);
        cache.store(&key, &artifact).expect("artifact stores")
    });
    let before = net.flat_weights();
    let load_ms = probe("store.load", 9, || {
        let artifact = cache.load(&key).expect("artifact loads");
        let section = artifact
            .section(qce_store::section_kind::NETWORK)
            .expect("network section");
        persist::network_from_bytes(net, section).expect("network decodes");
    });
    if net.flat_weights() != before {
        return Err("store round trip changed the network".to_string());
    }
    ledger.set("store.store_ms", store_ms);
    ledger.set("store.load_ms", load_ms);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics the ledger reports.
    #[test]
    fn benchmark_json_declares_the_ledger() {
        let path = crate::bench_dir().join("../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(JsonValue::Arr(declared)) = doc.get("per_layer") else {
            panic!("BENCHMARK.json has no per_layer list");
        };
        let declared: Vec<(String, String, String)> = declared
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ledger: Vec<(String, String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared, ledger);
    }

    #[test]
    fn paper_layers_match_the_model_builder() {
        let mut net = ResNetLite::builder()
            .input(3, 16)
            .classes(CLASSES)
            .stage_channels(&[12, 24, 48])
            .blocks_per_stage(2)
            .build(8)
            .unwrap();
        let mut layers = paper_layers(8);
        assert_eq!(layers.len(), NN_LAYERS.len());
        for (layer, name) in layers.iter().zip(NN_LAYERS) {
            assert!(name.ends_with(layer.name()), "{name} vs {}", layer.name());
        }
        let x = init::uniform(&[2, 3, 16, 16], -1.0, 1.0, &mut init::seeded_rng(1));
        let want = net.forward(&x, Mode::Eval).unwrap();
        let mut h = x;
        for layer in &mut layers {
            h = layer.forward(&h, Mode::Eval).unwrap();
        }
        assert_eq!(h.as_slice(), want.as_slice());
    }
}
