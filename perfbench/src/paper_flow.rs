//! `paper_flow`: the paper's select → train → quantize → decode pipeline
//! at quickstart size, driven one `FlowMachine::advance` at a time with
//! no stage cache.

use std::process::{Command, ExitCode};
use std::time::Instant;

use qce::{AttackFlow, FlowConfig, FlowOutcome};
use qce_data::{Dataset, SynthCifar};

use crate::layers::{self, Ledger};
use crate::stats::{median, timed};
use crate::{trace, Args, RunOutcome};

/// Images in the quickstart dataset.
const IMAGES: usize = 1200;
/// Image edge length, pixels.
const SIZE: usize = 16;
/// Dataset syntheses timed during set-up (the median is reported).
const SETUP_REPS: usize = 5;
/// Latency limit of one flow drive, ms.
pub const FLOW_SLO_MS: f64 = 30_000.0;
/// First argument of the child process that recomputes the digests
/// under another `QCE_THREADS`.
pub const CHILD_FLAG: &str = "--flow-digests";

/// The flow configuration of input set `input`.
pub fn config(input: u64) -> FlowConfig {
    FlowConfig {
        seed: 7 + input,
        ..FlowConfig::small()
    }
}

/// The quickstart dataset of input set `input`.
pub fn dataset(input: u64) -> Result<Dataset, String> {
    SynthCifar::new(SIZE)
        .generate(IMAGES, 1 + input)
        .map_err(|e| format!("dataset synthesis: {e}"))
}

/// What one flow drive produced.
pub struct Drive {
    pub outcome: FlowOutcome,
    pub wall_ms: f64,
    /// `(step, wall ms)` of every `advance`, timed around the call.
    pub steps: Vec<(&'static str, f64)>,
}

/// One flow drive. Every `advance` runs inside a `qce.<step>` span, the
/// whole drive inside `qce.flow`.
pub fn drive(cfg: &FlowConfig, data: &Dataset) -> Result<Drive, String> {
    let started = Instant::now();
    let root = trace::span("qce.flow");
    let mut machine = AttackFlow::new(cfg.clone())
        .machine(data)
        .map_err(|e| format!("flow machine: {e}"))?;
    let mut steps = Vec::new();
    while !machine.is_done() {
        let name = machine.step().name();
        let _step = trace::span(&format!("qce.{name}"));
        let (event, ms) = timed(|| machine.advance());
        event.map_err(|e| format!("step {name}: {e}"))?;
        steps.push((name, ms));
    }
    let outcome = machine
        .into_outcome()
        .map_err(|e| format!("flow outcome: {e}"))?;
    drop(root);
    Ok(Drive {
        outcome,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        steps,
    })
}

fn digests_of(outcome: &FlowOutcome) -> Vec<(String, String)> {
    outcome
        .artifact_digests()
        .into_iter()
        .map(|(name, d)| (name, format!("{d:016x}")))
        .collect()
}

/// Compares an outcome with the committed digests of its input set.
fn check_outcome(outcome: &FlowOutcome, expected: &[(String, String)]) -> Result<(), String> {
    if outcome.post_quant.is_none() {
        return Err("flow released no quantized model".to_string());
    }
    let got = digests_of(outcome);
    if got != expected {
        return Err(format!("artifact digests {got:?}, expected {expected:?}"));
    }
    Ok(())
}

/// The committed digests of input set `input`.
fn expected(input: u64) -> Result<Vec<(String, String)>, String> {
    let doc = layers::expected_doc()?;
    let entry = doc
        .get("paper_flow")
        .and_then(|w| w.get(&input.to_string()))
        .ok_or_else(|| format!("expected.json has no paper_flow entry {input}"))?;
    let names = [
        "release.weights",
        "select.indices",
        "targets.pixels",
        "training.history",
    ];
    names
        .iter()
        .map(|name| {
            entry
                .get(name)
                .and_then(|v| v.as_str())
                .map(|hex| ((*name).to_string(), hex.to_string()))
                .ok_or_else(|| format!("expected.json paper_flow {input} lacks {name}"))
        })
        .collect()
}

/// Runs the same flow in a child process at `QCE_THREADS=1` and returns
/// its digests (the parent runs at the default thread count).
fn digests_at_one_thread(input: u64) -> Result<Vec<(String, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(input.to_string())
        .env("QCE_THREADS", "1")
        .output()
        .map_err(|e| format!("spawning the QCE_THREADS=1 flow: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "QCE_THREADS=1 flow failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| {
            let (name, hex) = l.split_once(' ')?;
            Some((name.to_string(), hex.to_string()))
        })
        .collect())
}

/// Child process body: one flow, digests on stdout.
pub fn child_main(argv: &[String]) -> ExitCode {
    let Some(input) = argv.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("usage: perfbench {CHILD_FLAG} <input>");
        return ExitCode::from(2);
    };
    let result = dataset(input).and_then(|data| drive(&config(input), &data));
    match result {
        Ok(run) => {
            for (name, hex) in digests_of(&run.outcome) {
                println!("{name} {hex}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the `paper_flow` section of `expected.json`, after checking
/// that every input set gives the same digests at the default thread
/// count and at `QCE_THREADS=1`.
pub fn bless() -> Result<(), String> {
    let mut entries = Vec::new();
    for input in 0..crate::INPUT_SETS {
        let data = dataset(input)?;
        let run = drive(&config(input), &data)?;
        let ms = run.wall_ms;
        let here = digests_of(&run.outcome);
        let one = digests_at_one_thread(input)?;
        if here != one {
            return Err(format!(
                "input {input}: digests differ across threads: {here:?} vs {one:?}"
            ));
        }
        eprintln!("paper_flow input {input}: {ms:.0} ms, thread-invariant");
        let fields: Vec<String> = here
            .iter()
            .map(|(name, hex)| format!("\"{name}\": \"{hex}\""))
            .collect();
        entries.push(format!("    \"{input}\": {{{}}}", fields.join(", ")));
    }
    println!("  \"paper_flow\": {{\n{}\n  }}", entries.join(",\n"));
    Ok(())
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let input = args.input();
    let cfg = config(input);
    let expected = expected(input)?;
    let mut out = RunOutcome::default();

    // Set-up: dataset synthesis, timed several times.
    let mut setup_ms = Vec::new();
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let (d, ms) = timed(|| dataset(input));
        setup_ms.push(ms);
        data = Some(d?);
    }
    let data = data.expect("at least one set-up repetition");

    if args.trace {
        return traced(args, &cfg, &data, &expected, out);
    }

    let started = Instant::now();
    let mut flows = Vec::new();
    let mut first_steps = None;
    loop {
        match drive(&cfg, &data) {
            Ok(run) => {
                let check = check_outcome(&run.outcome, &expected);
                if check.is_ok() {
                    flows.push(run.wall_ms);
                }
                out.check("paper_flow flow", check);
                first_steps.get_or_insert(run.steps);
            }
            Err(e) => out.check("paper_flow flow", Err(e)),
        }
        // Flows start until `--seconds` have passed, so a run measures
        // whole flows for at least that long.
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.notes.push(format!(
        "flow_s = {:.4} s (median, n={})",
        median(&flows) / 1e3,
        flows.len()
    ));
    if let Some(steps) = first_steps {
        let line: Vec<String> = steps.iter().map(|(n, ms)| format!("{n}={ms:.1}")).collect();
        out.notes
            .push(format!("steps (ms, first flow): {}", line.join(" ")));
    }
    out.set_e2e("flow", &setup_ms, &flows, wall_s, FLOW_SLO_MS);
    Ok(out)
}

/// The traced run: the flow untraced then traced (for the overhead), the
/// thread-count check, the layer probes and the serve probe.
fn traced(
    args: &Args,
    cfg: &FlowConfig,
    data: &Dataset,
    expected: &[(String, String)],
    mut out: RunOutcome,
) -> Result<RunOutcome, String> {
    let mut ledger = Ledger::new();

    let plain = drive(cfg, data)?;
    let plain_ms = plain.wall_ms;
    out.check(
        "paper_flow untraced flow",
        check_outcome(&plain.outcome, expected),
    );
    drop(plain);

    trace::start();
    let Drive {
        outcome,
        wall_ms: traced_ms,
        steps,
    } = drive(cfg, data)?;
    out.check("paper_flow traced flow", check_outcome(&outcome, expected));
    out.notes.push(format!(
        "flow untraced {plain_ms:.1} ms, traced {traced_ms:.1} ms; steps {steps:?}"
    ));
    ledger.set("telemetry.trace_overhead_share", traced_ms / plain_ms - 1.0);

    let one = digests_at_one_thread(args.input());
    out.check(
        "paper_flow digests at QCE_THREADS=1",
        one.and_then(|one| {
            if one == digests_of(&outcome) {
                Ok(())
            } else {
                Err(format!("QCE_THREADS=1 digests {one:?}"))
            }
        }),
    );

    layers::layer_probes(&mut ledger, &mut out)?;
    crate::serve_mixed::serve_probe(&mut ledger, &mut out, args.seed)?;

    let analysis = trace::finish(
        &crate::work_dir().join("paper_flow.trace.jsonl"),
        &["qce.flow", "qce.train", "nn.epoch", "serve.job"],
    )?;
    out.notes.push(format!(
        "trace: {} events, {} span names, validated",
        analysis.events, analysis.spans
    ));
    layers::set_qce(&mut ledger, &steps, &analysis);
    layers::nn_from_trace(&mut ledger, &analysis);
    out.metrics = ledger.into_metrics();
    Ok(out)
}
