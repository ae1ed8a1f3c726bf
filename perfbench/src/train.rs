//! `train`: `TimingModel::train` in-process on the five Small training
//! presets, with `hwacha` held out.
//!
//! The only workload that runs the taped GNN forward, backward and
//! optimizer step; no daemon workload touches that code.

use std::time::Instant;

use rtt_core::{ModelConfig, PreparedDesign, TimingModel, TrainConfig};
use rtt_flow::{Dataset, FlowConfig};

use crate::inputs::DesignInput;
use crate::pinned::check_fingerprint;
use crate::trace::{counter, program_span_ms};
use crate::util::{median, peak_rss_mb, r2, tail_or_upper};
use crate::workload::{record_setup, repeated_setup, secs, Ctx, Outcome};

const WORKLOAD: &str = "train";
/// Epochs per training.
pub const EPOCHS: usize = 20;
/// The held-out design.
const HOLDOUT: &str = "hwacha";

/// Runs the dataset flow (generate, place, optimize, route, sign-off STA)
/// for the five training presets and the held-out one.
pub fn dataset() -> Dataset {
    Dataset::generate_subset(&FlowConfig::default(), 5, 1)
}

/// The daemon-style fingerprint of a dataset design's input netlist and
/// placement.
pub fn input_of(d: &rtt_flow::DesignData, lib: &rtt_netlist::CellLibrary) -> DesignInput {
    DesignInput {
        name: format!("train-{}", d.name),
        verilog: rtt_netlist::write_verilog(&d.input_netlist, lib),
        placement: rtt_place::write_placement(&d.input_netlist, &d.input_placement),
        pins: d.input_graph.num_nodes(),
        endpoints: d.input_graph.endpoints().len(),
        max_level: d.input_graph.max_level(),
    }
}

/// One 20-epoch training from the fixed initial weights.
struct Training {
    epoch_ms: f64,
    holdout_r2: f64,
}

fn train_once(ctx: &Ctx, train: &[PreparedDesign], holdout: &PreparedDesign) -> Training {
    let mut model = TimingModel::new(ModelConfig::small());
    let tc = TrainConfig { epochs: EPOCHS, ..TrainConfig::default() };
    let t = Instant::now();
    ctx.tracer.span("core::train", None, |_| model.train(train, &tc));
    let epoch_ms = secs(t) * 1e3 / EPOCHS as f64;
    let pred = model.predict(holdout);
    Training { epoch_ms, holdout_r2: r2(&pred, &holdout.targets) }
}

/// Runs the workload. Training is deterministic, so the seed only names
/// the run: every training in every run must reach the same R².
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let deployment = ctx.pinned.deployment(WORKLOAD);
    rtt_nn::parallel::set_num_threads(deployment.kernel_threads);
    let ((train, holdout), times, setup_s) = repeated_setup(|times| {
        let t = Instant::now();
        let data = dataset();
        times.flow_s = secs(t);
        for d in &data.designs {
            let input = input_of(d, &ctx.lib);
            check_fingerprint(&ctx.pinned, &input.name, input.fingerprint())?;
        }
        let t = Instant::now();
        let cfg = ModelConfig::small();
        let mut train = Vec::new();
        let mut holdout = None;
        for d in &data.designs {
            let prep = d.prepared(&data.library, &cfg);
            if d.name == HOLDOUT {
                holdout = Some(prep);
            } else {
                train.push(prep);
            }
        }
        times.load_s = secs(t);
        Ok((train, holdout.ok_or("the held-out design is missing")?))
    })?;
    let mut out = Outcome::default();
    record_setup(&mut out, times, setup_s);

    let mut runs: Vec<(Training, bool)> = Vec::new();
    let t_run = Instant::now();
    let min_runs = if ctx.tracer.on() { 2 } else { 1 };
    // Another training only if it fits the budget at the last one's pace.
    while runs.len() < min_runs
        || secs(t_run) + runs.last().map_or(0.0, |(r, _)| r.epoch_ms * EPOCHS as f64 / 1e3)
            <= ctx.seconds
    {
        let traced = ctx.tracer.on() && runs.len().is_multiple_of(2);
        if traced {
            rtt_obs::reset();
        }
        rtt_obs::set_enabled(traced);
        let training = train_once(ctx, &train, &holdout);
        rtt_obs::set_enabled(false);
        runs.push((training, traced));
    }
    let elapsed = secs(t_run);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());

    // Training is bit-reproducible: every run must land on one R².
    let r2s: Vec<u64> = runs.iter().map(|(r, _)| r.holdout_r2.to_bits()).collect();
    for bits in &r2s {
        let result = if *bits == r2s[0] {
            Ok(())
        } else {
            Err("two trainings from the same weights reached different R²".to_owned())
        };
        out.count(&result);
    }
    let epoch_ms = |traced: bool| -> Vec<f64> {
        runs.iter().filter(|(_, t)| *t == traced).map(|(r, _)| r.epoch_ms).collect()
    };
    if ctx.tracer.on() {
        let snap = rtt_obs::snapshot();
        let per_epoch =
            |leaf: &str| program_span_ms(&snap, leaf, Some("core::train")).0 / EPOCHS as f64;
        let p50 = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
        out.layers.insert("obs.overhead_ratio", p50(epoch_ms(true)) / p50(epoch_ms(false)));
        out.layers.insert("nn.forward_ms", per_epoch("core::forward"));
        out.layers.insert("nn.backward_ms", per_epoch("nn::backward"));
        out.layers.insert("nn.optimizer_step_ms", per_epoch("nn::optimizer_step"));
        out.layers.insert(
            "nn.tape_bytes_per_epoch",
            counter(&snap, "nn::tape_bytes") as f64 / EPOCHS as f64,
        );
        out.trace_extra.push(("program", snap.to_json()));
    } else {
        let all = epoch_ms(false);
        out.e2e.insert("p50_ms", median(&all).unwrap_or(0.0));
        out.e2e.insert("tail_ms", tail_or_upper(&all).unwrap_or(0.0));
        out.e2e.insert("rate_per_s", (runs.len() * EPOCHS) as f64 / elapsed);
        eprintln!(
            "train: {} training(s) of {EPOCHS} epochs in {elapsed:.2} s; epoch {all:.1?} ms; held-out R² {:.6}",
            runs.len(),
            runs[0].0.holdout_r2
        );
    }
    out.e2e.insert("output_r2", runs[0].0.holdout_r2);
    Ok(out)
}
