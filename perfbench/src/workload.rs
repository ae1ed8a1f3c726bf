//! What every workload shares: the run context, its outcome, and the
//! repeated, timed set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use rtt_circgen::Scale;
use rtt_netlist::CellLibrary;

use crate::inputs::{self, DesignInput};
use crate::pinned::{check_fingerprint, Pinned};
use crate::trace::Tracer;
use crate::util::median;

/// One run's arguments and shared state.
pub struct Ctx {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Measured time (`--seconds`).
    pub seconds: f64,
    /// The run's recorder; on for `--trace 1`.
    pub tracer: Tracer,
    /// Pinned inputs and settings.
    pub pinned: Pinned,
    /// The cell library every input is written against.
    pub lib: CellLibrary,
}

/// A finished run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a non-200 answer, a reset or dropped
    /// answer, or a prediction whose bits differ from the reference.
    pub failed: u64,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra JSON members for the trace file.
    pub trace_extra: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one operation; returns whether it succeeded.
    pub fn count<T>(&mut self, result: &Result<T, String>) -> bool {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: failed operation: {e}");
            }
        }
        result.is_ok()
    }
}

/// Set-up time split by stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// circgen.
    pub generate_s: f64,
    /// Placement, routing, STA and serialization (whichever apply).
    pub flow_s: f64,
    /// Daemon start and `/load` of the workload's designs, or dataset
    /// preparation for training.
    pub load_s: f64,
}

/// How often set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `once` [`SETUP_REPEATS`] times and keeps the last result. Returns
/// it with the per-stage medians and the median total.
pub fn repeated_setup<T>(
    mut once: impl FnMut(&mut SetupTimes) -> Result<T, String>,
) -> Result<(T, SetupTimes, f64), String> {
    let mut runs = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // The previous instance (and its daemon) is dropped first, so
        // every repetition starts from the same memory state.
        drop(kept.take());
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let value = once(&mut times)?;
        runs.push((times, t.elapsed().as_secs_f64()));
        kept = Some(value);
    }
    let med = |f: fn(&(SetupTimes, f64)) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let times = SetupTimes {
        generate_s: med(|r| r.0.generate_s),
        flow_s: med(|r| r.0.flow_s),
        load_s: med(|r| r.0.load_s),
    };
    let total = med(|r| r.1);
    Ok((kept.expect("at least one set-up ran"), times, total))
}

/// Generates, places and serializes a preset, checks it against its
/// pinned fingerprint, and books the time.
pub fn generate_checked(
    ctx: &Ctx,
    preset: &str,
    scale: Scale,
    times: &mut SetupTimes,
) -> Result<DesignInput, String> {
    let (design, gen_s, flow_s) = inputs::generate(preset, scale, &ctx.lib);
    times.generate_s += gen_s;
    times.flow_s += flow_s;
    check_fingerprint(&ctx.pinned, &design.name, design.fingerprint())?;
    Ok(design)
}

/// Records the set-up metrics every workload reports.
pub fn record_setup(out: &mut Outcome, times: SetupTimes, setup_s: f64) {
    out.e2e.insert("setup_s", setup_s);
    out.layers.insert("setup.generate_s", times.generate_s);
    out.layers.insert("setup.flow_s", times.flow_s);
    out.layers.insert("setup.load_s", times.load_s);
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
