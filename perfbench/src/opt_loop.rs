//! `opt_loop`: an optimizer's closed loop — one `/transform`, then one
//! incremental `/predict` of every endpoint, on one connection.
//!
//! Writes beside reads on the same layers: the opt transforms, the graph
//! rebuild, delta preparation and dirty-cone prediction. A trunk cache
//! gets little reuse here.

use std::collections::BTreeSet;
use std::time::Instant;

use rtt_circgen::Scale;
use rtt_core::PreparedDesign;
use rtt_netlist::{CellId, CellLibrary, GateFn, NetId, Netlist, PinDir, PinId, TimingGraph};
use rtt_place::{Placement, Point};
use rtt_route::{route, RouteConfig};
use rtt_serve::Server;
use rtt_sta::{run_sta, WireModel};

use crate::client::Client;
use crate::daemon::{self, mismatched_bits};
use crate::inputs::{fnv1a, DesignInput};
use crate::pinned::hex;
use crate::trace::{counter, program_span_ms, ratio};
use crate::util::{median, peak_rss_mb, r2, tail_or_upper, Rng};
use crate::workload::{generate_checked, ms, record_setup, repeated_setup, Ctx, Outcome};

const WORKLOAD: &str = "opt_loop";
/// Ops generated per script; a run stops early if it uses them all.
pub const SCRIPT_LEN: usize = 1000;
/// Endpoints whose fan-in cones hold the script's sites.
const CRITICAL_ENDPOINTS: usize = 16;
/// Checkpoints replayed against a cold daemon, besides the last step.
const CHECKPOINTS: usize = 3;

/// One scripted transform, with the ids the daemon's netlist uses.
#[derive(Clone, Debug)]
pub enum Op {
    /// Swap a cell for its same-function variant of another drive.
    Resize { cell: u32, drive: u8 },
    /// Insert a buffer between a net's driver and one sink.
    Buffer { net: u32, sink: u32, pos: Point },
    /// Remove a buffer.
    Bypass { cell: u32 },
}

impl Op {
    /// The `/transform` body.
    pub fn body(&self, design: &str) -> String {
        match self {
            Op::Resize { cell, drive } => {
                format!("design={design}\nop=resize\ncell={cell}\ndrive={drive}\n")
            }
            Op::Buffer { net, sink, pos } => {
                format!(
                    "design={design}\nop=buffer\nnet={net}\nsink={sink}\npos={},{}\n",
                    pos.x, pos.y
                )
            }
            Op::Bypass { cell } => format!("design={design}\nop=bypass\ncell={cell}\n"),
        }
    }

    /// Applies the op in-process with `rtt_opt`, as the daemon does.
    pub fn apply(
        &self,
        nl: &mut Netlist,
        pl: &mut Placement,
        lib: &CellLibrary,
    ) -> Result<(), String> {
        match *self {
            Op::Resize { cell, drive } => {
                let cell = CellId::from_index(cell as usize);
                let gate = lib.cell_type(nl.cell(cell).type_id).gate;
                let ty = lib.pick(gate, drive).ok_or("no such drive")?;
                nl.resize_cell(cell, ty, lib).map_err(|e| e.to_string())
            }
            Op::Buffer { net, sink, pos } => {
                let (net, sink) =
                    (NetId::from_index(net as usize), PinId::from_index(sink as usize));
                rtt_opt::insert_buffer(nl, pl, lib, net, sink, pos)
                    .map(drop)
                    .map_err(|e| e.to_string())
            }
            Op::Bypass { cell } => {
                rtt_opt::bypass_repeater(nl, lib, CellId::from_index(cell as usize))
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// Where the script may act: cells and sink pins in the fan-in cones of
/// the most critical endpoints.
pub struct Sites {
    cells: Vec<CellId>,
    sinks: Vec<PinId>,
}

/// The daemon's view of a design: parsed from the same bytes, so every
/// id matches the daemon's.
pub fn parse(design: &DesignInput, lib: &CellLibrary) -> (Netlist, Placement) {
    let nl = rtt_netlist::parse_verilog(&design.verilog, lib).expect("generated verilog parses");
    let pl =
        rtt_place::parse_placement(&nl, &design.placement).expect("generated placement parses");
    (nl, pl)
}

/// Finds the critical endpoints by routed STA and collects their fan-in
/// cones.
pub fn critical_sites(nl: &Netlist, pl: &Placement, lib: &CellLibrary) -> Sites {
    let graph = TimingGraph::build(nl, lib);
    let routing = route(nl, lib, pl, &RouteConfig::default());
    let sta = run_sta(nl, lib, &graph, WireModel::Routed(&routing), 1.0);
    let mut ends: Vec<(PinId, f32)> = sta.endpoint_arrivals().to_vec();
    ends.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
    let mut seen = vec![false; graph.num_nodes()];
    let mut stack: Vec<u32> =
        ends.iter().take(CRITICAL_ENDPOINTS).filter_map(|&(p, _)| graph.node_of(p)).collect();
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut seen[v as usize], true) {
            continue;
        }
        stack.extend(graph.fanin(v).map(|e| e.from).filter(|&u| !seen[u as usize]));
    }
    let pins: Vec<PinId> = (0..graph.num_nodes() as u32)
        .filter(|&v| seen[v as usize])
        .map(|v| graph.pin_of(v))
        .collect();
    let cells: BTreeSet<CellId> = pins
        .iter()
        .filter_map(|&p| nl.pin(p).cell)
        .filter(|&c| !lib.cell_type(nl.cell(c).type_id).is_sequential())
        .collect();
    let sinks = pins
        .into_iter()
        .filter(|&p| {
            nl.pin(p).dir == PinDir::Sink && nl.pin(p).cell.is_some() && nl.pin(p).net.is_some()
        })
        .collect();
    Sites { cells: cells.into_iter().collect(), sinks }
}

/// A seeded script of `len` ops — about 60% resize, 30% buffer, 10%
/// bypass — each applied in-process as it is drawn, so every op is one
/// the daemon must accept. `nl`/`pl` end in the scripted state.
pub fn script(
    seed: u64,
    len: usize,
    sites: &Sites,
    nl: &mut Netlist,
    pl: &mut Placement,
    lib: &CellLibrary,
) -> Result<Vec<Op>, String> {
    let mut rng = Rng::new(seed, "opt_loop/script");
    let mut buffers: Vec<CellId> = sites
        .cells
        .iter()
        .copied()
        .filter(|&c| lib.cell_type(nl.cell(c).type_id).gate == GateFn::Buf)
        .collect();
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let mut attempts = 0;
        let op = loop {
            attempts += 1;
            if attempts > 1000 {
                return Err("script generation found no applicable op".to_owned());
            }
            let u = rng.unit();
            let op = if u < 0.6 {
                let cell = sites.cells[rng.below(sites.cells.len())];
                if !nl.cell(cell).is_alive() {
                    continue;
                }
                let ty = lib.cell_type(nl.cell(cell).type_id);
                let drives: Vec<u8> = lib
                    .variants(ty.gate)
                    .into_iter()
                    .map(|v| lib.cell_type(v).drive)
                    .filter(|&d| d != ty.drive)
                    .collect();
                if drives.is_empty() {
                    continue;
                }
                Op::Resize { cell: cell.index() as u32, drive: drives[rng.below(drives.len())] }
            } else if u < 0.9 {
                let sink = sites.sinks[rng.below(sites.sinks.len())];
                let Some(net) = nl.pin(sink).net.filter(|_| nl.pin(sink).is_alive()) else {
                    continue;
                };
                let a = pl.pin_position(nl, nl.net(net).driver);
                let b = pl.pin_position(nl, sink);
                let pos = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
                Op::Buffer { net: net.index() as u32, sink: sink.index() as u32, pos }
            } else {
                let alive: Vec<CellId> =
                    buffers.iter().copied().filter(|&c| nl.cell(c).is_alive()).collect();
                if alive.is_empty() {
                    continue;
                }
                Op::Bypass { cell: alive[rng.below(alive.len())].index() as u32 }
            };
            // Every op drawn above meets its transform's preconditions; a
            // failure could leave `nl` half-mutated, so it ends the script.
            let cells_before = nl.cell_capacity();
            op.apply(nl, pl, lib).map_err(|e| format!("scripted {op:?} failed in-process: {e}"))?;
            if matches!(op, Op::Buffer { .. }) {
                buffers.push(CellId::from_index(cells_before));
            }
            break op;
        };
        ops.push(op);
    }
    TimingGraph::try_build(nl, lib)
        .map_err(|e| format!("scripted netlist has no timing graph: {e}"))?;
    Ok(ops)
}

/// Fingerprint of a script: FNV-1a of its request bodies.
pub fn script_fnv(ops: &[Op], design: &str) -> u64 {
    let bodies: String = ops.iter().map(|op| op.body(design)).collect();
    fnv1a(bodies.as_bytes())
}

/// One executed step.
struct Step {
    transform_ms: f64,
    step_ms: f64,
    dirty: Option<usize>,
    values: Result<Vec<f32>, String>,
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let deployment = ctx.pinned.deployment(WORKLOAD);
    rtt_nn::parallel::set_num_threads(deployment.kernel_threads);
    let cfg = ctx.pinned.serve_config(WORKLOAD);
    let ((server, design, ops), times, setup_s) = repeated_setup(|times| {
        let design = generate_checked(ctx, "jpeg", Scale::Small, times)?;
        let t = Instant::now();
        let (base_nl, base_pl) = parse(&design, &ctx.lib);
        let sites = critical_sites(&base_nl, &base_pl, &ctx.lib);
        let (ref_seed, ref_fnv) = ctx.pinned.script_fingerprint();
        let (mut nl, mut pl) = (base_nl.clone(), base_pl.clone());
        let reference = script(ref_seed, SCRIPT_LEN, &sites, &mut nl, &mut pl, &ctx.lib)?;
        let got = script_fnv(&reference, &design.name);
        if got != ref_fnv {
            return Err(format!(
                "opt_loop script for seed {ref_seed} is {} but pinned.json has {}: inputs changed",
                hex(got),
                hex(ref_fnv)
            ));
        }
        let (mut nl, mut pl) = (base_nl, base_pl);
        let ops = script(ctx.seed, SCRIPT_LEN, &sites, &mut nl, &mut pl, &ctx.lib)?;
        times.flow_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let server = daemon::start(cfg.clone())?;
        daemon::load(&mut daemon::client(&server), &design)?;
        times.load_s = t.elapsed().as_secs_f64();
        Ok((server, design, ops))
    })?;
    let mut out = Outcome::default();
    record_setup(&mut out, times, setup_s);

    let before = if ctx.tracer.on() { Some(daemon::stats(&server)?) } else { None };
    let mut client = daemon::client(&server);
    let predict_body = format!("design={}\nmode=incremental\n", design.name);
    // One untimed predict arms the daemon's activation cache, as an
    // optimizer's first query would.
    let warm = daemon::predict(&mut client, &predict_body);
    out.count(&warm);

    let mut steps: Vec<Step> = Vec::new();
    let mut traced_steps: Vec<usize> = Vec::new();
    let t_run = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if t_run.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // The traced run traces every other step, so traced and untraced
        // steps see the same design growth.
        let traced = ctx.tracer.on() && i % 2 == 0;
        rtt_obs::set_enabled(traced);
        let tracer = if traced { Some(&ctx.tracer) } else { None };
        let step = one_step(&mut client, op, &design.name, &predict_body, tracer);
        rtt_obs::set_enabled(false);
        if traced {
            traced_steps.push(i);
        }
        steps.push(step);
    }
    let elapsed = t_run.elapsed().as_secs_f64();
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    drop(client);

    let step_ms: Vec<f64> = steps.iter().map(|s| s.step_ms).collect();
    if ctx.tracer.on() {
        let after = daemon::stats(&server)?;
        let before = before.expect("taken when tracing");
        layer_metrics(ctx, &mut out, (&design, &ops), &steps, &traced_steps, (&before, &after));
        out.trace_extra.push(("stats_before", before.to_string()));
        out.trace_extra.push(("stats_after", after.to_string()));
        out.trace_extra.push(("program", rtt_obs::snapshot().to_json()));
    } else {
        out.e2e.insert("p50_ms", median(&step_ms).unwrap_or(0.0));
        out.e2e.insert("tail_ms", tail_or_upper(&step_ms).unwrap_or(0.0));
        out.e2e.insert("rate_per_s", steps.len() as f64 / elapsed);
        let tr: Vec<f64> = steps.iter().map(|s| s.transform_ms).collect();
        eprintln!(
            "opt_loop: {} steps in {elapsed:.2} s; step p50 {:.2} ms tail {:.2} ms; /transform p50 {:.2} ms",
            steps.len(),
            median(&step_ms).unwrap_or(0.0),
            tail_or_upper(&step_ms).unwrap_or(0.0),
            median(&tr).unwrap_or(0.0),
        );
    }
    drop(server);

    let (got, want) = check(ctx, &mut out, &design, &ops, &steps)?;
    out.e2e.insert("output_r2", r2(&got, &want));
    Ok(out)
}

fn one_step(
    client: &mut Client,
    op: &Op,
    design: &str,
    predict_body: &str,
    tracer: Option<&crate::trace::Tracer>,
) -> Step {
    let quiet = crate::trace::Tracer::new(false);
    let tracer = tracer.unwrap_or(&quiet);
    let t = Instant::now();
    tracer.span("step", None, |id| {
        let transform = tracer.span("http /transform", id, |_| {
            client.request("POST", "/transform", &[], op.body(design).as_bytes())
        });
        let transform_ms = ms(t);
        let dirty = match &transform {
            Ok(a) if a.status == 200 => String::from_utf8_lossy(&a.body)
                .lines()
                .find_map(|l| l.strip_prefix("dirty="))
                .and_then(|v| v.parse().ok()),
            _ => None,
        };
        let values = match transform {
            Ok(a) if a.status == 200 => tracer
                .span("http /predict", id, |_| {
                    client.request("POST", "/predict", &[], predict_body.as_bytes())
                })
                .and_then(|a| daemon::check_predict(&a)),
            Ok(a) => Err(format!(
                "/transform answered {}: {}",
                a.status,
                String::from_utf8_lossy(&a.body).trim()
            )),
            Err(e) => Err(e),
        };
        Step { transform_ms, step_ms: ms(t), dirty, values }
    })
}

/// Replays the executed script in-process: every `/transform`'s dirty
/// count must match `rtt_opt::dirty_seed_pins`, and at seeded checkpoints
/// (and the last step) a cold daemon serving a cold preparation of the
/// replayed netlist must answer `/predict` with the same bits the loop's
/// incremental `/predict` did. Returns the checked values beside their
/// references.
///
/// The reference daemon boots with the replayed netlist rather than
/// `/load`ing it: writing a netlist out and parsing it back renumbers its
/// cells once a bypass has removed one, which changes float summation
/// order, so only the netlist with the daemon's own ids is a bit-exact
/// reference.
fn check(
    ctx: &Ctx,
    out: &mut Outcome,
    design: &DesignInput,
    ops: &[Op],
    steps: &[Step],
) -> Result<(Vec<f32>, Vec<f32>), String> {
    let n = steps.len();
    let mut rng = Rng::new(ctx.seed, "opt_loop/checkpoints");
    let mut checkpoints: BTreeSet<usize> = (0..CHECKPOINTS).map(|_| rng.below(n.max(1))).collect();
    checkpoints.insert(n.saturating_sub(1));
    let model = daemon::model();
    let (mut nl, mut pl) = parse(design, &ctx.lib);
    let mut results: Vec<Result<(), String>> = Vec::with_capacity(n);
    let mut cold: Vec<(String, PreparedDesign)> = Vec::new();
    for (i, (op, step)) in ops.iter().zip(steps).enumerate() {
        let before = nl.clone();
        op.apply(&mut nl, &mut pl, &ctx.lib).map_err(|e| format!("replay of op {i}: {e}"))?;
        let dirty = rtt_opt::dirty_seed_pins(&before, &nl).len();
        let mut result = step.values.as_ref().map(|_| ()).map_err(Clone::clone);
        if result.is_ok() && step.dirty != Some(dirty) {
            result = Err(format!(
                "step {i}: /transform said dirty={:?}, replay found {dirty}",
                step.dirty
            ));
        }
        if checkpoints.contains(&i) {
            let graph =
                TimingGraph::try_build(&nl, &ctx.lib).map_err(|e| format!("replay graph: {e}"))?;
            let targets = vec![0.0; graph.endpoints().len()];
            let prep = PreparedDesign::prepare(&nl, &ctx.lib, &pl, &graph, model.config(), targets);
            cold.push((format!("step{i}"), prep));
        }
        results.push(result);
    }
    let reference = Server::start(ctx.pinned.serve_config(WORKLOAD), model, cold)
        .map_err(|e| format!("reference daemon: {e}"))?;
    let mut client = daemon::client(&reference);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &i in &checkpoints {
        let Ok(values) = &steps[i].values else { continue };
        let expect = daemon::predict(&mut client, &format!("design=step{i}\n"))?;
        if values.len() == expect.len() {
            got.extend(values);
            want.extend(&expect);
        }
        let bad = mismatched_bits(values, &expect);
        if bad > 0 && results[i].is_ok() {
            results[i] = Err(format!("step {i}: {bad} values differ from a cold daemon"));
        }
    }
    for result in &results {
        out.count(result);
    }
    Ok((got, want))
}

/// Per-layer numbers of the traced run.
fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    (design, ops): (&DesignInput, &[Op]),
    steps: &[Step],
    traced: &[usize],
    (before, after): (&rtt_obs::json::Value, &rtt_obs::json::Value),
) {
    let pick = |f: fn(&Step) -> f64, want_traced: bool| -> Vec<f64> {
        steps
            .iter()
            .enumerate()
            .filter(|(i, _)| traced.contains(i) == want_traced)
            .map(|(_, s)| f(s))
            .collect()
    };
    let p50 = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    out.layers.insert(
        "obs.overhead_ratio",
        p50(pick(|s| s.step_ms, true)) / p50(pick(|s| s.step_ms, false)),
    );
    // Client-side timings come from the untraced steps; the program's
    // spans only exist for the traced ones.
    out.layers.insert("opt.transform_http_p50_ms", p50(pick(|s| s.transform_ms, false)));
    out.layers.insert("serve.handler_p50_ms", daemon::stat_f64(after, "latency_p50_ms"));
    daemon::record_stat_deltas(out, before, after);

    let snap = rtt_obs::snapshot();
    let per_step = |leaf: &str, under: Option<&str>| {
        program_span_ms(&snap, leaf, under).0 / traced.len().max(1) as f64
    };
    out.layers.insert("core.prepare_delta_ms", per_step("core::prepare_delta", None));
    out.layers.insert("core.predict_incremental_ms", per_step("core::predict_incremental", None));
    out.layers.insert(
        "features.endpoint_masks_ms",
        per_step("features::endpoint_masks", Some("core::prepare_delta")),
    );
    out.layers.insert(
        "features.node_features_ms",
        per_step("features::node_features", Some("core::prepare_delta")),
    );
    out.layers.insert(
        "features.layout_maps_ms",
        per_step("features::layout_maps", Some("core::prepare_delta")),
    );
    out.layers.insert("netlist.graph_build_ms", per_step("netlist::timing_graph", None));
    let c = |name: &str| counter(&snap, name);
    for (metric, num, den) in [
        (
            "features.masks_recomputed_ratio",
            "core::prepare_masks_recomputed",
            "core::prepare_masks_total",
        ),
        (
            "features.feat_rows_recomputed_ratio",
            "core::prepare_feat_rows_recomputed",
            "core::prepare_feat_rows_total",
        ),
        (
            "features.map_bins_recomputed_ratio",
            "core::prepare_map_bins_recomputed",
            "core::prepare_map_bins_total",
        ),
        (
            "core.rows_recomputed_ratio",
            "core::incremental_rows_recomputed",
            "core::incremental_rows_total",
        ),
        ("core.eps_reused_ratio", "core::incremental_eps_reused", "core::incremental_eps_total"),
    ] {
        out.layers.insert(metric, ratio(c(num), c(den)));
    }
    let dirty: Vec<f64> = steps.iter().filter_map(|s| s.dirty).map(|d| d as f64).collect();
    out.layers
        .insert("opt.dirty_seeds_mean", dirty.iter().sum::<f64>() / dirty.len().max(1) as f64);
    out.layers.insert("opt.transform_ms", replay_ms(ctx, design, &ops[..steps.len()]));
}

/// Median ms per executed op applied in-process with `rtt_opt`, replayed
/// on a fresh parse of the design.
fn replay_ms(ctx: &Ctx, design: &DesignInput, ops: &[Op]) -> f64 {
    let (mut nl, mut pl) = parse(design, &ctx.lib);
    let samples: Vec<f64> = ops
        .iter()
        .map(|op| {
            let t = Instant::now();
            ctx.tracer
                .span("opt::apply", None, |_| op.apply(&mut nl, &mut pl, &ctx.lib))
                .expect("scripted op applies");
            ms(t)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_of_many_seeds_apply_cleanly_and_repeat() {
        let lib = CellLibrary::asap7_like();
        let design = crate::inputs::generate("jpeg", Scale::Small, &lib).0;
        let (base_nl, base_pl) = parse(&design, &lib);
        let sites = critical_sites(&base_nl, &base_pl, &lib);
        let run = |seed| {
            let (mut nl, mut pl) = (base_nl.clone(), base_pl.clone());
            script(seed, SCRIPT_LEN, &sites, &mut nl, &mut pl, &lib).expect("script applies")
        };
        for seed in 0..40 {
            let ops = run(seed);
            let kinds = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count();
            assert!(kinds(|op| matches!(op, Op::Resize { .. })) > 500, "seed {seed}");
            assert!(kinds(|op| matches!(op, Op::Bypass { .. })) > 50, "seed {seed}");
        }
        assert_eq!(script_fnv(&run(7), &design.name), script_fnv(&run(7), &design.name));
    }
}
