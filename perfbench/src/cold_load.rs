//! `cold_load`: a client registers a large design and asks for its first
//! prediction, over and over, on one connection.
//!
//! It isolates parsing, graph build and cold preparation — endpoint
//! masks are most of the latter at this size — which no other workload
//! repeats inside its measured time.

use std::time::Instant;

use rtt_circgen::Scale;
use rtt_netlist::TimingGraph;

use crate::daemon::{self, mismatched_bits};
use crate::inputs::DesignInput;
use crate::trace::program_span_ms;
use crate::util::{median, peak_rss_mb, r2, tail_or_upper};
use crate::workload::{generate_checked, ms, record_setup, repeated_setup, Ctx, Outcome};

const WORKLOAD: &str = "cold_load";

/// One `/load` + first `/predict`.
struct Load {
    ttfp_ms: f64,
    first_predict_ms: f64,
    values: Result<Vec<f32>, String>,
}

fn one_load(
    ctx: &Ctx,
    client: &mut crate::client::Client,
    design: &DesignInput,
    traced: bool,
) -> Load {
    let quiet = crate::trace::Tracer::new(false);
    let tracer = if traced { &ctx.tracer } else { &quiet };
    let t = Instant::now();
    tracer.span("op", None, |id| {
        let loaded = tracer.span("http /load", id, |_| daemon::load(client, design));
        let t_predict = Instant::now();
        let values = loaded.and_then(|()| {
            tracer.span("http /predict", id, |_| {
                daemon::predict(client, &format!("design={}\n", design.name))
            })
        });
        Load { ttfp_ms: ms(t), first_predict_ms: ms(t_predict), values }
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let deployment = ctx.pinned.deployment(WORKLOAD);
    rtt_nn::parallel::set_num_threads(deployment.kernel_threads);
    let cfg = ctx.pinned.serve_config(WORKLOAD);
    let ((server, design), times, setup_s) = repeated_setup(|times| {
        let design = generate_checked(ctx, "jpeg", Scale::Huge, times)?;
        let t = Instant::now();
        let server = daemon::start(cfg.clone())?;
        // The daemon answers its first request once its workers are up.
        daemon::stats(&server)?;
        times.load_s = t.elapsed().as_secs_f64();
        Ok((server, design))
    })?;
    let mut out = Outcome::default();
    record_setup(&mut out, times, setup_s);

    let before = if ctx.tracer.on() { Some(daemon::stats(&server)?) } else { None };
    let mut client = daemon::client(&server);
    let mut loads: Vec<(Load, bool)> = Vec::new();
    let t_run = Instant::now();
    // At least one load of each kind even when it outlasts the budget;
    // the traced run alternates traced and untraced loads.
    let min_loads = if ctx.tracer.on() { 2 } else { 1 };
    while loads.len() < min_loads || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.tracer.on() && loads.len().is_multiple_of(2);
        rtt_obs::set_enabled(traced);
        let load = one_load(ctx, &mut client, &design, traced);
        rtt_obs::set_enabled(false);
        loads.push((load, traced));
    }
    let elapsed = t_run.elapsed().as_secs_f64();
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    drop(client);

    let ttfp = |traced: bool| -> Vec<f64> {
        loads.iter().filter(|(_, t)| *t == traced).map(|(l, _)| l.ttfp_ms).collect()
    };
    if ctx.tracer.on() {
        let after = daemon::stats(&server)?;
        let before = before.expect("taken when tracing");
        let traced_n = loads.iter().filter(|(_, t)| *t).count().max(1) as f64;
        let snap = rtt_obs::snapshot();
        let per_load =
            |leaf: &str, under: Option<&str>| program_span_ms(&snap, leaf, under).0 / traced_n;
        let p50 = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
        out.layers.insert("obs.overhead_ratio", p50(ttfp(true)) / p50(ttfp(false)));
        out.layers.insert("core.prepare_ms", per_load("core::prepare", None));
        out.layers.insert(
            "features.endpoint_masks_ms",
            per_load("features::endpoint_masks", Some("core::prepare")),
        );
        out.layers.insert(
            "features.node_features_ms",
            per_load("features::node_features", Some("core::prepare")),
        );
        out.layers.insert(
            "features.layout_maps_ms",
            per_load("features::layout_maps", Some("core::prepare")),
        );
        let first: Vec<f64> =
            loads.iter().filter(|(_, t)| *t).map(|(l, _)| l.first_predict_ms).collect();
        out.layers.insert("core.first_predict_ms", p50(first));
        out.layers.insert("serve.handler_p50_ms", daemon::stat_f64(&after, "latency_p50_ms"));
        daemon::record_stat_deltas(&mut out, &before, &after);
        direct_layer_calls(ctx, &mut out, &design);
        let ttfp_ms = p50(ttfp(true));
        let masks = out.layers["features.endpoint_masks_ms"];
        eprintln!(
            "cold_load traced: ttfp {ttfp_ms:.0} ms = prepare {:.0} (masks {masks:.0}, node features {:.0}, layout maps {:.0}) \
             + parse {:.0} + placement {:.0} + graph {:.0} + first predict {:.0} ms; masks are {:.0}% of ttfp",
            out.layers["core.prepare_ms"],
            out.layers["features.node_features_ms"],
            out.layers["features.layout_maps_ms"],
            out.layers["netlist.parse_verilog_ms"],
            out.layers["place.parse_placement_ms"],
            out.layers["netlist.graph_build_ms"],
            out.layers["core.first_predict_ms"],
            100.0 * masks / ttfp_ms,
        );
        out.trace_extra.push(("stats_before", before.to_string()));
        out.trace_extra.push(("stats_after", after.to_string()));
        out.trace_extra.push(("program", snap.to_json()));
    } else {
        let all = ttfp(false);
        out.e2e.insert("p50_ms", median(&all).unwrap_or(0.0));
        out.e2e.insert("tail_ms", tail_or_upper(&all).unwrap_or(0.0));
        out.e2e.insert("rate_per_s", loads.len() as f64 / elapsed);
        eprintln!(
            "cold_load: {} loads in {elapsed:.2} s; time to first prediction {all:.0?} ms",
            loads.len()
        );
    }
    drop(server);

    // Every first prediction against a cold reference daemon.
    let want = daemon::reference_values(cfg, &design)?;
    let (mut got_all, mut want_all) = (Vec::new(), Vec::new());
    for (load, _) in &loads {
        let result = load.values.clone().and_then(|got| {
            if got.len() == want.len() {
                got_all.extend(&got);
                want_all.extend(&want);
            }
            match mismatched_bits(&got, &want) {
                0 => Ok(()),
                bad => Err(format!("{bad} first-prediction values differ from the cold reference")),
            }
        });
        out.count(&result);
    }
    out.e2e.insert("output_r2", r2(&got_all, &want_all));
    Ok(out)
}

/// Parsing and graph build timed in-process on the same bytes the daemon
/// receives, median of three.
fn direct_layer_calls(ctx: &Ctx, out: &mut Outcome, design: &DesignInput) {
    let (mut parse, mut place, mut graph) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let nl = ctx.tracer.span("netlist::parse_verilog", None, |_| {
            rtt_netlist::parse_verilog(&design.verilog, &ctx.lib).expect("generated verilog parses")
        });
        parse.push(ms(t));
        let t = Instant::now();
        let pl = ctx.tracer.span("place::parse_placement", None, |_| {
            rtt_place::parse_placement(&nl, &design.placement).expect("generated placement parses")
        });
        place.push(ms(t));
        let t = Instant::now();
        let g = ctx
            .tracer
            .span("netlist::graph_build", None, |_| TimingGraph::try_build(&nl, &ctx.lib));
        graph.push(ms(t));
        std::hint::black_box((g.is_ok(), pl));
    }
    out.layers.insert("netlist.parse_verilog_ms", median(&parse).unwrap_or(0.0));
    out.layers.insert("place.parse_placement_ms", median(&place).unwrap_or(0.0));
    out.layers.insert("netlist.graph_build_ms", median(&graph).unwrap_or(0.0));
}
