//! `serve_read`: open-loop `/predict` traffic on two registered designs.
//!
//! No design changes, so every request re-runs the endpoint-independent
//! GNN+CNN trunk: this is where a trunk cache or faster inference kernels
//! show, and where mask or preparation work should not.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use rtt_circgen::Scale;
use rtt_core::{PreparedDesign, TimingModel};
use rtt_netlist::TimingGraph;
use rtt_nn::InferCtx;

use crate::client::{Answer, Client};
use crate::daemon::{self, mismatched_bits};
use crate::inputs::DesignInput;
use crate::trace::Tracer;
use crate::util::{
    backlog_growing, max_passing_rate, median, peak_rss_mb, poisson_schedule, r2, tail,
    tail_or_upper, Rng,
};
use crate::workload::{generate_checked, ms, record_setup, repeated_setup, Ctx, Outcome};

const WORKLOAD: &str = "serve_read";
/// The two registered designs; each request picks one by seed.
const PRESETS: [&str; 2] = ["jpeg", "hwacha"];
/// Keep-alive connections: one per core of a two-core machine.
const CONNECTIONS: usize = 2;
/// Alternations of the open-loop and closed-loop phases in one run.
const ROUNDS: usize = 5;

/// One scheduled request.
struct Req {
    due_s: f64,
    conn: usize,
    design: usize,
    /// `None` asks for every endpoint.
    indices: Option<Vec<u32>>,
    body: String,
}

/// One answered (or failed) request, times in seconds from phase start.
struct Done {
    /// Index of the request in its phase's schedule.
    req: usize,
    due_s: f64,
    send_s: f64,
    done_s: f64,
    /// How late the generator sent it, beyond waiting for the connection.
    lag_ms: f64,
    answer: Result<Answer, String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
    fn wait_ms(&self) -> f64 {
        (self.send_s - self.due_s) * 1e3
    }
    fn service_ms(&self) -> f64 {
        (self.done_s - self.send_s) * 1e3
    }
}

/// The seeded request mix: a design at random, then 80% one endpoint,
/// 15% sixteen endpoints, 5% all endpoints; no `mode=` line.
fn traffic(rng: &mut Rng, rate: f64, duration_s: f64, designs: &[DesignInput]) -> Vec<Req> {
    let due = poisson_schedule(rng, rate, duration_s);
    due.into_iter()
        .enumerate()
        .map(|(i, due_s)| {
            let design = rng.below(designs.len());
            let n = designs[design].endpoints;
            let u = rng.unit();
            let count = if u < 0.80 {
                Some(1)
            } else if u < 0.95 {
                Some(16)
            } else {
                None
            };
            let indices = count.map(|k| {
                let mut picked: Vec<u32> = Vec::with_capacity(k);
                while picked.len() < k.min(n) {
                    let i = rng.below(n) as u32;
                    if !picked.contains(&i) {
                        picked.push(i);
                    }
                }
                picked
            });
            let mut body = format!("design={}\n", designs[design].name);
            if let Some(idx) = &indices {
                let list: Vec<String> = idx.iter().map(u32::to_string).collect();
                body.push_str(&format!("indices={}\n", list.join(",")));
            }
            Req { due_s, conn: i % CONNECTIONS, design, indices, body }
        })
        .collect()
}

/// Sends `reqs` on their connections when due (or as soon as the
/// connection is free) and waits for every answer. With `closed_s`, due
/// times are ignored: each connection sends its next request as soon as
/// the previous answer arrives, until `closed_s` seconds have passed.
/// Connections open and close with the phase: an idle keep-alive
/// connection would hold a worker until its deadline.
fn run_phase(addr: SocketAddr, reqs: &[Req], tracer: &Tracer, closed_s: Option<f64>) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut done: Vec<Done> = thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = daemon::client_at(addr);
                    let mut out = Vec::new();
                    let mut free_s = 0.0f64;
                    for (i, r) in reqs.iter().enumerate().filter(|(_, r)| r.conn == c) {
                        let due_s = match closed_s {
                            Some(limit) if free_s >= limit => break,
                            Some(_) => free_s,
                            None => r.due_s,
                        };
                        let due = start + Duration::from_secs_f64(due_s);
                        let now = Instant::now();
                        if now < due {
                            thread::sleep(due - now);
                        }
                        let send_s = (Instant::now() - start).as_secs_f64();
                        let answer = tracer.span("http /predict", None, |_| {
                            client.request("POST", "/predict", &[], r.body.as_bytes())
                        });
                        let done_s = (Instant::now() - start).as_secs_f64();
                        let lag_ms = (send_s - due_s.max(free_s)).max(0.0) * 1e3;
                        free_s = done_s;
                        out.push(Done { req: i, due_s, send_s, done_s, lag_ms, answer });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    done.sort_by_key(|d| d.req);
    done
}

/// Every connection asks for every endpoint of every design, largest
/// design first, so each worker's arena reaches its largest size before
/// anything is timed and later requests reuse its buffers.
fn warmup(designs: &[DesignInput]) -> Vec<Req> {
    let mut order: Vec<usize> = (0..designs.len()).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(designs[d].endpoints));
    (0..CONNECTIONS)
        .flat_map(|conn| {
            order.iter().map(move |&design| Req {
                due_s: 0.0,
                conn,
                design,
                indices: None,
                body: format!("design={}\n", designs[design].name),
            })
        })
        .collect()
}

/// Checks every answer against the cold reference's values, books the
/// operations, and collects the answered values beside their references.
fn verify(
    out: &mut Outcome,
    reqs: &[Req],
    done: &[Done],
    refs: &[Vec<f32>],
    got_all: &mut Vec<f32>,
    want_all: &mut Vec<f32>,
) {
    for d in done {
        let r = &reqs[d.req];
        let want: Vec<f32> = match &r.indices {
            Some(idx) => idx.iter().map(|&i| refs[r.design][i as usize]).collect(),
            None => refs[r.design].clone(),
        };
        let result =
            d.answer.as_ref().map_err(Clone::clone).and_then(daemon::check_predict).and_then(
                |got| {
                    let bad = mismatched_bits(&got, &want);
                    if got.len() == want.len() {
                        got_all.extend(&got);
                        want_all.extend(&want);
                    }
                    match bad {
                        0 => Ok(()),
                        _ => Err(format!("{bad} predicted values differ from the cold reference")),
                    }
                },
            );
        out.count(&result);
    }
}

/// Whether a ladder rung holds the latency limit: no failures, a tail
/// within `slo_ms`, and no growing backlog.
fn rung_passes(done: &[Done], slo_ms: f64) -> bool {
    let ok = done.iter().all(|d| d.answer.as_ref().is_ok_and(|a| a.status == 200));
    let lat: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    let waits: Vec<f64> = done.iter().map(Done::wait_ms).collect();
    ok && tail_or_upper(&lat).is_some_and(|t| t <= slo_ms) && !backlog_growing(&waits)
}

fn latencies(done: &[Done]) -> Vec<f64> {
    done.iter().map(Done::latency_ms).collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let deployment = ctx.pinned.deployment(WORKLOAD);
    rtt_nn::parallel::set_num_threads(deployment.kernel_threads);
    let cfg = ctx.pinned.serve_config(WORKLOAD);
    let ((server, designs), times, setup_s) = repeated_setup(|times| {
        let designs: Vec<DesignInput> = PRESETS
            .iter()
            .map(|p| generate_checked(ctx, p, Scale::Small, times))
            .collect::<Result<_, _>>()?;
        let t = Instant::now();
        let server = daemon::start(cfg.clone())?;
        let mut c = daemon::client(&server);
        for d in &designs {
            daemon::load(&mut c, d)?;
        }
        times.load_s = t.elapsed().as_secs_f64();
        Ok((server, designs))
    })?;
    let mut out = Outcome::default();
    record_setup(&mut out, times, setup_s);

    let addr = server.addr();
    let rate_lo = ctx.pinned.num(&[WORKLOAD, "rate_lo"]);
    let rng = |name: &str| Rng::new(ctx.seed, &format!("{WORKLOAD}/{name}"));
    let quiet = Tracer::new(false);
    let open = |name: &str, rate: f64, secs: f64, tracer: &Tracer| {
        let reqs = traffic(&mut rng(name), rate, secs, &designs);
        let done = run_phase(addr, &reqs, tracer, None);
        (reqs, done)
    };
    let mut phases: Vec<(Vec<Req>, Vec<Done>)> = Vec::new();
    let reqs = warmup(&designs);
    let done = run_phase(addr, &reqs, &quiet, None);
    phases.push((reqs, done));

    if ctx.tracer.on() {
        let before = daemon::stats(&server)?;
        rtt_obs::reset();
        rtt_obs::set_enabled(true);
        let traced = open("traced", rate_lo, 0.3 * ctx.seconds, &ctx.tracer);
        rtt_obs::set_enabled(false);
        let after = daemon::stats(&server)?;
        let untraced = open("untraced", rate_lo, 0.3 * ctx.seconds, &quiet);
        let p50 = |done: &[Done]| median(&latencies(done)).unwrap_or(f64::NAN);
        out.layers.insert("obs.overhead_ratio", p50(&traced.1) / p50(&untraced.1));
        let lag: Vec<f64> = untraced.1.iter().map(|d| d.lag_ms).collect();
        out.layers.insert("serve.gen_lag_p99_ms", tail_or_upper(&lag).unwrap_or(0.0));
        let open_tail = tail_or_upper(&latencies(&untraced.1)).unwrap_or(0.0);
        out.layers.insert("serve.read_tail_open_ms", open_tail);
        let service: Vec<f64> = traced.1.iter().map(Done::service_ms).collect();
        let handler = daemon::stat_f64(&after, "latency_p50_ms");
        out.layers.insert("serve.handler_p50_ms", handler);
        out.layers.insert("serve.overhead_p50_ms", median(&service).unwrap_or(0.0) - handler);
        daemon::record_stat_deltas(&mut out, &before, &after);
        let wires: Vec<Vec<u8>> =
            traced.0.iter().map(|r| Client::wire("POST", "/predict", r.body.as_bytes())).collect();
        out.layers.insert("serve.parse_us", parse_us(&wires, &cfg.limits, &ctx.tracer));
        let (one, all) = in_process_predict(ctx, &designs[0]);
        out.layers.insert("core.predict_one_ms", one);
        out.layers.insert("core.predict_all_ms", all);
        out.trace_extra.push(("stats_before", before.to_string()));
        out.trace_extra.push(("stats_after", after.to_string()));
        out.trace_extra.push(("program", rtt_obs::snapshot().to_json()));
        phases.push(traced);
        phases.push(untraced);

        // The highest ladder rate that holds the latency limit.
        let ladder = ctx.pinned.nums(&[WORKLOAD, "ladder"]);
        let slo_ms = ctx.pinned.num(&[WORKLOAD, "slo_ms"]);
        let rung_s = 0.4 * ctx.seconds / ((ladder.len() as f64).log2().ceil() + 1.0);
        let mut probed = Vec::new();
        let best = max_passing_rate(&ladder, |rate| {
            let rung = open(&format!("rung{rate}"), rate, rung_s, &quiet);
            let pass = rung_passes(&rung.1, slo_ms);
            probed.push(format!(
                "{rate}/s {} {}",
                describe_tail(&latencies(&rung.1)),
                if pass { "pass" } else { "fail" }
            ));
            phases.push(rung);
            pass
        });
        out.layers.insert("serve.slo_rate_per_s", best.unwrap_or(0.0));
        eprintln!("serve_read ladder: {} -> {best:?}", probed.join("; "));
    } else {
        // Open-loop and closed-loop slices alternate through the run, so
        // both see the same mix of the machine's fast and slow moments.
        let open_s = 0.7 * ctx.seconds / ROUNDS as f64;
        let closed_s = 0.3 * ctx.seconds / ROUNDS as f64;
        let (mut open_lat, mut closed_lat, mut lag) = (Vec::new(), Vec::new(), Vec::new());
        let (mut closed_elapsed, mut backlog) = (0.0, false);
        for round in 0..ROUNDS {
            let lo = open(&format!("lo{round}"), rate_lo, open_s, &quiet);
            let reqs = traffic(&mut rng(&format!("closed{round}")), 1000.0, closed_s, &designs);
            let done = run_phase(addr, &reqs, &quiet, Some(closed_s));
            open_lat.extend(latencies(&lo.1));
            closed_lat.extend(latencies(&done));
            closed_elapsed += done.iter().map(|d| d.done_s).fold(0.0, f64::max);
            lag.extend(lo.1.iter().map(|d| d.lag_ms));
            backlog |= backlog_growing(&lo.1.iter().map(Done::wait_ms).collect::<Vec<_>>());
            phases.push(lo);
            phases.push((reqs, done));
        }
        // The open-loop tail swings with the machine's slowest moments (it
        // spread 22-110% over seeds), so the reported tail is the one a
        // client keeping both connections busy sees.
        out.e2e.insert("p50_ms", median(&open_lat).unwrap_or(0.0));
        out.e2e.insert("tail_ms", tail_or_upper(&closed_lat).unwrap_or(0.0));
        out.e2e.insert("rate_per_s", closed_lat.len() as f64 / closed_elapsed);
        let lag_tail = tail_or_upper(&lag).unwrap_or(0.0);
        eprintln!(
            "serve_read: {rate_lo}/s open loop n={} p50 {:.2} ms tail {}{}; closed loop n={} \
             p50 {:.2} ms tail {}; generator lag tail {lag_tail:.2} ms",
            open_lat.len(),
            median(&open_lat).unwrap_or(0.0),
            describe_tail(&open_lat),
            if backlog { " (backlog growing)" } else { "" },
            closed_lat.len(),
            median(&closed_lat).unwrap_or(0.0),
            describe_tail(&closed_lat),
        );
        if lag_tail > 5.0 {
            eprintln!(
                "serve_read: WARNING generator ran {lag_tail:.1} ms late; latencies are suspect"
            );
        }
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    drop(server);

    // Every answer, every phase, against a cold daemon's values.
    let refs: Vec<Vec<f32>> = designs
        .iter()
        .map(|d| daemon::reference_values(cfg.clone(), d))
        .collect::<Result<_, _>>()?;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for (reqs, done) in &phases {
        verify(&mut out, reqs, done, &refs, &mut got, &mut want);
    }
    out.e2e.insert("output_r2", r2(&got, &want));
    Ok(out)
}

fn describe_tail(samples: &[f64]) -> String {
    tail(samples).map_or("n/a".to_owned(), |t| format!("p{:.1} {:.2} ms", t.pct, t.value))
}

/// Median µs per `parse_request` over the recorded request bytes.
fn parse_us(wires: &[Vec<u8>], limits: &rtt_serve::Limits, tracer: &Tracer) -> f64 {
    let passes: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            tracer.span("serve::parse_request", None, |_| {
                for w in wires {
                    std::hint::black_box(rtt_serve::parse_request(std::hint::black_box(w), limits))
                        .expect("recorded requests parse");
                }
            });
            ms(t) * 1e3 / wires.len().max(1) as f64
        })
        .collect();
    median(&passes).unwrap_or(0.0)
}

/// `predict_batch` timed in-process on one design, as the daemon runs
/// it: median ms for one endpoint and for all endpoints.
fn in_process_predict(ctx: &Ctx, design: &DesignInput) -> (f64, f64) {
    let nl =
        rtt_netlist::parse_verilog(&design.verilog, &ctx.lib).expect("generated verilog parses");
    let pl =
        rtt_place::parse_placement(&nl, &design.placement).expect("generated placement parses");
    let graph = TimingGraph::build(&nl, &ctx.lib);
    let model: TimingModel = daemon::model();
    let targets = vec![0.0; graph.endpoints().len()];
    let prep = PreparedDesign::prepare(&nl, &ctx.lib, &pl, &graph, model.config(), targets);
    let infer = InferCtx::new();
    let all: Vec<u32> = (0..prep.num_endpoints() as u32).collect();
    let time = |indices: &[u32], reps: usize| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                ctx.tracer.span("core::predict_batch", None, |_| {
                    std::hint::black_box(model.predict_batch(&infer, &prep, indices))
                });
                ms(t)
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    };
    time(&all, 2); // grow the arena first
    (time(&[0], 30), time(&all, 15))
}
