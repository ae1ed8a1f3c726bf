//! Starting the daemon in-process and talking to it the way any client
//! does: over its HTTP routes.

use std::net::SocketAddr;
use std::time::Duration;

use rtt_core::{ModelConfig, TimingModel};
use rtt_obs::json::Value;
use rtt_serve::{ServeConfig, Server};

use crate::client::{Answer, Client};
use crate::inputs::DesignInput;
use crate::util::parse_predict;
use crate::workload::Outcome;

/// How long a client waits on one socket read or write before calling
/// the exchange failed.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The served model: the small configuration at its fixed initial
/// weights. Serving cost does not depend on the weights' values, and a
/// fixed initialization keeps every daemon, the reference included,
/// bit-identical.
pub fn model() -> TimingModel {
    TimingModel::new(ModelConfig::small())
}

/// Starts a daemon with no designs; workloads register theirs with
/// `/load`.
pub fn start(cfg: ServeConfig) -> Result<Server, String> {
    Server::start(cfg, model(), Vec::new()).map_err(|e| format!("daemon start: {e}"))
}

/// A client connected to `server`.
pub fn client(server: &Server) -> Client {
    client_at(server.addr())
}

/// A client for an address (for the load generator's threads).
pub fn client_at(addr: SocketAddr) -> Client {
    Client::new(addr, CLIENT_TIMEOUT)
}

/// `POST /load?name=…` of one design; checks the endpoint count.
pub fn load(client: &mut Client, design: &DesignInput) -> Result<(), String> {
    let body = design.load_body();
    let answer = client.request(
        "POST",
        &format!("/load?name={}", design.name),
        &[("X-Netlist-Bytes", design.verilog.len().to_string())],
        &body,
    )?;
    let want = format!("endpoints={}\n", design.endpoints);
    if answer.status == 200 && answer.body == want.as_bytes() {
        Ok(())
    } else {
        Err(format!("/load {} answered {}: {}", design.name, answer.status, lossy(&answer)))
    }
}

/// `POST /predict` with `body`; the answer's values.
pub fn predict(client: &mut Client, body: &str) -> Result<Vec<f32>, String> {
    let answer = client.request("POST", "/predict", &[], body.as_bytes())?;
    check_predict(&answer)
}

/// The values of a `/predict` answer, or why it failed.
pub fn check_predict(answer: &Answer) -> Result<Vec<f32>, String> {
    if answer.status != 200 {
        return Err(format!("/predict answered {}: {}", answer.status, lossy(answer)));
    }
    parse_predict(&answer.body)
}

/// `GET /stats` on a connection of its own, parsed. A worker serves one
/// connection at a time, so callers hold no other idle connection to the
/// daemon while they ask.
pub fn stats(server: &Server) -> Result<Value, String> {
    let answer = client(server).request("GET", "/stats", &[], b"")?;
    if answer.status != 200 {
        return Err(format!("/stats answered {}", answer.status));
    }
    Value::parse(&String::from_utf8_lossy(&answer.body)).map_err(|e| format!("/stats: {e}"))
}

/// Every value of `design` as a cold daemon answers it: a fresh daemon
/// with the same configuration, one `/load`, one `/predict` of all
/// endpoints.
pub fn reference_values(cfg: ServeConfig, design: &DesignInput) -> Result<Vec<f32>, String> {
    let server = start(cfg)?;
    let mut c = client(&server);
    load(&mut c, design)?;
    predict(&mut c, &format!("design={}\n", design.name))
}

/// Number of values whose bits differ (a length mismatch counts every
/// missing or extra value).
pub fn mismatched_bits(got: &[f32], want: &[f32]) -> usize {
    let differing = got.iter().zip(want).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
    differing + got.len().abs_diff(want.len())
}

/// A number member of a `/stats` document (0 when absent or null).
pub fn stat_f64(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(crate::pinned::num).unwrap_or(0.0)
}

/// Books the `/stats` counter deltas of a traced phase, and the largest
/// worker arena.
pub fn record_stat_deltas(out: &mut Outcome, before: &Value, after: &Value) {
    for (key, metric) in [
        ("queue_rejections", "serve.queue_rejections"),
        ("deadline_drops", "serve.deadline_drops"),
        ("io_errors", "serve.io_errors"),
        ("worker_panics", "serve.worker_panics"),
    ] {
        out.layers.insert(metric, stat_f64(after, key) - stat_f64(before, key));
    }
    let arena = match after.get("arena_bytes") {
        Some(Value::Arr(items)) => items.iter().filter_map(crate::pinned::num).fold(0.0, f64::max),
        _ => 0.0,
    };
    out.layers.insert("serve.arena_bytes", arena);
}

fn lossy(answer: &Answer) -> String {
    String::from_utf8_lossy(&answer.body).trim().chars().take(200).collect()
}
