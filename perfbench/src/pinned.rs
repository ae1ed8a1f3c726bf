//! `pinned.json`: the inputs, rates and deployment settings a run must
//! use. The file is compiled in, so a checkout always runs the settings
//! it records.

use rtt_obs::json::Value;
use rtt_serve::{Limits, ServeConfig};

use crate::inputs::Fingerprint;

/// The pinned document.
pub struct Pinned {
    doc: Value,
}

/// Daemon shape for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Deployment {
    /// Daemon worker threads.
    pub workers: usize,
    /// Kernel threads (`rtt_nn::parallel::set_num_threads`).
    pub kernel_threads: usize,
    /// Per-request deadline.
    pub deadline_ms: u64,
}

impl Pinned {
    /// Parses the compiled-in `pinned.json`.
    pub fn load() -> Self {
        let doc = Value::parse(include_str!("../pinned.json")).expect("pinned.json is valid json");
        Pinned { doc }
    }

    fn at(&self, path: &[&str]) -> &Value {
        path.iter()
            .try_fold(&self.doc, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("pinned.json lacks {}", path.join(".")))
    }

    /// A number at `path`.
    pub fn num(&self, path: &[&str]) -> f64 {
        num(self.at(path))
            .unwrap_or_else(|| panic!("pinned.json: {} is not a number", path.join(".")))
    }

    /// A list of numbers at `path`.
    pub fn nums(&self, path: &[&str]) -> Vec<f64> {
        match self.at(path) {
            Value::Arr(items) => items.iter().filter_map(num).collect(),
            _ => panic!("pinned.json: {} is not a list", path.join(".")),
        }
    }

    /// The deployment settings of `workload`.
    pub fn deployment(&self, workload: &str) -> Deployment {
        Deployment {
            workers: self.num(&["deployment", workload, "workers"]) as usize,
            kernel_threads: self.num(&["deployment", workload, "kernel_threads"]) as usize,
            deadline_ms: self.num(&["deployment", workload, "deadline_ms"]) as u64,
        }
    }

    /// The daemon configuration of `workload`: `ServeConfig::default()`
    /// with the pinned workers, deadline, keep-alive and body limits.
    pub fn serve_config(&self, workload: &str) -> ServeConfig {
        let d = self.deployment(workload);
        let limit = |key: &str| self.num(&["deployment", "common", key]) as usize;
        ServeConfig {
            workers: d.workers,
            deadline_ms: d.deadline_ms,
            queue_capacity: limit("queue_capacity"),
            io_timeout_ms: limit("io_timeout_ms") as u64,
            keep_alive_requests: limit("keep_alive_requests") as u32,
            limits: Limits {
                max_head_bytes: limit("max_head_bytes"),
                max_body_bytes: limit("max_body_bytes"),
                max_headers: limit("max_headers"),
            },
            ..ServeConfig::default()
        }
    }

    /// The pinned fingerprint of input `name`.
    pub fn fingerprint(&self, name: &str) -> Fingerprint {
        let hex = |key: &str| match self.at(&["inputs", name, key]) {
            Value::Str(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .unwrap_or_else(|_| panic!("pinned.json: inputs.{name}.{key} is not hex")),
            _ => panic!("pinned.json: inputs.{name}.{key} is not a string"),
        };
        Fingerprint {
            pins: self.num(&["inputs", name, "pins"]) as usize,
            endpoints: self.num(&["inputs", name, "endpoints"]) as usize,
            max_level: self.num(&["inputs", name, "max_level"]) as u32,
            fnv_verilog: hex("fnv_verilog"),
            fnv_placement: hex("fnv_placement"),
        }
    }

    /// The pinned fingerprint of the reference-seed `opt_loop` script.
    pub fn script_fingerprint(&self) -> (u64, u64) {
        let seed = self.num(&["opt_script", "reference_seed"]) as u64;
        let fnv = match self.at(&["opt_script", "fnv"]) {
            Value::Str(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16)
                .expect("pinned.json: opt_script.fnv is hex"),
            _ => panic!("pinned.json: opt_script.fnv is not a string"),
        };
        (seed, fnv)
    }
}

/// A JSON number as f64.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(text) => text.parse().ok(),
        _ => None,
    }
}

/// Refuses inputs that differ from the pinned ones.
pub fn check_fingerprint(pinned: &Pinned, name: &str, got: Fingerprint) -> Result<(), String> {
    let want = pinned.fingerprint(name);
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "input {name} differs from pinned.json: pinned {want:?}, generated {got:?}. \
             A generator change needs a benchmark change with a new baseline."
        ))
    }
}

/// `"0x…"` form used for fingerprints in `pinned.json`.
pub fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}
