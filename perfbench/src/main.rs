//! perfbench — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--ledger FILE]
//! perfbench compare <base.jsonl> <head.jsonl>
//! perfbench fingerprints
//! ```
//!
//! A run generates its inputs from presets and the seed, starts the
//! `rtt-serve` daemon in-process and drives it over HTTP (or trains
//! in-process), checks every output against a cold reference, and
//! prints one JSON result as the last line of stdout: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. The metric
//! names, units and bounds come from `BENCHMARK.json`; the inputs,
//! rates and deployment settings from `pinned.json`. See README.md.

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout)] // the result line goes to stdout by design

mod client;
mod cold_load;
mod compare;
mod daemon;
mod inputs;
mod opt_loop;
mod pinned;
mod serve_read;
mod trace;
mod train;
mod util;
mod workload;

use std::io::Write;
use std::process::ExitCode;

use rtt_circgen::Scale;
use rtt_obs::json::Value;

use crate::pinned::{hex, Pinned};
use crate::trace::Tracer;
use crate::workload::{Ctx, Outcome};

/// The benchmark's description: workloads, metrics, units and bounds.
pub const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each metric listed under `section` of BENCHMARK.json.
pub fn metric_list(section: &str) -> Vec<(String, String)> {
    let doc = Value::parse(BENCHMARK).expect("BENCHMARK.json is valid json");
    let Some(Value::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json lacks {section}");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("BENCHMARK.json: a {section} entry lacks name or unit"),
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ledger: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut ledger) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            "--ledger" => ledger = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        ledger,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("fingerprints") => fingerprints(),
        _ => match parse_args(&args) {
            Ok(a) => run(a),
            Err(e) => {
                eprintln!("perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
                ExitCode::from(2)
            }
        },
    }
}

fn run(args: Args) -> ExitCode {
    // End-to-end numbers are measured with the program's own tracing off.
    rtt_obs::set_enabled(false);
    rtt_obs::reset();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        pinned: Pinned::load(),
        lib: rtt_netlist::CellLibrary::asap7_like(),
    };
    let outcome = match args.workload.as_str() {
        "serve_read" => serve_read::run(&ctx),
        "opt_loop" => opt_loop::run(&ctx),
        "cold_load" => cold_load::run(&ctx),
        "train" => train::run(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match result_line(&out, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    if args.trace {
        let path = format!(".perfbench/trace-{}-seed{}.json", args.workload, args.seed);
        match ctx.tracer.write(std::path::Path::new(&path), &out.trace_extra) {
            Ok(()) => eprintln!("perfbench: trace written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    if let Some(ledger) = &args.ledger {
        let entry = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{line}}}\n",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(ledger)
            .and_then(|mut f| f.write_all(entry.as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: could not append to {ledger}: {e}");
        }
    }
    println!("{line}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {} of {} operations failed", out.failed, out.attempted);
        ExitCode::FAILURE
    }
}

/// The result object: every end-to-end metric (untraced) or every
/// per-layer metric (traced), by name and unit. Per-layer metrics of a
/// layer the workload does not exercise read 0.
fn result_line(out: &Outcome, traced: bool) -> Result<String, String> {
    let (section, values) =
        if traced { ("per_layer", &out.layers) } else { ("end_to_end", &out.e2e) };
    let list = metric_list(section);
    if let Some(stray) = values.keys().find(|k| !list.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {stray} is not listed under {section} in BENCHMARK.json"));
    }
    let mut metrics = Vec::new();
    for (name, unit) in &list {
        let value = match values.get(name.as_str()) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

/// Prints the `inputs` and `opt_script` members of `pinned.json` as the
/// current generators produce them.
fn fingerprints() -> ExitCode {
    let lib = rtt_netlist::CellLibrary::asap7_like();
    let mut designs: Vec<inputs::DesignInput> =
        [("jpeg", Scale::Small), ("hwacha", Scale::Small), ("jpeg", Scale::Huge)]
            .iter()
            .map(|&(p, s)| inputs::generate(p, s, &lib).0)
            .collect();
    let (ref_seed, _) = Pinned::load().script_fingerprint();
    let (mut nl, mut pl) = opt_loop::parse(&designs[0], &lib);
    let sites = opt_loop::critical_sites(&nl, &pl, &lib);
    let ops = opt_loop::script(ref_seed, opt_loop::SCRIPT_LEN, &sites, &mut nl, &mut pl, &lib)
        .expect("reference script generates");
    let script_fnv = opt_loop::script_fnv(&ops, &designs[0].name);
    let data = train::dataset();
    designs.extend(data.designs.iter().map(|d| train::input_of(d, &data.library)));
    let entries: Vec<String> = designs
        .iter()
        .map(|d| {
            let f = d.fingerprint();
            format!(
                "    \"{}\": {{\"pins\": {}, \"endpoints\": {}, \"max_level\": {}, \"fnv_verilog\": \"{}\", \"fnv_placement\": \"{}\"}}",
                d.name,
                f.pins,
                f.endpoints,
                f.max_level,
                hex(f.fnv_verilog),
                hex(f.fnv_placement)
            )
        })
        .collect();
    println!("  \"inputs\": {{\n{}\n  }},", entries.join(",\n"));
    println!(
        "  \"opt_script\": {{\"reference_seed\": {ref_seed}, \"ops\": {}, \"fnv\": \"{}\"}}",
        ops.len(),
        hex(script_fnv)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::metric_list;

    #[test]
    fn benchmark_json_names_each_metric_once() {
        let mut names: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|s| metric_list(s))
            .map(|(name, _)| name)
            .collect();
        let listed = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), listed, "a metric name is listed twice");
        assert!(metric_list("end_to_end").iter().any(|(n, u)| n == "setup_s" && u == "s"));
    }
}
