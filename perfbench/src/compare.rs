//! Compare mode: two ledgers of results (`--ledger` lines), base then
//! head, judged under the benchmark's own bounds.
//!
//! For each workload and end-to-end metric it prints each side's median
//! and quartiles and a verdict:
//!
//! * `better` — at least ten pairs, the head wins at least nine tenths of
//!   them (ties count for neither), and the medians differ by more than
//!   the base's own quartile spread;
//! * `worse` — the head's median is worse than the base's by more than the
//!   metric's bound;
//! * `unresolved` — neither shown. When the base's spread is wider than
//!   the bound, the metric is unresolved unless every head run beats (or
//!   loses to) every base run.
//!
//! Pairs are the n-th base run and the n-th head run of a workload, in
//! ledger order; whoever made the runs alternated which side went first.
//! Per-layer medians from the traced lines print beside the verdicts, so
//! a change can show where its saving appears.

use std::collections::BTreeMap;
use std::process::ExitCode;

use rtt_obs::json::Value;

use crate::pinned::num;
use crate::util::{median, quartiles};
use crate::BENCHMARK;

/// Result metrics of one ledger: workload → trace flag → runs, each a
/// metric → value map.
type Ledger = BTreeMap<String, BTreeMap<bool, Vec<BTreeMap<String, f64>>>>;

fn read_ledger(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut ledger = Ledger::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = Value::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let (Some(Value::Str(workload)), Some(trace), Some(Value::Obj(metrics))) = (
            v.get("workload"),
            v.get("trace").and_then(num),
            v.get("result").and_then(|r| r.get("metrics")),
        ) else {
            return Err(format!("{path}:{}: not a ledger line", i + 1));
        };
        let values = metrics
            .iter()
            .filter_map(|(k, m)| m.get("value").and_then(num).map(|x| (k.clone(), x)))
            .collect();
        ledger.entry(workload.clone()).or_default().entry(trace > 0.0).or_default().push(values);
    }
    Ok(ledger)
}

/// Name, whether lower is better, and bound of each end-to-end metric.
fn bounds() -> Vec<(String, bool, f64)> {
    let doc = Value::parse(BENCHMARK).expect("BENCHMARK.json is valid json");
    let Some(Value::Arr(items)) = doc.get("end_to_end") else { return Vec::new() };
    items
        .iter()
        .filter_map(|m| match (m.get("name"), m.get("better"), m.get("bound").and_then(num)) {
            (Some(Value::Str(n)), Some(Value::Str(b)), Some(bound)) => {
                Some((n.clone(), b == "lower", bound))
            }
            _ => None,
        })
        .collect()
}

/// The verdict for one metric; `lower` says which direction is better.
pub fn verdict(base: &[f64], head: &[f64], lower: bool, bound: f64) -> &'static str {
    let (Some(bm), Some(hm), Some((bq1, bq3))) = (median(base), median(head), quartiles(base))
    else {
        return "unresolved (no runs)";
    };
    let better = |h: f64, b: f64| if lower { h < b } else { h > b };
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    let all_worse = head.iter().all(|&h| base.iter().all(|&b| better(b, h)));
    let scale = bm.abs().max(f64::MIN_POSITIVE);
    if (bq3 - bq1) / scale > bound {
        return if all_better {
            "better (every run)"
        } else if all_worse {
            "worse (every run)"
        } else {
            "unresolved (spread > bound)"
        };
    }
    let worse_by = if lower { (hm - bm) / scale } else { (bm - hm) / scale };
    if worse_by > bound {
        return "worse";
    }
    let pairs = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|(&b, &h)| better(h, b)).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(hm, bm) && (hm - bm).abs() > bq3 - bq1 {
        "better"
    } else {
        "unresolved (within bound)"
    }
}

/// `perfbench compare <base.jsonl> <head.jsonl>`.
pub fn main(args: &[String]) -> ExitCode {
    let [base_path, head_path] = args else {
        eprintln!("usage: perfbench compare <base.jsonl> <head.jsonl>");
        return ExitCode::from(2);
    };
    let (base, head) = match (read_ledger(base_path), read_ledger(head_path)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let fmt = |v: &[f64]| match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{m:>10.4} [{q1:.4}, {q3:.4}]"),
        _ => format!("{:>10}", "-"),
    };
    let empty = Vec::new();
    for workload in base.keys() {
        let runs = |l: &Ledger, traced: bool| {
            l.get(workload).and_then(|w| w.get(&traced)).unwrap_or(&empty).clone()
        };
        let (b, h) = (runs(&base, false), runs(&head, false));
        println!("\n== {workload}: {} base / {} head runs", b.len(), h.len());
        println!(
            "{:<16} {:>34} {:>34}  verdict",
            "metric", "base median [q1, q3]", "head median [q1, q3]"
        );
        for (name, lower, bound) in bounds() {
            let pick = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(&name).copied()).collect()
            };
            let (bv, hv) = (pick(&b), pick(&h));
            println!(
                "{name:<16} {:>34} {:>34}  {}",
                fmt(&bv),
                fmt(&hv),
                verdict(&bv, &hv, lower, bound)
            );
        }
        let (bt, ht) = (runs(&base, true), runs(&head, true));
        if bt.is_empty() && ht.is_empty() {
            continue;
        }
        println!("per-layer medians (traced runs: {} base / {} head)", bt.len(), ht.len());
        let names: std::collections::BTreeSet<&String> =
            bt.iter().chain(&ht).flat_map(|r| r.keys()).collect();
        for name in names {
            let med = |runs: &[BTreeMap<String, f64>]| {
                median(&runs.iter().filter_map(|r| r.get(name).copied()).collect::<Vec<_>>())
            };
            let (bm, hm) = (med(&bt), med(&ht));
            if bm.unwrap_or(0.0) == 0.0 && hm.unwrap_or(0.0) == 0.0 {
                continue;
            }
            let delta = match (bm, hm) {
                (Some(b), Some(h)) if b != 0.0 => format!("{:+.1}%", 100.0 * (h - b) / b.abs()),
                _ => "-".to_owned(),
            };
            let show = |v: Option<f64>| v.map_or("-".to_owned(), |x| format!("{x:.4}"));
            println!("  {name:<36} {:>14} -> {:>14}  {delta}", show(bm), show(hm));
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pairs_and_bounds() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), "better");
        assert_eq!(verdict(&base, &slower, true, 0.1), "worse");
        assert_eq!(verdict(&base, &base, true, 0.1), "unresolved (within bound)");
        // Nine pairs are too few to claim a gain.
        assert_eq!(verdict(&base[..9], &faster[..9], true, 0.1), "unresolved (within bound)");
        // Higher-is-better metrics flip the direction.
        assert_eq!(verdict(&base, &faster, false, 0.1), "worse");
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 50.0 } else { 150.0 }).collect();
        assert_eq!(verdict(&noisy, &noisy, true, 0.1), "unresolved (spread > bound)");
    }
}
