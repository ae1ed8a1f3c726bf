//! The traced run's recorder: the benchmark's own spans around each HTTP
//! route call and direct layer call, plus read-only views of the spans
//! and counters the program records through `rtt_obs`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rtt_obs::Snapshot;

/// One closed span of the benchmark's own.
struct Event {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_us: f64,
    dur_us: f64,
}

/// Spans kept in memory and written out when the run ends. Disabled
/// recorders only run the closures.
pub struct Tracer {
    on: bool,
    t0: Instant,
    events: Mutex<Vec<Event>>,
    next_id: AtomicU32,
}

impl Tracer {
    /// A recorder; `on` is the run's `--trace`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            events: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside span `name` (child of `parent`); `f` receives the
    /// span's id so it can parent further spans.
    pub fn span<R>(&self, name: &str, parent: Option<u32>, f: impl FnOnce(Option<u32>) -> R) -> R {
        if !self.on {
            return f(None);
        }
        // Relaxed: the id only has to be unique; it publishes nothing.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let event = Event {
            id,
            parent,
            name: name.to_owned(),
            start_us: (start - self.t0).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
        };
        self.events.lock().expect("tracer event lock").push(event);
        out
    }

    /// Writes the span log, a per-name summary with self times, and any
    /// extra JSON members to `path`.
    pub fn write(&self, path: &std::path::Path, extra: &[(&str, String)]) -> std::io::Result<()> {
        let events = self.events.lock().expect("tracer event lock");
        // Self time: a span's duration minus the time its children cover
        // (children of one span never overlap: each span's work is serial).
        let mut child_us: BTreeMap<u32, f64> = BTreeMap::new();
        for e in events.iter() {
            if let Some(p) = e.parent {
                *child_us.entry(p).or_default() += e.dur_us;
            }
        }
        let mut summary: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for e in events.iter() {
            let s = summary.entry(&e.name).or_default();
            s.0 += 1;
            s.1 += e.dur_us;
            s.2 += e.dur_us - child_us.get(&e.id).copied().unwrap_or(0.0);
        }
        let mut out = String::from("{\"bench_span_summary\":{");
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{count},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                total / 1e3,
                own / 1e3
            ));
        }
        out.push_str("},\"bench_spans\":[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = e.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                e.id, e.name, e.start_us, e.dur_us
            ));
        }
        out.push(']');
        for (key, json) in extra {
            out.push_str(&format!(",\"{key}\":{json}"));
        }
        out.push_str("}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Total ms and call count of every program span whose last path
/// component starts with `leaf`, optionally only under paths containing
/// `under`.
pub fn program_span_ms(snap: &Snapshot, leaf: &str, under: Option<&str>) -> (f64, u64) {
    snap.spans
        .iter()
        .filter(|(path, _)| {
            path.rsplit('/').next().is_some_and(|l| l.starts_with(leaf))
                && under.is_none_or(|u| path.contains(u))
        })
        .fold((0.0, 0), |(ms, n), (_, s)| (ms + s.total_ns as f64 / 1e6, n + s.count))
}

/// A program counter's value (0 when never bumped).
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
