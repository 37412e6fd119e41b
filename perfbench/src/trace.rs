//! The benchmark's own spans. Each span wraps one call the benchmark
//! makes into a layer's public entry point; nothing inside the program
//! is instrumented. Spans stay in memory and are written out as JSON
//! lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// The operation all spans of one request share.
    pub op: u64,
    /// The layer's module name.
    pub layer: &'static str,
    /// The entry point called.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh operation id.
pub fn new_op() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// A per-thread span buffer; disabled buffers record nothing.
pub struct Spans {
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        origin();
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (`0` when disabled).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let base = origin();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(base).as_nanos() as u64,
        });
        id
    }
}

/// Writes spans as JSON lines, one object per span, after one line
/// recording the run (`run` is a plain-text description of it).
pub fn write_jsonl(path: &Path, run: &str, spans: &[Span]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "{{\"run\":\"{}\"}}", run.replace('"', "'"))?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    out.get_ref().sync_all()
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let kids = child_ns.get(&s.id).copied().unwrap_or(0);
        *by_layer.entry(s.layer).or_default() += own.saturating_sub(kids) as f64 / 1e6;
    }
    by_layer.into_iter().collect()
}
