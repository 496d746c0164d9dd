//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end, parent span and op id. They live in memory on the
//! (single) benchmark thread and are written out when the run ends. With
//! tracing off, [`span`] is one thread-local flag check around the call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    /// Recorded by the probe suite rather than by the workload's own ops.
    pub probe: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    probe: bool,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        op: 0,
        probe: false,
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Tags the spans that follow with op id `op`; `probe` marks ops run by
/// the probe suite.
pub fn begin_op(op: u64, probe: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.op = op;
        r.probe = probe;
    });
}

/// Runs `f` inside a span named `name` when recording is on.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.stack.last().copied();
        let (op, probe) = (r.op, r.probe);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            probe,
        });
        let index = r.spans.len() - 1;
        r.stack.push(index);
        index
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[index].end_ns = end_ns;
        r.stack.pop();
    });
    out
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Self time of each span: its duration minus the part its children
/// cover. Children run synchronously inside their parent, so they never
/// overlap one another.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Per-op self time summed by span name, for the workload's own ops
/// (probe ops excluded): `name -> [self ns of op 0, op 1, ...]`. An op
/// that never called `name` contributes 0.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let self_ns = self_times_ns(spans);
    let mut per_op: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_ns) {
        if !span.probe {
            *per_op
                .entry(span.op)
                .or_default()
                .entry(span.name)
                .or_default() += ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for names in per_op.values() {
        for name in names.keys() {
            by_name.entry(name).or_default();
        }
    }
    for names in per_op.values() {
        for (name, values) in &mut by_name {
            values.push(names.get(name).copied().unwrap_or(0));
        }
    }
    by_name
}

/// Writes the spans as JSON lines to `path`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"probe\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.probe
        )?;
    }
    out.flush()
}
