//! Deterministic assembly of finished spans into a cross-node trace tree.
//!
//! [`TraceAssembler`] collects every finished span of one trace from the
//! registry (in `SimWorld` all nodes share a registry, so a single browse
//! or provision stitches into one tree), rebuilds the tree sim-clock
//! ordered with ties broken by span id, computes the critical path and
//! per-hop self-time, and renders Chrome `trace_event` JSON plus a text
//! flame summary. Every output is a pure function of the recorded spans,
//! so a fixed seed yields byte-identical bytes regardless of thread
//! count.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::export::json_escape;
use crate::span::SpanRecord;
use crate::Telemetry;

/// One assembled trace: finished spans, child lists, roots, and the
/// critical path, all deterministically ordered.
#[derive(Debug, Clone)]
pub struct TraceAssembler {
    trace_id: u64,
    /// Finished spans of the trace, id order.
    spans: Vec<SpanRecord>,
    /// Span id → slot in `spans`.
    index: BTreeMap<u64, usize>,
    /// Parent span id → child ids, ordered by (start_us, id).
    children: BTreeMap<u64, Vec<u64>>,
    /// Spans without a finished parent in this trace, (start_us, id) order.
    roots: Vec<u64>,
}

impl Telemetry {
    /// Assembles the finished spans of `trace_id` into a tree.
    #[must_use]
    pub fn assemble_trace(&self, trace_id: u64) -> TraceAssembler {
        TraceAssembler::assemble(trace_id, self.trace_spans(trace_id))
    }
}

impl TraceAssembler {
    /// Builds the tree from finished spans (open spans must be excluded
    /// by the caller; [`Telemetry::trace_spans`] already does).
    #[must_use]
    pub(crate) fn assemble(trace_id: u64, spans: Vec<SpanRecord>) -> TraceAssembler {
        let index: BTreeMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(slot, s)| (s.id, slot))
            .collect();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut roots = Vec::new();
        for span in &spans {
            // A parent counts only when it is an earlier span of the same
            // trace, so no chain of parents can loop back on itself.
            let local = |pid: &u64| {
                *pid < span.id
                    && index
                        .get(pid)
                        .and_then(|&slot| spans.get(slot))
                        .is_some_and(|parent| parent.trace_id == span.trace_id)
            };
            match span.parent.filter(local) {
                Some(pid) => children.entry(pid).or_default().push(span.id),
                // A span whose parent is missing (still open, a remote
                // parent outside this registry, or not a valid parent)
                // anchors a subtree.
                None => roots.push(span.id),
            }
        }
        let sort_key = |ids: &mut Vec<u64>, index: &BTreeMap<u64, usize>, spans: &[SpanRecord]| {
            ids.sort_by_key(|id| (spans[index[id]].start_us, *id));
        };
        for ids in children.values_mut() {
            sort_key(ids, &index, &spans);
        }
        sort_key(&mut roots, &index, &spans);
        TraceAssembler {
            trace_id,
            spans,
            index,
            children,
            roots,
        }
    }

    /// The trace id this tree was assembled for.
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// True when the trace holds no finished spans.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of finished spans in the trace.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The finished spans, id order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Root span ids, (start, id) order.
    #[must_use]
    pub fn roots(&self) -> &[u64] {
        &self.roots
    }

    /// Child span ids of `id`, (start, id) order.
    #[must_use]
    pub(crate) fn children_of(&self, id: u64) -> &[u64] {
        self.children.get(&id).map_or(&[], Vec::as_slice)
    }

    fn span(&self, id: u64) -> &SpanRecord {
        &self.spans[self.index[&id]]
    }

    /// Duration of span `id` in microseconds.
    #[must_use]
    pub(crate) fn duration_us(&self, id: u64) -> u64 {
        let span = self.span(id);
        span.end_us
            .unwrap_or(span.start_us)
            .saturating_sub(span.start_us)
    }

    /// Self-time of span `id`: the part of its interval that no direct
    /// child covers. Children that overlap (concurrent branches of a
    /// fork/join) count once, and a child modelled wider than its parent
    /// counts only inside the parent.
    #[must_use]
    pub(crate) fn self_time_us(&self, id: u64) -> u64 {
        let span = self.span(id);
        let end = span.end_us.unwrap_or(span.start_us);
        // Children are in start order, so one sweep measures their union:
        // `reach` is the furthest instant covered so far.
        let mut reach = span.start_us;
        let mut covered = 0u64;
        for &c in self.children_of(id) {
            let child = self.span(c);
            let from = child.start_us.max(reach);
            let to = child.end_us.unwrap_or(child.start_us).min(end);
            if to > from {
                covered += to - from;
                reach = to;
            }
        }
        self.duration_us(id).saturating_sub(covered)
    }

    /// The critical path: starting from the primary root (earliest start,
    /// id tie-break), repeatedly descend into the longest child (ties to
    /// the earlier-starting, lower-id child). Empty for an empty trace.
    #[must_use]
    pub(crate) fn critical_path(&self) -> Vec<u64> {
        let mut path = Vec::new();
        let Some(&root) = self.roots.first() else {
            return path;
        };
        let mut cursor = root;
        loop {
            path.push(cursor);
            let next = self
                .children_of(cursor)
                .iter()
                .copied()
                // max_by_key takes the *last* maximum; key on (duration,
                // Reverse(start, id)) so ties go to the earlier child.
                .max_by_key(|&c| {
                    (
                        self.duration_us(c),
                        std::cmp::Reverse((self.span(c).start_us, c)),
                    )
                });
            match next {
                Some(child) => cursor = child,
                None => return path,
            }
        }
    }

    /// The span names along the critical path, joined by `" > "`.
    #[must_use]
    pub fn critical_path_names(&self) -> String {
        self.critical_path()
            .iter()
            .map(|&id| self.span(id).name.as_str())
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Exports the trace as Chrome `trace_event` JSON (complete events,
    /// span-id order), loadable in `chrome://tracing` / Perfetto.
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"revelio\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":1,\"args\":{{\"span_id\":{},\"parent_id\":{}",
                json_escape(&span.name),
                span.start_us,
                self.duration_us(span.id),
                self.trace_id,
                span.id,
                span.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            );
            for (k, v) in &span.attrs {
                let _ = write!(out, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders an indented text flame summary: one line per span in tree
    /// order, with duration and self-time in ms, critical-path hops
    /// marked `*`, followed by the critical-path hop sequence.
    #[must_use]
    pub fn flame_summary(&self) -> String {
        let critical: Vec<u64> = self.critical_path();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} · {} spans · critical path {:.3} ms",
            self.trace_id,
            self.spans.len(),
            critical
                .iter()
                .map(|&id| self.self_time_us(id))
                .sum::<u64>() as f64
                / 1000.0,
        );
        let mut stack: Vec<(u64, usize)> = self.roots.iter().rev().map(|&id| (id, 0)).collect();
        while let Some((id, depth)) = stack.pop() {
            let span = self.span(id);
            let marker = if critical.contains(&id) { '*' } else { ' ' };
            let _ = writeln!(
                out,
                "{marker} {:indent$}{:<32} {:>12.3} ms  self {:>12.3} ms",
                "",
                span.name,
                self.duration_us(id) as f64 / 1000.0,
                self.self_time_us(id) as f64 / 1000.0,
                indent = depth * 2,
            );
            for &child in self.children_of(id).iter().rev() {
                stack.push((child, depth + 1));
            }
        }
        let _ = writeln!(out, "critical path: {}", self.critical_path_names());
        out
    }

    /// The hop on the critical path with the largest self-time — the
    /// place a faulted or slow run actually spent its wall: `(name,
    /// self-time µs)`.
    #[must_use]
    pub fn dominant_hop(&self) -> Option<(String, u64)> {
        self.critical_path()
            .into_iter()
            // max_by_key takes the last max; prefer the earliest hop on
            // ties so the answer is deterministic and names the first
            // place the time went.
            .max_by_key(|&id| (self.self_time_us(id), std::cmp::Reverse(id)))
            .map(|id| (self.span(id).name.clone(), self.self_time_us(id)))
    }
}

/// Renders every trace in the registry (allocation order) as flame
/// summaries plus Chrome JSON — the canonical "whole run" export the
/// determinism suite byte-compares across thread counts.
#[must_use]
pub fn export_all_traces(telemetry: &Telemetry) -> String {
    let mut out = String::new();
    for trace_id in telemetry.trace_ids() {
        let tree = telemetry.assemble_trace(trace_id);
        if tree.is_empty() {
            continue;
        }
        out.push_str(&tree.flame_summary());
        out.push_str(&tree.export_chrome_trace());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_net::clock::SimClock;

    fn fixture() -> (Telemetry, SimClock) {
        let clock = SimClock::new();
        (Telemetry::new(clock.clone()), clock)
    }

    #[test]
    fn assembles_tree_with_critical_path_and_self_time() {
        let (t, clock) = fixture();
        let root = t.span("browse");
        let fast = t.span("dns");
        clock.advance_ms(1.0);
        fast.finish_ms();
        let slow = t.span("kds.fetch");
        clock.advance_ms(9.0);
        slow.finish_ms();
        clock.advance_ms(2.0);
        root.finish_ms();

        let tree = t.assemble_trace(1);
        assert_eq!(tree.span_count(), 3);
        assert_eq!(tree.roots(), &[0]);
        assert_eq!(tree.children_of(0), &[1, 2]);
        assert_eq!(tree.critical_path(), vec![0, 2]);
        assert_eq!(tree.critical_path_names(), "browse > kds.fetch");
        // root: 12ms total, children 1ms + 9ms → 2ms self.
        assert_eq!(tree.duration_us(0), 12_000);
        assert_eq!(tree.self_time_us(0), 2_000);
        assert_eq!(tree.dominant_hop(), Some(("kds.fetch".to_string(), 9_000)));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let (t, clock) = fixture();
        let root = t.span("sp.provision");
        // Two concurrent branches over [0, 4) and [0, 10), a gap of 5 ms,
        // then a sequential child over [15, 18); the root ends at 20.
        clock.fork_join([4.0, 10.0], |ms| {
            let branch = t.span("sp.evidence_retrieval");
            clock.advance_ms(ms);
            branch.finish_ms();
        });
        clock.advance_ms(5.0);
        let tail = t.span("sp.certificate_generation");
        clock.advance_ms(3.0);
        tail.finish_ms();
        clock.advance_ms(2.0);
        root.finish_ms();

        let tree = t.assemble_trace(1);
        assert_eq!(tree.duration_us(0), 20_000);
        // Covered: [0, 10) ∪ [15, 18) = 13 ms; the summed durations
        // (17 ms) would understate the self time as 3 ms.
        assert_eq!(tree.self_time_us(0), 7_000);
        // The slowest branch stays on the critical path.
        assert_eq!(tree.critical_path(), vec![0, 2]);
    }

    #[test]
    fn sibling_order_is_start_then_id() {
        let (t, clock) = fixture();
        let root = t.span("r");
        // Two modelled children recorded at the same instant: id breaks
        // the tie. A third, later child sorts after both.
        t.modelled_steps([("b", 1.0)]);
        t.modelled_steps([("a", 1.0)]);
        clock.advance_ms(1.0);
        t.modelled_steps([("c", 1.0)]);
        root.finish_ms();
        let tree = t.assemble_trace(1);
        assert_eq!(tree.children_of(0), &[1, 2, 3]);
    }

    #[test]
    fn open_spans_are_excluded_and_orphans_become_roots() {
        let (t, clock) = fixture();
        let open_root = t.span("open");
        let child = t.span("child");
        clock.advance_ms(1.0);
        child.finish_ms();
        let tree = t.assemble_trace(1);
        // The open root is excluded; its finished child anchors the tree.
        assert_eq!(tree.span_count(), 1);
        assert_eq!(tree.roots(), &[1]);
        drop(open_root);
    }

    #[test]
    fn chrome_export_and_flame_are_deterministic() {
        let run = || {
            let (t, clock) = fixture();
            let root = t.span_with("browse", &[("domain", "pad.example.org")]);
            let child = t.span("tls.handshake");
            clock.advance_ms(3.0);
            child.finish_ms();
            root.finish_ms();
            let tree = t.assemble_trace(1);
            (tree.export_chrome_trace(), tree.flame_summary())
        };
        let (json_a, flame_a) = run();
        let (json_b, flame_b) = run();
        assert_eq!(json_a, json_b);
        assert_eq!(flame_a, flame_b);
        assert!(json_a.starts_with("{\"traceEvents\":[{\"name\":\"browse\""));
        assert!(json_a.contains("\"ph\":\"X\""));
        assert!(json_a.contains("\"domain\":\"pad.example.org\""));
        assert!(flame_a.contains("critical path: browse > tls.handshake"));
    }

    #[test]
    fn remote_parent_stitches_into_one_trace() {
        let (t, clock) = fixture();
        let client = t.span("client.call");
        let context = t.current_context().unwrap();
        // Simulate the server side re-opening from the wire context.
        let server = t.span_with_remote_parent("server.handle", &[], context);
        clock.advance_ms(5.0);
        server.finish_ms();
        client.finish_ms();
        let tree = t.assemble_trace(1);
        assert_eq!(tree.span_count(), 2);
        assert_eq!(tree.children_of(0), &[1]);
        assert_eq!(tree.critical_path_names(), "client.call > server.handle");
    }

    #[test]
    fn a_parent_cycle_hides_no_span() {
        let span = |id: u64, parent: u64| SpanRecord {
            id,
            trace_id: 1,
            parent: Some(parent),
            name: format!("s{id}"),
            start_us: id,
            end_us: Some(id + 1),
            attrs: BTreeMap::new(),
        };
        // 5 and 6 name each other and 7 names itself: every chain of
        // parents loops, so a tree that followed them has no root.
        let tree = TraceAssembler::assemble(1, vec![span(5, 6), span(6, 5), span(7, 7)]);
        assert_eq!(tree.roots(), &[5, 7]);
        assert_eq!(tree.children_of(5), &[6]);
        let flame = tree.flame_summary();
        for name in ["s5", "s6", "s7"] {
            assert!(flame.contains(name), "{flame}");
        }
    }
}
