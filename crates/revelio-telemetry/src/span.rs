//! Named, nested, attributed spans timed by the sim clock.

use std::collections::BTreeMap;

use crate::Telemetry;

/// One recorded span. Spans form a tree via `parent`; ids are assigned in
/// creation order, so the vector in the registry is a deterministic
/// preorder-ish log of the run. Every span belongs to exactly one trace:
/// roots allocate the next trace id from the registry, children (ambient
/// or remote) inherit their parent's.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    /// Trace this span belongs to. Allocated sequentially starting at 1,
    /// so ids are a pure function of root-span creation order.
    pub trace_id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    /// `None` while the span is open.
    pub end_us: Option<u64>,
    pub attrs: BTreeMap<String, String>,
}

/// A position in a trace, carried across call boundaries in a
/// `traceparent`-style header (`00-<32 hex trace>-<16 hex span>-01`).
///
/// The wire format follows W3C Trace Context with two deliberate
/// restrictions for the closed simulated world: trace ids are 64-bit
/// (the upper 16 hex digits must be zero) and an all-zero trace id is
/// malformed (the registry never allocates trace id 0). Span id 0 *is*
/// accepted — registry span ids start at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceContext {
    /// Renders the context as a `traceparent` header value.
    #[must_use]
    pub fn to_traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// Strictly parses a `traceparent` header value; any deviation from
    /// the format (length, version, separators, hex case, flags, zero or
    /// oversized trace id) returns `None`.
    #[must_use]
    pub fn parse_traceparent(value: &str) -> Option<TraceContext> {
        let bytes = value.as_bytes();
        if bytes.len() != 55 {
            return None;
        }
        if &bytes[0..2] != b"00" || bytes[2] != b'-' || bytes[35] != b'-' || bytes[52] != b'-' {
            return None;
        }
        let flags = &bytes[53..55];
        if flags != b"00" && flags != b"01" {
            return None;
        }
        let lower_hex = |field: &[u8]| {
            field
                .iter()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b))
        };
        let trace_hex = &bytes[3..35];
        let span_hex = &bytes[36..52];
        if !lower_hex(trace_hex) || !lower_hex(span_hex) {
            return None;
        }
        // 64-bit trace ids: the upper half of the 128-bit field must be zero.
        if trace_hex[..16].iter().any(|&b| b != b'0') {
            return None;
        }
        let trace_id = u64::from_str_radix(std::str::from_utf8(&trace_hex[16..]).ok()?, 16).ok()?;
        if trace_id == 0 {
            return None;
        }
        let span_id = u64::from_str_radix(std::str::from_utf8(span_hex).ok()?, 16).ok()?;
        Some(TraceContext { trace_id, span_id })
    }
}

impl SpanRecord {
    /// Duration in fractional milliseconds, `None` while open.
    #[must_use]
    pub fn duration_ms(&self) -> Option<f64> {
        self.end_us
            .map(|end| end.saturating_sub(self.start_us) as f64 / 1000.0)
    }
}

/// Spans per storage chunk. Chunks are allocated at full capacity up
/// front, so appending a span never copies existing records.
const SPAN_CHUNK: usize = 1024;

/// Append-only chunked span storage, indexed by span id.
///
/// A flat `Vec<SpanRecord>` doubles and *copies the entire log* every
/// time it fills — on a long run those copies land as multi-millisecond
/// spikes on whichever unlucky span triggers them, inflating the mean
/// dial-sampling overhead far above the p50. Fixed-size chunks cap the
/// cost of any single push at one chunk allocation and keep every
/// existing record in place (the chunk spine may still reallocate, but
/// it only holds pointers — `SPAN_CHUNK` times fewer bytes to move,
/// `SPAN_CHUNK` times less often).
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    chunks: Vec<Vec<SpanRecord>>,
    len: usize,
}

impl SpanLog {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, record: SpanRecord) {
        if self.len.is_multiple_of(SPAN_CHUNK) {
            self.chunks.push(Vec::with_capacity(SPAN_CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("chunk pushed above when needed")
            .push(record);
        self.len += 1;
    }

    pub(crate) fn get(&self, index: usize) -> Option<&SpanRecord> {
        self.chunks.get(index / SPAN_CHUNK)?.get(index % SPAN_CHUNK)
    }

    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut SpanRecord> {
        self.chunks
            .get_mut(index / SPAN_CHUNK)?
            .get_mut(index % SPAN_CHUNK)
    }

    /// Records in id (creation) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.chunks.iter().flatten()
    }
}

/// Owned attribute map from a borrowed attribute list. Called *before*
/// the registry lock is taken: these per-key allocations are the
/// expensive part of opening a span and must not sit inside the critical
/// section every instrumented thread contends on.
fn owned_attrs(attrs: &[(&str, &str)]) -> BTreeMap<String, String> {
    attrs
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect()
}

/// RAII handle for an open span. Dropping it finishes the span at the
/// current sim time; [`SpanGuard::finish_ms`] does the same and hands back
/// the measured duration so callers can derive timing structs from spans
/// instead of bookkeeping clock deltas by hand.
#[derive(Debug)]
pub struct SpanGuard {
    telemetry: Telemetry,
    id: u64,
    finished: bool,
}

impl Telemetry {
    /// Opens a span named `name`, child of the innermost open span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with initial attributes.
    pub fn span_with(&self, name: &str, attrs: &[(&str, &str)]) -> SpanGuard {
        // Name and attributes are allocated before the lock; only id
        // assignment and the push happen inside the critical section.
        let name = name.to_string();
        let attrs = owned_attrs(attrs);
        let start_us = self.inner.clock.now_us();
        let mut state = self.inner.state.lock();
        let id = state.spans.len() as u64;
        let parent = state.stack.last().copied();
        let trace_id = state.trace_of(parent);
        state.spans.push(SpanRecord {
            id,
            trace_id,
            parent,
            name,
            start_us,
            end_us: None,
            attrs,
        });
        state.stack.push(id);
        SpanGuard {
            telemetry: self.clone(),
            id,
            finished: false,
        }
    }

    /// Opens a span whose parent is an *explicit* [`TraceContext`] rather
    /// than the innermost open span — the server half of context
    /// propagation: the router parses the `traceparent` header a client
    /// injected and parents its handler span to the remote caller's span,
    /// stitching the cross-node tree together.
    pub fn span_with_remote_parent(
        &self,
        name: &str,
        attrs: &[(&str, &str)],
        context: TraceContext,
    ) -> SpanGuard {
        let name = name.to_string();
        let attrs = owned_attrs(attrs);
        let start_us = self.inner.clock.now_us();
        let mut state = self.inner.state.lock();
        let id = state.spans.len() as u64;
        state.spans.push(SpanRecord {
            id,
            trace_id: context.trace_id,
            parent: Some(context.span_id),
            name,
            start_us,
            end_us: None,
            attrs,
        });
        state.stack.push(id);
        SpanGuard {
            telemetry: self.clone(),
            id,
            finished: false,
        }
    }

    /// The [`TraceContext`] of the innermost open span, ready to inject
    /// into an outgoing request; `None` outside any span.
    #[must_use]
    pub fn current_context(&self) -> Option<TraceContext> {
        let state = self.inner.state.lock();
        let id = *state.stack.last()?;
        Some(TraceContext {
            trace_id: state.spans.get(id as usize)?.trace_id,
            span_id: id,
        })
    }

    /// Ids of every trace in the registry, in allocation order.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u64> {
        let state = self.inner.state.lock();
        let mut ids: Vec<u64> = state.spans.iter().map(|s| s.trace_id).collect();
        ids.dedup();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Snapshot of every finished span belonging to `trace_id`, id order.
    #[must_use]
    pub fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        let state = self.inner.state.lock();
        state
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.end_us.is_some())
            .cloned()
            .collect()
    }

    /// Records already-finished spans of modelled durations, without
    /// advancing the clock, for costs the simulation models analytically
    /// (a boot's steps) rather than simulates. The steps are sequential:
    /// each span starts where the previous one ended, the first at the
    /// current sim time, so they do not overlap in the trace.
    pub fn modelled_steps<S: AsRef<str>>(&self, steps: impl IntoIterator<Item = (S, f64)>) {
        let mut start_us = self.inner.clock.now_us();
        for (name, ms) in steps {
            let name = name.as_ref().to_string();
            let end_us = start_us.saturating_add((ms * 1000.0).max(0.0) as u64);
            let mut state = self.inner.state.lock();
            let id = state.spans.len() as u64;
            let parent = state.stack.last().copied();
            let trace_id = state.trace_of(parent);
            state.spans.push(SpanRecord {
                id,
                trace_id,
                parent,
                name,
                start_us,
                end_us: Some(end_us),
                attrs: BTreeMap::new(),
            });
            start_us = end_us;
        }
    }

    /// Snapshot of one span by id.
    #[must_use]
    pub fn span_record(&self, id: u64) -> Option<SpanRecord> {
        self.inner.state.lock().spans.get(id as usize).cloned()
    }

    fn finish_span(&self, id: u64, end_us: u64) -> f64 {
        let mut state = self.inner.state.lock();
        // Out-of-order drops are tolerated: remove the id wherever it sits.
        if let Some(pos) = state.stack.iter().rposition(|&open| open == id) {
            state.stack.remove(pos);
        }
        let span = state
            .spans
            .get_mut(id as usize)
            .expect("guard ids always index a recorded span");
        span.end_us = Some(end_us);
        end_us.saturating_sub(span.start_us) as f64 / 1000.0
    }
}

impl SpanGuard {
    /// The span's id in the registry.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Sets an attribute on the open span.
    pub fn attr(&self, key: &str, value: &str) {
        let key = key.to_string();
        let value = value.to_string();
        let mut state = self.telemetry.inner.state.lock();
        let span = state
            .spans
            .get_mut(self.id as usize)
            .expect("guard ids always index a recorded span");
        span.attrs.insert(key, value);
    }

    /// Finishes the span at the current sim time and returns its duration
    /// in milliseconds.
    pub fn finish_ms(mut self) -> f64 {
        self.finished = true;
        let end = self.telemetry.inner.clock.now_us();
        self.telemetry.finish_span(self.id, end)
    }

    /// Finishes the span with a *modelled* duration: the end time is
    /// `start + ms` but the shared clock is not advanced.
    pub fn finish_modelled_ms(mut self, ms: f64) -> f64 {
        self.finished = true;
        let start = self
            .telemetry
            .span_record(self.id)
            .map(|s| s.start_us)
            .unwrap_or_default();
        let end = start.saturating_add((ms * 1000.0).max(0.0) as u64);
        self.telemetry.finish_span(self.id, end)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            let end = self.telemetry.inner.clock.now_us();
            self.telemetry.finish_span(self.id, end);
        }
    }
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
    fn span_measures_clock_advance() {
        let (t, clock) = fixture();
        let span = t.span("work");
        clock.advance_ms(12.5);
        assert_eq!(span.finish_ms(), 12.5);
        assert_eq!(t.span_durations_ms("work"), vec![12.5]);
    }

    #[test]
    fn spans_nest_under_innermost_open() {
        let (t, clock) = fixture();
        let outer = t.span("outer");
        clock.advance_ms(1.0);
        let inner = t.span("inner");
        clock.advance_ms(2.0);
        inner.finish_ms();
        outer.finish_ms();

        let inner_rec = t.span_record(1).unwrap();
        assert_eq!(inner_rec.name, "inner");
        assert_eq!(inner_rec.parent, Some(0));
        assert_eq!(inner_rec.start_us, 1000);
        let outer_rec = t.span_record(0).unwrap();
        assert_eq!(outer_rec.parent, None);
        assert_eq!(outer_rec.duration_ms(), Some(3.0));
    }

    #[test]
    fn attributes_recorded() {
        let (t, _) = fixture();
        let span = t.span_with("req", &[("path", "/x")]);
        span.attr("status", "200");
        span.finish_ms();
        let rec = t.span_record(0).unwrap();
        assert_eq!(rec.attrs["path"], "/x");
        assert_eq!(rec.attrs["status"], "200");
    }

    #[test]
    fn drop_finishes_open_span() {
        let (t, clock) = fixture();
        {
            let _span = t.span("scoped");
            clock.advance_ms(4.0);
        }
        assert_eq!(t.span_durations_ms("scoped"), vec![4.0]);
    }

    #[test]
    fn modelled_finish_does_not_advance_clock() {
        let (t, clock) = fixture();
        let span = t.span("boot");
        assert_eq!(span.finish_modelled_ms(250.0), 250.0);
        assert_eq!(clock.now_us(), 0);
        assert_eq!(t.span_durations_ms("boot"), vec![250.0]);
    }

    #[test]
    fn modelled_span_records_child() {
        let (t, clock) = fixture();
        let parent = t.span("parent");
        t.modelled_steps([("child", 7.0)]);
        parent.finish_ms();
        let child = t.span_record(1).unwrap();
        assert_eq!(child.parent, Some(0));
        assert_eq!(child.duration_ms(), Some(7.0));
        assert_eq!(clock.now_us(), 0);
    }

    #[test]
    fn modelled_steps_follow_one_another() {
        let (t, clock) = fixture();
        clock.advance_ms(1.0);
        let parent = t.span("boot");
        t.modelled_steps([("boot.a", 2.5), ("boot.b", 0.0), ("boot.c", 4.0)]);
        parent.finish_modelled_ms(6.5);
        let bounds: Vec<_> = (1..=3)
            .map(|id| {
                let span = t.span_record(id).unwrap();
                (span.parent, span.start_us, span.end_us)
            })
            .collect();
        assert_eq!(
            bounds,
            vec![
                (Some(0), 1_000, Some(3_500)),
                (Some(0), 3_500, Some(3_500)),
                (Some(0), 3_500, Some(7_500)),
            ]
        );
        assert_eq!(clock.now_us(), 1_000);
    }

    #[test]
    fn trace_ids_allocate_for_roots_and_inherit_for_children() {
        let (t, _) = fixture();
        let a = t.span("a"); // trace 1
        let a_child = t.span("a.child");
        a_child.finish_ms();
        a.finish_ms();
        let b = t.span("b"); // trace 2
        b.finish_ms();
        assert_eq!(t.span_record(0).unwrap().trace_id, 1);
        assert_eq!(t.span_record(1).unwrap().trace_id, 1);
        assert_eq!(t.span_record(2).unwrap().trace_id, 2);
        assert_eq!(t.trace_ids(), vec![1, 2]);
        assert_eq!(t.trace_spans(1).len(), 2);
    }

    #[test]
    fn current_context_tracks_innermost_span() {
        let (t, _) = fixture();
        assert_eq!(t.current_context(), None);
        let outer = t.span("outer");
        let context = t.current_context().unwrap();
        assert_eq!(
            context,
            TraceContext {
                trace_id: 1,
                span_id: 0
            }
        );
        let inner = t.span("inner");
        assert_eq!(t.current_context().unwrap().span_id, 1);
        inner.finish_ms();
        assert_eq!(t.current_context().unwrap().span_id, 0);
        outer.finish_ms();
        assert_eq!(t.current_context(), None);
    }

    #[test]
    fn remote_parent_adopts_context_identity() {
        let (t, clock) = fixture();
        let context = TraceContext {
            trace_id: 7,
            span_id: 42,
        };
        let server = t.span_with_remote_parent("server", &[("path", "/")], context);
        clock.advance_ms(1.0);
        // Children opened while the remote-parented span is on the stack
        // inherit its trace.
        let child = t.span("child");
        child.finish_ms();
        server.finish_ms();
        let rec = t.span_record(0).unwrap();
        assert_eq!(rec.trace_id, 7);
        assert_eq!(rec.parent, Some(42));
        assert_eq!(t.span_record(1).unwrap().trace_id, 7);
    }

    #[test]
    fn traceparent_round_trips() {
        let context = TraceContext {
            trace_id: 0xDEAD_BEEF,
            span_id: 3,
        };
        let header = context.to_traceparent();
        assert_eq!(
            header,
            "00-000000000000000000000000deadbeef-0000000000000003-01"
        );
        assert_eq!(TraceContext::parse_traceparent(&header), Some(context));
    }

    #[test]
    fn malformed_traceparent_rejected() {
        for bad in [
            "",
            "00-0000000000000000000000000000002a-0000000000000001", // short
            "01-0000000000000000000000000000002a-0000000000000001-01", // version
            "00-0000000000000000000000000000002A-0000000000000001-01", // upper hex
            "00-0000000000000000000000000000002a-0000000000000001-02", // flags
            "00-00000000000000000000000000000000-0000000000000001-01", // zero trace
            "00-0000000000000001000000000000002a-0000000000000001-01", // >64-bit trace
            "00-g000000000000000000000000000002a-0000000000000001-01", // non-hex
            "00_0000000000000000000000000000002a-0000000000000001-01", // separator
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "{bad:?}");
        }
        // Zero span id is valid here: registry span ids start at 0.
        assert_eq!(
            TraceContext::parse_traceparent(
                "00-0000000000000000000000000000002a-0000000000000000-00"
            ),
            Some(TraceContext {
                trace_id: 42,
                span_id: 0
            })
        );
    }

    #[test]
    fn span_log_is_stable_across_chunk_boundaries() {
        let record = |id: u64| SpanRecord {
            id,
            trace_id: 1,
            parent: None,
            name: format!("span-{id}"),
            start_us: id,
            end_us: Some(id + 1),
            attrs: BTreeMap::new(),
        };
        let mut log = SpanLog::default();
        log.push(record(0));
        let first: *const SpanRecord = log.get(0).unwrap();
        let total = 3 * SPAN_CHUNK + 7;
        for id in 1..total as u64 {
            log.push(record(id));
        }
        // Growth never copied the first record to a new allocation.
        assert!(std::ptr::eq(first, log.get(0).unwrap()));
        assert_eq!(log.len(), total);
        // Indexed access works on both sides of every chunk boundary.
        for probe in [0, SPAN_CHUNK - 1, SPAN_CHUNK, 2 * SPAN_CHUNK, total - 1] {
            assert_eq!(log.get(probe).unwrap().id, probe as u64);
        }
        assert!(log.get(total).is_none());
        log.get_mut(SPAN_CHUNK).unwrap().end_us = None;
        assert_eq!(log.get(SPAN_CHUNK).unwrap().end_us, None);
        // Iteration yields creation order across chunks.
        let ids: Vec<u64> = log.iter().map(|s| s.id).collect();
        assert_eq!(ids, (0..total as u64).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_drop_tolerated() {
        let (t, clock) = fixture();
        let a = t.span("a");
        let b = t.span("b");
        clock.advance_ms(1.0);
        a.finish_ms(); // finished before its child b
        clock.advance_ms(1.0);
        b.finish_ms();
        assert_eq!(t.span_durations_ms("a"), vec![1.0]);
        assert_eq!(t.span_durations_ms("b"), vec![2.0]);
        // The stack is fully unwound; the next span is a root.
        let c = t.span("c");
        c.finish_ms();
        assert_eq!(t.span_record(2).unwrap().parent, None);
    }
}
