//! Named, nested, attributed spans timed by the sim clock, held in a
//! fixed-size window of recent traces.

use std::collections::{BTreeMap, VecDeque};
use std::thread::{self, ThreadId};

use crate::export::Breakdown;
use crate::Telemetry;

/// One recorded span. Spans form a tree via `parent`; ids are assigned in
/// creation order, so they are a deterministic function of the run.
/// Every span belongs to exactly one trace:
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
    pub(crate) start_us: u64,
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
    pub(crate) fn duration_ms(&self) -> Option<f64> {
        self.end_us
            .map(|end| end.saturating_sub(self.start_us) as f64 / 1000.0)
    }
}

/// Finished spans the window holds. A returning visit records one span
/// and a cold attested browse eight, so the window keeps the last ~4000
/// returning visits or ~500 cold browses for export. At the ~0.8 KB a
/// span with attributes keeps, that caps span memory at a few megabytes
/// however long the registry lives.
pub(crate) const SPAN_WINDOW: usize = 4096;

/// Counter of finished spans evicted from the window. It is created by
/// the first eviction, so a run that fits the window exports no such
/// line.
pub(crate) const SPANS_DROPPED_COUNTER: &str = "revelio_telemetry_spans_dropped_total";

/// A span in the window, with the breakdown row it is summed into.
#[derive(Debug)]
struct Held {
    record: SpanRecord,
    path: usize,
}

/// One trace's spans in the window.
#[derive(Debug, Default)]
struct TraceEntry {
    /// Finished spans, id order.
    finished: Vec<Held>,
    /// Spans of the trace still open. Only a trace at zero is evicted, so
    /// an open span never loses its finished children.
    open: usize,
}

/// The registry's spans: every open span, plus the finished spans of the
/// most recent traces, up to [`SPAN_WINDOW`] of them.
///
/// Eviction removes whole traces, oldest first (in the order the window
/// first saw each trace), and skips every trace that still has an open
/// span; such a trace can hold the window above its capacity until the
/// span finishes. The aggregates that cover the whole run — the span
/// count and the [`Breakdown`] — are updated as each span opens or
/// finishes and never recomputed from the window, so eviction cannot
/// change them. Span ids stay absolute: the n-th span recorded has id n
/// whether or not its predecessors are still held.
#[derive(Debug, Default)]
pub(crate) struct SpanWindow {
    /// Spans recorded so far; also the next span's id.
    recorded: u64,
    /// Last allocated trace id; 0 is reserved (never a valid trace).
    last_trace_id: u64,
    /// Open spans in opening order, each with the thread that opened it.
    /// A thread's last one is the parent of the next span that thread
    /// opens without an explicit context.
    open: Vec<(ThreadId, Held)>,
    /// Trace id → that trace's spans.
    traces: BTreeMap<u64, TraceEntry>,
    /// The keys of `traces`, oldest first: the eviction order.
    age: VecDeque<u64>,
    /// Finished spans held across `traces`.
    finished: usize,
    breakdown: Breakdown,
}

impl SpanWindow {
    /// Spans recorded over the registry's life, evicted ones included.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    pub(crate) fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Records a span opened at `start_us` and returns its id. Without a
    /// `remote` context it is a child of the calling thread's innermost
    /// open span, or the root of a new trace; with one, it joins the
    /// context's trace.
    pub(crate) fn open(
        &mut self,
        name: String,
        attrs: BTreeMap<String, String>,
        start_us: u64,
        remote: Option<TraceContext>,
    ) -> u64 {
        let held = self.place(name, attrs, start_us, None, remote);
        let id = held.record.id;
        self.entry(held.record.trace_id).open += 1;
        self.open.push((thread::current().id(), held));
        id
    }

    /// Records an already-finished span (a modelled step) under the
    /// calling thread's innermost open span. Returns the number of spans
    /// evicted.
    pub(crate) fn record_finished(&mut self, name: String, start_us: u64, end_us: u64) -> u64 {
        let held = self.place(name, BTreeMap::new(), start_us, Some(end_us), None);
        self.retire(held)
    }

    /// Finishes open span `id` at `end_us`. Returns the number of spans
    /// evicted.
    pub(crate) fn finish(&mut self, id: u64, end_us: u64) -> u64 {
        // Out-of-order finishes are tolerated: take the span wherever it sits.
        let Some(pos) = self.open.iter().rposition(|(_, h)| h.record.id == id) else {
            return 0;
        };
        let (_, mut held) = self.open.remove(pos);
        held.record.end_us = Some(end_us);
        let entry = self.entry(held.record.trace_id);
        entry.open = entry.open.saturating_sub(1);
        self.retire(held)
    }

    /// Every span in the window, open or finished, in id order.
    pub(crate) fn by_id(&self) -> Vec<&SpanRecord> {
        let mut spans: Vec<&SpanRecord> = self
            .traces
            .values()
            .flat_map(|entry| &entry.finished)
            .chain(self.open.iter().map(|(_, h)| h))
            .map(|h| &h.record)
            .collect();
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }

    /// Assigns the next id, the trace, the parent and the breakdown path
    /// of a new span.
    fn place(
        &mut self,
        name: String,
        attrs: BTreeMap<String, String>,
        start_us: u64,
        end_us: Option<u64>,
        remote: Option<TraceContext>,
    ) -> Held {
        let id = self.recorded;
        self.recorded += 1;
        let (trace_id, parent, parent_path) = match (remote, self.innermost()) {
            (Some(context), _) => (
                context.trace_id,
                Some(context.span_id),
                self.local_path(context),
            ),
            (None, Some(top)) => (top.record.trace_id, Some(top.record.id), Some(top.path)),
            (None, None) => {
                self.last_trace_id += 1;
                (self.last_trace_id, None, None)
            }
        };
        let path = self.breakdown.intern(parent_path, &name);
        Held {
            record: SpanRecord {
                id,
                trace_id,
                parent,
                name,
                start_us,
                end_us,
                attrs,
            },
            path,
        }
    }

    /// The calling thread's innermost open span. Spans another thread
    /// holds open are never its parent: concurrent users of one registry
    /// keep separate traces.
    fn innermost(&self) -> Option<&Held> {
        let me = thread::current().id();
        self.open
            .iter()
            .rev()
            .find(|(t, _)| *t == me)
            .map(|(_, h)| h)
    }

    /// Breakdown path of the span a remote context names, when that is a
    /// span of this registry in the context's trace. Every such span was
    /// recorded before the one being opened, so its id is smaller and
    /// paths cannot cycle. Any other context — an id never allocated, the
    /// new span's own id, a span of another trace, or one that has left
    /// the window — names a foreign parent: the new span starts its own
    /// path.
    fn local_path(&self, context: TraceContext) -> Option<usize> {
        let open = self
            .open
            .iter()
            .rev()
            .map(|(_, h)| h)
            .find(|h| h.record.id == context.span_id && h.record.trace_id == context.trace_id);
        let finished = || {
            find_by_id(
                &self.traces.get(&context.trace_id)?.finished,
                context.span_id,
            )
        };
        open.or_else(finished).map(|h| h.path)
    }

    /// Moves a finished span into its trace's entry, sums it into the
    /// breakdown and evicts what no longer fits. Returns the number of
    /// spans evicted.
    fn retire(&mut self, held: Held) -> u64 {
        let record = &held.record;
        let duration_us = record
            .end_us
            .map_or(0, |end| end.saturating_sub(record.start_us));
        self.breakdown.add(held.path, duration_us);
        let (id, trace_id) = (record.id, record.trace_id);
        let entry = self.entry(trace_id);
        let slot = entry.finished.partition_point(|h| h.record.id < id);
        if entry.finished.capacity() == 0 {
            // Most traces hold one span; a first allocation of four (the
            // amortized minimum) would outweigh the span itself.
            entry.finished.reserve_exact(1);
        }
        entry.finished.insert(slot, held);
        self.finished += 1;
        self.evict()
    }

    /// The entry of `trace_id`, created as the newest trace when absent.
    fn entry(&mut self, trace_id: u64) -> &mut TraceEntry {
        let age = &mut self.age;
        self.traces.entry(trace_id).or_insert_with(|| {
            age.push_back(trace_id);
            TraceEntry::default()
        })
    }

    /// Evicts the oldest traces without an open span until the finished
    /// spans fit the window. Returns the number of spans evicted.
    fn evict(&mut self) -> u64 {
        let mut dropped = 0;
        while self.finished > SPAN_WINDOW {
            let traces = &self.traces;
            let Some(slot) = self
                .age
                .iter()
                .position(|t| traces.get(t).is_some_and(|entry| entry.open == 0))
            else {
                break;
            };
            let Some(entry) = self.age.remove(slot).and_then(|t| self.traces.remove(&t)) else {
                break;
            };
            self.finished -= entry.finished.len();
            dropped += entry.finished.len() as u64;
        }
        dropped
    }
}

/// The span with id `id` in an id-ordered slice.
fn find_by_id(spans: &[Held], id: u64) -> Option<&Held> {
    let slot = spans.binary_search_by_key(&id, |h| h.record.id).ok()?;
    spans.get(slot)
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
    start_us: u64,
    finished: bool,
}

impl Telemetry {
    /// Opens a span named `name`, child of the calling thread's innermost
    /// open span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, &[])
    }

    /// Opens a span with initial attributes.
    pub fn span_with(&self, name: &str, attrs: &[(&str, &str)]) -> SpanGuard {
        self.open_span(name, attrs, None)
    }

    /// Opens a span whose parent is an *explicit* [`TraceContext`] rather
    /// than the innermost open span — the server half of context
    /// propagation: the router parses the `traceparent` header a client
    /// injected and parents its handler span to the remote caller's span,
    /// stitching the cross-node tree together. The context comes off the
    /// wire, so its span id may name anything; the breakdown nests the
    /// span under it only when it is a span of this registry in the same
    /// trace.
    pub fn span_with_remote_parent(
        &self,
        name: &str,
        attrs: &[(&str, &str)],
        context: TraceContext,
    ) -> SpanGuard {
        self.open_span(name, attrs, Some(context))
    }

    fn open_span(
        &self,
        name: &str,
        attrs: &[(&str, &str)],
        remote: Option<TraceContext>,
    ) -> SpanGuard {
        // Name and attributes are allocated before the lock; only id
        // assignment and the push happen inside the critical section.
        let name = name.to_string();
        let attrs = owned_attrs(attrs);
        let start_us = self.inner.clock.now_us();
        let id = self
            .inner
            .state
            .lock()
            .spans
            .open(name, attrs, start_us, remote);
        SpanGuard {
            telemetry: self.clone(),
            id,
            start_us,
            finished: false,
        }
    }

    /// The [`TraceContext`] of the calling thread's innermost open span,
    /// ready to inject into an outgoing request; `None` outside any span.
    #[must_use]
    pub fn current_context(&self) -> Option<TraceContext> {
        let state = self.inner.state.lock();
        let top = &state.spans.innermost()?.record;
        Some(TraceContext {
            trace_id: top.trace_id,
            span_id: top.id,
        })
    }

    /// Ids of every trace with a span in the window, ascending — for
    /// locally rooted traces, allocation order.
    #[must_use]
    pub fn trace_ids(&self) -> Vec<u64> {
        self.inner
            .state
            .lock()
            .spans
            .traces
            .keys()
            .copied()
            .collect()
    }

    /// Snapshot of every finished span of `trace_id` in the window, id
    /// order.
    #[must_use]
    pub(crate) fn trace_spans(&self, trace_id: u64) -> Vec<SpanRecord> {
        let state = self.inner.state.lock();
        state
            .spans
            .traces
            .get(&trace_id)
            .map_or_else(Vec::new, |entry| {
                entry.finished.iter().map(|h| h.record.clone()).collect()
            })
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
            let dropped = state.spans.record_finished(name, start_us, end_us);
            state.count_dropped(dropped);
            start_us = end_us;
        }
    }

    /// Snapshot of one span by id, while the window holds it.
    #[must_use]
    pub fn span_record(&self, id: u64) -> Option<SpanRecord> {
        let state = self.inner.state.lock();
        let spans = &state.spans;
        let finished = || {
            spans
                .traces
                .values()
                .find_map(|entry| find_by_id(&entry.finished, id))
        };
        let open = spans
            .open
            .iter()
            .map(|(_, h)| h)
            .find(|h| h.record.id == id);
        open.or_else(finished).map(|h| h.record.clone())
    }

    fn finish_span(&self, id: u64, start_us: u64, end_us: u64) -> f64 {
        let mut state = self.inner.state.lock();
        let dropped = state.spans.finish(id, end_us);
        state.count_dropped(dropped);
        end_us.saturating_sub(start_us) as f64 / 1000.0
    }
}

impl SpanGuard {
    /// Sets an attribute on the open span.
    pub fn attr(&self, key: &str, value: &str) {
        let key = key.to_string();
        let value = value.to_string();
        let mut state = self.telemetry.inner.state.lock();
        let mut open = state.spans.open.iter_mut().rev();
        if let Some((_, held)) = open.find(|(_, h)| h.record.id == self.id) {
            held.record.attrs.insert(key, value);
        }
    }

    /// Finishes the span at the current sim time and returns its duration
    /// in milliseconds.
    pub fn finish_ms(mut self) -> f64 {
        self.finished = true;
        let end = self.telemetry.inner.clock.now_us();
        self.telemetry.finish_span(self.id, self.start_us, end)
    }

    /// Finishes the span with a *modelled* duration: the end time is
    /// `start + ms` but the shared clock is not advanced.
    pub fn finish_modelled_ms(mut self, ms: f64) -> f64 {
        self.finished = true;
        let end = self.start_us.saturating_add((ms * 1000.0).max(0.0) as u64);
        self.telemetry.finish_span(self.id, self.start_us, end)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.finished {
            let end = self.telemetry.inner.clock.now_us();
            self.telemetry.finish_span(self.id, self.start_us, end);
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
    fn a_span_never_nests_under_another_threads_open_span() {
        use std::sync::Barrier;

        let (t, _clock) = fixture();
        let a_open = Barrier::new(2);
        let b_done = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let span = t.span("thread_a.op");
                a_open.wait();
                b_done.wait();
                span.finish_ms();
            });
            let b = s.spawn(|| {
                a_open.wait();
                let context = t.current_context();
                t.span("thread_b.op").finish_ms();
                b_done.wait();
                context
            });
            // Thread A's open span is not thread B's context.
            assert_eq!(b.join().ok(), Some(None));
        });
        // Two roots, one trace each.
        let traces = t.trace_ids();
        assert_eq!(traces.len(), 2, "{traces:?}");
        for trace in traces {
            let spans = t.trace_spans(trace);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].parent, None, "{spans:?}");
        }
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

    /// Records `count` root traces of one 1 ms span each.
    fn root_traces(t: &Telemetry, clock: &SimClock, count: usize) {
        for _ in 0..count {
            let span = t.span("op");
            clock.advance_ms(1.0);
            span.finish_ms();
        }
    }

    /// Records one root trace of `spans` spans: a root and its children.
    fn wide_trace(t: &Telemetry, spans: usize) {
        let root = t.span("wide");
        t.modelled_steps((1..spans).map(|_| ("wide.step", 1.0)));
        root.finish_ms();
    }

    fn dropped(t: &Telemetry) -> u64 {
        t.counter(SPANS_DROPPED_COUNTER)
    }

    #[test]
    fn window_evicts_whole_traces_oldest_first() {
        let (t, clock) = fixture();
        wide_trace(&t, 3); // trace 1, spans 0..3
        root_traces(&t, &clock, SPAN_WINDOW - 3);
        assert_eq!(dropped(&t), 0, "exactly full: nothing evicted yet");
        assert_eq!(t.trace_ids().len(), SPAN_WINDOW - 2);

        root_traces(&t, &clock, 1);
        // One span over: all of trace 1 goes, not just one of its spans.
        assert_eq!(dropped(&t), 3);
        assert!(t.trace_spans(1).is_empty());
        assert_eq!(t.span_record(0), None);
        assert_eq!(t.trace_ids().first(), Some(&2));

        root_traces(&t, &clock, 3);
        // Two spans fill the room trace 1 left; the third evicts trace 2.
        assert_eq!(dropped(&t), 4);
        assert_eq!(t.trace_ids().first(), Some(&3));
        assert_eq!(t.trace_ids().last(), Some(&(SPAN_WINDOW as u64 + 2)));
    }

    #[test]
    fn a_trace_with_an_open_span_is_never_evicted() {
        let (t, clock) = fixture();
        let open_root = t.span("open"); // trace 1
        t.modelled_steps([("open.step", 1.0)]);
        // Other traces arrive with wire contexts while trace 1 stays open.
        for trace_id in 2..2 + SPAN_WINDOW as u64 {
            let context = TraceContext {
                trace_id,
                span_id: 0,
            };
            t.span_with_remote_parent("op", &[], context).finish_ms();
        }
        // The window overflowed by one: trace 2 went, trace 1 was skipped.
        assert_eq!(dropped(&t), 1);
        assert!(t.trace_spans(2).is_empty());
        assert_eq!(t.trace_spans(1).len(), 1, "the finished child stays");
        assert_eq!(t.span_record(0).unwrap().end_us, None);

        clock.advance_ms(1.0);
        open_root.finish_ms();
        // Finished now, trace 1 is the oldest evictable trace.
        assert_eq!(dropped(&t), 3);
        assert!(t.trace_spans(1).is_empty());
        assert_eq!(t.trace_ids().first(), Some(&3));
    }

    #[test]
    fn dropped_counter_counts_exactly_the_evicted_spans() {
        let (t, _) = fixture();
        let mut sizes = (1..=5).cycle();
        while t.span_count() <= SPAN_WINDOW - 5 {
            wide_trace(&t, sizes.next().unwrap());
        }
        // A run that fits the window exports no dropped counter at all.
        assert!(!t.export_prometheus().contains(SPANS_DROPPED_COUNTER));
        assert!(!t.export_json_lines().contains(SPANS_DROPPED_COUNTER));
        for _ in 0..2_000 {
            wide_trace(&t, sizes.next().unwrap());
        }
        let held: usize = t
            .trace_ids()
            .iter()
            .map(|&id| t.trace_spans(id).len())
            .sum();
        assert!(held <= SPAN_WINDOW, "{held} spans held");
        assert_eq!(dropped(&t), (t.span_count() - held) as u64);
        assert!(t.export_prometheus().contains(SPANS_DROPPED_COUNTER));
    }

    #[test]
    fn span_count_keeps_counting_evicted_spans() {
        let (t, clock) = fixture();
        root_traces(&t, &clock, 3 * SPAN_WINDOW);
        assert_eq!(t.span_count(), 3 * SPAN_WINDOW);
        assert_eq!(t.trace_ids().len(), SPAN_WINDOW);
        // Ids stay absolute: the next span is the 3W-th recorded.
        let span = t.span("next");
        assert_eq!(span.id, 3 * SPAN_WINDOW as u64);
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
