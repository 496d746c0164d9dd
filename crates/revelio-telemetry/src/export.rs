//! The three exporters: JSON-lines event log, Prometheus-style text
//! exposition, and the per-span-tree latency-breakdown table.
//!
//! All output is deterministic: spans are emitted in id (creation) order,
//! metrics in lexicographic name order, and floats through Rust's shortest
//! round-trip formatter, so a fixed seed yields byte-identical bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Telemetry;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 the way `{:?}` does (shortest round-trip), which is
/// deterministic across platforms.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// Escapes a Prometheus label value: inside the `label="…"` quoting,
/// backslash, double-quote, and newline must be escaped.
#[must_use]
pub fn prometheus_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Builds a `name{key="value",…}` Prometheus sample name with escaped
/// label values. Labels are rendered in the order given, so a fixed call
/// site always produces the same sample name.
#[must_use]
pub fn labeled_metric(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::from(name);
    out.push('{');
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{}\"", prometheus_escape_label(value));
    }
    out.push('}');
    out
}

/// The metric-family name of a sample: everything before the label block.
fn family_of(sample_name: &str) -> &str {
    sample_name.split('{').next().unwrap_or(sample_name)
}

impl Telemetry {
    /// Exports the full registry as a JSON-lines event log: one `span`
    /// line per span in the window (id order), then `counter`, `gauge`,
    /// and `histogram` lines in name order.
    #[must_use]
    pub fn export_json_lines(&self) -> String {
        let state = self.inner.state.lock();
        let mut out = String::new();
        for span in state.spans.by_id() {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"trace\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}",
                span.id,
                span.trace_id,
                span.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                json_escape(&span.name),
                span.start_us,
                span.end_us.map_or_else(|| "null".to_string(), |e| e.to_string()),
            );
            if !span.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (i, (k, v)) in span.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        for (name, value) in &state.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json_escape(name)
            );
        }
        for (name, value) in &state.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(name),
                fmt_f64(*value)
            );
        }
        for (name, hist) in &state.histograms {
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[",
                json_escape(name),
                hist.count(),
                fmt_f64(hist.sum()),
            );
            let mut first = true;
            for (idx, count) in hist.counts().iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                let le = hist
                    .bounds()
                    .get(idx)
                    .map_or_else(|| "\"+Inf\"".to_string(), |b| fmt_f64(*b));
                let _ = write!(out, "{{\"le\":{le},\"count\":{count}}}");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Exports counters, gauges, and histograms in Prometheus text
    /// exposition format: metric families in lexicographic name order
    /// (across all three kinds), one `# TYPE` line per family, samples
    /// within a family in name order. Label values embedded in sample
    /// names via [`labeled_metric`] arrive pre-escaped; the exporter
    /// escapes the `le` values it generates itself. The output is a pure
    /// function of registry contents — byte-identical across runs.
    #[must_use]
    pub fn export_prometheus(&self) -> String {
        struct Family {
            kind: &'static str,
            samples: Vec<String>,
        }
        let state = self.inner.state.lock();
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        let mut push = |name: &str, kind: &'static str, sample: String| {
            families
                .entry(family_of(name).to_string())
                .or_insert_with(|| Family {
                    kind,
                    samples: Vec::new(),
                })
                .samples
                .push(sample);
        };
        for (name, value) in &state.counters {
            push(name, "counter", format!("{name} {value}"));
        }
        for (name, value) in &state.gauges {
            push(name, "gauge", format!("{name} {}", fmt_f64(*value)));
        }
        for (name, hist) in &state.histograms {
            let mut cumulative = 0u64;
            for (idx, count) in hist.counts().iter().enumerate() {
                cumulative += count;
                let le = hist
                    .bounds()
                    .get(idx)
                    .map_or_else(|| "+Inf".to_string(), |b| fmt_f64(*b));
                push(
                    name,
                    "histogram",
                    format!(
                        "{name}_bucket{{le=\"{}\"}} {cumulative}",
                        prometheus_escape_label(&le)
                    ),
                );
            }
            push(
                name,
                "histogram",
                format!("{name}_sum {}", fmt_f64(hist.sum())),
            );
            push(name, "histogram", format!("{name}_count {}", hist.count()));
        }
        let mut out = String::new();
        for (family, Family { kind, samples }) in &families {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for sample in samples {
                let _ = writeln!(out, "{sample}");
            }
        }
        out
    }

    /// Renders the latency-breakdown table: spans aggregated by their path
    /// in the tree (`root > child > grandchild`), in the order each path
    /// was first opened, with count / total / mean columns and
    /// indentation showing nesting depth. It covers every span finished
    /// over the registry's life, evicted ones included.
    #[must_use]
    pub fn breakdown(&self) -> String {
        self.inner.state.lock().spans.breakdown().render()
    }
}

/// One breakdown row: a path in the span tree and the finished spans
/// summed under it.
#[derive(Debug)]
struct PathRow {
    /// The path's last span name.
    name: String,
    depth: usize,
    count: u64,
    total_us: u64,
    /// Child span name → row of the extended path.
    children: BTreeMap<String, usize>,
}

/// The latency breakdown, kept as a tree of interned span-name paths.
/// Each span is interned when it opens and summed into its row when it
/// finishes, so the table needs no span to be kept once it has finished.
#[derive(Debug, Default)]
pub(crate) struct Breakdown {
    /// Rows in first-opened order.
    rows: Vec<PathRow>,
    /// Top-level span name → row.
    roots: BTreeMap<String, usize>,
}

impl Breakdown {
    /// The row of `parent`'s path extended by `name` (a top-level path
    /// without a parent), created when new. Looking up a path that
    /// already exists allocates nothing.
    pub(crate) fn intern(&mut self, parent: Option<usize>, name: &str) -> usize {
        let parent_row = parent.and_then(|p| self.rows.get(p));
        let known = match parent_row {
            Some(row) => row.children.get(name),
            None => self.roots.get(name),
        };
        if let Some(&row) = known {
            return row;
        }
        let depth = parent_row.map_or(0, |row| row.depth + 1);
        let row = self.rows.len();
        let children = match parent.and_then(|p| self.rows.get_mut(p)) {
            Some(parent_row) => &mut parent_row.children,
            None => &mut self.roots,
        };
        children.insert(name.to_string(), row);
        self.rows.push(PathRow {
            name: name.to_string(),
            depth,
            count: 0,
            total_us: 0,
            children: BTreeMap::new(),
        });
        row
    }

    /// Sums one finished span of `duration_us` into `row`.
    pub(crate) fn add(&mut self, row: usize, duration_us: u64) {
        if let Some(row) = self.rows.get_mut(row) {
            row.count += 1;
            row.total_us = row.total_us.saturating_add(duration_us);
        }
    }

    /// The table; paths none of whose spans has finished are left out.
    fn render(&self) -> String {
        let rows = || self.rows.iter().filter(|row| row.count > 0);
        let label_width = rows()
            .map(|row| row.depth * 2 + row.name.len())
            .fold("span".len(), usize::max);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<label_width$}  {:>7}  {:>12}  {:>12}",
            "span", "count", "total ms", "mean ms"
        );
        let _ = writeln!(out, "{}", "-".repeat(label_width + 37));
        for row in rows() {
            let label = format!("{}{}", "  ".repeat(row.depth), row.name);
            let total_ms = row.total_us as f64 / 1000.0;
            let _ = writeln!(
                out,
                "{label:<label_width$}  {:>7}  {:>12.3}  {:>12.3}",
                row.count,
                total_ms,
                total_ms / row.count as f64
            );
        }
        out
    }
}

/// The test binary's global allocator: the crate's only `unsafe`.
#[cfg(test)]
#[allow(unsafe_code)]
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Counts the allocations each thread makes, so one test can check
    /// that a call allocates nothing while other tests run in parallel.
    struct CountingAlloc;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Allocations made so far on this thread.
    pub(super) fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    // SAFETY: every call forwards to `System` unchanged; the counter is a
    // const-initialised thread-local without a destructor, which touches
    // neither the heap nor the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;
}

#[cfg(test)]
mod tests {
    use super::counting_alloc::allocations;
    use super::*;
    use crate::span::{SPANS_DROPPED_COUNTER, SPAN_WINDOW};
    use crate::TraceContext;
    use revelio_net::clock::SimClock;

    fn fixture() -> (Telemetry, SimClock) {
        let clock = SimClock::new();
        (Telemetry::new(clock.clone()), clock)
    }

    fn scenario(t: &Telemetry, clock: &SimClock) {
        let root = t.span_with("request", &[("path", "/pad")]);
        let child = t.span("tls.handshake");
        clock.advance_ms(3.0);
        child.finish_ms();
        let child = t.span("app");
        clock.advance_ms(2.0);
        child.finish_ms();
        root.finish_ms();
        t.counter_add("revelio_test_requests_total", 1);
        t.gauge_set("revelio_test_depth", 2.0);
        t.register_histogram("revelio_test_latency_ms", &[1.0, 5.0, 10.0])
            .unwrap();
        t.observe("revelio_test_latency_ms", 5.0);
        t.observe("revelio_test_latency_ms", 50.0);
    }

    #[test]
    fn json_lines_shape_and_determinism() {
        let (t1, c1) = fixture();
        scenario(&t1, &c1);
        let (t2, c2) = fixture();
        scenario(&t2, &c2);
        let json = t1.export_json_lines();
        assert_eq!(
            json,
            t2.export_json_lines(),
            "same scenario must export identical bytes"
        );

        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 6); // 3 spans + counter + gauge + histogram
        assert!(lines[0].starts_with(
            "{\"type\":\"span\",\"id\":0,\"trace\":1,\"parent\":null,\"name\":\"request\""
        ));
        assert!(lines[0].contains("\"attrs\":{\"path\":\"/pad\"}"));
        assert!(
            lines[1].contains("\"trace\":1"),
            "children inherit: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[3].contains("\"type\":\"counter\""));
        assert!(lines[5].contains("\"le\":\"+Inf\",\"count\":1"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let (t, _) = fixture();
        let span = t.span_with("na\"me\n", &[("k\\", "v\t")]);
        span.finish_ms();
        let json = t.export_json_lines();
        assert!(json.contains("na\\\"me\\n"));
        assert!(json.contains("\"k\\\\\":\"v\\t\""));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let (t, clock) = fixture();
        scenario(&t, &clock);
        let text = t.export_prometheus();
        assert!(text.contains("# TYPE revelio_test_requests_total counter"));
        assert!(text.contains("revelio_test_requests_total 1"));
        assert!(text.contains("# TYPE revelio_test_depth gauge"));
        assert!(text.contains("revelio_test_depth 2.0"));
        assert!(text.contains("revelio_test_latency_ms_bucket{le=\"5.0\"} 1"));
        assert!(text.contains("revelio_test_latency_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("revelio_test_latency_ms_sum 55.0"));
        assert!(text.contains("revelio_test_latency_ms_count 2"));
    }

    #[test]
    fn prometheus_families_sorted_and_labels_escaped() {
        let (t, _) = fixture();
        // Deliberately register out of lexicographic order and across
        // kinds: the export must interleave kinds into one sorted pass.
        t.counter_add("zz_total", 1);
        t.gauge_set("mm_depth", 1.5);
        t.register_histogram("aa_latency_ms", &[1.0]).unwrap();
        t.observe("aa_latency_ms", 0.5);
        t.counter_add(
            &labeled_metric("mm_events_total", &[("node", "a\\b\"c\nd")]),
            2,
        );
        let text = t.export_prometheus();
        let expected = "# TYPE aa_latency_ms histogram\n\
                        aa_latency_ms_bucket{le=\"1.0\"} 1\n\
                        aa_latency_ms_bucket{le=\"+Inf\"} 1\n\
                        aa_latency_ms_sum 0.5\n\
                        aa_latency_ms_count 1\n\
                        # TYPE mm_depth gauge\n\
                        mm_depth 1.5\n\
                        # TYPE mm_events_total counter\n\
                        mm_events_total{node=\"a\\\\b\\\"c\\nd\"} 2\n\
                        # TYPE zz_total counter\n\
                        zz_total 1\n";
        assert_eq!(text, expected);
        // Byte-identical across repeated exports of the same registry.
        assert_eq!(text, t.export_prometheus());
    }

    #[test]
    fn breakdown_aggregates_by_tree_path() {
        let (t, clock) = fixture();
        for _ in 0..2 {
            scenario(&t, &clock);
        }
        let table = t.breakdown();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("span") && lines[0].contains("mean ms"));
        assert!(lines[2].starts_with("request"));
        assert!(
            lines[3].starts_with("  tls.handshake"),
            "children indented: {table}"
        );
        assert!(lines[3].contains("2"), "two aggregated handshakes");
        assert!(lines[3].contains("3.000"), "mean of two 3 ms spans");
    }

    #[test]
    fn same_name_different_parent_rows_are_distinct() {
        let (t, clock) = fixture();
        let a = t.span("a");
        let child = t.span("shared");
        clock.advance_ms(1.0);
        child.finish_ms();
        a.finish_ms();
        let b = t.span("b");
        let child = t.span("shared");
        clock.advance_ms(5.0);
        child.finish_ms();
        b.finish_ms();
        let table = t.breakdown();
        assert_eq!(table.matches("  shared").count(), 2, "{table}");
    }

    #[test]
    fn interning_a_known_path_allocates_nothing() {
        let mut breakdown = Breakdown::default();
        let root = breakdown.intern(None, "browse");
        let child = breakdown.intern(Some(root), "tls.handshake");
        let before = allocations();
        let again = (
            breakdown.intern(None, "browse"),
            breakdown.intern(Some(root), "tls.handshake"),
        );
        assert_eq!(allocations(), before);
        assert_eq!(again, (root, child));
    }

    #[test]
    fn breakdown_is_unchanged_by_eviction() {
        let (t, clock) = fixture();
        let traces = 3 * SPAN_WINDOW;
        for _ in 0..traces {
            let root = t.span("request");
            let child = t.span("child");
            clock.advance_ms(1.0);
            child.finish_ms();
            clock.advance_ms(1.0);
            root.finish_ms();
        }
        assert!(t.counter(SPANS_DROPPED_COUNTER) > 0);
        // Every span recorded is in the table, not just the window's.
        let expected = format!(
            "span       count      total ms       mean ms\n{}\n\
             request  {traces:>7}  {:>12.3}         2.000\n\
             \x20 child  {traces:>7}  {:>12.3}         1.000\n",
            "-".repeat(44),
            2.0 * traces as f64,
            traces as f64,
        );
        assert_eq!(t.breakdown(), expected);
    }

    /// Serves one request under a `traceparent` context taken off the wire.
    fn serve(t: &Telemetry, trace_id: u64, span_id: u64) {
        let context = TraceContext { trace_id, span_id };
        t.span_with_remote_parent("http.server", &[], context)
            .finish_ms();
    }

    fn top_level_row(table: &str, name: &str) -> bool {
        table
            .lines()
            .any(|line| line.starts_with(&format!("{name} ")))
    }

    #[test]
    fn remote_parent_never_allocated_starts_its_own_path() {
        let (t, _) = fixture();
        serve(&t, 1, 17);
        let table = t.breakdown();
        assert!(top_level_row(&table, "http.server"), "{table}");
    }

    #[test]
    fn remote_parent_naming_the_span_itself_starts_its_own_path() {
        // 0 is the id the server span itself receives in a fresh registry.
        let (t, _) = fixture();
        serve(&t, 1, 0);
        let table = t.breakdown();
        assert!(top_level_row(&table, "http.server"), "{table}");
    }

    #[test]
    fn remote_parent_in_another_trace_is_foreign() {
        let (t, _) = fixture();
        t.span("unrelated").finish_ms(); // span 0, trace 1
        serve(&t, 9, 0);
        let table = t.breakdown();
        assert!(top_level_row(&table, "http.server"), "{table}");
        assert!(!table.contains("  http.server"), "{table}");
        // The same span id in its own trace is a local parent.
        serve(&t, 1, 0);
        let table = t.breakdown();
        assert!(table.contains("\nunrelated "), "{table}");
        assert!(table.contains("\n  http.server "), "{table}");
    }
}
