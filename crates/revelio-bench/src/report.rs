//! The one record every `repro` harness emits: named metrics, the
//! dimensions they were measured at, and the gates they must pass.
//!
//! Serialization ([`BenchReport::to_json`], the `BENCH_<mode>.json`
//! payload), the printed table ([`BenchReport::render`]) and gate
//! evaluation ([`BenchReport::failures`]) are written once here; a
//! harness only pushes metrics and declares its gates as data.

use std::fmt::Write as _;

/// Which clock a metric was read from — it decides how the value prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: deterministic per seed, printed with three
    /// decimals.
    Sim,
    /// Wall-clock time (or a rate derived from it) measured on this
    /// host: noisy, printed with three decimals.
    Wall,
    /// An exact quantity read off counters — a count, a 0/1 flag or a
    /// ratio of counts. Printed exactly, so whole values print as
    /// integers.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
            Clock::Count => "count",
        }
    }

    fn format(self, value: f64) -> String {
        match self {
            Clock::Sim | Clock::Wall => format!("{value:.3}"),
            Clock::Count => format!("{value}"),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Identifier, unique within the report (`[a-z0-9_.]`).
    pub name: String,
    /// Unit label (`"us"`, `"ms"`, `"1/s"`, `"bool"`, …).
    pub unit: &'static str,
    /// The clock the value was read from.
    pub clock: Clock,
    /// The value.
    pub value: f64,
}

/// How a gated metric must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Strictly less than the bound.
    Lt,
    /// At most the bound.
    Le,
    /// Exactly the bound.
    Eq,
    /// At least the bound.
    Ge,
    /// Strictly greater than the bound.
    Gt,
}

impl Cmp {
    /// The comparison as printed in gate lines and JSON.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ge => ">=",
            Cmp::Gt => ">",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Lt => value < bound,
            Cmp::Le => value <= bound,
            Cmp::Eq => value == bound,
            Cmp::Ge => value >= bound,
            Cmp::Gt => value > bound,
        }
    }
}

/// What a gated metric is compared against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A fixed number.
    Value(f64),
    /// Another metric of the same report.
    Metric(&'static str),
}

/// One acceptance condition: `metric cmp bound` must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// The gated metric's name.
    pub metric: &'static str,
    /// The comparison.
    pub cmp: Cmp,
    /// The bound.
    pub bound: Bound,
}

impl Gate {
    /// A gate against a fixed number.
    #[must_use]
    pub const fn value(metric: &'static str, cmp: Cmp, bound: f64) -> Self {
        Gate {
            metric,
            cmp,
            bound: Bound::Value(bound),
        }
    }

    /// A gate against another metric.
    #[must_use]
    pub const fn metric(metric: &'static str, cmp: Cmp, other: &'static str) -> Self {
        Gate {
            metric,
            cmp,
            bound: Bound::Metric(other),
        }
    }
}

/// One harness run: its mode, dimensions, metrics and gates.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Harness name (`fleet`, `swarm`, `reconcile`, `chaos`); also the
    /// `BENCH_<mode>.json` file stem.
    pub mode: &'static str,
    /// The dimensions the run used, in declaration order.
    pub dims: Vec<(&'static str, u64)>,
    /// The measurements, in the order the harness took them.
    pub metrics: Vec<Metric>,
    /// The conditions the metrics must meet.
    pub gates: Vec<Gate>,
    /// The run's determinism witness, when it has one (hex SHA-256).
    pub transcript_sha256: Option<String>,
}

impl BenchReport {
    /// An empty report for `mode` at `dims`.
    #[must_use]
    pub fn new(mode: &'static str, dims: &[(&'static str, u64)]) -> Self {
        BenchReport {
            mode,
            dims: dims.to_vec(),
            metrics: Vec::new(),
            gates: Vec::new(),
            transcript_sha256: None,
        }
    }

    fn push(&mut self, name: impl Into<String>, unit: &'static str, clock: Clock, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            clock,
            value,
        });
    }

    /// Appends a sim-clock metric.
    pub fn sim(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, Clock::Sim, value);
    }

    /// Appends a wall-clock metric.
    pub fn wall(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, Clock::Wall, value);
    }

    /// Appends an exact counter-derived metric.
    pub fn count(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, Clock::Count, value);
    }

    /// Appends a yes/no outcome as a 0/1 count.
    pub fn flag(&mut self, name: impl Into<String>, value: bool) {
        self.count(name, "bool", f64::from(u8::from(value)));
    }

    /// The named metric's value.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.find(name).map(|m| m.value)
    }

    fn find(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Evaluates one gate: `Ok` with the PASS description, `Err` with the
    /// FAIL one. Both name the metric, the comparison and the bound, with
    /// the values they held. A gate naming an unreported metric fails.
    fn check(&self, gate: &Gate) -> Result<String, String> {
        let Some(metric) = self.find(gate.metric) else {
            return Err(format!("{}: metric not reported", gate.metric));
        };
        let (bound, bound_text) = match gate.bound {
            Bound::Value(v) => (v, format!("{v}")),
            Bound::Metric(name) => match self.find(name) {
                Some(other) => (
                    other.value,
                    format!("{name} ({})", other.clock.format(other.value)),
                ),
                None => return Err(format!("{}: bound metric {name} not reported", gate.metric)),
            },
        };
        let text = format!(
            "{} ({}) {} {bound_text}",
            gate.metric,
            metric.clock.format(metric.value),
            gate.cmp.symbol(),
        );
        if gate.cmp.holds(metric.value, bound) {
            Ok(text)
        } else {
            Err(text)
        }
    }

    /// One message per failed gate; empty when every gate holds.
    #[must_use]
    pub fn failures(&self) -> Vec<String> {
        self.gates
            .iter()
            .filter_map(|g| self.check(g).err())
            .collect()
    }

    /// The report as one JSON object. Metric values print as in
    /// [`render`](Self::render); every gate carries its verdict.
    #[must_use]
    pub fn to_json(&self) -> String {
        let dims: Vec<String> = self
            .dims
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"clock\":\"{}\",\"value\":{}}}",
                    m.name,
                    m.unit,
                    m.clock.label(),
                    m.clock.format(m.value),
                )
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|gate| {
                let bound = match gate.bound {
                    Bound::Value(v) => format!("{v}"),
                    Bound::Metric(name) => format!("\"{name}\""),
                };
                format!(
                    "{{\"metric\":\"{}\",\"cmp\":\"{}\",\"bound\":{bound},\"pass\":{}}}",
                    gate.metric,
                    gate.cmp.symbol(),
                    self.check(gate).is_ok(),
                )
            })
            .collect();
        let transcript = self
            .transcript_sha256
            .as_ref()
            .map_or_else(|| "null".to_owned(), |hex| format!("\"{hex}\""));
        format!(
            "{{\"mode\":\"{}\",\"dims\":{{{}}},\"metrics\":[{}],\"gates\":[{}],\
             \"transcript_sha256\":{transcript}}}\n",
            self.mode,
            dims.join(","),
            metrics.join(","),
            gates.join(","),
        )
    }

    /// The printed form: dimensions, one metric table, the transcript
    /// digest, and one PASS/FAIL line per gate.
    #[must_use]
    pub fn render(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let mut out = format!("({})\n", dims.join(", "));
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let unit_width = self
            .metrics
            .iter()
            .map(|m| m.unit.len())
            .max()
            .unwrap_or(0)
            .max(4);
        let _ = writeln!(
            out,
            "{:<width$} {:>18}  {:<unit_width$}  clock",
            "metric", "value", "unit"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<width$} {:>18}  {:<unit_width$}  {}",
                m.name,
                m.clock.format(m.value),
                m.unit,
                m.clock.label(),
            );
        }
        if let Some(hex) = &self.transcript_sha256 {
            let _ = writeln!(out, "transcript sha256: {hex}");
        }
        for gate in &self.gates {
            let _ = match self.check(gate) {
                Ok(text) => writeln!(out, "PASS {text}"),
                Err(text) => writeln!(out, "FAIL {text}"),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report holding `values` as count metrics, gated by `gates`.
    fn report(gates: Vec<Gate>, values: &[(&'static str, f64)]) -> BenchReport {
        let mut report = BenchReport::new("test", &[]);
        for &(name, value) in values {
            report.count(name, "x", value);
        }
        report.gates = gates;
        report
    }

    /// A value of `gate.metric` just on the failing side of `bound`.
    fn just_across(cmp: Cmp, bound: f64) -> f64 {
        let step = bound.abs() * 1e-9 + 1e-9;
        match cmp {
            Cmp::Lt | Cmp::Gt => bound,
            Cmp::Le | Cmp::Eq => bound + step,
            Cmp::Ge => bound - step,
        }
    }

    #[test]
    fn every_gate_trips_alone_just_across_its_bound() {
        // Each mode's gate list next to metric values at which it passes.
        let table = [
            (
                "swarm",
                crate::swarm::gates(),
                vec![
                    ("hot_sessions", 64.0),
                    ("cold_verify_p50_us", 900.0),
                    ("session_p50_us", 40.0),
                    ("cache_hit_rate", 1.0),
                    ("signature_checks", 0.0),
                    ("tls_binding_checks", 64.0),
                    ("full_reconnect_p50_us", 800.0),
                    ("resumed_reconnect_p50_us", 90.0),
                    ("resumed_reconnects", 32.0),
                    ("resumption_rate", 1.0),
                    ("resumed_scalar_muls", 32.0),
                    ("resumed_evidence_fetches", 0.0),
                    ("post_bump_resumptions", 0.0),
                    ("post_bump_evidence_fetches", 1.0),
                ],
            ),
            (
                "reconcile",
                crate::reconcile::gates(200),
                vec![
                    ("upgrade_converged", 1.0),
                    ("canary_first", 1.0),
                    ("leader_last", 1.0),
                    ("drift_halted", 1.0),
                    ("diverging_named", 1.0),
                    ("drift_resumed", 1.0),
                    ("flap_quarantines", 6.0),
                    ("flap_readmissions", 6.0),
                    ("flap_residual_quarantined", 0.0),
                    ("renewals", 2.0),
                    ("expiry_violations", 0.0),
                    ("distinct_digests", 1.0),
                ],
            ),
            (
                "fleet",
                crate::fabric::gates(),
                // At the bound: `<=` must include it.
                vec![("p50_overhead_percent", 10.0)],
            ),
        ];
        for (mode, gates, values) in table {
            let passing = report(gates.clone(), &values);
            assert_eq!(passing.failures(), Vec::<String>::new(), "{mode}");
            for gate in &gates {
                let bound = match gate.bound {
                    Bound::Value(v) => v,
                    Bound::Metric(name) => passing.metric(name).expect("bound metric in table"),
                };
                let mut moved = passing.clone();
                moved
                    .metrics
                    .iter_mut()
                    .find(|m| m.name == gate.metric)
                    .expect("gated metric in table")
                    .value = just_across(gate.cmp, bound);
                let failures = moved.failures();
                assert_eq!(failures.len(), 1, "{mode} {gate:?}: {failures:?}");
                let message = &failures[0];
                let bound_text = match gate.bound {
                    Bound::Value(v) => format!("{v}"),
                    Bound::Metric(name) => name.to_owned(),
                };
                for part in [gate.metric, gate.cmp.symbol(), bound_text.as_str()] {
                    assert!(
                        message.contains(part),
                        "{mode}: {part:?} not in {message:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gate_on_an_unreported_metric_fails() {
        let gates = vec![Gate::value("missing", Cmp::Eq, 0.0)];
        let failures = report(gates, &[]).failures();
        assert_eq!(failures, vec!["missing: metric not reported".to_owned()]);
    }

    #[test]
    fn serialization_is_stable_and_prints_counts_exactly_and_sim_fixed() {
        let build = || {
            let mut report = BenchReport::new("demo", &[("nodes", 4), ("seed", 0xC4A0_5004)]);
            report.count("faults", "faults", 9.0);
            report.sim("evidence_retrieval_ms", "ms", 150.332_01);
            report.sim("whole_ms", "ms", 2.0);
            report.wall("p50_us", "us", 0.25);
            report.flag("converged", true);
            report.gates = vec![
                Gate::value("faults", Cmp::Ge, 1.0),
                Gate::metric("p50_us", Cmp::Lt, "whole_ms"),
            ];
            report.transcript_sha256 = Some("ab12".to_owned());
            report
        };
        let json = build().to_json();
        assert_eq!(json, build().to_json());
        assert_eq!(
            json,
            concat!(
                "{\"mode\":\"demo\",\"dims\":{\"nodes\":4,\"seed\":3298840580},\"metrics\":[",
                "{\"name\":\"faults\",\"unit\":\"faults\",\"clock\":\"count\",\"value\":9},",
                "{\"name\":\"evidence_retrieval_ms\",\"unit\":\"ms\",\"clock\":\"sim\",",
                "\"value\":150.332},",
                "{\"name\":\"whole_ms\",\"unit\":\"ms\",\"clock\":\"sim\",\"value\":2.000},",
                "{\"name\":\"p50_us\",\"unit\":\"us\",\"clock\":\"wall\",\"value\":0.250},",
                "{\"name\":\"converged\",\"unit\":\"bool\",\"clock\":\"count\",\"value\":1}],",
                "\"gates\":[{\"metric\":\"faults\",\"cmp\":\">=\",\"bound\":1,\"pass\":true},",
                "{\"metric\":\"p50_us\",\"cmp\":\"<\",\"bound\":\"whole_ms\",\"pass\":true}],",
                "\"transcript_sha256\":\"ab12\"}\n"
            )
        );
        let rendered = build().render();
        assert!(rendered.contains("PASS faults (9) >= 1\n"), "{rendered}");
        assert!(
            rendered.contains("PASS p50_us (0.250) < whole_ms (2.000)\n"),
            "{rendered}"
        );
    }
}
