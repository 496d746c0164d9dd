//! The `repro --trace` scenarios: three pinned-seed runs rendered as
//! assembled cross-node trace trees.
//!
//! 1. A clean attested browse — the happy-path hop sequence.
//! 2. A browse with the KDS forced to drop the first two dials
//!    ([`FaultPlan::fail_first`]) — the retries and backoffs land inside
//!    the `kds.fetch` span, so the critical path names the faulted hop.
//! 3. A fleet provisioning with one rack partitioned away — the SP
//!    quarantines the dark node and its flight-recorder dump rides along
//!    in the [`revelio::sp::ProvisionReport`].
//!
//! Every scenario is a pure function of the pinned seeds: same seeds,
//! byte-identical flame summaries and Chrome JSON regardless of thread
//! count (the determinism suite byte-compares exactly this property).

use std::fmt::Write as _;

use revelio::kds_http::KDS_ADDRESS;
use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_net::{FaultDomain, FaultPlan};
use revelio_telemetry::{FlightDump, Telemetry, TraceAssembler};

/// World seed for all three trace scenarios.
pub const TRACE_DEMO_SEED: u64 = 0x7EAC_ED00;
/// Fabric fault-PRNG seed for the faulted and partitioned scenarios.
/// `fail_first` and a full partition are deterministic regardless, but
/// pinning the streams keeps every latency sample reproducible too.
pub const TRACE_DEMO_FAULT_SEED: u64 = 0xC4A0_5004;

/// One rendered scenario: the assembled trace plus its derived views.
#[derive(Debug, Clone)]
pub(crate) struct TraceScenario {
    /// Scenario label (`clean_browse`, `faulted_browse`,
    /// `partitioned_provision`).
    pub(crate) label: &'static str,
    /// Trace id inside that run's registry.
    pub(crate) trace_id: u64,
    /// Finished spans in the tree.
    pub(crate) span_count: usize,
    /// Hop names along the critical path, `" > "`-joined.
    pub(crate) critical_path: String,
    /// The critical-path hop with the largest self-time, `(name, µs)`.
    pub(crate) dominant_hop: Option<(String, u64)>,
    /// Indented text flame summary (ends with the `critical path:` line).
    pub(crate) flame: String,
    /// Chrome `trace_event` JSON for chrome://tracing / Perfetto.
    pub(crate) chrome_json: String,
}

impl TraceScenario {
    fn from_tree(label: &'static str, tree: &TraceAssembler) -> Self {
        TraceScenario {
            label,
            trace_id: tree.trace_id(),
            span_count: tree.span_count(),
            critical_path: tree.critical_path_names(),
            dominant_hop: tree.dominant_hop(),
            flame: tree.flame_summary(),
            chrome_json: tree.export_chrome_trace(),
        }
    }

    /// One JSON object. The Chrome export is embedded verbatim (it is
    /// already JSON).
    #[must_use]
    pub(crate) fn to_json(&self) -> String {
        let (hop, hop_us) = match &self.dominant_hop {
            Some((name, us)) => (format!("\"{name}\""), us.to_string()),
            None => ("null".to_owned(), "null".to_owned()),
        };
        format!(
            "{{\"label\":\"{}\",\"trace_id\":{},\"spans\":{},\"critical_path\":\"{}\",\
             \"dominant_hop\":{hop},\"dominant_self_us\":{hop_us},\"chrome\":{}}}",
            self.label, self.trace_id, self.span_count, self.critical_path, self.chrome_json,
        )
    }
}

/// The full `--trace` deliverable: three scenarios plus the partitioned
/// run's quarantine forensics.
#[derive(Debug, Clone)]
pub struct TraceDemoReport {
    pub(crate) clean: TraceScenario,
    pub(crate) faulted: TraceScenario,
    pub(crate) provision: TraceScenario,
    /// Nodes quarantined during the partitioned provisioning.
    pub(crate) quarantined: usize,
    /// Flight-recorder dump of the first quarantined node: the faults it
    /// saw, its retries, and the quarantine verdict.
    pub quarantine_flight: Option<FlightDump>,
}

impl TraceDemoReport {
    /// The whole report as one JSON object (`BENCH_trace.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let flight = self
            .quarantine_flight
            .as_ref()
            .map_or_else(|| "null".to_owned(), FlightDump::to_json);
        format!(
            "{{\"seed\":{},\"fault_seed\":{},\"scenarios\":[{},{},{}],\
             \"quarantined\":{},\"quarantine_flight\":{flight}}}",
            TRACE_DEMO_SEED,
            TRACE_DEMO_FAULT_SEED,
            self.clean.to_json(),
            self.faulted.to_json(),
            self.provision.to_json(),
            self.quarantined,
        )
    }

    /// Human-readable rendering: flame summaries, dominant hops, and the
    /// quarantine dump — what `repro --trace` prints and CI greps.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for scenario in [&self.clean, &self.faulted, &self.provision] {
            let _ = writeln!(out, "=== {} ===", scenario.label);
            out.push_str(&scenario.flame);
            if let Some((name, us)) = &scenario.dominant_hop {
                let _ = writeln!(out, "dominant hop: {name} ({:.3} ms)", *us as f64 / 1000.0);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "=== quarantine forensics ===");
        let _ = writeln!(out, "quarantined nodes: {}", self.quarantined);
        match &self.quarantine_flight {
            Some(dump) => out.push_str(&dump.render()),
            None => out.push_str("no flight dump (nothing quarantined)\n"),
        }
        out
    }
}

/// The last finished trace whose primary root span is named `root_name`.
/// "Last" because setup traffic (fleet deployment) allocates earlier
/// trace ids than the browse under scrutiny.
fn last_trace_with_root(telemetry: &Telemetry, root_name: &str) -> Option<TraceAssembler> {
    let mut found = None;
    for trace_id in telemetry.trace_ids() {
        let tree = telemetry.assemble_trace(trace_id);
        let is_match = tree
            .roots()
            .first()
            .and_then(|&root| tree.spans().iter().find(|s| s.id == root))
            .is_some_and(|span| span.name == root_name);
        if is_match {
            found = Some(tree);
        }
    }
    found
}

fn browse_world() -> (SimWorld, revelio::extension::WebExtension) {
    let mut world = SimWorld::new(TRACE_DEMO_SEED);
    let fleet = world
        .deploy_fleet("pad.example.org", 2, demo_app())
        .expect("trace demo fleet deploys");
    let extension = world.extension();
    extension.register_site("pad.example.org", vec![fleet.golden_measurement]);
    (world, extension)
}

/// Scenario 1: a clean cold attested browse.
fn clean_browse() -> TraceScenario {
    let (world, extension) = browse_world();
    let browse = extension.browse_classified("pad.example.org", "/");
    browse.result.expect("clean browse is attested");
    let tree =
        last_trace_with_root(&world.telemetry, "browse").expect("the browse recorded a trace");
    TraceScenario::from_tree("clean_browse", &tree)
}

/// Scenario 2: the KDS drops the first two dials. The extension's VCEK
/// fetch retries under the same `kds.fetch` span, so the two timeouts
/// and backoffs are that hop's self-time and the critical path names it.
fn faulted_browse() -> TraceScenario {
    let (world, extension) = browse_world();
    world.net.set_fault_seed(TRACE_DEMO_FAULT_SEED);
    let _ = world
        .net
        .peer(KDS_ADDRESS)
        .fault_plan(FaultPlan::fail_first(2));
    let browse = extension.browse_classified("pad.example.org", "/");
    browse.result.expect("retries ride through the KDS faults");
    let tree = last_trace_with_root(&world.telemetry, "browse")
        .expect("the faulted browse recorded a trace");
    TraceScenario::from_tree("faulted_browse", &tree)
}

/// Scenario 3: one rack is partitioned away during provisioning; the SP
/// quarantines the dark node and attaches its flight dump.
fn partitioned_provision() -> (TraceScenario, usize, Option<FlightDump>) {
    let mut world = SimWorld::new(TRACE_DEMO_SEED);
    world.net.set_fault_seed(TRACE_DEMO_FAULT_SEED);
    world.net.install_fault_domain(FaultDomain::partition(
        "rack-114",
        &SimWorld::subnet_prefix(114),
    ));
    let fleet = world
        .deploy_fleet_in_subnets("pad.example.org", &[(113, 3), (114, 1)], demo_app())
        .expect("the fleet survives minus the dark rack");
    let quarantined = fleet.provision.quarantined.len();
    let dump = fleet
        .provision
        .quarantined
        .first()
        .and_then(|q| q.flight.clone());
    let tree = last_trace_with_root(&world.telemetry, "world.deploy_fleet")
        .expect("deployment recorded a trace");
    (
        TraceScenario::from_tree("partitioned_provision", &tree),
        quarantined,
        dump,
    )
}

/// Runs all three scenarios. Pure function of the pinned seeds.
#[must_use]
pub fn run_trace_demo() -> TraceDemoReport {
    let clean = clean_browse();
    let faulted = faulted_browse();
    let (provision, quarantined, quarantine_flight) = partitioned_provision();
    TraceDemoReport {
        clean,
        faulted,
        provision,
        quarantined,
        quarantine_flight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_browse_walks_the_attestation_hops() {
        let scenario = clean_browse();
        assert!(
            scenario
                .critical_path
                .starts_with("browse > browse.attestation"),
            "critical path was {}",
            scenario.critical_path
        );
        let names: Vec<&str> = scenario.flame.lines().collect();
        let flame = names.join("\n");
        for hop in ["browse", "tls.handshake", "http.server", "kds.fetch"] {
            assert!(flame.contains(hop), "flame summary misses {hop}:\n{flame}");
        }
    }

    #[test]
    fn faulted_browse_blames_the_kds_hop() {
        let scenario = faulted_browse();
        let (hop, self_us) = scenario.dominant_hop.expect("faulted trace has hops");
        assert_eq!(
            hop, "kds.fetch",
            "critical path: {}",
            scenario.critical_path
        );
        // Two timeouts plus backoffs are way beyond the modelled 427 ms
        // round trip of a clean fetch.
        assert!(self_us > 1_000_000, "kds.fetch self-time {self_us} µs");
        assert!(scenario.critical_path.contains("kds.fetch"));
    }

    #[test]
    fn partitioned_provision_carries_a_flight_dump() {
        let (scenario, quarantined, dump) = partitioned_provision();
        assert_eq!(quarantined, 1);
        let dump = dump.expect("the quarantined node dumped its ring");
        let rendered = dump.render();
        assert!(rendered.contains("quarantined at"), "dump:\n{rendered}");
        assert!(
            dump.events.iter().any(|e| e.kind == "fault"),
            "the dark node saw its injected faults"
        );
        assert!(
            scenario.critical_path.contains("sp."),
            "path: {}",
            scenario.critical_path
        );
    }

    #[test]
    fn report_json_and_render_are_complete() {
        let report = run_trace_demo();
        let json = report.to_json();
        for key in [
            "\"scenarios\"",
            "\"clean_browse\"",
            "\"faulted_browse\"",
            "\"partitioned_provision\"",
            "\"quarantine_flight\"",
            "\"traceEvents\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        let text = report.render();
        assert!(text.contains("critical path: browse"));
        assert!(text.contains("dominant hop: kds.fetch"));
        assert!(text.contains("quarantined nodes: 1"));
    }
}
