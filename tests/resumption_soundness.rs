//! Soundness of revocation-safe TLS session resumption.
//!
//! The claims under test:
//!
//! * replaying a ticket after the fleet's certificate rotated is
//!   rejected by the server (the ticket key is derived from the chain)
//!   and the client falls back to a full handshake — which re-arms
//!   resumption under the new chain;
//! * any trust mutation (`revoke_measurement`, `set_tcb_floor`) bumps
//!   the verdict generation, so the next reconnect ignores the stored
//!   ticket and re-attests through the full path with freshly fetched
//!   evidence;
//! * a single-flight handshake's ticket bytes are a pure function of
//!   the world seed: byte-identical regardless of how many OS threads
//!   raced monitored opens beforehand.

use revelio::node::demo_app;
use revelio::world::SimWorld;
use revelio_http::client::HttpsClient;
use revelio_tls::TlsClientConfig;
use sev_snp::measurement::Measurement;
use sev_snp::verify::SIGNATURE_CHECKS_PER_VERIFY;

const DOMAIN: &str = "resume.example.org";

const RECONNECTS: &str = "revelio_extension_reconnects_total";
const RESUMED_RECONNECTS: &str = "revelio_extension_resumed_reconnects_total";
const REJECTIONS: &str = "revelio_tls_resumption_rejections_total";
const EVIDENCE_REQUESTS: &str = "revelio_node_evidence_requests_total";
const SIGNATURES: &str = "revelio_extension_signature_verifications_total";

/// A ticket earned before a certificate renewal is declined by the
/// rotated listener (its ticket key is derived from the chain), the
/// reconnect falls back to the full handshake with fresh evidence, and
/// the fallback re-arms resumption under the new chain.
#[test]
fn ticket_replay_after_cert_rotation_falls_back_to_full_handshake() {
    let mut world = SimWorld::new(0x7E51);
    let fleet = world.deploy_fleet(DOMAIN, 2, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site(DOMAIN, vec![fleet.golden_measurement]);
    let mut monitored = extension.open_monitored(DOMAIN).unwrap();

    // Sanity: with an untouched chain the reconnect resumes.
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);

    // Rotate: renew the shared chain and install it fleet-wide. The
    // fleet key is unchanged (a renewal cannot re-key), but every
    // listener re-derives its ticket key from the new chain.
    let sp = world.fleet_sp(&fleet);
    let leader = fleet.provision.leader_bootstrap.clone();
    let new_chain = sp
        .renew_certificate(&leader, &fleet.provision.chain)
        .unwrap();
    assert_ne!(
        new_chain.to_bytes(),
        fleet.provision.chain.to_bytes(),
        "renewal must produce a distinct chain"
    );
    for node in &fleet.nodes {
        sp.install_certificate(node.bootstrap_address(), &new_chain, &leader)
            .unwrap();
    }

    // The stored ticket's generation stamp is still fresh — no trust
    // mutation happened — so the client *offers* it; the server declines
    // (the old ticket key died with the old chain) and the reconnect
    // completes on the full path: a wire-level rejection, one evidence
    // fetch, no resumed reconnect.
    let rejections_before = world.telemetry.counter(REJECTIONS);
    let evidence_before = world.telemetry.counter(EVIDENCE_REQUESTS);
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);
    assert_eq!(world.telemetry.counter(REJECTIONS), rejections_before + 1);
    assert_eq!(
        world.telemetry.counter(EVIDENCE_REQUESTS),
        evidence_before + 1
    );
    assert_eq!(world.telemetry.counter(RECONNECTS), 2);

    // The fallback stored a ticket sealed under the new chain's key:
    // resumption works again without further evidence traffic.
    let evidence_before = world.telemetry.counter(EVIDENCE_REQUESTS);
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 2);
    assert_eq!(world.telemetry.counter(EVIDENCE_REQUESTS), evidence_before);
}

/// `revoke_measurement` bumps the verdict generation: the stored ticket
/// is dropped without touching the wire, and the reconnect re-attests —
/// fresh evidence fetch, full signature pipeline.
#[test]
fn resumption_after_revocation_reattests_with_fresh_evidence() {
    let mut world = SimWorld::new(0x7E52);
    let fleet = world.deploy_fleet(DOMAIN, 1, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site(DOMAIN, vec![fleet.golden_measurement]);
    let mut monitored = extension.open_monitored(DOMAIN).unwrap();
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);

    // Revoke a measurement the fleet never ran: semantically the golden
    // one stays trusted, but the generation bump must still kill the
    // ticket — invalidation is deliberately coarse.
    extension.revoke_measurement(DOMAIN, Measurement::from_bytes([0xEE; 48]));

    let rejections_before = world.telemetry.counter(REJECTIONS);
    let evidence_before = world.telemetry.counter(EVIDENCE_REQUESTS);
    let signatures_before = world.telemetry.counter(SIGNATURES);
    extension.reconnect(&mut monitored).unwrap();
    // Stale-generation drop (not a wire decline), full re-attestation:
    // one evidence fetch and the complete signature pipeline (the
    // generation bump emptied the verdict cache too).
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);
    assert_eq!(world.telemetry.counter(REJECTIONS), rejections_before + 1);
    assert_eq!(
        world.telemetry.counter(EVIDENCE_REQUESTS),
        evidence_before + 1
    );
    assert_eq!(
        world.telemetry.counter(SIGNATURES),
        signatures_before + SIGNATURE_CHECKS_PER_VERIFY
    );

    // The re-attested reconnect stamped a new entry with the bumped
    // generation: resumption is re-armed.
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 2);
}

/// A TCB-floor change is a trust mutation like any other: the next
/// reconnect takes the full path with fresh evidence even though the
/// fleet still satisfies the new floor.
#[test]
fn resumption_after_tcb_floor_change_reattests() {
    let mut world = SimWorld::new(0x7E53);
    let fleet = world.deploy_fleet(DOMAIN, 1, demo_app()).unwrap();
    let extension = world.extension();
    extension.register_site(DOMAIN, vec![fleet.golden_measurement]);
    let mut monitored = extension.open_monitored(DOMAIN).unwrap();
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);

    // Floor at exactly the fleet's reported TCB: every node still
    // passes, but the generation bumped.
    let reported = monitored.evidence().report.report.reported_tcb;
    extension.set_tcb_floor(Some(reported));

    let evidence_before = world.telemetry.counter(EVIDENCE_REQUESTS);
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 1);
    assert_eq!(
        world.telemetry.counter(EVIDENCE_REQUESTS),
        evidence_before + 1
    );

    // And re-armed under the new generation.
    extension.reconnect(&mut monitored).unwrap();
    assert_eq!(world.telemetry.counter(RESUMED_RECONNECTS), 2);
}

/// Ticket bytes are a pure function of deterministic counters (listener
/// connection ids, client ephemeral counters), never of thread timing:
/// a fixed batch of monitored opens is raced across 1/4/16 OS threads
/// against a one-node fleet, then a single-flight handshake from a
/// fresh client earns byte-identical ticket bytes across every thread
/// count.
#[test]
fn single_flight_ticket_bytes_deterministic_across_threads_and_modes() {
    /// Racing monitored opens per run — fixed, so the counters the
    /// subsequent single flight derives from are too.
    const RACING_OPENS: usize = 16;
    let mut tickets: Vec<(usize, Vec<u8>)> = Vec::new();
    for threads in [1usize, 4, 16] {
        let mut world = SimWorld::new(0x7E54);
        let fleet = world.deploy_fleet(DOMAIN, 1, demo_app()).unwrap();
        let extension = world.extension();
        extension.register_site(DOMAIN, vec![fleet.golden_measurement]);

        // Race: the fixed batch of opens striped across the
        // threads. The interleaving is nondeterministic, but every
        // open costs exactly one server connection and one client
        // ephemeral — resumed or not — so the counter totals are
        // not.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let extension = &extension;
                    s.spawn(move || {
                        let mut idx = t;
                        while idx < RACING_OPENS {
                            extension.open_monitored(DOMAIN).expect("racing open");
                            idx += threads;
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("racing thread");
            }
        });

        // Single flight: a fresh client (its own ephemeral counter)
        // performs one full handshake and keeps the issued ticket.
        let client = HttpsClient::new(
            world.net.clone(),
            world.dns.clone(),
            TlsClientConfig {
                trusted_roots: world.tls_roots(),
                clock: world.clock.clone(),
                telemetry: None,
            },
            [42; 32],
        );
        let session = client.open(DOMAIN).unwrap();
        let state = session
            .resumption_state()
            .expect("full handshake issues a ticket");
        tickets.push((threads, state.ticket.clone()));
    }
    let reference = tickets[0].1.clone();
    for (threads, ticket) in &tickets {
        assert_eq!(
            ticket, &reference,
            "single-flight ticket diverged with {threads} racing threads"
        );
    }
}
