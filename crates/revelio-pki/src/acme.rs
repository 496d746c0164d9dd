//! An ACME-style automated CA (the Let's Encrypt role, paper §2.2) with
//! DNS-01 domain validation and per-domain issuance rate limits (§3.4.6).
//!
//! The rate limit is the design force behind Revelio's shared-certificate
//! scheme: a fleet of Revelio VMs serving one domain cannot each request
//! their own certificate, so the service provider's SP node obtains one
//! certificate for a chosen leader CSR and distributes the private key to
//! attested peers.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_crypto::sha2::Sha256;
use revelio_net::clock::SimClock;
use revelio_net::dns::DnsZone;
use revelio_telemetry::Telemetry;

use crate::ca::CertificateAuthority;
use crate::cert::{Certificate, CertificateChain, CertificateSigningRequest};
use crate::PkiError;

/// Issuance policy of the automated CA.
#[derive(Debug, Clone)]
pub struct AcmePolicy {
    /// Maximum certificates per registered domain per window (Let's
    /// Encrypt: 50 per week).
    pub(crate) certificates_per_window: u32,
    /// Window length in simulated milliseconds (Let's Encrypt: 7 days).
    pub(crate) window_ms: u64,
    /// Certificate lifetime in simulated milliseconds (90 days).
    pub(crate) lifetime_ms: u64,
}

impl Default for AcmePolicy {
    fn default() -> Self {
        AcmePolicy {
            certificates_per_window: 50,
            window_ms: 7 * 24 * 3600 * 1000,
            lifetime_ms: 90 * 24 * 3600 * 1000,
        }
    }
}

/// A pending DNS-01 challenge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DnsChallenge {
    /// The domain under validation.
    pub(crate) domain: String,
    /// DNS name where the token must appear
    /// (`_acme-challenge.<domain>`).
    pub(crate) record_name: String,
    /// The token to publish as a TXT record.
    pub(crate) token: String,
}

#[derive(Default)]
struct IssuanceLog {
    /// domain → timestamps (ms) of issued certificates in rough order.
    issued: HashMap<String, Vec<u64>>,
    challenge_counter: u64,
}

/// The automated certificate authority.
#[derive(Clone)]
pub struct AcmeCa {
    ca: CertificateAuthority,
    intermediate: CertificateAuthority,
    intermediate_cert: Certificate,
    policy: AcmePolicy,
    clock: SimClock,
    dns: DnsZone,
    log: Arc<Mutex<IssuanceLog>>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for AcmeCa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcmeCa")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl AcmeCa {
    /// Creates an automated CA with a root and one intermediate (the Let's
    /// Encrypt structure browsers see).
    #[must_use]
    pub fn new(
        name: &str,
        key_seed: [u8; 32],
        policy: AcmePolicy,
        clock: SimClock,
        dns: DnsZone,
    ) -> Self {
        let ca = CertificateAuthority::new_root(&format!("{name} Root"), key_seed);
        let mut inter_seed = key_seed;
        inter_seed[0] ^= 0x77;
        let (intermediate, intermediate_cert) =
            ca.issue_intermediate(&format!("{name} Intermediate"), inter_seed, 0, u64::MAX);
        AcmeCa {
            ca,
            intermediate,
            intermediate_cert,
            policy,
            telemetry: Telemetry::new(clock.clone()),
            clock,
            dns,
            log: Arc::new(Mutex::new(IssuanceLog::default())),
        }
    }

    /// Records the `acme.order` span and issuance counters of every
    /// [`AcmeCa::order_certificate`] call into `telemetry` instead of the
    /// CA's private registry.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The root certificate browsers/clients pin.
    #[must_use]
    pub fn root_certificate(&self) -> Certificate {
        self.ca.certificate()
    }

    /// Starts a DNS-01 challenge for `csr`'s domain.
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::SignatureInvalid`] for a CSR whose proof of
    /// possession fails.
    pub(crate) fn begin_challenge(
        &self,
        csr: &CertificateSigningRequest,
    ) -> Result<DnsChallenge, PkiError> {
        csr.verify()?;
        let mut log = self.log.lock();
        log.challenge_counter += 1;
        let token_input = format!("{}/{}", csr.domain, log.challenge_counter);
        let token = revelio_crypto::hex::encode(&Sha256::digest(token_input.as_bytes())[..16]);
        Ok(DnsChallenge {
            record_name: format!("_acme-challenge.{}", csr.domain),
            domain: csr.domain.clone(),
            token,
        })
    }

    /// Completes a challenge and issues the certificate chain.
    ///
    /// The account holder must have published `challenge.token` as a TXT
    /// record at `challenge.record_name` (the SP node holds the DNS API
    /// credentials in Revelio's deployment, §3.4.6).
    ///
    /// # Errors
    ///
    /// Returns [`PkiError::ChallengeFailed`] when the token is absent and
    /// [`PkiError::RateLimited`] when the domain exhausted its window.
    pub(crate) fn finish_challenge(
        &self,
        csr: &CertificateSigningRequest,
        challenge: &DnsChallenge,
    ) -> Result<CertificateChain, PkiError> {
        if challenge.domain != csr.domain {
            return Err(PkiError::ChallengeFailed(csr.domain.clone()));
        }
        if !self
            .dns
            .txt(&challenge.record_name)
            .iter()
            .any(|t| t == &challenge.token)
        {
            return Err(PkiError::ChallengeFailed(csr.domain.clone()));
        }

        let now = self.clock.now_us() / 1000;
        {
            let mut log = self.log.lock();
            let entry = log.issued.entry(csr.domain.clone()).or_default();
            entry.retain(|&t| now.saturating_sub(t) < self.policy.window_ms);
            if entry.len() as u32 >= self.policy.certificates_per_window {
                let oldest = entry.iter().copied().min().unwrap_or(now);
                return Err(PkiError::RateLimited {
                    domain: csr.domain.clone(),
                    retry_at_ms: oldest + self.policy.window_ms,
                });
            }
            entry.push(now);
        }

        let leaf = self
            .intermediate
            .issue_for_csr(csr, now, now + self.policy.lifetime_ms)?;
        Ok(CertificateChain {
            leaf,
            intermediates: vec![self.intermediate_cert.clone()],
        })
    }

    /// Convenience: run the full order (challenge → publish TXT → issue).
    /// This is what `certbot` automates for a server operator.
    ///
    /// # Errors
    ///
    /// As for `AcmeCa::begin_challenge` / `AcmeCa::finish_challenge`.
    pub fn order_certificate(
        &self,
        csr: &CertificateSigningRequest,
    ) -> Result<CertificateChain, PkiError> {
        let span = self
            .telemetry
            .span_with("acme.order", &[("domain", &csr.domain)]);
        let result = self.begin_challenge(csr).and_then(|challenge| {
            self.dns.set_txt(&challenge.record_name, &challenge.token);
            let result = self.finish_challenge(csr, &challenge);
            self.dns.clear_txt(&challenge.record_name);
            result
        });
        let ms = span.finish_ms();
        self.telemetry.observe("revelio_pki_acme_order_ms", ms);
        let outcome = match &result {
            Ok(_) => "revelio_pki_acme_certificates_issued_total",
            Err(PkiError::RateLimited { .. }) => "revelio_pki_acme_orders_rate_limited_total",
            Err(_) => "revelio_pki_acme_order_failures_total",
        };
        self.telemetry.counter_add(outcome, 1);
        result
    }

    /// Renews the fleet certificate by running a fresh order for the same
    /// CSR. ACME has no distinct renewal verb — a renewal *is* an order,
    /// and it shares the domain's rate-limit window, which is exactly why
    /// the reconciler renews ahead of expiry instead of at it (a
    /// rate-limited renewal still leaves the old certificate serving).
    ///
    /// # Errors
    ///
    /// As for [`AcmeCa::order_certificate`].
    pub fn renew_certificate(
        &self,
        csr: &CertificateSigningRequest,
    ) -> Result<CertificateChain, PkiError> {
        let result = self.order_certificate(csr);
        if result.is_ok() {
            self.telemetry
                .counter_add("revelio_pki_acme_renewals_total", 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_crypto::ed25519::SigningKey;

    fn setup(policy: AcmePolicy) -> (AcmeCa, DnsZone, SimClock) {
        let clock = SimClock::new();
        let dns = DnsZone::new();
        let ca = AcmeCa::new("SimEncrypt", [3; 32], policy, clock.clone(), dns.clone());
        (ca, dns, clock)
    }

    fn csr(domain: &str, seed: u8) -> CertificateSigningRequest {
        let key = SigningKey::from_seed(&[seed; 32]);
        CertificateSigningRequest::new(domain, &key, "Org", "CH")
    }

    #[test]
    fn full_order_issues_valid_chain() {
        let (ca, _, clock) = setup(AcmePolicy::default());
        let csr = csr("pad.example.org", 1);
        let chain = ca.order_certificate(&csr).unwrap();
        chain
            .validate(&[ca.root_certificate()], clock.now_us() / 1000)
            .unwrap();
        assert_eq!(chain.leaf().subject, "pad.example.org");
        assert_eq!(chain.leaf().public_key, csr.public_key);
    }

    #[test]
    fn challenge_without_txt_record_fails() {
        let (ca, _, _) = setup(AcmePolicy::default());
        let csr = csr("pad.example.org", 1);
        let challenge = ca.begin_challenge(&csr).unwrap();
        // TXT never published.
        assert!(matches!(
            ca.finish_challenge(&csr, &challenge),
            Err(PkiError::ChallengeFailed(_))
        ));
    }

    #[test]
    fn wrong_token_fails() {
        let (ca, dns, _) = setup(AcmePolicy::default());
        let csr = csr("pad.example.org", 1);
        let challenge = ca.begin_challenge(&csr).unwrap();
        dns.set_txt(&challenge.record_name, "wrong-token");
        assert!(ca.finish_challenge(&csr, &challenge).is_err());
    }

    #[test]
    fn rate_limit_enforced_and_window_slides() {
        let policy = AcmePolicy {
            certificates_per_window: 2,
            window_ms: 1000,
            lifetime_ms: 10_000,
        };
        let (ca, _, clock) = setup(policy);
        let csr = csr("pad.example.org", 1);
        ca.order_certificate(&csr).unwrap();
        ca.order_certificate(&csr).unwrap();
        let err = ca.order_certificate(&csr).unwrap_err();
        assert!(matches!(err, PkiError::RateLimited { .. }));

        // After the window slides, issuance works again.
        clock.advance_ms(1500.0);
        ca.order_certificate(&csr).unwrap();
    }

    #[test]
    fn rate_limit_is_per_domain() {
        let policy = AcmePolicy {
            certificates_per_window: 1,
            window_ms: 1000,
            lifetime_ms: 10_000,
        };
        let (ca, _, _) = setup(policy);
        ca.order_certificate(&csr("a.example.org", 1)).unwrap();
        assert!(ca.order_certificate(&csr("a.example.org", 1)).is_err());
        // A different domain is unaffected.
        ca.order_certificate(&csr("b.example.org", 2)).unwrap();
    }

    #[test]
    fn certificate_expires_after_lifetime() {
        let policy = AcmePolicy {
            lifetime_ms: 1000,
            ..AcmePolicy::default()
        };
        let (ca, _, clock) = setup(policy);
        let chain = ca.order_certificate(&csr("a.example.org", 1)).unwrap();
        chain
            .validate(&[ca.root_certificate()], clock.now_us() / 1000)
            .unwrap();
        clock.advance_ms(2000.0);
        assert!(matches!(
            chain.validate(&[ca.root_certificate()], clock.now_us() / 1000),
            Err(PkiError::Expired { .. })
        ));
    }
}
