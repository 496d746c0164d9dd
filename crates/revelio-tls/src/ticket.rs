//! Session tickets for resumption (the TLS-1.3 PSK analogue).
//!
//! A full handshake ends with the server handing the client an opaque,
//! AEAD-sealed **ticket** containing the connection's resumption secret.
//! A later [`crate::TlsClient::connect_resumed`] offers the ticket in its
//! `ClientHello`; a server that can open it skips the entire asymmetric
//! flight — no X25519, no transcript signature, no certificate chain —
//! and derives fresh traffic keys from the resumption secret and the new
//! randoms. A server that cannot open it (rotated ticket key, tampered
//! bytes) silently falls back to the full handshake, so a stale ticket
//! costs one declined offer, never a connection failure.
//!
//! # The ticket key
//!
//! The sealing key is **derived, not stored**:
//! `HMAC(tls-seed, "revelio-ticket-key/v1" ‖ SHA-256(chain))`. Two
//! properties fall out:
//!
//! * **fleet-shared** — Revelio fleets share one TLS key and one
//!   certificate chain across attested VMs (§3.4.6), so every node
//!   derives the *same* ticket key and any node can resume a session
//!   started on any other (DNS round-robin keeps its resumption rate);
//! * **rotating** — a certificate renewal / `install_cert` changes the
//!   chain, hence the key, hence every outstanding ticket dies with the
//!   certificate it was issued under. Replaying a pre-rotation ticket is
//!   an AEAD failure, not a policy decision that could be gotten wrong.
//!
//! The ticket is *not* covered by the handshake transcript signature: its
//! integrity is the AEAD's job, and the worst a tamperer achieves is a
//! declined resumption (a safe fallback, not a downgrade — the full
//! handshake it falls back to is signature-authenticated as always).

use revelio_crypto::aead::ChaCha20Poly1305;
use revelio_crypto::ed25519::SigningKey;
use revelio_crypto::hmac::Hmac;
use revelio_crypto::sha2::Sha256;
use revelio_pki::cert::CertificateChain;

use crate::TlsError;

/// Length of the ticket key and the resumption secret, bytes.
pub(crate) const SECRET_LEN: usize = 32;

/// Ticket wire prefix (versioned so a future format can coexist).
const TICKET_MAGIC: &[u8; 4] = b"TKT1";

/// AEAD associated data binding the ciphertext to its purpose.
const TICKET_AAD: &[u8] = b"revelio-session-ticket/v1";

/// Derives the fleet-shared, chain-rotating ticket sealing key.
///
/// Deterministic in (TLS key seed, certificate chain): every node holding
/// the shared identity computes the same key, and any chain change —
/// renewal, reissue, `install_cert` — rotates it, invalidating all
/// outstanding tickets at once. No group operations: safe to call on the
/// zero-scalar-multiplication resumed path (in practice it is computed
/// once per listener).
#[must_use]
pub(crate) fn derive_ticket_key(key: &SigningKey, chain: &CertificateChain) -> [u8; SECRET_LEN] {
    let mut mac = Hmac::<Sha256>::new(key.seed());
    mac.update(b"revelio-ticket-key/v1");
    mac.update(&Sha256::digest(chain.to_bytes()));
    mac.finalize_fixed()
}

/// Seals `secret` into an opaque ticket under `ticket_key`.
///
/// `nonce` must be unique per issuance under one key (the server derives
/// it from its entropy seed and connection counter); it travels inside
/// the ticket so any fleet node can open it.
#[must_use]
pub(crate) fn seal_ticket(
    ticket_key: &[u8; SECRET_LEN],
    nonce: &[u8; 12],
    secret: &[u8; SECRET_LEN],
) -> Vec<u8> {
    let aead = ChaCha20Poly1305::new(ticket_key);
    let mut out = Vec::with_capacity(TICKET_MAGIC.len() + nonce.len() + SECRET_LEN + 16);
    out.extend_from_slice(TICKET_MAGIC);
    out.extend_from_slice(nonce);
    out.extend_from_slice(&aead.seal(nonce, TICKET_AAD, secret));
    out
}

/// Opens a ticket, returning the resumption secret it seals.
///
/// # Errors
///
/// Returns [`TlsError::Handshake`] for a malformed ticket or one sealed
/// under a different (rotated) ticket key — the caller falls back to the
/// full handshake either way.
pub(crate) fn open_ticket(
    ticket_key: &[u8; SECRET_LEN],
    ticket: &[u8],
) -> Result<[u8; SECRET_LEN], TlsError> {
    let body = ticket
        .strip_prefix(&TICKET_MAGIC[..])
        .ok_or_else(|| TlsError::Handshake("not a session ticket".into()))?;
    let Some((nonce, sealed)) = body.split_first_chunk::<12>() else {
        return Err(TlsError::Handshake("truncated session ticket".into()));
    };
    let aead = ChaCha20Poly1305::new(ticket_key);
    let secret = aead
        .open(nonce, TICKET_AAD, sealed)
        .map_err(|_| TlsError::Handshake("ticket does not open under this key".into()))?;
    secret
        .try_into()
        .map_err(|_| TlsError::Handshake("ticket seals a malformed secret".into()))
}

/// The server's proof-of-possession in a resumed handshake: an HMAC over
/// both randoms under the resumption secret. It plays the role the
/// transcript signature plays in a full handshake — without it, anyone
/// could echo an abbreviated hello and leave the client talking to a
/// peer that never knew the secret (detected only at the first record).
#[must_use]
pub(crate) fn resumption_confirm(
    secret: &[u8; SECRET_LEN],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> [u8; 32] {
    let mut mac = Hmac::<Sha256>::new(secret);
    mac.update(b"resumption-confirm/v1");
    mac.update(client_random);
    mac.update(server_random);
    mac.finalize_fixed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_pki::ca::CertificateAuthority;
    use revelio_pki::cert::CertificateSigningRequest;

    fn chain(ca_seed: [u8; 32]) -> (SigningKey, CertificateChain) {
        let ca = CertificateAuthority::new_root("R", ca_seed);
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateSigningRequest::new("a.example", &key, "O", "C");
        let chain = CertificateChain {
            leaf: ca.issue_for_csr(&csr, 0, 100).unwrap(),
            intermediates: Vec::new(),
        };
        (key, chain)
    }

    #[test]
    fn seal_open_roundtrip() {
        let (key, chain) = chain([1; 32]);
        let tk = derive_ticket_key(&key, &chain);
        let secret = [7u8; 32];
        let ticket = seal_ticket(&tk, &[9; 12], &secret);
        assert_eq!(open_ticket(&tk, &ticket).unwrap(), secret);
    }

    #[test]
    fn ticket_key_is_deterministic_across_nodes() {
        let (key, chain) = chain([1; 32]);
        assert_eq!(
            derive_ticket_key(&key, &chain),
            derive_ticket_key(&key, &chain),
            "two nodes with the shared identity derive the same key"
        );
    }

    #[test]
    fn chain_rotation_rotates_the_key_and_kills_tickets() {
        let (key, chain_a) = chain([1; 32]);
        let (_, chain_b) = chain([3; 32]);
        let tk_a = derive_ticket_key(&key, &chain_a);
        let tk_b = derive_ticket_key(&key, &chain_b);
        assert_ne!(tk_a, tk_b);
        let ticket = seal_ticket(&tk_a, &[9; 12], &[7; 32]);
        assert!(open_ticket(&tk_b, &ticket).is_err());
    }

    #[test]
    fn tampered_ticket_rejected() {
        let (key, chain) = chain([1; 32]);
        let tk = derive_ticket_key(&key, &chain);
        let mut ticket = seal_ticket(&tk, &[9; 12], &[7; 32]);
        let last = ticket.len() - 1;
        ticket[last] ^= 1;
        assert!(open_ticket(&tk, &ticket).is_err());
        assert!(open_ticket(&tk, b"TKT1short").is_err());
        assert!(open_ticket(&tk, b"nope").is_err());
    }

    #[test]
    fn confirm_binds_secret_and_both_randoms() {
        let base = resumption_confirm(&[1; 32], &[2; 32], &[3; 32]);
        assert_ne!(base, resumption_confirm(&[9; 32], &[2; 32], &[3; 32]));
        assert_ne!(base, resumption_confirm(&[1; 32], &[9; 32], &[3; 32]));
        assert_ne!(base, resumption_confirm(&[1; 32], &[2; 32], &[9; 32]));
    }
}
