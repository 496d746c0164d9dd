//! Traffic-key derivation and record protection.

use revelio_crypto::aead::ChaCha20Poly1305;
use revelio_crypto::kdf::hkdf_fixed;
use revelio_crypto::sha2::Sha256;

use crate::TlsError;

/// One direction's record protection state.
pub struct RecordKey {
    aead: ChaCha20Poly1305,
    sequence: u64,
}

impl std::fmt::Debug for RecordKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordKey")
            .field("sequence", &self.sequence)
            .finish_non_exhaustive()
    }
}

/// Both directions' keys, as derived after the handshake.
#[derive(Debug)]
pub struct TrafficKeys {
    /// Client-to-server protection.
    pub client_to_server: RecordKey,
    /// Server-to-client protection.
    pub(crate) server_to_client: RecordKey,
}

/// Derives the traffic keys from the X25519 shared secret and both
/// randoms. Both sides call this with identical inputs.
#[must_use]
pub fn derive_traffic_keys(
    shared_secret: &[u8; 32],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> TrafficKeys {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(client_random);
    salt.extend_from_slice(server_random);
    let c2s = hkdf_fixed::<Sha256, 32>(&salt, shared_secret, b"tls13 c2s");
    let s2c = hkdf_fixed::<Sha256, 32>(&salt, shared_secret, b"tls13 s2c");
    TrafficKeys {
        client_to_server: RecordKey {
            aead: ChaCha20Poly1305::new(&c2s),
            sequence: 0,
        },
        server_to_client: RecordKey {
            aead: ChaCha20Poly1305::new(&s2c),
            sequence: 0,
        },
    }
}

/// Derives the resumption secret both sides store after a **full**
/// handshake — the value a session ticket seals. Same inputs as the
/// traffic keys but a distinct HKDF label, so compromise of a traffic
/// key reveals nothing about resumability (and vice versa).
#[must_use]
pub(crate) fn derive_resumption_secret(
    shared_secret: &[u8; 32],
    client_random: &[u8; 32],
    server_random: &[u8; 32],
) -> [u8; 32] {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(client_random);
    salt.extend_from_slice(server_random);
    hkdf_fixed::<Sha256, 32>(&salt, shared_secret, b"tls13 resumption")
}

fn nonce(sequence: u64) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[..8].copy_from_slice(&sequence.to_le_bytes());
    n
}

impl RecordKey {
    /// Protects one record; the sequence number advances and doubles as
    /// the nonce and AAD, so reordered or replayed records fail to open.
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let seq = self.sequence;
        self.sequence += 1;
        self.aead.seal(&nonce(seq), &seq.to_le_bytes(), plaintext)
    }

    /// Opens the next record in sequence.
    ///
    /// # Errors
    ///
    /// Returns [`TlsError::RecordAuthentication`] for tampered, replayed,
    /// or out-of-order records.
    pub fn open(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, TlsError> {
        let seq = self.sequence;
        let plain = self
            .aead
            .open(&nonce(seq), &seq.to_le_bytes(), ciphertext)
            .map_err(|_| TlsError::RecordAuthentication)?;
        self.sequence += 1;
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TrafficKeys, TrafficKeys) {
        let shared = [7u8; 32];
        (
            derive_traffic_keys(&shared, &[1; 32], &[2; 32]),
            derive_traffic_keys(&shared, &[1; 32], &[2; 32]),
        )
    }

    #[test]
    fn both_sides_derive_identical_keys() {
        let (mut client, mut server) = pair();
        let record = client.client_to_server.seal(b"hello");
        assert_eq!(server.client_to_server.open(&record).unwrap(), b"hello");
        let reply = server.server_to_client.seal(b"world");
        assert_eq!(client.server_to_client.open(&reply).unwrap(), b"world");
    }

    #[test]
    fn directions_are_separated() {
        let (mut client, mut server) = pair();
        let record = client.client_to_server.seal(b"hello");
        // Reflecting a record back on the other direction's key fails.
        assert!(client.server_to_client.open(&record).is_err());
        assert!(server.server_to_client.open(&record).is_err());
    }

    #[test]
    fn replay_rejected() {
        let (mut client, mut server) = pair();
        let record = client.client_to_server.seal(b"hello");
        server.client_to_server.open(&record).unwrap();
        assert_eq!(
            server.client_to_server.open(&record),
            Err(TlsError::RecordAuthentication)
        );
    }

    #[test]
    fn reorder_rejected() {
        let (mut client, mut server) = pair();
        let r1 = client.client_to_server.seal(b"one");
        let r2 = client.client_to_server.seal(b"two");
        assert!(server.client_to_server.open(&r2).is_err()); // skipped r1
        server.client_to_server.open(&r1).unwrap();
    }

    #[test]
    fn tamper_rejected() {
        let (mut client, mut server) = pair();
        let mut record = client.client_to_server.seal(b"hello");
        record[0] ^= 1;
        assert!(server.client_to_server.open(&record).is_err());
    }

    #[test]
    fn different_randoms_different_keys() {
        let shared = [7u8; 32];
        let mut a = derive_traffic_keys(&shared, &[1; 32], &[2; 32]);
        let mut b = derive_traffic_keys(&shared, &[1; 32], &[3; 32]);
        let record = a.client_to_server.seal(b"x");
        assert!(b.client_to_server.open(&record).is_err());
    }
}
