//! The browser-side pad client: all cryptography happens here, so the
//! server (and its operator) never see plaintext.
//!
//! A pad is addressed by `(pad id, pad secret)`; the secret travels in the
//! URL fragment in real CryptPad and never reaches the server. Edits are
//! AEAD-sealed with a per-edit nonce derived from the edit index, so
//! reordering and tampering are detected at read time.

use revelio_crypto::aead::ChaCha20Poly1305;
use revelio_crypto::kdf::hkdf_fixed;
use revelio_crypto::sha2::Sha256;

use crate::server::PadHistory;
use crate::PadError;

/// The client-held pad secret (never sent to the server).
///
/// The fragment derives both the content key and an authorship signing
/// key, and [`PadSecret::decrypt_history`] verifies every edit's
/// authorship signature, so the server cannot inject edits that readers
/// would accept.
#[derive(Clone)]
pub struct PadSecret {
    key: [u8; 32],
    author: revelio_crypto::ed25519::SigningKey,
}

impl std::fmt::Debug for PadSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadSecret").finish_non_exhaustive()
    }
}

impl PadSecret {
    /// Derives the pad secret from a user-held secret string (the URL
    /// fragment).
    #[must_use]
    pub fn from_fragment(fragment: &str) -> Self {
        let key = hkdf_fixed::<Sha256, 32>(b"cryptpad-sim/v1", fragment.as_bytes(), b"pad-key");
        let author_seed =
            hkdf_fixed::<Sha256, 32>(b"cryptpad-sim/v1", fragment.as_bytes(), b"author-key");
        PadSecret {
            key,
            author: revelio_crypto::ed25519::SigningKey::from_seed(&author_seed),
        }
    }

    fn aead(&self) -> ChaCha20Poly1305 {
        ChaCha20Poly1305::new(&self.key)
    }

    fn nonce(edit_index: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&edit_index.to_le_bytes());
        n
    }

    /// Encrypts and signs edit number `edit_index` (0-based position in
    /// the pad's history).
    #[must_use]
    pub fn encrypt_edit(&self, edit_index: u64, plaintext: &[u8]) -> Vec<u8> {
        let ciphertext = self
            .aead()
            .seal(&Self::nonce(edit_index), b"pad-edit", plaintext);
        let mut signed_payload = edit_index.to_le_bytes().to_vec();
        signed_payload.extend_from_slice(&ciphertext);
        let signature = self.author.sign(&signed_payload);
        let mut out = signature.to_bytes().to_vec();
        out.extend_from_slice(&ciphertext);
        out
    }

    /// Decrypts a full history into plaintext edits, verifying order,
    /// integrity, and authorship.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::DecryptionFailed`] naming the first edit that
    /// fails (wrong secret, bad authorship signature, server tampering, or
    /// reordering).
    pub fn decrypt_history(&self, history: &PadHistory) -> Result<Vec<Vec<u8>>, PadError> {
        let aead = self.aead();
        let author_public = self.author.verifying_key();
        history
            .edits
            .iter()
            .enumerate()
            .map(|(i, edit)| {
                let fail = || PadError::DecryptionFailed { edit_index: i };
                let Some((sig_bytes, ciphertext)) = edit.split_first_chunk::<64>() else {
                    return Err(fail());
                };
                let signature = revelio_crypto::ed25519::Signature::from_bytes(*sig_bytes);
                let mut signed_payload = (i as u64).to_le_bytes().to_vec();
                signed_payload.extend_from_slice(ciphertext);
                author_public
                    .verify(&signed_payload, &signature)
                    .map_err(|_| fail())?;
                aead.open(&Self::nonce(i as u64), b"pad-edit", ciphertext)
                    .map_err(|_| fail())
            })
            .collect()
    }

    /// Renders a decrypted history as the current document (edits are
    /// whole-document snapshots in this simulation; the last one wins,
    /// empty history is an empty document).
    ///
    /// # Errors
    ///
    /// As for [`PadSecret::decrypt_history`].
    pub fn render_document(&self, history: &PadHistory) -> Result<Vec<u8>, PadError> {
        Ok(self.decrypt_history(history)?.pop().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::PadStore;
    use proptest::prelude::*;

    #[test]
    fn encrypt_decrypt_roundtrip_through_server() {
        let secret = PadSecret::from_fragment("u/#abc123");
        let store = PadStore::new();
        let id = store.create_pad();
        store
            .append(id, secret.encrypt_edit(0, b"draft one"))
            .unwrap();
        store
            .append(id, secret.encrypt_edit(1, b"draft two"))
            .unwrap();
        let history = store.fetch(id).unwrap();
        assert_eq!(
            secret.decrypt_history(&history).unwrap(),
            vec![b"draft one".to_vec(), b"draft two".to_vec()]
        );
        assert_eq!(secret.render_document(&history).unwrap(), b"draft two");
    }

    #[test]
    fn server_never_sees_plaintext() {
        let secret = PadSecret::from_fragment("u/#abc123");
        let store = PadStore::new();
        let id = store.create_pad();
        store
            .append(id, secret.encrypt_edit(0, b"medical record"))
            .unwrap();
        for (_, pad) in store.operator_view() {
            for edit in &pad.edits {
                assert!(!edit.windows(b"medical".len()).any(|w| w == b"medical"));
            }
        }
    }

    #[test]
    fn wrong_secret_cannot_read() {
        let secret = PadSecret::from_fragment("u/#abc123");
        let other = PadSecret::from_fragment("u/#wrong");
        let history = PadHistory {
            edits: vec![secret.encrypt_edit(0, b"private")],
        };
        assert_eq!(
            other.decrypt_history(&history).unwrap_err(),
            PadError::DecryptionFailed { edit_index: 0 }
        );
    }

    #[test]
    fn server_tampering_detected() {
        let secret = PadSecret::from_fragment("u/#abc123");
        let store = PadStore::new();
        let id = store.create_pad();
        store
            .append(id, secret.encrypt_edit(0, b"agreed: 100 CHF"))
            .unwrap();
        // Malicious operator swaps the ciphertext.
        store
            .tamper_edit(id, 0, b"forged ciphertext".to_vec())
            .unwrap();
        let history = store.fetch(id).unwrap();
        assert!(matches!(
            secret.decrypt_history(&history),
            Err(PadError::DecryptionFailed { edit_index: 0 })
        ));
    }

    #[test]
    fn reordering_detected() {
        let secret = PadSecret::from_fragment("u/#abc123");
        let e0 = secret.encrypt_edit(0, b"first");
        let e1 = secret.encrypt_edit(1, b"second");
        // Server swaps the history order.
        let history = PadHistory {
            edits: vec![e1, e0],
        };
        assert!(secret.decrypt_history(&history).is_err());
    }

    #[test]
    fn forged_edit_without_author_key_rejected() {
        // Someone without the pad's fragment (e.g. the server) cannot
        // forge edits: the authorship signature fails.
        let editor = PadSecret::from_fragment("#edit-link");
        let forger = PadSecret::from_fragment("#another-link");
        let mut history = PadHistory {
            edits: vec![editor.encrypt_edit(0, b"honest")],
        };
        history.edits.push(forger.encrypt_edit(1, b"forged"));
        assert_eq!(
            editor.decrypt_history(&history).unwrap_err(),
            PadError::DecryptionFailed { edit_index: 1 }
        );
    }

    #[test]
    fn short_edit_blob_rejected() {
        let secret = PadSecret::from_fragment("#x");
        let history = PadHistory {
            edits: vec![vec![1, 2, 3]],
        };
        assert!(secret.decrypt_history(&history).is_err());
    }

    #[test]
    fn empty_history_renders_empty_document() {
        let secret = PadSecret::from_fragment("u/#x");
        assert_eq!(
            secret.render_document(&PadHistory::default()).unwrap(),
            Vec::<u8>::new()
        );
    }

    proptest! {
        #[test]
        fn arbitrary_documents_roundtrip(fragment: String, docs in proptest::collection::vec(any::<Vec<u8>>(), 0..5)) {
            let secret = PadSecret::from_fragment(&fragment);
            let history = PadHistory {
                edits: docs
                    .iter()
                    .enumerate()
                    .map(|(i, d)| secret.encrypt_edit(i as u64, d))
                    .collect(),
            };
            prop_assert_eq!(secret.decrypt_history(&history).unwrap(), docs);
        }
    }
}
