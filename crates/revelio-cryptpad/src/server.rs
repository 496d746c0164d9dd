//! The pad server: ciphertext-only storage with HTTP routes and
//! sealed-volume persistence.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_http::message::{Request, Response};
use revelio_http::router::Router;
use revelio_storage::block::BlockDevice;
use revelio_storage::crypt::CryptDevice;

use crate::PadError;

/// One pad: an append-only history of encrypted edits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PadHistory {
    /// Ciphertext edits, in append order. The server cannot read them.
    pub edits: Vec<Vec<u8>>,
}

/// The server-side pad store (shared with the HTTP handlers).
#[derive(Debug, Clone, Default)]
pub struct PadStore {
    inner: Arc<Mutex<StoreState>>,
}

#[derive(Debug, Default)]
struct StoreState {
    pads: BTreeMap<u64, PadHistory>,
    next_id: u64,
}

impl PadStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        PadStore::default()
    }

    /// Creates a pad, returning its id.
    pub fn create_pad(&self) -> u64 {
        let mut state = self.inner.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.pads.insert(id, PadHistory::default());
        id
    }

    /// Appends an encrypted edit.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::PadNotFound`] for unknown ids.
    pub fn append(&self, pad_id: u64, ciphertext: Vec<u8>) -> Result<usize, PadError> {
        let mut state = self.inner.lock();
        let pad = state
            .pads
            .get_mut(&pad_id)
            .ok_or(PadError::PadNotFound(pad_id))?;
        pad.edits.push(ciphertext);
        Ok(pad.edits.len())
    }

    /// Fetches a pad's full encrypted history.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::PadNotFound`] for unknown ids.
    pub fn fetch(&self, pad_id: u64) -> Result<PadHistory, PadError> {
        self.inner
            .lock()
            .pads
            .get(&pad_id)
            .cloned()
            .ok_or(PadError::PadNotFound(pad_id))
    }

    /// What a curious (or subpoenaed) operator can see: every stored byte.
    #[must_use]
    pub fn operator_view(&self) -> Vec<(u64, PadHistory)> {
        self.inner
            .lock()
            .pads
            .iter()
            .map(|(id, pad)| (*id, pad.clone()))
            .collect()
    }

    /// ATTACK: the malicious operator rewrites a stored edit.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::PadNotFound`] when the pad or edit is missing.
    pub fn tamper_edit(
        &self,
        pad_id: u64,
        edit_index: usize,
        new_bytes: Vec<u8>,
    ) -> Result<(), PadError> {
        let mut state = self.inner.lock();
        let pad = state
            .pads
            .get_mut(&pad_id)
            .ok_or(PadError::PadNotFound(pad_id))?;
        let slot = pad
            .edits
            .get_mut(edit_index)
            .ok_or(PadError::PadNotFound(pad_id))?;
        *slot = new_bytes;
        Ok(())
    }

    /// Serializes the whole store.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let state = self.inner.lock();
        let mut w = ByteWriter::new();
        w.put_bytes(b"PADS1");
        w.put_u64(state.next_id);
        w.put_u32(state.pads.len() as u32);
        for (id, pad) in &state.pads {
            w.put_u64(*id);
            w.put_u32(pad.edits.len() as u32);
            for edit in &pad.edits {
                w.put_var_bytes(edit);
            }
        }
        w.into_bytes()
    }

    /// Restores a store from bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::Wire`] on malformed input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, PadError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<5>()?;
        if &magic != b"PADS1" {
            return Err(PadError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let next_id = r.get_u64()?;
        let n = r.get_u32()?;
        let mut pads = BTreeMap::new();
        for _ in 0..n {
            let id = r.get_u64()?;
            let edit_count = r.get_count(4)?; // var-bytes prefix
            let mut edits = Vec::with_capacity(edit_count);
            for _ in 0..edit_count {
                edits.push(r.get_var_bytes()?.to_vec());
            }
            pads.insert(id, PadHistory { edits });
        }
        r.finish()?;
        Ok(PadStore {
            inner: Arc::new(Mutex::new(StoreState { pads, next_id })),
        })
    }

    /// Persists the store to a sealed data volume (length-prefixed at
    /// block 0) — what the Revelio VM does between shutdowns (§3.4.8).
    ///
    /// # Errors
    ///
    /// Propagates storage errors (volume too small, etc.).
    pub fn persist(&self, volume: &CryptDevice) -> Result<(), PadError> {
        let bytes = self.to_bytes();
        revelio_storage::block::write_at(volume, 0, &(bytes.len() as u64).to_le_bytes())?;
        revelio_storage::block::write_at(volume, 8, &bytes)?;
        Ok(())
    }

    /// Restores the store from a sealed data volume.
    ///
    /// # Errors
    ///
    /// Returns [`PadError::Storage`] / [`PadError::Wire`] when the volume
    /// holds no valid store.
    pub fn restore(volume: &CryptDevice) -> Result<Self, PadError> {
        let len_bytes: [u8; 8] = revelio_storage::block::read_at(volume, 0, 8)?
            .try_into()
            .map_err(|_| revelio_crypto::wire::WireError::UnexpectedEnd)?;
        let len = u64::from_le_bytes(len_bytes);
        // The prefix comes off the volume, so compare without computing
        // `len + 8`, which a hostile prefix could overflow.
        if len == 0 || len > volume.len_bytes().saturating_sub(8) {
            return Err(PadError::Wire(
                revelio_crypto::wire::WireError::UnexpectedEnd,
            ));
        }
        let bytes = revelio_storage::block::read_at(volume, 8, len as usize)?;
        Self::from_bytes(&bytes)
    }
}

/// HTTP routes for the pad server, to mount as a Revelio node's app.
///
/// * `POST /pad/create` → pad id (8 bytes LE)
/// * `POST /pad/append` — body `pad_id(u64) || ciphertext` → edit count
/// * `POST /pad/fetch` — body `pad_id(u64)` → serialized history
#[must_use]
pub fn pad_router(store: PadStore) -> Router {
    let create_store = store.clone();
    let append_store = store.clone();
    let fetch_store = store;
    Router::new()
        .post("/pad/create", move |_req| {
            let id = create_store.create_pad();
            Response::ok(id.to_le_bytes().to_vec())
        })
        .post("/pad/append", move |req: &Request| {
            let Some((pad_id, edit)) = req.body.split_first_chunk::<8>() else {
                return Response::status(400);
            };
            match append_store.append(u64::from_le_bytes(*pad_id), edit.to_vec()) {
                Ok(count) => Response::ok((count as u64).to_le_bytes().to_vec()),
                Err(_) => Response::status(404),
            }
        })
        .post("/pad/fetch", move |req: &Request| {
            let Ok(pad_id) = <[u8; 8]>::try_from(req.body.as_slice()) else {
                return Response::status(400);
            };
            match fetch_store.fetch(u64::from_le_bytes(pad_id)) {
                Ok(history) => {
                    let mut w = ByteWriter::new();
                    w.put_u32(history.edits.len() as u32);
                    for edit in &history.edits {
                        w.put_var_bytes(edit);
                    }
                    Response::ok(w.into_bytes())
                }
                Err(_) => Response::status(404),
            }
        })
}

/// Decodes the `POST /pad/fetch` response body.
///
/// # Errors
///
/// Returns [`PadError::Wire`] on malformed input.
pub fn decode_fetch_response(bytes: &[u8]) -> Result<PadHistory, PadError> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_count(4)?; // var-bytes prefix
    let mut edits = Vec::with_capacity(n);
    for _ in 0..n {
        edits.push(r.get_var_bytes()?.to_vec());
    }
    r.finish()?;
    Ok(PadHistory { edits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn create_append_fetch_cycle() {
        let store = PadStore::new();
        let id = store.create_pad();
        store.append(id, b"ct-1".to_vec()).unwrap();
        store.append(id, b"ct-2".to_vec()).unwrap();
        let history = store.fetch(id).unwrap();
        assert_eq!(history.edits, vec![b"ct-1".to_vec(), b"ct-2".to_vec()]);
    }

    #[test]
    fn unknown_pad_rejected() {
        let store = PadStore::new();
        assert_eq!(
            store.append(7, vec![]).unwrap_err(),
            PadError::PadNotFound(7)
        );
        assert_eq!(store.fetch(7).unwrap_err(), PadError::PadNotFound(7));
    }

    #[test]
    fn router_roundtrip() {
        let store = PadStore::new();
        let router = pad_router(store);
        let id_bytes = router.dispatch(&Request::post("/pad/create", vec![])).body;
        let mut append_body = id_bytes.clone();
        append_body.extend_from_slice(b"ciphertext");
        let count = router
            .dispatch(&Request::post("/pad/append", append_body))
            .body;
        assert_eq!(count, 1u64.to_le_bytes().to_vec());
        let fetched = router.dispatch(&Request::post("/pad/fetch", id_bytes));
        let history = decode_fetch_response(&fetched.body).unwrap();
        assert_eq!(history.edits, vec![b"ciphertext".to_vec()]);
    }

    #[test]
    fn router_guards_malformed_bodies() {
        let router = pad_router(PadStore::new());
        assert_eq!(
            router
                .dispatch(&Request::post("/pad/append", vec![1, 2]))
                .status,
            400
        );
        assert_eq!(
            router
                .dispatch(&Request::post("/pad/fetch", vec![1]))
                .status,
            400
        );
        assert_eq!(
            router
                .dispatch(&Request::post("/pad/fetch", 99u64.to_le_bytes().to_vec()))
                .status,
            404
        );
    }

    #[test]
    fn store_serialization_roundtrip() {
        let store = PadStore::new();
        let a = store.create_pad();
        let b = store.create_pad();
        store.append(a, b"x".to_vec()).unwrap();
        store.append(b, b"y".to_vec()).unwrap();
        let restored = PadStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(restored.fetch(a).unwrap().edits, vec![b"x".to_vec()]);
        // New pads continue from the preserved counter.
        assert_eq!(restored.create_pad(), 2);
    }

    #[test]
    fn persist_and_restore_via_sealed_volume() {
        use revelio_storage::block::MemBlockDevice;
        use revelio_storage::crypt::{CryptDevice, CryptParams};

        let backing = StdArc::new(MemBlockDevice::new(512, 64));
        let params = CryptParams {
            iterations: 2,
            salt: [1; 32],
        };
        let volume =
            CryptDevice::format(StdArc::clone(&backing) as _, b"sealing key", &params).unwrap();

        let store = PadStore::new();
        let id = store.create_pad();
        store.append(id, b"persistent ciphertext".to_vec()).unwrap();
        store.persist(&volume).unwrap();
        drop(volume);

        // "Reboot": reopen the sealed volume with the same key.
        let volume =
            CryptDevice::open(StdArc::clone(&backing) as _, b"sealing key", &params).unwrap();
        let restored = PadStore::restore(&volume).unwrap();
        assert_eq!(
            restored.fetch(id).unwrap().edits,
            vec![b"persistent ciphertext".to_vec()]
        );

        // The wrong key cannot even open the volume.
        assert!(CryptDevice::open(backing as _, b"other key", &params).is_err());
    }

    #[test]
    fn restore_rejects_an_overflowing_length_prefix() {
        use revelio_storage::block::MemBlockDevice;
        use revelio_storage::crypt::{CryptDevice, CryptParams};

        let params = CryptParams {
            iterations: 2,
            salt: [1; 32],
        };
        let backing = StdArc::new(MemBlockDevice::new(512, 64));
        let volume = CryptDevice::format(backing as _, b"sealing key", &params).unwrap();
        // `len + 8` wraps past `u64::MAX` for this prefix.
        revelio_storage::block::write_at(&volume, 0, &(u64::MAX - 7).to_le_bytes()).unwrap();
        assert!(PadStore::restore(&volume).is_err());
    }

    #[test]
    fn operator_sees_only_ciphertext_bytes() {
        let store = PadStore::new();
        let id = store.create_pad();
        store.append(id, b"opaque bytes".to_vec()).unwrap();
        let view = store.operator_view();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].1.edits[0], b"opaque bytes");
    }
}
