//! Canisters: the IC's smart contracts.
//!
//! A canister is deterministic state machine code: queries read state,
//! updates mutate it. Determinism matters — every replica of a subnet runs
//! the same call and consensus compares the bytes.

use std::collections::BTreeMap;

use crate::IcError;

/// Whether a call may mutate state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Read-only.
    Query,
    /// State-mutating (goes through consensus on the real IC).
    Update,
}

/// A canister: deterministic message handler over private state.
pub trait Canister: Send {
    /// Handles one call.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CanisterRejected`] for unknown methods or
    /// invalid arguments.
    fn handle(&mut self, kind: CallKind, method: &str, arg: &[u8]) -> Result<Vec<u8>, IcError>;

    /// Clones the canister's code+state for replication across replicas.
    fn replicate(&self) -> Box<dyn Canister>;
}

/// A key-value store canister (`get`/`put`/`len`).
#[derive(Debug, Clone, Default)]
pub struct KeyValueCanister {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl KeyValueCanister {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        KeyValueCanister::default()
    }
}

impl Canister for KeyValueCanister {
    fn handle(&mut self, kind: CallKind, method: &str, arg: &[u8]) -> Result<Vec<u8>, IcError> {
        match (kind, method) {
            (CallKind::Query, "get") => Ok(self.entries.get(arg).cloned().unwrap_or_default()),
            (CallKind::Query, "len") => Ok((self.entries.len() as u64).to_le_bytes().to_vec()),
            (CallKind::Update, "put") => {
                // arg = key_len(u32) || key || value
                let Some((key_len, rest)) = arg.split_first_chunk::<4>() else {
                    return Err(IcError::CanisterRejected("short put argument".into()));
                };
                let key_len = u32::from_le_bytes(*key_len) as usize;
                if rest.len() < key_len {
                    return Err(IcError::CanisterRejected("truncated put key".into()));
                }
                let (key, value) = rest.split_at(key_len);
                let (key, value) = (key.to_vec(), value.to_vec());
                self.entries.insert(key, value);
                Ok(Vec::new())
            }
            (CallKind::Query, "put") => Err(IcError::CanisterRejected(
                "put requires an update call".into(),
            )),
            _ => Err(IcError::CanisterRejected(format!("no method {method}"))),
        }
    }

    fn replicate(&self) -> Box<dyn Canister> {
        Box::new(self.clone())
    }
}

/// Encodes a `put` argument for [`KeyValueCanister`].
#[must_use]
pub fn encode_put(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut arg = (key.len() as u32).to_le_bytes().to_vec();
    arg.extend_from_slice(key);
    arg.extend_from_slice(value);
    arg
}

/// A canister serving static web assets — the kind feature-rich IC web
/// apps use, and the content boundary nodes translate to HTTP (§4.2).
#[derive(Debug, Clone, Default)]
pub struct AssetCanister {
    assets: BTreeMap<String, (String, Vec<u8>)>,
}

impl AssetCanister {
    /// Creates an empty asset canister.
    #[must_use]
    pub fn new() -> Self {
        AssetCanister::default()
    }

    /// Stores an asset at `path` with a content type.
    pub fn insert(&mut self, path: &str, content_type: &str, body: Vec<u8>) {
        self.assets
            .insert(path.to_owned(), (content_type.to_owned(), body));
    }

    /// The asset paths (used by boundary nodes to publish HTTP routes).
    #[must_use]
    pub fn paths(&self) -> Vec<String> {
        self.assets.keys().cloned().collect()
    }
}

impl Canister for AssetCanister {
    fn handle(&mut self, kind: CallKind, method: &str, arg: &[u8]) -> Result<Vec<u8>, IcError> {
        match (kind, method) {
            (CallKind::Query, "http_request") => {
                let path = std::str::from_utf8(arg)
                    .map_err(|_| IcError::CanisterRejected("non-utf8 path".into()))?;
                match self.assets.get(path) {
                    Some((content_type, body)) => {
                        // content_type_len(u32) || content_type || body
                        let mut out = (content_type.len() as u32).to_le_bytes().to_vec();
                        out.extend_from_slice(content_type.as_bytes());
                        out.extend_from_slice(body);
                        Ok(out)
                    }
                    None => Err(IcError::CanisterRejected(format!("no asset {path}"))),
                }
            }
            (CallKind::Update, "store") => Err(IcError::CanisterRejected(
                "store not exposed in simulation".into(),
            )),
            _ => Err(IcError::CanisterRejected(format!("no method {method}"))),
        }
    }

    fn replicate(&self) -> Box<dyn Canister> {
        Box::new(self.clone())
    }
}

/// Decodes an [`AssetCanister`] `http_request` response.
///
/// # Errors
///
/// Returns [`IcError::CanisterRejected`] on truncation.
pub fn decode_asset_response(bytes: &[u8]) -> Result<(String, Vec<u8>), IcError> {
    let Some((ct_len, rest)) = bytes.split_first_chunk::<4>() else {
        return Err(IcError::CanisterRejected("short asset response".into()));
    };
    let ct_len = u32::from_le_bytes(*ct_len) as usize;
    if rest.len() < ct_len {
        return Err(IcError::CanisterRejected("truncated asset response".into()));
    }
    let (content_type, body) = rest.split_at(ct_len);
    let content_type = String::from_utf8(content_type.to_vec())
        .map_err(|_| IcError::CanisterRejected("non-utf8 content type".into()))?;
    Ok((content_type, body.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_put_get_roundtrip() {
        let mut kv = KeyValueCanister::new();
        kv.handle(CallKind::Update, "put", &encode_put(b"k", b"v"))
            .unwrap();
        assert_eq!(kv.handle(CallKind::Query, "get", b"k").unwrap(), b"v");
        assert_eq!(kv.handle(CallKind::Query, "get", b"missing").unwrap(), b"");
        assert_eq!(
            kv.handle(CallKind::Query, "len", b"").unwrap(),
            1u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn kv_rejects_put_as_query() {
        let mut kv = KeyValueCanister::new();
        assert!(kv
            .handle(CallKind::Query, "put", &encode_put(b"k", b"v"))
            .is_err());
    }

    #[test]
    fn kv_rejects_malformed_put() {
        let mut kv = KeyValueCanister::new();
        assert!(kv.handle(CallKind::Update, "put", b"").is_err());
        assert!(kv
            .handle(CallKind::Update, "put", &100u32.to_le_bytes())
            .is_err());
    }

    #[test]
    fn replicas_are_independent() {
        let mut a = KeyValueCanister::new();
        a.handle(CallKind::Update, "put", &encode_put(b"k", b"v"))
            .unwrap();
        let mut b = a.replicate();
        b.handle(CallKind::Update, "put", &encode_put(b"k", b"other"))
            .unwrap();
        assert_eq!(a.handle(CallKind::Query, "get", b"k").unwrap(), b"v");
    }

    #[test]
    fn asset_canister_serves_and_rejects() {
        let mut assets = AssetCanister::new();
        assets.insert("/", "text/html", b"<html>dapp</html>".to_vec());
        let raw = assets
            .handle(CallKind::Query, "http_request", b"/")
            .unwrap();
        let (ct, body) = decode_asset_response(&raw).unwrap();
        assert_eq!(ct, "text/html");
        assert_eq!(body, b"<html>dapp</html>");
        assert!(assets
            .handle(CallKind::Query, "http_request", b"/missing")
            .is_err());
        assert_eq!(assets.paths(), vec!["/".to_owned()]);
    }

    #[test]
    fn asset_response_decode_guards() {
        assert!(decode_asset_response(&[1]).is_err());
        assert!(decode_asset_response(&100u32.to_le_bytes()).is_err());
    }
}
