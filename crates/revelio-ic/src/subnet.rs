//! Subnets: replicated canister execution with threshold-certified
//! responses.
//!
//! The real IC certifies subnet responses with BLS threshold signatures;
//! this simulation uses a k-of-n Ed25519 multi-signature with the same
//! verification interface (a verifier holds the subnet's replica public
//! keys and threshold). Byzantine replicas can be injected to check the
//! fault-tolerance behaviour.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use revelio_crypto::ed25519::{Signature, SigningKey, VerifyingKey, SIGNATURE_LEN};
use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::canister::{CallKind, Canister};
use crate::IcError;

/// A response certified by a threshold of subnet replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedResponse {
    /// Canister the response came from.
    pub canister_id: u64,
    /// The agreed payload.
    pub payload: Vec<u8>,
    /// `(replica index, signature)` pairs over the payload digest.
    pub signatures: Vec<(u32, Signature)>,
}

fn response_digest(canister_id: u64, payload: &[u8]) -> [u8; 32] {
    let mut w = ByteWriter::new();
    w.put_bytes(b"ic-response/v1");
    w.put_u64(canister_id);
    w.put_var_bytes(payload);
    Sha256::digest(w.into_bytes())
}

impl CertifiedResponse {
    /// Verifies the certificate against the subnet's public keys and
    /// threshold.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CertificateInvalid`] when fewer than `threshold`
    /// *distinct, valid* replica signatures cover the payload.
    pub fn verify(&self, subnet_keys: &[VerifyingKey], threshold: usize) -> Result<(), IcError> {
        let digest = response_digest(self.canister_id, &self.payload);
        let mut valid_signers = std::collections::BTreeSet::new();
        for (index, signature) in &self.signatures {
            let Some(key) = subnet_keys.get(*index as usize) else {
                continue;
            };
            if key.verify(&digest, signature).is_ok() {
                valid_signers.insert(*index);
            }
        }
        if valid_signers.len() >= threshold {
            Ok(())
        } else {
            Err(IcError::CertificateInvalid)
        }
    }

    /// Serializes the certified response.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.canister_id);
        w.put_var_bytes(&self.payload);
        w.put_u32(self.signatures.len() as u32);
        for (index, sig) in &self.signatures {
            w.put_u32(*index);
            w.put_bytes(&sig.to_bytes());
        }
        w.into_bytes()
    }

    /// Decodes a certified response.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::Wire`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IcError> {
        let mut r = ByteReader::new(bytes);
        let canister_id = r.get_u64()?;
        let payload = r.get_var_bytes()?.to_vec();
        let n = r.get_count(4 + SIGNATURE_LEN)?;
        let mut signatures = Vec::with_capacity(n);
        for _ in 0..n {
            let index = r.get_u32()?;
            let sig = Signature::from_bytes(r.get_array::<SIGNATURE_LEN>()?);
            signatures.push((index, sig));
        }
        r.finish()?;
        Ok(CertifiedResponse {
            canister_id,
            payload,
            signatures,
        })
    }
}

/// How a replica misbehaves (for fault-injection tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFault {
    /// Honest.
    None,
    /// Returns flipped payload bytes.
    CorruptPayload,
    /// Stays silent (crash fault).
    Silent,
}

struct Replica {
    key: SigningKey,
    fault: ReplicaFault,
    canisters: BTreeMap<u64, Box<dyn Canister>>,
}

/// A subnet of replicas hosting a set of canisters.
pub struct Subnet {
    replicas: Mutex<Vec<Replica>>,
    threshold: usize,
    public_keys: Vec<VerifyingKey>,
}

impl std::fmt::Debug for Subnet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subnet")
            .field("replicas", &self.public_keys.len())
            .field("threshold", &self.threshold)
            .finish_non_exhaustive()
    }
}

impl Subnet {
    /// Creates a subnet of `n` replicas with a `threshold`-of-`n`
    /// certificate requirement.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= n`.
    #[must_use]
    pub fn new(n: usize, threshold: usize, seed: u64) -> Self {
        assert!(
            threshold > 0 && threshold <= n,
            "threshold must be in 1..=n"
        );
        let replicas: Vec<Replica> = (0..n)
            .map(|i| {
                let mut key_seed = [0u8; 32];
                key_seed[..8].copy_from_slice(&seed.to_le_bytes());
                key_seed[8..16].copy_from_slice(&(i as u64).to_le_bytes());
                Replica {
                    key: SigningKey::from_seed(&key_seed),
                    fault: ReplicaFault::None,
                    canisters: BTreeMap::new(),
                }
            })
            .collect();
        let public_keys = replicas.iter().map(|r| r.key.verifying_key()).collect();
        Subnet {
            replicas: Mutex::new(replicas),
            threshold,
            public_keys,
        }
    }

    /// The replicas' public keys (what verifiers pin).
    #[must_use]
    pub fn public_keys(&self) -> &[VerifyingKey] {
        &self.public_keys
    }

    /// The certificate threshold.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Installs `canister` under `canister_id` on every replica.
    pub fn install_canister(&self, canister_id: u64, canister: &dyn Canister) {
        let mut replicas = self.replicas.lock();
        for r in replicas.iter_mut() {
            r.canisters.insert(canister_id, canister.replicate());
        }
    }

    /// Injects a fault into replica `index` (test harness).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    pub fn set_fault(&self, index: usize, fault: ReplicaFault) {
        self.replicas.lock()[index].fault = fault;
    }

    /// Executes a call on every replica and certifies the majority
    /// response.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CanisterNotFound`], the canister's rejection, or
    /// [`IcError::NoConsensus`] when Byzantine faults exceed the margin.
    pub fn execute(
        &self,
        canister_id: u64,
        kind: CallKind,
        method: &str,
        arg: &[u8],
    ) -> Result<CertifiedResponse, IcError> {
        let mut replicas = self.replicas.lock();
        if !replicas
            .iter()
            .any(|r| r.canisters.contains_key(&canister_id))
        {
            return Err(IcError::CanisterNotFound(canister_id));
        }

        // Each replica executes independently.
        let mut results: Vec<(usize, Result<Vec<u8>, IcError>)> = Vec::new();
        for (i, replica) in replicas.iter_mut().enumerate() {
            if replica.fault == ReplicaFault::Silent {
                continue;
            }
            // Installs reach every replica; one that lacks the canister
            // anyway answers "not found" and is outvoted.
            let mut result = replica
                .canisters
                .get_mut(&canister_id)
                .ok_or(IcError::CanisterNotFound(canister_id))
                .and_then(|canister| canister.handle(kind, method, arg));
            if replica.fault == ReplicaFault::CorruptPayload {
                result = result.map(|mut payload| {
                    for b in &mut payload {
                        *b ^= 0xff;
                    }
                    if payload.is_empty() {
                        payload.push(0x66);
                    }
                    payload
                });
            }
            results.push((i, result));
        }

        // Group identical outcomes; the largest group must reach the
        // threshold.
        let mut groups: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        let mut rejections: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, result) in &results {
            match result {
                Ok(payload) => groups.entry(payload.clone()).or_default().push(*i),
                Err(e) => rejections.entry(e.to_string()).or_default().push(*i),
            }
        }
        let best = groups.iter().max_by_key(|(_, members)| members.len());
        let best_rejection = rejections.iter().max_by_key(|(_, members)| members.len());

        match (best, best_rejection) {
            (Some((payload, members)), _) if members.len() >= self.threshold => {
                let digest = response_digest(canister_id, payload);
                let signatures = members
                    .iter()
                    .map(|&i| (i as u32, replicas[i].key.sign(&digest)))
                    .collect();
                Ok(CertifiedResponse {
                    canister_id,
                    payload: payload.clone(),
                    signatures,
                })
            }
            (_, Some((reason, members))) if members.len() >= self.threshold => {
                Err(IcError::CanisterRejected(reason.clone()))
            }
            _ => Err(IcError::NoConsensus {
                agreeing: best.map_or(0, |(_, m)| m.len()),
                needed: self.threshold,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canister::{encode_put, KeyValueCanister};

    fn subnet() -> Subnet {
        let s = Subnet::new(4, 3, 7); // tolerates f=1
        s.install_canister(1, &KeyValueCanister::new());
        s
    }

    #[test]
    fn certified_query_roundtrip() {
        let s = subnet();
        s.execute(1, CallKind::Update, "put", &encode_put(b"k", b"v"))
            .unwrap();
        let resp = s.execute(1, CallKind::Query, "get", b"k").unwrap();
        assert_eq!(resp.payload, b"v");
        resp.verify(s.public_keys(), s.threshold()).unwrap();
    }

    #[test]
    fn one_byzantine_replica_tolerated() {
        let s = subnet();
        s.execute(1, CallKind::Update, "put", &encode_put(b"k", b"v"))
            .unwrap();
        s.set_fault(2, ReplicaFault::CorruptPayload);
        let resp = s.execute(1, CallKind::Query, "get", b"k").unwrap();
        assert_eq!(resp.payload, b"v");
        resp.verify(s.public_keys(), s.threshold()).unwrap();
    }

    #[test]
    fn too_many_faults_block_consensus() {
        let s = subnet();
        s.execute(1, CallKind::Update, "put", &encode_put(b"k", b"v"))
            .unwrap();
        s.set_fault(1, ReplicaFault::CorruptPayload);
        s.set_fault(2, ReplicaFault::Silent);
        assert!(matches!(
            s.execute(1, CallKind::Query, "get", b"k"),
            Err(IcError::NoConsensus { .. })
        ));
    }

    #[test]
    fn forged_certificate_rejected() {
        let s = subnet();
        let mut resp = s.execute(1, CallKind::Query, "get", b"k").unwrap();
        resp.payload = b"forged".to_vec();
        assert_eq!(
            resp.verify(s.public_keys(), s.threshold()),
            Err(IcError::CertificateInvalid)
        );
    }

    #[test]
    fn duplicate_signatures_do_not_meet_threshold() {
        let s = subnet();
        let mut resp = s.execute(1, CallKind::Query, "get", b"k").unwrap();
        // Keep only one signer, duplicated: distinct-signer count is 1.
        let first = resp.signatures[0];
        resp.signatures = vec![first, first, first];
        assert!(resp.verify(s.public_keys(), s.threshold()).is_err());
    }

    #[test]
    fn certificate_from_other_subnet_rejected() {
        let s1 = subnet();
        let s2 = Subnet::new(4, 3, 999);
        s2.install_canister(1, &KeyValueCanister::new());
        let resp = s2.execute(1, CallKind::Query, "get", b"k").unwrap();
        assert!(resp.verify(s1.public_keys(), s1.threshold()).is_err());
    }

    #[test]
    fn missing_canister_reported() {
        let s = subnet();
        assert_eq!(
            s.execute(9, CallKind::Query, "get", b"k").unwrap_err(),
            IcError::CanisterNotFound(9)
        );
    }

    #[test]
    fn unanimous_rejection_propagates() {
        let s = subnet();
        assert!(matches!(
            s.execute(1, CallKind::Query, "no-such-method", b"")
                .unwrap_err(),
            IcError::CanisterRejected(_)
        ));
    }

    #[test]
    fn serialization_roundtrip() {
        let s = subnet();
        let resp = s.execute(1, CallKind::Query, "len", b"").unwrap();
        let decoded = CertifiedResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(decoded, resp);
        decoded.verify(s.public_keys(), s.threshold()).unwrap();
    }

    #[test]
    fn updates_replicate_to_all() {
        let s = subnet();
        s.execute(1, CallKind::Update, "put", &encode_put(b"a", b"1"))
            .unwrap();
        // Silence one replica; the remaining three still agree on state.
        s.set_fault(0, ReplicaFault::Silent);
        let resp = s.execute(1, CallKind::Query, "get", b"a").unwrap();
        assert_eq!(resp.payload, b"1");
    }
}
