//! The Internet Computer: subnets plus canister routing.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::canister::{CallKind, Canister};
use crate::subnet::{CertifiedResponse, Subnet};
use crate::IcError;

/// An IC request as a boundary node receives it after translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcRequest {
    /// Target canister.
    pub canister_id: u64,
    /// Query or update.
    pub kind: CallKind,
    /// Method name.
    pub method: String,
    /// Argument bytes.
    pub arg: Vec<u8>,
}

impl IcRequest {
    /// Serializes the request (the "IC protocol" wire form).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"ICRQ1");
        w.put_u64(self.canister_id);
        w.put_u8(match self.kind {
            CallKind::Query => 0,
            CallKind::Update => 1,
        });
        w.put_str(&self.method);
        w.put_var_bytes(&self.arg);
        w.into_bytes()
    }

    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::Wire`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IcError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<5>()?;
        if &magic != b"ICRQ1" {
            return Err(IcError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                magic[0],
            )));
        }
        let canister_id = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => CallKind::Query,
            1 => CallKind::Update,
            t => {
                return Err(IcError::Wire(revelio_crypto::wire::WireError::UnknownTag(
                    t,
                )))
            }
        };
        let method = r.get_str()?;
        let arg = r.get_var_bytes()?.to_vec();
        r.finish()?;
        Ok(IcRequest {
            canister_id,
            kind,
            method,
            arg,
        })
    }
}

/// The whole network: subnets and the canister→subnet routing table.
pub struct InternetComputer {
    subnets: Vec<Arc<Subnet>>,
    routing: RwLock<BTreeMap<u64, usize>>,
    next_canister_id: RwLock<u64>,
}

impl std::fmt::Debug for InternetComputer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InternetComputer")
            .field("subnets", &self.subnets.len())
            .finish_non_exhaustive()
    }
}

impl InternetComputer {
    /// Creates a network of `subnet_count` subnets of `replicas_per_subnet`
    /// replicas each, with 2f+1 thresholds (f = (n-1)/3).
    ///
    /// # Panics
    ///
    /// Panics for zero subnets or replicas.
    #[must_use]
    pub fn new(subnet_count: usize, replicas_per_subnet: usize, seed: u64) -> Self {
        assert!(subnet_count > 0 && replicas_per_subnet > 0);
        let f = (replicas_per_subnet.saturating_sub(1)) / 3;
        let threshold = 2 * f + 1;
        let subnets = (0..subnet_count)
            .map(|i| Arc::new(Subnet::new(replicas_per_subnet, threshold, seed + i as u64)))
            .collect();
        InternetComputer {
            subnets,
            routing: RwLock::new(BTreeMap::new()),
            next_canister_id: RwLock::new(1),
        }
    }

    /// The subnets (for key pinning by verifiers).
    #[must_use]
    pub fn subnets(&self) -> &[Arc<Subnet>] {
        &self.subnets
    }

    /// Installs a canister on the least-loaded subnet; returns its id.
    pub fn create_canister(&self, canister: &dyn Canister) -> u64 {
        let id = {
            let mut next = self.next_canister_id.write();
            let id = *next;
            *next += 1;
            id
        };
        let mut routing = self.routing.write();
        // Scalability via partitioning (§4.2): spread canisters evenly.
        let mut load = vec![0usize; self.subnets.len()];
        for &subnet in routing.values() {
            load[subnet] += 1;
        }
        // `new` requires at least one subnet, so the fallback never fires.
        let subnet = load
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| **l)
            .map_or(0, |(i, _)| i);
        self.subnets[subnet].install_canister(id, canister);
        routing.insert(id, subnet);
        id
    }

    /// The subnet hosting `canister_id`.
    ///
    /// # Errors
    ///
    /// Returns [`IcError::CanisterNotFound`].
    pub fn subnet_of(&self, canister_id: u64) -> Result<Arc<Subnet>, IcError> {
        let routing = self.routing.read();
        let index = routing
            .get(&canister_id)
            .ok_or(IcError::CanisterNotFound(canister_id))?;
        Ok(Arc::clone(&self.subnets[*index]))
    }

    /// Executes an IC request with certified response.
    ///
    /// # Errors
    ///
    /// Propagates routing, consensus and canister errors.
    pub fn execute(&self, request: &IcRequest) -> Result<CertifiedResponse, IcError> {
        let subnet = self.subnet_of(request.canister_id)?;
        subnet.execute(
            request.canister_id,
            request.kind,
            &request.method,
            &request.arg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canister::{encode_put, KeyValueCanister};

    #[test]
    fn request_roundtrip() {
        let req = IcRequest {
            canister_id: 42,
            kind: CallKind::Update,
            method: "put".into(),
            arg: b"abc".to_vec(),
        };
        assert_eq!(IcRequest::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn canisters_spread_across_subnets() {
        let ic = InternetComputer::new(3, 4, 1);
        let ids: Vec<u64> = (0..6)
            .map(|_| ic.create_canister(&KeyValueCanister::new()))
            .collect();
        let mut per_subnet = vec![0usize; 3];
        for id in &ids {
            let subnet = ic.subnet_of(*id).unwrap();
            let idx = ic
                .subnets()
                .iter()
                .position(|s| Arc::ptr_eq(s, &subnet))
                .unwrap();
            per_subnet[idx] += 1;
        }
        assert_eq!(per_subnet, vec![2, 2, 2]);
    }

    #[test]
    fn execute_routes_and_certifies() {
        let ic = InternetComputer::new(2, 4, 1);
        let id = ic.create_canister(&KeyValueCanister::new());
        ic.execute(&IcRequest {
            canister_id: id,
            kind: CallKind::Update,
            method: "put".into(),
            arg: encode_put(b"k", b"v"),
        })
        .unwrap();
        let resp = ic
            .execute(&IcRequest {
                canister_id: id,
                kind: CallKind::Query,
                method: "get".into(),
                arg: b"k".to_vec(),
            })
            .unwrap();
        assert_eq!(resp.payload, b"v");
        let subnet = ic.subnet_of(id).unwrap();
        resp.verify(subnet.public_keys(), subnet.threshold())
            .unwrap();
    }

    #[test]
    fn unknown_canister_rejected() {
        let ic = InternetComputer::new(1, 4, 1);
        assert_eq!(
            ic.execute(&IcRequest {
                canister_id: 404,
                kind: CallKind::Query,
                method: "get".into(),
                arg: vec![],
            })
            .unwrap_err(),
            IcError::CanisterNotFound(404)
        );
    }

    #[test]
    fn threshold_is_two_f_plus_one() {
        let ic = InternetComputer::new(1, 4, 1);
        assert_eq!(ic.subnets()[0].threshold(), 3);
        let ic = InternetComputer::new(1, 13, 1);
        assert_eq!(ic.subnets()[0].threshold(), 9);
    }
}
