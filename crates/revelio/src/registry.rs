//! Golden-value distribution: how end-users learn which measurements are
//! "good" (paper §3.4.7) and how obsolete images are revoked (§6.1.4).
//!
//! Two trust models are provided:
//!
//! * [`GoldenSet`] — the self-verifying user (or an auditing company's
//!   published list): a static set of acceptable measurements with
//!   explicit revocation.
//! * [`VotingRegistry`] — an on-chain community registry in the spirit of
//!   the Internet Computer's Network Nervous System: a measurement becomes
//!   trusted once a quorum of registered voters signs it, and revoked the
//!   same way; revocation permanently dominates approval (rollback
//!   protection).

use std::collections::{BTreeMap, BTreeSet};

use revelio_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use sev_snp::measurement::Measurement;

use crate::RevelioError;

/// A static set of trusted measurements with revocation.
#[derive(Debug, Clone, Default)]
pub struct GoldenSet {
    trusted: BTreeSet<Measurement>,
    revoked: BTreeSet<Measurement>,
}

impl GoldenSet {
    /// Builds from a list of trusted measurements.
    #[must_use]
    pub fn from_measurements(measurements: impl IntoIterator<Item = Measurement>) -> Self {
        GoldenSet {
            trusted: measurements.into_iter().collect(),
            revoked: BTreeSet::new(),
        }
    }

    /// Revokes a measurement (obsolete image; prevents rollback attacks).
    pub(crate) fn revoke(&mut self, measurement: Measurement) {
        self.revoked.insert(measurement);
    }

    /// Whether `measurement` is currently acceptable.
    #[must_use]
    pub fn is_trusted(&self, measurement: &Measurement) -> bool {
        self.trusted.contains(measurement) && !self.revoked.contains(measurement)
    }

    /// All currently-acceptable measurements.
    #[must_use]
    pub fn trusted(&self) -> Vec<Measurement> {
        self.trusted
            .iter()
            .filter(|m| !self.revoked.contains(*m))
            .copied()
            .collect()
    }
}

/// What a voter asserts about a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VoteKind {
    /// The measurement corresponds to an audited-good image.
    Approve,
    /// The measurement must no longer be accepted.
    Revoke,
}

/// A signed vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vote {
    /// What is being voted on.
    pub(crate) measurement: Measurement,
    /// Approve or revoke.
    pub(crate) kind: VoteKind,
    /// The voter's public key.
    pub(crate) voter: VerifyingKey,
    /// Signature over the vote payload.
    pub(crate) signature: Signature,
}

fn vote_payload(measurement: &Measurement, kind: VoteKind) -> Vec<u8> {
    let mut payload = b"revelio-vote/v1".to_vec();
    payload.push(match kind {
        VoteKind::Approve => 0,
        VoteKind::Revoke => 1,
    });
    payload.extend_from_slice(measurement.as_bytes());
    payload
}

impl Vote {
    /// Signs a vote.
    #[must_use]
    pub fn sign(measurement: Measurement, kind: VoteKind, key: &SigningKey) -> Self {
        Vote {
            measurement,
            kind,
            voter: key.verifying_key(),
            signature: key.sign(&vote_payload(&measurement, kind)),
        }
    }

    /// Verifies the vote's signature.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::Crypto`] when the signature fails.
    pub(crate) fn verify(&self) -> Result<(), RevelioError> {
        self.voter
            .verify(&vote_payload(&self.measurement, self.kind), &self.signature)
            .map_err(RevelioError::Crypto)
    }
}

/// A quorum-voted registry.
#[derive(Debug, Clone)]
pub struct VotingRegistry {
    voters: BTreeSet<VerifyingKey>,
    quorum: usize,
    approvals: BTreeMap<Measurement, BTreeSet<VerifyingKey>>,
    revocations: BTreeMap<Measurement, BTreeSet<VerifyingKey>>,
}

impl VotingRegistry {
    /// Creates a registry with the given electorate and quorum.
    ///
    /// # Panics
    ///
    /// Panics if `quorum` is zero or exceeds the electorate size.
    #[must_use]
    pub fn new(voters: impl IntoIterator<Item = VerifyingKey>, quorum: usize) -> Self {
        let voters: BTreeSet<VerifyingKey> = voters.into_iter().collect();
        assert!(
            quorum > 0 && quorum <= voters.len(),
            "quorum must be in 1..=|voters|"
        );
        VotingRegistry {
            voters,
            quorum,
            approvals: BTreeMap::new(),
            revocations: BTreeMap::new(),
        }
    }

    /// Submits a vote.
    ///
    /// # Errors
    ///
    /// Returns [`RevelioError::EvidenceRejected`] for non-electorate voters
    /// and [`RevelioError::Crypto`] for bad signatures. Duplicate votes are
    /// idempotent.
    pub fn submit(&mut self, vote: &Vote) -> Result<(), RevelioError> {
        vote.verify()?;
        if !self.voters.contains(&vote.voter) {
            return Err(RevelioError::EvidenceRejected(
                "voter not in electorate".to_owned().into(),
            ));
        }
        let book = match vote.kind {
            VoteKind::Approve => &mut self.approvals,
            VoteKind::Revoke => &mut self.revocations,
        };
        book.entry(vote.measurement).or_default().insert(vote.voter);
        Ok(())
    }

    fn quorum_reached(
        &self,
        book: &BTreeMap<Measurement, BTreeSet<VerifyingKey>>,
        m: &Measurement,
    ) -> bool {
        book.get(m).is_some_and(|s| s.len() >= self.quorum)
    }

    /// Whether `measurement` is trusted: approval quorum reached and no
    /// revocation quorum (revocation dominates).
    #[must_use]
    pub fn is_trusted(&self, measurement: &Measurement) -> bool {
        self.quorum_reached(&self.approvals, measurement)
            && !self.quorum_reached(&self.revocations, measurement)
    }

    /// The trusted measurements, as a [`GoldenSet`] snapshot for clients.
    #[must_use]
    pub fn snapshot(&self) -> GoldenSet {
        GoldenSet::from_measurements(
            self.approvals
                .keys()
                .filter(|m| self.is_trusted(m))
                .copied(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(tag: &[u8]) -> Measurement {
        Measurement::of_launch_context(tag)
    }

    #[test]
    fn golden_set_revoke_blocks_rollback() {
        let v1 = m(b"image-v1");
        let v2 = m(b"image-v2");
        let mut set = GoldenSet::from_measurements([v1, v2]);
        assert!(set.is_trusted(&v1));
        // New rollout: v2 trusted, v1 revoked -> rollback to v1 rejected.
        set.revoke(v1);
        assert!(!set.is_trusted(&v1));
        assert!(set.is_trusted(&v2));
        assert_eq!(set.trusted(), vec![v2]);
    }

    #[test]
    fn voting_reaches_quorum() {
        let keys: Vec<SigningKey> = (0..5u8).map(|i| SigningKey::from_seed(&[i; 32])).collect();
        let mut reg = VotingRegistry::new(keys.iter().map(SigningKey::verifying_key), 3);
        let target = m(b"image");
        for key in &keys[..2] {
            reg.submit(&Vote::sign(target, VoteKind::Approve, key))
                .unwrap();
        }
        assert!(!reg.is_trusted(&target));
        reg.submit(&Vote::sign(target, VoteKind::Approve, &keys[2]))
            .unwrap();
        assert!(reg.is_trusted(&target));
        assert!(reg.snapshot().is_trusted(&target));
    }

    #[test]
    fn duplicate_votes_do_not_inflate() {
        let key = SigningKey::from_seed(&[1; 32]);
        let other = SigningKey::from_seed(&[2; 32]);
        let mut reg = VotingRegistry::new([key.verifying_key(), other.verifying_key()], 2);
        let target = m(b"image");
        for _ in 0..5 {
            reg.submit(&Vote::sign(target, VoteKind::Approve, &key))
                .unwrap();
        }
        assert!(!reg.is_trusted(&target));
    }

    #[test]
    fn outsider_votes_rejected() {
        let insider = SigningKey::from_seed(&[1; 32]);
        let outsider = SigningKey::from_seed(&[9; 32]);
        let mut reg = VotingRegistry::new([insider.verifying_key()], 1);
        assert!(reg
            .submit(&Vote::sign(m(b"i"), VoteKind::Approve, &outsider))
            .is_err());
    }

    #[test]
    fn forged_vote_rejected() {
        let key = SigningKey::from_seed(&[1; 32]);
        let mut reg = VotingRegistry::new([key.verifying_key()], 1);
        let mut vote = Vote::sign(m(b"honest"), VoteKind::Approve, &key);
        vote.measurement = m(b"evil"); // breaks the signature
        assert!(reg.submit(&vote).is_err());
        assert!(!reg.is_trusted(&m(b"evil")));
    }

    #[test]
    fn revocation_quorum_dominates() {
        let keys: Vec<SigningKey> = (0..3u8).map(|i| SigningKey::from_seed(&[i; 32])).collect();
        let mut reg = VotingRegistry::new(keys.iter().map(SigningKey::verifying_key), 2);
        let target = m(b"image");
        for key in &keys[..2] {
            reg.submit(&Vote::sign(target, VoteKind::Approve, key))
                .unwrap();
        }
        assert!(reg.is_trusted(&target));
        // A vulnerability is found: the community revokes.
        for key in &keys[1..3] {
            reg.submit(&Vote::sign(target, VoteKind::Revoke, key))
                .unwrap();
        }
        assert!(!reg.is_trusted(&target));
        assert!(!reg.snapshot().is_trusted(&target));
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_panics() {
        let key = SigningKey::from_seed(&[1; 32]);
        let _ = VotingRegistry::new([key.verifying_key()], 0);
    }
}
