//! Byte-level pin of every Curve25519 output the rest of the stack sees.
//!
//! Hashes, from seeded keys, 64 Ed25519 public keys, 64 signatures, 64
//! X25519 public keys and shared secrets, and 16 batch-verification
//! verdicts (valid and tampered) into one SHA-256 digest. Any change to
//! the field, scalar or point kernels that moves a single output byte or
//! flips a single verdict moves the digest.

use revelio_crypto::ed25519::{verify_batch, BatchItem, Signature, SigningKey};
use revelio_crypto::hex;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::x25519;

fn seed(label: &str, i: usize) -> [u8; 32] {
    Sha256::digest(format!("revelio-golden/{label}/{i}"))
}

fn message(i: usize) -> Vec<u8> {
    // Lengths 0..=126 so short, block-straddling and long messages all appear.
    (0..2 * i).map(|j| (j * 31 + i) as u8).collect()
}

/// The verdict of one batch scenario, `i` in `0..16`, as one byte.
fn batch_verdict(keys: &[SigningKey], i: usize) -> u8 {
    let size = 1 + i % 4;
    let signers = &keys[i..i + size];
    let expanded: Vec<_> = signers.iter().map(|k| k.verifying_key().expand()).collect();
    let mut messages: Vec<Vec<u8>> = (0..size).map(|j| message(i + j)).collect();
    let mut sigs: Vec<Signature> = signers
        .iter()
        .zip(&messages)
        .map(|(k, m)| k.sign(m))
        .collect();
    let victim = i % size;
    let mut bytes = sigs[victim].to_bytes();
    match i / 4 {
        // Untouched: every batch verifies.
        0 => {}
        // A flipped message bit.
        1 => messages[victim].push(0x5a),
        // A flipped bit in R, then in S.
        2 => bytes[(i * 7) % 32] ^= 1 << (i % 8),
        // S replaced by L + S's low byte: non-canonical, must be rejected.
        _ => {
            bytes[32..].copy_from_slice(&[
                0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                0xde, 0x14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
            ]);
            bytes[32] = bytes[32].wrapping_add((i % 3) as u8);
        }
    }
    if i / 4 == 2 && i % 2 == 1 {
        let b = 32 + (i * 5) % 31;
        bytes[b] ^= 1 << (i % 8);
    }
    sigs[victim] = Signature::from_bytes(bytes);
    let items: Vec<BatchItem<'_>> = expanded
        .iter()
        .zip(&messages)
        .zip(&sigs)
        .map(|((key, message), signature)| BatchItem {
            key,
            message,
            signature,
        })
        .collect();
    u8::from(verify_batch(&items).is_ok())
}

#[test]
fn curve25519_outputs_are_pinned() {
    let keys: Vec<SigningKey> = (0..64)
        .map(|i| SigningKey::from_seed(&seed("ed25519", i)))
        .collect();
    let mut transcript = Vec::new();
    for key in &keys {
        transcript.extend_from_slice(&key.verifying_key().to_bytes());
    }
    for (i, key) in keys.iter().enumerate() {
        transcript.extend_from_slice(&key.sign(&message(i)).to_bytes());
    }
    for i in 0..64 {
        let secret = seed("x25519", i);
        transcript.extend_from_slice(&x25519::public_key(&secret));
        // Half the peers are honest public keys, half are raw hash bytes:
        // twist points and non-canonical u-coordinates (top bit set, or
        // u >= p) exercise decoding and the final canonical encoding.
        let peer = if i % 2 == 0 {
            x25519::public_key(&seed("x25519", i + 1))
        } else {
            seed("x25519-raw", i)
        };
        transcript.extend_from_slice(&x25519::shared_secret(&secret, &peer));
    }
    let verdicts: Vec<u8> = (0..16).map(|i| batch_verdict(&keys, i)).collect();
    assert_eq!(&verdicts[..4], &[1, 1, 1, 1], "untouched batches verify");
    assert!(
        verdicts[4..].iter().all(|&v| v == 0),
        "every tampered batch is rejected: {verdicts:?}"
    );
    transcript.extend_from_slice(&verdicts);
    assert_eq!(
        hex::encode(Sha256::digest(&transcript)),
        "d08e2964de70aaa287cf72e14a98c2d15d973c0cb449e5fb1a9af8a50aa02222"
    );
}
