//! SHA-2 family: SHA-256, SHA-384 and SHA-512 (FIPS 180-4).
//!
//! SHA-256 backs the `dm-verity` Merkle tree and certificate fingerprints;
//! SHA-384 is the digest the AMD secure processor uses for SEV-SNP launch
//! measurements; SHA-512 backs Ed25519.
//!
//! The round constants (`K`) and initial hash values (`H`) are **derived at
//! first use** from the fractional parts of the cube/square roots of the
//! first primes, exactly as FIPS 180-4 defines them, using exact integer
//! arithmetic ([`crate::bigint`]). This removes the possibility of a
//! mistyped 80-entry constant table; published test vectors below then pin
//! the whole construction.

use std::sync::OnceLock;

use crate::bigint::BigUint;

/// A hash function usable by generic constructions (HMAC, HKDF, PBKDF2).
///
/// Implementations are provided for [`Sha256`], [`Sha384`] and [`Sha512`].
/// This trait is not sealed so simulator code can plug in test doubles, but
/// typical users only ever name the concrete types.
pub trait HashFunction: Clone {
    /// Internal block length in bytes (64 for SHA-256, 128 for SHA-512).
    const BLOCK_LEN: usize;
    /// Digest length in bytes.
    const OUTPUT_LEN: usize;
    /// Human-readable algorithm name, e.g. `"sha256"`.
    const NAME: &'static str;

    /// Creates a fresh hashing state.
    fn new() -> Self;
    /// Absorbs `data` into the state.
    fn update(&mut self, data: &[u8]);
    /// Consumes the state and returns the digest.
    fn finalize(self) -> Vec<u8>;

    /// One-shot convenience: digest of `data`.
    fn hash(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Returns the first `n` primes.
fn primes(n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while out.len() < n {
        if out.iter().all(|&p| !candidate.is_multiple_of(p)) {
            out.push(candidate);
        }
        candidate += 1;
    }
    out
}

/// `floor(p^(1/root) * 2^frac_bits)` via binary search on exact integers.
fn root_fixed_point(p: u64, root: u32, frac_bits: usize) -> BigUint {
    let target = BigUint::from_u64(p).shl(frac_bits * root as usize);
    // Upper bound: p < 2^9 for every prime we use, so p^(1/root) < 2^9.
    let mut result = BigUint::zero();
    for bit in (0..frac_bits + 9).rev() {
        let candidate = result.add(&BigUint::one().shl(bit));
        let mut power = candidate.clone();
        for _ in 1..root {
            power = power.mul(&candidate);
        }
        if power <= target {
            result = candidate;
        }
    }
    result
}

/// First `frac_bits` bits of the fractional part of `p^(1/root)`.
fn frac_bits_of_root(p: u64, root: u32, frac_bits: usize) -> u64 {
    let fixed = root_fixed_point(p, root, frac_bits);
    let int_part = fixed.shr(frac_bits);
    let frac = fixed.sub(&int_part.shl(frac_bits));
    let bytes = frac.to_bytes_le_padded(8);
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

fn k256() -> &'static [u32; 64] {
    static K: OnceLock<[u32; 64]> = OnceLock::new();
    K.get_or_init(|| {
        let ps = primes(64);
        let mut k = [0u32; 64];
        for (i, &p) in ps.iter().enumerate() {
            k[i] = frac_bits_of_root(p, 3, 32) as u32;
        }
        k
    })
}

fn h256() -> &'static [u32; 8] {
    static H: OnceLock<[u32; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let ps = primes(8);
        let mut h = [0u32; 8];
        for (i, &p) in ps.iter().enumerate() {
            h[i] = frac_bits_of_root(p, 2, 32) as u32;
        }
        h
    })
}

fn k512() -> &'static [u64; 80] {
    static K: OnceLock<[u64; 80]> = OnceLock::new();
    K.get_or_init(|| {
        let ps = primes(80);
        let mut k = [0u64; 80];
        for (i, &p) in ps.iter().enumerate() {
            k[i] = frac_bits_of_root(p, 3, 64);
        }
        k
    })
}

fn h512() -> &'static [u64; 8] {
    static H: OnceLock<[u64; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let ps = primes(8);
        let mut h = [0u64; 8];
        for (i, &p) in ps.iter().enumerate() {
            h[i] = frac_bits_of_root(p, 2, 64);
        }
        h
    })
}

fn h384() -> &'static [u64; 8] {
    static H: OnceLock<[u64; 8]> = OnceLock::new();
    H.get_or_init(|| {
        let ps = primes(16);
        let mut h = [0u64; 8];
        for i in 0..8 {
            h[i] = frac_bits_of_root(ps[i + 8], 2, 64);
        }
        h
    })
}

/// Feeds `data` to `compress` in `BLOCK`-byte blocks: first completes a
/// block already started in `buffer[..*buffered]`, then hashes whole
/// blocks straight from `data`, and keeps only the tail in `buffer`.
/// Returns the number of blocks compressed.
fn absorb<const BLOCK: usize>(
    buffer: &mut [u8; BLOCK],
    buffered: &mut usize,
    mut data: &[u8],
    mut compress: impl FnMut(&[u8; BLOCK]),
) -> u64 {
    let mut compressed = 0;
    if *buffered > 0 {
        let take = (BLOCK - *buffered).min(data.len());
        buffer[*buffered..*buffered + take].copy_from_slice(&data[..take]);
        *buffered += take;
        data = &data[take..];
        if *buffered < BLOCK {
            return 0;
        }
        compress(buffer);
        *buffered = 0;
        compressed = 1;
    }
    let (blocks, tail) = data.as_chunks::<BLOCK>();
    for block in blocks {
        compress(block);
    }
    buffer[..tail.len()].copy_from_slice(tail);
    *buffered = tail.len();
    compressed + blocks.len() as u64
}

/// Streaming SHA-256.
///
/// ```
/// use revelio_crypto::sha2::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     revelio_crypto::hex::encode(digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("length", &self.length)
            .finish_non_exhaustive()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        <Self as HashFunction>::new()
    }
}

impl Sha256 {
    /// One-shot digest returning a fixed array.
    #[must_use]
    pub fn digest(data: impl AsRef<[u8]>) -> [u8; 32] {
        let mut h = <Self as HashFunction>::new();
        HashFunction::update(&mut h, data.as_ref());
        h.finalize_fixed()
    }

    /// Finishes the hash into a fixed array.
    #[must_use]
    pub fn finalize_fixed(mut self) -> [u8; 32] {
        // 0x80, then zeros up to 8 bytes short of a block boundary, then
        // the bit length: at most 1 + 63 + 8 bytes.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let zeros = (119 - self.buffered) % 64;
        pad[1 + zeros..9 + zeros].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        HashFunction::update(&mut self, &pad[..9 + zeros]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let k = k256();
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        let vals = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(vals) {
            *s = s.wrapping_add(v);
        }
    }
}

impl HashFunction for Sha256 {
    const BLOCK_LEN: usize = 64;
    const OUTPUT_LEN: usize = 32;
    const NAME: &'static str = "sha256";

    fn new() -> Self {
        Sha256 {
            state: *h256(),
            buffer: [0; 64],
            buffered: 0,
            length: 0,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let blocks = absorb(&mut self.buffer, &mut self.buffered, data, |block| {
            Self::compress(&mut self.state, block);
        });
        crate::metrics::record_sha256_blocks(blocks);
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }
}

/// Shared 64-bit-word core for SHA-512 and SHA-384.
#[derive(Clone)]
struct Sha512Core {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Sha512Core {
    fn new(iv: [u64; 8]) -> Self {
        Sha512Core {
            state: iv,
            buffer: [0; 128],
            buffered: 0,
            length: 0,
        }
    }

    fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
        let k = k512();
        let mut w = [0u64; 80];
        for i in 0..16 {
            w[i] = u64::from_be_bytes(block[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(k[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        let vals = [a, b, c, d, e, f, g, h];
        for (s, v) in state.iter_mut().zip(vals) {
            *s = s.wrapping_add(v);
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        absorb(&mut self.buffer, &mut self.buffered, data, |block| {
            Self::compress(&mut self.state, block);
        });
    }

    /// Finishes the hash into the first `N` big-endian bytes of the state.
    fn finalize_fixed<const N: usize>(mut self) -> [u8; N] {
        // 0x80, then zeros up to 16 bytes short of a block boundary, then
        // the bit length: at most 1 + 127 + 16 bytes.
        let mut pad = [0u8; 144];
        pad[0] = 0x80;
        let zeros = (239 - self.buffered) % 128;
        pad[1 + zeros..17 + zeros].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        self.update(&pad[..17 + zeros]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; N];
        for (bytes, word) in out.chunks_mut(8).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes()[..bytes.len()]);
        }
        out
    }
}

/// Streaming SHA-512.
///
/// ```
/// use revelio_crypto::sha2::Sha512;
/// let digest = Sha512::digest(b"abc");
/// assert_eq!(digest.len(), 64);
/// ```
#[derive(Clone)]
pub struct Sha512(Sha512Core);

impl std::fmt::Debug for Sha512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha512")
            .field("length", &self.0.length)
            .finish_non_exhaustive()
    }
}

impl Default for Sha512 {
    fn default() -> Self {
        <Self as HashFunction>::new()
    }
}

impl Sha512 {
    /// One-shot digest returning a fixed array.
    #[must_use]
    pub fn digest(data: impl AsRef<[u8]>) -> [u8; 64] {
        let mut h = <Self as HashFunction>::new();
        HashFunction::update(&mut h, data.as_ref());
        h.0.finalize_fixed()
    }
}

impl HashFunction for Sha512 {
    const BLOCK_LEN: usize = 128;
    const OUTPUT_LEN: usize = 64;
    const NAME: &'static str = "sha512";

    fn new() -> Self {
        Sha512(Sha512Core::new(*h512()))
    }

    fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    fn finalize(self) -> Vec<u8> {
        self.0.finalize_fixed::<64>().to_vec()
    }
}

/// Streaming SHA-384 — the digest used for SEV-SNP launch measurements.
///
/// ```
/// use revelio_crypto::sha2::Sha384;
/// assert_eq!(Sha384::digest(b"launch context").len(), 48);
/// ```
#[derive(Clone)]
pub struct Sha384(Sha512Core);

impl std::fmt::Debug for Sha384 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha384")
            .field("length", &self.0.length)
            .finish_non_exhaustive()
    }
}

impl Default for Sha384 {
    fn default() -> Self {
        <Self as HashFunction>::new()
    }
}

impl Sha384 {
    /// One-shot digest returning a fixed array.
    #[must_use]
    pub fn digest(data: impl AsRef<[u8]>) -> [u8; 48] {
        let mut h = <Self as HashFunction>::new();
        HashFunction::update(&mut h, data.as_ref());
        h.finalize_fixed()
    }

    /// Finishes the hash into a fixed array.
    #[must_use]
    pub fn finalize_fixed(self) -> [u8; 48] {
        self.0.finalize_fixed()
    }
}

impl HashFunction for Sha384 {
    const BLOCK_LEN: usize = 128;
    const OUTPUT_LEN: usize = 48;
    const NAME: &'static str = "sha384";

    fn new() -> Self {
        Sha384(Sha512Core::new(*h384()))
    }

    fn update(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn derived_constants_match_spec() {
        // Spot-check the well-known first/last entries of each table.
        assert_eq!(k256()[0], 0x428a2f98);
        assert_eq!(k256()[63], 0xc67178f2);
        assert_eq!(h256()[0], 0x6a09e667);
        assert_eq!(h256()[7], 0x5be0cd19);
        assert_eq!(k512()[0], 0x428a2f98d728ae22);
        assert_eq!(h512()[0], 0x6a09e667f3bcc908);
    }

    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex::encode(Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex::encode(Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            hex::encode(Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex::encode(Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex::encode(Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha384_abc() {
        assert_eq!(
            hex::encode(Sha384::digest(b"abc")),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed\
             8086072ba1e7cc2358baeca134c825a7"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn padding_edge_cases() {
        // Lengths straddling the padding boundary (55/56/57 for SHA-256,
        // 111/112/113 for SHA-512) exercise the two-block padding path.
        for len in [
            0usize, 1, 55, 56, 57, 63, 64, 65, 111, 112, 113, 127, 128, 129,
        ] {
            let data = vec![0xabu8; len];
            // Consistency between one-shot and byte-at-a-time streaming.
            let mut s = <Sha256 as HashFunction>::new();
            for b in &data {
                HashFunction::update(&mut s, std::slice::from_ref(b));
            }
            assert_eq!(HashFunction::finalize(s), Sha256::digest(&data).to_vec());

            let mut s = <Sha512 as HashFunction>::new();
            for b in &data {
                HashFunction::update(&mut s, std::slice::from_ref(b));
            }
            assert_eq!(HashFunction::finalize(s), Sha512::digest(&data).to_vec());

            let mut s = <Sha384 as HashFunction>::new();
            for b in &data {
                HashFunction::update(&mut s, std::slice::from_ref(b));
            }
            assert_eq!(s.finalize_fixed(), Sha384::digest(&data));
            assert_eq!(Sha384::hash(&data), Sha384::digest(&data).to_vec());
        }
    }

    #[test]
    fn sha384_is_truncated_distinct_iv() {
        // SHA-384 must NOT equal truncated SHA-512 (different IV).
        let d384 = Sha384::digest(b"x");
        let d512 = Sha512::digest(b"x");
        assert_ne!(&d384[..], &d512[..48]);
    }

    /// Lengths either side of the padding and block boundaries: 55 bytes
    /// pad within one SHA-256 block and 56 spill into a second; 63/64 end
    /// a block; likewise 111/112 and 127/128 for SHA-512.
    const PADDING_EDGES: [usize; 8] = [55, 56, 63, 64, 111, 112, 127, 128];

    /// Streams `data` in three updates split at `a` and `b` (a buffered
    /// head, whole blocks from the caller's slice, then a buffered tail:
    /// every path through `absorb`), and finishes a clone taken after the
    /// head on the rest in one update. Both must match one-shot hashing.
    fn check_streaming<H: HashFunction>(data: &[u8], a: usize, b: usize) {
        let (a, b) = (a.min(data.len()), b.min(data.len()));
        let (a, b) = (a.min(b), a.max(b));
        let mut h = H::new();
        h.update(&data[..a]);
        let mut fork = h.clone();
        h.update(&data[a..b]);
        h.update(&data[b..]);
        fork.update(&data[a..]);
        let one_shot = H::hash(data);
        assert_eq!(h.finalize(), one_shot, "{} split {a}/{b}", H::NAME);
        assert_eq!(fork.finalize(), one_shot, "{} clone at {a}", H::NAME);
    }

    proptest! {
        #[test]
        fn three_way_split_invariance(
            mut data in proptest::collection::vec(any::<u8>(), 0..400),
            edge in 0usize..16,
            a in 0usize..400,
            b in 0usize..400,
        ) {
            // Half the cases pin the length to a padding edge.
            if let Some(&len) = PADDING_EDGES.get(edge) {
                data.resize(len, 0xa5);
            }
            check_streaming::<Sha256>(&data, a, b);
            check_streaming::<Sha512>(&data, a, b);
        }

        #[test]
        fn distinct_inputs_distinct_digests(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
        }
    }
}
