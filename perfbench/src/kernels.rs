//! Timed calls into single kernels and layer functions: the per-layer
//! rates that no workload span isolates (crypto kernels, the record
//! layer, the HTTP codec and the fabric).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use revelio_crypto::aead::ChaCha20Poly1305;
use revelio_crypto::ed25519::SigningKey;
use revelio_crypto::sha2::Sha256;
use revelio_crypto::x25519;
use revelio_crypto::xts::Xts;
use revelio_http::message::{Request, Response};
use revelio_net::net::{ConnectionHandler, Listener, SimNet};
use revelio_net::NetError;
use revelio_tls::record::derive_traffic_keys;

use crate::stats::median;

/// Wall time each probe may take.
const PROBE_BUDGET: Duration = Duration::from_millis(60);
/// Batches every probe times, however slow.
const MIN_BATCHES: usize = 5;
const MIB: f64 = 1024.0 * 1024.0;
const ONE_MIB: usize = 1 << 20;
const SECTOR: usize = 4096;

/// Median ns per call of `f`, timed in batches of `batch` calls.
fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

fn mib_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / MIB / (ns / 1e9)
}

/// Echoes every message back: the benchmark's trivial fabric listener.
struct Echo;

impl Listener for Echo {
    fn accept(&self) -> Box<dyn ConnectionHandler> {
        struct Handler;
        impl ConnectionHandler for Handler {
            fn on_message(&mut self, message: &[u8]) -> Result<Vec<u8>, NetError> {
                Ok(message.to_vec())
            }
        }
        Box::new(Handler)
    }
}

const ECHO_ADDRESS: &str = "198.51.100.7:7";
const BIND_ADDRESS: &str = "198.51.100.8:7";

/// Runs every kernel probe; returns `(metric, value)` pairs and the
/// number of probe calls whose output was wrong.
pub fn kernel_metrics(net: &SimNet) -> (Vec<(&'static str, f64)>, u64) {
    let mut out = Vec::new();
    let mut failed = 0u64;

    let signer = SigningKey::from_seed(&[7; 32]);
    let message = [0x42u8; 64];
    let signature = signer.sign(&message);
    let verifier = signer.verifying_key();
    let ns = ns_per_call(4, || {
        black_box(verifier.verify(black_box(&message), &signature)).ok();
    });
    out.push(("crypto.ed25519_verify_us", ns / 1e3));

    let secret = [9u8; 32];
    let peer = x25519::public_key(&[5u8; 32]);
    let ns = ns_per_call(4, || {
        black_box(x25519::shared_secret(black_box(&secret), &peer));
    });
    out.push(("crypto.x25519_us", ns / 1e3));

    let big = vec![0x17u8; ONE_MIB];
    let aead = ChaCha20Poly1305::new(&[1; 32]);
    let ns = ns_per_call(1, || {
        black_box(aead.seal(&[0; 12], &[], black_box(&big[..64 * 1024])));
    });
    out.push(("crypto.chacha20poly1305_mib_s", mib_s(64 * 1024, ns)));

    let ns = ns_per_call(64, || {
        black_box(Sha256::digest(black_box(&big[..SECTOR])));
    });
    out.push(("crypto.sha256_mib_s", mib_s(SECTOR, ns)));

    let xts = Xts::new(&[3; 64]).expect("64-byte XTS key");
    let mut sector = 0u64;
    let ns = ns_per_call(16, || {
        sector += 1;
        black_box(xts.encrypt_sector(sector, black_box(&big[..SECTOR])).ok());
    });
    out.push(("crypto.aes_xts_mib_s", mib_s(SECTOR, ns)));

    let mut dst = vec![0u8; ONE_MIB];
    let ns = ns_per_call(1, || {
        dst.copy_from_slice(black_box(&big));
        black_box(&mut dst);
    });
    out.push(("crypto.memcpy_mib_s", mib_s(ONE_MIB, ns)));

    // Both ends derive the same keys; every sealed record is opened by
    // the peer, so sequence numbers stay in step.
    let mut client = derive_traffic_keys(&[1; 32], &[2; 32], &[3; 32]).client_to_server;
    let mut server = derive_traffic_keys(&[1; 32], &[2; 32], &[3; 32]).client_to_server;
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while seal.len() < MIN_BATCHES || start.elapsed() < PROBE_BUDGET * 2 {
        let t = Instant::now();
        let record = client.seal(black_box(&big));
        let sealed = Instant::now();
        let plain = server.open(&record);
        let opened = Instant::now();
        failed += u64::from(!plain.is_ok_and(|p| p == big));
        seal.push((sealed - t).as_nanos() as f64);
        open.push((opened - sealed).as_nanos() as f64);
    }
    out.push(("tls.record_seal_mib_s", mib_s(ONE_MIB, median(&seal))));
    out.push(("tls.record_open_mib_s", mib_s(ONE_MIB, median(&open))));

    let request = Request::post("/upload", big.clone());
    let response = Response::ok(big.clone());
    let ns = ns_per_call(1, || {
        let bytes = request.to_bytes().expect("encodable request");
        black_box(Request::from_bytes(&bytes).ok());
        let bytes = response.to_bytes().expect("encodable response");
        black_box(Response::from_bytes(&bytes).ok());
    });
    out.push(("http.codec_mib_s", mib_s(2 * ONE_MIB, ns)));

    let bound = net.bind(ECHO_ADDRESS, Arc::new(Echo)).is_ok();
    let ns = ns_per_call(8, || {
        let exchanged = net
            .dial(ECHO_ADDRESS)
            .and_then(|mut conn| conn.exchange(black_box(&message)));
        failed += u64::from(!exchanged.is_ok_and(|r| r == message));
    });
    out.push(("net.dial_exchange_us", ns / 1e3));
    let ns = match net.dial(ECHO_ADDRESS) {
        Ok(mut conn) => ns_per_call(1, || {
            let echoed = conn.exchange(black_box(&big));
            failed += u64::from(!echoed.is_ok_and(|r| r.len() == ONE_MIB));
        }),
        Err(_) => {
            failed += 1;
            f64::NAN
        }
    };
    out.push(("net.exchange_mib_s", mib_s(ONE_MIB, ns)));
    failed += u64::from(!bound);
    net.unbind(ECHO_ADDRESS);

    let ns = ns_per_call(8, || {
        failed += u64::from(net.bind(BIND_ADDRESS, Arc::new(Echo)).is_err());
        net.unbind(BIND_ADDRESS);
    });
    out.push(("net.bind_unbind_us", ns / 1e3));
    (out, failed)
}
