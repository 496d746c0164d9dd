//! The world every workload runs against: a 4-node fleet serving the
//! benchmark's own application, the storage volumes behind it, and a
//! registered extension.

use std::sync::Arc;

use revelio::extension::WebExtension;
use revelio::world::{DeployedFleet, SimWorld};
use revelio_http::message::Response;
use revelio_http::router::Router;
use revelio_storage::block::{read_at, write_at, BlockDevice, MemBlockDevice};
use revelio_storage::crypt::{CryptDevice, CryptParams};
use revelio_storage::verity::{VerityDevice, VerityParams, VerityTree};

use crate::stats::SplitMix64;
use crate::trace;

/// The domain the benchmark fleet serves.
pub const DOMAIN: &str = "bench.example.org";
/// Nodes per fleet, in the fixture and in every provision op.
pub const FLEET_NODES: usize = 4;
/// Payload of one transfer direction.
pub const TRANSFER_BYTES: usize = 1 << 20;
/// Block size of both volumes (the paper's 4 KiB).
const BLOCK: usize = 4096;
/// Small pages a returning visitor fetches.
pub const PAGES: usize = 4;
/// Body of `/`, the page a first-time visitor loads.
pub const INDEX: &[u8] = b"<html><body>revelio benchmark service</body></html>";
const CRYPT_PASSPHRASE: &[u8] = b"perfbench sealed volume";

/// Inputs derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// `(path, body)` of the small pages, 256..2048 bytes each.
    pub pages: Vec<(String, Vec<u8>)>,
    /// Contents of the immutable (verity) volume: what `/download` serves.
    pub download: Vec<u8>,
    /// The upload body; each op stamps its op id into the first 8 bytes.
    pub upload: Vec<u8>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7065_7266_6265_6e63);
        let pages = (0..PAGES)
            .map(|i| {
                let len = rng.range(256, 2048);
                (format!("/page/{i}"), rng.bytes(len))
            })
            .collect();
        let download = rng.bytes(TRANSFER_BYTES);
        let upload = rng.bytes(TRANSFER_BYTES);
        Inputs {
            pages,
            download,
            upload,
        }
    }
}

/// The volumes behind the transfer handlers.
pub struct Storage {
    pub verity: VerityDevice,
    pub verity_backing: Arc<MemBlockDevice>,
    pub crypt: CryptDevice,
    pub crypt_backing: Arc<MemBlockDevice>,
}

impl Storage {
    fn new(download: &[u8]) -> Self {
        let verity_backing = Arc::new(MemBlockDevice::from_bytes(BLOCK, download));
        let tree = VerityTree::build(verity_backing.as_ref(), VerityParams::default())
            .expect("verity tree over an in-memory volume");
        let root = tree.root_hash();
        let verity = VerityDevice::open(verity_backing.clone(), tree, &root)
            .expect("the root hash was just computed");
        let blocks = (TRANSFER_BYTES / BLOCK) as u64 + 1;
        let crypt_backing = Arc::new(MemBlockDevice::new(BLOCK, blocks));
        let params = CryptParams::default();
        CryptDevice::format(crypt_backing.clone(), CRYPT_PASSPHRASE, &params)
            .expect("format an in-memory volume");
        let crypt = CryptDevice::open(crypt_backing.clone(), CRYPT_PASSPHRASE, &params)
            .expect("open the volume just formatted");
        Storage {
            verity,
            verity_backing,
            crypt,
            crypt_backing,
        }
    }

    /// Block reads and writes on both backing devices so far.
    pub fn block_io(&self) -> (u64, u64) {
        let (v, c) = (self.verity_backing.stats(), self.crypt_backing.stats());
        (v.reads + c.reads, v.writes + c.writes)
    }

    /// Whether the sealed volume holds `upload`, checked on two blocks:
    /// block 0, which carries the op id every upload stamps in, and block
    /// `rotate` (mod the volume size), so a run that rotates it over its
    /// ops reads back every block without decrypting 1 MiB per op.
    pub fn holds_upload(&self, upload: &[u8], rotate: u64) -> bool {
        let blocks = (TRANSFER_BYTES / BLOCK) as u64;
        [0, rotate % blocks].into_iter().all(|block| {
            let offset = (block as usize) * BLOCK;
            read_at(&self.crypt as &dyn BlockDevice, offset as u64, BLOCK)
                .is_ok_and(|bytes| bytes == upload[offset..offset + BLOCK])
        })
    }
}

/// The application every fixture node serves: `/`, the small pages, and
/// the transfer handlers. `POST /upload` seals the body into the crypt
/// volume; `GET /download` reads the verity volume.
fn bench_app(inputs: &Inputs, storage: &Arc<Storage>) -> Router {
    let mut router = Router::new().get("/", |_| Response::ok(INDEX.to_vec()));
    for (path, body) in &inputs.pages {
        let body = body.clone();
        router = router.get(path, move |_| Response::ok(body.clone()));
    }
    let upload = Arc::clone(storage);
    let download = Arc::clone(storage);
    router
        .post("/upload", move |request| {
            let crypt = &upload.crypt as &dyn BlockDevice;
            match trace::span("storage.crypt_write", || write_at(crypt, 0, &request.body)) {
                Ok(()) => Response::ok(Vec::new()),
                Err(_) => Response::status(500),
            }
        })
        .get("/download", move |_| {
            let verity = &download.verity as &dyn BlockDevice;
            match trace::span("storage.verity_read", || read_at(verity, 0, TRANSFER_BYTES)) {
                Ok(bytes) => Response::ok(bytes),
                Err(_) => Response::status(500),
            }
        })
}

pub struct Fixture {
    pub world: SimWorld,
    pub fleet: DeployedFleet,
    /// The returning visitor's browser: registered, caches filled by
    /// whatever the workload's warm-up did.
    pub extension: WebExtension,
    pub inputs: Inputs,
    pub storage: Arc<Storage>,
}

impl Fixture {
    /// Builds the world, the volumes and the fleet, and registers the
    /// site with a fresh extension.
    pub fn new(seed: u64, inputs: &Inputs) -> Result<Self, String> {
        let mut world = trace::span("world.new", || SimWorld::new(seed));
        let storage = Arc::new(Storage::new(&inputs.download));
        let app = bench_app(inputs, &storage);
        let fleet = world
            .deploy_fleet(DOMAIN, FLEET_NODES, app)
            .map_err(|e| format!("fixture fleet: {e}"))?;
        let extension = world.extension();
        extension.register_site(DOMAIN, [fleet.golden_measurement]);
        Ok(Fixture {
            world,
            fleet,
            extension,
            inputs: inputs.clone(),
            storage,
        })
    }
}
