//! Block-device stack simulating the Linux storage features Revelio uses.
//!
//! The paper (§5.1.2, §5.2.1) protects a Revelio VM's disks with two Linux
//! device-mapper targets:
//!
//! * **dm-verity** renders the root filesystem read-only and
//!   integrity-protected: a Merkle tree of SHA-256 block hashes is generated
//!   at image-build time, its root hash travels on the kernel command line
//!   (and thus into the launch measurement), and every read is verified
//!   against the tree. Reproduced by [`verity`].
//! * **dm-crypt** encrypts the mutable data volume with `aes-xts-plain64`,
//!   keyed from a PBKDF2-stretched secret — in Revelio the SEV-SNP sealing
//!   key, so only an identically-measured VM can unlock the volume.
//!   Reproduced by [`crypt`].
//!
//! Both are layered over a [`block::BlockDevice`] trait with shared-access
//! semantics (interior locking), so targets stack exactly like device-mapper
//! devices: `partition → crypt → filesystem`, `partition → verity → rootfs`.
//!
//! # Example: an encrypted volume over one partition of a disk
//!
//! ```
//! use std::sync::Arc;
//! use revelio_storage::block::{BlockDevice, MemBlockDevice};
//! use revelio_storage::partition::{PartitionKind, PartitionTable};
//! use revelio_storage::crypt::{CryptDevice, CryptParams};
//!
//! let disk: Arc<dyn BlockDevice> = Arc::new(MemBlockDevice::new(512, 2048));
//! let mut table = PartitionTable::new();
//! table.add("data", PartitionKind::Data, 1024)?;
//! let views = table.apply(Arc::clone(&disk))?;
//!
//! let data = views.into_iter().next().unwrap().device;
//! let params = CryptParams::default();
//! // First boot formats the volume and gets it back unlocked ...
//! let vol = CryptDevice::format(Arc::clone(&data), b"sealing key", &params)?;
//! vol.write_block(0, &vec![7u8; 512])?;
//! drop(vol);
//! // ... every later boot unlocks it with the same key.
//! let vol = CryptDevice::open(data, b"sealing key", &params)?;
//! let mut block = vec![0u8; 512];
//! vol.read_block(0, &mut block)?;
//! assert_eq!(block, vec![7u8; 512]);
//! # Ok::<(), revelio_storage::StorageError>(())
//! ```

pub mod block;
pub mod crypt;
pub mod error;
pub mod partition;
pub mod probed;
pub mod verity;

pub use error::StorageError;
