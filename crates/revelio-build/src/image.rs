//! Final disk assembly: from a filesystem tree to a bootable, attestable
//! VM image (paper Fig. 3).
//!
//! The builder scrubs the rootfs, lays out the disk (partition table,
//! rootfs, verity metadata, data partition), generates the dm-verity hash
//! tree, and emits the kernel/initrd/cmdline triple whose hashes the
//! measured-direct-boot firmware will verify. Building the same
//! [`ImageSpec`] twice yields bit-identical artifacts and therefore the
//! same launch measurement — requirement **F5**.

use std::sync::Arc;

use revelio_storage::block::{write_at, BlockDevice, MemBlockDevice};
use revelio_storage::partition::{PartitionKind, PartitionTable, PartitionView};
use revelio_storage::verity::{VerityParams, VerityTree};

use crate::artifacts::{InitConfig, KernelCmdline, KernelSpec};
use crate::fstree::FsTree;
use crate::scrub::{scrub, ScrubPolicy};
use crate::BuildError;

/// Declarative description of a VM image build.
#[derive(Debug, Clone)]
pub struct ImageSpec {
    /// Image name (goes into logs and registry entries, not the bits).
    pub name: String,
    /// The root filesystem contents (pre-scrub).
    pub rootfs: FsTree,
    /// Scrub policy applied before archiving.
    pub(crate) scrub_policy: ScrubPolicy,
    /// Kernel to ship.
    pub kernel: KernelSpec,
    /// Init behaviour (services, crypt volume, network policy).
    pub init: InitConfig,
    /// Disk block size in bytes.
    pub block_size: usize,
    /// Size of the mutable data partition, in blocks.
    pub data_blocks: u64,
    /// dm-verity salt.
    pub(crate) verity_salt: [u8; 32],
}

impl ImageSpec {
    /// A spec with the workspace defaults (4 KiB blocks, 64-block data
    /// partition, default scrub policy and init config).
    #[must_use]
    pub fn new(name: &str, rootfs: FsTree) -> Self {
        ImageSpec {
            name: name.to_owned(),
            rootfs,
            scrub_policy: ScrubPolicy::default(),
            kernel: KernelSpec::default(),
            init: InitConfig::default(),
            block_size: 4096,
            data_blocks: 64,
            verity_salt: [0x1e; 32],
        }
    }
}

/// A built image: everything the hypervisor needs to launch the VM, plus
/// the root hash auditors reproduce.
pub struct VmImage {
    /// Image name (from the spec).
    pub name: String,
    /// Kernel blob (hashed into the firmware hash table).
    pub kernel: Vec<u8>,
    /// Initrd blob (hashed into the firmware hash table).
    pub initrd: Vec<u8>,
    /// Rendered kernel command line, carrying the verity root hash.
    pub cmdline: String,
    /// The assembled disk.
    pub disk: Arc<MemBlockDevice>,
    /// dm-verity root hash over the rootfs partition.
    pub root_hash: [u8; 32],
    /// Blocks occupied by the rootfs partition.
    pub rootfs_blocks: u64,
}

impl std::fmt::Debug for VmImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmImage")
            .field("name", &self.name)
            .field("root_hash", &revelio_crypto::hex::encode(self.root_hash))
            .field("rootfs_blocks", &self.rootfs_blocks)
            .finish_non_exhaustive()
    }
}

impl VmImage {
    /// Convenience: the partition views of the assembled disk.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (a well-formed image always opens).
    pub fn partitions(&self) -> Result<Vec<PartitionView>, BuildError> {
        Ok(PartitionTable::open(
            Arc::clone(&self.disk) as Arc<dyn BlockDevice>
        )?)
    }
}

/// Reads the rootfs tree back from a (typically verity-mounted) rootfs
/// partition device — used by the boot sequence to materialize `/`.
///
/// # Errors
///
/// Returns [`BuildError::Wire`] / [`BuildError::Storage`] when the device
/// does not hold a valid rootfs payload (or verity rejects the reads).
pub fn read_rootfs(device: &dyn BlockDevice) -> Result<FsTree, BuildError> {
    let bad =
        |reason: String| BuildError::Storage(revelio_storage::StorageError::BadSuperblock(reason));
    let len_bytes = revelio_storage::block::read_at(device, 0, 8)?;
    let len = <[u8; 8]>::try_from(len_bytes.as_slice())
        .map(u64::from_le_bytes)
        .map_err(|_| bad("short rootfs payload header".into()))?;
    // Subtracting from the device size cannot overflow; `len + 8` can,
    // and the header is read from a host-supplied disk.
    if len == 0 || len > device.len_bytes().saturating_sub(8) {
        return Err(bad(format!(
            "rootfs payload length {len} does not fit device"
        )));
    }
    let archive = revelio_storage::block::read_at(device, 8, len as usize)?;
    FsTree::from_archive(&archive)
}

/// Runs the full build pipeline for `spec`.
///
/// # Errors
///
/// Returns [`BuildError`] when the rootfs archive or verity tree cannot be
/// laid out (degenerate geometries) or any path was invalid.
pub fn build_image(spec: &ImageSpec) -> Result<VmImage, BuildError> {
    // 1. Scrub a copy of the rootfs and archive it canonically. The
    //    partition stores `len || archive` so readers can strip padding.
    let mut rootfs = spec.rootfs.clone();
    scrub(&mut rootfs, &spec.scrub_policy);
    let archive = rootfs.to_archive();
    let mut rootfs_payload = (archive.len() as u64).to_le_bytes().to_vec();
    rootfs_payload.extend_from_slice(&archive);

    let bs = spec.block_size;
    let rootfs_blocks = (rootfs_payload.len() as u64).div_ceil(bs as u64).max(1);

    // 2. Compute the verity tree over the (padded) rootfs partition image.
    let staged_rootfs = MemBlockDevice::new(bs, rootfs_blocks);
    write_at(&staged_rootfs, 0, &rootfs_payload)?;
    let params = VerityParams {
        hash_block_size: bs,
        salt: spec.verity_salt,
    };
    let tree = VerityTree::build(&staged_rootfs, params)?;
    let meta_blocks = (tree.to_bytes().len() as u64 + 8)
        .div_ceil(bs as u64)
        .max(1);

    // 3. Lay out the disk.
    let total_blocks = 1 + rootfs_blocks + meta_blocks + spec.data_blocks.max(2);
    let disk = Arc::new(MemBlockDevice::new(bs, total_blocks));
    let mut table = PartitionTable::new();
    table.add("rootfs", PartitionKind::RootFs, rootfs_blocks)?;
    table.add("verity", PartitionKind::VerityMeta, meta_blocks)?;
    table.add("data", PartitionKind::Data, spec.data_blocks.max(2))?;
    let views = table.apply(Arc::clone(&disk) as Arc<dyn BlockDevice>)?;

    // 4. Write rootfs payload and verity metadata.
    write_at(views[0].device.as_ref(), 0, &rootfs_payload)?;
    tree.write_to_device(views[1].device.as_ref())?;

    // 5. Render boot artifacts; the cmdline pins the root hash.
    let cmdline = KernelCmdline {
        verity_root_hash: Some(tree.root_hash()),
        extra: Vec::new(),
    }
    .render();

    Ok(VmImage {
        name: spec.name.clone(),
        kernel: spec.kernel.to_blob(),
        initrd: spec.init.to_initrd(),
        cmdline,
        disk,
        root_hash: tree.root_hash(),
        rootfs_blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_storage::verity::VerityDevice;

    fn sample_rootfs() -> FsTree {
        let mut t = FsTree::new();
        t.add_file("/usr/sbin/nginx", vec![7u8; 10_000], 0o755)
            .unwrap();
        t.add_file("/etc/nginx/nginx.conf", b"server {}".to_vec(), 0o644)
            .unwrap();
        t.add_file_with_mtime("/etc/build-stamp", b"stamp".to_vec(), 0o644, 1_690_000_000)
            .unwrap();
        t
    }

    #[test]
    fn builds_are_bit_identical() {
        let spec = ImageSpec::new("cp", sample_rootfs());
        let a = build_image(&spec).unwrap();
        let b = build_image(&spec).unwrap();
        assert_eq!(a.root_hash, b.root_hash);
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.initrd, b.initrd);
        assert_eq!(a.cmdline, b.cmdline);
    }

    #[test]
    fn different_rootfs_different_root_hash() {
        let a = build_image(&ImageSpec::new("a", sample_rootfs())).unwrap();
        let mut other = sample_rootfs();
        other
            .add_file("/usr/sbin/backdoor", b"evil".to_vec(), 0o755)
            .unwrap();
        let b = build_image(&ImageSpec::new("b", other)).unwrap();
        assert_ne!(a.root_hash, b.root_hash);
    }

    #[test]
    fn scrubbing_makes_timestamped_builds_converge() {
        let mut t1 = sample_rootfs();
        t1.add_file_with_mtime("/app", b"bin".to_vec(), 0o755, 111)
            .unwrap();
        let mut t2 = sample_rootfs();
        t2.add_file_with_mtime("/app", b"bin".to_vec(), 0o755, 222)
            .unwrap();
        let a = build_image(&ImageSpec::new("x", t1)).unwrap();
        let b = build_image(&ImageSpec::new("x", t2)).unwrap();
        assert_eq!(a.root_hash, b.root_hash);
    }

    #[test]
    fn cmdline_carries_root_hash() {
        let image = build_image(&ImageSpec::new("cp", sample_rootfs())).unwrap();
        let parsed = KernelCmdline::parse(&image.cmdline).unwrap();
        assert_eq!(parsed.verity_root_hash, Some(image.root_hash));
    }

    #[test]
    fn rootfs_partition_verifies_and_decodes() {
        let image = build_image(&ImageSpec::new("cp", sample_rootfs())).unwrap();
        let views = image.partitions().unwrap();
        assert_eq!(views[0].partition.kind, PartitionKind::RootFs);

        // Read the stored verity metadata and mount the rootfs through it —
        // exactly what the boot sequence does.
        let tree = VerityTree::read_from_device(views[1].device.as_ref()).unwrap();
        assert_eq!(tree.root_hash(), image.root_hash);
        let verity =
            VerityDevice::open(Arc::clone(&views[0].device), tree, &image.root_hash).unwrap();
        let mounted = read_rootfs(&verity).unwrap();
        // The mounted tree equals the scrubbed input tree.
        assert!(mounted.get("/usr/sbin/nginx").is_some());
        assert!(mounted.get("/etc/build-stamp").is_some()); // survives, mtime squashed
        let mut expected = sample_rootfs();
        scrub(&mut expected, &ScrubPolicy::default());
        assert_eq!(mounted, expected);
    }

    #[test]
    fn oversized_rootfs_header_is_rejected() {
        let device = MemBlockDevice::new(4096, 1);
        for len in [0, 4096 - 7, u64::MAX - 7, u64::MAX] {
            write_at(&device, 0, &len.to_le_bytes()).unwrap();
            assert!(
                matches!(read_rootfs(&device), Err(BuildError::Storage(_))),
                "header length {len}"
            );
        }
    }

    #[test]
    fn data_partition_present_and_writable() {
        let image = build_image(&ImageSpec::new("cp", sample_rootfs())).unwrap();
        let views = image.partitions().unwrap();
        let data = &views[2];
        assert_eq!(data.partition.kind, PartitionKind::Data);
        data.device.write_block(0, &vec![9u8; 4096]).unwrap();
    }

    #[test]
    fn tampering_with_disk_after_build_breaks_verity() {
        let image = build_image(&ImageSpec::new("cp", sample_rootfs())).unwrap();
        let views = image.partitions().unwrap();
        let rootfs_first_block = views[0].partition.first_block;
        image.disk.corrupt_bit(rootfs_first_block * 4096 + 123, 1);

        let tree = VerityTree::read_from_device(views[1].device.as_ref()).unwrap();
        let verity =
            VerityDevice::open(Arc::clone(&views[0].device), tree, &image.root_hash).unwrap();
        let mut buf = vec![0u8; 4096];
        assert!(matches!(
            verity.read_block(0, &mut buf),
            Err(revelio_storage::StorageError::IntegrityViolation { block: 0 })
        ));
    }
}
