//! Boot artifacts: kernel blobs, the initrd (init configuration), and the
//! kernel command line that carries the dm-verity root hash.
//!
//! Under measured direct boot these three blobs are hashed by the
//! hypervisor, checked by the firmware, and thereby folded into the launch
//! measurement (§2.1.2, §5.1.2). Their encodings must therefore be
//! deterministic; all three round-trip through
//! [`revelio_crypto::wire`].

use revelio_crypto::wire::{ByteReader, ByteWriter};
use revelio_crypto::{hex, CryptoError};

use crate::BuildError;

/// Inbound-network policy baked into the image (§5.1.3: "blocking
/// unauthorized inward connections").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkPolicy {
    /// TCP ports that accept inbound connections (the HTTPS port only, for
    /// a Revelio VM).
    pub(crate) allowed_inbound_ports: Vec<u16>,
    /// Whether an SSH daemon is present and reachable — `true` is exactly
    /// the management-API hole Revelio closes.
    pub ssh_enabled: bool,
}

impl Default for NetworkPolicy {
    /// Revelio's policy: HTTPS only, no SSH.
    fn default() -> Self {
        NetworkPolicy {
            allowed_inbound_ports: vec![443],
            ssh_enabled: false,
        }
    }
}

/// First-boot encrypted-volume setup (§5.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CryptVolumeConfig {
    /// Name of the data partition to encrypt.
    pub partition_name: String,
    /// PBKDF2 iterations for the key slot (paper: 1000).
    pub kdf_iterations: u32,
}

impl Default for CryptVolumeConfig {
    fn default() -> Self {
        CryptVolumeConfig {
            partition_name: "data".to_owned(),
            kdf_iterations: 1000,
        }
    }
}

/// Everything the in-initrd init process does at boot, in order:
/// verity-mount the rootfs, set up the sealed data volume, apply the
/// network policy, create the VM identity, start services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitConfig {
    /// Mount the rootfs through dm-verity (root hash from the cmdline).
    pub verity_rootfs: bool,
    /// Optional sealed data volume to create/open on (first) boot.
    pub crypt_volume: Option<CryptVolumeConfig>,
    /// Network policy to enforce before any service starts.
    pub network: NetworkPolicy,
    /// Create the unique VM identity key pair and attestation reports at
    /// first boot (§5.2.2).
    pub create_identity: bool,
    /// System services started after bring-up. The count dominates total
    /// boot time (Table 1: the Boundary Node starts far more services than
    /// the CryptPad server).
    pub services: Vec<String>,
}

impl Default for InitConfig {
    fn default() -> Self {
        InitConfig {
            verity_rootfs: true,
            crypt_volume: Some(CryptVolumeConfig::default()),
            network: NetworkPolicy::default(),
            create_identity: true,
            services: Vec::new(),
        }
    }
}

impl InitConfig {
    /// Serializes into initrd bytes.
    #[must_use]
    pub fn to_initrd(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVIRD1");
        w.put_u8(u8::from(self.verity_rootfs));
        match &self.crypt_volume {
            None => {
                w.put_u8(0);
            }
            Some(c) => {
                w.put_u8(1);
                w.put_str(&c.partition_name);
                w.put_u32(c.kdf_iterations);
            }
        }
        w.put_u32(self.network.allowed_inbound_ports.len() as u32);
        for port in &self.network.allowed_inbound_ports {
            w.put_u16(*port);
        }
        w.put_u8(u8::from(self.network.ssh_enabled));
        w.put_u8(u8::from(self.create_identity));
        w.put_u32(self.services.len() as u32);
        for s in &self.services {
            w.put_str(s);
        }
        w.into_bytes()
    }

    /// Parses initrd bytes.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Wire`] on malformed input.
    pub fn from_initrd(bytes: &[u8]) -> Result<Self, BuildError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<6>()?;
        if &magic != b"RVIRD1" {
            return Err(BuildError::Wire(
                revelio_crypto::wire::WireError::UnknownTag(magic[0]),
            ));
        }
        let verity_rootfs = r.get_u8()? != 0;
        let crypt_volume = match r.get_u8()? {
            0 => None,
            1 => Some(CryptVolumeConfig {
                partition_name: r.get_str()?,
                kdf_iterations: r.get_u32()?,
            }),
            t => {
                return Err(BuildError::Wire(
                    revelio_crypto::wire::WireError::UnknownTag(t),
                ))
            }
        };
        let n_ports = r.get_count(2)?; // u16 per port
        let mut allowed_inbound_ports = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            allowed_inbound_ports.push(r.get_u16()?);
        }
        let ssh_enabled = r.get_u8()? != 0;
        let create_identity = r.get_u8()? != 0;
        let n_services = r.get_count(4)?; // string prefix
        let mut services = Vec::with_capacity(n_services);
        for _ in 0..n_services {
            services.push(r.get_str()?);
        }
        r.finish()?;
        Ok(InitConfig {
            verity_rootfs,
            crypt_volume,
            network: NetworkPolicy {
                allowed_inbound_ports,
                ssh_enabled,
            },
            create_identity,
            services,
        })
    }
}

/// A kernel build: version plus configuration flags, rendered to a
/// deterministic blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSpec {
    /// Kernel version string, e.g. `"5.17.0-rc6-snp"`.
    pub(crate) version: String,
    /// Enabled config options (sorted set semantics: callers should keep
    /// them sorted; the encoder sorts defensively).
    pub config_flags: Vec<String>,
}

impl Default for KernelSpec {
    /// The guest kernel of the paper's evaluation (§6.2).
    fn default() -> Self {
        KernelSpec {
            version: "5.17.0-rc6-snp".to_owned(),
            config_flags: vec![
                "CONFIG_AMD_MEM_ENCRYPT".to_owned(),
                "CONFIG_DM_CRYPT".to_owned(),
                "CONFIG_DM_VERITY".to_owned(),
            ],
        }
    }
}

impl KernelSpec {
    /// Renders the kernel blob.
    #[must_use]
    pub fn to_blob(&self) -> Vec<u8> {
        let mut flags = self.config_flags.clone();
        flags.sort();
        flags.dedup();
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVKRN1");
        w.put_str(&self.version);
        w.put_u32(flags.len() as u32);
        for f in &flags {
            w.put_str(f);
        }
        w.into_bytes()
    }

    /// Parses a kernel blob.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Wire`] on malformed input.
    pub fn from_blob(bytes: &[u8]) -> Result<Self, BuildError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<6>()?;
        if &magic != b"RVKRN1" {
            return Err(BuildError::Wire(
                revelio_crypto::wire::WireError::UnknownTag(magic[0]),
            ));
        }
        let version = r.get_str()?;
        let n = r.get_count(4)?; // string prefix
        let mut config_flags = Vec::with_capacity(n);
        for _ in 0..n {
            config_flags.push(r.get_str()?);
        }
        r.finish()?;
        Ok(KernelSpec {
            version,
            config_flags,
        })
    }
}

/// The kernel command line, including the dm-verity root hash that extends
/// the measured envelope down to the root filesystem (§3.4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelCmdline {
    /// dm-verity root hash of the rootfs (hex in the rendered line).
    pub verity_root_hash: Option<[u8; 32]>,
    /// Additional `key=value` arguments, in order.
    pub(crate) extra: Vec<(String, String)>,
}

impl KernelCmdline {
    /// Renders to the canonical textual form.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let mut parts = vec!["root=/dev/mapper/vroot".to_owned(), "ro".to_owned()];
        if let Some(h) = &self.verity_root_hash {
            parts.push(format!("verity_root_hash={}", hex::encode(h)));
        }
        for (k, v) in &self.extra {
            parts.push(format!("{k}={v}"));
        }
        parts.join(" ")
    }

    /// Parses a rendered command line.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidHex`] /
    /// [`CryptoError::InvalidLength`] if the root hash argument is
    /// malformed.
    pub fn parse(line: &str) -> Result<Self, CryptoError> {
        let mut cmdline = KernelCmdline::default();
        for token in line.split_whitespace() {
            match token.split_once('=') {
                Some(("verity_root_hash", v)) => {
                    cmdline.verity_root_hash = Some(hex::decode_array::<32>(v)?);
                }
                Some(("root", _)) | None => {}
                Some((k, v)) if k != "ro" => {
                    cmdline.extra.push((k.to_owned(), v.to_owned()));
                }
                _ => {}
            }
        }
        Ok(cmdline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_config_roundtrip() {
        let cfg = InitConfig {
            services: vec!["nginx".into(), "ic-proxy".into()],
            ..InitConfig::default()
        };
        assert_eq!(InitConfig::from_initrd(&cfg.to_initrd()).unwrap(), cfg);
    }

    #[test]
    fn init_config_without_crypt_roundtrip() {
        let cfg = InitConfig {
            crypt_volume: None,
            ..InitConfig::default()
        };
        assert_eq!(InitConfig::from_initrd(&cfg.to_initrd()).unwrap(), cfg);
    }

    #[test]
    fn initrd_encoding_is_deterministic() {
        assert_eq!(
            InitConfig::default().to_initrd(),
            InitConfig::default().to_initrd()
        );
    }

    #[test]
    fn kernel_blob_roundtrip_and_flag_order_insensitive() {
        let a = KernelSpec {
            version: "5.17".into(),
            config_flags: vec!["B".into(), "A".into()],
        };
        let b = KernelSpec {
            version: "5.17".into(),
            config_flags: vec!["A".into(), "B".into()],
        };
        assert_eq!(a.to_blob(), b.to_blob());
        let parsed = KernelSpec::from_blob(&a.to_blob()).unwrap();
        assert_eq!(parsed.config_flags, vec!["A".to_owned(), "B".to_owned()]);
    }

    #[test]
    fn cmdline_roundtrip_with_root_hash() {
        let c = KernelCmdline {
            verity_root_hash: Some([0xab; 32]),
            extra: vec![("quiet".into(), "1".into())],
        };
        let rendered = c.render();
        assert!(rendered.contains("verity_root_hash=abab"));
        assert_eq!(KernelCmdline::parse(&rendered).unwrap(), c);
    }

    #[test]
    fn cmdline_bad_hash_rejected() {
        assert!(KernelCmdline::parse("verity_root_hash=zzzz").is_err());
        assert!(KernelCmdline::parse("verity_root_hash=abcd").is_err()); // too short
    }

    #[test]
    fn default_network_policy_is_https_only_no_ssh() {
        let p = NetworkPolicy::default();
        assert_eq!(p.allowed_inbound_ports, vec![443]);
        assert!(!p.ssh_enabled);
    }

    #[test]
    fn truncated_artifacts_rejected() {
        let blob = KernelSpec::default().to_blob();
        assert!(KernelSpec::from_blob(&blob[..4]).is_err());
        let initrd = InitConfig::default().to_initrd();
        assert!(InitConfig::from_initrd(&initrd[..initrd.len() - 1]).is_err());
    }
}
