//! Package installation: the floating-version problem and pinned base
//! images (paper §5.1.1).
//!
//! "Application packages can be another source of [non-determinism] since
//! the package versions can change on every invocation of `apt-get` […] To
//! tackle this problem instead of installing the packages from scratch
//! during every build, we pull a published image instead." This module
//! models both paths so the difference is testable: installing `latest`
//! from a drifting [`PackageRegistry`] changes the tree hash when the
//! registry updates; installing a pinned [`BaseImage`] never does.

use std::collections::BTreeMap;

use revelio_crypto::sha2::Sha256;

use crate::fstree::FsTree;
use crate::BuildError;

/// One published version of a package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageVersion {
    /// Version string, e.g. `"1.18.0-0ubuntu1.4"`.
    pub version: String,
    /// Files the package installs: `(path, content, mode)`.
    pub files: Vec<(String, Vec<u8>, u16)>,
}

/// A mutable package archive, like the Ubuntu mirror `apt-get` hits.
///
/// Versions are kept in publication order; "latest" is whatever was pushed
/// most recently — which is exactly why unpinned installs are not
/// reproducible.
#[derive(Debug, Clone, Default)]
pub struct PackageRegistry {
    packages: BTreeMap<String, Vec<PackageVersion>>,
}

impl PackageRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        PackageRegistry::default()
    }

    /// Publishes a new version of `name` (becomes the new latest).
    pub fn publish(&mut self, name: &str, version: PackageVersion) {
        self.packages
            .entry(name.to_owned())
            .or_default()
            .push(version);
    }

    /// Installs the latest version of `name` into `tree` — the
    /// non-reproducible path.
    ///
    /// # Errors
    ///
    /// [`BuildError::PackageNotFound`] when the package does not exist.
    pub fn install_latest(&self, name: &str, tree: &mut FsTree) -> Result<String, BuildError> {
        let latest = self
            .packages
            .get(name)
            .and_then(|versions| versions.last())
            .ok_or_else(|| BuildError::PackageNotFound(name.to_owned()))?;
        Self::install(latest, tree)?;
        Ok(latest.version.clone())
    }

    fn install(pkg: &PackageVersion, tree: &mut FsTree) -> Result<(), BuildError> {
        for (path, content, mode) in &pkg.files {
            tree.add_file(path, content.clone(), *mode)?;
        }
        Ok(())
    }
}

/// A published, immutable base image: a snapshot of installed packages with
/// a content digest — the paper's "pull a published image instead",
/// produced in a protected CI environment and pushed to a registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseImage {
    /// Image name, e.g. `"ubuntu-20.04-revelio-base"`.
    pub(crate) name: String,
    /// Resolved package list `(name, version)` recorded at snapshot time.
    pub(crate) manifest: Vec<(String, String)>,
    /// The frozen filesystem layer.
    tree: FsTree,
    /// Content digest clients pin (like a Docker image digest).
    digest: [u8; 32],
}

impl BaseImage {
    /// Snapshots `packages` (resolved to their current latest versions in
    /// `registry`) into an immutable layer.
    ///
    /// # Errors
    ///
    /// [`BuildError::PackageNotFound`] when any package is absent.
    pub fn snapshot(
        name: &str,
        registry: &PackageRegistry,
        packages: &[&str],
    ) -> Result<Self, BuildError> {
        let mut tree = FsTree::new();
        let mut manifest = Vec::with_capacity(packages.len());
        for pkg in packages {
            let version = registry.install_latest(pkg, &mut tree)?;
            manifest.push(((*pkg).to_owned(), version));
        }
        let digest = Self::compute_digest(name, &tree);
        Ok(BaseImage {
            name: name.to_owned(),
            manifest,
            tree,
            digest,
        })
    }

    fn compute_digest(name: &str, tree: &FsTree) -> [u8; 32] {
        let mut bytes = name.as_bytes().to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&tree.content_hash());
        Sha256::digest(&bytes)
    }

    /// The pinnable content digest.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// Overlays the base layer onto `tree` after re-checking the digest the
    /// builder pinned (an altered registry image is detected here —
    /// integrity protection for the published image, §5.1.1).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::PackageNotFound`] naming the base image when
    /// the pinned digest does not match the image contents.
    pub fn apply_pinned(
        &self,
        pinned_digest: &[u8; 32],
        tree: &mut FsTree,
    ) -> Result<(), BuildError> {
        if !revelio_crypto::ct::eq(&self.digest, pinned_digest) {
            return Err(BuildError::PackageNotFound(format!(
                "base image {} (digest mismatch)",
                self.name
            )));
        }
        tree.overlay(&self.tree);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> PackageRegistry {
        let mut r = PackageRegistry::new();
        r.publish(
            "nginx",
            PackageVersion {
                version: "1.18.0".into(),
                files: vec![("/usr/sbin/nginx".into(), b"nginx-1.18".to_vec(), 0o755)],
            },
        );
        r.publish(
            "openssl",
            PackageVersion {
                version: "1.1.1f".into(),
                files: vec![("/usr/bin/openssl".into(), b"ssl-1.1.1f".to_vec(), 0o755)],
            },
        );
        r
    }

    #[test]
    fn latest_install_drifts_when_registry_updates() {
        let mut reg = registry();
        let mut before = FsTree::new();
        reg.install_latest("nginx", &mut before).unwrap();

        // The mirror publishes a security update between the two builds.
        reg.publish(
            "nginx",
            PackageVersion {
                version: "1.18.1".into(),
                files: vec![("/usr/sbin/nginx".into(), b"nginx-1.18.1".to_vec(), 0o755)],
            },
        );
        let mut after = FsTree::new();
        reg.install_latest("nginx", &mut after).unwrap();
        assert_ne!(before.content_hash(), after.content_hash());
    }

    #[test]
    fn missing_package_is_reported() {
        let reg = registry();
        let mut t = FsTree::new();
        assert!(matches!(
            reg.install_latest("ghost", &mut t),
            Err(BuildError::PackageNotFound(_))
        ));
    }

    #[test]
    fn base_image_freezes_versions() {
        let mut reg = registry();
        let base = BaseImage::snapshot("ubuntu-base", &reg, &["nginx", "openssl"]).unwrap();
        let digest = base.digest();
        // Registry moves on; the snapshot does not.
        reg.publish(
            "nginx",
            PackageVersion {
                version: "2.0".into(),
                files: vec![],
            },
        );
        let mut a = FsTree::new();
        base.apply_pinned(&digest, &mut a).unwrap();
        let mut b = FsTree::new();
        base.apply_pinned(&digest, &mut b).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(base.manifest[0], ("nginx".to_owned(), "1.18.0".to_owned()));
    }

    #[test]
    fn tampered_base_image_detected_by_digest() {
        let reg = registry();
        let base = BaseImage::snapshot("ubuntu-base", &reg, &["nginx"]).unwrap();
        let honest_digest = base.digest();

        // A registry attacker swaps the image contents behind the name.
        let mut evil_reg = registry();
        evil_reg.publish(
            "nginx",
            PackageVersion {
                version: "1.18.0-backdoored".into(),
                files: vec![("/usr/sbin/nginx".into(), b"backdoor".to_vec(), 0o755)],
            },
        );
        let evil = BaseImage::snapshot("ubuntu-base", &evil_reg, &["nginx"]).unwrap();
        let mut t = FsTree::new();
        assert!(evil.apply_pinned(&honest_digest, &mut t).is_err());
    }

    #[test]
    fn digest_depends_on_name_and_content() {
        let reg = registry();
        let a = BaseImage::snapshot("a", &reg, &["nginx"]).unwrap();
        let b = BaseImage::snapshot("b", &reg, &["nginx"]).unwrap();
        assert_ne!(a.digest(), b.digest());
    }
}
