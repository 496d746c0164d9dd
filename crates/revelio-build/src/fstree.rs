//! A deterministic in-memory filesystem tree with a canonical archive
//! encoding.
//!
//! The tree is the unit everything else operates on: packages install files
//! into it, the scrubber deletes non-deterministic paths from it, and the
//! image assembler serializes it into the rootfs partition. Entries live in
//! a `BTreeMap`, so iteration (and therefore serialization) order is a
//! function of content alone — the "file ordering" non-determinism source
//! the paper's build scripts have to remediate is structurally absent here,
//! while *timestamps and machine IDs* are still representable so the
//! scrubber has real work to do.

use std::collections::BTreeMap;

use revelio_crypto::sha2::Sha256;
use revelio_crypto::wire::{ByteReader, ByteWriter};

use crate::BuildError;

/// One filesystem entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsEntry {
    /// A regular file.
    File {
        /// File contents.
        content: Vec<u8>,
        /// Unix permission bits.
        mode: u16,
        /// Modification time (seconds); a non-zero value is a
        /// reproducibility hazard the scrubber squashes.
        mtime: u64,
    },
    /// A directory (explicit, so empty directories are representable).
    Dir {
        /// Unix permission bits.
        mode: u16,
    },
    /// A symbolic link.
    Symlink {
        /// Link target path.
        target: String,
    },
}

/// A whole filesystem tree, keyed by absolute path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsTree {
    entries: BTreeMap<String, FsEntry>,
}

fn validate_path(path: &str) -> Result<(), BuildError> {
    let ok = path.starts_with('/')
        && !path.contains("//")
        && (path == "/" || !path.ends_with('/'))
        && !path.split('/').any(|seg| seg == "." || seg == "..");
    if ok {
        Ok(())
    } else {
        Err(BuildError::InvalidPath(path.to_owned()))
    }
}

impl FsTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        FsTree::default()
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&FsEntry> {
        self.entries.get(path)
    }

    /// Adds a regular file with `mtime = 0` (build-reproducible by default;
    /// use [`FsTree::add_file_with_mtime`] to model a timestamping tool).
    ///
    /// # Errors
    ///
    /// [`BuildError::InvalidPath`] for malformed paths,
    /// [`BuildError::PathConflict`] when a directory already sits there.
    pub fn add_file(
        &mut self,
        path: &str,
        content: Vec<u8>,
        mode: u16,
    ) -> Result<&mut Self, BuildError> {
        self.add_file_with_mtime(path, content, mode, 0)
    }

    /// Adds a regular file with an explicit modification time.
    ///
    /// # Errors
    ///
    /// As for [`FsTree::add_file`].
    pub fn add_file_with_mtime(
        &mut self,
        path: &str,
        content: Vec<u8>,
        mode: u16,
        mtime: u64,
    ) -> Result<&mut Self, BuildError> {
        validate_path(path)?;
        if matches!(self.entries.get(path), Some(FsEntry::Dir { .. })) {
            return Err(BuildError::PathConflict(path.to_owned()));
        }
        self.ensure_parents(path);
        self.entries.insert(
            path.to_owned(),
            FsEntry::File {
                content,
                mode,
                mtime,
            },
        );
        Ok(self)
    }

    fn ensure_parents(&mut self, path: &str) {
        let mut prefix = String::new();
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        for seg in &segments[..segments.len().saturating_sub(1)] {
            prefix.push('/');
            prefix.push_str(seg);
            self.entries
                .entry(prefix.clone())
                .or_insert(FsEntry::Dir { mode: 0o755 });
        }
    }

    /// Removes one entry (and, for a directory, everything below it).
    /// Returns the number of removed entries.
    pub(crate) fn remove_subtree(&mut self, path: &str) -> usize {
        let prefix = format!("{path}/");
        let doomed: Vec<String> = self
            .entries
            .keys()
            .filter(|k| *k == path || k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in &doomed {
            self.entries.remove(k);
        }
        doomed.len()
    }

    /// Removes every entry whose path matches `predicate`. Returns the
    /// number removed.
    pub(crate) fn remove_matching(&mut self, mut predicate: impl FnMut(&str) -> bool) -> usize {
        let doomed: Vec<String> = self
            .entries
            .keys()
            .filter(|k| predicate(k))
            .cloned()
            .collect();
        for k in &doomed {
            self.entries.remove(k);
        }
        doomed.len()
    }

    /// Applies `f` to every file entry (the scrubber's timestamp squash).
    pub(crate) fn for_each_file_mut(
        &mut self,
        mut f: impl FnMut(&str, &mut Vec<u8>, &mut u16, &mut u64),
    ) {
        for (path, entry) in &mut self.entries {
            if let FsEntry::File {
                content,
                mode,
                mtime,
            } = entry
            {
                f(path, content, mode, mtime);
            }
        }
    }

    /// Merges `other` into `self`, overwriting on conflicts (layered
    /// base-image semantics: later layers win).
    pub(crate) fn overlay(&mut self, other: &FsTree) {
        for (path, entry) in &other.entries {
            self.entries.insert(path.clone(), entry.clone());
        }
    }

    /// Canonical archive encoding: sorted paths, tagged entries.
    #[must_use]
    pub fn to_archive(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(b"RVFS");
        w.put_u32(self.entries.len() as u32);
        for (path, entry) in &self.entries {
            w.put_str(path);
            match entry {
                FsEntry::File {
                    content,
                    mode,
                    mtime,
                } => {
                    w.put_u8(0);
                    w.put_u16(*mode);
                    w.put_u64(*mtime);
                    w.put_var_bytes(content);
                }
                FsEntry::Dir { mode } => {
                    w.put_u8(1);
                    w.put_u16(*mode);
                }
                FsEntry::Symlink { target } => {
                    w.put_u8(2);
                    w.put_str(target);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes an archive produced by [`FsTree::to_archive`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Wire`] on malformed input.
    pub fn from_archive(bytes: &[u8]) -> Result<Self, BuildError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_array::<4>()?;
        if &magic != b"RVFS" {
            return Err(BuildError::Wire(
                revelio_crypto::wire::WireError::UnknownTag(magic[0]),
            ));
        }
        let n = r.get_u32()?;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let path = r.get_str()?;
            let entry = match r.get_u8()? {
                0 => {
                    let mode = r.get_u16()?;
                    let mtime = r.get_u64()?;
                    let content = r.get_var_bytes()?.to_vec();
                    FsEntry::File {
                        content,
                        mode,
                        mtime,
                    }
                }
                1 => FsEntry::Dir { mode: r.get_u16()? },
                2 => FsEntry::Symlink {
                    target: r.get_str()?,
                },
                t => {
                    return Err(BuildError::Wire(
                        revelio_crypto::wire::WireError::UnknownTag(t),
                    ))
                }
            };
            entries.insert(path, entry);
        }
        r.finish()?;
        Ok(FsTree { entries })
    }

    /// SHA-256 over the canonical archive — the tree's identity.
    #[must_use]
    pub(crate) fn content_hash(&self) -> [u8; 32] {
        Sha256::digest(self.to_archive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = FsTree::new();
        a.add_file("/b", b"2".to_vec(), 0o644).unwrap();
        a.add_file("/a", b"1".to_vec(), 0o644).unwrap();
        let mut b = FsTree::new();
        b.add_file("/a", b"1".to_vec(), 0o644).unwrap();
        b.add_file("/b", b"2".to_vec(), 0o644).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn mtime_changes_hash() {
        // This is the nondeterminism the scrubber exists to kill.
        let mut a = FsTree::new();
        a.add_file_with_mtime("/f", b"x".to_vec(), 0o644, 1_690_000_000)
            .unwrap();
        let mut b = FsTree::new();
        b.add_file_with_mtime("/f", b"x".to_vec(), 0o644, 1_690_000_001)
            .unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn parents_are_created_implicitly() {
        let mut t = FsTree::new();
        t.add_file("/usr/local/bin/tool", b"x".to_vec(), 0o755)
            .unwrap();
        assert!(matches!(t.get("/usr"), Some(FsEntry::Dir { .. })));
        assert!(matches!(t.get("/usr/local/bin"), Some(FsEntry::Dir { .. })));
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut t = FsTree::new();
        for bad in ["relative", "/a/../b", "/a//b", "/trailing/", "/."] {
            assert!(
                matches!(
                    t.add_file(bad, Vec::new(), 0o644),
                    Err(BuildError::InvalidPath(_))
                ),
                "{bad} should be invalid"
            );
        }
    }

    #[test]
    fn file_over_dir_conflicts() {
        let mut t = FsTree::new();
        t.add_file("/etc/hosts", Vec::new(), 0o644).unwrap();
        assert!(matches!(
            t.add_file("/etc", Vec::new(), 0o644),
            Err(BuildError::PathConflict(_))
        ));
    }

    #[test]
    fn remove_subtree_removes_children() {
        let mut t = FsTree::new();
        t.add_file("/var/lib/apt/lists/archive1", b"a".to_vec(), 0o644)
            .unwrap();
        t.add_file("/var/lib/apt/lists/archive2", b"b".to_vec(), 0o644)
            .unwrap();
        t.add_file("/var/lib/keep", b"k".to_vec(), 0o644).unwrap();
        let removed = t.remove_subtree("/var/lib/apt");
        assert_eq!(removed, 4); // apt, lists, 2 files
        assert!(t.get("/var/lib/keep").is_some());
    }

    #[test]
    fn overlay_later_layer_wins() {
        let mut base = FsTree::new();
        base.add_file("/etc/conf", b"base".to_vec(), 0o644).unwrap();
        let mut layer = FsTree::new();
        layer.add_file("/etc/conf", b"app".to_vec(), 0o644).unwrap();
        base.overlay(&layer);
        assert!(matches!(
            base.get("/etc/conf"),
            Some(FsEntry::File { content, .. }) if content == b"app"
        ));
    }

    #[test]
    fn archive_roundtrip() {
        let mut t = FsTree::new();
        t.add_file("/bin/sh", b"shell".to_vec(), 0o755).unwrap();
        t.add_file("/etc/ssl/certs/ca.pem", b"pem".to_vec(), 0o644)
            .unwrap();
        let decoded = FsTree::from_archive(&t.to_archive()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn corrupted_archive_rejected() {
        let mut t = FsTree::new();
        t.add_file("/f", b"x".to_vec(), 0o644).unwrap();
        let mut bytes = t.to_archive();
        bytes[0] = b'X';
        assert!(FsTree::from_archive(&bytes).is_err());
        let t2 = FsTree::from_archive(&bytes[..0]);
        assert!(t2.is_err());
    }

    proptest! {
        #[test]
        fn archive_roundtrip_arbitrary(files in proptest::collection::btree_map("[a-z]{1,8}", any::<Vec<u8>>(), 0..10)) {
            let mut t = FsTree::new();
            for (name, content) in &files {
                t.add_file(&format!("/data/{name}"), content.clone(), 0o644).unwrap();
            }
            prop_assert_eq!(FsTree::from_archive(&t.to_archive()).unwrap(), t);
        }

        #[test]
        fn content_hash_is_stable(files in proptest::collection::btree_map("[a-z]{1,8}", any::<Vec<u8>>(), 0..10)) {
            let build = || {
                let mut t = FsTree::new();
                for (name, content) in &files {
                    t.add_file(&format!("/data/{name}"), content.clone(), 0o644).unwrap();
                }
                t.content_hash()
            };
            prop_assert_eq!(build(), build());
        }
    }
}
