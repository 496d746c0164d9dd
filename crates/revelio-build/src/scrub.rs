//! Non-determinism scrubbing (paper §5.1.1).
//!
//! The paper's build scripts "remediate sources of non-determinism (e.g.,
//! timestamps, build paths, file ordering and permissions) by clearing all
//! files that may lead to in-deterministic build (e.g.
//! `/var/lib/apt/lists/*`, `/var/lib/dbus/machine-id` etc.), squashing all
//! timestamps and specifying a uuid for each partition". File ordering is
//! structurally deterministic in [`crate::fstree::FsTree`]; partitions get
//! content-derived UUIDs in `revelio-storage`; this module implements the
//! rest.

use crate::fstree::FsTree;

/// What the scrubber removes and normalizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubPolicy {
    /// Squash every file mtime to this value (0 = epoch).
    pub(crate) squash_mtime_to: u64,
    /// Subtrees deleted wholesale.
    pub(crate) remove_subtrees: Vec<String>,
    /// Exact files deleted.
    pub(crate) remove_files: Vec<String>,
    /// Path suffixes deleted wherever they appear (caches, logs).
    pub(crate) remove_suffixes: Vec<String>,
}

impl Default for ScrubPolicy {
    /// The paper's list, §5.1.1.
    fn default() -> Self {
        ScrubPolicy {
            squash_mtime_to: 0,
            remove_subtrees: vec![
                "/var/lib/apt/lists".to_owned(),
                "/var/log".to_owned(),
                "/var/cache".to_owned(),
                "/tmp".to_owned(),
            ],
            remove_files: vec![
                "/var/lib/dbus/machine-id".to_owned(),
                "/etc/machine-id".to_owned(),
                "/etc/hostname".to_owned(),
                "/root/.bash_history".to_owned(),
            ],
            remove_suffixes: vec![".pyc".to_owned(), "~".to_owned()],
        }
    }
}

/// A report of what scrubbing changed — surfaced in build logs so auditors
/// can see the normalization that happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries deleted.
    pub(crate) removed_entries: usize,
    /// Files whose mtime was rewritten.
    pub(crate) squashed_timestamps: usize,
}

/// Applies `policy` to `tree` in place.
pub fn scrub(tree: &mut FsTree, policy: &ScrubPolicy) -> ScrubReport {
    let mut report = ScrubReport::default();
    for subtree in &policy.remove_subtrees {
        report.removed_entries += tree.remove_subtree(subtree);
    }
    for file in &policy.remove_files {
        report.removed_entries += tree.remove_subtree(file);
    }
    for suffix in &policy.remove_suffixes {
        report.removed_entries += tree.remove_matching(|p| p.ends_with(suffix.as_str()));
    }
    tree.for_each_file_mut(|_, _, _, mtime| {
        if *mtime != policy.squash_mtime_to {
            *mtime = policy.squash_mtime_to;
            report.squashed_timestamps += 1;
        }
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty_tree(machine_id: &[u8], mtime: u64) -> FsTree {
        let mut t = FsTree::new();
        t.add_file_with_mtime("/usr/bin/app", b"app".to_vec(), 0o755, mtime)
            .unwrap();
        t.add_file("/etc/machine-id", machine_id.to_vec(), 0o444)
            .unwrap();
        t.add_file(
            "/var/lib/apt/lists/archive.ubuntu.com_dists",
            b"index".to_vec(),
            0o644,
        )
        .unwrap();
        t.add_file("/var/log/dpkg.log", b"log".to_vec(), 0o644)
            .unwrap();
        t.add_file("/usr/lib/python/__pycache__/m.pyc", b"pyc".to_vec(), 0o644)
            .unwrap();
        t
    }

    #[test]
    fn two_dirty_builds_converge_after_scrub() {
        // Different machine IDs, apt indices and timestamps — the exact
        // drift the paper's pipeline fights.
        let mut a = dirty_tree(b"host-a", 1_690_000_123);
        let mut b = dirty_tree(b"host-b", 1_690_999_999);
        assert_ne!(a.content_hash(), b.content_hash());
        scrub(&mut a, &ScrubPolicy::default());
        scrub(&mut b, &ScrubPolicy::default());
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn scrub_is_idempotent() {
        let mut t = dirty_tree(b"id", 42);
        scrub(&mut t, &ScrubPolicy::default());
        let first = t.content_hash();
        let second_report = scrub(&mut t, &ScrubPolicy::default());
        assert_eq!(t.content_hash(), first);
        assert_eq!(second_report.removed_entries, 0);
        assert_eq!(second_report.squashed_timestamps, 0);
    }

    #[test]
    fn report_counts_changes() {
        let mut t = dirty_tree(b"id", 42);
        let report = scrub(&mut t, &ScrubPolicy::default());
        assert!(report.removed_entries > 0);
        assert_eq!(report.squashed_timestamps, 1); // only /usr/bin/app survives with mtime 42
    }

    #[test]
    fn application_payload_survives() {
        let mut t = dirty_tree(b"id", 42);
        scrub(&mut t, &ScrubPolicy::default());
        assert!(t.get("/usr/bin/app").is_some());
        assert!(t.get("/etc/machine-id").is_none());
        assert!(t.get("/var/log/dpkg.log").is_none());
        assert!(t.get("/usr/lib/python/__pycache__/m.pyc").is_none());
    }

    #[test]
    fn custom_policy_can_keep_logs() {
        let mut t = dirty_tree(b"id", 42);
        let policy = ScrubPolicy {
            remove_subtrees: vec![],
            ..ScrubPolicy::default()
        };
        scrub(&mut t, &policy);
        assert!(t.get("/var/log/dpkg.log").is_some());
    }
}
