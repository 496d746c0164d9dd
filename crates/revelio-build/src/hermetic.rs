//! Hermetic (bazel-style) build steps: outputs as a pure function of
//! declared inputs (paper §5.1.1, leveraging "bazel and its hermeticity").
//!
//! A [`BuildStep`] declares its inputs (sources and tool identity) and a
//! pure transform. Running it twice — or on another machine — yields
//! bit-identical output, and the step's *action digest* (hash of all
//! declared inputs) doubles as a cache key. The
//! [`NonHermeticContext`] variant leaks ambient state (wall-clock time,
//! hostname) into the output, modelling the broken builds the paper's
//! pipeline eliminates; tests assert the two behave differently.

use std::collections::BTreeMap;

use revelio_crypto::sha2::Sha256;

/// The ambient machine state a *non*-hermetic build can observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonHermeticContext {
    /// Wall-clock seconds at build time.
    pub wall_clock: u64,
    /// Hostname of the build machine.
    pub hostname: String,
    /// Absolute workspace path (leaks into debug info in real builds).
    pub build_path: String,
}

/// A declared, hermetic build step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStep {
    /// Step name, e.g. `"compile-service"`.
    pub(crate) name: String,
    /// Declared source inputs: name → content.
    pub(crate) sources: BTreeMap<String, Vec<u8>>,
    /// The toolchain identity (compiler version string, flags).
    pub(crate) toolchain: String,
}

impl BuildStep {
    /// Creates a step with no sources.
    #[must_use]
    pub fn new(name: &str, toolchain: &str) -> Self {
        BuildStep {
            name: name.to_owned(),
            sources: BTreeMap::new(),
            toolchain: toolchain.to_owned(),
        }
    }

    /// Declares a source input.
    pub fn source(&mut self, name: &str, content: &[u8]) -> &mut Self {
        self.sources.insert(name.to_owned(), content.to_vec());
        self
    }

    /// The action digest: a content hash of *every* declared input. Two
    /// steps with equal digests produce equal outputs — the foundation of
    /// remote caching and of reproducibility audits.
    #[must_use]
    pub(crate) fn action_digest(&self) -> [u8; 32] {
        let mut w = revelio_crypto::wire::ByteWriter::new();
        w.put_str(&self.name);
        w.put_str(&self.toolchain);
        w.put_u32(self.sources.len() as u32);
        for (name, content) in &self.sources {
            w.put_str(name);
            w.put_var_bytes(content);
        }
        Sha256::digest(w.into_bytes())
    }

    /// Runs the step hermetically: the output is derived from the action
    /// digest and sources only.
    ///
    /// (The simulated "compiler" concatenates a header derived from the
    /// action digest with the transformed sources — a stand-in with the
    /// right purity properties.)
    #[must_use]
    pub fn run_hermetic(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"ELF\x7f");
        out.extend_from_slice(&self.action_digest());
        for (name, content) in &self.sources {
            out.extend_from_slice(&Sha256::digest(name.as_bytes()));
            out.extend_from_slice(&Sha256::digest(content));
        }
        out
    }

    /// Runs the step with ambient leakage: the output additionally embeds
    /// the wall clock, hostname and build path — a classic non-reproducible
    /// compiler invocation (think `__DATE__`, debug paths).
    #[must_use]
    pub fn run_non_hermetic(&self, ambient: &NonHermeticContext) -> Vec<u8> {
        let mut out = self.run_hermetic();
        out.extend_from_slice(&ambient.wall_clock.to_le_bytes());
        out.extend_from_slice(ambient.hostname.as_bytes());
        out.extend_from_slice(ambient.build_path.as_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> BuildStep {
        let mut s = BuildStep::new("compile-proxy", "rustc 1.70.0 --release");
        s.source("main.rs", b"fn main() {}");
        s.source("lib.rs", b"pub fn serve() {}");
        s
    }

    #[test]
    fn hermetic_runs_are_bit_identical() {
        assert_eq!(step().run_hermetic(), step().run_hermetic());
    }

    #[test]
    fn non_hermetic_runs_drift() {
        let a = step().run_non_hermetic(&NonHermeticContext {
            wall_clock: 1_690_000_000,
            hostname: "ci-runner-1".into(),
            build_path: "/home/ci/ws".into(),
        });
        let b = step().run_non_hermetic(&NonHermeticContext {
            wall_clock: 1_690_000_007,
            hostname: "ci-runner-2".into(),
            build_path: "/home/ci/ws".into(),
        });
        assert_ne!(a, b);
    }

    #[test]
    fn action_digest_covers_sources() {
        let a = step().action_digest();
        let mut s = step();
        s.source("main.rs", b"fn main() { backdoor(); }");
        assert_ne!(a, s.action_digest());
    }

    #[test]
    fn action_digest_covers_toolchain() {
        let base = step().action_digest();
        let mut s = step();
        s.toolchain = "rustc 1.71.0 --release".into();
        assert_ne!(base, s.action_digest());
    }

    #[test]
    fn source_order_is_irrelevant() {
        let mut a = BuildStep::new("s", "t");
        a.source("x", b"1").source("y", b"2");
        let mut b = BuildStep::new("s", "t");
        b.source("y", b"2").source("x", b"1");
        assert_eq!(a.action_digest(), b.action_digest());
    }

    #[test]
    fn equal_digest_implies_equal_output() {
        let a = step();
        let b = step();
        assert_eq!(a.action_digest(), b.action_digest());
        assert_eq!(a.run_hermetic(), b.run_hermetic());
    }
}
