//! The code-version fingerprint folded into every cache key.
//!
//! A cached simulation result is only valid as long as the *code* that
//! produced it would still produce the same simulated metrics. The
//! fingerprint pins that: it hashes [`SOURCE_HASH`] — the content of the
//! `src/` trees of every crate whose code can change a simulated metric
//! (cycle counts, message counts, final memory), taken by this crate's
//! build script — plus the build profile. Any edit to those sources
//! changes the fingerprint, so every record cached by the old code
//! simply misses at lookup time and is recomputed.
//!
//! The crates covered are listed in
//! [`crate::source::FINGERPRINTED_CRATES`]; crates that only *drive*
//! simulations are deliberately left out.

use crate::hash::Fnv;

/// Content hash of the `src/` trees of
/// [`crate::source::FINGERPRINTED_CRATES`], as 16 lowercase hex digits,
/// computed at build time.
pub const SOURCE_HASH: &str = env!("TSOCC_SOURCE_HASH");

/// The fingerprint as 16 lowercase hex digits.
///
/// Debug and release builds fingerprint differently: the simulator's
/// metrics are profile-independent by contract, but debug trees are
/// where unreleased changes live, so they must never poison a release
/// cache (or vice versa).
pub fn code_fingerprint() -> String {
    let mut h = Fnv::new();
    h.eat_str("tsocc-orch-fingerprint/v2");
    h.eat_str(if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    });
    h.eat_str(SOURCE_HASH);
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        assert_eq!(code_fingerprint(), code_fingerprint());
        assert_eq!(code_fingerprint().len(), 16);
    }

    #[test]
    fn source_hash_is_taken_from_the_fingerprinted_trees() {
        assert_eq!(SOURCE_HASH.len(), 16);
        assert!(SOURCE_HASH.bytes().all(|b| b.is_ascii_hexdigit()));
        // Recompute from the trees as they are now; the build script
        // reruns whenever they change, so the two must agree.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut h = Fnv::new();
        for name in crate::source::FINGERPRINTED_CRATES {
            h.eat_str(name);
            crate::source::hash_tree(&mut h, &crates.join(name).join("src"))
                .expect("hash source tree");
        }
        assert_eq!(format!("{:016x}", h.finish()), SOURCE_HASH);
    }
}
