//! Content hashing of source trees, the input of the code fingerprint.
//!
//! This file is compiled twice: into this crate, where its tests run,
//! and into the build script, which folds the `src/` trees of
//! [`FINGERPRINTED_CRATES`] into the `TSOCC_SOURCE_HASH` constant that
//! [`crate::fingerprint::code_fingerprint`] hashes.

use std::path::Path;
use std::{fs, io};

use crate::hash::Fnv;

/// The directories under `crates/` of every crate whose code can change
/// a simulated metric: every crate on the path from a job description
/// to a cycle count, message count or final memory image.
///
/// Crates that only *drive* simulations (this crate, `tsocc-bench`'s
/// CLI and reporting layer) are deliberately left out: changing how
/// results are scheduled or serialized must not throw away results
/// that are still correct.
pub const FINGERPRINTED_CRATES: [&str; 15] = [
    "core",
    "sim",
    "mem",
    "noc",
    "cpu",
    "isa",
    "coherence",
    "mesi",
    "mesi-coarse",
    "tsocc-proto",
    "protocols",
    "workloads",
    "faults",
    "conform",
    "check",
];

/// Folds every file under `root` into `h`, in sorted order of the
/// files' `/`-separated paths relative to `root`: each path, then each
/// file's length and bytes. Any byte edit, added, removed or renamed
/// file changes the result; the order in which the directory lists its
/// entries does not.
pub fn hash_tree(h: &mut Fnv, root: &Path) -> io::Result<()> {
    let mut files = Vec::new();
    collect_files(root, "", &mut files)?;
    files.sort();
    for rel in files {
        let bytes = fs::read(root.join(&rel))?;
        h.eat_str(&rel);
        h.eat_u64(bytes.len() as u64);
        h.eat(&bytes);
    }
    Ok(())
}

fn collect_files(dir: &Path, prefix: &str, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{prefix}{name}");
        if entry.file_type()?.is_dir() {
            collect_files(&entry.path(), &format!("{rel}/"), out)?;
        } else {
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    /// A fresh synthetic source tree, removed on drop.
    struct Tree(PathBuf);

    impl Tree {
        fn new(name: &str, files: &[(&str, &[u8])]) -> Tree {
            let root = std::env::temp_dir()
                .join(format!("tsocc-orch-source-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            for (rel, bytes) in files {
                let path = root.join(rel);
                fs::create_dir_all(path.parent().expect("file has a parent"))
                    .expect("create tree dir");
                fs::write(&path, bytes).expect("write tree file");
            }
            Tree(root)
        }

        fn hash(&self) -> u64 {
            let mut h = Fnv::new();
            hash_tree(&mut h, &self.0).expect("hash tree");
            h.finish()
        }
    }

    impl Drop for Tree {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const FILES: [(&str, &[u8]); 3] = [
        ("lib.rs", b"pub mod system;\npub const X: u64 = 1;\n"),
        ("system/mod.rs", b"pub fn step() {}\n"),
        ("system/tests.rs", b"#[test]\nfn t() {}\n"),
    ];

    #[test]
    fn flipping_one_byte_changes_the_hash() {
        let tree = Tree::new("flip", &FILES);
        let before = tree.hash();
        assert_eq!(tree.hash(), before, "stable for an unchanged tree");

        let path = tree.0.join("system/mod.rs");
        let mut bytes = fs::read(&path).expect("read");
        bytes[4] ^= 1;
        fs::write(&path, &bytes).expect("write");
        assert_ne!(tree.hash(), before, "one flipped byte must change the hash");

        bytes[4] ^= 1;
        fs::write(&path, &bytes).expect("write");
        assert_eq!(tree.hash(), before, "restoring the byte restores the hash");
    }

    #[test]
    fn renaming_adding_or_removing_a_file_changes_the_hash() {
        let base = Tree::new("base", &FILES).hash();
        let mut renamed = FILES;
        renamed[1].0 = "system/core.rs";
        assert_ne!(Tree::new("renamed", &renamed).hash(), base);
        assert_ne!(Tree::new("removed", &FILES[..2]).hash(), base);
        let mut added = FILES.to_vec();
        added.push(("extra.rs", b""));
        assert_ne!(Tree::new("added", &added).hash(), base);
    }

    #[test]
    fn creation_order_does_not_matter() {
        let mut reversed = FILES;
        reversed.reverse();
        assert_eq!(
            Tree::new("fwd", &FILES).hash(),
            Tree::new("rev", &reversed).hash()
        );
    }
}
