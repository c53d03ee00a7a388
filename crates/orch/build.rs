//! Hashes the `src/` trees of every simulated-metric-affecting crate
//! into `TSOCC_SOURCE_HASH`, so the result cache's code fingerprint
//! changes whenever their source does.

use std::path::Path;

#[allow(dead_code)]
#[path = "src/hash.rs"]
mod hash;
#[path = "src/source.rs"]
mod source;

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let crates = Path::new(&manifest_dir)
        .parent()
        .expect("this crate lives under crates/");
    let mut h = hash::Fnv::new();
    for name in source::FINGERPRINTED_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        h.eat_str(name);
        source::hash_tree(&mut h, &src)
            .unwrap_or_else(|e| panic!("hashing {}: {e}", src.display()));
    }
    println!("cargo:rustc-env=TSOCC_SOURCE_HASH={:016x}", h.finish());
}
