//! `orchestrate sweep` input validation and its `--check` drift gate,
//! driven through the real binary: malformed `--cores`/`--scale` exit
//! 2, and `--check` exits 1 on an artifact with no rows, a row count
//! that disagrees with `points_total`, or one tampered simulated field,
//! while the untampered artifact passes.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tsocc-sweep-check-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `orchestrate sweep ARGS` in `dir`; returns the exit code.
fn sweep(dir: &Path, args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_orchestrate"))
        .current_dir(dir)
        .arg("sweep")
        .args(args)
        .output()
        .expect("orchestrate runs");
    out.status.code().expect("exited, not killed")
}

/// Writes the 9-point tiny 2-core artifact to `dir/tiny.json`.
fn tiny_artifact(dir: &Path) -> String {
    let code = sweep(
        dir,
        &[
            "--cores",
            "2",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--jobs",
            "1",
            "--no-cache",
            "--out",
            "tiny.json",
        ],
    );
    assert_eq!(code, 0);
    std::fs::read_to_string(dir.join("tiny.json")).unwrap()
}

/// `doc` with the first `"key": N` value replaced by `N + 1`.
fn bump_first(doc: &str, key: &str) -> String {
    let tag = format!("\"{key}\": ");
    let start = doc.find(&tag).expect("field present") + tag.len();
    let len = doc[start..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number ends");
    let value: u64 = doc[start..start + len].parse().unwrap();
    format!(
        "{}{}{}",
        &doc[..start],
        value.wrapping_add(1),
        &doc[start + len..]
    )
}

fn check(dir: &Path, name: &str, doc: &str) -> i32 {
    std::fs::write(dir.join(name), doc).unwrap();
    sweep(dir, &["--check", name, "--jobs", "1"])
}

#[test]
fn malformed_matrix_flags_exit_2_and_write_nothing() {
    let dir = tmp_dir();
    for args in [["--cores", "2,x"], ["--cores", ""], ["--scale", "huge"]] {
        let mut full = args.to_vec();
        full.extend(["--no-cache", "--out", "out.json"]);
        assert_eq!(sweep(&dir, &full), 2, "{args:?}");
        assert!(!dir.join("out.json").exists(), "{args:?} wrote an artifact");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_rejects_artifacts_without_a_consistent_row_set() {
    let dir = tmp_dir();
    let empty = r#"{"schema": "tsocc-sweep-baseline/v1", "bench": "fft", "scale": "tiny", "base_seed": 5, "points_total": 0, "points": []}"#;
    assert_eq!(check(&dir, "empty.json", empty), 1);
    let doc = tiny_artifact(&dir);
    let miscounted = doc.replace("\"points_total\": 9", "\"points_total\": 10");
    assert_ne!(miscounted, doc);
    assert_eq!(check(&dir, "miscounted.json", &miscounted), 1);
    let bad_scale = doc.replace("\"scale\": \"tiny\"", "\"scale\": \"huge\"");
    assert_eq!(check(&dir, "bad_scale.json", &bad_scale), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_passes_the_written_artifact_and_catches_one_tampered_field() {
    let dir = tmp_dir();
    let doc = tiny_artifact(&dir);
    assert_eq!(check(&dir, "clean.json", &doc), 0);
    for key in ["cycles", "mem_fp"] {
        assert_eq!(
            check(&dir, &format!("{key}.json"), &bump_first(&doc, key)),
            1,
            "a flipped {key} must fail the check"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
