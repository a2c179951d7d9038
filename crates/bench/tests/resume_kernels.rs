//! `--resume` must accept a manifest written under the *other* `--kernel`:
//! the kernels are bit-identical, so the kernel is deliberately not part of
//! the manifest's config-equality check (only seed/reps/procs/max_n are).
//! This drives the real `repro` binary end to end, both directions.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[expect(clippy::expect_used, reason = "a test helper fails the calling test by panicking")]
fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--csv"])
        .arg(dir)
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn resume_accepts_manifest_from_the_other_kernel() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume_kernels_cycle_to_event");
    std::fs::create_dir_all(&dir).expect("tmpdir");

    // Seed the manifest with the cycle (oracle) kernel.
    let first = repro(&dir, &["--kernel", "cycle", "single"]);
    assert!(first.status.success(), "first run failed:\n{}", stderr(&first));
    assert!(dir.join("repro_manifest.json").is_file());

    // Resume under the event kernel: the exhibit must be skipped, not rerun.
    let second = repro(&dir, &["--kernel", "event", "--resume", "single"]);
    assert!(second.status.success(), "resume failed:\n{}", stderr(&second));
    let err = stderr(&second);
    assert!(
        err.contains("single: completed in previous run, skipping (--resume)"),
        "exhibit was not skipped across kernels:\n{err}"
    );
    assert!(
        !err.contains("different seed/config"),
        "kernel choice must not invalidate the manifest:\n{err}"
    );
}

#[test]
fn resume_accepts_manifest_from_the_other_kernel_reversed() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume_kernels_event_to_cycle");
    std::fs::create_dir_all(&dir).expect("tmpdir");

    let first = repro(&dir, &["--kernel", "event", "single"]);
    assert!(first.status.success(), "first run failed:\n{}", stderr(&first));

    let second = repro(&dir, &["--kernel", "cycle", "--resume", "single"]);
    assert!(second.status.success(), "resume failed:\n{}", stderr(&second));
    assert!(
        stderr(&second).contains("single: completed in previous run, skipping (--resume)"),
        "exhibit was not skipped across kernels:\n{}",
        stderr(&second)
    );
}

#[test]
fn resume_still_rejects_a_different_seed() {
    // The guard the kernel is exempt from must still hold for the seed.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume_kernels_seed_mismatch");
    std::fs::create_dir_all(&dir).expect("tmpdir");

    let first = repro(&dir, &["--kernel", "cycle", "single"]);
    assert!(first.status.success(), "first run failed:\n{}", stderr(&first));

    let second = repro(&dir, &["--seed", "9999", "--resume", "single"]);
    assert!(second.status.success(), "rerun failed:\n{}", stderr(&second));
    let err = stderr(&second);
    assert!(
        err.contains("different seed/config"),
        "a changed seed must invalidate the manifest:\n{err}"
    );
    assert!(!err.contains("skipping (--resume)"), "{err}");
}
