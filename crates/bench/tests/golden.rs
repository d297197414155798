//! Golden-run regression harness: the full `repro` driver at a small
//! weight cap, diffed byte-for-byte against a committed transcript.
//!
//! Every number in `tests/golden/repro_cap256.txt` flows through the
//! compression kernels, the wave schedulers and the energy models, so a
//! kernel refactor that silently perturbs any of them — a changed
//! rounding tie, a reordered float accumulation, a different wave split —
//! fails this test instead of drifting the paper tables unnoticed. The
//! parallel loops are order-preserving by construction, so thread count
//! must not affect the bytes: the transcript is checked at the default
//! thread count and again on three threads.
//!
//! To refresh after an *intentional* output change:
//!
//! ```sh
//! BBS_CAP=256 cargo run --release --bin repro > tests/golden/repro_cap256.txt
//! ```

use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/repro_cap256.txt"
);

/// Points at the first differing line so a drift is debuggable from the
/// test log without re-running anything.
fn first_divergence(expected: &str, actual: &str) -> String {
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first diff at line {}:\n  golden: {e}\n  actual: {a}",
                n + 1
            );
        }
    }
    format!(
        "line counts differ: golden {} vs actual {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

/// Runs `repro` at the golden's cap and diffs its stdout against the
/// golden; `threads` sets `RAYON_NUM_THREADS`, `None` leaves the default.
fn assert_repro_matches_golden(threads: Option<&str>) {
    let golden = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("missing golden transcript {GOLDEN}: {e}"));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.env("BBS_CAP", "256");
    match threads {
        Some(n) => cmd.env("RAYON_NUM_THREADS", n),
        None => cmd.env_remove("RAYON_NUM_THREADS"),
    };
    let out = cmd.output().expect("run repro binary");
    assert!(
        out.status.success(),
        "repro exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("repro stdout is utf-8");
    assert!(
        actual == golden,
        "repro output (RAYON_NUM_THREADS={threads:?}) drifted from tests/golden/repro_cap256.txt\n{}\n\
         If the change is intentional, regenerate with:\n  \
         BBS_CAP=256 cargo run --release --bin repro > tests/golden/repro_cap256.txt",
        first_divergence(&golden, &actual)
    );
}

#[test]
fn repro_small_cap_stdout_is_byte_identical_to_golden() {
    assert_repro_matches_golden(None);
}

/// Three workers claim the items of the order-preserving parallel loops
/// in an order that depends on timing, and force the threaded path even
/// on a single-CPU runner.
#[test]
fn repro_is_byte_identical_to_golden_on_three_threads() {
    assert_repro_matches_golden(Some("3"));
}
