//! The benchmark's own test: every workload at tiny sizes with every
//! oracle on, and the printed metric names and units checked against
//! `BENCHMARK.json`.

use std::process::Command;

#[test]
fn quick_mode_is_correct_and_matches_benchmark_json() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_odebench"))
        .arg("--quick")
        .current_dir(root)
        .output()
        .expect("run odebench --quick");
    assert!(
        out.status.success(),
        "quick mode failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
