//! CLI regression tests for the `autonbc` binary.
//!
//! A mistyped `--platform` name used to reach `Option::unwrap` and panic
//! with a backtrace; it must instead exit with code 2 and a message
//! listing the valid presets. A flag the binary does not know, such as
//! the removed `--faults`, must fail rather than run as if it were absent.

use std::process::Command;

fn autonbc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autonbc"))
}

#[test]
fn unknown_platform_is_an_error_not_a_panic() {
    let out = autonbc()
        .args(["tune", "--platform", "wahle"]) // typo for "whale"
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "bad input exits 2, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown platform 'wahle'"), "stderr: {err}");
    // The message must name every valid preset so the user can recover.
    for preset in ["crill", "whale", "whale-tcp", "bluegene-p"] {
        assert!(err.contains(preset), "missing preset {preset}: {err}");
    }
    assert!(
        !err.contains("panicked"),
        "must not reach a panic handler: {err}"
    );
}

#[test]
fn unknown_platform_in_fft_is_an_error() {
    let out = autonbc()
        .args(["fft", "--platform", "nope", "--procs", "8"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown platform 'nope'"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn platform_listing_succeeds() {
    let out = autonbc().arg("platforms").output().expect("binary runs");
    assert!(out.status.success(), "status: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for preset in ["crill", "whale", "whale-tcp", "bluegene-p"] {
        assert!(stdout.contains(preset), "stdout: {stdout}");
    }
}

#[test]
fn faults_flag_is_an_error() {
    let out = autonbc()
        .args(["--faults", "light", "platforms"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "status: {:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}
