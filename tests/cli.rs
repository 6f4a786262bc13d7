//! CLI contract tests for `earthcc`: bad inputs must produce a
//! non-zero exit code and a single-line `error:` diagnostic on stderr —
//! never a panic with a backtrace.

use std::process::{Command, Output};

fn earthcc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_earthcc"))
        .args(args)
        .output()
        .expect("spawn earthcc")
}

/// Stderr must be exactly one `error:` line — no panic message, no
/// backtrace frames.
fn assert_single_error_line(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected failure, got success: {stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "wrong exit code: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "expected one diagnostic line: {stderr}");
    assert!(
        lines[0].starts_with("error: "),
        "diagnostic must start with `error: `: {stderr}"
    );
    assert!(
        lines[0].contains(needle),
        "diagnostic should mention {needle:?}: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "must not panic: {stderr}"
    );
}

#[test]
fn nonexistent_input_is_a_single_line_error() {
    for cmd in ["run", "pgo", "dump", "stats", "lint", "verify"] {
        let out = earthcc(&[cmd, "/no/such/dir/missing.ec"]);
        assert_single_error_line(&out, "cannot read `/no/such/dir/missing.ec`");
    }
}

#[test]
fn unreadable_profile_in_is_a_single_line_error() {
    let out = earthcc(&[
        "run",
        "programs/count.ec",
        "--arg",
        "3",
        "--profile-in",
        "/no/such/profile.json",
    ]);
    assert_single_error_line(&out, "cannot read `/no/such/profile.json`");
}

#[test]
fn malformed_profile_in_is_a_single_line_error() {
    let dir = std::env::temp_dir().join(format!("earthcc-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join("bad-profile.json");
    std::fs::write(&profile, "{ not a profile").unwrap();
    let out = earthcc(&[
        "run",
        "programs/count.ec",
        "--arg",
        "3",
        "--profile-in",
        profile.to_str().unwrap(),
    ]);
    assert_single_error_line(&out, "bad profile");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_without_addr_is_a_single_line_error() {
    let out = earthcc(&["client", "stats"]);
    assert_single_error_line(&out, "--addr");
}

#[test]
fn client_with_unreachable_addr_fails_cleanly() {
    // Port 1 on localhost: connection refused, not a panic.
    let out = earthcc(&["client", "ping", "--addr", "127.0.0.1:1"]);
    assert_single_error_line(&out, "cannot connect");
}

#[test]
fn client_compile_with_missing_file_is_a_single_line_error() {
    let out = earthcc(&[
        "client",
        "compile",
        "/no/such/file.ec",
        "--addr",
        "127.0.0.1:1",
    ]);
    assert_single_error_line(&out, "cannot read `/no/such/file.ec`");
}

#[test]
fn explain_unknown_code_is_a_single_line_error() {
    let out = earthcc(&["lint", "--explain", "NOSUCH999"]);
    assert_single_error_line(&out, "unknown diagnostic code `NOSUCH999`");
}

#[test]
fn out_of_range_node_count_is_a_single_line_error() {
    for nodes in ["0", "65", "65535"] {
        let out = earthcc(&["run", "programs/count.ec", "--nodes", nodes, "--arg", "3"]);
        assert_single_error_line(
            &out,
            &format!("nodes must be between 1 and 64, got {nodes}"),
        );
    }
    let out = earthcc(&["pgo", "programs/count.ec", "--nodes", "0", "--arg", "3"]);
    assert_single_error_line(&out, "nodes must be between 1 and 64, got 0");
}

#[test]
fn bad_escape_mode_is_a_usage_error() {
    let out = earthcc(&["stats", "programs/orbit.ec", "--escape", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --escape must be `on` or `off`"),
        "expected a leading `error:` line: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn verify_succeeds_with_escape_on() {
    let out = earthcc(&["verify", "programs/orbit.ec", "--escape", "on"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn missing_subcommand_and_bad_flags_use_exit_code_2() {
    assert_eq!(earthcc(&[]).status.code(), Some(2));
    assert_eq!(earthcc(&["run"]).status.code(), Some(2), "no input file");
    assert_eq!(
        earthcc(&["run", "programs/count.ec", "--bogus-flag"])
            .status
            .code(),
        Some(2)
    );
}

#[test]
fn run_succeeds_on_a_real_program() {
    let out = earthcc(&["run", "programs/count.ec", "--arg", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: 1"), "{stdout}");
}
