//! `millipede-cli` rejects configurations that cannot be simulated.
//!
//! Each case drives the real binary (`CARGO_BIN_EXE_millipede-cli`) with
//! geometry that, simulated, ends in a panic deep inside a model — a
//! 2,000,001 cycle "deadlock" spin on an empty input, a kernel trap, or an
//! assertion in the prefetch buffer or the thread grid — and requires the
//! one-line `invalid configuration` error on stderr, nothing on stdout,
//! and exit code 2, before any simulation starts.

use std::process::Command;

#[test]
fn bad_geometry_exits_2_with_a_one_line_error() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["count", "millipede", "--chunks", "0"],
            "at least one chunk",
        ),
        (&["count", "vws-row", "--chunks", "0"], "at least one chunk"),
        (&["count", "ssmc", "--chunks", "0"], "at least one chunk"),
        (&["count", "gpgpu", "--chunks", "0"], "at least one chunk"),
        (
            &["count", "multicore", "--chunks", "0"],
            "at least one chunk",
        ),
        (&["count", "millipede", "--pbuf", "0"], "at least 2 entries"),
        (&["count", "millipede", "--pbuf", "1"], "at least 2 entries"),
        (&["count", "millipede", "--corelets", "0"], "0 corelets"),
        (
            &["count", "millipede", "--corelets", "100000"],
            "100000 corelets",
        ),
    ];
    for (args, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_millipede-cli"))
            .args(args)
            .output()
            .expect("run millipede-cli");
        let label = args.join(" ");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{label}: stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{label}: printed a result");
        assert_eq!(stderr.lines().count(), 1, "{label}: stderr:\n{stderr}");
        assert!(
            stderr.starts_with("invalid configuration: ") && stderr.contains(reason),
            "{label}: stderr:\n{stderr}"
        );
    }
}

#[test]
fn valid_geometry_still_simulates() {
    let out = Command::new(env!("CARGO_BIN_EXE_millipede-cli"))
        .args(["count", "millipede", "--chunks", "1", "--corelets", "64"])
        .output()
        .expect("run millipede-cli");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("output validated") && l.trim_end().ends_with("true")),
        "stdout:\n{stdout}"
    );
}
