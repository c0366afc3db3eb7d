//! The bench binaries' command lines: `--help` prints usage and exits 0;
//! an unknown flag or a bad number is an error (exit 2), never a panic.
//! Every case exits during argument parsing, before any work starts.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exited, not killed"), text)
}

fn check(bin: &str, bad_number: &[&str]) {
    let (code, text) = run(bin, &["--help"]);
    assert_eq!(code, 0, "{bin} --help: {text}");
    assert!(
        text.contains("usage:"),
        "{bin} --help printed no usage: {text}"
    );
    for args in [&["--bogus"][..], bad_number] {
        let (code, text) = run(bin, args);
        assert_eq!(code, 2, "{bin} {args:?}: {text}");
        assert!(text.contains("error:"), "{bin} {args:?}: {text}");
        assert!(
            !text.contains("panicked"),
            "{bin} {args:?} panicked: {text}"
        );
    }
}

#[test]
fn engine_bench_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_engine_bench"), &["--procs", "x"]);
    check(env!("CARGO_BIN_EXE_engine_bench"), &["--procs", "1"]);
}

#[test]
fn serve_bench_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_serve_bench"), &["--repeat", "0"]);
}

#[test]
fn chaos_campaign_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_chaos_campaign"), &["--seed", "-1"]);
}

#[test]
fn adaptive_bench_rejects_bad_arguments() {
    check(env!("CARGO_BIN_EXE_adaptive_bench"), &["--out"]);
}
