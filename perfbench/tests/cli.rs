//! The benchmark's command line: usage, input errors, the result line's
//! contract with `BENCHMARK.json`, and determinism.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde::value::{get_field, Value};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"))
}

fn perfbench(args: &[&str], tag: &str) -> Output {
    let dir = out_dir(tag);
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--out", dir.to_str().expect("utf-8 path")])
        .output()
        .expect("run perfbench")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn line<'a>(text: &'a str, prefix: &str) -> &'a str {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {text}"))
}

fn result(o: &Output) -> Value {
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(o);
    let last = text.lines().last().expect("output");
    serde_json::parse_value_complete(last).expect("last line is JSON")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    get_field(v.as_map().expect("object"), name).unwrap_or_else(|| panic!("no {name}"))
}

/// `(name, unit)` of the metrics `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let v = serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses");
    let s = |v: &Value| match v {
        Value::Str(s) => s.clone(),
        other => panic!("not a string: {other:?}"),
    };
    field(&v, key)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| (s(field(m, "name")), s(field(m, "unit"))))
        .collect()
}

fn printed(v: &Value) -> Vec<(String, String)> {
    field(v, "metrics")
        .as_map()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| match field(m, "unit") {
            Value::Str(u) => (name.clone(), u.clone()),
            other => panic!("unit of {name} is {other:?}"),
        })
        .collect()
}

#[test]
fn help_prints_usage() {
    let o = perfbench(&["--help"], "help");
    assert!(o.status.success());
    assert!(stdout(&o).starts_with("usage: perfbench"));
}

#[test]
fn bad_arguments_fail_with_an_error_not_a_panic() {
    for args in [
        &[][..],
        &["--workload", "chaos"],
        &["--seed", "1"],
        &["--workload", "nope", "--seed", "1"],
        &["--workload", "chaos", "--seed", "x"],
        &["--workload", "chaos", "--seed"],
        &["--workload", "chaos", "--seed", "1", "--seconds", "0"],
        &["--workload", "chaos", "--seed", "1", "--trace", "yes"],
        &["--workload", "chaos", "--seed", "1", "--bogus"],
    ] {
        let o = perfbench(args, "bad");
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("error:") && !err.contains("panicked"),
            "{args:?}: {err}"
        );
        assert!(o.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn result_lines_match_the_declared_metrics() {
    let untraced = result(&perfbench(
        &["--workload", "paper-grid", "--seed", "2", "--seconds", "1"],
        "contract0",
    ));
    assert_eq!(field(&untraced, "correct"), &Value::Bool(true));
    assert_eq!(field(&untraced, "failed"), &Value::U64(0));
    assert_eq!(printed(&untraced), declared("end_to_end"));

    let traced = result(&perfbench(
        &[
            "--workload",
            "paper-grid",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        "contract1",
    ));
    assert_eq!(field(&traced, "correct"), &Value::Bool(true));
    assert_eq!(printed(&traced), declared("per_layer"));
    let dir = out_dir("contract1");
    for file in [
        "paper-grid-seed2.spans.jsonl",
        "paper-grid-seed2.chrome.json",
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect("trace written");
        assert!(text.len() > 100, "{file} is empty");
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_differs() {
    let run = |seed: &str, trace: &str, tag: &str| {
        let o = perfbench(
            &[
                "--workload",
                "chaos",
                "--seed",
                seed,
                "--seconds",
                "1",
                "--trace",
                trace,
            ],
            tag,
        );
        result(&o);
        let text = stdout(&o);
        (
            line(&text, "digest:").to_string(),
            line(&text, "counts:").to_string(),
        )
    };
    let a = run("5", "0", "det-a");
    let b = run("5", "0", "det-b");
    let traced = run("5", "1", "det-t");
    let other = run("6", "0", "det-o");
    assert_eq!(a, b, "same seed, same digest and counts");
    assert_eq!(a, traced, "traced and untraced runs count the same work");
    assert_ne!(a.0, other.0, "another seed changes the digest");
}
