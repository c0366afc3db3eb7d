//! The repository benchmark. See `perfbench/README.md`.

mod check;
mod gen;
mod golden;
mod host;
mod load;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use gen::Workload;

const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>] [--out <dir>]
       perfbench --write-golden --workload <name>
       perfbench --help

Runs one seeded workload through the run server, closed-loop with one
caller, checks every answer, and prints one JSON result line last.

  --workload   paper-grid | memo-replay | large-p | chaos
  --seed       seed of every generated spec (unsigned integer, required)
  --seconds    length of the timed phase, 1 to 600 (default 10)
  --trace      0: end-to-end metrics (default); 1: per-layer metrics from
               a traced direct pass, spans written under --out
  --out        directory for scratch memos and traces (default .bench_out)
  --write-golden
               regenerate golden/<workload>.txt for the default seeds
";

/// No answer for this long means a run wedged.
const STALL_LIMIT: Duration = Duration::from_secs(60);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    write_golden: bool,
}

/// `Ok(None)` means `--help`.
fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = PathBuf::from(".bench_out");
    let mut write_golden = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--workload" => {
                let v = value("a workload name")?;
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not an unsigned integer"))?,
                );
            }
            "--seconds" => {
                let v = value("a whole number of seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds {v:?} is not a whole number from 1 to 600")
                    })?;
            }
            "--trace" => {
                trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is not 0 or 1")),
                };
            }
            "--out" => out = PathBuf::from(value("a directory")?),
            "--write-golden" => write_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if write_golden && workload == Workload::MemoReplay {
        return Err("memo-replay replays the paper grid; write paper-grid's golden".into());
    }
    if !write_golden && seed.is_none() {
        return Err("--seed is required".into());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        write_golden,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Measure the defaults: no DLB_* knob may reach a spec or a server.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("DLB_") {
            std::env::remove_var(&k);
        }
    }
    // A panic anywhere, a server worker included, fails the run.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: error: panic: {info}");
        std::process::exit(101);
    }));

    if args.write_golden {
        return match golden::write(args.workload) {
            Ok(p) => {
                println!("wrote {}", p.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: error: writing golden digests: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let seed = args.seed.expect("checked by parse_args");
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: error: creating {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    println!(
        "perfbench {} seed={seed} seconds={} trace={}",
        args.workload.name(),
        args.seconds,
        u8::from(args.trace)
    );
    // The untraced run's one caller and one worker share a CPU; the
    // traced run keeps every CPU for its pool passes. Pinning narrows
    // what `nproc` reads, so the fingerprint takes it from before.
    let nproc = host::nproc();
    let pin = if args.trace {
        None
    } else {
        host::pin_to_last_cpu()
            .map_err(|e| println!("not pinned: {e}"))
            .ok()
    };
    let host_json = host::fingerprint(nproc, pin);
    println!("host: {host_json}");

    let progress = AtomicU64::new(0);
    let (stop, stopped) = mpsc::channel::<()>();
    let outcome = std::thread::scope(|s| {
        // Liveness: a run that stops answering fails instead of hanging.
        let progress = &progress;
        s.spawn(move || {
            let mut seen = progress.load(Ordering::Relaxed);
            let mut idle = Duration::ZERO;
            let tick = Duration::from_millis(250);
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
                let now = progress.load(Ordering::Relaxed);
                idle = if now == seen {
                    idle + tick
                } else {
                    Duration::ZERO
                };
                seen = now;
                if idle >= STALL_LIMIT {
                    eprintln!("perfbench: error: no request answered for {STALL_LIMIT:?}");
                    std::process::exit(3);
                }
            }
        });
        let outcome = if args.trace {
            run::traced(
                args.workload,
                seed,
                args.seconds,
                &args.out,
                progress,
                &host_json,
            )
        } else {
            run::untraced(args.workload, seed, args.seconds, &args.out, progress)
        };
        let _ = stop.send(());
        outcome
    });

    for n in &outcome.notes {
        println!("{n}");
    }
    for e in outcome.errors.iter().chain(&outcome.failures) {
        eprintln!("perfbench: check failed: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Option<Args>, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_run() {
        let a = args("--workload chaos --seed 3 --seconds 2 --trace 1")
            .unwrap()
            .unwrap();
        assert_eq!(a.workload, Workload::Chaos);
        assert_eq!((a.seed, a.seconds, a.trace), (Some(3), 2, true));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload chaos",
            "--workload nope --seed 1",
            "--workload chaos --seed -1",
            "--workload chaos --seed",
            "--workload chaos --seed 1 --seconds 0",
            "--workload chaos --seed 1 --trace 2",
            "--workload chaos --seed 1 --frobnicate",
            "--write-golden --workload memo-replay",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(args("--help").unwrap().is_none());
    }
}
