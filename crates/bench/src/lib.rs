//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Binaries (one per artifact, see DESIGN.md's experiment index):
//!
//! | binary              | artifact |
//! |---------------------|----------|
//! | `fig4_comm_cost`    | Fig. 4 — communication cost, measured + polyfit |
//! | `fig5_mxm`          | Fig. 5 — MXM normalized execution time, P = 4 |
//! | `fig6_mxm`          | Fig. 6 — MXM, P = 16 |
//! | `fig7_trfd`         | Fig. 7 — TRFD, P = 4 |
//! | `fig8_trfd`         | Fig. 8 — TRFD, P = 16 |
//! | `table1_mxm_order`  | Table 1 — MXM actual vs predicted order |
//! | `table2_trfd_order` | Table 2 — TRFD actual vs predicted order per loop |
//! | `ablations`         | design-choice ablations (DESIGN.md §4) |
//!
//! The library part holds the shared experiment definitions so the
//! binaries, the integration tests and the Criterion benches all run the
//! *same* configurations.

pub mod experiments;
pub mod table;

pub use experiments::{
    assert_work_conserved, mxm_experiment, mxm_experiment_with, paper_group_size, persistence_for,
    trfd_experiment, trfd_experiment_with, trfd_loop_experiment, trfd_loop_experiment_with,
    ExperimentResult, TrfdLoop, EPOCHS_PER_RUN, LOAD_PERSISTENCE, LOAD_SEED,
    REPLICAS as CELL_REPLICAS,
};
pub use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, WorkloadSpec};
pub use table::{format_table, Align};

/// Command-line arguments of a bench binary: `--switch` flags and
/// `--option value` pairs, checked once at start-up. `--help` prints the
/// usage and exits 0; an unknown flag, a missing value or a bad number
/// prints an error and exits 2 — never a panic.
#[derive(Debug, Default)]
pub struct Args {
    usage: &'static str,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parse the process arguments, or exit as described on [`Args`].
    pub fn from_env(usage: &'static str, switches: &[&str], options: &[&str]) -> Self {
        match Self::parse(usage, switches, options, std::env::args().skip(1)) {
            Ok(Some(args)) => args,
            Ok(None) => {
                print!("{usage}");
                std::process::exit(0)
            }
            Err(msg) => Self::fail(usage, &msg),
        }
    }

    /// Parse `args`: `Ok(None)` if `--help` was asked for, `Err` with a
    /// message for a flag not in `switches` or `options`, or an option
    /// without a value.
    pub fn parse(
        usage: &'static str,
        switches: &[&str],
        options: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Option<Self>, String> {
        let mut out = Self {
            usage,
            ..Self::default()
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Ok(None);
            } else if switches.contains(&a.as_str()) {
                out.switches.push(a);
            } else if options.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                out.values.push((a, v));
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(Some(out))
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The last value given for `name`.
    pub fn string(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `name` as a number no smaller than `min`; exits 2 if
    /// it is not one.
    pub fn number<T>(&self, name: &str, min: T) -> Option<T>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
    {
        let v = self.string(name)?;
        match v.parse::<T>() {
            Ok(n) if n >= min => Some(n),
            Ok(_) => Self::fail(self.usage, &format!("{name} must be at least {min}")),
            Err(_) => Self::fail(self.usage, &format!("{name} needs a number, got {v:?}")),
        }
    }

    fn fail(usage: &str, msg: &str) -> ! {
        eprintln!("error: {msg}\n\n{usage}");
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        Args::parse(
            "usage",
            &["--quick"],
            &["--out", "--procs"],
            args.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn args_parse_switches_and_options() {
        let a = parse(&["--quick", "--procs", "8", "--out", "x.json", "--procs", "9"])
            .expect("valid")
            .expect("not help");
        assert!(a.flag("--quick"));
        assert_eq!(a.string("--out"), Some("x.json"));
        assert_eq!(a.number::<usize>("--procs", 2), Some(9), "last value wins");
        assert_eq!(a.number::<usize>("--repeat", 1), None);
        let plain = parse(&[]).expect("valid").expect("not help");
        assert!(!plain.flag("--quick"));
    }

    #[test]
    fn args_reject_unknown_and_missing_values() {
        assert!(parse(&["--help"]).expect("help is not an error").is_none());
        assert!(parse(&["--quick", "-h"]).expect("help").is_none());
        assert_eq!(
            parse(&["--bogus"]).err().as_deref(),
            Some("unknown argument \"--bogus\"")
        );
        assert_eq!(
            parse(&["--procs"]).err().as_deref(),
            Some("--procs needs a value")
        );
    }
}
