//! End-to-end and per-layer benchmark of the TRACER reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on one thread, checks every verdict, prints what it
//! did, and ends with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced replay with
//! `--trace 1`. Without `--workload` it runs every workload, each in its
//! own process. See README.md for the workloads and metrics.

mod check;
mod replay;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

/// The workloads, in the order a run without `--workload` takes them.
const WORKLOADS: [&str; 4] = [
    "escape-hedc",
    "escape-weblech",
    "typestate-suite",
    "serve-hedc",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed on the operations that did not fail.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Queries that ran out of iteration or fact budget (not failures).
    pub unresolved: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The revision of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        return usage("cannot locate the benchmark executable");
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(args)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        run: Duration::from_secs(10),
        trace: false,
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return usage(&format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
                continue;
            }
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.run = Duration::from_secs_f64(s),
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage(&format!("bad trace `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
        rest.extend([flag.clone(), value.clone()]);
    }
    let Some(workload) = workload else {
        return run_all(&rest);
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload} seed {} seconds {} trace {} nproc {nproc} rev {}",
        opts.seed,
        opts.run.as_secs_f64(),
        u8::from(opts.trace),
        git_revision()
    );
    let report = match workloads::run(&workload, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "queries: attempted {} failed {} unresolved-by-budget {} correct {}",
        report.attempted, report.failed, report.unresolved, report.correct
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
