//! `xbench` — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! xbench run [--seed <n>] [--seconds <s>] [--traced]
//! xbench compare <baseline.json> <new.json>
//! xbench manifest
//! ```

mod compare;
mod drive;
mod host;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use drive::Request;
use std::process::ExitCode;
use std::time::Instant as Wall;

const USAGE: &str = "usage:
  xbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, result JSON last
  xbench run [--seed <n>] [--seconds <s>] [--traced]                every workload, one JSON document
  xbench compare <baseline.json> <new.json>                         verdict per metric and workload
  xbench manifest                                                   print /BENCHMARK.json";

/// `--key value` options after the subcommand.
struct Options(Vec<String>);

impl Options {
    fn value(&self, key: &str) -> Option<&str> {
        self.0.iter().position(|a| a == key).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse::<T>().map_err(|_| format!("bad value for {key}: {v:?}")))
            .transpose()
    }

    fn request(&self) -> Result<Request, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        let workload = workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })?;
        let seconds = self.parsed("--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Request {
            workload,
            seed: self.parsed("--seed")?.unwrap_or(metrics::DEFAULT_SEED),
            seconds,
        })
    }
}

fn dispatch(process_start: Wall) -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        Some(_) => "workload".to_owned(),
        None => return Err(USAGE.to_owned()),
    };
    let opts = Options(args);
    match command.as_str() {
        "workload" => {
            let req = opts.request()?;
            let traced = match opts.value("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            };
            let outcome = if traced {
                trace::run_traced(&req, process_start)?
            } else {
                drive::run_untraced(&req, process_start)?
            };
            report::print_table(&req, traced, &outcome);
            println!("{}", report::detail_line(&req, traced, &outcome));
            println!("{}", report::result_line(&outcome));
        }
        // Child of an untraced run: set up, report how long it took.
        "setup-only" => {
            let ready = drive::set_up(&opts.request()?, process_start)?;
            println!("{}", ready.setup_s);
        }
        "run" => {
            let doc = report::run_all(
                opts.parsed("--seed")?,
                opts.parsed("--seconds")?,
                opts.flag("--traced"),
            )?;
            println!("{doc}");
        }
        "compare" => {
            let [base, new] = opts.0.as_slice() else {
                return Err(USAGE.to_owned());
            };
            if !compare::compare(base, new)? {
                return Ok(ExitCode::from(2));
            }
        }
        "manifest" => print!("{}", metrics::manifest()),
        _ => return Err(USAGE.to_owned()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let process_start = Wall::now();
    dispatch(process_start).unwrap_or_else(|message| {
        eprintln!("xbench: {message}");
        ExitCode::FAILURE
    })
}
