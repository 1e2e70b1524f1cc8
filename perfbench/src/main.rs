//! Layer-accounted end-to-end benchmark of the ViST index.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-table4 --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Workloads (each closed-loop, in one process, inputs derived from
//! `--seed`):
//!
//! * `paper-table4` — the paper's Table-3 queries Q1–Q8 in a seeded order
//!   from one in-process client, warm pool;
//! * `keyed-serve-cold` — Zipf-skewed point lookups through `vist-serve`
//!   over one loopback connection, pool much smaller than the index;
//! * `ingest-churn` — a writer inserting and removing batches of fresh
//!   records beside a reader looking them up.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, from a run whose operations alternate in one-second
//! blocks between untraced and traced (see [`Args::mode`]). Every answer
//! is checked against a reference computed outside the index. Run
//! metadata (host cores, generator sizes, pool versus index pages, write
//! policy) is printed on the line before the result and kept with the
//! spans under `.perfbench/out/`. The last line of standard output is the
//! result object.
//!
//! End-to-end figures: `setup_s` is the median of three complete set-ups
//! (generate, build, reopen, warm up); query rates and latencies cover the
//! whole timed loop; `ingest_docs_per_s` is the median over `insert_batch`
//! calls of documents per second of the call, fsync included — the churn
//! writer's batches, or on the query workloads the set-up's delta load.

mod churn;
mod corpus;
mod keyed;
mod metrics;
mod setup;
mod table4;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{end_to_end, per_layer, Metrics};
use trace::Tracer;
use util::JsonObj;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Length of one block of a traced run.
const BLOCK_S: f64 = 1.0;

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The mode of an operation starting now in a run that began at
    /// `start`: always 0 in an untraced run. A traced run cycles through
    /// `modes` one-second blocks — 0 untraced, 1 traced, then any
    /// workload-specific mode — so slow spells of a shared host, which
    /// last many seconds, fall on every mode alike and the modes can be
    /// compared.
    pub fn mode(&self, start: Instant, modes: usize) -> usize {
        if self.trace {
            (start.elapsed().as_secs_f64() / BLOCK_S) as usize % modes
        } else {
            0
        }
    }
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check other than the per-operation answers failed
    /// (the traced run's layer accounting).
    pub checks_ok: bool,
    pub metrics: Metrics,
    pub meta: JsonObj,
    /// Spans of the kept set-up and of the measured phase, for the
    /// output directory.
    pub tracers: Vec<(&'static str, Tracer)>,
}

const USAGE: &str = "usage: perfbench --workload <paper-table4|keyed-serve-cold|ingest-churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".perfbench");
    let work = WorkDir(root.join(format!("work-{}", std::process::id())));
    let out_dir = root.join("out");
    let outcome = std::fs::create_dir_all(&work.0)
        .and_then(|()| std::fs::create_dir_all(&out_dir))
        .map_err(Into::into)
        .and_then(|()| match args.workload.as_str() {
            "paper-table4" => table4::run(&args, &work.0),
            "keyed-serve-cold" => keyed::run(&args, &work.0),
            "ingest-churn" => churn::run(&args, &work.0),
            other => Err(format!("unknown workload {other:?}\n{USAGE}").into()),
        });
    drop(work);
    match outcome.and_then(|o| report(&args, o, &out_dir)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the metadata line and the result line; keep both, and the
/// spans of a traced run, under `out_dir`.
fn report(args: &Args, mut o: Outcome, out_dir: &Path) -> Res<()> {
    let catalogue = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let (metrics, absent) = o.metrics.render(&catalogue);
    let correct = o.failed == 0 && o.checks_ok && o.attempted > 0;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    o.meta
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int(
            "host_cores",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .num(
            "failed_ops_ratio",
            util::ratio(o.failed as f64, o.attempted as f64),
        )
        .raw(
            "not_exercised",
            &format!(
                "[{}]",
                absent
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
    for (label, tracer) in &o.tracers {
        if tracer.enabled() {
            o.meta
                .obj(&format!("self_time_{label}"), &tracer.self_times());
            tracer.write_jsonl(&out_dir.join(format!("{stem}-spans-{label}.jsonl")))?;
        }
    }
    let meta = o.meta.finish();
    let mut result = JsonObj::default();
    result
        .bool("correct", correct)
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .raw("metrics", &metrics);
    let result = result.finish();
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        format!("{{\"meta\": {meta}, \"result\": {result}}}\n"),
    )?;
    println!("meta: {meta}");
    println!("{result}");
    Ok(())
}
