//! SensorSafe benchmark: three workloads driven over loopback TCP against
//! evented servers, with output checks, end-to-end metrics (untraced) and
//! per-layer metrics (traced run with an in-process decomposed replay).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed|study|search --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when
//! any output check fails. See `perfbench/README.md` for the workloads
//! and the layer → metric → workload map.

mod harness;
mod mixed;
mod report;
mod search;
#[cfg(test)]
mod selftest;
mod storeops;
mod study;

use harness::{drive, Client, Counters, Phase, Stop};
use report::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Clients in the closed loop, one keep-alive connection each. One: with
/// two on a 2-CPU host, the throughput of back-to-back `search` runs over
/// 10,000 contributors spread 0.34 (interquartile range over median, 5
/// runs), against 0.06 with one.
pub const CLIENTS: usize = 1;

/// In traced runs, every n-th operation of a client is also replayed
/// in-process and decomposed into spans.
pub const TRACE_EVERY: u64 = 7;

/// A run measures this many fresh set-ups in turn, each for an equal
/// share of `--seconds`, and pools their ops. The speed of one set-up can
/// depend on its own memory layout (hash seeds, allocation order): in one
/// of two trials with three brokers alive in one process and measured in
/// alternation, one ran about 15% slower than the other two in every
/// round. Pooling set-ups averages that out; a longer run of one set-up
/// would not.
pub const SEGMENTS: usize = 4;

/// How often each segment sets up: at least once, then again while its
/// set-ups took less than `SETUP_SECONDS / SEGMENTS`, up to
/// `MAX_SETUPS / SEGMENTS` times. On a shared host the speed of CPU-bound
/// work drifts in streaks of seconds, so a cheap set-up (`search`, 0.03 s)
/// is repeated until the median covers several seconds of host time, and
/// an expensive one (`mixed`, 1.4 s) is not.
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 5.0;

/// Command-line arguments shared by every workload.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where traced runs write their spans.
    pub spans_file: PathBuf,
}

/// The measured phases of a run, pooled over its segments: with tracing
/// off, each segment is measured untraced throughout; with tracing on, it
/// spends half untraced (its ops/s is the overhead baseline, and counters
/// are read over it) and half with the sampled replay on.
#[derive(Default)]
pub struct Measured {
    pub untraced: Phase,
    pub traced: Option<Phase>,
    /// Registry scrapes bracketing each untraced phase.
    pub counters: Counters,
    /// Resident set (MiB) of each segment after `rss_after` ops of its
    /// untraced phase, or at its end if it completed fewer.
    pub rss: Vec<f64>,
    /// Untraced ops/s of each segment pooled so far.
    pub segment_ops_per_s: Vec<f64>,
}

impl Measured {
    /// Adds one segment's phases.
    pub fn pool(&mut self, segment: Measured) {
        let n = self.segment_ops_per_s.len();
        self.segment_ops_per_s.push(segment.untraced.ops_per_s());
        self.untraced.pool(segment.untraced, n);
        if let Some(traced) = segment.traced {
            self.traced
                .get_or_insert_with(Phase::default)
                .pool(traced, n);
        }
        self.counters.extend(segment.counters);
        self.rss.extend(segment.rss);
    }

    /// The first segment's resident set: later segments also hold what
    /// the allocator kept from the set-ups before them.
    pub fn rss_mb(&self) -> f64 {
        self.rss.first().copied().unwrap_or_else(harness::rss_mb)
    }
}

/// Measures one segment. The resident set is read at a fixed number of
/// completed ops, so it covers the data a segment accumulates without
/// depending on how fast it went.
pub fn measure<C: Client>(clients: &mut [C], args: &RunArgs, rss_after: u64) -> Measured {
    let seconds = args.seconds / SEGMENTS as f64;
    let untraced_s = if args.traced { seconds / 2.0 } else { seconds };
    let mut counters = Counters::default();
    let untraced = counters.bracket(|| {
        drive(
            clients,
            Stop::After(Duration::from_secs_f64(untraced_s)),
            None,
            Some(rss_after),
        )
    });
    let rss = vec![untraced.rss_mb.unwrap_or_else(harness::rss_mb)];
    let traced = args.traced.then(|| {
        drive(
            clients,
            Stop::After(Duration::from_secs_f64(seconds / 2.0)),
            Some(TRACE_EVERY),
            None,
        )
    });
    Measured {
        untraced,
        traced,
        counters,
        rss,
        segment_ops_per_s: Vec::new(),
    }
}

/// Sets one segment up repeatedly, tearing down every set-up but the
/// last, and records the wall time of each in `times` (`setup_s` is the
/// median over the run). Returns the last set-up, which the segment
/// measures.
pub fn set_up_repeatedly<T>(
    times: &mut Vec<f64>,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> T {
    let mut mine: Vec<f64> = Vec::new();
    let mut live = None;
    while mine.is_empty()
        || (mine.len() < MAX_SETUPS / SEGMENTS
            && mine.iter().sum::<f64>() < SETUP_SECONDS / SEGMENTS as f64)
    {
        if let Some(old) = live.take() {
            tear_down(old);
        }
        let started = Instant::now();
        live = Some(set_up());
        mine.push(started.elapsed().as_secs_f64());
    }
    times.extend(mine);
    live.expect("at least one set-up")
}

/// Writes a traced run's spans and notes where they went.
pub fn save_spans(out: &mut Outcome, args: &RunArgs, phase: &Phase) {
    match harness::write_spans(&args.spans_file, &phase.spans) {
        Ok(()) => out.lines.push(format!(
            "spans: {} written to {}",
            phase.spans.len(),
            args.spans_file.display()
        )),
        Err(e) => out.wrong.push(format!("writing spans: {e}")),
    }
}

fn usage() -> ! {
    eprintln!("usage: perfbench --workload mixed|study|search --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

/// The file system type holding `path`, from the longest matching mount.
fn filesystem_of(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// The server configuration and environment the numbers depend on.
fn config_line(workload: &str, args: &RunArgs) -> String {
    use sensorsafe_core::net::EventedConfig;
    use sensorsafe_core::store::{GroupCommitConfig, JournalConfig, MergePolicy};
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let env = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    let evented = EventedConfig::default();
    format!(
        "config workload={workload} seed={} seconds={} trace={} clients={CLIENTS} segments={SEGMENTS} \
         server=evented(loops={} handler_threads={} max_connections_per_loop={} \
         handler_queue_depth={} idle_timeout={:?}) engine=journal \
         group_commit={:?} journal={:?} merge={:?} \
         ledger_flush=sync-per-request nproc={nproc} tmp_fs={} \
         SENSORSAFE_SERVER_MODE={} SENSORSAFE_PROF_HZ={} SENSORSAFE_SLOW_REQ_MS={}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        if evented.loops == 0 {
            nproc
        } else {
            evented.loops
        },
        if evented.handler_threads == 0 {
            4 * nproc
        } else {
            evented.handler_threads
        },
        evented.max_connections_per_loop,
        evented.handler_queue_depth,
        evented.idle_timeout,
        GroupCommitConfig::default(),
        JournalConfig::default(),
        MergePolicy::default(),
        filesystem_of(&std::env::temp_dir()),
        env("SENSORSAFE_SERVER_MODE"),
        env("SENSORSAFE_PROF_HZ"),
        env("SENSORSAFE_SLOW_REQ_MS"),
    )
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = value.parse::<u8>().ok().filter(|t| *t <= 1),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    // Durable stores and spans stay inside the working directory: the
    // workload builders place their data under the temp dir.
    let cwd = std::env::current_dir().expect("working directory");
    let scratch = cwd
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    std::env::set_var("TMPDIR", &scratch);
    let args = RunArgs {
        seed,
        seconds,
        traced: traced == 1,
        spans_file: cwd
            .join(".perfbench_out")
            .join(format!("spans-{workload}-{seed}.jsonl")),
    };
    println!("{}", config_line(&workload, &args));
    let outcome = match workload.as_str() {
        "mixed" => mixed::run(&args, &mixed::Scale::default(), &mixed::Expect::default()),
        "study" => study::run(&args, &study::Scale::default(), &study::Expect::default()),
        "search" => search::run(&args, &search::Scale::default(), &search::Expect::default()),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for line in &outcome.lines {
        println!("{line}");
    }
    for wrong in &outcome.wrong {
        println!("CHECK FAILED: {wrong}");
    }
    println!("{}", outcome.result_json(args.traced));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
