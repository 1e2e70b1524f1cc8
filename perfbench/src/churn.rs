//! `ingest-churn`: a writer and a reader share the file-backed
//! mixed-layout index.
//!
//! * The writer inserts fresh records (their own seed) in batches of
//!   `BATCH_DOCS` through `insert_batch` (one prepare thread, one group
//!   commit), then removes as many of its own earlier inserts and calls
//!   `flush`, so the live set stays level. It starts one such cycle per
//!   `WRITER_PERIOD` (back to back if a cycle takes longer), so every run
//!   does the same write work per second and the reader contends with a
//!   fixed load rather than with however fast the writer happened to be.
//! * The reader looks up `LOOKUP_KIND` records the writer has committed
//!   and not yet removed; each answer must be exactly that record.
//!
//! Reader stalls behind the writer show as the p99 gap between lookups
//! that overlapped a writer batch or remove window and those that did not.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vist_core::{DocId, QueryOptions, VistIndex};
use vist_datagen::rng::StdRng;
use vist_seq::SymbolTable;

use crate::corpus::{self, FreshPool, Keyed, LOOKUP_KIND};
use crate::metrics::{put_ingest_layers, Metrics, QueryAgg};
use crate::setup::{self, IngestWindow, Phases, BATCH_DOCS};
use crate::trace::Tracer;
use crate::util::{median, percentile, sorted, JsonObj};
use crate::{Args, Outcome, Res};

/// Pool pages per tier: larger than the index, so reads hit memory and
/// the write path dominates.
const POOL_PAGES: usize = 1 << 15;
/// Writer batches kept live; the oldest is removed after each insert.
const LIVE_BATCHES: usize = 2;
/// One writer cycle (insert batch, remove batch, flush) starts per period.
/// The remove window delays the lookups that overlap it; at this period
/// they are about 4% of lookups, so the reader's p90 lies clear of them
/// (at one second it sat on their edge and jumped between runs).
const WRITER_PERIOD: Duration = Duration::from_secs(2);
/// Writer cycles in set-up: the first few batches after the reopen run
/// about a third slower while the delta's pages come back into the pool.
const WARM_CYCLES: usize = 4;

struct LiveBatch {
    seq: u64,
    ids: Vec<DocId>,
    xml_bytes: u64,
    /// The batch's `LOOKUP_KIND` records, which the reader looks up.
    lookups: Vec<(Keyed, DocId)>,
}

/// State shared by the writer and the reader.
struct Shared {
    index: Arc<VistIndex>,
    fresh: FreshPool,
    /// Committed writer batches, oldest first. The front batch is the next
    /// to be removed, so the reader never picks from it.
    live: Mutex<VecDeque<LiveBatch>>,
    /// Batches with `seq` below this may be (partly) removed.
    removing_below: AtomicU64,
    next_record: AtomicU64,
    next_batch: AtomicU64,
}

impl Shared {
    /// Insert one writer batch and publish it to the reader.
    fn insert(
        &self,
        tracer: &Tracer,
        table: &mut SymbolTable,
        window: &mut IngestWindow,
    ) -> Res<(Instant, Instant)> {
        let first = self
            .next_record
            .fetch_add(BATCH_DOCS as u64, Ordering::Relaxed);
        let (keys, xml): (Vec<Keyed>, Vec<String>) = (first..first + BATCH_DOCS as u64)
            .map(|n| self.fresh.record(n))
            .unzip();
        let t0 = Instant::now();
        let ids = setup::insert_batch(&self.index, &xml, tracer, table, window)?;
        let t1 = Instant::now();
        let batch = LiveBatch {
            seq: self.next_batch.fetch_add(1, Ordering::Relaxed),
            xml_bytes: xml.iter().map(|x| x.len() as u64).sum(),
            lookups: keys
                .into_iter()
                .zip(ids.iter().copied())
                .filter(|(k, _)| k.kind == LOOKUP_KIND)
                .collect(),
            ids,
        };
        self.live
            .lock()
            .expect("live-set lock poisoned")
            .push_back(batch);
        Ok((t0, t1))
    }

    /// One writer cycle: insert a batch, remove the oldest live batch,
    /// flush. Records the insert_batch call and the remove window in `p`,
    /// as seconds from `start`.
    fn cycle(
        &self,
        tracer: &Tracer,
        table: &mut SymbolTable,
        window: &mut IngestWindow,
        start: Instant,
        p: &mut Phase,
    ) {
        let at = |t: Instant| t.duration_since(start).as_secs_f64();
        p.writes += 1;
        match self.insert(tracer, table, window) {
            Ok((t0, t1)) => p.windows.push((at(t0), at(t1))),
            Err(e) => {
                eprintln!("insert_batch: {e}");
                p.write_failures += 1;
            }
        }
        let oldest = {
            let live = self.live.lock().expect("live-set lock poisoned");
            live.front().map(|b| (b.seq, b.ids.clone()))
        };
        let Some((seq, ids)) = oldest else { return };
        self.removing_below.store(seq + 1, Ordering::SeqCst);
        let op = tracer.op("remove");
        let t0 = Instant::now();
        for id in ids {
            p.writes += 1;
            let _s = op.child("vist_core.remove_document");
            if let Err(e) = self.index.remove_document(id) {
                eprintln!("remove_document {id}: {e}");
                p.write_failures += 1;
            }
        }
        p.windows.push((at(t0), at(Instant::now())));
        p.writes += 1;
        let flushed = {
            let _s = op.child("vist_core.flush");
            self.index.flush()
        };
        if let Err(e) = flushed {
            eprintln!("flush: {e}");
            p.write_failures += 1;
        }
        self.live
            .lock()
            .expect("live-set lock poisoned")
            .pop_front();
    }

    fn live_bytes(&self) -> u64 {
        let live = self.live.lock().expect("live-set lock poisoned");
        live.iter().map(|b| b.xml_bytes).sum()
    }
}

#[derive(Default)]
struct Phase {
    /// The reader's measured time.
    elapsed_s: f64,
    reads: u64,
    read_failures: u64,
    writes: u64,
    write_failures: u64,
    /// `(start, end)` of each successful lookup, relative to phase start.
    lookups: Vec<(f64, f64)>,
    /// Lookup latencies by mode (see [`Args::mode`]): an untraced run has
    /// only mode 0.
    mode_ms: [Vec<f64>; 2],
    /// `(start, end)` of each insert_batch call and remove window.
    windows: Vec<(f64, f64)>,
    agg: QueryAgg,
    window: Option<IngestWindow>,
}

impl Phase {
    fn queries_per_s(&self) -> f64 {
        self.lookups.len() as f64 / self.elapsed_s
    }

    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .lookups
                .iter()
                .map(|(s, e)| (e - s) * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Reader p99 of lookups that overlapped a writer window, minus p99 of
    /// the rest.
    fn stall_ms_p99(&self) -> f64 {
        let mut windows = self.windows.clone();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (mut hit, mut clear) = (Vec::new(), Vec::new());
        for &(s, e) in &self.lookups {
            // Windows starting before the lookup ends; the last of them
            // with a late enough end overlaps.
            let before = windows.partition_point(|w| w.0 < e);
            let overlaps = windows[..before].iter().rev().any(|w| w.1 > s);
            (if overlaps { &mut hit } else { &mut clear }).push((e - s) * 1e3);
        }
        percentile(&sorted(&hit), 99.0) - percentile(&sorted(&clear), 99.0)
    }
}

fn writer(shared: &Shared, args: &Args, start: Instant, run_tracer: &Tracer, p: &mut Phase) {
    let quiet = Tracer::new(false);
    let budget = args.budget();
    let mut table = SymbolTable::new();
    let mut window = IngestWindow::open(&shared.index);
    let mut cycle = 0u32;
    while start.elapsed() < budget {
        let due = start + WRITER_PERIOD * cycle;
        cycle += 1;
        while Instant::now() < due && start.elapsed() < budget {
            std::thread::sleep(Duration::from_millis(2));
        }
        if start.elapsed() >= budget {
            break;
        }
        let tracer = if args.mode(start, 2) == 1 {
            run_tracer
        } else {
            &quiet
        };
        shared.cycle(tracer, &mut table, &mut window, start, p);
    }
    window.close(&shared.index);
    p.window = Some(window);
}

fn reader(
    shared: &Shared,
    args: &Args,
    start: Instant,
    rng: &mut StdRng,
    run_tracer: &Tracer,
    p: &mut Phase,
) {
    let quiet = Tracer::new(false);
    let opts = QueryOptions::default();
    while start.elapsed() < args.budget() {
        let pick = {
            let live = shared.live.lock().expect("live-set lock poisoned");
            let eligible: usize = live.iter().skip(1).map(|b| b.lookups.len()).sum();
            let mut i = rng.random_range(0..eligible.max(1));
            live.iter().skip(1).find_map(|b| {
                if i < b.lookups.len() {
                    let (k, id) = &b.lookups[i];
                    Some((k.clone(), *id, b.seq))
                } else {
                    i -= b.lookups.len();
                    None
                }
            })
        };
        let Some((keyed, id, seq)) = pick else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let expr = keyed.lookup_expr();
        let mode = args.mode(start, 2);
        let tracer = if mode == 1 { run_tracer } else { &quiet };
        let op = tracer.op("lookup");
        let t0 = Instant::now();
        let result = {
            let _s = op.child("vist_core.query");
            shared.index.query(&expr, &opts)
        };
        let t1 = Instant::now();
        p.reads += 1;
        // A record whose removal began mid-lookup may legitimately be gone.
        let may_be_gone = seq < shared.removing_below.load(Ordering::SeqCst);
        match result {
            Ok(r) if r.doc_ids == [id] || (may_be_gone && r.doc_ids.is_empty()) => {
                let wall_ns = t1.duration_since(t0).as_nanos() as u64;
                if mode == 1 {
                    p.agg.add(wall_ns, &r);
                }
                p.mode_ms[mode].push(wall_ns as f64 / 1e6);
                p.lookups.push((
                    t0.duration_since(start).as_secs_f64(),
                    t1.duration_since(start).as_secs_f64(),
                ));
            }
            other => {
                eprintln!(
                    "lookup {}: {:?}, expected [{id}]",
                    keyed.key,
                    other.map(|r| r.doc_ids)
                );
                p.read_failures += 1;
            }
        }
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
}

/// Run the writer and the reader side by side.
fn measure(shared: &Shared, rng: &mut StdRng, args: &Args, run_tracer: &Tracer) -> Phase {
    let (mut w, mut r) = (Phase::default(), Phase::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        let wh = s.spawn(|| writer(shared, args, start, run_tracer, &mut w));
        let rh = s.spawn(|| reader(shared, args, start, rng, run_tracer, &mut r));
        wh.join().expect("writer thread panicked");
        rh.join().expect("reader thread panicked");
    });
    Phase {
        writes: w.writes,
        write_failures: w.write_failures,
        windows: w.windows,
        window: w.window,
        ..r
    }
}

pub fn run(args: &Args, work: &Path) -> Res<Outcome> {
    let setup_tracer = Tracer::new(args.trace);
    let ((corpus, shared, phases), setup_durations) =
        setup::repeat(work, &setup_tracer, |dir, tracer| {
            let mut phases = Phases::default();
            let t = Instant::now();
            let corpus = corpus::generate(args.seed);
            let fresh = FreshPool::generate(args.seed);
            phases.generate_s = t.elapsed().as_secs_f64();
            let built = setup::build(&corpus, dir, POOL_PAGES, tracer, &mut phases)?;
            let t = Instant::now();
            let shared = Shared {
                index: Arc::new(built.index),
                fresh,
                live: Mutex::new(VecDeque::new()),
                removing_below: AtomicU64::new(0),
                next_record: AtomicU64::new(0),
                next_batch: AtomicU64::new(0),
            };
            let mut table = SymbolTable::new();
            let mut window = IngestWindow::open(&shared.index);
            for _ in 0..LIVE_BATCHES {
                shared.insert(tracer, &mut table, &mut window)?;
            }
            let mut warm = Phase::default();
            for _ in 0..WARM_CYCLES {
                shared.cycle(tracer, &mut table, &mut window, t, &mut warm);
            }
            if warm.write_failures > 0 {
                return Err("a warm-up writer cycle failed".into());
            }
            phases.warm_s = t.elapsed().as_secs_f64();
            Ok((corpus, shared, phases))
        })?;
    let start_stats = shared.index.stats();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xC4_0A2);

    let mut m = Metrics::default();
    let mut meta = JsonObj::default();
    let run_tracer = Tracer::new(args.trace);
    let main = measure(&shared, &mut rng, args, &run_tracer);
    let window = main.window.as_ref().expect("writer ran");
    let lat = main.latencies_ms();
    if args.trace {
        main.agg.put_layers(&mut m);
        put_ingest_layers(&mut m, &run_tracer, window);
        m.put("reader.stall_ms_p99", main.stall_ms_p99());
        let p50 = |v: &[f64]| percentile(&sorted(v), 50.0);
        m.put(
            "obs.trace_overhead_pct",
            (p50(&main.mode_ms[1]) / p50(&main.mode_ms[0]) - 1.0) * 100.0,
        );
        // Reported, not gated: time a lookup waits for the maintenance
        // latch behind the writer falls outside every stage.
        meta.num("stage_coverage", main.agg.coverage());
    } else {
        m.put("setup_s", median(&setup_durations));
        m.put("queries_per_s", main.queries_per_s());
        m.put("query_p50_ms", percentile(&lat, 50.0));
        m.put("query_p90_ms", percentile(&lat, 90.0));
        m.put("ingest_docs_per_s", window.docs_per_s());
    }
    let attempted = main.reads + main.writes;
    let failed = main.read_failures + main.write_failures;
    let end_stats = shared.index.stats();
    m.put(
        "index_bytes_per_input_byte",
        (end_stats.store_bytes + end_stats.segment_bytes) as f64
            / (corpus.bytes() + shared.live_bytes()) as f64,
    );
    m.put("peak_rss_mib", crate::util::peak_rss_mib());
    setup::describe(
        &mut meta,
        &corpus,
        &start_stats,
        POOL_PAGES,
        &setup_durations,
        &phases,
    );
    meta.int("queries_measured", lat.len() as u64)
        .int("docs_inserted", window.docs)
        .int("batches", window.batches)
        .num("elapsed_s", main.elapsed_s)
        .int("live_batches", LIVE_BATCHES as u64)
        .num("writer_period_ms", WRITER_PERIOD.as_secs_f64() * 1e3)
        .int("end_delta_bytes", end_stats.store_bytes);
    if lat.len() >= 1000 {
        meta.num("query_p99_ms", percentile(&lat, 99.0));
    }
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics: m,
        meta,
        tracers: vec![("setup", setup_tracer), ("run", run_tracer)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_compares_lookups_overlapping_writer_windows_with_the_rest() {
        let p = Phase {
            windows: vec![(5.0, 6.0), (1.0, 2.0)],
            // Two lookups overlap a window (10 ms and 30 ms), two do not
            // (1 ms and 2 ms).
            lookups: vec![(1.99, 2.0), (4.98, 5.01), (3.0, 3.001), (7.0, 7.002)],
            ..Phase::default()
        };
        assert!((p.stall_ms_p99() - 28.0).abs() < 1e-6);
    }
}
