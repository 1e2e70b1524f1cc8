//! Building the mixed-layout index every workload starts from, and the
//! repeated set-up whose median is `setup_s`.

use std::path::Path;
use std::time::Instant;

use vist_core::{DocId, IndexOptions, IndexStats, VistIndex};
use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};

use crate::corpus::{Corpus, DBLP_RECORDS, XMARK_RECORDS};
use crate::trace::Tracer;
use crate::util::{median, JsonObj};
use crate::Res;

/// Page size of every index the benchmark builds.
pub const PAGE_SIZE: usize = 4096;
/// Documents per `insert_batch` call (delta load and churn writer).
pub const BATCH_DOCS: usize = 256;
/// Prepare workers per `insert_batch` call.
pub const PREPARE_THREADS: usize = 1;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Write-path accounting over one stretch of `insert_batch` /
/// `remove_document` calls on one open index (its I/O counters reset on
/// reopen, so both snapshots come from the same handle).
pub struct IngestWindow {
    pub before: IndexStats,
    pub after: IndexStats,
    pub docs: u64,
    pub batches: u64,
    pub input_bytes: u64,
    /// Documents per second of each `insert_batch` call, fsync included.
    pub batch_rates: Vec<f64>,
}

impl IngestWindow {
    pub fn open(index: &VistIndex) -> Self {
        let s = index.stats();
        IngestWindow {
            after: s.clone(),
            before: s,
            docs: 0,
            batches: 0,
            input_bytes: 0,
            batch_rates: Vec::new(),
        }
    }

    pub fn close(&mut self, index: &VistIndex) {
        self.after = index.stats();
    }

    /// Median over the window's batches of documents committed per second
    /// of `insert_batch` time.
    pub fn docs_per_s(&self) -> f64 {
        median(&self.batch_rates)
    }
}

/// One `insert_batch` call as a traced operation. With tracing on, the
/// benchmark first parses and encodes each document itself (spans
/// `vist_xml.parse` and `vist_seq.document_to_sequence`), so the traced
/// run can split per-document prepare cost by layer; the untraced run
/// skips that pass.
pub fn insert_batch(
    index: &VistIndex,
    docs: &[String],
    tracer: &Tracer,
    table: &mut SymbolTable,
    window: &mut IngestWindow,
) -> Res<Vec<DocId>> {
    let op = tracer.op("batch");
    if tracer.enabled() {
        let order = SiblingOrder::Lexicographic;
        for xml in docs {
            let doc = {
                let _s = op.child("vist_xml.parse");
                vist_xml::parse(xml)?
            };
            let _s = op.child("vist_seq.document_to_sequence");
            std::hint::black_box(document_to_sequence(&doc, table, &order));
        }
    }
    let t0 = Instant::now();
    let ids = {
        let _s = op.child("vist_core.insert_batch");
        index.insert_batch(docs, PREPARE_THREADS)?
    };
    window
        .batch_rates
        .push(docs.len() as f64 / t0.elapsed().as_secs_f64());
    window.docs += docs.len() as u64;
    window.batches += 1;
    window.input_bytes += docs.iter().map(|d| d.len() as u64).sum::<u64>();
    Ok(ids)
}

/// Phase durations of one set-up, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub generate_s: f64,
    pub bulk_s: f64,
    pub delta_s: f64,
    pub reopen_s: f64,
    pub warm_s: f64,
}

/// The reopened mixed-layout index, its document ids (parallel to
/// `corpus.xml`) and the accounting of its delta load.
pub struct Built {
    pub index: VistIndex,
    pub ids: Vec<DocId>,
    pub delta_load: IngestWindow,
}

/// Build the mixed layout at `dir`: the first `corpus.bulk_len` documents
/// bulk-loaded into one segment, the rest inserted into the delta in
/// group-committed batches; then close and reopen with a pool of
/// `pool_pages` pages per tier.
pub fn build(
    corpus: &Corpus,
    dir: &Path,
    pool_pages: usize,
    tracer: &Tracer,
    phases: &mut Phases,
) -> Res<Built> {
    let path = dir.join("index.vist");
    let opts = IndexOptions {
        page_size: PAGE_SIZE,
        ..IndexOptions::default()
    };
    let t = Instant::now();
    let (mut ids, delta_load) = {
        let op = tracer.op("build");
        let index = {
            let _s = op.child("vist_core.create_file");
            VistIndex::create_file(&path, opts)?
        };
        let ids = {
            let _s = op.child("vist_core.bulk_build");
            index.bulk_build(&corpus.xml[..corpus.bulk_len])?
        };
        phases.bulk_s = t.elapsed().as_secs_f64();
        drop(op);
        let t = Instant::now();
        let mut window = IngestWindow::open(&index);
        let mut table = SymbolTable::new();
        let mut ids = ids;
        for chunk in corpus.xml[corpus.bulk_len..].chunks(BATCH_DOCS) {
            ids.extend(insert_batch(
                &index,
                chunk,
                tracer,
                &mut table,
                &mut window,
            )?);
        }
        window.close(&index);
        {
            let op = tracer.op("close");
            let _s = op.child("vist_core.flush");
            index.flush()?;
        }
        phases.delta_s = t.elapsed().as_secs_f64();
        (ids, window)
    };
    ids.shrink_to_fit();
    let t = Instant::now();
    let index = {
        let op = tracer.op("reopen");
        let _s = op.child("vist_core.open_file");
        VistIndex::open_file(&path, pool_pages)?
    };
    phases.reopen_s = t.elapsed().as_secs_f64();
    Ok(Built {
        index,
        ids,
        delta_load,
    })
}

/// Run a complete set-up `SETUP_REPS` times, each in a fresh directory
/// under `work`, and keep the last. Earlier set-ups are dropped and their
/// files removed. Only the kept set-up is traced. Returns the kept state
/// and every set-up's duration in seconds.
pub fn repeat<S>(
    work: &Path,
    tracer: &Tracer,
    mut once: impl FnMut(&Path, &Tracer) -> Res<S>,
) -> Res<(S, Vec<f64>)> {
    let quiet = Tracer::new(false);
    let mut durations = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup-{rep}"));
        std::fs::create_dir_all(&dir)?;
        let last = rep + 1 == SETUP_REPS;
        let t = Instant::now();
        let state = once(&dir, if last { tracer } else { &quiet })?;
        durations.push(t.elapsed().as_secs_f64());
        if last {
            return Ok((state, durations));
        }
        drop(state);
        std::fs::remove_dir_all(&dir)?;
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// Run metadata shared by every workload: generators, page and pool
/// geometry (the working-set ratio), write-path policy and set-up times.
pub fn describe(
    meta: &mut JsonObj,
    corpus: &Corpus,
    stats: &IndexStats,
    pool_pages: usize,
    setup_durations: &[f64],
    phases: &Phases,
) {
    let mut dblp = JsonObj::default();
    dblp.int("records", DBLP_RECORDS as u64)
        .int("xml_bytes", corpus.dblp_bytes);
    let mut xmark = JsonObj::default();
    xmark
        .int("records", XMARK_RECORDS as u64)
        .int("xml_bytes", corpus.xmark_bytes);
    let page = PAGE_SIZE as u64;
    let mut tiers = JsonObj::default();
    for (tier, bytes) in [
        ("delta", stats.store_bytes),
        ("segment", stats.segment_bytes),
    ] {
        let mut t = JsonObj::default();
        t.int("pool_pages", pool_pages as u64)
            .int("index_pages", bytes / page)
            .num("pool_to_index", pool_pages as f64 / (bytes / page) as f64);
        tiers.obj(tier, &t);
    }
    let mut ph = JsonObj::default();
    ph.num("generate_s", phases.generate_s)
        .num("bulk_s", phases.bulk_s)
        .num("delta_s", phases.delta_s)
        .num("reopen_s", phases.reopen_s)
        .num("warm_s", phases.warm_s);
    meta.obj("dblp", &dblp)
        .obj("xmark", &xmark)
        .int("segment_docs", corpus.bulk_len as u64)
        .int("delta_docs", (corpus.xml.len() - corpus.bulk_len) as u64)
        .int("page_size", page)
        .obj("tiers", &tiers)
        .int("batch_docs", BATCH_DOCS as u64)
        .int("prepare_threads", PREPARE_THREADS as u64)
        .str(
            "flush_policy",
            "one WAL commit + fsync per insert_batch; flush after each churn remove window",
        )
        .raw(
            "setup_s_each",
            &format!(
                "[{}]",
                setup_durations
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .obj("setup_phases_kept", &ph);
}
