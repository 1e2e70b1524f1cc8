//! The metric catalogue (one place: `BENCHMARK.json` mirrors it) and the
//! accumulators that turn what the program returns into per-layer numbers.

use std::collections::BTreeMap;

use vist_core::QueryResult;

use crate::setup::{IngestWindow, PAGE_SIZE};
use crate::trace::Tracer;
use crate::util::{percentile, ratio, sorted, JsonObj};

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ingest_docs_per_s", "docs/s"),
    ("index_bytes_per_input_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Per-layer metrics, printed by every traced run, except the Table-3
/// per-query breakdown (see [`per_layer`]).
const LAYERS: &[(&str, &str)] = &[
    ("translate.us_per_query", "us"),
    ("plan.us_per_query", "us"),
    ("plan.probes_per_query", "count"),
    ("plan.seqs_pruned_per_query", "count"),
    ("match.ms_per_query", "ms"),
    ("match.work_items_per_query", "count"),
    ("match.sancestor_scans_per_query", "count"),
    ("match.dancestor_probes_per_query", "count"),
    ("match.nodes_visited_per_query", "count"),
    ("match.useful_ratio", "ratio"),
    ("merge.us_per_query", "us"),
    ("docid.ms_per_query", "ms"),
    ("docid.scans_per_query", "count"),
    ("stage.residual_us_per_query", "us"),
    ("stage.coverage", "ratio"),
    ("pool.hits_per_query", "count"),
    ("pool.misses_per_query", "count"),
    ("pool.hit_ratio", "ratio"),
    ("storage.pages_read_per_query", "count"),
    ("storage.bytes_read_per_query", "bytes"),
    ("btree.pages_per_probe", "count"),
    ("serve.ping_rtt_us", "us"),
    ("serve.overhead_us", "us"),
    ("xml.parse_us_per_doc", "us"),
    ("seq.encode_us_per_doc", "us"),
    ("ingest.batch_ms_p50", "ms"),
    ("ingest.batch_ms_p99", "ms"),
    ("ingest.remove_ms_per_doc", "ms"),
    ("ingest.dkey_cache_hit_ratio", "ratio"),
    ("ingest.edge_cache_hit_ratio", "ratio"),
    ("storage.wal_appends_per_doc", "count"),
    ("storage.wal_commits_per_batch", "count"),
    ("storage.pages_written_per_doc", "count"),
    ("storage.write_amplification", "ratio"),
    ("alloc.underflows_per_kdoc", "count"),
    ("alloc.deep_borrows", "count"),
    ("reader.stall_ms_p99", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Labels of the Table-3 queries, for the per-query breakdown.
pub const TABLE3_LABELS: [&str; 8] = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (suffix, unit) in [
        ("p50_ms", "ms"),
        ("work_items", "count"),
        ("sancestor_scans", "count"),
    ] {
        for q in TABLE3_LABELS {
            all.push((format!("q.{q}_{suffix}"), unit));
        }
    }
    all
}

/// Measured values by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The `metrics` object for one catalogue: every metric, with its
    /// unit. A metric this workload does not exercise reads 0 and is
    /// listed in the returned names.
    pub fn render(&self, catalogue: &[(String, &'static str)]) -> (String, Vec<String>) {
        let layers = per_layer();
        for name in self.values.keys() {
            assert!(
                end_to_end().iter().chain(&layers).any(|(n, _)| n == name),
                "metric {name} is missing from the catalogue"
            );
        }
        let mut out = JsonObj::default();
        let mut absent = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    absent.push(name.clone());
                    0.0
                }
            };
            let mut m = JsonObj::default();
            m.num("value", value).str("unit", unit);
            out.obj(name, &m);
        }
        (out.finish(), absent)
    }
}

/// Per-query sums of what `VistIndex::query` returns, beside the
/// client-observed wall time of the same calls.
#[derive(Default, Clone)]
pub struct QueryAgg {
    pub n: u64,
    wall_ns: u64,
    translate_ns: u64,
    plan_ns: u64,
    match_ns: u64,
    merge_ns: u64,
    docid_ns: u64,
    stage_ns: u64,
    planner_probes: u64,
    seqs_pruned: u64,
    work_items: u64,
    sancestor_scans: u64,
    dancestor_probes: u64,
    nodes_visited: u64,
    docid_scans: u64,
    answers: u64,
    pool_hits: u64,
    pool_misses: u64,
    pages_read: u64,
    bytes_read: u64,
}

impl QueryAgg {
    pub fn add(&mut self, wall_ns: u64, r: &QueryResult) {
        let (t, s) = (&r.timings, &r.stats);
        self.n += 1;
        self.wall_ns += wall_ns;
        self.translate_ns += t.translate_nanos;
        self.plan_ns += t.plan_nanos;
        self.match_ns += t.match_nanos;
        self.merge_ns += t.merge_nanos;
        self.docid_ns += t.docid_nanos;
        self.stage_ns += t.stage_sum();
        self.planner_probes += s.planner_probes;
        self.seqs_pruned += s.planner_seqs_pruned;
        self.work_items += s.work_items;
        self.sancestor_scans += s.sancestor_scans;
        self.dancestor_probes += s.dancestor_gets + s.dancestor_scans;
        self.nodes_visited += s.nodes_visited;
        self.docid_scans += s.docid_scans;
        self.answers += r.doc_ids.len() as u64;
        self.pool_hits += s.io_pool_hits;
        self.pool_misses += s.io_pool_misses;
        self.pages_read += s.io_pages_read;
        self.bytes_read += s.io_bytes_read;
    }

    /// Sum of the program's stage timings over the client-observed wall
    /// time of the same calls.
    pub fn coverage(&self) -> f64 {
        ratio(self.stage_ns as f64, self.wall_ns as f64)
    }

    pub fn mean_work_items(&self) -> f64 {
        ratio(self.work_items as f64, self.n as f64)
    }

    pub fn mean_sancestor_scans(&self) -> f64 {
        ratio(self.sancestor_scans as f64, self.n as f64)
    }

    pub fn put_layers(&self, m: &mut Metrics) {
        let n = self.n as f64;
        let per = |v: u64| ratio(v as f64, n);
        m.put("translate.us_per_query", per(self.translate_ns) / 1e3);
        m.put("plan.us_per_query", per(self.plan_ns) / 1e3);
        m.put("plan.probes_per_query", per(self.planner_probes));
        m.put("plan.seqs_pruned_per_query", per(self.seqs_pruned));
        m.put("match.ms_per_query", per(self.match_ns) / 1e6);
        m.put("match.work_items_per_query", per(self.work_items));
        m.put("match.sancestor_scans_per_query", per(self.sancestor_scans));
        m.put(
            "match.dancestor_probes_per_query",
            per(self.dancestor_probes),
        );
        m.put("match.nodes_visited_per_query", per(self.nodes_visited));
        m.put(
            "match.useful_ratio",
            ratio(self.answers as f64, self.nodes_visited as f64),
        );
        m.put("merge.us_per_query", per(self.merge_ns) / 1e3);
        m.put("docid.ms_per_query", per(self.docid_ns) / 1e6);
        m.put("docid.scans_per_query", per(self.docid_scans));
        m.put(
            "stage.residual_us_per_query",
            per(self.wall_ns.saturating_sub(self.stage_ns)) / 1e3,
        );
        m.put("stage.coverage", self.coverage());
        m.put("pool.hits_per_query", per(self.pool_hits));
        m.put("pool.misses_per_query", per(self.pool_misses));
        let accesses = self.pool_hits + self.pool_misses;
        m.put(
            "pool.hit_ratio",
            ratio(self.pool_hits as f64, accesses as f64),
        );
        m.put("storage.pages_read_per_query", per(self.pages_read));
        m.put("storage.bytes_read_per_query", per(self.bytes_read));
        m.put(
            "btree.pages_per_probe",
            ratio(
                accesses as f64,
                (self.dancestor_probes + self.sancestor_scans + self.docid_scans) as f64,
            ),
        );
    }
}

/// Write-path layer metrics over `w`, with per-call times from the spans
/// `tracer` recorded around the same calls.
pub fn put_ingest_layers(m: &mut Metrics, tracer: &Tracer, w: &IngestWindow) {
    let mean_of = |name: &str| {
        let d = tracer.durations(name);
        ratio(d.iter().sum::<f64>(), d.len() as f64)
    };
    m.put("xml.parse_us_per_doc", mean_of("vist_xml.parse") / 1e3);
    m.put(
        "seq.encode_us_per_doc",
        mean_of("vist_seq.document_to_sequence") / 1e3,
    );
    let batches = sorted(&tracer.durations("vist_core.insert_batch"));
    m.put("ingest.batch_ms_p50", percentile(&batches, 50.0) / 1e6);
    m.put("ingest.batch_ms_p99", percentile(&batches, 99.0) / 1e6);
    if !tracer.durations("vist_core.remove_document").is_empty() {
        m.put(
            "ingest.remove_ms_per_doc",
            mean_of("vist_core.remove_document") / 1e6,
        );
    }
    let (a, b) = (&w.after, &w.before);
    let d = |x: u64, y: u64| x.saturating_sub(y) as f64;
    let dkey_hits = d(a.ingest_dkey_cache_hits, b.ingest_dkey_cache_hits);
    let dkey_misses = d(a.ingest_dkey_cache_misses, b.ingest_dkey_cache_misses);
    let edge_hits = d(a.ingest_edge_cache_hits, b.ingest_edge_cache_hits);
    let edge_misses = d(a.ingest_edge_cache_misses, b.ingest_edge_cache_misses);
    m.put(
        "ingest.dkey_cache_hit_ratio",
        ratio(dkey_hits, dkey_hits + dkey_misses),
    );
    m.put(
        "ingest.edge_cache_hit_ratio",
        ratio(edge_hits, edge_hits + edge_misses),
    );
    let io = a.io.since(&b.io);
    let docs = w.docs as f64;
    m.put(
        "storage.wal_appends_per_doc",
        ratio(io.wal_appends as f64, docs),
    );
    m.put(
        "storage.wal_commits_per_batch",
        ratio(io.wal_commits as f64, w.batches as f64),
    );
    m.put(
        "storage.pages_written_per_doc",
        ratio(io.writes as f64, docs),
    );
    m.put(
        "storage.write_amplification",
        ratio(
            ((io.writes + io.wal_appends) * PAGE_SIZE as u64) as f64,
            w.input_bytes as f64,
        ),
    );
    m.put(
        "alloc.underflows_per_kdoc",
        ratio(d(a.underflows, b.underflows) * 1000.0, docs),
    );
    m.put("alloc.deep_borrows", d(a.deep_borrows, b.deep_borrows));
}
