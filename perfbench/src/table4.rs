//! `paper-table4`: the paper's Table-3 queries Q1–Q8 in a seeded order
//! from one in-process client, over the mixed-layout corpus reopened with
//! a pool larger than the index (warm: no misses in the timed loop).

use std::path::Path;
use std::time::Instant;

use vist_core::{DocId, QueryOptions, VistIndex};
use vist_datagen::rng::StdRng;
use vist_query::{parse_query, sequence_matches, translate, TranslateOptions};
use vist_seq::{document_to_sequence, SiblingOrder, SymbolTable};

use crate::corpus::{self, Corpus};
use crate::metrics::{put_ingest_layers, Metrics, QueryAgg, TABLE3_LABELS};
use crate::setup::{self, Phases};
use crate::trace::Tracer;
use crate::util::{geomean, median, on_fresh_thread, percentile, shuffle, sorted, JsonObj};
use crate::{Args, Outcome, Res};

/// Pool pages per tier: larger than the whole index.
const POOL_PAGES: usize = 1 << 15;
/// Passes over Q1–Q8 in set-up, so the timed loop starts warm.
const WARM_ROUNDS: usize = 2;
/// Minimum share of the client-observed query time the program's stage
/// timings must account for in a traced run.
pub const MIN_COVERAGE: f64 = 0.9;

/// The raw-semantics answer of every query: a brute-force scan with
/// `sequence_matches` over each generated document's sequence (false
/// positives of the paper's subsequence semantics included).
fn oracle(corpus: &Corpus, ids: &[DocId], queries: &[(&str, String)]) -> Res<Vec<Vec<DocId>>> {
    let mut table = SymbolTable::new();
    let order = SiblingOrder::Lexicographic;
    let translations = queries
        .iter()
        .map(|(_, q)| {
            let pattern = parse_query(q)?.to_pattern();
            Ok(translate(
                &pattern,
                &mut table,
                &TranslateOptions::default(),
            ))
        })
        .collect::<Res<Vec<_>>>()?;
    let mut answers = vec![Vec::new(); queries.len()];
    for (xml, &id) in corpus.xml.iter().zip(ids) {
        let seq = document_to_sequence(&vist_xml::parse(xml)?, &mut table, &order);
        for (t, answer) in translations.iter().zip(&mut answers) {
            if t.sequences.iter().any(|qs| sequence_matches(qs, &seq)) {
                answer.push(id);
            }
        }
    }
    for a in &mut answers {
        a.sort_unstable();
    }
    Ok(answers)
}

/// Geometric mean over Q1–Q8 of each query's latency percentile. The
/// eight latencies differ twentyfold, so a percentile of the pooled mix
/// falls in a gap between two queries and jumps between runs; this weighs
/// every query equally and moves when any one does.
fn latency_ms(per_query_ms: &[Vec<f64>], p: f64) -> f64 {
    let each: Vec<f64> = per_query_ms
        .iter()
        .map(|l| percentile(&sorted(l), p))
        .collect();
    geomean(&each)
}

/// The timed loop's results. In a traced run everything but
/// `untraced_ms` comes from the traced blocks.
struct Phase {
    elapsed_s: f64,
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    per_query_ms: Vec<Vec<f64>>,
    per_query: Vec<QueryAgg>,
    all: QueryAgg,
    /// Per-query latencies of a traced run's untraced blocks.
    untraced_ms: Vec<Vec<f64>>,
}

impl Phase {
    fn queries_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.elapsed_s
    }
}

fn measure(
    index: &VistIndex,
    queries: &[(&str, String)],
    expected: &[Vec<DocId>],
    rng: &mut StdRng,
    args: &Args,
    run_tracer: &Tracer,
) -> Phase {
    let opts = QueryOptions::default();
    let quiet = Tracer::new(false);
    let mut p = Phase {
        elapsed_s: 0.0,
        attempted: 0,
        failed: 0,
        latencies_ms: Vec::new(),
        per_query_ms: vec![Vec::new(); queries.len()],
        per_query: vec![QueryAgg::default(); queries.len()],
        all: QueryAgg::default(),
        untraced_ms: vec![Vec::new(); queries.len()],
    };
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let budget = args.budget();
    let start = Instant::now();
    'run: loop {
        shuffle(&mut order, rng);
        for &qi in &order {
            if start.elapsed() >= budget {
                break 'run;
            }
            let untraced_block = args.trace && args.mode(start, 2) == 0;
            let tracer = if untraced_block { &quiet } else { run_tracer };
            let expr = &queries[qi].1;
            let op = tracer.op("query");
            if tracer.enabled() {
                let _s = op.child("vist_query.parse_query");
                std::hint::black_box(parse_query(expr).ok());
            }
            let t0 = Instant::now();
            let result = {
                let _s = op.child("vist_core.query");
                index.query(expr, &opts)
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            p.attempted += 1;
            match result {
                Ok(r) if r.doc_ids == expected[qi] && untraced_block => {
                    p.untraced_ms[qi].push(wall_ns as f64 / 1e6);
                }
                Ok(r) if r.doc_ids == expected[qi] => {
                    let ms = wall_ns as f64 / 1e6;
                    p.latencies_ms.push(ms);
                    p.per_query_ms[qi].push(ms);
                    p.per_query[qi].add(wall_ns, &r);
                    p.all.add(wall_ns, &r);
                }
                Ok(r) => {
                    eprintln!(
                        "{}: {} ids, expected {}",
                        queries[qi].0,
                        r.doc_ids.len(),
                        expected[qi].len()
                    );
                    p.failed += 1;
                }
                Err(e) => {
                    eprintln!("{}: {e}", queries[qi].0);
                    p.failed += 1;
                }
            }
        }
    }
    p.elapsed_s = start.elapsed().as_secs_f64();
    p
}

pub fn run(args: &Args, work: &Path) -> Res<Outcome> {
    let queries = corpus::table3_queries();
    let setup_tracer = Tracer::new(args.trace);
    let mut setup_rates = Vec::new();
    let ((corpus, built, phases), setup_durations) =
        setup::repeat(work, &setup_tracer, |dir, tracer| {
            let mut phases = Phases::default();
            let t = Instant::now();
            let corpus = corpus::generate(args.seed);
            phases.generate_s = t.elapsed().as_secs_f64();
            let built = setup::build(&corpus, dir, POOL_PAGES, tracer, &mut phases)?;
            let t = Instant::now();
            for _ in 0..WARM_ROUNDS {
                for (_, q) in &queries {
                    built.index.query(q, &QueryOptions::default())?;
                }
            }
            phases.warm_s = t.elapsed().as_secs_f64();
            setup_rates.extend_from_slice(&built.delta_load.batch_rates);
            Ok((corpus, built, phases))
        })?;
    let expected = oracle(&corpus, &built.ids, &queries)?;
    let index = &built.index;
    let stats = index.stats();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x007A_B1E4);

    let mut m = Metrics::default();
    let mut meta = JsonObj::default();
    let run_tracer = Tracer::new(args.trace);
    let main = on_fresh_thread(|| measure(index, &queries, &expected, &mut rng, args, &run_tracer));
    if args.trace {
        let traced = &main;
        traced.all.put_layers(&mut m);
        put_ingest_layers(&mut m, &setup_tracer, &built.delta_load);
        m.put(
            "obs.trace_overhead_pct",
            (latency_ms(&traced.per_query_ms, 50.0) / latency_ms(&traced.untraced_ms, 50.0) - 1.0)
                * 100.0,
        );
        for (qi, label) in TABLE3_LABELS.iter().enumerate() {
            m.put(
                &format!("q.{label}_p50_ms"),
                percentile(&sorted(&traced.per_query_ms[qi]), 50.0),
            );
            m.put(
                &format!("q.{label}_work_items"),
                traced.per_query[qi].mean_work_items(),
            );
            m.put(
                &format!("q.{label}_sancestor_scans"),
                traced.per_query[qi].mean_sancestor_scans(),
            );
        }
    } else {
        m.put("setup_s", median(&setup_durations));
        m.put("queries_per_s", main.queries_per_s());
        m.put("query_p50_ms", latency_ms(&main.per_query_ms, 50.0));
        m.put("query_p90_ms", latency_ms(&main.per_query_ms, 90.0));
        m.put("ingest_docs_per_s", median(&setup_rates));
    }
    m.put(
        "index_bytes_per_input_byte",
        (stats.store_bytes + stats.segment_bytes) as f64 / corpus.bytes() as f64,
    );
    m.put("peak_rss_mib", crate::util::peak_rss_mib());

    let coverage = main.all.coverage();
    let checks_ok = !args.trace || coverage >= MIN_COVERAGE;
    if !checks_ok {
        eprintln!("stage coverage {coverage:.3} is below {MIN_COVERAGE}");
    }
    let (mut answers, mut p50s) = (JsonObj::default(), JsonObj::default());
    for (((label, _), a), lat) in queries.iter().zip(&expected).zip(&main.per_query_ms) {
        answers.int(label, a.len() as u64);
        p50s.num(label, percentile(&sorted(lat), 50.0));
    }
    setup::describe(
        &mut meta,
        &corpus,
        &stats,
        POOL_PAGES,
        &setup_durations,
        &phases,
    );
    meta.obj("answer_docs", &answers)
        .obj("query_p50_ms_each", &p50s)
        .int("queries_measured", main.latencies_ms.len() as u64)
        .num("elapsed_s", main.elapsed_s)
        .num("stage_coverage", coverage)
        .num(
            "pooled_query_p50_ms",
            percentile(&sorted(&main.latencies_ms), 50.0),
        );
    if main.latencies_ms.len() >= 1000 {
        meta.num(
            "query_p99_ms",
            percentile(&sorted(&main.latencies_ms), 99.0),
        );
    }
    Ok(Outcome {
        attempted: main.attempted,
        failed: main.failed,
        checks_ok,
        metrics: m,
        meta,
        tracers: vec![("setup", setup_tracer), ("run", run_tracer)],
    })
}
