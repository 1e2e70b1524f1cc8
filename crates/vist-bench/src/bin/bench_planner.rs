//! Cost-based planner vs naive translation order on a wildcard-heavy,
//! skewed-fan-out workload.
//!
//! The corpus is adversarial for an unplanned engine: every document is a
//! root with many sibling subtrees, only one of which carries the tail the
//! queries ask for. Naive order expands every wildcard candidate and
//! descends into every dead sibling; the planner's statistics probe kills
//! the dead expansions before they spawn work items. Every document also
//! ends in a unique key `<z>k{i}</z>`, so a point lookup's rarest element
//! comes last and the planner's anchor-window pruning skips every frame
//! whose scope cannot hold it. Both engines must
//! return bit-identical answers — the planner only reorders and prunes
//! provably-empty work — so the benchmark gates on equality first, then
//! reports match work-items and wall-clock (p50/mean) for plan-on vs
//! `no_plan`, plus `limit`-style early termination.
//!
//! ```sh
//! cargo run --release -p vist-bench --bin bench_planner            # full, writes BENCH_planner.json
//! cargo run --release -p vist-bench --bin bench_planner -- --smoke # quick CI check, no JSON
//! ```

use std::time::{Duration, Instant};

use vist_bench::{ms, print_table, scaled};
use vist_core::{IndexOptions, QueryOptions, VistIndex};

/// Sibling subtrees per document; exactly one carries the queried tail.
const FANOUT: usize = 40;

fn doc(i: usize) -> String {
    let mut xml = String::from("<r>");
    for m in 0..FANOUT {
        if m == 7 {
            xml.push_str(&format!("<m{m}><c><d>hit{}</d></c></m{m}>", i % 5));
        } else {
            // Dead siblings still share the `<c>` child so the wildcard
            // step alone cannot distinguish them — only the planner's
            // child probe on the `/c/d` tail can.
            xml.push_str(&format!("<m{m}><c>miss{}</c></m{m}>", (i + m) % 7));
        }
    }
    xml.push_str(&format!("<z>k{i}</z></r>"));
    xml
}

/// A point lookup by key: the key value is the anchor, so planned work
/// stays a handful of frames while naive order walks every record's path.
const POINT_Q: &str = "/r[z='k17']/m7/c/d";

/// The query mix: wildcard steps over the skewed fan-out. All of them are
/// answerable from the single live sibling; naive order pays for all 40.
/// The last is the point lookup.
fn queries() -> Vec<&'static str> {
    vec![
        "/r/*/c/d",
        "//c/d",
        "/r/*/c/d[text='hit1']",
        "/r/*/c[d]",
        POINT_Q,
    ]
}

fn opts(no_plan: bool, limit: Option<usize>) -> QueryOptions {
    QueryOptions {
        no_plan,
        limit,
        ..Default::default()
    }
}

/// Run every query once; return (total work items, per-pass wall time).
fn run_pass(index: &VistIndex, no_plan: bool) -> (u64, Duration) {
    let start = Instant::now();
    let mut work = 0u64;
    for q in queries() {
        let r = index.query(q, &opts(no_plan, None)).expect("query");
        work += r.stats.work_items;
    }
    (work, start.elapsed())
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 60 } else { scaled(2_000, 500) };
    let passes = if smoke { 3 } else { 15 };

    eprintln!("building {n} documents with {FANOUT}-way skewed fan-out ...");
    let index = VistIndex::in_memory(IndexOptions {
        store_documents: false,
        cache_pages: 1 << 16,
        ..Default::default()
    })
    .expect("index");
    for i in 0..n {
        index.insert_xml(&doc(i)).expect("insert");
    }
    eprintln!("built ({} nodes)", index.stats().nodes);

    // Correctness gate: planned and unplanned answers must be identical,
    // and limited answers must be size-k subsets of the full answer.
    for q in queries() {
        let planned = index.query(q, &opts(false, None)).expect("planned");
        let naive = index.query(q, &opts(true, None)).expect("unplanned");
        assert_eq!(
            planned.doc_ids, naive.doc_ids,
            "planner changed answers for {q}"
        );
        let k = 5.min(planned.doc_ids.len());
        let limited = index.query(q, &opts(false, Some(k))).expect("limited");
        assert_eq!(limited.doc_ids.len(), k, "limit size for {q}");
        assert!(
            limited.doc_ids.iter().all(|d| planned.doc_ids.contains(d)),
            "limit returned non-answer for {q}"
        );
    }

    let point_work = |no_plan| {
        index
            .query(POINT_Q, &opts(no_plan, None))
            .expect("point lookup")
            .stats
            .work_items
    };
    let (point_planned, point_naive) = (point_work(false), point_work(true));
    assert!(
        point_planned * 10 <= point_naive,
        "anchor pruning must cut the point lookup's work at least 10x \
         (planned {point_planned} vs naive {point_naive})"
    );

    // Warm the pool, then measure.
    let (work_planned, _) = run_pass(&index, false);
    let (work_naive, _) = run_pass(&index, true);
    let mut planned_times = Vec::with_capacity(passes);
    let mut naive_times = Vec::with_capacity(passes);
    for _ in 0..passes {
        planned_times.push(run_pass(&index, false).1);
        naive_times.push(run_pass(&index, true).1);
    }
    let planned_p50 = median(planned_times.clone());
    let naive_p50 = median(naive_times.clone());
    let mean = |xs: &[Duration]| xs.iter().sum::<Duration>() / xs.len() as u32;
    let planned_mean = mean(&planned_times);
    let naive_mean = mean(&naive_times);

    // Early termination: limit 1 on the heaviest query.
    let limit_q = "/r/*/c/d";
    let limit_work = index
        .query(limit_q, &opts(false, Some(1)))
        .expect("limit")
        .stats
        .work_items;
    let full_work = index
        .query(limit_q, &opts(false, None))
        .expect("full")
        .stats
        .work_items;

    println!(
        "\nbench_planner — {} queries over {n} documents ({FANOUT}-way fan-out), {passes} pass(es)",
        queries().len()
    );
    print_table(
        &["engine", "work items", "p50 (ms)", "mean (ms)"],
        &[
            vec![
                "planned (cost-based)".into(),
                work_planned.to_string(),
                ms(planned_p50),
                ms(planned_mean),
            ],
            vec![
                "naive order (--no-plan)".into(),
                work_naive.to_string(),
                ms(naive_p50),
                ms(naive_mean),
            ],
        ],
    );
    println!(
        "work-item reduction: {:.2}x; limit-1 on {limit_q}: {limit_work} vs {full_work} work items; \
         point lookup {POINT_Q}: {point_planned} vs {point_naive} work items",
        work_naive as f64 / work_planned.max(1) as f64
    );

    assert!(
        work_planned <= work_naive,
        "planned order must never do more match work than naive \
         (planned {work_planned} vs naive {work_naive})"
    );
    if !smoke {
        assert!(
            work_planned * 2 <= work_naive,
            "expected at least a 2x work-item reduction \
             (planned {work_planned} vs naive {work_naive})"
        );
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"planner\",\n",
                "  \"corpus\": {{ \"docs\": {}, \"fanout\": {}, \"live_siblings\": 1 }},\n",
                "  \"queries\": {}, \"passes\": {},\n",
                "  \"planned_work_items\": {}, \"naive_work_items\": {},\n",
                "  \"work_item_reduction\": {:.3},\n",
                "  \"planned_p50_ms\": {:.3}, \"naive_p50_ms\": {:.3},\n",
                "  \"planned_mean_ms\": {:.3}, \"naive_mean_ms\": {:.3},\n",
                "  \"limit1_work_items\": {}, \"full_work_items\": {},\n",
                "  \"point_planned_work_items\": {}, \"point_naive_work_items\": {}\n",
                "}}\n"
            ),
            n,
            FANOUT,
            queries().len(),
            passes,
            work_planned,
            work_naive,
            work_naive as f64 / work_planned.max(1) as f64,
            planned_p50.as_secs_f64() * 1e3,
            naive_p50.as_secs_f64() * 1e3,
            planned_mean.as_secs_f64() * 1e3,
            naive_mean.as_secs_f64() * 1e3,
            limit_work,
            full_work,
            point_planned,
            point_naive,
        );
        std::fs::write("BENCH_planner.json", &json).expect("write json");
        eprintln!("wrote BENCH_planner.json");
    }
}
