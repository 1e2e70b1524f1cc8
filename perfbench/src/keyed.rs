//! `keyed-serve-cold`: Zipf-skewed point lookups
//! `/inproceedings[key='…']/title` over the unique keys of the
//! `LOOKUP_KIND` records, sent through
//! `vist_serve::Server` on `127.0.0.1:0` over one binary-protocol
//! connection. The index is reopened with a pool much smaller than itself,
//! so lookups fetch pages.

use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vist_core::{DocId, QueryOptions, VistIndex};
use vist_datagen::rng::StdRng;
use vist_serve::{proto, Request, Response, ServeConfig, Server, ServerHandle};

use crate::corpus::{self, Keyed, LOOKUP_KIND};
use crate::metrics::{put_ingest_layers, Metrics, QueryAgg};
use crate::setup::{self, Phases};
use crate::table4::MIN_COVERAGE;
use crate::trace::Tracer;
use crate::util::{median, on_fresh_thread, percentile, shuffle, sorted, JsonObj, Zipf};
use crate::{Args, Outcome, Res};

/// Pool pages per tier: a small fraction of the index.
const POOL_PAGES: usize = 256;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.0;
/// Lookups in set-up, so the timed loop starts from a settled pool.
const WARM_LOOKUPS: usize = 100;
/// Ping round trips in a traced run.
const PINGS: usize = 1_000;

/// A running server and the benchmark's one connection to it. Dropping it
/// closes the connection and waits for the server's drain.
struct Service {
    stream: Option<TcpStream>,
    handle: Option<ServerHandle>,
}

impl Service {
    fn start(index: Arc<VistIndex>) -> Res<Self> {
        let handle = Server::start(
            index,
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServeConfig::default()
            },
        )?;
        let stream = TcpStream::connect(handle.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(Service {
            stream: Some(stream),
            handle: Some(handle),
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, proto::ProtoError> {
        proto::roundtrip(self.stream.as_mut().expect("open until drop"), req)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        drop(self.stream.take());
        if let Some(h) = self.handle.take() {
            h.request_shutdown();
            let _ = h.join();
        }
    }
}

fn lookup(expr: String) -> Request {
    Request::Query {
        deadline_ms: 0,
        verify: false,
        no_plan: false,
        limit: 0,
        trace_id: 0,
        expr,
    }
}

/// The key stream: Zipf ranks over a seeded permutation of the unique keys.
struct Keys {
    keys: Vec<(Keyed, DocId)>,
    zipf: Zipf,
}

/// Modes of a traced run's blocks (see [`Args::mode`]): `SERVED`
/// untraced, then served traced, then `IN_PROCESS` traced. The in-process
/// lookups draw from the same key stream; what the program returns for
/// them gives the layer split, and their p50 against the traced served p50
/// is the serve layer's share. An untraced run is all `SERVED`.
const SERVED: usize = 0;
const IN_PROCESS: usize = 2;

/// One mode's results.
#[derive(Default)]
struct Lookups {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    agg: QueryAgg,
}

impl Lookups {
    fn p50_ms(&self) -> f64 {
        percentile(&sorted(&self.latencies_ms), 50.0)
    }

    fn check(&mut self, keyed: &Keyed, id: DocId, got: Result<Vec<DocId>, String>, ms: f64) {
        self.attempted += 1;
        match got {
            Ok(ids) if ids == [id] => self.latencies_ms.push(ms),
            other => {
                eprintln!("lookup {}: {other:?}, expected [{id}]", keyed.key);
                self.failed += 1;
            }
        }
    }
}

/// The timed loop; returns each mode's results and the elapsed seconds.
fn measure(
    svc: &mut Service,
    index: &VistIndex,
    keys: &Keys,
    rng: &mut StdRng,
    args: &Args,
    run_tracer: &Tracer,
) -> ([Lookups; 3], f64) {
    let quiet = Tracer::new(false);
    let opts = QueryOptions::default();
    let mut modes: [Lookups; 3] = Default::default();
    let budget = args.budget();
    let start = Instant::now();
    while start.elapsed() < budget {
        let mode = args.mode(start, 3);
        let tracer = if mode == SERVED { &quiet } else { run_tracer };
        let (keyed, id) = &keys.keys[keys.zipf.sample(rng)];
        let expr = keyed.lookup_expr();
        let op = tracer.op("lookup");
        if mode == IN_PROCESS {
            let t0 = Instant::now();
            let result = {
                let _s = op.child("vist_core.query");
                index.query(&expr, &opts)
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let m = &mut modes[mode];
            if let Ok(r) = &result {
                m.agg.add(wall_ns, r);
            }
            let got = result.map(|r| r.doc_ids).map_err(|e| e.to_string());
            m.check(keyed, *id, got, wall_ns as f64 / 1e6);
        } else {
            let req = lookup(expr);
            let t0 = Instant::now();
            let resp = {
                let _s = op.child("vist_serve.roundtrip");
                svc.roundtrip(&req)
            };
            let ms = t0.elapsed().as_nanos() as f64 / 1e6;
            let got = match resp {
                Ok(Response::Ok(ids)) => Ok(ids),
                other => Err(format!("{other:?}")),
            };
            modes[mode].check(keyed, *id, got, ms);
        }
    }
    (modes, start.elapsed().as_secs_f64())
}

pub fn run(args: &Args, work: &Path) -> Res<Outcome> {
    let setup_tracer = Tracer::new(args.trace);
    let mut setup_rates = Vec::new();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x4E_7ED);
    let ((corpus, index, keys, mut svc, delta_load, phases), setup_durations) =
        setup::repeat(work, &setup_tracer, |dir, tracer| {
            let mut phases = Phases::default();
            let t = Instant::now();
            let corpus = corpus::generate(args.seed);
            phases.generate_s = t.elapsed().as_secs_f64();
            let built = setup::build(&corpus, dir, POOL_PAGES, tracer, &mut phases)?;
            let t = Instant::now();
            let mut keys: Vec<(Keyed, DocId)> = corpus
                .keyed
                .iter()
                .zip(&built.ids)
                .filter_map(|(k, &id)| k.clone().map(|k| (k, id)))
                .filter(|(k, _)| k.kind == LOOKUP_KIND)
                .collect();
            let mut key_rng = StdRng::seed_from_u64(args.seed ^ 0x2E_75);
            shuffle(&mut keys, &mut key_rng);
            let keys = Keys {
                zipf: Zipf::new(keys.len(), ZIPF_S),
                keys,
            };
            let index = Arc::new(built.index);
            let mut svc = Service::start(Arc::clone(&index))?;
            if svc.roundtrip(&Request::Ping)? != Response::Pong {
                return Err("server did not answer a ping".into());
            }
            for _ in 0..WARM_LOOKUPS {
                let (keyed, _) = &keys.keys[keys.zipf.sample(&mut key_rng)];
                svc.roundtrip(&lookup(keyed.lookup_expr()))?;
            }
            phases.warm_s = t.elapsed().as_secs_f64();
            setup_rates.extend_from_slice(&built.delta_load.batch_rates);
            Ok((corpus, index, keys, svc, built.delta_load, phases))
        })?;
    let stats = index.stats();

    let mut m = Metrics::default();
    let mut meta = JsonObj::default();
    let run_tracer = Tracer::new(args.trace);
    let (modes, elapsed_s) =
        on_fresh_thread(|| measure(&mut svc, &index, &keys, &mut rng, args, &run_tracer));
    let mut attempted: u64 = modes.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = modes.iter().map(|l| l.failed).sum();
    let mut checks_ok = true;
    let [served, traced, local] = &modes;
    if args.trace {
        let mut pings = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let op = run_tracer.op("ping");
            let t0 = Instant::now();
            let resp = {
                let _s = op.child("vist_serve.roundtrip");
                svc.roundtrip(&Request::Ping)
            };
            pings.push(t0.elapsed().as_nanos() as f64 / 1e3);
            attempted += 1;
            if !matches!(resp, Ok(Response::Pong)) {
                failed += 1;
            }
        }
        local.agg.put_layers(&mut m);
        put_ingest_layers(&mut m, &setup_tracer, &delta_load);
        m.put("serve.ping_rtt_us", percentile(&sorted(&pings), 50.0));
        m.put(
            "serve.overhead_us",
            (traced.p50_ms() - local.p50_ms()) * 1e3,
        );
        m.put(
            "obs.trace_overhead_pct",
            (traced.p50_ms() / served.p50_ms() - 1.0) * 100.0,
        );
        let coverage = local.agg.coverage();
        if coverage < MIN_COVERAGE {
            eprintln!("stage coverage {coverage:.3} is below {MIN_COVERAGE}");
            checks_ok = false;
        }
        meta.num("stage_coverage", coverage)
            .num("untraced_served_p50_ms", served.p50_ms())
            .num("in_process_p50_ms", local.p50_ms())
            .num("served_p50_ms", traced.p50_ms());
    } else {
        let lat = sorted(&served.latencies_ms);
        m.put("setup_s", median(&setup_durations));
        m.put("queries_per_s", lat.len() as f64 / elapsed_s);
        m.put("query_p50_ms", percentile(&lat, 50.0));
        m.put("query_p90_ms", percentile(&lat, 90.0));
        m.put("ingest_docs_per_s", median(&setup_rates));
    }
    let measured = if args.trace { traced } else { served };
    meta.num("elapsed_s", elapsed_s);
    drop(svc);
    let served_stats = index.stats();
    m.put(
        "index_bytes_per_input_byte",
        (stats.store_bytes + stats.segment_bytes) as f64 / corpus.bytes() as f64,
    );
    m.put("peak_rss_mib", crate::util::peak_rss_mib());
    setup::describe(
        &mut meta,
        &corpus,
        &stats,
        POOL_PAGES,
        &setup_durations,
        &phases,
    );
    meta.int("unique_keys", keys.keys.len() as u64)
        .num("zipf_s", ZIPF_S)
        .int("queries_measured", measured.latencies_ms.len() as u64)
        .int(
            "delta_pool_misses",
            served_stats.io.cache_misses - stats.io.cache_misses,
        );
    if measured.latencies_ms.len() >= 1000 {
        meta.num(
            "query_p99_ms",
            percentile(&sorted(&measured.latencies_ms), 99.0),
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        checks_ok,
        metrics: m,
        meta,
        tracers: vec![("setup", setup_tracer), ("run", run_tracer)],
    })
}
