//! E19 — query-service soak: the TCP front-end under concurrent mixed
//! decide/count traffic.
//!
//! An in-process [`cq_service::Server`] on a loopback port is driven by
//! **4 concurrent client threads** in three connection disciplines over
//! the identical deterministic workload:
//!
//! * **naive** — one connection per request (connect, ask, read, close):
//!   the worst client anyone actually writes;
//! * **persistent** — one connection per thread, strict request/response:
//!   the p50/p99 latency column;
//! * **pipelined** — one connection per thread, the whole trace shipped
//!   before the first response is read: singleton requests from different
//!   threads pile up in the server's job queue and the dispatcher drains
//!   them as one round, evaluating the jobs in arrival order behind a
//!   single queue wake-up.
//!
//! Every response (all disciplines) is compared bit-for-bit against a
//! fresh in-process engine; the run aborts on the first disagreement, so
//! the checked-in `agreement: 1.0` is asserted, not asserted-by-hope.
//!
//! Full mode writes `BENCH_E19.json` at the repository root and enforces
//! the acceptance floor: **pipelined throughput ≥ 2x naive** at 4
//! clients.  Quick mode (`CQ_BENCH_QUICK=1`) runs a shrunken soak,
//! re-checks agreement, and gates a generous 1.2x floor plus the
//! checked-in baseline's 2x.

use cq_bench::{json_field_f64, quick_mode};
use cq_core::{CountReport, Engine, EngineConfig, EngineReport};
use cq_service::{Client, QuerySpec, Request, Response, Server, ServiceConfig};
use cq_structures::Structure;
use cq_workloads::{counting_traffic, repeated_query_traffic};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const DECIDE_SEED: u64 = 31;
const COUNT_SEED: u64 = 33;

/// One request of the mixed trace with its precomputed oracle answer.
enum Expected {
    Decide(Structure, Structure, EngineReport),
    Count(Structure, Structure, CountReport),
}

/// The deterministic mixed workload: decide and count instances
/// interleaved, each carrying the in-process engine's answer.  `reps`
/// controls soak length (every repetition replays the same trace, the
/// cached-plan steady state a long-lived service lives in).
fn build_trace(reps: usize) -> Arc<Vec<Expected>> {
    let oracle = Engine::new(EngineConfig::default());
    let decide = repeated_query_traffic(3, 16, 2, DECIDE_SEED);
    let count = counting_traffic(&[3, 4, 5], 1, COUNT_SEED);
    let mut one_round: Vec<Expected> = Vec::new();
    let mut counts = count.trace.iter();
    for &(q, d) in &decide.trace {
        let query = decide.queries[q].clone();
        let db = decide.databases[d].clone();
        let report = oracle.solve(&query, &db);
        one_round.push(Expected::Decide(query, db, report));
        if let Some(&(cq, cd)) = counts.next() {
            let query = count.queries[cq].clone();
            let db = count.databases[cd].clone();
            let report = oracle.count_instance(&query, &db);
            one_round.push(Expected::Count(query, db, report));
        }
    }
    let mut trace = Vec::with_capacity(one_round.len() * reps);
    for _ in 0..reps {
        trace.extend(one_round.iter().map(|e| match e {
            Expected::Decide(q, d, r) => Expected::Decide(q.clone(), d.clone(), r.clone()),
            Expected::Count(q, d, r) => Expected::Count(q.clone(), d.clone(), r.clone()),
        }));
    }
    Arc::new(trace)
}

fn request_of(e: &Expected) -> Request {
    match e {
        Expected::Decide(q, d, _) => Request::Decide {
            query: QuerySpec::Inline(q.clone()),
            database: d.clone(),
        },
        Expected::Count(q, d, _) => Request::Count {
            query: QuerySpec::Inline(q.clone()),
            database: d.clone(),
        },
    }
}

fn check(e: &Expected, response: Response) {
    match (e, response) {
        (Expected::Decide(_, _, want), Response::Decision(got)) => {
            assert_eq!(&got, want, "decide disagrees with the in-process engine")
        }
        (Expected::Count(_, _, want), Response::Count(got)) => {
            assert_eq!(&got, want, "count disagrees with the in-process engine")
        }
        (_, other) => panic!("response kind does not match the request: {other:?}"),
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect_with_timeout(addr, Some(Duration::from_secs(120))).expect("client connects")
}

/// Discipline 1: one connection per request, 4 threads.  Returns
/// requests/sec.
fn run_naive(addr: std::net::SocketAddr, trace: &Arc<Vec<Expected>>) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let trace = Arc::clone(trace);
            std::thread::spawn(move || {
                for e in trace.iter() {
                    let mut client = connect(addr);
                    client.send(&request_of(e)).expect("send");
                    check(e, client.receive().expect("receive"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("naive client thread");
    }
    (CLIENTS * trace.len()) as f64 / start.elapsed().as_secs_f64()
}

/// Discipline 2: persistent connection, strict request/response.  Returns
/// (requests/sec, all per-request latencies).
fn run_persistent(addr: std::net::SocketAddr, trace: &Arc<Vec<Expected>>) -> (f64, Vec<Duration>) {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let trace = Arc::clone(trace);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                let mut latencies = Vec::with_capacity(trace.len());
                for e in trace.iter() {
                    let sent = Instant::now();
                    client.send(&request_of(e)).expect("send");
                    let response = client.receive().expect("receive");
                    latencies.push(sent.elapsed());
                    check(e, response);
                }
                latencies
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("persistent client thread"));
    }
    let throughput = (CLIENTS * trace.len()) as f64 / start.elapsed().as_secs_f64();
    (throughput, all)
}

/// Window per pipelined burst: large enough to keep the dispatcher's
/// coalescer fed from all 4 clients at once, small enough that
/// 4 × WINDOW stays under the server's bounded queue (depth 256) — a
/// client that ignores that bound gets `Busy` rejections, by design.
const PIPELINE_WINDOW: usize = 32;

/// Discipline 3: persistent connection, the trace pipelined in windows of
/// [`PIPELINE_WINDOW`] requests before each read burst — the discipline
/// the dispatcher's coalescing feeds on.  Returns requests/sec.
fn run_pipelined(addr: std::net::SocketAddr, trace: &Arc<Vec<Expected>>) -> f64 {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let trace = Arc::clone(trace);
            std::thread::spawn(move || {
                let mut client = connect(addr);
                for window in trace.chunks(PIPELINE_WINDOW) {
                    for e in window {
                        client.send(&request_of(e)).expect("send");
                    }
                    for e in window {
                        check(e, client.receive().expect("receive"));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pipelined client thread");
    }
    (CLIENTS * trace.len()) as f64 / start.elapsed().as_secs_f64()
}

fn percentile(sorted: &[Duration], p: usize) -> Duration {
    let idx = (sorted.len().saturating_sub(1) * p) / 100;
    sorted[idx]
}

struct SoakReport {
    requests_total: usize,
    naive_rps: f64,
    persistent_rps: f64,
    pipelined_rps: f64,
    speedup: f64,
    p50: Duration,
    p99: Duration,
    coalesced_requests: u64,
}

fn run_soak(reps: usize) -> SoakReport {
    let server = Server::start(
        Engine::new(EngineConfig::default()),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("server boots");
    let addr = server.local_addr();
    let trace = build_trace(reps);

    // Warm the server's plan cache and database indexes once so all three
    // disciplines measure the steady state, not who pays cold preparation.
    {
        let mut client = connect(addr);
        for e in trace.iter().take(trace.len().min(64)) {
            client.send(&request_of(e)).expect("warmup send");
            check(e, client.receive().expect("warmup receive"));
        }
    }

    let naive_rps = run_naive(addr, &trace);
    let (persistent_rps, mut latencies) = run_persistent(addr, &trace);
    let pipelined_rps = run_pipelined(addr, &trace);
    latencies.sort();

    let stats = server.stats();
    assert!(
        stats.server.coalesced_requests > 0,
        "the pipelined discipline never triggered dispatcher coalescing"
    );
    server.shutdown().expect("graceful shutdown");

    SoakReport {
        requests_total: 3 * CLIENTS * trace.len() + trace.len().min(64),
        naive_rps,
        persistent_rps,
        pipelined_rps,
        speedup: pipelined_rps / naive_rps,
        p50: percentile(&latencies, 50),
        p99: percentile(&latencies, 99),
        coalesced_requests: stats.server.coalesced_requests,
    }
}

fn print_report(r: &SoakReport) {
    println!("E19 — query-service soak ({CLIENTS} concurrent clients, mixed decide/count)");
    println!("  {:>12}: {:>10.0} req/s", "naive", r.naive_rps);
    println!(
        "  {:>12}: {:>10.0} req/s   (p50 {:.3} ms, p99 {:.3} ms)",
        "persistent",
        r.persistent_rps,
        r.p50.as_secs_f64() * 1e3,
        r.p99.as_secs_f64() * 1e3
    );
    println!("  {:>12}: {:>10.0} req/s", "pipelined", r.pipelined_rps);
    println!(
        "  pipelined vs naive: {:.2}x   ({} requests drained in multi-job rounds)",
        r.speedup, r.coalesced_requests
    );
}

/// The CI regression gate of quick mode: agreement already held (every
/// response was checked on the way), the measured speedup must clear a
/// generous 1.2x floor, and the checked-in full-mode baseline must still
/// promise the 2x acceptance floor.
fn gate_against_baseline(speedup: f64) {
    assert!(
        speedup >= 1.2,
        "E19 quick gate: pipelined throughput is only {speedup:.2}x naive (quick floor 1.2x)"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E19.json");
    let baseline = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("E19 quick gate: cannot read {path}: {e}"));
    let promised = json_field_f64(&baseline, "\"speedup_coalesced_vs_naive\": ")
        .unwrap_or_else(|| panic!("E19 quick gate: no speedup_coalesced_vs_naive in {path}"));
    assert!(
        promised >= 2.0,
        "E19 quick gate: the checked-in baseline promises only {promised:.2}x \
         (acceptance floor 2x) — re-run the full bench"
    );
    println!("  quick-mode gate: measured {speedup:.2}x, baseline {promised:.2}x — ok");
}

/// Emit `BENCH_E19.json` at the repository root, machine-readable.
fn write_json(r: &SoakReport) {
    let out = format!(
        "{{\n  \"experiment\": \"e19_service\",\n  \"clients\": {CLIENTS},\n  \
         \"seeds\": [{DECIDE_SEED}, {COUNT_SEED}],\n  \
         \"requests_total\": {},\n  \
         \"naive_requests_per_sec\": {:.0},\n  \
         \"persistent_requests_per_sec\": {:.0},\n  \
         \"pipelined_requests_per_sec\": {:.0},\n  \
         \"speedup_coalesced_vs_naive\": {:.2},\n  \
         \"decide_count_p50_ms\": {:.3},\n  \"decide_count_p99_ms\": {:.3},\n  \
         \"coalesced_requests\": {},\n  \"agreement\": 1.0\n}}\n",
        r.requests_total,
        r.naive_rps,
        r.persistent_rps,
        r.pipelined_rps,
        r.speedup,
        r.p50.as_secs_f64() * 1e3,
        r.p99.as_secs_f64() * 1e3,
        r.coalesced_requests,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_E19.json");
    std::fs::write(path, out).expect("write BENCH_E19.json at the repo root");
    println!("  wrote {path}");
}

fn bench(c: &mut Criterion) {
    let report = run_soak(if quick_mode() { 2 } else { 12 });
    print_report(&report);

    if quick_mode() {
        gate_against_baseline(report.speedup);
        return;
    }

    assert!(
        report.speedup >= 2.0,
        "E19 acceptance: pipelined throughput is only {:.2}x naive at {CLIENTS} \
         concurrent clients (floor 2x)",
        report.speedup
    );
    write_json(&report);

    // A small criterion group for the HTML/log view: one pipelined pass of
    // the mixed trace against a running server.
    let server = Server::start(
        Engine::new(EngineConfig::default()),
        "127.0.0.1:0",
        ServiceConfig::default(),
    )
    .expect("server boots");
    let addr = server.local_addr();
    let trace = build_trace(1);
    let mut g = c.benchmark_group("e19");
    g.sample_size(10);
    g.bench_function("pipelined mixed trace (1 client)", |b| {
        b.iter(|| {
            let mut client = connect(addr);
            for e in trace.iter() {
                client.send(&request_of(e)).expect("send");
            }
            for e in trace.iter() {
                check(e, client.receive().expect("receive"));
            }
        })
    });
    g.finish();
    server.shutdown().expect("graceful shutdown");
}

criterion_group!(benches, bench);
criterion_main!(benches);
