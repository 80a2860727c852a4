//! CI smoke driver for the query service.
//!
//! ```text
//! cq-service-smoke --probe ADDR        # wait (≤15 s) for the server, ping it,
//!                                      # then count a free-variable query's
//!                                      # answers and page through all of
//!                                      # them, differential vs in-process
//! cq-service-smoke --expect-cold ADDR  # drive traffic, differential vs
//!                                      # in-process engine, assert the boot
//!                                      # was cold (preparations > 0)
//! cq-service-smoke --expect-warm ADDR  # assert the boot was warm (plans
//!                                      # loaded, ZERO width DPs before the
//!                                      # first answer), then drive the same
//!                                      # traffic and re-check agreement
//! ```
//!
//! The traffic is deterministic (seeded workload generators), so the cold
//! run's saved plan store covers every query — including the counting
//! certificates — that the warm run will see.  Exit code 0 means every
//! assertion held; any disagreement or a wedged server exits 1 with a
//! message on stderr.

use cq_core::{Engine, EngineConfig};
use cq_service::{Client, QuerySpec};
use cq_workloads::{counting_traffic, repeated_query_traffic};
use std::time::Duration;

/// Generous per-response deadline: a wedged server fails the smoke job
/// instead of hanging CI.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

fn usage() -> ! {
    eprintln!("usage: cq-service-smoke --probe ADDR | --expect-cold ADDR | --expect-warm ADDR");
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("cq-service-smoke: FAIL: {message}");
    std::process::exit(1);
}

fn connect(addr: &str) -> Client {
    match Client::connect_with_timeout(addr, Some(READ_TIMEOUT)) {
        Ok(client) => client,
        Err(e) => fail(&format!("cannot connect to {addr}: {e}")),
    }
}

/// Retry-connect until the server answers a ping (boot race) or 15 s pass,
/// then drive the answer requests through it.
fn probe(addr: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        if let Ok(mut client) = Client::connect_with_timeout(addr, Some(Duration::from_secs(5))) {
            if client.ping().is_ok() {
                let (answers, pages) = probe_answers(&mut client);
                println!(
                    "cq-service-smoke: probe ok ({addr}) — {answers} answers in {pages} pages agree"
                );
                return;
            }
        }
        if std::time::Instant::now() >= deadline {
            fail(&format!(
                "server at {addr} did not answer a ping within 15s"
            ));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Count a free-variable query's answers, then tile the whole answer set
/// in pages, comparing every report and page bit-for-bit against a fresh
/// in-process engine.  Returns (answers, pages).
fn probe_answers(client: &mut Client) -> (u64, usize) {
    let oracle = Engine::new(EngineConfig::default());
    let path = cq_structures::families::path(4);
    let mut query = cq_structures::ConjunctiveQuery::from_structure(&path);
    for v in [query.variables()[0].clone(), query.variables()[3].clone()] {
        query
            .mark_free(v)
            .unwrap_or_else(|e| fail(&format!("mark_free: {e}")));
    }
    let database = cq_workloads::random_graph_structure(9, 0.35, 5);
    let report = client
        .count_answers(&query, &database)
        .unwrap_or_else(|e| fail(&format!("count_answers: {e}")));
    let want = oracle.count_answers(&query, &database);
    if report != want {
        fail(&format!("count_answers disagrees: {report:?} != {want:?}"));
    }
    let (mut offset, mut pages) = (0u64, 0usize);
    loop {
        let page = client
            .answers(&query, &database, offset, 3)
            .unwrap_or_else(|e| fail(&format!("answers page at {offset}: {e}")));
        let want = oracle.answers(&query, &database, offset, 3);
        if page != want {
            fail(&format!(
                "answers page at {offset} disagrees: {page:?} != {want:?}"
            ));
        }
        offset += page.rows.len() as u64;
        pages += 1;
        if !page.has_more {
            break;
        }
    }
    if offset != report.answers {
        fail(&format!(
            "pages tile {offset} answers, not {}",
            report.answers
        ));
    }
    (report.answers, pages)
}

/// Drive the deterministic mixed workload through `client`, comparing
/// every answer bit-for-bit against a fresh in-process engine.  Returns
/// (decisions checked, counts checked).
fn drive_differential(client: &mut Client) -> (usize, usize) {
    let oracle = Engine::new(EngineConfig::default());

    // Decision traffic: registered handles for half the trace, inline
    // shipping for the other half, plus the whole trace again as one
    // explicit batch.
    let decide = repeated_query_traffic(3, 18, 2, 11);
    let mut ids = Vec::with_capacity(decide.queries.len());
    for query in &decide.queries {
        match client.register(query) {
            Ok((id, _fingerprint)) => ids.push(id),
            Err(e) => fail(&format!("register: {e}")),
        }
    }
    let mut decisions = 0usize;
    for (i, &(q, d)) in decide.trace.iter().enumerate() {
        let spec = if i % 2 == 0 {
            QuerySpec::Registered(ids[q])
        } else {
            QuerySpec::Inline(decide.queries[q].clone())
        };
        let got = match client.decide(spec, &decide.databases[d]) {
            Ok(report) => report,
            Err(e) => fail(&format!("decide #{i}: {e}")),
        };
        let want = oracle.solve(&decide.queries[q], &decide.databases[d]);
        if got != want {
            fail(&format!(
                "decide #{i} disagrees with the in-process engine: {got:?} != {want:?}"
            ));
        }
        decisions += 1;
    }
    let batch_items: Vec<(QuerySpec, cq_structures::Structure)> = decide
        .trace
        .iter()
        .map(|&(q, d)| (QuerySpec::Registered(ids[q]), decide.databases[d].clone()))
        .collect();
    let batch = match client.decide_batch(batch_items) {
        Ok(reports) => reports,
        Err(e) => fail(&format!("decide_batch: {e}")),
    };
    for (i, (&(q, d), got)) in decide.trace.iter().zip(&batch).enumerate() {
        let want = oracle.solve(&decide.queries[q], &decide.databases[d]);
        if *got != want {
            fail(&format!(
                "decide_batch item #{i} disagrees: {got:?} != {want:?}"
            ));
        }
        decisions += 1;
    }

    // Counting traffic: singleton counts checked against both the oracle
    // engine and the workload's closed forms, then the trace as a batch.
    let count = counting_traffic(&[3, 4, 5], 2, 13);
    let mut counts = 0usize;
    for (i, &(q, d)) in count.trace.iter().enumerate() {
        let got = match client.count(
            QuerySpec::Inline(count.queries[q].clone()),
            &count.databases[d],
        ) {
            Ok(report) => report,
            Err(e) => fail(&format!("count #{i}: {e}")),
        };
        let want = oracle.count_instance(&count.queries[q], &count.databases[d]);
        if got != want {
            fail(&format!(
                "count #{i} disagrees with the in-process engine: {got:?} != {want:?}"
            ));
        }
        if got.count != count.expected[i] {
            fail(&format!(
                "count #{i} disagrees with the closed form: {} != {}",
                got.count, count.expected[i]
            ));
        }
        counts += 1;
    }
    let batch_items: Vec<(QuerySpec, cq_structures::Structure)> = count
        .trace
        .iter()
        .map(|&(q, d)| {
            (
                QuerySpec::Inline(count.queries[q].clone()),
                count.databases[d].clone(),
            )
        })
        .collect();
    let batch = match client.count_batch(batch_items) {
        Ok(reports) => reports,
        Err(e) => fail(&format!("count_batch: {e}")),
    };
    for (i, (&expected, got)) in count.expected.iter().zip(&batch).enumerate() {
        if got.count != expected {
            fail(&format!(
                "count_batch item #{i} disagrees with the closed form: {} != {expected}",
                got.count
            ));
        }
        counts += 1;
    }

    (decisions, counts)
}

fn expect_cold(addr: &str) {
    let mut client = connect(addr);
    let (decisions, counts) = drive_differential(&mut client);
    let stats = match client.stats() {
        Ok(stats) => stats,
        Err(e) => fail(&format!("stats: {e}")),
    };
    if stats.prep.preparations == 0 {
        fail("expected a cold boot, but the server prepared nothing (stale plan store?)");
    }
    println!(
        "cq-service-smoke: cold ok — {decisions} decisions and {counts} counts agree; \
         preparations={}, width DPs={}",
        stats.prep.preparations,
        stats.prep.treewidth_calls + stats.prep.pathwidth_calls + stats.prep.treedepth_calls,
    );
}

fn expect_warm(addr: &str) {
    let mut client = connect(addr);
    // The gate: BEFORE the first answer, the warm-started server must have
    // loaded its plans without running a single width DP or core
    // computation.
    let boot = match client.stats() {
        Ok(stats) => stats.prep,
        Err(e) => fail(&format!("stats: {e}")),
    };
    if boot.plans_loaded == 0 {
        fail("expected a warm boot, but no plans were loaded");
    }
    let width_dps = boot.treewidth_calls + boot.pathwidth_calls + boot.treedepth_calls;
    if boot.preparations != 0 || width_dps != 0 || boot.core_computations != 0 {
        fail(&format!(
            "warm boot ran work it should have loaded: preparations={}, width DPs={width_dps}, \
             cores={}",
            boot.preparations, boot.core_computations
        ));
    }
    let (decisions, counts) = drive_differential(&mut client);
    // The cold run drove the identical workload (counting included), so
    // every plan — with counting certificates — came from the store: the
    // traffic itself must not have prepared anything either.
    let after = match client.stats() {
        Ok(stats) => stats.prep,
        Err(e) => fail(&format!("stats: {e}")),
    };
    let width_dps = after.treewidth_calls + after.pathwidth_calls + after.treedepth_calls;
    if after.preparations != 0 || width_dps != 0 {
        fail(&format!(
            "warm traffic re-prepared plans the store should cover: preparations={}, \
             width DPs={width_dps}",
            after.preparations
        ));
    }
    println!(
        "cq-service-smoke: warm ok — {} plans loaded, zero width DPs; \
         {decisions} decisions and {counts} counts agree",
        after.plans_loaded
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, addr] if mode == "--probe" => probe(addr),
        [mode, addr] if mode == "--expect-cold" => expect_cold(addr),
        [mode, addr] if mode == "--expect-warm" => expect_warm(addr),
        _ => usage(),
    }
}
