//! The query-service daemon: boot an engine, serve the binary protocol
//! over TCP, shut down gracefully on SIGTERM/SIGINT or a protocol
//! `Shutdown` request.
//!
//! ```text
//! cq-serviced [--addr HOST:PORT] [--plan-store PATH]
//!             [--max-connections N] [--queue-depth N]
//!             [--max-in-flight N] [--max-requests-per-second N]
//! ```
//!
//! Prints `cq-serviced listening on <addr>` on stdout once the listener is
//! bound (the CI smoke job waits for this line), then blocks until a
//! shutdown signal arrives, drains, saves plans, and reports what it saved.

use cq_core::{Engine, EngineConfig};
use cq_service::{Server, ServiceConfig};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; the main loop polls it.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The libc `signal(2)` entry point.  A typed handler (not a raw usize)
/// keeps the registration honest; storing to a static atomic is
/// async-signal-safe, which is all the handler does.
type SigHandler = extern "C" fn(i32);
extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

fn usage() -> ! {
    eprintln!(
        "usage: cq-serviced [--addr HOST:PORT] [--plan-store PATH] \
         [--max-connections N] [--queue-depth N] \
         [--max-in-flight N] [--max-requests-per-second N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value(),
            "--plan-store" => config.plan_store = Some(value().into()),
            "--max-connections" => {
                config.max_connections = value().parse().unwrap_or_else(|_| usage())
            }
            "--queue-depth" => config.queue_depth = value().parse().unwrap_or_else(|_| usage()),
            "--max-in-flight" => {
                config.max_in_flight_per_connection = value().parse().unwrap_or_else(|_| usage())
            }
            "--max-requests-per-second" => {
                config.max_requests_per_second = value().parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }

    unsafe {
        let _ = signal(SIGTERM, on_signal);
        let _ = signal(SIGINT, on_signal);
    }

    let engine = Engine::new(EngineConfig::default());
    let server = match Server::start(engine, &addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cq-serviced: failed to start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(summary) = server.warm_start() {
        println!(
            "cq-serviced warm start: {} plans loaded, {} rejected",
            summary.loaded, summary.rejected
        );
    }
    println!("cq-serviced listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();

    while !SIGNALLED.load(Ordering::SeqCst) && !server.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }

    match server.shutdown() {
        Ok(report) => {
            println!("cq-serviced stopped: {} plans saved", report.plans_saved);
        }
        Err(e) => {
            eprintln!("cq-serviced: shutdown failed: {e}");
            std::process::exit(1);
        }
    }
}
