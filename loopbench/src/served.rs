//! The `served_sessions` workload: `run_session` requests against a fresh
//! in-process `rechisel-serve` server over loopback TCP.
//!
//! The server starts with a cold artifact cache and one worker shard per core.
//! [`CLIENTS`] client connections run closed loops over a seeded request list:
//! each sends its next request only after reading the previous one's terminal
//! reply. A request's latency runs from the request write to the terminal reply
//! read.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rechisel_serve::client::StatsReply;
use rechisel_serve::wire::{model_by_name, MODEL_NAMES};
use rechisel_serve::{
    Client, ClientError, Server, ServerConfig, ServerHandle, SessionOutcome, SessionRequest,
};

use rechisel_llm::ModelProfile;

use crate::workload::{splitmix64, RunKey, MAX_ITERATIONS, PAPER_SAMPLES};

/// Client connections (= the machine's core count the workload was sized for).
pub const CLIENTS: usize = 2;

/// Distinct requests drawn per seed; clients cycle through them in order.
pub const REQUESTS: usize = 1024;

/// Draws `count` distinct `(case, model, sample)` requests from
/// `cases × models × samples 0..PAPER_SAMPLES` (a seeded partial Fisher–Yates
/// shuffle).
pub fn draw_requests(seed: u64, cases: usize, models: usize, count: usize) -> Vec<RunKey> {
    let per_case = models * PAPER_SAMPLES as usize;
    let mut space: Vec<u32> = (0..(cases * per_case) as u32).collect();
    let count = count.min(space.len());
    let mut state = splitmix64(seed ^ 0x5e55_1005);
    for i in 0..count {
        state = splitmix64(state);
        let j = i + (state % (space.len() - i) as u64) as usize;
        space.swap(i, j);
    }
    space[..count]
        .iter()
        .map(|&flat| {
            let flat = flat as usize;
            let within = flat % per_case;
            RunKey {
                case: (flat / per_case) as u32,
                model: (within / PAPER_SAMPLES as usize) as u8,
                sample: (within % PAPER_SAMPLES as usize) as u32,
            }
        })
        .collect()
}

/// The wire request of each key, for the suite with case ids `case_ids` and the
/// paper models.
pub fn session_requests(case_ids: &[String], keys: &[RunKey]) -> Vec<SessionRequest> {
    for (name, profile) in MODEL_NAMES.iter().zip(ModelProfile::paper_models()) {
        let wire = model_by_name(name).expect("wire model names resolve");
        assert_eq!(wire.name, profile.name, "wire model order matches the paper models");
    }
    keys.iter()
        .map(|key| {
            SessionRequest::new(case_ids[key.case as usize].clone())
                .sample(key.sample)
                .model(MODEL_NAMES[key.model as usize])
                .max_iterations(MAX_ITERATIONS)
        })
        .collect()
}

/// A running server and its connected clients.
pub struct Served {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Served {
    /// Starts a server (cold cache, one shard per core, ephemeral loopback port) and
    /// connects [`CLIENTS`] clients.
    ///
    /// # Errors
    ///
    /// Propagates bind and connect failures.
    pub fn start() -> Result<Self, ClientError> {
        let shards = std::thread::available_parallelism().map_or(CLIENTS, |n| n.get());
        let config = ServerConfig { addr: "127.0.0.1:0".into(), shards, ..ServerConfig::default() };
        let handle = Server::start(config)?;
        let clients =
            (0..CLIENTS).map(|_| Client::connect(handle.addr())).collect::<Result<Vec<_>, _>>();
        match clients {
            Ok(clients) => Ok(Self { handle, clients }),
            Err(e) => {
                handle.shutdown();
                Err(e)
            }
        }
    }

    /// Closes the clients and shuts the server down, joining all of its threads.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// One served request.
#[derive(Debug)]
pub struct ServedReply {
    /// Index into the request list.
    pub request: usize,
    /// From the request write to the terminal reply read.
    pub latency: Duration,
    /// The streamed events and terminal reply, or the error (including `busy`).
    pub outcome: Result<SessionOutcome, ClientError>,
}

/// The measurements of a served window.
#[derive(Debug)]
pub struct ServedWindow {
    /// Every request sent in the window, in completion order per client.
    pub replies: Vec<ServedReply>,
    /// From the window's start to the last terminal reply.
    pub elapsed: Duration,
    /// The server's `stats` op, read after the window.
    pub stats: Result<StatsReply, ClientError>,
}

/// Runs the clients' closed loops until `min_duration` has passed (each client
/// finishes the request it is in), then reads the server's counters.
pub fn served_window(
    served: &mut Served,
    requests: &[SessionRequest],
    min_duration: Duration,
) -> ServedWindow {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in &mut served.clients {
            let (next, replies) = (&next, &replies);
            scope.spawn(move || {
                let mut local = Vec::new();
                while start.elapsed() < min_duration {
                    let request = next.fetch_add(1, Ordering::Relaxed) % requests.len();
                    let sent = Instant::now();
                    let outcome = client.run_session(&requests[request]);
                    local.push(ServedReply { request, latency: sent.elapsed(), outcome });
                }
                replies.lock().expect("a client thread panicked while recording").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = served.clients[0].stats();
    ServedWindow {
        replies: replies.into_inner().expect("a client thread panicked while recording"),
        elapsed,
        stats,
    }
}
