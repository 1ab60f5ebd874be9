//! The closed-loop load generator: one client thread per replica, each
//! waiting for its reply before it sends the next transaction.
//!
//! A retryable abort is retried after a 10–100 µs randomized back-off until
//! the transaction commits or its deadline passes.  The deadline outlasts a
//! run, so a transaction that keeps losing certification is not cut off at
//! a point that varies from run to run: it shows as latency
//! (`latency_max_us`) and as its client's missing commits
//! (`min_client_commit_share`), and it commits in the drain at the latest,
//! once the other clients stop.  Clients run a warm-up,
//! then the measured window; at the end of the window they start no new
//! transaction, and a client still busy when the drain deadline expires is
//! abandoned: its thread is detached and its transaction counts as failed.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent::{Cluster, ClusterStats, MetricsSnapshot};

use crate::spans::{Span, SpanKind, SpanLog};
use crate::workload::{execute, Inputs, Ledger, Workload};

/// Per-transaction deadline: longer than the engine's 1 s lock-wait and
/// ordered-commit timeouts, so a transaction sees at least one of them, and
/// longer than a run's warm-up, window and drain at up to 50-s windows.
pub const TXN_DEADLINE: Duration = Duration::from_secs(60);
/// How long the clients get to finish after the window closes.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// When the phases of a run start and end.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub warmup: Duration,
    pub window: Duration,
}

/// One completed logical transaction.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Start of the first attempt and end of the last, in nanoseconds since
    /// the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub attempts: u32,
    pub committed: bool,
    /// The client (and replica) that ran it.
    pub client: u8,
}

/// Completions reserved per client.  Reserved pages become resident only
/// when written, and a buffer that never grows is never copied, so the
/// benchmark's own share of the run's RSS growth is exactly the completions
/// it holds.
const RESERVED_COMPLETIONS: usize = 1 << 23;

/// What a client has finished so far.  Shared with the main thread, which
/// reads it even when the client is abandoned mid-transaction.
#[derive(Debug)]
pub struct ClientState {
    pub completions: Vec<Completion>,
    pub spans: Vec<Span>,
    pub ledger: Ledger,
    /// First few error messages of failed transactions.
    pub errors: Vec<String>,
    /// Start (ns since epoch) and inputs of the transaction in flight.
    pub in_flight: Option<(u64, Inputs)>,
}

impl ClientState {
    fn new() -> Self {
        ClientState {
            completions: Vec::with_capacity(RESERVED_COMPLETIONS),
            spans: Vec::new(),
            ledger: Ledger::default(),
            errors: Vec::new(),
            in_flight: None,
        }
    }
}

/// The outcome of a run, everything relative to `epoch`.
#[derive(Debug)]
pub struct RunOutput {
    pub window_start_ns: u64,
    pub window_end_ns: u64,
    pub completions: Vec<Completion>,
    pub spans: Vec<Span>,
    pub ledger: Ledger,
    pub errors: Vec<String>,
    /// Transactions started in the window and still in flight when the
    /// drain deadline expired.
    pub abandoned: u64,
    /// Number of client threads.
    pub clients: usize,
    /// From the end of the window until every client finished or the
    /// drain deadline expired.
    pub drain: Duration,
    /// Registry and stats at the start and the end of the window.
    pub edges: [Sample; 2],
    /// Resident set size when the clients started and its peak until they
    /// finished, in bytes; the merge of their results comes after.
    pub rss: [u64; 2],
}

/// The benchmark's own bytes in the run's RSS growth: the completions.
#[must_use]
pub fn harness_bytes(out: &RunOutput) -> u64 {
    (out.completions.len() * std::mem::size_of::<Completion>()) as u64
}

/// The window is measured in slices of this length.
pub const SLICE: Duration = Duration::from_secs(1);

/// The registry and the cluster's stats, sampled at one instant.
pub type Sample = (MetricsSnapshot, ClusterStats);

fn sample(cluster: &Cluster) -> Sample {
    (cluster.metrics_snapshot(), cluster.stats())
}

/// Runs `workload` against `cluster` with one closed-loop client per
/// replica.  Times are reported in nanoseconds since `epoch`.
pub fn run(
    workload: Workload,
    cluster: &Arc<Cluster>,
    seed: u64,
    phases: Phases,
    epoch: Instant,
    trace: bool,
) -> RunOutput {
    let stop = Arc::new(AtomicBool::new(false));
    let tables = Arc::new(workload.tables(cluster));
    let rss_start = rss_bytes();
    let sampler = RssSampler::start();
    let mut clients = Vec::new();
    for replica in 0..cluster.replica_count() {
        let state = Arc::new(Mutex::new(ClientState::new()));
        let (cluster, stop, tables, thread_state) = (
            Arc::clone(cluster),
            Arc::clone(&stop),
            Arc::clone(&tables),
            Arc::clone(&state),
        );
        let handle = thread::Builder::new()
            .name(format!("client-{replica}"))
            .spawn(move || {
                let session = cluster.session(replica);
                let mut inputs_rng = StdRng::seed_from_u64(client_seed(seed, replica, 1));
                let mut backoff_rng = StdRng::seed_from_u64(client_seed(seed, replica, 2));
                let mut log = SpanLog::new(trace, epoch, replica as u32);
                let ns = |at: Instant| u64::try_from((at - epoch).as_nanos()).unwrap_or(u64::MAX);
                while !stop.load(Ordering::Relaxed) {
                    let inputs = workload.draw(&mut inputs_rng, replica);
                    let started = Instant::now();
                    lock(&thread_state).in_flight = Some((ns(started), inputs));
                    let deadline = started + TXN_DEADLINE;
                    let mut attempts = 0u32;
                    log.open(SpanKind::Txn);
                    let error = loop {
                        attempts += 1;
                        log.open(SpanKind::Attempt);
                        let result = execute(&session, &tables, &inputs, &mut log);
                        log.close();
                        match result {
                            Ok(()) => break None,
                            Err(e) if e.is_retryable_abort() && Instant::now() < deadline => {
                                let pause =
                                    Duration::from_micros(backoff_rng.gen_range(10..100u64));
                                log.call(SpanKind::Backoff, || thread::sleep(pause));
                            }
                            Err(e) if e.is_retryable_abort() => {
                                break Some(format!(
                                    "deadline exceeded after {attempts} attempts: {e}"
                                ))
                            }
                            Err(e) => break Some(e.to_string()),
                        }
                    };
                    log.close();
                    let end = Instant::now();
                    let mut state = lock(&thread_state);
                    state.in_flight = None;
                    state.completions.push(Completion {
                        start_ns: ns(started),
                        end_ns: ns(end),
                        attempts,
                        committed: error.is_none(),
                        client: replica as u8,
                    });
                    state.ledger.record(&inputs, error.is_none());
                    log.take(&mut state.spans);
                    if let Some(e) = error {
                        if state.errors.len() < 8 {
                            state.errors.push(e);
                        }
                    }
                }
            })
            .expect("spawning a client thread");
        clients.push((handle, state));
    }

    thread::sleep(phases.warmup);
    let window_start = Instant::now();
    let first = sample(cluster);
    thread::sleep(phases.window);
    stop.store(true, Ordering::Relaxed);
    let window_end = Instant::now();
    let last = sample(cluster);

    // Drain: join every client that finishes in time, abandon the rest.
    let drain_deadline = window_end + DRAIN_DEADLINE;
    while Instant::now() < drain_deadline && clients.iter().any(|(h, _)| !h.is_finished()) {
        thread::sleep(Duration::from_micros(200));
    }
    let drain = window_end.elapsed().min(DRAIN_DEADLINE);
    let rss_peak = sampler.stop();
    let ns = |at: Instant| u64::try_from((at - epoch).as_nanos()).unwrap_or(u64::MAX);
    let (window_start_ns, window_end_ns) = (ns(window_start), ns(window_end));
    let mut out = RunOutput {
        window_start_ns,
        window_end_ns,
        completions: Vec::new(),
        spans: Vec::new(),
        ledger: Ledger::default(),
        errors: Vec::new(),
        abandoned: 0,
        clients: clients.len(),
        drain,
        edges: [first, last],
        rss: [rss_start, rss_peak],
    };
    for (handle, state) in clients {
        if handle.is_finished() {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        let mut state = lock(&state);
        if let Some((since, inputs)) = state.in_flight {
            // Abandoned: the client thread stays wedged in the cluster and
            // is detached with its handle.
            if since >= window_start_ns {
                out.abandoned += 1;
            }
            state.ledger.record(&inputs, false);
            out.errors.push(format!(
                "client abandoned after a {:.1} s drain, transaction in flight for {:.1} s",
                drain.as_secs_f64(),
                (ns(Instant::now()) - since) as f64 / 1e9
            ));
        }
        out.completions.append(&mut state.completions);
        out.spans.append(&mut state.spans);
        out.ledger.merge(&state.ledger);
        out.errors.append(&mut state.errors);
    }
    out
}

/// Current resident set size in bytes.
#[must_use]
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Samples the RSS every 10 ms until stopped; returns the peak.
struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: thread::JoinHandle<()>,
}

impl RssSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(rss_bytes()));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                p.fetch_max(rss_bytes(), Ordering::Relaxed);
                thread::sleep(Duration::from_millis(10));
            }
        });
        RssSampler { stop, peak, handle }
    }

    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("the RSS sampler does not panic");
        self.peak.load(Ordering::Relaxed).max(rss_bytes())
    }
}

fn lock(state: &Mutex<ClientState>) -> std::sync::MutexGuard<'_, ClientState> {
    state
        .lock()
        .expect("a client thread panicked while holding its state")
}

/// Each client's input and back-off streams derive from the run seed alone.
fn client_seed(seed: u64, client: usize, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ stream.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7)
}
