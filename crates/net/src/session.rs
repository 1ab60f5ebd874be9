//! The client side of a certifier session: [`RemoteCertifier`].
//!
//! One `RemoteCertifier` manages one logical session from a replica to the
//! certifier server.  Nothing in it polls; every thread sleeps until the
//! event it waits for:
//!
//! * **requests go straight onto the wire** — a caller registers a pending
//!   slot, writes its frame onto the live connection under the send mutex
//!   and sleeps on the `answered` condvar until its slot fills.  The write
//!   blocks while the peer is behind (backpressure) and fails with
//!   `Unavailable` at the request timeout rather than buffering without
//!   bound.
//! * **one reader thread per session** — dials, handshakes
//!   ([`Message::Hello`] / [`Message::HelloAck`]; only then is the session
//!   open and counted in the open-sessions gauge / event journal), then
//!   blocks in receive and fills each pending slot as its response arrives.
//! * **reconnect with backoff** — a lost connection fails every in-flight
//!   request (the resilient workload driver absorbs the `Unavailable`s),
//!   then the reader redials with exponential backoff (a timed wait on the
//!   `answered` condvar, so close cuts it short) until the link heals,
//!   counting [`CounterId::NetReconnects`].
//! * **half-open detection** — a session-level quiet timer runs from the
//!   first unanswered request on the connection and restarts on every
//!   inbound frame; once it passes [`SessionConfig::half_open_grace`], the
//!   next requester to look hangs the connection up, which wakes the
//!   reader into a redial.
//! * **graceful close** — closing drains in-flight requests briefly, sends
//!   [`Message::Goodbye`], hangs up (waking the reader) and joins it.
//!
//! The blocking request API implements [`CertifierService`], so a
//! `CertifierHandle::Remote` (`tashkent_proxy`) makes the entire proxy
//! stack — certification, bounded-staleness refresh, recovery catch-up —
//! run over the wire unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use tashkent_certifier::{CertificationRequest, CertificationResponse, RemoteWriteSet};
use tashkent_common::{
    metrics::MetricsRegistry, Component, CounterId, Error, Event, EventKind, GaugeId, Result,
    Version,
};
use tashkent_proxy::CertifierService;

use crate::message::{node_index, to_frame, Envelope, Message};
use crate::transport::{send_frame, Connection, FramedConn, Transport};

/// Tuning knobs for one client session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// This node's name, sent in the handshake (e.g. `replica-0`).
    pub node: String,
    /// The server endpoint to dial.
    pub endpoint: String,
    /// How long a caller waits for a response before giving up with
    /// `Unavailable`; also bounds how long its write may block.
    pub request_timeout: Duration,
    /// First reconnect delay; doubles up to [`SessionConfig::backoff_ceiling`].
    pub backoff_floor: Duration,
    /// Largest reconnect delay.
    pub backoff_ceiling: Duration,
    /// Half-open link detector: if the session hears *no* inbound traffic
    /// for this long while a request is unanswered, it declares the return
    /// path dead and tears the connection down for a redial.  A one-way
    /// severed link never surfaces as a send error — the bytes just vanish
    /// — so without this the session would sit "connected" forever while
    /// every request burned its full timeout.
    pub half_open_grace: Duration,
}

impl SessionConfig {
    /// Sensible defaults for an in-machine cluster.
    #[must_use]
    pub fn new(node: &str, endpoint: &str) -> SessionConfig {
        SessionConfig {
            node: node.to_string(),
            endpoint: endpoint.to_string(),
            request_timeout: Duration::from_secs(2),
            backoff_floor: Duration::from_millis(1),
            backoff_ceiling: Duration::from_millis(50),
            // At the request timeout a healthy server must long since have
            // answered *something*, so this can never fire spuriously.
            half_open_grace: Duration::from_secs(2),
        }
    }
}

/// A pending request slot: `None` until the reader (or a failure) fills it.
type Slot = Option<Result<Message>>;

struct ClientState {
    next_id: u64,
    pending: HashMap<u64, Slot>,
    /// Half-open detection: since when the current connection has owed a
    /// response without delivering any inbound frame.  Set by the first
    /// request sent while it is `None`; restarted by every inbound frame
    /// while a request is still unanswered; cleared once none is (an idle
    /// session owes no traffic) and when a connection opens.
    awaiting_since: Option<Instant>,
}

/// The live connection's send half, behind the send mutex.
#[derive(Default)]
struct Link {
    /// A handle on the current connection: written to by requesters once
    /// the session is open, and closed to wake the reader.
    conn: Option<Box<dyn Connection>>,
    /// Bumped per dial, so a stale hang-up cannot hit a newer connection.
    generation: u64,
}

struct Shared {
    state: Mutex<ClientState>,
    /// Wakes requesters (a slot filled, the session opened or dropped) and
    /// the reader's backoff (shutdown).
    answered: Condvar,
    /// The send mutex.
    link: Mutex<Link>,
    /// `true` while the handshake has completed and `link` holds its
    /// connection; only changed with `link` locked.
    connected: AtomicBool,
    shutdown: AtomicBool,
    last_system_version: AtomicU64,
    last_floor: AtomicU64,
    metrics: Arc<MetricsRegistry>,
    node_index: usize,
}

impl Shared {
    /// Wakes everything waiting on `answered`.  Taking the state lock
    /// first orders the wake after any waiter's check of a flag set
    /// before this call, so no wake-up is lost.
    fn notify(&self) {
        drop(self.state.lock());
        self.answered.notify_all();
    }

    /// Fails every unanswered request with `Unavailable`.
    fn fail_all_pending(&self, why: &str) {
        let mut state = self.state.lock();
        for slot in state.pending.values_mut() {
            if slot.is_none() {
                *slot = Some(Err(Error::Unavailable(why.to_string())));
            }
        }
        drop(state);
        self.answered.notify_all();
    }

    /// Closes the current connection — only if it is still `generation`,
    /// when one is given — so the reader wakes and tears the session down.
    /// Returns `true` if a connection was hung up.
    fn hang_up(&self, generation: Option<u64>) -> bool {
        let mut link = self.link.lock();
        if generation.is_some_and(|g| g != link.generation) {
            return false;
        }
        let Some(conn) = link.conn.take() else {
            return false;
        };
        conn.close();
        self.connected.store(false, Ordering::Release);
        drop(link);
        self.notify();
        true
    }

    /// Writes one frame onto the open session; returns the connection's
    /// generation, or `None` if no session is open.
    fn send(&self, frame: &[u8], deadline: Instant) -> Result<Option<u64>> {
        let mut link = self.link.lock();
        if !self.connected.load(Ordering::Acquire) {
            return Ok(None);
        }
        let generation = link.generation;
        let conn = link
            .conn
            .as_mut()
            .expect("an open session has a connection");
        if let Err(e) = send_frame(conn.as_mut(), frame, deadline, &self.metrics) {
            drop(link);
            // A failed write may have cut a frame short: the connection is
            // unusable either way.
            self.hang_up(Some(generation));
            return Err(e);
        }
        Ok(Some(generation))
    }

    /// Waits until the session is (`up`) or is not connected, or `timeout`
    /// passes; returns whether it got there.
    fn wait_link(&self, up: bool, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        let mut state = self.state.lock();
        while self.connected.load(Ordering::Acquire) != up {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.answered.wait_for(&mut state, left);
        }
        true
    }
}

/// A certifier reached over a wire; implements [`CertifierService`].
pub struct RemoteCertifier {
    shared: Arc<Shared>,
    config: SessionConfig,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl RemoteCertifier {
    /// Starts the session: spawns the reader thread, which dials (and
    /// keeps redialling) `config.endpoint` over `transport`.
    #[must_use]
    pub fn start(
        config: SessionConfig,
        transport: Arc<dyn Transport>,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<RemoteCertifier> {
        let shared = Arc::new(Shared {
            state: Mutex::new(ClientState {
                next_id: 0,
                pending: HashMap::new(),
                awaiting_since: None,
            }),
            answered: Condvar::new(),
            link: Mutex::new(Link::default()),
            connected: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            last_system_version: AtomicU64::new(0),
            last_floor: AtomicU64::new(0),
            metrics,
            node_index: node_index(&config.node),
        });
        let reader_shared = Arc::clone(&shared);
        let reader_config = config.clone();
        let worker = thread::Builder::new()
            .name(format!("tknp-client-{}", config.node))
            .spawn(move || run_session(&reader_shared, &reader_config, transport.as_ref()))
            .expect("spawn session reader");
        Arc::new(RemoteCertifier {
            shared,
            config,
            worker: Mutex::new(Some(worker)),
        })
    }

    /// `true` once the handshake has completed and the wire is up.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.shared.connected.load(Ordering::Acquire)
    }

    /// Waits until the session is established (cluster start-up barrier).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the deadline passes without a handshake.
    pub fn wait_connected(&self, deadline: Duration) -> Result<()> {
        if self.shared.wait_link(true, deadline) {
            return Ok(());
        }
        Err(Error::Unavailable(format!(
            "session {} -> {} did not establish within {deadline:?}",
            self.config.node, self.config.endpoint
        )))
    }

    /// Waits until the session has *dropped* (half-open detection and
    /// fault tests use this to observe a teardown).
    ///
    /// # Errors
    ///
    /// `Unavailable` if the session is still up when the deadline passes.
    pub fn wait_disconnected(&self, deadline: Duration) -> Result<()> {
        if self.shared.wait_link(false, deadline) {
            return Ok(());
        }
        Err(Error::Unavailable(format!(
            "session {} -> {} still connected after {deadline:?}",
            self.config.node, self.config.endpoint
        )))
    }

    /// Sends one request and blocks for its response (or timeout).
    ///
    /// A request issued while the session is (re)connecting waits for it,
    /// and fails as soon as the reader gives that attempt up.
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down, the write cannot complete, or
    /// the response does not arrive within the request timeout;
    /// server-side failures are rebuilt from the [`Message::ErrorReply`].
    pub fn request(&self, message: Message) -> Result<Message> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(Error::Unavailable("session is shut down".into()));
        }
        let issued = Instant::now();
        let deadline = issued + self.config.request_timeout;
        let grace = self.config.half_open_grace;
        let id = {
            let mut state = self.shared.state.lock();
            state.next_id += 1;
            let id = state.next_id;
            state.pending.insert(id, None);
            id
        };
        let frame = to_frame(&Envelope {
            request_id: id,
            message,
        });
        // The connection the frame went out on.
        let mut sent: Option<u64> = None;
        // Whether the session was down when this request was issued.
        let mut waited = false;
        let mut state = self.shared.state.lock();
        loop {
            match state.pending.get_mut(&id) {
                Some(slot) if slot.is_some() => {
                    let result = slot.take().expect("checked is_some");
                    state.pending.remove(&id);
                    return self.unwrap_reply(result);
                }
                Some(_) => {}
                None => return Err(Error::Unavailable("request slot vanished".into())),
            }
            let now = Instant::now();
            // Half-open first: with the grace equal to the request timeout
            // (the default) both fire together, and the hang-up must win,
            // or a one-way cut would leave the session "connected" while
            // every request burned its full timeout.
            let quiet_until = state.awaiting_since.map(|since| since + grace);
            if let (Some(generation), Some(quiet_until)) = (sent, quiet_until) {
                if now >= quiet_until {
                    state.pending.remove(&id);
                    drop(state);
                    let why = format!(
                        "no response traffic for {grace:?} with requests in flight; \
                         assuming a half-open link"
                    );
                    if self.shared.hang_up(Some(generation)) {
                        self.shared.fail_all_pending(&why);
                    }
                    return Err(Error::Unavailable(why));
                }
            }
            if now >= deadline {
                state.pending.remove(&id);
                if !state.pending.values().any(Option::is_none) {
                    state.awaiting_since = None;
                }
                return Err(Error::Unavailable(format!(
                    "request to {} timed out after {:?}",
                    self.config.endpoint, self.config.request_timeout
                )));
            }
            let wake = match sent {
                None if self.shared.connected.load(Ordering::Acquire) => {
                    drop(state);
                    // Issued on an open session, the request has been
                    // owed an answer since it was issued.
                    let sent_at = if waited { Instant::now() } else { issued };
                    let result = self.shared.send(&frame, deadline);
                    state = self.shared.state.lock();
                    match result {
                        Ok(generation) => sent = generation,
                        Err(e) => {
                            state.pending.remove(&id);
                            return Err(e);
                        }
                    }
                    // Start the quiet timer unless it runs already, or the
                    // answer has beaten us here (then nothing is owed).
                    let unanswered = matches!(state.pending.get(&id), Some(None));
                    if sent.is_some() && unanswered && state.awaiting_since.is_none() {
                        state.awaiting_since = Some(sent_at);
                    }
                    continue;
                }
                None => {
                    waited = true;
                    deadline
                }
                Some(_) => quiet_until.map_or(deadline, |q| deadline.min(q)),
            };
            self.shared
                .answered
                .wait_for(&mut state, wake.saturating_duration_since(now));
        }
    }

    fn unwrap_reply(&self, result: Result<Message>) -> Result<Message> {
        match result? {
            Message::ErrorReply {
                unavailable: true,
                detail,
            } => Err(Error::Unavailable(detail)),
            Message::ErrorReply {
                unavailable: false,
                detail,
            } => Err(Error::Protocol(detail)),
            other => Ok(other),
        }
    }

    /// Round-trips a ping (liveness probe; tests and the watchdog use it).
    ///
    /// # Errors
    ///
    /// `Unavailable` when the wire is down.
    pub fn ping(&self) -> Result<()> {
        match self.request(Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(Error::Protocol(format!(
                "expected pong, got {}",
                other.label()
            ))),
        }
    }

    fn status(&self) -> Result<(Version, Version, bool)> {
        match self.request(Message::StatusRequest)? {
            Message::StatusResponse {
                system_version,
                truncation_floor,
                available,
            } => {
                self.shared
                    .last_system_version
                    .fetch_max(system_version.value(), Ordering::AcqRel);
                self.shared
                    .last_floor
                    .fetch_max(truncation_floor.value(), Ordering::AcqRel);
                Ok((system_version, truncation_floor, available))
            }
            other => Err(Error::Protocol(format!(
                "expected status response, got {}",
                other.label()
            ))),
        }
    }

    /// Shuts the session down: drains in-flight requests, says goodbye,
    /// hangs up and joins the reader.  Idempotent.
    pub fn close(&self) {
        let shared = &self.shared;
        shared.shutdown.store(true, Ordering::Release);
        shared.notify();
        // Give in-flight requests a moment to be answered.
        let until = Instant::now() + DRAIN_DEADLINE;
        let mut state = shared.state.lock();
        while shared.connected.load(Ordering::Acquire)
            && state.pending.values().any(Option::is_none)
        {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            shared.answered.wait_for(&mut state, left);
        }
        drop(state);
        let goodbye = to_frame(&Envelope {
            request_id: 0,
            message: Message::Goodbye,
        });
        let _ = shared.send(&goodbye, Instant::now() + DRAIN_DEADLINE);
        // Also wakes a reader still in its handshake.
        shared.hang_up(None);
        if let Some(worker) = self.worker.lock().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for RemoteCertifier {
    fn drop(&mut self) {
        self.close();
    }
}

impl CertifierService for RemoteCertifier {
    fn certify(&self, request: &CertificationRequest) -> Result<CertificationResponse> {
        match self.request(Message::CertifyRequest(request.clone()))? {
            Message::CertifyDecision(response) => {
                self.shared
                    .last_system_version
                    .fetch_max(response.system_version.value(), Ordering::AcqRel);
                Ok(response)
            }
            other => Err(Error::Protocol(format!(
                "expected certify decision, got {}",
                other.label()
            ))),
        }
    }

    fn writesets_after(&self, since: Version) -> Vec<RemoteWriteSet> {
        match self.request(Message::FetchWritesets { since }) {
            Ok(Message::WritesetBatch { writesets }) => writesets,
            // Wire down (or a malformed reply): report no progress; the
            // proxy's bounded-staleness refresh simply retries later.
            Ok(_) | Err(_) => Vec::new(),
        }
    }

    fn system_version(&self) -> Version {
        match self.status() {
            Ok((v, _, _)) => v,
            Err(_) => Version(self.shared.last_system_version.load(Ordering::Acquire)),
        }
    }

    fn is_available(&self) -> bool {
        self.is_connected() && matches!(self.status(), Ok((_, _, true)))
    }

    fn truncation_floor(&self) -> Version {
        match self.status() {
            Ok((_, floor, _)) => floor,
            Err(_) => Version(self.shared.last_floor.load(Ordering::Acquire)),
        }
    }
}

/// How long a graceful close keeps draining in-flight requests.
const DRAIN_DEADLINE: Duration = Duration::from_millis(50);

/// How long the dialler waits for the `HelloAck`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_millis(500);

/// The reader thread: (re)establishes the session and reads responses
/// until shutdown.
fn run_session(shared: &Shared, config: &SessionConfig, transport: &dyn Transport) {
    let mut backoff = config.backoff_floor;
    let mut sessions_opened = 0u64;
    while !shared.shutdown.load(Ordering::Acquire) {
        let Some((mut framed, generation)) = establish(shared, config, transport) else {
            shared.fail_all_pending("certifier wire is down");
            // Back off, but wake at once on shutdown.
            let until = Instant::now() + backoff;
            let mut state = shared.state.lock();
            while !shared.shutdown.load(Ordering::Acquire) {
                let left = until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                shared.answered.wait_for(&mut state, left);
            }
            backoff = (backoff * 2).min(config.backoff_ceiling);
            continue;
        };
        backoff = config.backoff_floor;
        sessions_opened += 1;
        if sessions_opened > 1 {
            shared.metrics.incr(CounterId::NetReconnects);
        }
        shared.metrics.gauge_add(GaugeId::OpenSessions, 1);
        shared.metrics.emit(
            Event::new(Component::Proxy, EventKind::SessionOpen).node(shared.node_index),
        );

        let why = read_responses(shared, &mut framed);

        shared.hang_up(Some(generation));
        shared.metrics.gauge_add(GaugeId::OpenSessions, -1);
        shared.metrics.emit(
            Event::new(Component::Proxy, EventKind::SessionClose).node(shared.node_index),
        );
        if !shared.shutdown.load(Ordering::Acquire) {
            shared.fail_all_pending(&why);
        }
    }
    shared.fail_all_pending("session is shut down");
}

/// Dials and completes the handshake, then opens the session for
/// requesters; `None` on any failure (the caller backs off and retries).
fn establish(
    shared: &Shared,
    config: &SessionConfig,
    transport: &dyn Transport,
) -> Option<(FramedConn, u64)> {
    let conn = transport.dial(&config.endpoint).ok()?;
    let handle = conn.try_clone().ok()?;
    let generation = {
        let mut link = shared.link.lock();
        // Checked under the send mutex: `close` either sees this
        // connection or we see its shutdown flag.
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        link.generation += 1;
        link.conn = Some(handle);
        link.generation
    };
    let mut framed = FramedConn::new(conn);
    if handshake(shared, config, &mut framed) {
        let link = shared.link.lock();
        if link.generation == generation && link.conn.is_some() {
            // Nothing is owed on a fresh connection.
            shared.state.lock().awaiting_since = None;
            shared.connected.store(true, Ordering::Release);
            drop(link);
            shared.notify();
            return Some((framed, generation));
        }
    }
    shared.hang_up(Some(generation));
    None
}

/// Sends `Hello` and waits for the `HelloAck`.
fn handshake(shared: &Shared, config: &SessionConfig, framed: &mut FramedConn) -> bool {
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    let hello = Envelope {
        request_id: 0,
        message: Message::Hello {
            node: config.node.clone(),
        },
    };
    if framed.send(&hello, deadline, &shared.metrics).is_err() {
        return false;
    }
    loop {
        match framed.recv(Some(deadline), &shared.metrics) {
            Ok(Some(envelope)) if matches!(envelope.message, Message::HelloAck { .. }) => {
                return true;
            }
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return false,
        }
    }
}

/// Blocks in receive and fills pending slots until the connection breaks;
/// returns the reason it did.
fn read_responses(shared: &Shared, framed: &mut FramedConn) -> String {
    loop {
        match framed.recv(None, &shared.metrics) {
            Ok(Some(envelope)) => {
                let mut state = shared.state.lock();
                // Responses to abandoned (timed-out) requests are dropped
                // on the floor, matching their caller.
                if let Some(slot) = state.pending.get_mut(&envelope.request_id) {
                    *slot = Some(Ok(envelope.message));
                }
                // The link delivered: restart the quiet timer if anything
                // is still owed, stop it otherwise.
                state.awaiting_since = state
                    .pending
                    .values()
                    .any(Option::is_none)
                    .then(Instant::now);
                drop(state);
                shared.answered.notify_all();
            }
            Ok(None) => {}
            Err(e) => return e.to_string(),
        }
    }
}
