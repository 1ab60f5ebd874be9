//! The deterministic in-memory loopback transport.
//!
//! [`LoopbackNet`] is a tiny in-process "network": listeners register under
//! logical endpoint names (`certifier`, `replica-0`, ...), dialling pushes a
//! connection into the listener's backlog, and each established connection
//! is a pair of bounded in-memory byte pipes.  Every pipe has a condition
//! variable that each change to it notifies — bytes sent or read, a close,
//! a reset — so a blocked reader or writer wakes the moment it can proceed,
//! exactly like a socket.  Because nothing leaves the process, runs are as
//! reproducible as the in-process cluster — which is exactly what the fault
//! harness needs.
//!
//! Fault injection hooks:
//!
//! * [`LoopbackNet::sever`] / [`LoopbackNet::heal`] cut or restore the link
//!   between two endpoints.  A sever resets every established connection
//!   on the link at once (waking anyone blocked on it) *and* refuses new
//!   dials, so a partition behaves like a real one: in-flight requests fail
//!   with [`Error::Unavailable`] and reconnect attempts keep failing until
//!   the link heals.
//! * [`LoopbackNet::sever_one_way`] cuts only one *direction*: bytes sent
//!   that way silently vanish while the reverse direction keeps flowing —
//!   the half-open link of a real asymmetric partition.  The sender sees
//!   successful sends (no error!), which is exactly what makes half-open
//!   links nasty and what the session layer's no-response-traffic detector
//!   exists to catch.  New dials are refused while either direction is cut
//!   (connection setup needs both paths).
//! * [`LoopbackNet::set_drop_rate`] makes the network randomly reset
//!   established connections (seeded, so a given seed yields the same drop
//!   points for a serial caller) — this is how the session manager's
//!   reconnect path is exercised.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tashkent_common::{Error, Result};

use crate::transport::{Connection, Listener, Transport};

/// Per-direction buffered-byte cap; a sender whose peer is this far behind
/// waits for room (backpressure, not OOM).
const PIPE_CAPACITY: usize = 8 << 20;

/// A link name pair in canonical (sorted) order, so `sever(a, b)` and
/// `sever(b, a)` name the same link.
fn link_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

#[derive(Default)]
struct NetState {
    /// Accept backlog per listening endpoint (absent once closed).
    backlogs: HashMap<String, VecDeque<LoopbackConn>>,
    /// Currently severed links.
    severed: HashSet<(String, String)>,
    /// Directionally severed links, as `(from, to)`: bytes sent from →
    /// to are silently discarded, the reverse direction still flows.
    severed_one_way: HashSet<(String, String)>,
    /// The pipes of every connection dialled over each link, so a link
    /// fault can reach (and wake) the connections it affects.
    pipes: HashMap<(String, String), Vec<Weak<Pipe>>>,
    /// Seeded connection-reset injection.
    drop_rng: Option<(StdRng, f64)>,
}

impl NetState {
    /// Runs `f` on every live pipe of the link between `a` and `b`.
    fn each_pipe(&self, a: &str, b: &str, f: impl Fn(&Pipe)) {
        for pipe in self.pipes.get(&link_key(a, b)).into_iter().flatten() {
            if let Some(pipe) = pipe.upgrade() {
                f(&pipe);
            }
        }
    }
}

/// The shared in-memory network: a registry of listeners and link states.
pub struct LoopbackNet {
    state: Mutex<NetState>,
    /// Wakes blocked accepts (a dial arrived, or a listener closed).
    accepts: Condvar,
}

impl Default for LoopbackNet {
    fn default() -> Self {
        LoopbackNet::new()
    }
}

impl LoopbackNet {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> LoopbackNet {
        LoopbackNet {
            state: Mutex::new(NetState::default()),
            accepts: Condvar::new(),
        }
    }

    /// Creates an [`Arc`]-shared network (the usual way to use one).
    #[must_use]
    pub fn shared() -> Arc<LoopbackNet> {
        Arc::new(LoopbackNet::new())
    }

    /// A transport view of this network for a node named `local`; the name
    /// identifies the node's end of every link it dials.
    #[must_use]
    pub fn transport(self: &Arc<Self>, local: &str) -> LoopbackTransport {
        LoopbackTransport {
            net: Arc::clone(self),
            local: local.to_string(),
        }
    }

    /// Severs the link between two endpoints: established connections die
    /// now and new dials fail until [`LoopbackNet::heal`].  Returns `true`
    /// if the link was previously healthy.
    pub fn sever(&self, a: &str, b: &str) -> bool {
        let mut state = self.state.lock();
        let changed = state.severed.insert(link_key(a, b));
        state.each_pipe(a, b, Pipe::close);
        changed
    }

    /// Heals a severed link — the symmetric sever *and* any one-way severs
    /// between the pair.  Returns `true` if anything was severed.
    pub fn heal(&self, a: &str, b: &str) -> bool {
        let mut state = self.state.lock();
        let sym = state.severed.remove(&link_key(a, b));
        let fwd = state.severed_one_way.remove(&(a.to_string(), b.to_string()));
        let rev = state.severed_one_way.remove(&(b.to_string(), a.to_string()));
        sym || fwd || rev
    }

    /// Severs only the `from` → `to` direction: bytes sent that way are
    /// silently dropped (the sender does *not* get an error — half-open
    /// semantics), while `to` → `from` keeps flowing.  New dials between
    /// the pair are refused in both roles, since connection setup needs a
    /// round trip.  Returns `true` if the direction was previously open.
    pub fn sever_one_way(&self, from: &str, to: &str) -> bool {
        let mut state = self.state.lock();
        let changed = state
            .severed_one_way
            .insert((from.to_string(), to.to_string()));
        // A sender waiting for room on the cut direction now "succeeds".
        state.each_pipe(from, to, Pipe::wake);
        changed
    }

    /// Heals only the `from` → `to` direction.  Returns `true` if it was
    /// severed.
    pub fn heal_one_way(&self, from: &str, to: &str) -> bool {
        self.state
            .lock()
            .severed_one_way
            .remove(&(from.to_string(), to.to_string()))
    }

    /// Heals every severed link; returns how many there were (one-way
    /// severs counted individually).
    pub fn heal_all(&self) -> usize {
        let mut state = self.state.lock();
        let n = state.severed.len() + state.severed_one_way.len();
        state.severed.clear();
        state.severed_one_way.clear();
        n
    }

    /// `true` if the link between `a` and `b` is currently severed
    /// symmetrically.
    #[must_use]
    pub fn is_severed(&self, a: &str, b: &str) -> bool {
        self.state.lock().severed.contains(&link_key(a, b))
    }

    /// `true` if the `from` → `to` direction is currently severed.
    #[must_use]
    pub fn is_severed_one_way(&self, from: &str, to: &str) -> bool {
        self.state
            .lock()
            .severed_one_way
            .contains(&(from.to_string(), to.to_string()))
    }

    /// Enables seeded random connection resets: each send has probability
    /// `rate` of resetting its connection first.  `rate = 0.0` disables.
    pub fn set_drop_rate(&self, seed: u64, rate: f64) {
        let mut state = self.state.lock();
        state.drop_rng = if rate > 0.0 {
            Some((StdRng::seed_from_u64(seed), rate))
        } else {
            None
        };
    }

    /// The faults one send from `from` to `to` meets: whether the seeded
    /// drop resets the connection first, and whether the direction is cut.
    fn send_faults(&self, from: &str, to: &str) -> (bool, bool) {
        let mut state = self.state.lock();
        let dropped = match &mut state.drop_rng {
            Some((rng, rate)) => {
                let rate = *rate;
                rng.gen_bool(rate)
            }
            None => false,
        };
        let cut = !state.severed_one_way.is_empty()
            && state
                .severed_one_way
                .contains(&(from.to_string(), to.to_string()));
        (dropped, cut)
    }
}

/// A node-scoped view of a [`LoopbackNet`] implementing [`Transport`].
pub struct LoopbackTransport {
    net: Arc<LoopbackNet>,
    local: String,
}

impl Transport for LoopbackTransport {
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>> {
        let mut state = self.net.state.lock();
        if state.backlogs.contains_key(endpoint) {
            return Err(Error::InvalidConfig(format!(
                "loopback endpoint '{endpoint}' is already listening"
            )));
        }
        state.backlogs.insert(endpoint.to_string(), VecDeque::new());
        Ok(Box::new(LoopbackListener {
            net: Arc::clone(&self.net),
            endpoint: endpoint.to_string(),
            closed: AtomicBool::new(false),
        }))
    }

    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>> {
        let link = link_key(&self.local, endpoint);
        let mut state = self.net.state.lock();
        // A dial needs a round trip, so either a symmetric sever or a cut
        // in *either* direction refuses it.
        if state.severed.contains(&link)
            || state
                .severed_one_way
                .contains(&(self.local.clone(), endpoint.to_string()))
            || state
                .severed_one_way
                .contains(&(endpoint.to_string(), self.local.clone()))
        {
            return Err(Error::Unavailable(format!(
                "loopback link {} <-> {} is severed",
                self.local, endpoint
            )));
        }
        if !state.backlogs.contains_key(endpoint) {
            return Err(Error::Unavailable(format!(
                "no loopback listener at '{endpoint}'"
            )));
        }
        let (client, server) = LoopbackConn::pair(Arc::clone(&self.net), endpoint, &self.local);
        let pipes = state.pipes.entry(link).or_default();
        pipes.retain(|pipe| pipe.strong_count() > 0);
        pipes.push(Arc::downgrade(&client.end.inbound));
        pipes.push(Arc::downgrade(&client.end.outbound));
        state
            .backlogs
            .get_mut(endpoint)
            .expect("checked above")
            .push_back(server);
        drop(state);
        self.net.accepts.notify_all();
        Ok(Box::new(client))
    }
}

struct LoopbackListener {
    net: Arc<LoopbackNet>,
    endpoint: String,
    closed: AtomicBool,
}

impl Listener for LoopbackListener {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        let mut state = self.net.state.lock();
        loop {
            if self.closed.load(Ordering::Acquire) {
                break;
            }
            match state.backlogs.get_mut(&self.endpoint) {
                Some(backlog) => {
                    if let Some(conn) = backlog.pop_front() {
                        return Ok(Box::new(conn));
                    }
                }
                None => break,
            }
            self.net.accepts.wait(&mut state);
        }
        Err(Error::Unavailable(format!(
            "loopback listener '{}' is closed",
            self.endpoint
        )))
    }

    fn close(&self) {
        let mut state = self.net.state.lock();
        // Once only: a later listener may have taken the name since.
        if !self.closed.swap(true, Ordering::AcqRel) {
            state.backlogs.remove(&self.endpoint);
        }
        drop(state);
        self.net.accepts.notify_all();
    }

    fn local_endpoint(&self) -> String {
        self.endpoint.clone()
    }
}

impl Drop for LoopbackListener {
    fn drop(&mut self) {
        self.close();
    }
}

/// One direction of a loopback connection.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    /// Notified by every change a blocked reader or writer waits for.
    changed: Condvar,
}

#[derive(Default)]
struct PipeState {
    bytes: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }

    /// Wakes whoever waits on the pipe so they re-check the link state.
    fn wake(&self) {
        let _state = self.state.lock();
        self.changed.notify_all();
    }
}

/// State shared by every handle of one end of a connection; the end resets
/// the connection when its last handle goes.
struct End {
    net: Arc<LoopbackNet>,
    local_name: String,
    peer_name: String,
    /// Bytes flowing towards this end.
    inbound: Arc<Pipe>,
    /// Bytes flowing towards the peer.
    outbound: Arc<Pipe>,
}

impl End {
    fn reset(&self) {
        self.inbound.close();
        self.outbound.close();
    }

    fn closed_error(&self) -> Error {
        Error::Unavailable(format!(
            "loopback connection to {} is closed",
            self.peer_name
        ))
    }
}

impl Drop for End {
    fn drop(&mut self) {
        self.reset();
    }
}

/// A handle on one end of an established loopback connection.
struct LoopbackConn {
    end: Arc<End>,
}

impl LoopbackConn {
    fn pair(net: Arc<LoopbackNet>, dialed: &str, dialer: &str) -> (LoopbackConn, LoopbackConn) {
        let a = Arc::new(Pipe::default());
        let b = Arc::new(Pipe::default());
        let client = End {
            net: Arc::clone(&net),
            local_name: dialer.to_string(),
            peer_name: dialed.to_string(),
            inbound: Arc::clone(&a),
            outbound: Arc::clone(&b),
        };
        let server = End {
            net,
            local_name: dialed.to_string(),
            peer_name: dialer.to_string(),
            inbound: b,
            outbound: a,
        };
        (
            LoopbackConn {
                end: Arc::new(client),
            },
            LoopbackConn {
                end: Arc::new(server),
            },
        )
    }
}

impl Connection for LoopbackConn {
    fn send(&mut self, mut bytes: &[u8], deadline: Instant) -> Result<()> {
        let end = &self.end;
        let (dropped, mut cut) = end.net.send_faults(&end.local_name, &end.peer_name);
        if dropped {
            end.reset();
        }
        loop {
            let mut pipe = end.outbound.state.lock();
            if pipe.closed {
                return Err(end.closed_error());
            }
            // Half-open link: the send "succeeds" — the sender has no way
            // to tell — but the bytes never reach the peer.
            if cut {
                return Ok(());
            }
            let was_empty = pipe.bytes.is_empty();
            let n = bytes
                .len()
                .min(PIPE_CAPACITY.saturating_sub(pipe.bytes.len()));
            pipe.bytes.extend(&bytes[..n]);
            bytes = &bytes[n..];
            if was_empty && n > 0 {
                end.outbound.changed.notify_all();
            }
            if bytes.is_empty() {
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Unavailable(format!(
                    "send to {} missed its deadline; the peer is not draining",
                    end.peer_name
                )));
            }
            end.outbound.changed.wait_for(&mut pipe, left);
            drop(pipe);
            // The direction may have been cut while we waited for room.
            cut = end.net.is_severed_one_way(&end.local_name, &end.peer_name);
        }
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<usize> {
        let end = &self.end;
        let mut pipe = end.inbound.state.lock();
        loop {
            let n = pipe.bytes.len().min(buf.len());
            if n > 0 {
                let was_full = pipe.bytes.len() >= PIPE_CAPACITY;
                for (slot, byte) in buf.iter_mut().zip(pipe.bytes.drain(..n)) {
                    *slot = byte;
                }
                if was_full {
                    end.inbound.changed.notify_all();
                }
                return Ok(n);
            }
            if pipe.closed {
                return Err(end.closed_error());
            }
            match deadline {
                None => end.inbound.changed.wait(&mut pipe),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(0);
                    }
                    end.inbound.changed.wait_for(&mut pipe, left);
                }
            }
        }
    }

    fn try_clone(&self) -> Result<Box<dyn Connection>> {
        Ok(Box::new(LoopbackConn {
            end: Arc::clone(&self.end),
        }))
    }

    fn close(&self) {
        self.end.reset();
    }

    fn peer(&self) -> String {
        self.end.peer_name.clone()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(1)
    }

    fn establish(
        net: &Arc<LoopbackNet>,
    ) -> (Box<dyn Connection>, Box<dyn Connection>, Box<dyn Listener>) {
        let server_side = net.transport("certifier");
        let listener = server_side.listen("certifier").unwrap();
        let client = net.transport("replica-0").dial("certifier").unwrap();
        let server = listener.accept().unwrap();
        (client, server, listener)
    }

    #[test]
    fn bytes_flow_both_ways() {
        let net = LoopbackNet::shared();
        let (mut client, mut server, _listener) = establish(&net);
        client.send(b"ping", soon()).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.recv(&mut buf, Some(soon())).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        server.send(b"pong", soon()).unwrap();
        assert_eq!(client.recv(&mut buf, Some(soon())).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
        assert_eq!(
            client.recv(&mut buf, Some(Instant::now())).unwrap(),
            0,
            "nothing before the deadline"
        );
        assert_eq!(client.peer(), "certifier");
        assert_eq!(server.peer(), "replica-0");
    }

    #[test]
    fn severed_links_kill_connections_and_refuse_dials() {
        let net = LoopbackNet::shared();
        let (mut client, _server, _listener) = establish(&net);
        assert!(net.sever("replica-0", "certifier"));
        assert!(client.send(b"x", soon()).is_err());
        assert!(net
            .transport("replica-0")
            .dial("certifier")
            .is_err_and(|e| e.is_unavailable()));
        // Another replica's link is unaffected.
        assert!(net.transport("replica-1").dial("certifier").is_ok());
        assert_eq!(net.heal_all(), 1);
        assert!(net.transport("replica-0").dial("certifier").is_ok());
    }

    #[test]
    fn peer_drop_surfaces_as_unavailable_after_drain() {
        let net = LoopbackNet::shared();
        let (mut client, server, _listener) = establish(&net);
        client.send(b"last words", soon()).unwrap();
        drop(server);
        // Buffered bytes are still deliverable... to nobody here; the
        // client's own reads see the close.
        let mut buf = [0u8; 4];
        assert!(client.recv(&mut buf, Some(soon())).is_err());
        assert!(client.send(b"x", soon()).is_err());
    }

    #[test]
    fn one_way_sever_drops_bytes_silently_one_direction() {
        let net = LoopbackNet::shared();
        let (mut client, mut server, _listener) = establish(&net);
        assert!(net.sever_one_way("replica-0", "certifier"));
        // The cut direction: the sender sees success, the peer nothing —
        // the half-open signature.
        client.send(b"lost", soon()).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(server.recv(&mut buf, Some(Instant::now())).unwrap(), 0);
        // The reverse direction still flows.
        server.send(b"pong", soon()).unwrap();
        assert_eq!(client.recv(&mut buf, Some(soon())).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
        // Dials are refused in both roles while one direction is cut.
        assert!(net
            .transport("replica-0")
            .dial("certifier")
            .is_err_and(|e| e.is_unavailable()));
        assert!(net.is_severed_one_way("replica-0", "certifier"));
        assert!(!net.is_severed_one_way("certifier", "replica-0"));
        // Healing the direction restores it without ever resetting the
        // established connection.
        assert!(net.heal_one_way("replica-0", "certifier"));
        client.send(b"back", soon()).unwrap();
        assert_eq!(server.recv(&mut buf, Some(soon())).unwrap(), 4);
        assert_eq!(&buf[..4], b"back");
    }

    #[test]
    fn symmetric_heal_and_heal_all_clear_one_way_severs() {
        let net = LoopbackNet::shared();
        net.sever_one_way("certifier", "replica-0");
        assert!(net.heal("replica-0", "certifier"), "heal covers directions");
        assert!(!net.is_severed_one_way("certifier", "replica-0"));
        net.sever_one_way("certifier", "replica-1");
        net.sever("replica-2", "certifier");
        assert_eq!(net.heal_all(), 2);
        assert!(net.transport("replica-1").dial("certifier").is_err(), "no listener, but not severed");
    }

    #[test]
    fn seeded_drops_reset_connections() {
        let net = LoopbackNet::shared();
        net.set_drop_rate(0xD20B, 1.0);
        let (mut client, _server, listener) = establish(&net);
        assert!(
            client.send(b"x", soon()).is_err(),
            "rate 1.0 drops immediately"
        );
        net.set_drop_rate(0, 0.0);
        drop(listener);
        let (mut client, _server2, _listener2) = establish(&net);
        assert!(client.send(b"x", soon()).is_ok());
    }

    #[test]
    fn a_send_the_peer_never_drains_fails_at_its_deadline() {
        let net = LoopbackNet::shared();
        let (mut client, _server, _listener) = establish(&net);
        let deadline = Instant::now() + Duration::from_millis(50);
        let result = client.send(&vec![0u8; PIPE_CAPACITY + 1], deadline);
        assert!(result.is_err_and(|e| e.is_unavailable()));
        assert!(
            Instant::now() >= deadline,
            "waited for room until the deadline"
        );
    }

    #[test]
    fn listener_names_are_exclusive_until_dropped() {
        let net = LoopbackNet::shared();
        let t = net.transport("certifier");
        let listener = t.listen("certifier").unwrap();
        assert!(t.listen("certifier").is_err());
        drop(listener);
        assert!(t.listen("certifier").is_ok());
    }

    #[test]
    fn blocked_readers_and_accepts_wake_on_every_event() {
        let net = LoopbackNet::shared();
        let (client, _server, listener) = establish(&net);
        let listener: Arc<dyn Listener> = Arc::from(listener);

        // A sever wakes a reader blocked without a deadline.
        let mut reader = client.try_clone().unwrap();
        let blocked = std::thread::spawn(move || reader.recv(&mut [0u8; 4], None));
        std::thread::sleep(Duration::from_millis(20));
        net.sever("replica-0", "certifier");
        assert!(blocked.join().unwrap().is_err_and(|e| e.is_unavailable()));
        net.heal_all();

        // A close on another handle wakes one too.
        let (client, _server) = {
            let client = net.transport("replica-0").dial("certifier").unwrap();
            (client, listener.accept().unwrap())
        };
        let mut reader = client.try_clone().unwrap();
        let blocked = std::thread::spawn(move || reader.recv(&mut [0u8; 4], None));
        std::thread::sleep(Duration::from_millis(20));
        client.close();
        assert!(blocked.join().unwrap().is_err_and(|e| e.is_unavailable()));

        // Closing the listener wakes a blocked accept.
        let acceptor = {
            let listener = Arc::clone(&listener);
            std::thread::spawn(move || listener.accept().map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(20));
        listener.close();
        assert!(acceptor.join().unwrap().is_err_and(|e| e.is_unavailable()));
        assert!(net.transport("replica-0").dial("certifier").is_err());
    }
}
