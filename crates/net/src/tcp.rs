//! The TCP transport: real blocking `std::net` sockets.
//!
//! Endpoints are socket addresses; listening on `127.0.0.1:0` binds a free
//! port, and [`Listener::local_endpoint`] reports the actual address for
//! clients to dial.  No async runtime is involved: a receive is a blocking
//! socket read under a read timeout (the caller's deadline), a send is a
//! blocking write under a write timeout, and a second handle from
//! [`Connection::try_clone`] is a duplicated socket, so one thread can
//! block reading while another writes.  Closing shuts the socket down,
//! which wakes a reader blocked on any handle of it.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tashkent_common::{Error, Result};

use crate::transport::{Connection, Listener, Transport};

/// The [`Transport`] over real TCP sockets.
#[derive(Debug, Default, Clone, Copy)]
pub struct TcpTransport;

impl TcpTransport {
    /// Creates the transport (stateless; all state lives in the OS).
    #[must_use]
    pub fn new() -> TcpTransport {
        TcpTransport
    }
}

impl Transport for TcpTransport {
    fn listen(&self, endpoint: &str) -> Result<Box<dyn Listener>> {
        let listener = TcpListener::bind(endpoint)
            .map_err(|e| Error::Io(format!("bind {endpoint}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local_addr: {e}")))?
            .to_string();
        Ok(Box::new(TcpListenerHandle {
            listener,
            local,
            closed: AtomicBool::new(false),
        }))
    }

    fn dial(&self, endpoint: &str) -> Result<Box<dyn Connection>> {
        let stream = TcpStream::connect(endpoint)
            .map_err(|e| Error::Unavailable(format!("connect {endpoint}: {e}")))?;
        TcpConn::boxed(endpoint.to_string(), stream)
    }
}

struct TcpListenerHandle {
    listener: TcpListener,
    local: String,
    closed: AtomicBool,
}

impl Listener for TcpListenerHandle {
    fn accept(&self) -> Result<Box<dyn Connection>> {
        loop {
            match self.listener.accept() {
                _ if self.closed.load(Ordering::Acquire) => {
                    return Err(Error::Unavailable(format!(
                        "listener {} is closed",
                        self.local
                    )));
                }
                Ok((stream, addr)) => return TcpConn::boxed(addr.to_string(), stream),
                // A dial that gave up before we got to it; wait for the next.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(Error::Unavailable(format!("accept: {e}"))),
            }
        }
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            // `std` cannot interrupt a blocked accept, so dial ourselves
            // once: the accept returns, sees the flag and fails.
            let _ = TcpStream::connect(&self.local);
        }
    }

    fn local_endpoint(&self) -> String {
        self.local.clone()
    }
}

/// How far a blocked write may outlast its deadline before the socket's
/// write timeout is cut down to match.  Sends carry deadlines a fixed time
/// ahead, so within this slack one setting serves them all.
const WRITE_TIMEOUT_SLACK: Duration = Duration::from_millis(5);

/// The timeouts last set on a socket (`None` = never set), shared by every
/// handle on it — the handles are one socket, so they share its options —
/// so that sends and receives pay for a socket option only when it must
/// change.
#[derive(Default)]
struct SocketTimeouts {
    read: Mutex<Option<Option<Duration>>>,
    write: Mutex<Option<Duration>>,
}

struct TcpConn {
    peer: String,
    stream: TcpStream,
    timeouts: Arc<SocketTimeouts>,
}

impl TcpConn {
    fn boxed(peer: String, stream: TcpStream) -> Result<Box<dyn Connection>> {
        stream
            .set_nodelay(true)
            .map_err(|e| Error::Io(format!("set_nodelay: {e}")))?;
        Ok(Box::new(TcpConn {
            peer,
            stream,
            timeouts: Arc::default(),
        }))
    }

    fn lost(&self, what: &str, e: &std::io::Error) -> Error {
        Error::Unavailable(format!("{what} {}: {e}", self.peer))
    }
}

/// Time left until `deadline`, `None` once it has passed.
fn remaining(deadline: Instant) -> Option<Duration> {
    Some(deadline.saturating_duration_since(Instant::now())).filter(|d| !d.is_zero())
}

/// `true` for the errors a socket timeout or a signal produces.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

impl Connection for TcpConn {
    fn send(&mut self, mut bytes: &[u8], deadline: Instant) -> Result<()> {
        // Set once a write timed out early, so the retry waits out exactly
        // the time that is left instead of waking on a shorter old timeout.
        let mut retry = false;
        while !bytes.is_empty() {
            let Some(left) = remaining(deadline) else {
                return Err(Error::Unavailable(format!(
                    "send to {} missed its deadline; the peer is not draining",
                    self.peer
                )));
            };
            {
                let mut set = self.timeouts.write.lock();
                if retry || set.is_none_or(|t| t > left + WRITE_TIMEOUT_SLACK) {
                    self.stream
                        .set_write_timeout(Some(left))
                        .map_err(|e| self.lost("set_write_timeout for", &e))?;
                    *set = Some(left);
                }
            }
            match self.stream.write(bytes) {
                Ok(0) => return Err(Error::Unavailable(format!("{} closed", self.peer))),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if timed_out(&e) => retry = true,
                Err(e) => return Err(self.lost("send to", &e)),
            }
        }
        Ok(())
    }

    fn recv(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> Result<usize> {
        loop {
            let timeout = match deadline {
                None => None,
                Some(deadline) => match remaining(deadline) {
                    Some(left) => Some(left),
                    None => return Ok(0),
                },
            };
            {
                let mut set = self.timeouts.read.lock();
                if *set != Some(timeout) {
                    self.stream
                        .set_read_timeout(timeout)
                        .map_err(|e| self.lost("set_read_timeout for", &e))?;
                    *set = Some(timeout);
                }
            }
            match self.stream.read(buf) {
                // A zero-byte read is EOF: the peer closed its end (or a
                // local `close` shut the socket down).
                Ok(0) => {
                    return Err(Error::Unavailable(format!(
                        "{} closed the connection",
                        self.peer
                    )))
                }
                Ok(n) => return Ok(n),
                Err(e) if timed_out(&e) => {}
                Err(e) => return Err(self.lost("recv from", &e)),
            }
        }
    }

    fn try_clone(&self) -> Result<Box<dyn Connection>> {
        let stream = self
            .stream
            .try_clone()
            .map_err(|e| Error::Io(format!("clone socket to {}: {e}", self.peer)))?;
        Ok(Box::new(TcpConn {
            peer: self.peer.clone(),
            stream,
            timeouts: Arc::clone(&self.timeouts),
        }))
    }

    fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn localhost_round_trip_through_a_kernel_socket() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_endpoint();
        assert!(addr.ends_with(|c: char| c.is_ascii_digit()));
        let mut client = transport.dial(&addr).unwrap();
        let mut server = listener.accept().unwrap();

        let soon = Instant::now() + Duration::from_secs(2);
        client.send(b"over tcp", soon).unwrap();
        let mut buf = [0u8; 16];
        let mut got = 0;
        while got < 8 {
            got += server.recv(&mut buf[got..], Some(soon)).unwrap();
        }
        assert_eq!(&buf[..8], b"over tcp");

        let now = Instant::now();
        assert_eq!(
            server.recv(&mut buf, Some(now)).unwrap(),
            0,
            "deadline passed"
        );

        drop(client);
        // The server side observes the close as Unavailable.
        assert!(server
            .recv(&mut buf, Some(soon))
            .is_err_and(|e| e.is_unavailable()));
    }

    #[test]
    fn close_wakes_a_reader_blocked_on_a_clone() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let client = transport.dial(&listener.local_endpoint()).unwrap();
        let _server = listener.accept().unwrap();
        let mut reader = client.try_clone().unwrap();
        let blocked = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            reader.recv(&mut buf, None)
        });
        std::thread::sleep(Duration::from_millis(20));
        client.close();
        assert!(blocked.join().unwrap().is_err_and(|e| e.is_unavailable()));
    }

    #[test]
    fn close_wakes_a_blocked_accept() {
        let transport = TcpTransport::new();
        let listener: std::sync::Arc<dyn Listener> =
            std::sync::Arc::from(transport.listen("127.0.0.1:0").unwrap());
        let acceptor = {
            let listener = std::sync::Arc::clone(&listener);
            std::thread::spawn(move || listener.accept().map(|_| ()))
        };
        std::thread::sleep(Duration::from_millis(20));
        listener.close();
        assert!(acceptor.join().unwrap().is_err_and(|e| e.is_unavailable()));
    }

    #[test]
    fn a_send_the_peer_never_drains_fails_at_its_deadline() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let mut client = transport.dial(&listener.local_endpoint()).unwrap();
        let _server = listener.accept().unwrap();
        // A send with a far deadline leaves a long write timeout behind;
        // a later send with a near one must still fail at *its* deadline.
        client
            .send(b"warm", Instant::now() + Duration::from_secs(10))
            .unwrap();
        let start = Instant::now();
        let flood = vec![0u8; 64 << 20];
        let result = client.send(&flood, start + Duration::from_millis(100));
        let took = start.elapsed();
        assert!(result.is_err_and(|e| e.is_unavailable()));
        assert!(
            took >= Duration::from_millis(100) && took < Duration::from_secs(2),
            "failed after {took:?}, deadline 100 ms"
        );
    }

    #[test]
    fn dialling_a_dead_port_is_unavailable() {
        let transport = TcpTransport::new();
        // Bind-then-drop to find a port nobody is listening on.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(transport.dial(&addr).is_err_and(|e| e.is_unavailable()));
    }
}
