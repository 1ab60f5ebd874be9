//! The binary codec for every TKNP message.
//!
//! Each wire payload is one [`Envelope`]: a request id (echoed verbatim in
//! the response so the client's session manager can match replies to pending
//! callers) and a tagged [`Message`].  The codec is hand-rolled on the same
//! [`bytes`] idiom as the storage log codec, and reuses the storage encoders
//! for the structured types (writesets, versions) so the wire format and the
//! on-disk format agree on those layouts.
//!
//! Every decoder returns [`Error::Corruption`] on truncation and
//! [`Error::Protocol`] on an unknown message tag — nothing in this module
//! panics on attacker-shaped bytes.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use tashkent_certifier::{
    CertificationDecision, CertificationRequest, CertificationResponse, RemoteWriteSet,
};
use tashkent_common::{Error, ReplicaId, Result, Version};
use tashkent_storage::codec::{
    decode_version, decode_writeset, encode_version, encode_writeset,
};

/// Checks that at least `needed` bytes remain in the buffer.
fn need(buf: &impl Buf, needed: usize, what: &str) -> Result<()> {
    if buf.remaining() < needed {
        return Err(Error::Corruption(format!(
            "truncated {what}: need {needed} bytes, {} remaining",
            buf.remaining()
        )));
    }
    Ok(())
}

fn encode_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn decode_string(buf: &mut Bytes, what: &str) -> Result<String> {
    need(buf, 4, what)?;
    let len = buf.get_u32() as usize;
    need(buf, len, what)?;
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec())
        .map_err(|_| Error::Corruption(format!("invalid utf-8 in {what}")))
}

/// The peer index in a `replica-N` style node name (the `Hello` name), for
/// event-journal correlation; anything else gets the "no node" sentinel.
pub(crate) fn node_index(node: &str) -> usize {
    node.rsplit('-')
        .next()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(usize::from(u16::MAX))
}

/// One wire payload: a request id plus the message it carries.
///
/// Requests choose a fresh id; responses echo the request's id.  Unsolicited
/// messages (e.g. [`Message::Goodbye`]) use id `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Correlates a response with its pending request.
    pub request_id: u64,
    /// The message itself.
    pub message: Message,
}

/// Every message of the TKNP protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session handshake: the first message on every new connection.
    Hello {
        /// The dialling node's name (e.g. `replica-1`), for the server's
        /// session table and event journal.
        node: String,
    },
    /// Handshake acknowledgement; the session is established once received.
    HelloAck {
        /// The answering node's name (e.g. `certifier`).
        node: String,
    },
    /// A replica asks the certifier to certify an update transaction.
    CertifyRequest(CertificationRequest),
    /// The certifier's decision, with the piggy-backed remote writesets.
    CertifyDecision(CertificationResponse),
    /// A replica pulls the remote-writeset stream after `since`.
    FetchWritesets {
        /// Stream position: return writesets committed strictly after this.
        since: Version,
    },
    /// The writeset stream answering a fetch.
    WritesetBatch {
        /// Writesets in ascending global commit-version order.
        writesets: Vec<RemoteWriteSet>,
    },
    /// A replica polls the certifier's liveness and log positions.
    StatusRequest,
    /// The certifier's positions, answering a status poll.
    StatusResponse {
        /// The global system version.
        system_version: Version,
        /// The log truncation floor (recovery refuses to start below it).
        truncation_floor: Version,
        /// `true` if certification can currently make progress.
        available: bool,
    },
    /// Keep-alive probe.
    Ping,
    /// Keep-alive answer.
    Pong,
    /// Graceful close: the sender will not issue further requests and will
    /// drop the connection once in-flight responses have drained.
    Goodbye,
    /// A request failed on the server; carries enough to rebuild the error
    /// client-side.
    ErrorReply {
        /// `true` when the failure maps to [`Error::Unavailable`] (the
        /// caller may retry after the cluster heals); `false` for
        /// certification aborts and other typed failures.
        unavailable: bool,
        /// Human-readable detail.
        detail: String,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0,
            Message::HelloAck { .. } => 1,
            Message::CertifyRequest(_) => 2,
            Message::CertifyDecision(_) => 3,
            Message::FetchWritesets { .. } => 4,
            Message::WritesetBatch { .. } => 5,
            Message::StatusRequest => 6,
            Message::StatusResponse { .. } => 7,
            // Tags 8 and 9 are retired (they carried a state transfer) and
            // stay unassigned, so every other frame keeps its bytes.
            Message::Ping => 10,
            Message::Pong => 11,
            Message::Goodbye => 12,
            Message::ErrorReply { .. } => 13,
        }
    }

    /// A short label for logs and traces.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello_ack",
            Message::CertifyRequest(_) => "certify_request",
            Message::CertifyDecision(_) => "certify_decision",
            Message::FetchWritesets { .. } => "fetch_writesets",
            Message::WritesetBatch { .. } => "writeset_batch",
            Message::StatusRequest => "status_request",
            Message::StatusResponse { .. } => "status_response",
            Message::Ping => "ping",
            Message::Pong => "pong",
            Message::Goodbye => "goodbye",
            Message::ErrorReply { .. } => "error_reply",
        }
    }
}

fn encode_remote_writeset(buf: &mut BytesMut, remote: &RemoteWriteSet) {
    encode_version(buf, remote.commit_version);
    encode_version(buf, remote.conflict_free_to);
    encode_writeset(buf, &remote.writeset);
}

fn decode_remote_writeset(buf: &mut Bytes) -> Result<RemoteWriteSet> {
    let commit_version = decode_version(buf)?;
    let conflict_free_to = decode_version(buf)?;
    let writeset = decode_writeset(buf)?;
    Ok(RemoteWriteSet {
        commit_version,
        writeset: Arc::new(writeset),
        conflict_free_to,
    })
}

fn encode_decision(buf: &mut BytesMut, decision: &CertificationDecision) {
    match decision {
        CertificationDecision::Commit => buf.put_u8(0),
        CertificationDecision::Abort { reason, forced } => {
            buf.put_u8(1);
            buf.put_u8(u8::from(*forced));
            encode_string(buf, reason);
        }
    }
}

fn decode_decision(buf: &mut Bytes) -> Result<CertificationDecision> {
    need(buf, 1, "decision tag")?;
    match buf.get_u8() {
        0 => Ok(CertificationDecision::Commit),
        1 => {
            need(buf, 1, "abort flags")?;
            let forced = buf.get_u8() != 0;
            let reason = decode_string(buf, "abort reason")?;
            Ok(CertificationDecision::Abort { reason, forced })
        }
        other => Err(Error::Corruption(format!("unknown decision tag {other}"))),
    }
}

/// Encodes one [`Envelope`] into `buf`.
pub fn encode_message(buf: &mut BytesMut, envelope: &Envelope) {
    buf.put_u64(envelope.request_id);
    buf.put_u8(envelope.message.tag());
    match &envelope.message {
        Message::Hello { node } | Message::HelloAck { node } => encode_string(buf, node),
        Message::CertifyRequest(request) => {
            buf.put_u32(request.replica.value());
            encode_version(buf, request.start_version);
            encode_version(buf, request.replica_version);
            encode_writeset(buf, &request.writeset);
        }
        Message::CertifyDecision(response) => {
            encode_decision(buf, &response.decision);
            match response.commit_version {
                Some(v) => {
                    buf.put_u8(1);
                    encode_version(buf, v);
                }
                None => buf.put_u8(0),
            }
            encode_version(buf, response.system_version);
            buf.put_u32(response.remote_writesets.len() as u32);
            for remote in &response.remote_writesets {
                encode_remote_writeset(buf, remote);
            }
        }
        Message::FetchWritesets { since } => encode_version(buf, *since),
        Message::WritesetBatch { writesets } => {
            buf.put_u32(writesets.len() as u32);
            for remote in writesets {
                encode_remote_writeset(buf, remote);
            }
        }
        Message::StatusRequest | Message::Ping | Message::Pong | Message::Goodbye => {}
        Message::StatusResponse {
            system_version,
            truncation_floor,
            available,
        } => {
            encode_version(buf, *system_version);
            encode_version(buf, *truncation_floor);
            buf.put_u8(u8::from(*available));
        }
        Message::ErrorReply {
            unavailable,
            detail,
        } => {
            buf.put_u8(u8::from(*unavailable));
            encode_string(buf, detail);
        }
    }
}

/// Decodes one [`Envelope`] from `buf`.
///
/// # Errors
///
/// [`Error::Corruption`] on truncation or malformed fields;
/// [`Error::Protocol`] on an unknown message tag.
pub fn decode_message(buf: &mut Bytes) -> Result<Envelope> {
    need(buf, 9, "envelope header")?;
    let request_id = buf.get_u64();
    let tag = buf.get_u8();
    let message = match tag {
        0 => Message::Hello {
            node: decode_string(buf, "hello node name")?,
        },
        1 => Message::HelloAck {
            node: decode_string(buf, "hello-ack node name")?,
        },
        2 => {
            need(buf, 4, "certify replica id")?;
            let replica = ReplicaId(buf.get_u32());
            let start_version = decode_version(buf)?;
            let replica_version = decode_version(buf)?;
            let writeset = decode_writeset(buf)?;
            Message::CertifyRequest(CertificationRequest {
                replica,
                start_version,
                writeset,
                replica_version,
            })
        }
        3 => {
            let decision = decode_decision(buf)?;
            need(buf, 1, "commit-version flag")?;
            let commit_version = if buf.get_u8() != 0 {
                Some(decode_version(buf)?)
            } else {
                None
            };
            let system_version = decode_version(buf)?;
            need(buf, 4, "remote-writeset count")?;
            let count = buf.get_u32() as usize;
            let mut remote_writesets = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                remote_writesets.push(decode_remote_writeset(buf)?);
            }
            Message::CertifyDecision(CertificationResponse {
                decision,
                commit_version,
                remote_writesets,
                system_version,
            })
        }
        4 => Message::FetchWritesets {
            since: decode_version(buf)?,
        },
        5 => {
            need(buf, 4, "writeset-batch count")?;
            let count = buf.get_u32() as usize;
            let mut writesets = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                writesets.push(decode_remote_writeset(buf)?);
            }
            Message::WritesetBatch { writesets }
        }
        6 => Message::StatusRequest,
        7 => {
            let system_version = decode_version(buf)?;
            let truncation_floor = decode_version(buf)?;
            need(buf, 1, "availability flag")?;
            Message::StatusResponse {
                system_version,
                truncation_floor,
                available: buf.get_u8() != 0,
            }
        }
        10 => Message::Ping,
        11 => Message::Pong,
        12 => Message::Goodbye,
        13 => {
            need(buf, 1, "error flags")?;
            let unavailable = buf.get_u8() != 0;
            let detail = decode_string(buf, "error detail")?;
            Message::ErrorReply {
                unavailable,
                detail,
            }
        }
        other => {
            return Err(Error::Protocol(format!("unknown message tag {other}")));
        }
    };
    Ok(Envelope {
        request_id,
        message,
    })
}

/// Convenience: encodes an envelope straight into a complete wire frame.
#[must_use]
pub fn to_frame(envelope: &Envelope) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64);
    encode_message(&mut buf, envelope);
    crate::frame::encode_frame(&buf)
}

#[cfg(test)]
mod tests {
    use tashkent_common::{TableId, Value, WriteItem, WriteSet};

    use super::*;

    fn sample_ws() -> WriteSet {
        WriteSet::from_items(vec![
            WriteItem::update(TableId(1), 7, vec![("a".into(), Value::Int(1))]),
            WriteItem::update(TableId(2), 9, vec![("b".into(), Value::Text("x".into()))]),
        ])
    }

    fn round_trip(message: Message) {
        let envelope = Envelope {
            request_id: 42,
            message,
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &envelope);
        let mut bytes = buf.freeze();
        let decoded = decode_message(&mut bytes).unwrap();
        assert_eq!(decoded, envelope);
        assert_eq!(bytes.remaining(), 0, "codec must consume what it wrote");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Message::Hello {
            node: "replica-1".into(),
        });
        round_trip(Message::HelloAck {
            node: "certifier".into(),
        });
        round_trip(Message::CertifyRequest(CertificationRequest {
            replica: ReplicaId(3),
            start_version: Version(10),
            writeset: sample_ws(),
            replica_version: Version(8),
        }));
        round_trip(Message::CertifyDecision(CertificationResponse {
            decision: CertificationDecision::Abort {
                reason: "conflict at v11".into(),
                forced: true,
            },
            commit_version: None,
            remote_writesets: vec![RemoteWriteSet {
                commit_version: Version(11),
                writeset: Arc::new(sample_ws()),
                conflict_free_to: Version(9),
            }],
            system_version: Version(11),
        }));
        round_trip(Message::FetchWritesets { since: Version(5) });
        round_trip(Message::WritesetBatch { writesets: vec![] });
        round_trip(Message::StatusRequest);
        round_trip(Message::StatusResponse {
            system_version: Version(9),
            truncation_floor: Version(2),
            available: true,
        });
        round_trip(Message::Ping);
        round_trip(Message::Pong);
        round_trip(Message::Goodbye);
        round_trip(Message::ErrorReply {
            unavailable: true,
            detail: "majority lost".into(),
        });
    }

    #[test]
    fn unknown_tag_is_a_protocol_error() {
        // 8 and 9 are the retired state-transfer tags.
        for tag in [8u8, 9, 200] {
            let mut buf = BytesMut::new();
            buf.put_u64(1);
            buf.put_u8(tag);
            let mut bytes = buf.freeze();
            assert!(
                matches!(decode_message(&mut bytes), Err(Error::Protocol(_))),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn truncation_is_corruption_for_every_prefix() {
        let envelope = Envelope {
            request_id: 7,
            message: Message::CertifyRequest(CertificationRequest {
                replica: ReplicaId(0),
                start_version: Version(1),
                writeset: sample_ws(),
                replica_version: Version(1),
            }),
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &envelope);
        let full: Vec<u8> = buf.freeze().to_vec();
        for cut in 0..full.len() {
            let mut bytes = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                matches!(decode_message(&mut bytes), Err(Error::Corruption(_))),
                "prefix of {cut} bytes must decode as corruption"
            );
        }
    }
}
