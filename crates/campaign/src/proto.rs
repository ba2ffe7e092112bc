//! The broker/worker wire protocol: length-prefixed, versioned binary
//! frames over `std::net` TCP.
//!
//! Every frame is a fixed 20-byte header, a payload, and an 8-byte
//! FNV-1a-64 trailer over the payload bytes:
//!
//! | offset | size | field         | value                                    |
//! |--------|------|---------------|------------------------------------------|
//! | 0      | 4    | `magic`       | `"BMWQ"` (Boomerang work queue)          |
//! | 4      | 4    | `version`     | [`PROTO_VERSION`], little-endian u32     |
//! | 8      | 4    | `kind`        | the message discriminant                 |
//! | 12     | 4    | `arity`       | field count of `kind`'s payload          |
//! | 16     | 4    | `payload_len` | payload bytes following the header       |
//! | 20     | *n*  | payload       | flat little-endian fields                |
//! | 20+*n* | 8    | `frame_fnv`   | FNV-1a-64 of the payload bytes           |
//!
//! Every header field is validated on read with a field-level
//! [`ProtoError`] naming the offending field — the same discipline as the
//! artifact-cache `BMWL` header and the spec TOML parser, so a version skew
//! or a corrupted stream is a named diagnosis, not a length panic. The
//! `arity` field is the schema handshake: a peer whose `kind` grew or lost
//! a payload field is rejected *before* payload decoding, which is how a
//! mixed-version fleet fails loudly instead of misreading bytes. The
//! trailer is verified before any payload field is decoded: a frame whose
//! bytes changed in flight — a flipped bit, a partial overwrite that still
//! parses — is rejected as a whole instead of decoding plausibly into
//! wrong field values.
//!
//! Payload encoding is flat little-endian: `u32`/`u64` verbatim, `bool` as
//! one byte, strings as `u32` length + UTF-8 bytes, `u64` lists as `u32`
//! count + values. No self-description — the (version, kind, arity) triple
//! pins the layout.
//!
//! # Conversation shape
//!
//! The worker connects, sends [`Message::Hello`], and reads
//! [`Message::Welcome`]. It then loops: [`Message::LeaseRequest`] →
//! [`Message::Lease`] (run the row, reply [`Message::RowDone`], read
//! [`Message::RowAck`] / [`Message::Reject`]) or [`Message::NoWork`] (sleep
//! and retry) or [`Message::Shutdown`] (exit cleanly). The only
//! fire-and-forget frame is [`Message::Heartbeat`], written by a worker's
//! heartbeat thread between requests; the broker never replies to it, so
//! from the worker's read perspective the socket stays strict
//! request-reply.

use std::fmt;
use std::io::{self, Read, Write};

use crate::checkpoint::{fnv1a64, STAT_FIELD_COUNT};

/// Frame magic: "Boomerang work queue".
pub const PROTO_MAGIC: [u8; 4] = *b"BMWQ";

/// Wire-format version. Bump on any layout change; both ends reject a
/// mismatch field-by-field before touching the payload. Version 2 added the
/// whole-payload FNV trailer and the `RowDone` row checksum field; version 3
/// the broker-chosen heartbeat interval in `Welcome`.
pub const PROTO_VERSION: u32 = 3;

/// Bytes of the FNV-1a-64 trailer following every payload.
pub const TRAILER_LEN: usize = 8;

/// Upper bound on a frame payload (the spec TOML inside [`Message::Lease`]
/// dominates); anything larger is a corrupted or hostile length prefix.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Header size on the wire.
pub const HEADER_LEN: usize = 20;

/// A rejected frame: which header or payload field was bad, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Dotted path of the offending field.
    pub field: &'static str,
    /// What was wrong with it.
    pub message: String,
}

impl ProtoError {
    fn new(field: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            field,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// An `InvalidData` error carrying the [`ProtoError`] itself, so a caller
/// can recover the field with `get_ref().downcast_ref::<ProtoError>()`.
impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// One protocol message. See the module docs for the conversation shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Worker → broker, once per connection: identify this worker.
    Hello {
        /// The worker's self-chosen name (its `--worker-index`, stringified
        /// host, or both) — used in broker logs only.
        worker: String,
        /// The worker's process id, for log correlation.
        pid: u64,
    },
    /// Broker → worker: the handshake accept.
    Welcome {
        /// The broker's process id, so a worker log can tell broker
        /// generations apart across restarts.
        broker_pid: u64,
        /// How often to heartbeat a held lease, in milliseconds. The broker
        /// derives it from its own lease timeout, so every worker beats
        /// often enough to keep its leases alive.
        heartbeat_ms: u64,
    },
    /// Worker → broker: ask for one job lease.
    LeaseRequest,
    /// Broker → worker: one leased job.
    Lease {
        /// Lease id — quote it in `Heartbeat` and `RowDone`.
        lease: u64,
        /// Canonical job index into the spec's expansion.
        job: u64,
        /// Whether the campaign runs at smoke length.
        smoke: bool,
        /// The campaign's spec hash; the worker recomputes and must match.
        spec_hash: String,
        /// The spec's canonical TOML (the worker caches it by hash, so the
        /// string cost is paid once per campaign per connection).
        spec_toml: String,
    },
    /// Broker → worker: nothing leasable right now; retry after a delay.
    NoWork {
        /// Suggested retry delay.
        retry_ms: u64,
    },
    /// Worker → broker, fire-and-forget: the lease is alive.
    Heartbeat {
        /// The lease being refreshed.
        lease: u64,
    },
    /// Worker → broker: a completed row.
    RowDone {
        /// The lease this row ran under (an expired lease is still
        /// accepted if the job is undone — the work is real).
        lease: u64,
        /// Canonical job index.
        job: u64,
        /// The spec hash the worker ran against.
        spec_hash: String,
        /// The mechanism token of the executed job (cross-check).
        mechanism: String,
        /// The seed of the executed job (cross-check).
        seed: u64,
        /// The row checksum ([`crate::checkpoint`]'s canonical
        /// `index|mechanism|seed|stats` FNV-1a-64), computed by the worker
        /// over the stats it actually measured. The broker recomputes it
        /// from the received fields before journaling, so a row corrupted
        /// between simulation and journal append can never be recorded.
        row_fnv: u64,
        /// The stat counters in canonical journal column order
        /// (one value per journal stat column).
        stats: Vec<u64>,
    },
    /// Broker → worker: the row was journaled (or was already done — the
    /// dedup path acks too, so retransmission is invisible to the worker).
    RowAck {
        /// The acked job index.
        job: u64,
    },
    /// Broker → worker: the row was refused (stale spec hash, bad index,
    /// cross-check mismatch). The worker logs and drops the lease.
    Reject {
        /// Human-readable refusal.
        reason: String,
    },
    /// Broker → worker: drain and exit cleanly (exit code 0).
    Shutdown {
        /// Why the broker is closing shop.
        reason: String,
    },
}

/// (name, payload field count) of every message kind; kind `k` is entry
/// `k - 1`.
const KINDS: [(&str, u32); 10] = [
    ("Hello", 2),
    ("Welcome", 2),
    ("LeaseRequest", 0),
    ("Lease", 5),
    ("NoWork", 1),
    ("Heartbeat", 1),
    ("RowDone", 7),
    ("RowAck", 1),
    ("Reject", 1),
    ("Shutdown", 1),
];

/// The (name, payload field count) of message kind `kind`, if it is one.
fn kind_entry(kind: u32) -> Option<(&'static str, u32)> {
    let index = (kind as usize).checked_sub(1)?;
    KINDS.get(index).copied()
}

/// The kind discriminant of a message.
fn kind_of(msg: &Message) -> u32 {
    match msg {
        Message::Hello { .. } => 1,
        Message::Welcome { .. } => 2,
        Message::LeaseRequest => 3,
        Message::Lease { .. } => 4,
        Message::NoWork { .. } => 5,
        Message::Heartbeat { .. } => 6,
        Message::RowDone { .. } => 7,
        Message::RowAck { .. } => 8,
        Message::Reject { .. } => 9,
        Message::Shutdown { .. } => 10,
    }
}

// ---- payload writers ----------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    put_u32(out, values.len() as u32);
    for &v in values {
        put_u64(out, v);
    }
}

// ---- payload reader -----------------------------------------------------

/// Cursor over a payload with field-named underrun errors.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtoError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len());
        let Some(end) = end else {
            return Err(ProtoError::new(
                field,
                format!(
                    "payload underrun: need {n} bytes at offset {}, have {}",
                    self.at,
                    self.bytes.len().saturating_sub(self.at)
                ),
            ));
        };
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtoError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtoError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, ProtoError> {
        match self.take(1, field)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtoError::new(field, format!("bad bool byte {other}"))),
        }
    }

    fn string(&mut self, field: &'static str) -> Result<String, ProtoError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::new(field, "string is not UTF-8"))
    }

    /// A `u32` count, then that many `u64`s. The list's bytes are taken
    /// before anything is allocated for it, so a forged count fails as an
    /// underrun instead of reserving memory the payload cannot fill.
    fn u64s(&mut self, field: &'static str) -> Result<Vec<u64>, ProtoError> {
        let count = self.u32(field)? as usize;
        let len = count
            .checked_mul(8)
            .ok_or_else(|| ProtoError::new(field, format!("list count {count} too large")))?;
        let bytes = self.take(len, field)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }

    fn finish(self, field: &'static str) -> Result<(), ProtoError> {
        if self.at != self.bytes.len() {
            return Err(ProtoError::new(
                field,
                format!(
                    "{} trailing payload bytes after the last field",
                    self.bytes.len() - self.at
                ),
            ));
        }
        Ok(())
    }
}

// ---- frame encode / decode ----------------------------------------------

/// Serialises one message into a complete frame (header + payload + FNV
/// trailer).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    match msg {
        Message::Hello { worker, pid } => {
            put_str(&mut payload, worker);
            put_u64(&mut payload, *pid);
        }
        Message::Welcome {
            broker_pid,
            heartbeat_ms,
        } => {
            put_u64(&mut payload, *broker_pid);
            put_u64(&mut payload, *heartbeat_ms);
        }
        Message::LeaseRequest => {}
        Message::Lease {
            lease,
            job,
            smoke,
            spec_hash,
            spec_toml,
        } => {
            put_u64(&mut payload, *lease);
            put_u64(&mut payload, *job);
            put_bool(&mut payload, *smoke);
            put_str(&mut payload, spec_hash);
            put_str(&mut payload, spec_toml);
        }
        Message::NoWork { retry_ms } => put_u64(&mut payload, *retry_ms),
        Message::Heartbeat { lease } => put_u64(&mut payload, *lease),
        Message::RowDone {
            lease,
            job,
            spec_hash,
            mechanism,
            seed,
            row_fnv,
            stats,
        } => {
            put_u64(&mut payload, *lease);
            put_u64(&mut payload, *job);
            put_str(&mut payload, spec_hash);
            put_str(&mut payload, mechanism);
            put_u64(&mut payload, *seed);
            put_u64(&mut payload, *row_fnv);
            put_u64s(&mut payload, stats);
        }
        Message::RowAck { job } => put_u64(&mut payload, *job),
        Message::Reject { reason } => put_str(&mut payload, reason),
        Message::Shutdown { reason } => put_str(&mut payload, reason),
    }
    let kind = kind_of(msg);
    let (_, arity) = kind_entry(kind).expect("every message has a kind");
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    frame.extend_from_slice(&PROTO_MAGIC);
    put_u32(&mut frame, PROTO_VERSION);
    put_u32(&mut frame, kind);
    put_u32(&mut frame, arity);
    put_u32(&mut frame, payload.len() as u32);
    frame.extend_from_slice(&payload);
    put_u64(&mut frame, fnv1a64(&payload));
    frame
}

/// A validated frame header: the message kind and its payload length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The message discriminant (already known valid).
    pub kind: u32,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

/// Validates a 20-byte header field by field.
pub fn parse_header(bytes: &[u8; HEADER_LEN]) -> Result<Header, ProtoError> {
    if bytes[0..4] != PROTO_MAGIC {
        return Err(ProtoError::new(
            "header.magic",
            format!("expected \"BMWQ\", found {:?}", &bytes[0..4]),
        ));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != PROTO_VERSION {
        return Err(ProtoError::new(
            "header.version",
            format!("peer speaks version {version}, this end speaks {PROTO_VERSION}"),
        ));
    }
    let kind = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let Some((name, expected)) = kind_entry(kind) else {
        return Err(ProtoError::new(
            "header.kind",
            format!("unknown message kind {kind}"),
        ));
    };
    let arity = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    if arity != expected {
        return Err(ProtoError::new(
            "header.arity",
            format!("{name} carries {expected} field(s), peer declared {arity} — version skew"),
        ));
    }
    let payload_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(ProtoError::new(
            "header.payload_len",
            format!("{payload_len} bytes exceeds the {MAX_PAYLOAD}-byte frame bound"),
        ));
    }
    Ok(Header { kind, payload_len })
}

/// Decodes a validated header's payload into a message.
pub fn decode(kind: u32, payload: &[u8]) -> Result<Message, ProtoError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        1 => Message::Hello {
            worker: r.string("hello.worker")?,
            pid: r.u64("hello.pid")?,
        },
        2 => Message::Welcome {
            broker_pid: r.u64("welcome.broker_pid")?,
            heartbeat_ms: r.u64("welcome.heartbeat_ms")?,
        },
        3 => Message::LeaseRequest,
        4 => Message::Lease {
            lease: r.u64("lease.lease")?,
            job: r.u64("lease.job")?,
            smoke: r.bool("lease.smoke")?,
            spec_hash: r.string("lease.spec_hash")?,
            spec_toml: r.string("lease.spec_toml")?,
        },
        5 => Message::NoWork {
            retry_ms: r.u64("no_work.retry_ms")?,
        },
        6 => Message::Heartbeat {
            lease: r.u64("heartbeat.lease")?,
        },
        7 => {
            let msg = Message::RowDone {
                lease: r.u64("row_done.lease")?,
                job: r.u64("row_done.job")?,
                spec_hash: r.string("row_done.spec_hash")?,
                mechanism: r.string("row_done.mechanism")?,
                seed: r.u64("row_done.seed")?,
                row_fnv: r.u64("row_done.row_fnv")?,
                stats: r.u64s("row_done.stats")?,
            };
            if let Message::RowDone { ref stats, .. } = msg {
                if stats.len() != STAT_FIELD_COUNT {
                    return Err(ProtoError::new(
                        "row_done.stats",
                        format!(
                            "expected {STAT_FIELD_COUNT} stat counters, found {}",
                            stats.len()
                        ),
                    ));
                }
            }
            msg
        }
        8 => Message::RowAck {
            job: r.u64("row_ack.job")?,
        },
        9 => Message::Reject {
            reason: r.string("reject.reason")?,
        },
        10 => Message::Shutdown {
            reason: r.string("shutdown.reason")?,
        },
        _ => unreachable!("validated kind"),
    };
    r.finish("payload")?;
    Ok(msg)
}

/// Writes one frame and flushes it.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    w.write_all(&encode(msg))?;
    w.flush()
}

/// Reads one frame: header (validated field by field), then payload, then
/// the FNV trailer (verified before any field is decoded), then decode.
/// Header/trailer/payload validation failures surface as
/// `io::ErrorKind::InvalidData` wrapping the [`ProtoError`] text; transport
/// failures (EOF, reset, timeout) pass through untouched so callers can
/// tell a dead peer from a corrupt one.
pub fn read_message<R: Read>(r: &mut R) -> io::Result<Message> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = parse_header(&header)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; TRAILER_LEN];
    r.read_exact(&mut trailer)?;
    let declared = u64::from_le_bytes(trailer);
    let computed = fnv1a64(&payload);
    if declared != computed {
        return Err(ProtoError::new(
            "frame.frame_fnv",
            format!(
                "payload hashes to {computed:016x}, trailer says {declared:016x} — \
                 the frame was damaged in flight"
            ),
        )
        .into());
    }
    Ok(decode(header.kind, &payload)?)
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                worker: "worker-3".into(),
                pid: 4242,
            },
            Message::Welcome {
                broker_pid: 99,
                heartbeat_ms: 500,
            },
            Message::LeaseRequest,
            Message::Lease {
                lease: 7,
                job: 11,
                smoke: true,
                spec_hash: "fnv1a64:0123456789abcdef".into(),
                spec_toml: "name = \"x\"\n".into(),
            },
            Message::NoWork { retry_ms: 250 },
            Message::Heartbeat { lease: 7 },
            Message::RowDone {
                lease: 7,
                job: 11,
                spec_hash: "fnv1a64:0123456789abcdef".into(),
                mechanism: "boomerang".into(),
                seed: 1,
                row_fnv: 0xfeed_beef_dead_cafe,
                stats: (0..STAT_FIELD_COUNT as u64).collect(),
            },
            Message::RowAck { job: 11 },
            Message::Reject {
                reason: "stale spec hash".into(),
            },
            Message::Shutdown {
                reason: "queue drained".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips_through_a_stream() {
        let messages = all_messages();
        let mut stream = Vec::new();
        for msg in &messages {
            write_message(&mut stream, msg).unwrap();
        }
        let mut cursor = &stream[..];
        for msg in &messages {
            assert_eq!(&read_message(&mut cursor).unwrap(), msg);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn header_fields_are_validated_individually() {
        let frame = encode(&Message::LeaseRequest);
        let header: [u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().unwrap();

        let mut bad = header;
        bad[0] = b'X';
        assert_eq!(parse_header(&bad).unwrap_err().field, "header.magic");

        let mut bad = header;
        bad[4..8].copy_from_slice(&(PROTO_VERSION + 1).to_le_bytes());
        assert_eq!(parse_header(&bad).unwrap_err().field, "header.version");

        let mut bad = header;
        bad[8..12].copy_from_slice(&999u32.to_le_bytes());
        assert_eq!(parse_header(&bad).unwrap_err().field, "header.kind");

        let mut bad = header;
        bad[12..16].copy_from_slice(&7u32.to_le_bytes());
        let err = parse_header(&bad).unwrap_err();
        assert_eq!(err.field, "header.arity");
        assert!(err.message.contains("version skew"), "{err}");

        let mut bad = header;
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(parse_header(&bad).unwrap_err().field, "header.payload_len");

        assert!(parse_header(&header).is_ok());
    }

    /// The payload bytes of an encoded frame (between header and trailer).
    fn payload_of(frame: &[u8]) -> &[u8] {
        &frame[HEADER_LEN..frame.len() - TRAILER_LEN]
    }

    #[test]
    fn payload_underrun_and_trailing_bytes_are_named() {
        let frame = encode(&Message::Welcome {
            broker_pid: 1,
            heartbeat_ms: 500,
        });
        let header = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let payload = payload_of(&frame);

        let err = decode(header.kind, &payload[..4]).unwrap_err();
        assert_eq!(err.field, "welcome.broker_pid");
        assert!(err.message.contains("underrun"), "{err}");
        let err = decode(header.kind, &payload[..12]).unwrap_err();
        assert_eq!(err.field, "welcome.heartbeat_ms");
        assert!(err.message.contains("underrun"), "{err}");

        let mut long = payload.to_vec();
        long.push(0);
        let err = decode(header.kind, &long).unwrap_err();
        assert_eq!(err.field, "payload");
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn row_done_stat_arity_is_enforced() {
        let msg = Message::RowDone {
            lease: 1,
            job: 2,
            spec_hash: "h".into(),
            mechanism: "fdip".into(),
            seed: 0,
            row_fnv: 1,
            stats: vec![0; STAT_FIELD_COUNT - 1],
        };
        let frame = encode(&msg);
        let header = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let err = decode(header.kind, payload_of(&frame)).unwrap_err();
        assert_eq!(err.field, "row_done.stats");
    }

    #[test]
    fn a_forged_stat_count_fails_before_allocating() {
        let frame = encode(&Message::RowDone {
            lease: 1,
            job: 2,
            spec_hash: "h".into(),
            mechanism: "x".into(),
            seed: 0,
            row_fnv: 0,
            stats: Vec::new(),
        });
        let header = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let mut payload = payload_of(&frame).to_vec();
        assert_eq!(payload.len(), 46);
        payload[42..].copy_from_slice(&2_000_000u32.to_le_bytes());
        let err = decode(header.kind, &payload).unwrap_err();
        assert_eq!(err.field, "row_done.stats");
        assert!(err.message.contains("need 16000000 bytes"), "{err}");
    }

    #[test]
    fn non_utf8_strings_and_bad_bools_are_rejected() {
        let mut frame = encode(&Message::Reject {
            reason: "ascii".into(),
        });
        // Corrupt the last *payload* byte into an invalid UTF-8 lead byte.
        let at = frame.len() - TRAILER_LEN - 1;
        frame[at] = 0xFF;
        let header = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let err = decode(header.kind, payload_of(&frame)).unwrap_err();
        assert_eq!(err.field, "reject.reason");
        assert!(err.message.contains("UTF-8"), "{err}");

        let mut frame = encode(&Message::Lease {
            lease: 1,
            job: 2,
            smoke: false,
            spec_hash: String::new(),
            spec_toml: String::new(),
        });
        frame[HEADER_LEN + 16] = 7; // the bool byte
        let header = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        let err = decode(header.kind, payload_of(&frame)).unwrap_err();
        assert_eq!(err.field, "lease.smoke");
    }

    #[test]
    fn flipped_frame_bytes_fail_the_trailer_check() {
        // A flipped payload byte: the frame still parses as a frame, but the
        // trailer no longer matches — rejected before any field is decoded.
        let msg = Message::RowDone {
            lease: 3,
            job: 5,
            spec_hash: "fnv1a64:0123456789abcdef".into(),
            mechanism: "fdip".into(),
            seed: 2,
            row_fnv: 77,
            stats: (0..STAT_FIELD_COUNT as u64).collect(),
        };
        let mut frame = encode(&msg);
        let at = HEADER_LEN + 30; // somewhere inside a stat value
        frame[at] ^= 0x01;
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame.frame_fnv"), "{err}");

        // A flipped trailer byte is caught the same way.
        let mut frame = encode(&msg);
        let last = frame.len() - 1;
        frame[last] ^= 0x80;
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(err.to_string().contains("frame.frame_fnv"), "{err}");

        // And the clean frame still reads back.
        let frame = encode(&msg);
        assert_eq!(read_message(&mut &frame[..]).unwrap(), msg);
    }

    #[test]
    fn welcome_round_trips_the_heartbeat_interval() {
        let welcome = Message::Welcome {
            broker_pid: 7,
            heartbeat_ms: 1_250,
        };
        let frame = encode(&welcome);
        assert_eq!(read_message(&mut &frame[..]).unwrap(), welcome);
        // A version-2 broker's Welcome carries no interval: the header
        // version rejects it before any payload field is read.
        let mut old = frame;
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = read_message(&mut &old[..]).unwrap_err();
        assert!(err.to_string().contains("header.version"), "{err}");
    }

    #[test]
    fn handshake_version_and_arity_skew_are_named_on_read() {
        // A peer built against protocol version 1 sends its Hello: this end
        // must reject it naming `header.version` before touching the
        // payload — and symmetrically for a Welcome, so both ends of the
        // handshake fail loudly on a mixed-version fleet.
        for msg in [
            Message::Hello {
                worker: "w0".into(),
                pid: 1,
            },
            Message::Welcome {
                broker_pid: 2,
                heartbeat_ms: 500,
            },
        ] {
            let mut frame = encode(&msg);
            frame[4..8].copy_from_slice(&1u32.to_le_bytes());
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("header.version"), "{err}");

            // Same binary version, but the frame declares one field too
            // many — the schema handshake names `header.arity`.
            let mut frame = encode(&msg);
            let arity = u32::from_le_bytes(frame[12..16].try_into().unwrap());
            frame[12..16].copy_from_slice(&(arity + 1).to_le_bytes());
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("header.arity"), "{err}");
            assert!(err.to_string().contains("version skew"), "{err}");
        }
    }

    #[test]
    fn truncated_stream_is_a_transport_error_not_invalid_data() {
        let frame = encode(&Message::Heartbeat { lease: 1 });
        let mut cursor = &frame[..frame.len() - 3];
        let err = read_message(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
