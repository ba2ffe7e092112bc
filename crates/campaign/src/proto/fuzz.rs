//! A deterministic, structure-aware fuzzer for [`read_message`], the
//! decoder that faces the network.
//!
//! One SplitMix64 stream mutates the encoded frames of every message kind:
//! bit flips, truncations, forged `kind`, `arity` and `payload_len` header
//! fields, a frame relabelled as another kind with that kind's arity,
//! forged string and list lengths written where the payload puts them, and
//! payload bytes inserted or deleted under a corrected `payload_len`. Half
//! of the mutants then get their trailer recomputed over the payload the
//! header declares, so the payload decoder is reached and not only the
//! trailer check. Every mutant must read as a message that re-encodes to
//! exactly the bytes it was read from, as `UnexpectedEof` (a frame cut
//! short is a transport failure), or as an `InvalidData` error carrying the
//! [`ProtoError`] that names its field; a panic fails the test with the
//! mutant that caused it.

use super::*;
use crate::splitmix::SplitMix;
use std::collections::BTreeMap;

/// Every message kind, with empty, multi-byte and realistic strings.
fn corpus() -> Vec<Message> {
    let spec_toml = crate::presets::find("figure9")
        .expect("figure9 preset")
        .to_toml_string();
    vec![
        Message::Hello {
            worker: "worker-3".into(),
            pid: 4242,
        },
        Message::Hello {
            worker: String::new(),
            pid: u64::MAX,
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
            spec_toml,
        },
        Message::Lease {
            lease: 0,
            job: 0,
            smoke: false,
            spec_hash: String::new(),
            spec_toml: "name = \"é\"\n".into(),
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
            stats: (0..STAT_FIELD_COUNT as u64).map(|v| v << 33).collect(),
        },
        Message::RowAck { job: 11 },
        Message::Reject {
            reason: "stale spec hash".into(),
        },
        Message::Shutdown {
            reason: "queue drained — bye".into(),
        },
    ]
}

/// Payload offsets of `msg`'s `u32` length prefixes: its strings and its
/// stat list.
fn length_prefixes(msg: &Message) -> Vec<usize> {
    match msg {
        Message::Hello { .. } | Message::Reject { .. } | Message::Shutdown { .. } => vec![0],
        // lease, job (8 bytes each) and the smoke byte come first.
        Message::Lease { spec_hash, .. } => vec![17, 17 + 4 + spec_hash.len()],
        Message::RowDone {
            spec_hash,
            mechanism,
            ..
        } => {
            let mechanism_at = 16 + 4 + spec_hash.len();
            // seed and row_fnv sit between the mechanism and the stats.
            vec![16, mechanism_at, mechanism_at + 4 + mechanism.len() + 16]
        }
        _ => Vec::new(),
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// A value worth forging into a `u32` length or header field holding
/// `current`.
fn forged(rng: &mut SplitMix, current: u32) -> u32 {
    match rng.below(10) {
        0 => 0,
        1 => 1,
        2 => u32::MAX,
        3 => current.wrapping_add(1),
        4 => current.wrapping_sub(1),
        5 => current.wrapping_mul(2),
        6 => MAX_PAYLOAD,
        7 => MAX_PAYLOAD + 1,
        8 => rng.below(64) as u32,
        _ => rng.next() as u32,
    }
}

/// Overwrites the `u32` at `at` with a forged value and says what it wrote.
fn forge(frame: &mut [u8], rng: &mut SplitMix, what: &str, at: usize) -> String {
    if at + 4 > frame.len() {
        return format!("{what} at {at} truncated away");
    }
    let value = forged(rng, u32_at(frame, at));
    frame[at..at + 4].copy_from_slice(&value.to_le_bytes());
    format!("{what} at {at} := {value}")
}

/// Applies one mutation to `frame` (the encoding of a message whose payload
/// length prefixes sit at `prefixes`) and says what it was.
fn mutate(frame: &mut Vec<u8>, prefixes: &[usize], rng: &mut SplitMix) -> String {
    let payload_end = frame.len().saturating_sub(TRAILER_LEN).max(HEADER_LEN);
    match rng.below(7) {
        0 => {
            let at = rng.index(frame.len());
            let bit = rng.below(8);
            frame[at] ^= 1 << bit;
            format!("flip bit {bit} of byte {at}")
        }
        1 => {
            let len = rng.index(frame.len());
            frame.truncate(len);
            format!("truncate to {len} bytes")
        }
        2 => {
            let (what, at) = [("kind", 8), ("arity", 12), ("payload_len", 16)][rng.index(3)];
            forge(frame, rng, what, at)
        }
        3 if frame.len() >= HEADER_LEN => {
            // Another kind with a matching arity: the payload decodes under
            // the wrong schema.
            let kind = 1 + rng.index(KINDS.len());
            frame[8..12].copy_from_slice(&(kind as u32).to_le_bytes());
            frame[12..16].copy_from_slice(&KINDS[kind - 1].1.to_le_bytes());
            format!("relabel as {}", KINDS[kind - 1].0)
        }
        4 if !prefixes.is_empty() => {
            let at = HEADER_LEN + prefixes[rng.index(prefixes.len())];
            forge(frame, rng, "length", at)
        }
        5 if frame.len() >= HEADER_LEN => {
            // One payload byte more or less, under a payload_len that still
            // agrees with the frame.
            let at = HEADER_LEN + rng.index(payload_end - HEADER_LEN + 1);
            let what = if at < payload_end && rng.percent(50) {
                frame.remove(at);
                format!("delete payload byte {at}")
            } else {
                frame.insert(at, rng.next() as u8);
                format!("insert a payload byte at {at}")
            };
            let len = frame.len().saturating_sub(HEADER_LEN + TRAILER_LEN) as u32;
            frame[16..20].copy_from_slice(&len.to_le_bytes());
            what
        }
        _ if payload_end > HEADER_LEN => {
            let at = HEADER_LEN + rng.index(payload_end - HEADER_LEN);
            let bit = rng.below(8);
            frame[at] ^= 1 << bit;
            format!("flip bit {bit} of payload byte {at}")
        }
        _ => "no payload to damage".to_string(),
    }
}

/// Rewrites the trailer to match the payload the header declares, where the
/// frame still holds both.
fn recompute_trailer(frame: &mut [u8]) -> bool {
    if frame.len() < HEADER_LEN {
        return false;
    }
    let end = HEADER_LEN + u32_at(frame, 16) as usize;
    if end + TRAILER_LEN > frame.len() {
        return false;
    }
    let fnv = fnv1a64(&frame[HEADER_LEN..end]);
    frame[end..end + TRAILER_LEN].copy_from_slice(&fnv.to_le_bytes());
    true
}

/// Field prefixes every rejection must name one of.
const FIELDS: [&str; 12] = [
    "header.",
    "frame.",
    "payload",
    "hello.",
    "welcome.",
    "lease.",
    "no_work.",
    "heartbeat.",
    "row_done.",
    "row_ack.",
    "reject.",
    "shutdown.",
];

#[test]
fn unmutated_frames_read_back_and_re_encode_to_themselves() {
    let messages = corpus();
    let mut stream = Vec::new();
    for msg in &messages {
        write_message(&mut stream, msg).unwrap();
    }
    let mut cursor = &stream[..];
    for msg in &messages {
        let before = cursor.len();
        let read = read_message(&mut cursor).unwrap();
        assert_eq!(&read, msg);
        let frame = &stream[stream.len() - before..stream.len() - cursor.len()];
        assert_eq!(encode(&read), frame);
    }
    assert!(cursor.is_empty());
}

#[test]
fn mutated_frames_read_to_named_errors_or_to_their_own_bytes() {
    let mut rng = SplitMix(0xf4a3_e5ee_d5a7_0bad);
    // Fields rejected for their value, not for running out of bytes.
    let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut decoded, mut cut_short) = (0, 0);
    for (index, msg) in corpus().into_iter().enumerate() {
        let frame = encode(&msg);
        let prefixes = length_prefixes(&msg);
        // The map is right if every prefix it names holds the length of the
        // string or list behind it.
        for &at in &prefixes {
            let len = u32_at(&frame, HEADER_LEN + at) as usize;
            assert!(HEADER_LEN + at + 4 + len <= frame.len() - TRAILER_LEN);
        }
        if let Message::RowDone { stats, .. } = &msg {
            assert_eq!(
                u32_at(&frame, HEADER_LEN + prefixes[2]) as usize,
                stats.len()
            );
        }
        for round in 0..600 {
            let mut mutant = frame.clone();
            let mut what = Vec::new();
            for _ in 0..1 + rng.below(2) {
                if !mutant.is_empty() {
                    what.push(mutate(&mut mutant, &prefixes, &mut rng));
                }
            }
            if rng.percent(50) && recompute_trailer(&mut mutant) {
                what.push("trailer recomputed".to_string());
            }
            let outcome = std::panic::catch_unwind(|| {
                let mut cursor = &mutant[..];
                read_message(&mut cursor).map(|msg| (msg, mutant.len() - cursor.len()))
            })
            .unwrap_or_else(|_| panic!("frame {index} round {round}: {what:?} panicked"));
            match outcome {
                Ok((msg, consumed)) => {
                    decoded += 1;
                    assert_eq!(
                        encode(&msg),
                        mutant[..consumed],
                        "frame {index} round {round}: {what:?} read as {msg:?}, \
                         which encodes to other bytes"
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => cut_short += 1,
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        io::ErrorKind::InvalidData,
                        "frame {index} round {round}: {what:?} gave {e}"
                    );
                    let named = e
                        .get_ref()
                        .and_then(|inner| inner.downcast_ref::<ProtoError>())
                        .unwrap_or_else(|| {
                            panic!("frame {index} round {round}: {what:?} gave unnamed {e}")
                        });
                    assert!(
                        FIELDS.iter().any(|f| named.field.starts_with(f)),
                        "frame {index} round {round}: {what:?} gave unknown field {named}"
                    );
                    assert!(e.to_string().contains(named.field));
                    if !named.message.contains("underrun") {
                        *errors.entry(named.field).or_default() += 1;
                    }
                }
            }
        }
    }
    // The structure-aware mutations reach every header check, the trailer
    // check and the payload's value checks.
    for field in [
        "header.magic",
        "header.version",
        "header.kind",
        "header.arity",
        "header.payload_len",
        "frame.frame_fnv",
        "payload",
        "lease.smoke",
        "row_done.stats",
    ] {
        assert!(
            errors.contains_key(field),
            "no mutant failed the check of {field}: {errors:?}"
        );
    }
    assert!(
        errors
            .keys()
            .any(|f| !f.starts_with("header.") && *f != "frame.frame_fnv"),
        "no mutant reached the payload decoder: {errors:?}"
    );
    assert!(decoded > 0, "every mutant failed: {errors:?}");
    assert!(cut_short > 0, "no mutant was cut short: {errors:?}");
}
