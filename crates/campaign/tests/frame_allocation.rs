//! What reading one frame costs in heap, measured by a counting global
//! allocator: `read_message` allocates with the bytes a peer has sent, not
//! with the lengths its header and payload declare. Whatever a read returns,
//! its peak stays within four times the bytes it was given plus 4 KiB, so a
//! 20-byte header that declares the largest payload cannot make the reader
//! reserve 16 MiB.

use campaign::checkpoint::STAT_FIELD_COUNT;
use campaign::proto::{encode, read_message, Message, HEADER_LEN, MAX_PAYLOAD, TRAILER_LEN};
use campaign::{fnv1a64, presets};
use std::io;
use testkit::{delete, flip_bit, forge, insert, live, peak, reset_peak, truncate, SplitMix};

#[global_allocator]
static ALLOCATOR: testkit::Counting = testkit::Counting;

/// The most heap a read of `given` bytes may peak at.
fn bound(given: usize) -> isize {
    (4 * given + 4096) as isize
}

/// Reads one frame from `bytes` and returns how far the heap peaked above
/// where it started, and the outcome.
fn read_peak(bytes: &[u8]) -> (isize, io::Result<Message>) {
    let before = live();
    reset_peak();
    let outcome = read_message(&mut &bytes[..]);
    (peak() - before, outcome)
}

/// One message of every kind.
fn messages() -> Vec<Message> {
    let spec_toml = presets::find("figure9").unwrap().to_toml_string();
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
            spec_toml,
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

/// The payload length a frame's header declares.
fn declared(frame: &[u8]) -> usize {
    u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize
}

/// Rewrites the trailer over the payload the header declares, where the
/// frame holds both, so the payload decoder is reached.
fn recompute_trailer(frame: &mut [u8]) {
    if frame.len() >= HEADER_LEN {
        let end = HEADER_LEN + declared(frame);
        if end + TRAILER_LEN <= frame.len() {
            let fnv = fnv1a64(&frame[HEADER_LEN..end]);
            frame[end..end + TRAILER_LEN].copy_from_slice(&fnv.to_le_bytes());
        }
    }
}

/// Applies one mutation: a flipped bit, a cut, a forged payload length or
/// payload `u32` (string and list lengths among them), or a byte more or
/// less.
fn mutate(frame: &mut Vec<u8>, rng: &mut SplitMix) -> String {
    match rng.below(6) {
        0 => flip_bit(frame, .., rng),
        1 => truncate(frame, rng),
        2 => forge(frame, rng, "payload_len", 16, 4),
        3 => {
            let at = HEADER_LEN + rng.index(frame.len().saturating_sub(HEADER_LEN) + 1);
            forge(frame, rng, "payload u32", at, 4)
        }
        4 => insert(frame, rng.index(frame.len() + 1), &[rng.next_u64() as u8]),
        _ => delete(frame, rng.index(frame.len())),
    }
}

#[test]
fn mutated_frames_read_within_four_times_their_bytes() {
    let mut rng = SplitMix(0xa110_c8ed_f4a3_e5ee);
    let (mut reads, mut over_declared) = (0, 0);
    for (index, msg) in messages().into_iter().enumerate() {
        let frame = encode(&msg);
        for round in 0..400 {
            let (mut mutant, mut what) = testkit::mutant(&frame, 2, &mut rng, mutate);
            if rng.percent(50) {
                recompute_trailer(&mut mutant);
                what.push("trailer recomputed".to_string());
            }
            if mutant.len() >= HEADER_LEN && declared(&mutant) > mutant.len() {
                over_declared += 1;
            }
            let (peak, outcome) = read_peak(&mutant);
            assert!(
                peak <= bound(mutant.len()),
                "frame {index} round {round}: {what:?} peaked at {peak} bytes \
                 reading {} ({outcome:?})",
                mutant.len()
            );
            reads += 1;
        }
    }
    assert!(
        reads > 0 && over_declared > 100,
        "{over_declared} of {reads}"
    );
}

/// A header that declares the largest payload and carries a few bytes is
/// cut short, without a reservation for the declared length.
#[test]
fn a_header_declaring_the_largest_payload_reserves_nothing_for_it() {
    let mut frame = encode(&Message::Heartbeat { lease: 1 });
    frame[16..20].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let (peak, outcome) = read_peak(&frame);
    assert_eq!(outcome.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    assert!(peak <= bound(frame.len()), "peaked at {peak} bytes");
}

/// A `RowDone` whose stat count says 2,000,000 fails naming the list,
/// before anything is reserved for 16,000,000 bytes of stats.
#[test]
fn a_forged_stat_count_reserves_nothing_for_it() {
    let mut frame = encode(&Message::RowDone {
        lease: 1,
        job: 2,
        spec_hash: "h".into(),
        mechanism: "x".into(),
        seed: 0,
        row_fnv: 0,
        stats: Vec::new(),
    });
    let count_at = frame.len() - TRAILER_LEN - 4;
    frame[count_at..count_at + 4].copy_from_slice(&2_000_000u32.to_le_bytes());
    recompute_trailer(&mut frame);
    let (peak, outcome) = read_peak(&frame);
    let err = outcome.unwrap_err();
    assert!(err.to_string().contains("row_done.stats"), "{err}");
    assert!(peak <= bound(frame.len()), "peaked at {peak} bytes");
}
