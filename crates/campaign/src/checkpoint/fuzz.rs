//! A deterministic fuzzer for the journal-line decoder: [`scan_journal`]
//! and its [`JournalReplay::load`] caller, which read whatever a crash, a
//! full disk or a flipped bit left in a campaign directory.
//!
//! One SplitMix64 stream mutates journals written by [`Journal`] the way
//! this module's tests write them: bit flips and byte overwrites,
//! truncations, deleted bytes, inserted quotes, escapes (good, bad and cut
//! short), long digit runs, newlines and non-UTF-8 bytes, and duplicated or
//! dropped lines. Every mutant must replay as rows identical to the ones
//! written, or fail as a [`CheckpointError`] naming a line of the mutant;
//! a panic fails the test with the mutant that caused it.

use super::tests::{spec, stats, temp_dir};
use super::*;
use crate::splitmix::SplitMix;

/// Byte strings worth inserting: quotes, escapes (valid, invalid, a lone
/// surrogate, cut short by the end of the line), digit runs past `u64`,
/// line and UTF-8 damage.
const INSERTS: [&[u8]; 16] = [
    b"\"",
    b"\\",
    b"\\\"",
    b"\\u",
    b"\\u00e9",
    b"\\ud800",
    b"\\x",
    b"\\u00\n",
    b"\"\\u\n",
    b"18446744073709551615",
    b"18446744073709551616",
    b"99999999999999999999999999999999999999",
    b"\n",
    b"\xff",
    b"\xc3",
    b"\xe2\x82",
];

/// Applies one mutation to `journal` and says what it was.
fn mutate(journal: &mut Vec<u8>, rng: &mut SplitMix) -> String {
    let at = rng.index(journal.len() + 1);
    match rng.below(8) {
        0 if at < journal.len() => {
            let bit = rng.below(8);
            journal[at] ^= 1 << bit;
            format!("flip bit {bit} of byte {at}")
        }
        1 if at < journal.len() => {
            let byte = rng.next() as u8;
            journal[at] = byte;
            format!("byte {at} := {byte:#04x}")
        }
        2 => {
            journal.truncate(at);
            format!("truncate to {at} bytes")
        }
        3 if at < journal.len() => {
            journal.remove(at);
            format!("delete byte {at}")
        }
        4 => {
            let lines: Vec<&[u8]> = journal.split_inclusive(|&b| b == b'\n').collect();
            let (line, copy) = (rng.index(lines.len()), rng.percent(50));
            let mut edited: Vec<&[u8]> = lines.clone();
            if copy {
                edited.insert(line, lines[line]);
            } else {
                edited.remove(line);
            }
            *journal = edited.concat();
            format!(
                "{} line {}",
                if copy { "duplicate" } else { "drop" },
                line + 1
            )
        }
        5 => {
            // Just inside a string or just after a separator, where the
            // decoder is about to read a key or a value.
            let starts: Vec<usize> = (journal.iter().enumerate())
                .filter(|&(_, &b)| matches!(b, b'"' | b',' | b':' | b'{'))
                .map(|(i, _)| i + 1)
                .collect();
            let at = starts
                .get(rng.index(starts.len().max(1)))
                .copied()
                .unwrap_or(0);
            let insert = INSERTS[rng.index(INSERTS.len())];
            journal.splice(at..at, insert.iter().copied());
            format!(
                "insert {:?} at boundary {at}",
                String::from_utf8_lossy(insert)
            )
        }
        _ => {
            let insert = INSERTS[rng.index(INSERTS.len())];
            journal.splice(at..at, insert.iter().copied());
            format!("insert {:?} at {at}", String::from_utf8_lossy(insert))
        }
    }
}

#[test]
fn mutated_journals_replay_their_rows_or_fail_naming_a_line() {
    let dir = temp_dir("fuzz");
    let spec = spec();
    let jobs = crate::expand::expand(&spec);
    let hash = spec_hash(&spec, RunLength::smoke_test(), true);
    let journal = Journal::create(&dir, &spec.name, &hash, jobs.len(), None).unwrap();
    for (i, job) in jobs.iter().enumerate() {
        journal.record(job, &stats(i as u64)).unwrap();
    }
    let path = journal.path().to_path_buf();
    drop(journal);
    let original = std::fs::read(&path).unwrap();
    assert_eq!(
        JournalReplay::load(&dir, &spec.name, &hash, &jobs)
            .unwrap()
            .completed(),
        jobs.len()
    );

    let mut rng = SplitMix(0x6a0c_7e11_f022_d3ad);
    let (mut replayed, mut rejected) = (0, 0);
    for round in 0..2000 {
        let mut mutant = original.clone();
        let what: Vec<String> = (0..1 + rng.below(3))
            .map(|_| mutate(&mut mutant, &mut rng))
            .collect();
        std::fs::write(&path, &mutant).unwrap();
        let outcome =
            std::panic::catch_unwind(|| JournalReplay::load(&dir, &spec.name, &hash, &jobs))
                .unwrap_or_else(|_| panic!("round {round}: {what:?} panicked"));
        match outcome {
            Ok(replay) => {
                replayed += 1;
                for (&index, row) in &replay.rows {
                    assert_eq!(
                        row,
                        &stats(index as u64),
                        "round {round}: {what:?} replayed a changed row {index}"
                    );
                }
            }
            Err(e) => {
                rejected += 1;
                let lines = mutant.split(|&b| b == b'\n').count();
                assert_eq!(e.path, path, "round {round}: {what:?} gave {e}");
                assert!(
                    (1..=lines).contains(&e.line) || mutant.is_empty(),
                    "round {round}: {what:?} gave {e}, naming no line of {lines}"
                );
            }
        }
    }
    // Both outcomes are exercised: a torn tail replays, damage rejects.
    assert!(replayed > 100 && rejected > 100, "{replayed} / {rejected}");
    std::fs::remove_dir_all(&dir).unwrap();
}
