//! A deterministic fuzzer for the spec parser, [`CampaignSpec::from_toml_str`]:
//! a worker parses the `spec_toml` a broker sends it, so the parser faces
//! the network as the frame decoder does.
//!
//! One SplitMix64 stream mutates the seven `specs/*.toml` files and every
//! preset's canonical TOML: bit flips, truncations, deleted bytes, and
//! inserted quotes, backslashes and `\u` escapes, table brackets, `=`,
//! comments, newlines and digit runs past `i64`, both anywhere and just
//! after a key, value or line boundary. Every mutant must parse to a spec
//! whose canonical TOML parses back to the same spec, or fail as a spec
//! error, a TOML one naming a line of the mutant; a panic fails the test
//! with the mutant that caused it.

use super::*;
use crate::presets::PRESETS;
use testkit::{delete, flip_bit, insert_token, truncate, SplitMix};

/// Applies one mutation to `text` and says what it was.
fn mutate(text: &mut Vec<u8>, rng: &mut SplitMix) -> String {
    let at = rng.index(text.len());
    match rng.below(6) {
        0 => flip_bit(text, at..=at, rng),
        1 => truncate(text, rng),
        2 => delete(text, at),
        // Just after a separator, where the parser is about to read a key,
        // a value or a table name.
        3 => insert_token(text, b"=[\",\n ", rng),
        _ => insert_token(text, b"", rng),
    }
}

/// The seven spec files, then every preset's canonical TOML.
fn corpus() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 7, "{files:?}");
    let texts = files.iter().map(|f| std::fs::read_to_string(f).unwrap());
    texts
        .chain(PRESETS.iter().map(|p| p.spec().to_toml_string()))
        .collect()
}

#[test]
fn mutated_specs_parse_to_stable_specs_or_fail_naming_a_line() {
    let mut rng = SplitMix(0x5bec_70f1_f022_d3ad);
    let (mut accepted, mut rejected) = (0, 0);
    for (index, original) in corpus().into_iter().enumerate() {
        for round in 0..200 {
            let (mutant, what) = testkit::mutant(original.as_bytes(), 3, &mut rng, mutate);
            let text = String::from_utf8_lossy(&mutant);
            let outcome = std::panic::catch_unwind(|| CampaignSpec::from_toml_str(&text))
                .unwrap_or_else(|_| panic!("spec {index} round {round}: {what:?} panicked"));
            match outcome {
                Ok(spec) => {
                    accepted += 1;
                    let written = spec.to_toml_string();
                    let again = CampaignSpec::from_toml_str(&written).unwrap_or_else(|e| {
                        panic!("spec {index} round {round}: {what:?} wrote {e}:\n{written}")
                    });
                    assert_eq!(
                        again, spec,
                        "spec {index} round {round}: {what:?} re-parses differently:\n{written}"
                    );
                }
                Err(e) => {
                    rejected += 1;
                    if let SpecError::Toml(e) = e {
                        let lines = text.lines().count().max(1);
                        assert!(
                            (1..=lines).contains(&e.line),
                            "spec {index} round {round}: {what:?} gave {e}, naming no line of {lines}"
                        );
                    }
                }
            }
        }
    }
    // Both outcomes are exercised: harmless damage parses, the rest fails.
    assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
}
