//! Content-addressed workload artifact cache.
//!
//! Generating a multi-megabyte workload (layout, trace and latency classes)
//! costs ~0.2 s per (profile, seed) point — paid again by every campaign and
//! every worker process that touches the point. The artifact cache pays it
//! once ever: a generated [`WorkloadData`] is serialized (via
//! [`workloads::codec`]) to a file named by a *content address* — the
//! FNV-1a-64 hash of the resolved profile's own encoding plus the run
//! length — so any campaign over the same workload point, in any process,
//! loads the bytes instead of regenerating.
//!
//! # File format
//!
//! Every artifact starts with a fixed 32-byte header:
//!
//! | offset | size | field         | value                                   |
//! |--------|------|---------------|-----------------------------------------|
//! | 0      | 4    | `magic`       | `"BMWL"`                                |
//! | 4      | 4    | `format`      | [`ARTIFACT_FORMAT`], little-endian      |
//! | 8      | 8    | `key`         | the content address, little-endian      |
//! | 16     | 8    | `payload_len` | payload byte count, little-endian       |
//! | 24     | 8    | `payload_fnv` | [`payload_fnv`] of the payload, little-endian |
//!
//! followed by `payload_len` bytes of [`workloads::codec::encode_workload`]
//! output. Format 5's payload is the profile and the line size, then the
//! layout's simulation tables as length-prefixed little-endian columns,
//! then the trace, then the back end's latency classes; the
//! [`workloads::codec`] docs give each column's encoding.
//!
//! Nothing a layout can re-derive cheaply is stored: start and target
//! addresses, last-in-function bits and the line index are rebuilt on load.
//! Nothing the simulator does not read is stored either: the control-flow
//! tables that only trace generation walks (flows, behaviours, indirect id
//! lists, the dispatcher and the service roots) stay out of the file, and
//! a loaded point holds none, as a generated one holds none once its trace
//! exists.
//!
//! The latency classes are stored although the profile determines them: at
//! a quarter byte per instruction they cost less to read than the RNG pass
//! that draws them, and a load builds its [`WorkloadData`] from them
//! ([`WorkloadData::from_stored`]) without one. The codec checks their
//! length and padding; the offline auditor ([`crate::verify`]) recomputes
//! their values from the stored profile.
//!
//! Every header field is validated on load with a [`FieldError`] naming
//! it, read through [`sim_core::bytes`] (same discipline as the spec TOML parser and
//! [`workloads::ProfileError`]), and so is every payload byte before it is
//! used; corrupt, truncated or wrong-version files are *rejected, never
//! trusted and never panicked on* — the engine falls back to regeneration
//! and overwrites the bad file.
//!
//! The key is the FNV-1a-64 of the stored profile section
//! ([`workloads::codec::encode_profile`]: the kind, the description, then
//! every [`workloads::PROFILE_FIELDS`] value), then the run length. It
//! covers exactly the profile a load compares, so smoke and full-length
//! artifacts of the same point coexist, two points that differ only in
//! their description have two addresses, and any profile change changes
//! the address. The key does not cover
//! [`ARTIFACT_FORMAT`]: a file of another format at the same address is
//! rejected as `header.format` and overwritten by the regenerated point.
//! Bump [`ARTIFACT_FORMAT`] whenever the codec or this header changes
//! shape.
//!
//! Stores are atomic (write to a process-unique temp file, then rename), so
//! concurrent worker processes racing to fill the same cache entry are safe:
//! both write identical bytes and the losing rename simply overwrites.

use crate::checkpoint::fnv1a64;
use boomerang::{RunLength, WorkloadData};
use sim_core::bytes::{ensure, Cursor, FieldError, Le};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use workloads::{codec, latency_class, CodeLayout, Trace, WorkloadProfile};

/// Magic bytes opening every workload artifact file.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"BMWL";

/// Artifact format version this build reads and writes: 2 stored the
/// layout as columns, 3 added the packed latency classes after the trace,
/// 4 stores the layout's simulation tables alone, 5 stores the profile's
/// fields in [`workloads::PROFILE_FIELDS`] order.
pub const ARTIFACT_FORMAT: u32 = 5;

const HEADER_LEN: usize = 32;

/// The `payload_fnv` header field: FNV-1a-64 over the payload read as
/// little-endian 64-bit words, then over its tail bytes one at a time.
///
/// Each step xors one word into the state and multiplies by the odd FNV
/// prime, a bijection of the state, so changing any single word (or tail
/// byte) always changes the hash. A word at a time it runs several times
/// faster than the byte-wise [`fnv1a64`], which stays the digest of reports,
/// specs and artifact keys.
pub fn payload_fnv(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let hash = words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().expect("8-byte word"))).wrapping_mul(PRIME)
    });
    tail.iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// The content address of a (resolved profile, run length) point.
///
/// The profile must already carry its *effective* seed (after
/// [`crate::engine::derive_seed`]); the campaign engine resolves seeds
/// before generation, so the key sees exactly what generation sees.
pub fn artifact_key(profile: &WorkloadProfile, run: RunLength) -> u64 {
    let mut identity = Vec::new();
    codec::encode_profile(profile, &mut identity);
    for blocks in [run.trace_blocks, run.warmup_blocks] {
        (blocks as u64).put(&mut identity);
    }
    fnv1a64(&identity)
}

/// An open artifact-cache directory.
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Opens (creating if necessary) the cache directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(ArtifactCache {
            dir: dir.to_path_buf(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path an artifact with this content address lives at.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("wl-{key:016x}.wla"))
    }

    /// Attempts to load the artifact for `(profile, run)`.
    ///
    /// Returns `Ok(None)` on a clean miss (no file). Returns a
    /// [`FieldError`] naming the offending field if a file exists but is
    /// corrupt, truncated, wrong-version, or describes a different workload
    /// — callers treat that as a miss (regenerate and overwrite), surfacing
    /// the error as a warning.
    pub fn load(
        &self,
        profile: &WorkloadProfile,
        run: RunLength,
    ) -> Result<Option<WorkloadData>, FieldError> {
        let key = artifact_key(profile, run);
        let path = self.path_for(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(FieldError::new(
                    "file",
                    format!("cannot read {}: {e}", path.display()),
                ))
            }
        };
        let payload = check_header(&bytes, key)?;
        let (layout, trace, classes) = codec::decode_workload(payload)?;
        ensure(layout.profile() == profile, "payload.profile", || {
            "stored profile differs from the requested one (a content-address collision)"
        })?;
        let expected_blocks = run.trace_blocks + run.warmup_blocks;
        ensure(trace.len() == expected_blocks, "payload.trace", || {
            format!(
                "stored trace has {} blocks, run length needs {expected_blocks}",
                trace.len()
            )
        })?;
        Ok(Some(WorkloadData::from_stored(layout, trace, classes, run)))
    }

    /// Stores the artifact for `(profile, run)` atomically.
    ///
    /// `data` must be the generation output for exactly that profile and run
    /// length.
    pub fn store(
        &self,
        profile: &WorkloadProfile,
        run: RunLength,
        data: &WorkloadData,
    ) -> io::Result<()> {
        let key = artifact_key(profile, run);
        let mut payload = Vec::new();
        codec::encode_workload(
            &data.layout,
            &data.trace,
            data.latency_classes(),
            &mut payload,
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
        file.extend_from_slice(&ARTIFACT_MAGIC);
        ARTIFACT_FORMAT.put(&mut file);
        for field in [key, payload.len() as u64, payload_fnv(&payload)] {
            field.put(&mut file);
        }
        file.extend_from_slice(&payload);

        let path = self.path_for(key);
        let tmp = self
            .dir
            .join(format!("wl-{key:016x}.tmp-{}", std::process::id()));
        fs::write(&tmp, &file)?;
        let renamed = fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }
}

/// Validates the artifact header against the expected content address and
/// returns the payload slice. Shared with the offline auditor
/// ([`crate::verify`]), which walks a cache directory and checks every
/// `wl-*.wla` against the key its filename claims.
pub(crate) fn check_header(bytes: &[u8], key: u64) -> Result<&[u8], FieldError> {
    let mut r = Cursor::new(bytes);
    let mut header = Cursor::new(r.take(HEADER_LEN, "header")?);
    let magic = header.take(4, "header.magic")?;
    ensure(magic == ARTIFACT_MAGIC, "header.magic", || {
        format!("expected {ARTIFACT_MAGIC:?}, found {magic:?}")
    })?;
    let format = header.u32("header.format")?;
    ensure(format == ARTIFACT_FORMAT, "header.format", || {
        format!("file is format version {format}, this build reads {ARTIFACT_FORMAT}")
    })?;
    let stored_key = header.u64("header.key")?;
    ensure(stored_key == key, "header.key", || {
        format!("file claims key {stored_key:016x}, content address is {key:016x}")
    })?;
    let payload_len = header.u64("header.payload_len")?;
    let checksum = header.u64("header.payload_fnv")?;
    let payload = r.take(r.remaining(), "payload")?;
    let available = payload.len() as u64;
    ensure(payload_len == available, "header.payload_len", || {
        format!("header says {payload_len} payload bytes, file holds {available}")
    })?;
    let actual = payload_fnv(payload);
    ensure(checksum == actual, "header.payload_fnv", || {
        format!("header checksum {checksum:016x}, payload hashes to {actual:016x}")
    })?;
    Ok(payload)
}

/// Recomputes a decoded artifact's latency classes from its stored profile
/// and compares them with the stored column, naming the first instruction
/// whose class differs. Only the offline auditor ([`crate::verify`]) pays
/// for this RNG pass: it catches a change to the class generator that
/// ships without a format bump, which a load cannot see.
pub(crate) fn check_classes(
    layout: &CodeLayout,
    trace: &Trace,
    stored: &[u8],
) -> Result<(), FieldError> {
    let profile = layout.profile();
    let n = trace.instructions() as usize;
    let drawn = profile.backend.latency_classes(profile.seed, n);
    match (0..n).find(|&i| latency_class::get(stored, i) != latency_class::get(&drawn, i)) {
        None => Ok(()),
        Some(i) => Err(FieldError::new(
            "payload.classes",
            format!(
                "stored latency class of instruction {i} is {}, the profile draws {}",
                latency_class::get(stored, i),
                latency_class::get(&drawn, i)
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::temp_dir;
    use workloads::WorkloadProfile;

    fn tiny_data(seed: u64, run: RunLength) -> (WorkloadProfile, WorkloadData) {
        let profile = WorkloadProfile::tiny(seed);
        let data = WorkloadData::generate_from_profile(&profile, run);
        (profile, data)
    }

    fn load_err(cache: &ArtifactCache, profile: &WorkloadProfile, run: RunLength) -> FieldError {
        match cache.load(profile, run) {
            Err(e) => e,
            Ok(_) => panic!("expected the artifact to be rejected"),
        }
    }

    const RUN: RunLength = RunLength {
        trace_blocks: 800,
        warmup_blocks: 200,
    };

    #[test]
    fn key_separates_profiles_seeds_and_run_lengths() {
        let a = WorkloadProfile::tiny(1);
        let b = WorkloadProfile::tiny(2);
        assert_ne!(artifact_key(&a, RUN), artifact_key(&b, RUN));
        assert_ne!(
            artifact_key(&a, RUN),
            artifact_key(
                &a,
                RunLength {
                    trace_blocks: 801,
                    warmup_blocks: 200
                }
            )
        );
        assert_eq!(artifact_key(&a, RUN), artifact_key(&a.clone(), RUN));
        let mut described = a.clone();
        described.description.push_str(", described");
        assert_ne!(artifact_key(&a, RUN), artifact_key(&described, RUN));
    }

    /// Each [`PROFILE_FIELDS`](workloads::PROFILE_FIELDS) entry, changed
    /// on a valid profile, survives the codec's round trip and moves the
    /// key: the key and the stored bytes cover the same fields.
    #[test]
    fn every_profile_field_round_trips_and_moves_the_key() {
        use sim_core::field::Access;
        let base = WorkloadProfile::tiny(1);
        let key = artifact_key(&base, RUN);
        for field in &workloads::PROFILE_FIELDS {
            let mut changed = base.clone();
            match field.access {
                Access::Integer(get, set) => set(&mut changed, get(&base) + 1),
                Access::Index(get, set) => set(&mut changed, get(&base) + 1),
                Access::Number(get, set) => set(&mut changed, get(&base) / 2.0),
                Access::Bool(..) | Access::Noc(..) => panic!("`{}`'s kind", field.key),
            }
            assert!(changed.is_valid(), "{}", field.key);
            let mut bytes = Vec::new();
            codec::encode_layout(&workloads::CodeLayout::generate(&changed), &mut bytes);
            let decoded = codec::decode_layout(&mut Cursor::new(&bytes));
            assert_eq!(decoded.unwrap().profile(), &changed, "{}", field.key);
            assert_ne!(artifact_key(&changed, RUN), key, "{}", field.key);
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = temp_dir("artifact-rt");
        let cache = ArtifactCache::open(&dir).unwrap();
        let (profile, data) = tiny_data(5, RUN);
        assert!(cache.load(&profile, RUN).unwrap().is_none());
        cache.store(&profile, RUN, &data).unwrap();
        let loaded = cache.load(&profile, RUN).unwrap().expect("hit");
        assert!(loaded.layout.basic_blocks().eq(data.layout.basic_blocks()));
        assert!(!loaded.layout.has_control_flow());
        assert!(!loaded.trace.layout().has_control_flow());
        assert_eq!(loaded.trace, data.trace);
        assert_eq!(loaded.latency_classes(), data.latency_classes());
        assert_eq!(loaded.kind, data.kind);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_truncated_and_wrong_version_files_are_rejected_with_fields() {
        let dir = temp_dir("artifact-bad");
        let cache = ArtifactCache::open(&dir).unwrap();
        let (profile, data) = tiny_data(9, RUN);
        cache.store(&profile, RUN, &data).unwrap();
        let path = cache.path_for(artifact_key(&profile, RUN));
        let good = std::fs::read(&path).unwrap();

        // Truncated mid-payload.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = load_err(&cache, &profile, RUN);
        assert_eq!(err.field, "header.payload_len");

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(load_err(&cache, &profile, RUN).field, "header.magic");

        // Wrong format version.
        let mut bad = good.clone();
        bad[4] = ARTIFACT_FORMAT as u8 + 1;
        std::fs::write(&path, &bad).unwrap();
        let err = load_err(&cache, &profile, RUN);
        assert_eq!(err.field, "header.format");
        assert!(err.to_string().contains("format version"));

        // Payload bit-flip fails the checksum.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(load_err(&cache, &profile, RUN).field, "header.payload_fnv");

        // Header shorter than 32 bytes.
        std::fs::write(&path, &good[..10]).unwrap();
        assert_eq!(load_err(&cache, &profile, RUN).field, "header");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-byte flip at a payload offset, whichever byte of its word it
    /// hits, fails the word-wise payload checksum. Every seventh offset is
    /// flipped (7 is coprime to the word size, so every byte lane is hit),
    /// and so is every byte of the last word, which holds latency classes:
    /// all of them take seconds in the unoptimised test build.
    #[test]
    fn every_single_byte_flip_fails_the_payload_checksum() {
        let (profile, data) = tiny_data(4, RUN);
        let key = artifact_key(&profile, RUN);
        let classes = data.latency_classes();
        assert!(classes.len() > 8, "the class column spans the last word");
        let cache = ArtifactCache::open(&temp_dir("artifact-flip")).unwrap();
        cache.store(&profile, RUN, &data).unwrap();
        let mut file = std::fs::read(cache.path_for(key)).unwrap();
        std::fs::remove_dir_all(cache.dir()).unwrap();
        assert!(check_header(&file, key).is_ok());
        let tail = file.len() - 8..file.len();
        for at in (HEADER_LEN..file.len()).step_by(7).chain(tail) {
            let mask = 1u8.rotate_left(at as u32 % 8) | 0x10;
            file[at] ^= mask;
            let err = check_header(&file, key).expect_err("a flipped byte must fail");
            assert_eq!(err.field, "header.payload_fnv", "byte {at}");
            file[at] ^= mask;
        }
    }

    #[test]
    fn payload_fnv_hashes_words_then_tail_bytes() {
        assert_eq!(payload_fnv(&[]), 0xcbf2_9ce4_8422_2325);
        // Up to one word short, the tail is hashed byte-wise: FNV-1a-64.
        assert_eq!(payload_fnv(b"a"), fnv1a64(b"a"));
        assert_eq!(payload_fnv(b"foobar"), fnv1a64(b"foobar"));
        let word = 0x0123_4567_89ab_cdefu64;
        let mut bytes = word.to_le_bytes().to_vec();
        let one_word = (0xcbf2_9ce4_8422_2325 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(payload_fnv(&bytes), one_word);
        bytes.push(7);
        assert_eq!(
            payload_fnv(&bytes),
            (one_word ^ 7).wrapping_mul(0x0000_0100_0000_01b3)
        );
    }

    #[test]
    fn smoke_and_full_artifacts_coexist() {
        let dir = temp_dir("artifact-two");
        let cache = ArtifactCache::open(&dir).unwrap();
        let other = RunLength {
            trace_blocks: 400,
            warmup_blocks: 100,
        };
        let (profile, data) = tiny_data(3, RUN);
        let data_other = WorkloadData::generate_from_profile(&profile, other);
        cache.store(&profile, RUN, &data).unwrap();
        cache.store(&profile, other, &data_other).unwrap();
        assert_eq!(
            cache.load(&profile, RUN).unwrap().expect("hit").trace.len(),
            1000
        );
        assert_eq!(
            cache
                .load(&profile, other)
                .unwrap()
                .expect("hit")
                .trace
                .len(),
            500
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
