//! Durable multi-file persistence for [`ShardedCinct`]: a versioned,
//! checksummed shard manifest plus one [`CinctIndex`] file per shard.
//!
//! # On-disk layout
//!
//! A sharded index is a **directory**:
//!
//! ```text
//! corpus.cinct/
//!   manifest.cinct     versioned header + per-shard directory + checksum
//!   shard-00000.cinct  CinctIndex (the single-file format of write_to)
//!   shard-00001.cinct
//!   ...
//! ```
//!
//! The manifest records the network size, the construction configuration
//! (so [`ShardedCinct::append_batch`] after reopening builds new shards
//! identically), and per shard: its trajectory count, the [`checksum64`]
//! of its file, its global-ID column, and its **pruning block** — the
//! edge-membership structure and owned global-ID span the fan-out skips
//! shards with (see [`crate::prune`]). The manifest itself ends with a
//! [`checksum64`] over everything before it, so truncation or bit rot
//! anywhere in the file — pruning blocks included — is caught before any
//! field is trusted. A block that disagrees with its shard's ID column is
//! re-derived, exactly, from the shard's `C` array. The manifest is
//! format v4; any other version (v3, whose checksums were FNV-1a,
//! included) is rejected, so a directory written by an older build must
//! be rebuilt.
//!
//! # Failure taxonomy (no panics)
//!
//! * wrong magic / unsupported version / checksum mismatch (manifest or
//!   shard file) / inconsistent global-ID namespace →
//!   [`QueryError::CorruptIndex`];
//! * missing or unreadable files, truncated streams → [`QueryError::Io`]
//!   (with the offending path in the message).

use crate::builder::CinctBuilder;
use crate::faultio;
use crate::index::CinctIndex;
use crate::rml::LabelingStrategy;
use crate::shard::{QuarantinedShard, Shard, ShardPartition, ShardedBuilder, ShardedCinct};
use cinct_fmindex::QueryError;
use cinct_succinct::serial::{read_u64, read_usize, write_u64, write_usize, Persist};
use std::io::Cursor;
use std::path::Path as FsPath;

/// Manifest magic prefix ("CINCTS" as bytes, low 16 bits = format version).
const MANIFEST_PREFIX: u64 = 0x4349_4e43_5453_0000;
/// Manifest format version, the only one this build reads or writes
/// (4 = every checksum, and so every shard file name, is [`checksum64`];
/// 3 added per-shard pruning blocks, 2 the absorbed-WAL-position stamp).
const MANIFEST_VERSION: u64 = 4;
/// The manifest file inside a sharded-index directory.
pub const MANIFEST_FILE: &str = "manifest.cinct";
/// Snapshot-stream magic prefix ("CINCSN" as bytes, low 16 bits = version).
const SNAPSHOT_PREFIX: u64 = 0x4349_4e43_534e_0000;
/// Snapshot-stream format version, the only one this build reads or
/// writes (2 = [`checksum64`] trailer).
const SNAPSHOT_VERSION: u64 = 2;

/// File name of shard `s` inside the directory. **Content-addressed**:
/// the name embeds the file's own checksum, so a re-save (after
/// `append_batch`/`compact`) never overwrites a file the current
/// manifest still references — crash-safety depends on this (see
/// [`ShardedCinct::save_dir`]).
pub fn shard_file_name(s: usize, checksum: u64) -> String {
    format!("shard-{s:05}-{checksum:016x}.cinct")
}

/// How hard the store pushes bytes toward the platter.
///
/// [`Durability::Durable`] (the default everywhere) fsyncs each file
/// before its commit rename and fsyncs the parent directory after, so a
/// completed [`ShardedCinct::save_dir`] survives not just a process crash
/// but a machine crash. [`Durability::Fast`] skips every fsync — the
/// temp-file + rename discipline still protects against *process* death,
/// but a power cut can lose the whole save. Benches opt into `Fast` to
/// measure compute without storage-stack noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// fsync files and the parent directory around the commit rename.
    #[default]
    Durable,
    /// No fsync: page-cache durability only (benches, scratch corpora).
    Fast,
}

/// Write `bytes` to `path` atomically: through a `.tmp` sibling +
/// rename, so readers never observe a half-written file. Under
/// [`Durability::Durable`] the sibling is fsynced before the rename (the
/// rename must not beat its data to disk) and the parent directory after
/// (the rename itself must survive power loss).
fn write_atomic(path: &FsPath, bytes: &[u8], durability: Durability) -> Result<(), QueryError> {
    let tmp = path.with_extension("tmp");
    faultio::write_file(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    if durability == Durability::Durable {
        faultio::sync_path(&tmp).map_err(|e| fsync_err(&tmp, e))?;
    }
    faultio::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    if durability == Durability::Durable {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        let parent = parent.unwrap_or(FsPath::new("."));
        faultio::sync_path(parent).map_err(|e| fsync_err(parent, e))?;
    }
    Ok(())
}

/// Land a content-addressed file: [`write_atomic`] unless `path` already
/// holds exactly `bytes`. The name alone proves nothing — a file that
/// rotted after it was written keeps its name, and trusting it would
/// commit a manifest the next open refuses — so the bytes on disk are
/// compared with the good bytes in hand.
fn write_content_addressed(
    path: &FsPath,
    bytes: &[u8],
    durability: Durability,
) -> Result<(), QueryError> {
    if faultio::read(path).is_ok_and(|disk| disk == bytes) {
        return Ok(());
    }
    write_atomic(path, bytes, durability)
}

/// An fsync failure leaves durability unknown — surface it as an error
/// (callers must not ack) and count it, because a recurring fsync failure
/// is a dying disk.
pub(crate) fn fsync_err(path: &FsPath, e: std::io::Error) -> QueryError {
    crate::metrics::store().fsync_fail.inc();
    QueryError::Io(format!("fsync {}: {e}", path.display()))
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One XXH64-style round: a bijection in `w` for a fixed `acc`, and in
/// `acc` for a fixed `w` (odd multipliers, rotation and addition all are).
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The store's integrity checksum, over the manifest, every shard file,
/// the snapshot stream and each WAL record. Not cryptographic; it guards
/// against truncation, bit rot and mixed-up files, which is the failure
/// model for a local index directory.
///
/// Four independent 64-bit lanes consume 32-byte stripes, so the loop is
/// bound by multiply throughput, not by one multiply's latency per byte.
/// The byte length seeds the fold; the lanes, the 8-byte words of the
/// < 32-byte tail and its last bytes follow in order, then an avalanche.
/// Every step is a bijection in the input it changes, so damage confined
/// to one aligned 8-byte word, or to one tail byte, always changes the
/// digest.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte word"));
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    let mut h = (bytes.len() as u64).wrapping_add(P5);
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w))).rotate_left(27);
        h = h.wrapping_mul(P1).wrapping_add(P4);
    }
    for &b in words.remainder() {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

pub(crate) fn io_err(path: &FsPath, e: std::io::Error) -> QueryError {
    QueryError::Io(format!("{}: {:?}: {e}", path.display(), e.kind()))
}

fn corrupt(msg: impl Into<String>) -> QueryError {
    QueryError::CorruptIndex(msg.into())
}

/// Serialize the labeling strategy as `(tag, seed)`.
fn labeling_to_raw(l: LabelingStrategy) -> (u64, u64) {
    match l {
        LabelingStrategy::BigramSorted => (0, 0),
        LabelingStrategy::Random { seed } => (1, seed),
    }
}

fn labeling_from_raw(tag: u64, seed: u64) -> Result<LabelingStrategy, QueryError> {
    match tag {
        0 => Ok(LabelingStrategy::BigramSorted),
        1 => Ok(LabelingStrategy::Random { seed }),
        t => Err(corrupt(format!("unknown labeling strategy tag {t}"))),
    }
}

fn partition_to_raw(p: ShardPartition) -> u64 {
    match p {
        ShardPartition::RoundRobin => 0,
        ShardPartition::SizeBalanced => 1,
    }
}

fn partition_from_raw(tag: u64) -> Result<ShardPartition, QueryError> {
    match tag {
        0 => Ok(ShardPartition::RoundRobin),
        1 => Ok(ShardPartition::SizeBalanced),
        t => Err(corrupt(format!("unknown partition strategy tag {t}"))),
    }
}

/// How [`ShardedCinct::open_dir_with`] reacts to a damaged shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpenMode {
    /// Any structural failure anywhere fails the whole open — the
    /// default, and the right answer for pipelines that would rather
    /// stop than silently serve a partial corpus.
    #[default]
    Strict,
    /// Quarantine shards that fail their checksum / parse / namespace
    /// checks and serve the rest. The result reports the damage through
    /// [`ShardedCinct::quarantined`] and refuses `save_dir`/`compact`
    /// (which would launder the loss into a "clean" corpus). Manifest
    /// damage is still fatal — without it nothing can be trusted.
    Resilient,
}

impl ShardedCinct {
    /// Persist the sharded index into directory `dir` (created if
    /// missing): one file per shard plus the checksummed manifest.
    /// Durable ([`Durability::Durable`]): every file is fsynced and the
    /// directory fsynced after the manifest rename — see
    /// [`ShardedCinct::save_dir_with`] for the benchmark escape hatch.
    ///
    /// **Crash-safe by construction**: shard files are content-addressed
    /// ([`shard_file_name`] embeds the checksum), so a save never
    /// overwrites a file the live manifest references — unchanged shards
    /// are not even rewritten (an `append_batch` + save touches only the
    /// new shard). Every file lands via temp-file + rename, and the
    /// manifest is renamed **last**: a crash at any point leaves the old
    /// manifest describing the old (untouched) files — a fully
    /// consistent old index — plus possibly some unreferenced new files,
    /// which the next successful save garbage-collects.
    pub fn save_dir(&self, dir: impl AsRef<FsPath>) -> Result<(), QueryError> {
        self.save_dir_with(dir, Durability::Durable)
    }

    /// [`ShardedCinct::save_dir`] with an explicit [`Durability`] choice.
    ///
    /// Refuses to save a **degraded** corpus (one opened resiliently with
    /// quarantined shards): the manifest written here would describe only
    /// the surviving shards, quietly turning quarantine into deletion.
    /// Recover the damaged files (or accept the loss by rebuilding from
    /// extracted trajectories) instead.
    pub fn save_dir_with(
        &self,
        dir: impl AsRef<FsPath>,
        durability: Durability,
    ) -> Result<(), QueryError> {
        self.save_dir_at(dir, durability, 0)
    }

    /// [`ShardedCinct::save_dir_with`] that also stamps `wal_position`
    /// into the manifest: the WAL sequence number this save absorbs
    /// (every journaled record below it is folded into the manifest).
    /// `Wal::open` reads the stamp back and skips replaying absorbed
    /// records — without it, a crash *between* the manifest rename and
    /// the WAL retire would replay records the manifest already holds,
    /// applying them twice. Callers without a WAL pass 0 (nothing is
    /// absorbed, nothing is filtered).
    pub fn save_dir_at(
        &self,
        dir: impl AsRef<FsPath>,
        durability: Durability,
        wal_position: u64,
    ) -> Result<(), QueryError> {
        let _span = cinct_obs::Span::enter(&crate::metrics::store().save_ns);
        if self.is_degraded() {
            return Err(QueryError::InvalidInput(format!(
                "refusing to save a degraded corpus ({} quarantined shard(s) would be dropped)",
                self.quarantined().len()
            )));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        // Shard files first, collecting names + checksums for the manifest.
        let shards = self.serialize_shards()?;
        for (name, bytes, _) in &shards {
            write_content_addressed(&dir.join(name), bytes, durability)?;
        }
        let m = self.manifest_bytes(&shards, wal_position)?;
        write_atomic(&dir.join(MANIFEST_FILE), &m, durability)?;
        // The new manifest is live — garbage-collect shard files it does
        // not reference (previous generations, stray temp files). Best
        // effort: a leftover file is harmless, only disk overhead.
        if let Ok(rd) = std::fs::read_dir(dir) {
            for entry in rd.flatten() {
                let fname = entry.file_name();
                let fname = fname.to_string_lossy();
                let stale_shard = fname.starts_with("shard-")
                    && fname.ends_with(".cinct")
                    && !shards.iter().any(|(n, _, _)| n == &*fname);
                if stale_shard || fname.ends_with(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Serialize every shard, returning `(file name, bytes, checksum)`
    /// per shard — the common front half of [`ShardedCinct::save_dir`]
    /// and [`ShardedCinct::snapshot_to_vec`].
    fn serialize_shards(&self) -> Result<Vec<(String, Vec<u8>, u64)>, QueryError> {
        let mut out = Vec::with_capacity(self.num_shards());
        for s in 0..self.num_shards() {
            let mut bytes = Vec::new();
            self.shard_index(s)
                .write_to(&mut bytes)
                .map_err(|e| QueryError::Io(format!("serialize shard {s}: {e}")))?;
            let checksum = checksum64(&bytes);
            out.push((shard_file_name(s, checksum), bytes, checksum));
        }
        Ok(out)
    }

    /// Build the manifest byte stream (header, absorbed WAL position,
    /// config, per-shard directory, trailing self-checksum) over the
    /// serialized shards. `wal_position` sits at a fixed offset right
    /// after the magic word so [`manifest_wal_position`] can read it
    /// without parsing the whole directory.
    fn manifest_bytes(
        &self,
        shards: &[(String, Vec<u8>, u64)],
        wal_position: u64,
    ) -> Result<Vec<u8>, QueryError> {
        let mut m: Vec<u8> = Vec::new();
        let w = &mut m as &mut dyn std::io::Write;
        write_u64(w, MANIFEST_PREFIX | MANIFEST_VERSION)?;
        write_u64(w, wal_position)?;
        write_usize(w, self.network_edges())?;
        let b = self.config().index_builder_config();
        write_usize(w, b.configured_block_size())?;
        write_usize(w, b.configured_locate_sampling().unwrap_or(0))?;
        let (ltag, lseed) = labeling_to_raw(b.configured_labeling());
        write_u64(w, ltag)?;
        write_u64(w, lseed)?;
        write_u64(w, partition_to_raw(self.config().configured_partition()))?;
        write_usize(w, self.config().configured_threads())?;
        write_usize(w, self.num_trajectories())?;
        write_usize(w, self.num_shards())?;
        for (s, (name, _, checksum)) in shards.iter().enumerate() {
            name.as_bytes().to_vec().persist(w)?;
            write_usize(w, self.shard_index(s).num_trajectories())?;
            write_u64(w, *checksum)?;
            self.shard_globals(s).to_vec().persist(w)?;
            self.shard_pruning(s).persist(w)?;
        }
        let digest = checksum64(&m);
        write_u64(&mut m, digest)?;
        Ok(m)
    }

    /// Serialize the whole corpus as one self-describing **snapshot
    /// stream** — the follower-bootstrap payload behind the primary's
    /// `/repl/snapshot` endpoint. The stream carries the manifest, every
    /// shard file, and `absorbed_seq`: the WAL position this snapshot
    /// absorbs (every record below it is already folded in, so a
    /// follower installing the snapshot resumes pulling from exactly
    /// `absorbed_seq`). A trailing [`checksum64`] over the whole stream
    /// catches truncation in transit before any field is trusted.
    ///
    /// Refuses a degraded corpus for the same reason `save_dir` does:
    /// the snapshot would quietly turn quarantine into deletion on
    /// every follower that bootstraps from it.
    pub fn snapshot_to_vec(&self, absorbed_seq: u64) -> Result<Vec<u8>, QueryError> {
        if self.is_degraded() {
            return Err(QueryError::InvalidInput(format!(
                "refusing to snapshot a degraded corpus ({} quarantined shard(s) would be dropped)",
                self.quarantined().len()
            )));
        }
        let shards = self.serialize_shards()?;
        let manifest = self.manifest_bytes(&shards, absorbed_seq)?;
        let mut out: Vec<u8> = Vec::new();
        let w = &mut out as &mut dyn std::io::Write;
        write_u64(w, SNAPSHOT_PREFIX | SNAPSHOT_VERSION)?;
        write_u64(w, absorbed_seq)?;
        manifest.persist(w)?;
        write_usize(w, shards.len())?;
        for (name, bytes, _) in shards {
            name.into_bytes().persist(w)?;
            bytes.persist(w)?;
        }
        let digest = checksum64(&out);
        write_u64(&mut out, digest)?;
        Ok(out)
    }

    /// Install a [`ShardedCinct::snapshot_to_vec`] stream into `dir` and
    /// open it, returning the corpus and the WAL position the snapshot
    /// absorbs. Files land through the same atomic temp-file + rename
    /// discipline as `save_dir`, manifest last, so a crash mid-install
    /// leaves either the previous corpus or the new one — never a mix.
    /// Shards are restored through [`CinctIndex::read_from`] by the closing
    /// `open_dir`, so a stream from a build with another index format
    /// version is refused with the same typed error as a saved directory.
    /// The caller owns re-basing its WAL at the returned position (see
    /// `Wal::create_at`).
    pub fn install_snapshot(
        dir: impl AsRef<FsPath>,
        stream: &[u8],
        durability: Durability,
    ) -> Result<(ShardedCinct, u64), QueryError> {
        let dir = dir.as_ref();
        if stream.len() < 24 {
            return Err(corrupt("snapshot stream too short to hold a header"));
        }
        let magic = u64::from_le_bytes(stream[..8].try_into().expect("length checked"));
        if magic & !0xffff != SNAPSHOT_PREFIX {
            return Err(corrupt("not a CiNCT snapshot (bad magic)"));
        }
        let version = magic & 0xffff;
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(format!(
                "unsupported snapshot version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        let (body, tail) = stream.split_at(stream.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum64(body) != stored {
            crate::metrics::store().checksum_fail.inc();
            return Err(corrupt(
                "snapshot stream checksum mismatch (truncated or corrupted in transit)",
            ));
        }
        crate::metrics::store().checksum_ok.inc();
        let mut cur = Cursor::new(&body[8..]);
        let r = &mut cur as &mut dyn std::io::Read;
        let absorbed_seq = read_u64(r)?;
        let manifest: Vec<u8> = Persist::restore(r)?;
        let n_files = read_usize(r)?;
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        for i in 0..n_files {
            let name_bytes: Vec<u8> = Persist::restore(r)?;
            let name = String::from_utf8(name_bytes)
                .map_err(|_| corrupt(format!("snapshot file {i}: name is not UTF-8")))?;
            if name.contains(['/', '\\']) || name.contains("..") || name.is_empty() {
                return Err(corrupt(format!(
                    "snapshot file {i}: unsafe file name {name:?}"
                )));
            }
            let bytes: Vec<u8> = Persist::restore(r)?;
            write_content_addressed(&dir.join(&name), &bytes, durability)?;
        }
        // Manifest last: the rename is the commit point, exactly as in
        // `save_dir`. Only after it lands does the new corpus exist.
        write_atomic(&dir.join(MANIFEST_FILE), &manifest, durability)?;
        let corpus = ShardedCinct::open_dir(dir)?;
        Ok((corpus, absorbed_seq))
    }

    /// Reopen a directory written by [`ShardedCinct::save_dir`]
    /// (strict: any structural failure anywhere fails the open).
    ///
    /// Every structural failure is a typed error (see the
    /// [module docs](self) for the taxonomy); nothing panics on corrupt
    /// or missing state.
    pub fn open_dir(dir: impl AsRef<FsPath>) -> Result<ShardedCinct, QueryError> {
        Self::open_dir_with(dir, OpenMode::Strict)
    }

    /// Reopen a directory with an explicit damage policy — see
    /// [`OpenMode`]. Under [`OpenMode::Resilient`] a shard that fails its
    /// checksum, parse, or namespace checks is **quarantined** (recorded
    /// in [`ShardedCinct::quarantined`], counted in
    /// `cinct_store_quarantined_shards_total`) and the rest of the corpus
    /// is served; its trajectories read as absent. Both modes sweep
    /// crash-leftover `*.tmp` siblings after a successful open.
    pub fn open_dir_with(
        dir: impl AsRef<FsPath>,
        mode: OpenMode,
    ) -> Result<ShardedCinct, QueryError> {
        let _span = cinct_obs::Span::enter(&crate::metrics::store().open_ns);
        let dir = dir.as_ref();
        let mpath = dir.join(MANIFEST_FILE);
        let bytes = faultio::read(&mpath).map_err(|e| io_err(&mpath, e))?;
        if bytes.len() < 16 {
            return Err(corrupt("shard manifest too short to hold a header"));
        }
        // Header sanity precedes everything: a wrong-magic or other-
        // version file should say so, not "checksum mismatch".
        let magic = u64::from_le_bytes(bytes[..8].try_into().expect("length checked"));
        if magic & !0xffff != MANIFEST_PREFIX {
            return Err(corrupt("not a CiNCT shard manifest (bad magic)"));
        }
        let version = magic & 0xffff;
        if version != MANIFEST_VERSION {
            return Err(corrupt(format!(
                "unsupported shard manifest version {version} \
                 (this build reads {MANIFEST_VERSION})"
            )));
        }
        // Integrity: trailing checksum over the whole body. Catches truncation
        // and bit rot before any field is parsed.
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum64(body) != stored {
            crate::metrics::store().checksum_fail.inc();
            return Err(corrupt(
                "shard manifest checksum mismatch (truncated or corrupted)",
            ));
        }
        crate::metrics::store().checksum_ok.inc();
        let mut cur = Cursor::new(&body[8..]);
        let r = &mut cur as &mut dyn std::io::Read;
        // The absorbed WAL position: consumed here to keep the cursor
        // aligned, read directly by `manifest_wal_position` (the WAL's
        // replay filter), irrelevant to the corpus itself.
        let _wal_position = read_u64(r)?;
        let n_edges = read_usize(r)?;
        let block_size = read_usize(r)?;
        let locate = read_usize(r)?;
        let ltag = read_u64(r)?;
        let lseed = read_u64(r)?;
        let labeling = labeling_from_raw(ltag, lseed)?;
        let partition = partition_from_raw(read_u64(r)?)?;
        let threads = read_usize(r)?;
        let n_trajs = read_usize(r)?;
        let n_shards = read_usize(r)?;
        let mut index_builder = CinctBuilder::new()
            .block_size(block_size)
            .labeling(labeling);
        if locate > 0 {
            index_builder = index_builder.locate_sampling(locate);
        }
        let config = ShardedBuilder::new()
            .shards(n_shards.max(1))
            .partition(partition)
            .threads(threads)
            .index_builder(index_builder);

        let mut shards = Vec::with_capacity(n_shards);
        let mut quarantined: Vec<QuarantinedShard> = Vec::new();
        // Which global IDs the accepted shards claim — resilient mode
        // must reject a duplicate claim per shard, not per corpus.
        let mut seen = vec![false; n_trajs];
        for s in 0..n_shards {
            // Manifest fields always parse (the stream has one layout);
            // only the shard *file* and its cross-checks can quarantine.
            let name_bytes: Vec<u8> = Persist::restore(r)?;
            let name = String::from_utf8_lossy(&name_bytes).into_owned();
            let n_local = read_usize(r)?;
            let checksum = read_u64(r)?;
            let globals: Vec<u32> = Persist::restore(r)?;
            let pruning = crate::prune::ShardPruning::restore(r)?;
            match load_shard(
                dir, s, &name, n_local, checksum, &globals, pruning, n_edges, &mut seen,
            ) {
                Ok(shard) => shards.push(shard),
                Err(e) if mode == OpenMode::Resilient => {
                    crate::metrics::store().quarantined.inc();
                    quarantined.push(QuarantinedShard {
                        slot: s,
                        file: name,
                        trajectories: n_local,
                        reason: e.to_string(),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        let loaded =
            ShardedCinct::assemble_with_holes(shards, n_trajs, n_edges, config, quarantined)?;
        if loaded.num_trajectories() != n_trajs {
            return Err(corrupt(format!(
                "manifest declares {n_trajs} trajectories, shards hold {}",
                loaded.num_trajectories()
            )));
        }
        // A crashed save can strand `*.tmp` siblings forever (save_dir's
        // GC only runs on the next save). Sweep them now that the open
        // proved the directory coherent. Best effort.
        if let Ok(rd) = std::fs::read_dir(dir) {
            for entry in rd.flatten() {
                let is_tmp = entry.file_name().to_string_lossy().ends_with(".tmp");
                if is_tmp && std::fs::remove_file(entry.path()).is_ok() {
                    crate::metrics::store().tmp_swept.inc();
                }
            }
        }
        Ok(loaded)
    }
}

/// Load + fully validate one shard: manifest cross-checks (safe file
/// name, ID-column arity, namespace claims against `seen`), then the
/// file itself (checksum before parse). Marks `seen` only on success so
/// a rejected shard leaves no namespace footprint.
///
/// `pruning` is the manifest's block; it is trusted only after a shape +
/// ID-span sanity check, and re-derived from the loaded index otherwise
/// (derivation is exact, so a mismatched block costs O(σ) per shard,
/// never correctness).
#[allow(clippy::too_many_arguments)]
fn load_shard(
    dir: &FsPath,
    s: usize,
    name: &str,
    n_local: usize,
    checksum: u64,
    globals: &[u32],
    pruning: crate::prune::ShardPruning,
    n_edges: usize,
    seen: &mut [bool],
) -> Result<Shard, QueryError> {
    if name.contains(['/', '\\']) || name.contains("..") || name.is_empty() {
        return Err(corrupt(format!(
            "shard {s}: unsafe file name {name:?} in manifest"
        )));
    }
    if globals.len() != n_local {
        return Err(corrupt(format!(
            "shard {s}: manifest declares {n_local} trajectories but lists {} IDs",
            globals.len()
        )));
    }
    // Claim the shard's IDs up front (so a duplicate inside the shard is
    // caught too), rolling every claim back if anything later fails —
    // a quarantined shard must leave no namespace footprint.
    let rollback = |seen: &mut [bool], n: usize| {
        for &g in &globals[..n] {
            seen[g as usize] = false;
        }
    };
    for (i, &g) in globals.iter().enumerate() {
        let gi = g as usize;
        if gi >= seen.len() {
            rollback(seen, i);
            return Err(corrupt(format!(
                "shard {s}: global trajectory id {g} out of range (corpus has {})",
                seen.len()
            )));
        }
        if seen[gi] {
            rollback(seen, i);
            return Err(corrupt(format!(
                "shard {s}: global trajectory id {g} claimed twice"
            )));
        }
        seen[gi] = true;
    }
    let spath = dir.join(name);
    let loaded = (|| {
        let sbytes = faultio::read(&spath).map_err(|e| io_err(&spath, e))?;
        if checksum64(&sbytes) != checksum {
            crate::metrics::store().checksum_fail.inc();
            return Err(corrupt(format!(
                "shard file {} checksum mismatch (truncated or corrupted)",
                spath.display()
            )));
        }
        crate::metrics::store().checksum_ok.inc();
        CinctIndex::read_from(&mut Cursor::new(sbytes))
    })();
    match loaded {
        Ok(index) => {
            let pruning = if pruning.matches(n_edges, globals) {
                pruning
            } else {
                crate::prune::ShardPruning::derive(&index, n_edges, globals)
            };
            Ok(Shard {
                index,
                globals: globals.to_vec(),
                pruning,
            })
        }
        Err(e) => {
            rollback(seen, globals.len());
            Err(e)
        }
    }
}

/// The WAL position stamped into `dir`'s manifest by
/// [`ShardedCinct::save_dir_at`] — every journaled record below it is
/// already folded into the saved corpus. `None` when there is no
/// manifest, or it fails its magic/version/checksum checks (the full
/// open will report that damage properly; the WAL replay filter just
/// falls back to replaying everything). Reads through `std::fs`, not
/// [`faultio`], so consulting it never perturbs an armed fault plan's
/// operation counts.
pub(crate) fn manifest_wal_position(dir: &FsPath) -> Option<u64> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE)).ok()?;
    if bytes.len() < 24 {
        return None;
    }
    let magic = u64::from_le_bytes(bytes[..8].try_into().ok()?);
    if magic != MANIFEST_PREFIX | MANIFEST_VERSION {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if checksum64(body) != u64::from_le_bytes(tail.try_into().ok()?) {
        return None;
    }
    Some(u64::from_le_bytes(bytes[8..16].try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinct_fmindex::{Path, PathQuery};

    fn paper_trajs() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
    }

    /// Fresh scratch directory under the system temp dir.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cinct-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn build_sharded() -> ShardedCinct {
        ShardedBuilder::new()
            .shards(3)
            .locate_sampling(2)
            .build(&paper_trajs(), 6)
    }

    /// Shard files currently in `dir`, sorted (so `[0]` is shard 0 —
    /// names embed the shard index first).
    fn shard_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                let n = p.file_name().unwrap().to_string_lossy().into_owned();
                n.starts_with("shard-") && n.ends_with(".cinct")
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = scratch("roundtrip");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        assert_eq!(back.num_shards(), sharded.num_shards());
        assert_eq!(back.num_trajectories(), sharded.num_trajectories());
        assert_eq!(back.network_edges(), 6);
        for g in 0..4 {
            assert_eq!(back.trajectory(g), sharded.trajectory(g), "g={g}");
        }
        assert_eq!(back.count(Path::new(&[0, 1])), 2);
        assert_eq!(
            back.occurrences(Path::new(&[1, 2]))
                .unwrap()
                .collect_sorted(),
            vec![(1, 1), (2, 0)]
        );
        // The restored config keeps building compatible shards.
        let mut back = back;
        back.append_batch(&[vec![1, 2]]).unwrap();
        assert_eq!(back.count(Path::new(&[1, 2])), 3);
        assert!(back.locate_supported());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_append_then_save_roundtrips_again() {
        let dir = scratch("append-resave");
        let mut sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        sharded.append_batch(&[vec![0, 1, 2]]).unwrap();
        sharded.save_dir(&dir).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        assert_eq!(back.num_trajectories(), 5);
        assert_eq!(back.trajectory(4), vec![0, 1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_and_manifest_are_io_errors() {
        let dir = scratch("missing");
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::Io(msg)) => assert!(msg.contains(MANIFEST_FILE), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn missing_shard_file_is_an_io_error() {
        let dir = scratch("missing-shard");
        build_sharded().save_dir(&dir).unwrap();
        let victim = shard_files(&dir).remove(1);
        std::fs::remove_file(&victim).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::Io(msg)) => {
                assert!(
                    msg.contains(&*victim.file_name().unwrap().to_string_lossy()),
                    "{msg}"
                )
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saves_are_incremental_and_garbage_collected() {
        // Content-addressed shard files: an append + re-save writes only
        // the new shard; a compact + re-save replaces the set and GCs
        // the previous generation.
        let dir = scratch("gc");
        let mut sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        let first_gen = shard_files(&dir);
        assert_eq!(first_gen.len(), sharded.num_shards());
        let mtime = |p: &std::path::PathBuf| std::fs::metadata(p).unwrap().modified().unwrap();
        let stamps: Vec<_> = first_gen.iter().map(&mtime).collect();
        sharded.append_batch(&[vec![0, 1, 2]]).unwrap();
        sharded.save_dir(&dir).unwrap();
        // Old shard files survive untouched (same mtime), one new file.
        let second_gen = shard_files(&dir);
        assert_eq!(second_gen.len(), first_gen.len() + 1);
        for (p, stamp) in first_gen.iter().zip(&stamps) {
            assert_eq!(&mtime(p), stamp, "{p:?} was rewritten");
        }
        // Compaction changes every shard: the old generation is GC'd.
        sharded.compact(2).unwrap();
        sharded.save_dir(&dir).unwrap();
        let third_gen = shard_files(&dir);
        assert_eq!(third_gen.len(), sharded.num_shards());
        for old in &second_gen {
            assert!(!third_gen.contains(old), "stale {old:?} not collected");
        }
        let back = ShardedCinct::open_dir(&dir).unwrap();
        assert_eq!(back.num_trajectories(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_leaves_the_old_index_loadable() {
        // Simulate a crash between "new shard files written" and "new
        // manifest renamed": write a *different* index's shard files into
        // the directory without touching the manifest. The old manifest
        // must still load the old index, referencing only old files.
        let dir = scratch("crash");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        let mut bigger = sharded.clone();
        bigger.append_batch(&[vec![1, 2, 5]]).unwrap();
        bigger.compact(2).unwrap();
        // "Crashed" save: the new generation's shard files appear (what
        // save_dir writes before the manifest rename) but the manifest
        // rename never happens — old manifest and old files untouched.
        let staging = scratch("crash-staging");
        bigger.save_dir(&staging).unwrap();
        for f in shard_files(&staging) {
            std::fs::copy(&f, dir.join(f.file_name().unwrap())).unwrap();
        }
        std::fs::remove_dir_all(&staging).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        assert_eq!(back.num_trajectories(), sharded.num_trajectories());
        assert_eq!(back.count(Path::new(&[0, 1])), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_and_bad_version_are_corrupt_index() {
        let dir = scratch("magic");
        build_sharded().save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let original = std::fs::read(&mpath).unwrap();

        // Not a manifest at all.
        let mut garbled = original.clone();
        garbled[..8].copy_from_slice(&0xdead_beef_dead_beefu64.to_le_bytes());
        std::fs::write(&mpath, &garbled).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }

        // Right magic, future version.
        let mut future = original.clone();
        future[..8].copy_from_slice(&(MANIFEST_PREFIX | 999).to_le_bytes());
        std::fs::write(&mpath, &future).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains("version 999"), "{msg}")
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_and_bit_flipped_manifests_are_corrupt_index() {
        let dir = scratch("truncate");
        build_sharded().save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let original = std::fs::read(&mpath).unwrap();

        // Truncation (drop the tail — checksum no longer matches).
        std::fs::write(&mpath, &original[..original.len() - 9]).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }

        // Truncation below a parseable header.
        std::fs::write(&mpath, &original[..10]).unwrap();
        assert!(matches!(
            ShardedCinct::open_dir(&dir),
            Err(QueryError::CorruptIndex(_))
        ));

        // A flipped bit mid-body.
        let mut flipped = original.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&mpath, &flipped).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_shard_file_is_corrupt_index() {
        let dir = scratch("shard-corrupt");
        build_sharded().save_dir(&dir).unwrap();
        let spath = shard_files(&dir).remove(0);
        let mut bytes = std::fs::read(&spath).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&spath, &bytes).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        // Truncated shard file: also caught by the checksum, before the
        // index parser ever runs.
        let spath = shard_files(&dir).remove(1);
        let bytes = std::fs::read(&spath).unwrap();
        std::fs::write(&spath, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            ShardedCinct::open_dir(&dir),
            Err(QueryError::CorruptIndex(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Stamp a saved manifest with `version` and assert the open fails
    /// with a typed CorruptIndex naming that version and the one read.
    fn assert_manifest_version_rejected(tag: &str, version: u64) {
        let dir = scratch(tag);
        build_sharded().save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        bytes[..8].copy_from_slice(&(MANIFEST_PREFIX | version).to_le_bytes());
        std::fs::write(&mpath, &bytes).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains(&format!("version {version}")), "{msg}");
                assert!(msg.contains(&format!("reads {MANIFEST_VERSION}")), "{msg}");
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        // The WAL replay filter is equally strict about versions.
        assert_eq!(manifest_wal_position(&dir), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_manifest_is_rejected_like_any_unsupported_version() {
        // One format: nothing outside this repo ever wrote a pre-pruning
        // v2 directory, so it gets no read path of its own.
        assert_manifest_version_rejected("v2-rejected", 2);
    }

    #[test]
    fn v3_manifest_of_the_previous_build_is_rejected_typed() {
        // v3 differs from v4 only in its checksum function, yet gets no
        // bridge: the version check runs before any checksum, so the
        // operator is told which version to rebuild, not "checksum
        // mismatch".
        assert_manifest_version_rejected("v3-rejected", 3);
    }

    #[test]
    fn future_manifest_version_is_rejected_typed() {
        assert_manifest_version_rejected("v5-future", MANIFEST_VERSION + 1);
    }

    #[test]
    fn v2_shard_file_is_refused_strict_and_quarantined_resilient() {
        // A shard file headed with index format 3, the newest one this
        // build refuses, whose checksum the manifest vouches for:
        // integrity passes, so only the index header's version check
        // stands between it and a misread payload.
        let dir = scratch("v3-shard");
        build_sharded().save_dir(&dir).unwrap();
        let spath = shard_files(&dir).remove(0);
        let mut sbytes = std::fs::read(&spath).unwrap();
        let old_sum = checksum64(&sbytes);
        sbytes[..8].copy_from_slice(&0x4349_4e43_5431_0003u64.to_le_bytes());
        std::fs::write(&spath, &sbytes).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut manifest = std::fs::read(&mpath).unwrap();
        let body = manifest.len() - 8;
        let at = (0..body - 8)
            .find(|&i| manifest[i..i + 8] == old_sum.to_le_bytes())
            .expect("manifest records the shard checksum");
        manifest[at..at + 8].copy_from_slice(&checksum64(&sbytes).to_le_bytes());
        let digest = checksum64(&manifest[..body]);
        manifest[body..].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&mpath, &manifest).unwrap();

        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains("index version 3"), "{msg}")
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        let degraded = ShardedCinct::open_dir_with(&dir, OpenMode::Resilient).unwrap();
        assert_eq!(degraded.quarantined().len(), 1);
        assert!(degraded.quarantined()[0].reason.contains("index version 3"));
        assert_eq!(degraded.num_shards(), build_sharded().num_shards() - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_checksum_covers_the_pruning_block() {
        // The pruning blocks sit between the shard directory and the
        // trailing checksum — a flipped bit inside one must fail the
        // open before any field is trusted.
        let dir = scratch("prune-bitflip");
        build_sharded().save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        // The last shard's pruning block ends 16 bytes (ID span) before
        // the 8-byte checksum tail; flip a bit inside the span fields.
        let idx = bytes.len() - 12;
        bytes[idx] ^= 0x20;
        std::fs::write(&mpath, &bytes).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_pruning_block_is_rederived_on_open() {
        // A block that passes the checksum but disagrees with the shard's
        // ID column is not trusted: the open re-derives it from the index,
        // exactly, and the corpus prunes like the original.
        let dir = scratch("prune-mismatch");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mpath).unwrap();
        // The last shard's block ends with its ID span; damage the low
        // byte of `max_global` and recompute the trailing checksum.
        let body = bytes.len() - 8;
        bytes[body - 8] ^= 0x20;
        let digest = checksum64(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
        std::fs::write(&mpath, &bytes).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        for s in 0..back.num_shards() {
            assert_eq!(back.shard_pruning(s), sharded.shard_pruning(s), "shard {s}");
        }
        assert_eq!(back.count(Path::new(&[0, 1])), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_corpus_prunes_like_the_original() {
        // Round-robin over the paper corpus puts edge 3 only in shard 1;
        // the persisted pruning block must reproduce that skip on open.
        let dir = scratch("prune-roundtrip");
        let sharded = ShardedBuilder::new()
            .shards(2)
            .partition(ShardPartition::RoundRobin)
            .build(&paper_trajs(), 6);
        assert_eq!(sharded.pruned_edge(0, Path::new(&[0, 3])), Some(3));
        sharded.save_dir(&dir).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        assert_eq!(back.pruned_edge(0, Path::new(&[0, 3])), Some(3));
        assert_eq!(back.pruned_edge(1, Path::new(&[0, 3])), None);
        assert_eq!(back.shard_id_span(0), sharded.shard_id_span(0));
        assert_eq!(back.count(Path::new(&[0, 3])), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrip_installs_an_identical_corpus() {
        let dir = scratch("snapshot");
        let sharded = build_sharded();
        let stream = sharded.snapshot_to_vec(42).unwrap();
        let (back, absorbed) =
            ShardedCinct::install_snapshot(&dir, &stream, Durability::Fast).unwrap();
        assert_eq!(absorbed, 42);
        assert_eq!(back.num_trajectories(), sharded.num_trajectories());
        for g in 0..4 {
            assert_eq!(back.trajectory(g), sharded.trajectory(g), "g={g}");
        }
        assert_eq!(back.count(Path::new(&[0, 1])), 2);
        // Installing over an older corpus replaces it atomically.
        let mut bigger = sharded.clone();
        bigger.append_batch(&[vec![1, 2, 5]]).unwrap();
        let stream2 = bigger.snapshot_to_vec(43).unwrap();
        let (back2, absorbed2) =
            ShardedCinct::install_snapshot(&dir, &stream2, Durability::Fast).unwrap();
        assert_eq!(absorbed2, 43);
        assert_eq!(back2.num_trajectories(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_stream_is_corrupt_index() {
        let dir = scratch("snapshot-trunc");
        let stream = build_sharded().snapshot_to_vec(0).unwrap();
        match ShardedCinct::install_snapshot(&dir, &stream[..stream.len() - 3], Durability::Fast) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_snapshot_stream_is_rejected_before_touching_the_directory() {
        let dir = scratch("snapshot-v1");
        let mut stream = build_sharded().snapshot_to_vec(0).unwrap();
        stream[..8].copy_from_slice(&(SNAPSHOT_PREFIX | 1).to_le_bytes());
        match ShardedCinct::install_snapshot(&dir, &stream, Durability::Fast) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains("version 1"), "{msg}");
                assert!(msg.contains(&format!("reads {SNAPSHOT_VERSION}")), "{msg}");
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        assert!(!dir.exists(), "a refused stream created the directory");
    }

    /// Flip one bit in the middle of the file at `path`.
    fn rot(path: &std::path::Path) {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn resave_rewrites_a_rotted_shard_file() {
        // The rotted file keeps its content-addressed name, so a save
        // that trusted the name would commit a manifest the next open
        // refuses.
        let dir = scratch("resave-rot");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        rot(&shard_files(&dir)[1]);
        sharded.save_dir(&dir).unwrap();
        let back = ShardedCinct::open_dir(&dir).unwrap();
        for g in 0..4 {
            assert_eq!(back.trajectory(g), sharded.trajectory(g), "g={g}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_install_rewrites_a_rotted_shard_file() {
        let dir = scratch("install-rot");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        rot(&shard_files(&dir)[1]);
        let stream = sharded.snapshot_to_vec(7).unwrap();
        let (back, absorbed) =
            ShardedCinct::install_snapshot(&dir, &stream, Durability::Fast).unwrap();
        assert_eq!(absorbed, 7);
        assert_eq!(back.count(Path::new(&[0, 1])), 2);
        ShardedCinct::open_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_in_a_shard_file_is_a_checksum_error() {
        // Strict: a typed checksum error, never a parse error or a panic.
        // Resilient: exactly the damaged shard is quarantined.
        let dir = scratch("shard-bit-sweep");
        build_sharded().save_dir(&dir).unwrap();
        let spath = shard_files(&dir).remove(0);
        let good = std::fs::read(&spath).unwrap();
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&spath, &bytes).unwrap();
            match ShardedCinct::open_dir(&dir) {
                Err(QueryError::CorruptIndex(msg)) => {
                    assert!(msg.contains("checksum"), "bit {bit}: {msg}")
                }
                other => panic!("bit {bit}: expected CorruptIndex, got {other:?}"),
            }
            let degraded = ShardedCinct::open_dir_with(&dir, OpenMode::Resilient).unwrap();
            let q = degraded.quarantined();
            assert_eq!(q.len(), 1, "bit {bit}");
            assert_eq!(q[0].slot, 0, "bit {bit}");
            assert!(
                q[0].reason.contains("checksum"),
                "bit {bit}: {}",
                q[0].reason
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `n` bytes of a fixed pattern: the top byte of `i · φ·2⁶⁴`.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
            .collect()
    }

    #[test]
    fn checksum64_known_answers() {
        // `checksum64(&pattern(len))` for every length 0..=70: each tail
        // length on both sides of the 32- and 64-byte stripe boundaries.
        // Pinned literally so any change to the function — and so to the
        // manifest, snapshot and WAL formats — fails here.
        const KNOWN: [u64; 71] = [
            0xc1620d0a2dcaa9d2,
            0x2ccc2711faa975c3,
            0x18161ed80b3a5d48,
            0x346079dc583ee432,
            0x13869fe8635be6b3,
            0x561f1dd813e4fe1b,
            0xcda4acb5100fbfc2,
            0xaebc793044debb8d,
            0xbe4049df5f472187,
            0xed35e6a30273b822,
            0xe5ec625b79afc6e1,
            0x31d16ef464b60d47,
            0x6e27300112a54c47,
            0x5acc42c406049fe4,
            0x7b05d72aa777b9ad,
            0x0cb0b93e46717b55,
            0xe3de18a1f5ee617b,
            0xfae327b9af564dd4,
            0x5745f9e421ce0517,
            0x17b3ffe4cbb663f2,
            0x469b45db6c452214,
            0x90d6296c893a6b20,
            0xbff2942ea31b446d,
            0x225aee47f334bc9d,
            0x94969aedd92de47a,
            0x95c601cd5976d8de,
            0x171928d207a405f0,
            0x9ef8f4a43776afd0,
            0x69a573ed78efba33,
            0x39b96f2741c1f77e,
            0x082b58d69a5910d3,
            0xdcf423542b25c69d,
            0x4f27aab714cad2aa,
            0xdd555f6c5e503aae,
            0x3ffcb38520e906f9,
            0x20d872c2e30804cf,
            0xc7408be61afaae5c,
            0x140fdb0f1bbfa603,
            0xd62a7317ab85c3de,
            0x0a9d3a7db8506ef9,
            0x2c6109c40e46c8ad,
            0xccd03f934596cc90,
            0x0a6b144d0185b26f,
            0x7766a794a1f255e6,
            0xd498de37b7f81bbf,
            0x390cd7255aac25d9,
            0xac6a5e241116c088,
            0xdd19aa73ca1b3acf,
            0x5e50aea33bfb54af,
            0xc992a8228ecf7605,
            0x80a8ca396474a1c2,
            0xd07436934735edb8,
            0xb1d106b6a385b17c,
            0xef0a61dbe88ea2fa,
            0xd0e7e9ce717ea31d,
            0x498332e81d349e7d,
            0xd169ca70c47ec52e,
            0xdb743cbbcb5254df,
            0x0871e0e6ac0edfd2,
            0x1cf24189f8cf979c,
            0xc9fe1ebd815f9393,
            0x5e73eb4dde0a9f62,
            0x5a5d14e2bca7ac92,
            0x67052da5d9b8c0bc,
            0x06d82dd87f96b29a,
            0xfb4af93647dd78c7,
            0x3b5c41cb5da79404,
            0x7fdbef64ce03666b,
            0x681f333fbb6bac3e,
            0xa612804ba25157e0,
            0x9c4e332561493320,
        ];
        for (len, &want) in KNOWN.iter().enumerate() {
            assert_eq!(checksum64(&pattern(len)), want, "len {len}");
        }
        assert_eq!(checksum64(&pattern(1 << 20)), 0x3a3215eb656bd509, "1 MiB");
    }

    /// 4 KiB from a 64-bit LCG: no two 8-byte words alike.
    fn noise() -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn checksum64_catches_bit_flips_word_swaps_and_appended_zeros() {
        let buf = noise();
        let base = checksum64(&buf);
        for bit in 0..buf.len() * 8 {
            let mut b = buf.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&b), base, "bit {bit}");
        }
        for w in 0..buf.len() / 8 - 1 {
            let mut b = buf.clone();
            b[w * 8..w * 8 + 16].rotate_left(8);
            assert_ne!(b, buf);
            assert_ne!(checksum64(&b), base, "swap words {w}, {}", w + 1);
        }
        for len in (0..=70).chain([buf.len()]) {
            let mut b = buf[..len].to_vec();
            let before = checksum64(&b);
            b.push(0);
            assert_ne!(checksum64(&b), before, "len {len}");
        }
    }
}
