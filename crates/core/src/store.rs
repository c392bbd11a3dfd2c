//! Durable multi-file persistence for [`ShardedCinct`]: a versioned,
//! checksummed shard manifest plus one [`CinctIndex`] file per shard.
//!
//! # On-disk layout
//!
//! ```text
//! corpus.cinct/                    a sharded index is a directory
//!   manifest.cinct                 format v6:
//!     [header word][absorbed WAL position][network edges][6 config words]
//!     [shard count], then per shard:
//!     [file length][file checksum64][global-ID column]
//!     [⌈network edges / 64⌉ edge-membership words]
//!     [checksum64 of everything above]
//!   shard-00000-<checksum>.cinct   CinctIndex (the format of write_to)
//!   shard-00001-<checksum>.cinct
//!   ...
//! snapshot stream                  format v3:
//!   [header word][manifest.cinct][each shard file, in manifest order]
//! ```
//!
//! The absorbed WAL position is [`ShardedCinct::save_dir_at`]'s stamp; the
//! configuration lets [`ShardedCinct::append_batch`] after reopening build
//! new shards identically; the membership words are the exact bitset the
//! fan-out skips shards with ([`crate::prune`]), and their count follows
//! from the network size, so a block of the wrong length moves the seal.
//! The rest is derived: a shard's file name is
//! [`shard_file_name`]`(slot, checksum)`, its trajectory count the length
//! of its ID column, the corpus's their sum. The trailing [`checksum64`]
//! catches truncation or bit rot anywhere in the manifest before any field
//! is trusted, and each shard file is checked against its recorded
//! checksum before it is parsed; a snapshot has no field of its own, so
//! every byte of it is covered the same way. The `format` module owns
//! every header and seal; any other version is refused by number, so an
//! older directory is rebuilt.
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
use crate::format::{self, corrupt};
use crate::index::CinctIndex;
use crate::prune::ShardPruning;
use crate::rml::LabelingStrategy;
use crate::shard::{QuarantinedShard, Shard, ShardPartition, ShardedBuilder, ShardedCinct};
use cinct_fmindex::QueryError;
use cinct_succinct::serial::{read_u64, read_usize, write_u64, write_usize, Persist};
use std::io::Cursor;
use std::path::Path as FsPath;

pub use crate::format::checksum64;

/// The manifest file inside a sharded-index directory.
pub const MANIFEST_FILE: &str = "manifest.cinct";

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

pub(crate) fn io_err(path: &FsPath, e: std::io::Error) -> QueryError {
    QueryError::Io(format!("{}: {:?}: {e}", path.display(), e.kind()))
}

/// A decoded manifest: what [`ShardedCinct::open_dir_with`],
/// [`ShardedCinct::install_snapshot`] and [`manifest_wal_position`] read.
struct Manifest {
    /// The absorbed WAL position ([`ShardedCinct::save_dir_at`]).
    wal_position: u64,
    n_edges: usize,
    /// The construction configuration as [`config_words`] stores it.
    config: [u64; 6],
    shards: Vec<ManifestShard>,
}

/// One shard as the manifest vouches for it.
struct ManifestShard {
    /// Byte length of the shard's file.
    len: usize,
    /// [`checksum64`] of the shard's file, which also names it.
    checksum: u64,
    /// `globals[local] = global`: the shard's ID column.
    globals: Vec<u32>,
    pruning: ShardPruning,
}

/// The construction configuration as six manifest words: block size,
/// locate sampling rate (0 = off), labeling tag and seed, partition tag,
/// threads.
fn config_words(config: &ShardedBuilder) -> [u64; 6] {
    let b = config.index_builder_config();
    let (ltag, lseed) = match b.configured_labeling() {
        LabelingStrategy::BigramSorted => (0, 0),
        LabelingStrategy::Random { seed } => (1, seed),
    };
    let partition = match config.configured_partition() {
        ShardPartition::RoundRobin => 0,
        ShardPartition::SizeBalanced => 1,
    };
    let block = b.configured_block_size() as u64;
    let locate = b.configured_locate_sampling().unwrap_or(0) as u64;
    let threads = config.configured_threads() as u64;
    [block, locate, ltag, lseed, partition, threads]
}

impl Manifest {
    /// The fields behind the header word, up to the seal. Nothing reads
    /// a count without reading what it counts: every collection grows
    /// only as its bytes arrive.
    fn read(r: &mut dyn std::io::Read) -> std::io::Result<Manifest> {
        let mut m = Manifest {
            wal_position: read_u64(r)?,
            n_edges: read_usize(r)?,
            config: [0; 6],
            shards: Vec::new(),
        };
        for word in &mut m.config {
            *word = read_u64(r)?;
        }
        for _ in 0..read_u64(r)? {
            m.shards.push(ManifestShard {
                len: read_usize(r)?,
                checksum: read_u64(r)?,
                globals: Persist::restore(r)?,
                pruning: ShardPruning::restore(r, m.n_edges)?,
            });
        }
        Ok(m)
    }

    /// The builder the manifest's configuration words describe.
    fn builder(&self) -> Result<ShardedBuilder, QueryError> {
        let [block, locate, ltag, lseed, partition, threads] = self.config;
        let size = |w| usize::try_from(w).map_err(|_| corrupt("manifest size overflows usize"));
        let labeling = match ltag {
            0 => LabelingStrategy::BigramSorted,
            1 => LabelingStrategy::Random { seed: lseed },
            t => return Err(corrupt(format!("unknown labeling strategy tag {t}"))),
        };
        let partition = match partition {
            0 => ShardPartition::RoundRobin,
            1 => ShardPartition::SizeBalanced,
            t => return Err(corrupt(format!("unknown partition strategy tag {t}"))),
        };
        let mut index_builder = CinctBuilder::new()
            .block_size(size(block)?)
            .labeling(labeling);
        if locate > 0 {
            index_builder = index_builder.locate_sampling(size(locate)?);
        }
        Ok(ShardedBuilder::new()
            .shards(self.shards.len().max(1))
            .partition(partition)
            .threads(size(threads)?)
            .index_builder(index_builder))
    }
}

/// Decode the sealed manifest at the front of `bytes`, returning it and
/// the bytes behind its seal. The header is checked first, so another
/// version is refused by number; the seal sits where the fields end, so
/// damage to a count or length word, which moves that point or runs the
/// fields past the bytes, fails it like any other rot.
fn decode_manifest(bytes: &[u8]) -> Result<(Manifest, &[u8]), QueryError> {
    let mut fields = Cursor::new(format::MANIFEST.strip(bytes)?);
    let manifest = Manifest::read(&mut fields);
    let end = 8 + fields.position() as usize + 8;
    let sealed = bytes.get(..end).filter(|_| manifest.is_ok());
    format::unseal(sealed.unwrap_or_default(), "shard manifest")?;
    Ok((manifest?, &bytes[end..]))
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
        let shards = self.serialize_shards("save")?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        // Shard files first, the manifest that names them last.
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
    /// and [`ShardedCinct::snapshot_to_vec`], which both refuse a
    /// degraded corpus: what they write would quietly turn quarantine
    /// into deletion, on disk or on every follower that bootstraps.
    fn serialize_shards(&self, verb: &str) -> Result<Vec<(String, Vec<u8>, u64)>, QueryError> {
        if self.is_degraded() {
            return Err(QueryError::InvalidInput(format!(
                "refusing to {verb} a degraded corpus ({} quarantined shard(s) would be dropped)",
                self.quarantined().len()
            )));
        }
        // The open refuses a manifest that lists no shard.
        if self.num_shards() == 0 {
            return Err(QueryError::InvalidInput(format!(
                "refusing to {verb} a corpus with no shard"
            )));
        }
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

    /// The sealed manifest over the serialized shards, stamped with the
    /// absorbed `wal_position` (the layout is in the [module docs](self)).
    fn manifest_bytes(
        &self,
        shards: &[(String, Vec<u8>, u64)],
        wal_position: u64,
    ) -> Result<Vec<u8>, QueryError> {
        let mut m: Vec<u8> = Vec::new();
        let w = &mut m as &mut dyn std::io::Write;
        write_u64(w, format::MANIFEST.header())?;
        write_u64(w, wal_position)?;
        write_usize(w, self.network_edges())?;
        for word in config_words(self.config()) {
            write_u64(w, word)?;
        }
        write_usize(w, self.num_shards())?;
        for (s, (_, bytes, checksum)) in shards.iter().enumerate() {
            write_usize(w, bytes.len())?;
            write_u64(w, *checksum)?;
            self.shard_globals(s).to_vec().persist(w)?;
            self.shard_pruning(s).persist(w)?;
        }
        Ok(format::seal(m))
    }

    /// Serialize the whole corpus as one **snapshot stream** — the
    /// follower-bootstrap payload behind the primary's `/repl/snapshot`
    /// endpoint: the snapshot header word, a manifest stamped with
    /// `absorbed_seq`, then every shard file in manifest order.
    /// `absorbed_seq` is the WAL position the snapshot absorbs (every
    /// record below it is already folded in, so a follower installing
    /// the snapshot resumes pulling from exactly `absorbed_seq`).
    /// Refuses a degraded corpus, as `save_dir` does.
    pub fn snapshot_to_vec(&self, absorbed_seq: u64) -> Result<Vec<u8>, QueryError> {
        let shards = self.serialize_shards("snapshot")?;
        let mut out = format::SNAPSHOT.header().to_le_bytes().to_vec();
        out.extend(self.manifest_bytes(&shards, absorbed_seq)?);
        for (_, bytes, _) in &shards {
            out.extend_from_slice(bytes);
        }
        Ok(out)
    }

    /// Install a [`ShardedCinct::snapshot_to_vec`] stream into `dir` and
    /// open it, returning the corpus and the WAL position the snapshot
    /// absorbs. The manifest is decoded and every file checked against
    /// its checksum before anything is written, so a damaged stream
    /// leaves `dir` untouched. Files land through the same atomic
    /// temp-file + rename discipline as `save_dir`, manifest last, so a
    /// crash mid-install leaves either the previous corpus or the new
    /// one — never a mix. Shards are restored through
    /// [`CinctIndex::read_from`] by the closing `open_dir`, so a stream
    /// from a build with another index format version is refused with
    /// the same typed error as a saved directory. The caller owns
    /// re-basing its WAL at the returned position (see `Wal::create_at`).
    pub fn install_snapshot(
        dir: impl AsRef<FsPath>,
        stream: &[u8],
        durability: Durability,
    ) -> Result<(ShardedCinct, u64), QueryError> {
        let dir = dir.as_ref();
        let stream = format::SNAPSHOT.strip(stream)?;
        let (manifest, mut rest) = decode_manifest(stream)?;
        let sealed = &stream[..stream.len() - rest.len()];
        let mut files = Vec::new();
        for (s, m) in manifest.shards.iter().enumerate() {
            let (bytes, tail) = rest.split_at(m.len.min(rest.len()));
            format::vouch(bytes, m.checksum, format_args!("snapshot shard file {s}"))?;
            files.push((shard_file_name(s, m.checksum), bytes));
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(corrupt("snapshot stream runs past its last shard file"));
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        for (name, bytes) in files {
            write_content_addressed(&dir.join(name), bytes, durability)?;
        }
        // Manifest last: the rename is the commit point, exactly as in
        // `save_dir`. Only after it lands does the new corpus exist.
        write_atomic(&dir.join(MANIFEST_FILE), sealed, durability)?;
        let corpus = ShardedCinct::open_dir(dir)?;
        Ok((corpus, manifest.wal_position))
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
        let (manifest, rest) = decode_manifest(&bytes)?;
        if !rest.is_empty() {
            return Err(corrupt("shard manifest runs past its checksum"));
        }
        // Every save writes at least one shard, and a shard is what
        // vouches for the manifest's network size.
        if manifest.shards.is_empty() {
            return Err(corrupt("shard manifest lists no shard"));
        }
        let (config, n_edges) = (manifest.builder()?, manifest.n_edges);
        // The corpus holds exactly the IDs its shards list, so `seen` is
        // sized by ID columns actually read, never by a stored count.
        let n_trajs = manifest.shards.iter().map(|m| m.globals.len()).sum();
        let mut seen = vec![false; n_trajs];
        let mut shards = Vec::new();
        let mut quarantined: Vec<QuarantinedShard> = Vec::new();
        for (s, entry) in manifest.shards.into_iter().enumerate() {
            let file = shard_file_name(s, entry.checksum);
            let trajectories = entry.globals.len();
            match load_shard(dir, s, &file, entry, n_edges, &mut seen) {
                Ok(shard) => shards.push(shard),
                Err(e) if mode == OpenMode::Resilient => {
                    crate::metrics::store().quarantined.inc();
                    quarantined.push(QuarantinedShard {
                        slot: s,
                        file,
                        trajectories,
                        reason: e.to_string(),
                    });
                }
                Err(e) => return Err(e),
            }
        }
        let loaded =
            ShardedCinct::assemble_with_holes(shards, n_trajs, n_edges, config, quarantined)?;
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

/// Load + fully validate one shard: namespace claims against `seen`,
/// then its file `file` (checksum before parse), then its network size
/// against the manifest's `n_edges`. Marks `seen` only on success so a
/// rejected shard leaves no namespace footprint.
fn load_shard(
    dir: &FsPath,
    s: usize,
    file: &str,
    entry: ManifestShard,
    n_edges: usize,
    seen: &mut [bool],
) -> Result<Shard, QueryError> {
    let globals = entry.globals;
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
    let spath = dir.join(file);
    let loaded = (|| {
        let sbytes = faultio::read(&spath).map_err(|e| io_err(&spath, e))?;
        format::vouch(
            &sbytes,
            entry.checksum,
            format_args!("shard file {}", spath.display()),
        )?;
        let index = CinctIndex::read_from(&mut Cursor::new(sbytes))?;
        if index.network_edges() != n_edges {
            return Err(corrupt(format!(
                "shard {s}: built over {} network edges, the manifest says {n_edges}",
                index.network_edges()
            )));
        }
        Ok(index)
    })();
    match loaded {
        Ok(index) => Ok(Shard {
            index,
            globals,
            pruning: entry.pruning,
        }),
        Err(e) => {
            rollback(seen, globals.len());
            Err(e)
        }
    }
}

/// The WAL position stamped into `dir`'s manifest by
/// [`ShardedCinct::save_dir_at`] — every journaled record below it is
/// already folded into the saved corpus. `None` when there is no
/// manifest, or it does not decode (the full open will report that
/// damage properly; the WAL replay filter just falls back to replaying
/// everything). Reads through `std::fs`, not [`faultio`], so consulting
/// it never perturbs an armed fault plan's operation counts.
pub(crate) fn manifest_wal_position(dir: &FsPath) -> Option<u64> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE)).ok()?;
    Some(decode_manifest(&bytes).ok()?.0.wal_position)
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
        future[..8].copy_from_slice(&(format::MANIFEST.prefix | 999).to_le_bytes());
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
        bytes[..8].copy_from_slice(&(format::MANIFEST.prefix | version).to_le_bytes());
        std::fs::write(&mpath, &bytes).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains(&format!("version {version}")), "{msg}");
                assert!(
                    msg.contains(&format!("reads {}", format::MANIFEST.version)),
                    "{msg}"
                );
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
    fn v4_manifest_of_the_previous_build_is_rejected_typed() {
        // v4 stored each shard's file name and trajectory count and the
        // corpus total; v5 derives them. Refused by number, not misread.
        assert_manifest_version_rejected("v4-rejected", 4);
    }

    #[test]
    fn v5_manifest_of_the_previous_build_is_rejected_typed() {
        // v5 stored each pruning block's shape and its shard's global-ID
        // span around the membership words; v6 stores the words alone.
        assert_manifest_version_rejected("v5-rejected", 5);
    }

    #[test]
    fn future_manifest_version_is_rejected_typed() {
        assert_manifest_version_rejected("future", format::MANIFEST.version + 1);
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
        sbytes[..8].copy_from_slice(&(format::INDEX.prefix | 3).to_le_bytes());
        std::fs::remove_file(&spath).unwrap();
        let new_sum = checksum64(&sbytes);
        std::fs::write(dir.join(shard_file_name(0, new_sum)), &sbytes).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let mut manifest = std::fs::read(&mpath).unwrap();
        let body = manifest.len() - 8;
        let at = (0..body - 8)
            .find(|&i| manifest[i..i + 8] == old_sum.to_le_bytes())
            .expect("manifest records the shard checksum");
        manifest[at..at + 8].copy_from_slice(&new_sum.to_le_bytes());
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
    fn hostile_counts_in_a_resealed_manifest_are_typed_errors() {
        // The checksum is not cryptographic, so a forged manifest can
        // carry any count under a valid seal. Neither a huge shard count
        // nor a huge ID column may size an allocation before bytes back
        // it: both are typed errors in either mode, never a panic.
        let dir = scratch("hostile-counts");
        let sharded = build_sharded();
        sharded.save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let good = std::fs::read(&mpath).unwrap();
        // The network size follows the header and the absorbed position;
        // the shard count follows it and six configuration words; shard
        // 0's ID count follows its file's length and checksum.
        let (n_edges_at, n_shards_at, ids_at) = (16, 72, 96);
        let word = |at: usize| u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
        assert_eq!(word(n_edges_at), 6);
        assert_eq!(word(n_shards_at), sharded.num_shards() as u64);
        assert_eq!(word(ids_at), sharded.shard_globals(0).len() as u64);
        let reseal = |body: &[u8], words: &[(usize, u64)]| {
            let mut bytes = body.to_vec();
            for &(at, value) in words {
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            format::seal(bytes)
        };
        let body = &good[..good.len() - 8];
        for (at, count) in [(n_shards_at, 1u64 << 62), (ids_at, 1 << 40)] {
            std::fs::write(&mpath, reseal(body, &[(at, count)])).unwrap();
            for mode in [OpenMode::Strict, OpenMode::Resilient] {
                match ShardedCinct::open_dir_with(&dir, mode) {
                    Err(QueryError::CorruptIndex(_)) => {}
                    other => panic!("offset {at}, {mode:?}: expected CorruptIndex, got {other:?}"),
                }
            }
        }
        // A huge network size sizes nothing either: a manifest listing
        // zero shards has no shard to vouch for it, and with one shard
        // its membership block runs out of bytes. Both are CorruptIndex
        // in either mode, never an empty corpus whose first append
        // sizes a build by the forged count.
        let huge = 1u64 << 60;
        let no_shards = reseal(
            &good[..n_shards_at + 8],
            &[(n_edges_at, huge), (n_shards_at, 0)],
        );
        let one_dir = scratch("hostile-one-shard");
        ShardedBuilder::new()
            .shards(1)
            .build(&paper_trajs(), 6)
            .save_dir(&one_dir)
            .unwrap();
        let one = std::fs::read(one_dir.join(MANIFEST_FILE)).unwrap();
        std::fs::remove_dir_all(&one_dir).unwrap();
        let one_shard = reseal(&one[..one.len() - 8], &[(n_edges_at, huge)]);
        for (case, bytes) in [("zero shards", no_shards), ("one shard", one_shard)] {
            std::fs::write(&mpath, bytes).unwrap();
            for mode in [OpenMode::Strict, OpenMode::Resilient] {
                match ShardedCinct::open_dir_with(&dir, mode) {
                    Err(QueryError::CorruptIndex(_)) => {}
                    other => panic!("{case}, {mode:?}: expected CorruptIndex, got {other:?}"),
                }
            }
        }
        // A network size off by one keeps the manifest's word count (one
        // membership word covers 5 edges as it does 6), so only the
        // shard's own stored size catches it: a shard defect like any
        // other, fatal when strict and quarantined when resilient.
        std::fs::write(&mpath, reseal(body, &[(n_edges_at, 5)])).unwrap();
        match ShardedCinct::open_dir(&dir) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("network edges"), "{msg}"),
            other => panic!("n_edges 5, strict: expected CorruptIndex, got {other:?}"),
        }
        let degraded = ShardedCinct::open_dir_with(&dir, OpenMode::Resilient).unwrap();
        assert_eq!(degraded.num_shards(), 0);
        assert_eq!(degraded.quarantined().len(), sharded.num_shards());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corpus_with_no_shard_is_never_saved() {
        // What the open refuses, no save may write: neither a directory
        // nor a snapshot stream of a corpus with no shard.
        let empty = ShardedCinct::assemble(Vec::new(), 6, ShardedBuilder::new()).unwrap();
        assert!(!empty.is_degraded());
        let dir = scratch("no-shard-save");
        for refused in [empty.save_dir(&dir), empty.snapshot_to_vec(0).map(drop)] {
            match refused {
                Err(QueryError::InvalidInput(msg)) => assert!(msg.contains("no shard"), "{msg}"),
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
        assert!(!dir.join(MANIFEST_FILE).exists());
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
        // The last shard's one membership word (6 edges) sits right
        // before the 8-byte checksum tail; flip a bit inside it.
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
        for s in 0..back.num_shards() {
            assert_eq!(back.shard_pruning(s), sharded.shard_pruning(s), "shard {s}");
        }
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
        // v2, the previous build's, framed its own names, lengths and
        // trailer around the manifest; v3 has no field of its own.
        let dir = scratch("snapshot-v1");
        let mut stream = build_sharded().snapshot_to_vec(0).unwrap();
        for version in [1, 2] {
            stream[..8].copy_from_slice(&(format::SNAPSHOT.prefix | version).to_le_bytes());
            match ShardedCinct::install_snapshot(&dir, &stream, Durability::Fast) {
                Err(QueryError::CorruptIndex(msg)) => {
                    assert!(msg.contains(&format!("version {version}")), "{msg}");
                    assert!(msg.contains("reads 3"), "{msg}");
                }
                other => panic!("expected CorruptIndex, got {other:?}"),
            }
            assert!(!dir.exists(), "a refused stream created the directory");
        }
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

    #[test]
    fn every_bit_flip_and_truncation_of_a_manifest_is_refused() {
        // Manifest damage is fatal in both modes: strict says
        // CorruptIndex, resilient errs too, and neither panics.
        let dir = scratch("manifest-sweep");
        build_sharded().save_dir(&dir).unwrap();
        let mpath = dir.join(MANIFEST_FILE);
        let good = std::fs::read(&mpath).unwrap();
        let refused = |bytes: &[u8], case: String| {
            std::fs::write(&mpath, bytes).unwrap();
            match ShardedCinct::open_dir(&dir) {
                Err(QueryError::CorruptIndex(_)) => {}
                other => panic!("{case}: expected CorruptIndex, got {other:?}"),
            }
            let resilient = ShardedCinct::open_dir_with(&dir, OpenMode::Resilient);
            assert!(resilient.is_err(), "{case}: resilient open accepted it");
        };
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            refused(&bytes, format!("bit {bit}"));
        }
        for len in 0..good.len() {
            refused(&good[..len], format!("length {len}"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_snapshot_is_refused_untouched() {
        // Every byte of the stream is covered: a damaged one is refused
        // with CorruptIndex before the target directory exists.
        let dir = scratch("snapshot-sweep");
        let good = build_sharded().snapshot_to_vec(9).unwrap();
        let refused = |bytes: &[u8], case: String| {
            match ShardedCinct::install_snapshot(&dir, bytes, Durability::Fast) {
                Err(QueryError::CorruptIndex(_)) => {}
                other => panic!("{case}: expected CorruptIndex, got {other:?}"),
            }
            assert!(
                !dir.exists(),
                "{case}: a refused stream created the directory"
            );
        };
        for bit in 0..good.len() * 8 {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            refused(&bytes, format!("bit {bit}"));
        }
        for len in 0..good.len() {
            refused(&good[..len], format!("length {len}"));
        }
    }
}
