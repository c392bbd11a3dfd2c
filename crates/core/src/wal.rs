//! A position-addressed, checksummed **write-ahead log** for append
//! batches — the journal `cinct serve` writes before acking and the
//! replication log followers pull from.
//!
//! `cinct serve` journals every `/v1/append` batch here *before* acking
//! it, so an acknowledged append survives `kill -9` — on the next start
//! the server replays the log into the reopened corpus, which only knows
//! about batches that made it into a [`ShardedCinct::save_dir`] manifest.
//!
//! Since PR 9 the log is also the **replication stream**: every record
//! carries a stable sequence number assigned at append time, and
//! [`Wal::read_from`] streams records at-or-after any position — that is
//! the byte source behind the primary's `/repl/wal?from=seq` endpoint.
//! A successful save no longer truncates history out from under a
//! lagging follower; it [`Wal::retire`]s the active segment — seals it
//! under a position-stamped name — and starts a fresh active segment.
//! Sealed segments are garbage-collected by [`Wal::reclaim`] only once
//! every registered follower has passed them.
//!
//! # On-disk format (version 3)
//!
//! The **active segment** is `wal.cinct` inside the corpus directory;
//! **sealed segments** are `wal-<base-seq>.cinct` (20-digit zero-padded
//! base, so lexical order is sequence order). Every segment:
//!
//! ```text
//! [u64 magic|version][u64 base_seq]                          16-byte header
//! [u64 seq][u64 len][u64 checksum64(payload)][payload]       record base_seq
//! [u64 seq][u64 len][u64 checksum64(payload)][payload]       record base_seq+1
//! ...
//! ```
//!
//! The header word and `checksum64` follow the one rule every CiNCT
//! stream does (the `format` module owns both). A segment of any other
//! version (v2, whose record checksums were FNV-1a, included) fails the
//! header check before a frame is read, so [`Wal::open`] refuses it
//! without truncating anything.
//!
//! A payload is the idempotency key (a `Vec<u8>` in [`Persist`] layout)
//! followed by the batch (`u64` count, then each trajectory as a
//! `Vec<u32>`). Records are framed independently and stamped with their
//! sequence number, which must run contiguously from the segment's
//! `base_seq` — recovery never needs to trust anything past the last
//! intact, in-sequence frame. Record payloads are capped at
//! [`MAX_RECORD_BYTES`]: a corrupt or hostile length word is detected
//! *before* any length-driven allocation, so bit rot yields
//! `CorruptIndex` (or a dropped tail), never an OOM abort.
//!
//! # Crash semantics
//!
//! The only artifact a crash mid-append can leave in the **active**
//! segment is a torn tail: a final frame with a short body, an over-cap
//! length word, an out-of-sequence stamp, or a checksum mismatch. That
//! record was never acknowledged (the ack happens after the durable
//! append returns), so [`Wal::open`] drops it — it truncates the file
//! back to the last intact frame and counts `cinct_wal_torn_tail_total`.
//! A damaged *header* is not recoverable and fails the open.
//!
//! **Sealed** segments were fsynced before the seal rename, so any
//! defect found in one is bit rot, not a crash artifact —
//! [`Wal::read_from`] fails loudly with `CorruptIndex` instead of
//! silently serving a truncated stream to a follower.
//!
//! A crash between the seal rename and the creation of the fresh active
//! segment leaves sealed history but no `wal.cinct`; the next open
//! rebuilds an empty active segment based at the end of the newest
//! sealed segment, so positions stay contiguous.
//!
//! Appends and seals go through [`crate::faultio`], so the crash-matrix
//! tests drive simulated power loss through every write, fsync, and
//! rename in here exactly like they do for `save_dir`.
//!
//! [`ShardedCinct::save_dir`]: crate::shard::ShardedCinct::save_dir

use crate::faultio;
use crate::format::{self, checksum64};
use crate::store::{fsync_err, io_err, Durability};
use cinct_fmindex::QueryError;
use cinct_succinct::serial::{read_usize, write_usize, Persist};
use std::fs::{File, OpenOptions};
use std::io::{Cursor, Seek, SeekFrom};
use std::path::{Path as FsPath, PathBuf};

/// The active journal segment inside a sharded-corpus directory.
pub const WAL_FILE: &str = "wal.cinct";

/// Hard cap on one record's payload bytes, enforced at append and at
/// every read. A length word above this is corruption by definition —
/// readers reject it before allocating, so a flipped bit in a length
/// prefix can never drive a multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// Bytes of header before the first record: magic|version, base_seq.
const HEADER_LEN: u64 = 16;
/// Bytes of frame header before the payload: seq, len, checksum.
const FRAME_HEADER: usize = 24;

/// Name of the sealed segment whose first record is `base_seq`.
pub fn segment_file_name(base_seq: u64) -> String {
    format!("wal-{base_seq:020}.cinct")
}

/// One journaled append: its position in the replication stream, its
/// idempotency key (empty if the client sent none), and the batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Stable sequence number, assigned at append and never reused.
    pub seq: u64,
    /// Client-supplied idempotency key, `""` for unkeyed appends.
    pub key: String,
    /// The appended trajectories, in batch order.
    pub batch: Vec<Vec<u32>>,
}

/// What [`Wal::read_from`] found at a requested position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRead {
    /// Every retained record at-or-after the requested position, in
    /// sequence order (empty if the position is the log's tip).
    Records(Vec<WalRecord>),
    /// The requested position predates the oldest retained segment —
    /// the history was reclaimed. The reader must bootstrap from a
    /// snapshot instead; `oldest` is the first position still served.
    Compacted {
        /// First sequence number still retained on disk.
        oldest: u64,
    },
}

/// An open append journal / replication log. Obtain one (plus any
/// records a previous process journaled but never folded into a
/// manifest) with [`Wal::open`]; journal with [`Wal::append`] before
/// acknowledging; call [`Wal::retire`] once a successful `save_dir` has
/// made the journaled batches durable in the manifest; stream history
/// to followers with [`Wal::read_from`] and garbage-collect segments
/// they have passed with [`Wal::reclaim`].
pub struct Wal {
    file: File,
    path: PathBuf,
    dir: PathBuf,
    durability: Durability,
    /// Records in the active segment (journaled, not yet in a manifest).
    pending: usize,
    /// First sequence number of the active segment.
    base_seq: u64,
    /// Sequence number the next append will be stamped with.
    next_seq: u64,
    /// Set after a failed append/retire: the file tail is no longer
    /// trusted, so further appends are refused until a reopen re-walks
    /// the frames.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("durability", &self.durability)
            .field("pending", &self.pending)
            .field("base_seq", &self.base_seq)
            .field("next_seq", &self.next_seq)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// What one pass over a segment's bytes found.
struct SegmentScan {
    /// The segment's `base_seq` header field.
    base: u64,
    /// Every intact, in-sequence record, in order.
    records: Vec<WalRecord>,
    /// Byte offset just past the last intact frame.
    intact_end: usize,
    /// Why the walk stopped early, if it did not consume every byte.
    defect: Option<String>,
}

/// Walk one segment: header checks are hard errors (`CorruptIndex`),
/// frame defects stop the walk and are reported in
/// [`SegmentScan::defect`] — the *caller* decides whether a defect is a
/// droppable torn tail (active segment) or fatal rot (sealed segment).
fn walk_segment(bytes: &[u8]) -> Result<SegmentScan, QueryError> {
    let Some(base) = format::first_word(format::WAL.strip(bytes)?) else {
        return Err(format::corrupt("WAL segment shorter than its header"));
    };
    let mut records = Vec::new();
    let mut off = HEADER_LEN as usize;
    let mut defect = None;
    loop {
        if bytes.len() - off < FRAME_HEADER {
            if off != bytes.len() {
                defect = Some("short frame header".into());
            }
            break;
        }
        let seq = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap());
        let stored = u64::from_le_bytes(bytes[off + 16..off + 24].try_into().unwrap());
        // Reject the length word *before* using it for anything — this
        // is the bound that keeps a flipped bit from looking like a
        // 2^60-byte record.
        if len > MAX_RECORD_BYTES as u64 {
            defect = Some(format!(
                "record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"
            ));
            break;
        }
        let end = off + FRAME_HEADER + len as usize;
        if end > bytes.len() {
            defect = Some("short frame body".into());
            break;
        }
        if seq != base + records.len() as u64 {
            defect = Some(format!(
                "sequence discontinuity: frame stamped {seq}, expected {}",
                base + records.len() as u64
            ));
            break;
        }
        let payload = &bytes[off + FRAME_HEADER..end];
        if checksum64(payload) != stored {
            defect = Some("payload checksum mismatch".into());
            break;
        }
        let Ok(record) = parse_payload(seq, payload) else {
            defect = Some("payload layout invalid".into());
            break;
        };
        records.push(record);
        off = end;
    }
    Ok(SegmentScan {
        base,
        records,
        intact_end: off,
        defect,
    })
}

/// Open the active segment at `path` for read and write, creating it if
/// missing and emptying it if `truncate`.
fn open_segment(path: &FsPath, truncate: bool) -> Result<File, QueryError> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(truncate)
        .open(path)
        .map_err(|e| io_err(path, e))
}

/// Sealed segments in `dir`, as `(base_seq, path)` sorted by position.
fn sealed_segments(dir: &FsPath) -> Result<Vec<(u64, PathBuf)>, QueryError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        let base = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".cinct"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(base) = base {
            out.push((base, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

impl Wal {
    /// Open (or create) the journal in corpus directory `dir`, returning
    /// the writer plus every intact record a previous process journaled
    /// but never folded into a manifest — the caller replays those into
    /// its freshly opened corpus, in order, before serving.
    ///
    /// A torn tail (the one artifact of a crash mid-append) is dropped
    /// and the file truncated back to its last intact frame; a corrupt
    /// header is `CorruptIndex`. Sealed segments are left alone — they
    /// hold already-saved history kept for lagging followers.
    pub fn open(
        dir: impl AsRef<FsPath>,
        durability: Durability,
    ) -> Result<(Wal, Vec<WalRecord>), QueryError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let path = dir.join(WAL_FILE);
        let file = open_segment(&path, false)?;
        // The manifest's absorbed-position stamp (written by
        // `ShardedCinct::save_dir_at`) closes two crash windows no
        // segment-local information can: a crash *between* the manifest
        // rename and the WAL retire leaves absorbed records in the
        // active segment (they must not replay — the manifest already
        // holds them), and a crash mid-snapshot-bootstrap can leave the
        // whole log *behind* the installed corpus (its stale history
        // must not replay either — the log re-bases at the manifest's
        // position instead).
        let absorbed = crate::store::manifest_wal_position(dir).unwrap_or(0);
        let mut wal = Wal {
            file,
            path: path.clone(),
            dir: dir.to_path_buf(),
            durability,
            pending: 0,
            base_seq: 0,
            next_seq: 0,
            poisoned: false,
        };
        // A file shorter than the header can only mean "never existed"
        // or "crashed while being created" (the header is written —
        // durably — before the first append can ack anything), so both
        // bootstrap a fresh active segment. Its base is the end of the
        // newest sealed segment, if any: a crash between the seal
        // rename and the fresh-active create must not reset positions.
        let fresh = wal.file.metadata().map_err(|e| io_err(&path, e))?.len() < HEADER_LEN;
        if fresh {
            let base = match sealed_segments(dir)?.last() {
                Some((base, sealed)) => {
                    let bytes = faultio::read(sealed).map_err(|e| io_err(sealed, e))?;
                    let scan = walk_segment(&bytes)?;
                    if let Some(defect) = scan.defect {
                        return Err(QueryError::CorruptIndex(format!(
                            "{}: sealed WAL segment damaged: {defect}",
                            sealed.display()
                        )));
                    }
                    *base + scan.records.len() as u64
                }
                None => 0,
            };
            if absorbed > base {
                // The manifest is ahead of every retained segment: a
                // snapshot bootstrap crashed before re-basing the log.
                // Its history is obsolete — start over at the position
                // the installed corpus absorbs.
                return Ok((Wal::create_at(dir, durability, absorbed)?, Vec::new()));
            }
            wal.write_fresh_header(base)?;
            return Ok((wal, Vec::new()));
        }
        let bytes = faultio::read(&path).map_err(|e| io_err(&path, e))?;
        let scan = walk_segment(&bytes)?;
        if scan.intact_end < bytes.len() {
            // Everything past the last intact frame was never acked (the
            // ack follows the durable append) — drop it.
            crate::metrics::store().wal_torn_tail.inc();
            wal.file
                .set_len(scan.intact_end as u64)
                .map_err(|e| io_err(&path, e))?;
        }
        wal.file
            .seek(SeekFrom::Start(scan.intact_end as u64))
            .map_err(|e| io_err(&path, e))?;
        wal.base_seq = scan.base;
        wal.next_seq = scan.base + scan.records.len() as u64;
        if absorbed > wal.next_seq {
            // See above: the manifest outran the whole log (crashed
            // snapshot bootstrap). Re-base rather than replay.
            return Ok((Wal::create_at(dir, durability, absorbed)?, Vec::new()));
        }
        // Records the manifest already absorbed stay on disk as
        // replication history but must not replay into the corpus —
        // that save committed, only its retire was lost.
        let replay: Vec<WalRecord> = scan
            .records
            .into_iter()
            .filter(|r| r.seq >= absorbed)
            .collect();
        wal.pending = replay.len();
        crate::metrics::store()
            .wal_replayed
            .add(replay.len() as u64);
        Ok((wal, replay))
    }

    /// Create a fresh journal in `dir` positioned at `base_seq`,
    /// deleting any existing segments. This is the follower's
    /// snapshot-bootstrap path: the snapshot absorbs every record below
    /// `base_seq`, so local history (from a previous life as primary or
    /// as a stale follower) is obsolete and the next pulled record is
    /// exactly `base_seq`.
    pub fn create_at(
        dir: impl AsRef<FsPath>,
        durability: Durability,
        base_seq: u64,
    ) -> Result<Wal, QueryError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        for (_, sealed) in sealed_segments(dir)? {
            std::fs::remove_file(&sealed).map_err(|e| io_err(&sealed, e))?;
        }
        let path = dir.join(WAL_FILE);
        let file = open_segment(&path, true)?;
        let mut wal = Wal {
            file,
            path,
            dir: dir.to_path_buf(),
            durability,
            pending: 0,
            base_seq,
            next_seq: base_seq,
            poisoned: false,
        };
        wal.write_fresh_header(base_seq)?;
        Ok(wal)
    }

    /// Write the 16-byte header of an empty active segment, durably, and
    /// position the writer at `base` / `next = base`.
    fn write_fresh_header(&mut self, base: u64) -> Result<(), QueryError> {
        self.file.set_len(0).map_err(|e| io_err(&self.path, e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, e))?;
        let header = [format::WAL.header(), base].map(u64::to_le_bytes).concat();
        // Header now, so recovery can always tell "new journal" from
        // "damaged journal"; durably, so the file itself survives.
        faultio::append_file(&mut self.file, &header).map_err(|e| io_err(&self.path, e))?;
        self.sync()?;
        if self.durability == Durability::Durable {
            faultio::sync_path(&self.dir).map_err(|e| fsync_err(&self.dir, e))?;
        }
        self.pending = 0;
        self.base_seq = base;
        self.next_seq = base;
        Ok(())
    }

    /// Journal one append **durably** (write + fsync under
    /// [`Durability::Durable`]), stamped with the next sequence number,
    /// which is returned. Only after this returns may the batch be
    /// acknowledged. Errors poison the writer: the on-disk tail is no
    /// longer trusted, so every later append fails until a reopen.
    pub fn append(&mut self, key: &str, batch: &[Vec<u32>]) -> Result<u64, QueryError> {
        self.append_at(self.next_seq, key, batch)
    }

    /// Journal one record at an explicit position — the follower's
    /// apply path, which re-journals records under the *primary's*
    /// sequence numbers so a restarted follower knows exactly where to
    /// resume pulling. `seq` must be the log's next position; anything
    /// else would tear a hole in the stream and is refused.
    pub fn append_at(
        &mut self,
        seq: u64,
        key: &str,
        batch: &[Vec<u32>],
    ) -> Result<u64, QueryError> {
        let _span = cinct_obs::Span::enter(&crate::metrics::store().wal_append_ns);
        self.usable()?;
        if seq != self.next_seq {
            return Err(QueryError::InvalidInput(format!(
                "WAL append at sequence {seq} would tear the stream (next is {})",
                self.next_seq
            )));
        }
        let mut payload: Vec<u8> = Vec::new();
        let w = &mut payload as &mut dyn std::io::Write;
        key.as_bytes().to_vec().persist(w)?;
        write_usize(w, batch.len())?;
        for traj in batch {
            traj.persist(w)?;
        }
        if payload.len() > MAX_RECORD_BYTES {
            return Err(QueryError::InvalidInput(format!(
                "append batch serializes to {} bytes, over the {MAX_RECORD_BYTES}-byte WAL record cap",
                payload.len()
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&checksum64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let written = faultio::append_file(&mut self.file, &frame)
            .map_err(|e| io_err(&self.path, e))
            .and_then(|()| self.sync());
        self.poisoned = written.is_err();
        written?;
        self.pending += 1;
        self.next_seq = seq + 1;
        crate::metrics::store().wal_appends.inc();
        Ok(seq)
    }

    /// Retire the active segment (a successful `save_dir` has folded its
    /// records into the manifest): seal it under a position-stamped name
    /// and start a fresh, empty active segment at the current position.
    /// Unlike the old truncate-on-save, the records stay on disk for
    /// lagging followers until [`Wal::reclaim`] decides they are safe to
    /// drop. A no-op when nothing is pending. Errors poison the writer.
    pub fn retire(&mut self) -> Result<(), QueryError> {
        self.usable()?;
        if self.pending == 0 {
            return Ok(());
        }
        let sealed = self.seal_active();
        self.poisoned = sealed.is_err();
        sealed
    }

    /// [`Wal::retire`]'s work; any failure in it poisons the writer.
    fn seal_active(&mut self) -> Result<(), QueryError> {
        // Seal order: make the content durable, publish it under the
        // sealed name, make the rename durable, then build the fresh
        // active segment. A crash anywhere in between leaves either the
        // old active segment (records replay: harmless, they are
        // idempotent-keyed) or sealed history + a missing/short active
        // file, which `open` rebuilds at the right base.
        self.sync()?;
        let sealed = self.dir.join(segment_file_name(self.base_seq));
        faultio::rename(&self.path, &sealed).map_err(|e| io_err(&self.path, e))?;
        if self.durability == Durability::Durable {
            faultio::sync_path(&self.dir).map_err(|e| fsync_err(&self.dir, e))?;
        }
        self.file = open_segment(&self.path, true)?;
        self.write_fresh_header(self.next_seq)?;
        crate::metrics::store().wal_truncations.inc();
        Ok(())
    }

    /// Refuse to write after a failed append or retire: the file tail is
    /// no longer trusted until a reopen re-walks the frames.
    fn usable(&self) -> Result<(), QueryError> {
        if self.poisoned {
            return Err(QueryError::Io(format!(
                "{}: WAL poisoned by an earlier write failure; reopen to recover",
                self.path.display()
            )));
        }
        Ok(())
    }

    /// fsync the active segment under [`Durability::Durable`].
    fn sync(&self) -> Result<(), QueryError> {
        if self.durability == Durability::Durable {
            faultio::sync_file(&self.file).map_err(|e| fsync_err(&self.path, e))?;
        }
        Ok(())
    }

    /// Every retained record with sequence `>= from`, across sealed
    /// segments and the active one, in order — or
    /// [`WalRead::Compacted`] if `from` predates the oldest retained
    /// segment (the reader must snapshot-bootstrap instead). Damage in a
    /// *sealed* segment is `CorruptIndex`: sealed bytes were fsynced
    /// before the seal, so a defect is rot, and serving a silently
    /// truncated stream would diverge the follower.
    pub fn read_from(&self, from: u64) -> Result<WalRead, QueryError> {
        let sealed = sealed_segments(&self.dir)?;
        let oldest = sealed.first().map(|(b, _)| *b).unwrap_or(self.base_seq);
        if from < oldest {
            return Ok(WalRead::Compacted { oldest });
        }
        let mut out = Vec::new();
        for (i, (base, path)) in sealed.iter().enumerate() {
            // A sealed segment's range ends where the next segment
            // begins (segments are born contiguous at retire time).
            let end = sealed.get(i + 1).map(|(b, _)| *b).unwrap_or(self.base_seq);
            if end <= from {
                continue;
            }
            let bytes = faultio::read(path).map_err(|e| io_err(path, e))?;
            let scan = walk_segment(&bytes)
                .map_err(|e| QueryError::CorruptIndex(format!("{}: {e}", path.display())))?;
            let complete = scan.defect.is_none() && scan.intact_end == bytes.len();
            if !complete || scan.base != *base || scan.base + scan.records.len() as u64 != end {
                return Err(QueryError::CorruptIndex(format!(
                    "{}: sealed WAL segment damaged: {}",
                    path.display(),
                    scan.defect.unwrap_or_else(|| format!(
                        "holds [{}, {}), expected [{base}, {end})",
                        scan.base,
                        scan.base + scan.records.len() as u64
                    ))
                )));
            }
            out.extend(scan.records.into_iter().filter(|r| r.seq >= from));
        }
        if self.next_seq > from {
            let bytes = faultio::read(&self.path).map_err(|e| io_err(&self.path, e))?;
            let scan = walk_segment(&bytes)?;
            // The active tail past `pending` intact frames is un-acked
            // garbage at worst; serve only what the writer has acked.
            out.extend(
                scan.records
                    .into_iter()
                    .filter(|r| r.seq >= from && r.seq < self.next_seq),
            );
        }
        Ok(WalRead::Records(out))
    }

    /// Delete sealed segments every consumer has passed: a segment is
    /// reclaimed only if its entire range lies below `min_seq` (the
    /// minimum over all registered followers' positions — callers that
    /// reclaim ahead of a live follower force it into a snapshot
    /// bootstrap, which is exactly what [`WalRead::Compacted`] signals).
    /// Returns how many segments were removed. Only a contiguous prefix
    /// is ever reclaimed, so retained history has no holes.
    pub fn reclaim(&mut self, min_seq: u64) -> Result<usize, QueryError> {
        let sealed = sealed_segments(&self.dir)?;
        let mut removed = 0usize;
        for (i, (_, path)) in sealed.iter().enumerate() {
            let end = sealed.get(i + 1).map(|(b, _)| *b).unwrap_or(self.base_seq);
            if end > min_seq {
                break;
            }
            std::fs::remove_file(path).map_err(|e| io_err(path, e))?;
            removed += 1;
        }
        if removed > 0 && self.durability == Durability::Durable {
            faultio::sync_path(&self.dir).map_err(|e| fsync_err(&self.dir, e))?;
        }
        Ok(removed)
    }

    /// Oldest sequence number still retained on disk (the earliest
    /// position [`Wal::read_from`] can serve without `Compacted`).
    pub fn oldest_retained(&self) -> Result<u64, QueryError> {
        let sealed = sealed_segments(&self.dir)?;
        Ok(sealed.first().map(|(b, _)| *b).unwrap_or(self.base_seq))
    }

    /// Number of sealed segments currently on disk.
    pub fn sealed_count(&self) -> Result<usize, QueryError> {
        Ok(sealed_segments(&self.dir)?.len())
    }

    /// Records currently journaled but not yet folded into a manifest.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Sequence number the next append will receive (= one past the
    /// last record in the log; equals `base_seq` on an empty log).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// First sequence number of the active segment — every record below
    /// it has been folded into a manifest by a successful save.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The active journal file's path.
    pub fn path(&self) -> &FsPath {
        &self.path
    }

    /// The durability mode this log was opened with.
    pub fn durability(&self) -> Durability {
        self.durability
    }
}

fn parse_payload(seq: u64, payload: &[u8]) -> Result<WalRecord, QueryError> {
    let mut cur = Cursor::new(payload);
    let r = &mut cur as &mut dyn std::io::Read;
    let key_bytes: Vec<u8> = Persist::restore(r)?;
    let key = String::from_utf8(key_bytes)
        .map_err(|_| QueryError::CorruptIndex("WAL record key is not UTF-8".into()))?;
    let n = read_usize(r)?;
    let mut batch = Vec::with_capacity(n.min(payload.len()));
    for _ in 0..n {
        batch.push(Persist::restore(r)?);
    }
    Ok(WalRecord { seq, key, batch })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("cinct-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn records(read: WalRead) -> Vec<WalRecord> {
        match read {
            WalRead::Records(r) => r,
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_and_retire() {
        let dir = scratch("roundtrip");
        let (mut wal, replay) = Wal::open(&dir, Durability::Durable).unwrap();
        assert!(replay.is_empty());
        assert_eq!(wal.append("k1", &[vec![0, 1, 2], vec![3]]).unwrap(), 0);
        assert_eq!(wal.append("", &[vec![4, 5]]).unwrap(), 1);
        assert_eq!(wal.pending(), 2);
        assert_eq!(wal.next_seq(), 2);
        drop(wal);
        let (mut wal, replay) = Wal::open(&dir, Durability::Durable).unwrap();
        assert_eq!(
            replay,
            vec![
                WalRecord {
                    seq: 0,
                    key: "k1".into(),
                    batch: vec![vec![0, 1, 2], vec![3]],
                },
                WalRecord {
                    seq: 1,
                    key: "".into(),
                    batch: vec![vec![4, 5]],
                },
            ]
        );
        wal.retire().unwrap();
        assert_eq!(wal.pending(), 0);
        assert_eq!(wal.next_seq(), 2);
        drop(wal);
        // After a retire nothing replays, but history remains readable
        // and positions keep counting from where they were.
        let (mut wal, replay) = Wal::open(&dir, Durability::Durable).unwrap();
        assert!(replay.is_empty());
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(records(wal.read_from(0).unwrap()).len(), 2);
        assert_eq!(wal.append("k2", &[vec![6]]).unwrap(), 2);
        let tail = records(wal.read_from(1).unwrap());
        assert_eq!(
            tail.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2],
            "read_from crosses the sealed/active boundary"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = scratch("torn");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        wal.append("b", &[vec![3, 4]]).unwrap();
        drop(wal);
        // Chop mid-way through the second frame.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (wal, replay) = Wal::open(&dir, Durability::Fast).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].key, "a");
        assert_eq!(wal.next_seq(), 1);
        // The torn bytes are gone from disk too.
        assert!(std::fs::read(&path).unwrap().len() < bytes.len() - 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_recovery_at_last_intact_frame() {
        let dir = scratch("rot");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        wal.append("b", &[vec![3, 4]]).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x04; // bit rot inside the second frame's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&dir, Durability::Fast).unwrap();
        assert_eq!(replay.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_header_is_corrupt_index() {
        let dir = scratch("hdr");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"garbage! garbage").unwrap();
        match Wal::open(&dir, Durability::Fast) {
            Err(QueryError::CorruptIndex(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_active_segment_is_refused_and_left_byte_identical() {
        // Records this build cannot read are not a torn tail: the open
        // refuses them by version and truncates nothing.
        let dir = scratch("v2");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(&(format::WAL.prefix | 2).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&dir, Durability::Fast) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains("version 2"), "{msg}");
                assert!(msg.contains("reads 3"), "{msg}");
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_in_a_record_payload_is_caught() {
        // The second record's payload is 45 bytes: one 32-byte stripe,
        // one tail word and five tail bytes. In the active segment a
        // flip anywhere in it is a torn tail, dropped; in a sealed
        // segment it is rot, refused.
        let dir = scratch("payload-sweep");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        let intact = std::fs::metadata(wal.path()).unwrap().len();
        wal.append("b", &[vec![3, 4, 5, 6, 7]]).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let good = std::fs::read(&path).unwrap();
        let payload = intact as usize + FRAME_HEADER..good.len();
        assert_eq!(payload.len(), 45);
        let flipped = |bit: usize| {
            let mut bytes = good.clone();
            bytes[payload.start + bit / 8] ^= 1 << (bit % 8);
            bytes
        };
        for bit in 0..payload.len() * 8 {
            std::fs::write(&path, flipped(bit)).unwrap();
            let (wal, replay) = Wal::open(&dir, Durability::Fast).unwrap();
            assert_eq!(replay.len(), 1, "bit {bit}");
            assert_eq!(replay[0].key, "a", "bit {bit}");
            assert_eq!(wal.next_seq(), 1, "bit {bit}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), intact, "bit {bit}");
        }
        std::fs::write(&path, &good).unwrap();
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.retire().unwrap();
        let sealed = dir.join(segment_file_name(0));
        assert_eq!(std::fs::read(&sealed).unwrap(), good);
        for bit in 0..payload.len() * 8 {
            std::fs::write(&sealed, flipped(bit)).unwrap();
            match wal.read_from(0) {
                Err(QueryError::CorruptIndex(msg)) => {
                    assert!(msg.contains("checksum"), "bit {bit}: {msg}")
                }
                other => panic!("bit {bit}: expected CorruptIndex, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: a bit-flipped length prefix in the *active* tail is
    /// indistinguishable from a torn write — the record (and anything
    /// after it) is dropped, with no length-driven allocation.
    #[test]
    fn bit_flipped_length_prefix_in_active_tail_is_dropped_not_allocated() {
        let dir = scratch("lenflip-active");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        wal.append("b", &[vec![3, 4]]).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Find the second frame: header + frame0 (24 + payload) …
        // easier: flip the top bit of the *last* frame's length word by
        // scanning from the front.
        let first_payload = bytes.len() - HEADER_LEN as usize - 2 * FRAME_HEADER;
        assert_eq!(first_payload % 2, 0);
        let frame1 = HEADER_LEN as usize + FRAME_HEADER + first_payload / 2;
        let mut bytes = bytes;
        bytes[frame1 + 8 + 7] |= 0x20; // length word now claims ~2^61 bytes
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&dir, Durability::Fast).unwrap();
        assert_eq!(replay.len(), 1, "over-cap frame and its tail dropped");
        assert_eq!(wal.next_seq(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: the same flip in a *sealed* segment is rot, not a torn
    /// tail — `read_from` refuses with `CorruptIndex` instead of
    /// serving a truncated stream (and never allocates by the bogus
    /// length either).
    #[test]
    fn bit_flipped_length_prefix_in_sealed_segment_is_corrupt_index() {
        let dir = scratch("lenflip-sealed");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1, 2]]).unwrap();
        wal.retire().unwrap();
        let sealed = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&sealed).unwrap();
        let len_word = HEADER_LEN as usize + 8;
        bytes[len_word + 7] |= 0x20;
        std::fs::write(&sealed, &bytes).unwrap();
        match wal.read_from(0) {
            Err(QueryError::CorruptIndex(msg)) => {
                assert!(msg.contains("cap") || msg.contains("damaged"), "{msg}")
            }
            other => panic!("expected CorruptIndex, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversize_append_is_refused() {
        let dir = scratch("oversize");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        // One trajectory of MAX_RECORD_BYTES/4 u32s overshoots the cap
        // once framed. Don't materialize 64 MiB of zeros per element —
        // a single flat vec is cheap.
        let big = vec![0u32; MAX_RECORD_BYTES / 4];
        match wal.append("big", std::slice::from_ref(&big)) {
            Err(QueryError::InvalidInput(msg)) => assert!(msg.contains("cap"), "{msg}"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // The refused append never touched the file: the log still acks.
        assert_eq!(wal.append("ok", &[vec![1]]).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_passed_segments_and_signals_bootstrap() {
        let dir = scratch("reclaim");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1]]).unwrap(); // seq 0
        wal.retire().unwrap(); // sealed [0,1)
        wal.append("b", &[vec![2]]).unwrap(); // seq 1
        wal.append("c", &[vec![3]]).unwrap(); // seq 2
        wal.retire().unwrap(); // sealed [1,3)
        wal.append("d", &[vec![4]]).unwrap(); // seq 3, active
        assert_eq!(wal.sealed_count().unwrap(), 2);
        assert_eq!(wal.oldest_retained().unwrap(), 0);

        // A follower at seq 1 blocks reclaiming the second segment.
        assert_eq!(wal.reclaim(1).unwrap(), 1);
        assert_eq!(wal.oldest_retained().unwrap(), 1);
        let got = records(wal.read_from(1).unwrap());
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);

        // A reader below the retained floor is told to bootstrap.
        assert_eq!(wal.read_from(0).unwrap(), WalRead::Compacted { oldest: 1 });

        // Once every follower passes seq 3, all sealed history can go.
        assert_eq!(wal.reclaim(3).unwrap(), 1);
        assert_eq!(wal.sealed_count().unwrap(), 0);
        assert_eq!(wal.oldest_retained().unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_at_wipes_history_and_positions_the_log() {
        let dir = scratch("create-at");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1]]).unwrap();
        wal.retire().unwrap();
        wal.append("b", &[vec![2]]).unwrap();
        drop(wal);
        // Snapshot bootstrap: the snapshot absorbed everything < 7.
        let mut wal = Wal::create_at(&dir, Durability::Fast, 7).unwrap();
        assert_eq!(wal.next_seq(), 7);
        assert_eq!(wal.sealed_count().unwrap(), 0);
        assert_eq!(wal.append_at(7, "x", &[vec![9]]).unwrap(), 7);
        // Out-of-order positions are refused — no holes in the stream.
        assert!(matches!(
            wal.append_at(9, "y", &[vec![9]]),
            Err(QueryError::InvalidInput(_))
        ));
        drop(wal);
        let (wal, replay) = Wal::open(&dir, Durability::Fast).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].seq, 7);
        assert_eq!(wal.next_seq(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_seal_and_fresh_active_keeps_positions_contiguous() {
        let dir = scratch("seal-crash");
        let (mut wal, _) = Wal::open(&dir, Durability::Fast).unwrap();
        wal.append("a", &[vec![1]]).unwrap();
        wal.append("b", &[vec![2]]).unwrap();
        wal.retire().unwrap();
        drop(wal);
        // Simulate the crash window: the fresh active segment never
        // made it to disk, only the sealed history exists.
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let (wal, replay) = Wal::open(&dir, Durability::Fast).unwrap();
        assert!(replay.is_empty(), "sealed records are saved, not pending");
        assert_eq!(wal.next_seq(), 2, "positions resume after sealed history");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
