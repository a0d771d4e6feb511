//! Simulated per-site persistent storage: an append-only write-ahead
//! journal plus periodic snapshot/compaction.
//!
//! The GLARE paper's registries are WS-Resources on real disks; a crashed
//! site comes back with whatever its store held, not with its RAM. This
//! module is the simulated disk: every registry/lease mutation appends a
//! checksummed [`JournalRecord`], compaction folds the journal into a
//! [`Snapshot`], and recovery replays snapshot + journal — truncating at
//! the first invalid record, because a crash mid-write tears the tail.
//!
//! The store itself is pure state: it never draws randomness and never
//! advances time. IO cost (fsync per append, snapshot load + per-record
//! replay on recovery) is charged by the kernel through the normal
//! per-site CPU run queue, so durability has a modeled price without a
//! second clock. Contents are deterministic byte-for-byte per seed:
//! [`SiteStore::contents_digest`] over two same-seed runs is identical.

use crate::time::SimDuration;

/// FNV-1a 64-bit hash — the journal's record checksum and the digest
/// primitive. Stable across runs and platforms (no `RandomState`).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_feed(FNV1A_OFFSET, bytes)
}

/// The FNV-1a state before any byte.
const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a hash from state `h` over `bytes`. FNV-1a is
/// byte-serial, so feeding the pieces of a message in order hashes what
/// their concatenation would, without building it.
#[inline]
pub(crate) fn fnv1a_feed(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The journal frame of one record: `seq` (little-endian), `kind`, a unit
/// separator and `payload`, fed to FNV-1a from state `h`.
fn feed_record(h: u64, seq: u64, kind: &str, payload: &str) -> u64 {
    let pieces: [&[u8]; 4] = [&seq.to_le_bytes(), kind.as_bytes(), &[0x1f], payload.as_bytes()];
    pieces.into_iter().fold(h, fnv1a_feed)
}

fn record_checksum(seq: u64, kind: &str, payload: &str) -> u64 {
    feed_record(FNV1A_OFFSET, seq, kind, payload)
}

/// One checksummed entry of the write-ahead journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotonic sequence number (never reused, even after truncation).
    pub seq: u64,
    /// Mutation kind tag (e.g. `"adr.register"`, `"lease.grant"`).
    pub kind: String,
    /// Opaque encoded mutation payload.
    pub payload: String,
    /// FNV-1a over `(seq, kind, payload)` at append time.
    pub checksum: u64,
    /// Whether fault injection tore this record (partial write).
    pub torn: bool,
}

impl JournalRecord {
    /// Whether the record survives recovery validation: not torn and the
    /// checksum still matches its contents.
    pub(crate) fn is_valid(&self) -> bool {
        !self.torn && self.checksum == record_checksum(self.seq, &self.kind, &self.payload)
    }
}

/// A compacted point-in-time image of the site's durable state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Highest journal sequence folded into this snapshot.
    pub through_seq: u64,
    /// Opaque encoded full-state blob.
    pub blob: String,
    /// FNV-1a over the blob.
    pub checksum: u64,
}

/// What recovery hands back to the restarting site.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The newest snapshot blob, if one was ever taken.
    pub snapshot: Option<String>,
    /// Valid journal records after the snapshot, oldest first, as
    /// `(kind, payload)` pairs.
    pub records: Vec<(String, String)>,
    /// Records dropped because a torn tail (or checksum mismatch) made
    /// them unrecoverable.
    pub truncated_records: u64,
}

impl RecoveredState {
    /// Number of journal records to replay on top of the snapshot.
    pub fn replayed_records(&self) -> u64 {
        self.records.len() as u64
    }
}

/// Cumulative counters of one site's store activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Journal records appended.
    pub appends: u64,
    /// Snapshots installed (compactions).
    pub snapshots: u64,
    /// Records marked torn by fault injection.
    pub torn_records: u64,
    /// Total payload bytes journaled + snapshotted.
    pub bytes_written: u64,
}

/// CPU/IO cost charged per journal append or snapshot install (the
/// modeled fsync): with the three constants below, the ballpark of a
/// 2005-era site disk. Fixed — every durable run used these, and nothing
/// is charged, replayed or compacted unless a store is enabled.
pub(crate) const FSYNC_COST: SimDuration = SimDuration::from_millis(2);

/// CPU/IO cost charged per record replayed on recovery.
const REPLAY_COST_PER_RECORD: SimDuration = SimDuration::from_micros(500);

/// CPU/IO cost charged to load a snapshot on recovery.
const SNAPSHOT_LOAD_COST: SimDuration = SimDuration::from_millis(10);

/// What a recovery costs: the per-record replay cost of `replayed` journal
/// records, plus the snapshot load when there was one to start from.
pub fn replay_cost(replayed: u64, had_snapshot: bool) -> SimDuration {
    let load = if had_snapshot { SNAPSHOT_LOAD_COST } else { SimDuration::ZERO };
    load + REPLAY_COST_PER_RECORD * replayed
}

/// Journal length at which a site folds its journal into a snapshot.
pub const COMPACT_EVERY: usize = 64;

/// Whether sites have durable stores. The default is
/// `StoreConfig::disabled`: no stores exist, `store_*` kernel calls are
/// no-ops, and same-seed runs stay event-identical to builds that predate
/// the layer (the same observe-only contract as `RetryPolicy::disabled`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Whether sites have durable stores at all.
    pub enabled: bool,
}

impl StoreConfig {
    /// Durability off: the whole layer is inert.
    pub(crate) fn disabled() -> StoreConfig {
        StoreConfig { enabled: false }
    }

    /// Durability on, at the costs above.
    pub fn standard() -> StoreConfig {
        StoreConfig { enabled: true }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::disabled()
    }
}

/// One site's durable store: snapshot + write-ahead journal.
///
/// The store survives [`SiteCrash`](crate::sim::Simulation::schedule_crash)
/// by definition — only fault injection ([`SiteStore::tear_tail`]) damages
/// it, and only at the tail, the way a real partial write does.
#[derive(Clone, Debug, Default)]
pub struct SiteStore {
    next_seq: u64,
    snapshot: Option<Snapshot>,
    journal: Vec<JournalRecord>,
    stats: StoreStats,
}

impl SiteStore {
    /// Empty store.
    pub fn new() -> SiteStore {
        SiteStore::default()
    }

    /// Append one mutation record; returns its sequence number. An owned
    /// payload moves into the journal as it is.
    pub fn append(&mut self, kind: &str, payload: impl Into<String>) -> u64 {
        let payload = payload.into();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.appends += 1;
        self.stats.bytes_written += (kind.len() + payload.len()) as u64;
        self.journal.push(JournalRecord {
            seq,
            kind: kind.to_owned(),
            checksum: record_checksum(seq, kind, &payload),
            payload,
            torn: false,
        });
        seq
    }

    /// Install a full-state snapshot and drop the journal it covers
    /// (compaction). Returns the number of records compacted away.
    pub fn install_snapshot(&mut self, blob: &str) -> usize {
        let compacted = self.journal.len();
        self.snapshot = Some(Snapshot {
            through_seq: self.next_seq,
            blob: blob.to_owned(),
            checksum: fnv1a(blob.as_bytes()),
        });
        self.journal.clear();
        self.stats.snapshots += 1;
        self.stats.bytes_written += blob.len() as u64;
        compacted
    }

    /// Fault injection: mark the last `n` journal records torn (a crash
    /// mid-write leaves partial records at the tail). Returns how many
    /// records were actually damaged.
    pub fn tear_tail(&mut self, n: usize) -> usize {
        let len = self.journal.len();
        let torn = n.min(len);
        for rec in &mut self.journal[len - torn..] {
            rec.torn = true;
        }
        self.stats.torn_records += torn as u64;
        torn
    }

    /// Recover: validate the journal, truncate at the first invalid
    /// record, and return snapshot + surviving records for replay. The
    /// truncation is physical — the torn tail is gone afterwards, exactly
    /// as a real recovery would rewrite the file.
    pub fn recover(&mut self) -> RecoveredState {
        let valid_prefix = self
            .journal
            .iter()
            .position(|r| !r.is_valid())
            .unwrap_or(self.journal.len());
        let truncated = (self.journal.len() - valid_prefix) as u64;
        self.journal.truncate(valid_prefix);
        RecoveredState {
            snapshot: self.snapshot.as_ref().map(|s| s.blob.clone()),
            records: self
                .journal
                .iter()
                .map(|r| (r.kind.clone(), r.payload.clone()))
                .collect(),
            truncated_records: truncated,
        }
    }

    /// Records currently in the journal (snapshot excluded).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Cumulative store activity counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Deterministic digest of the full on-disk contents (snapshot blob +
    /// every journal record). Two same-seed runs produce identical
    /// digests; the crash-replay verification gate compares them.
    pub fn contents_digest(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        if let Some(s) = &self.snapshot {
            let pieces: [&[u8]; 3] = [&s.through_seq.to_le_bytes(), s.blob.as_bytes(), &[0x1e]];
            h = pieces.into_iter().fold(h, fnv1a_feed);
        }
        for r in &self.journal {
            h = feed_record(h, r.seq, &r.kind, &r.payload);
            h = fnv1a_feed(h, &[u8::from(r.torn), 0x1e]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_its_pinned_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        let pieces: [&[u8]; 3] = [b"site", &7u64.to_le_bytes(), &[0x1f]];
        assert_eq!(pieces.into_iter().fold(fnv1a(b""), fnv1a_feed), 0x2929_84d1_dac4_1b22);
        assert_eq!(fnv1a(&pieces.concat()), 0x2929_84d1_dac4_1b22);
    }

    #[test]
    fn append_recover_roundtrip() {
        let mut s = SiteStore::new();
        s.append("adr.register", "jpovray@s1");
        s.append("adr.register", "wien2k@s1");
        let rec = s.recover();
        assert_eq!(rec.snapshot, None);
        assert_eq!(rec.truncated_records, 0);
        assert_eq!(
            rec.records,
            vec![
                ("adr.register".to_owned(), "jpovray@s1".to_owned()),
                ("adr.register".to_owned(), "wien2k@s1".to_owned()),
            ]
        );
        assert_eq!(rec.replayed_records(), 2);
    }

    #[test]
    fn snapshot_compacts_journal() {
        let mut s = SiteStore::new();
        s.append("a", "1");
        s.append("a", "2");
        assert_eq!(s.install_snapshot("state-v1"), 2);
        assert_eq!(s.journal_len(), 0);
        s.append("a", "3");
        let rec = s.recover();
        assert_eq!(rec.snapshot.as_deref(), Some("state-v1"));
        assert_eq!(rec.records.len(), 1, "only post-snapshot records replay");
        assert_eq!(s.stats().snapshots, 1);
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_record() {
        let mut s = SiteStore::new();
        s.append("a", "1");
        s.append("a", "2");
        s.append("a", "3");
        assert_eq!(s.tear_tail(2), 2);
        let rec = s.recover();
        assert_eq!(rec.truncated_records, 2);
        assert_eq!(rec.records, vec![("a".to_owned(), "1".to_owned())]);
        // Truncation is physical: a second recovery sees a clean journal.
        let again = s.recover();
        assert_eq!(again.truncated_records, 0);
        assert_eq!(again.records.len(), 1);
        assert_eq!(s.stats().torn_records, 2);
    }

    #[test]
    fn tear_more_than_journal_is_bounded() {
        let mut s = SiteStore::new();
        s.append("a", "1");
        assert_eq!(s.tear_tail(10), 1);
        let rec = s.recover();
        assert_eq!(rec.truncated_records, 1);
        assert!(rec.records.is_empty());
    }

    #[test]
    fn checksum_detects_bitrot() {
        let mut s = SiteStore::new();
        s.append("a", "1");
        s.append("a", "2");
        s.journal[0].payload = "corrupted".into();
        // The *first* record is invalid: everything after it is dropped
        // too (a WAL is only trustworthy up to its first bad record).
        let rec = s.recover();
        assert_eq!(rec.truncated_records, 2);
        assert!(rec.records.is_empty());
    }

    #[test]
    fn digest_is_content_deterministic() {
        let build = || {
            let mut s = SiteStore::new();
            s.append("t", "x");
            s.install_snapshot("blob");
            s.append("d", "y");
            s
        };
        assert_eq!(build().contents_digest(), build().contents_digest());
        let mut other = build();
        other.append("d", "z");
        assert_ne!(build().contents_digest(), other.contents_digest());
    }

    /// [`record_checksum`] as it was before it fed FNV-1a piece by piece:
    /// the frame concatenated into a fresh buffer.
    fn concatenated_checksum(seq: u64, kind: &str, payload: &str) -> u64 {
        let mut buf = Vec::with_capacity(8 + kind.len() + payload.len() + 1);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(kind.as_bytes());
        buf.push(0x1f);
        buf.extend_from_slice(payload.as_bytes());
        fnv1a(&buf)
    }

    /// [`SiteStore::contents_digest`] as it was, concatenating likewise.
    fn concatenated_digest(s: &SiteStore) -> u64 {
        let mut buf = Vec::new();
        if let Some(s) = &s.snapshot {
            buf.extend_from_slice(&s.through_seq.to_le_bytes());
            buf.extend_from_slice(s.blob.as_bytes());
            buf.push(0x1e);
        }
        for r in &s.journal {
            buf.extend_from_slice(&r.seq.to_le_bytes());
            buf.extend_from_slice(r.kind.as_bytes());
            buf.push(0x1f);
            buf.extend_from_slice(r.payload.as_bytes());
            buf.push(if r.torn { 1 } else { 0 });
            buf.push(0x1e);
        }
        fnv1a(&buf)
    }

    fn random_text(rng: &mut crate::rng::SimRng) -> String {
        const PIECES: [&str; 7] = ["", ":", "12", "\u{1f}", "\u{1e}", "é", "adr.register"];
        (0..rng.range(0, 5))
            .map(|_| PIECES[rng.index(PIECES.len())])
            .collect()
    }

    #[test]
    fn hashes_fed_piece_by_piece_equal_the_concatenated_originals() {
        let mut rng = crate::rng::SimRng::from_seed(29);
        for seq in [0, 1, u64::MAX, rng.next_u64(), rng.next_u64()] {
            let (kind, payload) = (random_text(&mut rng), random_text(&mut rng));
            assert_eq!(
                record_checksum(seq, &kind, &payload),
                concatenated_checksum(seq, &kind, &payload)
            );
        }
        for round in 0..64 {
            let mut s = SiteStore::new();
            for _ in 0..rng.range(0, 24) {
                s.append(&random_text(&mut rng), random_text(&mut rng));
                if rng.chance(0.1) {
                    s.install_snapshot(&random_text(&mut rng));
                }
            }
            s.tear_tail(rng.index(3));
            for r in &s.journal {
                assert_eq!(
                    r.checksum,
                    concatenated_checksum(r.seq, &r.kind, &r.payload)
                );
            }
            assert_eq!(
                s.contents_digest(),
                concatenated_digest(&s),
                "round {round}"
            );
        }
    }

    #[test]
    fn seq_survives_compaction_and_truncation() {
        let mut s = SiteStore::new();
        s.append("a", "1");
        s.install_snapshot("v1");
        let seq = s.append("a", "2");
        assert_eq!(seq, 1);
        s.tear_tail(1);
        s.recover();
        assert_eq!(s.append("a", "3"), 2, "sequence numbers are never reused");
    }
}
