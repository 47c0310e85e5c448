//! Sealed immutable segment files: encoding, decoding and compaction.
//!
//! A segment holds per-sensor columnar blocks for one sealed batch of the
//! archive. Two kinds exist:
//!
//! - **Raw** segments store `(timestamp, value)` columns compressed with the
//!   [`super::codec`] delta-of-delta / XOR codecs.
//! - **Compacted** segments store the same data folded into the workspace's
//!   [`RollupBucket`] format (aligned buckets of
//!   count/sum/min/max/first/last), produced by the deterministic
//!   compaction pass from cold raw segments.
//!
//! ```text
//! segment := magic "ODASEG1\0" | kind u8 | bucket_ms u64 | seq u64
//!          | n_sensors u32 | block* | footer
//! footer  := min_ts u64 | max_ts u64 | total_readings u64
//!          | fnv1a64(all prior bytes) | end magic "ODAEND1\0"
//! ```
//!
//! Decoding verifies both magics, the checksum, and that the footer's
//! min/max/total match values recomputed from the decoded blocks, so a
//! truncated, bit-flipped or half-replaced file fails loudly instead of
//! feeding bad data into recovery.
//!
//! **Block directory.** A block is `sensor u32 | count u32 | column*`, and
//! it decodes on its own ([`decode_block`]). [`encode_indexed`] and
//! [`decode_indexed`] — the one encoder and the one decoder, of which
//! [`encode`] and [`decode`] are the plain forms — also return a
//! [`BlockDir`]: per block its sensor, the readings it holds or represents,
//! its byte range and the `fnv1a64` of its bytes. The encoder hashes the
//! bytes it just wrote, in the pass that folds the file checksum; the
//! decoder hashes them once it has verified the whole file. The format
//! carries no directory: it is rebuilt from the bytes, so files are exactly
//! what they were before the directory existed.
//!
//! **Verification contract.** Opening a file verifies all of it
//! ([`decode_indexed`]). A reader that then fetches one block through the
//! directory verifies that block against the length and checksum recorded
//! when the file was last verified or written: a changed byte fails that
//! block, while the file's other blocks still read whole.

use super::codec;
use crate::hash::{fnv1a_fold, fnv1a_fold_and_hash, FNV_OFFSET};
use crate::reading::{Reading, Timestamp};
use crate::sensor::SensorId;
use crate::store::{RollupBucket, RollupTier, RollupTierSpec};

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: [u8; 8] = *b"ODASEG1\0";

/// Magic bytes closing every segment file.
pub const SEG_END: [u8; 8] = *b"ODAEND1\0";

/// Whether a segment holds raw readings or compacted rollup buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Per-sensor compressed `(timestamp, value)` columns.
    Raw,
    /// Per-sensor [`RollupBucket`] columns at a fixed bucket width.
    Compacted,
}

/// Per-sensor payload of a segment.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentBlocks {
    /// Raw readings, ascending per sensor.
    Raw(Vec<(SensorId, Vec<Reading>)>),
    /// Rollup buckets, ascending per sensor.
    Compacted(Vec<(SensorId, Vec<RollupBucket>)>),
}

/// A decoded (or to-be-encoded) segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Position in the segment sequence; seals are numbered from 1.
    pub seq: u64,
    /// Bucket width for compacted segments; 0 for raw segments.
    pub bucket_ms: u64,
    /// Per-sensor columnar payload.
    pub blocks: SegmentBlocks,
}

/// Why a segment failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The buffer ended before the structure did.
    Truncated,
    /// Opening or closing magic did not match.
    BadMagic,
    /// Checksum over the body did not match the footer.
    BadChecksum,
    /// Structure decoded but was internally inconsistent.
    Malformed,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SegmentError::Truncated => "segment truncated",
            SegmentError::BadMagic => "segment magic mismatch",
            SegmentError::BadChecksum => "segment checksum mismatch",
            SegmentError::Malformed => "segment structure malformed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SegmentError {}

/// Where one block sits in its segment file and what its bytes hash to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// The sensor whose data the block holds.
    pub sensor: SensorId,
    /// Readings the block holds (raw) or represents (compacted: the sum of
    /// its bucket counts), saturating at `u32::MAX`.
    pub count: u32,
    /// Offset of the block's first byte in the file.
    pub offset: u32,
    /// Length of the block in bytes, header included.
    pub len: u32,
    /// `fnv1a64` of the block's bytes.
    pub sum: u64,
}

/// A segment's [`BlockRef`]s ordered by sensor, a repeated sensor's blocks
/// in file order, so one sensor's blocks are found by binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockDir(Vec<BlockRef>);

impl BlockDir {
    fn new(mut blocks: Vec<BlockRef>) -> Self {
        // Stable: blocks arrive in file order and keep it within a sensor.
        blocks.sort_by_key(|b| b.sensor);
        BlockDir(blocks)
    }

    /// `sensor`'s blocks in file order; empty when it has none.
    pub fn of(&self, sensor: SensorId) -> &[BlockRef] {
        let lo = self.0.partition_point(|b| b.sensor < sensor);
        let hi = self.0.partition_point(|b| b.sensor <= sensor);
        self.0.get(lo..hi).unwrap_or(&[])
    }

    /// Every block, by sensor.
    pub fn iter(&self) -> std::slice::Iter<'_, BlockRef> {
        self.0.iter()
    }
}

/// The directory entry of a block of `len` bytes at `offset` hashing to
/// `sum`.
fn block_ref(sensor: SensorId, represented: u64, offset: usize, len: usize, sum: u64) -> BlockRef {
    let sat = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
    BlockRef {
        sensor,
        count: sat(represented),
        offset: sat(offset as u64),
        len: sat(len as u64),
        sum,
    }
}

impl Segment {
    /// Build a raw segment from per-sensor ascending readings.
    pub fn raw(seq: u64, sensors: Vec<(SensorId, Vec<Reading>)>) -> Self {
        Segment {
            seq,
            bucket_ms: 0,
            blocks: SegmentBlocks::Raw(sensors),
        }
    }

    /// The segment's kind.
    pub fn kind(&self) -> SegmentKind {
        match self.blocks {
            SegmentBlocks::Raw(_) => SegmentKind::Raw,
            SegmentBlocks::Compacted(_) => SegmentKind::Compacted,
        }
    }

    /// Earliest timestamp covered (`Timestamp::MAX` if empty).
    pub fn min_ts(&self) -> Timestamp {
        let mut min = u64::MAX;
        match &self.blocks {
            SegmentBlocks::Raw(sensors) => {
                for (_, rs) in sensors {
                    if let Some(r) = rs.first() {
                        min = min.min(r.ts.0);
                    }
                }
            }
            SegmentBlocks::Compacted(sensors) => {
                for (_, bs) in sensors {
                    if let Some(b) = bs.first() {
                        min = min.min(b.first_ts.0);
                    }
                }
            }
        }
        Timestamp(min)
    }

    /// Latest timestamp covered (`Timestamp::ZERO` if empty).
    pub fn max_ts(&self) -> Timestamp {
        let mut max = 0u64;
        match &self.blocks {
            SegmentBlocks::Raw(sensors) => {
                for (_, rs) in sensors {
                    if let Some(r) = rs.last() {
                        max = max.max(r.ts.0);
                    }
                }
            }
            SegmentBlocks::Compacted(sensors) => {
                for (_, bs) in sensors {
                    if let Some(b) = bs.last() {
                        max = max.max(b.last_ts.0);
                    }
                }
            }
        }
        Timestamp(max)
    }

    /// Number of readings stored (raw) or represented (compacted: the sum of
    /// bucket counts).
    pub fn total_readings(&self) -> u64 {
        match &self.blocks {
            SegmentBlocks::Raw(sensors) => sensors.iter().map(|(_, rs)| rs.len() as u64).sum(),
            SegmentBlocks::Compacted(sensors) => {
                sensors.iter().map(|(_, bs)| represented(bs)).sum()
            }
        }
    }
}

/// Canonical file name for segment `seq`, e.g. `seg-000000000042.seg`.
pub fn file_name(seq: u64) -> String {
    format!("seg-{seq:012}.seg")
}

/// Parse a segment file name back to its sequence number.
pub fn parse_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn put_column(out: &mut Vec<u8>, col: &[u8]) {
    out.extend_from_slice(&(col.len() as u32).to_le_bytes());
    out.extend_from_slice(col);
}

/// Encode a segment to its on-disk representation.
pub fn encode(seg: &Segment) -> Vec<u8> {
    encode_indexed(seg).0
}

/// Encode a segment to its on-disk representation, and return the
/// directory of the blocks just written.
pub fn encode_indexed(seg: &Segment) -> (Vec<u8>, BlockDir) {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&SEG_MAGIC);
    let kind: u8 = match seg.kind() {
        SegmentKind::Raw => 0,
        SegmentKind::Compacted => 1,
    };
    out.push(kind);
    out.extend_from_slice(&seg.bucket_ms.to_le_bytes());
    out.extend_from_slice(&seg.seq.to_le_bytes());
    // Kept for the segment's life: sized exactly, not by doubling.
    let mut dir = Vec::with_capacity(match &seg.blocks {
        SegmentBlocks::Raw(sensors) => sensors.len(),
        SegmentBlocks::Compacted(sensors) => sensors.len(),
    });
    // The file checksum is folded as blocks end, in the same pass that
    // hashes each block, so the seal pays for one pass over its bytes.
    let mut file_sum = FNV_OFFSET;
    let mut hashed = 0usize;
    // Called as each block ends: the block is everything since `start`.
    let mut indexed = |bytes: &[u8], start: usize, sensor: SensorId, count: u64| {
        fnv1a_fold(&mut file_sum, bytes.get(hashed..start).unwrap_or(&[]));
        let block = bytes.get(start..).unwrap_or(&[]);
        let sum = fnv1a_fold_and_hash(&mut file_sum, block);
        dir.push(block_ref(sensor, count, start, block.len(), sum));
        hashed = bytes.len();
    };
    match &seg.blocks {
        SegmentBlocks::Raw(sensors) => {
            out.extend_from_slice(&(sensors.len() as u32).to_le_bytes());
            for (s, rs) in sensors {
                let start = out.len();
                out.extend_from_slice(&s.0.to_le_bytes());
                out.extend_from_slice(&(rs.len() as u32).to_le_bytes());
                let ts: Vec<u64> = rs.iter().map(|r| r.ts.0).collect();
                let vals: Vec<u64> = rs.iter().map(|r| r.value.to_bits()).collect();
                put_column(&mut out, &codec::encode_timestamps(&ts));
                put_column(&mut out, &codec::encode_value_bits(&vals));
                indexed(&out, start, *s, rs.len() as u64);
            }
        }
        SegmentBlocks::Compacted(sensors) => {
            out.extend_from_slice(&(sensors.len() as u32).to_le_bytes());
            for (s, bs) in sensors {
                let start = out.len();
                out.extend_from_slice(&s.0.to_le_bytes());
                out.extend_from_slice(&(bs.len() as u32).to_le_bytes());
                let starts: Vec<u64> = bs.iter().map(|b| b.start.0).collect();
                let counts: Vec<u64> = bs.iter().map(|b| b.count).collect();
                let first_ts: Vec<u64> = bs.iter().map(|b| b.first_ts.0).collect();
                let last_ts: Vec<u64> = bs.iter().map(|b| b.last_ts.0).collect();
                put_column(&mut out, &codec::encode_timestamps(&starts));
                put_column(&mut out, &codec::encode_timestamps(&counts));
                put_column(&mut out, &codec::encode_timestamps(&first_ts));
                put_column(&mut out, &codec::encode_timestamps(&last_ts));
                for col in [
                    bs.iter().map(|b| b.sum).collect::<Vec<f64>>(),
                    bs.iter().map(|b| b.min).collect(),
                    bs.iter().map(|b| b.max).collect(),
                    bs.iter().map(|b| b.first).collect(),
                    bs.iter().map(|b| b.last).collect(),
                ] {
                    put_column(&mut out, &codec::encode_values(&col));
                }
                indexed(&out, start, *s, represented(bs));
            }
        }
    }
    out.extend_from_slice(&seg.min_ts().0.to_le_bytes());
    out.extend_from_slice(&seg.max_ts().0.to_le_bytes());
    out.extend_from_slice(&seg.total_readings().to_le_bytes());
    fnv1a_fold(&mut file_sum, out.get(hashed..).unwrap_or(&[]));
    out.extend_from_slice(&file_sum.to_le_bytes());
    out.extend_from_slice(&SEG_END);
    (out, BlockDir::new(dir))
}

/// Readings a compacted block represents.
fn represented(buckets: &[RollupBucket]) -> u64 {
    buckets.iter().map(|b| b.count).sum()
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    fn column(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// One raw block: `sensor | count | timestamps | value bits`.
fn raw_block(r: &mut ByteReader<'_>) -> Result<(SensorId, Vec<Reading>), SegmentError> {
    let sensor = SensorId(r.u32().ok_or(SegmentError::Truncated)?);
    let count = r.u32().ok_or(SegmentError::Truncated)? as usize;
    let ts_col = r.column().ok_or(SegmentError::Truncated)?;
    let val_col = r.column().ok_or(SegmentError::Truncated)?;
    let ts = codec::decode_timestamps(ts_col, count).ok_or(SegmentError::Malformed)?;
    let vals = codec::decode_value_bits(val_col, count).ok_or(SegmentError::Malformed)?;
    let readings = ts
        .into_iter()
        .zip(vals)
        .map(|(t, v)| Reading {
            ts: Timestamp(t),
            value: f64::from_bits(v),
        })
        .collect();
    Ok((sensor, readings))
}

/// One compacted block: `sensor | count | 4 stamp columns | 5 value columns`.
fn compacted_block(r: &mut ByteReader<'_>) -> Result<(SensorId, Vec<RollupBucket>), SegmentError> {
    let sensor = SensorId(r.u32().ok_or(SegmentError::Truncated)?);
    let count = r.u32().ok_or(SegmentError::Truncated)? as usize;
    let mut ts_cols = Vec::with_capacity(4);
    for _ in 0..4 {
        let col = r.column().ok_or(SegmentError::Truncated)?;
        ts_cols.push(codec::decode_timestamps(col, count).ok_or(SegmentError::Malformed)?);
    }
    let mut val_cols = Vec::with_capacity(5);
    for _ in 0..5 {
        let col = r.column().ok_or(SegmentError::Truncated)?;
        val_cols.push(codec::decode_values(col, count).ok_or(SegmentError::Malformed)?);
    }
    let mut buckets = Vec::with_capacity(count);
    for i in 0..count {
        buckets.push(RollupBucket {
            start: Timestamp(ts_cols[0][i]),
            count: ts_cols[1][i],
            first_ts: Timestamp(ts_cols[2][i]),
            last_ts: Timestamp(ts_cols[3][i]),
            sum: val_cols[0][i],
            min: val_cols[1][i],
            max: val_cols[2][i],
            first: val_cols[3][i],
            last: val_cols[4][i],
        });
    }
    Ok((sensor, buckets))
}

/// Decode one block on its own — the bytes a [`BlockRef`] points at — into
/// a one-sensor payload of `kind`. The caller checks the block's length and
/// checksum first; this checks its structure.
pub fn decode_block(kind: SegmentKind, block: &[u8]) -> Result<SegmentBlocks, SegmentError> {
    let mut r = ByteReader::new(block);
    let blocks = match kind {
        SegmentKind::Raw => SegmentBlocks::Raw(vec![raw_block(&mut r)?]),
        SegmentKind::Compacted => SegmentBlocks::Compacted(vec![compacted_block(&mut r)?]),
    };
    if r.pos != block.len() {
        return Err(SegmentError::Malformed);
    }
    Ok(blocks)
}

/// Decode and fully verify a segment file.
pub fn decode(bytes: &[u8]) -> Result<Segment, SegmentError> {
    decode_blocks(bytes).map(|(seg, _)| seg)
}

/// Decode and fully verify a segment file, and return the directory of its
/// blocks, each hashed from the verified bytes.
pub fn decode_indexed(bytes: &[u8]) -> Result<(Segment, BlockDir), SegmentError> {
    let (seg, mut refs) = decode_blocks(bytes)?;
    for b in &mut refs {
        let (start, len) = (b.offset as usize, b.len as usize);
        b.sum = codec::fnv1a64(bytes.get(start..start.saturating_add(len)).unwrap_or(&[]));
    }
    Ok((seg, BlockDir::new(refs)))
}

/// The decoder: verifies the whole file, then decodes it, noting each
/// block's place in file order with its `sum` left 0 — only a caller that
/// keeps the directory pays for hashing the blocks.
fn decode_blocks(bytes: &[u8]) -> Result<(Segment, Vec<BlockRef>), SegmentError> {
    // Footer geometry first: checksum covers everything before itself.
    const TAIL: usize = 8 + 8; // checksum + end magic
    if bytes.len() < SEG_MAGIC.len() + TAIL {
        return Err(SegmentError::Truncated);
    }
    let (body_and_footer, tail) = bytes.split_at(bytes.len() - TAIL);
    let (sum_bytes, end_magic) = tail.split_at(8);
    if end_magic != SEG_END {
        return Err(SegmentError::BadMagic);
    }
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().map_err(|_| SegmentError::Truncated)?);
    if codec::fnv1a64(body_and_footer) != stored_sum {
        return Err(SegmentError::BadChecksum);
    }

    let mut r = ByteReader::new(body_and_footer);
    let magic = r.take(8).ok_or(SegmentError::Truncated)?;
    if magic != SEG_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let kind = r.u8().ok_or(SegmentError::Truncated)?;
    let bucket_ms = r.u64().ok_or(SegmentError::Truncated)?;
    let seq = r.u64().ok_or(SegmentError::Truncated)?;
    let n_sensors = r.u32().ok_or(SegmentError::Truncated)? as usize;
    let mut dir = Vec::with_capacity(n_sensors);
    // The bytes since `start` are one block.
    let entry = |r: &ByteReader<'_>, start: usize, sensor: SensorId, count: u64| {
        block_ref(sensor, count, start, r.pos - start, 0)
    };
    let blocks = match kind {
        0 => {
            let mut sensors = Vec::with_capacity(n_sensors);
            for _ in 0..n_sensors {
                let start = r.pos;
                let (sensor, readings) = raw_block(&mut r)?;
                dir.push(entry(&r, start, sensor, readings.len() as u64));
                sensors.push((sensor, readings));
            }
            SegmentBlocks::Raw(sensors)
        }
        1 => {
            let mut sensors = Vec::with_capacity(n_sensors);
            for _ in 0..n_sensors {
                let start = r.pos;
                let (sensor, buckets) = compacted_block(&mut r)?;
                dir.push(entry(&r, start, sensor, represented(&buckets)));
                sensors.push((sensor, buckets));
            }
            SegmentBlocks::Compacted(sensors)
        }
        _ => return Err(SegmentError::Malformed),
    };
    let min_ts = r.u64().ok_or(SegmentError::Truncated)?;
    let max_ts = r.u64().ok_or(SegmentError::Truncated)?;
    let total = r.u64().ok_or(SegmentError::Truncated)?;
    if r.pos != body_and_footer.len() {
        return Err(SegmentError::Malformed);
    }
    let seg = Segment {
        seq,
        bucket_ms,
        blocks,
    };
    if seg.min_ts().0 != min_ts || seg.max_ts().0 != max_ts || seg.total_readings() != total {
        return Err(SegmentError::Malformed);
    }
    Ok((seg, dir))
}

/// Fold a raw segment into a compacted one at `bucket_ms`, reusing the
/// workspace's [`RollupTier`] fold so compaction semantics match the online
/// rollup tiers exactly. Compacting a compacted segment returns a clone.
pub fn compact(seg: &Segment, bucket_ms: u64) -> Segment {
    let SegmentBlocks::Raw(sensors) = &seg.blocks else {
        return seg.clone();
    };
    let mut out = Vec::with_capacity(sensors.len());
    for (s, rs) in sensors {
        let spec = RollupTierSpec {
            bucket_ms,
            capacity: rs.len().max(1),
        };
        let mut tier = RollupTier::new(spec);
        for r in rs {
            tier.observe(*r);
        }
        let mut buckets = Vec::new();
        tier.range_into(Timestamp::ZERO, Timestamp::MAX, &mut buckets);
        out.push((*s, buckets));
    }
    Segment {
        seq: seg.seq,
        bucket_ms,
        blocks: SegmentBlocks::Compacted(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_raw(seq: u64) -> Segment {
        let a: Vec<Reading> = (0..200u64)
            .map(|i| Reading {
                ts: Timestamp(10_000 + i * 250),
                value: 40.0 + (i % 7) as f64,
            })
            .collect();
        let b: Vec<Reading> = (0..50u64)
            .map(|i| Reading {
                ts: Timestamp(12_000 + i * 1000),
                value: if i % 9 == 0 {
                    f64::NAN
                } else {
                    -0.25 * i as f64
                },
            })
            .collect();
        Segment::raw(seq, vec![(SensorId(3), a), (SensorId(11), b)])
    }

    fn assert_segments_equal(a: &Segment, b: &Segment) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.bucket_ms, b.bucket_ms);
        match (&a.blocks, &b.blocks) {
            (SegmentBlocks::Raw(x), SegmentBlocks::Raw(y)) => {
                assert_eq!(x.len(), y.len());
                for ((s1, r1), (s2, r2)) in x.iter().zip(y.iter()) {
                    assert_eq!(s1, s2);
                    assert_eq!(r1.len(), r2.len());
                    for (u, v) in r1.iter().zip(r2.iter()) {
                        assert_eq!(u.ts, v.ts);
                        assert_eq!(u.value.to_bits(), v.value.to_bits());
                    }
                }
            }
            (SegmentBlocks::Compacted(x), SegmentBlocks::Compacted(y)) => {
                assert_eq!(x.len(), y.len());
                for ((s1, b1), (s2, b2)) in x.iter().zip(y.iter()) {
                    assert_eq!(s1, s2);
                    assert_eq!(b1.len(), b2.len());
                    for (u, v) in b1.iter().zip(b2.iter()) {
                        assert_eq!(u.start, v.start);
                        assert_eq!(u.count, v.count);
                        assert_eq!(u.first_ts, v.first_ts);
                        assert_eq!(u.last_ts, v.last_ts);
                        assert_eq!(u.sum.to_bits(), v.sum.to_bits());
                        assert_eq!(u.min.to_bits(), v.min.to_bits());
                        assert_eq!(u.max.to_bits(), v.max.to_bits());
                        assert_eq!(u.first.to_bits(), v.first.to_bits());
                        assert_eq!(u.last.to_bits(), v.last.to_bits());
                    }
                }
            }
            _ => panic!("segment kind mismatch"),
        }
    }

    #[test]
    fn raw_round_trip_is_bit_identical() {
        let seg = sample_raw(5);
        let bytes = encode(&seg);
        let back = decode(&bytes).unwrap();
        assert_segments_equal(&seg, &back);
        assert_eq!(back.kind(), SegmentKind::Raw);
        assert_eq!(back.total_readings(), 250);
    }

    #[test]
    fn compacted_round_trip_is_bit_identical() {
        let folded = compact(&sample_raw(6), 60_000);
        assert_eq!(folded.kind(), SegmentKind::Compacted);
        assert_eq!(folded.total_readings(), 250); // counts preserved
        let bytes = encode(&folded);
        let back = decode(&bytes).unwrap();
        assert_segments_equal(&folded, &back);
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let bytes = encode(&sample_raw(7));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_raw(8));
        // Stride through the file flipping one bit at a time; checksum or
        // magic verification must reject every corruption.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {i} decoded");
        }
    }

    /// Unsorted sensors, one of them twice.
    fn sample_unsorted(seq: u64) -> Segment {
        let SegmentBlocks::Raw(mut sensors) = sample_raw(seq).blocks else {
            unreachable!()
        };
        let (s3, a) = sensors.remove(0);
        let (_, tail) = a.split_at(150);
        sensors.push((s3, tail.to_vec()));
        sensors.insert(0, (SensorId(7), Vec::new()));
        Segment::raw(seq, sensors)
    }

    #[test]
    fn directory_blocks_decode_alone_to_what_decode_returns() {
        for seg in [
            sample_raw(1),
            sample_unsorted(2),
            compact(&sample_unsorted(3), 5_000),
        ] {
            let (bytes, dir) = encode_indexed(&seg);
            let (back, read_dir) = decode_indexed(&bytes).unwrap();
            assert_eq!(dir, read_dir, "encoder and decoder agree");
            let all: Vec<&BlockRef> = dir.iter().collect();
            let want = match &back.blocks {
                SegmentBlocks::Raw(s) => s.len(),
                SegmentBlocks::Compacted(s) => s.len(),
            };
            assert_eq!(all.len(), want, "one entry per block");
            for sensor in [3, 7, 11, 99].map(SensorId) {
                let blocks = dir.of(sensor);
                assert!(blocks.iter().all(|b| b.sensor == sensor));
                assert!(
                    blocks.windows(2).all(|w| w[0].offset < w[1].offset),
                    "file order"
                );
                let mut raw = Vec::new();
                let mut buckets = Vec::new();
                for b in blocks {
                    let block = &bytes[b.offset as usize..(b.offset + b.len) as usize];
                    assert_eq!(codec::fnv1a64(block), b.sum);
                    match decode_block(seg.kind(), block).unwrap() {
                        SegmentBlocks::Raw(mut v) => raw.extend(v.remove(0).1),
                        SegmentBlocks::Compacted(mut v) => buckets.extend(v.remove(0).1),
                    }
                }
                let (want_raw, want_buckets) = match &back.blocks {
                    SegmentBlocks::Raw(s) => (concat_of(s, sensor), Vec::new()),
                    SegmentBlocks::Compacted(s) => (Vec::new(), concat_of(s, sensor)),
                };
                let counted: u64 = blocks.iter().map(|b| u64::from(b.count)).sum();
                assert_eq!(counted, want_raw.len() as u64 + represented(&want_buckets));
                assert_eq!(raw.len(), want_raw.len());
                for (x, y) in raw.iter().zip(&want_raw) {
                    assert_eq!((x.ts, x.value.to_bits()), (y.ts, y.value.to_bits()));
                }
                let bits = |bs: &[RollupBucket]| -> Vec<[u64; 9]> {
                    bs.iter()
                        .map(|b| {
                            [
                                b.start.0,
                                b.count,
                                b.first_ts.0,
                                b.last_ts.0,
                                b.sum.to_bits(),
                                b.min.to_bits(),
                                b.max.to_bits(),
                                b.first.to_bits(),
                                b.last.to_bits(),
                            ]
                        })
                        .collect()
                };
                assert_eq!(bits(&buckets), bits(&want_buckets));
            }
        }
    }

    fn concat_of<T: Clone>(blocks: &[(SensorId, Vec<T>)], sensor: SensorId) -> Vec<T> {
        blocks
            .iter()
            .filter(|(s, _)| *s == sensor)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    }

    #[test]
    fn every_bit_flip_inside_a_block_fails_its_checksum() {
        let (bytes, dir) = encode_indexed(&sample_unsorted(4));
        for b in dir.iter() {
            let block = &bytes[b.offset as usize..(b.offset + b.len) as usize];
            for bit in 0..block.len() * 8 {
                let mut bad = block.to_vec();
                bad[bit / 8] ^= 0x80 >> (bit % 8);
                assert_ne!(
                    codec::fnv1a64(&bad),
                    b.sum,
                    "bit {bit} of block at {}",
                    b.offset
                );
            }
        }
    }

    #[test]
    fn decode_block_rejects_a_cut_or_padded_block() {
        let (bytes, dir) = encode_indexed(&sample_raw(5));
        let b = dir.of(SensorId(3))[0];
        let block = &bytes[b.offset as usize..(b.offset + b.len) as usize];
        assert!(decode_block(SegmentKind::Raw, block).is_ok());
        for cut in 0..block.len() {
            assert!(
                decode_block(SegmentKind::Raw, &block[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut padded = block.to_vec();
        padded.push(0);
        assert_eq!(
            decode_block(SegmentKind::Raw, &padded),
            Err(SegmentError::Malformed)
        );
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(file_name(42), "seg-000000000042.seg");
        assert_eq!(parse_file_name("seg-000000000042.seg"), Some(42));
        assert_eq!(parse_file_name("seg-42.seg"), None);
        assert_eq!(parse_file_name("wal.log"), None);
        assert_eq!(parse_file_name("seg-00000000004x.seg"), None);
    }

    #[test]
    fn empty_segment_encodes_and_decodes() {
        let seg = Segment::raw(1, Vec::new());
        let back = decode(&encode(&seg)).unwrap();
        assert_eq!(back.total_readings(), 0);
        assert_eq!(back.min_ts(), Timestamp::MAX);
        assert_eq!(back.max_ts(), Timestamp::ZERO);
    }

    #[test]
    fn compaction_matches_independent_fold() {
        // Recompute the expected buckets with a straight-line grouping loop
        // (independent of RollupTier) and compare field-by-field.
        let readings: Vec<Reading> = (0..500u64)
            .map(|i| Reading {
                ts: Timestamp(7_777 + i * 333),
                value: 100.0 - (i % 13) as f64,
            })
            .collect();
        let seg = Segment::raw(4, vec![(SensorId(1), readings.clone())]);
        let folded = compact(&seg, 10_000);
        let mut expected: Vec<RollupBucket> = Vec::new();
        for r in &readings {
            let start = Timestamp(r.ts.0 - r.ts.0 % 10_000);
            match expected.last_mut() {
                Some(b) if b.start == start => {
                    b.count += 1;
                    b.sum += r.value;
                    b.min = b.min.min(r.value);
                    b.max = b.max.max(r.value);
                    b.last = r.value;
                    b.last_ts = r.ts;
                }
                _ => expected.push(RollupBucket {
                    start,
                    count: 1,
                    sum: r.value,
                    min: r.value,
                    max: r.value,
                    first: r.value,
                    last: r.value,
                    first_ts: r.ts,
                    last_ts: r.ts,
                }),
            }
        }
        let SegmentBlocks::Compacted(sensors) = &folded.blocks else {
            unreachable!()
        };
        let (_, got) = &sensors[0];
        assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(expected.iter()) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.count, b.count);
            assert_eq!(a.sum.to_bits(), b.sum.to_bits());
            assert_eq!(a.min.to_bits(), b.min.to_bits());
            assert_eq!(a.max.to_bits(), b.max.to_bits());
            assert_eq!(a.first.to_bits(), b.first.to_bits());
            assert_eq!(a.last.to_bits(), b.last.to_bits());
            assert_eq!(a.first_ts, b.first_ts);
            assert_eq!(a.last_ts, b.last_ts);
        }
    }
}
