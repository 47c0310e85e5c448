//! Write-ahead log format: framing, checksums and prefix replay.
//!
//! The WAL is a single append-only file. Layout:
//!
//! ```text
//! header  := magic "ODAWAL1\0" (8) | epoch u64 LE (8)
//! record  := len u32 LE | payload | fnv1a64(payload) u64 LE
//! payload := sensor u32 LE | count u32 LE | (ts u64 LE, value_bits u64 LE) * count
//! ```
//!
//! The **epoch** links the WAL to the segment sequence: a WAL with epoch `e`
//! holds exactly the writes that belong to the *next* segment `e`. On seal,
//! segment `e` is written atomically and the WAL is atomically reset to a
//! bare header with epoch `e + 1`. Recovery uses the epoch to decide whether
//! the WAL tail is *newer* than the last durable segment (replay it), *stale*
//! (the seal completed but the WAL reset raced the crash — discard, so no
//! reading is ever applied twice), or evidence of a *lost segment* (epoch
//! more than one ahead — replay and flag a sequence gap).
//!
//! [`replay`] parses the longest valid prefix: any record whose frame is
//! short or whose checksum mismatches terminates the scan, and the byte
//! offset of the valid prefix is reported so the engine can truncate the
//! torn tail rather than propagate it.

use super::codec::fnv1a64;
use crate::reading::{Reading, Timestamp};
use crate::sensor::SensorId;

/// File name of the write-ahead log inside a storage directory.
pub const WAL_FILE: &str = "wal.log";

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"ODAWAL1\0";

/// Byte length of the WAL header (magic + epoch).
pub const WAL_HEADER_LEN: usize = 16;

/// Encode a bare WAL header for `epoch`.
pub fn encode_header(epoch: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    let (magic, rest) = h.split_at_mut(8);
    magic.copy_from_slice(&WAL_MAGIC);
    rest.copy_from_slice(&epoch.to_le_bytes());
    h
}

/// Append one checksummed record carrying a batch of readings for `sensor`
/// to `out`. The payload is written once and checksummed where it lies, so
/// a group of records shares one buffer and no per-record allocation.
pub fn encode_record_into(out: &mut Vec<u8>, sensor: SensorId, readings: &[Reading]) {
    let payload_len = 8 + readings.len() * 16;
    out.reserve(payload_len + 12);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    let payload_at = out.len();
    out.extend_from_slice(&sensor.0.to_le_bytes());
    out.extend_from_slice(&(readings.len() as u32).to_le_bytes());
    for r in readings {
        out.extend_from_slice(&r.ts.0.to_le_bytes());
        out.extend_from_slice(&r.value.to_bits().to_le_bytes());
    }
    let sum = fnv1a64(out.get(payload_at..).unwrap_or(&[]));
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Encode one checksummed record carrying a batch of readings for `sensor`.
pub fn encode_record(sensor: SensorId, readings: &[Reading]) -> Vec<u8> {
    let mut rec = Vec::new();
    encode_record_into(&mut rec, sensor, readings);
    rec
}

/// Result of scanning a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalReplay {
    /// Epoch from the header, or `None` if even the header is invalid.
    pub epoch: Option<u64>,
    /// Decoded records from the valid prefix, in append order.
    pub records: Vec<(SensorId, Vec<Reading>)>,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: usize,
    /// Whether trailing bytes after the valid prefix were found (torn tail).
    pub torn: bool,
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    bytes.get(at..end)?.try_into().ok().map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    bytes.get(at..end)?.try_into().ok().map(u64::from_le_bytes)
}

fn parse_payload(payload: &[u8]) -> Option<(SensorId, Vec<Reading>)> {
    let sensor = read_u32(payload, 0)?;
    let count = read_u32(payload, 4)? as usize;
    let body = payload.get(8..)?;
    if body.len() != count.checked_mul(16)? {
        return None;
    }
    let mut readings = Vec::with_capacity(count);
    for chunk in body.chunks_exact(16) {
        let ts = read_u64(chunk, 0)?;
        let bits = read_u64(chunk, 8)?;
        readings.push(Reading {
            ts: Timestamp(ts),
            value: f64::from_bits(bits),
        });
    }
    Some((SensorId(sensor), readings))
}

/// Scan `bytes` (a whole WAL file) and return the longest valid prefix.
pub fn replay(bytes: &[u8]) -> WalReplay {
    let epoch = bytes.get(..WAL_HEADER_LEN).and_then(|h| {
        let (magic, rest) = h.split_at(8);
        if magic == WAL_MAGIC {
            rest.try_into().ok().map(u64::from_le_bytes)
        } else {
            None
        }
    });
    let Some(epoch_v) = epoch else {
        return WalReplay {
            epoch: None,
            records: Vec::new(),
            valid_len: 0,
            torn: !bytes.is_empty(),
        };
    };
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let mut torn = false;
    loop {
        if pos == bytes.len() {
            break;
        }
        let frame = (|| {
            let len = read_u32(bytes, pos)? as usize;
            let payload_at = pos.checked_add(4)?;
            let payload_end = payload_at.checked_add(len)?;
            let payload = bytes.get(payload_at..payload_end)?;
            let sum = read_u64(bytes, payload_end)?;
            if sum != fnv1a64(payload) {
                return None;
            }
            let rec = parse_payload(payload)?;
            Some((rec, payload_end.checked_add(8)?))
        })();
        match frame {
            Some((rec, next)) => {
                records.push(rec);
                pos = next;
            }
            None => {
                torn = true;
                break;
            }
        }
    }
    WalReplay {
        epoch: Some(epoch_v),
        records,
        valid_len: pos,
        torn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(sensor: u32, n: u64) -> (SensorId, Vec<Reading>) {
        let readings: Vec<Reading> = (0..n)
            .map(|i| Reading {
                ts: Timestamp(1000 + i * 10),
                value: 0.5 * i as f64,
            })
            .collect();
        (SensorId(sensor), readings)
    }

    fn wal_with(epoch: u64, batches: &[(SensorId, Vec<Reading>)]) -> Vec<u8> {
        let mut bytes = encode_header(epoch).to_vec();
        for (s, rs) in batches {
            bytes.extend_from_slice(&encode_record(*s, rs));
        }
        bytes
    }

    #[test]
    fn clean_wal_replays_fully() {
        let batches = vec![batch(1, 3), batch(2, 1), batch(1, 5)];
        let bytes = wal_with(7, &batches);
        let rep = replay(&bytes);
        assert_eq!(rep.epoch, Some(7));
        assert!(!rep.torn);
        assert_eq!(rep.valid_len, bytes.len());
        assert_eq!(rep.records.len(), 3);
        for ((s, rs), (es, ers)) in rep.records.iter().zip(batches.iter()) {
            assert_eq!(s, es);
            assert_eq!(rs.len(), ers.len());
            for (a, b) in rs.iter().zip(ers.iter()) {
                assert_eq!(a.ts, b.ts);
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }

    #[test]
    fn nan_and_negative_zero_survive() {
        let readings = vec![
            Reading {
                ts: Timestamp(1),
                value: f64::from_bits(0x7ff8_0000_0000_beef),
            },
            Reading {
                ts: Timestamp(2),
                value: -0.0,
            },
            Reading {
                ts: Timestamp(3),
                value: f64::NEG_INFINITY,
            },
        ];
        let bytes = wal_with(1, &[(SensorId(9), readings.clone())]);
        let rep = replay(&bytes);
        let (_, got) = &rep.records[0];
        for (a, b) in got.iter().zip(readings.iter()) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn torn_tail_is_reported_with_valid_prefix() {
        let bytes = wal_with(3, &[batch(1, 4), batch(2, 2)]);
        let first_len = wal_with(3, &[batch(1, 4)]).len();
        for cut in first_len + 1..bytes.len() {
            let rep = replay(&bytes[..cut]);
            assert!(rep.torn, "cut {cut} should be torn");
            assert_eq!(rep.valid_len, first_len, "cut {cut}");
            assert_eq!(rep.records.len(), 1, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_checksum_terminates_scan() {
        let mut bytes = wal_with(3, &[batch(1, 4), batch(2, 2)]);
        let first_len = wal_with(3, &[batch(1, 4)]).len();
        bytes[first_len + 8] ^= 0xff; // flip a payload byte of the second record
        let rep = replay(&bytes);
        assert!(rep.torn);
        assert_eq!(rep.records.len(), 1);
        assert_eq!(rep.valid_len, first_len);
    }

    #[test]
    fn bad_or_missing_header_yields_no_epoch() {
        assert_eq!(replay(&[]).epoch, None);
        assert!(!replay(&[]).torn);
        let short = replay(&WAL_MAGIC[..6]);
        assert_eq!(short.epoch, None);
        assert!(short.torn);
        let mut bad = encode_header(1).to_vec();
        bad[0] = b'X';
        let rep = replay(&bad);
        assert_eq!(rep.epoch, None);
        assert!(rep.torn);
    }

    #[test]
    fn header_only_wal_is_clean_and_empty() {
        let rep = replay(&encode_header(42));
        assert_eq!(rep.epoch, Some(42));
        assert!(rep.records.is_empty());
        assert!(!rep.torn);
        assert_eq!(rep.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn length_mismatch_inside_payload_is_rejected() {
        // Hand-build a record whose count claims more readings than present,
        // with a valid checksum — parse_payload must reject it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes()); // claims 3 readings
        payload.extend_from_slice(&[0u8; 16]); // provides 1
        let mut bytes = encode_header(1).to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        let rep = replay(&bytes);
        assert!(rep.torn);
        assert!(rep.records.is_empty());
        assert_eq!(rep.valid_len, WAL_HEADER_LEN);
    }
}
