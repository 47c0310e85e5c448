//! Columnar codecs for segment blocks.
//!
//! Two Gorilla-style codecs (Pelkonen et al., VLDB 2015) specialised for the
//! telemetry archive:
//!
//! - **Timestamps**: delta-of-delta with zig-zag variable-width buckets.
//!   All arithmetic is wrapping over `u64`, so *any* sequence round-trips
//!   bit-for-bit — monotonicity improves compression but is not required
//!   for correctness.
//! - **Values**: XOR compression over the raw IEEE-754 bit patterns
//!   (`f64::to_bits`), so NaN payloads, ±inf and `-0.0` are preserved
//!   exactly.
//!
//! Decoders are corruption-safe: every read is bounds-checked and returns
//! `None` on overrun instead of panicking, so a torn or bit-flipped block
//! degrades to a decode failure the engine can report.

/// MSB-first bit writer backing both codecs.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Total number of bits written.
    bits: usize,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        let used = self.bits % 8;
        if used == 0 {
            self.buf.push(0);
        }
        if bit {
            if let Some(last) = self.buf.last_mut() {
                *last |= 0x80 >> used;
            }
        }
        self.bits += 1;
    }

    /// Append the low `n` bits of `value`, most significant first.
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64);
        for i in (0..n).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Finish and return the byte buffer (trailing bits zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// MSB-first bounds-checked bit reader.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Read one bit, or `None` if the input is exhausted.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n` bits into the low bits of a `u64`, or `None` on overrun.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64);
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Some(v)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encode a timestamp column (millisecond values) with delta-of-delta
/// compression. The empty slice encodes to an empty buffer.
pub fn encode_timestamps(ts: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut iter = ts.iter();
    let Some(&first) = iter.next() else {
        return w.finish();
    };
    w.write_bits(first, 64);
    let mut prev = first;
    let mut prev_delta = 0u64;
    for &t in iter {
        let delta = t.wrapping_sub(prev);
        let dod = delta.wrapping_sub(prev_delta) as i64;
        let zz = zigzag(dod);
        if zz == 0 {
            w.write_bit(false);
        } else if zz < (1 << 7) {
            w.write_bits(0b10, 2);
            w.write_bits(zz, 7);
        } else if zz < (1 << 9) {
            w.write_bits(0b110, 3);
            w.write_bits(zz, 9);
        } else if zz < (1 << 16) {
            w.write_bits(0b1110, 4);
            w.write_bits(zz, 16);
        } else if zz < (1 << 32) {
            w.write_bits(0b11110, 5);
            w.write_bits(zz, 32);
        } else {
            w.write_bits(0b11111, 5);
            w.write_bits(zz, 64);
        }
        prev = t;
        prev_delta = delta;
    }
    w.finish()
}

/// Decode `count` timestamps produced by [`encode_timestamps`]. Returns
/// `None` if the buffer is too short or malformed.
pub fn decode_timestamps(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Some(out);
    }
    let mut r = BitReader::new(bytes);
    let first = r.read_bits(64)?;
    out.push(first);
    let mut prev = first;
    let mut prev_delta = 0u64;
    while out.len() < count {
        let zz = if !r.read_bit()? {
            0
        } else if !r.read_bit()? {
            r.read_bits(7)?
        } else if !r.read_bit()? {
            r.read_bits(9)?
        } else if !r.read_bit()? {
            r.read_bits(16)?
        } else if !r.read_bit()? {
            r.read_bits(32)?
        } else {
            r.read_bits(64)?
        };
        let dod = unzigzag(zz);
        let delta = prev_delta.wrapping_add(dod as u64);
        let t = prev.wrapping_add(delta);
        out.push(t);
        prev = t;
        prev_delta = delta;
    }
    Some(out)
}

/// Encode a column of raw 64-bit patterns with Gorilla XOR compression.
///
/// Works on bit patterns, not floats, so it is also used for integer
/// columns (bucket counts) and preserves every NaN payload exactly.
pub fn encode_value_bits(vals: &[u64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut iter = vals.iter();
    let Some(&first) = iter.next() else {
        return w.finish();
    };
    w.write_bits(first, 64);
    let mut prev = first;
    // Sentinel: no previous window yet.
    let mut win_leading = 65u32;
    let mut win_len = 0u32;
    for &v in iter {
        let xor = v ^ prev;
        if xor == 0 {
            w.write_bit(false);
        } else {
            w.write_bit(true);
            let leading = xor.leading_zeros().min(31);
            let trailing = xor.trailing_zeros();
            let meaningful = 64 - leading - trailing;
            let win_trailing = 64u32.saturating_sub(win_leading + win_len);
            if win_leading <= 64 && leading >= win_leading && trailing >= win_trailing {
                // Reuse the previous window.
                w.write_bit(false);
                w.write_bits(xor >> win_trailing, win_len);
            } else {
                w.write_bit(true);
                w.write_bits(u64::from(leading), 5);
                w.write_bits(u64::from(meaningful - 1), 6);
                w.write_bits(xor >> trailing, meaningful);
                win_leading = leading;
                win_len = meaningful;
            }
        }
        prev = v;
    }
    w.finish()
}

/// Decode `count` bit patterns produced by [`encode_value_bits`].
pub fn decode_value_bits(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Some(out);
    }
    let mut r = BitReader::new(bytes);
    let first = r.read_bits(64)?;
    out.push(first);
    let mut prev = first;
    let mut win_leading = 0u32;
    let mut win_len = 0u32;
    while out.len() < count {
        let v = if !r.read_bit()? {
            prev
        } else if !r.read_bit()? {
            // Previous window; a well-formed stream never reaches here
            // before a window is established (win_len 0 reads 0 bits and
            // reproduces prev, which a correct encoder would have written
            // as a single 0 bit — tolerated, not panicked on).
            if win_len == 0 {
                prev
            } else {
                let win_trailing = 64u32.saturating_sub(win_leading + win_len);
                let bits = r.read_bits(win_len)?;
                prev ^ (bits << win_trailing)
            }
        } else {
            let leading = r.read_bits(5)? as u32;
            let meaningful = r.read_bits(6)? as u32 + 1;
            let trailing = 64u32.checked_sub(leading + meaningful)?;
            let bits = r.read_bits(meaningful)?;
            win_leading = leading;
            win_len = meaningful;
            prev ^ (bits << trailing)
        };
        out.push(v);
        prev = v;
    }
    Some(out)
}

/// Encode an `f64` column via [`encode_value_bits`] on the raw bit patterns.
pub fn encode_values(vals: &[f64]) -> Vec<u8> {
    let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
    encode_value_bits(&bits)
}

/// Decode an `f64` column written by [`encode_values`].
pub fn decode_values(bytes: &[u8], count: usize) -> Option<Vec<f64>> {
    decode_value_bits(bytes, count).map(|bits| bits.into_iter().map(f64::from_bits).collect())
}

pub use crate::hash::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xdead_beef, 32);
        w.write_bit(true);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bit(), Some(true));
    }

    #[test]
    fn bit_reader_returns_none_on_overrun() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bit(), None);
        assert_eq!(BitReader::new(&[]).read_bits(1), None);
    }

    #[test]
    fn timestamps_round_trip_regular_cadence() {
        let ts: Vec<u64> = (0..1000u64).map(|i| 1_000_000 + i * 100).collect();
        let enc = encode_timestamps(&ts);
        // Regular cadence: first stamp 64 bits + one dod bucket + ~1 bit per
        // point thereafter. Assert real compression happened.
        assert!(enc.len() < ts.len() * 2);
        assert_eq!(decode_timestamps(&enc, ts.len()), Some(ts));
    }

    #[test]
    fn timestamps_round_trip_adversarial() {
        let ts = vec![u64::MAX, 0, 1, u64::MAX - 1, 42, 42, 43, 0, u64::MAX / 2];
        let enc = encode_timestamps(&ts);
        assert_eq!(decode_timestamps(&enc, ts.len()), Some(ts));
    }

    #[test]
    fn empty_and_single_columns() {
        assert!(encode_timestamps(&[]).is_empty());
        assert_eq!(decode_timestamps(&[], 0), Some(vec![]));
        let enc = encode_timestamps(&[7]);
        assert_eq!(decode_timestamps(&enc, 1), Some(vec![7]));
        assert!(encode_value_bits(&[]).is_empty());
        let enc = encode_value_bits(&[0x1234]);
        assert_eq!(decode_value_bits(&enc, 1), Some(vec![0x1234]));
    }

    #[test]
    fn values_round_trip_special_floats() {
        let vals = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_1234), // NaN with payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1e-300,
            1.5,
            1.5, // repeat: single-bit encoding
        ];
        let enc = encode_values(&vals);
        let dec = decode_values(&enc, vals.len()).unwrap();
        assert_eq!(dec.len(), vals.len());
        for (a, b) in vals.iter().zip(dec.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn values_compress_slowly_varying_series() {
        let vals: Vec<f64> = (0..1000).map(|i| 300.0 + f64::from(i % 3)).collect();
        let enc = encode_values(&vals);
        assert!(
            enc.len() < vals.len() * 8 / 2,
            "xor codec should beat raw: {}",
            enc.len()
        );
        let dec = decode_values(&enc, vals.len()).unwrap();
        let same = vals
            .iter()
            .zip(dec.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let ts: Vec<u64> = (0..100u64).map(|i| i * 1000).collect();
        let enc = encode_timestamps(&ts);
        let cut = &enc[..enc.len() / 2];
        assert_eq!(decode_timestamps(cut, ts.len()), None);
        let vals: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.1).collect();
        let venc = encode_values(&vals);
        let vcut = &venc[..venc.len() / 2];
        assert_eq!(decode_values(vcut, vals.len()), None);
    }

    #[test]
    fn fnv_matches_known_vector() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
