//! The on-disk record codec: a fixed header plus an opaque payload, with an
//! FNV-1a checksum over everything that matters.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "BBSR"
//!      4     2  format version (little-endian)
//!      6     2  reserved (zero)
//!      8     8  content key (little-endian)
//!     16     8  payload length (little-endian)
//!     24     8  FNV-1a64 over bytes [4..24) ++ payload
//!     32     n  payload
//! ```
//!
//! Decoding demands an *exact* total length (`32 + payload length`), so a
//! truncated file can never pass: either the header itself is short, or the
//! declared length disagrees with the bytes present. Any single-bit flip is
//! caught by the magic check, the length check, or the checksum — the
//! property tests in `tests/proptests.rs` flip every bit to prove it.

use bbs_json::Fnv1a64;

/// Record magic: "BBSR" (BBS Record).
pub const MAGIC: [u8; 4] = *b"BBSR";
/// Current format version. Bump on layout changes; old records are
/// quarantined rather than misread.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 32;

/// Why a record failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Shorter than the fixed header.
    TooShort,
    /// Magic bytes are not `BBSR`.
    BadMagic,
    /// Unknown format version.
    BadVersion,
    /// Declared payload length disagrees with the bytes present.
    LengthMismatch,
    /// Checksum over header + payload failed.
    ChecksumMismatch,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            RecordError::TooShort => "record shorter than header",
            RecordError::BadMagic => "bad record magic",
            RecordError::BadVersion => "unknown record version",
            RecordError::LengthMismatch => "declared length disagrees with record size",
            RecordError::ChecksumMismatch => "record checksum mismatch",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for RecordError {}

fn checksum(meta: &[u8], payload: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.write(meta);
    hash.write(payload);
    hash.finish()
}

/// Encodes `payload` under `key` into a self-validating record.
pub fn encode(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = checksum(&out[4..24], payload);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes a record, returning `(key, payload)` only if every integrity
/// check passes.
pub fn decode(bytes: &[u8]) -> Result<(u64, Vec<u8>), RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::TooShort);
    }
    if bytes[0..4] != MAGIC {
        return Err(RecordError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(RecordError::BadVersion);
    }
    let key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let expected = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    // Exact-length match: torn tails and appended garbage both fail here.
    if len != (bytes.len() - HEADER_LEN) as u64 {
        return Err(RecordError::LengthMismatch);
    }
    let payload = &bytes[HEADER_LEN..];
    if checksum(&bytes[4..24], payload) != expected {
        return Err(RecordError::ChecksumMismatch);
    }
    Ok((key, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"some larger payload with bytes"] {
            let enc = encode(0xdead_beef_cafe_f00d, payload);
            let (key, out) = decode(&enc).unwrap();
            assert_eq!(key, 0xdead_beef_cafe_f00d);
            assert_eq!(out, payload);
        }
    }

    /// Records already on disk keep decoding: one fixed record's bytes,
    /// checksum included, are pinned literally.
    #[test]
    fn encoded_bytes_are_pinned() {
        let key = 0x0123_4567_89ab_cdef_u64;
        let mut expect = b"BBSR\x01\x00\x00\x00".to_vec();
        expect.extend_from_slice(&key.to_le_bytes());
        expect.extend_from_slice(&14u64.to_le_bytes());
        expect.extend_from_slice(&0x69fd_298f_0658_3bea_u64.to_le_bytes());
        expect.extend_from_slice(b"pinned payload");
        assert_eq!(encode(key, b"pinned payload"), expect);
        assert_eq!(decode(&expect), Ok((key, b"pinned payload".to_vec())));
    }

    #[test]
    fn reserved_bytes_are_checksummed() {
        let mut enc = encode(1, b"payload");
        enc[6] ^= 1; // reserved field
        assert_eq!(decode(&enc), Err(RecordError::ChecksumMismatch));
    }

    #[test]
    fn error_taxonomy() {
        let enc = encode(1, b"payload");
        assert_eq!(decode(&enc[..10]), Err(RecordError::TooShort));

        let mut bad = enc.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad), Err(RecordError::BadMagic));

        let mut bad = enc.clone();
        bad[4] = 0xff;
        assert_eq!(decode(&bad), Err(RecordError::BadVersion));

        assert_eq!(
            decode(&enc[..enc.len() - 1]),
            Err(RecordError::LengthMismatch)
        );
        let mut appended = enc.clone();
        appended.push(0);
        assert_eq!(decode(&appended), Err(RecordError::LengthMismatch));

        let mut bad = enc.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        assert_eq!(decode(&bad), Err(RecordError::ChecksumMismatch));
    }
}
