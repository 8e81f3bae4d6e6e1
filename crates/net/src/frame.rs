//! CRC-guarded wire frames.
//!
//! Every message [`crate::ReliableEndpoint`] puts on the wire — raw
//! (unreliable) sends, sequenced DATA frames and ACKs — is *sealed* into
//! a frame whose header carries a CRC-32C over everything after it:
//!
//! ```text
//! [crc32c u32 LE | kind u8 | seq u64 LE (DATA/ACK only) | payload ...]
//! ```
//!
//! [`check`] verifies the checksum *before* any field is parsed, so a
//! corrupted frame can never reach the protocol decoder: it is reported
//! as [`FrameError::Corrupt`], dropped, and (for reliable traffic)
//! recovered by the ack/retransmit machinery exactly as if the link had
//! dropped it. Truncation is equally harmless — a cut anywhere inside a
//! sealed frame fails the CRC (or the minimum-length check) and surfaces
//! as a clean error, never a panic.

use crate::crc::crc32c;
use bytes::Bytes;

/// Frame kind byte: unreliable (never retransmitted) application frame.
pub const KIND_RAW: u8 = 0;
/// Frame kind byte: sequenced, acknowledged application frame.
pub const KIND_DATA: u8 = 1;
/// Frame kind byte: acknowledgement of a DATA frame's sequence number.
pub const KIND_ACK: u8 = 2;

const CRC_LEN: usize = 4;
/// Offset of the application payload inside a sealed RAW frame.
pub const RAW_BODY: usize = CRC_LEN + 1;
/// Offset of the application payload inside a sealed DATA frame.
pub const DATA_BODY: usize = CRC_LEN + 1 + 8;

/// A frame that passed the CRC check, classified by kind. Payload bytes
/// are not copied — slice the original buffer at [`RAW_BODY`] /
/// [`DATA_BODY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Unreliable application frame; payload at [`RAW_BODY`].
    Raw,
    /// Sequenced application frame; payload at [`DATA_BODY`].
    Data {
        /// Per-(sender, destination) sequence number.
        seq: u64,
    },
    /// Acknowledgement of the DATA frame carrying `seq`.
    Ack {
        /// Sequence number being acknowledged.
        seq: u64,
    },
}

/// Why a buffer was rejected as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the smallest sealed frame, or the kind demands fields
    /// the buffer does not have.
    Truncated,
    /// The CRC-32C in the header does not match the frame contents.
    Corrupt,
    /// CRC valid but the kind byte is not one this protocol version
    /// knows.
    UnknownKind,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Corrupt => write!(f, "frame checksum mismatch"),
            FrameError::UnknownKind => write!(f, "unknown frame kind"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Seal `body` (kind byte + optional seq + payload, CRC slot reserved)
/// by writing the checksum into the header.
fn seal(mut buf: Vec<u8>) -> Bytes {
    let crc = crc32c(&buf[CRC_LEN..]);
    buf[..CRC_LEN].copy_from_slice(&crc.to_le_bytes());
    Bytes::from(buf)
}

/// Seal an unreliable application frame.
pub fn seal_raw(payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(RAW_BODY + payload.len());
    buf.extend_from_slice(&[0; CRC_LEN]);
    buf.push(KIND_RAW);
    buf.extend_from_slice(payload);
    seal(buf)
}

/// Seal a sequenced DATA frame.
pub fn seal_data(seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(DATA_BODY + payload.len());
    buf.extend_from_slice(&[0; CRC_LEN]);
    buf.push(KIND_DATA);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    seal(buf)
}

/// Seal an ACK for sequence number `seq`.
pub fn seal_ack(seq: u64) -> Bytes {
    let mut buf = Vec::with_capacity(DATA_BODY);
    buf.extend_from_slice(&[0; CRC_LEN]);
    buf.push(KIND_ACK);
    buf.extend_from_slice(&seq.to_le_bytes());
    seal(buf)
}

/// Verify and classify a sealed frame. The CRC is checked before any
/// field is interpreted; on any error the buffer must be discarded.
pub fn check(buf: &[u8]) -> Result<Frame, FrameError> {
    if buf.len() < RAW_BODY {
        return Err(FrameError::Truncated);
    }
    let stored = u32::from_le_bytes(buf[..CRC_LEN].try_into().expect("4 bytes"));
    if crc32c(&buf[CRC_LEN..]) != stored {
        return Err(FrameError::Corrupt);
    }
    match buf[CRC_LEN] {
        KIND_RAW => Ok(Frame::Raw),
        kind @ (KIND_DATA | KIND_ACK) => {
            let seq_bytes = buf
                .get(CRC_LEN + 1..DATA_BODY)
                .ok_or(FrameError::Truncated)?;
            let seq = u64::from_le_bytes(seq_bytes.try_into().expect("8 bytes"));
            if kind == KIND_DATA {
                Ok(Frame::Data { seq })
            } else {
                Ok(Frame::Ack { seq })
            }
        }
        _ => Err(FrameError::UnknownKind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_check_roundtrip() {
        assert_eq!(check(&seal_raw(b"hello")), Ok(Frame::Raw));
        assert_eq!(check(&seal_data(42, b"x")), Ok(Frame::Data { seq: 42 }));
        assert_eq!(check(&seal_ack(7)), Ok(Frame::Ack { seq: 7 }));
        let sealed = seal_data(9, b"payload");
        assert_eq!(&sealed[DATA_BODY..], b"payload");
        assert_eq!(&seal_raw(b"p")[RAW_BODY..], b"p");
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let sealed = seal_data(1234, b"some payload bytes");
        for bit in 0..sealed.len() * 8 {
            let mut buf = sealed.to_vec();
            buf[bit / 8] ^= 1 << (bit % 8);
            let got = check(&buf);
            assert!(
                matches!(got, Err(FrameError::Corrupt)),
                "bit {bit}: {got:?}"
            );
        }
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        for sealed in [seal_raw(b"abcdef"), seal_data(5, b"abcdef"), seal_ack(5)] {
            for cut in 0..sealed.len() {
                assert!(check(&sealed[..cut]).is_err(), "prefix of {cut} bytes");
            }
        }
    }

    /// Frames as sealed by the byte-at-a-time CRC implementation, before
    /// the hardware path existed: every implementation must keep
    /// producing and accepting exactly these bytes, so older peers stay
    /// compatible.
    #[test]
    fn sealed_frames_match_golden_bytes() {
        const DATA_42: [u8; 20] = [
            124, 209, 242, 203, 1, 42, 0, 0, 0, 0, 0, 0, 0, 112, 97, 121, 108, 111, 97, 100,
        ];
        const ACK_7: [u8; 13] = [198, 183, 45, 172, 2, 7, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(&seal_data(42, b"payload")[..], &DATA_42);
        assert_eq!(&seal_ack(7)[..], &ACK_7);
        assert_eq!(check(&DATA_42), Ok(Frame::Data { seq: 42 }));
        assert_eq!(check(&ACK_7), Ok(Frame::Ack { seq: 7 }));
    }

    #[test]
    fn unknown_kind_is_rejected_even_with_valid_crc() {
        let mut buf = vec![0u8; 5];
        buf[4] = 9; // bogus kind
        let crc = crate::crc::crc32c(&buf[4..]);
        buf[..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(check(&buf), Err(FrameError::UnknownKind));
    }
}
