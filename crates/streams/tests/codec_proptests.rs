//! Property tests of the columnar frame codec's robustness guarantees:
//! bit-identical round trips over arbitrary batches and gap patterns, and
//! clean (error, never panic, never partial-apply) rejection of frames
//! truncated or corrupted at any byte offset.

use proptest::collection::vec;
use proptest::prelude::*;
use spca_streams::{
    decode_frame, encode_frame, ControlTuple, DataTuple, Frame, Punctuation, Tuple,
};

/// One generated tuple: the selector byte picks the kind (weighted toward
/// data), `bits` become raw f64 payloads — including NaNs with payloads,
/// both zeros, infinities, and subnormals, which must survive by *bits* —
/// and `mask_bits` carries an arbitrary gap pattern.
fn any_tuple() -> impl Strategy<Value = Tuple> {
    (
        any::<u8>(),
        any::<u64>(),
        any::<u64>(),
        vec(any::<u64>(), 0..12),
        any::<u64>(),
    )
        .prop_map(|(sel, seq, stamp, bits, mask_bits)| match sel % 9 {
            0..=5 => {
                let values: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
                let mut d = if mask_bits & 1 == 1 {
                    let mask: Vec<bool> = (0..values.len())
                        .map(|i| mask_bits >> (i + 1) & 1 == 1)
                        .collect();
                    DataTuple::masked(seq, values, mask)
                } else {
                    DataTuple::new(seq, values)
                };
                d.timestamp_ns = stamp;
                Tuple::Data(d)
            }
            // Signals carry the unit payload, which crosses the wire
            // without a registered codec.
            6 | 7 => Tuple::Control(ControlTuple::signal(seq as u32, stamp as u32)),
            _ => Tuple::Punct(Punctuation::EndOfStream),
        })
}

fn batch() -> impl Strategy<Value = Vec<Tuple>> {
    vec(any_tuple(), 0..40)
}

fn assert_bit_identical(a: &[Tuple], b: &[Tuple]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match (x, y) {
            (Tuple::Data(p), Tuple::Data(q)) => {
                assert_eq!(p.seq, q.seq);
                assert_eq!(p.timestamp_ns, q.timestamp_ns);
                assert_eq!(p.values.len(), q.values.len());
                for (u, v) in p.values.iter().zip(q.values.iter()) {
                    assert_eq!(u.to_bits(), v.to_bits());
                }
                match (&p.mask, &q.mask) {
                    (None, None) => {}
                    (Some(m), Some(n)) => assert_eq!(m.as_slice(), n.as_slice()),
                    _ => panic!("mask presence changed"),
                }
            }
            (Tuple::Control(p), Tuple::Control(q)) => {
                assert_eq!(p.kind, q.kind);
                assert_eq!(p.sender, q.sender);
            }
            (Tuple::Punct(Punctuation::EndOfStream), Tuple::Punct(Punctuation::EndOfStream)) => {}
            _ => panic!("tuple kind changed in round trip"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode → `tuples()` reproduces every batch bit-exactly:
    /// arbitrary f64 bit patterns, arbitrary gap masks, mixed tuple kinds,
    /// order preserved.
    #[test]
    fn round_trip_is_bit_identical(tuples in batch()) {
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).expect("encode");

        let mut frame = Frame::default();
        let consumed = decode_frame(&buf, &mut frame).expect("decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(frame.len(), tuples.len());
        assert_bit_identical(&tuples, &frame.tuples());
    }

    /// A frame truncated at *any* byte offset decodes to a clean error —
    /// no panic, and nothing is applied: the same `Frame` then
    /// decodes the intact frame correctly, proving no partial state leaks.
    #[test]
    fn truncation_at_any_offset_errors_cleanly(tuples in batch()) {
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).expect("encode");

        let mut frame = Frame::default();
        for cut in 0..buf.len() {
            prop_assert!(
                decode_frame(&buf[..cut], &mut frame).is_err(),
                "prefix of {}/{} bytes must not decode",
                cut,
                buf.len()
            );
        }
        // The frame reused across all the failed attempts still decodes
        // the full buffer to the exact original batch.
        decode_frame(&buf, &mut frame).expect("decode after failures");
        assert_bit_identical(&tuples, &frame.tuples());
    }

    /// Any single corrupted byte — header, counts, payload, bitmap, or
    /// trailer — yields a clean decode error. (A one-byte change is a
    /// burst of at most 8 bits, which CRC-32C, like every CRC-32, always
    /// detects on either the SSE4.2 or the table path; header fields are
    /// validated directly.)
    #[test]
    fn corruption_at_any_offset_errors_cleanly(tuples in batch(), flip in 1u8..=255) {
        let mut buf = Vec::new();
        encode_frame(&tuples, &mut buf).expect("encode");

        let mut frame = Frame::default();
        for i in 0..buf.len() {
            let orig = buf[i];
            buf[i] ^= flip;
            prop_assert!(
                decode_frame(&buf, &mut frame).is_err(),
                "byte {}/{} xor {:#04x} must not decode",
                i,
                buf.len(),
                flip
            );
            buf[i] = orig;
        }
        decode_frame(&buf, &mut frame).expect("restored frame decodes");
        assert_bit_identical(&tuples, &frame.tuples());
    }
}
