//! Property tests of the columnar frame path against the tuple path it
//! replaced:
//!
//! * `Split::process_rows` over a stream cut into frames anywhere, with
//!   any ports full and any active-set prefix per frame, routes every row
//!   where one-row frames route it, and leaves the same `picks`,
//!   `next_rr` and `blocked` — so a checkpoint resumes the same draw;
//! * encoding a frame's columns (`encode_columns`, from any entry on) is
//!   byte-identical to `encode_frame` of the same tuples;
//! * decoding a run of frames of any shape into one reused frame gives
//!   back each frame's tuples (`Frame::tuples`), with nothing left over
//!   from the frame decoded before.

use proptest::collection::vec;
use proptest::prelude::*;
use spca_streams::checkpoint::Checkpoint;
use spca_streams::codec::encode_columns;
use spca_streams::operator::testing::{feed_rows, with_sink, CaptureSink};
use spca_streams::ops::{Split, SplitStrategy};
use spca_streams::{
    decode_frame, encode_frame, ActiveSet, ControlTuple, DataTuple, Frame, Punctuation, Tuple,
    DEFAULT_BATCH_SIZE,
};
use std::sync::Arc;

/// One frame of a split scenario: how many rows, which ports are full, and
/// how many ports are active while it is routed.
type FrameSpec = (usize, Vec<bool>, usize);

/// Routes `frames` through a split of `strategy` over `n_ports`, one row at
/// a time in one-row frames (`by_rows` false) or one frame at a time, and
/// returns the per-port sequence numbers, the
/// `blocked` count and the checkpoint.
fn route(
    strategy: SplitStrategy,
    n_ports: usize,
    frames: &[FrameSpec],
    by_rows: bool,
) -> (Vec<Vec<u64>>, u64, Vec<u8>) {
    let active = ActiveSet::new(n_ports, n_ports);
    let mut split = Split::new(strategy, Arc::clone(&active));
    let mut sink = CaptureSink::new(n_ports);
    let mut seq = 0u64;
    for (rows, full, live) in frames {
        active.set_active(*live);
        sink.full_ports.clone_from(full);
        let tuples: Vec<Tuple> = (seq..seq + *rows as u64)
            .map(|s| Tuple::Data(DataTuple::new(s, vec![s as f64; 3])))
            .collect();
        seq += *rows as u64;
        with_sink(&mut sink, |ctx| {
            if by_rows {
                feed_rows(&mut split, &Frame::from_tuples(&tuples), ctx);
            } else {
                for t in &tuples {
                    feed_rows(&mut split, &Frame::from_tuples([t]), ctx);
                }
            }
        });
    }
    let ports = (0..n_ports)
        .map(|p| sink.data_at(p).iter().map(|d| d.seq).collect())
        .collect();
    (ports, split.blocked, Checkpoint::snapshot(&split))
}

fn split_scenario() -> impl Strategy<Value = (bool, usize, Vec<FrameSpec>)> {
    (any::<bool>(), 1usize..5).prop_flat_map(|(random, n_ports)| {
        let frame = (0usize..70, vec(any::<bool>(), n_ports), 1..n_ports + 1);
        vec(frame, 0..12).prop_map(move |frames| (random, n_ports, frames))
    })
}

/// One generated tuple: the selector byte picks the kind (weighted toward
/// data), `bits` become raw f64 payloads, and `mask_bits` carries an
/// arbitrary gap pattern.
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
                    let mask = (0..values.len())
                        .map(|i| mask_bits >> (i + 1) & 1 == 1)
                        .collect();
                    DataTuple::masked(seq, values, mask)
                } else {
                    DataTuple::new(seq, values)
                };
                d.timestamp_ns = stamp;
                Tuple::Data(d)
            }
            6 | 7 => Tuple::Control(ControlTuple::signal(seq as u32, stamp as u32)),
            _ => Tuple::Punct(Punctuation::EndOfStream),
        })
}

/// A tuple's content, bit for bit, for comparing two decodes.
fn fingerprint(tuples: &[Tuple]) -> Vec<String> {
    tuples
        .iter()
        .map(|t| match t {
            Tuple::Data(d) => {
                let bits: Vec<u64> = d.values.iter().map(|v| v.to_bits()).collect();
                format!("D {} {} {bits:?} {:?}", d.seq, d.timestamp_ns, d.mask)
            }
            Tuple::Control(c) => format!("C {} {}", c.kind, c.sender),
            Tuple::Punct(_) => "EOS".to_string(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_rows_route_as_tuples_do((random, n_ports, frames) in split_scenario()) {
        let strategy = if random { SplitStrategy::Random } else { SplitStrategy::RoundRobin };
        let by_tuple = route(strategy, n_ports, &frames, false);
        let by_rows = route(strategy, n_ports, &frames, true);
        prop_assert_eq!(by_rows, by_tuple);
    }

    #[test]
    fn encoding_a_frames_columns_is_encode_frame(
        tuples in vec(any_tuple(), 0..40),
        cut in any::<usize>(),
    ) {
        let frame = Frame::from_tuples(&tuples);
        let from = cut % (tuples.len() + 1);
        let (mut by_tuples, mut by_columns) = (Vec::new(), Vec::new());
        encode_frame(&tuples[from..], &mut by_tuples).unwrap();
        encode_columns(&frame, from, &mut by_columns).unwrap();
        prop_assert_eq!(&by_columns, &by_tuples);
    }

    #[test]
    fn decoding_into_one_reused_frame_gives_back_each_input(
        inputs in vec(vec(any_tuple(), 0..DEFAULT_BATCH_SIZE), 1..8),
    ) {
        let (mut bytes, mut decoded) = (Vec::new(), Frame::default());
        for tuples in &inputs {
            encode_frame(tuples, &mut bytes).unwrap();
            prop_assert_eq!(decode_frame(&bytes, &mut decoded).unwrap(), bytes.len());
            prop_assert_eq!(fingerprint(&decoded.tuples()), fingerprint(tuples));
            // Every column's length shows in the frame's size, so one
            // the decode did not clear cannot hide behind the rows.
            prop_assert_eq!(decoded.wire_bytes(), Frame::from_tuples(tuples).wire_bytes());
        }
    }
}
