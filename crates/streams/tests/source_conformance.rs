//! One byte corpus through every medium the line source reads — a file, a
//! TCP listener, and an HTTP body under each of its three framings — must
//! give the same tuples: what differs between media is how the byte stream
//! is opened, never how a row is read. Plus the restore contract per kind:
//! a file rewinds (`ops::source`'s own resume test), a live feed keeps its
//! connection and takes up the numbering.

mod feeds;

use feeds::{http_response, http_source, tcp_source, Framing};
use spca_streams::operator::testing::with_ctx;
use spca_streams::ops::CsvFileSource;
use spca_streams::{Operator, SourceState};

/// Dense rows, the three spellings of a gap, comments, blank lines, both
/// line endings, a byte that is not UTF-8, a field padded with U+00A0, and
/// a last line with no newline.
const CORPUS: &[u8] = b"# flux\n\
    1.5,2.25,-3\n\
    \n\
    4,nan,6\r\n\
    7,,9\n\
    10,11,\n\
    \x20\x20\r\n\
    12,\xff13,14\n\
    15,\xc2\xa016.5,17\r\n\
    # mid-stream comment\r\n\
    18,19.125,20";

/// `(seq, value bits, mask)` of everything `src` emits until it is done.
fn drain(src: &mut dyn Operator) -> Vec<(u64, Vec<u64>, Option<Vec<bool>>)> {
    let sink = with_ctx(1, |ctx| while src.drive(ctx) != SourceState::Done {});
    sink.data_at(0)
        .iter()
        .map(|t| {
            (
                t.seq,
                t.values.iter().map(|v| v.to_bits()).collect(),
                t.mask.as_ref().map(|m| m.to_vec()),
            )
        })
        .collect()
}

fn offset_of(needle: &[u8]) -> usize {
    CORPUS
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("needle in corpus")
}

#[test]
fn every_medium_reads_the_same_tuples() {
    let path = std::env::temp_dir().join(format!("spca_conformance_{}.csv", std::process::id()));
    std::fs::write(&path, CORPUS).unwrap();
    let expected = drain(&mut CsvFileSource::new(&path));
    std::fs::remove_file(&path).ok();

    // The file reading is itself pinned, so agreement is not agreement on
    // nothing: 7 rows numbered 0..7, the gaps where the corpus put them.
    assert_eq!(expected.len(), 7);
    assert!(expected.iter().map(|r| r.0).eq(0..7));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(expected[0], (0, bits(&[1.5, 2.25, -3.0]), None));
    assert_eq!(expected[1].2, Some(vec![true, false, true])); // nan
    assert_eq!(expected[2].2, Some(vec![true, false, true])); // empty field
    assert_eq!(expected[3].2, Some(vec![true, true, false])); // trailing comma
    assert_eq!(expected[4].2, Some(vec![true, false, true])); // \xff
    assert_eq!(expected[5], (5, bits(&[15.0, 16.5, 17.0]), None)); // U+00A0 pad
    assert_eq!(expected[6], (6, bits(&[18.0, 19.125, 20.0]), None)); // no newline

    // Chunk boundaries mid-line, mid-number, between a CR and its LF, and
    // splitting the two bytes of the U+00A0.
    let cuts = vec![
        offset_of(b"2.25") + 2,
        offset_of(b"6\r\n") + 2,
        offset_of(b",,9") + 1,
        offset_of(b"\xc2\xa0") + 1,
        offset_of(b"9.125") + 3,
    ];
    let media: Vec<(&str, Box<dyn Operator>)> = vec![
        ("tcp", Box::new(tcp_source(CORPUS.to_vec()))),
        (
            "http content-length",
            Box::new(http_source(http_response(CORPUS, &Framing::Length))),
        ),
        (
            "http chunked",
            Box::new(http_source(http_response(CORPUS, &Framing::Chunked(cuts)))),
        ),
        (
            "http one-byte chunks",
            Box::new(http_source(http_response(
                CORPUS,
                &Framing::Chunked((1..CORPUS.len()).collect()),
            ))),
        ),
        (
            "http until-close",
            Box::new(http_source(http_response(CORPUS, &Framing::UntilClose))),
        ),
    ];
    let differing: Vec<&str> = media
        .into_iter()
        .filter_map(|(name, mut src)| (drain(src.as_mut()) != expected).then_some(name))
        .collect();
    assert!(differing.is_empty(), "differ from the file: {differing:?}");
}

#[test]
fn a_live_feed_restore_keeps_the_connection_and_takes_up_the_numbering() {
    let rows = b"1\n2\n3\n4\n5\n".to_vec();
    let feeds: Vec<(&str, Box<dyn Operator>)> = vec![
        ("tcp", Box::new(tcp_source(rows.clone()))),
        (
            "http",
            Box::new(http_source(http_response(&rows, &Framing::Length))),
        ),
    ];
    for (name, mut src) in feeds {
        let emit = |src: &mut dyn Operator, n: usize| {
            with_ctx(1, |ctx| {
                let mut got = 0;
                while got < n {
                    match src.drive(ctx) {
                        SourceState::Emitted => got += 1,
                        SourceState::Idle => {}
                        SourceState::Done => panic!("{name}: feed ended early"),
                    }
                }
            })
            .data_at(0)
        };
        emit(src.as_mut(), 2);
        let snapshot = src.checkpoint().expect("checkpoint facet").snapshot();
        let third = emit(src.as_mut(), 1);
        assert_eq!((third[0].seq, third[0].values[0]), (2, 3.0), "{name}");

        // Back to the cursor taken after two rows: the wire does not rewind
        // (row 4 comes next, not row 3 again), the numbering does.
        src.checkpoint()
            .expect("checkpoint facet")
            .restore(&snapshot)
            .unwrap();
        let rest = emit(src.as_mut(), 2);
        assert_eq!((rest[0].seq, rest[0].values[0]), (2, 4.0), "{name}");
        assert_eq!((rest[1].seq, rest[1].values[0]), (3, 5.0), "{name}");
        with_ctx(1, |ctx| while src.drive(ctx) != SourceState::Done {});
    }
}
