//! The CSV row kernel against the loop it replaced.
//!
//! `oracle` below is the `trim → split(',') → trim → parse::<f64>()` loop
//! every ingest path used to carry. The property: on any line of text the
//! kernel skips the same lines and yields the same values bit for bit
//! (`to_bits`) and the same mask. Generated fields lean on the boundaries
//! of the exact path (2^53, 19 digits, 22 fractional digits) and on every
//! spelling the standard library accepts or refuses.
//!
//! 4096 cases run in tier-1; `SPCA_CSV_CASES=200000` is the long run.

use proptest::collection::vec;
use proptest::prelude::*;
use spca_streams::csv::{is_skip, parse_field, parse_row, Row};

fn oracle(line: &str) -> Option<(Vec<f64>, Vec<bool>)> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return None;
    }
    let mut values = Vec::new();
    let mut mask = Vec::new();
    for field in trimmed.split(',') {
        match field.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => {
                values.push(v);
                mask.push(true);
            }
            _ => {
                values.push(0.0);
                mask.push(false);
            }
        }
    }
    Some((values, mask))
}

/// Checks one line; the vectors come in dirty to show the kernel clears them.
fn check(line: &str, values: &mut Vec<f64>, mask: &mut Vec<bool>) -> Result<(), String> {
    let row = parse_row(line.as_bytes(), values, mask);
    if is_skip(line.as_bytes()) != (row == Row::Skip) {
        return Err(format!("{line:?}: is_skip disagrees with {row:?}"));
    }
    let Some((want_values, want_mask)) = oracle(line) else {
        return if row == Row::Skip {
            Ok(())
        } else {
            Err(format!("{line:?}: oracle skips, kernel gives {row:?}"))
        };
    };
    let got_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u64> = want_values.iter().map(|v| v.to_bits()).collect();
    if got_bits != want_bits {
        return Err(format!(
            "{line:?}: values {values:?}, oracle {want_values:?}"
        ));
    }
    let dense = want_mask.iter().all(|&m| m);
    let mask_ok = match row {
        Row::Skip => false,
        Row::Dense => dense && mask.is_empty(),
        Row::Masked => !dense && *mask == want_mask,
    };
    if !mask_ok {
        return Err(format!(
            "{line:?}: {row:?} mask {mask:?}, oracle {want_mask:?}"
        ));
    }
    Ok(())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn digits(s: &mut u64, n: usize) -> String {
    (0..n)
        .map(|_| char::from(b'0' + (splitmix(s) % 10) as u8))
        .collect()
}

/// Inserts a decimal point at a random place (or nowhere) and a sign.
fn punctuate(s: &mut u64, mut mantissa: String) -> String {
    let at = splitmix(s) as usize % (mantissa.len() + 2);
    if at <= mantissa.len() {
        mantissa.insert(at, '.');
    }
    let sign = ["", "", "-", "+"][splitmix(s) as usize % 4];
    format!("{sign}{mantissa}")
}

#[rustfmt::skip]
const LITERALS: &[&str] = &[
    "", ".", "-", "+", "-.", "+.", "..", "-0", "+0", "-0.0", "0", "00", "007", "+.5", "-.5", "5.",
    "-5.", "1e5", "1E-3", "1e400", "-1e400", "1e-400", "1e", "e5", "1.5e+3", "-.e1", "1.e2",
    ".1e2", "1e+", "nan", "NaN", "-nan", "inf", "-inf", "Inf", "-Infinity", "infinity",
    "+infinity", "1_000", "0x10", "1,", "１２", "1１", "٣", "1.2.3", "--1", "+-1", "1-", "1+",
    "1 2", "- 1", "1 .5", "1. 5", "abc", "#", "1#", "'1'", "\"1\"", "1;2", "\u{feff}1",
    "9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
    "-9007199254740993", "900719925474099.3", "0.9007199254740993", "9999999999999999999",
    "18446744073709551615", "18446744073709551616", "0.30000000000000004",
    "1.7976931348623157e308", "4.9e-324", "2.2250738585072014e-308",
    "0.0000000000000000000001", "0.00000000000000000000001",
    "123456789012345678901234567890", "1.0000000000000000000000000000000001",
];

const PADS: &[&str] = &[
    "", "", "", "", " ", "  ", "\t", "\r", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{85}", " \t ",
];

fn field(word: u64) -> String {
    let mut s = word;
    let body = match splitmix(&mut s) % 16 {
        // What a spectrum file mostly holds: at most eight characters.
        0..=5 => {
            let int = splitmix(&mut s) as usize % 3;
            let frac = 1 + splitmix(&mut s) as usize % (7 - int);
            let sign = ["-", "", ""][splitmix(&mut s) as usize % 3];
            format!("{sign}{}.{}", digits(&mut s, int), digits(&mut s, frac))
        }
        6 => format!(
            "{}{}",
            "0".repeat(splitmix(&mut s) as usize % 20),
            digits(&mut s, 3)
        ),
        7 | 8 => LITERALS[splitmix(&mut s) as usize % LITERALS.len()].to_string(),
        // Mantissas around the exact path's digit and magnitude limits.
        9 | 10 => {
            let n = [1, 8, 14, 15, 16, 17, 18, 19, 20, 25][splitmix(&mut s) as usize % 10];
            let d = digits(&mut s, n);
            punctuate(&mut s, d)
        }
        11 => {
            let m = (1u64 << 53)
                .wrapping_add(splitmix(&mut s) % 5)
                .wrapping_sub(2);
            punctuate(&mut s, m.to_string())
        }
        // Up to 30 fractional digits behind a short integer part.
        12 => {
            let frac = 15 + splitmix(&mut s) as usize % 16;
            format!("{}.{}", digits(&mut s, 1), digits(&mut s, frac))
        }
        // Any double at all, the way `{}` and `{:e}` write it.
        13 => format!("{}", f64::from_bits(splitmix(&mut s))),
        14 => format!("{:e}", f64::from_bits(splitmix(&mut s))),
        _ => format!("{}", (splitmix(&mut s) % 2_000_001) as f64 / 1e6 - 1.0),
    };
    let lead = PADS[splitmix(&mut s) as usize % PADS.len()];
    let trail = PADS[splitmix(&mut s) as usize % PADS.len()];
    format!("{lead}{body}{trail}")
}

fn line(words: &[u64], shape: u64) -> String {
    let mut s = shape;
    match splitmix(&mut s) % 24 {
        0 => {
            return ["", " ", "\t \r\n", "\u{a0}", "\u{a0} \u{2003}\n", "\r\n"][shape as usize % 6]
                .into()
        }
        1 => {
            let lead = ["", "  ", "\t", "\u{a0}", " \u{2003} "][shape as usize % 5];
            return format!("{lead}# comment, 1.5\n");
        }
        _ => {}
    }
    let mut out = words
        .iter()
        .map(|&w| field(w))
        .collect::<Vec<_>>()
        .join(",");
    if splitmix(&mut s).is_multiple_of(8) {
        out.push(',');
    }
    out.push_str(["\n", "\n", "\r\n", "", " \n", "\u{a0}\n"][splitmix(&mut s) as usize % 6]);
    out
}

fn cases() -> u32 {
    std::env::var("SPCA_CSV_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn kernel_matches_the_std_loop_bit_for_bit(
        words in vec(any::<u64>(), 0..12),
        shape in any::<u64>(),
    ) {
        let text = line(&words, shape);
        let mut values = vec![f64::NAN; 3];
        let mut mask = vec![false; 5];
        if let Err(msg) = check(&text, &mut values, &mut mask) {
            return Err(TestCaseError::fail(msg));
        }
        // The field entry point (what the query server calls) agrees too.
        for &w in &words {
            let f = field(w);
            if f.contains(',') {
                continue;
            }
            let want = oracle(&format!("0,{f}")).map(|(v, m)| m[1].then_some(v[1].to_bits()));
            prop_assert_eq!(parse_field(f.as_bytes()).map(f64::to_bits), want.flatten(), "{:?}", f);
        }
    }
}

/// Every literal once, whatever the generator's draw.
#[test]
fn every_listed_spelling_matches() {
    let (mut values, mut mask) = (Vec::new(), Vec::new());
    for lit in LITERALS {
        for pad in PADS {
            for text in [
                format!("{pad}{lit}{pad}"),
                format!("1.5,{pad}{lit}{pad},-2\r\n"),
                format!("{lit},"),
            ] {
                check(&text, &mut values, &mut mask).unwrap();
            }
        }
    }
}

/// The exact path's whole domain boundary: every mantissa width against
/// every count of fractional digits, at and one past 2^53.
#[test]
fn exact_path_boundaries_match() {
    let (mut values, mut mask) = (Vec::new(), Vec::new());
    let mut s = 7u64;
    for width in 1..=21 {
        for frac in 0..=24usize {
            for _ in 0..8 {
                let mut text = digits(&mut s, width.max(frac));
                let at = text.len() - frac;
                text.insert(at, '.');
                check(&text, &mut values, &mut mask).unwrap();
                check(&format!("-{text}"), &mut values, &mut mask).unwrap();
            }
        }
    }
    for m in (1u64 << 53) - 3..(1u64 << 53) + 4 {
        for frac in 0..=16usize {
            let mut text = m.to_string();
            let at = text.len() - frac;
            text.insert(at, '.');
            check(&text, &mut values, &mut mask).unwrap();
        }
    }
}

/// Bytes that are not UTF-8 cost the field they sit in, nothing else.
/// (The old loop never saw such a line: `read_line` failed the stream.)
#[test]
fn undecodable_bytes_cost_one_field() {
    let (mut values, mut mask) = (Vec::new(), Vec::new());
    assert_eq!(
        parse_row(b"1.5,\xff2,3\n", &mut values, &mut mask),
        Row::Masked
    );
    assert_eq!(values, [1.5, 0.0, 3.0]);
    assert_eq!(mask, [true, false, true]);
    assert_eq!(
        parse_row(b"1.5,n\xc3,3\n", &mut values, &mut mask),
        Row::Masked
    );
    assert_eq!(mask, [true, false, true]);
    // A line of nothing else is still a data row, and a `#` behind an
    // undecodable byte does not start a comment.
    assert_eq!(parse_row(b"\xff\n", &mut values, &mut mask), Row::Masked);
    assert_eq!(mask, [false]);
    assert_eq!(
        parse_row(b"\xff# 1,2\n", &mut values, &mut mask),
        Row::Masked
    );
    assert_eq!(values, [0.0, 2.0]);
    assert_eq!(parse_field(b"\xff1"), None);
}

/// The mask costs nothing until a gap shows up, then one allocation sized
/// by the caller's hint.
#[test]
fn mask_is_lazy_and_sized_from_the_values_hint() {
    let mut values = Vec::with_capacity(64);
    let mut mask = Vec::new();
    assert_eq!(parse_row(b"1,2,3", &mut values, &mut mask), Row::Dense);
    assert_eq!(mask.capacity(), 0);
    assert_eq!(parse_row(b"1,,3", &mut values, &mut mask), Row::Masked);
    assert_eq!(mask, [true, false, true]);
    assert!(mask.capacity() >= 64);
}
