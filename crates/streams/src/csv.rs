//! The CSV row kernel: one pass over the bytes of a line, behind every
//! text ingest path (DESIGN.md, "Text ingest").
//!
//! A field is scanned once — sign, digits, optional `.`, digits — with the
//! mantissa accumulated in a `u64`. When the mantissa is at most 2^53 and
//! there are at most 22 fractional digits, mantissa and power of ten are
//! both exact doubles, so their IEEE quotient is the correctly rounded
//! value of the decimal (Clinger's exact case) and bit-identical to
//! `str::parse::<f64>`. A field without an ASCII digit can hold no finite
//! number and is missing without further work. Everything else goes to
//! `str::parse::<f64>` for that field alone, so the accepted grammar and
//! every output bit are the standard library's.
//!
//! `std` only, and nothing named from this crate: `spca-spectra` compiles
//! this file too, through a `#[path]` include.

/// What [`parse_row`] found on a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// Blank or `#`-comment line: no observation.
    Skip,
    /// Every field is a finite number; `mask` was left empty.
    Dense,
    /// At least one field is missing; `mask` has one entry per field.
    Masked,
}

/// Largest mantissa the exact path takes: integers up to 2^53 are doubles.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// Powers of ten that are exact doubles (10^22 = 2^22 · 5^22, 5^22 < 2^53).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The ASCII part of `char::is_whitespace`, which is what `str::trim`
/// strips (`u8::is_ascii_whitespace` leaves out vertical tab).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// True for lines that carry no observation: empty after trimming, or
/// starting with `#`.
pub fn is_skip(line: &[u8]) -> bool {
    match line.iter().position(|&b| !is_space(b)) {
        None => true,
        Some(i) if line[i] < 0x80 => line[i] == b'#',
        // Unicode whitespace may precede a `#`; undecodable bytes are data.
        Some(i) => {
            let text = String::from_utf8_lossy(&line[i..]);
            let text = text.trim_start();
            text.is_empty() || text.starts_with('#')
        }
    }
}

/// The standard library's reading of one field: the fallback for what the
/// exact path does not take.
fn parse_std(field: &[u8]) -> Option<f64> {
    let v: f64 = std::str::from_utf8(field).ok()?.trim().parse().ok()?;
    v.is_finite().then_some(v)
}

/// Scans digits from `line[i..]` into `m`, returning the index past them.
/// `m` wraps on overflow; callers discard it beyond 19 digits.
fn scan_digits(line: &[u8], mut i: usize, m: &mut u64) -> usize {
    while i < line.len() {
        let d = line[i].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        *m = m.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    i
}

/// Parses the field starting at `line[start]` and running to the next `,`
/// or the end of the line. Returns its finite value (`None` = missing) and
/// the index of that delimiter.
fn scan_field(line: &[u8], start: usize) -> (Option<f64>, usize) {
    let mut i = start;
    while line.get(i).is_some_and(|&b| is_space(b)) {
        i += 1;
    }
    // No branch on the sign: from field to field it is as good as random,
    // and a mispredicted jump here cost a fifth of the whole row.
    let sign = line.get(i).copied().unwrap_or(0);
    let negative = sign == b'-';
    i += usize::from(negative | (sign == b'+'));
    let mut m = 0u64;
    let int_start = i;
    i = scan_digits(line, i, &mut m);
    let mut digits = i - int_start;
    let mut frac = 0;
    if line.get(i) == Some(&b'.') {
        let frac_start = i + 1;
        i = scan_digits(line, frac_start, &mut m);
        frac = i - frac_start;
        digits += frac;
    }
    while line.get(i).is_some_and(|&b| is_space(b)) {
        i += 1;
    }
    if i < line.len() && line[i] != b',' {
        // Not sign-digits-point-digits: find the delimiter, and leave the
        // field to the standard library if it has a digit at all.
        let mut has_digit = digits > 0;
        while i < line.len() && line[i] != b',' {
            has_digit |= line[i].is_ascii_digit();
            i += 1;
        }
        let value = if has_digit {
            parse_std(&line[start..i])
        } else {
            None
        };
        return (value, i);
    }
    let value = if digits == 0 {
        None
    } else if digits <= 19 && m <= MAX_EXACT_MANTISSA && frac < POW10.len() {
        let v = m as f64 / POW10[frac];
        Some(f64::from_bits(v.to_bits() | u64::from(negative) << 63))
    } else {
        parse_std(&line[start..i])
    };
    (value, i)
}

/// The finite value of one field (surrounding whitespace ignored), or
/// `None` where a row would record a missing bin.
pub fn parse_field(field: &[u8]) -> Option<f64> {
    match scan_field(field, 0) {
        (value, end) if end == field.len() => value,
        _ => None, // a `,` inside: not one field
    }
}

/// Parses one line of comma-separated values into `values` (cleared
/// first), one entry per field, with 0.0 standing in for a missing bin.
///
/// A field is missing when it is empty, `nan`, infinite, or not a number.
/// `mask` is cleared too and filled only once a missing field is met, so a
/// caller that hands in `Vec::new()` pays for a mask on gap rows alone; its
/// allocation then takes `values`' capacity, the caller's row-width hint.
pub fn parse_row(line: &[u8], values: &mut Vec<f64>, mask: &mut Vec<bool>) -> Row {
    values.clear();
    mask.clear();
    if is_skip(line) {
        return Row::Skip;
    }
    let mut masked = false;
    let mut start = 0;
    loop {
        let (value, end) = scan_field(line, start);
        if value.is_none() && !masked {
            masked = true;
            mask.reserve(values.capacity().max(values.len() + 1));
            mask.resize(values.len(), true);
        }
        values.push(value.unwrap_or(0.0));
        if masked {
            mask.push(value.is_some());
        }
        if end == line.len() {
            break;
        }
        start = end + 1;
    }
    if masked {
        Row::Masked
    } else {
        Row::Dense
    }
}
