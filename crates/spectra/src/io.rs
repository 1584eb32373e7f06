//! CSV tuple I/O.
//!
//! The paper's InfoSphere application reads "local regular text or binary
//! file with CSV formatted tuples" and periodically saves intermediate
//! results to disk. These helpers implement the same formats: one
//! observation per line, comma-separated `f64` values, with an optional
//! leading mask column block for gappy data (`NaN` marks a missing bin on
//! read).

use crate::csv::{self, Row};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes observations as CSV, one vector per line.
pub fn write_csv<P: AsRef<Path>>(path: P, data: &[Vec<f64>]) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    for row in data {
        write_row(&mut w, row)?;
    }
    w.flush()
}

fn write_row<W: Write>(w: &mut W, row: &[f64]) -> std::io::Result<()> {
    let mut first = true;
    for v in row {
        if !first {
            write!(w, ",")?;
        }
        first = false;
        if v.is_nan() {
            write!(w, "nan")?;
        } else {
            write!(w, "{v}")?;
        }
    }
    writeln!(w)
}

/// Writes gappy observations: missing bins are encoded as `nan`.
pub fn write_csv_masked<P: AsRef<Path>>(
    path: P,
    data: &[(Vec<f64>, Vec<bool>)],
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    let mut row = Vec::new();
    for (flux, mask) in data {
        row.clear();
        row.extend(
            flux.iter()
                .zip(mask)
                .map(|(&v, &m)| if m { v } else { f64::NAN }),
        );
        write_row(&mut w, &row)?;
    }
    w.flush()
}

/// Reads CSV observations; `nan` / empty fields become missing bins.
/// Returns `(values, mask)` per row with missing bins set to 0.0.
pub fn read_csv<P: AsRef<Path>>(path: P) -> std::io::Result<Vec<(Vec<f64>, Vec<bool>)>> {
    Ok(parse_csv_bytes(&std::fs::read(path)?))
}

fn parse_csv_bytes(bytes: &[u8]) -> Vec<(Vec<f64>, Vec<bool>)> {
    bytes
        .split(|&b| b == b'\n')
        .filter_map(parse_line)
        .collect()
}

/// Parses one CSV line; `None` for blank and `#`-comment lines.
pub fn parse_csv_line(line: &str) -> Option<(Vec<f64>, Vec<bool>)> {
    parse_line(line.as_bytes())
}

fn parse_line(line: &[u8]) -> Option<(Vec<f64>, Vec<bool>)> {
    // One field per comma, plus one: size both vectors once.
    let fields = 1 + line.iter().filter(|&&b| b == b',').count();
    let mut values = Vec::with_capacity(fields);
    let mut mask = Vec::with_capacity(fields);
    match csv::parse_row(line, &mut values, &mut mask) {
        Row::Skip => return None,
        Row::Dense => mask.resize(values.len(), true),
        Row::Masked => {}
    }
    Some((values, mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spca_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn csv_round_trip() {
        let path = tmp("round");
        let data = vec![vec![1.0, 2.5, -3.0], vec![0.0, 1e-8, 4.0]];
        write_csv(&path, &data).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.len(), 2);
        for (row, (vals, mask)) in data.iter().zip(&back) {
            assert_eq!(row, vals);
            assert!(mask.iter().all(|&m| m));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn masked_round_trip() {
        let path = tmp("masked");
        let data = vec![(vec![1.0, 2.0, 3.0], vec![true, false, true])];
        write_csv_masked(&path, &data).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back[0].1, vec![true, false, true]);
        assert_eq!(back[0].0[0], 1.0);
        assert_eq!(back[0].0[1], 0.0); // missing → 0.0 placeholder
        assert_eq!(back[0].0[2], 3.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let path = tmp("comments");
        std::fs::write(&path, "# header\n\n1.0,2.0\n# trailing\n3.0,4.0\n").unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].0, vec![3.0, 4.0]);
        std::fs::remove_file(path).ok();
    }
}
