//! Minimal JSON support for the recorded benchmark artifacts.
//!
//! The workspace deliberately carries no serialization dependency, so the
//! `BENCH_*.json` files are written and re-validated with this small
//! hand-rolled value type: enough JSON to round-trip the benchmark
//! reports, strict enough to reject malformed artifacts in CI.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, 0);
        f.write_str(&s)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => {
                if self.literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b't') => {
                if self.literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'f') => {
                if self.literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Take the longest escape-free UTF-8 run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// --- recorded artifacts: one schema table, one validator, one writer ---

/// What a field of a recorded artifact must hold.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A string.
    Text,
    /// A non-negative integer an `f64` holds exactly (≤ 2^53).
    Count,
    /// A `Count` of something a recording cannot have none of: at least 1.
    Natural,
    /// A finite number above zero.
    Positive,
    /// A finite number, zero or above.
    NonNegative,
    /// A non-empty array of objects, each with these fields and rules.
    Rows(&'static [Field], &'static [Rule]),
}

/// A field and what it holds, listed in the order the artifact writes them.
pub type Field = (&'static str, Kind);

/// Why a bound cannot be measured on the host that recorded the artifact:
/// always something the artifact itself says, never an option.
#[derive(Debug, Clone, Copy)]
pub enum Waiver {
    /// `cores` is below this: the figure would measure the scheduler.
    BelowCores(u32),
    /// The named text field holds this value.
    WhenText(&'static str, &'static str),
}

/// The closed vocabulary of checks on a recorded artifact. A key names a
/// field of the row being checked (in a `Rows` rule) or of the artifact;
/// `rows[col=value].key` names a field of the one row of `rows` whose `col`
/// holds `value`, so a row that a gate addresses is a required row.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// The count is zero.
    Zero(&'static str),
    /// `(key, num, den)`: `key` is `num / den` to within 2 %.
    Ratio(&'static str, &'static str, &'static str),
    /// `key ≥ bound`, unless waived.
    AtLeast(&'static str, f64, Option<Waiver>),
    /// `key ≤ bound`, unless waived.
    AtMost(&'static str, f64, Option<Waiver>),
    /// The first field is no larger than the second.
    Le(&'static str, &'static str),
}

/// A gate and the one-line reason its error message ends with.
pub type Rule = (Gate, &'static str);

/// One recorded artifact: how it names itself, its layout, its gates.
pub struct Schema {
    /// Value of the `"schema"` field.
    pub name: &'static str,
    /// Fields after the discriminator, in artifact order.
    pub fields: &'static [Field],
    /// Everything CI holds a recording to; a floor is written here only.
    pub gates: &'static [Rule],
}

use Gate::{AtLeast, AtMost, Le, Ratio, Zero};
use Kind::{Count, Natural, NonNegative, Positive, Rows, Text};
use Waiver::{BelowCores, WhenText};

const SMALL_HOST: Option<Waiver> = Some(BelowCores(4));
const NO_SIMD: Option<Waiver> = Some(WhenText("backend", "scalar"));
const FAULT_FREE: &str = "benchmark artifacts must be recorded fault-free";
const DERIVED: &str = "a recorded ratio must agree with the two figures it is the ratio of";
const SIMD: &str = "a SIMD backend must beat scalar 1.5x on dot and gemm at d = 1000";
const EACH_WAY: &str = "the recorded run must rescale at least once in each direction";
const CONSERVE: &str = "rescales must conserve every tuple";
const DRIFT: &str = "the elastic run diverged from its fixed-fleet reference";
const FLEET: &str = "the final fleet must be within 1..=max_engines";
const RESCALE: &str = "one rescale must complete inside a second";

/// Every artifact `check_bench_json` accepts and a `fig_*` recorder writes.
pub static SCHEMAS: &[Schema] = &[KERNELS, ELASTIC];

const KERNELS: Schema = Schema {
    name: "kernels-v1",
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("backend", Text),
        ("reps", Natural),
        ("target", Text),
        (
            "results",
            Rows(
                &[
                    ("kernel", Text),
                    ("d", Natural),
                    ("scalar_ns", Positive),
                    ("dispatched_ns", Positive),
                    ("speedup", Positive),
                ],
                &[(Ratio("speedup", "scalar_ns", "dispatched_ns"), DERIVED)],
            ),
        ),
    ],
    gates: &[
        (
            AtLeast("results[kernel=dot][d=1000].speedup", 1.5, NO_SIMD),
            SIMD,
        ),
        (
            AtLeast("results[kernel=gemm][d=1000].speedup", 1.5, NO_SIMD),
            SIMD,
        ),
    ],
};

const ELASTIC: Schema = Schema {
    name: "elastic-v1",
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("cores", Natural),
        ("dim", Natural),
        ("tuples", Natural),
        ("target", Text),
        ("restarts", Count),
        ("pe_restarts", Count),
        ("scale_outs", Count),
        ("scale_ins", Count),
        ("tuple_loss", Count),
        ("scale_out_latency_ms", Positive),
        ("scale_in_latency_ms", Positive),
        ("consistency", NonNegative),
        ("max_engines", Count),
        ("final_engines", Count),
    ],
    gates: &[
        (Zero("restarts"), FAULT_FREE),
        (Zero("pe_restarts"), FAULT_FREE),
        (AtLeast("scale_outs", 1.0, None), EACH_WAY),
        (AtLeast("scale_ins", 1.0, None), EACH_WAY),
        (Zero("tuple_loss"), CONSERVE),
        (AtMost("consistency", 0.25, None), DRIFT),
        (AtLeast("final_engines", 1.0, None), FLEET),
        (Le("final_engines", "max_engines"), FLEET),
        (AtMost("scale_out_latency_ms", 1000.0, SMALL_HOST), RESCALE),
        (AtMost("scale_in_latency_ms", 1000.0, SMALL_HOST), RESCALE),
    ],
};

/// What [`validate`] found: the gates that held, and each gate it waived
/// with what the artifact says made it unmeasurable.
#[derive(Debug)]
pub struct Verdict {
    /// The schema's discriminator.
    pub schema: &'static str,
    /// Gates evaluated and passed; a row rule counts once per row.
    pub held: usize,
    /// One line per waived gate.
    pub waived: Vec<String>,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; {} gates held", self.schema, self.held)?;
        self.waived
            .iter()
            .try_for_each(|w| write!(f, "; WAIVED: {w}"))
    }
}

/// The CI gate: picks the schema by the artifact's discriminator, checks
/// every declared field is present and of its kind, then runs the gates.
pub fn validate(doc: &Json) -> Result<Verdict, String> {
    let name = doc.get("schema").ok_or("missing field 'schema'")?;
    let name = name.as_str().ok_or("field 'schema' is not a string")?;
    let schema = SCHEMAS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown schema {name:?}"))?;
    let mut verdict = Verdict {
        schema: schema.name,
        held: 0,
        waived: Vec::new(),
    };
    check(doc, doc, schema.fields, schema.gates, "", &mut verdict)?;
    Ok(verdict)
}

/// `obj` — the artifact, or one of its rows — holds every field at its
/// kind and passes every rule.
fn check(
    doc: &Json,
    obj: &Json,
    fields: &[Field],
    rules: &[Rule],
    at: &str,
    verdict: &mut Verdict,
) -> Result<(), String> {
    for &(key, kind) in fields {
        let v = obj
            .get(key)
            .ok_or_else(|| format!("{at}missing field '{key}'"))?;
        let num = v.as_f64().filter(|n| n.is_finite());
        let int = num.filter(|n| n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0);
        let (ok, want) = match kind {
            Text => (v.as_str().is_some(), "a string"),
            Count => (
                int.is_some_and(|n| n >= 0.0),
                "a count (a non-negative integer)",
            ),
            Natural => (int.is_some_and(|n| n >= 1.0), "a count of at least 1"),
            Positive => (num.is_some_and(|n| n > 0.0), "a positive finite number"),
            NonNegative => (
                num.is_some_and(|n| n >= 0.0),
                "a non-negative finite number",
            ),
            Rows(inner, row_rules) => {
                let rows = v.as_arr().unwrap_or_default();
                for (i, row) in rows.iter().enumerate() {
                    check(
                        doc,
                        row,
                        inner,
                        row_rules,
                        &format!("{key}[{i}]: "),
                        verdict,
                    )?;
                }
                (!rows.is_empty(), "a non-empty array of rows")
            }
        };
        if !ok {
            return Err(format!("{at}field '{key}' is {v}, not {want}"));
        }
    }
    for (gate, why) in rules {
        match evaluate(doc, obj, gate) {
            Ok(None) => verdict.held += 1,
            Ok(Some(waived)) => verdict.waived.push(format!("{at}{waived}")),
            Err(what) => return Err(format!("{at}{what} — {why}")),
        }
    }
    Ok(())
}

/// The number `path` names: a field of `obj`, else of the artifact, or
/// `rows[col=value].field` in the one row of `rows` that matches.
fn number(doc: &Json, obj: &Json, path: &str) -> Result<f64, String> {
    let (holder, key) = match path.rsplit_once("].") {
        None => (obj, path),
        Some((sel, key)) => {
            let mut conds = sel.split('[').map(|c| c.trim_end_matches(']'));
            let rows = doc.get(conds.next().unwrap_or_default());
            let conds: Vec<_> = conds.filter_map(|c| c.split_once('=')).collect();
            let mut rows = rows.and_then(Json::as_arr).unwrap_or_default().iter();
            let found = rows.find(|r| {
                conds.iter().all(|&(col, want)| match r.get(col) {
                    Some(Json::Str(s)) => s == want,
                    Some(Json::Num(n)) => n.to_string() == want,
                    _ => false,
                })
            });
            (
                found.ok_or_else(|| format!("missing required row {sel}]"))?,
                key,
            )
        }
    };
    let v = holder.get(key).or_else(|| doc.get(key));
    v.and_then(Json::as_f64)
        .ok_or_else(|| format!("'{key}' is not a number the schema declares"))
}

/// `Ok(None)` when the gate holds, `Ok(Some(line))` when the artifact
/// waives it, `Err` with what the artifact shows when it is broken.
fn evaluate(doc: &Json, obj: &Json, gate: &Gate) -> Result<Option<String>, String> {
    let num = |path| number(doc, obj, path);
    let broken = match *gate {
        Zero(key) => {
            let n = num(key)?;
            (n != 0.0).then(|| format!("'{key}' is {n}, not 0"))
        }
        Ratio(key, a, b) => {
            let (got, expect) = (num(key)?, num(a)? / num(b)?);
            ((got - expect).abs() > 0.02 * expect).then(|| {
                format!("'{key}' {got} inconsistent with {a} / {b} (expected {expect:.3})")
            })
        }
        Le(a, b) => {
            let (x, y) = (num(a)?, num(b)?);
            (x > y).then(|| format!("'{a}' {x} exceeds '{b}' {y}"))
        }
        AtLeast(key, bound, waiver) | AtMost(key, bound, waiver) => {
            let v = num(key)?;
            let (holds, op) = match gate {
                AtLeast(..) => (v >= bound, ">="),
                _ => (v <= bound, "<="),
            };
            let unmet = match waiver {
                Some(BelowCores(n)) if num("cores")? < f64::from(n) => {
                    Some(format!("needs cores >= {n}, recorded on {}", num("cores")?))
                }
                Some(WhenText(k, text)) if doc.get(k).and_then(Json::as_str) == Some(text) => {
                    Some(format!("needs {k} other than '{text}'"))
                }
                _ => None,
            };
            if let Some(unmet) = unmet {
                let would = if holds { "pass" } else { "fail" };
                return Ok(Some(format!(
                    "{key} {op} {bound} {unmet}; the recorded {v:.3} would {would}"
                )));
            }
            (!holds).then(|| format!("'{key}' is {v}, not {op} {bound}"))
        }
    };
    broken.map_or(Ok(None), Err)
}

/// How every `fig_*` recorder writes its artifact: gate it, then write it.
/// A recording that fails a gate leaves the previous file in place.
pub fn record(path: &str, report: &Json) -> Result<Verdict, String> {
    let verdict = validate(report).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, format!("{report}\n")).map_err(|e| format!("{path}: {e}"))?;
    Ok(verdict)
}

/// An object holding these fields in this order: how a recorder spells
/// its report and its rows.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::Obj(fields.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// Every `BENCH_*.json` at the repo root, as `(schema, file text)`;
    /// one that names no schema fails here, by name. Read once per test
    /// binary.
    fn committed_artifacts() -> &'static [(String, String)] {
        static FOUND: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
        FOUND.get_or_init(read_artifacts)
    }

    fn read_artifacts() -> Vec<(String, String)> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut found = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_str().unwrap();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let schema = doc.get("schema").and_then(Json::as_str);
            let schema = schema.unwrap_or_else(|| panic!("{name}: no \"schema\" string"));
            found.push((schema.to_string(), text));
        }
        found.sort();
        found
    }

    fn committed(schema: &str) -> Json {
        let mut all = committed_artifacts().iter();
        let (_, text) = all.find(|(s, _)| s == schema).unwrap();
        Json::parse(text).unwrap()
    }

    fn keys(obj: &Json) -> Vec<&str> {
        let Json::Obj(fields) = obj else {
            panic!("not an object: {obj}")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// (a) No orphans, and the layout pin: the artifacts at the repo root
    /// and the rows of `SCHEMAS` pair off one to one; every artifact
    /// re-serializes to its own bytes, lays its keys out in the order its
    /// row declares, passes the gate, and lists exactly the waivers its
    /// host earned.
    #[test]
    fn committed_artifacts_keep_their_bytes_their_layout_and_their_verdict() {
        let artifacts = committed_artifacts();
        let found: Vec<&str> = artifacts.iter().map(|(s, _)| s.as_str()).collect();
        let mut rows: Vec<&str> = SCHEMAS.iter().map(|s| s.name).collect();
        rows.sort_unstable();
        assert_eq!(found, rows, "artifacts at the repo root vs SCHEMAS rows");

        let verdict_of = |schema| match schema {
            "kernels-v1" => "kernels-v1; 11 gates held",
            "elastic-v1" => {
                "elastic-v1; 8 gates held; \
                 WAIVED: scale_out_latency_ms <= 1000 needs cores >= 4, recorded on 1; \
                 the recorded 0.047 would pass; \
                 WAIVED: scale_in_latency_ms <= 1000 needs cores >= 4, recorded on 1; \
                 the recorded 12.436 would pass"
            }
            other => panic!("no verdict pinned for {other}"),
        };
        for (schema, text) in artifacts {
            let doc = Json::parse(text).unwrap();
            assert_eq!(&format!("{doc}\n"), text, "{schema}: bytes");

            let table = SCHEMAS.iter().find(|s| s.name == schema).unwrap();
            let mut layout = vec!["schema"];
            layout.extend(table.fields.iter().map(|(k, _)| *k));
            assert_eq!(keys(&doc), layout, "{schema}: key order");
            for &(key, kind) in table.fields {
                if let Rows(inner, _) = kind {
                    let inner: Vec<&str> = inner.iter().map(|(k, _)| *k).collect();
                    for row in doc.get(key).unwrap().as_arr().unwrap() {
                        assert_eq!(keys(row), inner, "{schema}: {key} row key order");
                    }
                }
            }

            let verdict = validate(&doc).unwrap_or_else(|e| panic!("{schema}: {e}"));
            assert_eq!(verdict.to_string(), verdict_of(schema.as_str()));
        }
    }

    /// Sets (or with `None` deletes) the value at a dotted path such as
    /// `results.1.speedup`; the replacement is JSON text.
    fn edit(doc: &mut Json, path: &str, to: Option<&str>) {
        let (parents, last) = path
            .rsplit_once('.')
            .map_or((None, path), |(p, l)| (Some(p), l));
        let mut at = doc;
        for seg in parents.into_iter().flat_map(|p| p.split('.')) {
            at = match at {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == seg).unwrap().1,
                Json::Arr(items) => &mut items[seg.parse::<usize>().unwrap()],
                other => panic!("{path}: {seg} is inside {other}"),
            };
        }
        let to = to.map(|text| Json::parse(text).unwrap());
        match at {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != last || to.is_some());
                match (fields.iter_mut().find(|(k, _)| k == last), to) {
                    (Some(slot), Some(v)) => slot.1 = v,
                    (None, Some(v)) => fields.push((last.to_string(), v)),
                    (_, None) => {}
                }
            }
            Json::Arr(items) => match (last.parse::<usize>().unwrap(), to) {
                (i, Some(v)) => items[i] = v,
                (i, None) => drop(items.remove(i)),
            },
            other => panic!("{path}: {last} is inside {other}"),
        }
    }

    /// (b) Every way a recording is turned away, and both sides of every
    /// waiver. One case a line: a committed artifact | the edits made to it
    /// (`path: replacement JSON`, `-` deletes) | `ok`, or a piece of the
    /// error it must produce.
    const MATRIX: &str = r#"
        -- shape: missing field, wrong type, empty rows, discriminator
        kernels-v1  | reps: -                    | missing field 'reps'
        elastic-v1  | restarts: -                | missing field 'restarts'
        kernels-v1  | results.2.speedup: -       | results[2]: missing field 'speedup'
        kernels-v1  | reps: "many"               | field 'reps' is "many", not a count
        kernels-v1  | backend: 3                 | field 'backend' is 3, not a string
        elastic-v1  | scale_in_latency_ms: 1e999 | field 'scale_in_latency_ms' is inf, not a positive finite
        kernels-v1  | results: []                | field 'results' is [], not a non-empty array
        kernels-v1  | schema: -                  | missing field 'schema'
        kernels-v1  | schema: "kernels-v2"       | unknown schema "kernels-v2"
        kernels-v1  | schema: 7                  | field 'schema' is not a string
        -- counts are counts
        elastic-v1  | restarts: 0.9              | field 'restarts' is 0.9, not a count
        elastic-v1  | pe_restarts: -1            | field 'pe_restarts' is -1, not a count
        elastic-v1  | tuple_loss: -3             | field 'tuple_loss' is -3, not a count
        elastic-v1  | max_engines: 9007199254740994 | field 'max_engines' is 9007199254740994, not a count
        kernels-v1  | reps: 0                    | field 'reps' is 0, not a count of at least 1
        kernels-v1  | results.0.d: 0             | results[0]: field 'd' is 0, not a count of at least 1
        elastic-v1  | cores: 0                   | field 'cores' is 0, not a count of at least 1
        elastic-v1  | dim: 0                     | field 'dim' is 0, not a count of at least 1
        elastic-v1  | scale_in_latency_ms: 0     | field 'scale_in_latency_ms' is 0, not a positive
        elastic-v1  | consistency: -0.1          | field 'consistency' is -0.1, not a non-negative
        -- Zero: fault-free, no loss
        elastic-v1  | restarts: 1                | 'restarts' is 1, not 0 — benchmark artifacts must
        elastic-v1  | pe_restarts: 2             | fault-free
        elastic-v1  | tuple_loss: 3              | 'tuple_loss' is 3, not 0 — rescales must conserve
        -- Ratio, per row
        kernels-v1  | results.0.speedup: 9       | results[0]: 'speedup' 9 inconsistent with
        -- required rows, waived or not
        kernels-v1  | results.7: -               | missing required row results[kernel=gemm][d=1000]
        kernels-v1  | results.1.d: 999           | missing required row results[kernel=dot][d=1000]
        -- floors and ceilings, each side of its waiver
        kernels-v1  | results.1.dispatched_ns: 400; results.1.speedup: 1.03 | 'results[kernel=dot][d=1000].speedup' is 1.03, not >= 1.5
        kernels-v1  | results.1.dispatched_ns: 400; results.1.speedup: 1.03; backend: "scalar" | ok
        kernels-v1  | results.7.dispatched_ns: 300000; results.7.speedup: 1.28 | 'results[kernel=gemm][d=1000].speedup' is 1.28, not >= 1.5
        elastic-v1  | scale_ins: 0               | 'scale_ins' is 0, not >= 1 — the recorded run must rescale
        elastic-v1  | scale_outs: 0              | 'scale_outs' is 0, not >= 1 — the recorded run must rescale
        elastic-v1  | consistency: 0.5           | 'consistency' is 0.5, not <= 0.25
        elastic-v1  | consistency: 0.5; cores: 8 | 'consistency' is 0.5, not <= 0.25
        elastic-v1  | final_engines: 4           | 'final_engines' 4 exceeds 'max_engines' 3
        elastic-v1  | final_engines: 0           | 'final_engines' is 0, not >= 1 — the final fleet
        elastic-v1  | cores: 3                   | ok
        elastic-v1  | scale_in_latency_ms: 5000  | ok
        elastic-v1  | scale_in_latency_ms: 5000; cores: 4  | 'scale_in_latency_ms' is 5000, not <= 1000
        elastic-v1  | scale_out_latency_ms: 5000; cores: 4 | 'scale_out_latency_ms' is 5000, not <= 1000
    "#;

    #[test]
    fn rejection_matrix() {
        let cases = MATRIX.lines().map(str::trim);
        for case in cases.filter(|l| !l.is_empty() && !l.starts_with("--")) {
            let cols: Vec<&str> = case.split(" | ").map(str::trim).collect();
            let [schema, edits, expect] = cols[..] else {
                panic!("malformed case: {case}")
            };
            let mut doc = committed(schema);
            for (path, to) in edits.split("; ").map(|e| e.split_once(": ").unwrap()) {
                edit(&mut doc, path, Some(to.trim()).filter(|to| *to != "-"));
            }
            match validate(&doc) {
                Ok(_) if expect == "ok" => {}
                Err(e) if e.contains(expect) => {}
                got => panic!("{case}\n  got {got:?}"),
            }
        }
    }

    /// (c) The builder spells every committed artifact back to its bytes.
    #[test]
    fn builder_reproduces_the_committed_bytes() {
        fn rebuilt(v: &Json) -> Json {
            match v {
                Json::Obj(fields) => obj(fields.iter().map(|(k, v)| (k.as_str(), rebuilt(v)))),
                Json::Arr(items) => Json::Arr(items.iter().map(rebuilt).collect()),
                scalar => scalar.clone(),
            }
        }
        for (schema, text) in committed_artifacts() {
            let doc = Json::parse(text).unwrap();
            assert_eq!(&format!("{}\n", rebuilt(&doc)), text, "{schema}");
        }
    }

    #[test]
    fn a_failed_recording_leaves_the_previous_file_in_place() {
        let path = std::env::temp_dir().join(format!("spca-record-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let good = committed("elastic-v1");
        let text = format!("{good}\n");
        assert_eq!(record(path, &good).unwrap().schema, "elastic-v1");
        assert_eq!(std::fs::read_to_string(path).unwrap(), text);

        let mut lossy = good;
        edit(&mut lossy, "tuple_loss", Some("2"));
        let err = record(path, &lossy).unwrap_err();
        assert!(err.starts_with(path) && err.contains("conserve"), "{err}");
        assert_eq!(std::fs::read_to_string(path).unwrap(), text);
        std::fs::remove_file(path).unwrap();
    }
}
