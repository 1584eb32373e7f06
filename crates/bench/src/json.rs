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

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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
    /// A bool.
    Flag,
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
    /// The two fields are equal.
    Eq(&'static str, &'static str),
    /// The first field is no larger than the second.
    Le(&'static str, &'static str),
}

/// A gate and the one-line reason its error message ends with.
pub type Rule = (Gate, &'static str);

/// One recorded artifact: how it names itself, its layout, its gates.
pub struct Schema {
    /// Value of the `"schema"` field; the engine grid predates it.
    pub name: Option<&'static str>,
    /// Fields after the discriminator, in artifact order.
    pub fields: &'static [Field],
    /// Everything CI holds a recording to; a floor is written here only.
    pub gates: &'static [Rule],
}

use Gate::{AtLeast, AtMost, Eq, Le, Ratio, Zero};
use Kind::{Count, Flag, Natural, NonNegative, Positive, Rows, Text};
use Waiver::{BelowCores, WhenText};

const SMALL_HOST: Option<Waiver> = Some(BelowCores(4));
const NO_SIMD: Option<Waiver> = Some(WhenText("backend", "scalar"));
const FAULT_FREE: &str = "benchmark artifacts must be recorded fault-free";
const DERIVED: &str = "a recorded ratio must agree with the two figures it is the ratio of";
const BATCHED: &str = "the batched column needs a batch of 2 or more";
const SIMD: &str = "a SIMD backend must beat scalar 1.5x on dot and gemm at d = 1000";
const WARM: &str = "one store hit per partition, or it is not a warm recording";
const WARM_FLOOR: &str = "a warm re-run must be 10x faster than a cold backfill";
const ONLY_NEW: &str = "incrementality is O(partition): recomputed must equal added";
const SCALING: &str = "a cold backfill must scale 2.5x from 1 worker to 4";
const MONOTONE: &str = "latency quantiles must be monotone";
const INGEST: &str = "serving must not cost ingest more than 10 %";
const CODEC: &str = "the frame codec must beat the CSV path it replaced 5x round trip";
const NO_ALLOC: &str = "the codec hot path must not allocate in steady state";
const WIRE: &str = "the wire transport must not halve throughput on loopback";
const EACH_WAY: &str = "the recorded run must rescale at least once in each direction";
const CONSERVE: &str = "rescales must conserve every tuple";
const DRIFT: &str = "the elastic run diverged from its fixed-fleet reference";
const FLEET: &str = "the final fleet must be within 1..=max_engines";
const RESCALE: &str = "one rescale must complete inside a second";

/// Every artifact `check_bench_json` accepts and a `fig_*` recorder writes.
pub static SCHEMAS: &[Schema] = &[ENGINE, KERNELS, BACKFILL, SERVING, NET, ELASTIC];

const ENGINE: Schema = Schema {
    name: None,
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("tuples", Natural),
        ("dim", Count),
        ("batch", Count),
        ("target", Text),
        ("restarts", Count),
        ("pe_restarts", Count),
        (
            "results",
            Rows(
                &[
                    ("config", Text),
                    ("fused", Flag),
                    ("engines", Natural),
                    ("batch1_tuples_per_s", Positive),
                    ("batched_tuples_per_s", Positive),
                    ("speedup", Positive),
                ],
                &[(
                    Ratio("speedup", "batched_tuples_per_s", "batch1_tuples_per_s"),
                    DERIVED,
                )],
            ),
        ),
    ],
    gates: &[
        (AtLeast("batch", 2.0, None), BATCHED),
        (Zero("restarts"), FAULT_FREE),
        (Zero("pe_restarts"), FAULT_FREE),
    ],
};

const KERNELS: Schema = Schema {
    name: Some("kernels-v1"),
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

const BACKFILL: Schema = Schema {
    name: Some("backfill-v1"),
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("cores", Natural),
        ("partitions", Natural),
        ("rows", Count),
        ("dim", Count),
        ("target", Text),
        ("restarts", Count),
        ("pe_restarts", Count),
        (
            "scaling",
            Rows(
                &[
                    ("workers", Natural),
                    ("wall_s", Positive),
                    ("speedup", Positive),
                ],
                &[(
                    Ratio("speedup", "scaling[workers=1].wall_s", "wall_s"),
                    DERIVED,
                )],
            ),
        ),
        ("cold_wall_s", Positive),
        ("warm_wall_s", Positive),
        ("warm_speedup", Positive),
        ("warm_cache_hits", Count),
        ("incremental_added", Natural),
        ("incremental_recomputed", Count),
    ],
    gates: &[
        (Zero("restarts"), FAULT_FREE),
        (Zero("pe_restarts"), FAULT_FREE),
        (Eq("warm_cache_hits", "partitions"), WARM),
        (Ratio("warm_speedup", "cold_wall_s", "warm_wall_s"), DERIVED),
        (AtLeast("warm_speedup", 10.0, None), WARM_FLOOR),
        (Eq("incremental_recomputed", "incremental_added"), ONLY_NEW),
        (
            AtLeast("scaling[workers=4].speedup", 2.5, SMALL_HOST),
            SCALING,
        ),
    ],
};

const SERVING: Schema = Schema {
    name: Some("serving-v1"),
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("cores", Natural),
        ("dim", Natural),
        ("tuples", Natural),
        ("target", Text),
        ("restarts", Count),
        ("pe_restarts", Count),
        ("clients", Natural),
        ("requests", Natural),
        ("qps", Positive),
        ("p50_us", Positive),
        ("p99_us", Positive),
        ("p999_us", Positive),
        ("baseline_tuples_per_s", Positive),
        ("serving_tuples_per_s", Positive),
        ("ingest_ratio", Positive),
    ],
    gates: &[
        (Zero("restarts"), FAULT_FREE),
        (Zero("pe_restarts"), FAULT_FREE),
        (Le("p50_us", "p99_us"), MONOTONE),
        (Le("p99_us", "p999_us"), MONOTONE),
        (
            Ratio(
                "ingest_ratio",
                "serving_tuples_per_s",
                "baseline_tuples_per_s",
            ),
            DERIVED,
        ),
        (AtLeast("ingest_ratio", 0.9, SMALL_HOST), INGEST),
    ],
};

const NET: Schema = Schema {
    name: Some("net-v1"),
    fields: &[
        ("benchmark", Text),
        ("machine_note", Text),
        ("cores", Natural),
        ("dim", Natural),
        ("batch", Natural),
        ("tuples", Natural),
        ("target", Text),
        ("restarts", Count),
        ("codec_encode_gbps", Positive),
        ("codec_decode_gbps", Positive),
        ("codec_roundtrip_tuples_per_s", Positive),
        ("csv_roundtrip_tuples_per_s", Positive),
        ("codec_vs_csv", Positive),
        ("codec_steady_allocs", Count),
        ("frame_bytes_per_tuple", Positive),
        ("local_tuples_per_s", Positive),
        ("dist_tuples_per_s", Positive),
        ("dist_ratio", Positive),
        ("per_message_overhead_us", Positive),
    ],
    gates: &[
        (Zero("restarts"), FAULT_FREE),
        (
            Ratio(
                "codec_vs_csv",
                "codec_roundtrip_tuples_per_s",
                "csv_roundtrip_tuples_per_s",
            ),
            DERIVED,
        ),
        (AtLeast("codec_vs_csv", 5.0, None), CODEC),
        (Zero("codec_steady_allocs"), NO_ALLOC),
        (
            Ratio("dist_ratio", "dist_tuples_per_s", "local_tuples_per_s"),
            DERIVED,
        ),
        (AtLeast("dist_ratio", 0.5, SMALL_HOST), WIRE),
    ],
};

const ELASTIC: Schema = Schema {
    name: Some("elastic-v1"),
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
    /// The schema's discriminator (`"engine"` for the grid without one).
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
    let name = match doc.get("schema") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("field 'schema' is not a string")?),
    };
    let schema = SCHEMAS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown schema {name:?}"))?;
    let mut verdict = Verdict {
        schema: schema.name.unwrap_or("engine"),
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
            Flag => (v.as_bool().is_some(), "a bool"),
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
        Eq(a, b) => {
            let (x, y) = (num(a)?, num(b)?);
            (x != y).then(|| format!("'{a}' is {x} but '{b}' is {y}"))
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
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
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

    /// The six committed recordings, by the label [`Verdict::schema`] gives them.
    const COMMITTED: [(&str, &str); 6] = [
        ("engine", include_str!("../../../BENCH_engine.json")),
        ("kernels-v1", include_str!("../../../BENCH_kernels.json")),
        ("backfill-v1", include_str!("../../../BENCH_backfill.json")),
        ("serving-v1", include_str!("../../../BENCH_serving.json")),
        ("net-v1", include_str!("../../../BENCH_net.json")),
        ("elastic-v1", include_str!("../../../BENCH_elastic.json")),
    ];

    fn committed(schema: &str) -> Json {
        let (_, text) = COMMITTED.iter().find(|(s, _)| *s == schema).unwrap();
        Json::parse(text).unwrap()
    }

    fn keys(obj: &Json) -> Vec<&str> {
        let Json::Obj(fields) = obj else {
            panic!("not an object: {obj}")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// (a) The layout pin: every committed artifact re-serializes to its own
    /// bytes, lays its keys out in the order its `SCHEMAS` row declares,
    /// passes the gate, and lists exactly the waivers its host earned.
    #[test]
    fn committed_artifacts_keep_their_bytes_their_layout_and_their_verdict() {
        let waived_on = |schema| match schema {
            "backfill-v1" => vec![
                "scaling[workers=4].speedup >= 2.5 needs cores >= 4, \
                                   recorded on 1; the recorded 0.796 would fail",
            ],
            "serving-v1" => vec![
                "ingest_ratio >= 0.9 needs cores >= 4, recorded on 2; \
                                  the recorded 0.563 would fail",
            ],
            "net-v1" => vec![
                "dist_ratio >= 0.5 needs cores >= 4, recorded on 2; \
                              the recorded 0.754 would pass",
            ],
            "elastic-v1" => vec![
                "scale_out_latency_ms <= 1000 needs cores >= 4, recorded on 1; \
                 the recorded 0.047 would pass",
                "scale_in_latency_ms <= 1000 needs cores >= 4, recorded on 1; \
                 the recorded 12.436 would pass",
            ],
            _ => vec![],
        };
        for (schema, text) in COMMITTED {
            let doc = Json::parse(text).unwrap();
            assert_eq!(format!("{doc}\n"), text, "{schema}: bytes");

            let table = SCHEMAS
                .iter()
                .find(|s| s.name.unwrap_or("engine") == schema);
            let table = table.unwrap();
            let mut layout: Vec<&str> = table.name.map(|_| "schema").into_iter().collect();
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
            assert_eq!(verdict.schema, schema);
            assert!(verdict.held >= 3, "{schema}: {verdict}");
            assert_eq!(verdict.waived, waived_on(schema), "{schema}");
        }
        let serving = validate(&committed("serving-v1")).unwrap().to_string();
        assert!(serving.starts_with("serving-v1; 5 gates held; WAIVED: ingest_ratio >= 0.9"));
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
        engine      | tuples: -                  | missing field 'tuples'
        engine      | restarts: -                | missing field 'restarts'
        backfill-v1 | warm_cache_hits: -         | missing field 'warm_cache_hits'
        engine      | results.2.speedup: -       | results[2]: missing field 'speedup'
        engine      | tuples: "many"             | field 'tuples' is "many", not a count
        engine      | results.0.fused: 1         | results[0]: field 'fused' is 1, not a bool
        kernels-v1  | backend: 3                 | field 'backend' is 3, not a string
        net-v1      | dist_ratio: 1e999          | field 'dist_ratio' is inf, not a positive finite
        engine      | results: []                | field 'results' is [], not a non-empty array
        backfill-v1 | scaling: []                | field 'scaling' is [], not a non-empty array
        kernels-v1  | schema: -                  | missing field 'tuples'
        kernels-v1  | schema: "kernels-v2"       | unknown schema Some("kernels-v2")
        kernels-v1  | schema: 7                  | field 'schema' is not a string
        -- counts are counts
        engine      | restarts: 0.9              | field 'restarts' is 0.9, not a count
        engine      | pe_restarts: -1            | field 'pe_restarts' is -1, not a count
        elastic-v1  | tuple_loss: -3             | field 'tuple_loss' is -3, not a count
        net-v1      | codec_steady_allocs: -1    | field 'codec_steady_allocs' is -1, not a count
        backfill-v1 | warm_cache_hits: 7.5       | field 'warm_cache_hits' is 7.5, not a count
        engine      | dim: 9007199254740994      | field 'dim' is 9007199254740994, not a count
        engine      | tuples: 0                  | field 'tuples' is 0, not a count of at least 1
        engine      | results.0.engines: 0       | results[0]: field 'engines' is 0, not a count of
        kernels-v1  | reps: 0                    | field 'reps' is 0, not a count of at least 1
        kernels-v1  | results.0.d: 0             | results[0]: field 'd' is 0, not a count of at least 1
        backfill-v1 | scaling.1.workers: 0       | scaling[1]: field 'workers' is 0, not a count of
        backfill-v1 | incremental_added: 0       | field 'incremental_added' is 0, not a count of
        serving-v1  | cores: 0                   | field 'cores' is 0, not a count of at least 1
        serving-v1  | clients: 0                 | field 'clients' is 0, not a count of at least 1
        net-v1      | batch: 0                   | field 'batch' is 0, not a count of at least 1
        elastic-v1  | dim: 0                     | field 'dim' is 0, not a count of at least 1
        elastic-v1  | scale_in_latency_ms: 0     | field 'scale_in_latency_ms' is 0, not a positive
        elastic-v1  | consistency: -0.1          | field 'consistency' is -0.1, not a non-negative
        -- Zero: fault-free, no allocation, no loss
        engine      | restarts: 3                | 'restarts' is 3, not 0 — benchmark artifacts must
        engine      | pe_restarts: 1             | 'pe_restarts' is 1, not 0 — benchmark artifacts
        backfill-v1 | restarts: 1                | fault-free
        backfill-v1 | pe_restarts: 2             | fault-free
        serving-v1  | restarts: 1                | fault-free
        serving-v1  | pe_restarts: 1             | fault-free
        net-v1      | restarts: 1                | fault-free
        net-v1      | codec_steady_allocs: 3     | 'codec_steady_allocs' is 3, not 0 — the codec hot
        elastic-v1  | restarts: 1                | fault-free
        elastic-v1  | pe_restarts: 2             | fault-free
        elastic-v1  | tuple_loss: 3              | 'tuple_loss' is 3, not 0 — rescales must conserve
        -- Ratio: top level, per row, against the workers = 1 base row
        engine      | results.0.speedup: 9       | results[0]: 'speedup' 9 inconsistent with
        kernels-v1  | results.0.speedup: 9       | results[0]: 'speedup' 9 inconsistent with
        backfill-v1 | scaling.2.speedup: 9       | scaling[2]: 'speedup' 9 inconsistent with
        backfill-v1 | scaling.0.wall_s: 0.2      | scaling[1]: 'speedup' 0.9729435382847268 inconsistent
        backfill-v1 | warm_speedup: 900          | 'warm_speedup' 900 inconsistent with cold_wall_s
        serving-v1  | ingest_ratio: 0.99         | 'ingest_ratio' 0.99 inconsistent with
        net-v1      | codec_vs_csv: 7            | 'codec_vs_csv' 7 inconsistent with
        net-v1      | dist_ratio: 0.9            | 'dist_ratio' 0.9 inconsistent with
        -- required rows, waived or not
        kernels-v1  | results.7: -               | missing required row results[kernel=gemm][d=1000]
        kernels-v1  | results.1.d: 999           | missing required row results[kernel=dot][d=1000]
        backfill-v1 | scaling.0: -               | missing required row scaling[workers=1]
        backfill-v1 | scaling.2: -               | missing required row scaling[workers=4]
        -- floors and ceilings, each side of its waiver
        engine      | batch: 1                   | 'batch' is 1, not >= 2
        kernels-v1  | results.1.dispatched_ns: 400; results.1.speedup: 1.03 | 'results[kernel=dot][d=1000].speedup' is 1.03, not >= 1.5
        kernels-v1  | results.1.dispatched_ns: 400; results.1.speedup: 1.03; backend: "scalar" | ok
        kernels-v1  | results.7.dispatched_ns: 300000; results.7.speedup: 1.28 | 'results[kernel=gemm][d=1000].speedup' is 1.28, not >= 1.5
        backfill-v1 | warm_wall_s: 0.0407503676; warm_speedup: 2.5 | 'warm_speedup' is 2.5, not >= 10
        backfill-v1 | warm_cache_hits: 7         | 'warm_cache_hits' is 7 but 'partitions' is 8 — one store hit
        backfill-v1 | incremental_recomputed: 9  | recomputed must equal added
        backfill-v1 | cores: 3                   | ok
        backfill-v1 | cores: 4                   | 'scaling[workers=4].speedup' is 0.795520465357715, not >= 2.5
        serving-v1  | p99_us: 600                | 'p99_us' 600 exceeds 'p999_us' 65.536 — latency quantiles
        serving-v1  | p50_us: 40                 | 'p50_us' 40 exceeds 'p99_us' 8.192
        serving-v1  | cores: 3                   | ok
        serving-v1  | cores: 4                   | 'ingest_ratio' is 0.5633558569360905, not >= 0.9
        net-v1      | codec_roundtrip_tuples_per_s: 20594.971566067383; codec_vs_csv: 3 | 'codec_vs_csv' is 3, not >= 5
        net-v1      | cores: 4                   | ok
        net-v1      | dist_tuples_per_s: 68097.03852959381; dist_ratio: 0.4 | ok
        net-v1      | dist_tuples_per_s: 68097.03852959381; dist_ratio: 0.4; cores: 4 | 'dist_ratio' is 0.4, not >= 0.5
        elastic-v1  | scale_ins: 0               | 'scale_ins' is 0, not >= 1 — the recorded run must rescale
        elastic-v1  | scale_outs: 0              | 'scale_outs' is 0, not >= 1 — the recorded run must rescale
        elastic-v1  | consistency: 0.5           | 'consistency' is 0.5, not <= 0.25
        elastic-v1  | consistency: 0.5; cores: 8 | 'consistency' is 0.5, not <= 0.25
        elastic-v1  | final_engines: 4           | 'final_engines' 4 exceeds 'max_engines' 3
        elastic-v1  | final_engines: 0           | 'final_engines' is 0, not >= 1 — the final fleet
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
        for (schema, text) in COMMITTED {
            assert_eq!(
                format!("{}\n", rebuilt(&committed(schema))),
                text,
                "{schema}"
            );
        }
    }

    #[test]
    fn a_failed_recording_leaves_the_previous_file_in_place() {
        let path = std::env::temp_dir().join(format!("spca-record-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let (_, text) = COMMITTED[5];
        let good = committed("elastic-v1");
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
