//! Dependency-free JSON tree, writer, and parser, plus machine-readable
//! export of [`Report`]s.
//!
//! The environment this crate builds in has no network access, so the usual
//! serde derive route is unavailable; the format needed here (reports and
//! Chrome trace events) is small enough that a hand-rolled tree + recursive
//! descent parser is simpler than a code-generation dependency anyway.
//!
//! [`Report::to_json`] writes a run report for archiving and offline
//! comparison (`experiments --json-out`); a run's span log rides along as
//! `trace[]` when the program ran with
//! [`Program::enable_tracing`](crate::Program::enable_tracing).  Artifacts
//! are write-only: nothing parses one back into a [`Report`], and
//! `tests/artifact_goldens.rs` pins every writer's bytes.

use std::fmt;

use crate::metrics::MetricsSnapshot;
use crate::stats::{Report, StageStats};

/// A JSON value.  Object members keep insertion order (the writer emits them
/// as given; the parser preserves document order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.  Integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of `(key, value)` members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a boolean, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's members, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Parse a JSON document.  Trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null"); // JSON has no NaN/inf
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.into())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
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
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
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
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                } else {
                                    // High half paired with a non-low-half
                                    // escape: reject instead of combining.
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid \\u escape at byte {}", self.pos)
                            })?);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slices at
                    // char boundaries are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Build an object from `(key, value)` pairs; keeps the given order.
pub(crate) fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn stage_to_json(s: &StageStats) -> Json {
    obj(vec![
        ("name", Json::from(s.name.as_str())),
        ("wall_ns", Json::from(s.wall.as_nanos() as u64)),
        (
            "blocked_accept_ns",
            Json::from(s.blocked_accept.as_nanos() as u64),
        ),
        (
            "blocked_convey_ns",
            Json::from(s.blocked_convey.as_nanos() as u64),
        ),
        ("buffers_in", Json::from(s.buffers_in)),
        ("buffers_out", Json::from(s.buffers_out)),
    ])
}

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    obj(vec![
        (
            "counters",
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                m.histograms
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            obj(vec![
                                ("count", Json::from(h.count)),
                                ("sum", Json::from(h.sum)),
                                ("min", Json::from(h.min)),
                                ("max", Json::from(h.max)),
                                (
                                    "buckets",
                                    Json::Arr(h.buckets.iter().map(|&b| Json::from(b)).collect()),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

impl MetricsSnapshot {
    /// The snapshot as a [`Json`] value (counters and full histogram
    /// buckets) — the `"metrics"` member of
    /// [`Report::to_json_value`].
    pub fn to_json_value(&self) -> Json {
        metrics_to_json(self)
    }
}

impl Report {
    /// Serialize the report as a self-contained JSON document, for
    /// archiving and offline comparison; integer fields are exact up to 53
    /// bits (any run shorter than ~104 days).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The report as a [`Json`] value — use this to embed a report inside a
    /// larger document; [`Report::to_json`] is this rendered to text.
    pub fn to_json_value(&self) -> Json {
        let mut members = vec![
            ("wall_ns", Json::from(self.wall.as_nanos() as u64)),
            ("threads_spawned", Json::from(self.threads_spawned)),
            (
                "stages",
                Json::Arr(self.stages.iter().map(stage_to_json).collect()),
            ),
            (
                "queues",
                Json::Arr(
                    self.queues
                        .iter()
                        .map(|q| {
                            obj(vec![
                                ("name", Json::from(q.name.as_str())),
                                ("capacity", Json::from(q.capacity)),
                                ("max_depth", Json::from(q.max_depth)),
                                ("flavor", Json::from(q.flavor.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pipelines",
                Json::Arr(
                    self.pipelines
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("name", Json::from(p.name.as_str())),
                                (
                                    "stages",
                                    Json::Arr(
                                        p.stages.iter().map(|s| Json::from(s.as_str())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics_to_json(&self.metrics)),
        ];
        // The optional members are written only by runs that have them.
        if let Some(resources) = &self.resources {
            members.push(("resources", resources.to_json_value()));
        }
        if !self.trace.is_empty() {
            members.push(("trace_start_ns", Json::from(self.trace_start_ns)));
            let logs = self.trace.iter().map(|l| l.to_json()).collect();
            members.push(("trace", Json::Arr(logs)));
        }
        obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars_and_nesting() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": true}, "e": "x\ny"}"#)
            .unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(j.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn write_parse_round_trip_with_escapes() {
        let doc = obj(vec![
            ("quote\"backslash\\", Json::from("tab\there\nnewline")),
            ("unicode", Json::from("héllo ☃")),
            ("nums", Json::Arr(vec![Json::from(0u64), Json::Num(1.25)])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_unicode_escapes() {
        let j = Json::parse(r#""Aé😀""#).unwrap();
        assert_eq!(j.as_str(), Some("Aé😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn integers_written_without_decimal_point() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
