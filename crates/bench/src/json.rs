//! Minimal JSON document model, writer and reader (std-only, no
//! dependencies).
//!
//! Just enough JSON for the structured experiment output behind the
//! `experiments --json <path>` flag and the `BENCH_hermes.json` perf
//! trajectory: objects, arrays, strings, integers, and floats, rendered
//! deterministically (insertion order, fixed float formatting).
//! [`Json::parse`] reads back exactly what [`Json::render`] writes, so
//! `Json::parse(&doc.render()) == Ok(doc)`; the committed-baseline gates
//! (`tests/gates.rs`) read `BENCH_hermes.json` through it.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string.
    Str(String),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized via Rust's shortest-roundtrip formatting).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a table cell into the most specific scalar: integer, float,
    /// then string (so `"12"` serializes as a number but `"2.00x"` stays
    /// text).
    pub fn cell(s: &str) -> Json {
        if let Ok(i) = s.parse::<i64>() {
            return Json::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return Json::Num(f);
            }
        }
        Json::Str(s.to_string())
    }

    /// Serialize with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => {
                if f.is_finite() {
                    // shortest-roundtrip formatting that keeps a whole
                    // float's `.0`, so it reads back as a float, not an
                    // integer
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad_in);
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Read a document back: the inverse of [`Json::render`], so
    /// `Json::parse(&doc.render()) == Ok(doc)`. A recursive-descent reader
    /// over the grammar `render` emits (the `null` of a non-finite float
    /// reads back as NaN); anything else is an `Err` naming the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader { text, at: 0 };
        let value = r.value()?;
        let end = r.eat("") && r.at == text.len(); // only whitespace may follow
        end.then_some(value).ok_or_else(|| r.err("trailing characters"))
    }
}

type Parsed<T> = Result<T, String>;

/// Cursor over a document being parsed.
struct Reader<'a> {
    text: &'a str,
    at: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    /// Skip whitespace, then consume `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let rest = self.text[self.at..].trim_start_matches([' ', '\n', '\r', '\t']);
        let hit = rest.starts_with(lit);
        self.at = self.text.len() - rest.len() + if hit { lit.len() } else { 0 };
        hit
    }

    fn expect(&mut self, lit: &str) -> Parsed<()> {
        self.eat(lit).then_some(()).ok_or_else(|| self.err(&format!("expected `{lit}`")))
    }

    /// Comma-separated `item`s up to `close` (the opener already eaten).
    fn list<T>(&mut self, close: &str, item: impl Fn(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut items = Vec::new();
        while !self.eat(close) {
            if !items.is_empty() {
                self.expect(",")?;
            }
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn value(&mut self) -> Parsed<Json> {
        if self.eat("{") {
            let pair = |r: &mut Self| {
                let key = r.string()?;
                r.expect(":")?;
                Ok((key, r.value()?))
            };
            return self.list("}", pair).map(Json::Obj);
        }
        if self.eat("[") {
            return self.list("]", Self::value).map(Json::Arr);
        }
        if self.text[self.at..].starts_with('"') {
            return self.string().map(Json::Str);
        }
        for (lit, v) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Num(f64::NAN)),
        ] {
            if self.eat(lit) {
                return Ok(v);
            }
        }
        let rest = &self.text[self.at..];
        let len = rest.find(|c| !"+-.0123456789eE".contains(c)).unwrap_or(rest.len());
        let token = &rest[..len];
        let value = if token.contains(['.', 'e', 'E']) {
            token.parse().ok().filter(|f: &f64| f.is_finite()).map(Json::Num)
        } else {
            token.parse().ok().map(Json::Int)
        };
        let value = value.ok_or_else(|| self.err(&format!("expected a value, found {token:?}")))?;
        self.at += token.len();
        Ok(value)
    }

    fn string(&mut self) -> Parsed<String> {
        self.expect("\"")?;
        let text = self.text;
        let mut chars = text[self.at..].char_indices();
        let mut out = String::new();
        while let Some((i, c)) = chars.next() {
            out.push(match c {
                '"' => {
                    self.at += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.err("bad \\u escape"))?
                    }
                    _ => return Err(self.err("bad escape")),
                },
                c if c < ' ' => return Err(self.err("raw control character in string")),
                c => c,
            });
        }
        Err(self.err("unterminated string"))
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let doc = Json::obj(vec![
            ("name", Json::Str("e11".into())),
            ("workers", Json::Arr(vec![Json::Int(1), Json::Int(2), Json::Int(4)])),
            ("speedup", Json::Num(2.5)),
            ("ok", Json::Bool(true)),
        ]);
        let s = doc.render();
        assert!(s.contains("\"name\": \"e11\""));
        assert!(s.contains("\"speedup\": 2.5"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.trim_start().starts_with('{') && s.trim_end().ends_with('}'));
    }

    #[test]
    fn cell_picks_most_specific_type() {
        assert_eq!(Json::cell("42"), Json::Int(42));
        assert_eq!(Json::cell("-7"), Json::Int(-7));
        assert_eq!(Json::cell("3.25"), Json::Num(3.25));
        assert_eq!(Json::cell("2.00x"), Json::Str("2.00x".into()));
        assert_eq!(Json::cell("ok"), Json::Str("ok".into()));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).render();
        assert_eq!(s.trim(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn every_value_kind_round_trips() {
        // every escape class the writer knows: quote, backslash, the named
        // control characters, and a bare control character (\u0007)
        let nasty = "q:\" b:\\ n:\n r:\r t:\t bell:\u{7} unicode:é";
        let doc = Json::obj(vec![
            (nasty, Json::Str(nasty.into())),
            ("int", Json::Int(-42)),
            ("float", Json::Num(-0.125)),
            ("whole", Json::Num(3.0)),
            ("tiny", Json::Num(1e-9)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let rendered = doc.render();
        assert!(rendered.contains("\\u0007"), "bare control char escaped");
        assert!(!rendered.contains('\u{7}'), "no raw control char emitted");
        assert_eq!(Json::parse(&rendered), Ok(doc));
    }

    #[test]
    fn experiment_tables_round_trip() {
        // E4 prints whole-valued float cells ("8.0"): they must read back
        // as floats, not integers
        let doc = crate::e4_axi::run(1, &hermes_obs::Recorder::disabled()).to_json();
        assert_eq!(Json::parse(&doc.render()), Ok(doc));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["[1, 2,]", r#"{"a": 1,}"#, "\"open", "NaN", "{} x", "", "[1 2]", r#""\q""#] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn cell_rejects_non_finite_floats() {
        // "NaN" and "inf" parse as f64 but are not valid JSON numbers —
        // they must stay strings, never become `null` or bare NaN tokens
        assert_eq!(Json::cell("NaN"), Json::Str("NaN".into()));
        assert_eq!(Json::cell("inf"), Json::Str("inf".into()));
        assert_eq!(Json::cell("-inf"), Json::Str("-inf".into()));
        assert_eq!(Json::cell("Infinity"), Json::Str("Infinity".into()));
        assert_eq!(Json::cell("NaN").render().trim(), "\"NaN\"");
        // a directly constructed non-finite Num renders as null, not NaN
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render().trim(), "null");
        // ... and reads back as NaN
        assert!(matches!(Json::parse("null"), Ok(Json::Num(f)) if f.is_nan()));
    }
}
