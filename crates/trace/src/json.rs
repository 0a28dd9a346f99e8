//! A minimal JSON parser (no external dependencies), the strict field
//! reader every document type decodes through, and a Chrome `trace_event`
//! validator — the round-trip half of the exporter tests and the CI trace
//! check.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::RangeInclusive;

use crate::chrome::push_json_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal in canonical form (`0`, or digits
    /// without a leading zero) that fits a `u64`, held exactly.
    Int(u64),
    /// Any other number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            // `as` rounds to nearest like the decimal parse does, so every
            // literal reads as the same `f64` either way.
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Maximum nesting depth accepted (defence against pathological input; the
/// traces this repo emits nest three levels deep).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character (always on a character
    /// boundary).
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.peek().ok_or_else(|| self.err("truncated \\u"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                            continue; // hex4 advanced pos past the escape
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(0..=0x1f) => return Err(self.err("unescaped control character")),
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control character.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .find(|c: char| matches!(c, '"' | '\\' | '\0'..='\x1f'))
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.err("bad number"))
        } else {
            Ok(())
        }
    }

    /// An RFC 8259 number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]?
    /// [0-9]+)?`. A non-negative integer that fits is an exact
    /// [`Json::Int`], anything else an `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            _ => self.digits()?,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with the byte offset of the first
/// syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Why a document did not decode: the path of the offending field (for
/// example `faults[0].bit`; empty for the document as a whole) and what
/// is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Field path: object keys joined by `.`, array indices in brackets.
    pub path: String,
    /// What is wrong with the field.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path.as_str() {
            "" => f.write_str(&self.msg),
            path => write!(f, "{path}: {}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

/// A decoded value, or the field that failed.
pub type JsonResult<T = ()> = Result<T, JsonError>;

/// Integer types a [`Coder`] decodes exactly and renders in decimal.
pub trait Uint: TryFrom<u64> + fmt::Display + PartialOrd + Copy {}

impl<T: TryFrom<u64> + fmt::Display + PartialOrd + Copy> Uint for T {}

/// One value of a document under decode, with the path that names it in
/// errors. The accessors accept exactly what the workspace's writers
/// emit, so a decoded value re-renders to the same JSON value.
#[derive(Debug, Clone)]
pub struct Field<'a> {
    value: &'a Json,
    path: String,
}

impl<'a> Field<'a> {
    /// The whole document.
    pub fn root(value: &'a Json) -> Self {
        Field {
            value,
            path: String::new(),
        }
    }

    /// An error about this field.
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            path: self.path.clone(),
            msg: msg.into(),
        }
    }

    fn expected(&self, what: &str) -> JsonError {
        let found = match self.value {
            Json::Null => "null".to_owned(),
            Json::Bool(b) => b.to_string(),
            Json::Int(n) => n.to_string(),
            Json::Num(x) => format!("{x:?}"),
            Json::Str(s) => format!("{s:?}"),
            Json::Arr(_) => "an array".to_owned(),
            Json::Obj(_) => "an object".to_owned(),
        };
        self.err(format!("expected {what}, found {found}"))
    }

    /// A string.
    fn str(&self) -> JsonResult<&'a str> {
        self.value.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// An exact canonical integer literal, narrowed to `T`.
    fn uint<T: TryFrom<u64>>(&self) -> JsonResult<T> {
        let Json::Int(n) = *self.value else {
            return Err(self.expected("a non-negative integer"));
        };
        let ty = std::any::type_name::<T>();
        T::try_from(n).map_err(|_| self.err(format!("{n} out of range for {ty}")))
    }

    /// A string from a fixed label set, as the set's own label.
    fn label(&self, set: impl IntoIterator<Item = &'static str>) -> JsonResult<&'static str> {
        let s = self.str()?;
        let set: Vec<&'static str> = set.into_iter().collect();
        let found = set.iter().find(|l| **l == s).copied();
        found.ok_or_else(|| self.err(format!("{s:?} is not one of {}", set.join("|"))))
    }

    /// `None` for `null`, the field itself otherwise.
    fn nullable(self) -> Option<Self> {
        (*self.value != Json::Null).then_some(self)
    }

    /// The elements of an array, each with its indexed path.
    fn items(&self) -> JsonResult<Vec<Field<'a>>> {
        let items = self
            .value
            .as_arr()
            .ok_or_else(|| self.expected("an array"))?;
        let item = |(i, value)| Field {
            value,
            path: format!("{}[{i}]", self.path),
        };
        Ok(items.iter().enumerate().map(item).collect())
    }

    /// Decodes an object through `body`, then rejects every key `body`
    /// did not read. Duplicate keys are rejected up front.
    pub fn object<T>(
        &self,
        body: impl FnOnce(&mut ObjReader<'a>) -> JsonResult<T>,
    ) -> JsonResult<T> {
        let Json::Obj(members) = self.value else {
            return Err(self.expected("an object"));
        };
        let mut r = ObjReader {
            members,
            path: self.path.clone(),
            read: vec![false; members.len()],
        };
        let mut seen = BTreeSet::new();
        if let Some((k, _)) = members.iter().find(|(k, _)| !seen.insert(k.as_str())) {
            return Err(r.err(k, "duplicate key"));
        }
        let v = body(&mut r)?;
        match r.read.iter().position(|read| !read) {
            Some(i) => Err(r.err(&members[i].0, "unknown field")),
            None => Ok(v),
        }
    }
}

/// The members of one object under decode (see [`Field::object`]).
#[derive(Debug)]
pub struct ObjReader<'a> {
    members: &'a [(String, Json)],
    path: String,
    read: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    fn child(&self, key: &str, value: &'a Json) -> Field<'a> {
        let path = match self.path.as_str() {
            "" => key.to_owned(),
            parent => format!("{parent}.{key}"),
        };
        Field { value, path }
    }

    /// An error about the member `key`.
    fn err(&self, key: &str, msg: impl Into<String>) -> JsonError {
        self.child(key, &Json::Null).err(msg)
    }

    /// An optional member, marked read.
    fn opt(&mut self, key: &str) -> Option<Field<'a>> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        self.read[i] = true;
        Some(self.child(key, &self.members[i].1))
    }

    /// A required member, marked read.
    fn field(&mut self, key: &str) -> JsonResult<Field<'a>> {
        self.opt(key).ok_or_else(|| self.err(key, "missing"))
    }

    /// The keys not read yet, in document order.
    fn unread_keys(&self) -> Vec<String> {
        let unread = self.members.iter().zip(&self.read).filter(|(_, r)| !**r);
        unread.map(|((k, _), _)| k.clone()).collect()
    }
}

type S = &'static str;

/// How a [`Coder`] lays out one object or array when it renders: the text
/// before the first member, between members, between a key and its value,
/// and before the closing bracket of a non-empty and of an empty
/// container.
#[derive(Debug, Clone, Copy)]
pub struct Layout([S; 5]);

impl Layout {
    /// A layout from its five separators, in the order above.
    pub const fn new(first: S, rest: S, kv: S, end: S, end_empty: S) -> Self {
        Layout([first, rest, kv, end, end_empty])
    }
}

/// Members on one line, `{"a": 1, "b": [2, 3]}`.
pub const INLINE: Layout = Layout::new("", ", ", ": ", "", "");

/// The rendering half of a [`Coder`].
#[derive(Debug)]
pub struct Writer<'w> {
    out: &'w mut String,
    layout: Layout,
    empty: bool,
}

impl Writer<'_> {
    /// Starts the next member: separator, then `"key"` and the key/value
    /// separator for object members.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        let [first, rest, kv, ..] = self.layout.0;
        self.out.push_str(if self.empty { first } else { rest });
        self.empty = false;
        if let Some(k) = key {
            push_json_string(self.out, k);
            self.out.push_str(kv);
        }
        self.out
    }
}

/// Codes the members of one object (see [`Coder`]).
pub type Body<'b> = &'b mut dyn FnMut(&mut Coder<'_, '_>) -> JsonResult;

/// Codes the members of one element `T` of a list, map or optional object.
pub type Elem<'b, T> = &'b mut dyn FnMut(&mut Coder<'_, '_>, &mut T) -> JsonResult;

/// Renders `body`'s members inside `open` and its closing bracket.
fn nest(out: &mut String, open: char, layout: Layout, body: Body<'_>) -> JsonResult {
    out.push(open);
    let mut c = Coder::Write(Writer {
        out: &mut *out,
        layout,
        empty: true,
    });
    body(&mut c)?;
    let empty = matches!(c, Coder::Write(Writer { empty: true, .. }));
    out.push_str(layout.0[if empty { 4 } else { 3 }]);
    out.push(if open == '{' { '}' } else { ']' });
    Ok(())
}

/// Decodes one object into a fresh `T` through `body`.
fn decode<'a, T: Default>(f: &Field<'a>, body: Elem<'_, T>) -> JsonResult<T> {
    let mut t = T::default();
    f.object(|o| body(&mut Coder::Read(o), &mut t))?;
    Ok(t)
}

fn quote(s: &str) -> String {
    let mut out = String::new();
    push_json_string(&mut out, s);
    out
}

/// One document's field list, run in either direction: a [`Writer`]
/// renders each field in call order, an [`ObjReader`] decodes and checks
/// it. A document type states its fields once, in one `code` function
/// that both its `to_json` and its `from_json` run, so the two cannot
/// drift apart.
#[derive(Debug)]
pub enum Coder<'a, 'w> {
    /// Rendering.
    Write(Writer<'w>),
    /// Decoding.
    Read(&'w mut ObjReader<'a>),
}

impl<'a> Coder<'a, '_> {
    /// Renders `show(v)` under `key`, or decodes `key` with `read` into `v`.
    fn member<T>(
        &mut self,
        key: &str,
        v: &mut T,
        show: impl FnOnce(&T) -> String,
        read: impl FnOnce(Field<'a>) -> JsonResult<T>,
    ) -> JsonResult {
        match self {
            Coder::Write(w) => w.next(Some(key)).push_str(&show(v)),
            Coder::Read(r) => *v = read(r.field(key)?)?,
        }
        Ok(())
    }

    /// An exact non-negative integer.
    pub fn uint<T: Uint>(&mut self, key: &str, v: &mut T) -> JsonResult {
        self.member(key, v, T::to_string, |f| f.uint())
    }

    /// An exact non-negative integer within `range`.
    pub fn within<T: Uint>(
        &mut self,
        key: &str,
        v: &mut T,
        range: RangeInclusive<T>,
    ) -> JsonResult {
        self.member(key, v, T::to_string, |f| {
            let n: T = f.uint()?;
            if range.contains(&n) {
                Ok(n)
            } else {
                let (lo, hi) = range.into_inner();
                Err(f.err(format!("{n} outside {lo}..={hi}")))
            }
        })
    }

    /// A string.
    pub fn string(&mut self, key: &str, v: &mut String) -> JsonResult {
        self.member(key, v, |s| quote(s), |f| f.str().map(str::to_owned))
    }

    /// A string or `null`.
    pub fn opt_string(&mut self, key: &str, v: &mut Option<String>) -> JsonResult {
        let show = |v: &Option<String>| v.as_deref().map_or("null".to_owned(), quote);
        let read = |f: Field<'a>| f.nullable().map(|f| f.str().map(str::to_owned));
        self.member(key, v, show, |f| read(f).transpose())
    }

    /// `true` or `false`.
    pub fn bool(&mut self, key: &str, v: &mut bool) -> JsonResult {
        self.member(key, v, bool::to_string, |f| match f.value {
            Json::Bool(b) => Ok(*b),
            _ => Err(f.expected("true or false")),
        })
    }

    /// A `u64` as a lowercase `0x…` string of exactly `digits` hex digits,
    /// or of the fewest digits when `digits` is 0.
    pub fn hex(&mut self, key: &str, v: &mut u64, digits: usize) -> JsonResult {
        let w = digits + 2;
        self.member(
            key,
            v,
            |v| format!("\"{v:#0w$x}\""),
            |f| {
                let s = f.str()?;
                let hex = s
                    .strip_prefix("0x")
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                match hex.and_then(|h| u64::from_str_radix(h, 16).ok()) {
                    Some(v) if format!("{v:#0w$x}") == s => Ok(v),
                    _ => Err(f.expected("a canonical lowercase 0x hex string")),
                }
            },
        )
    }

    /// A finite `f64` as a string in its shortest display form (`"0.5"`,
    /// `"1"`) that satisfies `ok`, described as `what` in errors.
    pub fn decimal(
        &mut self,
        key: &str,
        v: &mut f64,
        ok: fn(f64) -> bool,
        what: &str,
    ) -> JsonResult {
        self.member(
            key,
            v,
            |v| quote(&v.to_string()),
            |f| {
                let s = f.str()?;
                match s.parse::<f64>() {
                    Ok(x) if x.is_finite() && x.to_string() == s && ok(x) => Ok(x),
                    Ok(x) if x.is_finite() && x.to_string() == s => {
                        Err(f.err(format!("{x} is not {what}")))
                    }
                    _ => Err(f.expected("a canonical decimal string")),
                }
            },
        )
    }

    /// A string from a fixed label set, held as the set's own label.
    pub fn label(&mut self, key: &str, v: &mut S, set: impl IntoIterator<Item = S>) -> JsonResult {
        self.member(key, v, |v| quote(v), |f| f.label(set))
    }

    /// A label from a fixed set, or `null`.
    pub fn opt_label(
        &mut self,
        key: &str,
        v: &mut Option<S>,
        set: impl IntoIterator<Item = S>,
    ) -> JsonResult {
        let show = |v: &Option<S>| v.map_or("null".to_owned(), quote);
        self.member(key, v, show, |f| {
            f.nullable().map(|f| f.label(set)).transpose()
        })
    }

    /// A nested object whose members `body` codes.
    pub fn obj(&mut self, key: &str, layout: Layout, body: Body<'_>) -> JsonResult {
        match self {
            Coder::Write(w) => nest(w.next(Some(key)), '{', layout, body),
            Coder::Read(r) => r.field(key)?.object(|o| body(&mut Coder::Read(o))),
        }
    }

    /// An optional nested object: absent when `None`, or `null` when
    /// `null` is set.
    pub fn opt_obj<T: Default>(
        &mut self,
        key: &str,
        null: bool,
        layout: Layout,
        v: &mut Option<T>,
        body: Elem<'_, T>,
    ) -> JsonResult {
        match (self, v.as_mut()) {
            (Coder::Write(w), Some(t)) => nest(w.next(Some(key)), '{', layout, &mut |c| body(c, t)),
            (Coder::Write(w), None) if null => {
                w.next(Some(key)).push_str("null");
                Ok(())
            }
            (Coder::Write(_), None) => Ok(()),
            (Coder::Read(r), _) => {
                let field = if null {
                    r.field(key)?.nullable()
                } else {
                    r.opt(key)
                };
                *v = field.map(|f| decode(&f, body)).transpose()?;
                Ok(())
            }
        }
    }

    /// An array of objects, each laid out as `item` and coded by `body`.
    pub fn list<T: Default>(
        &mut self,
        key: &str,
        layout: Layout,
        item: Layout,
        v: &mut Vec<T>,
        body: Elem<'_, T>,
    ) -> JsonResult {
        match self {
            Coder::Write(w) => nest(w.next(Some(key)), '[', layout, &mut |c| {
                let Coder::Write(w) = c else {
                    unreachable!("a writer nests writers")
                };
                let mut each = |t: &mut T| nest(w.next(None), '{', item, &mut |c| body(c, t));
                v.iter_mut().try_for_each(&mut each)
            }),
            Coder::Read(r) => {
                let items = r.field(key)?.items()?;
                *v = items
                    .iter()
                    .map(|f| decode(f, body))
                    .collect::<JsonResult<_>>()?;
                Ok(())
            }
        }
    }

    /// An array of exact non-negative integers.
    pub fn uints(&mut self, key: &str, layout: Layout, v: &mut Vec<u64>) -> JsonResult {
        match self {
            Coder::Write(w) => nest(w.next(Some(key)), '[', layout, &mut |c| {
                let Coder::Write(w) = c else {
                    unreachable!("a writer nests writers")
                };
                v.iter().for_each(|n| w.next(None).push_str(&n.to_string()));
                Ok(())
            }),
            Coder::Read(r) => {
                let items = r.field(key)?.items()?;
                *v = items.iter().map(Field::uint).collect::<JsonResult<_>>()?;
                Ok(())
            }
        }
    }

    /// An object used as an ordered map: `body` codes each value under
    /// its own key, which it reads from the pair.
    pub fn map<T: Default>(
        &mut self,
        key: &str,
        layout: Layout,
        v: &mut Vec<(String, T)>,
        body: Elem<'_, (String, T)>,
    ) -> JsonResult {
        match self {
            Coder::Write(w) => nest(w.next(Some(key)), '{', layout, &mut |c| {
                v.iter_mut().try_for_each(|pair| body(c, pair))
            }),
            Coder::Read(r) => r.field(key)?.object(|o| {
                *v = o
                    .unread_keys()
                    .into_iter()
                    .map(|k| (k, T::default()))
                    .collect();
                v.iter_mut()
                    .try_for_each(|pair| body(&mut Coder::Read(o), pair))
            }),
        }
    }

    /// Unless `ok`, a decoding error about `key` — a derived field that
    /// does not match what it derives from. Rendering never fails.
    pub fn check(&mut self, key: &str, ok: bool, msg: impl FnOnce() -> String) -> JsonResult {
        match self {
            Coder::Read(r) if !ok => Err(r.err(key, msg())),
            _ => Ok(()),
        }
    }
}

/// Renders a document: `{`, a `schema` member when one is given, `body`'s
/// members, and `}`.
pub fn render_json(schema: Option<S>, layout: Layout, body: Body<'_>) -> String {
    let mut out = String::new();
    let rendered = nest(&mut out, '{', layout, &mut |c| {
        if let Some(s) = schema {
            c.label("schema", &mut { s }, [s])?;
        }
        body(c)
    });
    rendered.expect("rendering never fails");
    out
}

/// Decodes one schema-tagged document: parses `text`, requires its
/// `schema` member to be `schema`, decodes the other members through
/// `body`, and rejects any member `body` did not read.
///
/// # Errors
///
/// A syntax error (empty path) or the first field that is missing,
/// mistyped, out of range, non-canonical, duplicated or unknown.
pub fn read_document(text: &str, schema: S, body: Body<'_>) -> JsonResult {
    let doc = parse_json(text).map_err(|msg| Field::root(&Json::Null).err(msg))?;
    Field::root(&doc).object(|o| {
        let mut c = Coder::Read(o);
        c.label("schema", &mut { schema }, [schema])?;
        body(&mut c)
    })
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// `ph:"X"` complete events.
    pub spans: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"C"` counter events.
    pub counters: usize,
    /// Event count per event name.
    pub names: BTreeMap<String, usize>,
}

impl ChromeSummary {
    /// Events recorded under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.names.get(name).copied().unwrap_or(0)
    }
}

/// Parses `text` as Chrome `trace_event` JSON and checks its structural
/// invariants:
///
/// * top level is an object with a `traceEvents` array;
/// * every event has a string `name`/`ph` and integer `ts`; `X` events
///   also carry an integer `dur`;
/// * per track (`tid`), `X` spans nest properly — sorted by start (ties:
///   longest first), every span is either disjoint from or fully contained
///   in the enclosing span.
///
/// # Errors
///
/// Returns the first violated invariant as a message.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut summary = ChromeSummary::default();
    // (tid, ts, dur, name) for the nesting check.
    let mut spans: Vec<(u64, u64, u64, String)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}): missing integer `ts`"))?;
        *summary.names.entry(name.to_owned()).or_insert(0) += 1;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i} ({name}): X without integer `dur`"))?;
                let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
                spans.push((tid, ts, dur, name.to_owned()));
                summary.spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(format!("event {i} ({name}): unsupported ph `{other}`")),
        }
    }
    // Nesting: per tid, spans must form a forest under containment.
    spans.sort_by(|a, b| {
        (a.0, a.1, std::cmp::Reverse(a.2)).cmp(&(b.0, b.1, std::cmp::Reverse(b.2)))
    });
    let mut stack: Vec<(u64, u64, String)> = Vec::new(); // (end, tid, name)
    let mut cur_tid = None;
    for (tid, ts, dur, name) in &spans {
        if cur_tid != Some(*tid) {
            stack.clear();
            cur_tid = Some(*tid);
        }
        while matches!(stack.last(), Some((end, _, _)) if *end <= *ts) {
            stack.pop();
        }
        if let Some((end, _, parent)) = stack.last() {
            if ts + dur > *end {
                return Err(format!(
                    "span `{name}` [{ts}, {}) on track {tid} partially overlaps `{parent}` \
                     ending at {end}",
                    ts + dur
                ));
            }
        }
        stack.push((ts + dur, *tid, name.clone()));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace_json;
    use crate::event::TraceEvent;

    #[test]
    fn parses_scalars_arrays_objects() {
        let v = parse_json(r#"{"a":[1,-2.5,true,null,"x\nA"],"b":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2], Json::Bool(true));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4].as_str(), Some("x\nA"));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn integer_literals_are_exact_and_read_as_f64_as_before() {
        for text in [
            "0",
            "42",
            "9007199254740993",
            "16045690984833335023",
            "18446744073709551615",
        ] {
            let n: u64 = text.parse().unwrap();
            let v = parse_json(text).unwrap();
            assert_eq!(v, Json::Int(n), "{text}");
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.as_f64(), Some(text.parse::<f64>().unwrap()), "{text}");
        }
        // Negative, fractional, exponent and oversized literals stay
        // `f64`s, which the strict reader refuses as integers.
        for text in [
            "-1",
            "-0",
            "2.5",
            "1e3",
            "1E+3",
            "0.5e-2",
            "18446744073709551616",
        ] {
            let v = parse_json(text).unwrap();
            assert_eq!(v, Json::Num(text.parse().unwrap()), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("tru").is_err());
        // Numbers outside the RFC 8259 grammar, alone and inside arrays.
        for text in [
            "007", "-01", "1.", ".5", "1e", "1e+", "+1", "-", "0x10", "1.e3",
        ] {
            assert!(parse_json(text).is_err(), "{text}");
            assert!(parse_json(&format!("[{text}]")).is_err(), "[{text}]");
        }
        // Raw control characters must be escaped inside strings.
        for c in ['\0', '\n', '\t', '\u{1f}'] {
            assert!(parse_json(&format!("\"a{c}b\"")).is_err(), "{c:?}");
        }
        // A high surrogate must be followed by a low one.
        assert!(parse_json("\"\\ud800\\u0041\"").is_err());
    }

    #[test]
    fn decodes_escape_sequences() {
        let v = parse_json(r#""a\"b\\c\/d\b\f\n\r\t""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/d\u{8}\u{c}\n\r\t"));
        // \u escapes: ASCII, BMP, a surrogate pair, and an escaped NUL.
        let v = parse_json("\"\\u0041\\u00e9\\u2603\\ud83d\\ude00\\u0000\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}\u{2603}\u{1f600}\u{0}"));
        // Raw (unescaped) UTF-8 passes through untouched.
        let v = parse_json("\"é☃😀\"").unwrap();
        assert_eq!(v.as_str(), Some("é☃😀"));
        // Malformed escapes are rejected, not mangled.
        assert!(parse_json(r#""\q""#).is_err(), "unknown escape");
        assert!(parse_json(r#""\u12""#).is_err(), "truncated \\u");
        assert!(parse_json(r#""\u12g4""#).is_err(), "non-hex \\u digit");
        assert!(parse_json(r#""\ud800""#).is_err(), "lone high surrogate");
        assert!(parse_json("\"\\").is_err(), "escape at end of input");
    }

    #[test]
    fn deeply_nested_arrays_hit_the_depth_limit() {
        // Exactly at the limit: parses.
        // The outermost value parses at depth 0, so MAX_DEPTH+1 nested
        // arrays still parse; one more trips the guard.
        let ok_depth = 129;
        let ok = format!("{}{}", "[".repeat(ok_depth), "]".repeat(ok_depth));
        assert!(parse_json(&ok).is_ok(), "depth {ok_depth} must parse");
        // One past: rejected with the depth message, not a stack overflow.
        let too_deep = format!("{}{}", "[".repeat(ok_depth + 1), "]".repeat(ok_depth + 1));
        let err = parse_json(&too_deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // Same guard for objects.
        let mut obj = String::new();
        for _ in 0..(ok_depth + 1) {
            obj.push_str("{\"k\":");
        }
        obj.push('0');
        obj.push_str(&"}".repeat(ok_depth + 1));
        let err = parse_json(&obj).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn exporter_output_round_trips() {
        let events = [
            TraceEvent::span("recovery", "recovery", 1000, 100, 50).with_arg("safe_epoch", 2),
            TraceEvent::span("recovery.replay", "recovery", 1000, 110, 20),
            TraceEvent::instant("fault.inject", "fault", 3, 90),
        ];
        let json = chrome_trace_json(&events, None);
        let summary = validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.count("recovery"), 1);
        assert_eq!(summary.count("recovery.replay"), 1);
    }

    #[test]
    fn partial_overlap_is_rejected() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"tid":1}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
        // Same shapes on different tracks are fine.
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"tid":2}
        ]}"#;
        assert!(validate_chrome_trace(json).is_ok());
    }

    #[test]
    fn containment_and_adjacency_pass() {
        let json = r#"{"traceEvents":[
            {"name":"parent","ph":"X","ts":0,"dur":100,"tid":1},
            {"name":"child","ph":"X","ts":10,"dur":20,"tid":1},
            {"name":"sibling","ph":"X","ts":30,"dur":70,"tid":1},
            {"name":"next","ph":"X","ts":100,"dur":5,"tid":1}
        ]}"#;
        let s = validate_chrome_trace(json).unwrap();
        assert_eq!(s.spans, 4);
    }
}
