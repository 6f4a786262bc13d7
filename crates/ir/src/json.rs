//! Shared JSON reader, writer and codec for the EARTH-C toolchain.
//!
//! The workspace builds offline (no serde), so every machine-readable
//! surface — diagnostics ([`crate::diag`]), execution profiles
//! (`earth-profile`), pass reports (`earth-pass`), and the `earthd`
//! wire protocol (`earth-serve`) — encodes through this module: a writer
//! ([`Obj`]) with full string-escape handling, a small recursive-descent
//! reader producing a [`Value`] tree, and a codec, [`Encode`]/[`Decode`]
//! plus [`json_object!`](crate::json_object), which derives both
//! directions from one field list so they cannot drift apart.
//!
//! The encoding is deliberately minimal but is a strict subset of JSON:
//! anything this module writes, any JSON parser reads, and
//! [`parse`] → [`Value::render`] → [`parse`] is the identity on the
//! supported shapes. Every `u64` written reads back as the same `u64`.
//!
//! # Examples
//!
//! ```
//! use earth_ir::json::{self, Value};
//!
//! let v = json::parse(r#"{"name":"tab\there","hits":3,"sub":[1,-2,true,null]}"#).unwrap();
//! let obj = v.as_object("request").unwrap();
//! use earth_ir::json::ObjectExt as _;
//! assert_eq!(obj.get_str("name").unwrap(), "tab\there");
//! assert_eq!(obj.get_u64("hits").unwrap(), 3);
//! // Control characters survive a full round trip.
//! let s = json::string("\u{0000}\u{001f}\"\\");
//! assert_eq!(s, "\"\\u0000\\u001f\\\"\\\\\"");
//! assert_eq!(json::parse(&s).unwrap(), Value::Str("\u{0000}\u{001f}\"\\".into()));
//! ```

use std::fmt;

/// A JSON parse or shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the problem, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A shape (wrong-type / missing-field) error with no position.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "JSON error at byte {o}: {}", self.message),
            None => write!(f, "JSON error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Integer literals that fit an `i64` or a `u64` parse as [`Value::Int`]
/// or [`Value::UInt`], so every counter and id round-trips exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal representable as `i64`.
    Int(i64),
    /// An integer literal above `i64::MAX` representable as `u64`.
    UInt(u64),
    /// Any other numeric literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source field order (duplicate keys are kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or a shape error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], JsonError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(JsonError::shape(format!("{what} must be an object"))),
        }
    }

    /// The array's items, or a shape error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::shape(format!("{what} must be an array"))),
        }
    }

    /// The string's contents, or a shape error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::shape(format!("{what} must be a string"))),
        }
    }

    /// The value as a `u64`, or a shape error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            Value::UInt(n) => Ok(*n),
            _ => Err(JsonError::shape(format!(
                "{what} must be a non-negative integer"
            ))),
        }
    }

    /// Serializes this value back to compact JSON.
    pub fn render(&self) -> String {
        encode(self)
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.encode(out),
            Value::Int(n) => push_int(out, *n),
            Value::UInt(n) => push_int(out, *n),
            Value::Float(x) => push_float(out, *x),
            Value::Str(s) => push_string(out, s),
            Value::Array(items) => items.encode(out),
            Value::Object(fields) => encode_map(out, fields.iter().map(|(k, v)| (k, v))),
        }
    }
}

/// Typed field access over an object's `(key, value)` slice.
pub trait ObjectExt {
    /// The raw value of `key`, if present (first occurrence).
    fn field(&self, key: &str) -> Option<&Value>;
    /// The string field `key`.
    fn get_str(&self, key: &str) -> Result<String, JsonError>;
    /// The non-negative integer field `key` as `u64`.
    fn get_u64(&self, key: &str) -> Result<u64, JsonError>;
    /// The boolean field `key`.
    fn get_bool(&self, key: &str) -> Result<bool, JsonError>;
}

impl ObjectExt for [(String, Value)] {
    fn field(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_str(&self, key: &str) -> Result<String, JsonError> {
        match self.field(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(JsonError::shape(format!("`{key}` must be a string"))),
        }
    }

    fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        match self.field(key) {
            Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
            Some(Value::UInt(n)) => Ok(*n),
            _ => Err(JsonError::shape(format!(
                "`{key}` must be a non-negative integer"
            ))),
        }
    }

    fn get_bool(&self, key: &str) -> Result<bool, JsonError> {
        match self.field(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(JsonError::shape(format!("`{key}` must be a boolean"))),
        }
    }
}

/// Serializes a string as a quoted JSON string literal, escaping `"`,
/// `\`, and every control character in `U+0000`–`U+001F`.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends the escaped, quoted form of `s` to `out` (allocation-free
/// form of [`string`]).
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float as a JSON number literal. Finite values always carry
/// a decimal point or exponent (so they re-parse as [`Value::Float`]);
/// non-finite values, which JSON cannot represent, are written as `null`.
fn push_float(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends an integer's decimal digits to `out` without allocating.
fn push_int(out: &mut String, n: impl fmt::Display) {
    use std::fmt::Write as _;
    let _ = write!(out, "{n}");
}

/// Incremental writer for a JSON object: `{"k":v,...}` with correct
/// commas and escaping. [`Obj::raw`] splices an already-encoded value
/// (a nested object, an array built elsewhere) without re-escaping;
/// [`Obj::field`] writes any [`Encode`] value in place.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    n: usize,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj::append_to(String::new())
    }

    /// Starts an object at the end of `buf`; [`Obj::finish`] returns
    /// `buf` with the object appended. Nested objects are written this
    /// way, straight into their parent's buffer.
    pub fn append_to(mut buf: String) -> Self {
        buf.push('{');
        Obj { buf, n: 0 }
    }

    fn key(&mut self, k: &str) {
        if self.n > 0 {
            self.buf.push(',');
        }
        self.n += 1;
        push_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_string(&mut self.buf, v);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        push_int(&mut self.buf, v);
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        push_int(&mut self.buf, v);
        self
    }

    /// Adds a float field (non-finite values are written as `null`).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        push_float(&mut self.buf, v);
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        v.encode(&mut self.buf);
        self
    }

    /// Adds a field whose value is already-encoded JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Adds a field holding any [`Encode`] value.
    pub fn field<T: Encode + ?Sized>(mut self, k: &str, v: &T) -> Self {
        self.key(k);
        v.encode(&mut self.buf);
        self
    }

    /// Adds a field whose value `write` appends to the buffer.
    pub fn field_with(mut self, k: &str, write: impl FnOnce(&mut String)) -> Self {
        self.key(k);
        write(&mut self.buf);
        self
    }

    /// Closes the object and returns the encoded JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// A value with a JSON encoding, appended straight to an output buffer.
pub trait Encode {
    /// Appends this value's JSON encoding to `out`.
    fn encode(&self, out: &mut String);
}

/// A value that decodes from a parsed JSON [`Value`].
pub trait Decode: Sized {
    /// Whether this is an object: an absent required object is ``missing
    /// `key` `` and a `null` optional one is an error, where other values
    /// read absent as `null` and an optional `null` as `None`.
    const OBJECT: bool = false;

    /// Decodes `v`; `what` names it in errors (a field passes its key in
    /// backticks: ``"`id` must be a non-negative integer"``).
    fn decode(v: &Value, what: &str) -> Result<Self, JsonError>;
}

/// Encodes `v` into a fresh string.
pub fn encode<T: Encode + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.encode(&mut out);
    out
}

/// Parses `src` and decodes it as a `T`.
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed JSON or a mis-shaped value.
pub fn decode<T: Decode>(src: &str) -> Result<T, JsonError> {
    T::decode(&parse(src)?, "document")
}

/// Decodes the required field `key`, named `what` in errors.
///
/// # Errors
///
/// Returns the field's [`JsonError`].
pub fn required<T: Decode>(obj: &[(String, Value)], key: &str, what: &str) -> Result<T, JsonError> {
    match obj.field(key) {
        Some(v) => T::decode(v, what),
        None if T::OBJECT => Err(JsonError::shape(format!("missing `{key}`"))),
        None => T::decode(&Value::Null, what),
    }
}

/// Decodes the optional field `key`, named `what` in errors (`None` when
/// absent; see [`Decode::OBJECT`] for `null`).
///
/// # Errors
///
/// Returns the field's [`JsonError`].
pub fn optional<T: Decode>(
    obj: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<Option<T>, JsonError> {
    match obj.field(key) {
        Some(Value::Null) if !T::OBJECT => Ok(None),
        Some(v) => T::decode(v, what).map(Some),
        None => Ok(None),
    }
}

/// Appends a JSON object with one field per `(key, value)` entry.
pub fn encode_map<'a, K: AsRef<str>, V: Encode + 'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (K, &'a V)>,
) {
    let mut o = Obj::append_to(std::mem::take(out));
    for (k, v) in entries {
        o = o.field(k.as_ref(), v);
    }
    *out = o.finish();
}

/// A custom wire form for one field (the `[with CODEC]` form of
/// [`json_object!`](crate::json_object)), for the few fields whose
/// encoding or error text is not their type's own.
pub trait With<T> {
    /// Appends `v`'s encoding to `out`.
    fn encode(&self, v: &T, out: &mut String);

    /// Decodes the field `key` (`None` when absent).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for a missing or mis-shaped value.
    fn decode(&self, field: Option<&Value>, key: &str) -> Result<T, JsonError>;
}

/// Embedded JSON text (a report kept as a string), re-rendered
/// compactly on decode.
#[derive(Debug, Clone, Copy)]
pub struct Raw;

impl With<String> for Raw {
    fn encode(&self, v: &String, out: &mut String) {
        out.push_str(v);
    }

    fn decode(&self, field: Option<&Value>, key: &str) -> Result<String, JsonError> {
        field
            .map(Value::render)
            .ok_or_else(|| JsonError::shape(format!("missing `{key}`")))
    }
}

/// An array whose bad items all get the error text `self.0`
/// (``output line must be a string``).
#[derive(Debug, Clone, Copy)]
pub struct Items(pub &'static str);

impl<T: Encode + Decode> With<Vec<T>> for Items {
    fn encode(&self, v: &Vec<T>, out: &mut String) {
        v.encode(out);
    }

    fn decode(&self, field: Option<&Value>, key: &str) -> Result<Vec<T>, JsonError> {
        let items = field
            .unwrap_or(&Value::Null)
            .as_array(&format!("`{key}`"))?;
        let bad = |_| JsonError::shape(self.0);
        items
            .iter()
            .map(|item| T::decode(item, "").map_err(bad))
            .collect()
    }
}

/// A `(name, value)` list written as one object and read back sorted by
/// name (a repeated name keeps its last value); values are named
/// `self.0` in errors.
#[derive(Debug, Clone, Copy)]
pub struct SortedMap(pub &'static str);

impl<T: Encode + Decode> With<Vec<(String, T)>> for SortedMap {
    fn encode(&self, v: &Vec<(String, T)>, out: &mut String) {
        encode_map(out, v.iter().map(|(k, item)| (k, item)));
    }

    fn decode(&self, field: Option<&Value>, key: &str) -> Result<Vec<(String, T)>, JsonError> {
        let missing = || JsonError::shape(format!("missing `{key}`"));
        let mut map = std::collections::BTreeMap::new();
        for (k, v) in field.ok_or_else(missing)?.as_object(key)? {
            map.insert(k.clone(), T::decode(v, self.0)?);
        }
        Ok(map.into_iter().collect())
    }
}

/// `Encode`/`Decode` for scalar types, each given as
/// `Type: |value, out| encode, |v, what| decode;`.
macro_rules! scalars {
    ($($t:ty: |$s:ident, $out:ident| $enc:expr, |$v:ident, $what:ident| $dec:expr;)*) => {$(
        impl Encode for $t {
            fn encode(&self, $out: &mut String) {
                let $s = self;
                $enc
            }
        }

        impl Decode for $t {
            fn decode($v: &Value, $what: &str) -> Result<Self, JsonError> {
                $dec
            }
        }
    )*};
}

scalars! {
    bool: |b, out| out.push_str(if *b { "true" } else { "false" }),
        |v, what| match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::shape(format!("{what} must be a boolean"))),
        };
    u64: |n, out| push_int(out, n), |v, what| v.as_u64(what);
    u32: |n, out| push_int(out, n),
        |v, what| u32::try_from(v.as_u64(what)?)
            .map_err(|_| JsonError::shape(format!("{what} must be a u32")));
    u16: |n, out| push_int(out, n),
        |v, what| u16::try_from(v.as_u64(what)?)
            .map_err(|_| JsonError::shape(format!("{what} must fit u16")));
    String: |s, out| push_string(out, s), |v, what| v.as_str(what).map(str::to_string);
}

impl Encode for u128 {
    fn encode(&self, out: &mut String) {
        push_int(out, self);
    }
}

impl Encode for i64 {
    fn encode(&self, out: &mut String) {
        push_int(out, self);
    }
}

impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        push_float(out, *self);
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Box<T> {
    const OBJECT: bool = T::OBJECT;

    fn decode(v: &Value, what: &str) -> Result<Self, JsonError> {
        T::decode(v, what).map(Box::new)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.encode(out);
        }
        out.push(']');
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut String) {
        self[..].encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Value, what: &str) -> Result<Self, JsonError> {
        v.as_array(what)?
            .iter()
            .map(|item| T::decode(item, what))
            .collect()
    }
}

/// Derives [`Encode`] and [`Decode`] for a struct, or the fields of each
/// variant of an enum, from one `field: Type => "key"` list, written and
/// read in list order. An entry may end in a form: `[omit]` (an `Option`
/// left out when `None`), `[null]` (an `Option` written `null` when
/// `None`), `[or EXPR]` (absent or `null` reads as `EXPR`), or
/// `[with CODEC]` (a [`With`] codec). Without one, a field is always
/// written and required. `=> ..` inlines a derived struct's fields and
/// `=> _` keeps a field off the wire. A struct marked `unknown "noun"`
/// reads in input order: absent fields are `Default`, and other keys are
/// errors (``unknown noun `key` ``).
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Job {
///     name: String,
///     nodes: u16,
///     deadline_ms: Option<u64>,
/// }
///
/// earth_ir::json_object! {
///     impl[] Job as "job" {
///         name: String => "name",
///         nodes: u16 => "nodes" [or 1],
///         deadline_ms: Option<u64> => "deadline_ms" [omit],
///     }
/// }
///
/// use earth_ir::json::{decode, encode};
/// let job = Job { name: "a".into(), nodes: 1, deadline_ms: None };
/// assert_eq!(encode(&job), r#"{"name":"a","nodes":1}"#);
/// assert_eq!(decode::<Job>(r#"{"name":"a"}"#).unwrap(), job);
/// assert_eq!(decode::<Job>("{}").unwrap_err().message, "`name` must be a string");
/// ```
///
/// `enum E as name { Variant = "tag" { fields }, … }` gives `E` the
/// public tag getter `name()` and the private methods
/// `write_variant(Obj) -> Obj` and `read_variant(tag, fields)` (`None`
/// for an unknown tag); the caller writes and dispatches on the tag.
#[macro_export]
macro_rules! json_object {
    (impl[$($g:tt)*] $ty:ty as $name:literal {
        $( $f:ident : $fty:ty => $key:tt $([$($form:tt)*])? ),* $(,)?
    }) => {
        $crate::json_object!(@impls [$($g)*] $ty, $name, obj, [$($f)*], {
            Ok(Self { $( $f: $crate::json_object!(@dec obj, $fty, $key, [$($($form)*)?]), )* })
        }, { $( $f => $key [$($($form)*)?] )* });
    };
    (impl[$($g:tt)*] $ty:ty as $name:literal, unknown $noun:literal {
        $( $f:ident : $fty:ty => $key:literal ),* $(,)?
    }) => {
        $crate::json_object!(@impls [$($g)*] $ty, $name, obj, [$($f)*], {
            let mut out = Self::default();
            for (k, v) in obj {
                match k.as_str() {
                    $( $key => out.$f = <$fty as $crate::json::Decode>::decode(
                        v, concat!($noun, " `", $key, "`"))?, )*
                    other => return Err($crate::json::JsonError::shape(
                        format!(concat!("unknown ", $noun, " `{}`"), other))),
                }
            }
            Ok(out)
        }, { $( $f => $key [] )* });
    };
    (enum $ty:ident as $tagfn:ident { $( $var:ident = $tag:literal {
        $( $f:ident : $fty:ty => $key:tt $([$($form:tt)*])? ),* $(,)?
    } ),* $(,)? }) => {
        impl $ty {
            /// The variant's wire tag.
            pub fn $tagfn(&self) -> &'static str {
                match self { $( Self::$var { .. } => $tag, )* }
            }

            #[allow(unused_variables)]
            fn write_variant(&self, mut o: $crate::json::Obj) -> $crate::json::Obj {
                match self { $( Self::$var { $($f,)* } => {
                    $( o = $crate::json_object!(@enc o, $f, $key, [$($($form)*)?]); )*
                } )* }
                o
            }

            fn read_variant(
                tag: &str,
                obj: &[(String, $crate::json::Value)],
            ) -> Result<Option<Self>, $crate::json::JsonError> {
                Ok(Some(match tag {
                    $( $tag => Self::$var { $(
                        $f: $crate::json_object!(@dec obj, $fty, $key, [$($($form)*)?]),
                    )* }, )*
                    _ => return Ok(None),
                }))
            }
        }
    };
    (@impls [$($g:tt)*] $ty:ty, $name:literal, $obj:ident, [$($f:ident)*], $read:block,
        { $( $ef:ident => $key:tt [$($form:tt)*] )* }) => {
        impl<$($g)*> $ty {
            #[doc(hidden)]
            #[allow(unused_variables)]
            pub fn write_fields(&self, mut o: $crate::json::Obj) -> $crate::json::Obj {
                let Self { $($f,)* } = self;
                $( o = $crate::json_object!(@enc o, $ef, $key, [$($form)*]); )*
                o
            }

            #[doc(hidden)]
            pub fn read_fields(
                $obj: &[(String, $crate::json::Value)],
            ) -> Result<Self, $crate::json::JsonError> $read
        }

        impl<$($g)*> $crate::json::Encode for $ty {
            fn encode(&self, out: &mut String) {
                *out = self.write_fields($crate::json::Obj::append_to(std::mem::take(out))).finish();
            }
        }

        impl<$($g)*> $crate::json::Decode for $ty {
            const OBJECT: bool = true;

            fn decode(v: &$crate::json::Value, _: &str) -> Result<Self, $crate::json::JsonError> {
                Self::read_fields(v.as_object($name)?)
            }
        }
    };
    (@enc $o:ident, $f:ident, _, []) => { $o };
    (@enc $o:ident, $f:ident, .., []) => { $f.write_fields($o) };
    (@enc $o:ident, $f:ident, $key:literal, [omit]) => {
        match $f { Some(v) => $o.field($key, v), None => $o }
    };
    (@enc $o:ident, $f:ident, $key:literal, [null]) => {
        match $f { Some(v) => $o.field($key, v), None => $o.raw($key, "null") }
    };
    (@enc $o:ident, $f:ident, $key:literal, [with $codec:expr]) => {
        $o.field_with($key, |out| $crate::json::With::encode(&$codec, $f, out))
    };
    (@enc $o:ident, $f:ident, $key:literal, [$($form:tt)*]) => { $o.field($key, $f) };
    (@dec $obj:ident, $fty:ty, _, []) => { <$fty>::default() };
    (@dec $obj:ident, $fty:ty, .., []) => { <$fty>::read_fields($obj)? };
    (@dec $obj:ident, $fty:ty, $key:literal, []) => {
        $crate::json::required::<$fty>($obj, $key, concat!("`", $key, "`"))?
    };
    (@dec $obj:ident, $fty:ty, $key:literal, [omit]) => {
        $crate::json::optional($obj, $key, concat!("`", $key, "`"))?
    };
    (@dec $obj:ident, $fty:ty, $key:literal, [null]) => {
        $crate::json::optional($obj, $key, concat!("`", $key, "`")).map_err(|mut e| {
            e.message.push_str(" or null");
            e
        })?
    };
    (@dec $obj:ident, $fty:ty, $key:literal, [or $default:expr]) => {
        $crate::json::optional($obj, $key, concat!("`", $key, "`"))?.unwrap_or_else(|| $default)
    };
    (@dec $obj:ident, $fty:ty, $key:literal, [with $codec:expr]) => {
        $crate::json::With::decode(&$codec, $crate::json::ObjectExt::field($obj, $key), $key)?
    };
}

/// Parses a complete JSON document (trailing data is an error).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Nesting bound: the reader is used on untrusted daemon input, so a
/// deeply-nested document must not blow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: Some(self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .src
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &'static [u8], v: Value) -> Result<Value, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.items(b'{', b'}', Self::field).map(Value::Object),
            Some(b'[') => self.items(b'[', b']', Self::value).map(Value::Array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b) if b.is_ascii_digit() || b == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .as_bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice; both are ASCII, so the run ends on a character
                    // boundary of the source.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn field(&mut self) -> Result<(String, Value), JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    /// Parses the comma-separated `item`s between `open` and `close`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.expect(open)?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(items);
                }
                _ => return Err(self.err(format!("expected `,` or `{}`", close as char))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "-42",
            "9007199254740993",
            "1.5",
            "-0.25",
            "\"\"",
            "\"plain\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ];
        for src in cases {
            let v = parse(src).unwrap();
            assert_eq!(v.render(), src, "render of {src}");
            assert_eq!(parse(&v.render()).unwrap(), v, "re-parse of {src}");
        }
    }

    #[test]
    fn control_characters_round_trip() {
        // Every control character, plus the classic escapes.
        let mut s = String::new();
        for cp in 0u32..0x20 {
            s.push(char::from_u32(cp).unwrap());
        }
        s.push_str("\" \\ / λ → 🚀");
        let enc = string(&s);
        // The encoding never contains a raw control character.
        assert!(enc.chars().all(|c| (c as u32) >= 0x20), "{enc:?}");
        assert_eq!(parse(&enc).unwrap(), Value::Str(s));
    }

    #[test]
    fn megabyte_string_decodes_in_linear_time() {
        let unit = "plain ascii, λ → 🚀, \"quoted\" \\ tab\t ";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        let enc = Obj::new().str("source", &s).finish();
        let start = std::time::Instant::now();
        let v = parse(&enc).unwrap();
        let took = start.elapsed();
        assert_eq!(v.as_object("doc").unwrap().get_str("source").unwrap(), s);
        assert!(took < std::time::Duration::from_secs(5), "took {took:?}");
    }

    #[test]
    fn floats_reparse_as_floats() {
        for x in [0.0, 1.0, -3.0, 0.5, 1e300, -2.25] {
            let enc = encode(&x);
            match parse(&enc).unwrap() {
                Value::Float(y) => assert_eq!(x, y, "{enc}"),
                other => panic!("{enc} parsed as {other:?}"),
            }
        }
        assert_eq!(encode(&f64::NAN), "null");
        assert_eq!(encode(&f64::INFINITY), "null");
    }

    #[test]
    fn integers_outside_u64_become_floats() {
        assert_eq!(parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            parse("9223372036854775808").unwrap(),
            Value::UInt(i64::MAX as u64 + 1)
        );
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        for beyond in ["18446744073709551616", "-9223372036854775809"] {
            match parse(beyond).unwrap() {
                Value::Float(_) => {}
                other => panic!("{beyond}: expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_u64_round_trips() {
        for n in [0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let enc = Obj::new().u64("n", n).finish();
            let v = parse(&enc).unwrap();
            assert_eq!(
                v.as_object("doc").unwrap().get_u64("n").unwrap(),
                n,
                "{enc}"
            );
            assert_eq!(v.render(), enc);
            assert_eq!(decode::<u64>(&encode(&n)).unwrap(), n);
        }
        for n in [0, -1, i64::MIN, i64::MAX] {
            assert_eq!(encode(&n), n.to_string());
        }
    }

    #[test]
    fn object_builder_matches_parser() {
        let enc = Obj::new()
            .str("name", "tab\there")
            .u64("hits", 3)
            .i64("delta", -7)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .raw("missing", "null")
            .raw("nested", "[1,2]")
            .field("lines", &vec!["a".to_string(), "b\nc".into()])
            .finish();
        let v = parse(&enc).unwrap();
        let obj = v.as_object("built").unwrap();
        assert_eq!(obj.get_str("name").unwrap(), "tab\there");
        assert_eq!(obj.get_u64("hits").unwrap(), 3);
        assert_eq!(obj.field("delta"), Some(&Value::Int(-7)));
        assert_eq!(obj.field("ratio"), Some(&Value::Float(0.5)));
        assert!(obj.get_bool("ok").unwrap());
        assert_eq!(obj.field("missing"), Some(&Value::Null));
        assert_eq!(
            obj.field("nested")
                .unwrap()
                .as_array("nested")
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            Vec::<String>::decode(obj.field("lines").unwrap(), "lines").unwrap(),
            ["a", "b\nc"]
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "{\"a\":}", "[1,]", "01x", "nul", "tru", "--1", "1.2.3",
            "[1] []",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }
}
