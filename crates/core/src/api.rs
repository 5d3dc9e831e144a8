//! `opm-api/v1`: the versioned what-if query surface.
//!
//! One typed definition of the mode-advisor protocol, shared by every
//! consumer — the `opm serve` daemon, the `opm advise` one-shot path,
//! the `mode_advisor` example (a thin client), and the `opm loadgen`
//! load generator. A [`Request`] carries a batch of [`Query`]s (kernel,
//! problem size, tiling, platform, memory mode); the matching
//! [`Response`] carries one [`QueryResult`] per query — an [`Advice`]
//! (predicted GFLOP/s, per-level traffic, power/energy, recommended
//! mode plus its §6 guideline citation) or a typed [`ApiError`].
//!
//! ## Wire format
//!
//! Frames are length-prefixed JSON: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON, one request or response
//! document per frame ([`write_frame`] / [`read_frame`]). The length
//! prefix is capped at [`MAX_FRAME_LEN`]; oversized, truncated, or
//! non-UTF-8 frames are rejected with a typed [`FrameError`] — never a
//! panic — so a malformed client cannot take the daemon down.
//!
//! ## Compatibility promise
//!
//! * Every document carries `"v": "opm-api/v1"`. A decoder rejects
//!   documents whose version string it does not understand.
//! * Within v1, evolution is additive only: new *optional* fields may
//!   appear, and decoders ignore fields they do not recognize. Existing
//!   fields never change meaning or type.
//! * Responses to the same request bytes are byte-identical whether
//!   computed by `opm advise` or by a daemon (field order and float
//!   formatting are part of the canonical encoding).
//! * Anything breaking bumps the version string; v1 decoding keeps
//!   working unchanged.
//!
//! The encoding is hand-rolled (the build has no crates.io access, so
//! no serde). Encoders write every field of the canonical form straight
//! into one pre-sized `String`. Decoders parse the frame into a [`Json`]
//! document, one flat token list whose strings borrow from the frame
//! text unless they hold an escape, and read typed fields from it
//! through [`JsonRef`] views. Decode and encode are both linear in the
//! frame size: strings are scanned and copied in runs between the bytes
//! that need escaping, so even a frame at [`MAX_FRAME_LEN`] holding one
//! long string decodes in milliseconds.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

/// Protocol version tag carried by every document.
pub const VERSION: &str = "opm-api/v1";

/// Hard cap on one frame's payload length, in both directions (4 MiB).
/// An advice renders to about 720 bytes, so one reply holds at most
/// about 5,800 answered queries; a daemon answers a batch whose reply
/// would exceed the cap with one typed `bad-param` error instead.
pub const MAX_FRAME_LEN: u32 = 4 << 20;

/// Largest integer a wire field (request ids, integral query fields)
/// may carry: 2^53 − 1, the top of the range where every integer is an
/// exact JSON double (JavaScript's `Number.MAX_SAFE_INTEGER`).
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// Decode-error tail for an integer field outside `0..=MAX_EXACT_INT`.
const INT_EXPECTED: &str = "must be a non-negative integer at most 9007199254740991 (2^53 - 1)";

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Typed framing error. Every decode failure is represented here —
/// frame reading must never panic, whatever the peer sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// EOF in the middle of a frame (inside the prefix or the payload).
    Truncated,
    /// The payload is not valid UTF-8.
    Utf8,
    /// Underlying transport error.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Utf8 => write!(f, "frame payload is not valid UTF-8"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {len} bytes exceeds the frame cap"),
        ));
    }
    // One write for prefix + payload: a separate 4-byte write would
    // interact with Nagle's algorithm + delayed ACK on a TCP stream
    // (~40 ms stalls per frame).
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF (the peer
/// closed between frames); EOF *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::Utf8)
}

// ---------------------------------------------------------------------
// JSON documents
// ---------------------------------------------------------------------

/// One token of a parsed [`Json`] document. A container records how
/// many tokens its value spans (itself included), so a lookup steps
/// over a nested value in one move.
#[derive(Debug)]
enum Tok<'a> {
    Null,
    Bool(bool),
    Num(f64),
    /// A string: borrowed from the text unless it held an escape.
    Str(Cow<'a, str>),
    /// An array spanning this many tokens.
    Arr(usize),
    /// An object spanning this many tokens; key and value tokens
    /// alternate after it, in document order.
    Obj(usize),
}

impl Tok<'_> {
    /// Tokens spanned by the value this token starts.
    fn span(&self) -> usize {
        match self {
            Tok::Arr(len) | Tok::Obj(len) => *len,
            _ => 1,
        }
    }
}

/// A parsed JSON document: one flat token list over the text, in
/// document order. The parser is strict; the typed decoders read fields
/// through [`JsonRef`] views of it. Numbers are `f64`.
#[derive(Debug)]
pub struct Json<'a> {
    toks: Vec<Tok<'a>>,
}

/// Maximum nesting depth the parser accepts (defense against stack
/// exhaustion from `[[[[…`).
const MAX_JSON_DEPTH: usize = 64;

impl<'a> Json<'a> {
    /// Parse a JSON document. Strict: exactly one value, surrounded by
    /// optional whitespace; no trailing garbage. Never panics.
    pub fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        // About one token per 16 bytes of a canonical reply.
        let mut toks = Vec::with_capacity(bytes.len() / 16);
        skip_ws(bytes, &mut pos);
        parse_value(bytes, &mut pos, 0, &mut toks)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(Json { toks })
    }

    /// The document's top-level value.
    pub fn root(&self) -> JsonRef<'_, 'a> {
        JsonRef(&self.toks)
    }
}

/// One value of a parsed [`Json`] document: its token followed by the
/// tokens of everything nested in it.
#[derive(Debug, Clone, Copy)]
pub struct JsonRef<'d, 'a>(&'d [Tok<'a>]);

impl<'d, 'a> JsonRef<'d, 'a> {
    /// Object field lookup (first match); `None` on a non-object.
    pub fn get(self, key: &str) -> Option<JsonRef<'d, 'a>> {
        let Tok::Obj(_) = self.0[0] else { return None };
        let mut rest = &self.0[1..];
        while let [Tok::Str(k), value, ..] = rest {
            let (value, tail) = rest[1..].split_at(value.span());
            if k.as_ref() == key {
                return Some(JsonRef(value));
            }
            rest = tail;
        }
        None
    }

    /// Whether this value is `null`.
    pub fn is_null(self) -> bool {
        matches!(self.0[0], Tok::Null)
    }

    /// This value as a finite `f64`.
    pub fn as_f64(self) -> Option<f64> {
        match self.0[0] {
            Tok::Num(v) if v.is_finite() => Some(v),
            _ => None,
        }
    }

    /// This value as a non-negative integer (must be integral and at
    /// most [`MAX_EXACT_INT`]). 2^53 itself is refused: it is also the
    /// double that 2^53 + 1 rounds to, so accepting it would silently
    /// answer a different number than the one sent.
    pub fn as_u64(self) -> Option<u64> {
        match self.0[0] {
            Tok::Num(v)
                if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT_INT as f64 =>
            {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(self) -> Option<&'d str> {
        match &self.0[0] {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(self) -> Option<bool> {
        match self.0[0] {
            Tok::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value's items, in order, if it is an array.
    pub fn as_arr(self) -> Option<impl Iterator<Item = JsonRef<'d, 'a>>> {
        let Tok::Arr(_) = self.0[0] else { return None };
        let mut rest = &self.0[1..];
        Some(std::iter::from_fn(move || {
            let (item, tail) = rest.split_at(rest.first()?.span());
            rest = tail;
            Some(JsonRef(item))
        }))
    }
}

/// Canonical number rendering: integral doubles in the exact range print
/// without a fraction (`3` not `3.0`); everything else uses Rust's
/// shortest-round-trip `Display`. Non-finite values (which valid
/// [`Advice`] never produces) degrade to `null` rather than emit invalid
/// JSON.
fn render_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A string displayed as a quoted JSON string literal: the one escaper
/// shared by the canonical renderer and the telemetry JSONL sink.
/// `"`, `\` and control characters are escaped; the unescaped runs
/// between them are copied whole.
pub(crate) struct JsonStr<'a>(pub(crate) &'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        f.write_str("\"")?;
        let mut run = 0;
        for (i, &byte) in s.as_bytes().iter().enumerate() {
            let escape = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            f.write_str(&s[run..i])?;
            if escape.is_empty() {
                write!(f, "\\u{byte:04x}")?;
            } else {
                f.write_str(escape)?;
            }
            run = i + 1;
        }
        f.write_str(&s[run..])?;
        f.write_str("\"")
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value under `pos`, appending its tokens to `toks`.
fn parse_value<'a>(
    b: &'a [u8],
    pos: &mut usize,
    depth: usize,
    toks: &mut Vec<Tok<'a>>,
) -> Result<(), String> {
    if depth > MAX_JSON_DEPTH {
        return Err("nesting too deep".to_string());
    }
    let tok = match b.get(*pos) {
        None => return Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(b, pos, "null", Tok::Null)?,
        Some(b't') => parse_lit(b, pos, "true", Tok::Bool(true))?,
        Some(b'f') => parse_lit(b, pos, "false", Tok::Bool(false))?,
        Some(b'"') => Tok::Str(parse_string(b, pos)?),
        Some(b'[') => {
            *pos += 1;
            let at = toks.len();
            toks.push(Tok::Arr(0));
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
            } else {
                loop {
                    skip_ws(b, pos);
                    parse_value(b, pos, depth + 1, toks)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            toks[at] = Tok::Arr(toks.len() - at);
            return Ok(());
        }
        Some(b'{') => {
            *pos += 1;
            let at = toks.len();
            toks.push(Tok::Obj(0));
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
            } else {
                loop {
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b'"') {
                        return Err(format!("expected object key at byte {pos}"));
                    }
                    toks.push(Tok::Str(parse_string(b, pos)?));
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    skip_ws(b, pos);
                    parse_value(b, pos, depth + 1, toks)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            break;
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            toks[at] = Tok::Obj(toks.len() - at);
            return Ok(());
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => Tok::Num(parse_number(b, pos)?),
        Some(c) => return Err(format!("unexpected byte {c:#04x} at {pos}")),
    };
    toks.push(tok);
    Ok(())
}

fn parse_lit<T>(b: &[u8], pos: &mut usize, lit: &str, value: T) -> Result<T, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    // `f64::from_str` also takes `01`, `1.`, `-.5` and `1.e5`: check the
    // JSON grammar first.
    if !is_json_number(text.as_bytes()) {
        return Err(format!("invalid number {text:?} at byte {start}"));
    }
    let v: f64 = text
        .parse()
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if !v.is_finite() {
        return Err(format!("non-finite number {text:?} at byte {start}"));
    }
    Ok(v)
}

/// Whether `s` is exactly one RFC 8259 number:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(s: &[u8]) -> bool {
    let mut i = 0;
    let digits = |i: &mut usize| {
        let from = *i;
        while s.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    if s.get(i) == Some(&b'-') {
        i += 1;
    }
    match s.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if s.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(s.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == s.len()
}

/// Decode the string literal starting at the `"` under `pos`. Linear in
/// its length: each run of plain characters up to the next `"`, `\` or
/// control byte is validated and copied once. All three stop bytes are
/// ASCII, so every run starts and ends on a char boundary. A string
/// without escapes is borrowed from `b`, not copied.
fn parse_string<'a>(b: &'a [u8], pos: &mut usize) -> Result<Cow<'a, str>, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let start = *pos;
    let mut out = Cow::Borrowed("");
    loop {
        let run = *pos;
        *pos += b[run..]
            .iter()
            .position(|&c| matches!(c, b'"' | b'\\' | 0..=0x1f))
            .unwrap_or(b.len() - run);
        let text = std::str::from_utf8(&b[run..*pos]).map_err(|_| "bad utf-8".to_string())?;
        if run == start {
            out = Cow::Borrowed(text);
        } else {
            out.to_mut().push_str(text);
        }
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                let escape = b.get(*pos + 1);
                *pos += 2;
                let out = out.to_mut();
                match escape {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let cp = hex4(b, *pos)?;
                        *pos += 4;
                        // Surrogate pair handling: a high surrogate must
                        // be followed by \uDCxx; lone surrogates are
                        // replaced (never a panic).
                        if (0xd800..0xdc00).contains(&cp) {
                            let lo = match b.get(*pos..*pos + 2) {
                                Some(b"\\u") => hex4(b, *pos + 2).ok(),
                                _ => None,
                            };
                            match lo {
                                Some(lo) if (0xdc00..0xe000).contains(&lo) => {
                                    let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
                                    *pos += 6;
                                }
                                _ => out.push('\u{fffd}'),
                            }
                        } else {
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err("invalid escape".to_string()),
                }
            }
            Some(_) => return Err("raw control character in string".to_string()),
        }
    }
}

/// The code unit of a `\u` escape: exactly four ASCII hex digits at
/// `at` (no sign, unlike `u32::from_str_radix`).
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .ok_or("truncated \\u escape".to_string())?;
    digits.iter().try_fold(0, |cp, &d| {
        let d = (d as char)
            .to_digit(16)
            .ok_or("bad \\u escape".to_string())?;
        Ok(cp << 4 | d)
    })
}

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

/// One what-if query: a kernel, the OPM configuration to evaluate it
/// under, and the problem/tiling/threading parameters. Every parameter
/// is optional; the server substitutes its documented defaults (the
/// same defaults as `opm model`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Kernel name (case-insensitive): `GEMM`, `Cholesky`, `SpMV`,
    /// `SpTRANS`, `SpTRSV`, `FFT`, `Stencil`, `Stream`.
    pub kernel: String,
    /// Configuration label: `brd-no-edram`, `brd-edram`, `knl-ddr`,
    /// `knl-flat`, `knl-cache`, `knl-hybrid`.
    pub config: String,
    /// Dense matrix order / FFT cube edge (kernel-dependent).
    pub n: Option<u64>,
    /// Dense tile size.
    pub tile: Option<u64>,
    /// Sparse matrix rows.
    pub rows: Option<u64>,
    /// Sparse non-zeros.
    pub nnz: Option<u64>,
    /// Stencil grid edge.
    pub grid: Option<u64>,
    /// Threads (default: the kernel's paper-tuned thread count).
    pub threads: Option<u64>,
    /// Sparse average column span.
    pub span: Option<f64>,
    /// SpTRSV dependency-level count.
    pub levels: Option<f64>,
    /// Stream footprint in MiB.
    pub footprint_mb: Option<f64>,
    /// Hot working-set size in MiB (guideline recommendation input;
    /// default = the profile footprint).
    pub hot_mb: Option<f64>,
    /// Whether the workload is latency bound (guideline input; default
    /// is derived from the kernel).
    pub latency_bound: Option<bool>,
}

impl Query {
    fn render_into(&self, out: &mut String) {
        out.push_str("{\"kernel\":");
        push_str_lit(out, &self.kernel);
        push_str_field(out, "config", &self.config);
        for (name, v) in [
            ("n", self.n),
            ("tile", self.tile),
            ("rows", self.rows),
            ("nnz", self.nnz),
            ("grid", self.grid),
            ("threads", self.threads),
        ] {
            if let Some(v) = v {
                push_num_field(out, name, v as f64);
            }
        }
        for (name, v) in [
            ("span", self.span),
            ("levels", self.levels),
            ("footprint_mb", self.footprint_mb),
            ("hot_mb", self.hot_mb),
        ] {
            if let Some(v) = v {
                push_num_field(out, name, v);
            }
        }
        if let Some(lb) = self.latency_bound {
            out.push_str(",\"latency_bound\":");
            out.push_str(if lb { "true" } else { "false" });
        }
        out.push('}');
    }

    fn from_json(obj: JsonRef) -> Result<Query, String> {
        if !matches!(obj.0[0], Tok::Obj(_)) {
            return Err("query must be an object".to_string());
        }
        let field_u64 = |name: &str| -> Result<Option<u64>, String> {
            match obj.get(name) {
                Some(v) if !v.is_null() => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("query field {name:?} {INT_EXPECTED}")),
                _ => Ok(None),
            }
        };
        let field_f64 = |name: &str| -> Result<Option<f64>, String> {
            match obj.get(name) {
                Some(v) if !v.is_null() => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("query field {name:?} must be a number")),
                _ => Ok(None),
            }
        };
        Ok(Query {
            kernel: obj
                .get("kernel")
                .and_then(JsonRef::as_str)
                .ok_or("query needs a string \"kernel\"")?
                .to_string(),
            config: obj
                .get("config")
                .and_then(JsonRef::as_str)
                .ok_or("query needs a string \"config\"")?
                .to_string(),
            n: field_u64("n")?,
            tile: field_u64("tile")?,
            rows: field_u64("rows")?,
            nnz: field_u64("nnz")?,
            grid: field_u64("grid")?,
            threads: field_u64("threads")?,
            span: field_f64("span")?,
            levels: field_f64("levels")?,
            footprint_mb: field_f64("footprint_mb")?,
            hot_mb: field_f64("hot_mb")?,
            latency_bound: match obj.get("latency_bound") {
                Some(v) if !v.is_null() => Some(
                    v.as_bool()
                        .ok_or("query field \"latency_bound\" must be a bool")?,
                ),
                _ => None,
            },
        })
    }
}

/// A batched request: one frame, many queries, answered in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response. Ids ride
    /// a JSON double on the wire, which is exact only up to 2^53 − 1
    /// ([`MAX_EXACT_INT`]); larger values are rejected by the decoder.
    pub id: u64,
    /// The queries, answered positionally.
    pub queries: Vec<Query>,
    /// Ask the daemon to drain and exit after answering this request
    /// (used by `opm loadgen --shutdown` and the CI smoke job; a
    /// one-shot `opm advise` ignores it).
    pub shutdown: bool,
}

impl Request {
    /// Canonical JSON encoding.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(reply_capacity(64, 128, self.queries.len()));
        push_head(&mut out, self.id);
        if self.shutdown {
            out.push_str(",\"shutdown\":true");
        }
        out.push_str(",\"queries\":[");
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            q.render_into(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Strict decode (version checked; unknown fields ignored per the
    /// compatibility promise).
    pub fn parse(text: &str) -> Result<Request, String> {
        let doc = Json::parse(text)?;
        let j = doc.root();
        check_version(j)?;
        let id = decode_id(j)?;
        let shutdown = match j.get("shutdown") {
            Some(v) if !v.is_null() => v.as_bool().ok_or("\"shutdown\" must be a bool")?,
            _ => false,
        };
        let queries = match j.get("queries") {
            Some(v) if !v.is_null() => v
                .as_arr()
                .ok_or("\"queries\" must be an array")?
                .map(Query::from_json)
                .collect::<Result<Vec<Query>, String>>()?,
            _ => Vec::new(),
        };
        Ok(Request {
            id,
            queries,
            shutdown,
        })
    }
}

fn check_version(j: JsonRef) -> Result<(), String> {
    match j.get("v").and_then(JsonRef::as_str) {
        Some(v) if v == VERSION => Ok(()),
        Some(v) => Err(format!(
            "unsupported protocol version {v:?} (this is {VERSION})"
        )),
        None => Err(format!("missing \"v\" (expected {VERSION:?})")),
    }
}

fn decode_id(j: JsonRef) -> Result<u64, String> {
    match j.get("id") {
        Some(v) if !v.is_null() => v.as_u64().ok_or_else(|| format!("\"id\" {INT_EXPECTED}")),
        _ => Ok(0),
    }
}

/// A pre-sized output buffer for a document of `per_item` bytes per
/// batch item, capped at the frame cap (a larger reply is refused
/// whole).
fn reply_capacity(head: usize, per_item: usize, items: usize) -> usize {
    items
        .saturating_mul(per_item)
        .saturating_add(head)
        .min(MAX_FRAME_LEN as usize)
}

/// `{"v":"opm-api/v1","id":<id>`, the opening every document shares.
fn push_head(out: &mut String, id: u64) {
    out.push_str("{\"v\":");
    push_str_lit(out, VERSION);
    out.push_str(",\"id\":");
    render_num(id as f64, out);
}

/// Append `s` as a quoted JSON string literal.
fn push_str_lit(out: &mut String, s: &str) {
    let _ = write!(out, "{}", JsonStr(s));
}

/// Append `,"<name>":<v>`; `name` needs no escaping.
fn push_num_field(out: &mut String, name: &str, v: f64) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    render_num(v, out);
}

/// Append `,"<name>":<s>`; `name` needs no escaping.
fn push_str_field(out: &mut String, name: &str, s: &str) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    push_str_lit(out, s);
}

// ---------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------

/// Per-level traffic attribution of one query's estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelTraffic {
    /// Serving level name (`L1`, `L2`, `MCDRAM-flat`, `DRAM`, ...).
    pub level: String,
    /// Bytes served by the level.
    pub bytes: f64,
    /// Service time attributed to the level, ns.
    pub time_ns: f64,
}

/// The advisor's answer to one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Advice {
    /// Canonical kernel name.
    pub kernel: String,
    /// Evaluated configuration label.
    pub config: String,
    /// Profile footprint, MiB.
    pub footprint_mb: f64,
    /// Modeled execution time, ms.
    pub time_ms: f64,
    /// Delivered throughput, GFLOP/s.
    pub gflops: f64,
    /// Effective data bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Bytes served by off-package DRAM, MiB.
    pub dram_mb: f64,
    /// Bytes served by on-package memory, MiB.
    pub opm_mb: f64,
    /// Per-level traffic breakdown.
    pub level_traffic: Vec<LevelTraffic>,
    /// Average package power, W.
    pub package_w: f64,
    /// Average DRAM power, W.
    pub dram_w: f64,
    /// Energy to solution, J.
    pub energy_j: f64,
    /// Recommended memory mode for this workload shape (`flat`,
    /// `cache`, `hybrid`, `ddr`, `edram-on`, `edram-off`).
    pub recommended_mode: String,
    /// Guideline citation backing the recommendation, e.g.
    /// `paper §6 guideline II`.
    pub guideline: String,
    /// Human-readable explanation.
    pub explanation: String,
}

impl Advice {
    fn render_into(&self, out: &mut String) {
        out.push_str("{\"kernel\":");
        push_str_lit(out, &self.kernel);
        push_str_field(out, "config", &self.config);
        for (name, v) in [
            ("footprint_mb", self.footprint_mb),
            ("time_ms", self.time_ms),
            ("gflops", self.gflops),
            ("bandwidth_gbs", self.bandwidth_gbs),
            ("dram_mb", self.dram_mb),
            ("opm_mb", self.opm_mb),
        ] {
            push_num_field(out, name, v);
        }
        out.push_str(",\"level_traffic\":[");
        for (i, lt) in self.level_traffic.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"level\":");
            push_str_lit(out, &lt.level);
            push_num_field(out, "bytes", lt.bytes);
            push_num_field(out, "time_ns", lt.time_ns);
            out.push('}');
        }
        out.push(']');
        for (name, v) in [
            ("package_w", self.package_w),
            ("dram_w", self.dram_w),
            ("energy_j", self.energy_j),
        ] {
            push_num_field(out, name, v);
        }
        push_str_field(out, "recommended_mode", &self.recommended_mode);
        push_str_field(out, "guideline", &self.guideline);
        push_str_field(out, "explanation", &self.explanation);
        out.push('}');
    }

    fn from_json(j: JsonRef) -> Result<Advice, String> {
        let s = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(JsonRef::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("advice field {name:?} must be a string"))
        };
        let n = |name: &str| -> Result<f64, String> {
            j.get(name)
                .and_then(JsonRef::as_f64)
                .ok_or_else(|| format!("advice field {name:?} must be a number"))
        };
        let level_traffic = match j.get("level_traffic") {
            Some(v) if !v.is_null() => v
                .as_arr()
                .ok_or("\"level_traffic\" must be an array")?
                .map(|lt| {
                    Ok(LevelTraffic {
                        level: lt
                            .get("level")
                            .and_then(JsonRef::as_str)
                            .ok_or("level_traffic entry needs a string \"level\"")?
                            .to_string(),
                        bytes: lt
                            .get("bytes")
                            .and_then(JsonRef::as_f64)
                            .ok_or("level_traffic entry needs a numeric \"bytes\"")?,
                        time_ns: lt
                            .get("time_ns")
                            .and_then(JsonRef::as_f64)
                            .ok_or("level_traffic entry needs a numeric \"time_ns\"")?,
                    })
                })
                .collect::<Result<Vec<LevelTraffic>, String>>()?,
            _ => Vec::new(),
        };
        Ok(Advice {
            kernel: s("kernel")?,
            config: s("config")?,
            footprint_mb: n("footprint_mb")?,
            time_ms: n("time_ms")?,
            gflops: n("gflops")?,
            bandwidth_gbs: n("bandwidth_gbs")?,
            dram_mb: n("dram_mb")?,
            opm_mb: n("opm_mb")?,
            level_traffic,
            package_w: n("package_w")?,
            dram_w: n("dram_w")?,
            energy_j: n("energy_j")?,
            recommended_mode: s("recommended_mode")?,
            guideline: s("guideline")?,
            explanation: s("explanation")?,
        })
    }
}

/// Typed query/request failure. `kind` strings on the wire:
/// `overloaded`, `malformed`, `unknown-kernel`, `unknown-config`,
/// `bad-param`, `internal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The daemon's bounded queue is full; the request was load-shed.
    /// Retry with backoff.
    Overloaded,
    /// The frame or document could not be decoded.
    Malformed(String),
    /// The query named a kernel the advisor does not know.
    UnknownKernel(String),
    /// The query named a configuration label the advisor does not know.
    UnknownConfig(String),
    /// A parameter was present but unusable (e.g. zero problem size).
    BadParam(String),
    /// The advisor failed internally (a bug — the detail names it).
    Internal(String),
}

impl ApiError {
    /// Stable wire identifier.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::Overloaded => "overloaded",
            ApiError::Malformed(_) => "malformed",
            ApiError::UnknownKernel(_) => "unknown-kernel",
            ApiError::UnknownConfig(_) => "unknown-config",
            ApiError::BadParam(_) => "bad-param",
            ApiError::Internal(_) => "internal",
        }
    }

    /// Human-readable detail (empty for [`ApiError::Overloaded`]).
    pub fn detail(&self) -> &str {
        match self {
            ApiError::Overloaded => "",
            ApiError::Malformed(d)
            | ApiError::UnknownKernel(d)
            | ApiError::UnknownConfig(d)
            | ApiError::BadParam(d)
            | ApiError::Internal(d) => d,
        }
    }

    fn from_parts(kind: &str, detail: &str) -> Result<ApiError, String> {
        Ok(match kind {
            "overloaded" => ApiError::Overloaded,
            "malformed" => ApiError::Malformed(detail.to_string()),
            "unknown-kernel" => ApiError::UnknownKernel(detail.to_string()),
            "unknown-config" => ApiError::UnknownConfig(detail.to_string()),
            "bad-param" => ApiError::BadParam(detail.to_string()),
            "internal" => ApiError::Internal(detail.to_string()),
            other => return Err(format!("unknown error kind {other:?}")),
        })
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let detail = self.detail();
        if detail.is_empty() {
            write!(f, "{}", self.kind())
        } else {
            write!(f, "{}: {}", self.kind(), detail)
        }
    }
}

impl std::error::Error for ApiError {}

/// One query's outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// The advisor answered.
    Ok(Box<Advice>),
    /// The query (or the whole request) failed.
    Err(ApiError),
}

/// A response frame: the request's id plus one result per query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Response {
    /// Correlation id echoed from the request.
    pub id: u64,
    /// Positional results.
    pub results: Vec<QueryResult>,
}

impl Response {
    /// Canonical JSON encoding — the *byte-identity surface*: the same
    /// request must produce the same bytes from `opm advise` and from a
    /// daemon.
    pub fn render(&self) -> String {
        // An advice renders to about 720 bytes.
        let mut out = String::with_capacity(reply_capacity(64, 768, self.results.len()));
        push_head(&mut out, self.id);
        out.push_str(",\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match r {
                QueryResult::Ok(a) => {
                    out.push_str("{\"ok\":");
                    a.render_into(&mut out);
                }
                QueryResult::Err(e) => {
                    out.push_str("{\"err\":{\"kind\":");
                    push_str_lit(&mut out, e.kind());
                    push_str_field(&mut out, "detail", e.detail());
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Strict decode (version checked; unknown fields ignored).
    pub fn parse(text: &str) -> Result<Response, String> {
        let doc = Json::parse(text)?;
        let j = doc.root();
        check_version(j)?;
        let id = decode_id(j)?;
        let results = match j.get("results") {
            Some(v) if !v.is_null() => v
                .as_arr()
                .ok_or("\"results\" must be an array")?
                .map(|r| {
                    if let Some(ok) = r.get("ok") {
                        return Advice::from_json(ok).map(|a| QueryResult::Ok(Box::new(a)));
                    }
                    if let Some(err) = r.get("err") {
                        let kind = err
                            .get("kind")
                            .and_then(JsonRef::as_str)
                            .ok_or("error result needs a string \"kind\"")?;
                        let detail = err.get("detail").and_then(JsonRef::as_str).unwrap_or("");
                        return ApiError::from_parts(kind, detail).map(QueryResult::Err);
                    }
                    Err("result must carry \"ok\" or \"err\"".to_string())
                })
                .collect::<Result<Vec<QueryResult>, String>>()?,
            _ => Vec::new(),
        };
        Ok(Response { id, results })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_query() -> Query {
        Query {
            kernel: "GEMM".into(),
            config: "knl-flat".into(),
            n: Some(8192),
            tile: Some(384),
            threads: Some(256),
            ..Query::default()
        }
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 42,
            queries: vec![
                sample_query(),
                Query {
                    kernel: "SpTRSV".into(),
                    config: "knl-ddr".into(),
                    rows: Some(1_000_000),
                    nnz: Some(15_000_000),
                    span: Some(400_000.0),
                    levels: Some(300.0),
                    latency_bound: Some(true),
                    ..Query::default()
                },
            ],
            shutdown: false,
        };
        let text = req.render();
        assert_eq!(Request::parse(&text).unwrap(), req);
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: 7,
            results: vec![
                QueryResult::Ok(Box::new(Advice {
                    kernel: "GEMM".into(),
                    config: "knl-flat".into(),
                    footprint_mb: 1536.5,
                    time_ms: 12.25,
                    gflops: 1234.0625,
                    bandwidth_gbs: 300.5,
                    dram_mb: 10.0,
                    opm_mb: 1500.0,
                    level_traffic: vec![LevelTraffic {
                        level: "L2".into(),
                        bytes: 4096.0,
                        time_ns: 17.5,
                    }],
                    package_w: 200.0,
                    dram_w: 12.5,
                    energy_j: 2.625,
                    recommended_mode: "flat".into(),
                    guideline: "paper §6 guideline II".into(),
                    explanation: "fits MCDRAM".into(),
                })),
                QueryResult::Err(ApiError::Overloaded),
                QueryResult::Err(ApiError::UnknownKernel("DGEMV".into())),
            ],
        };
        let text = resp.render();
        assert_eq!(Response::parse(&text).unwrap(), resp);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let req = Request::default()
            .render()
            .replace("opm-api/v1", "opm-api/v9");
        assert!(Request::parse(&req).unwrap_err().contains("version"));
        assert!(Request::parse("{\"id\":1}").unwrap_err().contains("v"));
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compat() {
        let text = "{\"v\":\"opm-api/v1\",\"id\":3,\"future\":true,\"queries\":[{\"kernel\":\"Stream\",\"config\":\"brd-edram\",\"novel\":1}]}";
        let req = Request::parse(text).unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(req.queries[0].kernel, "Stream");
    }

    #[test]
    fn malformed_documents_error_cleanly() {
        for text in [
            "",
            "{",
            "[1,2",
            "{\"v\":3}",
            "{\"v\":\"opm-api/v1\",\"queries\":7}",
            "{\"v\":\"opm-api/v1\",\"queries\":[{\"kernel\":7,\"config\":\"x\"}]}",
            "nul",
            "{\"v\":\"opm-api/v1\"} trailing",
            "\u{0}\u{1}",
            r#"{"v":"opm-api/v1","queries":[{"kernel":"\u+041","config":"knl-flat"}]}"#,
            r#"{"v":"opm-api/v1","queries":[{"kernel":"\ud83d\u+e00","config":"knl-flat"}]}"#,
            r#"{"v":"opm-api/v1","id":01}"#,
            r#"{"v":"opm-api/v1","id":1.}"#,
            r#"{"v":"opm-api/v1","queries":[{"kernel":"GEMM","config":"knl-flat","span":-.5}]}"#,
            r#"{"v":"opm-api/v1","queries":[{"kernel":"GEMM","config":"knl-flat","span":1.e5}]}"#,
        ] {
            assert!(Request::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let mut text = String::new();
        for _ in 0..100_000 {
            text.push('[');
        }
        assert!(Json::parse(&text).is_err());
    }

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        // EOF inside the prefix.
        let mut r: &[u8] = &[0, 0];
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
        // EOF inside the payload.
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(6);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r), Err(FrameError::Truncated));
        // Oversized length prefix.
        let mut r: &[u8] = &u32::MAX.to_be_bytes();
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
        // Non-UTF-8 payload.
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r), Err(FrameError::Utf8));
    }

    #[test]
    fn canonical_numbers_render_integers_without_fraction() {
        let num = |v: f64| {
            let mut out = String::new();
            render_num(v, &mut out);
            out
        };
        assert_eq!(num(3.0), "3");
        assert_eq!(num(-2.0), "-2");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{0008}\u{1F600} é";
        let text = JsonStr(s).to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.root().as_str(), Some(s));
    }

    #[test]
    fn json_str_escapes_quotes_and_controls() {
        assert_eq!(JsonStr("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(JsonStr("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(
            JsonStr("\r\t\u{1f}é\u{7f}").to_string(),
            "\"\\r\\t\\u001fé\u{7f}\""
        );
        assert_eq!(JsonStr("").to_string(), "\"\"");
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for text in ["-01", "1e", "1e+", "-", "+1", ".5", "1..2", "0x10", "1E5.5"] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
        for (text, v) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-1.25", -1.25),
            ("1e5", 1e5),
            ("2.5E-3", 2.5e-3),
            ("0.5e+1", 5.0),
        ] {
            let doc = Json::parse(text).unwrap();
            assert_eq!(doc.root().as_f64(), Some(v), "{text}");
        }
    }

    /// The decoder this module shipped before strings were decoded in
    /// runs: one UTF-8 check of the rest of the document per character.
    /// Kept as the oracle of `string_decoder_matches_the_per_character_oracle`.
    fn parse_string_per_char(b: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            *pos += 4;
                            if (0xd800..0xdc00).contains(&cp) {
                                if b.get(*pos + 1..*pos + 3) == Some(b"\\u") {
                                    if let Some(lo_hex) = b.get(*pos + 3..*pos + 7) {
                                        if let Ok(lo_hex) = std::str::from_utf8(lo_hex) {
                                            if let Ok(lo) = u32::from_str_radix(lo_hex, 16) {
                                                if (0xdc00..0xe000).contains(&lo) {
                                                    let c = 0x10000
                                                        + ((cp - 0xd800) << 10)
                                                        + (lo - 0xdc00);
                                                    out.push(
                                                        char::from_u32(c).unwrap_or('\u{fffd}'),
                                                    );
                                                    *pos += 7;
                                                    continue;
                                                }
                                            }
                                        }
                                    }
                                }
                                out.push('\u{fffd}');
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            }
                        }
                        _ => return Err("invalid escape".to_string()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let rest =
                        std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf-8".to_string())?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or("unterminated string".to_string())?;
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".to_string());
                    }
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// One piece of a generated string literal, chosen by `kind` and
    /// filled from `bits`.
    fn literal_piece(kind: u64, bits: u64) -> String {
        const HEX: &[u8] = b"0123456789abcdefABCDEF";
        let hex = |n: usize| -> String {
            (0..n)
                .map(|i| HEX[(bits >> (5 * i)) as usize % HEX.len()] as char)
                .collect()
        };
        let unit = |lo: u64, span: u64| format!("\\u{:04X}", lo + bits % span);
        match kind {
            // Plain ASCII. `+` is left out: the oracle accepts `\u+041`
            // (a bug the run decoder fixes; see the malformed cases).
            0 => {
                let c = (0x20 + bits % 0x5f) as u8 as char;
                if matches!(c, '"' | '\\' | '+') {
                    "a".into()
                } else {
                    c.into()
                }
            }
            1 => [
                "é",
                "ß",
                "€",
                "中",
                "😀",
                "\u{10ffff}",
                "\u{7f}",
                "\u{80}",
                "\u{2028}",
            ][bits as usize % 9]
                .into(),
            2 => {
                ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"][bits as usize % 8].into()
            }
            3 => format!("\\u{}", hex(4)),
            4 => unit(0xd800, 0x400) + &unit(0xdc00, 0x400),
            5 => unit(0xd800, 0x400),
            6 => unit(0xdc00, 0x400),
            7 => char::from((bits % 0x20) as u8).into(),
            8 => {
                ["\\", "\\x", "\\u", "\\U0041"][bits as usize % 4].to_string()
                    + &hex(bits as usize % 4)
            }
            _ => "\"".into(),
        }
    }

    fn arb_literal() -> impl Strategy<Value = String> {
        (
            collection::vec((0u64..10, 0u64..u64::MAX), 0..24),
            0u64..2,
            0usize..512,
        )
            .prop_map(|(pieces, closed, cut)| {
                let mut text = String::from("\"");
                for (kind, bits) in pieces {
                    text += &literal_piece(kind, bits);
                }
                if closed == 1 {
                    text.push('"');
                }
                // Truncate at a char boundary (the input is a `&str`).
                let mut cut = cut.min(text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut.max(1));
                text
            })
    }

    fn arb_string() -> impl Strategy<Value = String> {
        collection::vec(0u64..u64::MAX, 0..40).prop_map(|units| {
            units
                .into_iter()
                .map(|u| match u % 4 {
                    0 => char::from((u >> 8) as u8 % 0x80),
                    1 => char::from_u32((u >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                    _ => ['"', '\\', '\n', '\u{0}', 'x', 'é', '😀'][(u >> 8) as usize % 7],
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn string_decoder_matches_the_per_character_oracle(text in arb_literal()) {
            let b = text.as_bytes();
            let (mut fast_pos, mut oracle_pos) = (0, 0);
            let fast = parse_string(b, &mut fast_pos);
            let oracle = parse_string_per_char(b, &mut oracle_pos);
            match (&fast, &oracle) {
                (Ok(f), Ok(o)) => {
                    prop_assert_eq!(f, o, "{:?}", text);
                    prop_assert_eq!(fast_pos, oracle_pos, "{:?}", text);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("{text:?}: run decoder {fast:?}, oracle {oracle:?}"),
            }
        }

        #[test]
        fn render_then_parse_is_the_identity(s in arb_string(), bits in 0u64..u64::MAX) {
            let rendered = JsonStr(&s).to_string();
            let doc = Json::parse(&rendered).unwrap();
            prop_assert_eq!(doc.root().as_str(), Some(s.as_str()));
            let v = f64::from_bits(bits);
            let v = if v.is_finite() { v } else { bits as f64 };
            for v in [v, v.trunc(), (bits >> 11) as f64, (bits % 1_000_000) as f64 / 64.0] {
                let mut rendered = String::new();
                render_num(v, &mut rendered);
                let doc = Json::parse(&rendered).unwrap();
                prop_assert_eq!(doc.root().as_f64(), Some(v), "{}", rendered);
            }
        }
    }

    // -----------------------------------------------------------------
    // The tree codec this module shipped before the token document and
    // the direct encoders: every value and field became an owned node.
    // Kept as the oracle of the render and decode differentials below.
    // -----------------------------------------------------------------

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Tree>),
        Obj(Vec<(String, Tree)>),
    }

    impl Tree {
        fn parse(text: &str) -> Result<Tree, String> {
            let bytes = text.as_bytes();
            let mut pos = 0;
            skip_ws(bytes, &mut pos);
            let v = tree_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(v)
        }

        fn render(&self) -> String {
            let mut out = String::new();
            self.render_into(&mut out);
            out
        }

        fn render_into(&self, out: &mut String) {
            match self {
                Tree::Null => out.push_str("null"),
                Tree::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Tree::Num(v) => render_num(*v, out),
                Tree::Str(s) => {
                    let _ = write!(out, "{}", JsonStr(s));
                }
                Tree::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.render_into(out);
                    }
                    out.push(']');
                }
                Tree::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}:", JsonStr(k));
                        v.render_into(out);
                    }
                    out.push('}');
                }
            }
        }

        fn get(&self, key: &str) -> Option<&Tree> {
            match self {
                Tree::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn as_f64(&self) -> Option<f64> {
            match self {
                Tree::Num(v) if v.is_finite() => Some(*v),
                _ => None,
            }
        }

        fn as_u64(&self) -> Option<u64> {
            match self {
                Tree::Num(v)
                    if v.is_finite()
                        && *v >= 0.0
                        && v.fract() == 0.0
                        && *v <= MAX_EXACT_INT as f64 =>
                {
                    Some(*v as u64)
                }
                _ => None,
            }
        }

        fn as_str(&self) -> Option<&str> {
            match self {
                Tree::Str(s) => Some(s),
                _ => None,
            }
        }

        fn as_bool(&self) -> Option<bool> {
            match self {
                Tree::Bool(b) => Some(*b),
                _ => None,
            }
        }

        fn as_arr(&self) -> Option<&[Tree]> {
            match self {
                Tree::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    fn tree_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Tree, String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match b.get(*pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => parse_lit(b, pos, "null", Tree::Null),
            Some(b't') => parse_lit(b, pos, "true", Tree::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Tree::Bool(false)),
            Some(b'"') => parse_string(b, pos).map(|s| Tree::Str(s.into_owned())),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Tree::Arr(items));
                }
                loop {
                    skip_ws(b, pos);
                    items.push(tree_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Tree::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Tree::Obj(fields));
                }
                loop {
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b'"') {
                        return Err(format!("expected object key at byte {pos}"));
                    }
                    let key = parse_string(b, pos)?.into_owned();
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at byte {pos}"));
                    }
                    *pos += 1;
                    skip_ws(b, pos);
                    let value = tree_value(b, pos, depth + 1)?;
                    fields.push((key, value));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Tree::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos).map(Tree::Num),
            Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
        }
    }

    /// A token view as a tree, to compare a token parse with the
    /// oracle's (duplicate keys included).
    fn tree_of(j: JsonRef) -> Tree {
        match &j.0[0] {
            Tok::Null => Tree::Null,
            Tok::Bool(b) => Tree::Bool(*b),
            Tok::Num(v) => Tree::Num(*v),
            Tok::Str(s) => Tree::Str(s.to_string()),
            Tok::Arr(_) => Tree::Arr(j.as_arr().unwrap().map(tree_of).collect()),
            Tok::Obj(_) => {
                let mut fields = Vec::new();
                let mut rest = &j.0[1..];
                while let [Tok::Str(k), value, ..] = rest {
                    let (value, tail) = rest[1..].split_at(value.span());
                    fields.push((k.to_string(), tree_of(JsonRef(value))));
                    rest = tail;
                }
                assert!(rest.is_empty(), "object tokens alternate key and value");
                Tree::Obj(fields)
            }
        }
    }

    fn query_tree(q: &Query) -> Tree {
        let mut f: Vec<(String, Tree)> = vec![
            ("kernel".into(), Tree::Str(q.kernel.clone())),
            ("config".into(), Tree::Str(q.config.clone())),
        ];
        let mut num = |name: &str, v: Option<u64>| {
            if let Some(v) = v {
                f.push((name.into(), Tree::Num(v as f64)));
            }
        };
        num("n", q.n);
        num("tile", q.tile);
        num("rows", q.rows);
        num("nnz", q.nnz);
        num("grid", q.grid);
        num("threads", q.threads);
        let mut fl = |name: &str, v: Option<f64>| {
            if let Some(v) = v {
                f.push((name.into(), Tree::Num(v)));
            }
        };
        fl("span", q.span);
        fl("levels", q.levels);
        fl("footprint_mb", q.footprint_mb);
        fl("hot_mb", q.hot_mb);
        if let Some(lb) = q.latency_bound {
            f.push(("latency_bound".into(), Tree::Bool(lb)));
        }
        Tree::Obj(f)
    }

    fn query_from_tree(j: &Tree) -> Result<Query, String> {
        let obj = match j {
            Tree::Obj(_) => j,
            _ => return Err("query must be an object".to_string()),
        };
        let field_u64 = |name: &str| -> Result<Option<u64>, String> {
            match obj.get(name) {
                None | Some(Tree::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("query field {name:?} {INT_EXPECTED}")),
            }
        };
        let field_f64 = |name: &str| -> Result<Option<f64>, String> {
            match obj.get(name) {
                None | Some(Tree::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("query field {name:?} must be a number")),
            }
        };
        Ok(Query {
            kernel: obj
                .get("kernel")
                .and_then(Tree::as_str)
                .ok_or("query needs a string \"kernel\"")?
                .to_string(),
            config: obj
                .get("config")
                .and_then(Tree::as_str)
                .ok_or("query needs a string \"config\"")?
                .to_string(),
            n: field_u64("n")?,
            tile: field_u64("tile")?,
            rows: field_u64("rows")?,
            nnz: field_u64("nnz")?,
            grid: field_u64("grid")?,
            threads: field_u64("threads")?,
            span: field_f64("span")?,
            levels: field_f64("levels")?,
            footprint_mb: field_f64("footprint_mb")?,
            hot_mb: field_f64("hot_mb")?,
            latency_bound: match obj.get("latency_bound") {
                None | Some(Tree::Null) => None,
                Some(v) => Some(
                    v.as_bool()
                        .ok_or("query field \"latency_bound\" must be a bool")?,
                ),
            },
        })
    }

    fn request_render_tree(r: &Request) -> String {
        let mut f: Vec<(String, Tree)> = vec![
            ("v".into(), Tree::Str(VERSION.into())),
            ("id".into(), Tree::Num(r.id as f64)),
        ];
        if r.shutdown {
            f.push(("shutdown".into(), Tree::Bool(true)));
        }
        f.push((
            "queries".into(),
            Tree::Arr(r.queries.iter().map(query_tree).collect()),
        ));
        Tree::Obj(f).render()
    }

    fn version_tree(j: &Tree) -> Result<(), String> {
        match j.get("v").and_then(Tree::as_str) {
            Some(v) if v == VERSION => Ok(()),
            Some(v) => Err(format!(
                "unsupported protocol version {v:?} (this is {VERSION})"
            )),
            None => Err(format!("missing \"v\" (expected {VERSION:?})")),
        }
    }

    fn request_parse_tree(text: &str) -> Result<Request, String> {
        let j = Tree::parse(text)?;
        version_tree(&j)?;
        let id = match j.get("id") {
            None | Some(Tree::Null) => 0,
            Some(v) => v.as_u64().ok_or_else(|| format!("\"id\" {INT_EXPECTED}"))?,
        };
        let shutdown = match j.get("shutdown") {
            None | Some(Tree::Null) => false,
            Some(v) => v.as_bool().ok_or("\"shutdown\" must be a bool")?,
        };
        let queries = match j.get("queries") {
            None | Some(Tree::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"queries\" must be an array")?
                .iter()
                .map(query_from_tree)
                .collect::<Result<Vec<Query>, String>>()?,
        };
        Ok(Request {
            id,
            queries,
            shutdown,
        })
    }

    fn advice_tree(a: &Advice) -> Tree {
        Tree::Obj(vec![
            ("kernel".into(), Tree::Str(a.kernel.clone())),
            ("config".into(), Tree::Str(a.config.clone())),
            ("footprint_mb".into(), Tree::Num(a.footprint_mb)),
            ("time_ms".into(), Tree::Num(a.time_ms)),
            ("gflops".into(), Tree::Num(a.gflops)),
            ("bandwidth_gbs".into(), Tree::Num(a.bandwidth_gbs)),
            ("dram_mb".into(), Tree::Num(a.dram_mb)),
            ("opm_mb".into(), Tree::Num(a.opm_mb)),
            (
                "level_traffic".into(),
                Tree::Arr(
                    a.level_traffic
                        .iter()
                        .map(|lt| {
                            Tree::Obj(vec![
                                ("level".into(), Tree::Str(lt.level.clone())),
                                ("bytes".into(), Tree::Num(lt.bytes)),
                                ("time_ns".into(), Tree::Num(lt.time_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("package_w".into(), Tree::Num(a.package_w)),
            ("dram_w".into(), Tree::Num(a.dram_w)),
            ("energy_j".into(), Tree::Num(a.energy_j)),
            (
                "recommended_mode".into(),
                Tree::Str(a.recommended_mode.clone()),
            ),
            ("guideline".into(), Tree::Str(a.guideline.clone())),
            ("explanation".into(), Tree::Str(a.explanation.clone())),
        ])
    }

    fn advice_from_tree(j: &Tree) -> Result<Advice, String> {
        let s = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(Tree::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("advice field {name:?} must be a string"))
        };
        let n = |name: &str| -> Result<f64, String> {
            j.get(name)
                .and_then(Tree::as_f64)
                .ok_or_else(|| format!("advice field {name:?} must be a number"))
        };
        let level_traffic = match j.get("level_traffic") {
            None | Some(Tree::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"level_traffic\" must be an array")?
                .iter()
                .map(|lt| {
                    Ok(LevelTraffic {
                        level: lt
                            .get("level")
                            .and_then(Tree::as_str)
                            .ok_or("level_traffic entry needs a string \"level\"")?
                            .to_string(),
                        bytes: lt
                            .get("bytes")
                            .and_then(Tree::as_f64)
                            .ok_or("level_traffic entry needs a numeric \"bytes\"")?,
                        time_ns: lt
                            .get("time_ns")
                            .and_then(Tree::as_f64)
                            .ok_or("level_traffic entry needs a numeric \"time_ns\"")?,
                    })
                })
                .collect::<Result<Vec<LevelTraffic>, String>>()?,
        };
        Ok(Advice {
            kernel: s("kernel")?,
            config: s("config")?,
            footprint_mb: n("footprint_mb")?,
            time_ms: n("time_ms")?,
            gflops: n("gflops")?,
            bandwidth_gbs: n("bandwidth_gbs")?,
            dram_mb: n("dram_mb")?,
            opm_mb: n("opm_mb")?,
            level_traffic,
            package_w: n("package_w")?,
            dram_w: n("dram_w")?,
            energy_j: n("energy_j")?,
            recommended_mode: s("recommended_mode")?,
            guideline: s("guideline")?,
            explanation: s("explanation")?,
        })
    }

    fn response_render_tree(r: &Response) -> String {
        let results = r
            .results
            .iter()
            .map(|r| match r {
                QueryResult::Ok(a) => Tree::Obj(vec![("ok".into(), advice_tree(a))]),
                QueryResult::Err(e) => Tree::Obj(vec![(
                    "err".into(),
                    Tree::Obj(vec![
                        ("kind".into(), Tree::Str(e.kind().into())),
                        ("detail".into(), Tree::Str(e.detail().into())),
                    ]),
                )]),
            })
            .collect();
        Tree::Obj(vec![
            ("v".into(), Tree::Str(VERSION.into())),
            ("id".into(), Tree::Num(r.id as f64)),
            ("results".into(), Tree::Arr(results)),
        ])
        .render()
    }

    fn response_parse_tree(text: &str) -> Result<Response, String> {
        let j = Tree::parse(text)?;
        version_tree(&j)?;
        let id = match j.get("id") {
            None | Some(Tree::Null) => 0,
            Some(v) => v.as_u64().ok_or_else(|| format!("\"id\" {INT_EXPECTED}"))?,
        };
        let results = match j.get("results") {
            None | Some(Tree::Null) => Vec::new(),
            Some(v) => v
                .as_arr()
                .ok_or("\"results\" must be an array")?
                .iter()
                .map(|r| {
                    if let Some(ok) = r.get("ok") {
                        return advice_from_tree(ok).map(|a| QueryResult::Ok(Box::new(a)));
                    }
                    if let Some(err) = r.get("err") {
                        let kind = err
                            .get("kind")
                            .and_then(Tree::as_str)
                            .ok_or("error result needs a string \"kind\"")?;
                        let detail = err.get("detail").and_then(Tree::as_str).unwrap_or("");
                        return ApiError::from_parts(kind, detail).map(QueryResult::Err);
                    }
                    Err("result must carry \"ok\" or \"err\"".to_string())
                })
                .collect::<Result<Vec<QueryResult>, String>>()?,
        };
        Ok(Response { id, results })
    }

    // -----------------------------------------------------------------
    // Differentials against the tree oracle
    // -----------------------------------------------------------------

    /// SplitMix64: each differential case draws every choice from one
    /// seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        /// A float field: NaN, ±inf, −0.0, the doubles around 2^53, or
        /// fractional, tiny, huge and arbitrary values.
        fn float(&mut self) -> f64 {
            let bits = self.next();
            let two_53 = (MAX_EXACT_INT + 1) as f64;
            match self.below(12) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => MAX_EXACT_INT as f64,
                5 => two_53,
                6 => two_53 + 2.0,
                7 => (bits % 1_000_000) as f64 / 64.0,
                8 => f64::from_bits(bits),
                9 => -((bits % 100_000) as f64) - 0.125,
                10 => (bits % 1000) as f64 * 1e-9,
                _ => (bits % 1000) as f64 * 1e21,
            }
        }

        /// Mostly a finite float, now and then any: an
        /// advice carries eleven numbers, each of which must be finite
        /// for it to decode.
        fn advice_num(&mut self) -> f64 {
            if self.chance(3) {
                self.float()
            } else {
                loop {
                    let v = self.float();
                    if v.is_finite() {
                        return v;
                    }
                }
            }
        }

        /// An integer field: 2^53 − 1, 2^53, 2^53 + 1, the u64 extremes,
        /// or a small value.
        fn int(&mut self) -> u64 {
            match self.below(16) {
                0 => MAX_EXACT_INT,
                1 => MAX_EXACT_INT + 1,
                2 => MAX_EXACT_INT + 2,
                3 => u64::MAX,
                4 => 0,
                _ => self.below(100_000),
            }
        }

        /// A string of plain ASCII, bytes that need escaping (`"`, `\`,
        /// controls) and multi-byte UTF-8.
        fn string(&mut self) -> String {
            let len = self.below(12);
            (0..len)
                .map(|_| match self.below(4) {
                    0 => char::from(b'a' + self.below(26) as u8),
                    1 => self.pick(&[
                        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/',
                    ]),
                    2 => self.pick(&['é', '€', '中', '😀', '\u{2028}', '\u{10ffff}']),
                    _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                })
                .collect()
        }

        fn name(&mut self, known: &[&str]) -> String {
            if self.chance(75) {
                self.pick(known).to_string()
            } else {
                self.string()
            }
        }

        fn query(&mut self) -> Query {
            let int = |g: &mut Gen| g.chance(30).then(|| g.int());
            let (n, tile, rows, nnz, grid, threads) = (
                int(self),
                int(self),
                int(self),
                int(self),
                int(self),
                int(self),
            );
            let float = |g: &mut Gen| g.chance(30).then(|| g.float());
            Query {
                kernel: self.name(&["GEMM", "SpMV", "FFT", "Stream"]),
                config: self.name(&["knl-flat", "brd-edram"]),
                n,
                tile,
                rows,
                nnz,
                grid,
                threads,
                span: float(self),
                levels: float(self),
                footprint_mb: float(self),
                hot_mb: float(self),
                latency_bound: self.chance(50).then(|| self.chance(50)),
            }
        }

        fn request(&mut self) -> Request {
            Request {
                id: self.int(),
                queries: (0..self.below(5)).map(|_| self.query()).collect(),
                shutdown: self.chance(30),
            }
        }

        fn error(&mut self) -> ApiError {
            match self.below(6) {
                0 => ApiError::Overloaded,
                1 => ApiError::Malformed(self.string()),
                2 => ApiError::UnknownKernel(self.string()),
                3 => ApiError::UnknownConfig(self.string()),
                4 => ApiError::BadParam(self.string()),
                _ => ApiError::Internal(self.string()),
            }
        }

        fn advice(&mut self) -> Advice {
            Advice {
                kernel: self.name(&["GEMM", "FFT"]),
                config: self.name(&["knl-cache"]),
                footprint_mb: self.advice_num(),
                time_ms: self.advice_num(),
                gflops: self.advice_num(),
                bandwidth_gbs: self.advice_num(),
                dram_mb: self.advice_num(),
                opm_mb: self.advice_num(),
                level_traffic: (0..self.below(4))
                    .map(|_| LevelTraffic {
                        level: self.name(&["L2", "MCDRAM-cache", "DDR4-2400"]),
                        bytes: self.advice_num(),
                        time_ns: self.advice_num(),
                    })
                    .collect(),
                package_w: self.advice_num(),
                dram_w: self.advice_num(),
                energy_j: self.advice_num(),
                recommended_mode: self.name(&["flat", "edram-on"]),
                guideline: self.name(&["paper §6 guideline II"]),
                explanation: self.string(),
            }
        }

        fn response(&mut self) -> Response {
            Response {
                id: self.int(),
                results: (0..self.below(5))
                    .map(|_| {
                        if self.chance(50) {
                            QueryResult::Ok(Box::new(self.advice()))
                        } else {
                            QueryResult::Err(self.error())
                        }
                    })
                    .collect(),
            }
        }

        /// A value of any JSON type for an unknown or retyped field.
        fn junk(&mut self, depth: usize) -> Tree {
            match self.below(if depth < 4 { 7 } else { 4 }) {
                0 => Tree::Null,
                1 => Tree::Bool(self.chance(50)),
                2 => Tree::Num(self.float()),
                3 => Tree::Str(self.string()),
                4 => Tree::Arr((0..self.below(3)).map(|_| self.junk(depth + 1)).collect()),
                5 => Tree::Obj(
                    (0..self.below(3))
                        .map(|_| (self.name(&["kernel", "v", "ok"]), self.junk(depth + 1)))
                        .collect(),
                ),
                _ => {
                    let mut deep = Tree::Null;
                    for _ in 0..self.below(3) as usize + MAX_JSON_DEPTH - 1 - depth {
                        deep = Tree::Arr(vec![deep]);
                    }
                    deep
                }
            }
        }

        /// Reshape a canonical document: reorder keys, duplicate fields
        /// (the first stays the one read), add unknown fields of every
        /// type, retype values.
        fn reshape(&mut self, t: &mut Tree, depth: usize) {
            match t {
                Tree::Arr(items) => {
                    for item in items {
                        self.reshape(item, depth + 1);
                    }
                }
                Tree::Obj(fields) => {
                    for (_, v) in fields.iter_mut() {
                        self.reshape(v, depth + 1);
                    }
                    let len = fields.len() as u64;
                    if len > 0 && self.chance(20) {
                        fields.rotate_left(self.below(len) as usize);
                    }
                    if len > 0 && self.chance(20) {
                        let (k, mut v) = fields[self.below(len) as usize].clone();
                        if self.chance(50) {
                            v = self.junk(depth + 1);
                        }
                        fields.insert(self.below(len + 1) as usize, (k, v));
                    }
                    if self.chance(20) {
                        let k = self.name(&["future", "x", "Kernel", "", "v2"]);
                        let v = self.junk(depth + 1);
                        fields.insert(self.below(len + 1) as usize, (k, v));
                    }
                    if len > 0 && self.chance(10) {
                        fields[self.below(len) as usize].1 = self.junk(depth + 1);
                    }
                }
                _ => {}
            }
        }

        /// Render with optional whitespace around every token.
        fn render_spaced(&mut self, t: &Tree, out: &mut String) {
            self.space(out);
            match t {
                Tree::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            self.space(out);
                            out.push(',');
                        }
                        self.render_spaced(item, out);
                    }
                    self.space(out);
                    out.push(']');
                }
                Tree::Obj(fields) => {
                    out.push('{');
                    for (i, (k, v)) in fields.iter().enumerate() {
                        if i > 0 {
                            self.space(out);
                            out.push(',');
                        }
                        self.space(out);
                        let _ = write!(out, "{}", JsonStr(k));
                        self.space(out);
                        out.push(':');
                        self.render_spaced(v, out);
                    }
                    self.space(out);
                    out.push('}');
                }
                leaf => leaf.render_into(out),
            }
            self.space(out);
        }

        fn space(&mut self, out: &mut String) {
            if self.chance(10) {
                out.push(self.pick(&[' ', '\t', '\n', '\r']));
            }
        }

        /// One edit at a char boundary: delete, insert, replace,
        /// truncate or repeat a stretch.
        fn mutate(&mut self, text: &mut String) {
            const PIECES: &[&str] = &[
                "\"",
                "\\",
                "{",
                "}",
                "[",
                "]",
                ",",
                ":",
                "0",
                "-",
                "1e5",
                "null",
                "true",
                " ",
                "\u{1}",
                "é",
                "\\u00",
                "\\ud83d",
                "9007199254740993",
                "-0",
                "1.5",
                "\"v\":",
            ];
            let mut at = self.below(text.len() as u64 + 1) as usize;
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let next = text[at..].chars().next().map_or(0, char::len_utf8);
            match self.below(5) {
                0 => text.replace_range(at..at + next, ""),
                1 => text.insert_str(at, self.pick(PIECES)),
                2 => text.replace_range(at..at + next, self.pick(PIECES)),
                3 => text.truncate(at),
                _ => {
                    let mut end = (at + self.below(16) as usize).min(text.len());
                    while !text.is_char_boundary(end) {
                        end -= 1;
                    }
                    let stretch = text[at..end].to_string();
                    text.insert_str(at, &stretch);
                }
            }
        }

        /// A decode input: a canonical request or response, reshaped,
        /// re-spaced, its keys possibly escaped, then byte-mutated.
        fn document(&mut self) -> String {
            let canonical = if self.chance(50) {
                request_render_tree(&self.request())
            } else {
                response_render_tree(&self.response())
            };
            let mut tree = Tree::parse(&canonical).expect("canonical documents parse");
            if self.chance(60) {
                self.reshape(&mut tree, 0);
            }
            let mut text = String::new();
            self.render_spaced(&tree, &mut text);
            for (plain, escaped) in [
                ("\"kernel\"", "\"\\u006bernel\""),
                ("\"v\"", "\"\\u0076\""),
                ("\"id\"", "\"i\\u0064\""),
                ("\"ok\"", "\"\\u006fk\""),
                ("\"queries\"", "\"queri\\u0065s\""),
                ("\"results\"", "\"\\u0072esults\""),
            ] {
                if self.chance(10) {
                    text = text.replacen(plain, escaped, 1 + self.below(3) as usize);
                }
            }
            for _ in 0..self.below(4).saturating_sub(1) {
                self.mutate(&mut text);
            }
            text
        }
    }

    #[test]
    fn direct_render_matches_the_tree_oracle() {
        for seed in 0..3000 {
            let mut g = Gen(seed);
            let req = g.request();
            assert_eq!(req.render(), request_render_tree(&req), "{req:?}");
            let resp = g.response();
            assert_eq!(resp.render(), response_render_tree(&resp), "{resp:?}");
        }
        // Empty batches, shutdown, and every error kind.
        let every_error = Response {
            id: 3,
            results: [
                ApiError::Overloaded,
                ApiError::Malformed("m".into()),
                ApiError::UnknownKernel("k\"\\\u{1}é".into()),
                ApiError::UnknownConfig("c".into()),
                ApiError::BadParam("b".into()),
                ApiError::Internal(String::new()),
            ]
            .into_iter()
            .map(QueryResult::Err)
            .collect(),
        };
        for resp in [Response::default(), every_error] {
            assert_eq!(resp.render(), response_render_tree(&resp));
        }
        for shutdown in [false, true] {
            let req = Request {
                id: MAX_EXACT_INT,
                queries: Vec::new(),
                shutdown,
            };
            assert_eq!(req.render(), request_render_tree(&req));
        }
    }

    #[test]
    fn token_decoder_matches_the_tree_oracle() {
        let (mut request_ok, mut response_ok, mut failed) = (0, 0, 0);
        for seed in 0..6000 {
            let text = Gen(seed).document();
            let tree = Tree::parse(&text);
            let doc = Json::parse(&text);
            assert_eq!(doc.map(|d| tree_of(d.root())), tree, "{text:?}");
            let request = Request::parse(&text);
            assert_eq!(request, request_parse_tree(&text), "{text:?}");
            let response = Response::parse(&text);
            assert_eq!(response, response_parse_tree(&text), "{text:?}");
            request_ok += usize::from(request.is_ok_and(|r| !r.queries.is_empty()));
            response_ok += usize::from(response.is_ok_and(|r| !r.results.is_empty()));
            failed += usize::from(tree.is_err());
        }
        // Each outcome must be well exercised for the agreement to mean
        // anything.
        assert!(request_ok > 300, "{request_ok} non-empty requests decoded");
        assert!(
            response_ok > 300,
            "{response_ok} non-empty responses decoded"
        );
        assert!(failed > 600, "{failed} documents failed to parse");
    }

    #[test]
    fn nesting_limit_matches_the_tree_oracle() {
        // The root object is depth 0, so `x`'s value sits at depth 1 and
        // k brackets put the innermost value at depth k.
        let (mut ok, mut err) = (0, 0);
        for k in MAX_JSON_DEPTH - 2..=MAX_JSON_DEPTH + 2 {
            for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
                let nested = format!("{}0{}", open.repeat(k), close.repeat(k));
                for text in [
                    format!("{{\"v\":\"opm-api/v1\",\"x\":{nested},\"id\":4}}"),
                    format!(
                        "{{\"v\":\"opm-api/v1\",\"queries\":[{{\"kernel\":\"GEMM\",\
                         \"config\":\"knl-flat\",\"x\":{nested}}}]}}"
                    ),
                    nested,
                ] {
                    let tree = Tree::parse(&text);
                    let doc = Json::parse(&text);
                    assert_eq!(doc.map(|d| tree_of(d.root())), tree, "{text}");
                    assert_eq!(Request::parse(&text), request_parse_tree(&text), "{text}");
                    assert_eq!(Response::parse(&text), response_parse_tree(&text), "{text}");
                    if tree.is_ok() {
                        ok += 1;
                    } else {
                        err += 1;
                    }
                }
            }
        }
        assert!(ok > 0 && err > 0, "{ok} accepted, {err} refused");
    }
}
