//! The one artefact schema every `BENCH_*.json` is written in, and the
//! command-line parser every `gsp-bench` binary shares.
//!
//! An [`Artefact`] is an ordered JSON value that also remembers its line
//! layout, so a committed file parses and writes back byte for byte:
//! an array is inline, one item per line ([`Layout::Rows`]) or one
//! item per two-space-indented line ([`Layout::Indented`], the telemetry
//! `"metrics"` shape), and an object field may start a line of its own.
//! [`Artefact::read`] is the small path reader the gates use:
//! `quarantine.voice_dropped`, `swaps[*].voice_dropped` (every element)
//! and `metrics[payload.frame.ns].p50` (the element whose `"name"` is
//! `payload.frame.ns`).

use gsp_telemetry::Snapshot;
use std::fmt;

/// One node of an artefact document; a whole `BENCH_*.json` is an
/// [`Artefact::Object`].
#[derive(Clone, Debug, PartialEq)]
pub enum Artefact {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token without fraction or exponent.
    Int(i128),
    /// A number token with a fraction or exponent, written as Rust's
    /// shortest-roundtrip `Display` (plus `.0` when that is integral).
    Float(f64),
    /// A string.
    Str(String),
    /// An array and its line layout.
    Array(Vec<Artefact>, Layout),
    /// An object's fields in insertion order.
    Object(Vec<Field>),
}

/// Where an array puts its items.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layout {
    /// `[a,b]`.
    Inline,
    /// `[\na,\nb\n]`.
    Rows,
    /// `[\n  a,\n  b\n]`.
    Indented,
}

/// One object field.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Artefact,
    /// Whether the field starts a new line.
    pub own_line: bool,
}

impl Artefact {
    /// An empty object.
    pub fn object() -> Self {
        Artefact::Object(Vec::new())
    }

    /// The artefact header: `host_parallelism` when `wall` (the field is
    /// host-dependent, so regenerations that must reproduce bytes omit
    /// it).
    pub fn header(wall: bool) -> Self {
        let a = Artefact::object();
        if wall {
            a.with("host_parallelism", host_parallelism())
        } else {
            a
        }
    }

    /// Appends `key` inline.
    pub fn with(self, key: &str, value: impl Into<Artefact>) -> Self {
        self.push(key, value.into(), false)
    }

    /// Appends `key` on a line of its own.
    pub fn line(self, key: &str, value: impl Into<Artefact>) -> Self {
        self.push(key, value.into(), true)
    }

    fn push(mut self, key: &str, value: Artefact, own_line: bool) -> Self {
        let Artefact::Object(fields) = &mut self else {
            panic!("field {key} pushed onto a non-object");
        };
        fields.push(Field {
            key: key.to_string(),
            value,
            own_line,
        });
        self
    }

    /// An array with one item per line.
    pub fn rows(items: impl IntoIterator<Item = Artefact>) -> Self {
        Artefact::Array(items.into_iter().collect(), Layout::Rows)
    }

    /// The snapshot's telemetry `"metrics"` array, exactly as
    /// `Snapshot::to_json` writes it.
    pub fn metrics(snapshot: &Snapshot) -> Self {
        let mut doc = Artefact::parse(&snapshot.to_json()).expect("telemetry writes valid JSON");
        doc.remove("metrics")
            .expect("telemetry writes a metrics array")
    }

    /// Removes and returns field `key` of an object.
    pub fn remove(&mut self, key: &str) -> Option<Artefact> {
        let Artefact::Object(fields) = self else {
            return None;
        };
        let at = fields.iter().position(|f| f.key == key)?;
        Some(fields.remove(at).value)
    }

    fn field(&self, key: &str) -> Option<&Artefact> {
        match self {
            Artefact::Object(fields) => fields.iter().find(|f| f.key == key).map(|f| &f.value),
            _ => None,
        }
    }

    /// Every node `path` reaches; empty when the path is missing.
    pub fn read(&self, path: &str) -> Vec<&Artefact> {
        // Segments split at the dots outside `[...]` selectors.
        let mut depth = 0;
        let segments = path.split(move |c| {
            depth += i32::from(c == '[') - i32::from(c == ']');
            c == '.' && depth == 0
        });
        let mut nodes = vec![self];
        for segment in segments {
            let (key, selector) = match segment.split_once('[') {
                Some((key, sel)) => (key, Some(sel.trim_end_matches(']'))),
                None => (segment, None),
            };
            nodes = nodes.into_iter().filter_map(|n| n.field(key)).collect();
            if let Some(sel) = selector {
                nodes = nodes
                    .into_iter()
                    .flat_map(|n| match n {
                        Artefact::Array(items, _) => items.iter().collect(),
                        _ => Vec::new(),
                    })
                    .filter(|e| {
                        sel == "*" || matches!(e.field("name"), Some(Artefact::Str(n)) if n == sel)
                    })
                    .collect();
            }
        }
        nodes
    }

    /// The node as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Artefact::Int(v) => Some(*v as f64),
            Artefact::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Parses a JSON document, keeping its field order and line layout.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { text, at: 0 };
        let value = p.value()?;
        p.ws();
        if p.at != text.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }

    /// Reads and parses the artefact at `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Artefact::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The whole document as written to disk (a trailing newline).
    pub fn document(&self) -> String {
        format!("{self}\n")
    }
}

impl fmt::Display for Artefact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Artefact::Null => f.write_str("null"),
            Artefact::Bool(b) => write!(f, "{b}"),
            Artefact::Int(v) => write!(f, "{v}"),
            Artefact::Float(v) => {
                let s = v.to_string();
                f.write_str(&s)?;
                if s.contains(['.', 'e', 'E']) {
                    Ok(())
                } else {
                    f.write_str(".0")
                }
            }
            Artefact::Str(s) => write!(f, "{s:?}"),
            Artefact::Array(items, layout) => {
                let (open, sep, close) = match layout {
                    Layout::Inline => ("[", ",", "]"),
                    Layout::Rows => ("[\n", ",\n", "\n]"),
                    Layout::Indented => ("[\n  ", ",\n  ", "\n]"),
                };
                f.write_str(open)?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(sep)?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(close)
            }
            Artefact::Object(fields) => {
                f.write_str("{")?;
                for (i, field) in fields.iter().enumerate() {
                    let sep = if i > 0 { "," } else { "" };
                    let nl = if field.own_line { "\n" } else { "" };
                    write!(f, "{sep}{nl}{:?}:{}", field.key, field.value)?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Artefact {
    fn from(v: bool) -> Self {
        Artefact::Bool(v)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Artefact {
            fn from(v: $t) -> Self {
                Artefact::Int(v as i128)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<f64> for Artefact {
    fn from(v: f64) -> Self {
        Artefact::Float(v)
    }
}

impl From<&str> for Artefact {
    fn from(v: &str) -> Self {
        Artefact::Str(v.to_string())
    }
}

impl From<String> for Artefact {
    fn from(v: String) -> Self {
        Artefact::Str(v)
    }
}

impl<T: Into<Artefact>> From<Option<T>> for Artefact {
    fn from(v: Option<T>) -> Self {
        v.map_or(Artefact::Null, Into::into)
    }
}

/// An inline array.
impl<T: Into<Artefact>> From<Vec<T>> for Artefact {
    fn from(v: Vec<T>) -> Self {
        Artefact::Array(v.into_iter().map(Into::into).collect(), Layout::Inline)
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    /// Whether a newline follows at once (the layout signal), then skips
    /// whitespace.
    fn newline(&mut self) -> bool {
        let nl = self.peek() == Some(b'\n');
        self.ws();
        nl
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.peek() != Some(c) {
            return Err(format!("expected '{}' at offset {}", c as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    /// Parses `item, item, ...` up to `close` (the opener already eaten);
    /// `item` learns whether it starts a new line.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self, bool) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut own_line = self.newline();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self, own_line)?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.at += 1;
                    own_line = self.newline();
                }
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at offset {}",
                        close as char, self.at
                    ))
                }
            }
        }
    }

    fn value(&mut self) -> Result<Artefact, String> {
        self.ws();
        let rest = &self.text[self.at..];
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.list(b'}', |p, own_line| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    let value = p.value()?;
                    fields.push(Field {
                        key,
                        value,
                        own_line,
                    });
                    Ok(())
                })?;
                Ok(Artefact::Object(fields))
            }
            Some(b'[') => {
                self.at += 1;
                let layout = if rest.starts_with("[\n  ") {
                    Layout::Indented
                } else if rest.starts_with("[\n") {
                    Layout::Rows
                } else {
                    Layout::Inline
                };
                let mut items = Vec::new();
                self.list(b']', |p, _| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Artefact::Array(items, layout))
            }
            Some(b'"') => self.string().map(Artefact::Str),
            _ => {
                for (word, value) in [
                    ("true", Artefact::Bool(true)),
                    ("false", Artefact::Bool(false)),
                    ("null", Artefact::Null),
                ] {
                    if rest.starts_with(word) {
                        self.at += word.len();
                        return Ok(value);
                    }
                }
                let len = rest
                    .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                    .unwrap_or(rest.len());
                self.at += len;
                let token = &rest[..len];
                let parsed = if token.contains(['.', 'e', 'E']) {
                    token.parse().map(Artefact::Float).ok()
                } else {
                    token.parse().map(Artefact::Int).ok()
                };
                parsed.ok_or_else(|| format!("bad token {token:?} at offset {}", self.at - len))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let end = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..end]);
            self.at += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let escaped = self.peek().ok_or("unterminated escape")?;
            self.at += 1;
            out.push(match escaped {
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'"' | b'\\' | b'/' => escaped as char,
                _ => return Err(format!("unsupported escape at offset {}", self.at)),
            });
        }
    }
}

/// The host's available parallelism (1 when unknown) — recorded in every
/// artefact so the gates can condition measured-scaling checks on what
/// the bench host actually had.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Amdahl-bound speedup of `workers` over serial for a measured
/// (serial, parallelizable) time split.
pub fn amdahl(serial_ns: f64, parallel_ns: f64, workers: usize) -> f64 {
    let t1 = serial_ns + parallel_ns;
    let tw = serial_ns + parallel_ns / (workers.max(1) as f64);
    if tw <= 0.0 {
        1.0
    } else {
        t1 / tw
    }
}

/// A parsed command line: positional arguments plus `--name value`
/// options, each checked against what the binary accepts.
#[derive(Debug)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `args` (without the program name). `valued` options take a
    /// value, `bare` ones do not; anything else starting with `--` is an
    /// error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        bare: &[&str],
    ) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if out.flag(&a) {
                return Err(format!("{a} given twice"));
            }
            if valued.contains(&a.as_str()) {
                let v = args.next().ok_or(format!("{a} needs a value"))?;
                out.options.push((a, Some(v)));
            } else if bare.contains(&a.as_str()) {
                out.options.push((a, None));
            } else if a.starts_with("--") {
                return Err(format!("unknown option {a}"));
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// Parses this process's command line, exiting with `usage` on error.
    pub fn from_env(usage: &str, valued: &[&str], bare: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), valued, bare).unwrap_or_else(|e| die(usage, &e))
    }

    /// Whether option `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }

    /// The value of option `name` parsed as `T`, or an error naming it.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(n, _)| n == name) {
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot parse {v:?}")),
            _ => Ok(None),
        }
    }
}

/// Prints `error` and `usage` to stderr and exits 1.
pub fn die(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(1);
}
