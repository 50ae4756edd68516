//! A minimal JSON object writer for the result line, the machine record and
//! the span file (the vendored `serde_json` serializes derived types only).

/// Quote and escape a string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A number with all its digits; non-finite values (which JSON cannot
/// carry) are written as `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// An object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add a field whose value is already JSON.
    pub fn raw(mut self, key: &str, value: impl Into<String>) -> Obj {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Add a string field.
    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, string(value))
    }

    /// Add an integer field.
    pub fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, value.to_string())
    }

    /// Render as one line.
    pub fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), v))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
