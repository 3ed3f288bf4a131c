//! The frame header shared by `ocr-journal-v1` and `ocr-wire-v1`.
//!
//! Both formats make a payload self-checking with one header line,
//!
//! ```text
//! <tag> <len> <fnv64hex>
//! ```
//!
//! the payload's byte length in decimal and its FNV-1a 64 checksum as
//! exactly 16 hex digits. The tag names the format: `r` for a journal
//! record, `f` for a wire frame. Where the payload goes is the format's
//! own business: a journal record carries it after one space on the
//! same line, a wire frame on the next line.
//!
//! Headers arrive from disk and from the network, so [`parse_header`]
//! and [`Header::check`] report every malformed input as a message and
//! never panic.

use crate::ckpt::fnv1a_64;

/// Renders the header of `payload` under `tag`, with no separator
/// after it.
pub fn header(tag: char, payload: &[u8]) -> String {
    format!("{tag} {} {:016x}", payload.len(), fnv1a_64(payload))
}

/// One text line: control characters collapse to spaces, so a payload
/// (or a free-text field inside one) can never break its line.
pub fn one_line(text: &str) -> String {
    text.chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

/// A parsed header: what it says its payload is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum of the payload.
    sum: u64,
}

/// Parses a header line (without its payload) under `tag`: the tag, a
/// decimal length and exactly 16 hex digits, single-space separated.
///
/// # Errors
///
/// A message naming the first malformed field.
pub fn parse_header(tag: char, line: &str) -> Result<Header, String> {
    let rest = line
        .strip_prefix(tag)
        .and_then(|rest| rest.strip_prefix(' '))
        .ok_or_else(|| format!("not a `{tag}` header"))?;
    let (len, sum) = rest
        .split_once(' ')
        .ok_or_else(|| "missing checksum".to_string())?;
    if !len.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad payload length `{len}`"));
    }
    let len = len
        .parse()
        .map_err(|e| format!("bad payload length: {e}"))?;
    if sum.len() != 16 || !sum.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("checksum is not 16 hex digits".to_string());
    }
    let sum = u64::from_str_radix(sum, 16).map_err(|e| format!("bad checksum: {e}"))?;
    Ok(Header { len, sum })
}

impl Header {
    /// Checks `payload` against the header: its length, then its
    /// checksum.
    ///
    /// # Errors
    ///
    /// A message saying which of the two does not match.
    pub fn check(&self, payload: &[u8]) -> Result<(), String> {
        if payload.len() as u64 != self.len {
            return Err(format!(
                "length mismatch: header says {}, payload is {} byte(s)",
                self.len,
                payload.len()
            ));
        }
        if fnv1a_64(payload) != self.sum {
            return Err("checksum mismatch".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_headers_are_messages() {
        for (line, needle) in [
            ("f 3 0123456789abcdef", "not a `r` header"),
            ("r3 0123456789abcdef", "not a `r` header"),
            ("r 3", "missing checksum"),
            ("r +3 0123456789abcdef", "bad payload length"),
            ("r -1 0123456789abcdef", "bad payload length"),
            ("r  0123456789abcdef", "bad payload length"),
            (
                "r 99999999999999999999 0123456789abcdef",
                "bad payload length",
            ),
            ("r 3 0123456789abcde", "16 hex digits"),
            ("r 3 +123456789abcdef", "16 hex digits"),
            ("r 3 0123456789abcdef0", "16 hex digits"),
            ("r 3 0123456789abcdeg", "16 hex digits"),
            ("r 3 0123456789abcdef x", "16 hex digits"),
        ] {
            let err = parse_header('r', line).expect_err(line);
            assert!(err.contains(needle), "{line:?} -> {err}");
        }
    }
}
