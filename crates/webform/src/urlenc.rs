//! Percent-encoding and query-string handling, implemented from scratch.
//!
//! Only unreserved characters (RFC 3986 §2.3) pass through; everything
//! else, including UTF-8 continuation bytes of labels like "$5k–$10k",
//! is `%XX`-escaped. Spaces are encoded as `%20` (not `+`) to keep the
//! decoder single-purpose.

use std::borrow::Cow;

/// Percent-encode a UTF-8 string.
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    encode_into(&mut out, s);
    out
}

/// Append [`encode`]`(s)` to `out`.
pub fn encode_into(out: &mut String, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                out.push('%');
                out.push(
                    char::from_digit((b >> 4) as u32, 16)
                        .expect("nibble")
                        .to_ascii_uppercase(),
                );
                out.push(
                    char::from_digit((b & 0xF) as u32, 16)
                        .expect("nibble")
                        .to_ascii_uppercase(),
                );
            }
        }
    }
}

/// Decode a percent-encoded string. Returns `None` on malformed escapes or
/// invalid UTF-8.
pub fn decode(s: &str) -> Option<String> {
    decode_cow(s).map(Cow::into_owned)
}

/// [`decode`], borrowing `s` when it holds no escape (nothing to decode).
pub fn decode_cow(s: &str) -> Option<Cow<'_, str>> {
    if !s.contains('%') {
        return Some(Cow::Borrowed(s));
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = *bytes.get(i + 1)?;
                let lo = *bytes.get(i + 2)?;
                let hi = (hi as char).to_digit(16)?;
                let lo = (lo as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok().map(Cow::Owned)
}

/// Build a query string from `(key, value)` pairs: `k1=v1&k2=v2`, both
/// sides percent-encoded.
pub fn build_query(pairs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push('&');
        }
        out.push_str(&encode(k));
        out.push('=');
        out.push_str(&encode(v));
    }
    out
}

/// Parse a query string back into decoded `(key, value)` pairs. Returns
/// `None` on any malformed component.
pub fn parse_query(qs: &str) -> Option<Vec<(String, String)>> {
    if qs.is_empty() {
        return Some(Vec::new());
    }
    let mut pairs = Vec::new();
    for part in qs.split('&') {
        let (k, v) = part.split_once('=')?;
        pairs.push((decode(k)?, decode(v)?));
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unreserved_pass_through() {
        assert_eq!(encode("Toyota-4.2_x~"), "Toyota-4.2_x~");
    }

    #[test]
    fn reserved_and_unicode_escape() {
        assert_eq!(encode("a b"), "a%20b");
        assert_eq!(encode("Town & Country"), "Town%20%26%20Country");
        // en dash U+2013 → E2 80 93
        assert_eq!(encode("–"), "%E2%80%93");
    }

    #[test]
    fn decode_inverts_encode() {
        for s in [
            "Toyota",
            "Town & Country",
            "$5k–$10k",
            "under $2.5k",
            "100%25 legit=tricky&stuff",
            "",
            "ünïçødé ✓",
        ] {
            assert_eq!(decode(&encode(s)).as_deref(), Some(s), "roundtrip of {s:?}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(decode("%"), None);
        assert_eq!(decode("%2"), None);
        assert_eq!(decode("%ZZ"), None);
        // Overlong/invalid UTF-8 sequence.
        assert_eq!(decode("%FF%FE"), None);
    }

    #[test]
    fn query_string_roundtrip() {
        let pairs = vec![
            ("make".to_string(), "Mercedes-Benz".to_string()),
            ("price".to_string(), "$5k–$10k".to_string()),
            ("odd key".to_string(), "a=b&c".to_string()),
        ];
        let qs = build_query(&pairs);
        assert_eq!(parse_query(&qs), Some(pairs));
    }

    #[test]
    fn parse_empty_and_malformed() {
        assert_eq!(parse_query(""), Some(vec![]));
        assert_eq!(parse_query("novalue"), None);
        assert_eq!(parse_query("a=%Z1"), None);
    }
}
