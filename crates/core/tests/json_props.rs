//! Property tests for the JSON string parser's `\u` escape handling,
//! focused on the UTF-16 surrogate-pair path: astral-plane characters
//! round-trip both as literal UTF-8 and as `\uXXXX\uXXXX` escape pairs,
//! and lone or mismatched surrogate halves are rejected rather than
//! combined into garbage scalars.

use proptest::prelude::*;

use fg_core::Json;

/// Astral-plane scalar values (U+10000..=U+10FFFF) — everything that
/// needs a surrogate pair in UTF-16 and therefore exercises the two-escape
/// path in the parser.
fn astral() -> impl Strategy<Value = char> {
    (0x1_0000u32..0x11_0000).prop_map(|c| char::from_u32(c).expect("no surrogates above BMP"))
}

/// Any Unicode scalar value, biased half toward the astral planes.
fn scalar() -> impl Strategy<Value = char> {
    prop_oneof![
        (0u32..0xD800).prop_map(|c| char::from_u32(c).expect("below surrogate range")),
        (0xE000u32..0x1_0000).prop_map(|c| char::from_u32(c).expect("above surrogate range")),
        astral().boxed(),
    ]
}

/// Render `s` as a JSON string escaping *every* character as UTF-16
/// `\uXXXX` units — astral characters become surrogate pairs.
fn escape_utf16(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serializing an astral-plane string and parsing it back is the
    /// identity (the writer emits literal UTF-8; the reader must keep it).
    #[test]
    fn astral_strings_round_trip_through_render(chars in proptest::collection::vec(astral(), 1..8)) {
        let s: String = chars.into_iter().collect();
        let rendered = Json::Str(s.clone()).to_string();
        let parsed = Json::parse(&rendered);
        prop_assert!(parsed.is_ok(), "render {rendered:?} failed to parse");
        prop_assert_eq!(parsed.unwrap().as_str(), Some(s.as_str()));
    }

    /// The fully `\uXXXX`-escaped spelling of any string parses to the
    /// same string — the escape reader and the UTF-16 encoder agree, pair
    /// by pair.
    #[test]
    fn utf16_escape_spelling_is_symmetric(chars in proptest::collection::vec(scalar(), 1..8)) {
        let s: String = chars.into_iter().collect();
        let escaped = escape_utf16(&s);
        let parsed = Json::parse(&escaped);
        prop_assert!(parsed.is_ok(), "escaped {escaped:?} failed to parse");
        prop_assert_eq!(parsed.unwrap().as_str(), Some(s.as_str()));
    }

    /// A high surrogate that is not followed by a low-half escape is an
    /// error, whatever follows it — never a panic, never a silent
    /// mis-combined scalar.
    #[test]
    fn high_surrogate_without_low_half_is_rejected(
        hi in 0xD800u32..0xDC00,
        bmp in 0u32..0xD800,
    ) {
        // Followed by a BMP escape that is not a low half.
        let doc = format!("\"\\u{hi:04X}\\u{bmp:04X}\"");
        prop_assert!(Json::parse(&doc).is_err(), "accepted {doc}");
        // Followed by a second *high* half.
        let doc = format!("\"\\u{hi:04X}\\u{hi:04X}\"");
        prop_assert!(Json::parse(&doc).is_err(), "accepted {doc}");
        // Followed by a plain character.
        let doc = format!("\"\\u{hi:04X}x\"");
        prop_assert!(Json::parse(&doc).is_err(), "accepted {doc}");
        // Followed by the closing quote (end of string).
        let doc = format!("\"\\u{hi:04X}\"");
        prop_assert!(Json::parse(&doc).is_err(), "accepted {doc}");
    }

    /// A low surrogate with no preceding high half is an error.
    #[test]
    fn lone_low_surrogate_is_rejected(lo in 0xDC00u32..0xE000) {
        let doc = format!("\"\\u{lo:04X}\"");
        prop_assert!(Json::parse(&doc).is_err(), "accepted {doc}");
    }

}
