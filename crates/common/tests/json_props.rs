//! Properties of `dmt_common::json` over generated documents:
//! `parse ∘ render = id` and `parse ∘ render_compact = id`, and every
//! spelling of a string the grammar allows — raw, short escape, `\uXXXX`,
//! surrogate pair — parses to the same characters.
//!
//! The vendored proptest has no recursive strategies, so a document is
//! grown from one generated `u64` by a splitmix64 stream.

use dmt_common::faults::splitmix64;
use dmt_common::json::Json;
use proptest::prelude::*;

/// A deterministic stream of draws from one seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Characters that exercise every arm of the string reader and writer:
/// plain ASCII, the two delimiters, each short escape, raw control
/// characters, 2-, 3- and 4-byte UTF-8 (the last needs a surrogate pair
/// when spelled as `\u`).
const ALPHABET: &str =
    "aZ0 /{]:,\"\\\n\r\t\u{8}\u{c}\u{0}\u{1}\u{1f}\u{7f}éß€\u{2028}\u{fffd}😀\u{10ffff}";

fn string(d: &mut Draws) -> String {
    // Mostly short, sometimes a long escape-free run (the one-slice path).
    let len = match d.below(8) {
        0 => 0,
        1 => 40 + d.below(200),
        _ => 1 + d.below(12),
    };
    let plain = d.below(4) == 0;
    (0..len)
        .map(|_| {
            if plain {
                char::from(b'a' + d.below(26) as u8)
            } else {
                let pick = d.below(ALPHABET.chars().count() as u64) as usize;
                ALPHABET.chars().nth(pick).expect("pick is in range")
            }
        })
        .collect()
}

fn float(d: &mut Draws) -> f64 {
    loop {
        let x = match d.below(3) {
            0 => f64::from_bits(d.next()),
            1 => (d.next() as i64 as f64) / 1024.0,
            _ => d.below(1 << 20) as f64 * if d.below(2) == 0 { 1.0 } else { -0.125 },
        };
        // NaN and the infinities render as `null` by design.
        if x.is_finite() {
            return x;
        }
    }
}

fn document(d: &mut Draws, depth: u32) -> Json {
    let scalar_only = depth == 0;
    match d.below(if scalar_only { 6 } else { 9 }) {
        0 => Json::Null,
        1 => Json::Bool(d.below(2) == 0),
        2 => Json::U64(d.next() >> d.below(64)),
        3 => Json::F64(float(d)),
        4 | 5 => Json::Str(string(d)),
        6 => Json::Arr((0..d.below(5)).map(|_| document(d, depth - 1)).collect()),
        _ => Json::Obj(
            (0..d.below(5))
                .map(|_| (string(d), document(d, depth - 1)))
                .collect(),
        ),
    }
}

/// One JSON spelling of `s`, choosing per character among the spellings
/// RFC 8259 allows for it.
fn spell(s: &str, d: &mut Draws) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let must_escape = c == '"' || c == '\\';
        match (d.below(3), short) {
            (0, Some(esc)) => out.push_str(esc),
            (1, _) | (0, None) if !must_escape => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let hex = format!("{unit:04x}");
                    out.push_str("\\u");
                    out.push_str(&if d.below(2) == 0 {
                        hex.to_uppercase()
                    } else {
                        hex
                    });
                }
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_inverts_both_renderings(seed in any::<u64>()) {
        // Always a container at the top, so every case nests.
        let mut d = Draws(seed);
        let doc = Json::Obj(
            (0..1 + d.below(6))
                .map(|_| (string(&mut d), document(&mut d, 3)))
                .collect(),
        );
        let pretty = doc.render();
        prop_assert_eq!(Json::parse(&pretty), Ok(doc.clone()), "{}", pretty);
        let compact = doc.render_compact();
        prop_assert_eq!(Json::parse(&compact), Ok(doc), "{}", compact);
    }

    #[test]
    fn every_spelling_of_a_string_parses_to_its_characters(seed in any::<u64>()) {
        let mut d = Draws(seed);
        let s = string(&mut d);
        let spelled = spell(&s, &mut d);
        prop_assert_eq!(Json::parse(&spelled), Ok(Json::Str(s)), "{}", spelled);
    }

    #[test]
    fn truncated_documents_are_errors_never_panics(seed in any::<u64>()) {
        let mut d = Draws(seed);
        let text = Json::Arr(vec![document(&mut d, 3)]).render_compact();
        // Every proper prefix of a bracketed document is malformed.
        let cut = d.below(text.len() as u64) as usize;
        if text.is_char_boundary(cut) {
            prop_assert!(Json::parse(&text[..cut]).is_err(), "{}", &text[..cut]);
        }
    }
}
