//! Parser cost and exactness properties for `qpilot_core::json`.
//!
//! The parser copies string bodies one run at a time and builds short
//! plain integers directly; these tests pin both: parse time stays linear
//! on multi-megabyte inputs, strings round-trip for arbitrary Unicode
//! with escapes at run boundaries, and the integer fast path yields the
//! same `f64` bits as `str::parse::<f64>`.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use qpilot_core::compile::{compile, Workload};
use qpilot_core::json::{self, json_str, Value};
use qpilot_core::wire::{schedule_from_value, schedule_to_json};
use qpilot_core::FpqaConfig;
use qpilot_workloads::random::{random_circuit, RandomCircuitConfig};

/// Times `f` once. The ceilings below are over 20× the debug-build times
/// measured on a 2-vCPU host: 80 ms for the 4 MiB string, 30–45 ms for
/// the 551 KB schedule. The quadratic parser this replaced took 1.8 s on
/// the schedule and minutes on the string.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[test]
fn four_mib_string_parses_in_linear_time() {
    // Mixed ASCII, two-, three- and four-byte characters, with an escape
    // every few hundred bytes so runs both end at escapes and at quotes.
    let unit = "flying ancilla ≈ Rydberg 🚀 q[7]\n\"é\\ ";
    let mut body = String::with_capacity(4 << 20);
    while body.len() < 4 << 20 {
        body.push_str(unit);
    }
    let doc = json_str(&body);
    let (parsed, took) = timed(|| json::parse(&doc));
    assert_eq!(parsed.unwrap().as_str(), Some(body.as_str()));
    assert!(
        took < Duration::from_secs(3),
        "4 MiB string took {took:?}; parsing must be linear in the input"
    );
}

#[test]
fn hundred_qubit_schedule_parses_in_linear_time() {
    let circuit = random_circuit(&RandomCircuitConfig::paper(100, 10, 1));
    let program = compile(&Workload::circuit(circuit), &FpqaConfig::square_for(100)).unwrap();
    let doc = schedule_to_json(program.schedule());
    assert!(doc.len() > 500_000, "the 100q schedule is ~551 KB");
    let (parsed, took) = timed(|| json::parse(&doc));
    let parsed = schedule_from_value(&parsed.unwrap());
    assert_eq!(&parsed.unwrap(), program.schedule());
    assert!(
        took < Duration::from_secs(1),
        "{} byte schedule took {took:?} to parse",
        doc.len()
    );
}

#[test]
fn string_rejections_keep_their_offsets() {
    let cases: [(&str, usize, &str); 6] = [
        ("\"ab\u{01}c\"", 3, "control character"),
        ("\"ab\\qc\"", 4, "invalid escape"),
        ("\"ab\\ud83d\"", 8, "unpaired surrogate"),
        ("\"ab\\udc00\"", 8, "unpaired surrogate"),
        ("\"ab\\ud83d\\u0041\"", 14, "invalid low surrogate"),
        ("\"abc", 4, "unterminated"),
    ];
    for (src, offset, message) in cases {
        let e = json::parse(src).unwrap_err();
        assert_eq!(e.offset, offset, "{src:?}: {e}");
        assert!(e.message.contains(message), "{src:?}: {e}");
    }
}

/// One character drawn to sit next to run boundaries: plain ASCII, the
/// characters the writer escapes, and every UTF-8 width.
fn arb_char() -> impl Strategy<Value = char> {
    let scalar = |c: u32| char::from_u32(c).unwrap_or('\u{fffd}');
    prop_oneof![
        (0x20u32..0x7f).prop_map(scalar),
        prop_oneof![Just('"'), Just('\\'), Just('/'), Just('\n'), Just('\t')],
        (0u32..0x20).prop_map(scalar),
        (0x80u32..0x800).prop_map(scalar),
        (0x800u32..0x10000).prop_map(scalar),
        (0x10000u32..0x110000).prop_map(scalar),
    ]
}

/// A digit run of `len` digits from the `seed` stream, optionally signed
/// or zero-padded.
fn digit_run(len: usize, seed: u64, sign: bool, pad: usize) -> String {
    let mut s = String::new();
    if sign {
        s.push('-');
    }
    s.extend(std::iter::repeat_n('0', pad));
    let mut x = seed;
    for i in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let d = (x >> 33) % 10;
        // No accidental leading zero unless padding asked for one.
        let d = if i == 0 && pad == 0 && len > 1 {
            d.max(1)
        } else {
            d
        };
        s.push(char::from(b'0' + d as u8));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(chars in prop::collection::vec(arb_char(), 0..48)) {
        let s: String = chars.into_iter().collect();
        let doc = json_str(&s);
        prop_assert_eq!(json::parse(&doc), Ok(Value::Str(s.clone())));
        // A raw control byte after an escaped prefix is still rejected,
        // at its own offset.
        if let Some((i, c)) = s.char_indices().find(|&(_, c)| c < ' ') {
            let prefix = json_str(&s[..i]);
            let open = &prefix[..prefix.len() - 1];
            let e = json::parse(&format!("{open}{c}\"")).unwrap_err();
            prop_assert_eq!(e.offset, open.len());
            prop_assert!(e.message.contains("control character"));
        }
    }

    #[test]
    fn integer_fast_path_is_bit_identical(
        len in 1usize..18,
        seed in 0u64..u64::MAX,
        sign in prop_oneof![Just(false), Just(true)],
        pad in 0usize..3,
    ) {
        let text = digit_run(len, seed, sign, pad);
        let expected = text.parse::<f64>().unwrap();
        match json::parse(&text) {
            Ok(Value::Num(got)) => prop_assert_eq!(got.to_bits(), expected.to_bits(), "{}", text),
            other => prop_assert!(false, "{text} parsed as {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn number_writers_match_display(
        bits in 0u64..u64::MAX,
        int in -9_007_199_254_740_992i64..9_007_199_254_740_993,
        scale in 0u32..4,
    ) {
        // Any finite float, and integral floats around the 2^53 edge of
        // the integer fast path, print exactly as `Display` does.
        let integral = int as f64 * [1.0, 2.0, 0.5, 1024.0][scale as usize];
        for v in [f64::from_bits(bits), integral] {
            if v.is_finite() {
                let mut out = String::new();
                json::write_f64(&mut out, v);
                prop_assert_eq!(out, format!("{v}"));
            }
        }
        let mut out = String::new();
        json::write_u64(&mut out, bits);
        prop_assert_eq!(out, bits.to_string());
    }
}

#[test]
fn integer_edges_are_bit_identical() {
    for text in [
        "0",
        "-0",
        "00",
        "007",
        "-007",
        "999999999999999",
        "1000000000000000",
        "9999999999999999",
        "9007199254740993",
        "12345678901234567",
        "99999999999999999",
        "18446744073709551616",
    ] {
        let expected = text.parse::<f64>().unwrap();
        let got = json::parse(text).unwrap().as_f64().unwrap();
        assert_eq!(got.to_bits(), expected.to_bits(), "{text}");
    }
}
