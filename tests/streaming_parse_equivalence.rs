//! Streaming-parse equivalence: the chunked parallel parsers must
//! produce a `KnowledgeBase` **identical** to the whole-string parsers —
//! same entity/attribute id assignment, same statement order, same
//! reverse edges — for every benchmark profile, every executor, and
//! adversarial chunk sizes that split lines, multi-byte UTF-8 sequences
//! and N-Triples escapes across chunk boundaries.

use minoaner::datagen::DatasetKind;
use minoaner::exec::{Executor, ExecutorKind};
use minoaner::kb::parse::{
    parse_ntriples, parse_ntriples_reader, parse_tsv, parse_tsv_reader, to_ntriples, to_tsv,
    StreamError, StreamOptions,
};

const SEED: u64 = 20180416;
const SCALE: f64 = 0.1;

fn executors() -> [Executor; 3] {
    [
        Executor::sequential(),
        Executor::new(ExecutorKind::Pool, 3),
        Executor::new(ExecutorKind::Pool, 7),
    ]
}

fn opts(chunk_bytes: usize) -> StreamOptions {
    StreamOptions { chunk_bytes }
}

#[test]
fn tsv_streaming_matches_whole_string_on_every_profile() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        for (kb, name) in [(&d.pair.first, "E1"), (&d.pair.second, "E2")] {
            let text = to_tsv(kb);
            let whole = parse_tsv(name, &text).unwrap();
            for exec in executors() {
                for chunk_bytes in [64, 4096] {
                    let streamed =
                        parse_tsv_reader(name, text.as_bytes(), &exec, opts(chunk_bytes)).unwrap();
                    assert_eq!(
                        whole,
                        streamed,
                        "{}/{name}: TSV stream differs at {} threads, {chunk_bytes}B chunks",
                        d.name,
                        exec.threads()
                    );
                }
            }
        }
    }
}

#[test]
fn ntriples_streaming_matches_whole_string_on_every_profile() {
    for kind in DatasetKind::ALL {
        let d = kind.generate_scaled(SEED, SCALE);
        for (kb, name) in [(&d.pair.first, "E1"), (&d.pair.second, "E2")] {
            let text = to_ntriples(kb);
            let whole = parse_ntriples(name, &text).unwrap();
            for exec in executors() {
                let streamed =
                    parse_ntriples_reader(name, text.as_bytes(), &exec, opts(4096)).unwrap();
                assert_eq!(
                    whole,
                    streamed,
                    "{}/{name}: N-Triples stream differs at {} threads",
                    d.name,
                    exec.threads()
                );
            }
        }
    }
}

/// Adversarial input: multi-byte UTF-8 (Greek, CJK, emoji), every
/// supported escape, datatype/language suffixes, comments, blank lines,
/// unknown escapes kept verbatim, and entity links — streamed at chunk
/// sizes 1, 7 and 64 bytes, each of which splits lines, UTF-8 sequences
/// and escapes across read boundaries.
#[test]
fn adversarial_chunk_sizes_split_lines_utf8_and_escapes() {
    let text = concat!(
        "# σχόλιο — comment with UTF-8 κείμενο\n",
        "\n",
        "<e:αλφα> <e:όνομα> \"Κνωσός 宮殿 🏛 palace\" .\n",
        "<e:αλφα> <e:esc> \"tab\\there \\\"quoted\\\" back\\\\slash\\nnewline\\rcr\" .\n",
        "<e:αλφα> <e:weird> \"unknown \\q escape\" .\n",
        "<e:αλφα> <e:link> <e:βήτα> .\n",
        "<e:βήτα> <e:label> \"βήτα label\"@el .\n",
        "<e:βήτα> <e:zip> \"71202\"^^<http://www.w3.org/2001/XMLSchema#string> .\n",
        "<e:βήτα> <e:back> <e:αλφα> .\n",
        "<e:γάμμα> <e:label> \"dangling → literal ref to <e:missing>\" .\n",
    );
    let whole = parse_ntriples("adv", text).unwrap();
    assert_eq!(whole.entity_count(), 3);
    for exec in executors() {
        for chunk_bytes in [1, 7, 64] {
            let streamed =
                parse_ntriples_reader("adv", text.as_bytes(), &exec, opts(chunk_bytes)).unwrap();
            assert_eq!(
                whole,
                streamed,
                "N-Triples differ at {} threads, {chunk_bytes}B chunks",
                exec.threads()
            );
        }
    }

    // Same boundary torture for TSV, with multi-byte objects and tabs
    // inside the 4th column.
    let tsv = "s:α\tp:name\tlit\tΚνωσός 宮殿 🏛\ns:α\tp:link\turi\ts:β\ns:β\tp:name\tlit\ttail\twith\ttabs\n";
    let whole = parse_tsv("adv", tsv).unwrap();
    for exec in executors() {
        for chunk_bytes in [1, 7, 64] {
            let streamed =
                parse_tsv_reader("adv", tsv.as_bytes(), &exec, opts(chunk_bytes)).unwrap();
            assert_eq!(
                whole,
                streamed,
                "TSV differs at {} threads, {chunk_bytes}B chunks",
                exec.threads()
            );
        }
    }
}

/// Numeric escapes (`\uXXXX`, `\UXXXXXXXX`) in literals **and** IRI
/// terms, split across 1/7/64-byte chunk boundaries — every boundary
/// lands inside some escape at chunk size 1 and 7 — must decode to the
/// same KB as the whole-string parser, and the KB must round-trip
/// through `to_ntriples` **byte-identically**.
#[test]
fn numeric_escape_corpus_round_trips_through_chunked_parsers() {
    let text = concat!(
        "<e:s\\u0041> <e:p> \"\\u0041lpha \\U0001F3DB \\u00e9 \\u0022deep\\u0022\" .\n",
        "<e:s\\u0041> <e:lin\\U0000006B> <e:t\\u003Ea> .\n",
        "<e:t\\u003Ea> <e:label> \"plain after escapes\" .\n",
        "<e:t\\u003Ea> <e:bell> \"ring\\u0007ring \\u00Df sharp\" .\n",
        "<e:t\\u003Ea> <e:mix> \"tab\\there \\U0001F9EA lab\" .\n",
    );
    let whole = parse_ntriples("esc", text).unwrap();
    // The decoded terms really decoded: '>' inside a URI, a decoded
    // quote inside a literal.
    assert!(whole.entity_by_uri("e:sA").is_some());
    assert!(whole.entity_by_uri("e:t>a").is_some());
    for exec in executors() {
        for chunk_bytes in [1, 7, 64] {
            let streamed =
                parse_ntriples_reader("esc", text.as_bytes(), &exec, opts(chunk_bytes)).unwrap();
            assert_eq!(
                whole,
                streamed,
                "escape corpus differs at {} threads, {chunk_bytes}B chunks",
                exec.threads()
            );
        }
    }
    // Serialize → parse → serialize is byte-identical (IRI-illegal
    // characters and controls re-escape as \uXXXX), through both the
    // whole-string and the chunked path.
    let dumped = to_ntriples(&whole);
    let reparsed = parse_ntriples("esc", &dumped).unwrap();
    assert_eq!(whole, reparsed);
    assert_eq!(
        dumped,
        to_ntriples(&reparsed),
        "serialization must be a byte-identical fixed point"
    );
    for exec in executors() {
        for chunk_bytes in [1, 7, 64] {
            let streamed =
                parse_ntriples_reader("esc", dumped.as_bytes(), &exec, opts(chunk_bytes)).unwrap();
            assert_eq!(whole, streamed, "re-parse differs at {chunk_bytes}B chunks");
        }
    }
}

/// Surrogate halves are rejected with the same line-numbered error by
/// the whole-string and chunked parsers, at every chunk size.
#[test]
fn surrogate_rejection_is_identical_across_chunk_sizes() {
    let mut text = String::new();
    for i in 0..40 {
        text.push_str(&format!(
            "<e:{i}> <e:p> \"fine \\u00e{} value\" .\n",
            i % 10
        ));
    }
    text.push_str("<e:bad> <e:p> \"high \\uD83D half\" .\n");
    let whole = parse_ntriples("t", &text).unwrap_err();
    assert_eq!(whole.line, 41);
    assert!(whole.message.contains("surrogate"), "{}", whole.message);
    for exec in executors() {
        for chunk_bytes in [1, 13, 256] {
            let streamed =
                parse_ntriples_reader("t", text.as_bytes(), &exec, opts(chunk_bytes)).unwrap_err();
            assert_eq!(
                streamed,
                StreamError::Parse(whole.clone()),
                "surrogate error differs at {} threads, {chunk_bytes}B chunks",
                exec.threads()
            );
        }
    }
}

/// Parse errors must carry the same absolute line number and message
/// through the streaming path, for every executor and chunk size.
#[test]
fn streaming_errors_match_whole_string_errors() {
    let mut text = String::new();
    for i in 0..50 {
        text.push_str(&format!("<e:{i}> <e:p> \"value {i}\" .\n"));
    }
    text.push_str("<e:bad> <e:p> \"unterminated .\n");
    for i in 50..60 {
        text.push_str(&format!("<e:{i}> <e:p> \"value {i}\" .\n"));
    }
    let whole = parse_ntriples("t", &text).unwrap_err();
    assert_eq!(whole.line, 51);
    for exec in executors() {
        for chunk_bytes in [1, 13, 256] {
            let streamed =
                parse_ntriples_reader("t", text.as_bytes(), &exec, opts(chunk_bytes)).unwrap_err();
            assert_eq!(
                streamed,
                StreamError::Parse(whole.clone()),
                "error differs at {} threads, {chunk_bytes}B chunks",
                exec.threads()
            );
        }
    }
}
