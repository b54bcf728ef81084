//! Schema-agnostic tokenization.
//!
//! MinoanER treats every entity description as a *bag of strings*: all
//! literal values, regardless of attribute, are lower-cased and split on
//! non-alphanumeric boundaries. Token Blocking and `valueSim` both operate
//! on the resulting token sets.

use crate::stopwords::is_stopword;

/// Tokenizer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenizerOptions {
    /// Minimum token length in characters; shorter tokens are dropped.
    pub min_len: usize,
    /// Drop common English stop-words. Off by default: the paper relies on
    /// Block Purging, not stop-word lists, to neutralize frequent tokens.
    pub remove_stopwords: bool,
    /// Drop tokens that are purely numeric. Off by default.
    pub remove_numeric: bool,
}

impl Default for TokenizerOptions {
    fn default() -> Self {
        Self {
            min_len: 1,
            remove_stopwords: false,
            remove_numeric: false,
        }
    }
}

/// A configured tokenizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tokenizer {
    opts: TokenizerOptions,
}

impl Tokenizer {
    /// Creates a tokenizer with the given options.
    pub fn new(opts: TokenizerOptions) -> Self {
        Self { opts }
    }

    /// The active options.
    pub fn options(&self) -> TokenizerOptions {
        self.opts
    }

    /// Calls `emit` with each lower-cased token of `text`, in order.
    ///
    /// A token is a maximal run of alphanumeric characters, lower-cased
    /// (one character may lower-case to several, as `İ` does). Bytes
    /// below 0x80 take an ASCII path: a run of ASCII alphanumerics that
    /// is already lower-case and is bounded by ASCII on both sides is
    /// handed out as a slice of `text` itself; every other token is
    /// built in `buf`, scratch space the caller reuses across calls so
    /// that tokenizing allocates nothing once `buf` has grown to the
    /// longest token.
    pub fn for_each_token(&self, text: &str, buf: &mut String, mut emit: impl FnMut(&str)) {
        let bytes = text.as_bytes();
        buf.clear();
        let mut i = 0;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii_alphanumeric() {
                let start = i;
                let mut lower = true;
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    lower &= !bytes[i].is_ascii_uppercase();
                    i += 1;
                }
                let run = &text[start..i];
                // The token ends here unless a non-ASCII character
                // (which may be alphanumeric) follows.
                let ends = i == bytes.len() || bytes[i] < 0x80;
                if ends && lower && buf.is_empty() {
                    self.emit_kept(run, &mut emit);
                    continue;
                }
                let from = buf.len();
                buf.push_str(run);
                buf[from..].make_ascii_lowercase();
                if ends {
                    self.emit_kept(buf, &mut emit);
                    buf.clear();
                }
            } else if b < 0x80 {
                if !buf.is_empty() {
                    self.emit_kept(buf, &mut emit);
                    buf.clear();
                }
                i += 1;
            } else {
                let c = text[i..].chars().next().expect("a char starts here");
                i += c.len_utf8();
                if c.is_alphanumeric() {
                    buf.extend(c.to_lowercase());
                } else if !buf.is_empty() {
                    self.emit_kept(buf, &mut emit);
                    buf.clear();
                }
            }
        }
        if !buf.is_empty() {
            self.emit_kept(buf, &mut emit);
            buf.clear();
        }
    }

    /// Tokenizes `text`, pushing lower-cased tokens into `out`: a thin
    /// wrapper over [`Tokenizer::for_each_token`] that allocates every
    /// token.
    pub fn tokenize_into(&self, text: &str, out: &mut Vec<String>) {
        self.for_each_token(text, &mut String::new(), |t| out.push(t.to_string()));
    }

    /// Tokenizes `text` into a fresh vector.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(text, &mut out);
        out
    }

    /// Emits the non-empty token `tok` unless an option filters it out.
    fn emit_kept(&self, tok: &str, emit: &mut impl FnMut(&str)) {
        let keep = (self.opts.min_len <= 1 || tok.chars().count() >= self.opts.min_len)
            && !(self.opts.remove_stopwords && is_stopword(tok))
            && !(self.opts.remove_numeric && tok.bytes().all(|b| b.is_ascii_digit()));
        if keep {
            emit(tok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The char-by-char loop the byte scanner replaced, kept as the
    /// reference it must agree with.
    fn reference_tokenize(opts: TokenizerOptions, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut flush = |cur: &mut String| {
            let keep = cur.chars().count() >= opts.min_len
                && !(opts.remove_stopwords && is_stopword(cur))
                && !(opts.remove_numeric && cur.chars().all(|c| c.is_ascii_digit()));
            if keep {
                out.push(std::mem::take(cur));
            } else {
                cur.clear();
            }
        };
        for c in text.chars() {
            if c.is_alphanumeric() {
                cur.extend(c.to_lowercase());
            } else if !cur.is_empty() {
                flush(&mut cur);
            }
        }
        if !cur.is_empty() {
            flush(&mut cur);
        }
        out
    }

    /// Seeded strings mixing ASCII words, digits and separators with the
    /// non-ASCII cases the generated profiles never contain: `İ` (which
    /// lower-cases to two chars), `ß`, `Σ`, Arabic-Indic digits, a
    /// combining acute accent, NBSP and an emoji.
    #[test]
    fn byte_scanner_matches_the_char_loop_on_mixed_text() {
        const PIECES: [&str; 24] = [
            "the",
            "Taverna",
            "KRI",
            "x",
            "1982",
            "66",
            "a1",
            "of",
            " ",
            " ",
            "-",
            ",",
            "/",
            "\u{130}",
            "stra\u{df}e",
            "\u{3a3}\u{3b9}\u{3c3}",
            "\u{663}\u{664}",
            "e\u{301}",
            "\u{a0}",
            "\u{1f3db}",
            "Caf\u{e9}",
            "\u{130}stanbul",
            "\u{301}",
            "ŒUVRE",
        ];
        let mut rng = StdRng::seed_from_u64(20180416);
        let mut texts: Vec<String> = PIECES.iter().map(|p| p.to_string()).collect();
        for _ in 0..2000 {
            let n = rng.gen_range(0..12usize);
            texts.push(
                (0..n)
                    .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                    .collect(),
            );
        }
        let mut buf = String::new();
        for min_len in [0, 1, 2, 3] {
            for remove_stopwords in [false, true] {
                for remove_numeric in [false, true] {
                    let opts = TokenizerOptions {
                        min_len,
                        remove_stopwords,
                        remove_numeric,
                    };
                    let t = Tokenizer::new(opts);
                    for text in &texts {
                        let mut got = Vec::new();
                        t.for_each_token(text, &mut buf, |tok| got.push(tok.to_string()));
                        assert_eq!(got, reference_tokenize(opts, text), "{opts:?} {text:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dotted_capital_i_lowercases_to_two_chars() {
        let t = Tokenizer::new(TokenizerOptions {
            min_len: 2,
            ..Default::default()
        });
        assert_eq!(t.tokenize("\u{130} x"), vec!["i\u{307}"]);
    }

    #[test]
    fn splits_on_non_alphanumerics_and_lowercases() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("Taverna Kri-Kri, Heraklion (1982)"),
            vec!["taverna", "kri", "kri", "heraklion", "1982"]
        );
    }

    #[test]
    fn unicode_text_is_handled() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("Μινωικός Πολιτισμός"),
            vec!["μινωικός", "πολιτισμός"]
        );
    }

    #[test]
    fn uri_like_literals_are_split() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("http://dbpedia.org/resource/Knossos"),
            vec!["http", "dbpedia", "org", "resource", "knossos"]
        );
    }

    #[test]
    fn min_len_filters_short_tokens() {
        let t = Tokenizer::new(TokenizerOptions {
            min_len: 3,
            ..Default::default()
        });
        assert_eq!(t.tokenize("a bb ccc dddd"), vec!["ccc", "dddd"]);
    }

    #[test]
    fn stopword_removal() {
        let t = Tokenizer::new(TokenizerOptions {
            remove_stopwords: true,
            ..Default::default()
        });
        assert_eq!(
            t.tokenize("the house of the rising sun"),
            vec!["house", "rising", "sun"]
        );
    }

    #[test]
    fn numeric_removal() {
        let t = Tokenizer::new(TokenizerOptions {
            remove_numeric: true,
            ..Default::default()
        });
        assert_eq!(t.tokenize("route 66 west 1a"), vec!["route", "west", "1a"]);
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("--- ~~~ !!!").is_empty());
    }

    #[test]
    fn tokenize_into_appends() {
        let t = Tokenizer::default();
        let mut buf = vec!["seed".to_string()];
        t.tokenize_into("x y", &mut buf);
        assert_eq!(buf, vec!["seed", "x", "y"]);
    }
}
