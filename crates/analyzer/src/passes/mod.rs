//! The lint passes and their shared text utilities.
//!
//! All passes operate on [`crate::SourceFile`]s — i.e. on the *scrubbed*
//! code view of [`crate::lexer`], so nothing inside a string literal or a
//! comment can ever trigger (or hide) a finding.

pub mod atomic_protocol;
pub mod hot_path;
pub mod lock_order;
pub mod locks;
pub mod ordering;
pub mod unsafe_gate;

use crate::lexer::Lexed;

/// Whether `c` can be part of an identifier.
pub(crate) fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Byte offsets of every occurrence of `needle` in `hay` that is not
/// embedded in a longer identifier (checked on both sides).
pub(crate) fn word_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// Skips ASCII whitespace forward from `i`, returning the next offset.
pub(crate) fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Given `open` pointing at a `{`/`(`/`[`, returns the offset one past the
/// matching closer, or `len` when unbalanced (auditors never panic).
pub(crate) fn match_delim(bytes: &[u8], open: usize) -> usize {
    let (o, c) = match bytes.get(open) {
        Some(b'{') => (b'{', b'}'),
        Some(b'(') => (b'(', b')'),
        Some(b'[') => (b'[', b']'),
        _ => return bytes.len(),
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        if bytes[i] == o {
            depth += 1;
        } else if bytes[i] == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    bytes.len()
}

/// 1-based line ranges of `#[cfg(test)] mod …` bodies in a scrubbed file.
///
/// Lock-discipline exempts these regions: test code panics by design.
pub(crate) fn test_mod_line_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let s = &lexed.scrubbed;
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    for at in word_occurrences(s, "#[cfg(test)]") {
        let mut i = at + "#[cfg(test)]".len();
        // Skip further attributes between the cfg and the item.
        loop {
            i = skip_ws(bytes, i);
            if bytes.get(i) == Some(&b'#') && bytes.get(i + 1) == Some(&b'[') {
                i = match_delim(bytes, i + 1);
            } else {
                break;
            }
        }
        // Only `mod` bodies form exempt regions (a `#[cfg(test)] fn` at
        // file scope is unusual enough to deserve the lint).
        if !s[i..].starts_with("mod") {
            continue;
        }
        let Some(brace) = s[i..].find('{').map(|p| i + p) else {
            continue;
        };
        let end = match_delim(bytes, brace);
        out.push((lexed.line_of(at), lexed.line_of(end.saturating_sub(1))));
    }
    out
}

/// Whether 1-based `line` falls in any of `ranges` (inclusive).
pub(crate) fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn word_occurrences_respect_boundaries() {
        let hay = "panic! my_panic! panicky panic!";
        let hits = word_occurrences(hay, "panic!");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], 0);
    }

    #[test]
    fn test_mod_region_detected() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let ranges = test_mod_line_ranges(&lexed);
        assert_eq!(ranges, vec![(2, 5)]);
        assert!(in_ranges(&ranges, 4));
        assert!(!in_ranges(&ranges, 6));
    }

    #[test]
    fn cfg_test_with_extra_attr_between() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { }\n";
        let lexed = lex(src);
        assert_eq!(test_mod_line_ranges(&lexed), vec![(1, 3)]);
    }
}
