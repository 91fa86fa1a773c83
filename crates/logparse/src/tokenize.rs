//! Tokenization and dynamic-token detection.
//!
//! The paper (§3.1, Table 2) segregates each event phrase into *static*
//! content (the constant message sub-phrase) and *dynamic* content (error
//! identifiers, addresses, PIDs, ...), discarding the dynamic part before
//! encoding. The classifier here is purely lexical and has two tiers:
//!
//! 1. **Whole-token**: the token core (punctuation-trimmed) is a number,
//!    hex literal, long hex address, path, digit-bearing `key=value`
//!    payload, or compact timestamp. The core is replaced by `*`,
//!    preserving the surrounding punctuation (`hwerr 0x4c:` → `hwerr *:`,
//!    matching the paper's Table 2 static forms).
//! 2. **Embedded**: a `0x…` hex run or a punctuation-delimited digit run
//!    inside an otherwise static token (`hwerr[28451]:` → `hwerr[*]:`).

/// Punctuation that sticks to values in log text.
const TRIM: &[char] = &[',', '.', ';', ':', '(', ')', '[', ']', '<', '>'];

/// A token plus its static/dynamic classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// Constant message content, kept verbatim.
    Static(&'a str),
    /// Variable content; carries the raw text and its templated form.
    Dynamic {
        /// Original token text.
        raw: &'a str,
        /// Templated form with variable runs replaced by `*`.
        templated: String,
    },
}

impl<'a> Token<'a> {
    /// The raw text of the token.
    pub fn text(&self) -> &'a str {
        match self {
            Token::Static(s) => s,
            Token::Dynamic { raw, .. } => raw,
        }
    }

    /// The templated form (raw text for static tokens).
    pub fn templated(&self) -> &str {
        match self {
            Token::Static(s) => s,
            Token::Dynamic { templated, .. } => templated,
        }
    }

    /// True for dynamic tokens.
    pub fn is_dynamic(&self) -> bool {
        matches!(self, Token::Dynamic { .. })
    }
}

fn is_hex_digit(b: u8) -> bool {
    b.is_ascii_hexdigit()
}

/// Whole-core dynamic test (tier 1).
fn core_is_dynamic(core: &str) -> bool {
    if core.is_empty() {
        return false;
    }
    if core == "*" {
        return true;
    }
    // Pure decimal or negative decimal.
    let unsigned = core.strip_prefix('-').unwrap_or(core);
    if !unsigned.is_empty() && unsigned.bytes().all(|b| b.is_ascii_digit()) {
        return true;
    }
    // 0x-prefixed hex of any length.
    if let Some(body) = core.strip_prefix("0x") {
        if !body.is_empty() && body.bytes().all(is_hex_digit) {
            return true;
        }
    }
    // Bare hex address: >= 8 hex chars, and either contains a decimal digit
    // or is long enough that an English word is implausible.
    if core.len() >= 8
        && core.bytes().all(is_hex_digit)
        && (core.bytes().any(|b| b.is_ascii_digit()) || core.len() >= 12)
    {
        return true;
    }
    // Filesystem path.
    if core.starts_with('/') && core.len() > 1 {
        return true;
    }
    // key=value payload where the value side carries digits
    // (Info1=0x4c00054064). Enumerated settings like severity=Corrected
    // stay static, per the paper's Table 3.
    if let Some((_, value)) = core.split_once('=') {
        if value.bytes().any(|b| b.is_ascii_digit()) {
            return true;
        }
    }
    // Compact timestamp tokens like 20141216t162520: almost all digits.
    let digits = core.bytes().filter(|b| b.is_ascii_digit()).count();
    if core.len() >= 9 && digits >= 8 && core.len() - digits <= 2 {
        return true;
    }
    false
}

/// Tier 2: rewrite embedded variable runs inside an otherwise static token.
/// Returns `None` when nothing changed.
fn rewrite_embedded(tok: &str) -> Option<String> {
    let bytes = tok.as_bytes();
    let mut out = String::with_capacity(tok.len());
    let mut i = 0;
    let mut changed = false;
    while i < bytes.len() {
        // 0x… hex run anywhere.
        if bytes[i] == b'0'
            && i + 2 < bytes.len()
            && bytes[i + 1] == b'x'
            && is_hex_digit(bytes[i + 2])
        {
            let mut j = i + 2;
            while j < bytes.len() && is_hex_digit(bytes[j]) {
                j += 1;
            }
            out.push('*');
            changed = true;
            i = j;
            continue;
        }
        // Digit run delimited by non-alphanumerics on both sides.
        if bytes[i].is_ascii_digit() {
            let left_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let right_ok = j == bytes.len() || !bytes[j].is_ascii_alphanumeric();
            if left_ok && right_ok {
                out.push('*');
                changed = true;
                i = j;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    changed.then_some(out)
}

/// Classify a single whitespace-delimited token, producing its templated
/// form when dynamic.
pub fn template_token(tok: &str) -> Option<String> {
    let core = tok.trim_matches(|c: char| TRIM.contains(&c));
    if core_is_dynamic(core) {
        // Preserve the punctuation around the core.
        let start = tok.find(core).unwrap_or(0);
        let end = start + core.len();
        let mut out = String::with_capacity(tok.len());
        out.push_str(&tok[..start]);
        out.push('*');
        out.push_str(&tok[end..]);
        return Some(out);
    }
    rewrite_embedded(tok)
}

/// Whole-token dynamic test (used by tests and diagnostics).
pub fn is_dynamic_token(tok: &str) -> bool {
    template_token(tok).is_some()
}

/// Byte-level twin of the [`TRIM`] char test — every trim char is ASCII,
/// so trimming bytes from the ends matches `trim_matches` exactly (a
/// multi-byte UTF-8 char has no bytes below 0x80 and can never match).
fn is_trim_byte(b: u8) -> bool {
    matches!(
        b,
        b',' | b'.' | b';' | b':' | b'(' | b')' | b'[' | b']' | b'<' | b'>'
    )
}

/// Dry-run of [`rewrite_embedded`]: true iff it would rewrite something.
/// Walks the same positions in the same order (a failed digit run advances
/// one byte, exactly like the rewriting loop), so the first rewrite both
/// loops would take is the same one.
fn embedded_rewrite_would_change(bytes: &[u8]) -> bool {
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'0'
            && i + 2 < bytes.len()
            && bytes[i + 1] == b'x'
            && is_hex_digit(bytes[i + 2])
        {
            return true;
        }
        if bytes[i].is_ascii_digit() {
            let left_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let right_ok = j == bytes.len() || !bytes[j].is_ascii_alphanumeric();
            if left_ok && right_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Append `tok`'s templated form to `out` without allocating: the
/// zero-copy twin of [`template_token`] (static tokens are appended
/// verbatim). Byte-identical to the allocating path — the property the
/// `template_token_append_is_byte_identical` test pins down — so the
/// fleet intake's hot loop can template events without a `String` per
/// token.
pub fn template_token_append(tok: &str, out: &mut String) {
    let bytes = tok.as_bytes();
    // Tier 1: trim positions computed directly. `l`/`r` land on char
    // boundaries (trim bytes are ASCII), and because the core's first
    // byte is never a trim byte, `l` equals the `tok.find(core)` the
    // allocating path uses.
    let mut l = 0;
    while l < bytes.len() && is_trim_byte(bytes[l]) {
        l += 1;
    }
    let mut r = bytes.len();
    while r > l && is_trim_byte(bytes[r - 1]) {
        r -= 1;
    }
    // A token without a digit skips both tiers' scans: every digit-free
    // dynamic core is `*`, a path, or an all-hex word of 12 or more
    // letters, and no embedded rewrite starts without a digit.
    if !bytes.iter().any(u8::is_ascii_digit) {
        let core = &bytes[l..r];
        if core == b"*"
            || (core.len() > 1 && core[0] == b'/')
            || (core.len() >= 12 && core.iter().all(u8::is_ascii_hexdigit))
        {
            out.push_str(&tok[..l]);
            out.push('*');
            out.push_str(&tok[r..]);
        } else {
            out.push_str(tok);
        }
        return;
    }
    if core_is_dynamic(&tok[l..r]) {
        out.push_str(&tok[..l]);
        out.push('*');
        out.push_str(&tok[r..]);
        return;
    }
    // Tier 2: pre-scan so the common all-static token is one memcpy.
    if !embedded_rewrite_would_change(bytes) {
        out.push_str(tok);
        return;
    }
    // Same loop as `rewrite_embedded`, writing straight into `out` —
    // including its byte-as-char handling of non-ASCII bytes, so the two
    // paths agree byte-for-byte even on tokens it mangles.
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'0'
            && i + 2 < bytes.len()
            && bytes[i + 1] == b'x'
            && is_hex_digit(bytes[i + 2])
        {
            let mut j = i + 2;
            while j < bytes.len() && is_hex_digit(bytes[j]) {
                j += 1;
            }
            out.push('*');
            i = j;
            continue;
        }
        if bytes[i].is_ascii_digit() {
            let left_ok = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
            let mut j = i;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            let right_ok = j == bytes.len() || !bytes[j].is_ascii_alphanumeric();
            if left_ok && right_ok {
                out.push('*');
                i = j;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
}

/// Tokenize a message into classified tokens.
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    text.split_whitespace()
        .map(|t| match template_token(t) {
            Some(templated) => Token::Dynamic { raw: t, templated },
            None => Token::Static(t),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_and_hex_are_dynamic() {
        for t in [
            "42",
            "-108",
            "0x6624",
            "0x4c",
            "ffffffff810a1b2c",
            "deadbeef99",
        ] {
            assert!(is_dynamic_token(t), "{t} should be dynamic");
        }
    }

    #[test]
    fn words_are_static() {
        for t in [
            "LustreError:",
            "kernel",
            "panic",
            "DVS:",
            "mcelog",
            "face",
            "=",
            "h/w",
        ] {
            assert!(!is_dynamic_token(t), "{t} should be static");
        }
    }

    #[test]
    fn paths_stamps_kv_are_dynamic() {
        for t in [
            "/etc/sysctl.conf",
            "20141216t162520,",
            "Info1=0x4c00054064:",
            "*",
        ] {
            assert!(is_dynamic_token(t), "{t} should be dynamic");
        }
    }

    #[test]
    fn enumerated_kv_stays_static() {
        // Paper Table 3 treats "severity=Corrected" as part of the phrase.
        assert!(!is_dynamic_token("severity=Corrected,"));
        assert!(!is_dynamic_token("type=Physical"));
    }

    #[test]
    fn punctuation_is_preserved_in_template() {
        assert_eq!(template_token("0x4c:").as_deref(), Some("*:"));
        assert_eq!(template_token("(12345)").as_deref(), Some("(*)"));
        assert_eq!(template_token("12:").as_deref(), Some("*:"));
        assert_eq!(template_token("[28451]:0x6624,").as_deref(), Some("[*]:*,"));
    }

    #[test]
    fn embedded_runs_are_wildcarded() {
        assert_eq!(
            template_token("hwerr[0x1a2b]:").as_deref(),
            Some("hwerr[*]:")
        );
        assert_eq!(template_token("debug[0]:").as_deref(), Some("debug[*]:"));
        // Digit run inside a word is NOT rewritten.
        assert_eq!(template_token("EXT4-fs"), None);
        assert_eq!(template_token("Info3"), None);
    }

    #[test]
    fn tokenize_table2_row() {
        let toks = tokenize(
            "hwerr 0x4c: ssid_rsp status msg protocol err Info1=0x4c00054064: Info2=0x0: Info3=0x2",
        );
        let dynamic: Vec<&str> = toks
            .iter()
            .filter(|t| t.is_dynamic())
            .map(|t| t.text())
            .collect();
        assert_eq!(
            dynamic,
            vec!["0x4c:", "Info1=0x4c00054064:", "Info2=0x0:", "Info3=0x2"]
        );
        let stat: Vec<&str> = toks
            .iter()
            .filter(|t| !t.is_dynamic())
            .map(|t| t.text())
            .collect();
        assert_eq!(
            stat,
            vec!["hwerr", "ssid_rsp", "status", "msg", "protocol", "err"]
        );
    }

    #[test]
    fn empty_text_gives_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   ").is_empty());
    }

    #[test]
    fn template_token_append_is_byte_identical() {
        let cases = [
            "0x4c:",
            "(12345)",
            "12:",
            "[28451]:0x6624,",
            "hwerr[0x1a2b]:",
            "debug[0]:",
            "EXT4-fs",
            "Info3",
            "LustreError:",
            "severity=Corrected,",
            "Info1=0x4c00054064:",
            "20141216t162520,",
            "/etc/sysctl.conf",
            "ffffffff810a1b2c",
            "deadbeef99",
            "-108",
            "*",
            "::",
            "",
            "a00xff",
            "=",
            "h/w",
            "éclair",
            "café42",
            "näme[37]:",
            "0x",
            "0xzz",
            "x123y",
            "99bottles",
            "[[<(:;,.)>]]",
        ];
        for tok in cases {
            let mut fast = String::new();
            template_token_append(tok, &mut fast);
            let slow = template_token(tok).unwrap_or_else(|| tok.to_string());
            assert_eq!(fast, slow, "token {tok:?}");
        }
    }

    #[test]
    fn template_token_append_matches_on_random_corpus() {
        // Deterministic pseudo-random byte soup over a log-ish alphabet,
        // including multi-byte chars next to digit runs.
        let alphabet: Vec<char> = "abz09:=[]().,x/é-μ*<>".chars().collect();
        let mut state = 0x243f6a8885a308d3u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = (state >> 59) as usize; // 0..32
            let mut tok = String::new();
            let mut s = state;
            for _ in 0..len {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                tok.push(alphabet[(s >> 33) as usize % alphabet.len()]);
            }
            let mut fast = String::new();
            template_token_append(&tok, &mut fast);
            let slow = template_token(&tok).unwrap_or_else(|| tok.clone());
            assert_eq!(fast, slow, "token {tok:?}");
        }
    }
}
