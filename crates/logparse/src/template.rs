//! Template extraction: reduce a raw message to its constant sub-phrase.
//!
//! Two cooperating mechanisms:
//!
//! * [`extract_template`] — the lexical pass from §3.1: classify each token
//!   as static or dynamic and replace dynamic tokens with `*`. This handles
//!   the overwhelmingly common case where variability is lexically obvious
//!   (numbers, hex, paths, ...).
//! * [`DrainMiner`] — a Drain-style fixed-depth parse tree (He et al.,
//!   which the paper cites among log-parsing methods) that clusters
//!   lexically-templated messages by token count and prefix, then merges
//!   clusters whose static tokens agree above a similarity threshold. This
//!   catches formats whose variable fields are *not* lexically obvious
//!   (e.g. a user name slot), at the cost of a mutable index.

use crate::tokenize::{template_token_append, tokenize};
use std::collections::HashMap;

/// Lexical static/dynamic template: variable content becomes `*` with the
/// surrounding punctuation preserved (`CPU 12:` → `CPU *:`).
///
/// ```
/// use desh_logparse::extract_template;
/// assert_eq!(
///     extract_template("CPU 12: Machine Check Exception: 0xdead"),
///     "CPU *: Machine Check Exception: *"
/// );
/// ```
pub fn extract_template(text: &str) -> String {
    let toks = tokenize(text);
    let mut out = String::with_capacity(text.len());
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(t.templated());
    }
    out
}

/// Zero-allocation twin of [`extract_template`]: clears `out` and appends
/// the template into it, so a hot loop reusing one buffer does no
/// allocation once the buffer is warm. Byte-identical output (test-gated);
/// this is the fleet intake's per-event templating path, where the
/// per-token `String`s of the allocating version dominated the profile.
pub fn extract_template_into(text: &str, out: &mut String) {
    out.clear();
    let mut first = true;
    let mut append = |tok: &str| {
        if !first {
            out.push(' ');
        }
        first = false;
        template_token_append(tok, out);
    };
    if !text.is_ascii() {
        text.split_whitespace().for_each(append);
        return;
    }
    // In ASCII text `split_whitespace` splits on exactly the six ASCII
    // whitespace bytes; splitting on them directly skips its per-char
    // decoding.
    let b = text.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if is_ascii_space(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && !is_ascii_space(b[i]) {
            i += 1;
        }
        append(&text[start..i]);
    }
}

/// The ASCII bytes `char::is_whitespace` accepts: space, tab, line
/// feed, vertical tab, form feed and carriage return.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r')
}

/// Similarity of two equal-length token templates: fraction of positions
/// whose tokens agree, counting `*` as agreeing with anything.
fn similarity(a: &[&str], b: &[&str]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 1.0;
    }
    let same = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x == y || **x == "*" || **y == "*")
        .count();
    same as f64 / a.len() as f64
}

/// One learned template cluster.
#[derive(Debug, Clone)]
struct TemplateCluster {
    tokens: Vec<String>,
    count: u64,
}

/// Drain-style template miner: groups by token count, then by the first
/// static token, then by similarity within the leaf's cluster list.
#[derive(Debug)]
pub struct DrainMiner {
    /// (token count, first-token key) → clusters.
    leaves: HashMap<(usize, String), Vec<TemplateCluster>>,
    /// Merge threshold (fraction of agreeing tokens).
    threshold: f64,
}

impl Default for DrainMiner {
    fn default() -> Self {
        Self::new(0.6)
    }
}

impl DrainMiner {
    /// Miner with a custom similarity threshold in (0, 1].
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0 && threshold <= 1.0);
        Self {
            leaves: HashMap::new(),
            threshold,
        }
    }

    /// Ingest a message; returns the (possibly refined) template string.
    pub fn observe(&mut self, text: &str) -> String {
        let lexical = extract_template(text);
        let tokens: Vec<String> = lexical.split(' ').map(str::to_string).collect();
        if tokens.is_empty() || (tokens.len() == 1 && tokens[0].is_empty()) {
            return String::new();
        }
        let first_key = if tokens[0] == "*" {
            "*"
        } else {
            tokens[0].as_str()
        };
        let key = (tokens.len(), first_key.to_string());
        let clusters = self.leaves.entry(key).or_default();

        let token_refs: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in clusters.iter().enumerate() {
            let refs: Vec<&str> = c.tokens.iter().map(String::as_str).collect();
            let sim = similarity(&refs, &token_refs);
            if sim >= self.threshold && best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((i, sim));
            }
        }
        match best {
            Some((i, _)) => {
                let c = &mut clusters[i];
                // Merge: positions that disagree become '*'.
                for (ct, nt) in c.tokens.iter_mut().zip(&tokens) {
                    if ct != nt {
                        *ct = "*".to_string();
                    }
                }
                c.count += 1;
                c.tokens.join(" ")
            }
            None => {
                clusters.push(TemplateCluster {
                    tokens: tokens.clone(),
                    count: 1,
                });
                tokens.join(" ")
            }
        }
    }

    /// Number of learned clusters across all leaves.
    pub fn cluster_count(&self) -> usize {
        self.leaves.values().map(Vec::len).sum()
    }

    /// All templates with their observation counts, most frequent first.
    pub fn templates(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .leaves
            .values()
            .flatten()
            .map(|c| (c.tokens.join(" "), c.count))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexical_template_matches_paper_examples() {
        // Paper Table 4 / Table 2 style rows.
        assert_eq!(
            extract_template("CPU 12: Machine Check Exception: 0xdead"),
            "CPU *: Machine Check Exception: *"
        );
        assert_eq!(
            extract_template("LustreError: 0x1f2e4a failed: rc = -108"),
            "LustreError: * failed: rc = *"
        );
        assert_eq!(
            extract_template("Kernel panic - not syncing: Fatal Machine check"),
            "Kernel panic - not syncing: Fatal Machine check"
        );
    }

    #[test]
    fn extract_template_into_is_byte_identical() {
        let texts = [
            "CPU 12: Machine Check Exception: 0xdead",
            "LustreError: 0x1f2e4a failed: rc = -108",
            "Kernel panic - not syncing: Fatal Machine check",
            "hwerr 0x4c: ssid_rsp status msg protocol err Info1=0x4c00054064: Info2=0x0: Info3=0x2",
            "Out of memory: Killed process 4521 (/usr/bin/app)",
            "  leading   and   trailing   whitespace  ",
            "",
            "   ",
            "unicode näme[37]: café 0xff μ12",
        ];
        let mut buf = String::from("stale contents");
        for text in texts {
            extract_template_into(text, &mut buf);
            assert_eq!(buf, extract_template(text), "text {text:?}");
        }
    }

    #[test]
    fn same_phrase_different_dynamics_same_template() {
        let a = extract_template("Out of memory: Killed process 4521 (/usr/bin/app)");
        let b = extract_template("Out of memory: Killed process 9 (/opt/x)");
        assert_eq!(a, b);
    }

    #[test]
    fn drain_groups_lexically_identical_messages() {
        let mut m = DrainMiner::default();
        let t1 = m.observe("slurmd: launched job 17 for user 100");
        let t2 = m.observe("slurmd: launched job 9 for user 4");
        assert_eq!(t1, t2);
        assert_eq!(m.cluster_count(), 1);
    }

    #[test]
    fn drain_generalises_non_lexical_variability() {
        // "user alice/bob" is not lexically dynamic; Drain must merge it.
        let mut m = DrainMiner::new(0.6);
        m.observe("session opened for user alice by cron");
        let merged = m.observe("session opened for user bob by cron");
        assert_eq!(merged, "session opened for user * by cron");
        assert_eq!(m.cluster_count(), 1);
    }

    #[test]
    fn drain_keeps_distinct_formats_apart() {
        let mut m = DrainMiner::default();
        m.observe("Kernel panic - not syncing: Fatal Machine check");
        m.observe("LustreError: 0xabc123 failed: rc = -30");
        m.observe("DVS: Verify Filesystem: /proc/stat1");
        assert_eq!(m.cluster_count(), 3);
    }

    #[test]
    fn drain_token_count_partitions() {
        let mut m = DrainMiner::default();
        // Same words, different lengths: never merged.
        m.observe("alpha beta gamma");
        m.observe("alpha beta gamma delta");
        assert_eq!(m.cluster_count(), 2);
    }

    #[test]
    fn templates_report_counts() {
        let mut m = DrainMiner::default();
        for i in 0..5 {
            m.observe(&format!("cpu {i} apic_timer_irqs"));
        }
        m.observe("Wait4Boot");
        let ts = m.templates();
        assert_eq!(ts[0], ("cpu * apic_timer_irqs".to_string(), 5));
        assert_eq!(ts[1].1, 1);
    }

    #[test]
    fn empty_message_is_harmless() {
        let mut m = DrainMiner::default();
        assert_eq!(m.observe(""), "");
        assert_eq!(m.cluster_count(), 0);
    }
}
