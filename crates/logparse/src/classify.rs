//! One classification per line: a message text's template is Safe, or a
//! phrase id with its failure-terminal flag.
//!
//! Desh drops Safe phrases before anything is encoded (§3.1), so this is
//! the first thing every detector asks of a line. [`Classifier`] answers
//! it with one template extraction into a reused buffer and one hash
//! probe into a memo of the templates seen before; a miss labels the
//! template and, when it is not Safe, interns it into the shared
//! vocabulary. Safe templates take no phrase id. The memo is bounded by
//! entries and by bytes; past either bound a miss takes the uncached
//! path, with the same result.

use crate::label::{is_failure_terminal, label_template};
use crate::template::extract_template_into;
use crate::vocab::{Vocab, OVERFLOW_PHRASE};
use desh_loggen::Label;
use desh_obs::{Counter, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// Most templates one classifier memoises.
pub const MEMO_MAX_TEMPLATES: usize = 4096;

/// Most bytes of template text one classifier memoises.
pub const MEMO_MAX_BYTES: usize = 256 << 10;

/// What a line's template is to a detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Benign: dropped before encoding.
    Safe,
    /// Kept for chain formation, under `phrase`; `terminal` marks a
    /// message that ends a failure episode.
    Event {
        /// Phrase id in the bound vocabulary ([`OVERFLOW_PHRASE`] once it
        /// is full).
        phrase: u32,
        /// The template is a failure terminal.
        terminal: bool,
    },
}

/// Template → [`Class`] memo over one shared vocabulary.
///
/// ```
/// use desh_logparse::{Class, Classifier, Vocab};
/// use std::sync::Arc;
/// let mut c = Classifier::new(Arc::new(Vocab::new()));
/// assert_eq!(c.classify("Wait4Boot"), Class::Safe);
/// assert_eq!(
///     c.classify("Kernel panic - not syncing: 0x1f"),
///     Class::Event { phrase: 0, terminal: false }
/// );
/// ```
#[derive(Debug)]
pub struct Classifier {
    vocab: Arc<Vocab>,
    memo: HashMap<Box<str>, Class>,
    memo_bytes: usize,
    tmpl: String,
    /// `ingest.vocab_overflow`: lines classified under
    /// [`OVERFLOW_PHRASE`].
    overflow: Option<Arc<Counter>>,
}

impl Classifier {
    /// A classifier interning into `vocab`. Telemetry disabled.
    pub fn new(vocab: Arc<Vocab>) -> Self {
        Self::with_telemetry(vocab, &Telemetry::disabled())
    }

    /// [`Classifier::new`] counting lines past the vocabulary bound in
    /// `ingest.vocab_overflow`.
    pub fn with_telemetry(vocab: Arc<Vocab>, telemetry: &Telemetry) -> Self {
        Self {
            vocab,
            memo: HashMap::new(),
            memo_bytes: 0,
            tmpl: String::new(),
            overflow: telemetry
                .registry()
                .map(|r| r.counter("ingest.vocab_overflow")),
        }
    }

    /// The vocabulary phrase ids come from.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }

    /// Classify one message text.
    pub fn classify(&mut self, text: &str) -> Class {
        extract_template_into(text, &mut self.tmpl);
        let class = match self.memo.get(self.tmpl.as_str()) {
            Some(&class) => class,
            None => {
                let class = if label_template(&self.tmpl) == Label::Safe {
                    Class::Safe
                } else {
                    Class::Event {
                        phrase: self.vocab.intern(&self.tmpl),
                        terminal: is_failure_terminal(&self.tmpl),
                    }
                };
                // The vocabulary only grows, so a template that
                // overflowed it once always will: its class is as
                // stable as any other.
                if self.memo.len() < MEMO_MAX_TEMPLATES
                    && self.memo_bytes + self.tmpl.len() <= MEMO_MAX_BYTES
                {
                    self.memo_bytes += self.tmpl.len();
                    self.memo.insert(self.tmpl.as_str().into(), class);
                }
                class
            }
        };
        if let Some(c) = &self.overflow {
            if matches!(class, Class::Event { phrase, .. } if phrase == OVERFLOW_PHRASE) {
                c.inc();
            }
        }
        class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::extract_template;

    #[test]
    fn classes_match_the_uncached_rules_and_intern_in_first_seen_order() {
        let texts = [
            "Wait4Boot",
            "LustreError: 0x1f2e4a failed: rc = -108",
            "cb_node_unavailable c0-0c0s1n2",
            "LustreError: 0xbeef failed: rc = -5",
            "cpu 3 apic_timer_irqs",
            "Kernel panic - not syncing: Fatal Machine check",
        ];
        let vocab = Arc::new(Vocab::new());
        let mut c = Classifier::new(Arc::clone(&vocab));
        let reference = Vocab::new();
        for _ in 0..2 {
            for text in texts {
                let tmpl = extract_template(text);
                let want = if label_template(&tmpl) == Label::Safe {
                    Class::Safe
                } else {
                    Class::Event {
                        phrase: reference.intern(&tmpl),
                        terminal: is_failure_terminal(&tmpl),
                    }
                };
                assert_eq!(c.classify(text), want, "{text}");
            }
        }
        assert_eq!(vocab.snapshot(), reference.snapshot());
        assert_eq!(vocab.len(), 3, "Safe templates took no phrase id");
    }

    /// The `i`-th distinct digit-free, non-hex word.
    fn word(mut i: usize) -> String {
        let mut w = String::from("novel");
        loop {
            w.push(char::from(b'g' + (i % 20) as u8));
            i /= 20;
            if i == 0 {
                return w;
            }
        }
    }

    #[test]
    fn the_memo_stays_within_its_bounds() {
        let long = "y".repeat(1000);
        for suffix in ["", long.as_str()] {
            let mut c = Classifier::new(Arc::new(Vocab::new()));
            for i in 0..MEMO_MAX_TEMPLATES + 50 {
                let text = format!("{} {suffix}", word(i));
                assert_eq!(
                    c.classify(&text),
                    Class::Event {
                        phrase: i as u32,
                        terminal: false
                    }
                );
            }
            assert!(c.memo.len() <= MEMO_MAX_TEMPLATES);
            assert!(c.memo_bytes <= MEMO_MAX_BYTES);
            assert_eq!(c.memo_bytes, c.memo.keys().map(|k| k.len()).sum::<usize>());
        }
    }

    #[test]
    fn lines_past_the_vocabulary_bound_are_counted() {
        let t = Telemetry::enabled();
        let vocab = Arc::new(Vocab::new());
        for i in 0..crate::vocab::MAX_TEMPLATES {
            vocab.intern(&format!("filler{i}"));
        }
        let mut c = Classifier::with_telemetry(vocab, &t);
        for _ in 0..3 {
            assert_eq!(
                c.classify("a novel failure string"),
                Class::Event {
                    phrase: OVERFLOW_PHRASE,
                    terminal: false
                }
            );
        }
        assert_eq!(c.classify("Wait4Boot"), Class::Safe);
        assert_eq!(
            t.snapshot().unwrap().counter("ingest.vocab_overflow"),
            Some(3)
        );
    }
}
