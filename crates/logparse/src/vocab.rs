//! Phrase vocabulary: templates ↔ dense u32 phrase ids.
//!
//! "Once the constant messages are extracted they are encoded to a uniquely
//! identifiable number" (§3.1). The vocabulary is append-only and shared
//! across parallel parsing workers behind a `parking_lot::RwLock`: lookups
//! (the hot path once the vocabulary saturates) take the read lock,
//! insertions the write lock.
//!
//! A served vocabulary grows with every novel non-Safe template a peer
//! sends, so it is bounded: at most [`MAX_TEMPLATES`] templates and
//! [`MAX_TEMPLATE_BYTES`] bytes of template text (each stored once).
//! Past either bound a novel template gets [`OVERFLOW_PHRASE`], an id no
//! template holds; the model clamps it like any id past its training
//! vocabulary, so scoring does not change.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Most templates a vocabulary holds.
pub const MAX_TEMPLATES: usize = 1 << 16;

/// Most bytes of template text a vocabulary holds.
pub const MAX_TEMPLATE_BYTES: usize = 16 << 20;

/// The phrase id of every template that arrives once the vocabulary is
/// full: one past the last id a template can hold.
pub const OVERFLOW_PHRASE: u32 = MAX_TEMPLATES as u32;

/// Append-only bidirectional template ↔ id map.
///
/// ```
/// use desh_logparse::Vocab;
/// let v = Vocab::new();
/// let id = v.intern("LustreError: * failed: rc = *");
/// assert_eq!(v.intern("LustreError: * failed: rc = *"), id);
/// assert_eq!(v.text(id).as_deref(), Some("LustreError: * failed: rc = *"));
/// ```
#[derive(Debug, Default)]
pub struct Vocab {
    inner: RwLock<VocabInner>,
}

#[derive(Debug, Default)]
struct VocabInner {
    by_text: HashMap<Arc<str>, u32>,
    by_id: Vec<Arc<str>>,
    /// Template bytes held, counted once per template.
    bytes: usize,
}

impl Vocab {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get the id for a template, interning it if unseen and the
    /// vocabulary has room; [`OVERFLOW_PHRASE`] when it has none.
    pub fn intern(&self, template: &str) -> u32 {
        if let Some(&id) = self.inner.read().by_text.get(template) {
            return id;
        }
        let mut w = self.inner.write();
        if let Some(&id) = w.by_text.get(template) {
            return id; // raced with another writer
        }
        if w.by_id.len() >= MAX_TEMPLATES || w.bytes + template.len() > MAX_TEMPLATE_BYTES {
            return OVERFLOW_PHRASE;
        }
        let id = w.by_id.len() as u32;
        let text: Arc<str> = Arc::from(template);
        w.by_id.push(Arc::clone(&text));
        w.by_text.insert(text, id);
        w.bytes += template.len();
        id
    }

    /// Lookup without interning.
    pub fn get(&self, template: &str) -> Option<u32> {
        self.inner.read().by_text.get(template).copied()
    }

    /// Template text for an id.
    pub fn text(&self, id: u32) -> Option<String> {
        self.inner.read().by_id.get(id as usize).map(|t| t.to_string())
    }

    /// Number of interned templates.
    pub fn len(&self) -> usize {
        self.inner.read().by_id.len()
    }

    /// Bytes of template text held.
    pub fn bytes(&self) -> usize {
        self.inner.read().bytes
    }

    /// True when no template has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all templates in id order.
    pub fn snapshot(&self) -> Vec<String> {
        self.inner.read().by_id.iter().map(|t| t.to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let v = Vocab::new();
        let a = v.intern("LustreError: * failed: rc = *");
        let b = v.intern("LustreError: * failed: rc = *");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let v = Vocab::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("c"), 2);
        assert_eq!(v.text(1).as_deref(), Some("b"));
        assert_eq!(v.get("c"), Some(2));
        assert_eq!(v.get("zz"), None);
        assert_eq!(v.text(99), None);
    }

    #[test]
    fn snapshot_preserves_order() {
        let v = Vocab::new();
        v.intern("x");
        v.intern("y");
        assert_eq!(v.snapshot(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn concurrent_interning_yields_consistent_ids() {
        use std::sync::Arc;
        let v = Arc::new(Vocab::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                let mut ids = Vec::new();
                for i in 0..100 {
                    // Heavy overlap across threads.
                    ids.push(v.intern(&format!("tmpl-{}", (i + t) % 50)));
                }
                ids
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.len(), 50);
        // Every template maps to exactly one id and round-trips.
        for i in 0..50 {
            let t = format!("tmpl-{i}");
            let id = v.get(&t).unwrap();
            assert_eq!(v.text(id).unwrap(), t);
        }
    }

    #[test]
    fn interning_stops_at_the_entry_and_byte_bounds() {
        let v = Vocab::new();
        for i in 0..MAX_TEMPLATES {
            assert_eq!(v.intern(&format!("t{i}")), i as u32);
        }
        assert_eq!(v.intern("one more"), OVERFLOW_PHRASE);
        assert_eq!(v.intern("t7"), 7, "held templates keep their ids");
        assert_eq!(v.len(), MAX_TEMPLATES);
        assert_eq!(v.text(OVERFLOW_PHRASE), None);

        let v = Vocab::new();
        let big = "x".repeat(MAX_TEMPLATE_BYTES / 2);
        assert_eq!(v.intern(&big), 0);
        assert_eq!(v.intern(&format!("{big}y")), OVERFLOW_PHRASE);
        assert_eq!(v.intern("short"), 1, "a template that fits still interns");
        assert!(v.bytes() <= MAX_TEMPLATE_BYTES);
    }
}
