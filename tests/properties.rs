//! Property-based tests (proptest) on the workspace's core data structures
//! and invariants.

use desh::loggen::{DayClock, LineHead};
use desh::logparse::extract_template_into;
use desh::prelude::*;
use desh::util::codec::{Decoder, Encoder};
use desh::util::time::MICROS_PER_DAY;
use proptest::prelude::*;

/// The str-based line parser the byte-level head parse replaced, kept as
/// the reference it must agree with on every input.
mod reference {
    use desh::prelude::NodeId;

    /// `HH:MM:SS[.frac]` in microseconds of the day.
    pub fn clock(text: &str) -> Option<u64> {
        let (hms, frac) = match text.split_once('.') {
            Some((a, b)) => (a, b),
            None => (text, "0"),
        };
        let mut parts = hms.split(':');
        let h: u64 = parts.next()?.parse().ok()?;
        let m: u64 = parts.next()?.parse().ok()?;
        let s: u64 = parts.next()?.parse().ok()?;
        if parts.next().is_some() || h >= 24 || m >= 60 || s >= 60 {
            return None;
        }
        if frac.is_empty() || frac.len() > 6 || !frac.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let us: u64 = frac.parse::<u64>().ok()? * 10u64.pow(6 - frac.len() as u32);
        Some(h * 3_600_000_000 + m * 60_000_000 + s * 1_000_000 + us)
    }

    /// `cX-YcCsSnN`.
    pub fn node(s: &str) -> Option<NodeId> {
        let rest = s.strip_prefix('c')?;
        let (cx, rest) = rest.split_once('-')?;
        let (cy, rest) = rest.split_once('c')?;
        let (ch, rest) = rest.split_once('s')?;
        let (sl, nd) = rest.split_once('n')?;
        let (cab_x, cab_y): (u8, u8) = (cx.parse().ok()?, cy.parse().ok()?);
        let (chassis, slot, node): (u8, u8, u8) =
            (ch.parse().ok()?, sl.parse().ok()?, nd.parse().ok()?);
        if chassis >= 3 || slot >= 16 || node >= 4 {
            return None;
        }
        Some(NodeId::new(cab_x, cab_y, chassis, slot, node))
    }

    /// `clock node text`, text non-empty.
    pub fn line(s: &str) -> Option<(u64, NodeId, String)> {
        let mut parts = s.splitn(3, ' ');
        let time = clock(parts.next()?)?;
        let node = node(parts.next()?)?;
        let text = parts.next()?.to_string();
        (!text.is_empty()).then_some((time, node, text))
    }
}

fn pick<'a>(rng: &mut Xoshiro256pp, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len() as u64) as usize]
}

/// A decimal field as a peer may send it: mostly below `max`, else 256
/// and above or 20 digits, sometimes `+`-signed or zero-padded.
fn number_field(rng: &mut Xoshiro256pp, max: u64) -> String {
    let v = match rng.below(8) {
        0 => 256 + rng.below(1000),
        1 => u64::MAX - rng.below(3),
        2 => max + rng.below(3),
        _ => rng.below(max),
    };
    let mut s = match rng.below(6) {
        0 => format!("{v:0>21}"),
        1 => format!("{v:03}"),
        _ => v.to_string(),
    };
    if rng.below(6) == 0 {
        s.insert(0, '+');
    }
    s
}

/// A raw log line, often valid.
fn valid_line(rng: &mut Xoshiro256pp) -> String {
    let frac = match rng.below(5) {
        0 => String::new(),
        1 => format!(".{}", "1234567".get(..rng.below(8) as usize).unwrap()),
        2 => format!(".+{}", rng.below(99)),
        _ => format!(".{:06}", rng.below(1_000_000)),
    };
    let clock = format!(
        "{}:{}:{}{frac}",
        number_field(rng, 24),
        number_field(rng, 60),
        number_field(rng, 60)
    );
    let node = format!(
        "c{}-{}c{}s{}n{}",
        number_field(rng, 256),
        number_field(rng, 256),
        number_field(rng, 3),
        number_field(rng, 16),
        number_field(rng, 4)
    );
    let text = pick(
        rng,
        &[
            "",
            " ",
            "Wait4Boot",
            "  lead",
            "a b  c\t",
            "näme 12",
            "x\u{3000}y",
            "cb_node_unavailable",
        ],
    );
    format!(
        "{clock}{}{node}{}{text}",
        pick(rng, &[" ", " ", " ", "  ", "\t", ""]),
        pick(rng, &[" ", " ", " ", "  ", ""])
    )
}

/// A line for the head parser: arbitrary soup, or a valid-looking line
/// with a few characters deleted, inserted or replaced.
fn arbitrary_line(rng: &mut Xoshiro256pp) -> String {
    const ALPHABET: &[&str] = &[
        "0", "1", "9", ":", ".", "+", "-", " ", "c", "s", "n", "x", "\t", "é", "\u{a0}",
    ];
    if rng.below(4) == 0 {
        return (0..rng.below(40)).map(|_| pick(rng, ALPHABET)).collect();
    }
    let mut chars: Vec<char> = valid_line(rng).chars().collect();
    for _ in 0..rng.below(3) {
        let at = rng.below(chars.len() as u64 + 1) as usize;
        let c = pick(rng, ALPHABET).chars().next().unwrap();
        match rng.below(3) {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 if at < chars.len() => chars[at] = c,
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

/// A digit-free hex word of `len` letters.
fn hex_word(rng: &mut Xoshiro256pp, len: u64) -> String {
    (0..len)
        .map(|_| pick(rng, &["a", "b", "c", "d", "e", "f", "A", "F"]))
        .collect()
}

/// Message text mixing every token shape templating treats specially,
/// separated by runs of whitespace: the six ASCII whitespace bytes, and
/// in a quarter of the texts U+00A0 and U+3000 too.
fn token_mix(rng: &mut Xoshiro256pp) -> String {
    let unicode = rng.below(4) == 0;
    let mut spaces = vec![" ", "\t", "\n", "\u{0B}", "\u{0C}", "\r"];
    if unicode {
        spaces.extend(["\u{A0}", "\u{3000}"]);
    }
    let mut out = String::new();
    for i in 0..rng.below(12) {
        if i > 0 || rng.below(4) == 0 {
            for _ in 0..1 + rng.below(3) {
                out.push_str(pick(rng, &spaces));
            }
        }
        let mut tok = match rng.below(12) {
            0 => pick(
                rng,
                &[
                    "Kernel",
                    "panic",
                    "LustreError",
                    "h/w",
                    "=",
                    "-",
                    "severity=Corrected",
                ],
            )
            .to_string(),
            1 => {
                let len = 11 + rng.below(3);
                hex_word(rng, len)
            }
            2 => format!("/{}/{}", hex_word(rng, 2), pick(rng, &["bin", "x9", ""])),
            3 => "*".to_string(),
            4 => format!("-{}", rng.below(10_000)),
            5 => format!("0x{:x}", rng.below(1 << 40)),
            6 => format!("Info{}={}", rng.below(4), pick(rng, &["0x4c0", "on", "12"])),
            7 => format!("hwerr[{}]:", rng.below(99_999)),
            8 => "20141216t162520".to_string(),
            9 => format!("{}{:x}", hex_word(rng, 4), rng.below(1 << 32)),
            10 => pick(rng, &["::", "[[", ")", "<>", ""]).to_string(),
            _ if unicode => pick(rng, &["näme[37]:", "café42", "μ12", "éclair"]).to_string(),
            _ => pick(rng, &["Wait4Boot", "EXT4-fs", "x123y", "99bottles"]).to_string(),
        };
        if rng.below(3) == 0 {
            tok = format!(
                "{}{tok}{}",
                pick(rng, &["(", "[", "<", "", "(("]),
                pick(rng, &[",", ".", ";", ":", ")", "]", ">", "):"])
            );
        }
        out.push_str(&tok);
    }
    if rng.below(4) == 0 {
        out.push_str(pick(rng, &spaces));
    }
    out
}

proptest! {
    // ---- codec ------------------------------------------------------------

    #[test]
    fn codec_round_trips_arbitrary_payloads(
        a in any::<u64>(),
        b in any::<f32>().prop_filter("finite", |x| x.is_finite()),
        s in ".{0,64}",
        xs in proptest::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 0..64),
        us in proptest::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut e = Encoder::new();
        e.put_u64(a);
        e.put_f32(b);
        e.put_str(&s);
        e.put_f32_slice(&xs);
        e.put_u32_slice(&us);
        let mut d = Decoder::new(e.finish());
        prop_assert_eq!(d.u64().unwrap(), a);
        prop_assert_eq!(d.f32().unwrap(), b);
        prop_assert_eq!(d.string().unwrap(), s);
        prop_assert_eq!(d.f32_vec().unwrap(), xs);
        prop_assert_eq!(d.u32_vec().unwrap(), us);
        prop_assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn codec_never_panics_on_truncation(
        xs in proptest::collection::vec(any::<f32>(), 1..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut e = Encoder::new();
        e.put_f32_slice(&xs);
        let bytes = e.finish();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut d = Decoder::new(bytes.slice(0..cut));
        // Either decodes fully or errors; never panics.
        let _ = d.f32_vec();
    }

    // ---- time -------------------------------------------------------------

    #[test]
    fn clock_round_trip_within_a_day(us in 0u64..86_400_000_000u64) {
        let t = Micros(us);
        prop_assert_eq!(Micros::parse_clock(&t.as_clock()).unwrap(), t);
    }

    // ---- line head parse ---------------------------------------------------

    #[test]
    fn line_head_parse_matches_the_str_parser(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..400 {
            let line = arbitrary_line(&mut rng);
            let want = reference::line(&line);
            let head = LineHead::parse(&line).map(|h| (h.time.0, h.node, h.text.to_string()));
            prop_assert_eq!(&head, &want, "line {:?}", line);
            let record = line.parse::<LogRecord>().ok().map(|r| (r.time.0, r.node, r.text));
            prop_assert_eq!(&record, &want, "line {:?}", line);
            let mut fields = line.splitn(3, ' ');
            let clock = fields.next().unwrap_or("");
            let parsed = Micros::parse_clock(clock).map(|t| t.0);
            prop_assert_eq!(parsed, reference::clock(clock), "clock {:?}", clock);
            let node = fields.next().unwrap_or("");
            prop_assert_eq!(node.parse::<NodeId>().ok(), reference::node(node), "node {:?}", node);
        }
    }

    #[test]
    fn day_clock_matches_the_str_parser_across_midnights(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let (mut owned, mut borrowed) = (DayClock::new(), DayClock::new());
        let (mut prev, mut offset) = (None::<u64>, 0u64);
        let mut clock_us = rng.below(MICROS_PER_DAY);
        for _ in 0..400 {
            // Mostly forward in time, wrapping at 24:00, sometimes garbage.
            clock_us = (clock_us + rng.below(4 * 3_600_000_000)) % MICROS_PER_DAY;
            let line = match rng.below(5) {
                0 => arbitrary_line(&mut rng),
                _ => {
                    let clock = Micros(clock_us).as_clock();
                    format!("{clock} c0-0c0s{}n0 text {}", rng.below(16), rng.below(9))
                }
            };
            let want = reference::line(&line).map(|(clock, node, text)| {
                if prev.is_some_and(|p| clock < p) {
                    offset = offset.saturating_add(MICROS_PER_DAY);
                }
                prev = Some(clock);
                (clock.saturating_add(offset), node, text)
            });
            let got = owned.parse(&line).ok().map(|r| (r.time.0, r.node, r.text));
            prop_assert_eq!(&got, &want, "line {:?}", line);
            let head = borrowed.parse_head(&line).map(|h| (h.time.0, h.node, h.text.to_string()));
            prop_assert_eq!(&head, &want, "line {:?}", line);
        }
    }

    // ---- node ids ----------------------------------------------------------

    #[test]
    fn node_id_round_trips(idx in 0usize..49_152) {
        let id = NodeId::from_index(idx);
        let parsed: NodeId = id.to_string().parse().unwrap();
        prop_assert_eq!(parsed, id);
        prop_assert_eq!(id.to_index(), idx);
    }

    // ---- template mining -----------------------------------------------------

    #[test]
    fn template_extraction_is_idempotent(s in "[ -~]{0,120}") {
        let once = extract_template(&s);
        let twice = extract_template(&once);
        prop_assert_eq!(&once, &twice, "input was {:?}", s);
    }

    #[test]
    fn template_fast_path_is_byte_identical(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut buf = String::from("stale");
        for _ in 0..300 {
            let text = token_mix(&mut rng);
            extract_template_into(&text, &mut buf);
            prop_assert_eq!(&buf, &extract_template(&text), "text {:?}", text);
        }
    }

    #[test]
    fn template_never_contains_long_hex(s in "[ -~]{0,120}") {
        let t = extract_template(&s);
        for tok in t.split_whitespace() {
            let core = tok.trim_matches(|c: char| ",.;:()[]<>".contains(c));
            let all_hex = core.len() >= 12 && core.bytes().all(|b| b.is_ascii_hexdigit());
            prop_assert!(!all_hex, "leaked hex token {:?} in template {:?}", tok, t);
        }
    }

    // ---- statistics ---------------------------------------------------------

    #[test]
    fn summary_merge_equals_single_pass(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let whole = Summary::of(&xs);
        let mut left = Summary::of(&xs[..split]);
        left.merge(&Summary::of(&xs[split..]));
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance()));
    }

    // ---- metrics -------------------------------------------------------------

    #[test]
    fn confusion_metrics_stay_in_unit_range(
        tp in 0u64..1000, fp in 0u64..1000, tn in 0u64..1000, fnn in 0u64..1000,
    ) {
        let c = Confusion { tp, fp, tn, fnn };
        for v in [c.recall(), c.precision(), c.accuracy(), c.f1(), c.fp_rate(), c.fn_rate()] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range for {c:?}");
        }
        // F1 is bounded by both recall and precision maxima.
        prop_assert!(c.f1() <= c.recall().max(c.precision()) + 1e-12);
        // FN rate complements recall.
        if tp + fnn > 0 {
            prop_assert!((c.fn_rate() - (1.0 - c.recall())).abs() < 1e-12);
        }
    }

    // ---- rng -----------------------------------------------------------------

    #[test]
    fn rng_below_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_weighted_picks_only_positive_indices(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..10.0, 1..8),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..50 {
            let idx = rng.weighted(&weights);
            prop_assert!(idx < weights.len());
        }
    }

    // ---- matrices --------------------------------------------------------------

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mk = |r: usize, c: usize, rng: &mut Xoshiro256pp| {
            Mat::from_fn(r, c, |_, _| rng.f32() - 0.5)
        };
        let a = mk(m, k, &mut rng);
        let b = mk(k, n, &mut rng);
        let c = mk(k, n, &mut rng);
        // A(B + C) == AB + AC
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    // ---- generator invariants ---------------------------------------------------

    #[test]
    fn generated_datasets_are_well_formed(seed in any::<u64>()) {
        let d = generate(&SystemProfile::tiny(), seed);
        // Sorted by time.
        for w in d.records.windows(2) {
            prop_assert!(w[0].time <= w[1].time);
        }
        // Every failure has a terminal record at its node/time.
        for f in &d.failures {
            prop_assert!(d.records.iter().any(|r| r.node == f.node && r.time == f.time));
        }
        // Raw lines parse back.
        for r in d.records.iter().take(50) {
            let parsed: LogRecord = r.to_raw_line().parse().unwrap();
            prop_assert_eq!(parsed.node, r.node);
        }
    }
}

// ---- observability: decision traces & sealed containers -----------------------

proptest! {
    // The 11-word trace encoding is lossless for every representable
    // decision — including NaN and infinite MSEs (bit patterns preserved).
    #[test]
    fn trace_event_words_round_trip(
        at_us in any::<u64>(),
        phrase in any::<u32>(),
        dt_secs in any::<f64>(),
        step_mse in any::<f64>(),
        mean_mse in any::<f64>(),
        threshold in any::<f64>(),
        transitions in any::<u32>(),
        min_evidence in any::<u32>(),
        replayed in any::<bool>(),
        warned in any::<bool>(),
        matched_chain in any::<i64>(),
    ) {
        let ev = desh::obs::TraceEvent {
            at_us, phrase, dt_secs, step_mse, mean_mse, threshold,
            transitions, min_evidence, replayed, warned, matched_chain,
        };
        let back = desh::obs::TraceEvent::from_words(&ev.to_words());
        prop_assert_eq!(back.at_us, ev.at_us);
        prop_assert_eq!(back.phrase, ev.phrase);
        // Bit-compare the floats: NaN payloads must survive too.
        prop_assert_eq!(back.dt_secs.to_bits(), ev.dt_secs.to_bits());
        prop_assert_eq!(back.step_mse.to_bits(), ev.step_mse.to_bits());
        prop_assert_eq!(back.mean_mse.to_bits(), ev.mean_mse.to_bits());
        prop_assert_eq!(back.threshold.to_bits(), ev.threshold.to_bits());
        prop_assert_eq!(back.transitions, ev.transitions);
        prop_assert_eq!(back.min_evidence, ev.min_evidence);
        prop_assert_eq!(back.replayed, ev.replayed);
        prop_assert_eq!(back.warned, ev.warned);
        prop_assert_eq!(back.matched_chain, ev.matched_chain);
    }

    // Sealed containers (the .dcap framing) round-trip any payload and
    // reject every corruption: truncation at any cut point, any single
    // bit flip, wrong magic, trailing garbage — always an error naming
    // the problem, never a panic or a silent wrong payload.
    #[test]
    fn sealed_container_rejects_all_corruption(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        garbage in 1usize..8,
    ) {
        use desh::util::codec::{seal, unseal, CodecError};
        let magic = *b"PCAP";
        let sealed = seal(magic, 3, &payload);
        let unsealed = unseal(magic, 3, &sealed).unwrap();
        prop_assert_eq!(unsealed.as_ref(), payload.as_slice());

        // Truncation at any point short of the full length must fail.
        let cut = ((sealed.len() as f64) * cut_frac) as usize;
        if cut < sealed.len() {
            prop_assert!(unseal(magic, 3, &sealed[..cut]).is_err());
        }

        // Any single bit flip fails: header flips break magic/version/
        // length/checksum fields, payload flips break the checksum.
        let bit = ((sealed.len() * 8 - 1) as f64 * flip_frac) as usize;
        let mut flipped = sealed.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(unseal(magic, 3, &flipped).is_err());

        // A bit flip inside the payload is specifically a checksum error.
        if !payload.is_empty() {
            let mut corrupt = sealed.clone();
            let last = corrupt.len() - 1;
            corrupt[last] ^= 0x40;
            prop_assert!(matches!(
                unseal(magic, 3, &corrupt),
                Err(CodecError::BadChecksum { .. })
            ));
        }

        // Wrong magic / wrong version are rejected up front.
        prop_assert!(unseal(*b"XXXX", 3, &sealed).is_err());
        prop_assert!(unseal(magic, 4, &sealed).is_err());

        // Trailing garbage means the file is not what was sealed.
        let mut padded = sealed.clone();
        padded.extend(std::iter::repeat_n(0xAA, garbage));
        prop_assert!(unseal(magic, 3, &padded).is_err());
    }
}

// ---- observability: latency histograms ---------------------------------------

proptest! {
    // The log-scale bucket layout approximates, but quantile estimates must
    // still be non-decreasing in q no matter how the samples land in buckets.
    #[test]
    fn latency_quantiles_monotone_in_q(
        values in proptest::collection::vec(0u64..10_000_000, 1..256),
        qs in proptest::collection::vec(0.0f64..1.0, 2..8),
    ) {
        let h = desh::obs::LatencyHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut qs = qs;
        qs.sort_by(|a, b| a.total_cmp(b));
        for w in qs.windows(2) {
            let (lo, hi) = (snap.quantile(w[0]), snap.quantile(w[1]));
            prop_assert!(lo <= hi, "quantile({}) = {lo} > quantile({}) = {hi}", w[0], w[1]);
        }
        // Estimates stay inside the recorded range's bucket bounds.
        prop_assert!(snap.quantile(0.0) >= snap.min() as f64);
        prop_assert!(snap.quantile(1.0) <= snap.max() as f64);
    }

    // Merging per-thread histograms must commute: the merged snapshot is the
    // same whether shard A absorbs B or B absorbs A, and matches recording
    // everything into one histogram directly.
    #[test]
    fn latency_merge_is_order_invariant(
        a in proptest::collection::vec(0u64..1_000_000, 0..128),
        b in proptest::collection::vec(0u64..1_000_000, 0..128),
        c in proptest::collection::vec(0u64..1_000_000, 0..128),
    ) {
        let fill = |vals: &[u64]| {
            let h = desh::obs::LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let ab_c = fill(&a);
        ab_c.merge(&fill(&b));
        ab_c.merge(&fill(&c));
        let c_ba = fill(&c);
        c_ba.merge(&fill(&b));
        c_ba.merge(&fill(&a));
        prop_assert_eq!(ab_c.snapshot(), c_ba.snapshot());

        let direct = fill(&a);
        for &v in b.iter().chain(&c) {
            direct.record(v);
        }
        prop_assert_eq!(ab_c.snapshot(), direct.snapshot());
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
    }
}

// ---- checkpoints: corrupt `.dshm` files ----------------------------------------

/// A small valid v3 `.dshm`: an untrained two-layer net over six templates,
/// two failure chains and a provenance stamp.
fn dshm_fixture() -> Vec<u8> {
    let vocab = desh::logparse::Vocab::new();
    for t in [
        "boot ok",
        "mce error bank <n>",
        "link down",
        "panic at <n>",
        "fs full",
        "node down",
    ] {
        vocab.intern(t);
    }
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let model = LeadTimeModel {
        net: VectorLstm::new(vocab.len() + 1, 6, 2, &mut rng),
        dt_scale: 300.0,
        vocab_size: vocab.len(),
        history: 5,
        losses: Vec::new(),
    };
    let chain = |node: usize, phrases: &[u32]| FailureChain {
        node: NodeId::from_index(node),
        terminal_time: Micros(60_000_000),
        events: phrases
            .iter()
            .enumerate()
            .map(|(k, &phrase)| desh::core::ChainEvent {
                time: Micros(k as u64 * 10_000_000),
                phrase,
                delta_t: (phrases.len() - k) as f64 * 10.0,
            })
            .collect(),
    };
    let chains = [chain(3, &[1, 2, 5]), chain(40, &[0, 3, 4, 5])];
    desh::checkpoint::encode_checkpoint(&model, &vocab, &chains, "fixture", 0xd54c)
}

/// A decoded checkpoint's shapes agree, and it scores the way `predict`
/// and `serve` drive it: streams, waves, a warning's lead window, and
/// the online detector with chains attached.
fn assert_scores(ck: desh::checkpoint::Checkpoint) {
    let m = &ck.model;
    assert_eq!(m.net.dim(), m.vocab_size + 1);
    assert_eq!(ck.vocab.len(), m.vocab_size);
    let span = m.vocab_size as u32 + 2;
    let events: Vec<(Micros, u32)> = (0..8u32)
        .map(|k| (Micros(u64::from(k) * 7_000_000), k * 3 % span))
        .collect();
    let mut stream = m.begin_stream();
    let mut batch = m.begin_batch(2);
    let mut scores = Vec::new();
    for &(t, p) in &events {
        m.stream_push(&mut stream, t, p);
        m.batch_stage(&mut batch, 1, t, p);
        m.batch_push_rows(&mut batch, &[1], &mut scores);
    }
    m.predict_lead(&events, &mut desh::nn::WindowScratch::new());
    let mut det = desh::core::OnlineDetector::new(ck.model, ck.vocab, DeshConfig::default());
    det.attach_chains(&ck.chains);
    for (k, text) in ["mce error bank 4", "link down", "panic at 7", "node down"]
        .iter()
        .cycle()
        .take(12)
        .enumerate()
    {
        let at = Micros(k as u64 * 5_000_000);
        det.ingest(&LogRecord::new(at, NodeId::from_index(3), text.to_string()));
    }
}

#[test]
fn dshm_decoder_rejects_every_truncation() {
    let bytes = dshm_fixture();
    assert_scores(desh::checkpoint::decode_checkpoint(bytes.clone()).unwrap());
    for cut in 0..bytes.len() {
        assert!(
            desh::checkpoint::decode_checkpoint(bytes[..cut].to_vec()).is_err(),
            "a {cut}-byte prefix of a {}-byte checkpoint decoded",
            bytes.len()
        );
    }
}

proptest! {
    // Random byte corruption never panics the decoder: each corrupt file
    // either fails to decode or yields a model whose shapes agree and
    // that scores without panicking. Half the flips land in the head and
    // tail, where the counts, dims and chains live; the rest anywhere.
    #[test]
    fn dshm_decoder_survives_random_corruption(seed in any::<u64>()) {
        let clean = dshm_fixture();
        let len = clean.len() as u64;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..64 {
            let mut bytes = clean.clone();
            for _ in 0..1 + rng.below(4) {
                let at = match rng.below(2) {
                    0 => rng.below(len),
                    _ => (rng.below(768) + len - 256) % len,
                };
                bytes[at as usize] ^= 1 + rng.below(255) as u8;
            }
            if let Ok(ck) = desh::checkpoint::decode_checkpoint(bytes) {
                assert_scores(ck);
            }
        }
    }
}
