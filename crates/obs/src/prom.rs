//! Text renderers: Prometheus exposition format and a human summary table.

use crate::snapshot::Snapshot;

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a label value per the text exposition format: backslash,
/// double-quote, and newline must be backslash-escaped inside the quotes.
fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP string per the text exposition format: backslash and
/// newline must be backslash-escaped (quotes are legal verbatim here).
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Split a registry name using the `base[k=v,...]` labelled-metric
/// convention into the base name and its label pairs. Names without a
/// trailing `[...]` suffix come back label-free.
fn split_labels(name: &str) -> (&str, Vec<(&str, &str)>) {
    if let Some(open) = name.find('[') {
        if let Some(body) = name[open + 1..].strip_suffix(']') {
            let labels = body
                .split(',')
                .filter_map(|kv| kv.split_once('='))
                .collect();
            return (&name[..open], labels);
        }
    }
    (name, Vec::new())
}

/// Render `{k="v",...}` (or an empty string), escaping values and mapping
/// key characters through [`prom_name`]. `extra` appends one more pair
/// whose value is already exposition-safe (the summary `quantile` tag).
fn render_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_name(k), escape_label_value(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// HELP text for a metric family. Curated strings for the families an
/// operator will actually alert on, prefix rules for generated families
/// (`profile.<surface>.<stage>_ns`, `span.<path>_us`), and a generic
/// fallback — every family gets *some* HELP so real Prometheus scrapers
/// ingest a fully self-describing exposition.
fn help_for(base: &str) -> String {
    let curated = match base {
        "online.score_latency_us" => {
            "Per-event online scoring latency in microseconds (paper Fig. 10 reports ~650us)"
        }
        "online.events" => "Log events ingested by the online detector",
        "online.warnings" => "Failure warnings fired by the online detector",
        "online.buffered_events" => "Events currently buffered in per-node session windows",
        "online.buffer_occupancy" => "Fraction of the per-node session buffer in use",
        "quality.precision" => "Rolling precision over labelled replay verdicts",
        "quality.recall" => "Rolling recall over labelled replay verdicts",
        "quality.template_miss" => "Parsed events that matched no known template",
        "quality.template_events" => "Parsed events checked against the template vocabulary",
        "quality.template_drift" => {
            "EWMA of the template-miss rate over scored events (~64-event window)"
        }
        "quality.lead_secs" => "Predicted failure lead time in seconds, per failure class",
        "quality.lead_vs_paper" => {
            "Mean predicted lead divided by the paper's Table 7 per-class mean\nnear 1.0 = calibrated"
        }
        "shadow.events" => "Events scored through both the primary and shadow candidate detectors",
        "shadow.agree_both" => {
            "Warning episodes where primary and shadow candidate both fired within the match slack"
        }
        "shadow.primary_only" => "Warnings only the primary fired (candidate silent within slack)",
        "shadow.candidate_only" => {
            "Warnings only the shadow candidate fired (primary silent within slack)"
        }
        "shadow.primary_warnings" => "Warnings fired by the primary detector under shadow scoring",
        "shadow.candidate_warnings" => "Warnings fired by the shadow candidate detector",
        "shadow.agreement" => "Fraction of resolved warning episodes where both detectors fired",
        "shadow.score_drift" => {
            "EWMA of absolute primary-vs-candidate score divergence (~64-event window)"
        }
        "shadow.score_samples" => "Events where both detectors produced a comparable score",
        "shadow.lead_secs" => "Predicted lead time in seconds under shadow scoring, per side",
        "shadow.lead_delta_secs" => {
            "Absolute primary-vs-candidate lead-time delta in seconds, per failure class"
        }
        "ingest.queue_wait_us" => {
            "Per-shard intake queue wait from enqueue to worker drain, microseconds"
        }
        "ingest.rejected" => "Raw intake lines rejected without enqueueing, per reason",
        "ingest.refused_connections" => "Intake connections closed at the connection cap",
        "ingest.first_steps_cached" => {
            "Wave rows of fresh streams served from the first-step table instead of the GEMV"
        }
        "online.episode_trimmed" => "Oldest episode-buffer events dropped by the episode cap",
        "obs.flight_bytes" => "Bytes held by per-node flight rings, against their budget",
        "obs.flight_evicted" => "Flight rings dropped whole to stay within the byte budget",
        _ => "",
    };
    if !curated.is_empty() {
        return curated.to_string();
    }
    if let Some(stage) = base.strip_prefix("profile.") {
        format!("Sampled span-profiler stage latency in nanoseconds ({stage})")
    } else if base.starts_with("span.") {
        "Wall time of the instrumented span in microseconds".to_string()
    } else if base.starts_with("quality.confusion.") {
        "Rolling confusion-matrix cell over labelled replay verdicts".to_string()
    } else {
        format!("Desh pipeline metric {base}")
    }
}

/// Emit the `# HELP` / `# TYPE` header pair for a family, once per
/// family.
fn push_header(out: &mut String, emitted: &mut Vec<String>, fam: &str, base: &str, ty: &str) {
    if emitted.iter().any(|f| f == fam) {
        return;
    }
    emitted.push(fam.to_string());
    out.push_str(&format!("# HELP {fam} {}\n", escape_help(&help_for(base))));
    out.push_str(&format!("# TYPE {fam} {ty}\n"));
}

/// Render a snapshot in the Prometheus text exposition format.
///
/// Counters and gauges map directly; latency histograms are exported as
/// summaries (`{quantile="..."}` series plus `_sum` and `_count`), which
/// is the conventional shape for client-side quantiles. Dots in metric
/// names become underscores, and every metric is prefixed `desh_`.
/// Registry names using the `base[k=v,...]` convention become labelled
/// series sharing one `# TYPE` header per family, with label values
/// escaped per the exposition format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut emitted: Vec<String> = Vec::new();
    for (name, v) in &snap.counters {
        let (base, labels) = split_labels(name);
        let n = format!("desh_{}", prom_name(base));
        push_header(&mut out, &mut emitted, &n, base, "counter");
        out.push_str(&format!("{n}{} {v}\n", render_labels(&labels, None)));
    }
    for (name, v) in &snap.gauges {
        let (base, labels) = split_labels(name);
        let n = format!("desh_{}", prom_name(base));
        push_header(&mut out, &mut emitted, &n, base, "gauge");
        out.push_str(&format!("{n}{} {v}\n", render_labels(&labels, None)));
    }
    for (name, h) in &snap.hists {
        let (base, labels) = split_labels(name);
        let n = format!("desh_{}", prom_name(base));
        push_header(&mut out, &mut emitted, &n, base, "summary");
        for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{n}{} {}\n",
                render_labels(&labels, Some(("quantile", tag))),
                h.quantile(q)
            ));
        }
        let suffix = render_labels(&labels, None);
        out.push_str(&format!(
            "{n}_sum{suffix} {}\n{n}_count{suffix} {}\n",
            h.sum(),
            h.count()
        ));
    }
    out
}

/// Render a snapshot as a human-readable table: counters, gauges, then
/// one line per histogram with count/mean/p50/p90/p99/max, followed by a
/// linear-bin distribution sketch (via [`desh_util::Histogram`]) for any
/// histogram with enough mass to be worth drawing.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in &snap.counters {
            out.push_str(&format!("  {name:<42} {v}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in &snap.gauges {
            out.push_str(&format!("  {name:<42} {v:.3}\n"));
        }
    }
    if !snap.hists.is_empty() {
        out.push_str("histograms (us):\n");
        out.push_str(&format!(
            "  {:<42} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "name", "count", "mean", "p50", "p90", "p99", "max"
        ));
        for (name, h) in &snap.hists {
            out.push_str(&format!(
                "  {:<42} {:>8} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9}\n",
                name,
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max(),
            ));
        }
        for (name, h) in &snap.hists {
            if h.count() >= 32 {
                let hi = (h.quantile(0.99) * 1.25).max(1.0);
                out.push_str(&format!("  {name} distribution:\n"));
                let lin = h.to_linear(0.0, hi, 8).render(32);
                for line in lin.lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample() -> Snapshot {
        let t = Telemetry::enabled();
        t.count("logparse.records", 128);
        t.gauge_set("online.buffer_occupancy", 0.75);
        for v in 0..64u64 {
            t.observe_us("online.score_latency_us", 100 + v);
        }
        t.snapshot().unwrap()
    }

    #[test]
    fn prometheus_output_has_expected_shape() {
        let text = render_prometheus(&sample());
        assert!(text.contains("# TYPE desh_logparse_records counter\n"));
        assert!(text.contains("desh_logparse_records 128\n"));
        assert!(text.contains("# TYPE desh_online_buffer_occupancy gauge\n"));
        assert!(text.contains("desh_online_buffer_occupancy 0.75\n"));
        assert!(text.contains("# TYPE desh_online_score_latency_us summary\n"));
        assert!(text.contains("desh_online_score_latency_us{quantile=\"0.5\"} "));
        assert!(text.contains("desh_online_score_latency_us{quantile=\"0.99\"} "));
        assert!(text.contains("desh_online_score_latency_us_count 64\n"));
        assert!(text.contains("desh_online_score_latency_us_sum "));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
            assert!(parts.next().is_some(), "no name in line: {line}");
        }
    }

    #[test]
    fn labelled_names_become_prometheus_labels_with_escaping() {
        let t = Telemetry::enabled();
        t.count("quality.confusion.tp", 3);
        t.gauge_set("quality.lead_vs_paper[class=MCE]", 0.97);
        t.gauge_set("quality.lead_vs_paper[class=File System]", 1.02);
        // Hostile label value: quote, backslash, newline all need escapes.
        t.gauge_set("drive[path=C:\\logs\n\"x\"]", 1.0);
        for v in [10u64, 20] {
            t.observe_us("quality.lead_secs[class=MCE]", v);
        }
        let text = render_prometheus(&t.snapshot().unwrap());
        assert!(text.contains("desh_quality_lead_vs_paper{class=\"MCE\"} 0.97\n"));
        assert!(text.contains("desh_quality_lead_vs_paper{class=\"File System\"} 1.02\n"));
        assert!(text.contains("desh_drive{path=\"C:\\\\logs\\n\\\"x\\\"\"} 1\n"));
        // One TYPE header per family even with several labelled series.
        assert_eq!(
            text.matches("# TYPE desh_quality_lead_vs_paper gauge")
                .count(),
            1
        );
        // Labelled summary merges class and quantile labels and suffixes
        // _sum/_count with the class label alone.
        assert!(text.contains("desh_quality_lead_secs{class=\"MCE\",quantile=\"0.5\"} "));
        assert!(text.contains("desh_quality_lead_secs_count{class=\"MCE\"} 2\n"));
        assert!(text.contains("desh_quality_lead_secs_sum{class=\"MCE\"} 30\n"));
    }

    #[test]
    fn help_strings_are_emitted_and_escaped() {
        let t = Telemetry::enabled();
        t.gauge_set("quality.lead_vs_paper[class=MCE]", 1.0);
        t.observe_us("online.score_latency_us", 8);
        let text = render_prometheus(&t.snapshot().unwrap());
        // The lead_vs_paper help text contains a raw newline; it must be
        // escaped so HELP stays a single line.
        assert!(text.contains("# HELP desh_quality_lead_vs_paper "));
        assert!(text.contains("per-class mean\\nnear 1.0 = calibrated\n"));
        assert!(text.contains("# HELP desh_online_score_latency_us "));
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                assert!(!rest.contains('\r'), "unescaped control char: {line}");
            }
        }
    }

    #[test]
    fn every_family_gets_help_and_type() {
        let t = Telemetry::enabled();
        t.count("online.events", 3);
        t.count("some.novel.counter", 1);
        t.gauge_set("quality.precision", 0.9);
        t.observe_us("profile.online.cell_step_ns", 1_000);
        t.observe_us("span.train.phase1_us", 5);
        let text = render_prometheus(&t.snapshot().unwrap());
        // Each family's TYPE line is immediately preceded by its HELP
        // line — scrapers see a fully self-describing exposition.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split(' ').next().unwrap();
                assert!(
                    i > 0 && lines[i - 1].starts_with(&format!("# HELP {fam} ")),
                    "family {fam} lacks a HELP line before its TYPE line"
                );
            }
        }
        assert!(text.contains("# HELP desh_some_novel_counter Desh pipeline metric"));
        assert!(text.contains(
            "# HELP desh_profile_online_cell_step_ns Sampled span-profiler stage latency"
        ));
        assert!(text.contains("# HELP desh_span_train_phase1_us Wall time"));
    }

    #[test]
    fn summary_lists_every_metric_and_draws_distribution() {
        let text = render_summary(&sample());
        assert!(text.contains("logparse.records"));
        assert!(text.contains("online.buffer_occupancy"));
        assert!(text.contains("online.score_latency_us"));
        assert!(text.contains("distribution:"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let t = Telemetry::enabled();
        assert_eq!(
            render_summary(&t.snapshot().unwrap()),
            "(no metrics recorded)\n"
        );
        assert_eq!(render_prometheus(&t.snapshot().unwrap()), "");
    }
}
