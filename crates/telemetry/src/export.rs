//! Snapshot and export: JSON lines and a single JSON document — plus the
//! parser the ground side uses to decode a housekeeping downlink frame
//! back into a [`Snapshot`].
//!
//! The JSON encoder/decoder is hand-rolled for exactly the flat schema
//! this crate emits (metric names are dotted lowercase identifiers with
//! no escapes), keeping the workspace dependency-free. It is not a
//! general JSON parser and does not try to be.

use crate::hist::HistogramSnapshot;

/// Point-in-time value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic event count.
    Counter(u64),
    /// An instantaneous value.
    Gauge(f64),
    /// A latency/size distribution summary.
    Histogram(HistogramSnapshot),
}

/// One named metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSnapshot {
    /// Registered dotted name.
    pub name: String,
    /// The value, by kind.
    pub value: MetricValue,
}

/// An immutable snapshot of a registry, sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All metrics, ascending by name.
    pub entries: Vec<MetricSnapshot>,
}

/// Formats an `f64` so the emitted JSON token parses back exactly
/// (Rust's shortest-roundtrip `Display`); non-finite values — which
/// valid JSON cannot carry — are clamped to 0.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    // Bare integers are valid JSON numbers but ambiguous with counters
    // on the decode side; keep gauges visibly floating-point.
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

impl Snapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Convenience: counter value by name (0 when absent or a different
    /// kind).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Convenience: histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// One JSON object per metric per line — the housekeeping downlink
    /// payload and the machine-readable dump format.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&Self::entry_json(e));
            out.push('\n');
        }
        out
    }

    /// The whole snapshot as one JSON document:
    /// `{"metrics":[{...},{...}]}`. This is the `BENCH_*.json` format.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(Self::entry_json).collect();
        format!("{{\"metrics\":[\n  {}\n]}}\n", body.join(",\n  "))
    }

    fn entry_json(e: &MetricSnapshot) -> String {
        match &e.value {
            MetricValue::Counter(v) => {
                format!(
                    "{{\"name\":\"{}\",\"type\":\"counter\",\"value\":{v}}}",
                    e.name
                )
            }
            MetricValue::Gauge(v) => format!(
                "{{\"name\":\"{}\",\"type\":\"gauge\",\"value\":{}}}",
                e.name,
                json_f64(*v)
            ),
            MetricValue::Histogram(h) => format!(
                "{{\"name\":\"{}\",\"type\":\"histogram\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":{}}}",
                e.name,
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99,
                json_f64(h.mean())
            ),
        }
    }

    /// Parses what [`Snapshot::to_json_lines`] emitted (the NCC's side of
    /// the housekeeping downlink). Returns `None` on any malformed line —
    /// a corrupted frame is rejected whole, like any other TM frame.
    pub fn from_json_lines(text: &str) -> Option<Snapshot> {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            entries.push(parse_metric_line(line)?);
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Some(Snapshot { entries })
    }
}

/// Extracts the raw token for `"key":` from one flat JSON object line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .find(|(_, c)| *c == ',' || *c == '}')
        .map(|(i, _)| i)?;
    Some(rest[..end].trim())
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    field(line, key)?.strip_prefix('"')?.strip_suffix('"')
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

fn parse_metric_line(line: &str) -> Option<MetricSnapshot> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    let name = field_str(line, "name")?.to_string();
    let value = match field_str(line, "type")? {
        "counter" => MetricValue::Counter(field_u64(line, "value")?),
        "gauge" => MetricValue::Gauge(field_f64(line, "value")?),
        "histogram" => MetricValue::Histogram(HistogramSnapshot {
            count: field_u64(line, "count")?,
            sum: field_u64(line, "sum")?,
            min: field_u64(line, "min")?,
            max: field_u64(line, "max")?,
            p50: field_u64(line, "p50")?,
            p95: field_u64(line, "p95")?,
            p99: field_u64(line, "p99")?,
        }),
        _ => return None,
    };
    Some(MetricSnapshot { name, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("payload.crc.failures").add(3);
        reg.gauge("payload.workers.utilization").set(0.8125);
        let h = reg.histogram_ns("payload.demod.ns");
        for v in [900u64, 1_100, 1_500, 40_000, 2_000_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn json_lines_roundtrip_exactly() {
        let snap = sample();
        let decoded = Snapshot::from_json_lines(&snap.to_json_lines()).expect("parse");
        // Histograms roundtrip their summary (mean is derived, not
        // carried), counters and gauges roundtrip exactly.
        assert_eq!(decoded.entries.len(), snap.entries.len());
        assert_eq!(decoded.counter("payload.crc.failures"), 3);
        match decoded.get("payload.workers.utilization") {
            Some(MetricValue::Gauge(v)) => assert_eq!(*v, 0.8125),
            other => panic!("{other:?}"),
        }
        let h = decoded.histogram("payload.demod.ns").unwrap();
        let orig = snap.histogram("payload.demod.ns").unwrap();
        assert_eq!(h, orig);
    }

    #[test]
    fn corrupted_lines_reject_the_whole_frame() {
        let mut text = sample().to_json_lines();
        text.push_str("{\"name\":\"x\",\"type\":\"counter\",\"value\":notanumber}\n");
        assert!(Snapshot::from_json_lines(&text).is_none());
        assert!(Snapshot::from_json_lines("garbage").is_none());
    }

    #[test]
    fn single_document_contains_every_metric() {
        let snap = sample();
        let doc = snap.to_json();
        assert!(doc.starts_with("{\"metrics\":["));
        for e in &snap.entries {
            assert!(doc.contains(&format!("\"name\":\"{}\"", e.name)), "{doc}");
        }
        // Histogram summaries carry the percentile fields.
        assert!(doc.contains("\"p95\":"));
    }

    #[test]
    fn gauges_stay_floating_point_in_json() {
        let reg = Registry::new();
        reg.gauge("g").set(2.0);
        let json = reg.snapshot().to_json_lines();
        assert!(json.contains("\"value\":2.0"), "{json}");
        let back = Snapshot::from_json_lines(&json).unwrap();
        assert_eq!(back.get("g"), Some(&MetricValue::Gauge(2.0)));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = Snapshot::default();
        assert_eq!(snap.to_json_lines(), "");
        assert_eq!(Snapshot::from_json_lines(""), Some(Snapshot::default()));
    }
}
