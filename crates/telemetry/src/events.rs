//! Structured JSONL run traces: one JSON object per simulation event.
//!
//! Each recorded line carries the event kind (stable snake_case name
//! from [`TelemetryEventKind::name`]), simulation time `t` in seconds,
//! and a handful of kind-specific fields (`server`, `vm`, `app`,
//! `fraction`, …). The sink applies the spec's kind filter and sampling
//! rate *before* encoding, so a disabled kind costs one branch. A
//! file-backed log writes each line straight into its buffered writer,
//! allocating nothing per line.
//!
//! [`parse_event_line`] is the matching deserializer (over the stub
//! `serde::json` parser) used by the well-formedness tests to round-trip
//! every emitted line.

use crate::chrome::write_json_str;
use deflate_core::telemetry::{TelemetryEventKind, TelemetryEventSet};
use serde::json::{self, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A field value on a JSONL trace line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventField<'a> {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Floating point (fractions, rates, seconds).
    F64(f64),
    /// Short string (policy names, outcomes).
    Str(&'a str),
}

/// Encode one trace line (no trailing newline). Non-finite floats encode
/// as `null` so every line stays parseable JSON.
pub fn encode_event(
    kind: TelemetryEventKind,
    time: f64,
    fields: &[(&str, EventField<'_>)],
) -> String {
    let mut out = Vec::with_capacity(64 + fields.len() * 16);
    write_event(&mut out, kind, time, fields).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("a trace line is UTF-8")
}

/// [`encode_event`] written straight into `out`: the one serialiser
/// behind both the file and the memory log.
fn write_event<W: Write>(
    out: &mut W,
    kind: TelemetryEventKind,
    time: f64,
    fields: &[(&str, EventField<'_>)],
) -> io::Result<()> {
    out.write_all(b"{\"t\":")?;
    write_f64(out, time)?;
    out.write_all(b",\"kind\":")?;
    write_json_str(out, kind.name())?;
    for (name, value) in fields {
        out.write_all(b",")?;
        write_json_str(out, name)?;
        out.write_all(b":")?;
        match *value {
            EventField::U64(v) => write!(out, "{v}")?,
            EventField::F64(v) => write_f64(out, v)?,
            EventField::Str(s) => write_json_str(out, s)?,
        }
    }
    out.write_all(b"}")
}

fn write_f64<W: Write>(out: &mut W, v: f64) -> io::Result<()> {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_all(b"null")
    }
}

/// One decoded JSONL trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// The event kind (decoded from its stable name).
    pub kind: TelemetryEventKind,
    /// Simulation time in seconds.
    pub time: f64,
    /// Remaining fields, keyed by name.
    pub fields: BTreeMap<String, Value>,
}

/// Decode one trace line, enforcing the line schema: a JSON object with
/// a known `kind` name and a finite numeric `t`.
pub fn parse_event_line(line: &str) -> Result<ParsedEvent, String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let obj = doc
        .as_object()
        .ok_or_else(|| "trace line is not a JSON object".to_string())?;
    let kind_name = obj
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| "trace line has no string 'kind'".to_string())?;
    let kind = TelemetryEventKind::parse(kind_name)
        .ok_or_else(|| format!("unknown event kind '{kind_name}'"))?;
    let time = obj
        .get("t")
        .and_then(Value::as_f64)
        .ok_or_else(|| "trace line has no numeric 't'".to_string())?;
    if !time.is_finite() {
        return Err("trace line time is not finite".to_string());
    }
    let fields = obj
        .iter()
        .filter(|(k, _)| k.as_str() != "kind" && k.as_str() != "t")
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    Ok(ParsedEvent { kind, time, fields })
}

/// Where recorded lines go.
#[derive(Debug)]
pub(crate) enum EventWriter {
    /// Kept in memory — what tests and `in_memory` sinks use.
    Memory(Vec<String>),
    /// Streamed to disk through a buffered writer.
    File(BufWriter<File>),
}

/// The JSONL sink: kind filter + sampling + writer.
#[derive(Debug)]
pub(crate) struct EventLog {
    writer: EventWriter,
    kinds: TelemetryEventSet,
    sample_every: u64,
    /// Matching events seen (pre-sampling).
    seen: u64,
    /// Lines actually recorded.
    written: u64,
}

impl EventLog {
    pub(crate) fn to_memory(kinds: TelemetryEventSet, sample_every: u64) -> Self {
        EventLog {
            writer: EventWriter::Memory(Vec::new()),
            kinds,
            sample_every: sample_every.max(1),
            seen: 0,
            written: 0,
        }
    }

    pub(crate) fn to_file(
        path: &Path,
        kinds: TelemetryEventSet,
        sample_every: u64,
    ) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(EventLog {
            writer: EventWriter::File(BufWriter::new(file)),
            kinds,
            sample_every: sample_every.max(1),
            seen: 0,
            written: 0,
        })
    }

    /// True when `kind` passes the filter (sampling applies later, in
    /// [`record`](Self::record)).
    pub(crate) fn wants(&self, kind: TelemetryEventKind) -> bool {
        self.kinds.contains(kind)
    }

    /// Count a matching event and, if it lands on the sampling grid,
    /// encode and record it (a file log without allocating).
    pub(crate) fn record(
        &mut self,
        kind: TelemetryEventKind,
        time: f64,
        fields: &[(&str, EventField<'_>)],
    ) -> std::io::Result<()> {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(self.sample_every) {
            return Ok(());
        }
        self.written += 1;
        match &mut self.writer {
            EventWriter::Memory(lines) => {
                lines.push(encode_event(kind, time, fields));
                Ok(())
            }
            EventWriter::File(w) => {
                write_event(w, kind, time, fields)?;
                w.write_all(b"\n")
            }
        }
    }

    pub(crate) fn written(&self) -> u64 {
        self.written
    }

    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.writer {
            EventWriter::Memory(_) => Ok(()),
            EventWriter::File(w) => w.flush(),
        }
    }

    /// The recorded lines, for memory-backed logs (`None` for files).
    pub(crate) fn lines(&self) -> Option<&[String]> {
        match &self.writer {
            EventWriter::Memory(lines) => Some(lines),
            EventWriter::File(_) => None,
        }
    }

    /// Owned heap bytes behind the log: the buffered lines of a
    /// memory-backed writer, or the fixed-size buffer a file-backed log
    /// streams through.
    pub(crate) fn accounted_bytes(&self) -> u64 {
        match &self.writer {
            EventWriter::Memory(lines) => {
                deflate_core::mem::vec_capacity_bytes(lines)
                    + lines.iter().map(|l| l.capacity() as u64).sum::<u64>()
            }
            EventWriter::File(w) => w.capacity() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trip() {
        let line = encode_event(
            TelemetryEventKind::CapacityReclaim,
            1800.0,
            &[
                ("server", EventField::U64(42)),
                ("fraction", EventField::F64(0.25)),
                ("outcome", EventField::Str("deflated")),
            ],
        );
        let parsed = parse_event_line(&line).expect("valid line");
        assert_eq!(parsed.kind, TelemetryEventKind::CapacityReclaim);
        assert_eq!(parsed.time, 1800.0);
        assert_eq!(parsed.fields.get("server").unwrap().as_u64(), Some(42));
        assert_eq!(parsed.fields.get("fraction").unwrap().as_f64(), Some(0.25));
        assert_eq!(
            parsed.fields.get("outcome").unwrap().as_str(),
            Some("deflated")
        );
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(parse_event_line("not json").is_err());
        assert!(parse_event_line("[1]").is_err());
        assert!(parse_event_line("{\"t\":1}").is_err());
        assert!(parse_event_line("{\"t\":1,\"kind\":\"nope\"}").is_err());
        assert!(parse_event_line("{\"kind\":\"arrival\"}").is_err());
    }

    #[test]
    fn filter_and_sampling() {
        let kinds = TelemetryEventSet::none().with(TelemetryEventKind::Arrival);
        let mut log = EventLog::to_memory(kinds, 2);
        assert!(log.wants(TelemetryEventKind::Arrival));
        assert!(!log.wants(TelemetryEventKind::Departure));
        for i in 0..5 {
            log.record(TelemetryEventKind::Arrival, i as f64, &[])
                .unwrap();
        }
        // every 2nd matching event, starting with the first
        assert_eq!(log.written(), 3);
        let lines = log.lines().unwrap();
        assert_eq!(lines.len(), 3);
        assert_eq!(parse_event_line(&lines[1]).unwrap().time, 2.0);
    }

    /// The encoder before lines were written straight into the sink's
    /// writer, kept as the reference the writer must match byte for byte.
    fn reference_encode(
        kind: TelemetryEventKind,
        time: f64,
        fields: &[(&str, EventField<'_>)],
    ) -> String {
        fn push_f64(out: &mut String, v: f64) {
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        let mut out = String::new();
        out.push_str("{\"t\":");
        push_f64(&mut out, time);
        out.push_str(",\"kind\":");
        out.push_str(&json::quote(kind.name()));
        for (name, value) in fields {
            out.push(',');
            out.push_str(&json::quote(name));
            out.push(':');
            match value {
                EventField::U64(v) => out.push_str(&v.to_string()),
                EventField::F64(v) => push_f64(&mut out, *v),
                EventField::Str(s) => out.push_str(&json::quote(s)),
            }
        }
        out.push('}');
        out
    }

    #[test]
    fn writer_matches_the_reference_encoder_byte_for_byte() {
        let fields: [(&str, EventField<'_>); 10] = [
            ("vm", EventField::U64(u64::MAX)),
            ("zero", EventField::U64(0)),
            ("fraction", EventField::F64(0.1 + 0.2)),
            ("tiny", EventField::F64(-1e-300)),
            ("nan", EventField::F64(f64::NAN)),
            ("inf", EventField::F64(f64::INFINITY)),
            ("neg_inf", EventField::F64(f64::NEG_INFINITY)),
            ("outcome", EventField::Str("placed_with_deflation")),
            ("quote\"back\\slash\n", EventField::Str("tab\t\u{1}é")),
            ("", EventField::Str("")),
        ];
        let path =
            std::env::temp_dir().join(format!("deflate-events-bytes-{}.jsonl", std::process::id()));
        let mut file = EventLog::to_file(&path, TelemetryEventSet::all(), 1).unwrap();
        let mut expected = String::new();
        for kind in TelemetryEventKind::ALL {
            for (time, n) in [0.0, 1800.5, f64::NAN, f64::NEG_INFINITY]
                .into_iter()
                .flat_map(|t| (0..=fields.len()).map(move |n| (t, n)))
            {
                let fields = &fields[..n];
                let line = reference_encode(kind, time, fields);
                assert_eq!(encode_event(kind, time, fields), line);
                file.record(kind, time, fields).unwrap();
                expected.push_str(&line);
                expected.push('\n');
            }
        }
        file.flush().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(written, expected);
    }

    #[test]
    fn non_finite_fields_stay_parseable() {
        let line = encode_event(
            TelemetryEventKind::UtilizationTick,
            0.0,
            &[("bad", EventField::F64(f64::NAN))],
        );
        let parsed = parse_event_line(&line).expect("still valid JSON");
        assert_eq!(parsed.fields.get("bad"), Some(&Value::Null));
    }
}
