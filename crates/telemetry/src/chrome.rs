//! Chrome `trace_event` exporter: every profiler span becomes a
//! `B`/`E` (duration begin/end) event pair, so a run opens directly in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Every span is recorded on the event-loop thread, `tid 0`. Timestamps
//! are microseconds since the sink was created. A file-backed trace
//! streams: the opening `[` is written when the sink is created, each
//! edge as it happens (through one 64 KiB buffer), and the closing `]`
//! at `ChromeTrace::close`. A memory-backed trace keeps its events in
//! a `Vec` and serialises them on demand. Both go through the same
//! per-event formatter, so their bytes are identical. The trace is
//! capped: beyond `ChromeTrace::DEFAULT_CAP` events, new spans are
//! counted as dropped rather than recorded, which bounds the file (or,
//! for memory sinks, the buffer) of a million-VM run. A span whose begin
//! was recorded still gets its end, so a capped trace stays balanced and
//! holds at most the cap plus the span nesting depth.
//!
//! [`validate_chrome_trace_from`] checks a trace in one streaming pass,
//! parsing one event at a time and holding only the open spans, so
//! validating a file costs memory proportional to span depth rather
//! than to trace size.

use serde::json::{self, Value};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// One `B` or `E` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChromeEvent {
    pub name: &'static str,
    /// `b'B'` (begin) or `b'E'` (end).
    pub ph: u8,
    /// Microseconds since the sink epoch.
    pub ts_us: u64,
}

impl ChromeEvent {
    /// Write this event as one element of the trace array: a separating
    /// `,` unless it is the `first` element, then a newline and the JSON
    /// object. The single serialiser behind both file and memory traces.
    fn write_to<W: Write>(&self, out: &mut W, first: bool) -> io::Result<()> {
        out.write_all(if first {
            b"\n{\"name\":"
        } else {
            b",\n{\"name\":"
        })?;
        write_json_str(out, self.name)?;
        out.write_all(b",\"ph\":\"")?;
        out.write_all(&[self.ph])?;
        out.write_all(b"\",\"ts\":")?;
        let mut digits = [0u8; 20];
        out.write_all(format_u64(self.ts_us, &mut digits))?;
        out.write_all(b",\"pid\":1,\"tid\":0}")
    }
}

/// Opening and closing bytes of the trace array.
const OPEN: &[u8] = b"[";
const CLOSE: &[u8] = b"\n]\n";

/// Buffer size of a file-backed trace's writer.
const FILE_BUFFER_BYTES: usize = 64 * 1024;

/// Write `s` as a JSON string literal, byte for byte what `json::quote`
/// returns. Names here are plain identifiers, quoted without allocating;
/// only a string that needs escaping goes through `json::quote`.
pub(crate) fn write_json_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.write_all(b"\"")?;
        out.write_all(s.as_bytes())?;
        out.write_all(b"\"")
    } else {
        out.write_all(json::quote(s).as_bytes())
    }
}

/// `v` in decimal, formatted into the tail of `buf`.
fn format_u64(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[i..];
        }
    }
}

/// Where recorded events go.
#[derive(Debug)]
enum TraceOut {
    /// Kept in memory — what tests and `in_memory` sinks use.
    Memory(Vec<ChromeEvent>),
    /// Streamed to disk; `None` once [`ChromeTrace::close`] has run.
    File(Option<BufWriter<File>>),
}

/// A capped Chrome trace, streamed to a file or kept in memory.
#[derive(Debug)]
pub(crate) struct ChromeTrace {
    out: TraceOut,
    /// Events recorded (written or buffered).
    len: usize,
    dropped: u64,
    cap: usize,
    /// Spans whose begin was dropped and whose end has not come yet.
    /// Spans nest on one thread, so these are always the innermost open
    /// ones: an end drops while this is non-zero and is written otherwise.
    dropped_open: u32,
}

impl ChromeTrace {
    /// Default event cap (~4M events ≈ 250 MiB of JSON on disk).
    pub const DEFAULT_CAP: usize = 4_000_000;

    /// A memory-backed trace, serialised on demand by
    /// [`to_json`](Self::to_json).
    pub(crate) fn in_memory() -> Self {
        Self::with_out(TraceOut::Memory(Vec::new()))
    }

    /// A trace streamed to `path`: creates the file and buffers the
    /// opening `[` (so a bad path fails here, before the run).
    pub(crate) fn to_file(path: &Path) -> io::Result<Self> {
        let mut writer = BufWriter::with_capacity(FILE_BUFFER_BYTES, File::create(path)?);
        writer.write_all(OPEN)?;
        Ok(Self::with_out(TraceOut::File(Some(writer))))
    }

    fn with_out(out: TraceOut) -> Self {
        ChromeTrace {
            out,
            len: 0,
            dropped: 0,
            cap: Self::DEFAULT_CAP,
            dropped_open: 0,
        }
    }

    /// Record one event. A begin past the cap, its matching end, and
    /// any event after a file trace was closed are counted as dropped;
    /// the end of a recorded begin is written even past the cap. A failed
    /// file write is returned; the event still counts as recorded.
    pub(crate) fn push(&mut self, event: ChromeEvent) -> io::Result<()> {
        let drop = if event.ph == b'B' {
            let over = self.len >= self.cap;
            self.dropped_open += u32::from(over);
            over
        } else if self.dropped_open > 0 {
            self.dropped_open -= 1;
            true
        } else {
            false
        };
        if drop {
            self.dropped += 1;
            return Ok(());
        }
        match &mut self.out {
            TraceOut::Memory(events) => events.push(event),
            TraceOut::File(Some(writer)) => {
                let first = self.len == 0;
                self.len += 1;
                return event.write_to(writer, first);
            }
            TraceOut::File(None) => {
                self.dropped += 1;
                return Ok(());
            }
        }
        self.len += 1;
        Ok(())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finish a file trace: write the closing `]` and flush. Later
    /// calls, and calls on a memory trace, do nothing.
    pub(crate) fn close(&mut self) -> io::Result<()> {
        match &mut self.out {
            TraceOut::File(writer) => match writer.take() {
                Some(mut writer) => {
                    writer.write_all(CLOSE)?;
                    writer.flush()
                }
                None => Ok(()),
            },
            TraceOut::Memory(_) => Ok(()),
        }
    }

    /// Serialise a memory trace as a JSON array (the simple
    /// `trace_event` container format both Perfetto and
    /// `chrome://tracing` accept). `None` for a file trace, whose
    /// events are on disk.
    pub(crate) fn to_json(&self) -> Option<String> {
        let TraceOut::Memory(events) = &self.out else {
            return None;
        };
        let mut out = Vec::with_capacity(events.len() * 56 + OPEN.len() + CLOSE.len());
        out.extend_from_slice(OPEN);
        for (i, ev) in events.iter().enumerate() {
            ev.write_to(&mut out, i == 0)
                .expect("writing to a Vec cannot fail");
        }
        out.extend_from_slice(CLOSE);
        Some(String::from_utf8(out).expect("escaped UTF-8 names stay UTF-8"))
    }

    /// Owned heap bytes: the event buffer of a memory trace, the write
    /// buffer of a file trace.
    pub(crate) fn accounted_bytes(&self) -> u64 {
        match &self.out {
            TraceOut::Memory(events) => deflate_core::mem::vec_capacity_bytes(events),
            TraceOut::File(Some(writer)) => writer.capacity() as u64,
            TraceOut::File(None) => 0,
        }
    }
}

/// Summary statistics from a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total trace events (each span contributes a `B` and an `E`).
    pub events: usize,
    /// Completed spans (matched `B`/`E` pairs).
    pub spans: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// Deepest nesting across all threads.
    pub max_depth: usize,
}

/// Validate a serialised Chrome trace held in memory; see
/// [`validate_chrome_trace_from`], which this calls over `text`'s bytes.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    validate_chrome_trace_from(text.as_bytes())
}

/// Validate a serialised Chrome trace in one streaming pass: it must be
/// a JSON array whose elements are `B`/`E` events with
/// `name`/`ph`/`ts`/`pid`/`tid`, with non-decreasing timestamps and
/// matched begin/end pairs per thread, and nothing but whitespace after
/// the array.
///
/// The array is read one element at a time: each event object is cut
/// out of the stream and parsed on its own, and only the open spans are
/// kept, so memory is bounded by span depth and event size, not trace
/// size. Returns summary stats on success, a description of the first
/// problem otherwise (read errors included). The trace well-formedness
/// tests and `fig_profile` (through a `BufReader` over the written
/// file) both run it.
pub fn validate_chrome_trace_from<R: BufRead>(reader: R) -> Result<ChromeTraceStats, String> {
    let mut input = ByteStream { reader, offset: 0 };
    let mut object = Vec::new();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut events = 0usize;
    let mut spans = 0usize;
    let mut max_depth = 0usize;

    input.skip_ws()?;
    if input.next()? != Some(b'[') {
        return Err("trace root is not a JSON array".to_string());
    }
    input.skip_ws()?;
    let mut more = input.peek()? != Some(b']');
    if !more {
        input.next()?;
    }
    while more {
        let i = events;
        input.skip_ws()?;
        if input.peek()? != Some(b'{') {
            return Err(format!("event {i} is not an object"));
        }
        input.read_object(&mut object)?;
        events += 1;
        let doc = std::str::from_utf8(&object)
            .map_err(|_| format!("event {i} is not UTF-8"))
            .and_then(|text| json::parse(text).map_err(|e| format!("event {i}: {e}")))?;
        let obj = doc
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let name = obj
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no string 'name'"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} has no string 'ph'"))?;
        let ts = obj
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i} has no numeric 'ts'"))?;
        obj.get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} has no integer 'pid'"))?;
        let tid = obj
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event {i} has no integer 'tid'"))?;

        if let Some(&prev) = last_ts.get(&tid) {
            if ts < prev {
                return Err(format!(
                    "event {i}: timestamp went backwards on tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(tid, ts);

        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => {
                stack.push(name.to_string());
                max_depth = max_depth.max(stack.len());
            }
            "E" => match stack.pop() {
                Some(open) if open == name => spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: end of '{name}' but '{open}' is open on tid {tid}"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: end of '{name}' with no open span on tid {tid}"
                    ));
                }
            },
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }

        input.skip_ws()?;
        more = match input.next()? {
            Some(b',') => true,
            Some(b']') => false,
            _ => return Err(input.error("expected ',' or ']' in array")),
        };
    }
    input.skip_ws()?;
    if input.peek()?.is_some() {
        return Err(input.error("trailing characters after the array"));
    }

    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("span '{open}' left open on tid {tid}"));
        }
    }

    Ok(ChromeTraceStats {
        events,
        spans,
        threads: stacks.len(),
        max_depth,
    })
}

/// Nesting limit inside one event object, so a hostile trace cannot
/// overflow the recursive JSON parser's stack.
const MAX_EVENT_NESTING: usize = 64;

/// A `BufRead` with a byte offset, for the validator's error messages.
struct ByteStream<R> {
    reader: R,
    offset: u64,
}

impl<R: BufRead> ByteStream<R> {
    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.offset)
    }

    fn buffered(&mut self) -> Result<&[u8], String> {
        let offset = self.offset;
        self.reader
            .fill_buf()
            .map_err(|e| format!("read error at byte {offset}: {e}"))
    }

    fn advance(&mut self, n: usize) {
        self.reader.consume(n);
        self.offset += n as u64;
    }

    fn peek(&mut self) -> Result<Option<u8>, String> {
        Ok(self.buffered()?.first().copied())
    }

    fn next(&mut self) -> Result<Option<u8>, String> {
        let b = self.peek()?;
        if b.is_some() {
            self.advance(1);
        }
        Ok(b)
    }

    fn skip_ws(&mut self) -> Result<(), String> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek()? {
            self.advance(1);
        }
        Ok(())
    }

    /// Cut the object starting at the next byte (a `{`) out of the
    /// stream into `out`: everything up to its matching `}`, with
    /// brackets inside strings (and escaped quotes) skipped. The JSON
    /// parser checks the grammar afterwards.
    fn read_object(&mut self, out: &mut Vec<u8>) -> Result<(), String> {
        out.clear();
        let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
        loop {
            let buf = self.buffered()?;
            if buf.is_empty() {
                return Err(self.error("unexpected end of input inside an event"));
            }
            let mut end = None;
            for (i, &b) in buf.iter().enumerate() {
                if in_string {
                    match b {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'"' => in_string = false,
                        _ => {}
                    }
                    continue;
                }
                match b {
                    b'"' => in_string = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => depth -= 1,
                    _ => continue,
                }
                if depth == 0 || depth > MAX_EVENT_NESTING {
                    end = Some(i + 1);
                    break;
                }
            }
            let used = end.unwrap_or(buf.len());
            out.extend_from_slice(&buf[..used]);
            self.advance(used);
            if end.is_some() {
                return if depth == 0 {
                    Ok(())
                } else {
                    Err(self.error("event nested too deeply"))
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ph: u8, ts_us: u64) -> ChromeEvent {
        ChromeEvent { name, ph, ts_us }
    }

    fn memory_json(events: &[ChromeEvent]) -> String {
        let mut trace = ChromeTrace::in_memory();
        for &e in events {
            trace.push(e).unwrap();
        }
        trace.to_json().unwrap()
    }

    #[test]
    fn round_trips_through_validator() {
        let json = memory_json(&[
            ev("engine_total", b'B', 0),
            ev("heapify", b'B', 2),
            ev("heapify", b'E', 4),
            ev("arrival", b'B', 5),
            ev("arrival", b'E', 9),
            ev("engine_total", b'E', 20),
        ]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.events, 6);
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn serialiser_matches_the_json_quoting_of_the_old_encoder() {
        let json = memory_json(&[
            ev("a\"b\\c\u{1}é", b'B', 0),
            ev("a\"b\\c\u{1}é", b'E', 12345),
        ]);
        let expected = format!(
            "[\n{{\"name\":{q},\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}},\
             \n{{\"name\":{q},\"ph\":\"E\",\"ts\":12345,\"pid\":1,\"tid\":0}}\n]\n",
            q = serde::json::quote("a\"b\\c\u{1}é")
        );
        assert_eq!(json, expected);
        assert_eq!(memory_json(&[]), "[\n]\n");
        let stats = validate_chrome_trace(&json).expect("escaped names validate");
        assert_eq!(stats.spans, 1);
    }

    #[test]
    fn file_and_memory_traces_write_identical_bytes() {
        let events = [
            ev("engine_total", b'B', 0),
            ev("placement_rank", b'B', 7),
            ev("placement_rank", b'E', 19),
            ev("engine_total", b'E', 18_446_744_073_709_551_615),
        ];
        let path = std::env::temp_dir().join(format!(
            "deflate-chrome-bytes-{}.trace.json",
            std::process::id()
        ));
        let mut file = ChromeTrace::to_file(&path).unwrap();
        for &e in &events {
            file.push(e).unwrap();
        }
        assert_eq!(file.to_json(), None, "a file trace is not held in memory");
        file.close().unwrap();
        file.close().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(on_disk, memory_json(&events));
    }

    #[test]
    fn rejects_mismatched_and_unclosed_spans() {
        let json = memory_json(&[ev("a", b'B', 0), ev("b", b'E', 1)]);
        assert!(validate_chrome_trace(&json)
            .unwrap_err()
            .contains("'a' is open"));

        let json = memory_json(&[ev("a", b'B', 0)]);
        assert!(validate_chrome_trace(&json)
            .unwrap_err()
            .contains("left open"));

        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"a\":1}").is_err());
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        let good = memory_json(&[ev("a", b'B', 0), ev("a", b'E', 1)]);
        assert!(validate_chrome_trace(&good).is_ok());
        // Truncated anywhere: mid-number, mid-object, before the `]`.
        for cut in 0..good.trim_end().len() {
            assert!(
                validate_chrome_trace(&good[..cut]).is_err(),
                "truncated at byte {cut} validated"
            );
        }
        let cases = [
            (format!("{good}x"), "trailing"),
            (format!("{good}[]"), "trailing"),
            ("[1]".to_string(), "not an object"),
            ("[\"}\"]".to_string(), "not an object"),
            ("[\"\\\"}\"]".to_string(), "not an object"),
            ("[{}]".to_string(), "no string 'name'"),
            (
                "[{\"name\":\"a}\\\"\",\"ph\":\"B\"".to_string(),
                "end of input",
            ),
            ("[{\"name\":\"a\\\"}".to_string(), "end of input"),
            (
                "[{\"name\":1,\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}]".to_string(),
                "'name'",
            ),
            (
                "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":-1,\"tid\":0}]".to_string(),
                "'pid'",
            ),
            (
                "[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0}]".to_string(),
                "phase",
            ),
            (
                "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1-2,\"pid\":1,\"tid\":0}]".to_string(),
                "event 0: JSON parse error",
            ),
            ("[{\"args\":".to_string() + &"[".repeat(100), "nested"),
            ("[,]".to_string(), "not an object"),
            (
                "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0}}]".to_string(),
                "in array",
            ),
        ];
        for (doc, needle) in cases {
            let err = validate_chrome_trace(&doc).expect_err(&doc);
            assert!(err.contains(needle), "{doc:?}: {err}");
        }
    }

    #[test]
    fn names_with_braces_and_escaped_quotes_stay_inside_their_string() {
        let doc = "[{\"name\":\"x}\\\"{\",\"ph\":\"B\",\"ts\":1.5,\"pid\":1,\"tid\":3,\
                   \"args\":{\"k\":[true,null,{\"q\":\"]\"}]}},\
                   {\"tid\":3,\"pid\":1,\"ts\":2,\"ph\":\"E\",\"name\":\"x}\\\"{\"}]";
        let stats = validate_chrome_trace(doc).expect("valid trace");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.threads, 1);
        // The validator agrees with the full parser about what is JSON.
        assert!(serde::json::parse(doc).is_ok());
    }

    #[test]
    fn cap_counts_dropped_events() {
        let mut trace = ChromeTrace::in_memory();
        trace.cap = 2;
        for _ in 0..5 {
            trace.push(ev("x", b'B', 0)).unwrap();
        }
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 3);

        // The cap is hit inside three open spans: later spans are dropped
        // whole, and the open ones still get their ends.
        let mut trace = ChromeTrace::in_memory();
        trace.cap = 3;
        for e in [
            ev("engine_total", b'B', 0),
            ev("departure", b'B', 1),
            ev("admission", b'B', 2),
            ev("placement_rank", b'B', 3),
            ev("placement_index", b'B', 4),
            ev("placement_index", b'E', 5),
            ev("placement_rank", b'E', 6),
            ev("admission", b'E', 7),
            ev("departure", b'E', 8),
            ev("event_pop", b'B', 9),
            ev("event_pop", b'E', 10),
            ev("engine_total", b'E', 11),
        ] {
            trace.push(e).unwrap();
        }
        assert_eq!(trace.len(), 6, "the cap plus the open spans' ends");
        assert_eq!(trace.dropped(), 6);
        let stats = validate_chrome_trace(&trace.to_json().unwrap())
            .expect("a capped trace stays balanced");
        assert_eq!(stats.spans, 3);
    }
}
