//! Chrome trace-event JSON export (and a validating parser).
//!
//! [`export`] renders a [`TraceSink`]'s event streams in the Chrome
//! trace-event format — load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see the run as named per-thread tracks:
//!
//! * Span pairs ([`EventKind::RunBegin`]/`RunEnd`,
//!   `PartitionVisitBegin`/`End`, `BatchBegin`/`End`) become `B`/`E`
//!   duration slices.
//! * Point events (claims, drains, parks, yields, …) become `i`
//!   thread-scoped instants.
//! * Each service ticket's life is stitched across threads with flow
//!   arrows: `Submit` starts a flow (`ph:"s"`), `JoinBatch` steps it onto
//!   the batcher thread (`ph:"t"`), `Resolve` ends it (`ph:"f"`), all
//!   keyed by the ticket id — in the UI every query is one arrow from its
//!   submitting client, through the batch slice that ran it, to its
//!   resolution.
//!
//! The JSON is hand-rolled (this workspace vendors no `serde_json`): a
//! format we fully control, plus [`parse`] — a brace/quote-aware validating
//! scanner used by tests and CI to prove emitted traces actually load.

use std::fmt::Write as _;

use crate::event::EventKind;
use crate::sink::TraceSink;

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with sub-µs precision, as Chrome expects.
fn micros(nanos: u64) -> String {
    format!("{:.3}", nanos as f64 / 1000.0)
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Writer {
        Writer { out: String::from("{\"traceEvents\":[\n"), first: true }
    }

    /// Append one pre-rendered event object.
    fn push(&mut self, object: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&object);
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Render a `B`/`E`/`i` event object.
fn phase_event(name: &str, ph: &str, tid: u64, nanos: u64, args: &[(&str, u64)]) -> String {
    let mut obj = format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{}",
        escape(name),
        micros(nanos)
    );
    if ph == "i" {
        obj.push_str(",\"s\":\"t\"");
    }
    if !args.is_empty() {
        obj.push_str(",\"args\":{");
        for (i, (key, value)) in args.iter().enumerate() {
            if i > 0 {
                obj.push(',');
            }
            let _ = write!(obj, "\"{key}\":{value}");
        }
        obj.push('}');
    }
    obj.push('}');
    obj
}

/// Render a flow event (`s`/`t`/`f`) carrying a correlation id.
fn flow_event(ph: &str, tid: u64, nanos: u64, id: u64) -> String {
    let mut obj = format!(
        "{{\"name\":\"ticket\",\"cat\":\"ticket\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\
         \"ts\":{},\"id\":{id}",
        micros(nanos)
    );
    if ph == "f" {
        obj.push_str(",\"bp\":\"e\"");
    }
    obj.push('}');
    obj
}

/// Export every retained event as Chrome trace-event JSON.
pub fn export(sink: &TraceSink) -> String {
    let mut w = Writer::new();
    for (lane, stream) in sink.events().iter().enumerate() {
        let tid = lane as u64 + 1;
        w.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"ts\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&stream.thread)
        ));
        // Track B/E nesting so a stream truncated by ring wrap-around (a
        // dropped Begin or End) still renders as balanced slices.
        let mut depth = 0u32;
        let mut last_nanos = 0u64;
        for event in &stream.events {
            last_nanos = event.nanos;
            let name = event.kind.name();
            match event.kind {
                EventKind::RunBegin => {
                    depth += 1;
                    w.push(phase_event(
                        name,
                        "B",
                        tid,
                        event.nanos,
                        &[("queries", event.a as u64), ("workers", event.b as u64)],
                    ));
                }
                EventKind::PartitionVisitBegin => {
                    depth += 1;
                    w.push(phase_event(
                        name,
                        "B",
                        tid,
                        event.nanos,
                        &[
                            ("partition", event.a as u64),
                            ("ops", event.b as u64),
                            ("lanes", event.c as u64),
                        ],
                    ));
                }
                EventKind::BatchBegin => {
                    depth += 1;
                    w.push(phase_event(
                        name,
                        "B",
                        tid,
                        event.nanos,
                        &[
                            ("batch", event.a as u64),
                            ("queries", event.b as u64),
                            ("cohorts", event.c as u64),
                        ],
                    ));
                }
                EventKind::RunEnd | EventKind::PartitionVisitEnd | EventKind::BatchEnd => {
                    if depth > 0 {
                        depth -= 1;
                        w.push(phase_event(name, "E", tid, event.nanos, &[]));
                    }
                }
                EventKind::Submit => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[("ticket", event.a as u64), ("kernel", event.b as u64)],
                    ));
                    w.push(flow_event("s", tid, event.nanos, event.a as u64));
                }
                EventKind::JoinBatch => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[("ticket", event.a as u64), ("batch", event.b as u64)],
                    ));
                    w.push(flow_event("t", tid, event.nanos, event.a as u64));
                }
                EventKind::Resolve => {
                    w.push(phase_event(name, "i", tid, event.nanos, &[("ticket", event.a as u64)]));
                    w.push(flow_event("f", tid, event.nanos, event.a as u64));
                }
                EventKind::EpochAdvance => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[
                            ("epoch", event.a as u64),
                            ("rematerialized", event.b as u64),
                            ("shared", event.c as u64),
                        ],
                    ));
                }
                EventKind::PartitionDecode => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[("query", event.a as u64), ("partition", event.b as u64)],
                    ));
                }
                EventKind::DeltaFold => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[
                            ("mutations", event.a as u64),
                            ("dirty", event.b as u64),
                            ("epoch", event.c as u64),
                        ],
                    ));
                }
                _ => {
                    w.push(phase_event(
                        name,
                        "i",
                        tid,
                        event.nanos,
                        &[("a", event.a as u64), ("b", event.b as u64), ("c", event.c as u64)],
                    ));
                }
            }
        }
        for _ in 0..depth {
            w.push(phase_event("truncated", "E", tid, last_nanos, &[]));
        }
    }
    w.finish()
}

/// One parsed Chrome trace event (the fields this crate emits).
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    /// Event name (slice/instant name, or `thread_name` for metadata).
    pub name: String,
    /// Phase: `B`, `E`, `i`, `s`, `t`, `f`, or `M`.
    pub ph: String,
    /// Track (1 + lane index in the source sink).
    pub tid: u64,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Flow correlation id, when present.
    pub id: Option<u64>,
    /// Raw text of the `args` object (empty when absent).
    pub args: String,
}

impl ChromeEvent {
    /// Extract an integer field from the raw `args` text.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        number_field(&self.args, key).map(|v| v as u64)
    }

    /// Extract a string field from the raw `args` text.
    pub fn arg_str(&self, key: &str) -> Option<String> {
        string_field(&self.args, key)
    }
}

/// Find `"key": <number>` in `text`.
fn number_field(text: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\"");
    let idx = text.find(&pattern)?;
    let rest = text[idx + pattern.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Find `"key": "<string>"` in `text` (unescapes the simple escapes
/// [`escape`] produces).
fn string_field(text: &str, key: &str) -> Option<String> {
    let pattern = format!("\"{key}\"");
    let idx = text.find(&pattern)?;
    let rest = text[idx + pattern.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Index of the bracket that closes the `{` or `[` at `text[0]`, skipping
/// string literals; `None` when it is never closed or nesting goes negative.
fn matching_close(text: &str) -> Option<usize> {
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &c) in text.as_bytes().iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == b'\\' {
                escaped = true;
            } else if c == b'"' {
                in_string = false;
            }
            continue;
        }
        match c {
            b'"' => in_string = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split the body of a JSON array into top-level `{...}` object slices,
/// respecting nesting and string literals. Errors on structural damage.
fn split_objects(body: &str) -> Result<Vec<&str>, String> {
    let mut objects = Vec::new();
    let mut i = 0;
    while i < body.len() {
        match body.as_bytes()[i] {
            b'{' => {
                let end =
                    i + matching_close(&body[i..]).ok_or("unterminated object in traceEvents")?;
                objects.push(&body[i..=end]);
                i = end;
            }
            b',' | b' ' | b'\t' | b'\n' | b'\r' => {}
            other => {
                return Err(format!("unexpected byte {:?} in traceEvents array", other as char))
            }
        }
        i += 1;
    }
    Ok(objects)
}

/// Extract the raw `args` object text from one event object.
fn args_text(object: &str) -> String {
    let Some(idx) = object.find("\"args\"") else { return String::new() };
    let rest = &object[idx + "\"args\"".len()..];
    let Some(open) = rest.find('{') else { return String::new() };
    let body = &rest[open..];
    matching_close(body).map_or_else(String::new, |end| body[..=end].to_string())
}

/// Parse Chrome trace-event JSON (the dialect [`export`] emits: an object
/// with a `traceEvents` array). Returns the parsed events or a descriptive
/// error — used by tests and CI to validate that emitted traces load.
pub fn parse(input: &str) -> Result<Vec<ChromeEvent>, String> {
    let trimmed = input.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("not a JSON object".into());
    }
    let idx = trimmed.find("\"traceEvents\"").ok_or("missing \"traceEvents\"")?;
    let rest = &trimmed[idx + "\"traceEvents\"".len()..];
    let rest = rest.trim_start().strip_prefix(':').ok_or("\"traceEvents\" not followed by ':'")?;
    let rest = rest.trim_start();
    if !rest.starts_with('[') {
        return Err("\"traceEvents\" is not an array".into());
    }
    let close = matching_close(rest).ok_or("unterminated traceEvents array")?;
    let body = &rest[1..close];

    let mut events = Vec::new();
    for object in split_objects(body)? {
        let name = string_field(object, "name")
            .ok_or_else(|| format!("event missing \"name\": {object}"))?;
        let ph =
            string_field(object, "ph").ok_or_else(|| format!("event missing \"ph\": {object}"))?;
        if !matches!(ph.as_str(), "B" | "E" | "i" | "s" | "t" | "f" | "M") {
            return Err(format!("unknown phase {ph:?} in {object}"));
        }
        let tid = number_field(object, "tid")
            .ok_or_else(|| format!("event missing \"tid\": {object}"))? as u64;
        let ts =
            number_field(object, "ts").ok_or_else(|| format!("event missing \"ts\": {object}"))?;
        let id = number_field(object, "id").map(|v| v as u64);
        events.push(ChromeEvent { name, ph, tid, ts, id, args: args_text(object) });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    #[test]
    fn export_round_trips_through_parse() {
        let sink = TraceSink::new();
        sink.emit(EventKind::RunBegin, 8, 2, 1);
        sink.emit(EventKind::PartitionVisitBegin, 3, 40, 1);
        sink.emit(EventKind::Yield, 5, 3, 0);
        sink.emit(EventKind::PartitionVisitEnd, 3, 0, 0);
        sink.emit(EventKind::RunEnd, 0, 0, 0);
        let json = export(&sink);
        let events = parse(&json).unwrap();
        // Metadata + 2 B + 2 E + 1 instant.
        assert_eq!(events.len(), 6);
        assert_eq!(events[0].ph, "M");
        assert!(!events[0].arg_str("name").unwrap().is_empty());
        let begins: Vec<_> = events.iter().filter(|e| e.ph == "B").collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(begins[0].name, "run");
        assert_eq!(begins[0].arg_u64("queries"), Some(8));
        assert_eq!(begins[1].arg_u64("partition"), Some(3));
        assert_eq!(begins[1].arg_u64("ops"), Some(40));
        assert_eq!(events.iter().filter(|e| e.ph == "E").count(), 2);
        let instant = events.iter().find(|e| e.ph == "i").unwrap();
        assert_eq!(instant.name, "yield");
    }

    #[test]
    fn ticket_flows_carry_the_correlation_id() {
        let sink = TraceSink::new();
        sink.emit(EventKind::Submit, 42, 1, 0);
        sink.emit(EventKind::JoinBatch, 42, 7, 0);
        sink.emit(EventKind::BatchBegin, 7, 1, 1);
        sink.emit(EventKind::BatchEnd, 7, 0, 0);
        sink.emit(EventKind::Resolve, 42, 0, 0);
        let events = parse(&export(&sink)).unwrap();
        let flow: Vec<_> = events.iter().filter(|e| e.name == "ticket").collect();
        assert_eq!(flow.len(), 3);
        assert_eq!(flow[0].ph, "s");
        assert_eq!(flow[1].ph, "t");
        assert_eq!(flow[2].ph, "f");
        assert!(flow.iter().all(|e| e.id == Some(42)));
        // Flow steps are time-ordered.
        assert!(flow.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn truncated_streams_render_balanced_slices() {
        // Capacity 2: the Begin pair is overwritten, leaving dangling Ends,
        // then an unmatched Begin survives at the tail.
        let sink = TraceSink::with_capacity(2);
        sink.emit(EventKind::RunBegin, 1, 1, 1);
        sink.emit(EventKind::PartitionVisitBegin, 0, 1, 1);
        sink.emit(EventKind::PartitionVisitEnd, 0, 0, 0);
        sink.emit(EventKind::RunBegin, 1, 1, 1);
        let events = parse(&export(&sink)).unwrap();
        let begins = events.iter().filter(|e| e.ph == "B").count();
        let ends = events.iter().filter(|e| e.ph == "E").count();
        assert_eq!(begins, ends, "every B has an E even under truncation");
    }

    #[test]
    fn thread_names_become_metadata_tracks() {
        let sink = TraceSink::new();
        let clone = std::sync::Arc::clone(&sink);
        std::thread::Builder::new()
            .name("fg-pool-0".into())
            .spawn(move || clone.emit(EventKind::Claim, 1, 0, 0))
            .unwrap()
            .join()
            .unwrap();
        let events = parse(&export(&sink)).unwrap();
        let meta: Vec<_> = events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].arg_str("name").as_deref(), Some("fg-pool-0"));
        assert_eq!(meta[0].name, "thread_name");
    }

    #[test]
    fn parse_rejects_structural_damage() {
        assert!(parse("").is_err());
        assert!(parse("{}").is_err());
        assert!(parse("{\"traceEvents\": 3}").is_err());
        assert!(parse("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err(), "missing ph");
        assert!(
            parse("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"tid\":1,\"ts\":0}]}").is_err()
        );
        assert!(parse("{\"traceEvents\":[{\"name\":\"x\",").is_err());
        // A valid minimal event parses.
        let ok = parse(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\
                        \"ts\":1.5}]}",
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].ts, 1.5);
    }

    #[test]
    fn empty_sink_exports_an_empty_valid_trace() {
        let sink = TraceSink::new();
        let events = parse(&export(&sink)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn escaped_thread_labels_survive() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(string_field("\"name\": \"a\\\"b\\\\c\\u000a\"", "name").unwrap(), "a\"b\\c\n");
    }
}
