//! Spans recorded by the benchmark's own code around its calls into each
//! layer. Kept in memory during the run and written once at exit; the
//! untraced pass carries a disabled recorder whose calls return at once, so
//! end-to-end numbers never pay for span bookkeeping.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` is the id of the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Free-form detail: request kind, correlation id, round shape.
    pub detail: String,
}

/// Handle of an open span; hand it back to [`Recorder::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start_us: f64,
}

impl Open {
    /// The id to pass as `parent` of spans this one causes.
    pub fn id(&self) -> Option<u32> {
        (self.id != 0).then_some(self.id)
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    state: Mutex<(u32, Vec<Span>)>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder { enabled, origin: Instant::now(), state: Mutex::new((0, Vec::new())) }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>) -> Open {
        if !self.enabled {
            return Open { id: 0, parent: None, name, start_us: 0.0 };
        }
        let id = {
            let mut state = self.state.lock().expect("span recorder poisoned");
            state.0 += 1;
            state.0
        };
        Open { id, parent, name, start_us: self.now_us() }
    }

    pub fn end(&self, open: Open) {
        self.end_with(open, String::new);
    }

    /// Close `open` with a detail string, which is only built when the
    /// recorder is on: the untraced pass must not pay for formatting.
    pub fn end_with(&self, open: Open, detail: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        let detail = detail();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_us: open.start_us,
            end_us,
            detail,
        };
        self.state.lock().expect("span recorder poisoned").1.push(span);
    }

    /// Time `f` under a span and return its result.
    pub fn scope<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.state.lock().expect("span recorder poisoned").1.clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }

    /// The span file: every span, plus per name the count, total time and
    /// self time (a span's duration minus the part its children cover).
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans();
        let summary = self_times(&spans);
        Json::obj([
            ("workload", Json::str(workload)),
            ("unit", Json::str("us")),
            (
                "summary",
                Json::Arr(
                    summary
                        .iter()
                        .map(|(name, row)| {
                            Json::obj([
                                ("name", Json::str(*name)),
                                ("count", Json::Num(row.count as f64)),
                                ("total_us", Json::Num(row.total_us)),
                                ("self_us", Json::Num(row.self_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    spans
                        .iter()
                        .map(|span| {
                            let mut pairs = vec![
                                ("id".to_string(), Json::Num(span.id as f64)),
                                (
                                    "parent".to_string(),
                                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("name".to_string(), Json::str(span.name)),
                                ("start_us".to_string(), Json::Num(span.start_us)),
                                ("end_us".to_string(), Json::Num(span.end_us)),
                            ];
                            if !span.detail.is_empty() {
                                pairs.push(("detail".to_string(), Json::str(&span.detail)));
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameRow {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Per span name: how many, their total duration, and their self time.
/// Children of one parent may overlap (requests in flight together), so the
/// covered part of the parent is the union of the children's intervals, not
/// their sum.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameRow> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_us, span.end_us));
        }
    }
    let mut rows: BTreeMap<&'static str, NameRow> = BTreeMap::new();
    for span in spans {
        let duration = span.end_us - span.start_us;
        let mut covered = 0.0;
        if let Some(intervals) = children.get_mut(&span.id) {
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = span.start_us;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let row = rows.entry(span.name).or_default();
        row.count += 1;
        row.total_us += duration;
        row.self_us += duration - covered;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, name, start_us: start, end_us: end, detail: String::new() }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "round", 0.0, 100.0),
            span(2, Some(1), "reads", 10.0, 60.0),
            // Two overlapping requests under `reads`: 20..50 and 30..55.
            span(3, Some(2), "request", 20.0, 50.0),
            span(4, Some(2), "request", 30.0, 55.0),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["round"], NameRow { count: 1, total_us: 100.0, self_us: 50.0 });
        assert_eq!(rows["reads"], NameRow { count: 1, total_us: 50.0, self_us: 15.0 });
        assert_eq!(rows["request"], NameRow { count: 2, total_us: 55.0, self_us: 55.0 });
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let off = Recorder::new(false);
        let open = off.begin("pair", None);
        assert_eq!(open.id(), None);
        off.end(open);
        assert!(off.spans().is_empty());

        let on = Recorder::new(true);
        let outer = on.begin("pair", None);
        on.scope("engine.run", outer.id(), || ());
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.name == "engine.run").unwrap().parent, outer.id());
    }
}
