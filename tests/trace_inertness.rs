//! The tracing contract, on the 2-channel cross-channel policy scenario —
//! the configuration that lights every trace category: installing trace
//! sinks changes **no simulated outcome** at any walk, the event stream
//! is identical under every walk (threaded included), every category the
//! run can produce captures events, and the exported Chrome trace-event
//! JSON is syntactically valid (checked by a small recursive-descent
//! parser, since the workspace is dependency-free). The same parser
//! checks the shared JSON writer's escapes and layout.
//!
//! This is the trace-only row of the matrix in `matrix/mod.rs`.

mod matrix;

use clr_dram::obs::{CategorySet, Json as Value, TraceCategory, TraceLog};
use matrix::*;

#[test]
fn tracing_changes_no_simulated_outcome() {
    let s = cross_channel();
    assert_inert(&s, TRACE, &[Walk::PerCycle, Walk::SkipAhead]);
    check_trace(&s, TRACE, run(&s, Walk::SkipAhead, TRACE));
}

#[test]
fn tracing_stays_inert_and_bit_identical_under_threads() {
    let s = cross_channel();
    assert_inert(&s, TRACE, &[Walk::Threaded(2)]);
    assert_walk_invariant(&s, TRACE);
}

#[test]
fn category_filter_restricts_the_log() {
    let s = cross_channel();
    let mut cfg = config(&s, Walk::SkipAhead, ALL);
    cfg.trace.as_mut().unwrap().categories = CategorySet::none().with(TraceCategory::Policy);
    let r = run_config(&s, cfg);
    let log = r.run.trace.as_ref().expect("traced run returns a log");
    // Metrics were recorded (the series exist) but the filter keeps
    // their counter tracks, like every other category, out of the log.
    assert!(r.run.metrics.is_some());
    assert_eq!(
        categories(|cat| log.count(cat) > 0),
        [TraceCategory::Policy]
    );
}

#[test]
fn chrome_trace_json_is_valid_and_complete() {
    // The log that holds every event kind: counter tracks need the
    // metrics series, tail-request flows the blame budget.
    let s = cross_channel();
    let r = run(&s, Walk::SkipAhead, ALL);
    check_trace(&s, ALL, r);
    let log = r.run.trace.as_ref().unwrap();
    let text = log.to_chrome_json();
    let Json::Object(top) = parse_json(&text).expect("export must be valid JSON") else {
        panic!("top level must be an object");
    };
    assert!(lookup(&top, "displayTimeUnit").is_some());
    let Some(Json::Array(events)) = lookup(&top, "traceEvents") else {
        panic!("traceEvents array missing");
    };
    // Flow events (tail-request spans) export as a begin/end pair.
    let flows = log.events.iter().filter(|e| e.flow_id.is_some()).count();
    assert!(flows > 0, "the contention scenario must sample tail reads");
    assert!(log.events.iter().any(|e| e.counter), "no counter tracks");
    assert_eq!(events.len(), log.events.len() + flows);
    // Flow ids are a per-channel emission sequence: each (pid, id) is
    // one buffered flow, exported as exactly one begin and one later end.
    let mut ids = std::collections::BTreeSet::new();
    for e in log.events.iter().filter(|e| e.flow_id.is_some()) {
        let key = (e.pid, e.flow_id);
        assert!(ids.insert(key), "flow {key:?} emitted twice");
        assert!(e.dur > 0, "flow {key:?} ends where it begins");
    }
    let mut begins = 0;
    let mut ends = 0;
    for e in events {
        let Json::Object(fields) = e else {
            panic!("event must be an object");
        };
        for key in ["name", "cat", "ph", "ts", "pid", "tid", "args"] {
            assert!(lookup(fields, key).is_some(), "event missing {key:?}");
        }
        let Some(Json::String(ph)) = lookup(fields, "ph") else {
            panic!("ph must be a string");
        };
        begins += usize::from(*ph == "b");
        ends += usize::from(*ph == "e");
        // Spans carry a duration, instants a scope, flow events an id.
        let needs = match *ph {
            "X" => "dur",
            "i" => "s",
            "b" | "e" => "id",
            "C" => "args",
            other => panic!("unexpected ph {other:?}"),
        };
        assert!(
            lookup(fields, needs).is_some(),
            "{ph} event without {needs}"
        );
        if *ph == "C" {
            assert!(lookup(fields, "dur").is_none(), "counter with dur");
            let series = matches!(lookup(fields, "args"), Some(Json::Object(a)) if !a.is_empty());
            assert!(series, "counter with no series values");
        }
    }
    assert_eq!((begins, ends), (flows, flows));
}

#[test]
fn migration_trace_is_pinned() {
    // Every migration-category event of the skip-ahead run: the job
    // spans (dispatch to terminal PRE, named after the job kind) and the
    // couple-point instants, with their channel, bank, row, start cycle
    // and duration, hashed in log order.
    let s = cross_channel();
    let log = run(&s, Walk::SkipAhead, TRACE).run.trace.as_ref().unwrap();
    let events: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.category == TraceCategory::Migration)
        .collect();
    for name in ["couple", "stage_out", "fill_in", "couple_point"] {
        assert!(events.iter().any(|e| e.name == name), "no {name} event");
    }
    let hash = events.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
        let text = format!("{} {} {} {} {:?};", e.name, e.pid, e.ts, e.dur, e.args);
        text.bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    });
    assert_eq!((events.len(), hash), (270, 0x57a9_0f35_93f1_579c));
}

#[test]
fn empty_trace_log_serializes_validly() {
    let text = TraceLog::default().to_chrome_json();
    let Json::Object(top) = parse_json(&text).unwrap() else {
        panic!("top level must be an object");
    };
    assert!(matches!(lookup(&top, "traceEvents"), Some(Json::Array(e)) if e.is_empty()));
}

#[test]
fn json_writer_output_parses_with_exact_escapes() {
    // A literal backslash-n next to a real newline keeps the two escapes
    // apart; U+0001 needs the \u form; non-ASCII text passes through.
    const TRICKY: &str = "q\"b\\n\nc\u{1}é✓";
    const ESCAPED: &str = r#"q\"b\\n\nc\u0001é✓"#;
    let floats = [
        Value::fixed(0.1, 6),
        Value::fixed(2.5e-7, 9),
        Value::fixed(-1.0 / 3.0, 3),
    ];
    let row = |i: u64| {
        Value::Obj(vec![
            ("i", i.into()),
            ("xs", [i, i + 1].into_iter().collect()),
        ])
    };
    let doc = Value::Obj(vec![
        (TRICKY, Value::Str(TRICKY.to_string())),
        ("empty_array", Value::Arr(vec![])),
        ("empty_object", Value::Obj(vec![])),
        ("max", u64::MAX.into()),
        ("floats", floats.into_iter().collect()),
        ("rows", [row(1), row(2)].into_iter().collect()),
    ]);
    let text = doc.to_string();
    let Json::Object(top) = parse_json(&text).expect("writer output must parse") else {
        panic!("top level must be an object");
    };
    assert_eq!(top[0].0, ESCAPED, "key escapes");
    assert!(
        matches!(top[0].1, Json::String(s) if s == ESCAPED),
        "string escapes"
    );
    assert!(matches!(lookup(&top, "empty_array"), Some(Json::Array(a)) if a.is_empty()));
    assert!(matches!(lookup(&top, "empty_object"), Some(Json::Object(o)) if o.is_empty()));
    assert!(matches!(lookup(&top, "rows"), Some(Json::Array(r)) if r.len() == 2));
    // Numbers are written as their producers formatted them.
    assert!(text.contains("\"max\": 18446744073709551615"));
    assert!(text.contains("\"floats\": [0.100000, 0.000000250, -0.333]"));
    // JSON forbids raw control characters inside strings.
    assert!(parse_json("\"a\nb\"").is_err());
    assert!(parse_json("\"a\u{1}b\"").is_err());
}

// --- A minimal JSON parser (the workspace has no JSON dependency, and
// the export must open in external viewers, so the test parses it from
// scratch rather than substring-matching). ---

#[derive(Debug)]
enum Json<'a> {
    Object(Vec<(&'a str, Json<'a>)>),
    Array(Vec<Json<'a>>),
    /// A string's raw contents: escapes are validated, not decoded.
    String(&'a str),
    /// A number, `true`, `false` or `null`: only their syntax matters.
    Scalar,
}

fn lookup<'j, 'a>(fields: &'j [(&'a str, Json<'a>)], key: &str) -> Option<&'j Json<'a>> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn parse_json(text: &str) -> Result<Json<'_>, String> {
    let mut rest = text;
    let v = value(&mut rest)?;
    match rest.trim_start() {
        "" => Ok(v),
        tail => Err(format!("trailing bytes: {tail:.20}")),
    }
}

/// Consumes `token` if it comes next, after any whitespace.
fn eat(rest: &mut &str, token: &str) -> bool {
    *rest = rest.trim_start();
    let hit = rest.starts_with(token);
    if hit {
        *rest = &rest[token.len()..];
    }
    hit
}

fn value<'a>(rest: &mut &'a str) -> Result<Json<'a>, String> {
    if eat(rest, "{") {
        let field = |r: &mut &'a str| {
            let key = string(r)?;
            match eat(r, ":") {
                true => Ok((key, value(r)?)),
                false => Err(format!("expected ':' at {r:.20}")),
            }
        };
        seq(rest, "}", field).map(Json::Object)
    } else if eat(rest, "[") {
        seq(rest, "]", value).map(Json::Array)
    } else if rest.starts_with('"') {
        string(rest).map(Json::String)
    } else if ["true", "false", "null"].iter().any(|w| eat(rest, w)) {
        Ok(Json::Scalar)
    } else {
        let len = rest.find(|c: char| !"0123456789+-.eE".contains(c));
        let (number, tail) = rest.split_at(len.unwrap_or(rest.len()));
        number
            .parse::<f64>()
            .map_err(|_| format!("bad value at {rest:.20}"))?;
        *rest = tail;
        Ok(Json::Scalar)
    }
}

/// Comma-separated items up to `close`, the opener already consumed.
fn seq<'a, T>(
    rest: &mut &'a str,
    close: &str,
    item: impl Fn(&mut &'a str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    while !eat(rest, close) {
        if !items.is_empty() && !eat(rest, ",") {
            return Err(format!("bad separator at {rest:.20}"));
        }
        items.push(item(rest)?);
    }
    Ok(items)
}

fn string<'a>(rest: &mut &'a str) -> Result<&'a str, String> {
    if !eat(rest, "\"") {
        return Err(format!("expected a string at {rest:.20}"));
    }
    let b = rest.as_bytes();
    let mut i = 0;
    while let Some(&c) = b.get(i) {
        i += match (c, b.get(i + 1)) {
            (b'"', _) => {
                let s = &rest[..i];
                *rest = &rest[i + 1..];
                return Ok(s);
            }
            (b'\\', Some(b'u')) => 6,
            (b'\\', Some(e)) if b"\"\\/bfnrt".contains(e) => 2,
            (b'\\', _) => return Err(format!("bad escape at {:.20}", &rest[i..])),
            (c, _) if c < 0x20 => return Err(format!("raw control character {c:#04x}")),
            _ => 1,
        };
    }
    Err("unterminated string".into())
}
