//! Dependency-free JSON helpers for the metrics schema: string escaping
//! for the serializer, a minimal recursive-descent parser, and the
//! schema validator behind `spgcnn validate-metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes `s` as a JSON string literal with escaping.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes a finite float as a JSON number.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serializes an optional ratio as a JSON number or `null`.
pub fn ratio(v: Option<f64>) -> String {
    match v {
        Some(v) => number(v),
        None => "null".to_string(),
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (key order not preserved).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", byte as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty by construction");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn require_number(value: &Value, owner: &str, field: &str) -> Result<f64, String> {
    value
        .get(field)
        .and_then(Value::as_number)
        .ok_or_else(|| format!("{owner}: missing numeric field `{field}`"))
}

fn require_string<'v>(value: &'v Value, owner: &str, field: &str) -> Result<&'v str, String> {
    value
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{owner}: missing string field `{field}`"))
}

fn require_ratio(value: &Value, owner: &str, field: &str) -> Result<(), String> {
    match value.get(field) {
        Some(Value::Null) => Ok(()),
        Some(Value::Number(n)) if (0.0..=1.0).contains(n) => Ok(()),
        Some(Value::Number(n)) => Err(format!("{owner}: field `{field}` = {n} outside [0, 1]")),
        _ => Err(format!("{owner}: missing ratio field `{field}`")),
    }
}

const PHASE_NAMES: [&str; 6] =
    ["forward", "backward", "backward_data", "backward_weights", "tune", "other"];

/// Validates a metrics document against schema version
/// [`SCHEMA_VERSION`](crate::SCHEMA_VERSION).
///
/// # Errors
///
/// Returns the first structural problem found: parse failure, wrong
/// schema name/version, or a scope/decision entry missing a required
/// field.
pub fn validate_metrics(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let schema = require_string(&doc, "document", "schema")?;
    if schema != crate::SCHEMA_NAME {
        return Err(format!("schema `{schema}` is not `{}`", crate::SCHEMA_NAME));
    }
    let version = require_number(&doc, "document", "schema_version")?;
    if version != crate::SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} unsupported (expected {})",
            crate::SCHEMA_VERSION
        ));
    }
    if !matches!(doc.get("meta"), Some(Value::Object(_))) {
        return Err("document: missing object field `meta`".to_string());
    }

    let scopes = doc
        .get("scopes")
        .and_then(Value::as_array)
        .ok_or_else(|| "document: missing array field `scopes`".to_string())?;
    for (i, scope) in scopes.iter().enumerate() {
        let owner = format!("scopes[{i}]");
        require_string(scope, &owner, "label")?;
        let phase = require_string(scope, &owner, "phase")?;
        if !PHASE_NAMES.contains(&phase) {
            return Err(format!("{owner}: unknown phase `{phase}`"));
        }
        for field in ["calls", "wall_ns", "useful_flops", "total_flops"] {
            let n = require_number(scope, &owner, field)?;
            if n < 0.0 {
                return Err(format!("{owner}: field `{field}` = {n} is negative"));
            }
        }
        require_ratio(scope, &owner, "goodput")?;
        require_ratio(scope, &owner, "tile_occupancy")?;
        // Added in schema minor 1; older documents legitimately omit it.
        if let Some(v) = scope.get("workspace_bytes") {
            match v.as_number() {
                Some(n) if n >= 0.0 => {}
                Some(n) => {
                    return Err(format!("{owner}: field `workspace_bytes` = {n} is negative"))
                }
                None => return Err(format!("{owner}: field `workspace_bytes` is not a number")),
            }
        }
    }

    let decisions = doc
        .get("decisions")
        .and_then(Value::as_array)
        .ok_or_else(|| "document: missing array field `decisions`".to_string())?;
    for (i, decision) in decisions.iter().enumerate() {
        let owner = format!("decisions[{i}]");
        require_string(decision, &owner, "label")?;
        require_string(decision, &owner, "chosen")?;
        let phase = require_string(decision, &owner, "phase")?;
        if !PHASE_NAMES.contains(&phase) {
            return Err(format!("{owner}: unknown phase `{phase}`"));
        }
        require_number(decision, &owner, "cores")?;
        require_number(decision, &owner, "sparsity")?;
        let candidates = decision
            .get("candidates")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{owner}: missing array field `candidates`"))?;
        for (j, candidate) in candidates.iter().enumerate() {
            let owner = format!("{owner}.candidates[{j}]");
            require_string(candidate, &owner, "technique")?;
            require_number(candidate, &owner, "wall_ns")?;
        }
        // Added in schema minor 4; older documents legitimately omit it.
        if let Some(rejected) = decision.get("rejected") {
            let rejected = rejected
                .as_array()
                .ok_or_else(|| format!("{owner}: field `rejected` is not an array"))?;
            for (j, entry) in rejected.iter().enumerate() {
                let owner = format!("{owner}.rejected[{j}]");
                require_string(entry, &owner, "technique")?;
                require_string(entry, &owner, "reason")?;
            }
        }
        // Added in schema minor 5; older documents legitimately omit it.
        if let Some(kernel) = decision.get("kernel") {
            let kernel = kernel
                .as_str()
                .ok_or_else(|| format!("{owner}: field `kernel` is not a string"))?;
            if kernel != "specialized" && kernel != "generic" {
                return Err(format!("{owner}: unknown kernel `{kernel}`"));
            }
        }
        // Added in schema minor 6; older documents legitimately omit
        // them, and current writers no longer emit `backend`. Values are
        // open-ended identifiers (algo ids grow over time), so only the
        // type is checked.
        if let Some(backend) = decision.get("backend") {
            backend.as_str().ok_or_else(|| format!("{owner}: field `backend` is not a string"))?;
        }
        if let Some(algo) = decision.get("algo") {
            algo.as_str().ok_or_else(|| format!("{owner}: field `algo` is not a string"))?;
        }
        // Added in schema minor 8; older documents legitimately omit it.
        // Unlike `backend`/`algo`, the partition vocabulary is closed: a
        // decision can only split work along one of these dimensions
        // (`x-band` from writers that predate the column bands' removal).
        if let Some(partition) = decision.get("partition") {
            let partition = partition
                .as_str()
                .ok_or_else(|| format!("{owner}: field `partition` is not a string"))?;
            if !["sample", "y-band", "x-band", "out-channel"].contains(&partition) {
                return Err(format!("{owner}: unknown partition `{partition}`"));
            }
        }
    }

    // Added in schema minor 2; older documents legitimately omit it.
    if let Some(latencies) = doc.get("latencies") {
        let latencies = latencies
            .as_array()
            .ok_or_else(|| "document: field `latencies` is not an array".to_string())?;
        for (i, entry) in latencies.iter().enumerate() {
            let owner = format!("latencies[{i}]");
            require_string(entry, &owner, "label")?;
            for field in ["count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"] {
                let n = require_number(entry, &owner, field)?;
                if n < 0.0 {
                    return Err(format!("{owner}: field `{field}` = {n} is negative"));
                }
            }
            let buckets = entry
                .get("buckets")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{owner}: missing array field `buckets`"))?;
            for (j, bucket) in buckets.iter().enumerate() {
                match bucket.as_number() {
                    Some(n) if n >= 0.0 => {}
                    _ => return Err(format!("{owner}: buckets[{j}] is not a non-negative number")),
                }
            }
        }
    }

    // Added in schema minor 3; older documents legitimately omit it.
    if let Some(counters) = doc.get("counters") {
        let counters = counters
            .as_array()
            .ok_or_else(|| "document: field `counters` is not an array".to_string())?;
        for (i, entry) in counters.iter().enumerate() {
            let owner = format!("counters[{i}]");
            require_string(entry, &owner, "label")?;
            let n = require_number(entry, &owner, "value")?;
            if n < 0.0 {
                return Err(format!("{owner}: field `value` = {n} is negative"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3e2}}"#).unwrap();
        assert_eq!(doc.get("b").and_then(|b| b.get("c")).and_then(Value::as_number), Some(-300.0));
        let items = doc.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(items[2].as_str(), Some("x\n"));
        assert_eq!(items.len(), 5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        let original = "quote \" slash \\ newline \n tab \t unicode \u{1}";
        let doc = parse(&format!("{{{}: {}}}", string("k"), string(original))).unwrap();
        assert_eq!(doc.get("k").and_then(Value::as_str), Some(original));
    }

    #[test]
    fn validator_accepts_minimal_document() {
        let text = format!(
            r#"{{"schema": "spgcnn-metrics", "schema_version": {},
                "meta": {{}}, "scopes": [], "decisions": []}}"#,
            crate::SCHEMA_VERSION
        );
        validate_metrics(&text).unwrap();
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate_metrics("{}").is_err());
        assert!(validate_metrics(
            r#"{"schema": "other", "schema_version": 1, "meta": {}, "scopes": [], "decisions": []}"#
        )
        .is_err());
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 999, "meta": {},
                "scopes": [], "decisions": []}"#
        )
        .is_err());
        // Scope entry missing `total_flops`.
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [{"label": "x", "phase": "forward", "calls": 1,
                            "wall_ns": 5, "useful_flops": 1, "goodput": null,
                            "tile_nnz": 0, "tile_capacity": 0, "tile_occupancy": null}],
                "decisions": []}"#
        )
        .is_err());
        // Latency entry with a negative count.
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [], "decisions": [],
                "latencies": [{"label": "serve.request", "count": -1, "sum_ns": 0,
                               "min_ns": 0, "max_ns": 0, "p50_ns": 0, "p95_ns": 0,
                               "p99_ns": 0, "buckets": [0]}]}"#
        )
        .is_err());
        // Latency entry missing `buckets`.
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [], "decisions": [],
                "latencies": [{"label": "serve.request", "count": 1, "sum_ns": 9,
                               "min_ns": 9, "max_ns": 9, "p50_ns": 9, "p95_ns": 9,
                               "p99_ns": 9}]}"#
        )
        .is_err());
        // Counter entry missing `value`.
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [], "decisions": [],
                "counters": [{"label": "serve.worker_restarts"}]}"#
        )
        .is_err());
        // Counter entry with a negative value.
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [], "decisions": [],
                "counters": [{"label": "serve.worker_restarts", "value": -2}]}"#
        )
        .is_err());
        // Goodput outside [0, 1].
        assert!(validate_metrics(
            r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
                "scopes": [{"label": "x", "phase": "forward", "calls": 1,
                            "wall_ns": 5, "useful_flops": 2, "total_flops": 1,
                            "goodput": 2.0, "tile_nnz": 0, "tile_capacity": 0,
                            "tile_occupancy": null}],
                "decisions": []}"#
        )
        .is_err());
    }

    /// Minor-6 `backend`/`algo` decision fields: string values validate,
    /// non-strings are rejected, and minor-5 documents (fields absent)
    /// are still accepted.
    #[test]
    fn validator_handles_minor_six_decision_fields() {
        let decision = |extra: &str| {
            format!(
                r#"{{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {{}},
                    "scopes": [], "decisions": [{{"label": "conv0", "phase": "forward",
                    "chosen": "stencil-fp", "sparsity": 0.5, "cores": 4,
                    "candidates": []{extra}}}]}}"#
            )
        };
        validate_metrics(&decision("")).expect("minor-5 document still accepted");
        validate_metrics(&decision(r#", "backend": "cpu", "algo": "stencil-fp/generic""#))
            .expect("minor-6 fields accepted");
        assert!(validate_metrics(&decision(r#", "backend": 7"#)).is_err());
        assert!(validate_metrics(&decision(r#", "algo": ["x"]"#)).is_err());
    }

    /// Minor-8 `partition` decision field: the four split dimensions
    /// validate, unknown names and non-strings are rejected, and minor-7
    /// documents (field absent) are still accepted.
    #[test]
    fn validator_handles_minor_eight_partition_field() {
        let decision = |extra: &str| {
            format!(
                r#"{{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {{}},
                    "scopes": [], "decisions": [{{"label": "conv0", "phase": "forward",
                    "chosen": "stencil-yband", "sparsity": 0.0, "cores": 8,
                    "candidates": []{extra}}}]}}"#
            )
        };
        validate_metrics(&decision("")).expect("minor-7 document still accepted");
        for dim in ["sample", "y-band", "x-band", "out-channel"] {
            validate_metrics(&decision(&format!(r#", "partition": "{dim}""#)))
                .unwrap_or_else(|e| panic!("partition {dim} accepted: {e}"));
        }
        assert!(validate_metrics(&decision(r#", "partition": "diagonal""#)).is_err());
        assert!(validate_metrics(&decision(r#", "partition": 3"#)).is_err());
        // A decision from a writer that still had band technique names and
        // timed one GEMM program under two: technique ids are open-ended.
        let old = r#"{"schema": "spgcnn-metrics", "schema_version": 1, "meta": {},
            "scopes": [], "decisions": [{"label": "conv0", "phase": "forward",
            "chosen": "stencil-ochannel", "sparsity": 0.0, "cores": 8,
            "candidates": [{"technique": "parallel-gemm", "wall_ns": 4100},
                           {"technique": "gemm-in-parallel", "wall_ns": 4100},
                           {"technique": "stencil-ochannel", "wall_ns": 3900}],
            "kernel": "generic", "backend": "cpu", "algo": "stencil-ochannel/generic",
            "partition": "x-band"}]}"#;
        validate_metrics(old).expect("pre-PR-21 document still accepted");
    }
}
