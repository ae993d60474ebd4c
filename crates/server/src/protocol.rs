//! The ForkGraph wire protocol: binary frames that deserialize straight into
//! [`Query::kernel`](fg_service::Query) builder calls.
//!
//! All integers are little-endian. A connection opens with the 4-byte magic
//! [`MAGIC`] (`"FGW1"` — ForkGraph Wire v1), after which both directions
//! carry length-prefixed frames ([`crate::framing`]). Frame bodies:
//!
//! | kind | direction | layout after the kind byte |
//! |------|-----------|-----------------------------|
//! | `1` request      | client → server | `u32 correlation`, `u16 len + utf8` kernel, `u32 source`, `u16 count` × (`u16 len + utf8` name, `u8 tag` + value) |
//! | `2` result       | server → client | `u32 correlation`, `u8 tag` + payload |
//! | `3` error        | server → client | `u32 correlation`, `u8 code`, `u32 len + utf8` message |
//! | `4` retry-after  | server → client | `u32 correlation`, `u32 retry_after_ms`, `u32 queue_depth`, `u32 capacity` |
//! | `5` mutate       | client → server | `u32 correlation`, `u8 op` (1 insert, 2 delete, 3 update-weight), `u32 u`, `u32 v`, `u32 w` (zero for delete) |
//!
//! A mutate frame is acknowledged with a result frame whose payload is the
//! graph version (tag `6`) that will first contain the mutation, or a typed
//! error ([`WireErrorCode::InvalidMutation`]).
//!
//! Parameter values mirror [`ParamValue`] exactly (tags: bool `0`, u64 `1`,
//! i64 `2`, f64-bits `3`, str `4`), so anything expressible through
//! `Query::param` is expressible on the wire — including parameters of
//! kernels registered after the server started.
//!
//! Correlation IDs are chosen by the client; `0` is reserved for
//! connection-level errors (a frame so broken the server could not read the
//! ID it should answer under). Responses may arrive **out of order** — that
//! is the point of the IDs: a connection can pipeline many in-flight
//! queries, and a cache hit overtakes a cold run.

use fg_service::{EdgeMutation, ParamValue, Query, QueryResult};
use forkgraph_core::kernels::{PprState, RwState};

use crate::error::ProtocolError;

/// Connection-opening magic: `"FGW1"`. Also how the shared listener tells a
/// binary-protocol client from an HTTP scraper — no HTTP method starts with
/// these bytes.
pub const MAGIC: [u8; 4] = *b"FGW1";

/// Correlation ID reserved for connection-level errors.
pub const CONNECTION_CORRELATION: u32 = 0;

const KIND_REQUEST: u8 = 1;
const KIND_RESULT: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_RETRY_AFTER: u8 = 4;
const KIND_MUTATE: u8 = 5;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_UPDATE: u8 = 3;

/// One query as it travels the wire. Mirrors the [`Query`] builder: kernel
/// name, source vertex, typed parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen pipelining ID (`!= 0`); echoed on the response.
    pub correlation: u32,
    /// Registered kernel name.
    pub kernel: String,
    /// Source vertex the query forks from.
    pub source: u32,
    /// Typed parameters, mirroring [`ParamValue`].
    pub params: Vec<(String, ParamValue)>,
}

impl Request {
    /// Start a request for `kernel` forking from `source`.
    pub fn new(correlation: u32, kernel: impl Into<String>, source: u32) -> Self {
        Request { correlation, kernel: kernel.into(), source, params: Vec::new() }
    }

    /// Add one typed parameter (builder style).
    pub fn param(mut self, name: impl Into<String>, value: impl Into<ParamValue>) -> Self {
        self.params.push((name.into(), value.into()));
        self
    }

    /// The in-process [`Query`] this request deserializes into — the whole
    /// wire layer funnels into the same builder path local callers use.
    pub fn to_query(&self) -> Query {
        let mut query = Query::kernel(self.kernel.as_str()).source(self.source);
        for (name, value) in &self.params {
            query = query.param(name.as_str(), value.clone());
        }
        query
    }
}

/// One edge mutation as it travels the wire; acknowledged with a
/// version-payload result frame under the same correlation ID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateRequest {
    /// Client-chosen pipelining ID (`!= 0`); echoed on the acknowledgement.
    pub correlation: u32,
    /// The mutation, in the service's own vocabulary — the wire adds no
    /// semantics here either.
    pub mutation: EdgeMutation,
}

/// A decoded client → server frame: either a query or a mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// A `1` request frame.
    Query(Request),
    /// A `5` mutate frame.
    Mutate(MutateRequest),
}

/// A query result's state, encoded for transport. Covers every built-in
/// kernel state plus the common custom-kernel shapes (`Vec` of fixed-width
/// numbers); a registered kernel whose state downcasts to none of these is
/// answered with [`WireErrorCode::UnsupportedResult`] instead of a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum WirePayload {
    /// `Vec<u32>` states (BFS levels). Tag `1`.
    U32s(Vec<u32>),
    /// `Vec<u64>` states (SSSP distances — `Dist = u64` — and friends). Tag `2`.
    U64s(Vec<u64>),
    /// `Vec<f64>` states. Tag `3`.
    F64s(Vec<f64>),
    /// PPR state (estimates + residuals + push count). Tag `4`.
    Ppr {
        /// Dense PPR estimates.
        estimate: Vec<f64>,
        /// Dense residual mass.
        residual: Vec<f64>,
        /// Pushes performed.
        pushes: u64,
    },
    /// Random-walk state (visit counts). Tag `5`.
    Rw {
        /// Walker visits per vertex.
        visits: Vec<u64>,
    },
    /// Mutation acknowledgement: the graph version that will first contain
    /// the logged mutation. Tag `6`.
    Version(u64),
}

impl WirePayload {
    /// Encode a completed in-process result, or `None` when its state type
    /// has no wire representation.
    pub fn from_result(result: &QueryResult) -> Option<WirePayload> {
        if let Some(v) = result.downcast_ref::<Vec<u32>>() {
            return Some(WirePayload::U32s(v.clone()));
        }
        if let Some(v) = result.downcast_ref::<Vec<u64>>() {
            return Some(WirePayload::U64s(v.clone()));
        }
        if let Some(v) = result.downcast_ref::<Vec<f64>>() {
            return Some(WirePayload::F64s(v.clone()));
        }
        if let Some(p) = result.downcast_ref::<PprState>() {
            return Some(WirePayload::Ppr {
                estimate: p.estimate.clone(),
                residual: p.residual.clone(),
                pushes: p.pushes,
            });
        }
        if let Some(r) = result.downcast_ref::<RwState>() {
            return Some(WirePayload::Rw { visits: r.visits.clone() });
        }
        None
    }
}

/// Typed failure codes a server frame can carry; mirrors
/// [`fg_service::ServiceError`] (minus `Saturated`, which travels as a
/// dedicated retry-after frame — backpressure is flow control, not failure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// The service is draining or shut down.
    ShuttingDown = 1,
    /// Source vertex out of range for the served graph.
    InvalidSource = 2,
    /// The request named no source (unreachable from this codec, which
    /// always carries one; kept for parity with the service error).
    MissingSource = 3,
    /// No kernel registered under the requested name.
    UnknownKernel = 4,
    /// The kernel's factory rejected the parameters.
    InvalidParams = 5,
    /// The engine failed while running the query's batch.
    EngineFailure = 6,
    /// The kernel ran but its state has no wire encoding: its type has
    /// none, or its encoding exceeds the server's `max_frame_len` (the
    /// message names the encoded size and the cap).
    UnsupportedResult = 7,
    /// The peer sent a frame this side could not decode (correlation `0`
    /// when the ID itself was unreadable).
    Protocol = 8,
    /// The mutation was rejected before it reached the log (endpoint out of
    /// range, self-loop).
    InvalidMutation = 9,
}

impl WireErrorCode {
    fn from_u8(code: u8) -> Result<Self, ProtocolError> {
        Ok(match code {
            1 => WireErrorCode::ShuttingDown,
            2 => WireErrorCode::InvalidSource,
            3 => WireErrorCode::MissingSource,
            4 => WireErrorCode::UnknownKernel,
            5 => WireErrorCode::InvalidParams,
            6 => WireErrorCode::EngineFailure,
            7 => WireErrorCode::UnsupportedResult,
            8 => WireErrorCode::Protocol,
            9 => WireErrorCode::InvalidMutation,
            other => return Err(ProtocolError::UnknownErrorCode(other)),
        })
    }
}

/// One server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The query completed; `payload` is its encoded state.
    Result {
        /// Echoed request ID.
        correlation: u32,
        /// Encoded kernel state.
        payload: WirePayload,
    },
    /// The query failed with a typed error.
    Error {
        /// Echoed request ID (`0` = connection-level).
        correlation: u32,
        /// Typed failure class.
        code: WireErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control shed the query: back off `retry_after_ms` and
    /// resubmit. The connection itself stays healthy — saturation never
    /// costs a client its socket.
    RetryAfter {
        /// Echoed request ID.
        correlation: u32,
        /// Suggested backoff.
        retry_after_ms: u32,
        /// Queue depth observed at rejection.
        queue_depth: u32,
        /// Configured queue capacity.
        capacity: u32,
    },
}

impl Response {
    /// The correlation ID this response answers.
    pub fn correlation(&self) -> u32 {
        match self {
            Response::Result { correlation, .. }
            | Response::Error { correlation, .. }
            | Response::RetryAfter { correlation, .. } => *correlation,
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_str16(out: &mut Vec<u8>, s: &str) {
    let len = s.len().min(u16::MAX as usize) as u16;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

fn put_str32(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_param(out: &mut Vec<u8>, value: &ParamValue) {
    match value {
        ParamValue::Bool(v) => {
            out.push(0);
            out.push(*v as u8);
        }
        ParamValue::U64(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ParamValue::I64(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_le_bytes());
        }
        ParamValue::F64(v) => {
            out.push(3);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        ParamValue::Str(v) => {
            out.push(4);
            put_str32(out, v);
        }
    }
}

/// Serialize a request into a frame body.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + request.kernel.len());
    out.push(KIND_REQUEST);
    out.extend_from_slice(&request.correlation.to_le_bytes());
    put_str16(&mut out, &request.kernel);
    out.extend_from_slice(&request.source.to_le_bytes());
    out.extend_from_slice(&(request.params.len().min(u16::MAX as usize) as u16).to_le_bytes());
    for (name, value) in request.params.iter().take(u16::MAX as usize) {
        put_str16(&mut out, name);
        put_param(&mut out, value);
    }
    out
}

/// Serialize a mutate frame body.
pub fn encode_mutate(request: &MutateRequest) -> Vec<u8> {
    let (op, u, v, w) = match request.mutation {
        EdgeMutation::Insert { u, v, w } => (OP_INSERT, u, v, w),
        EdgeMutation::Delete { u, v } => (OP_DELETE, u, v, 0),
        EdgeMutation::UpdateWeight { u, v, w } => (OP_UPDATE, u, v, w),
    };
    let mut out = Vec::with_capacity(18);
    out.push(KIND_MUTATE);
    out.extend_from_slice(&request.correlation.to_le_bytes());
    out.push(op);
    out.extend_from_slice(&u.to_le_bytes());
    out.extend_from_slice(&v.to_le_bytes());
    out.extend_from_slice(&w.to_le_bytes());
    out
}

fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_u64s(out: &mut Vec<u8>, values: &[u64]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Serialize a response into a frame body.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match response {
        Response::Result { correlation, payload } => {
            out.push(KIND_RESULT);
            out.extend_from_slice(&correlation.to_le_bytes());
            match payload {
                WirePayload::U32s(v) => {
                    out.push(1);
                    put_u32s(&mut out, v);
                }
                WirePayload::U64s(v) => {
                    out.push(2);
                    put_u64s(&mut out, v);
                }
                WirePayload::F64s(v) => {
                    out.push(3);
                    put_f64s(&mut out, v);
                }
                WirePayload::Ppr { estimate, residual, pushes } => {
                    out.push(4);
                    put_f64s(&mut out, estimate);
                    put_f64s(&mut out, residual);
                    out.extend_from_slice(&pushes.to_le_bytes());
                }
                WirePayload::Rw { visits } => {
                    out.push(5);
                    put_u64s(&mut out, visits);
                }
                WirePayload::Version(version) => {
                    out.push(6);
                    out.extend_from_slice(&version.to_le_bytes());
                }
            }
        }
        Response::Error { correlation, code, message } => {
            out.push(KIND_ERROR);
            out.extend_from_slice(&correlation.to_le_bytes());
            out.push(*code as u8);
            put_str32(&mut out, message);
        }
        Response::RetryAfter { correlation, retry_after_ms, queue_depth, capacity } => {
            out.push(KIND_RETRY_AFTER);
            out.extend_from_slice(&correlation.to_le_bytes());
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            out.extend_from_slice(&queue_depth.to_le_bytes());
            out.extend_from_slice(&capacity.to_le_bytes());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a frame body. Every getter returns a typed
/// [`ProtocolError`] instead of slicing out of range.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(body: &'a [u8]) -> Self {
        Cursor { body, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated {
                field,
                expected: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2, field)?.try_into().expect("sized take")))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4, field)?.try_into().expect("sized take")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8, field)?.try_into().expect("sized take")))
    }

    fn str16(&mut self, field: &'static str) -> Result<String, ProtocolError> {
        let len = self.u16(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8 { field })
    }

    fn str32(&mut self, field: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8 { field })
    }

    /// Validate `count * width <= remaining` *before* any allocation.
    fn checked_count(
        &self,
        count: u64,
        width: usize,
        field: &'static str,
    ) -> Result<usize, ProtocolError> {
        let need = count.checked_mul(width as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(count as usize),
            _ => Err(ProtocolError::BadCount { field, count, remaining: self.remaining() }),
        }
    }

    fn u32s(&mut self, field: &'static str) -> Result<Vec<u32>, ProtocolError> {
        let count = self.u64(field)?;
        let count = self.checked_count(count, 4, field)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32(field)?);
        }
        Ok(out)
    }

    fn u64s(&mut self, field: &'static str) -> Result<Vec<u64>, ProtocolError> {
        let count = self.u64(field)?;
        let count = self.checked_count(count, 8, field)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u64(field)?);
        }
        Ok(out)
    }

    fn f64s(&mut self, field: &'static str) -> Result<Vec<f64>, ProtocolError> {
        Ok(self.u64s(field)?.into_iter().map(f64::from_bits).collect())
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.remaining() > 0 {
            return Err(ProtocolError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }
}

/// Decode any client → server frame body (query or mutation) — the server
/// reader's entry point.
pub fn decode_client_frame(body: &[u8]) -> Result<ClientFrame, ProtocolError> {
    match body.first() {
        Some(&KIND_MUTATE) => {
            let mut cursor = Cursor::new(body);
            let _ = cursor.u8("frame kind")?;
            let correlation = cursor.u32("correlation")?;
            let op = cursor.u8("mutation op")?;
            let u = cursor.u32("mutation u")?;
            let v = cursor.u32("mutation v")?;
            let w = cursor.u32("mutation w")?;
            cursor.finish()?;
            let mutation = match op {
                OP_INSERT => EdgeMutation::Insert { u, v, w },
                OP_DELETE => EdgeMutation::Delete { u, v },
                OP_UPDATE => EdgeMutation::UpdateWeight { u, v, w },
                other => return Err(ProtocolError::UnknownMutationOp(other)),
            };
            Ok(ClientFrame::Mutate(MutateRequest { correlation, mutation }))
        }
        _ => Ok(ClientFrame::Query(decode_request(body)?)),
    }
}

/// Decode a client → server *query* frame body. Strict: a mutate frame is an
/// [`ProtocolError::UnexpectedFrameKind`] here — callers that accept both
/// use [`decode_client_frame`].
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    let mut cursor = Cursor::new(body);
    match cursor.u8("frame kind")? {
        KIND_REQUEST => {}
        kind @ (KIND_RESULT | KIND_ERROR | KIND_RETRY_AFTER | KIND_MUTATE) => {
            return Err(ProtocolError::UnexpectedFrameKind {
                got: kind,
                expected: "query requests",
            })
        }
        other => return Err(ProtocolError::UnknownFrameKind(other)),
    }
    let correlation = cursor.u32("correlation")?;
    let kernel = cursor.str16("kernel name")?;
    let source = cursor.u32("source")?;
    let count = cursor.u16("param count")? as usize;
    let mut params = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name = cursor.str16("param name")?;
        let value = match cursor.u8("param tag")? {
            0 => ParamValue::Bool(cursor.u8("bool param")? != 0),
            1 => ParamValue::U64(cursor.u64("u64 param")?),
            2 => ParamValue::I64(cursor.u64("i64 param")? as i64),
            3 => ParamValue::F64(f64::from_bits(cursor.u64("f64 param")?)),
            4 => ParamValue::Str(cursor.str32("str param")?),
            other => return Err(ProtocolError::UnknownParamTag(other)),
        };
        params.push((name, value));
    }
    cursor.finish()?;
    Ok(Request { correlation, kernel, source, params })
}

/// Decode a server → client frame body.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    let mut cursor = Cursor::new(body);
    let kind = cursor.u8("frame kind")?;
    let response = match kind {
        KIND_RESULT => {
            let correlation = cursor.u32("correlation")?;
            let payload = match cursor.u8("payload tag")? {
                1 => WirePayload::U32s(cursor.u32s("u32 payload")?),
                2 => WirePayload::U64s(cursor.u64s("u64 payload")?),
                3 => WirePayload::F64s(cursor.f64s("f64 payload")?),
                4 => WirePayload::Ppr {
                    estimate: cursor.f64s("ppr estimates")?,
                    residual: cursor.f64s("ppr residuals")?,
                    pushes: cursor.u64("ppr pushes")?,
                },
                5 => WirePayload::Rw { visits: cursor.u64s("rw visits")? },
                6 => WirePayload::Version(cursor.u64("graph version")?),
                other => return Err(ProtocolError::UnknownPayloadTag(other)),
            };
            Response::Result { correlation, payload }
        }
        KIND_ERROR => Response::Error {
            correlation: cursor.u32("correlation")?,
            code: WireErrorCode::from_u8(cursor.u8("error code")?)?,
            message: cursor.str32("error message")?,
        },
        KIND_RETRY_AFTER => Response::RetryAfter {
            correlation: cursor.u32("correlation")?,
            retry_after_ms: cursor.u32("retry_after_ms")?,
            queue_depth: cursor.u32("queue depth")?,
            capacity: cursor.u32("queue capacity")?,
        },
        KIND_REQUEST | KIND_MUTATE => {
            return Err(ProtocolError::UnexpectedFrameKind { got: kind, expected: "responses" })
        }
        other => return Err(ProtocolError::UnknownFrameKind(other)),
    };
    cursor.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_every_param_type() {
        let request = Request::new(7, "ppr", 42)
            .param("epsilon", 1e-5)
            .param("cap", 10u64)
            .param("offset", -3i64)
            .param("exact", true)
            .param("label", "hot");
        let back = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(back, request);
        // And it deserializes straight into the in-process builder.
        let query = back.to_query();
        assert_eq!(query.kernel_name(), "ppr");
        assert_eq!(query.source_vertex(), Some(42));
        assert_eq!(query.params().get("epsilon"), Some(&ParamValue::F64(1e-5)));
        assert_eq!(query.params().get("label"), Some(&ParamValue::Str("hot".into())));
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Result { correlation: 1, payload: WirePayload::U32s(vec![0, 1, u32::MAX]) },
            Response::Result { correlation: 2, payload: WirePayload::U64s(vec![u64::MAX, 0]) },
            Response::Result { correlation: 3, payload: WirePayload::F64s(vec![0.5, f64::NAN]) },
            Response::Result {
                correlation: 4,
                payload: WirePayload::Ppr {
                    estimate: vec![0.25, 0.75],
                    residual: vec![0.0, 1e-9],
                    pushes: 99,
                },
            },
            Response::Result { correlation: 5, payload: WirePayload::Rw { visits: vec![3, 0, 7] } },
            Response::Error {
                correlation: 6,
                code: WireErrorCode::UnknownKernel,
                message: "no kernel \"nope\"".into(),
            },
            Response::RetryAfter {
                correlation: 7,
                retry_after_ms: 25,
                queue_depth: 128,
                capacity: 128,
            },
        ];
        for case in cases {
            let back = decode_response(&encode_response(&case)).unwrap();
            // NaN-carrying payloads compare by bits below; everything else
            // by value.
            match (&back, &case) {
                (
                    Response::Result { payload: WirePayload::F64s(a), .. },
                    Response::Result { payload: WirePayload::F64s(b), .. },
                ) => {
                    let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(a, b);
                }
                _ => assert_eq!(back, case),
            }
        }
    }

    #[test]
    fn mutate_frames_round_trip_and_stay_out_of_the_query_decoder() {
        let cases = [
            EdgeMutation::Insert { u: 3, v: 9, w: 17 },
            EdgeMutation::Delete { u: 1, v: 2 },
            EdgeMutation::UpdateWeight { u: 0, v: u32::MAX, w: 1 },
        ];
        for mutation in cases {
            let request = MutateRequest { correlation: 11, mutation };
            let body = encode_mutate(&request);
            assert_eq!(decode_client_frame(&body).unwrap(), ClientFrame::Mutate(request));
            // The strict query decoder refuses it with a typed error.
            assert!(matches!(
                decode_request(&body),
                Err(ProtocolError::UnexpectedFrameKind { got: 5, .. })
            ));
            // And it is not a response either.
            assert!(matches!(
                decode_response(&body),
                Err(ProtocolError::UnexpectedFrameKind { got: 5, .. })
            ));
        }
        // Query frames pass through decode_client_frame unchanged.
        let query = Request::new(4, "sssp", 2).param("x", 1u64);
        assert_eq!(
            decode_client_frame(&encode_request(&query)).unwrap(),
            ClientFrame::Query(query)
        );
    }

    #[test]
    fn version_payload_round_trips() {
        let ack = Response::Result { correlation: 9, payload: WirePayload::Version(42) };
        assert_eq!(decode_response(&encode_response(&ack)).unwrap(), ack);
    }

    #[test]
    fn bad_mutation_ops_and_truncated_mutates_are_typed_errors() {
        let mut body = encode_mutate(&MutateRequest {
            correlation: 5,
            mutation: EdgeMutation::Insert { u: 1, v: 2, w: 3 },
        });
        body[5] = 0x7F; // the op byte
        assert!(matches!(decode_client_frame(&body), Err(ProtocolError::UnknownMutationOp(0x7F))));
        let truncated = &body[..9];
        assert!(matches!(decode_client_frame(truncated), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn direction_mixups_are_typed_errors() {
        let request = encode_request(&Request::new(1, "sssp", 0));
        assert!(matches!(
            decode_response(&request),
            Err(ProtocolError::UnexpectedFrameKind { got: 1, .. })
        ));
        let response = encode_response(&Response::RetryAfter {
            correlation: 1,
            retry_after_ms: 1,
            queue_depth: 1,
            capacity: 1,
        });
        assert!(matches!(
            decode_request(&response),
            Err(ProtocolError::UnexpectedFrameKind { got: 4, .. })
        ));
    }

    #[test]
    fn hostile_element_counts_are_rejected_before_allocation() {
        // A result frame claiming u64::MAX elements in a tiny body.
        let mut body = vec![KIND_RESULT];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(2); // u64 payload
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&body),
            Err(ProtocolError::BadCount { count: u64::MAX, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request(&Request::new(1, "bfs", 5));
        body.push(0xAB);
        assert!(matches!(decode_request(&body), Err(ProtocolError::TrailingBytes { extra: 1 })));
    }

    #[test]
    fn empty_and_unknown_kinds_are_typed_errors() {
        assert!(matches!(decode_request(&[]), Err(ProtocolError::Truncated { .. })));
        assert!(matches!(decode_request(&[0xEE]), Err(ProtocolError::UnknownFrameKind(0xEE))));
        assert!(matches!(decode_response(&[0xEE]), Err(ProtocolError::UnknownFrameKind(0xEE))));
    }
}
