//! Per-connection plumbing: one reader thread + one writer thread, joined by
//! an outbox queue, multiplexing ticket resolutions back over the socket.
//!
//! The reader deserializes frames straight into [`Query`] builder calls and
//! submits them through the shared [`ServiceHandle`] — the same admission
//! control local callers face. Each admitted query's ticket pushes its
//! `(correlation, outcome)` onto the outbox the moment it is fulfilled
//! ([`Ticket::on_ready`]), so the writer answers **in completion order**,
//! not submission order: a pipelined connection gets cache hits back while
//! cold queries are still batching.
//!
//! Saturation ([`ServiceError::Saturated`]) is answered with a retry-after
//! frame and the connection stays open: backpressure sheds *queries*, never
//! clients. Decodable-but-broken frames get typed error frames; only a
//! vanished peer or transport failure ends the loops.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fg_service::{QueryResult, ServiceError};
use parking_lot::{Condvar, Mutex};

use crate::error::FrameReadError;
use crate::framing::{read_frame_hooked, write_frame};
use crate::protocol::{
    decode_client_frame, encode_response, ClientFrame, Response, WireErrorCode, WirePayload,
    CONNECTION_CORRELATION,
};
use crate::server::ServerCore;

/// Work queued for the writer thread.
enum Outgoing {
    /// A response built by the reader (errors, retry-afters, mutation acks).
    Ready(Response),
    /// An admitted query's outcome, pushed by its ticket when fulfilled.
    /// Encoding (which copies the whole state) is left to the writer.
    Resolved { correlation: u32, outcome: Result<Arc<QueryResult>, ServiceError> },
    /// The reader is done; hang up once every admitted query is answered.
    Finish,
}

/// Reader/tickets → writer handoff: a mutex-guarded queue plus a condvar the
/// writer sleeps on while the queue is empty.
struct Outbox {
    queue: Mutex<VecDeque<Outgoing>>,
    ready: Condvar,
}

impl Outbox {
    fn new() -> Self {
        Outbox { queue: Mutex::new(VecDeque::new()), ready: Condvar::new() }
    }

    fn push(&self, item: Outgoing) {
        self.queue.lock().push_back(item);
        self.ready.notify_one();
    }
}

/// Map a service failure to its wire code. `Saturated` is deliberately
/// absent — it travels as a retry-after frame, never as an error.
fn error_code(err: &ServiceError) -> WireErrorCode {
    match err {
        ServiceError::ShuttingDown => WireErrorCode::ShuttingDown,
        ServiceError::InvalidSource { .. } => WireErrorCode::InvalidSource,
        ServiceError::MissingSource { .. } => WireErrorCode::MissingSource,
        ServiceError::UnknownKernel { .. } => WireErrorCode::UnknownKernel,
        ServiceError::InvalidParams { .. } => WireErrorCode::InvalidParams,
        ServiceError::EngineFailure => WireErrorCode::EngineFailure,
        ServiceError::InvalidMutation { .. } => WireErrorCode::InvalidMutation,
        // Shouldn't surface from a resolved ticket; keep it typed anyway.
        ServiceError::Saturated { .. } => WireErrorCode::ShuttingDown,
    }
}

/// Clamp a `usize` counter into the `u32` a wire frame carries.
pub(crate) fn clamp_u32(value: usize) -> u32 {
    value.min(u32::MAX as usize) as u32
}

/// Drive one sniffed-as-binary connection to completion. Runs on the
/// connection's reader thread; spawns (and joins) the writer thread.
pub(crate) fn run_binary_connection(core: Arc<ServerCore>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };

    let outbox = Arc::new(Outbox::new());
    // Queries admitted but not yet answered on this connection; incremented
    // by the reader on admission, decremented by the writer as it answers.
    let inflight = Arc::new(AtomicUsize::new(0));
    let writer_core = Arc::clone(&core);
    let writer_outbox = Arc::clone(&outbox);
    let writer_inflight = Arc::clone(&inflight);
    let writer = std::thread::Builder::new()
        .name("fg-server-conn-writer".into())
        .spawn(move || writer_loop(writer_core, writer_outbox, writer_inflight, write_half))
        .expect("spawn connection writer");

    reader_loop(&core, &outbox, &inflight, &stream);
    outbox.push(Outgoing::Finish);
    let _ = writer.join();
    let _ = stream.shutdown(Shutdown::Both);
}

fn reader_loop(
    core: &ServerCore,
    outbox: &Arc<Outbox>,
    inflight: &AtomicUsize,
    stream: &TcpStream,
) {
    let max_len = core.config.max_frame_len;
    let idle_timeout = core.config.idle_timeout;
    let read_deadline = core.config.read_deadline;
    let mut reader = BufReader::new(stream);
    loop {
        // Two-phase timeout per frame: wait at the boundary under the
        // generous idle budget, then — the moment the first header byte
        // lands — tighten to the read deadline so a peer that *started* a
        // frame cannot drip it out one byte at a time while parking this
        // thread (the slow-loris shape). `BufReader` may satisfy reads from
        // its buffer without touching the socket; the timeouts only matter
        // when the socket actually blocks, so that is harmless.
        let _ = stream.set_read_timeout(idle_timeout);
        let body = match read_frame_hooked(&mut reader, max_len, || {
            let _ = stream.set_read_timeout(read_deadline);
        }) {
            Ok(body) => body,
            Err(FrameReadError::TimedOut { mid_frame }) => {
                // Reap: a mid-frame stall can never resynchronise, and an
                // idle peer has out-stayed its budget. In-flight tickets
                // still drain through the writer before the socket closes.
                core.stats.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                if mid_frame {
                    core.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Err(FrameReadError::Oversized { len, max }) => {
                // Body already discarded; the stream is still framed.
                core.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                outbox.push(Outgoing::Ready(Response::Error {
                    correlation: CONNECTION_CORRELATION,
                    code: WireErrorCode::Protocol,
                    message: format!("frame of {len} bytes exceeds the {max}-byte cap"),
                }));
                continue;
            }
            // Clean close, mid-frame close, or transport failure: no further
            // requests can arrive, so stop reading. In-flight tickets still
            // drain through the writer.
            Err(_) => return,
        };
        core.stats.frames_in.fetch_add(1, Ordering::Relaxed);
        let frame = match decode_client_frame(&body) {
            Ok(frame) => frame,
            Err(err) => {
                core.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                outbox.push(Outgoing::Ready(Response::Error {
                    correlation: CONNECTION_CORRELATION,
                    code: WireErrorCode::Protocol,
                    message: err.to_string(),
                }));
                continue;
            }
        };
        let correlation = match &frame {
            ClientFrame::Query(request) => request.correlation,
            ClientFrame::Mutate(request) => request.correlation,
        };
        if correlation == CONNECTION_CORRELATION {
            core.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            outbox.push(Outgoing::Ready(Response::Error {
                correlation: CONNECTION_CORRELATION,
                code: WireErrorCode::Protocol,
                message: "correlation 0 is reserved for connection-level errors".into(),
            }));
            continue;
        }
        let request = match frame {
            // Mutations are logged synchronously (no ticket, no engine run);
            // the acknowledgement carries the target graph version.
            ClientFrame::Mutate(request) => {
                let response = match core.handle.mutate(request.mutation) {
                    Ok(version) => {
                        Response::Result { correlation, payload: WirePayload::Version(version) }
                    }
                    Err(err) => Response::Error {
                        correlation,
                        code: error_code(&err),
                        message: err.to_string(),
                    },
                };
                outbox.push(Outgoing::Ready(response));
                continue;
            }
            ClientFrame::Query(request) => request,
        };
        // Bound this connection's admitted-but-unanswered queries: one
        // pipelining peer must not park the whole service's queue capacity
        // behind its own socket. Over-limit requests are shed with the same
        // retry-after flow control as service saturation.
        let observed = inflight.load(Ordering::Acquire);
        if observed >= core.config.max_inflight_per_conn {
            core.stats.retry_afters.fetch_add(1, Ordering::Relaxed);
            outbox.push(Outgoing::Ready(Response::RetryAfter {
                correlation,
                retry_after_ms: core.config.retry_after_ms,
                queue_depth: clamp_u32(observed),
                capacity: clamp_u32(core.config.max_inflight_per_conn),
            }));
            continue;
        }
        match core.handle.submit_query(request.to_query()) {
            Ok(ticket) => {
                inflight.fetch_add(1, Ordering::AcqRel);
                // Runs here for a cache hit, else on the batcher thread
                // under its cache lock: push and return, nothing more.
                let outbox = Arc::clone(outbox);
                ticket.on_ready(move |outcome| {
                    outbox.push(Outgoing::Resolved { correlation, outcome })
                });
            }
            Err(ServiceError::Saturated { queue_depth, capacity }) => {
                core.stats.retry_afters.fetch_add(1, Ordering::Relaxed);
                outbox.push(Outgoing::Ready(Response::RetryAfter {
                    correlation,
                    retry_after_ms: core.config.retry_after_ms,
                    queue_depth: clamp_u32(queue_depth),
                    capacity: clamp_u32(capacity),
                }));
            }
            Err(err) => {
                outbox.push(Outgoing::Ready(Response::Error {
                    correlation,
                    code: error_code(&err),
                    message: err.to_string(),
                }));
            }
        }
    }
}

fn writer_loop(
    core: Arc<ServerCore>,
    outbox: Arc<Outbox>,
    inflight_count: Arc<AtomicUsize>,
    stream: TcpStream,
) {
    let mut writer = BufWriter::new(stream);
    let mut finishing = false;

    loop {
        // Pull everything currently queued (without holding the lock while
        // encoding or writing).
        let drained: Vec<Outgoing> = {
            let mut queue = outbox.queue.lock();
            while queue.is_empty() {
                outbox.ready.wait(&mut queue);
            }
            queue.drain(..).collect()
        };

        for item in drained {
            let response = match item {
                Outgoing::Ready(response) => response,
                Outgoing::Resolved { correlation, outcome } => {
                    inflight_count.fetch_sub(1, Ordering::AcqRel);
                    resolve(&core, correlation, outcome)
                }
                Outgoing::Finish => {
                    finishing = true;
                    continue;
                }
            };
            if !emit(&core, &mut writer, &response) {
                return;
            }
        }
        if writer.flush().is_err() {
            return;
        }

        // Every admission was counted before its ticket could push, so a
        // zero count after `Finish` means everything admitted is answered.
        if finishing && inflight_count.load(Ordering::Acquire) == 0 {
            return;
        }
    }
}

/// Turn a resolved ticket outcome into its wire frame.
fn resolve(
    core: &ServerCore,
    correlation: u32,
    outcome: Result<Arc<QueryResult>, ServiceError>,
) -> Response {
    match outcome {
        Ok(result) => match WirePayload::from_result(&result) {
            Some(payload) => Response::Result { correlation, payload },
            None => Response::Error {
                correlation,
                code: WireErrorCode::UnsupportedResult,
                message: format!(
                    "kernel {:?} produced a state type with no wire encoding",
                    result.kernel_name()
                ),
            },
        },
        Err(ServiceError::Saturated { queue_depth, capacity }) => Response::RetryAfter {
            correlation,
            retry_after_ms: core.config.retry_after_ms,
            queue_depth: clamp_u32(queue_depth),
            capacity: clamp_u32(capacity),
        },
        Err(err) => {
            Response::Error { correlation, code: error_code(&err), message: err.to_string() }
        }
    }
}

/// Encode and write one frame; `false` means the socket is gone.
fn emit(core: &ServerCore, writer: &mut impl Write, response: &Response) -> bool {
    core.stats.frames_out.fetch_add(1, Ordering::Relaxed);
    write_frame(writer, &encode_response(response)).is_ok()
}
