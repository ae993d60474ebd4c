//! # fg-server — a network front door for ForkGraph-rs
//!
//! Everything below this crate is in-process: the engine forks queries, the
//! service batches them, the registry resolves kernels. This crate puts a
//! socket in front of it all — a threaded TCP server speaking a hand-rolled,
//! length-prefixed binary protocol whose frames deserialize straight into
//! [`fg_service::Query`] builder calls, plus a minimal HTTP/1.1 GET surface
//! (on the *same* listener, dialect-sniffed per connection) serving
//! `/metrics`, `/healthz`, and `/trace`.
//!
//! Design rules, in order:
//!
//! 1. **The wire adds no semantics.** A frame is a `Query`; the response is
//!    that query's result, error, or a retry-after. Admission control,
//!    caching, batching, and kernel resolution all happen in `fg-service`,
//!    identically for local and remote callers.
//! 2. **Backpressure sheds queries, not clients.** A saturated service
//!    answers with a retry-after frame carrying the observed queue depth;
//!    the connection survives.
//! 3. **Garbage costs one error, not the connection.** Length-prefixed
//!    framing keeps the stream self-synchronising: malformed bodies and
//!    oversized frames get typed error frames and the reader stays in sync.
//! 4. **Shutdown answers everything.** Draining stops admission first, then
//!    every already-admitted correlation ID is resolved or rejected before
//!    its socket closes.
//!
//! ```no_run
//! use fg_server::{ForkGraphServer, Request, Response, ServerConfig, WireClient, WirePayload};
//! # fn demo(service: fg_service::ForkGraphService) -> Result<(), Box<dyn std::error::Error>> {
//! let server = ForkGraphServer::start(service, ServerConfig::default())?;
//! let mut client = WireClient::connect(server.local_addr())?;
//! let response = client.call(&Request::new(1, "sssp", 0), |_| {})?;
//! if let Response::Result { payload: WirePayload::U64s(dist), .. } = response {
//!     assert_eq!(dist[0], 0);
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conn;
mod http;
mod server;

pub mod error;
pub mod framing;
pub mod protocol;

pub use client::WireClient;
pub use error::{ClientError, FrameReadError, ProtocolError};
pub use fg_service::EdgeMutation;
pub use protocol::{
    ClientFrame, MutateRequest, Request, Response, WireErrorCode, WirePayload,
    CONNECTION_CORRELATION, MAGIC,
};
pub use server::{ForkGraphServer, ServerConfig};
