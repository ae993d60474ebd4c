//! A blocking wire client: the reference implementation of the protocol's
//! peer side, used by the examples, the acceptance tests, and `fgbench`'s
//! serving workloads.
//!
//! The client supports **pipelining**: [`send`](WireClient::send) many
//! requests (each under its own correlation ID), then [`recv`](WireClient::recv)
//! responses as the server finishes them — possibly out of submission order.
//! [`call`](WireClient::call) wraps the one-at-a-time case.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use fg_service::EdgeMutation;

use crate::error::ClientError;
use crate::framing::{read_frame, write_frame, MAX_FRAME_LEN};
use crate::protocol::{
    decode_response, encode_mutate, encode_request, MutateRequest, Request, Response, MAGIC,
};

/// A blocking connection to a [`ForkGraphServer`](crate::ForkGraphServer).
pub struct WireClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_correlation: u32,
    max_frame_len: usize,
}

impl WireClient {
    /// Connect and announce the binary dialect (the [`MAGIC`] bytes).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let mut writer = BufWriter::new(stream);
        writer.write_all(&MAGIC)?;
        Ok(WireClient {
            reader: BufReader::new(read_half),
            writer,
            next_correlation: 1,
            max_frame_len: MAX_FRAME_LEN,
        })
    }

    /// The next correlation ID [`send`](Self::send) will assign.
    pub fn peek_correlation(&self) -> u32 {
        self.next_correlation
    }

    /// Queue `kernel(source)` with no parameters; returns the correlation ID
    /// to match the response against. Call [`flush`](Self::flush) before
    /// blocking on [`recv`](Self::recv).
    pub fn send(&mut self, kernel: &str, source: u32) -> Result<u32, ClientError> {
        let correlation = self.next_correlation;
        let request = Request::new(correlation, kernel, source);
        self.send_request(&request)?;
        Ok(correlation)
    }

    /// Queue a fully built request (caller picks the correlation ID; `0` is
    /// reserved and will be rejected by the server).
    pub fn send_request(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &encode_request(request))?;
        // Client-assigned IDs may race ahead of ours; stay strictly above
        // both so `send` never reuses a live correlation.
        self.next_correlation =
            self.next_correlation.max(request.correlation).wrapping_add(1).max(1);
        Ok(())
    }

    /// Queue one edge mutation; returns the correlation ID whose
    /// acknowledgement (a [`WirePayload::Version`] result frame, or a typed
    /// error) to match against. Call [`flush`](Self::flush) before blocking
    /// on [`recv`](Self::recv).
    ///
    /// [`WirePayload::Version`]: crate::protocol::WirePayload::Version
    pub fn send_mutation(&mut self, mutation: EdgeMutation) -> Result<u32, ClientError> {
        let correlation = self.next_correlation;
        self.send_mutate_request(&MutateRequest { correlation, mutation })?;
        Ok(correlation)
    }

    /// Queue a fully built mutate frame (caller picks the correlation ID).
    pub fn send_mutate_request(&mut self, request: &MutateRequest) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &encode_mutate(request))?;
        self.next_correlation =
            self.next_correlation.max(request.correlation).wrapping_add(1).max(1);
        Ok(())
    }

    /// One mutation round trip: send, flush, and wait for the
    /// acknowledgement, surfacing out-of-order responses to earlier
    /// pipelined requests through `stray`.
    pub fn mutate(
        &mut self,
        mutation: EdgeMutation,
        mut stray: impl FnMut(Response),
    ) -> Result<Response, ClientError> {
        let correlation = self.send_mutation(mutation)?;
        self.flush()?;
        loop {
            let response = self.recv()?;
            if response.correlation() == correlation {
                return Ok(response);
            }
            stray(response);
        }
    }

    /// Push all queued frames onto the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Block for the next response frame (any correlation).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let body = read_frame(&mut self.reader, self.max_frame_len)?;
        Ok(decode_response(&body)?)
    }

    /// One round trip: send, flush, and wait for *this* request's response,
    /// surfacing any out-of-order responses to earlier pipelined requests
    /// through `stray`.
    pub fn call(
        &mut self,
        request: &Request,
        mut stray: impl FnMut(Response),
    ) -> Result<Response, ClientError> {
        self.send_request(request)?;
        self.flush()?;
        loop {
            let response = self.recv()?;
            if response.correlation() == request.correlation {
                return Ok(response);
            }
            stray(response);
        }
    }

    /// Send raw bytes as one frame — for tests that need to speak garbage.
    pub fn send_raw_frame(&mut self, body: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.writer, body)?;
        Ok(())
    }
}
