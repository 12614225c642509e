//! A minimal blocking client for the `caymand` wire protocol.

use crate::server::{Endpoint, Stream};
use crate::wire::{self, MetricsReply, Request, Response, SelectReply, WireError};
use std::io;

/// One connection to a running server. Requests are serial per client;
/// open more clients for concurrency.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    last_request_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: endpoint.connect()?,
            last_request_id: 0,
        })
    }

    /// The server-assigned request id of the most recent reply (0 before
    /// any round-trip, or when talking to a pre-telemetry server). This is
    /// the id the server's slow-request log and request span tree use, so
    /// a client-side observation can be joined with the server's.
    pub fn last_request_id(&self) -> u64 {
        self.last_request_id
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, WireError> {
        wire::write_frame(&mut self.stream, &wire::encode_request(req))?;
        let payload = wire::read_frame(&mut self.stream)?
            .ok_or(WireError::Protocol("server closed before replying"))?;
        let decoded = wire::decode_response(&payload)?;
        self.last_request_id = decoded.request_id;
        Ok(decoded.response)
    }

    /// Submits a textual IR module for analyse + select; returns the
    /// bit-exact Pareto front plus warm/cold counters.
    ///
    /// # Errors
    ///
    /// Fails on wire errors or a server-side parse/analysis error.
    pub fn select_text(&mut self, module_text: &str) -> Result<SelectReply, WireError> {
        match self.roundtrip(&Request::Select {
            module_text: module_text.to_string(),
        })? {
            Response::Select(reply) => Ok(reply),
            Response::Error(msg) => Err(WireError::Server(msg)),
            _ => Err(WireError::Protocol("unexpected response to SELECT")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails on wire errors.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(msg) => Err(WireError::Server(msg)),
            _ => Err(WireError::Protocol("unexpected response to PING")),
        }
    }

    /// Fetches the server's Prometheus-style metrics exposition.
    ///
    /// # Errors
    ///
    /// Fails on wire errors.
    pub fn metrics(&mut self) -> Result<MetricsReply, WireError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(reply) => Ok(reply),
            Response::Error(msg) => Err(WireError::Server(msg)),
            _ => Err(WireError::Protocol("unexpected response to METRICS")),
        }
    }

    /// Asks the server to shut down; returns once it acknowledges.
    ///
    /// # Errors
    ///
    /// Fails on wire errors.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            Response::Error(msg) => Err(WireError::Server(msg)),
            _ => Err(WireError::Protocol("unexpected response to SHUTDOWN")),
        }
    }
}
