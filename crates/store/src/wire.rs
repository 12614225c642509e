//! Length-prefixed framing and the request/response wire protocol spoken
//! between [`crate::server`] and [`crate::client`].
//!
//! ## Framing
//!
//! Every message is one frame: a `u32` little-endian payload length, then
//! the payload. Frames above [`MAX_FRAME`] bytes are rejected (a corrupt or
//! hostile peer must not drive allocations). A clean EOF *between* frames
//! is a normal connection close.
//!
//! ## Payloads
//!
//! Requests open with `version u8, opcode u8`:
//!
//! | opcode | body |
//! |---|---|
//! | `1` SELECT   | module text (length-prefixed UTF-8, the `ir::parse` surface) |
//! | `3` PING     | empty |
//! | `4` SHUTDOWN | empty |
//! | `6` METRICS  | empty |
//!
//! Opcodes `2` (STATS) and `5` (HEALTH) are retired: introspection is
//! METRICS, liveness is PING. A retired or unknown opcode gets an
//! `unknown opcode` error frame and the connection closes.
//!
//! Responses open with `version u8, status u8` (`0` ok / `1` error). An
//! error body is a length-prefixed message. A SELECT ok body carries
//! `framework_reused u8`, per-request counters (`model_evals`,
//! `cache_hits`, `cache_misses`, `disk_hits` as `u64`s) and the encoded
//! Pareto front ([`crate::codec::encode_front`] — bit-exact `f64`s). A
//! METRICS ok body carries the Prometheus-style text exposition as a
//! length-prefixed UTF-8 blob.
//!
//! ## Request ids
//!
//! Every response frame ends with a trailing `u64`: the **server-assigned
//! request id**, also tagged on the server's spans and slow-request log so
//! a client-side stall can be correlated with the server-side trace. The
//! trailer is the only place the id lives: no reply body carries it, and a
//! decoder hands it back beside the body in [`DecodedResponse`].
//! Decoders that predate the trailer ignore trailing bytes, and a missing
//! trailer decodes as id `0` (pinned by `tests/wire_compat.rs`).

use crate::codec::{self, Dec, DecodeError, Enc, VERSION};
use cayman_select::Solution;
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on a frame payload (64 MiB — far above any real module or
/// front, far below an allocation bomb).
pub const MAX_FRAME: u32 = 64 << 20;

/// Most bytes a frame read grows its buffer by before that many bytes have
/// arrived, so an announced length costs memory only as the payload comes.
const READ_CHUNK: usize = 64 << 10;

/// Request opcodes.
pub mod opcode {
    /// Analyse + select a textual IR module.
    pub const SELECT: u8 = 1;
    /// Liveness probe.
    pub const PING: u8 = 3;
    /// Orderly server shutdown.
    pub const SHUTDOWN: u8 = 4;
    /// Prometheus-style metrics exposition.
    pub const METRICS: u8 = 6;
}

/// Anything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// Payload failed to decode.
    Decode(DecodeError),
    /// Peer announced a frame above [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// Structurally valid bytes that violate the protocol.
    Protocol(&'static str),
    /// The server answered with an error message.
    Server(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Decode(e) => write!(f, "decode: {e}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
            WireError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF before any length byte — the
/// peer closed between frames.
///
/// # Errors
///
/// Fails on socket errors, mid-frame EOF (`UnexpectedEof`), or an oversized
/// announcement.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        payload.resize(start + (len - start).min(READ_CHUNK), 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok(Some(payload))
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Analyse + select this textual IR module.
    Select {
        /// The module in the `ir::parse` surface syntax.
        module_text: String,
    },
    /// Liveness probe.
    Ping,
    /// Orderly shutdown.
    Shutdown,
    /// Metrics exposition.
    Metrics,
}

/// Per-SELECT reply: the front plus enough counters to tell a cold request
/// from a memory-warm or disk-warm one.
#[derive(Debug, Clone)]
pub struct SelectReply {
    /// The selection Pareto front, bit-exact.
    pub front: Vec<Solution>,
    /// Whether the server reused an already-analysed `Framework` for this
    /// module text (memory-warm).
    pub framework_reused: bool,
    /// `accel(v, R)` model evaluations this request ran (0 ⇒ fully warm).
    pub model_evals: u64,
    /// Design-cache hits during this request's selection.
    pub cache_hits: u64,
    /// Design-cache misses (model invocations) during this request's
    /// selection.
    pub cache_misses: u64,
    /// The part of `cache_hits` the disk store answered during this
    /// request (its own `SelectStats::disk_hits`).
    pub disk_hits: u64,
}

/// METRICS reply: the Prometheus-style text exposition (see
/// `cayman_obs::registry::MetricsSnapshot::to_prometheus`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReply {
    /// The exposition text.
    pub text: String,
}

/// One server response.
#[derive(Debug, Clone)]
pub enum Response {
    /// SELECT succeeded.
    Select(SelectReply),
    /// PING succeeded.
    Pong,
    /// SHUTDOWN acknowledged (the server exits after sending this).
    ShuttingDown,
    /// METRICS succeeded.
    Metrics(MetricsReply),
    /// The request failed (parse error, analysis error, bad opcode…).
    Error(String),
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

// ok-body tags, so responses are self-describing independent of request
// pipelining
const BODY_SELECT: u8 = 1;
const BODY_PONG: u8 = 3;
const BODY_SHUTDOWN: u8 = 4;
const BODY_METRICS: u8 = 6;

/// Serializes a request payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(VERSION);
    match req {
        Request::Select { module_text } => {
            e.u8(opcode::SELECT);
            e.blob(module_text.as_bytes());
        }
        Request::Ping => e.u8(opcode::PING),
        Request::Shutdown => e.u8(opcode::SHUTDOWN),
        Request::Metrics => e.u8(opcode::METRICS),
    }
    e.finish()
}

/// Parses a request payload.
///
/// # Errors
///
/// Fails on version skew, unknown opcodes, or malformed bodies.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec::new(payload);
    let version = d.u8()?;
    if version != VERSION {
        return Err(WireError::Protocol("request version mismatch"));
    }
    let req = match d.u8()? {
        opcode::SELECT => Request::Select {
            module_text: String::from_utf8(d.blob()?.to_vec())
                .map_err(|_| WireError::Protocol("module text is not UTF-8"))?,
        },
        opcode::PING => Request::Ping,
        opcode::SHUTDOWN => Request::Shutdown,
        opcode::METRICS => Request::Metrics,
        _ => return Err(WireError::Protocol("unknown opcode")),
    };
    if d.remaining() != 0 {
        return Err(WireError::Protocol("trailing bytes after request"));
    }
    Ok(req)
}

/// Serializes a response payload, appending `request_id` as the frame
/// trailer.
pub fn encode_response(resp: &Response, request_id: u64) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(VERSION);
    match resp {
        Response::Error(msg) => {
            e.u8(STATUS_ERR);
            e.blob(msg.as_bytes());
        }
        Response::Select(r) => {
            e.u8(STATUS_OK);
            e.u8(BODY_SELECT);
            e.u8(u8::from(r.framework_reused));
            e.u64(r.model_evals);
            e.u64(r.cache_hits);
            e.u64(r.cache_misses);
            e.u64(r.disk_hits);
            codec::encode_front(&mut e, &r.front);
        }
        Response::Pong => {
            e.u8(STATUS_OK);
            e.u8(BODY_PONG);
        }
        Response::ShuttingDown => {
            e.u8(STATUS_OK);
            e.u8(BODY_SHUTDOWN);
        }
        Response::Metrics(r) => {
            e.u8(STATUS_OK);
            e.u8(BODY_METRICS);
            e.blob(r.text.as_bytes());
        }
    }
    e.u64(request_id);
    e.finish()
}

/// A decoded response plus its frame-trailer request id (`0` when the
/// sender predates request ids — the trailer is strictly additive).
#[derive(Debug, Clone)]
pub struct DecodedResponse {
    /// The response body.
    pub response: Response,
    /// Server-assigned request id.
    pub request_id: u64,
}

/// Parses a response payload.
///
/// # Errors
///
/// Fails on version skew or malformed bodies. A server-reported error
/// becomes [`WireError::Server`] at the call site, not here — it decodes
/// into [`Response::Error`].
pub fn decode_response(payload: &[u8]) -> Result<DecodedResponse, WireError> {
    let mut d = Dec::new(payload);
    let version = d.u8()?;
    if version != VERSION {
        return Err(WireError::Protocol("response version mismatch"));
    }
    let response = match d.u8()? {
        STATUS_ERR => Response::Error(String::from_utf8_lossy(d.blob()?).into_owned()),
        STATUS_OK => match d.u8()? {
            BODY_SELECT => {
                let framework_reused = d.u8()? != 0;
                let model_evals = d.u64()?;
                let cache_hits = d.u64()?;
                let cache_misses = d.u64()?;
                let disk_hits = d.u64()?;
                let front = codec::decode_front(&mut d)?;
                Response::Select(SelectReply {
                    front,
                    framework_reused,
                    model_evals,
                    cache_hits,
                    cache_misses,
                    disk_hits,
                })
            }
            BODY_PONG => Response::Pong,
            BODY_SHUTDOWN => Response::ShuttingDown,
            BODY_METRICS => Response::Metrics(MetricsReply {
                text: String::from_utf8(d.blob()?.to_vec())
                    .map_err(|_| WireError::Protocol("metrics text is not UTF-8"))?,
            }),
            _ => return Err(WireError::Protocol("unknown response body tag")),
        },
        _ => return Err(WireError::Protocol("unknown response status")),
    };
    // the additive request-id trailer; absent in frames from pre-telemetry
    // senders, which decode as id 0
    let request_id = if d.remaining() >= 8 { d.u64()? } else { 0 };
    Ok(DecodedResponse {
        response,
        request_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncated-frame").unwrap();
        buf.truncate(7);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn announced_length_is_not_allocated_before_the_bytes_arrive() {
        /// Announces a `MAX_FRAME` payload, delivers a few bytes, then hits
        /// EOF; records the largest buffer any `read` call was handed.
        struct Liar {
            bytes: Vec<u8>,
            largest_read: usize,
        }
        impl Read for Liar {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest_read = self.largest_read.max(buf.len());
                let n = buf.len().min(self.bytes.len());
                buf[..n].copy_from_slice(&self.bytes[..n]);
                self.bytes.drain(..n);
                Ok(n)
            }
        }
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"only a few bytes");
        let mut r = Liar {
            bytes,
            largest_read: 0,
        };
        match read_frame(&mut r) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a short-frame error, got {other:?}"),
        }
        assert!(
            r.largest_read <= 1 << 20,
            "a read was handed a {} byte buffer",
            r.largest_read
        );
    }

    #[test]
    fn requests_roundtrip() {
        for req in [
            Request::Select {
                module_text: "func @f() { ... }".into(),
            },
            Request::Ping,
            Request::Shutdown,
            Request::Metrics,
        ] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let reply = Response::Select(SelectReply {
            front: vec![Solution::default()],
            framework_reused: true,
            model_evals: 7,
            cache_hits: 9,
            cache_misses: 3,
            disk_hits: 2,
        });
        let decoded = decode_response(&encode_response(&reply, 41)).unwrap();
        assert_eq!(decoded.request_id, 41);
        match decoded.response {
            Response::Select(r) => {
                assert!(r.framework_reused);
                assert_eq!((r.model_evals, r.cache_hits, r.cache_misses), (7, 9, 3));
                assert_eq!(r.disk_hits, 2);
                assert_eq!(r.front.len(), 1);
            }
            other => panic!("wrong body: {other:?}"),
        }

        let metrics = Response::Metrics(MetricsReply {
            text: "# TYPE cayman_x counter\ncayman_x 1\n".into(),
        });
        let decoded = decode_response(&encode_response(&metrics, 9)).unwrap();
        assert_eq!(decoded.request_id, 9);
        match decoded.response {
            Response::Metrics(r) => assert!(r.text.contains("cayman_x 1")),
            other => panic!("wrong body: {other:?}"),
        }

        match decode_response(&encode_response(&Response::Error("boom".into()), 3))
            .unwrap()
            .response
        {
            Response::Error(msg) => assert_eq!(msg, "boom"),
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn responses_without_the_id_trailer_decode_as_id_zero() {
        // a pre-telemetry PONG frame: version, status, body tag — no trailer
        let mut e = Enc::new();
        e.u8(VERSION);
        e.u8(STATUS_OK);
        e.u8(BODY_PONG);
        let decoded = decode_response(&e.finish()).unwrap();
        assert!(matches!(decoded.response, Response::Pong));
        assert_eq!(decoded.request_id, 0, "missing trailer reads as id 0");
    }

    #[test]
    fn unknown_opcode_is_a_protocol_error() {
        // 2 and 5 were STATS and HEALTH
        for op in [2, 5, 99] {
            assert!(matches!(
                decode_request(&[VERSION, op]),
                Err(WireError::Protocol("unknown opcode"))
            ));
        }
    }
}
