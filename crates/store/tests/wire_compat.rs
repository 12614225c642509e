//! Wire-protocol compatibility: the request-id trailer is **strictly
//! additive**, and the retired introspection opcodes fail closed. Frames
//! produced by the pre-telemetry protocol — pinned here as raw bytes, not
//! via today's encoder — must still decode and get served, a
//! pre-telemetry *reader* must be able to consume today's responses by
//! ignoring the trailer, and a peer still sending STATS (2) or HEALTH (5)
//! gets an error frame and a closed connection without disturbing anyone
//! else.

use cayman::{Framework, SelectOptions};
use cayman_store::server::{serve, Endpoint, ServerOptions};
use cayman_store::wire::{self, Request, Response};
use cayman_store::{fronts_bits_equal, Client};

/// A pre-telemetry request payload, byte for byte: `version=1, opcode`
/// (plus a length-prefixed module text for SELECT). The request format is
/// unchanged by the telemetry work, which this test pins.
fn old_request_frame(opcode: u8, body: Option<&str>) -> Vec<u8> {
    let mut payload = vec![1u8, opcode];
    if let Some(text) = body {
        payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
    }
    payload
}

#[test]
fn old_request_frames_still_decode() {
    assert_eq!(
        wire::decode_request(&old_request_frame(3, None)).unwrap(),
        Request::Ping
    );
    assert_eq!(
        wire::decode_request(&old_request_frame(4, None)).unwrap(),
        Request::Shutdown
    );
    assert_eq!(
        wire::decode_request(&old_request_frame(1, Some("func @f() {}"))).unwrap(),
        Request::Select {
            module_text: "func @f() {}".into(),
        }
    );
}

#[test]
fn old_clients_are_served_end_to_end() {
    let sock = std::env::temp_dir().join(format!("cayman-wirecompat-{}.sock", std::process::id()));
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("server starts");

    // speak the old protocol by hand: raw frames, no Client
    let mut stream = server.endpoint().connect().expect("connects");
    wire::write_frame(&mut stream, &old_request_frame(3, None)).expect("writes PING");
    let payload = wire::read_frame(&mut stream)
        .expect("reads")
        .expect("server replied");

    // an old reader parses the body and ignores whatever follows — which
    // is exactly what decode_response always did; emulate it by checking
    // the raw body bytes directly: version, STATUS_OK, BODY_PONG, then
    // the (to an old reader, opaque) 8-byte trailer
    assert_eq!(&payload[..3], &[1u8, 0, 3], "old reader sees a plain PONG");
    assert_eq!(payload.len(), 3 + 8, "new frames only append the trailer");

    // today's decoder on the same bytes reads the id
    let decoded = wire::decode_response(&payload).expect("decodes");
    assert!(matches!(decoded.response, Response::Pong));
    assert_eq!(decoded.request_id, 1, "first request gets id 1");

    wire::write_frame(&mut stream, &old_request_frame(4, None)).expect("writes SHUTDOWN");
    let payload = wire::read_frame(&mut stream)
        .expect("reads")
        .expect("server acknowledged");
    assert!(matches!(
        wire::decode_response(&payload).expect("decodes").response,
        Response::ShuttingDown
    ));
    server.wait();
}

#[test]
fn retired_opcodes_fail_closed() {
    let sock = std::env::temp_dir().join(format!("cayman-retired-{}.sock", std::process::id()));
    let server = serve(Endpoint::Unix(sock), ServerOptions::default()).expect("server starts");

    for (op, name) in [(2u8, "STATS"), (5, "HEALTH")] {
        let mut stream = server.endpoint().connect().expect("connects");
        wire::write_frame(&mut stream, &old_request_frame(op, None)).expect("writes");
        let payload = wire::read_frame(&mut stream)
            .expect("reads")
            .expect("server replied before closing");
        match wire::decode_response(&payload).expect("decodes").response {
            Response::Error(msg) => assert!(
                msg.contains("unknown opcode"),
                "{name}: unexpected error text {msg:?}"
            ),
            other => panic!("{name}: expected an error frame, got {other:?}"),
        }
        assert!(
            matches!(wire::read_frame(&mut stream), Ok(None)),
            "{name}: the server closes the connection after the error"
        );
    }

    // the server keeps serving other clients, bit-identically
    let corpus = cayman::workloads::corpus::corpus();
    let w = corpus.first().expect("corpus is non-empty");
    let text = w.module.to_text();
    let reference = Framework::from_text(&text)
        .expect("corpus kernel analyses")
        .select(&SelectOptions::default());
    let mut client = Client::connect(server.endpoint()).expect("second client connects");
    let reply = client.select_text(&text).expect("select");
    assert!(
        fronts_bits_equal(&reply.front, &reference.pareto),
        "{}: front diverges after a retired opcode",
        w.name
    );

    client.shutdown_server().expect("shuts down");
    server.wait();
}
