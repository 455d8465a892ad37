//! One rule for over-long request lines on both front ends: a line
//! longer than 16 MiB closes its connection without a reply, and nothing
//! after it on that connection is parsed as a new request.
//!
//! The probe is 16 MiB of spaces (exactly the cap, no newline) followed
//! by `{"id":7,"kind":"metrics"}` and a newline: one line 25 bytes over
//! the cap. A reader that capped each *read* at 16 MiB instead of each
//! line would see a blank line, skip it, and answer request 7.

use ssim_serve::{Client, Gateway, GatewayConfig, Request, Server, ServerConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[path = "../../../tests/util/mod.rs"]
mod util;

const CAP: usize = 16 << 20;

/// Sends the over-long line and requires the peer to close the
/// connection without writing a line back.
fn assert_closed_without_reply(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(util::timeout_ms())))
        .expect("set read timeout");
    let mut line = vec![b' '; CAP];
    line.extend_from_slice(b"{\"id\":7,\"kind\":\"metrics\"}\n");
    // The peer may close while the line is still going out; what counts
    // is what comes back.
    let _ = stream.write_all(&line);
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&buf[..n]);
                assert!(
                    !reply.contains(&b'\n'),
                    "{addr} answered an over-long line: {}",
                    String::from_utf8_lossy(&reply)
                );
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                break
            }
            Err(e) => panic!("{addr} kept the connection open: {e}"),
        }
    }
    assert!(reply.is_empty(), "{addr} wrote {reply:?} before closing");
}

fn start_server() -> Server {
    std::env::remove_var("SSIM_FAULT_PLAN");
    Server::start(ServerConfig::default()).expect("server starts")
}

fn shut_down(server: Server) {
    let mut cl = Client::connect(server.addr()).expect("connect for shutdown");
    assert!(cl.call(&Request::Shutdown, None).expect("shutdown ack").ok);
    server.join();
}

#[test]
fn server_closes_a_connection_on_an_over_long_line() {
    let server = start_server();
    assert_closed_without_reply(server.addr());
    // Other connections are unaffected.
    let mut cl = Client::connect(server.addr()).expect("connect");
    assert!(cl.call(&Request::Metrics, None).expect("metrics").ok);
    shut_down(server);
}

#[test]
fn gateway_closes_a_connection_on_an_over_long_line() {
    let backend = start_server();
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend.addr().to_string()],
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    assert_closed_without_reply(gateway.addr());
    let mut cl = Client::connect(gateway.addr()).expect("connect");
    assert!(cl.call(&Request::Metrics, None).expect("metrics").ok);
    gateway.stop();
    gateway.join();
    shut_down(backend);
}
