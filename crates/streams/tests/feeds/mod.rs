//! Loopback peers for the live line sources: a TCP producer and a one-shot
//! HTTP server that frames one body three ways. Shared by
//! `source_conformance.rs` and `source_alloc.rs`, neither of which uses all
//! of it.
#![allow(dead_code)]

use spca_streams::ops::{HttpSource, TcpSource};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// How the one-shot server delimits the response body.
pub enum Framing {
    /// A `Content-Length` header.
    Length,
    /// `Transfer-Encoding: chunked`, a chunk ending at each of these body
    /// offsets (ascending; the tail after the last is one more chunk).
    Chunked(Vec<usize>),
    /// HTTP/1.0 style: the body ends when the connection closes.
    UntilClose,
}

/// The full response, head and framed body, for `body`.
pub fn http_response(body: &[u8], framing: &Framing) -> Vec<u8> {
    let mut out = Vec::new();
    match framing {
        Framing::Length => {
            write!(
                out,
                "HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .unwrap();
            out.extend_from_slice(body);
        }
        Framing::UntilClose => {
            out.extend_from_slice(b"HTTP/1.0 200 OK\r\n\r\n");
            out.extend_from_slice(body);
        }
        Framing::Chunked(cuts) => {
            out.extend_from_slice(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
            let mut from = 0;
            for &to in cuts.iter().chain([&body.len()]) {
                if to > from {
                    write!(out, "{:x}\r\n", to - from).unwrap();
                    out.extend_from_slice(&body[from..to]);
                    out.extend_from_slice(b"\r\n");
                    from = to;
                }
            }
            out.extend_from_slice(b"0\r\n\r\n");
        }
    }
    out
}

/// An `HttpSource` whose one GET is answered with `response` by a
/// background thread, which then closes the connection.
pub fn http_source(response: Vec<u8>) -> HttpSource {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut head = [0u8; 4096];
        let _ = stream.read(&mut head); // drain the request head
        let _ = stream.write_all(&response);
    });
    HttpSource::get(&format!("http://{addr}/data.csv")).unwrap()
}

/// A listening `TcpSource` with a background producer that connects,
/// writes `bytes` and closes.
pub fn tcp_source(bytes: Vec<u8>) -> TcpSource {
    let source = TcpSource::listen("127.0.0.1:0").unwrap();
    let addr = source.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut peer = TcpStream::connect(addr).unwrap();
        let _ = peer.write_all(&bytes);
    });
    source
}
