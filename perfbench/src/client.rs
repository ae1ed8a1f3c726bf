//! A keep-alive HTTP/1.1 client over one TCP connection — the load
//! generator's only way into the daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answered request.
pub struct Answer {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// A connection that reconnects when the daemon closes it (it does after
/// each connection's keep-alive budget).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    timeout: Duration,
}

impl Client {
    /// A client for `addr`; each socket read or write may block for at
    /// most `timeout`.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Client { addr, stream: None, buf: Vec::with_capacity(64 * 1024), timeout }
    }

    /// Sends one request and waits for its answer. An error is a reset,
    /// a timeout or a malformed or truncated answer.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, String)],
        body: &[u8],
    ) -> Result<Answer, String> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body);
        let result = self.exchange(&wire);
        if result.as_ref().map_or(true, |(_, close)| *close) {
            self.stream = None;
            self.buf.clear();
        }
        result.map(|(answer, _)| answer)
    }

    /// The raw request bytes for `body` as [`Self::request`] would send
    /// them (for timing the daemon's parser on them in-process).
    pub fn wire(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<(Answer, bool), String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
            stream.set_read_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
            stream.set_write_timeout(Some(self.timeout)).map_err(|e| format!("timeout: {e}"))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(wire).map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(parsed) = split_response(&self.buf)? {
                let (status, close, body_at, total) = parsed;
                let answer = Answer { status, body: self.buf[body_at..total].to_vec() };
                self.buf.drain(..total);
                return Ok((answer, close));
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("connection closed before a full answer".to_owned());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// `(status, close, body offset, total length)` once `buf` holds a whole
/// response.
fn split_response(buf: &[u8]) -> Result<Option<(u16, bool, usize, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-ascii head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut length = None;
    let mut close = false;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or("answer has no content-length")?;
    let total = head_end + 4 + length;
    Ok((buf.len() >= total).then_some((status, close, head_end + 4, total)))
}
