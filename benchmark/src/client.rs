//! The one HTTP client of the benchmark: closed loop, one connection at a
//! time, over the client side of a [`SimNet`].

use oda_serve::net::{ConnId, ServerNet, SimNet};
use oda_serve::server::Server;

/// Tenant every benchmark request is charged to.
pub const TENANT: &str = "e2e";

/// Polls allowed per request before the exchange counts as failed; a
/// response normally completes in one to three.
const MAX_POLLS: u32 = 4_096;

/// A complete, parsed HTTP/1.1 response.
#[derive(Debug, Clone, Default)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// `Server::poll` calls it took until the response was complete.
    pub polls: u32,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn cache_hit(&self) -> bool {
        self.header("x-cache") == Some("hit")
    }
}

/// Frames `wire` (a canonical query document) as `POST /api/v1/query`.
pub fn post_query(wire: &str) -> Vec<u8> {
    format!(
        "POST /api/v1/query HTTP/1.1\r\nx-tenant: {TENANT}\r\ncontent-length: {}\r\n\r\n{wire}",
        wire.len()
    )
    .into_bytes()
}

/// Connect → send → poll until the full response is parsed → close. A
/// response that never completes comes back with status `0`.
pub fn round_trip<N: ServerNet>(client: &SimNet, server: &mut Server<N>, raw: &[u8]) -> Response {
    let conn = client.connect();
    client.client_send(conn, raw);
    let mut got = Vec::new();
    for polls in 1..=MAX_POLLS {
        server.poll();
        got.extend(client.client_recv(conn));
        if let Some(mut response) = parse_response(&got) {
            client.client_close(conn);
            server.poll();
            response.polls = polls + 1;
            return response;
        }
    }
    client.client_close(conn);
    server.poll();
    Response::default()
}

/// Parses a framed response once `raw` holds the head and the whole
/// `content-length` body.
pub fn parse_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&raw[..head_end - 4]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")?
        .1
        .parse()
        .ok()?;
    let body = raw.get(head_end..head_end + len)?.to_vec();
    Some(Response {
        status,
        headers,
        body,
        polls: 0,
    })
}

/// Opens a streaming subscription on `pattern`; the connection stays open
/// and must be drained with [`SimNet::client_recv`].
pub fn subscribe<N: ServerNet>(client: &SimNet, server: &mut Server<N>, pattern: &str) -> ConnId {
    let conn = client.connect();
    let encoded = pattern.replace('/', "%2F").replace('*', "%2A");
    client.client_send(
        conn,
        format!("GET /api/v1/subscribe?pattern={encoded} HTTP/1.1\r\nx-tenant: {TENANT}\r\n\r\n")
            .as_bytes(),
    );
    server.poll();
    conn
}

/// The `"values"` of a scalars result body, `null` as `None`. Rust prints
/// and parses `f64` shortest-round-trip, so the bits survive the wire.
pub fn scalar_values(body: &[u8]) -> Option<Vec<Option<f64>>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"values\":[")? + "\"values\":[".len();
    let end = start + text[start..].find(']')?;
    let inner = &text[start..end];
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(|v| match v.trim() {
            "null" => Some(None),
            num => num.parse::<f64>().ok().map(Some),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_only_when_complete() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nX-Cache: hit\r\n\r\nhello";
        assert!(parse_response(&raw[..raw.len() - 1]).is_none());
        let r = parse_response(raw).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"hello"[..]));
        assert!(r.cache_hit());
    }

    #[test]
    fn scalar_bodies_round_trip_bit_for_bit() {
        let body = br#"{"kind":"scalars","sensors":[1,2,3],"values":[0.1,null,-0.0]}"#;
        let values = scalar_values(body).unwrap();
        assert_eq!(values[0].unwrap().to_bits(), 0.1f64.to_bits());
        assert_eq!(values[1], None);
        assert_eq!(values[2].unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(scalar_values(br#"{"values":[]}"#), Some(Vec::new()));
        assert_eq!(scalar_values(b"{}"), None);
    }
}
