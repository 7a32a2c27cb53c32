//! A minimal blocking client for the daemon's TCP protocol.
//!
//! One [`Client`] wraps one connection; requests are strictly
//! request-response in order. Used by the integration tests, the
//! `serve_client` example, and the serve benchmark group — and small
//! enough to copy into any tool that needs to talk to the daemon.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_response, read_frame, write_frame, ProtocolError, Response, SubmitRequest, KIND_PING,
    KIND_STATS, KIND_SUBMIT, MAX_FRAME,
};

/// A connected client. See the [module docs](self).
pub struct Client {
    stream: TcpStream,
}

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server broke the framing contract (or closed mid-response).
    Protocol(ProtocolError),
    /// Clean EOF where a response was expected.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Closed => write!(f, "connection closed mid-exchange"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Closed => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is strict request-response; Nagle only adds
        // delayed-ACK latency to every exchange.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn exchange(&mut self, kind: u8, payload: &[u8]) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, kind, payload)?;
        match read_frame(&mut self.stream)? {
            Some((kind, body)) => Ok(decode_response(kind, &body)?),
            None => Err(ClientError::Closed),
        }
    }

    /// Submit a netlist and block until its verdict.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] of kind [`io::ErrorKind::InvalidInput`], before
    /// anything is sent, when the request cannot be framed: a script or
    /// name over 65,535 bytes (the wire's `u16` length prefix), or a frame
    /// body over [`MAX_FRAME`]. Otherwise transport and protocol failures.
    pub fn submit(&mut self, request: &SubmitRequest) -> Result<Response, ClientError> {
        let invalid = |what: &str| {
            Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("request not encodable: {what}"),
            )))
        };
        let max_str = usize::from(u16::MAX);
        if request.script.len() > max_str {
            return invalid("script longer than 65535 bytes");
        }
        if request.name.len() > max_str {
            return invalid("name longer than 65535 bytes");
        }
        // The frame body is the kind byte plus the payload.
        if 1 + request.encoded_len() > MAX_FRAME {
            return invalid("frame body exceeds MAX_FRAME");
        }
        self.exchange(KIND_SUBMIT, &request.encode())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.exchange(KIND_PING, &[])
    }

    /// Server statistics snapshot (JSON bytes).
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.exchange(KIND_STATS, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Submit `request` to a local listener that records every byte it
    /// receives; returns the client's error and the received bytes.
    fn submit_to_recorder(request: &SubmitRequest) -> (ClientError, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let recorder = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            conn.read_to_end(&mut got).unwrap();
            got
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.submit(request).expect_err("request must be refused");
        drop(client);
        (err, recorder.join().unwrap())
    }

    fn request() -> SubmitRequest {
        SubmitRequest {
            script: String::new(),
            name: String::new(),
            data: b".model t\n.end\n".to_vec(),
            fault: None,
        }
    }

    #[test]
    fn submit_refuses_unencodable_requests_before_sending() {
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        let oversized = [
            SubmitRequest {
                script: long.clone(),
                ..request()
            },
            SubmitRequest {
                name: long,
                ..request()
            },
            // Zeroed pages: the body is never touched, so never resident.
            SubmitRequest {
                data: vec![0; MAX_FRAME],
                ..request()
            },
        ];
        for req in &oversized {
            let (err, sent) = submit_to_recorder(req);
            match err {
                ClientError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
                other => panic!("expected InvalidInput, got {other}"),
            }
            assert!(sent.is_empty(), "{} bytes reached the wire", sent.len());
        }
    }

    #[test]
    fn requests_at_the_string_limit_round_trip() {
        let at_limit = "x".repeat(usize::from(u16::MAX));
        let req = SubmitRequest {
            script: at_limit.clone(),
            name: at_limit,
            ..request()
        };
        assert_eq!(req.encode().len(), req.encoded_len());
        let decoded = SubmitRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }
}
