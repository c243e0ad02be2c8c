//! The shard-process side of the serving protocol: a framed
//! request/reply loop in front of one [`spg_serve::Server`] replica.
//!
//! A shard process binds a Unix or TCP listener, accepts the router's
//! connection, and runs [`serve_connection`]: read an `InferRequest`
//! frame, classify through the embedded server, write back an
//! `InferResponse` (or `InferError` carrying the typed serve error's
//! rendering). Serve-side failures never tear the connection — the
//! router decides per-request; only transport errors are fatal.
//!
//! For the CI kill drill the loop takes a [`KillDrill`]: after serving
//! its quota of requests the shard reports [`ConnectionEnd::Killed`]
//! and the hosting process aborts, which the router observes as a dead
//! stream mid-request — the same signature as a real crash.

use std::io::{Read, Write};

use spg_serve::Server;

use crate::wire::{read_frame, write_frame, Message, WireError};

/// Deterministic die-after-N-requests drill for a shard process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillDrill {
    /// Requests to serve successfully before dying.
    pub after: u64,
}

/// Why [`serve_connection`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEnd {
    /// The peer closed cleanly (EOF at a frame boundary).
    Closed,
    /// The kill drill fired: the caller should abort the process
    /// without replying, simulating a crash mid-request.
    Killed,
}

/// Serves framed inference requests from `stream` against `server`
/// until the peer disconnects (or the kill drill fires).
///
/// # Errors
///
/// Only transport-level [`WireError`]s (broken stream, corrupt frame);
/// serve-side errors are replied as `InferError` frames instead.
pub fn serve_connection<S: Read + Write>(
    server: &Server,
    stream: &mut S,
    drill: Option<KillDrill>,
) -> Result<ConnectionEnd, WireError> {
    let mut served = 0u64;
    loop {
        let msg = match read_frame(stream) {
            Ok(msg) => msg,
            Err(WireError::Closed) => return Ok(ConnectionEnd::Closed),
            Err(e) => return Err(e),
        };
        match msg {
            Message::InferRequest { id, key: _, input } => {
                if let Some(KillDrill { after }) = drill {
                    if served >= after {
                        // Die with the request in flight: no reply, the
                        // caller aborts, the router sees a dead stream.
                        return Ok(ConnectionEnd::Killed);
                    }
                }
                let reply = match server.try_submit(input).and_then(|p| p.wait()) {
                    Ok(resp) => Message::InferResponse {
                        id,
                        class: u32::try_from(resp.class).expect("class index fits u32"),
                        logits: resp.logits,
                    },
                    Err(e) => Message::InferError { id, message: e.to_string() },
                };
                write_frame(stream, &reply)?;
                served += 1;
                spg_telemetry::record_counter("cluster.shard.requests", 1);
            }
            other => {
                return Err(WireError::BadPayload {
                    what: match other {
                        Message::InferResponse { .. } => "InferResponse sent to a shard",
                        Message::InferError { .. } => "InferError sent to a shard",
                        _ => "non-serving frame sent to a shard",
                    },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{RemoteShard, ShardBackend, ShardError};
    use crate::ClusterError;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::FcLayer;
    use spg_convnet::Network;
    use spg_serve::ServeConfig;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    fn tiny_server() -> Server {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = Network::new(vec![Box::new(FcLayer::new(4, 3, &mut rng))]).unwrap();
        Server::start(Arc::new(net), &[], ServeConfig::default()).unwrap()
    }

    #[test]
    fn round_trips_requests_over_a_socketpair() {
        let server = tiny_server();
        let (mut shard_side, client_side) = UnixStream::pair().unwrap();
        let handle =
            std::thread::spawn(move || serve_connection(&server, &mut shard_side, None).unwrap());
        let mut client = RemoteShard::new(client_side);
        for i in 0..5 {
            let reply =
                client.infer(0, format!("k{i}").as_bytes(), vec![0.1, 0.2, 0.3, 0.4]).unwrap();
            assert_eq!(reply.logits.len(), 3);
            assert_eq!(reply.shard, 0);
        }
        // Bad input length: replied as a typed per-request error, the
        // connection survives.
        let err = client.infer(0, b"bad", vec![1.0]).unwrap_err();
        match err {
            ShardError::Request(ClusterError::ShardFault { shard: 0, message }) => {
                assert!(message.contains("expects"), "message: {message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let reply = client.infer(0, b"again", vec![0.0; 4]).unwrap();
        assert_eq!(reply.logits.len(), 3);
        drop(client);
        assert_eq!(handle.join().unwrap(), ConnectionEnd::Closed);
    }

    #[test]
    fn kill_drill_fires_after_the_quota() {
        let server = tiny_server();
        let (mut shard_side, client_side) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || {
            serve_connection(&server, &mut shard_side, Some(KillDrill { after: 2 })).unwrap()
        });
        let mut client = RemoteShard::new(client_side);
        client.infer(0, b"a", vec![0.0; 4]).unwrap();
        client.infer(0, b"b", vec![0.0; 4]).unwrap();
        // Third request: the shard dies mid-request (stream drops
        // without a reply) and the client sees a fatal shard error.
        let err = client.infer(0, b"c", vec![0.0; 4]).unwrap_err();
        assert!(
            matches!(err, ShardError::Fatal(ClusterError::ShardFault { shard: 0, .. })),
            "got {err:?}"
        );
        assert_eq!(handle.join().unwrap(), ConnectionEnd::Killed);
    }
}
