//! # fisec-net — in-memory client/server channel with recorded traces
//!
//! The study classifies each injection run by comparing the run's
//! client↔server interaction against an error-free *golden* run: identical
//! traffic and verdict → **NM**; divergent traffic, wrongful denial or a
//! hang → **FSV**; access granted that the golden run denies → **BRK**.
//! This crate provides the pieces that make those comparisons possible:
//!
//! * [`Channel`] — a synchronous duplex byte pipe between the simulated
//!   server process and a scripted client, recording every transfer;
//! * [`ClientDriver`] — the scripted client state machine (the FTP/SSH
//!   clients of §5.2/§5.3 live in `fisec-apps` and implement this trait);
//! * [`Trace`] — the normalized message log with a diff utility.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// Transfer direction, from the server's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Server → client.
    ToClient,
    /// Client → server.
    ToServer,
}

/// One recorded transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Direction.
    pub dir: Dir,
    /// Raw bytes.
    pub bytes: Vec<u8>,
}

/// The client's running verdict about the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClientStatus {
    /// Session still in progress.
    InProgress,
    /// Access granted (logged in and received the protected resource).
    Granted,
    /// Access properly denied / session closed without the resource.
    Denied,
    /// The server sent something the protocol does not allow here.
    Confused,
}

/// A scripted client driving one connection.
///
/// Implementations are deterministic state machines: the fault injector
/// runs the same client against golden and faulty servers and compares
/// the traffic.
pub trait ClientDriver: CloneClient {
    /// Server delivered `data`; queue any replies through `out`.
    fn on_server_data(&mut self, data: &[u8], out: &mut dyn FnMut(Vec<u8>));

    /// Server wants to read but nothing is queued; speak-first protocols
    /// may produce data here. Producing nothing means the client is
    /// waiting too (the connection deadlocks — a hang).
    fn on_server_read_idle(&mut self, _out: &mut dyn FnMut(Vec<u8>)) {}

    /// Current verdict.
    fn status(&self) -> ClientStatus;

    /// Whether this client stands in the state of `earlier`, a clone of
    /// it taken earlier in the same session: whether it would answer the
    /// same server bytes the same way from here on. Lets a process skip
    /// the periods of an output loop that returns both sides to where
    /// they stood (see `fisec_os::Process::run`). The default says the
    /// states are not comparable, which keeps every loop through this
    /// client running in full.
    fn same_state(&self, _earlier: &dyn ClientDriver) -> bool {
        false
    }
}

/// Object-safe cloning for boxed [`ClientDriver`]s, so [`Channel`] (and
/// with it a whole simulated process) can be checkpointed mid-session.
/// Blanket-implemented for every `Clone` client; implementors only need
/// `#[derive(Clone)]`.
pub trait CloneClient {
    /// Clone into a fresh box.
    fn clone_box(&self) -> Box<dyn ClientDriver>;

    /// The client as [`Any`], for a [`ClientDriver::same_state`] that
    /// downcasts its argument.
    fn as_any(&self) -> &dyn Any;
}

impl<T: ClientDriver + Clone + 'static> CloneClient for T {
    fn clone_box(&self) -> Box<dyn ClientDriver> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Clone for Box<dyn ClientDriver> {
    fn clone(&self) -> Box<dyn ClientDriver> {
        self.clone_box()
    }
}

/// Result of a server-side read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Bytes for the server.
    Data(Vec<u8>),
    /// Neither side has anything to say: the connection is deadlocked.
    WouldBlock,
}

/// A synchronous duplex channel between the simulated server and a
/// [`ClientDriver`], recording a [`Trace`] of all traffic. Cloning
/// captures the client state machine, queued bytes and trace — the
/// channel half of a process checkpoint.
#[derive(Clone)]
pub struct Channel {
    client: Box<dyn ClientDriver>,
    to_server: VecDeque<u8>,
    trace: Vec<Message>,
}

/// What decides a [`Channel`]'s future, captured at one instant: the
/// client state machine and the bytes queued for the server, plus how
/// many transfers the trace held (the trace only grows).
#[derive(Clone)]
pub struct ChannelMark {
    client: Box<dyn ClientDriver>,
    to_server: VecDeque<u8>,
    transfers: usize,
}

impl fmt::Debug for ChannelMark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelMark")
            .field("queued", &self.to_server.len())
            .field("transfers", &self.transfers)
            .finish()
    }
}

impl fmt::Debug for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("queued", &self.to_server.len())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

impl Channel {
    /// Wrap a client.
    pub fn new(client: Box<dyn ClientDriver>) -> Channel {
        Channel {
            client,
            to_server: VecDeque::new(),
            trace: Vec::new(),
        }
    }

    /// Server writes `bytes` to the client.
    pub fn server_write(&mut self, bytes: &[u8]) {
        self.trace.push(Message {
            dir: Dir::ToClient,
            bytes: bytes.to_vec(),
        });
        let mut queued: Vec<Vec<u8>> = Vec::new();
        self.client.on_server_data(bytes, &mut |reply| {
            queued.push(reply);
        });
        for q in queued {
            self.queue_to_server(q);
        }
    }

    /// Server reads up to `max` bytes.
    pub fn server_read(&mut self, max: usize) -> ReadOutcome {
        if self.to_server.is_empty() {
            let mut queued: Vec<Vec<u8>> = Vec::new();
            self.client.on_server_read_idle(&mut |reply| {
                queued.push(reply);
            });
            for q in queued {
                self.queue_to_server(q);
            }
        }
        if self.to_server.is_empty() {
            return ReadOutcome::WouldBlock;
        }
        let n = max.min(self.to_server.len());
        let data: Vec<u8> = self.to_server.drain(..n).collect();
        ReadOutcome::Data(data)
    }

    fn queue_to_server(&mut self, bytes: Vec<u8>) {
        self.trace.push(Message {
            dir: Dir::ToServer,
            bytes: bytes.clone(),
        });
        self.to_server.extend(bytes);
    }

    /// Capture what decides the channel's future.
    pub fn mark(&self) -> ChannelMark {
        ChannelMark {
            client: self.client.clone(),
            to_server: self.to_server.clone(),
            transfers: self.trace.len(),
        }
    }

    /// Whether the channel stands where `mark` was taken: the same bytes
    /// queued, and a client that reports the same state
    /// ([`ClientDriver::same_state`]).
    pub fn same_state(&self, mark: &ChannelMark) -> bool {
        self.to_server == mark.to_server && self.client.same_state(mark.client.as_ref())
    }

    /// Record `times` more copies of the transfers recorded since `mark`:
    /// the trace of `times` more periods of a loop that returned the
    /// channel to `mark`'s state.
    pub fn repeat_since(&mut self, mark: &ChannelMark, times: u64) {
        let period = self.trace[mark.transfers..].to_vec();
        for _ in 0..times {
            self.trace.extend_from_slice(&period);
        }
    }

    /// The client's verdict.
    pub fn client_status(&self) -> ClientStatus {
        self.client.status()
    }

    /// Consume the channel, returning the normalized trace.
    pub fn into_trace(self) -> Trace {
        Trace::normalized(self.trace)
    }

    /// Normalized snapshot of the trace so far.
    pub fn trace_snapshot(&self) -> Trace {
        Trace::normalized(self.trace.clone())
    }
}

/// A normalized message trace: adjacent same-direction transfers merged,
/// so chunking differences (which depend on buffer sizes, not behaviour)
/// do not register as divergence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    messages: Vec<Message>,
}

impl Trace {
    /// Build from raw transfers, merging adjacent same-direction chunks.
    pub fn normalized(raw: Vec<Message>) -> Trace {
        let mut messages: Vec<Message> = Vec::new();
        for m in raw {
            if m.bytes.is_empty() {
                continue;
            }
            match messages.last_mut() {
                Some(last) if last.dir == m.dir => last.bytes.extend_from_slice(&m.bytes),
                _ => messages.push(m),
            }
        }
        Trace { messages }
    }

    /// Messages in order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// First divergence between two traces, if any: index plus a short
    /// human-readable description.
    pub fn first_divergence(&self, other: &Trace) -> Option<(usize, String)> {
        let n = self.messages.len().max(other.messages.len());
        for i in 0..n {
            match (self.messages.get(i), other.messages.get(i)) {
                (Some(a), Some(b)) if a == b => continue,
                (Some(a), Some(b)) => {
                    if a.dir != b.dir {
                        return Some((i, format!("direction {:?} vs {:?}", a.dir, b.dir)));
                    }
                    return Some((
                        i,
                        format!(
                            "payload {:?} vs {:?}",
                            String::from_utf8_lossy(&a.bytes),
                            String::from_utf8_lossy(&b.bytes)
                        ),
                    ));
                }
                (Some(_), None) => return Some((i, "extra message".to_string())),
                (None, Some(_)) => return Some((i, "missing message".to_string())),
                (None, None) => unreachable!(),
            }
        }
        None
    }

    /// True when both traces carry identical normalized traffic.
    pub fn matches(&self, other: &Trace) -> bool {
        self.first_divergence(other).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo client: replies "ok\n" to every server message, grants after
    /// seeing "PASS".
    #[derive(Clone)]
    struct EchoClient {
        granted: bool,
    }

    impl ClientDriver for EchoClient {
        fn on_server_data(&mut self, data: &[u8], out: &mut dyn FnMut(Vec<u8>)) {
            if data.starts_with(b"PASS") {
                self.granted = true;
            }
            out(b"ok\n".to_vec());
        }

        fn status(&self) -> ClientStatus {
            if self.granted {
                ClientStatus::Granted
            } else {
                ClientStatus::InProgress
            }
        }
    }

    fn channel() -> Channel {
        Channel::new(Box::new(EchoClient { granted: false }))
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut ch = channel();
        ch.server_write(b"hello\n");
        assert_eq!(ch.server_read(16), ReadOutcome::Data(b"ok\n".to_vec()));
        assert_eq!(ch.server_read(16), ReadOutcome::WouldBlock);
    }

    #[test]
    fn partial_reads_drain_queue() {
        let mut ch = channel();
        ch.server_write(b"x");
        assert_eq!(ch.server_read(1), ReadOutcome::Data(b"o".to_vec()));
        assert_eq!(ch.server_read(10), ReadOutcome::Data(b"k\n".to_vec()));
    }

    #[test]
    fn status_tracks_protocol() {
        let mut ch = channel();
        assert_eq!(ch.client_status(), ClientStatus::InProgress);
        ch.server_write(b"PASS granted");
        assert_eq!(ch.client_status(), ClientStatus::Granted);
    }

    #[test]
    fn trace_records_both_directions() {
        let mut ch = channel();
        ch.server_write(b"a");
        let _ = ch.server_read(16);
        ch.server_write(b"b");
        let t = ch.into_trace();
        // "a" out, "ok\n" queued, "b" out, "ok\n" queued again (the echo
        // client replies to every write).
        assert_eq!(t.messages().len(), 4);
        assert_eq!(t.messages()[0].dir, Dir::ToClient);
        assert_eq!(t.messages()[1].dir, Dir::ToServer);
        assert_eq!(t.messages()[2].bytes, b"b");
        assert_eq!(t.messages()[3].dir, Dir::ToServer);
    }

    #[test]
    fn normalization_merges_chunks() {
        let raw = vec![
            Message {
                dir: Dir::ToClient,
                bytes: b"he".to_vec(),
            },
            Message {
                dir: Dir::ToClient,
                bytes: b"llo".to_vec(),
            },
            Message {
                dir: Dir::ToServer,
                bytes: b"x".to_vec(),
            },
        ];
        let t = Trace::normalized(raw);
        assert_eq!(t.messages().len(), 2);
        assert_eq!(t.messages()[0].bytes, b"hello");
    }

    #[test]
    fn empty_messages_dropped() {
        let raw = vec![Message {
            dir: Dir::ToClient,
            bytes: vec![],
        }];
        assert!(Trace::normalized(raw).messages().is_empty());
    }

    #[test]
    fn divergence_detection() {
        let a = Trace::normalized(vec![Message {
            dir: Dir::ToClient,
            bytes: b"220 hi\n".to_vec(),
        }]);
        let b = Trace::normalized(vec![Message {
            dir: Dir::ToClient,
            bytes: b"550 no\n".to_vec(),
        }]);
        assert!(a.matches(&a.clone()));
        let (i, why) = a.first_divergence(&b).unwrap();
        assert_eq!(i, 0);
        assert!(why.contains("payload"));
        let c = Trace::normalized(vec![]);
        assert_eq!(a.first_divergence(&c).unwrap().1, "extra message");
        assert_eq!(c.first_divergence(&a).unwrap().1, "missing message");
    }

    #[test]
    fn direction_divergence_reported() {
        let a = Trace::normalized(vec![Message {
            dir: Dir::ToClient,
            bytes: b"x".to_vec(),
        }]);
        let b = Trace::normalized(vec![Message {
            dir: Dir::ToServer,
            bytes: b"x".to_vec(),
        }]);
        let (_, why) = a.first_divergence(&b).unwrap();
        assert!(why.contains("direction"));
    }

    /// Speak-first client for `on_server_read_idle`.
    #[derive(Clone)]
    struct SpeakFirst {
        spoken: bool,
    }

    impl ClientDriver for SpeakFirst {
        fn on_server_data(&mut self, _d: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {}

        fn on_server_read_idle(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
            if !self.spoken {
                self.spoken = true;
                out(b"HELLO\n".to_vec());
            }
        }

        fn status(&self) -> ClientStatus {
            ClientStatus::InProgress
        }
    }

    #[test]
    fn speak_first_client_feeds_idle_read() {
        let mut ch = Channel::new(Box::new(SpeakFirst { spoken: false }));
        assert_eq!(ch.server_read(64), ReadOutcome::Data(b"HELLO\n".to_vec()));
        assert_eq!(ch.server_read(64), ReadOutcome::WouldBlock);
    }
}
