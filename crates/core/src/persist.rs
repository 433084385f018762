//! The campaign store's binary codec: the byte [`Writer`] and [`Reader`]
//! that [`crate::cache::encode_store`] and [`crate::cache::decode_store`]
//! frame a store with, and the run codec each of its rows holds.
//!
//! Integers are little-endian; outcomes, stops (with their fault) and
//! client verdicts are one-byte tags; bools and option tags are 0 or 1;
//! strings and byte strings are `u32`-length-framed. The full layout is
//! in [`crate::cache::encode_store`]'s doc. Reading is total: a short
//! read, an out-of-range tag or a malformed string is `None`, never a
//! panic, and the store treats it as a miss.

use crate::cache::CachedDigestedRun;
use fisec_inject::{InjectionRun, OutcomeClass};
use fisec_net::ClientStatus;
use fisec_os::Stop;
use fisec_x86::Fault;

/// The tag of `c` in the store codec.
pub(crate) fn client_tag(c: ClientStatus) -> u8 {
    match c {
        ClientStatus::InProgress => 0,
        ClientStatus::Granted => 1,
        ClientStatus::Denied => 2,
        ClientStatus::Confused => 3,
    }
}

/// Byte sink of [`crate::cache::encode_store`].
pub(crate) struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("store sequences hold fewer than 2^32 items"));
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.len(b.len());
        self.0.extend_from_slice(b);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Writer, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    pub(crate) fn run(&mut self, (run, div): &CachedDigestedRun) {
        let outcome = OutcomeClass::ALL
            .iter()
            .position(|o| *o == run.outcome)
            .expect("every outcome appears in OutcomeClass::ALL");
        self.u8(outcome as u8);
        self.bool(run.activated);
        self.stop(&run.stop);
        self.u8(client_tag(run.client));
        self.opt(run.crash_latency, Writer::u64);
        self.bool(run.transient_deviation);
        self.opt(run.divergence.as_deref(), Writer::str);
        self.opt(*div, |w, (depth, latency)| {
            w.opt(depth, Writer::u64);
            w.opt(latency, Writer::u64);
        });
    }

    pub(crate) fn stop(&mut self, stop: &Stop) {
        match *stop {
            Stop::Exited(code) => {
                self.u8(0);
                self.0.extend_from_slice(&code.to_le_bytes());
            }
            Stop::Crashed(fault) => {
                self.u8(1);
                let (tag, addr) = match fault {
                    Fault::InvalidOpcode(a) => (0, a),
                    Fault::GeneralProtection(a) => (1, a),
                    Fault::MemAccess { addr, write } => (2 + u8::from(write), addr),
                    Fault::FetchFault(a) => (4, a),
                    Fault::DivideError(a) => (5, a),
                    Fault::Trap(a) => (6, a),
                };
                self.u8(tag);
                self.u32(addr);
            }
            Stop::Budget => self.u8(2),
            Stop::Deadlock => self.u8(3),
            Stop::Breakpoint(addr) => {
                self.u8(4);
                self.u32(addr);
            }
        }
    }
}

/// Byte source of [`crate::cache::decode_store`]: the bytes not yet
/// consumed.
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(|[b]| b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        std::str::from_utf8(self.bytes()?).ok().map(str::to_owned)
    }

    fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Some(None)
        }
    }

    /// A counted sequence of items at least `min_bytes` long each.
    pub(crate) fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_bytes {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    pub(crate) fn run(&mut self) -> Option<CachedDigestedRun> {
        let run = InjectionRun {
            outcome: *OutcomeClass::ALL.get(usize::from(self.u8()?))?,
            activated: self.bool()?,
            stop: self.stop()?,
            client: match self.u8()? {
                0 => ClientStatus::InProgress,
                1 => ClientStatus::Granted,
                2 => ClientStatus::Denied,
                3 => ClientStatus::Confused,
                _ => return None,
            },
            crash_latency: self.opt(Reader::u64)?,
            transient_deviation: self.bool()?,
            divergence: self.opt(Reader::str)?,
        };
        let div = self.opt(|r| Some((r.opt(Reader::u64)?, r.opt(Reader::u64)?)))?;
        Some((run, div))
    }

    fn stop(&mut self) -> Option<Stop> {
        Some(match self.u8()? {
            0 => Stop::Exited(i32::from_le_bytes(self.array()?)),
            1 => {
                let tag = self.u8()?;
                let a = self.u32()?;
                Stop::Crashed(match tag {
                    0 => Fault::InvalidOpcode(a),
                    1 => Fault::GeneralProtection(a),
                    2 | 3 => Fault::MemAccess {
                        addr: a,
                        write: tag == 3,
                    },
                    4 => Fault::FetchFault(a),
                    5 => Fault::DivideError(a),
                    6 => Fault::Trap(a),
                    _ => return None,
                })
            }
            2 => Stop::Budget,
            3 => Stop::Deadlock,
            4 => Stop::Breakpoint(self.u32()?),
            _ => return None,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One run of every outcome, stop, fault and client verdict.
    pub(crate) fn every_variant() -> Vec<InjectionRun> {
        let faults = [
            Fault::InvalidOpcode(0x8048_0001),
            Fault::GeneralProtection(0x1234),
            Fault::MemAccess {
                addr: 0xdead_beef,
                write: true,
            },
            Fault::MemAccess {
                addr: 0,
                write: false,
            },
            Fault::FetchFault(0xffff_ffff),
            Fault::DivideError(0x80),
            Fault::Trap(3),
        ];
        let stops = [
            Stop::Exited(0),
            Stop::Exited(-1),
            Stop::Exited(i32::MAX),
            Stop::Budget,
            Stop::Deadlock,
            Stop::Breakpoint(0x8048_1234),
        ]
        .into_iter()
        .chain(faults.map(Stop::Crashed));
        let clients = [
            ClientStatus::InProgress,
            ClientStatus::Granted,
            ClientStatus::Denied,
            ClientStatus::Confused,
        ];
        stops
            .enumerate()
            .map(|(i, stop)| InjectionRun {
                outcome: OutcomeClass::ALL[i % 5],
                activated: i % 2 == 0,
                stop,
                client: clients[i % 4],
                crash_latency: (i % 3 == 0).then_some(4242 + i as u64),
                transient_deviation: i % 3 == 1,
                divergence: (i % 2 == 1).then(|| format!("msg {i} differs")),
            })
            .collect()
    }

    /// One row's run, as [`crate::cache::encode_store`] frames it.
    fn run_bytes(run: &CachedDigestedRun) -> Vec<u8> {
        let mut w = Writer(Vec::new());
        w.run(run);
        w.0
    }

    /// The run `bytes` hold, when they hold exactly one.
    fn decode_run(bytes: &[u8]) -> Option<CachedDigestedRun> {
        let mut r = Reader(bytes);
        let run = r.run()?;
        r.0.is_empty().then_some(run)
    }

    #[test]
    fn stop_codec_round_trips_every_variant() {
        let stops: Vec<Stop> = every_variant().into_iter().map(|r| r.stop).collect();
        // Every fault variant, both memory-access directions included.
        let crashes = stops
            .iter()
            .filter(|s| matches!(s, Stop::Crashed(_)))
            .count();
        assert_eq!(crashes, 7);
        for stop in stops {
            let mut w = Writer(Vec::new());
            w.stop(&stop);
            let mut r = Reader(&w.0);
            assert_eq!(r.stop(), Some(stop), "{:?}", w.0);
            assert!(r.0.is_empty(), "{:?}", w.0);
        }
    }

    #[test]
    fn run_codec_round_trips() {
        let runs = every_variant();
        assert!(OutcomeClass::ALL
            .iter()
            .all(|o| runs.iter().any(|r| r.outcome == *o)));
        assert!([
            ClientStatus::InProgress,
            ClientStatus::Granted,
            ClientStatus::Denied,
            ClientStatus::Confused,
        ]
        .iter()
        .all(|c| runs.iter().any(|r| r.client == *c)));
        // Recorder off, and on with and without each observable.
        let divs = [
            None,
            Some((None, None)),
            Some((Some(17), None)),
            Some((None, Some(9))),
            Some((Some(17), Some(9))),
        ];
        for run in &runs {
            for div in divs {
                let row = (run.clone(), div);
                let bytes = run_bytes(&row);
                assert_eq!(decode_run(&bytes), Some(row), "{bytes:?}");
            }
        }
    }

    #[test]
    fn malformed_strings_decode_to_none_not_panic() {
        let text = "msg 3 differs";
        let row = (
            InjectionRun {
                outcome: OutcomeClass::FailSilenceViolation,
                activated: true,
                stop: Stop::Crashed(Fault::MemAccess {
                    addr: 0x2004,
                    write: true,
                }),
                client: ClientStatus::Confused,
                crash_latency: Some(4242),
                transient_deviation: true,
                divergence: Some(text.to_string()),
            },
            Some((Some(17), None)),
        );
        let bytes = run_bytes(&row);
        assert_eq!(decode_run(&bytes), Some(row));
        // Every prefix is short, and a trailing byte is not one run.
        for len in 0..bytes.len() {
            assert_eq!(decode_run(&bytes[..len]), None, "{len}-byte prefix");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_run(&long), None, "trailing byte");
        // The divergence string: a length word, then its UTF-8 bytes.
        let at = bytes
            .windows(text.len())
            .position(|w| w == text.as_bytes())
            .expect("the divergence text is framed verbatim");
        let len_at = at - 4;
        assert_eq!(bytes[len_at..at], (text.len() as u32).to_le_bytes());
        for bad in [0x80, 0xc3, 0xff] {
            let mut doctored = bytes.clone();
            doctored[at] = bad;
            assert_eq!(decode_run(&doctored), None, "non-UTF-8 byte {bad:#x}");
        }
        for len in [bytes.len() - at + 1, 1 << 20, u32::MAX as usize] {
            let mut doctored = bytes.clone();
            doctored[len_at..at].copy_from_slice(&(len as u32).to_le_bytes());
            assert_eq!(decode_run(&doctored), None, "length {len}");
        }
    }

    #[test]
    fn bad_outcome_or_stop_is_a_miss() {
        let crashed = (
            InjectionRun {
                outcome: OutcomeClass::SystemDetection,
                activated: true,
                stop: Stop::Crashed(Fault::Trap(3)),
                client: ClientStatus::Denied,
                crash_latency: None,
                transient_deviation: false,
                divergence: None,
            },
            None,
        );
        let bytes = run_bytes(&crashed);
        assert!(decode_run(&bytes).is_some());
        // outcome, activated, stop, fault, then (after the fault's u32)
        // client, crash-latency option, transient deviation, divergence
        // option, recorder-digest option.
        let (outcome, stop, fault, client) = (0, 2, 3, 8);
        let limits = [
            (outcome, OutcomeClass::ALL.len()),
            (1, 2),
            (stop, 5),
            (fault, 7),
            (client, 4),
            (9, 2),
            (10, 2),
            (11, 2),
            (12, 2),
        ];
        for (at, first_bad) in limits {
            for tag in first_bad..=255 {
                let mut doctored = bytes.clone();
                doctored[at] = tag as u8;
                assert_eq!(decode_run(&doctored), None, "byte {at} = {tag}");
            }
        }
    }
}
