//! Short-write resumption, property-tested: a [`ConnMachine`] drained
//! through a writer that accepts arbitrary slices and injects
//! `WouldBlock`/`Interrupted` at arbitrary boundaries must put exactly
//! the bytes on the wire that the blocking `write_response` path
//! produces — across pipelined responses, with bodies well past any
//! socket buffer.

use std::io::{self, ErrorKind, Write};

use hdsampler_server::{write_response, ConnMachine, Response, WriteProgress};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// What the scripted writer does with one `write` call.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Accept at most this many bytes (a short write).
    Accept(usize),
    /// Refuse with `WouldBlock` — the socket buffer is full.
    Eagain,
    /// Refuse with `Interrupted` — a signal landed mid-syscall.
    Eintr,
}

/// A writer that replays a script of short writes and failures, then
/// accepts everything; the bytes it accepted are the "wire".
struct ScriptedWire {
    wire: Vec<u8>,
    script: Vec<Step>,
    step: usize,
}

impl ScriptedWire {
    fn new(script: Vec<Step>) -> Self {
        ScriptedWire {
            wire: Vec::new(),
            script,
            step: 0,
        }
    }
}

impl Write for ScriptedWire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let step = self.script.get(self.step).copied();
        self.step += 1;
        match step {
            Some(Step::Eagain) => Err(io::Error::new(ErrorKind::WouldBlock, "buffer full")),
            Some(Step::Eintr) => Err(io::Error::new(ErrorKind::Interrupted, "signal")),
            Some(Step::Accept(cap)) => {
                let n = buf.len().min(cap.max(1));
                self.wire.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            // Script exhausted: the socket drains freely from here on.
            None => {
                self.wire.extend_from_slice(buf);
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Draws one scripted-wire step: mostly short writes of 1..=2048 bytes —
/// small enough to split a response mid-head and mid-body — with
/// `WouldBlock` and `Interrupted` mixed in.
struct StepStrategy;

impl Strategy for StepStrategy {
    type Value = Step;

    fn generate(&self, rng: &mut TestRng) -> Step {
        match rng.next_u64() % 9 {
            0 | 1 => Step::Eagain,
            2 => Step::Eintr,
            _ => Step::Accept(1 + (rng.next_u64() % 2048) as usize),
        }
    }
}

/// Draws one response (with its keep-alive intent): bodies from empty to
/// 32 KiB, far beyond the scripted wire's largest single accept.
struct ResponseStrategy;

impl Strategy for ResponseStrategy {
    type Value = (Response, bool);

    fn generate(&self, rng: &mut TestRng) -> (Response, bool) {
        let len = (rng.next_u64() % (32 * 1024)) as usize;
        let body: String = (0..len)
            .map(|_| (0x20 + (rng.next_u64() % 0x5f) as u8) as char)
            .collect();
        let status = [200u16, 400, 429][(rng.next_u64() % 3) as usize];
        let resp = if rng.next_u64() & 1 == 0 {
            Response::html(status, "Scripted", body)
        } else {
            Response::text(status, "Scripted", body)
        };
        (resp, rng.next_u64() & 1 == 0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: however the wire slices and stalls, the
    /// machine's resumed writes reassemble into exactly the blocking
    /// path's byte stream.
    #[test]
    fn resumed_writes_are_byte_identical_to_blocking_writes(
        responses in prop::collection::vec(ResponseStrategy, 1..4),
        script in prop::collection::vec(StepStrategy, 0..256),
    ) {
        // Reference: the blocking path, one uninterrupted write.
        let mut expect = Vec::new();
        for (resp, keep_alive) in &responses {
            write_response(&mut expect, resp, *keep_alive).unwrap();
        }

        // The machine under test: pipeline every response into the
        // output queue, then drain through the scripted wire.
        let mut machine = ConnMachine::new();
        let mut queued = 0usize;
        for (resp, keep_alive) in &responses {
            queued += machine.queue_response(resp, *keep_alive);
        }
        prop_assert_eq!(queued, expect.len(), "queueing reuses the blocking serializer");
        let expect_close = responses.iter().any(|(_, keep_alive)| !keep_alive);
        prop_assert_eq!(machine.close_after_flush(), expect_close);

        let mut wire = ScriptedWire::new(script);
        // Each Blocked return models parking on EPOLLOUT; the script is
        // finite, so the drain always terminates.
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            prop_assert!(rounds <= 1024, "drain must terminate");
            match machine.write_some(&mut wire).expect("scripted wire never hard-fails") {
                WriteProgress::Done => break,
                WriteProgress::Blocked => prop_assert!(
                    machine.has_pending_out(),
                    "Blocked implies residual bytes stay queued"
                ),
            }
        }

        prop_assert!(!machine.has_pending_out(), "Done implies an empty queue");
        prop_assert_eq!(machine.close_after_flush(), expect_close, "close intent survives the drain");
        prop_assert_eq!(wire.wire, expect, "resumed byte stream diverged from the blocking write");
    }

    /// A writer that answers `Ok(0)` without signalling `WouldBlock` is
    /// broken; the machine must surface it as `WriteZero`, never spin.
    #[test]
    fn zero_byte_accepts_error_out(
        response in ResponseStrategy,
    ) {
        let (resp, keep_alive) = response;
        struct Stuck;
        impl Write for Stuck {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut machine = ConnMachine::new();
        machine.queue_response(&resp, keep_alive);
        if machine.has_pending_out() {
            let err = machine.write_some(&mut Stuck).expect_err("Ok(0) is an error");
            prop_assert_eq!(err.kind(), ErrorKind::WriteZero);
        }
    }
}
