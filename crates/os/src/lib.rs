//! # fisec-os — process model and Linux-i386-flavoured syscall layer
//!
//! A [`Process`] couples a loaded [`fisec_asm::Image`] with a
//! [`fisec_x86::Machine`] and a [`fisec_net::Channel`]. It services
//! `int 0x80` software interrupts the way Linux i386 does for the three
//! syscalls the servers need (`exit`=1, `read`=3, `write`=4), builds the
//! address space (text r-x, data rw-, stack rw-, everything else unmapped),
//! and reports how the process ended: clean exit, crash (with the fault
//! and the POSIX signal name), or hang.
//!
//! Syscall servicing happens outside the CPU loop, so instruction counts
//! never include "kernel" work — matching the paper's Figure 4 metric
//! ("not counting those executed inside the kernel").

use fisec_asm::Image;
use fisec_net::{Channel, ClientDriver, ClientStatus, ReadOutcome, Trace};
use fisec_x86::{Cpu, Fault, Machine, Memory, Perms, Region, RunOutcome};
use std::fmt;

/// Stack top (grows down). A guard gap below the stack region makes large
/// overruns fault like they would with a real guard page.
pub const STACK_TOP: u32 = 0xC000_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u32 = 0x0002_0000; // 128 KiB

/// Linux i386 syscall numbers understood by the kernel shim.
pub mod sysno {
    /// `exit(code)`.
    pub const EXIT: u32 = 1;
    /// `read(fd, buf, count)`.
    pub const READ: u32 = 3;
    /// `write(fd, buf, count)`.
    pub const WRITE: u32 = 4;
}

/// The socket file descriptor connecting the server to its client (both
/// directions, like a connected TCP socket dup'ed onto 0/1).
pub const SOCKET_FDS: [u32; 3] = [0, 1, 4];

/// Why a process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `exit(code)` was called.
    Exited(i32),
    /// The process took a fatal fault (the paper's *system detection*).
    Crashed(Fault),
    /// The instruction budget ran out (runaway loop).
    Budget,
    /// A `read` blocked with no client data and no way to make progress.
    Deadlock,
    /// An armed breakpoint was hit (only when running under the injector).
    Breakpoint(u32),
}

impl Stop {
    /// True for crash-class stops.
    pub fn is_crash(&self) -> bool {
        matches!(self, Stop::Crashed(_))
    }

    /// True for hang-class stops (budget exhaustion or deadlock).
    pub fn is_hang(&self) -> bool {
        matches!(self, Stop::Budget | Stop::Deadlock)
    }
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Exited(c) => write!(f, "exited with code {c}"),
            Stop::Crashed(fault) => write!(f, "crashed: {fault} ({})", fault.signal_name()),
            Stop::Budget => write!(f, "instruction budget exhausted"),
            Stop::Deadlock => write!(f, "deadlocked on read"),
            Stop::Breakpoint(a) => write!(f, "stopped at breakpoint {a:#010x}"),
        }
    }
}

/// Errors constructing a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The image has no `_start` symbol.
    NoEntry,
    /// Segments overlap or are unmappable.
    Map(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::NoEntry => write!(f, "image has no _start symbol"),
            LoadError::Map(e) => write!(f, "cannot map image: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A simulated server process: machine + kernel shim + client channel.
#[derive(Debug)]
pub struct Process {
    /// The CPU and address space.
    pub machine: Machine,
    channel: Channel,
    exit_code: Option<i32>,
    budget: u64,
    /// Syscalls serviced: the only way the process touches its channel
    /// or exit status.
    syscalls: u64,
}

/// Default instruction budget per connection. Generous: a normal
/// authentication session takes well under 100k instructions.
pub const DEFAULT_BUDGET: u64 = 5_000_000;

/// Full state of a [`Process`] captured by [`Process::snapshot`]:
/// machine (registers, memory, icount, breakpoints, trace ring),
/// channel (client state machine, queued bytes, traffic trace), exit
/// status and budget. Restoring rewinds the whole simulated world to
/// the capture point, so one boot-to-breakpoint prefix can be replayed
/// under many different injected faults.
#[derive(Debug, Clone)]
pub struct ProcessSnapshot {
    machine: fisec_x86::MachineSnapshot,
    channel: Channel,
    exit_code: Option<i32>,
    budget: u64,
    syscalls: u64,
}

/// What a [`Process`] changed since a checkpoint it was restored to or
/// captured at, when it made no syscall since ([`Process::delta_since`]):
/// registers, EIP and EFLAGS, the icount, and every writable memory page
/// written since, with its contents. Two runs from one checkpoint whose
/// deltas are equal stand in identical states, except for bytes of
/// non-writable regions (which only debugger pokes change).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessDelta {
    cpu: Cpu,
    icount: u64,
    pages: Vec<(u32, Vec<u8>)>,
}

impl Process {
    /// Load `image` and connect it to `client`.
    ///
    /// # Errors
    /// [`LoadError`] if the image lacks `_start` or its segments overlap.
    pub fn load(image: &Image, client: Box<dyn ClientDriver>) -> Result<Process, LoadError> {
        let entry = image.func("_start").ok_or(LoadError::NoEntry)?.start;
        let mut mem = Memory::new();
        mem.map(Region::with_data(
            "text",
            image.text_base,
            image.text.clone(),
            Perms::RX,
        ))
        .map_err(|e| LoadError::Map(e.to_string()))?;
        if !image.data.is_empty() {
            mem.map(Region::with_data(
                "data",
                image.data_base,
                image.data.clone(),
                Perms::RW,
            ))
            .map_err(|e| LoadError::Map(e.to_string()))?;
        }
        mem.map(Region::zeroed(
            "stack",
            STACK_TOP - STACK_SIZE,
            STACK_SIZE,
            Perms::RW,
        ))
        .map_err(|e| LoadError::Map(e.to_string()))?;
        let mut machine = Machine::new(mem);
        machine.cpu.eip = entry;
        machine.cpu.regs[fisec_x86::Reg32::Esp as usize] = STACK_TOP - 16;
        Ok(Process {
            machine,
            channel: Channel::new(client),
            exit_code: None,
            budget: DEFAULT_BUDGET,
            syscalls: 0,
        })
    }

    /// Override the instruction budget.
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// The instruction budget: [`Process::run`] stops with
    /// [`Stop::Budget`] once the icount reaches it.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Checkpoint the whole simulated world: machine, channel (client
    /// state + traffic so far), exit status and budget.
    pub fn snapshot(&self) -> ProcessSnapshot {
        ProcessSnapshot {
            machine: self.machine.snapshot(),
            channel: self.channel.clone(),
            exit_code: self.exit_code,
            budget: self.budget,
            syscalls: self.syscalls,
        }
    }

    /// Overwrite `snap` with a checkpoint of the current world — what
    /// [`Process::snapshot`] returns — reusing its buffers. Moving a
    /// checkpoint forward along one execution (restore it, run a little,
    /// re-capture) copies only the memory pages the run wrote.
    pub fn snapshot_into(&self, snap: &mut ProcessSnapshot) {
        self.machine.snapshot_into(&mut snap.machine);
        snap.channel.clone_from(&self.channel);
        snap.exit_code = self.exit_code;
        snap.budget = self.budget;
        snap.syscalls = self.syscalls;
    }

    /// Rewind to a previously captured [`ProcessSnapshot`] of this
    /// process. Execution after the restore is observably identical to
    /// execution from the original capture point.
    pub fn restore(&mut self, snap: &ProcessSnapshot) {
        self.machine.restore(&snap.machine);
        self.channel = snap.channel.clone();
        self.exit_code = snap.exit_code;
        self.budget = snap.budget;
        self.syscalls = snap.syscalls;
    }

    /// What this process changed since `snap`, a checkpoint of this
    /// process it ran on from. `None` when it made a syscall since (its
    /// channel or exit status may differ, which the delta does not
    /// hold) or `snap` is no longer a live capture of its memory.
    pub fn delta_since(&self, snap: &ProcessSnapshot) -> Option<ProcessDelta> {
        if self.syscalls != snap.syscalls {
            return None;
        }
        Some(ProcessDelta {
            cpu: self.machine.cpu.clone(),
            icount: self.machine.icount,
            pages: self.machine.pages_written_since(&snap.machine)?,
        })
    }

    /// Instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.machine.icount
    }

    /// Instructions retired since an earlier [`Process::icount`] mark.
    /// Note a [`Process::restore`] rewinds `icount`, so take the mark
    /// after the restore when measuring one replayed suffix.
    pub fn icount_since(&self, mark: u64) -> u64 {
        self.machine.icount.saturating_sub(mark)
    }

    /// How many checkpoint restores this process has performed
    /// (monotonic — restoring does not rewind it).
    pub fn restore_count(&self) -> u64 {
        self.machine.restore_count()
    }

    /// The client's verdict so far.
    pub fn client_status(&self) -> ClientStatus {
        self.channel.client_status()
    }

    /// Normalized traffic trace so far.
    pub fn trace(&self) -> Trace {
        self.channel.trace_snapshot()
    }

    /// Run until exit, crash, hang, or breakpoint.
    pub fn run(&mut self) -> Stop {
        loop {
            if let Some(code) = self.exit_code {
                return Stop::Exited(code);
            }
            let remaining = self.budget.saturating_sub(self.machine.icount);
            if remaining == 0 {
                return Stop::Budget;
            }
            match self.machine.run_until_event(remaining) {
                RunOutcome::Breakpoint(a) => return Stop::Breakpoint(a),
                RunOutcome::Fault(f) => return Stop::Crashed(f),
                RunOutcome::Budget => return Stop::Budget,
                RunOutcome::Syscall(0x80) => {
                    if let Some(stop) = self.syscall() {
                        return stop;
                    }
                }
                RunOutcome::Syscall(_) => {
                    // int n (n != 0x80) faults in Machine::step already.
                    unreachable!("only int 0x80 surfaces as a syscall");
                }
            }
        }
    }

    /// Service one syscall; `Some(stop)` ends the run.
    fn syscall(&mut self) -> Option<Stop> {
        self.syscalls += 1;
        let nr = self.machine.cpu.regs[0]; // eax
        let a1 = self.machine.cpu.regs[3]; // ebx
        let a2 = self.machine.cpu.regs[1]; // ecx
        let a3 = self.machine.cpu.regs[2]; // edx
        match nr {
            sysno::EXIT => {
                self.exit_code = Some(a1 as i32);
                return Some(Stop::Exited(a1 as i32));
            }
            sysno::READ => {
                let ret = self.sys_read(a1, a2, a3);
                match ret {
                    Ok(n) => self.machine.cpu.regs[0] = n,
                    Err(e) => self.machine.cpu.regs[0] = e as u32,
                }
                if self.machine.cpu.regs[0] == WOULD_DEADLOCK {
                    return Some(Stop::Deadlock);
                }
            }
            sysno::WRITE => {
                let ret = self.sys_write(a1, a2, a3);
                self.machine.cpu.regs[0] = match ret {
                    Ok(n) => n,
                    Err(e) => e as u32,
                };
            }
            _ => {
                // ENOSYS, like Linux for an unimplemented syscall.
                self.machine.cpu.regs[0] = (-38i32) as u32;
            }
        }
        None
    }

    fn sys_read(&mut self, fd: u32, buf: u32, count: u32) -> Result<u32, i32> {
        if !SOCKET_FDS.contains(&fd) {
            return Err(-9); // EBADF
        }
        let max = count.min(8192) as usize;
        if max == 0 {
            return Ok(0);
        }
        match self.channel.server_read(max) {
            ReadOutcome::WouldBlock => Ok(WOULD_DEADLOCK),
            ReadOutcome::Data(data) => {
                // Copy to user memory; a bad buffer is EFAULT like Linux.
                match self.machine.mem.write_bytes(buf, &data) {
                    Ok(()) => Ok(data.len() as u32),
                    Err(_) => Err(-14), // EFAULT
                }
            }
        }
    }

    fn sys_write(&mut self, fd: u32, buf: u32, count: u32) -> Result<u32, i32> {
        if !SOCKET_FDS.contains(&fd) {
            return Err(-9); // EBADF
        }
        // Cap pathological lengths (a corrupted length register would
        // otherwise ask for gigabytes); Linux would cap at the socket
        // buffer size similarly.
        let n = count.min(65536);
        match self.machine.mem.read_bytes(buf, n) {
            Ok(data) => {
                self.channel.server_write(&data);
                Ok(n)
            }
            Err(_) => Err(-14), // EFAULT
        }
    }
}

/// Sentinel for a read that cannot make progress (not a real Linux errno;
/// never observed by the guest because the run stops).
const WOULD_DEADLOCK: u32 = u32::MAX - 1000;

/// Outcome summary of a completed connection run (used by the injector).
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// How the server stopped.
    pub stop: Stop,
    /// The client's verdict.
    pub client: ClientStatus,
    /// Normalized traffic.
    pub trace: Trace,
    /// Instructions retired.
    pub icount: u64,
}

/// Run a full session of `image` against `client`.
///
/// # Errors
/// [`LoadError`] if the image cannot be loaded.
pub fn run_session(
    image: &Image,
    client: Box<dyn ClientDriver>,
    budget: u64,
) -> Result<SessionResult, LoadError> {
    let mut p = Process::load(image, client)?;
    p.set_budget(budget);
    let stop = p.run();
    Ok(SessionResult {
        stop,
        client: p.client_status(),
        trace: p.trace(),
        icount: p.icount(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_net::ClientDriver;

    /// Client that feeds scripted lines on demand and records what it saw.
    #[derive(Clone)]
    struct ScriptClient {
        inputs: Vec<Vec<u8>>,
        next: usize,
        saw: Vec<u8>,
    }

    impl ScriptClient {
        fn new(inputs: &[&str]) -> Box<ScriptClient> {
            Box::new(ScriptClient {
                inputs: inputs.iter().map(|s| s.as_bytes().to_vec()).collect(),
                next: 0,
                saw: Vec::new(),
            })
        }
    }

    impl ClientDriver for ScriptClient {
        fn on_server_data(&mut self, data: &[u8], _out: &mut dyn FnMut(Vec<u8>)) {
            self.saw.extend_from_slice(data);
        }

        fn on_server_read_idle(&mut self, out: &mut dyn FnMut(Vec<u8>)) {
            if self.next < self.inputs.len() {
                out(self.inputs[self.next].clone());
                self.next += 1;
            }
        }

        fn status(&self) -> ClientStatus {
            ClientStatus::InProgress
        }
    }

    fn build(src: &str) -> fisec_asm::Image {
        fisec_cc::build_image(&[src]).expect("build")
    }

    #[test]
    fn restore_count_counts_process_rewinds() {
        let img = build("int main() { return 42; }");
        let mut p = Process::load(&img, ScriptClient::new(&[])).unwrap();
        assert_eq!(p.restore_count(), 0);
        let snap = p.snapshot();
        let mark = p.icount();
        assert_eq!(p.run(), Stop::Exited(42));
        let ran = p.icount_since(mark);
        assert!(ran > 0);
        p.restore(&snap);
        assert_eq!(p.restore_count(), 1);
        // The rewound process replays to the same stop with the same
        // instruction delta.
        let mark = p.icount();
        assert_eq!(p.run(), Stop::Exited(42));
        assert_eq!(p.icount_since(mark), ran);
        assert_eq!(p.restore_count(), 1);
    }

    #[test]
    fn delta_since_tells_runs_from_one_checkpoint_apart() {
        let img = build(r#"int main() { char b[8]; b[0] = 'x'; write(1, b, 1); return 0; }"#);
        let mut p = Process::load(&img, ScriptClient::new(&[])).unwrap();
        let snap = p.snapshot();
        let run_to = |p: &mut Process, icount: u64| {
            p.restore(&snap);
            p.set_budget(icount);
            p.run();
            p.delta_since(&snap)
        };
        // The same run from the checkpoint has the same delta; a shorter
        // one, or one with a stack byte written besides, another.
        let before_write = run_to(&mut p, 12).unwrap();
        assert_eq!(run_to(&mut p, 12), Some(before_write.clone()));
        assert_ne!(run_to(&mut p, 11), Some(before_write.clone()));
        p.restore(&snap);
        p.machine.mem.write8(STACK_TOP - STACK_SIZE, 1).unwrap();
        p.set_budget(12);
        p.run();
        assert_ne!(p.delta_since(&snap), Some(before_write));
        // Once the write syscall ran, the channel differs: no delta.
        assert_eq!(run_to(&mut p, DEFAULT_BUDGET), None);
    }

    #[test]
    fn exit_code_propagates() {
        let img = build("int main() { return 42; }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(42));
    }

    #[test]
    fn write_reaches_client() {
        let img = build(r#"int main() { write_str(1, "220 ready\r\n"); return 0; }"#);
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(0));
        let msgs = r.trace;
        assert_eq!(msgs.messages().len(), 1);
        assert_eq!(msgs.messages()[0].bytes, b"220 ready\r\n");
    }

    #[test]
    fn read_pulls_from_client() {
        let img = build(
            r#"
            int main() {
                char buf[64];
                int n;
                n = read(0, buf, 63);
                buf[n] = 0;
                write_str(1, buf);
                return n;
            }
            "#,
        );
        let r = run_session(&img, ScriptClient::new(&["USER alice\r\n"]), 200_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(12));
        assert_eq!(r.trace.messages().len(), 2);
        assert_eq!(r.trace.messages()[1].bytes, b"USER alice\r\n");
    }

    #[test]
    fn deadlocked_read_stops() {
        let img = build("int main() { char b[8]; read(0, b, 4); return 0; }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Deadlock);
        assert!(r.stop.is_hang());
    }

    #[test]
    fn crash_reports_fault() {
        // Write through a null pointer.
        let img = build("int main() { int *p; p = 0; *p = 1; return 0; }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        let Stop::Crashed(f) = r.stop else {
            panic!("expected crash, got {:?}", r.stop)
        };
        assert_eq!(f.signal_name(), "SIGSEGV");
    }

    #[test]
    fn divide_by_zero_crashes_sigfpe() {
        let img = build("int zero; int main() { return 7 / zero; }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        let Stop::Crashed(f) = r.stop else {
            panic!("expected crash")
        };
        assert_eq!(f.signal_name(), "SIGFPE");
    }

    #[test]
    fn budget_exhaustion_is_hang() {
        let img = build("int main() { while (1) { } return 0; }");
        let r = run_session(&img, ScriptClient::new(&[]), 10_000).unwrap();
        assert_eq!(r.stop, Stop::Budget);
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let img = build("int main() { char b[4]; return read(7, b, 4); }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(-9));
    }

    #[test]
    fn bad_buffer_is_efault() {
        let img = build("int main() { return write(1, 16, 4); }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(-14));
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let img = build("int main() { return __syscall3(999, 0, 0, 0); }");
        let r = run_session(&img, ScriptClient::new(&[]), 100_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(-38));
    }

    #[test]
    fn stack_and_locals_work() {
        let img = build(
            r#"
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            int main() { return fib(12); }
            "#,
        );
        let r = run_session(&img, ScriptClient::new(&[]), 2_000_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(144));
    }

    #[test]
    fn string_routines_behave() {
        let img = build(
            r#"
            int main() {
                char buf[32];
                strcpy(buf, "abc");
                strcat(buf, "def");
                if (strcmp(buf, "abcdef") != 0) { return 1; }
                if (strlen(buf) != 6) { return 2; }
                if (strncmp(buf, "abcXYZ", 3) != 0) { return 3; }
                if (atoi("-123") != -123) { return 4; }
                return 0;
            }
            "#,
        );
        let r = run_session(&img, ScriptClient::new(&[]), 1_000_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(0));
    }

    #[test]
    fn crypt_hash_is_deterministic_and_distinct() {
        let img = build(
            r#"
            int main() {
                char h1[16];
                char h2[16];
                char h3[16];
                crypt_hash("secret", h1);
                crypt_hash("secret", h2);
                crypt_hash("Secret", h3);
                if (strcmp(h1, h2) != 0) { return 1; }
                if (strcmp(h1, h3) == 0) { return 2; }
                return 0;
            }
            "#,
        );
        let r = run_session(&img, ScriptClient::new(&[]), 1_000_000).unwrap();
        assert_eq!(r.stop, Stop::Exited(0));
    }

    #[test]
    fn icount_excludes_kernel_work() {
        // A program that only syscalls should retire very few instructions.
        let img = build(r#"int main() { write_str(1, "x"); return 0; }"#);
        let r = run_session(&img, ScriptClient::new(&[]), 1_000_000).unwrap();
        assert!(r.icount < 2_000, "icount {}", r.icount);
    }
}
