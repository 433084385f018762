//! Golden-vs-faulty divergence diffing over flight-recorder traces.
//!
//! The recorded entry points in the crate root capture two
//! [`FlightTrace`]s per activated injection: a **golden continuation**
//! (the checkpointed process resumed once *without* the flip, recorder
//! on) and the faulty run itself. Diffing the two edge streams answers
//! the questions the paper's §5.4 narrative raises per run — where did
//! the corrupted control flow first leave the correct path, how far did
//! the error propagate before the run stopped, what state was corrupt
//! at the end, and did the server speak to the client while corrupted —
//! at control-flow-edge granularity rather than the function-granular
//! view of [`crate::forensics`].

use fisec_os::{sysno, Stop};
use fisec_x86::recorder::{diff_memory, diff_regs, first_divergence, MemDelta, RegDelta};
use fisec_x86::{EdgeKind, FlightTrace, Memory};
use std::fmt;
use std::sync::Arc;

/// Flight-recorder edge capacity used by the recorded entry points:
/// the same prefix window as [`crate::forensics::TRACE_WINDOW`], but
/// counted in control transfers, so it covers several times more
/// instructions.
pub const RECORDER_EDGES: usize = 65_536;

/// The golden continuation of one checkpoint: the reference the faulty
/// runs of the same activation point are diffed against.
#[derive(Debug, Clone)]
pub struct GoldenContinuation {
    /// Recorded control flow from the activation point to the natural
    /// stop, shared by every report of the group.
    pub trace: Arc<FlightTrace>,
    /// How the continuation stopped (matches the golden run's stop).
    pub stop: Stop,
    /// The address space at the continuation's stop.
    pub mem: Memory,
}

/// How one faulty run diverged from the golden continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// The golden continuation's recorded control flow.
    pub golden: Arc<FlightTrace>,
    /// The faulty run's recorded control flow.
    pub faulty: FlightTrace,
    /// Index into both edge streams of the first divergent edge; `None`
    /// when the recorded control flow is identical (the error stayed in
    /// data or never propagated to an edge within the window).
    pub first_divergence: Option<usize>,
    /// Instructions retired between activation and the first divergent
    /// edge — the paper's propagation depth. `None` when control flow
    /// never diverged in the window.
    pub divergence_depth: Option<u64>,
    /// Registers differing between the two stop states.
    pub regs: Vec<RegDelta>,
    /// Memory bytes differing between the two stop states.
    pub mem: MemDelta,
    /// `write` syscalls the faulty run issued at or after the first
    /// divergent edge — messages emitted while corrupted (the study's
    /// servers only `write` to the client socket).
    pub messages_after_divergence: u64,
}

/// Diff one faulty run against its golden continuation.
pub fn diff_run(
    golden: &GoldenContinuation,
    faulty: FlightTrace,
    faulty_mem: &Memory,
) -> DivergenceReport {
    let first = first_divergence(&golden.trace.edges, &faulty.edges);
    let divergence_depth = first.map(|i| {
        // The faulty edge at the divergence point dates the departure;
        // when the faulty stream is a strict prefix (it stopped where
        // golden continued), the faulty stop itself is the departure.
        let at = faulty.edges.get(i).map_or(faulty.stop_icount, |e| e.icount);
        at.saturating_sub(faulty.start_icount)
    });
    let messages_after_divergence = first.map_or(0, |i| {
        faulty.edges[i..]
            .iter()
            .filter(|e| e.kind == EdgeKind::Syscall && e.to == sysno::WRITE)
            .count() as u64
    });
    let regs = diff_regs(&golden.trace.stop_cpu, &faulty.stop_cpu);
    let mem = diff_memory(&golden.mem, faulty_mem, MEM_SAMPLE);
    DivergenceReport {
        golden: Arc::clone(&golden.trace),
        faulty,
        first_divergence: first,
        divergence_depth,
        regs,
        mem,
        messages_after_divergence,
    }
}

/// How many differing memory bytes a report keeps verbatim.
const MEM_SAMPLE: usize = 8;

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.first_divergence {
            Some(i) => {
                let g = self.golden.edges.get(i);
                let x = self.faulty.edges.get(i);
                writeln!(
                    f,
                    "first divergent edge at index {i} (depth {} instructions)",
                    self.divergence_depth.unwrap_or(0)
                )?;
                match (g, x) {
                    (Some(g), Some(x)) => {
                        writeln!(
                            f,
                            "  golden: {:08x} -> {:08x} {}",
                            g.from,
                            g.to,
                            g.kind.label()
                        )?;
                        writeln!(
                            f,
                            "  faulty: {:08x} -> {:08x} {}",
                            x.from,
                            x.to,
                            x.kind.label()
                        )?;
                    }
                    (Some(g), None) => writeln!(
                        f,
                        "  faulty run stopped where golden ran {:08x} -> {:08x} {}",
                        g.from,
                        g.to,
                        g.kind.label()
                    )?,
                    (None, Some(x)) => writeln!(
                        f,
                        "  faulty run ran {:08x} -> {:08x} {} where golden stopped",
                        x.from,
                        x.to,
                        x.kind.label()
                    )?,
                    (None, None) => {}
                }
            }
            None => writeln!(f, "control flow never diverged in the recorded window")?,
        }
        writeln!(
            f,
            "  {} register(s) and {} memory byte(s) differ at stop; {} message write(s) after divergence",
            self.regs.len(),
            self.mem.bytes_changed,
            self.messages_after_divergence
        )?;
        for r in &self.regs {
            writeln!(
                f,
                "    {:<7} golden {:08x}  faulty {:08x}",
                r.name, r.golden, r.faulty
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_x86::recorder::Edge;
    use fisec_x86::Cpu;

    fn trace(edges: Vec<Edge>, start: u64, stop: u64) -> FlightTrace {
        FlightTrace {
            total_edges: edges.len() as u64,
            edges,
            start_cpu: Cpu::new(),
            start_icount: start,
            stop_cpu: Cpu::new(),
            stop_icount: stop,
        }
    }

    fn e(from: u32, to: u32, icount: u64, kind: EdgeKind) -> Edge {
        Edge {
            from,
            to,
            icount,
            kind,
        }
    }

    fn continuation(edges: Vec<Edge>, start: u64, stop: u64) -> GoldenContinuation {
        GoldenContinuation {
            trace: Arc::new(trace(edges, start, stop)),
            stop: Stop::Exited(0),
            mem: Memory::new(),
        }
    }

    #[test]
    fn depth_and_messages_count_from_the_divergent_edge() {
        let golden = continuation(
            vec![
                e(0x10, 0x20, 105, EdgeKind::BranchTaken),
                e(0x24, 0x30, 110, EdgeKind::Call),
                e(0x34, 0x04, 115, EdgeKind::Syscall),
            ],
            100,
            130,
        );
        let faulty = trace(
            vec![
                e(0x10, 0x20, 105, EdgeKind::BranchTaken),
                e(0x24, 0x40, 110, EdgeKind::Call), // diverges here
                e(0x44, 0x04, 113, EdgeKind::Syscall),
                e(0x48, 0x04, 118, EdgeKind::Syscall),
                e(0x4C, 0x03, 121, EdgeKind::Syscall), // read, not write
            ],
            100,
            125,
        );
        let r = diff_run(&golden, faulty, &Memory::new());
        assert_eq!(r.first_divergence, Some(1));
        assert_eq!(r.divergence_depth, Some(10));
        assert_eq!(r.messages_after_divergence, 2);
        assert!(r.regs.is_empty());
        assert_eq!(r.mem.bytes_changed, 0);
    }

    #[test]
    fn identical_streams_report_no_divergence() {
        let edges = vec![e(0x10, 0x20, 5, EdgeKind::Jump)];
        let golden = continuation(edges.clone(), 0, 10);
        let r = diff_run(&golden, trace(edges, 0, 10), &Memory::new());
        assert_eq!(r.first_divergence, None);
        assert_eq!(r.divergence_depth, None);
        assert_eq!(r.messages_after_divergence, 0);
        let text = format!("{r}");
        assert!(text.contains("never diverged"));
    }

    #[test]
    fn prefix_stop_dates_depth_at_the_faulty_stop() {
        // The faulty run crashed two edges in; golden kept going.
        let golden = continuation(
            vec![
                e(0x10, 0x20, 4, EdgeKind::Jump),
                e(0x20, 0x30, 9, EdgeKind::Jump),
                e(0x30, 0x40, 14, EdgeKind::Jump),
            ],
            0,
            20,
        );
        let faulty = trace(
            vec![
                e(0x10, 0x20, 4, EdgeKind::Jump),
                e(0x20, 0x30, 9, EdgeKind::Jump),
            ],
            0,
            12,
        );
        let r = diff_run(&golden, faulty, &Memory::new());
        assert_eq!(r.first_divergence, Some(2));
        assert_eq!(r.divergence_depth, Some(12));
    }
}
