//! `fisec explain`: an annotated timeline of one injection.
//!
//! Re-runs a single (address, byte, bit) experiment with the flight
//! recorder on, diffs the faulty run against the golden continuation
//! and renders a disassembly-annotated timeline around the first
//! divergent control-flow edge — the per-run narrative behind the
//! paper's §5.4 crash-latency and fail-silence discussion.

use fisec_apps::{AppSpec, ClientSpec};
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_inject::{
    enumerate_targets, golden_run_opts, run_injection_recorded, DivergenceReport, EngineOpts,
    GroupRun, InjectionTarget,
};
use fisec_os::sysno;
use fisec_x86::recorder::Edge;
use fisec_x86::EdgeKind;
use std::fmt::Write as _;

/// Edges of context shown on each side of the divergence point.
const CONTEXT: usize = 8;

/// Explain one injection: run it recorded and render the timeline.
///
/// `client` is 1-based (the CLI's `--client`).
///
/// # Errors
/// A message when the client is out of range, no enumerated target
/// matches `(addr, byte_index, bit)`, or the image fails to load.
pub fn explain(
    app: &AppSpec,
    client: usize,
    addr: u32,
    byte_index: u8,
    bit: u8,
    scheme: EncodingScheme,
) -> Result<String, String> {
    let engine = EngineOpts {
        flight_recorder: true,
        ..EngineOpts::default()
    };
    let (spec, target, (run, _, rep, _)) =
        rerun(app, client, addr, byte_index, bit, scheme, engine)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fisec explain: {} {} @ {:#010x} byte {} bit {} [{}] ==",
        app.name, spec.name, addr, byte_index, bit, scheme
    );
    let _ = writeln!(
        out,
        "flip: {}: {}  ->  {}",
        sym(&app.image, addr),
        disasm(&app.image, &target, scheme, addr, false),
        disasm(&app.image, &target, scheme, addr, true)
    );
    let _ = writeln!(
        out,
        "outcome: {}  stop: {}  client: {:?}{}",
        run.outcome.abbrev(),
        run.stop,
        run.client,
        run.crash_latency
            .map_or_else(String::new, |l| format!("  crash latency: {l}"))
    );
    let Some(rep) = rep else {
        let _ = writeln!(
            out,
            "the golden run never reaches this instruction: the flip cannot activate \
             and the run is identical to golden"
        );
        return Ok(out);
    };
    render_timeline(&mut out, &app.image, &target, scheme, &rep);
    let _ = write!(out, "{rep}");
    Ok(out)
}

/// Run the enumerated target at `(addr, byte_index, bit)` once from a
/// fresh boot with `engine`'s observers, against a golden run booted
/// with the same options: the experiment `fisec explain` and
/// `fisec propagate` narrate. `client` is 1-based (the CLI's
/// `--client`).
/// A `byte_index` past the instruction at `addr` is an argument error
/// (it would flip the *next* instruction), not an enumeration miss.
pub(crate) fn rerun(
    app: &AppSpec,
    client: usize,
    addr: u32,
    byte_index: u8,
    bit: u8,
    scheme: EncodingScheme,
    engine: EngineOpts,
) -> Result<(&ClientSpec, InjectionTarget, GroupRun), String> {
    let image = &app.image;
    if let Some(off) = addr
        .checked_sub(image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < image.text.len())
    {
        let end = (off + 16).min(image.text.len());
        let len = fisec_x86::decode(&image.text[off..end]).len;
        if byte_index >= len {
            return Err(format!(
                "--byte {byte_index} out of range: the instruction at {addr:#010x} is {len} \
                 byte(s) long (valid bytes: 0..={})",
                len - 1
            ));
        }
    }
    let spec = app.clients.get(client.wrapping_sub(1)).ok_or_else(|| {
        format!(
            "--client {client} out of range (valid: 1..={})",
            app.clients.len()
        )
    })?;
    let set = enumerate_targets(&app.image, &app.auth_funcs, false);
    let target = *set
        .targets
        .iter()
        .find(|t| t.addr == addr && t.byte_index == byte_index && t.bit == bit)
        .ok_or_else(|| {
            format!(
                "no injection target at {addr:#010x} byte {byte_index} bit {bit} \
                 (see `fisec targets` / `fisec disasm` for the enumerated set)"
            )
        })?;
    let golden = golden_run_opts(&app.image, spec, engine).map_err(|e| e.to_string())?;
    let (runs, ..) = run_injection_recorded(&app.image, spec, &golden, &target, scheme, engine)
        .map_err(|e| e.to_string())?;
    let run = runs
        .into_iter()
        .next()
        .expect("a single run yields one run");
    Ok((spec, target, run))
}

/// The annotated edge window around the first divergence.
fn render_timeline(
    out: &mut String,
    image: &Image,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    rep: &DivergenceReport,
) {
    let edges = &rep.faulty.edges;
    let n = edges.len();
    let (lo, hi) = match rep.first_divergence {
        Some(i) => (i.saturating_sub(CONTEXT), (i + CONTEXT + 1).min(n)),
        None => (0, n.min(2 * CONTEXT + 1)),
    };
    let _ = writeln!(
        out,
        "timeline: {} edges recorded{} (= shared with golden, ! first divergent, > corrupted)",
        rep.faulty.total_edges,
        if rep.faulty.truncated() {
            ", window truncated"
        } else {
            ""
        }
    );
    if lo > 0 {
        let _ = writeln!(out, "  ... {lo} earlier edges shared with golden ...");
    }
    for (i, e) in edges.iter().enumerate().take(hi).skip(lo) {
        let marker = match rep.first_divergence {
            Some(d) if i == d => '!',
            Some(d) if i > d => '>',
            _ => '=',
        };
        let _ = writeln!(
            out,
            "  {marker} +{:<8} {:08x} {:<22} {:<30} {}",
            e.icount.saturating_sub(rep.faulty.start_icount),
            e.from,
            sym(image, e.from),
            disasm(image, target, scheme, e.from, true),
            describe_to(image, e)
        );
        if rep.first_divergence == Some(i) {
            match rep.golden.edges.get(i) {
                Some(g) => {
                    let _ = writeln!(
                        out,
                        "    golden instead: {:08x} {:<22} {}",
                        g.from,
                        sym(image, g.from),
                        describe_to(image, g)
                    );
                }
                None => {
                    let _ = writeln!(out, "    golden had already stopped here");
                }
            }
        }
    }
    if hi < n {
        let _ = writeln!(out, "  ... {} later edges ...", n - hi);
    }
    if rep.first_divergence.is_some_and(|d| d >= n) {
        // The faulty stream is a strict prefix of golden's.
        if let Some(g) = rep.golden.edges.get(n) {
            let _ = writeln!(
                out,
                "  ! faulty run stopped; golden instead: {:08x} {:<22} {}",
                g.from,
                sym(image, g.from),
                describe_to(image, g)
            );
        }
    }
}

/// `func+0xoff` for a text address, or the raw hex outside any symbol.
pub(crate) fn sym(image: &Image, addr: u32) -> String {
    image
        .symbols
        .funcs
        .iter()
        .find(|f| (f.start..f.end).contains(&addr))
        .map_or_else(
            || format!("{addr:#010x}"),
            |f| format!("{}+{:#x}", f.name, addr - f.start),
        )
}

/// One edge's destination, in the kind's own terms.
fn describe_to(image: &Image, e: &Edge) -> String {
    match e.kind {
        EdgeKind::Syscall => {
            let name = match e.to {
                sysno::EXIT => " exit",
                sysno::READ => " read",
                sysno::WRITE => " write",
                _ => "",
            };
            format!("syscall({}{name})", e.to)
        }
        EdgeKind::Fault => "faults".to_string(),
        _ => format!("{} -> {:08x} {}", e.kind.label(), e.to, sym(image, e.to)),
    }
}

/// Disassemble the instruction at `addr` as the faulty run saw it:
/// with the bit flip applied when `addr` is the injected instruction
/// (and `flipped` asks for the corrupted view).
fn disasm(
    image: &Image,
    target: &InjectionTarget,
    scheme: EncodingScheme,
    addr: u32,
    flipped: bool,
) -> String {
    let Some(off) = addr
        .checked_sub(image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < image.text.len())
    else {
        return "<outside text>".to_string();
    };
    let end = (off + 16).min(image.text.len());
    let mut bytes = image.text[off..end].to_vec();
    if flipped && addr == target.addr && (target.byte_index as usize) < bytes.len() {
        let i = target.byte_index as usize;
        bytes[i] = target.flip(bytes[i], scheme);
    }
    let inst = fisec_x86::decode(&bytes);
    fisec_x86::fmt_att(&inst, addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_inject::{golden_run, run_injection, OutcomeClass};

    /// First opcode-byte flip with the wanted outcome on ftpd Client1.
    fn find_target(outcome: OutcomeClass) -> InjectionTarget {
        let app = AppSpec::ftpd();
        let spec = &app.clients[0];
        let golden = golden_run(&app.image, spec).unwrap();
        let set = enumerate_targets(&app.image, &app.auth_funcs, false);
        for t in set.targets.iter().filter(|t| t.byte_index == 0) {
            let r = run_injection(&app.image, spec, &golden, t, EncodingScheme::Baseline).unwrap();
            if r.outcome == outcome {
                return *t;
            }
        }
        panic!("no {outcome:?} opcode flip found");
    }

    #[test]
    fn explains_a_breakin_with_divergent_timeline() {
        let app = AppSpec::ftpd();
        let t = find_target(OutcomeClass::Breakin);
        let s = explain(
            &app,
            1,
            t.addr,
            t.byte_index,
            t.bit,
            EncodingScheme::Baseline,
        )
        .unwrap();
        assert!(s.contains("outcome: BRK"), "{s}");
        assert!(s.contains("flip: "), "{s}");
        assert!(s.contains("timeline: "), "{s}");
        // The corrupted path diverges and the golden alternative shows.
        assert!(s.contains("first divergent edge"), "{s}");
        assert!(s.contains("golden"), "{s}");
        // Addresses resolve to auth-path symbols.
        assert!(s.contains('+'), "{s}");
    }

    #[test]
    fn explains_a_never_activated_target() {
        // An enumerated instruction the denied Client1's golden run
        // never executes (found via the coverage set).
        let app = AppSpec::ftpd();
        let (_, cov) = fisec_inject::golden_run_with_coverage_opts(
            &app.image,
            &app.clients[0],
            EngineOpts::default(),
        )
        .unwrap();
        let set = enumerate_targets(&app.image, &app.auth_funcs, false);
        let t = *set
            .targets
            .iter()
            .find(|t| !cov.contains(&t.addr))
            .expect("some enumerated instruction is never executed");
        let s = explain(
            &app,
            1,
            t.addr,
            t.byte_index,
            t.bit,
            EncodingScheme::Baseline,
        )
        .unwrap();
        assert!(s.contains("outcome: NA"), "{s}");
        assert!(s.contains("never reaches"), "{s}");
        assert!(!s.contains("timeline"), "{s}");
    }

    #[test]
    fn rejects_unknown_target_and_client() {
        let app = AppSpec::ftpd();
        let e = explain(&app, 1, 0xdead_beef, 0, 0, EncodingScheme::Baseline).unwrap_err();
        assert!(e.contains("no injection target"), "{e}");
        let t = enumerate_targets(&app.image, &app.auth_funcs, false).targets[0];
        let e = explain(
            &app,
            9,
            t.addr,
            t.byte_index,
            t.bit,
            EncodingScheme::Baseline,
        )
        .unwrap_err();
        assert!(e.contains("out of range"), "{e}");
    }
}
