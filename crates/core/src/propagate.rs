//! `fisec propagate`: an annotated corruption timeline of one injection.
//!
//! Where [`crate::explain`] narrates the *control-flow* story of a run
//! (the first divergent edge against the golden continuation), this
//! module narrates the *data-flow* story upstream of it: the same
//! experiment re-run with the taint tracer armed, rendered as the
//! corruption's journey from the flipped destination through registers,
//! flags and memory until it reaches a compare/branch decision, dies,
//! or the run stops.

use crate::explain::{rerun, sym};
use fisec_apps::AppSpec;
use fisec_asm::Image;
use fisec_encoding::EncodingScheme;
use fisec_inject::{kind_label, EngineOpts, PropagationReport};
use fisec_x86::taint::PropKind;
use std::fmt::Write as _;

/// Events shown from the front of the timeline before eliding.
const HEAD: usize = 24;
/// Events always kept at the tail after eliding.
const TAIL: usize = 8;

/// Trace one injection's corruption and render the timeline.
///
/// `client` is 1-based (the CLI's `--client`).
///
/// # Errors
/// A message when the client is out of range, no enumerated target
/// matches `(addr, byte_index, bit)`, or the image fails to load.
pub fn propagate(
    app: &AppSpec,
    client: usize,
    addr: u32,
    byte_index: u8,
    bit: u8,
    scheme: EncodingScheme,
) -> Result<String, String> {
    let engine = EngineOpts {
        flight_recorder: true,
        propagation: true,
        ..EngineOpts::default()
    };
    let (spec, _, (run, _, rep, preport)) =
        rerun(app, client, addr, byte_index, bit, scheme, engine)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fisec propagate: {} {} @ {:#010x} byte {} bit {} [{}] ==",
        app.name, spec.name, addr, byte_index, bit, scheme
    );
    let _ = writeln!(
        out,
        "flip: {}: corrupts the destination of this instruction",
        sym(&app.image, addr)
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
    let Some(preport) = preport else {
        let _ = writeln!(
            out,
            "the golden run never reaches this instruction: the flip cannot activate \
             and no corruption is ever born"
        );
        return Ok(out);
    };
    render_timeline(&mut out, &app.image, &preport);
    let _ = write!(out, "{preport}");
    if let Some(rep) = rep {
        let _ = writeln!(
            out,
            "control flow: {}",
            rep.first_divergence.map_or_else(
                || "never left the golden path".to_string(),
                |d| format!("first divergent edge at recorded index {d}"),
            )
        );
    }
    Ok(out)
}

/// The corruption timeline, head + tail windows around an elision.
fn render_timeline(out: &mut String, image: &Image, rep: &PropagationReport) {
    let events = &rep.log.events;
    if events.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "corruption timeline: {} event(s) recorded{}",
        events.len() as u64 + rep.log.dropped,
        if rep.log.dropped > 0 { ", capped" } else { "" }
    );
    let n = events.len();
    let elide = n > HEAD + TAIL;
    let head_end = if elide { HEAD } else { n };
    for e in &events[..head_end] {
        render_event(out, image, rep, e);
    }
    if elide {
        let _ = writeln!(out, "  ... {} intermediate event(s) ...", n - HEAD - TAIL);
        for e in &events[n - TAIL..] {
            render_event(out, image, rep, e);
        }
    }
}

fn render_event(
    out: &mut String,
    image: &Image,
    rep: &PropagationReport,
    e: &fisec_x86::taint::PropEvent,
) {
    let detail = match e.kind {
        PropKind::Write { addr, len } => format!("{len} byte(s) -> {addr:#010x}"),
        PropKind::SyscallArg { nr } => format!("nr {nr}"),
        _ => String::new(),
    };
    let _ = writeln!(
        out,
        "  +{:<8} {:08x} {:<22} {:<8} w={:<4} {:<28} {}",
        e.icount.saturating_sub(rep.activation_icount),
        e.addr,
        sym(image, e.addr),
        kind_label(e.kind),
        e.width,
        disasm(image, e.addr),
        detail
    );
}

/// Disassemble the (uncorrupted) instruction at `addr`.
fn disasm(image: &Image, addr: u32) -> String {
    let Some(off) = addr
        .checked_sub(image.text_base)
        .map(|o| o as usize)
        .filter(|&o| o < image.text.len())
    else {
        return "<outside text>".to_string();
    };
    let end = (off + 16).min(image.text.len());
    let inst = fisec_x86::decode(&image.text[off..end]);
    fisec_x86::fmt_att(&inst, addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_inject::{
        enumerate_targets, golden_run, run_injection, InjectionTarget, OutcomeClass,
    };

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
    fn propagates_a_breakin_with_corruption_timeline() {
        let app = AppSpec::ftpd();
        let t = find_target(OutcomeClass::Breakin);
        let s = propagate(
            &app,
            1,
            t.addr,
            t.byte_index,
            t.bit,
            EncodingScheme::Baseline,
        )
        .unwrap();
        assert!(s.contains("outcome: BRK"), "{s}");
        assert!(s.contains("taint seeded at activation+"), "{s}");
        assert!(s.contains("corruption timeline:"), "{s}");
        assert!(s.contains("seed"), "{s}");
        assert!(s.contains("control flow:"), "{s}");
    }

    #[test]
    fn propagates_a_never_activated_target() {
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
        let s = propagate(
            &app,
            1,
            t.addr,
            t.byte_index,
            t.bit,
            EncodingScheme::Baseline,
        )
        .unwrap();
        assert!(s.contains("outcome: NA"), "{s}");
        assert!(s.contains("no corruption is ever born"), "{s}");
        assert!(!s.contains("corruption timeline"), "{s}");
    }

    #[test]
    fn rejects_unknown_target_and_client() {
        let app = AppSpec::ftpd();
        let e = propagate(&app, 1, 0xdead_beef, 0, 0, EncodingScheme::Baseline).unwrap_err();
        assert!(e.contains("no injection target"), "{e}");
        let t = enumerate_targets(&app.image, &app.auth_funcs, false).targets[0];
        let e = propagate(
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
