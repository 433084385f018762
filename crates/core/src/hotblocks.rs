//! Ranked hot-block rendering: the `fisec profile` table, shared with
//! the HTML report.
//!
//! The interpreter's [`fisec_telemetry::ProfileData`] says *where*
//! guest time went — per-block dispatch/retire tallies, the op shapes
//! that still fall back to the stepwise interpreter, and block-cache
//! traffic. This module turns it into the observatory's ranked table:
//! blocks ordered by retired instructions, annotated with the owning
//! function symbol and the disassembly of their first instruction, then
//! the residual slow-path breakdown and the cache bottom line.

use fisec_asm::Image;
use fisec_telemetry::{HotBlock, ProfileData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Rows shown in the ranked table when the caller has no preference.
pub const DEFAULT_TOP: usize = 20;

/// `func+0xoff` for a text address, or the raw hex outside any symbol.
fn sym(image: &Image, addr: u32) -> String {
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

/// AT&T disassembly of the single instruction at `addr`.
fn disasm_at(image: &Image, addr: u32) -> String {
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

/// Render the ranked hot-block table for one campaign profile.
///
/// Blocks are ordered by retired instructions (ties by address);
/// `image` adds the symbol and leading-instruction annotation when the
/// caller can name the binary the profile came from. Always followed by
/// the slow-path op-shape breakdown and the block-cache bottom line, so
/// the table answers both "where did guest time go" and "what still
/// escapes the block engine".
pub fn render_hot_blocks(data: &ProfileData, image: Option<&Image>, top: usize) -> String {
    let mut out = String::new();
    if data.is_empty() {
        out.push_str("profile is empty (campaign ran without --profile?)\n");
        return out;
    }
    let total = data.total_retired();
    let in_blocks: u64 = data.blocks.iter().map(|b| b.retired).sum();
    let _ = writeln!(
        out,
        "== hot blocks: {} blocks, {} instructions retired ({} in blocks, {} stepwise) ==",
        data.blocks.len(),
        total,
        in_blocks,
        data.stepwise_retired
    );

    let mut ranked: Vec<&HotBlock> = data.blocks.iter().collect();
    ranked.sort_by(|a, b| b.retired.cmp(&a.retired).then(a.addr.cmp(&b.addr)));
    if !ranked.is_empty() {
        let _ = writeln!(
            out,
            "{:>4}  {:<10}  {:<22} {:>10} {:>11} {:>7}  leading instruction",
            "rank", "addr", "symbol", "dispatches", "retired", "%total"
        );
    }
    for (i, b) in ranked.iter().take(top).enumerate() {
        let pct = if total == 0 {
            0.0
        } else {
            b.retired as f64 * 100.0 / total as f64
        };
        let (symbol, lead) = match image {
            Some(img) => (sym(img, b.addr), disasm_at(img, b.addr)),
            None => (format!("{:#010x}", b.addr), String::new()),
        };
        let _ = writeln!(
            out,
            "{:>4}  {:#010x}  {:<22} {:>10} {:>11} {:>6.1}%  {}",
            i + 1,
            b.addr,
            symbol,
            b.dispatches,
            b.retired,
            pct,
            lead
        );
    }
    if ranked.len() > top {
        let _ = writeln!(out, "      ... {} more blocks", ranked.len() - top);
    }

    let shapes = data.slow_by_shape();
    if shapes.is_empty() {
        out.push_str("slow path: never taken\n");
    } else {
        out.push_str("slow-path ops (executed stepwise, outside any cached block):\n");
        for (shape, count, sites) in &shapes {
            let _ = writeln!(out, "  {shape:<28} {count:>10} hits  {sites:>4} sites");
        }
    }

    let lookups = data.cache_hits + data.cache_built;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        data.cache_hits as f64 * 100.0 / lookups as f64
    };
    let _ = writeln!(
        out,
        "block cache: {} built, {} hits ({hit_rate:.1}% hit rate), {} invalidated, {} conflict evictions",
        data.cache_built, data.cache_hits, data.cache_invalidated, data.cache_conflict_evictions
    );
    out
}

/// Render the residual slow-path delta between a profile and an earlier
/// baseline profile of the same binary: per op shape, the baseline and
/// current hit counts, tagging shapes whose slow path disappeared as
/// `lowered since baseline` (the burn-down `fisec profile --baseline`
/// reports) and shapes the baseline never saw as `new`.
pub fn render_slow_delta(data: &ProfileData, baseline: &ProfileData) -> String {
    let now: BTreeMap<String, u64> = data
        .slow_by_shape()
        .into_iter()
        .map(|(shape, count, _)| (shape, count))
        .collect();
    let before = baseline.slow_by_shape();
    let mut out = String::new();
    out.push_str("slow-path delta vs baseline:\n");
    let mut lowered = 0usize;
    for (shape, was, _) in &before {
        let is = now.get(shape).copied().unwrap_or(0);
        let tag = if is == 0 && *was > 0 {
            lowered += 1;
            "  lowered since baseline"
        } else if is < *was {
            "  reduced"
        } else {
            ""
        };
        let _ = writeln!(out, "  {shape:<28} {was:>10} -> {is:>10}{tag}");
    }
    for (shape, count) in &now {
        if !before.iter().any(|(s, _, _)| s == shape) {
            let _ = writeln!(out, "  {shape:<28} {:>10} -> {count:>10}  new", 0);
        }
    }
    let _ = writeln!(
        out,
        "  {} of {} baseline shapes lowered since baseline",
        lowered,
        before.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_telemetry::SlowShape;

    fn sample() -> ProfileData {
        ProfileData {
            blocks: vec![
                HotBlock {
                    addr: 0x0804_8000,
                    dispatches: 10,
                    retired: 50,
                },
                HotBlock {
                    addr: 0x0804_9000,
                    dispatches: 100,
                    retired: 900,
                },
            ],
            slow: vec![SlowShape {
                addr: 0x0804_8100,
                shape: "div32 r/m32".to_string(),
                count: 7,
            }],
            stepwise_retired: 50,
            cache_built: 2,
            cache_hits: 108,
            cache_invalidated: 1,
            cache_conflict_evictions: 3,
        }
    }

    #[test]
    fn ranks_blocks_by_retired_and_reports_cache() {
        let s = render_hot_blocks(&sample(), None, 10);
        let first = s
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(first.contains("0x08049000"), "{s}");
        assert!(s.contains("div32 r/m32"), "{s}");
        assert!(s.contains("7 hits"), "{s}");
        assert!(
            s.contains("2 built, 108 hits (98.2% hit rate), 1 invalidated, 3 conflict evictions"),
            "{s}"
        );
        assert!(
            s.contains("1000 instructions retired (950 in blocks, 50 stepwise)"),
            "{s}"
        );
    }

    #[test]
    fn saved_profiles_with_trace_fields_still_render() {
        // The checked-in trace was written by a build with a trace
        // cache, so its profile event carries `hot_traces` and the
        // `trace_*` counters. `fisec profile TRACE` reads it this way.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures/report_trace.jsonl");
        let fixture = std::fs::read_to_string(&path).unwrap();
        assert!(fixture.contains(r#""hot_traces":[]"#), "fixture changed");
        let replay = crate::trace::read_trace(&path).unwrap();
        let p = replay.campaigns[0].profile.as_ref().expect("profile event");
        let s = render_hot_blocks(&p.data, None, 10);
        assert!(
            s.contains("2 blocks, 5300 instructions retired (5264 in blocks, 36 stepwise)"),
            "{s}"
        );
        assert!(s.contains("rep movsb"), "{s}");
        assert!(!s.contains("trace"), "{s}");
    }

    #[test]
    fn slow_delta_reports_lowered_shapes() {
        let baseline = ProfileData {
            slow: vec![
                SlowShape {
                    addr: 0x1000,
                    shape: "div32 r/m32".to_string(),
                    count: 17_186,
                },
                SlowShape {
                    addr: 0x2000,
                    shape: "shl32 r32, imm".to_string(),
                    count: 400,
                },
            ],
            ..ProfileData::default()
        };
        let now = ProfileData {
            slow: vec![
                SlowShape {
                    addr: 0x2000,
                    shape: "shl32 r32, imm".to_string(),
                    count: 400,
                },
                SlowShape {
                    addr: 0x3000,
                    shape: "rep movs8".to_string(),
                    count: 9,
                },
            ],
            ..ProfileData::default()
        };
        let s = render_slow_delta(&now, &baseline);
        let div = s.lines().find(|l| l.contains("div32 r/m32")).unwrap();
        assert!(
            div.contains("17186 ->          0  lowered since baseline"),
            "{s}"
        );
        let shl = s.lines().find(|l| l.contains("shl32")).unwrap();
        assert!(!shl.contains("lowered"), "{s}");
        let new = s.lines().find(|l| l.contains("rep movs8")).unwrap();
        assert!(new.trim_end().ends_with("new"), "{s}");
        assert!(s.contains("1 of 2 baseline shapes lowered"), "{s}");
    }

    #[test]
    fn truncates_past_top_and_handles_empty() {
        let s = render_hot_blocks(&sample(), None, 1);
        assert!(s.contains("... 1 more blocks"), "{s}");
        assert!(!s.contains("0x08048000"), "{s}");
        let s = render_hot_blocks(&ProfileData::default(), None, 5);
        assert!(s.contains("profile is empty"), "{s}");
    }

    #[test]
    fn annotates_with_symbols_and_disassembly_when_an_image_is_given() {
        let app = fisec_apps::AppSpec::ftpd();
        let f = app.image.symbols.funcs.first().unwrap();
        let data = ProfileData {
            blocks: vec![HotBlock {
                addr: f.start,
                dispatches: 1,
                retired: 4,
            }],
            ..ProfileData::default()
        };
        let s = render_hot_blocks(&data, Some(&app.image), 5);
        assert!(s.contains(&format!("{}+0x0", f.name)), "{s}");
        // The leading-instruction column is non-empty disassembly.
        let row = s
            .lines()
            .find(|l| l.trim_start().starts_with("1 "))
            .unwrap();
        assert!(row.trim_end().len() > row.find('%').unwrap() + 2, "{s}");
    }
}
