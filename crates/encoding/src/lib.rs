//! # fisec-encoding — the paper's new branch-instruction encoding (§6)
//!
//! The root cause of the study's security break-ins is that IA-32 encodes
//! its conditional branches *contiguously*: the 2-byte forms occupy
//! `0x70..=0x7F` and the 6-byte forms `0x0F 0x80..=0x8F`, so every pair of
//! opposite conditions (`je`/`jne`, …) differs in exactly one bit. A
//! single-bit error flips a denial into a grant.
//!
//! The paper's fix re-encodes the branch block so the minimum pairwise
//! Hamming distance becomes two: **bit 4 of the (second) opcode byte is
//! replaced by an odd-parity bit over the low nibble**. Branch encodings
//! that collide with existing non-branch opcodes swap places with them
//! (e.g. `jno` takes `0x61` and `popa` moves to `0x71`), which makes the
//! whole old↔new mapping an *involution* over bytes.
//!
//! Evaluation trick (§6.2): rather than building a new CPU, an injection
//! under the new encoding maps the target byte old→new, flips the chosen
//! bit there, and maps the result new→old for execution on the unchanged
//! CPU. [`remap_flip`] implements exactly that walk-through (the paper's
//! `je 0x74 → 0x64 → flip → 0x65 → 0x65` example is a doctest below).

pub mod new_isa;

pub use new_isa::{decode_new_isa, reencode_image_text};

use std::fmt;

/// Compute the re-encoded opcode byte: bit 4 := odd parity of the low
/// nibble (set when the low nibble has an even number of ones).
fn parity_reencode(b: u8) -> u8 {
    let low = b & 0x0F;
    let parity_bit = u8::from(low.count_ones().is_multiple_of(2));
    (b & 0xEF) | (parity_bit << 4)
}

/// Build the byte involution for a 16-opcode branch block starting at
/// `block` (`0x70` for the 2-byte forms, `0x80` for the second byte of
/// the 6-byte forms).
fn build_involution(block: u8) -> [u8; 256] {
    let mut map = [0u8; 256];
    for (i, m) in map.iter_mut().enumerate() {
        *m = i as u8;
    }
    for b in block..=block + 0x0F {
        let n = parity_reencode(b);
        if n != b {
            // The displaced non-branch opcode swaps into the vacated slot.
            map[b as usize] = n;
            map[n as usize] = b;
        }
    }
    map
}

/// Which byte of an instruction an injection hits, for mapping purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteCtx {
    /// The first opcode byte of a non-`0x0F`-prefixed instruction.
    OneByteOpcode,
    /// The byte after a `0x0F` escape (second opcode byte).
    SecondOpcodeByte,
    /// Operand/displacement/immediate bytes — unaffected by the mapping.
    Other,
}

/// The paper's two encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodingScheme {
    /// Stock IA-32 (contiguous branch opcodes, Hamming distance 1).
    #[default]
    Baseline,
    /// The §6.1 parity re-encoding (Hamming distance ≥ 2 within the
    /// branch block).
    NewEncoding,
}

impl fmt::Display for EncodingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingScheme::Baseline => write!(f, "baseline x86"),
            EncodingScheme::NewEncoding => write!(f, "new parity encoding"),
        }
    }
}

impl EncodingScheme {
    /// Every scheme, baseline first.
    pub const ALL: [EncodingScheme; 2] = [EncodingScheme::Baseline, EncodingScheme::NewEncoding];

    /// Short, filename-safe identity tag. Benchmark result lines are
    /// labelled with it and [`EncodingScheme::by_name`] accepts it, so
    /// the tag for an existing scheme must never change — add new tags
    /// for new schemes instead. The campaign cache neither keys nor names
    /// stores by it: a store's rows are keyed by the byte each flip
    /// plants, which is all a scheme changes.
    pub fn cache_tag(self) -> &'static str {
        match self {
            EncodingScheme::Baseline => "base",
            EncodingScheme::NewEncoding => "newenc",
        }
    }

    /// The scheme whose display label (as trace and ledger headers
    /// record it) or cache tag is `name`.
    pub fn by_name(name: &str) -> Option<EncodingScheme> {
        EncodingScheme::ALL
            .into_iter()
            .find(|s| s.to_string() == name || s.cache_tag() == name)
    }
}

/// Old→new (and equally new→old) byte mapping for one-byte opcodes.
pub fn map_1byte(b: u8) -> u8 {
    static MAP: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    MAP.get_or_init(|| build_involution(0x70))[b as usize]
}

/// Old→new byte mapping for the second opcode byte of `0x0F`-prefixed
/// instructions.
pub fn map_0f_second(b: u8) -> u8 {
    static MAP: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    MAP.get_or_init(|| build_involution(0x80))[b as usize]
}

/// Inject a single-bit error into `byte` under the chosen scheme.
///
/// Baseline: plain bit flip. New encoding: map old→new, flip, map
/// new→old (§6.2).
///
/// ```
/// use fisec_encoding::{remap_flip, ByteCtx, EncodingScheme};
/// // The paper's walk-through: je (0x74) maps to 0x64; flipping the
/// // least-significant bit gives 0x65, which maps back to 0x65 — a
/// // segment-override prefix rather than the opposite branch.
/// let b = remap_flip(0x74, 0, ByteCtx::OneByteOpcode, EncodingScheme::NewEncoding);
/// assert_eq!(b, 0x65);
/// // And the reverse example: old 0x65 → new 0x65 → flip lsb → 0x64 →
/// // back to old je 0x74.
/// let b = remap_flip(0x65, 0, ByteCtx::OneByteOpcode, EncodingScheme::NewEncoding);
/// assert_eq!(b, 0x74);
/// // Under the baseline, je flips straight to jne.
/// let b = remap_flip(0x74, 0, ByteCtx::OneByteOpcode, EncodingScheme::Baseline);
/// assert_eq!(b, 0x75);
/// ```
pub fn remap_flip(byte: u8, bit: u8, ctx: ByteCtx, scheme: EncodingScheme) -> u8 {
    assert!(bit < 8, "bit index out of range");
    let flip = |b: u8| b ^ (1 << bit);
    match scheme {
        EncodingScheme::Baseline => flip(byte),
        EncodingScheme::NewEncoding => match ctx {
            ByteCtx::OneByteOpcode => map_1byte(flip(map_1byte(byte))),
            ByteCtx::SecondOpcodeByte => map_0f_second(flip(map_0f_second(byte))),
            ByteCtx::Other => flip(byte),
        },
    }
}

/// One row of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// Mnemonic ("JO", "JNO", ...).
    pub mnemonic: &'static str,
    /// 2-byte form, old encoding.
    pub two_old: u8,
    /// 2-byte form, new encoding.
    pub two_new: u8,
    /// Second opcode byte of the 6-byte form, old encoding.
    pub six_old: u8,
    /// Second opcode byte of the 6-byte form, new encoding.
    pub six_new: u8,
}

/// The sixteen conditional-branch mnemonics in opcode order (the paper's
/// Table 4 uses JNB/JNA/JNL/JNG where Intel prefers JAE/JBE/JGE/JLE).
pub const MNEMONICS: [&str; 16] = [
    "JO", "JNO", "JB", "JNB", "JE", "JNE", "JNA", "JA", "JS", "JNS", "JP", "JNP", "JL", "JNL",
    "JNG", "JG",
];

/// Regenerate the paper's Table 4 from the mapping functions.
pub fn table4() -> Vec<Table4Row> {
    (0u8..16)
        .map(|i| Table4Row {
            mnemonic: MNEMONICS[i as usize],
            two_old: 0x70 + i,
            two_new: map_1byte(0x70 + i),
            six_old: 0x80 + i,
            six_new: map_0f_second(0x80 + i),
        })
        .collect()
}

/// Hamming distance between two bytes.
pub fn hamming(a: u8, b: u8) -> u32 {
    (a ^ b).count_ones()
}

/// Minimum pairwise Hamming distance within a set of opcode bytes.
/// Returns `None` for sets with fewer than two elements.
pub fn min_pairwise_hd(set: &[u8]) -> Option<u32> {
    let mut min = None;
    for (i, a) in set.iter().enumerate() {
        for b in &set[i + 1..] {
            let d = hamming(*a, *b);
            min = Some(min.map_or(d, |m: u32| m.min(d)));
        }
    }
    min
}

/// Render Table 4 in the paper's layout.
pub fn render_table4() -> String {
    let mut out = String::from("Mnemonic  2-byte Old  2-byte New  6-byte Old  6-byte New\n");
    for r in table4() {
        out.push_str(&format!(
            "{:<9} {:<11} {:<11} 0F {:<8} 0F {:<8}\n",
            r.mnemonic,
            format!("{:02X}", r.two_old),
            format!("{:02X}", r.two_new),
            format!("{:02X}", r.six_old),
            format!("{:02X}", r.six_new),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 4, verbatim, as the expected fixture.
    const PAPER_2BYTE_NEW: [u8; 16] = [
        0x70, 0x61, 0x62, 0x73, 0x64, 0x75, 0x76, 0x67, 0x68, 0x79, 0x7A, 0x6B, 0x7C, 0x6D, 0x6E,
        0x7F,
    ];
    const PAPER_6BYTE_NEW: [u8; 16] = [
        0x90, 0x81, 0x82, 0x93, 0x84, 0x95, 0x96, 0x87, 0x88, 0x99, 0x9A, 0x8B, 0x9C, 0x8D, 0x8E,
        0x9F,
    ];

    #[test]
    fn table4_matches_paper_exactly() {
        for (i, row) in table4().iter().enumerate() {
            assert_eq!(
                row.two_new, PAPER_2BYTE_NEW[i],
                "2-byte row {} ({})",
                i, row.mnemonic
            );
            assert_eq!(
                row.six_new, PAPER_6BYTE_NEW[i],
                "6-byte row {} ({})",
                i, row.mnemonic
            );
        }
    }

    #[test]
    fn mapping_is_involution() {
        for b in 0u16..=255 {
            let b = b as u8;
            assert_eq!(map_1byte(map_1byte(b)), b, "1byte {b:#04x}");
            assert_eq!(map_0f_second(map_0f_second(b)), b, "0f {b:#04x}");
        }
    }

    #[test]
    fn old_branch_block_has_distance_one() {
        let old: Vec<u8> = (0x70..=0x7F).collect();
        assert_eq!(min_pairwise_hd(&old), Some(1));
    }

    #[test]
    fn new_branch_block_has_distance_two() {
        let new: Vec<u8> = (0x70u8..=0x7F).map(map_1byte).collect();
        assert_eq!(min_pairwise_hd(&new), Some(2));
        let new6: Vec<u8> = (0x80u8..=0x8F).map(map_0f_second).collect();
        assert_eq!(min_pairwise_hd(&new6), Some(2));
    }

    #[test]
    fn no_single_bit_flip_maps_branch_to_branch_under_new_encoding() {
        // The headline property: under the new encoding, no single-bit
        // error can turn one conditional branch into another.
        for old in 0x70u8..=0x7F {
            for bit in 0..8 {
                let result = remap_flip(
                    old,
                    bit,
                    ByteCtx::OneByteOpcode,
                    EncodingScheme::NewEncoding,
                );
                if (0x70..=0x7F).contains(&result) {
                    assert_eq!(
                        result, old,
                        "flip bit {bit} of {old:#04x} reached branch {result:#04x}"
                    );
                }
            }
        }
        for old in 0x80u8..=0x8F {
            for bit in 0..8 {
                let result = remap_flip(
                    old,
                    bit,
                    ByteCtx::SecondOpcodeByte,
                    EncodingScheme::NewEncoding,
                );
                if (0x80..=0x8F).contains(&result) {
                    assert_eq!(result, old);
                }
            }
        }
    }

    #[test]
    fn baseline_je_jne_adjacent() {
        assert_eq!(
            remap_flip(0x74, 0, ByteCtx::OneByteOpcode, EncodingScheme::Baseline),
            0x75
        );
        assert_eq!(hamming(0x74, 0x75), 1);
    }

    #[test]
    fn paper_walkthrough_examples() {
        // je 0x74 -> new 0x64, flip lsb -> 0x65, back -> 0x65.
        assert_eq!(map_1byte(0x74), 0x64);
        assert_eq!(
            remap_flip(0x74, 0, ByteCtx::OneByteOpcode, EncodingScheme::NewEncoding),
            0x65
        );
        // 0x65 -> 0x65, flip lsb -> 0x64, back -> 0x74 (je).
        assert_eq!(map_1byte(0x65), 0x65);
        assert_eq!(
            remap_flip(0x65, 0, ByteCtx::OneByteOpcode, EncodingScheme::NewEncoding),
            0x74
        );
    }

    #[test]
    fn swapped_non_branch_opcodes() {
        // jno takes 0x61; popa moves to 0x71.
        assert_eq!(map_1byte(0x71), 0x61);
        assert_eq!(map_1byte(0x61), 0x71);
        // setcc space swaps for the 6-byte forms: 0F 80 <-> 0F 90.
        assert_eq!(map_0f_second(0x80), 0x90);
        assert_eq!(map_0f_second(0x90), 0x80);
    }

    #[test]
    fn operand_bytes_unaffected() {
        for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
            assert_eq!(remap_flip(0xAB, 3, ByteCtx::Other, scheme), 0xAB ^ 0x08);
        }
    }

    #[test]
    fn unrelated_opcodes_unchanged_by_mapping() {
        for b in [0x00u8, 0x50, 0x89, 0xC3, 0xE8, 0xFF] {
            assert_eq!(map_1byte(b), b, "{b:#04x}");
        }
    }

    #[test]
    fn render_table4_contains_key_rows() {
        let s = render_table4();
        assert!(s.contains("JE"));
        assert!(s.contains("74"));
        assert!(s.contains("64"));
        assert!(s.lines().count() >= 17);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_out_of_range_panics() {
        let _ = remap_flip(0x74, 8, ByteCtx::Other, EncodingScheme::Baseline);
    }
}
