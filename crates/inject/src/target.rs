//! Injection-target enumeration: every bit of every control-transfer
//! instruction in the selected functions ("selective exhaustive
//! injection", paper §4).

use crate::location::ErrorLocation;
use fisec_asm::Image;
use fisec_encoding::{remap_flip, ByteCtx, EncodingScheme};

/// One (instruction, byte, bit) injection coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionTarget {
    /// Address of the targeted instruction.
    pub addr: u32,
    /// Encoded length of the instruction.
    pub inst_len: u8,
    /// Byte within the instruction (0-based).
    pub byte_index: u8,
    /// Bit within the byte (0 = least significant).
    pub bit: u8,
    /// First byte of the instruction (distinguishes `0x0F` escapes for
    /// the §6.2 mapping).
    pub first_byte: u8,
    /// Location class for Tables 2/3.
    pub location: ErrorLocation,
    /// True when the instruction is a conditional branch.
    pub is_cond_branch: bool,
}

impl InjectionTarget {
    /// The §6.2 mapping context of the corrupted byte: the opcode byte,
    /// the second opcode byte after a `0x0F` escape, or any other byte.
    pub(crate) fn byte_ctx(&self) -> ByteCtx {
        if self.byte_index == 0 {
            ByteCtx::OneByteOpcode
        } else if self.byte_index == 1 && self.first_byte == 0x0F {
            ByteCtx::SecondOpcodeByte
        } else {
            ByteCtx::Other
        }
    }

    /// `orig`, the pristine byte `byte_index` bytes into the targeted
    /// instruction, with this target's bit flipped under `scheme`
    /// (through the §6.2 old→new→flip→new→old mapping for the new
    /// encoding).
    pub fn flip(&self, orig: u8, scheme: EncodingScheme) -> u8 {
        remap_flip(orig, self.bit, self.byte_ctx(), scheme)
    }
}

/// The target set for one application: all bits of all control-transfer
/// instructions in the selected functions.
#[derive(Debug, Clone, Default)]
pub struct TargetSet {
    /// Flattened (instruction × byte × bit) coordinates.
    pub targets: Vec<InjectionTarget>,
    /// Number of distinct instructions covered.
    pub instructions: usize,
    /// Number of conditional branches among them.
    pub cond_branches: usize,
}

impl TargetSet {
    /// Total number of injection runs this set implies (= bits).
    pub fn runs(&self) -> usize {
        self.targets.len()
    }
}

/// Enumerate targets over the named functions of `image`.
///
/// `cond_branches_only` restricts to `Jcc` (the paper's headline set);
/// otherwise all control-transfer instructions are included and the
/// non-`Jcc` ones classify as MISC (see DESIGN.md).
pub fn enumerate_targets(image: &Image, funcs: &[&str], cond_branches_only: bool) -> TargetSet {
    let mut set = TargetSet::default();
    for name in funcs {
        let Some(f) = image.func(name) else { continue };
        let f = f.clone();
        for (addr, inst) in image.decode_func(&f) {
            if !inst.is_branch() {
                continue;
            }
            if cond_branches_only && !inst.is_cond_branch() {
                continue;
            }
            set.instructions += 1;
            if inst.is_cond_branch() {
                set.cond_branches += 1;
            }
            let off = (addr - image.text_base) as usize;
            let first_byte = image.text[off];
            for byte_index in 0..inst.len {
                for bit in 0..8u8 {
                    set.targets.push(InjectionTarget {
                        addr,
                        inst_len: inst.len,
                        byte_index,
                        bit,
                        first_byte,
                        location: ErrorLocation::classify(&inst, byte_index),
                        is_cond_branch: inst.is_cond_branch(),
                    });
                }
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use fisec_apps::{AppSpec, FTPD_AUTH_FUNCS, SSHD_AUTH_FUNCS};

    #[test]
    fn ftpd_target_set_is_substantial() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &FTPD_AUTH_FUNCS, false);
        assert!(set.instructions >= 20, "instructions {}", set.instructions);
        assert!(set.cond_branches >= 10, "branches {}", set.cond_branches);
        // Every instruction contributes 8 bits per byte.
        assert_eq!(set.runs() % 8, 0);
        assert!(set.runs() > 500, "runs {}", set.runs());
    }

    #[test]
    fn sshd_target_set_is_substantial() {
        let app = AppSpec::sshd();
        let set = enumerate_targets(&app.image, &SSHD_AUTH_FUNCS, false);
        assert!(set.cond_branches >= 15, "branches {}", set.cond_branches);
        assert!(set.runs() > 800, "runs {}", set.runs());
    }

    #[test]
    fn cond_only_filter() {
        let app = AppSpec::ftpd();
        let all = enumerate_targets(&app.image, &FTPD_AUTH_FUNCS, false);
        let cond = enumerate_targets(&app.image, &FTPD_AUTH_FUNCS, true);
        assert!(cond.runs() < all.runs());
        assert!(cond.targets.iter().all(|t| t.is_cond_branch));
        assert_eq!(cond.instructions, cond.cond_branches);
    }

    #[test]
    fn missing_function_yields_empty() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["not_a_function"], false);
        assert_eq!(set.runs(), 0);
    }

    #[test]
    fn bits_cover_whole_instruction() {
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &["pass"], false);
        // Group by instruction address: each must have len*8 targets.
        let mut by_addr: std::collections::HashMap<u32, Vec<&InjectionTarget>> =
            std::collections::HashMap::new();
        for t in &set.targets {
            by_addr.entry(t.addr).or_default().push(t);
        }
        for (addr, ts) in by_addr {
            let len = ts[0].inst_len as usize;
            assert_eq!(ts.len(), len * 8, "addr {addr:#x}");
        }
    }

    #[test]
    fn mixed_2byte_and_6byte_branches_present() {
        // The compiled servers must exercise both encodings or Tables 2/3
        // degenerate.
        let app = AppSpec::ftpd();
        let set = enumerate_targets(&app.image, &FTPD_AUTH_FUNCS, true);
        let has2 = set.targets.iter().any(|t| t.inst_len == 2);
        let has6 = set.targets.iter().any(|t| t.inst_len == 6);
        assert!(has2, "no 2-byte branches in ftpd auth functions");
        assert!(has6, "no 6-byte branches in ftpd auth functions");
    }
}
