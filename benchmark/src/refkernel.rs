//! The host reference kernel, run on the benchmark thread right next to
//! every timed set-up and unit. Its duration tracks how fast the host is
//! at that moment, so a time divided by it is steadier than the raw time.
//!
//! It is fixed code of the benchmark's own, three parts in one call:
//! a dependent pointer chase through a 4 MiB table (memory latency), a
//! 64 MiB buffer copy (bandwidth), and a small register-machine
//! interpreter that restores a 256 KiB memory image, flips a bit and
//! dispatches a pseudo-random program with a hashed block table (the
//! campaign engine's shape). On the 2-vCPU VM the benchmark was defined
//! on, this sum tracked the campaign's slow phases better than any one
//! part alone; see `README.md` for the measurements.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Pointer-chase table entries (4 bytes each: 4 MiB).
const ENTRIES: usize = 1 << 20;
/// Dependent loads per call.
const CHASE_STEPS: usize = 1 << 18;
/// Copy buffer size in bytes, and copies per call.
const COPY_BYTES: usize = 8 << 20;
const COPIES: usize = 8;
/// Interpreter memory image in 32-bit words (256 KiB), program length,
/// sessions per call and instructions per session.
const WORDS: usize = 1 << 16;
const PROGRAM: usize = 4096;
const SESSIONS: usize = 400;
const SESSION_STEPS: usize = 20_000;

/// Median kernel time on the reference host (2 vCPU x86-64 VM), in
/// seconds. Normalized figures are expressed against it.
pub const NOMINAL_SECS: f64 = 0.068;

pub struct RefKernel {
    /// One random cycle through every entry.
    next: Vec<u32>,
    copy: (Vec<u8>, Vec<u8>),
}

impl RefKernel {
    /// Build the tables (Sattolo's shuffle from a fixed seed, so every
    /// run does exactly the same work).
    pub fn new() -> RefKernel {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x5EED_2001_u64;
        for i in (1..ENTRIES).rev() {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let j = ((u128::from(mix(state)) * i as u128) >> 64) as usize;
            next.swap(i, j);
        }
        RefKernel {
            next,
            copy: (vec![1; COPY_BYTES], vec![2; COPY_BYTES]),
        }
    }

    /// Run the kernel once; returns its duration in seconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.chase());
        self.copy();
        black_box(self.interpret());
        start.elapsed().as_secs_f64()
    }

    fn chase(&self) -> u32 {
        let (mut i, mut acc) = (0u32, 0u32);
        for _ in 0..CHASE_STEPS {
            i = self.next[i as usize];
            acc = acc.rotate_left(5) ^ i;
        }
        acc
    }

    fn copy(&mut self) {
        for k in 0..COPIES {
            self.copy.0[k] = k as u8;
            self.copy.1.copy_from_slice(&self.copy.0);
            black_box(&self.copy.1);
            std::mem::swap(&mut self.copy.0, &mut self.copy.1);
        }
    }

    fn interpret(&self) -> u32 {
        let program: Vec<u32> = self.next[..PROGRAM]
            .iter()
            .map(|x| x.wrapping_mul(2_654_435_761))
            .collect();
        let image: Vec<u32> = self.next[..WORDS].to_vec();
        let mut mem = image.clone();
        let mut blocks: HashMap<u32, u32> = HashMap::new();
        let mut acc = 0u32;
        for session in 0..SESSIONS {
            mem.copy_from_slice(&image);
            mem[(session * 7919) % WORDS] ^= 1 << (session % 32);
            let mut r = [1u32, 2, 3, 4, 5, 6, 7, 8];
            let mut pc = 0usize;
            for _ in 0..SESSION_STEPS {
                let ins = program[pc];
                let (a, b) = (((ins >> 16) & 7) as usize, ((ins >> 8) & 7) as usize);
                let imm = ins & 0xffff;
                let at = |x: u32| (x.wrapping_add(imm) as usize) & (WORDS - 1);
                match ins >> 28 {
                    0 => r[a] = r[a].wrapping_add(r[b]),
                    1 => r[a] = r[a].wrapping_sub(imm),
                    2 => r[a] ^= r[b].rotate_left(imm & 31),
                    3 => r[a] = mem[at(r[b])],
                    4 => mem[at(r[b])] = r[a],
                    5 => {
                        if r[a] < r[b] {
                            pc = (imm as usize) & (PROGRAM - 1);
                        }
                    }
                    6 => r[a] = r[a].wrapping_mul(r[b] | 1),
                    7 => r[a] = r[a].wrapping_shl(r[b] & 31),
                    8 => {
                        let e = blocks.entry(pc as u32).or_insert(imm);
                        *e = e.wrapping_add(1);
                        r[a] = *e;
                    }
                    9 => r[a] = r[a].checked_div(r[b]).unwrap_or(imm),
                    10 => r[a] = r[a].wrapping_add(imm),
                    11 => r[a] = u32::from(r[a] > r[b]),
                    12 => r[a] = r[b].count_ones().wrapping_add(imm),
                    13 => r[b] = r[a] ^ imm,
                    14 => r[a] = r[a].rotate_right(r[b] & 31),
                    _ => acc = acc.wrapping_add(r[a]),
                }
                pc = (pc + 1) & (PROGRAM - 1);
            }
            acc = r.iter().fold(acc, |s, x| s.wrapping_add(*x));
        }
        acc ^ mem[0]
    }
}

/// The SplitMix64 output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle_through_every_entry() {
        let k = RefKernel::new();
        let mut seen = vec![false; ENTRIES];
        let mut i = 0usize;
        for _ in 0..ENTRIES {
            assert!(!seen[i], "entry {i} revisited before the cycle closed");
            seen[i] = true;
            i = k.next[i] as usize;
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn kernel_does_the_same_work_every_call() {
        let k = RefKernel::new();
        assert_eq!(k.chase(), k.chase());
        assert_eq!(k.interpret(), k.interpret());
    }
}
