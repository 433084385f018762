//! Property tests for the IA-32 substrate: decoder totality,
//! encode/decode round-trip, and interpreter robustness on byte soup.

use fisec_x86::{
    decode, encode, Cond, Inst, Machine, MemOperand, Memory, Op, OpSize, Operand, Perms, Reg32,
    Reg8, Region,
};
use proptest::prelude::*;

proptest! {
    /// The decoder is total: any byte window decodes without panicking
    /// and always consumes between 1 and 15 bytes.
    #[test]
    fn decoder_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..16)) {
        let i = decode(&bytes);
        prop_assert!(i.len >= 1);
        prop_assert!(i.len <= 15);
        if !bytes.is_empty() {
            prop_assert!(usize::from(i.len) <= bytes.len().max(1));
        }
    }

    /// Single-bit corruption of valid instructions still decodes (the
    /// precise scenario of the study).
    #[test]
    fn decoder_total_under_bit_flips(
        byte_index in 0usize..6,
        bit in 0u8..8,
        seed in any::<u16>(),
    ) {
        // A valid instruction stream to corrupt.
        let mut bytes = vec![
            0x55, 0x89, 0xE5, 0x83, 0xEC, 0x10, // prologue
            0xB8, 0x2A, 0x00, 0x00, 0x00, // mov eax, 42
            0x74, 0x05, // je +5
            0xC9, 0xC3, // leave; ret
        ];
        let pos = (seed as usize) % (bytes.len() - 6);
        bytes[pos + byte_index % 6] ^= 1 << bit;
        let mut p = 0;
        while p < bytes.len() {
            let i = decode(&bytes[p..]);
            prop_assert!(i.len >= 1);
            p += i.len as usize;
        }
    }

    /// The machine never panics executing arbitrary bytes: every step
    /// either executes, syscalls, or faults.
    #[test]
    fn machine_survives_byte_soup(text in proptest::collection::vec(any::<u8>(), 32..256)) {
        let mut mem = Memory::new();
        mem.map(Region::with_data("text", 0x1000, text, Perms::RX)).unwrap();
        mem.map(Region::zeroed("stack", 0x8000, 0x2000, Perms::RW)).unwrap();
        let mut m = Machine::new(mem);
        m.cpu.eip = 0x1000;
        m.cpu.regs[Reg32::Esp as usize] = 0x9FF0;
        let _ = m.run_until_event(2000);
        prop_assert!(m.icount <= 2000);
    }

    /// The block-dispatch engine is observably identical to the per-step
    /// reference interpreter on arbitrary byte soup: same outcome, same
    /// precise icount, same architectural state, same coverage set,
    /// first and last retirements and trace ring. This is the property the campaign's bit-identical
    /// results rest on.
    #[test]
    fn block_engine_matches_stepwise(
        text in proptest::collection::vec(any::<u8>(), 32..256),
        budget in 1u64..2000,
    ) {
        let build = |text: &[u8]| {
            let mut mem = Memory::new();
            mem.map(Region::with_data("text", 0x1000, text.to_vec(), Perms::RX)).unwrap();
            mem.map(Region::zeroed("stack", 0x8000, 0x2000, Perms::RW)).unwrap();
            let mut m = Machine::new(mem);
            m.cpu.eip = 0x1000;
            m.cpu.regs[Reg32::Esp as usize] = 0x9FF0;
            m.enable_coverage();
            m.enable_eip_trace(8);
            m
        };
        let mut blk = build(&text);
        let mut stp = build(&text);
        stp.set_block_engine(false);
        let a = blk.run_until_event(budget);
        let b = stp.run_until_event(budget);
        prop_assert_eq!(a, b);
        prop_assert_eq!(blk.icount, stp.icount);
        prop_assert_eq!(&blk.cpu, &stp.cpu);
        prop_assert_eq!(blk.coverage(), stp.coverage());
        for a in 0x1000..0x1000 + text.len() as u32 {
            prop_assert_eq!(blk.first_retire(a), stp.first_retire(a));
            prop_assert_eq!(blk.last_retire(a), stp.last_retire(a));
        }
        prop_assert_eq!(blk.eip_trace(), stp.eip_trace());
    }

    /// The tier-2 trace engine (hot promotion threshold, superblocks
    /// linked across the loop's taken branches) retires bit-identically
    /// to the per-step reference on generated counted loops whose
    /// bodies draw from the lowered µop set (inc/dec/alu-imm, imul,
    /// cdq). Arbitrary budgets land side-exits at every offset. Checked
    /// with no observer attached, where register-only blocks take the
    /// uninstrumented fast executor, and with coverage on, where the
    /// instrumented executor must also record the reference's first-
    /// and last-retire icounts.
    #[test]
    fn trace_engine_matches_stepwise_on_generated_loops(
        iters in 1u32..40,
        body_a in proptest::collection::vec((0u8..10, any::<u8>()), 0..8),
        body_b in proptest::collection::vec((0u8..10, any::<u8>()), 0..8),
        budget in 1u64..3000,
    ) {
        let emit = |text: &mut Vec<u8>, body: &[(u8, u8)]| {
            for &(op, imm) in body {
                match op {
                    0 => text.push(0x40),                      // inc eax
                    1 => text.push(0x43),                      // inc ebx
                    2 => text.push(0x4A),                      // dec edx
                    3 => text.extend([0x83, 0xC0, imm]),       // add eax, imm8
                    4 => text.extend([0x83, 0xF3, imm]),       // xor ebx, imm8
                    5 => text.extend([0x83, 0xF8, imm]),       // cmp eax, imm8
                    6 => text.push(0x90),                      // nop
                    7 => text.extend([0x0F, 0xAF, 0xC3]),      // imul eax, ebx
                    8 => text.push(0x99),                      // cdq
                    _ => text.extend([0x6B, 0xC3, imm]),       // imul eax, ebx, imm8
                }
            }
        };
        // mov ecx, iters; L1: bodyA; jmp L2; nop; L2: bodyB; dec ecx;
        // jnz L1; jmp $ — two blocks per iteration, linked by a taken
        // jmp, closed by a taken jnz.
        let mut text = vec![0xB9];
        text.extend(iters.to_le_bytes());
        let l1 = text.len();
        emit(&mut text, &body_a);
        text.extend([0xEB, 0x01, 0x90]);
        emit(&mut text, &body_b);
        text.push(0x49); // dec ecx
        let disp = -((text.len() + 2 - l1) as i8 as i32) as u8;
        text.extend([0x75, disp, 0xEB, 0xFE]);

        let build = |text: &[u8], coverage: bool| {
            let mut mem = Memory::new();
            mem.map(Region::with_data("text", 0x1000, text.to_vec(), Perms::RX)).unwrap();
            mem.map(Region::zeroed("stack", 0x8000, 0x2000, Perms::RW)).unwrap();
            let mut m = Machine::new(mem);
            m.cpu.eip = 0x1000;
            m.cpu.regs[Reg32::Esp as usize] = 0x9FF0;
            if coverage {
                m.enable_coverage();
            }
            m
        };
        let mut hot = build(&text, false);
        hot.set_trace_threshold(1);
        let mut stp = build(&text, false);
        stp.set_block_engine(false);
        let a = hot.run_until_event(budget);
        let b = stp.run_until_event(budget);
        prop_assert_eq!(a, b);
        prop_assert_eq!(hot.icount, stp.icount);
        prop_assert_eq!(&hot.cpu, &stp.cpu);
        if iters >= 16 && budget >= 2000 {
            let s = hot.trace_stats();
            prop_assert!(s.built >= 1, "hot loop never promoted: {:?}", s);
        }

        let mut hot = build(&text, true);
        hot.set_trace_threshold(1);
        let mut stp = build(&text, true);
        stp.set_block_engine(false);
        let a = hot.run_until_event(budget);
        let b = stp.run_until_event(budget);
        prop_assert_eq!(a, b);
        prop_assert_eq!(hot.icount, stp.icount);
        prop_assert_eq!(&hot.cpu, &stp.cpu);
        for a in 0x1000..0x1000 + text.len() as u32 {
            prop_assert_eq!(hot.first_retire(a), stp.first_retire(a));
            prop_assert_eq!(hot.last_retire(a), stp.last_retire(a));
        }
    }

    /// A clean (non-injected) run never births taint: with the tracer
    /// in observe-all mode over arbitrary byte soup, the shadow state
    /// is still empty at the end, no propagation event fires, and the
    /// tracer is invisible to the architectural result.
    #[test]
    fn clean_runs_keep_the_shadow_state_empty(
        text in proptest::collection::vec(any::<u8>(), 32..256),
        budget in 1u64..2000,
    ) {
        let build = |text: &[u8]| {
            let mut mem = Memory::new();
            mem.map(Region::with_data("text", 0x1000, text.to_vec(), Perms::RX)).unwrap();
            mem.map(Region::zeroed("stack", 0x8000, 0x2000, Perms::RW)).unwrap();
            let mut m = Machine::new(mem);
            m.cpu.eip = 0x1000;
            m.cpu.regs[Reg32::Esp as usize] = 0x9FF0;
            m
        };
        let mut traced = build(&text);
        traced.enable_taint(None, u64::MAX);
        let mut plain = build(&text);
        let a = traced.run_until_event(budget);
        let b = plain.run_until_event(budget);
        prop_assert_eq!(a, b);
        prop_assert_eq!(traced.icount, plain.icount);
        prop_assert_eq!(traced.taint_width(), Some(0), "taint born without a flip");
        let log = traced.take_propagation_log().expect("tracer was armed");
        prop_assert_eq!(log.seed_icount, None);
        prop_assert!(log.events.is_empty(), "events on a clean run: {:?}", log.events);
        prop_assert_eq!(log.peak_width, 0);
        prop_assert_eq!(&traced.cpu, &plain.cpu);
    }

    /// Flag state stays within the architectural mask after arbitrary
    /// execution (reserved bit 1 set, no stray bits).
    #[test]
    fn eflags_stay_architectural(text in proptest::collection::vec(any::<u8>(), 16..128)) {
        let mut mem = Memory::new();
        mem.map(Region::with_data("text", 0x1000, text, Perms::RX)).unwrap();
        mem.map(Region::zeroed("stack", 0x8000, 0x1000, Perms::RW)).unwrap();
        let mut m = Machine::new(mem);
        m.cpu.eip = 0x1000;
        m.cpu.regs[Reg32::Esp as usize] = 0x8FF0;
        let _ = m.run_until_event(500);
        let allowed = fisec_x86::eflags::STATUS_MASK
            | fisec_x86::eflags::DF
            | fisec_x86::eflags::RESERVED1;
        prop_assert_eq!(m.cpu.eflags & !allowed, 0, "eflags {:#x}", m.cpu.eflags);
    }
}

/// Strategy over the encodable instruction space.
fn arb_reg() -> impl Strategy<Value = Reg32> {
    (0u8..8).prop_map(Reg32::from_num)
}

fn arb_reg8() -> impl Strategy<Value = Reg8> {
    (0u8..8).prop_map(Reg8::from_num)
}

fn arb_mem() -> impl Strategy<Value = MemOperand> {
    (
        proptest::option::of(arb_reg()),
        proptest::option::of((
            arb_reg().prop_filter("esp is not an index", |r| *r != Reg32::Esp),
            prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        )),
        any::<i32>(),
    )
        .prop_map(|(base, index, disp)| MemOperand { base, index, disp })
}

fn arb_alu_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Add),
        Just(Op::Or),
        Just(Op::Adc),
        Just(Op::Sbb),
        Just(Op::And),
        Just(Op::Sub),
        Just(Op::Xor),
        Just(Op::Cmp),
    ]
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        // ALU reg, reg / reg, imm / reg, mem / mem, reg
        (arb_alu_op(), arb_reg(), arb_reg())
            .prop_map(|(op, d, s)| Inst::new(op).dst(Operand::Reg(d)).src(Operand::Reg(s))),
        (arb_alu_op(), arb_reg(), any::<i32>()).prop_map(|(op, d, v)| Inst::new(op)
            .dst(Operand::Reg(d))
            .src(Operand::Imm(v as i64))),
        (arb_alu_op(), arb_reg(), arb_mem())
            .prop_map(|(op, d, m)| Inst::new(op).dst(Operand::Reg(d)).src(Operand::Mem(m))),
        (arb_alu_op(), arb_mem(), arb_reg())
            .prop_map(|(op, m, s)| Inst::new(op).dst(Operand::Mem(m)).src(Operand::Reg(s))),
        // mov forms
        (arb_reg(), any::<i32>()).prop_map(|(d, v)| Inst::new(Op::Mov)
            .dst(Operand::Reg(d))
            .src(Operand::Imm(v as i64))),
        (arb_reg(), arb_mem())
            .prop_map(|(d, m)| Inst::new(Op::Mov).dst(Operand::Reg(d)).src(Operand::Mem(m))),
        (arb_mem(), arb_reg())
            .prop_map(|(m, s)| Inst::new(Op::Mov).dst(Operand::Mem(m)).src(Operand::Reg(s))),
        (arb_reg8(), any::<u8>()).prop_map(|(d, v)| {
            Inst::new(Op::Mov)
                .dst(Operand::Reg8(d))
                .src(Operand::Imm(v as i64))
                .size(OpSize::Byte)
        }),
        // lea
        (arb_reg(), arb_mem())
            .prop_map(|(d, m)| Inst::new(Op::Lea).dst(Operand::Reg(d)).src(Operand::Mem(m))),
        // stack
        arb_reg().prop_map(|r| Inst::new(Op::Push).dst(Operand::Reg(r))),
        any::<i32>().prop_map(|v| Inst::new(Op::Push).dst(Operand::Imm(v as i64))),
        arb_reg().prop_map(|r| Inst::new(Op::Pop).dst(Operand::Reg(r))),
        // branches
        (0u8..16, any::<i32>())
            .prop_map(|(c, d)| Inst::new(Op::Jcc(Cond::from_nibble(c))).dst(Operand::Rel(d))),
        any::<i32>().prop_map(|d| Inst::new(Op::Jmp).dst(Operand::Rel(d))),
        any::<i32>().prop_map(|d| Inst::new(Op::Call).dst(Operand::Rel(d))),
        // unary / misc
        arb_reg().prop_map(|r| Inst::new(Op::Inc).dst(Operand::Reg(r))),
        arb_reg().prop_map(|r| Inst::new(Op::Dec).dst(Operand::Reg(r))),
        arb_reg().prop_map(|r| Inst::new(Op::Neg).dst(Operand::Reg(r))),
        arb_reg().prop_map(|r| Inst::new(Op::Not).dst(Operand::Reg(r))),
        (arb_reg(), 1u8..32).prop_map(|(r, n)| Inst::new(Op::Shl)
            .dst(Operand::Reg(r))
            .src(Operand::Imm(n as i64))),
        (arb_reg(), 1u8..32).prop_map(|(r, n)| Inst::new(Op::Sar)
            .dst(Operand::Reg(r))
            .src(Operand::Imm(n as i64))),
        Just(Inst::new(Op::Ret(0))),
        Just(Inst::new(Op::Leave)),
        Just(Inst::new(Op::Nop)),
        Just(Inst::new(Op::Cdq)),
        Just(Inst::new(Op::Int(0x80))),
        (0u8..16).prop_map(|c| {
            Inst::new(Op::Setcc(Cond::from_nibble(c)))
                .dst(Operand::Reg8(Reg8::Al))
                .size(OpSize::Byte)
        }),
    ]
}

proptest! {
    /// `decode(encode(i)) == i` over the encodable space (up to `len`,
    /// which only the decoder knows).
    #[test]
    fn encode_decode_roundtrip(inst in arb_inst()) {
        let bytes = encode(&inst).expect("generated instructions are encodable");
        prop_assert!(bytes.len() <= 15);
        let mut expect = inst;
        expect.len = bytes.len() as u8;
        let got = decode(&bytes);
        prop_assert_eq!(got, expect, "bytes {:02x?}", bytes);
    }

    /// Encoded instructions decode to the same length (no trailing-byte
    /// ambiguity), even when followed by junk.
    #[test]
    fn encoding_is_prefix_free_of_junk(inst in arb_inst(), junk in any::<[u8; 4]>()) {
        let mut bytes = encode(&inst).expect("encodable");
        let n = bytes.len();
        bytes.extend_from_slice(&junk);
        let got = decode(&bytes);
        prop_assert_eq!(got.len as usize, n);
    }
}
