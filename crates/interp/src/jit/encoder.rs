//! A minimal hand-rolled x86_64 encoder for the SSE2 subset the fused
//! kernels need: `movsd`/`addsd`/`subsd`/`mulsd`/`divsd`/`sqrtsd`/
//! `minsd`/`maxsd`/`ucomisd`/`cvtsi2sd`/`movq`, the packed-double lane
//! forms (`movupd`/`movapd`/`addpd`-family/`sqrtpd`/`minpd`/`maxpd`/
//! `cmppd`/`cmpsd`/`unpcklpd`/`pcmpeqd`) plus the bitwise blends
//! (`andpd`/`andnpd`/`orpd`/`xorpd`), 64-bit integer moves and
//! arithmetic for the loop counters and pointer walks, `setcc` + byte
//! logic for NaN-exact comparisons, and `jcc`/`jmp` with label fixups
//! for select control flow.
//!
//! The encoder emits REX/ModRM byte sequences directly into a `Vec<u8>`;
//! there is deliberately no instruction abstraction beyond one method per
//! needed form. Memory operands are always `[base + disp]` — `base` may
//! be any GPR (a SIB byte is inserted for `r12`, whose low bits collide
//! with the SIB escape), and the displacement picks the short `disp8`
//! form when it fits.

/// General-purpose register numbers (REX-extended encoding).
pub(crate) mod gpr {
    pub const RAX: u8 = 0;
    pub const RCX: u8 = 1;
    pub const RDX: u8 = 2;
    pub const RSI: u8 = 6;
    pub const RDI: u8 = 7;
    /// First of the access-pointer registers `r8..r15`.
    pub const R8: u8 = 8;
}

/// Condition codes (the low nibble of the `0F 9x` setcc / `0F 8x` jcc
/// opcodes).
pub(crate) mod cc {
    /// ZF=1 (equal / zero).
    pub const E: u8 = 0x4;
    /// ZF=0 (not equal / not zero).
    pub const NE: u8 = 0x5;
    /// CF=0 and ZF=0 (unsigned above — ordered `>` after `ucomisd`).
    pub const A: u8 = 0x7;
    /// CF=0 (unsigned above-or-equal — ordered `>=` after `ucomisd`).
    pub const AE: u8 = 0x3;
    /// PF=1 (unordered after `ucomisd`).
    pub const P: u8 = 0xA;
    /// PF=0 (ordered after `ucomisd`).
    pub const NP: u8 = 0xB;
}

/// A forward-referencable branch target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Label(usize);

/// The instruction buffer plus label/fixup state.
pub(crate) struct Asm {
    buf: Vec<u8>,
    /// Label id → bound offset.
    labels: Vec<Option<usize>>,
    /// `(offset of a rel32 field, label it refers to)`.
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    pub fn new() -> Self {
        Asm {
            buf: Vec::with_capacity(256),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    pub fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.buf.len());
    }

    /// Patches every recorded rel32 fixup and returns the finished code.
    pub fn finish(mut self) -> Vec<u8> {
        for (at, l) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l].expect("unbound label");
            let rel = target as i64 - (at as i64 + 4);
            self.buf[at..at + 4].copy_from_slice(&(rel as i32).to_le_bytes());
        }
        self.buf
    }

    // ----- raw emission --------------------------------------------------

    fn rex(&mut self, w: bool, reg: u8, base: u8) {
        let mut r = 0x40u8;
        if w {
            r |= 8;
        }
        if reg >= 8 {
            r |= 4;
        }
        if base >= 8 {
            r |= 1;
        }
        if r != 0x40 {
            self.buf.push(r);
        }
    }

    /// REX that is also required (even as a bare `0x40`) to reach the
    /// `spl`/`bpl`/`sil`/`dil` byte registers.
    fn rex8(&mut self, reg: u8, base: u8) {
        let mut r = 0x40u8;
        if reg >= 8 {
            r |= 4;
        }
        if base >= 8 {
            r |= 1;
        }
        if r != 0x40 || reg >= 4 || base >= 4 {
            self.buf.push(r);
        }
    }

    fn modrm_reg(&mut self, reg: u8, rm: u8) {
        self.buf.push(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    fn modrm_mem(&mut self, reg: u8, base: u8, disp: i32) {
        let small = (-128..=127).contains(&disp);
        let md = if small { 0b01 } else { 0b10 };
        self.buf.push((md << 6) | ((reg & 7) << 3) | (base & 7));
        if base & 7 == 4 {
            // r12/rsp as base: rm=100 selects a SIB byte; encode
            // "base only, no index".
            self.buf.push(0x24);
        }
        if small {
            self.buf.push(disp as i8 as u8);
        } else {
            self.buf.extend_from_slice(&disp.to_le_bytes());
        }
    }

    // ----- integer instructions ------------------------------------------

    pub fn push(&mut self, r: u8) {
        if r >= 8 {
            self.buf.push(0x41);
        }
        self.buf.push(0x50 + (r & 7));
    }

    pub fn pop(&mut self, r: u8) {
        if r >= 8 {
            self.buf.push(0x41);
        }
        self.buf.push(0x58 + (r & 7));
    }

    /// `mov r64, imm64`.
    pub fn mov_ri(&mut self, r: u8, imm: u64) {
        self.rex(true, 0, r);
        self.buf.push(0xB8 + (r & 7));
        self.buf.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov r64, [base + disp]`.
    pub fn mov_rm(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, base);
        self.buf.push(0x8B);
        self.modrm_mem(r, base, disp);
    }

    /// `mov [base + disp], r64`.
    pub fn mov_mr(&mut self, base: u8, disp: i32, r: u8) {
        self.rex(true, r, base);
        self.buf.push(0x89);
        self.modrm_mem(r, base, disp);
    }

    /// `add r64, [base + disp]`.
    pub fn add_rm(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, base);
        self.buf.push(0x03);
        self.modrm_mem(r, base, disp);
    }

    /// `and r64, [base + disp]`.
    pub fn and_rm(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, base);
        self.buf.push(0x23);
        self.modrm_mem(r, base, disp);
    }

    /// `or r64, [base + disp]`.
    pub fn or_rm(&mut self, r: u8, base: u8, disp: i32) {
        self.rex(true, r, base);
        self.buf.push(0x0B);
        self.modrm_mem(r, base, disp);
    }

    /// `xor r64, imm8` (sign-extended).
    pub fn xor_ri8(&mut self, r: u8, imm: i8) {
        self.rex(true, 0, r);
        self.buf.push(0x83);
        self.modrm_reg(6, r);
        self.buf.push(imm as u8);
    }

    /// `test r64, r64`.
    pub fn test_rr(&mut self, a: u8, b: u8) {
        self.rex(true, b, a);
        self.buf.push(0x85);
        self.modrm_reg(b, a);
    }

    /// `dec r64`.
    pub fn dec(&mut self, r: u8) {
        self.rex(true, 0, r);
        self.buf.push(0xFF);
        self.modrm_reg(1, r);
    }

    /// `setcc r8` (low byte of `r`).
    pub fn setcc(&mut self, cond: u8, r: u8) {
        self.rex8(0, r);
        self.buf.push(0x0F);
        self.buf.push(0x90 + cond);
        self.modrm_reg(0, r);
    }

    /// `and dst8, src8`.
    pub fn and_r8(&mut self, dst: u8, src: u8) {
        self.rex8(src, dst);
        self.buf.push(0x20);
        self.modrm_reg(src, dst);
    }

    /// `or dst8, src8`.
    pub fn or_r8(&mut self, dst: u8, src: u8) {
        self.rex8(src, dst);
        self.buf.push(0x08);
        self.modrm_reg(src, dst);
    }

    /// `movzx r64, r8`.
    pub fn movzx(&mut self, dst: u8, src: u8) {
        // REX.W is needed for the 64-bit destination; it also grants
        // access to sil/dil on the source side.
        self.rex(true, dst, src);
        self.buf.push(0x0F);
        self.buf.push(0xB6);
        self.modrm_reg(dst, src);
    }

    pub fn jcc(&mut self, cond: u8, l: Label) {
        self.buf.push(0x0F);
        self.buf.push(0x80 + cond);
        self.fixups.push((self.buf.len(), l.0));
        self.buf.extend_from_slice(&[0; 4]);
    }

    pub fn jmp(&mut self, l: Label) {
        self.buf.push(0xE9);
        self.fixups.push((self.buf.len(), l.0));
        self.buf.extend_from_slice(&[0; 4]);
    }

    pub fn ret(&mut self) {
        self.buf.push(0xC3);
    }

    // ----- SSE2 ----------------------------------------------------------

    /// Register-register SSE op: `prefix 0F op xmm_dst, xmm_src`.
    fn sse_rr(&mut self, prefix: u8, op: u8, dst: u8, src: u8) {
        self.buf.push(prefix);
        self.rex(false, dst, src);
        self.buf.push(0x0F);
        self.buf.push(op);
        self.modrm_reg(dst, src);
    }

    /// Load-form SSE op: `prefix 0F op xmm_dst, [base + disp]`.
    fn sse_rm(&mut self, prefix: u8, op: u8, dst: u8, base: u8, disp: i32) {
        self.buf.push(prefix);
        self.rex(false, dst, base);
        self.buf.push(0x0F);
        self.buf.push(op);
        self.modrm_mem(dst, base, disp);
    }

    /// `movsd xmm, [base + disp]`.
    pub fn movsd_rm(&mut self, dst: u8, base: u8, disp: i32) {
        self.sse_rm(0xF2, 0x10, dst, base, disp);
    }

    /// `movsd [base + disp], xmm`.
    pub fn movsd_mr(&mut self, base: u8, disp: i32, src: u8) {
        self.sse_rm(0xF2, 0x11, src, base, disp);
    }

    /// `movapd xmm_dst, xmm_src` (full-register copy).
    pub fn movapd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x28, dst, src);
    }

    /// `addsd`/`subsd`/`mulsd`/`divsd`/`sqrtsd`/`minsd`/`maxsd` by
    /// opcode byte (`0x58`/`0x5C`/`0x59`/`0x5E`/`0x51`/`0x5D`/`0x5F`):
    /// `op xmm_dst, xmm_src`.
    pub fn sd_op(&mut self, op: u8, dst: u8, src: u8) {
        self.sse_rr(0xF2, op, dst, src);
    }

    /// The packed-double sibling of [`Asm::sd_op`]: `addpd`/`subpd`/
    /// `mulpd`/`divpd`/`sqrtpd`/`minpd`/`maxpd` over both lanes.
    pub fn pd_op(&mut self, op: u8, dst: u8, src: u8) {
        self.sse_rr(0x66, op, dst, src);
    }

    /// `movupd xmm, [base + disp]` — unaligned 16-byte lane-pair load.
    pub fn movupd_rm(&mut self, dst: u8, base: u8, disp: i32) {
        self.sse_rm(0x66, 0x10, dst, base, disp);
    }

    /// `movupd [base + disp], xmm` — unaligned 16-byte lane-pair store.
    pub fn movupd_mr(&mut self, base: u8, disp: i32, src: u8) {
        self.sse_rm(0x66, 0x11, src, base, disp);
    }

    /// `cmppd xmm_dst, xmm_src, pred` — per-lane compare producing
    /// all-ones/all-zeros masks (predicates: 0 EQ_OQ, 1 LT_OS, 2 LE_OS,
    /// 3 UNORD_Q, 4 NEQ_UQ).
    pub fn cmppd(&mut self, dst: u8, src: u8, pred: u8) {
        self.sse_rr(0x66, 0xC2, dst, src);
        self.buf.push(pred);
    }

    /// `cmpsd xmm_dst, xmm_src, pred` — low-lane mask compare (same
    /// predicate encoding as [`Asm::cmppd`]); the upper lane of `dst` is
    /// preserved.
    pub fn cmpsd(&mut self, dst: u8, src: u8, pred: u8) {
        self.sse_rr(0xF2, 0xC2, dst, src);
        self.buf.push(pred);
    }

    /// `ucomisd xmm_a, xmm_b` (flags reflect `a ? b`).
    pub fn ucomisd(&mut self, a: u8, b: u8) {
        self.sse_rr(0x66, 0x2E, a, b);
    }

    /// `xorpd xmm_dst, xmm_src`.
    pub fn xorpd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x57, dst, src);
    }

    /// `andpd xmm_dst, xmm_src`.
    pub fn andpd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x54, dst, src);
    }

    /// `andnpd xmm_dst, xmm_src` (`dst = !dst & src` — the mask-clear
    /// half of a bitwise blend).
    pub fn andnpd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x55, dst, src);
    }

    /// `orpd xmm_dst, xmm_src`.
    pub fn orpd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x56, dst, src);
    }

    /// `pcmpeqd xmm_dst, xmm_src` — with `dst == src`, the canonical
    /// all-ones idiom.
    pub fn pcmpeqd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x76, dst, src);
    }

    /// `unpcklpd xmm_dst, xmm_src` — with `dst == src`, duplicates the
    /// low lane into both lanes (broadcast).
    pub fn unpcklpd(&mut self, dst: u8, src: u8) {
        self.sse_rr(0x66, 0x14, dst, src);
    }

    /// `movq xmm, r64`.
    pub fn movq_xr(&mut self, xmm: u8, r: u8) {
        self.buf.push(0x66);
        self.rex(true, xmm, r);
        self.buf.push(0x0F);
        self.buf.push(0x6E);
        self.modrm_reg(xmm, r);
    }

    /// `cvtsi2sd xmm, r64` — the exact `i64 as f64` conversion.
    pub fn cvtsi2sd(&mut self, xmm: u8, r: u8) {
        self.buf.push(0xF2);
        self.rex(true, xmm, r);
        self.buf.push(0x0F);
        self.buf.push(0x2A);
        self.modrm_reg(xmm, r);
    }
}

#[cfg(test)]
mod tests {
    //! Golden bytes per instruction form, checked by hand against the
    //! Intel SDM encodings (prefix, REX.WRXB, opcode, ModRM
    //! `mod|reg|rm`, SIB for an `r12` base, disp8/disp32). Register
    //! numbers are the raw encodings: `0..=7` the legacy registers,
    //! `8..=15` the REX-extended ones.

    use super::{cc, gpr, Asm};

    const R9: u8 = 9;
    const R12: u8 = 12;
    const R15: u8 = 15;

    /// The bytes one `emit` call appends to a fresh buffer.
    fn enc(emit: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new();
        emit(&mut a);
        a.finish()
    }

    #[test]
    fn scalar_loads_and_stores() {
        // movsd xmm0, [rdi+8]
        assert_eq!(
            enc(|a| a.movsd_rm(0, gpr::RDI, 8)),
            [0xF2, 0x0F, 0x10, 0x47, 0x08]
        );
        // movsd xmm2, [rdi+0x200]: disp32 form.
        assert_eq!(
            enc(|a| a.movsd_rm(2, gpr::RDI, 0x200)),
            [0xF2, 0x0F, 0x10, 0x97, 0x00, 0x02, 0x00, 0x00]
        );
        // movsd xmm9, [r12+0]: REX.RB, SIB escape for the r12 base.
        assert_eq!(
            enc(|a| a.movsd_rm(9, R12, 0)),
            [0xF2, 0x45, 0x0F, 0x10, 0x4C, 0x24, 0x00]
        );
        // movsd [r8+16], xmm1
        assert_eq!(
            enc(|a| a.movsd_mr(gpr::R8, 16, 1)),
            [0xF2, 0x41, 0x0F, 0x11, 0x48, 0x10]
        );
    }

    #[test]
    fn packed_loads_stores_and_moves() {
        // movupd xmm3, [rsi+32]
        assert_eq!(
            enc(|a| a.movupd_rm(3, gpr::RSI, 32)),
            [0x66, 0x0F, 0x10, 0x5E, 0x20]
        );
        // movupd [r15-16], xmm14
        assert_eq!(
            enc(|a| a.movupd_mr(R15, -16, 14)),
            [0x66, 0x45, 0x0F, 0x11, 0x77, 0xF0]
        );
        // movapd xmm1, xmm2 / movapd xmm8, xmm15
        assert_eq!(enc(|a| a.movapd(1, 2)), [0x66, 0x0F, 0x28, 0xCA]);
        assert_eq!(enc(|a| a.movapd(8, 15)), [0x66, 0x45, 0x0F, 0x28, 0xC7]);
        // unpcklpd xmm2, xmm2 / unpcklpd xmm10, xmm10
        assert_eq!(enc(|a| a.unpcklpd(2, 2)), [0x66, 0x0F, 0x14, 0xD2]);
        assert_eq!(enc(|a| a.unpcklpd(10, 10)), [0x66, 0x45, 0x0F, 0x14, 0xD2]);
        // movq xmm0, rdx / movq xmm15, rdx
        assert_eq!(
            enc(|a| a.movq_xr(0, gpr::RDX)),
            [0x66, 0x48, 0x0F, 0x6E, 0xC2]
        );
        assert_eq!(
            enc(|a| a.movq_xr(15, gpr::RDX)),
            [0x66, 0x4C, 0x0F, 0x6E, 0xFA]
        );
    }

    #[test]
    fn scalar_and_packed_arithmetic() {
        // (opcode, op xmm0, xmm1) for add/sub/mul/div/sqrt/min/max.
        for op in [0x58, 0x5C, 0x59, 0x5E, 0x51, 0x5D, 0x5F] {
            assert_eq!(
                enc(|a| a.sd_op(op, 0, 1)),
                [0xF2, 0x0F, op, 0xC1],
                "sd {op:#x}"
            );
            assert_eq!(
                enc(|a| a.pd_op(op, 0, 1)),
                [0x66, 0x0F, op, 0xC1],
                "pd {op:#x}"
            );
        }
        // subsd xmm2, xmm3 / mulsd xmm4, xmm5 / divsd xmm6, xmm7
        assert_eq!(enc(|a| a.sd_op(0x5C, 2, 3)), [0xF2, 0x0F, 0x5C, 0xD3]);
        assert_eq!(enc(|a| a.sd_op(0x59, 4, 5)), [0xF2, 0x0F, 0x59, 0xE5]);
        assert_eq!(enc(|a| a.sd_op(0x5E, 6, 7)), [0xF2, 0x0F, 0x5E, 0xF7]);
        // sqrtsd xmm0, xmm13 (REX.B) / minsd xmm14, xmm1 (REX.R)
        assert_eq!(
            enc(|a| a.sd_op(0x51, 0, 13)),
            [0xF2, 0x41, 0x0F, 0x51, 0xC5]
        );
        assert_eq!(
            enc(|a| a.sd_op(0x5D, 14, 1)),
            [0xF2, 0x44, 0x0F, 0x5D, 0xF1]
        );
        // sqrtpd xmm2, xmm2 / addpd xmm12, xmm9 (REX.RB)
        assert_eq!(enc(|a| a.pd_op(0x51, 2, 2)), [0x66, 0x0F, 0x51, 0xD2]);
        assert_eq!(
            enc(|a| a.pd_op(0x58, 12, 9)),
            [0x66, 0x45, 0x0F, 0x58, 0xE1]
        );
        // cvtsi2sd xmm3, rax / cvtsi2sd xmm14, rdx
        assert_eq!(
            enc(|a| a.cvtsi2sd(3, gpr::RAX)),
            [0xF2, 0x48, 0x0F, 0x2A, 0xD8]
        );
        assert_eq!(
            enc(|a| a.cvtsi2sd(14, gpr::RDX)),
            [0xF2, 0x4C, 0x0F, 0x2A, 0xF2]
        );
    }

    #[test]
    fn bitwise_and_compare_forms() {
        assert_eq!(enc(|a| a.andpd(15, 14)), [0x66, 0x45, 0x0F, 0x54, 0xFE]);
        assert_eq!(enc(|a| a.andnpd(14, 15)), [0x66, 0x45, 0x0F, 0x55, 0xF7]);
        assert_eq!(enc(|a| a.xorpd(0, 0)), [0x66, 0x0F, 0x57, 0xC0]);
        assert_eq!(enc(|a| a.orpd(1, R9)), [0x66, 0x41, 0x0F, 0x56, 0xC9]);
        assert_eq!(enc(|a| a.pcmpeqd(15, 15)), [0x66, 0x45, 0x0F, 0x76, 0xFF]);
        // ucomisd xmm1, xmm0 / ucomisd xmm13, xmm15
        assert_eq!(enc(|a| a.ucomisd(1, 0)), [0x66, 0x0F, 0x2E, 0xC8]);
        assert_eq!(enc(|a| a.ucomisd(13, 15)), [0x66, 0x45, 0x0F, 0x2E, 0xEF]);
        // cmppd/cmpsd with the predicate as a trailing imm8.
        assert_eq!(enc(|a| a.cmppd(0, 1, 4)), [0x66, 0x0F, 0xC2, 0xC1, 0x04]);
        assert_eq!(
            enc(|a| a.cmppd(14, 3, 3)),
            [0x66, 0x44, 0x0F, 0xC2, 0xF3, 0x03]
        );
        assert_eq!(
            enc(|a| a.cmpsd(15, 15, 3)),
            [0xF2, 0x45, 0x0F, 0xC2, 0xFF, 0x03]
        );
    }

    #[test]
    fn setcc_and_byte_logic() {
        for (c, op) in [
            (cc::E, 0x94),
            (cc::NE, 0x95),
            (cc::A, 0x97),
            (cc::AE, 0x93),
            (cc::P, 0x9A),
            (cc::NP, 0x9B),
        ] {
            // set<cc> dl: no REX for the legacy byte registers.
            assert_eq!(
                enc(|a| a.setcc(c, gpr::RDX)),
                [0x0F, op, 0xC2],
                "setcc {c:#x}"
            );
        }
        // setp sil: a bare REX selects sil instead of dh.
        assert_eq!(enc(|a| a.setcc(cc::P, gpr::RSI)), [0x40, 0x0F, 0x9A, 0xC6]);
        // and dl, sil / or dl, sil
        assert_eq!(enc(|a| a.and_r8(gpr::RDX, gpr::RSI)), [0x40, 0x20, 0xF2]);
        assert_eq!(enc(|a| a.or_r8(gpr::RDX, gpr::RSI)), [0x40, 0x08, 0xF2]);
        // movzx rdx, dl
        assert_eq!(
            enc(|a| a.movzx(gpr::RDX, gpr::RDX)),
            [0x48, 0x0F, 0xB6, 0xD2]
        );
    }

    #[test]
    fn integer_forms() {
        let mut imm = vec![0x48, 0xBA];
        imm.extend_from_slice(&0x3FF0_0000_0000_0000u64.to_le_bytes());
        assert_eq!(enc(|a| a.mov_ri(gpr::RDX, 0x3FF0_0000_0000_0000)), imm);
        // mov r9, 1: REX.WB
        let mut imm9 = vec![0x49, 0xB9];
        imm9.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(enc(|a| a.mov_ri(R9, 1)), imm9);
        assert_eq!(
            enc(|a| a.mov_rm(gpr::RCX, gpr::RDI, 0)),
            [0x48, 0x8B, 0x4F, 0x00]
        );
        assert_eq!(
            enc(|a| a.mov_rm(R12, gpr::RDI, 24)),
            [0x4C, 0x8B, 0x67, 0x18]
        );
        assert_eq!(
            enc(|a| a.mov_mr(gpr::RDI, 40, gpr::RDX)),
            [0x48, 0x89, 0x57, 0x28]
        );
        assert_eq!(
            enc(|a| a.add_rm(gpr::R8, gpr::RDI, 56)),
            [0x4C, 0x03, 0x47, 0x38]
        );
        assert_eq!(
            enc(|a| a.and_rm(gpr::RDX, gpr::RDI, 8)),
            [0x48, 0x23, 0x57, 0x08]
        );
        assert_eq!(
            enc(|a| a.or_rm(gpr::RDX, gpr::RDI, 8)),
            [0x48, 0x0B, 0x57, 0x08]
        );
        assert_eq!(enc(|a| a.xor_ri8(gpr::RDX, 1)), [0x48, 0x83, 0xF2, 0x01]);
        assert_eq!(enc(|a| a.test_rr(gpr::RCX, gpr::RCX)), [0x48, 0x85, 0xC9]);
        assert_eq!(enc(|a| a.dec(gpr::RCX)), [0x48, 0xFF, 0xC9]);
        assert_eq!(enc(|a| a.push(R12)), [0x41, 0x54]);
        assert_eq!(enc(|a| a.pop(R15)), [0x41, 0x5F]);
        assert_eq!(enc(|a| a.ret()), [0xC3]);
    }

    #[test]
    fn branches_patch_rel32_from_the_next_instruction() {
        // Forward jcc over one `ret`: rel32 = 1.
        let fwd = enc(|a| {
            let l = a.label();
            a.jcc(cc::E, l);
            a.ret();
            a.bind(l);
            a.ret();
        });
        assert_eq!(fwd, [0x0F, 0x84, 0x01, 0x00, 0x00, 0x00, 0xC3, 0xC3]);
        // Backward jmp to offset 0 from a 5-byte `jmp` at offset 1, which
        // ends at offset 6: rel32 = -6.
        let back = enc(|a| {
            let top = a.label();
            a.bind(top);
            a.ret();
            a.jmp(top);
        });
        assert_eq!(back, [0xC3, 0xE9, 0xFA, 0xFF, 0xFF, 0xFF]);
    }
}
