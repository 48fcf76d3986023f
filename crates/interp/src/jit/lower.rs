//! Lowering of a fused kernel's code to native x86_64. The input is the
//! one f64 kernel IR ([`FInsn`]) that the lane-chunked kernel loop also
//! runs. Native code records no coverage: entry coverage is batched by
//! the caller, and a run that must interleave per-element records never
//! dispatches here.
//!
//! The emitted function has signature `extern "C" fn(frame: *mut u64)`
//! and executes **one inner row** of the iteration box per call — the
//! Rust side keeps the outer odometer, exactly like the chunk loop.
//! For vectorized kernels (`lanes > 1`) the row is the innermost *real*
//! map dimension and the synthetic lane dimension is fully unrolled
//! inside the blob, so one call still covers `row length × lanes`
//! elements. Everything that varies per trial or per row (row pointers,
//! strides, outer parameter values, symbol values) is read from the
//! frame, so one compiled blob is valid for every shape a kernel ever
//! runs with — the property that lets each kernel emit its code once
//! and keep it for every later trial.
//!
//! # Frame layout (u64 words)
//!
//! | words                    | contents                                  |
//! |--------------------------|-------------------------------------------|
//! | `0`                      | inner row length (iterations, ≥ 1)        |
//! | `1`, `2`                 | inner range start / step (i64)            |
//! | `3 .. 3+P`               | row pointers, one per live access         |
//! | `3+P .. 3+2P`            | per-iteration pointer step in bytes (i64) |
//! | `.. + n_params`          | outer map-parameter values (f64 bits)     |
//! | `.. + n_regs·bool_words` | bool register file (see below)            |
//! | `.. + sym_slots.len()`   | referenced symbol values (f64 bits)       |
//!
//! Bool register slots are one word (0/1 values) in scalar emission and
//! two words (16-byte all-ones/all-zeros lane masks, accessed with
//! `movupd`) in packed emission.
//!
//! # Register allocation
//!
//! Fixed: `rdi` frame, `rcx` remaining-iteration counter, `rax` the
//! inner parameter's current i64 value (stepped per iteration, converted
//! with `cvtsi2sd` for the exact `as f64` semantics), `rdx`/`rsi`
//! scratch, `r8..r15` live-access row pointers (callee-saved `r12..r15`
//! are pushed only when used). Kernel float registers map 1:1 onto
//! `xmm0..xmm13` — scalar values in the low lane, or 2-wide lane pairs
//! in packed emission; `xmm14`/`xmm15` are scratch. Bool registers live
//! in frame words — a select body the JIT declines runs the map per
//! element on the generic bytecode, so memory-resident bools still win.
//!
//! # Packed emission
//!
//! A `lanes > 1` kernel without select control flow runs its body on
//! 2-wide xmm pairs: spanned reads/writes use `movupd` at compile-time
//! lane offsets (the dispatcher verified the run's lane stride is the
//! unit stride these offsets assume), statically pointwise reads
//! broadcast one `movsd` load with `unpcklpd`, and an odd lane count
//! appends one scalar element *after* the pairs so the element order of
//! the bytecode loop is preserved exactly. Select bodies keep their
//! per-element branches by unrolling the lanes as scalar iterations
//! inside the same blob (`lane_scalar` mode) — still native, just not
//! packed. Fallback is always per-kernel, never per-element.
//!
//! # Bit-exactness
//!
//! Binary ops preserve operand order (`addsd a, b` matches what rustc
//! emits for `a + b`, including NaN payload propagation), comparisons
//! use `ucomisd` + `setcc` recipes (scalar) or `cmppd` predicates
//! (packed) that reproduce Rust's semantics for unordered operands,
//! negation/abs use the same sign-mask `xorpd`/`andpd` idiom rustc
//! emits, and `i64 → f64` conversions use `cvtsi2sd`. `min`/`max` use
//! the exact blend LLVM lowers `f64::min`/`f64::max` to: `minsd`/
//! `minpd` with the *first* Rust operand in the source position (the
//! instruction returns the source on unordered or tied operands, giving
//! Rust's first-operand tie behavior for `±0`), then a branch-free
//! `xorpd`/`andnpd`/`xorpd` blend on an `isnan(first)` mask selecting
//! the second operand where the first is NaN. Ops without an exact
//! lowering (`mod`, `pow`, transcendentals) are rejected statically and
//! fall back to the chunk loop (select bodies: per element).

use super::encoder::{cc, gpr, Asm, Label};
use super::JitReject;
use crate::program::{FInsn, FusedKernel, SymId};
use fuzzyflow_ir::{BinOp, CmpOp, UnOp, Wcr};

/// Highest kernel float register mappable onto `xmm0..xmm13`.
pub(crate) const MAX_FLOAT_REGS: usize = 14;
/// Live-access pointers available (`r8..r15`).
pub(crate) const MAX_PTRS: usize = 8;
/// Widest lane count the packed emitter unrolls into one row body.
pub(crate) const MAX_JIT_LANES: usize = 16;
/// Scratch xmm registers.
const XMM_SCRATCH0: u8 = 14;
const XMM_SCRATCH1: u8 = 15;

/// Frame layout of a lowered kernel; see the module docs. Word indices
/// are converted to byte displacements at emission time.
#[derive(Clone, Debug)]
pub(crate) struct JitLayout {
    /// Map dimensions (the innermost, `n_params - 1`, is the emitted
    /// row; its parameter value lives in `rax`, not the frame).
    pub n_params: usize,
    /// Kernel register file size (bool slots in the frame).
    pub n_regs: usize,
    /// Pointer slot per kernel input; `None` for dead reads (their
    /// bounds are proven by the precheck, no load is needed).
    pub in_ptr: Vec<Option<usize>>,
    /// Pointer slot per kernel output.
    pub out_ptr: Vec<usize>,
    /// Total pointer slots.
    pub n_ptrs: usize,
    /// Symbols read by `LoadSymF`, in frame-slot order.
    pub sym_slots: Vec<SymId>,
    /// Total frame size in u64 words.
    pub frame_words: usize,
    /// Lane width baked into the blob (1 = plain scalar emission).
    pub lanes: usize,
    /// Per input: the subset is statically pointwise, so a `lanes > 1`
    /// run broadcasts its single value across the lanes. Spanned inputs
    /// load per-lane at the unit stride the dispatcher verifies.
    pub in_bcast: Vec<bool>,
    /// `lanes > 1` body with select control flow: the lanes are unrolled
    /// as scalar iterations (branches need per-element control flow).
    pub lane_scalar: bool,
    /// Frame words per bool register slot (2 = 16-byte lane masks for
    /// packed bodies, 1 = scalar 0/1 words).
    pub bool_words: usize,
}

impl JitLayout {
    pub fn ptr_word(&self, slot: usize) -> usize {
        3 + slot
    }
    pub fn stride_word(&self, slot: usize) -> usize {
        3 + self.n_ptrs + slot
    }
    pub fn param_word(&self, dim: usize) -> usize {
        3 + 2 * self.n_ptrs + dim
    }
    pub fn bool_word(&self, reg: usize) -> usize {
        3 + 2 * self.n_ptrs + self.n_params + reg * self.bool_words
    }
    pub fn sym_word(&self, slot: usize) -> usize {
        3 + 2 * self.n_ptrs + self.n_params + self.n_regs * self.bool_words + slot
    }
}

/// Static JIT eligibility of a fused kernel: decides up front whether
/// [`emit`] can lower every instruction bit-exactly, and computes the
/// frame layout if so. Infallible emission is the invariant that lets
/// the runtime treat an `Ok` layout as "native unless the OS refuses
/// pages, this run needs interleaved coverage, or a vectorized run
/// spreads its lanes at a non-unit stride".
pub(crate) fn analyze(fk: &FusedKernel, n_params: usize) -> Result<JitLayout, JitReject> {
    if !cfg!(all(unix, target_arch = "x86_64")) {
        return Err(JitReject::UnsupportedArch);
    }
    if fk.lanes > MAX_JIT_LANES {
        return Err(JitReject::LanesTooWide);
    }
    if fk.n_regs > MAX_FLOAT_REGS {
        return Err(JitReject::TooManyRegs);
    }
    let mut n_ptrs = 0usize;
    let in_ptr: Vec<Option<usize>> = fk
        .in_regs
        .iter()
        .map(|r| {
            r.map(|_| {
                n_ptrs += 1;
                n_ptrs - 1
            })
        })
        .collect();
    let out_ptr: Vec<usize> = (0..fk.outputs.len())
        .map(|_| {
            n_ptrs += 1;
            n_ptrs - 1
        })
        .collect();
    if n_ptrs > MAX_PTRS {
        return Err(JitReject::TooManyAccesses);
    }
    for (acc, &(_, from_bool)) in fk.outputs.iter().zip(&fk.out_regs) {
        if matches!(acc.wcr, Some(Wcr::Max) | Some(Wcr::Min)) && from_bool {
            // The min/max blend keeps the stored value live in a
            // register across both scratch xmms; a bool-sourced store
            // has no such register.
            return Err(JitReject::UnsupportedWcr);
        }
    }
    let mut sym_slots: Vec<SymId> = Vec::new();
    for insn in &fk.code {
        match insn {
            FInsn::BinF { op, .. } => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => {}
                _ => return Err(JitReject::UnsupportedOp),
            },
            FInsn::UnF { op, .. } => match op {
                UnOp::Neg | UnOp::Abs | UnOp::Sqrt => {}
                _ => return Err(JitReject::UnsupportedOp),
            },
            FInsn::LoadSymF { sym, .. } if !sym_slots.contains(sym) => {
                sym_slots.push(*sym);
            }
            // Everything else has a direct lowering.
            _ => {}
        }
    }
    let in_bcast: Vec<bool> = fk.inputs.iter().map(|acc| acc.is_pointwise()).collect();
    let lane_scalar = fk.lanes > 1 && fk.has_select;
    let n_regs = fk.n_regs;
    let mut lay = JitLayout {
        n_params,
        n_regs,
        in_ptr,
        out_ptr,
        n_ptrs,
        sym_slots,
        frame_words: 0,
        lanes: fk.lanes,
        in_bcast,
        lane_scalar,
        bool_words: if fk.lanes > 1 && !lane_scalar { 2 } else { 1 },
    };
    lay.frame_words = lay.sym_word(lay.sym_slots.len());
    Ok(lay)
}

/// Byte displacement of a frame word.
fn disp(word: usize) -> i32 {
    (word * 8) as i32
}

/// Pointer register of a frame pointer slot.
fn preg(slot: usize) -> u8 {
    gpr::R8 + slot as u8
}

/// Emits `dst8 = (bool of the flags per `recipe`)`, zero-extends it and
/// stores it into the frame's bool register `reg`. `recipe` is one or
/// two setcc conditions combined with and/or.
enum BoolRecipe {
    One(u8),
    /// `cc0 AND cc1` (e.g. `sete && setnp` for `==`).
    And(u8, u8),
    /// `cc0 OR cc1` (e.g. `setne || setp` for `!=`).
    Or(u8, u8),
}

fn store_flag_bool(a: &mut Asm, lay: &JitLayout, reg: u32, recipe: BoolRecipe) {
    match recipe {
        BoolRecipe::One(c) => a.setcc(c, gpr::RDX),
        BoolRecipe::And(c0, c1) => {
            a.setcc(c0, gpr::RDX);
            a.setcc(c1, gpr::RSI);
            a.and_r8(gpr::RDX, gpr::RSI);
        }
        BoolRecipe::Or(c0, c1) => {
            a.setcc(c0, gpr::RDX);
            a.setcc(c1, gpr::RSI);
            a.or_r8(gpr::RDX, gpr::RSI);
        }
    }
    a.movzx(gpr::RDX, gpr::RDX);
    a.mov_mr(gpr::RDI, disp(lay.bool_word(reg as usize)), gpr::RDX);
}

/// `dst = op(a, b)` preserving operand order (and thus NaN payload
/// propagation) exactly as rustc's own `addsd`-family codegen does.
/// `packed` switches between the `sd` and `pd` instruction forms.
fn bin_fp(a: &mut Asm, packed: bool, op: u8, dst: u8, x: u8, y: u8) {
    let fp = |a: &mut Asm, op, dst, src| {
        if packed {
            a.pd_op(op, dst, src);
        } else {
            a.sd_op(op, dst, src);
        }
    };
    if dst == x {
        fp(a, op, dst, y);
    } else if dst != y {
        a.movapd(dst, x);
        fp(a, op, dst, y);
    } else {
        a.movapd(XMM_SCRATCH1, x);
        fp(a, op, XMM_SCRATCH1, y);
        a.movapd(dst, XMM_SCRATCH1);
    }
}

/// `dst = x.min(y)` / `x.max(y)` (`op` is the `minsd`/`maxsd` opcode
/// byte) via the same NaN- and signed-zero-exact sequence LLVM lowers
/// the Rust intrinsics to: `cand = MIN(y_dst, x_src)` returns `x` on
/// unordered/tied operands, then a bitwise blend replaces the result
/// with `y` where `x` is NaN. Clobbers both scratch xmms; `dst` may
/// alias `x` and/or `y`.
fn minmax_fp(a: &mut Asm, packed: bool, op: u8, dst: u8, x: u8, y: u8) {
    a.movapd(XMM_SCRATCH0, y);
    if packed {
        a.pd_op(op, XMM_SCRATCH0, x);
    } else {
        a.sd_op(op, XMM_SCRATCH0, x);
    }
    a.movapd(XMM_SCRATCH1, x);
    if packed {
        a.cmppd(XMM_SCRATCH1, XMM_SCRATCH1, 3);
    } else {
        a.cmpsd(XMM_SCRATCH1, XMM_SCRATCH1, 3);
    }
    // blend(isnan(x), y, cand) = y ^ (!mask & (cand ^ y)).
    a.xorpd(XMM_SCRATCH0, y);
    a.andnpd(XMM_SCRATCH1, XMM_SCRATCH0);
    a.movapd(XMM_SCRATCH0, y);
    a.xorpd(XMM_SCRATCH0, XMM_SCRATCH1);
    a.movapd(dst, XMM_SCRATCH0);
}

/// Materializes an immediate f64 bit pattern in `dst` (low lane), spread
/// to both lanes when `packed`.
fn const_fp(a: &mut Asm, packed: bool, dst: u8, bits: u64) {
    a.mov_ri(gpr::RDX, bits);
    a.movq_xr(dst, gpr::RDX);
    if packed {
        a.unpcklpd(dst, dst);
    }
}

/// One element (or lane pair) of the row body: the byte offset every
/// spanned access reads/writes at this iteration.
#[derive(Clone, Copy)]
enum Elem {
    Scalar(i32),
    Packed(i32),
}

/// Emits the loads, body and stores for one element (`Elem::Scalar`) or
/// one 2-wide lane pair (`Elem::Packed`) of the row.
fn emit_elem(a: &mut Asm, fk: &FusedKernel, lay: &JitLayout, elem: Elem) {
    let inner = lay.n_params - 1;

    // Input loads, in kernel input order (dead reads were proven
    // in-bounds by the precheck and emit nothing). Statically pointwise
    // reads broadcast the single value at offset 0.
    for (ii, slot) in lay.in_ptr.iter().enumerate() {
        if let (Some(reg), Some(slot)) = (fk.in_regs[ii], slot) {
            match elem {
                Elem::Scalar(off) => {
                    let off = if lay.in_bcast[ii] { 0 } else { off };
                    a.movsd_rm(reg as u8, preg(*slot), off);
                }
                Elem::Packed(off) => {
                    if lay.in_bcast[ii] {
                        a.movsd_rm(reg as u8, preg(*slot), 0);
                        a.unpcklpd(reg as u8, reg as u8);
                    } else {
                        a.movupd_rm(reg as u8, preg(*slot), off);
                    }
                }
            }
        }
    }

    match elem {
        Elem::Scalar(off) => emit_body_scalar(a, fk, lay, inner, off),
        Elem::Packed(off) => emit_body_packed(a, fk, lay, inner, off),
    }
}

/// Scalar body + stores for the element at byte offset `off`. One label
/// per instruction index (plus one past the end) so select jumps can
/// target any point, exactly like the bytecode pc; unrolled lanes get
/// fresh labels per element.
fn emit_body_scalar(a: &mut Asm, fk: &FusedKernel, lay: &JitLayout, inner: usize, off: i32) {
    let labels: Vec<Label> = (0..=fk.code.len()).map(|_| a.label()).collect();
    for (i, insn) in fk.code.iter().enumerate() {
        a.bind(labels[i]);
        match insn {
            FInsn::ConstF { dst, val } => {
                const_fp(a, false, *dst as u8, val.to_bits());
            }
            FInsn::ConstB { dst, val } => {
                a.mov_ri(gpr::RDX, *val as u64);
                a.mov_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), gpr::RDX);
            }
            FInsn::MovF { dst, src } => {
                if dst != src {
                    a.movapd(*dst as u8, *src as u8);
                }
            }
            FInsn::MovB { dst, src } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*src as usize)));
                a.mov_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), gpr::RDX);
            }
            FInsn::LoadSymF { dst, sym } => {
                let slot = lay
                    .sym_slots
                    .iter()
                    .position(|s| s == sym)
                    .expect("analyze collected every LoadSymF symbol");
                a.movsd_rm(*dst as u8, gpr::RDI, disp(lay.sym_word(slot)));
            }
            FInsn::LoadParamF { dst, dim } => {
                if *dim as usize == inner {
                    a.cvtsi2sd(*dst as u8, gpr::RAX);
                } else {
                    a.movsd_rm(*dst as u8, gpr::RDI, disp(lay.param_word(*dim as usize)));
                }
            }
            FInsn::BinF {
                op,
                dst,
                a: x,
                b: y,
            } => match fp_opcode(*op) {
                FpOp::Plain(opb) => bin_fp(a, false, opb, *dst as u8, *x as u8, *y as u8),
                FpOp::MinMax(opb) => minmax_fp(a, false, opb, *dst as u8, *x as u8, *y as u8),
            },
            FInsn::UnF { op, dst, a: x } => match op {
                UnOp::Sqrt => a.sd_op(0x51, *dst as u8, *x as u8),
                UnOp::Neg | UnOp::Abs => {
                    emit_sign_mask(a, false, op, *dst as u8, *x as u8);
                }
                _ => unreachable!("rejected by analyze"),
            },
            FInsn::CmpF {
                op,
                dst,
                a: x,
                b: y,
            } => {
                // `ucomisd p, q` sets flags for `p ? q`; unordered sets
                // ZF=PF=CF=1. The recipes reproduce Rust's comparison
                // semantics including NaN operands.
                let recipe = match op {
                    CmpOp::Lt => {
                        a.ucomisd(*y as u8, *x as u8);
                        BoolRecipe::One(cc::A)
                    }
                    CmpOp::Le => {
                        a.ucomisd(*y as u8, *x as u8);
                        BoolRecipe::One(cc::AE)
                    }
                    CmpOp::Gt => {
                        a.ucomisd(*x as u8, *y as u8);
                        BoolRecipe::One(cc::A)
                    }
                    CmpOp::Ge => {
                        a.ucomisd(*x as u8, *y as u8);
                        BoolRecipe::One(cc::AE)
                    }
                    CmpOp::Eq => {
                        a.ucomisd(*x as u8, *y as u8);
                        BoolRecipe::And(cc::E, cc::NP)
                    }
                    CmpOp::Ne => {
                        a.ucomisd(*x as u8, *y as u8);
                        BoolRecipe::Or(cc::NE, cc::P)
                    }
                };
                store_flag_bool(a, lay, *dst, recipe);
            }
            FInsn::NotB { dst, a: x } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.xor_ri8(gpr::RDX, 1);
                a.mov_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), gpr::RDX);
            }
            FInsn::AndB { dst, a: x, b: y } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.and_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*y as usize)));
                a.mov_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), gpr::RDX);
            }
            FInsn::OrB { dst, a: x, b: y } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.or_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*y as usize)));
                a.mov_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), gpr::RDX);
            }
            FInsn::BoolFromF { reg } => {
                a.xorpd(XMM_SCRATCH1, XMM_SCRATCH1);
                a.ucomisd(*reg as u8, XMM_SCRATCH1);
                store_flag_bool(a, lay, *reg, BoolRecipe::Or(cc::NE, cc::P));
            }
            FInsn::FloatFromB { dst, src } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*src as usize)));
                a.cvtsi2sd(*dst as u8, gpr::RDX);
            }
            FInsn::JumpIfFalse { cond, target } => {
                a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(*cond as usize)));
                a.test_rr(gpr::RDX, gpr::RDX);
                a.jcc(cc::E, labels[*target as usize]);
            }
            FInsn::Jump { target } => {
                a.jmp(labels[*target as usize]);
            }
        }
    }
    a.bind(labels[fk.code.len()]);

    // Output stores, in kernel output order (WCR combines
    // load-op-store, preserving exact accumulation order).
    for (oi, acc) in fk.outputs.iter().enumerate() {
        let (reg, from_bool) = fk.out_regs[oi];
        let pr = preg(lay.out_ptr[oi]);
        let src = if from_bool {
            a.mov_rm(gpr::RDX, gpr::RDI, disp(lay.bool_word(reg as usize)));
            a.cvtsi2sd(XMM_SCRATCH1, gpr::RDX);
            XMM_SCRATCH1
        } else {
            reg as u8
        };
        match acc.wcr {
            None => a.movsd_mr(pr, off, src),
            Some(Wcr::Sum) => {
                a.movsd_rm(XMM_SCRATCH0, pr, off);
                a.sd_op(0x58, XMM_SCRATCH0, src);
                a.movsd_mr(pr, off, XMM_SCRATCH0);
            }
            Some(Wcr::Prod) => {
                a.movsd_rm(XMM_SCRATCH0, pr, off);
                a.sd_op(0x59, XMM_SCRATCH0, src);
                a.movsd_mr(pr, off, XMM_SCRATCH0);
            }
            Some(Wcr::Min) | Some(Wcr::Max) => {
                // `out = old.min(v)` — analyze guarantees `src` is a
                // kernel register, which stays live across the blend.
                let opb = if matches!(acc.wcr, Some(Wcr::Min)) {
                    0x5D
                } else {
                    0x5F
                };
                emit_wcr_minmax(a, false, opb, pr, off, src);
            }
        }
    }
}

/// Packed (2-wide lane pair) body + stores at byte offset `off`. Only
/// reachable for branch-free bodies (`!lane_scalar`), so jumps and
/// select markers cannot occur.
fn emit_body_packed(a: &mut Asm, fk: &FusedKernel, lay: &JitLayout, inner: usize, off: i32) {
    for insn in fk.code.iter() {
        match insn {
            FInsn::ConstF { dst, val } => {
                const_fp(a, true, *dst as u8, val.to_bits());
            }
            FInsn::ConstB { dst, val } => {
                if *val {
                    a.pcmpeqd(XMM_SCRATCH1, XMM_SCRATCH1);
                } else {
                    a.xorpd(XMM_SCRATCH1, XMM_SCRATCH1);
                }
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH1);
            }
            FInsn::MovF { dst, src } => {
                if dst != src {
                    a.movapd(*dst as u8, *src as u8);
                }
            }
            FInsn::MovB { dst, src } => {
                a.movupd_rm(XMM_SCRATCH1, gpr::RDI, disp(lay.bool_word(*src as usize)));
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH1);
            }
            FInsn::LoadSymF { dst, sym } => {
                let slot = lay
                    .sym_slots
                    .iter()
                    .position(|s| s == sym)
                    .expect("analyze collected every LoadSymF symbol");
                a.movsd_rm(*dst as u8, gpr::RDI, disp(lay.sym_word(slot)));
                a.unpcklpd(*dst as u8, *dst as u8);
            }
            FInsn::LoadParamF { dst, dim } => {
                // Map parameters never index the synthetic lane dim, so
                // both lanes see the same value.
                if *dim as usize == inner {
                    a.cvtsi2sd(*dst as u8, gpr::RAX);
                } else {
                    a.movsd_rm(*dst as u8, gpr::RDI, disp(lay.param_word(*dim as usize)));
                }
                a.unpcklpd(*dst as u8, *dst as u8);
            }
            FInsn::BinF {
                op,
                dst,
                a: x,
                b: y,
            } => match fp_opcode(*op) {
                FpOp::Plain(opb) => bin_fp(a, true, opb, *dst as u8, *x as u8, *y as u8),
                FpOp::MinMax(opb) => minmax_fp(a, true, opb, *dst as u8, *x as u8, *y as u8),
            },
            FInsn::UnF { op, dst, a: x } => match op {
                UnOp::Sqrt => a.pd_op(0x51, *dst as u8, *x as u8),
                UnOp::Neg | UnOp::Abs => {
                    emit_sign_mask(a, true, op, *dst as u8, *x as u8);
                }
                _ => unreachable!("rejected by analyze"),
            },
            FInsn::CmpF {
                op,
                dst,
                a: x,
                b: y,
            } => {
                // `cmppd` predicates matching Rust: `<`/`<=` are the
                // ordered LT_OS/LE_OS (NaN → false), `>`/`>=` swap the
                // operands, `==` is EQ_OQ (NaN → false) and `!=` is
                // NEQ_UQ (NaN → true).
                let (p, q, pred) = match op {
                    CmpOp::Lt => (*x, *y, 1),
                    CmpOp::Le => (*x, *y, 2),
                    CmpOp::Gt => (*y, *x, 1),
                    CmpOp::Ge => (*y, *x, 2),
                    CmpOp::Eq => (*x, *y, 0),
                    CmpOp::Ne => (*x, *y, 4),
                };
                a.movapd(XMM_SCRATCH0, p as u8);
                a.cmppd(XMM_SCRATCH0, q as u8, pred);
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH0);
            }
            FInsn::NotB { dst, a: x } => {
                a.movupd_rm(XMM_SCRATCH0, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.pcmpeqd(XMM_SCRATCH1, XMM_SCRATCH1);
                a.xorpd(XMM_SCRATCH0, XMM_SCRATCH1);
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH0);
            }
            FInsn::AndB { dst, a: x, b: y } => {
                a.movupd_rm(XMM_SCRATCH0, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.movupd_rm(XMM_SCRATCH1, gpr::RDI, disp(lay.bool_word(*y as usize)));
                a.andpd(XMM_SCRATCH0, XMM_SCRATCH1);
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH0);
            }
            FInsn::OrB { dst, a: x, b: y } => {
                a.movupd_rm(XMM_SCRATCH0, gpr::RDI, disp(lay.bool_word(*x as usize)));
                a.movupd_rm(XMM_SCRATCH1, gpr::RDI, disp(lay.bool_word(*y as usize)));
                a.orpd(XMM_SCRATCH0, XMM_SCRATCH1);
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*dst as usize)), XMM_SCRATCH0);
            }
            FInsn::BoolFromF { reg } => {
                // `v != 0.0` per lane (NaN → true), matching the scalar
                // ucomisd `setne || setp` recipe.
                a.xorpd(XMM_SCRATCH0, XMM_SCRATCH0);
                a.movapd(XMM_SCRATCH1, *reg as u8);
                a.cmppd(XMM_SCRATCH1, XMM_SCRATCH0, 4);
                a.movupd_mr(gpr::RDI, disp(lay.bool_word(*reg as usize)), XMM_SCRATCH1);
            }
            FInsn::FloatFromB { dst, src } => {
                a.movupd_rm(XMM_SCRATCH0, gpr::RDI, disp(lay.bool_word(*src as usize)));
                const_fp(a, true, XMM_SCRATCH1, 1f64.to_bits());
                a.andpd(XMM_SCRATCH0, XMM_SCRATCH1);
                a.movapd(*dst as u8, XMM_SCRATCH0);
            }
            FInsn::JumpIfFalse { .. } | FInsn::Jump { .. } => {
                unreachable!("packed bodies are branch-free (lane_scalar handles selects)")
            }
        }
    }

    // Lane-pair output stores. Lanes write distinct elements (unit
    // stride), so per-pair WCR combines preserve the bytecode loop's
    // accumulation order.
    for (oi, acc) in fk.outputs.iter().enumerate() {
        let (reg, from_bool) = fk.out_regs[oi];
        let pr = preg(lay.out_ptr[oi]);
        let src = if from_bool {
            a.movupd_rm(XMM_SCRATCH1, gpr::RDI, disp(lay.bool_word(reg as usize)));
            const_fp(a, true, XMM_SCRATCH0, 1f64.to_bits());
            a.andpd(XMM_SCRATCH1, XMM_SCRATCH0);
            XMM_SCRATCH1
        } else {
            reg as u8
        };
        match acc.wcr {
            None => a.movupd_mr(pr, off, src),
            Some(Wcr::Sum) => {
                a.movupd_rm(XMM_SCRATCH0, pr, off);
                a.pd_op(0x58, XMM_SCRATCH0, src);
                a.movupd_mr(pr, off, XMM_SCRATCH0);
            }
            Some(Wcr::Prod) => {
                a.movupd_rm(XMM_SCRATCH0, pr, off);
                a.pd_op(0x59, XMM_SCRATCH0, src);
                a.movupd_mr(pr, off, XMM_SCRATCH0);
            }
            Some(Wcr::Min) | Some(Wcr::Max) => {
                let opb = if matches!(acc.wcr, Some(Wcr::Min)) {
                    0x5D
                } else {
                    0x5F
                };
                emit_wcr_minmax(a, true, opb, pr, off, src);
            }
        }
    }
}

enum FpOp {
    Plain(u8),
    MinMax(u8),
}

fn fp_opcode(op: BinOp) -> FpOp {
    match op {
        BinOp::Add => FpOp::Plain(0x58),
        BinOp::Sub => FpOp::Plain(0x5C),
        BinOp::Mul => FpOp::Plain(0x59),
        BinOp::Div => FpOp::Plain(0x5E),
        BinOp::Min => FpOp::MinMax(0x5D),
        BinOp::Max => FpOp::MinMax(0x5F),
        _ => unreachable!("rejected by analyze"),
    }
}

/// `dst = -x` / `|x|` via the sign-mask `xorpd`/`andpd` idiom rustc
/// emits; the mask is spread to both lanes when `packed`.
fn emit_sign_mask(a: &mut Asm, packed: bool, op: &UnOp, dst: u8, x: u8) {
    let mask = if matches!(op, UnOp::Neg) {
        0x8000_0000_0000_0000u64
    } else {
        0x7FFF_FFFF_FFFF_FFFFu64
    };
    const_fp(a, packed, XMM_SCRATCH1, mask);
    if dst != x {
        a.movapd(dst, x);
    }
    if matches!(op, UnOp::Neg) {
        a.xorpd(dst, XMM_SCRATCH1);
    } else {
        a.andpd(dst, XMM_SCRATCH1);
    }
}

/// `[pr + off] = old.min(v)` / `old.max(v)` as a load-blend-store (`op`
/// is the `minsd`/`maxsd` opcode byte, `v` a live kernel register).
/// Same LLVM-exact shape as [`minmax_fp`] with `x = old`, `y = v`:
/// `cand = MIN(v_dst, old_src)` returns `old` on unordered/tied
/// operands, and the blend selects `v` where `old` is NaN.
fn emit_wcr_minmax(a: &mut Asm, packed: bool, op: u8, pr: u8, off: i32, v: u8) {
    if packed {
        a.movupd_rm(XMM_SCRATCH0, pr, off);
    } else {
        a.movsd_rm(XMM_SCRATCH0, pr, off);
    }
    a.movapd(XMM_SCRATCH1, v);
    if packed {
        a.pd_op(op, XMM_SCRATCH1, XMM_SCRATCH0);
        a.cmppd(XMM_SCRATCH0, XMM_SCRATCH0, 3);
    } else {
        a.sd_op(op, XMM_SCRATCH1, XMM_SCRATCH0);
        a.cmpsd(XMM_SCRATCH0, XMM_SCRATCH0, 3);
    }
    // blend(isnan(old), v, cand) = v ^ (!mask & (cand ^ v)).
    a.xorpd(XMM_SCRATCH1, v);
    a.andnpd(XMM_SCRATCH0, XMM_SCRATCH1);
    a.xorpd(XMM_SCRATCH0, v);
    if packed {
        a.movupd_mr(pr, off, XMM_SCRATCH0);
    } else {
        a.movsd_mr(pr, off, XMM_SCRATCH0);
    }
}

/// Lowers an analyzed kernel to finished instruction bytes. Must not be
/// called unless [`analyze`] returned this layout (emission is
/// infallible under the invariants it established).
pub(crate) fn emit(fk: &FusedKernel, lay: &JitLayout) -> Vec<u8> {
    let mut a = Asm::new();
    let saved: Vec<u8> = (4..lay.n_ptrs).map(preg).collect();
    for &r in &saved {
        a.push(r);
    }
    let done = a.label();
    a.mov_rm(gpr::RCX, gpr::RDI, disp(0));
    a.test_rr(gpr::RCX, gpr::RCX);
    a.jcc(cc::E, done);
    a.mov_rm(gpr::RAX, gpr::RDI, disp(1));
    for slot in 0..lay.n_ptrs {
        a.mov_rm(preg(slot), gpr::RDI, disp(lay.ptr_word(slot)));
    }
    let top = a.label();
    a.bind(top);

    if lay.lanes == 1 {
        emit_elem(&mut a, fk, lay, Elem::Scalar(0));
    } else if lay.lane_scalar {
        // Select bodies: unroll the lanes as scalar elements, in exact
        // bytecode element order.
        for l in 0..lay.lanes {
            emit_elem(&mut a, fk, lay, Elem::Scalar((l * 8) as i32));
        }
    } else {
        // Packed pairs, then one scalar remainder element for odd lane
        // counts — after the pairs, preserving element order.
        for p in 0..lay.lanes / 2 {
            emit_elem(&mut a, fk, lay, Elem::Packed((p * 16) as i32));
        }
        if lay.lanes % 2 == 1 {
            emit_elem(&mut a, fk, lay, Elem::Scalar(((lay.lanes - 1) * 8) as i32));
        }
    }

    // Advance pointers and the inner parameter; loop.
    for slot in 0..lay.n_ptrs {
        a.add_rm(preg(slot), gpr::RDI, disp(lay.stride_word(slot)));
    }
    a.add_rm(gpr::RAX, gpr::RDI, disp(2));
    a.dec(gpr::RCX);
    a.jcc(cc::NE, top);
    a.bind(done);
    for &r in saved.iter().rev() {
        a.pop(r);
    }
    a.ret();
    a.finish()
}
