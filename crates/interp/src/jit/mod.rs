//! Native x86_64 code emission for fused map kernels — the native half
//! of the fused rung.
//!
//! Eligible [`FusedKernel`](crate::program) bodies are lowered once to a
//! straight-line native inner-row loop (see the `lower` module) and executed
//! through the same runtime precheck as the chunk loop: a kernel runs
//! natively only after the precheck proved that no out-of-bounds
//! access, overflow, unbound symbol or step-budget trip can occur
//! anywhere in the iteration box, and step accounting plus batched
//! coverage are computed arithmetically — bit-identical to per-element
//! execution by construction. Any ineligibility (unsupported op, too
//! many registers, interleaved coverage) falls back to the chunk loop,
//! or for select bodies to per-element generic bytecode; the reason is
//! reported through [`JitReject`], mirroring
//! [`FuseReject`](crate::FuseReject).
//!
//! # Packed emission (`lanes > 1`)
//!
//! Vectorized fused kernels — the tier-2 lane-blocked workhorses — are
//! lowered to **packed SSE2** rather than rejected: the kernel body runs
//! on 2-wide xmm lane pairs (`movupd`/`addpd`-family) over unit-stride
//! accesses, with a single scalar remainder element for odd lane counts
//! emitted *after* the pairs so element order matches the bytecode loop
//! exactly. Statically pointwise reads broadcast one value across the
//! lanes (`movsd` + `unpcklpd`); bodies with select control flow keep
//! per-element branches by unrolling the lanes as scalar iterations
//! inside the same blob. Lane strides other than the unit stride the
//! pair loads assume are detected per run and fall back per-kernel
//! ([`JitReject::NonUnitStrideLanes`]) — never per-element — so error
//! ordering and step accounting stay bit-identical.
//!
//! `min`/`max` (both as body instructions and as write-conflict
//! combiners) are emitted NaN- and signed-zero-exactly with the same
//! blend rustc/LLVM uses for `f64::min`: `cand = minsd/minpd(y_dst,
//! x_src)` (returns the *source* on unordered/tied operands), an
//! `isnan(x)` mask from a self-`cmppd`, and a branch-free
//! `xorpd`/`andnpd`/`xorpd` bitwise blend selecting `y` where `x` is
//! NaN — ties return the first operand and NaN payloads propagate like
//! the scalar Rust code. The former `JitReject::Vectorized` variant is
//! retired in favor of the precise residual reasons
//! ([`JitReject::LanesTooWide`], [`JitReject::NonUnitStrideLanes`]);
//! `UnsupportedOp`/`UnsupportedWcr` no longer cover `min`/`max` (the
//! sole `UnsupportedWcr` residue is a `min`/`max` combiner fed from a
//! bool register). Reject messages remain stable aggregation keys.
//!
//! # W^X page lifecycle
//!
//! Emitted code lives in pages obtained directly from `mmap` (raw
//! `extern "C"` bindings — no new dependencies) and is never writable
//! and executable at the same time:
//!
//! 1. `JitCode::publish` maps fresh anonymous pages `PROT_READ |
//!    PROT_WRITE`, copies the finished instruction bytes in, and
//! 2. flips the whole mapping to `PROT_READ | PROT_EXEC` with
//!    `mprotect` before the entry pointer ever escapes. A failed flip
//!    unmaps and reports emission failure (the caller falls back to
//!    bytecode).
//! 3. The mapping is `munmap`ed when the last `Arc<JitCode>` drops. The
//!    kernel that emitted it holds it, so it lives exactly as long as
//!    the last clone of its `Program`; executors borrow the program for
//!    the whole run, so code is never unmapped while it executes.
//!
//! The `jit_wx` smoke test asserts process-wide (via `/proc/self/maps`)
//! that no `rwx` mapping exists after compilation.
//!
//! # Code ownership
//!
//! Compiled blobs are shape-independent: strides, pointers, symbol and
//! parameter values are read from a per-call frame, so one compilation
//! serves every trial of a kernel. Each fused kernel owns a write-once
//! slot for its code: the first native-eligible run emits and publishes
//! into it (concurrent first runs wait for that one emission), and every
//! later run borrows the code with one acquire load. Programs served
//! from the shared program cache bring their emitted code with them, so
//! warm campaigns compile zero programs and emit zero bytes of native
//! code. Code memory is bounded by the programs that are alive.

pub(crate) mod encoder;
pub(crate) mod lower;

use std::sync::atomic::{AtomicU64, Ordering};

/// Why a fused map scope is not eligible for native execution (or why a
/// particular run fell back at runtime). Static data with a stable
/// message, mirroring [`FuseReject`](crate::FuseReject), so campaign
/// reports can aggregate eligibility counts per reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JitReject {
    /// `ExecOptions::jit` was off for this run.
    Disabled,
    /// The host is not x86_64 (the only emitted target).
    UnsupportedArch,
    /// The map scope did not fuse at all — the JIT only lowers fused
    /// kernels.
    NotFused,
    /// The kernel is vectorized wider than the packed emitter unrolls
    /// (`MAX_JIT_LANES` lanes).
    LanesTooWide,
    /// The body needs more float registers than `xmm0..xmm13`.
    TooManyRegs,
    /// More live memory accesses than the pointer registers `r8..r15`.
    TooManyAccesses,
    /// An instruction outside the emitted SSE2 subset (e.g. `pow`,
    /// transcendentals).
    UnsupportedOp,
    /// A write-conflict-resolution combiner without an exact SSE2
    /// lowering (a `min`/`max` combiner fed from a bool register — the
    /// blend needs the stored value live in a register).
    UnsupportedWcr,
    /// Runtime-only: this run records interleaved per-element coverage
    /// (select branches or multi-tasklet pipelines under a coverage
    /// map), which only per-element generic bytecode reproduces exactly.
    CoverageInterleave,
    /// Runtime-only: this run spreads a vectorized kernel's lanes at a
    /// stride other than the unit stride the packed loads assume, so it
    /// falls back to the chunk loop (select bodies: per element).
    NonUnitStrideLanes,
    /// Runtime-only: the OS refused executable pages.
    MmapFailed,
}

/// Renders `{prefix}{n}{suffix}` into a fixed byte array at compile
/// time, so reject messages quoting a register budget are derived from
/// the budget constant itself and cannot drift from the encoder. The
/// internal `assert!` fails the build when `LEN` disagrees with the
/// rendered length.
const fn budget_msg<const LEN: usize>(prefix: &str, n: usize, suffix: &str) -> [u8; LEN] {
    let mut out = [0u8; LEN];
    let mut i = 0;
    let p = prefix.as_bytes();
    let mut j = 0;
    while j < p.len() {
        out[i] = p[j];
        i += 1;
        j += 1;
    }
    let mut div = 1usize;
    while n / div >= 10 {
        div *= 10;
    }
    while div > 0 {
        out[i] = b'0' + (n / div % 10) as u8;
        i += 1;
        div /= 10;
    }
    let s = suffix.as_bytes();
    j = 0;
    while j < s.len() {
        out[i] = s[j];
        i += 1;
        j += 1;
    }
    assert!(i == LEN, "budget message length mismatch");
    out
}

const fn msg_str(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(_) => panic!("budget messages are ASCII"),
    }
}

const TOO_MANY_REGS_BYTES: [u8; 39] = budget_msg(
    "body needs more than ",
    lower::MAX_FLOAT_REGS,
    " float registers",
);
const TOO_MANY_REGS_MSG: &str = msg_str(&TOO_MANY_REGS_BYTES);
const TOO_MANY_ACCESSES_BYTES: [u8; 32] =
    budget_msg("more than ", lower::MAX_PTRS, " live memory accesses");
const TOO_MANY_ACCESSES_MSG: &str = msg_str(&TOO_MANY_ACCESSES_BYTES);
const LANES_TOO_WIDE_BYTES: [u8; 25] =
    budget_msg("more than ", lower::MAX_JIT_LANES, " vector lanes");
const LANES_TOO_WIDE_MSG: &str = msg_str(&LANES_TOO_WIDE_BYTES);

impl JitReject {
    /// Stable human-readable message (also the aggregation key in
    /// campaign reports).
    pub fn message(self) -> &'static str {
        match self {
            JitReject::Disabled => "jit disabled",
            JitReject::UnsupportedArch => "host is not x86_64",
            JitReject::NotFused => "map not fused",
            JitReject::LanesTooWide => LANES_TOO_WIDE_MSG,
            JitReject::TooManyRegs => TOO_MANY_REGS_MSG,
            JitReject::TooManyAccesses => TOO_MANY_ACCESSES_MSG,
            JitReject::UnsupportedOp => "instruction outside the emitted SSE2 subset",
            JitReject::UnsupportedWcr => "write-conflict combiner without exact SSE2 equivalent",
            JitReject::CoverageInterleave => "run records interleaved per-element coverage",
            JitReject::NonUnitStrideLanes => "vector lanes not unit-stride at runtime",
            JitReject::MmapFailed => "executable pages unavailable",
        }
    }
}

/// Counts kernel entries that actually executed native code, process
/// wide, split by emission kind. Tests and benches use the deltas to
/// assert the JIT engaged; campaign reports surface both as cache-tally
/// deltas.
static NATIVE_RUNS_SCALAR: AtomicU64 = AtomicU64::new(0);
static NATIVE_RUNS_PACKED: AtomicU64 = AtomicU64::new(0);

/// Number of fused-kernel executions that ran native code so far in this
/// process (scalar and packed emission combined).
pub fn jit_native_runs() -> u64 {
    NATIVE_RUNS_SCALAR.load(Ordering::Relaxed) + NATIVE_RUNS_PACKED.load(Ordering::Relaxed)
}

/// `(scalar, packed)` native-run counters — the per-emission-kind split
/// of [`jit_native_runs`].
pub fn jit_native_runs_split() -> (u64, u64) {
    (
        NATIVE_RUNS_SCALAR.load(Ordering::Relaxed),
        NATIVE_RUNS_PACKED.load(Ordering::Relaxed),
    )
}

pub(crate) fn count_native_run(packed: bool) {
    if packed {
        NATIVE_RUNS_PACKED.fetch_add(1, Ordering::Relaxed);
    } else {
        NATIVE_RUNS_SCALAR.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts kernels lowered to native code and mapped, process wide, and
/// their instruction bytes. Warm campaign re-runs leave both unchanged.
static EMISSIONS: AtomicU64 = AtomicU64::new(0);
static EMITTED_BYTES: AtomicU64 = AtomicU64::new(0);

/// `(kernels, bytes)` of native code emitted so far in this process.
/// Every emission serves its kernel's first native run, so native runs
/// minus emissions is the number of runs that reused code.
pub fn jit_emissions() -> (u64, u64) {
    (
        EMISSIONS.load(Ordering::Relaxed),
        EMITTED_BYTES.load(Ordering::Relaxed),
    )
}

pub(crate) fn count_emission(bytes: usize) {
    EMISSIONS.fetch_add(1, Ordering::Relaxed);
    EMITTED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// ----- W^X executable pages ----------------------------------------------

#[cfg(all(unix, target_arch = "x86_64"))]
mod sys {
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const PROT_EXEC: i32 = 4;
    pub const MAP_PRIVATE: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const MAP_ANON: i32 = 0x20;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_ANON: i32 = 0x1000;
}

/// One published native kernel: an `mmap`ed read+execute mapping holding
/// the finished instruction bytes. See the module docs for the W^X
/// lifecycle; the mapping is freed when the last `Arc<JitCode>` drops.
#[derive(Debug)]
pub struct JitCode {
    ptr: *mut u8,
    map_len: usize,
    code_len: usize,
}

// SAFETY: the mapping is immutable (RX) from publication to unmap, and
// unmapped only by the sole `Drop` when the last owner releases it.
unsafe impl Send for JitCode {}
unsafe impl Sync for JitCode {}

impl JitCode {
    /// Maps fresh RW pages, copies `code` in, and seals them RX. Returns
    /// `None` when the OS refuses (the caller falls back to bytecode).
    #[cfg(all(unix, target_arch = "x86_64"))]
    pub(crate) fn publish(code: &[u8]) -> Option<JitCode> {
        let page = 4096usize;
        let map_len = code.len().div_ceil(page).max(1) * page;
        // SAFETY: anonymous private mapping with no address hint; all
        // arguments are well-formed for every unix mmap.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                map_len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANON,
                -1,
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return None;
        }
        // SAFETY: `ptr..ptr+map_len` is a fresh private mapping owned
        // exclusively by this call.
        unsafe {
            std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len());
            if sys::mprotect(ptr, map_len, sys::PROT_READ | sys::PROT_EXEC) != 0 {
                sys::munmap(ptr, map_len);
                return None;
            }
        }
        Some(JitCode {
            ptr,
            map_len,
            code_len: code.len(),
        })
    }

    #[cfg(not(all(unix, target_arch = "x86_64")))]
    pub(crate) fn publish(_code: &[u8]) -> Option<JitCode> {
        None
    }

    /// Emitted instruction bytes (not the page-rounded mapping length).
    pub fn code_len(&self) -> usize {
        self.code_len
    }

    /// The kernel entry point: `extern "C" fn(frame: *mut u64)` running
    /// one inner row per call.
    ///
    /// # Safety
    /// The frame must follow the [`lower::JitLayout`] this code was
    /// emitted for, with every pointer slot addressing live, in-bounds
    /// f64 storage for the row (the fused runtime precheck establishes
    /// exactly this), and read slots disjoint from the write set except
    /// a pointwise in-place read, which addresses its paired write's
    /// element.
    pub(crate) unsafe fn entry(&self) -> unsafe extern "C" fn(*mut u64) {
        std::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut u64)>(self.ptr)
    }
}

impl Drop for JitCode {
    fn drop(&mut self) {
        #[cfg(all(unix, target_arch = "x86_64"))]
        // SAFETY: `ptr`/`map_len` came from the successful mmap in
        // `publish` and are unmapped exactly once.
        unsafe {
            sys::munmap(self.ptr, self.map_len);
        }
    }
}
