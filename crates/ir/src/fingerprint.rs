//! Structural content fingerprints for incremental re-analysis.
//!
//! The incremental pipeline (`cayman-core`'s `IncrementalApp`) keys every
//! query by *content*, not by revision counters: two module states whose
//! functions hash equal get bit-identical analysis results, so an edit that
//! restores earlier content re-hits every cache (the salsa "change it back"
//! green path). That only works if the fingerprint covers **everything an
//! analysis can observe** about a function — parameter and return types,
//! block structure, instruction operands (float immediates by IEEE bits),
//! terminators and the value arena — and nothing it cannot (the lazily
//! cached `instr → block` map is derived state and excluded).
//!
//! The hash is FNV-1a over a canonical field walk with a splitmix64
//! finaliser. It is a few ns per instruction: cheap enough to run on the
//! edited function inside a sub-millisecond re-selection budget.
//! Fingerprints are 64-bit, so collisions are possible in principle; every
//! incremental result is additionally pinned bit-identical to fresh analysis
//! by the differential gates in `cayman-bench`.
//!
//! Plain 64-bit FNV-1a is exported too ([`fnv1a`], [`fnv1a_u64s`]) as the
//! one FNV in the workspace: the design cache's stripe pick, the selection
//! and incremental block-count keys, and the store's checksums and object
//! names all call it.

use crate::instr::{Imm, Instr, Operand, Terminator};
use crate::interp::{Memory, Value};
use crate::module::{ArrayDecl, Function, Module, ValueDef};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Standard 64-bit FNV-1a over `bytes` (no finaliser).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// 64-bit FNV-1a over the little-endian bytes of `vals`, in order.
pub fn fnv1a_u64s(vals: &[u64]) -> u64 {
    vals.iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_from(h, &v.to_le_bytes()))
}

/// Incremental FNV-1a/splitmix64 hasher over IR structure.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn u8(&mut self, b: u8) {
        self.0 = fnv1a_from(self.0, &[b]);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.as_bytes() {
            self.u8(*b);
        }
    }

    fn opnd(&mut self, o: &Operand) {
        match *o {
            Operand::Value(v) => {
                self.u8(0);
                self.u64(u64::from(v.0));
            }
            Operand::Const(imm) => {
                self.u8(1);
                match imm {
                    Imm::Int(i) => {
                        self.u8(0);
                        self.u64(i as u64);
                    }
                    Imm::Float(f) => {
                        self.u8(1);
                        self.u64(f.to_bits());
                    }
                    Imm::Bool(b) => {
                        self.u8(2);
                        self.u8(u8::from(b));
                    }
                }
            }
        }
    }

    /// splitmix64 finaliser: FNV alone mixes low bits poorly, and these
    /// digests feed `HashMap` keys and cache-stripe picks directly.
    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn hash_instr(h: &mut Fnv, ins: &Instr) {
    match ins {
        Instr::Binary { op, ty, lhs, rhs } => {
            h.u8(0);
            h.u8(*op as u8);
            h.u8(*ty as u8);
            h.opnd(lhs);
            h.opnd(rhs);
        }
        Instr::Unary { op, ty, val } => {
            h.u8(1);
            h.u8(*op as u8);
            h.u8(*ty as u8);
            h.opnd(val);
        }
        Instr::Cmp { pred, ty, lhs, rhs } => {
            h.u8(2);
            h.u8(*pred as u8);
            h.u8(*ty as u8);
            h.opnd(lhs);
            h.opnd(rhs);
        }
        Instr::Select {
            cond,
            ty,
            then_val,
            else_val,
        } => {
            h.u8(3);
            h.u8(*ty as u8);
            h.opnd(cond);
            h.opnd(then_val);
            h.opnd(else_val);
        }
        Instr::Gep { array, indices } => {
            h.u8(4);
            h.u64(u64::from(array.0));
            h.usize(indices.len());
            for idx in indices {
                h.opnd(idx);
            }
        }
        Instr::Load { ptr, ty } => {
            h.u8(5);
            h.u8(*ty as u8);
            h.opnd(ptr);
        }
        Instr::Store { ptr, value, ty } => {
            h.u8(6);
            h.u8(*ty as u8);
            h.opnd(ptr);
            h.opnd(value);
        }
        Instr::Phi { ty, incomings } => {
            h.u8(7);
            h.u8(*ty as u8);
            h.usize(incomings.len());
            for (b, o) in incomings {
                h.u64(u64::from(b.0));
                h.opnd(o);
            }
        }
        Instr::Call { callee, args, ty } => {
            h.u8(8);
            h.u64(u64::from(callee.0));
            match ty {
                None => h.u8(0),
                Some(t) => {
                    h.u8(1);
                    h.u8(*t as u8);
                }
            }
            h.usize(args.len());
            for a in args {
                h.opnd(a);
            }
        }
    }
}

fn hash_term(h: &mut Fnv, t: &Terminator) {
    match t {
        Terminator::Br(b) => {
            h.u8(0);
            h.u64(u64::from(b.0));
        }
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            h.u8(1);
            h.opnd(cond);
            h.u64(u64::from(then_bb.0));
            h.u64(u64::from(else_bb.0));
        }
        Terminator::Ret(v) => {
            h.u8(2);
            match v {
                None => h.u8(0),
                Some(o) => {
                    h.u8(1);
                    h.opnd(o);
                }
            }
        }
    }
}

/// Content fingerprint of one function: every analysis-observable field in a
/// canonical order. Equal fingerprints ⇒ structurally identical functions ⇒
/// bit-identical per-function analysis, normalization and decode results.
pub fn fingerprint_function(f: &Function) -> u64 {
    let mut h = Fnv::new();
    h.str(&f.name);
    h.usize(f.params.len());
    for p in &f.params {
        h.u8(*p as u8);
    }
    match f.ret {
        None => h.u8(0),
        Some(t) => {
            h.u8(1);
            h.u8(t as u8);
        }
    }
    h.usize(f.blocks.len());
    for b in &f.blocks {
        h.str(&b.name);
        h.usize(b.instrs.len());
        for i in &b.instrs {
            h.u64(u64::from(i.0));
        }
        match &b.term {
            None => h.u8(0),
            Some(t) => {
                h.u8(1);
                hash_term(&mut h, t);
            }
        }
    }
    h.usize(f.instrs.len());
    for ins in &f.instrs {
        hash_instr(&mut h, ins);
    }
    h.usize(f.values.len());
    for v in &f.values {
        match *v {
            ValueDef::Param(i, ty) => {
                h.u8(0);
                h.u64(u64::from(i));
                h.u8(ty as u8);
            }
            ValueDef::Instr(id) => {
                h.u8(1);
                h.u64(u64::from(id.0));
            }
        }
    }
    h.usize(f.instr_results.len());
    for r in &f.instr_results {
        match r {
            None => h.u8(0),
            Some(v) => {
                h.u8(1);
                h.u64(u64::from(v.0));
            }
        }
    }
    h.finish()
}

/// Fingerprint of the array declarations (name, element type, dims). Arrays
/// shape gep legality, access footprints and initial memory, so they are
/// part of every whole-module query key.
pub fn fingerprint_arrays(arrays: &[ArrayDecl]) -> u64 {
    let mut h = Fnv::new();
    h.usize(arrays.len());
    for a in arrays {
        h.str(&a.name);
        h.u8(a.elem as u8);
        h.usize(a.dims.len());
        for d in &a.dims {
            h.usize(*d);
        }
    }
    h.finish()
}

/// Fingerprint of a whole module state, derived from the per-function
/// digests so callers that already hold them pay only the combine.
pub fn fingerprint_module_from_parts(name: &str, func_fps: &[u64], arrays_fp: u64) -> u64 {
    let mut h = Fnv::new();
    h.str(name);
    h.usize(func_fps.len());
    for fp in func_fps {
        h.u64(*fp);
    }
    h.u64(arrays_fp);
    h.finish()
}

/// Convenience: fingerprint a whole [`Module`] from scratch.
pub fn fingerprint_module(m: &Module) -> u64 {
    let fps: Vec<u64> = m.functions.iter().map(fingerprint_function).collect();
    fingerprint_module_from_parts(&m.name, &fps, fingerprint_arrays(&m.arrays))
}

/// Fingerprint of an initial [`Memory`] image by cell content (floats and
/// pointers by bit pattern). Profiling observes memory, so the profile query
/// key includes this; `IncrementalApp` computes it once per memory image,
/// not per edit.
pub fn fingerprint_memory(mem: &Memory) -> u64 {
    let mut h = Fnv::new();
    let cells = mem.cells();
    h.usize(cells.len());
    for c in cells {
        match *c {
            Value::I(i) => {
                h.u8(0);
                h.u64(i as u64);
            }
            Value::F(f) => {
                h.u8(1);
                h.u64(f.to_bits());
            }
            Value::B(b) => {
                h.u8(2);
                h.u8(u8::from(b));
            }
            Value::P(p) => {
                h.u8(3);
                h.usize(p);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{Imm, Operand};
    use crate::types::Type;

    fn sample(konst: i64) -> Module {
        let mut mb = ModuleBuilder::new("fp");
        let x = mb.array("x", Type::F64, &[8]);
        mb.function("main", &[], Some(Type::F64), |fb| {
            let init = fb.fconst(0.0);
            let out = fb.counted_loop_carry(0, 8, 1, &[(Type::F64, init)], |fb, i, c| {
                let shifted = fb.add(i, fb.iconst(konst));
                let idx = fb.and(shifted, fb.iconst(7));
                let v = fb.load_idx(x, &[idx]);
                vec![fb.fadd(c[0], v)]
            });
            fb.ret(Some(out[0]));
        });
        mb.finish()
    }

    #[test]
    fn identical_content_hashes_equal() {
        let (a, b) = (sample(3), sample(3));
        assert_eq!(
            fingerprint_function(&a.functions[0]),
            fingerprint_function(&b.functions[0])
        );
        assert_eq!(fingerprint_module(&a), fingerprint_module(&b));
    }

    #[test]
    fn single_constant_edit_changes_the_hash() {
        let (a, b) = (sample(3), sample(4));
        assert_ne!(
            fingerprint_function(&a.functions[0]),
            fingerprint_function(&b.functions[0])
        );
        assert_ne!(fingerprint_module(&a), fingerprint_module(&b));
    }

    #[test]
    fn float_immediates_hash_by_bits() {
        // 0.0 and -0.0 compare equal as f64 but are different constants to
        // const-fold; the fingerprint must separate them.
        let mk = |v: f64| {
            let mut mb = ModuleBuilder::new("fz");
            mb.function("main", &[], Some(Type::F64), |fb| {
                let a = fb.fadd(Operand::Const(Imm::Float(v)), fb.fconst(1.0));
                fb.ret(Some(a));
            });
            mb.finish()
        };
        assert_ne!(
            fingerprint_function(&mk(0.0).functions[0]),
            fingerprint_function(&mk(-0.0).functions[0])
        );
    }

    #[test]
    fn derived_block_map_does_not_perturb_the_hash() {
        let a = sample(5);
        let before = fingerprint_function(&a.functions[0]);
        let _ = a.functions[0].instr_block_map();
        assert_eq!(before, fingerprint_function(&a.functions[0]));
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_u64s(&[]), fnv1a(b""));
        let vals = [7u64, u64::MAX, 0x0123_4567_89ab_cdef];
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(fnv1a_u64s(&vals), fnv1a(&bytes));
    }

    #[test]
    fn memory_fingerprint_sees_cell_edits() {
        let m = sample(1);
        let mem_a = Memory::for_module(&m);
        let mut mem_b = Memory::for_module(&m);
        assert_eq!(fingerprint_memory(&mem_a), fingerprint_memory(&mem_b));
        mem_b.set_f64(crate::module::ArrayId(0), 0, 42.0);
        assert_ne!(fingerprint_memory(&mem_a), fingerprint_memory(&mem_b));
    }
}
