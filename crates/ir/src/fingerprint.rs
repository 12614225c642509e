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
//! A query is keyed on the narrowest print that still covers what it
//! reads. The walk hashes an immediate operand in one of three modes:
//!
//! | print | immediates | keys |
//! |---|---|---|
//! | [`fingerprint_function`] | by kind and bits | normalization, decode, execution |
//! | [`FunctionFps::ints`] | integers by value, floats and bools by kind | verification, structure, dataflow, trip counts |
//! | [`fingerprint_block`] | by kind only | the accelerator models' region keys |
//!
//! [`fingerprint_function_pair`] computes the first two in one traversal.
//!
//! The hash is a [`Fingerprinter`] over a canonical field walk: one
//! multiply–xorshift round per field and a splitmix64 finaliser. It is a
//! few ns per instruction: cheap enough to run on the edited function
//! inside a sub-millisecond re-selection budget, and for the accelerator
//! model's region keys to fold per lookup. Fingerprints are 64-bit, so
//! collisions are possible in principle; every incremental result is
//! additionally pinned bit-identical to fresh analysis by the differential
//! gates in `cayman-bench`.
//!
//! Plain 64-bit FNV-1a is exported too ([`fnv1a`], [`fnv1a_u64s`]) as the
//! one FNV in the workspace: the incremental store's block-count keys and
//! `-O2` print mixes, the server's framework-cache key, and the disk
//! store's checksums and object names all call it.

use crate::instr::{Imm, Instr, Operand, Terminator};
use crate::interp::{Memory, Value};
use crate::module::{ArrayDecl, BlockId, Function, Module, ValueDef};

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

/// Incremental hasher over structure: one multiply–xorshift round per
/// 64-bit field, then a splitmix64 finaliser. Each round is a bijection of
/// the state for a fixed field and of the field for a fixed state, so two
/// walks of equal length that differ in a single field never collide.
#[derive(Debug, Clone)]
pub struct Fingerprinter(u64);

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher.
    pub fn new() -> Fingerprinter {
        Fingerprinter(FNV_OFFSET)
    }

    /// Folds in one field.
    pub fn u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    /// Folds in each field of `vals`, in order.
    pub fn u64s(&mut self, vals: &[u64]) {
        for &v in vals {
            self.u64(v);
        }
    }

    /// The fingerprint. The splitmix64 finaliser spreads every field into
    /// every bit: these digests feed `HashMap` keys directly.
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Field helpers over one 64-bit fold, shared by every walk.
trait Fields {
    /// Folds in one field.
    fn field(&mut self, v: u64);

    fn u8(&mut self, b: u8) {
        self.field(u64::from(b));
    }

    fn usize(&mut self, v: usize) {
        self.field(v as u64);
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.field(u64::from_le_bytes(word));
        }
    }
}

impl Fields for Fingerprinter {
    fn field(&mut self, v: u64) {
        self.u64(v);
    }
}

/// How a walk hashes an immediate operand.
#[derive(Clone, Copy)]
enum Imms {
    /// Kind and bit pattern (floats by IEEE bits): what the interpreter and
    /// the normalizer read.
    Bits,
    /// An integer by kind and value, a float or bool by kind only: what the
    /// verifier and the analyses read (SCEV, trip counts and access
    /// footprints read integer immediates; nothing reads another kind's).
    Ints,
    /// Kind only (int, float or bool): what the accelerator models read.
    Kind,
}

/// One hasher and how it reads immediates.
struct Walk {
    h: Fingerprinter,
    imms: Imms,
}

impl Walk {
    fn new(imms: Imms) -> Walk {
        Walk {
            h: Fingerprinter::new(),
            imms,
        }
    }
}

/// What a function or block walk feeds: one [`Walk`], or a pair fed the
/// same fields in one traversal.
trait Sink: Fields {
    /// Folds in one immediate as each hasher's [`Imms`] mode reads it.
    fn imm(&mut self, imm: Imm);

    fn opnd(&mut self, o: &Operand) {
        match *o {
            Operand::Value(v) => {
                self.u8(0);
                self.field(u64::from(v.0));
            }
            Operand::Const(imm) => {
                self.u8(1);
                self.imm(imm);
            }
        }
    }
}

impl Fields for Walk {
    fn field(&mut self, v: u64) {
        self.h.u64(v);
    }
}

impl Sink for Walk {
    fn imm(&mut self, imm: Imm) {
        let (kind, bits) = match imm {
            Imm::Int(i) => (0, i as u64),
            Imm::Float(f) => (1, f.to_bits()),
            Imm::Bool(b) => (2, u64::from(b)),
        };
        self.u8(kind);
        let by_value = match self.imms {
            Imms::Bits => true,
            Imms::Ints => kind == 0,
            Imms::Kind => false,
        };
        if by_value {
            self.field(bits);
        }
    }
}

impl Fields for (Walk, Walk) {
    fn field(&mut self, v: u64) {
        self.0.field(v);
        self.1.field(v);
    }
}

impl Sink for (Walk, Walk) {
    fn imm(&mut self, imm: Imm) {
        self.0.imm(imm);
        self.1.imm(imm);
    }
}

fn hash_instr(h: &mut impl Sink, ins: &Instr) {
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
            h.field(u64::from(array.0));
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
                h.field(u64::from(b.0));
                h.opnd(o);
            }
        }
        Instr::Call { callee, args, ty } => {
            h.u8(8);
            h.field(u64::from(callee.0));
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

fn hash_term(h: &mut impl Sink, t: &Terminator) {
    match t {
        Terminator::Br(b) => {
            h.u8(0);
            h.field(u64::from(b.0));
        }
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => {
            h.u8(1);
            h.opnd(cond);
            h.field(u64::from(then_bb.0));
            h.field(u64::from(else_bb.0));
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

/// Every analysis-observable field of `f` in a canonical order: parameter
/// and return types, blocks, instructions, terminators and the value arena.
fn walk_function(h: &mut impl Sink, f: &Function) {
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
            h.field(u64::from(i.0));
        }
        match &b.term {
            None => h.u8(0),
            Some(t) => {
                h.u8(1);
                hash_term(h, t);
            }
        }
    }
    h.usize(f.instrs.len());
    for ins in &f.instrs {
        hash_instr(h, ins);
    }
    h.usize(f.values.len());
    for v in &f.values {
        match *v {
            ValueDef::Param(i, ty) => {
                h.u8(0);
                h.field(u64::from(i));
                h.u8(ty as u8);
            }
            ValueDef::Instr(id) => {
                h.u8(1);
                h.field(u64::from(id.0));
            }
        }
    }
    h.usize(f.instr_results.len());
    for r in &f.instr_results {
        match r {
            None => h.u8(0),
            Some(v) => {
                h.u8(1);
                h.field(u64::from(v.0));
            }
        }
    }
}

/// Content fingerprint of one function: every analysis-observable field in
/// a canonical order, immediates by kind and bit pattern. Equal
/// fingerprints ⇒ structurally identical functions ⇒ bit-identical
/// per-function analysis, normalization and decode results.
pub fn fingerprint_function(f: &Function) -> u64 {
    let mut w = Walk::new(Imms::Bits);
    walk_function(&mut w, f);
    w.h.finish()
}

/// The two prints of one function that [`fingerprint_function_pair`]
/// computes in one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FunctionFps {
    /// [`fingerprint_function`]: every immediate by its bits. Keys what
    /// reads values: normalization, decode and execution.
    pub bits: u64,
    /// The same walk with an integer immediate hashed by value and a float
    /// or bool immediate by kind only. Keys what reads the program's shape
    /// and its integer recurrences: verification, CFG and region
    /// structure, access and dependence analysis, static trip counts.
    pub ints: u64,
}

/// Both prints of `f` from one traversal, so a caller that needs the two
/// pays for one walk. `bits` equals [`fingerprint_function`].
pub fn fingerprint_function_pair(f: &Function) -> FunctionFps {
    let mut w = (Walk::new(Imms::Bits), Walk::new(Imms::Ints));
    walk_function(&mut w, f);
    FunctionFps {
        bits: w.0.h.finish(),
        ints: w.1.h.finish(),
    }
}

/// Content fingerprint of one block as a model of a region containing it
/// reads it: the block's instruction ids and instructions, its terminator,
/// and for every instruction operand the value's definition, including the
/// defining instruction when it sits in another block (one level deep: an
/// access's address `gep` may sit outside the region).
///
/// Immediates are hashed by kind (int, float or bool), not by value: no
/// accelerator model reads an immediate's value. What values do reach a
/// model — an address's constant offset, a static trip count, a dependence
/// distance — it reads from the analyses, whose prints and trip counts
/// key it beside this one. So a value-only edit leaves every block print,
/// and every design keyed on them, in place; [`fingerprint_function`],
/// which keys normalization and execution, still sees the bits.
pub fn fingerprint_block(f: &Function, b: BlockId) -> u64 {
    let mut h = Walk::new(Imms::Kind);
    let home = f.instr_block_map();
    let block = f.block(b);
    h.usize(block.instrs.len());
    for &i in &block.instrs {
        h.field(u64::from(i.0));
        let ins = f.instr(i);
        hash_instr(&mut h, ins);
        ins.for_each_operand(|op| {
            let Some(v) = op.as_value() else {
                return;
            };
            match f.values[v.index()] {
                ValueDef::Param(i, ty) => {
                    h.u8(0);
                    h.field(u64::from(i));
                    h.u8(ty as u8);
                }
                ValueDef::Instr(d) => {
                    h.u8(1);
                    h.field(u64::from(d.0));
                    if home[d.index()] != b.0 {
                        hash_instr(&mut h, f.instr(d));
                    }
                }
            }
        });
    }
    match &block.term {
        None => h.u8(0),
        Some(t) => {
            h.u8(1);
            hash_term(&mut h, t);
        }
    }
    h.h.finish()
}

/// Fingerprint of the array declarations (name, element type, dims). Arrays
/// shape gep legality, access footprints and initial memory, so they are
/// part of every whole-module query key.
pub fn fingerprint_arrays(arrays: &[ArrayDecl]) -> u64 {
    let mut h = Fingerprinter::new();
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
    let mut h = Fingerprinter::new();
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
    let mut h = Fingerprinter::new();
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
    fn the_ints_print_sees_integers_and_the_kinds_of_other_immediates() {
        let pair = |m: &Module| fingerprint_function_pair(&m.functions[0]);
        let base = sample(3);
        assert_eq!(pair(&base).bits, fingerprint_function(&base.functions[0]));
        assert_ne!(pair(&base).ints, pair(&base).bits);
        // An integer edit moves both prints.
        let int_edit = pair(&sample(4));
        assert_ne!(int_edit.bits, pair(&base).bits);
        assert_ne!(int_edit.ints, pair(&base).ints);
        // A float or bool edit of the same kind moves only the bits.
        let mut nudged = base.clone();
        let mut flips = 0;
        for ins in &mut nudged.functions[0].instrs {
            ins.for_each_operand_mut(|op| {
                if let Operand::Const(Imm::Float(x)) = op {
                    *op = Operand::float(*x + 0.25);
                    flips += 1;
                }
            });
        }
        assert!(flips > 0, "the sample has a float immediate");
        assert_ne!(pair(&nudged).bits, pair(&base).bits);
        assert_eq!(pair(&nudged).ints, pair(&base).ints);
        // A change of kind is a change of shape.
        let mut retyped = base.clone();
        for ins in &mut retyped.functions[0].instrs {
            ins.for_each_operand_mut(|op| {
                if let Operand::Const(Imm::Float(_)) = op {
                    *op = Operand::Const(Imm::Bool(false));
                }
            });
        }
        assert_ne!(pair(&retyped).ints, pair(&base).ints);
    }

    #[test]
    fn derived_block_map_does_not_perturb_the_hash() {
        let a = sample(5);
        let before = fingerprint_function(&a.functions[0]);
        let _ = a.functions[0].instr_block_map();
        assert_eq!(before, fingerprint_function(&a.functions[0]));
    }

    #[test]
    fn block_prints_see_their_block_and_its_operand_defs_only() {
        // entry: k = 2.0 ⊙ 3.0; loop body uses k; exit stores 5.0 ⊙ 1.0.
        // Each ⊙ is `fmul` when its flag is set, else `fadd`.
        let mk = |k_mul: bool, a: f64, z_mul: bool, b: f64| {
            let mut mb = ModuleBuilder::new("bp");
            let x = mb.array("x", Type::F64, &[8]);
            mb.function("main", &[], None, |fb| {
                let op = |fb: &mut crate::builder::FunctionBuilder,
                          mul: bool,
                          l: Operand,
                          r: Operand| {
                    if mul {
                        fb.fmul(l, r)
                    } else {
                        fb.fadd(l, r)
                    }
                };
                let (ka, kb) = (fb.fconst(a), fb.fconst(3.0));
                let k = op(fb, k_mul, ka, kb);
                fb.counted_loop(0, 8, 1, |fb, i| {
                    let v = fb.load_idx(x, &[i]);
                    let w = fb.fadd(v, k);
                    fb.store_idx(x, &[i], w);
                });
                let (za, zb) = (fb.fconst(b), fb.fconst(1.0));
                let z = op(fb, z_mul, za, zb);
                let zero = fb.iconst(0);
                fb.store_idx(x, &[zero], z);
                fb.ret(None);
            });
            mb.finish()
        };
        let prints = |m: &Module| {
            let f = &m.functions[0];
            f.block_ids()
                .map(|b| fingerprint_block(f, b))
                .collect::<Vec<_>>()
        };
        let base_module = mk(true, 2.0, false, 5.0);
        let base = prints(&base_module);
        assert_eq!(base, prints(&mk(true, 2.0, false, 5.0)));
        let changed = |m: &Module| -> Vec<usize> {
            let p = prints(m);
            (0..base.len()).filter(|&i| base[i] != p[i]).collect()
        };
        // Swapping `k`'s opcode changes its own block and every block
        // reading it.
        let k_swap = changed(&mk(false, 2.0, false, 5.0));
        assert!(k_swap.len() >= 2, "entry and the loop body: {k_swap:?}");
        assert!(k_swap.len() < base.len(), "not every block: {k_swap:?}");
        // Swapping the exit's opcode changes exactly one block.
        assert_eq!(changed(&mk(true, 2.0, true, 5.0)).len(), 1);
        // Nudging either immediate changes no block print, but does change
        // the function's fingerprint.
        for nudged in [mk(true, 2.5, false, 5.0), mk(true, 2.0, false, -0.0)] {
            assert_eq!(changed(&nudged), Vec::<usize>::new());
            assert_ne!(
                fingerprint_function(&nudged.functions[0]),
                fingerprint_function(&base_module.functions[0])
            );
        }
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
