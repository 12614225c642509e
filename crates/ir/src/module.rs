//! Modules, functions, blocks and value definitions.

use crate::instr::{Instr, Terminator};
use crate::types::Type;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a function within a [`Module`].
    FuncId,
    "@f"
);
id_type!(
    /// Identifies a basic block within a [`Function`].
    BlockId,
    "bb"
);
id_type!(
    /// Identifies an instruction within a [`Function`]'s instruction arena.
    InstrId,
    "ins"
);
id_type!(
    /// Identifies an SSA value within a [`Function`] (parameter or
    /// instruction result).
    ValueId,
    "%"
);
id_type!(
    /// Identifies a globally declared array within a [`Module`].
    ArrayId,
    "@a"
);

/// A globally declared, statically sized array (the IR's memory objects).
///
/// All memory traffic in the IR goes through [`Instr::Gep`] /
/// [`Instr::Load`] / [`Instr::Store`] against these declarations, which is
/// what makes footprint analysis and scratchpad sizing statically decidable —
/// mirroring the role of `ScalarEvolution`-analysable accesses in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Row-major dimensions; must be non-empty, each dimension non-zero.
    pub dims: Vec<usize>,
}

impl ArrayDecl {
    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the array has zero elements (never true for verified modules).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major stride (in elements) for each dimension.
    ///
    /// `strides()[k]` is the number of elements skipped when index `k`
    /// increases by one.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.dims.len()];
        for k in (0..self.dims.len().saturating_sub(1)).rev() {
            s[k] = s[k + 1] * self.dims[k + 1];
        }
        s
    }
}

/// How an SSA value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `i`-th function parameter.
    Param(u32, Type),
    /// The result of an instruction.
    Instr(InstrId),
}

/// A basic block: a straight-line instruction list plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Optional label for printing (`entry`, `loop.header`, ...).
    pub name: String,
    /// Instructions in program order.
    pub instrs: Vec<InstrId>,
    /// The block terminator. `None` only during construction.
    pub term: Option<Terminator>,
}

impl Block {
    /// The terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is still under construction (no terminator set);
    /// verified functions always have one.
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("block has no terminator")
    }
}

/// Lazily computed instruction→block map (see [`Function::instr_block_map`]).
///
/// Derived data, so it compares equal to everything and clones as empty (a
/// clone is typically about to be mutated). Code that mutates block
/// membership directly must call [`Function::invalidate_block_map`]; the
/// pass manager does so after every changing pass.
#[derive(Default)]
pub(crate) struct BlockMap(std::sync::OnceLock<Box<[u32]>>);

impl Clone for BlockMap {
    fn clone(&self) -> Self {
        BlockMap::default()
    }
}

impl PartialEq for BlockMap {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for BlockMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BlockMap({})",
            if self.0.get().is_some() {
                "cached"
            } else {
                "empty"
            }
        )
    }
}

/// Sentinel entry in [`Function::instr_block_map`] for instructions that are
/// in no block.
pub const NO_BLOCK: u32 = u32::MAX;

/// A function: parameters, an instruction arena and a CFG of basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type (`None` = void).
    pub ret: Option<Type>,
    /// Basic blocks; `BlockId(0)` is the entry block.
    pub blocks: Vec<Block>,
    /// Instruction arena; referenced by [`Block::instrs`].
    pub instrs: Vec<Instr>,
    /// SSA value definitions. Parameters come first, then instruction
    /// results in creation order.
    pub values: Vec<ValueDef>,
    /// For each instruction that produces a value, its `ValueId`.
    pub instr_results: Vec<Option<ValueId>>,
    pub(crate) block_map: BlockMap,
}

/// Read access to a function's instructions and value definitions.
///
/// [`Function`] answers every read. A view over part of a function (the
/// accelerator model's region inputs) checks each read against the part it
/// covers, so code written against `&impl IrView` reads no more than the
/// view declares.
pub trait IrView {
    /// Instruction lookup.
    fn instr(&self, id: InstrId) -> &Instr;
    /// The definition of a value.
    fn value_def(&self, v: ValueId) -> ValueDef;
}

impl IrView for Function {
    fn instr(&self, id: InstrId) -> &Instr {
        Function::instr(self, id)
    }

    fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.index()]
    }
}

impl Function {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Instruction lookup.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.index()]
    }

    /// Block lookup.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The value produced by an instruction, if any.
    pub fn result_of(&self, id: InstrId) -> Option<ValueId> {
        self.instr_results[id.index()]
    }

    /// The type of a value.
    pub fn value_type(&self, v: ValueId) -> Option<Type> {
        match self.values[v.index()] {
            ValueDef::Param(_, ty) => Some(ty),
            ValueDef::Instr(i) => self.instr(i).result_type(),
        }
    }

    /// Iterate over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of instructions (arena size; includes all blocks).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }

    /// The instruction→block map, computed on first use and cached.
    ///
    /// `map[i]` is the raw [`BlockId`] of the block containing `InstrId(i)`,
    /// or [`NO_BLOCK`] when the instruction is in no block. Shared by
    /// [`Function::containing_block`] and the analysis crate's `FuncCtx`.
    pub fn instr_block_map(&self) -> &[u32] {
        self.block_map.0.get_or_init(|| {
            let mut map = vec![NO_BLOCK; self.instrs.len()];
            for b in self.block_ids() {
                for &iid in &self.block(b).instrs {
                    map[iid.index()] = b.0;
                }
            }
            map.into_boxed_slice()
        })
    }

    /// The block that contains an instruction, if any (cached map lookup).
    pub fn containing_block(&self, id: InstrId) -> Option<BlockId> {
        match self.instr_block_map().get(id.index()) {
            Some(&b) if b != NO_BLOCK => Some(BlockId(b)),
            _ => None,
        }
    }

    /// Drops the cached instruction→block map. Must be called after mutating
    /// block membership (adding/removing/moving instructions or blocks).
    pub fn invalidate_block_map(&mut self) {
        self.block_map = BlockMap::default();
    }
}

/// A whole application: functions plus globally declared arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Functions. The application entry point is by convention the function
    /// named `main`, falling back to `FuncId(0)`.
    pub functions: Vec<Function>,
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            arrays: Vec::new(),
        }
    }

    /// Function lookup.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Array declaration lookup.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Find a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// The entry function: `main` if present, else the first function.
    pub fn entry_function(&self) -> Option<FuncId> {
        self.function_by_name("main")
            .or(if self.functions.is_empty() {
                None
            } else {
                Some(FuncId(0))
            })
    }

    /// Iterate over all function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId)
    }

    /// Iterate over all array ids.
    pub fn array_ids(&self) -> impl Iterator<Item = ArrayId> + '_ {
        (0..self.arrays.len() as u32).map(ArrayId)
    }

    /// Total bytes of declared array storage.
    pub fn total_data_bytes(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.len() as u64 * a.elem.byte_width())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_strides_row_major() {
        let a = ArrayDecl {
            name: "A".into(),
            elem: Type::F64,
            dims: vec![4, 5, 6],
        };
        assert_eq!(a.len(), 120);
        assert_eq!(a.strides(), vec![30, 6, 1]);
        let b = ArrayDecl {
            name: "b".into(),
            elem: Type::F64,
            dims: vec![7],
        };
        assert_eq!(b.strides(), vec![1]);
    }

    #[test]
    fn id_display() {
        assert_eq!(FuncId(1).to_string(), "@f1");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(ValueId(3).to_string(), "%3");
        assert_eq!(ArrayId(4).to_string(), "@a4");
    }

    #[test]
    fn module_lookups() {
        let mut m = Module::new("m");
        m.arrays.push(ArrayDecl {
            name: "x".into(),
            elem: Type::F32,
            dims: vec![8],
        });
        assert_eq!(m.total_data_bytes(), 32);
        assert!(m.entry_function().is_none());
        assert!(m.function_by_name("nope").is_none());
    }
}
