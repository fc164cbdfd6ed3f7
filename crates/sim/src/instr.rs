//! Instruction representation and the stream abstraction.
//!
//! The simulator is *execution-driven by synthetic streams*: a workload
//! model (see `ntc-workloads`) emits a sequence of [`Instr`]s with operation
//! classes, register dependencies (as distances to older instructions) and
//! memory addresses. This captures what matters for UIPS-vs-frequency —
//! instruction mix, dependency-limited ILP, cache behaviour and
//! memory-level parallelism — without interpreting a real ISA.

use serde::{Deserialize, Serialize};

/// Operation class of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Long-latency integer (multiply/divide) operation.
    IntLong,
    /// Floating-point operation.
    Fp,
    /// Conditional branch; `mispredicted` marks those the front-end will
    /// redirect on.
    Branch {
        /// Whether this branch is mispredicted.
        mispredicted: bool,
    },
    /// Memory load from `addr`.
    Load,
    /// Memory store to `addr`.
    Store,
}

impl OpClass {
    /// Whether the op accesses data memory.
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Instr {
    /// Operation class.
    pub op: OpClass,
    /// Fetch address (drives the L1-I); consecutive instructions usually
    /// share a line.
    pub pc: u64,
    /// Data address for loads/stores (ignored otherwise).
    pub addr: u64,
    /// Register dependency: this instruction reads the result of the
    /// instruction `dep_dist` positions earlier in program order (0 = no
    /// dependency). Bounded by the window size in practice.
    pub dep_dist: u16,
    /// Whether the instruction is *user* code. The paper's UIPC metric
    /// counts only user instructions in the numerator while cycles include
    /// operating-system execution.
    pub is_user: bool,
}

impl Instr {
    /// A dependency-free user ALU op at `pc`.
    pub fn alu(pc: u64) -> Self {
        Instr {
            op: OpClass::IntAlu,
            pc,
            addr: 0,
            dep_dist: 0,
            is_user: true,
        }
    }

    /// A user load from `addr` at `pc`.
    pub fn load(pc: u64, addr: u64) -> Self {
        Instr {
            op: OpClass::Load,
            pc,
            addr,
            dep_dist: 0,
            is_user: true,
        }
    }

    /// A user store to `addr` at `pc`.
    pub fn store(pc: u64, addr: u64) -> Self {
        Instr {
            op: OpClass::Store,
            pc,
            addr,
            dep_dist: 0,
            is_user: true,
        }
    }

    /// Sets the dependency distance (builder style).
    pub fn with_dep(mut self, dep_dist: u16) -> Self {
        self.dep_dist = dep_dist;
        self
    }

    /// Marks the instruction as operating-system code.
    pub fn as_os(mut self) -> Self {
        self.is_user = false;
        self
    }
}

/// A source of dynamic instructions driving one core.
///
/// Streams are infinite: the simulator pulls as many instructions as the
/// measurement window consumes. Implementations should be cheap per call
/// and deterministic for a fixed seed.
pub trait InstructionStream {
    /// Produces the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;
}

impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_instr(&mut self) -> Instr {
        (**self).next_instr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let i = Instr::load(0x1000, 0xdead_beef).with_dep(3);
        assert_eq!(i.op, OpClass::Load);
        assert_eq!(i.dep_dist, 3);
        assert!(i.is_user);
        assert!(!Instr::alu(0).as_os().is_user);
    }

    #[test]
    fn memory_classes() {
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Store.is_memory());
        assert!(!OpClass::IntAlu.is_memory());
        assert!(!OpClass::Branch { mispredicted: true }.is_memory());
    }

    #[test]
    fn boxed_streams_are_streams() {
        struct One;
        impl InstructionStream for One {
            fn next_instr(&mut self) -> Instr {
                Instr::alu(4)
            }
        }
        let mut b: Box<dyn InstructionStream> = Box::new(One);
        assert_eq!(b.next_instr().pc, 4);
    }
}
