//! The observable result of running one program on one engine.
//!
//! An [`Outcome`] captures *everything* an engine is allowed to affect:
//! the final data stack, return stack, memory image, emitted output, the
//! trap that ended execution (if any), and the number of instructions
//! executed. Two engines agree on a program exactly when their outcomes
//! agree; [`Outcome::first_difference`] names the first field (and value
//! pair) that differs, which becomes the body of a divergence report.

use stackcache_vm::{Cell, Machine, VmError};

/// A trap discriminant: [`VmError`] stripped of its payload.
///
/// Engines agree on *which* trap fired, but payloads like the faulting
/// `ip` legitimately differ between the original and a peephole-optimized
/// program, so comparisons happen on this discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Trap {
    StackUnderflow,
    StackOverflow,
    ReturnStackUnderflow,
    ReturnStackOverflow,
    MemoryOutOfBounds,
    DivisionByZero,
    PickOutOfRange,
    InvalidExecutionToken,
    InstructionOutOfBounds,
    FuelExhausted,
    Cancelled,
}

impl From<&VmError> for Trap {
    fn from(e: &VmError) -> Trap {
        match e {
            VmError::StackUnderflow { .. } => Trap::StackUnderflow,
            VmError::StackOverflow { .. } => Trap::StackOverflow,
            VmError::ReturnStackUnderflow { .. } => Trap::ReturnStackUnderflow,
            VmError::ReturnStackOverflow { .. } => Trap::ReturnStackOverflow,
            VmError::MemoryOutOfBounds { .. } => Trap::MemoryOutOfBounds,
            VmError::DivisionByZero { .. } => Trap::DivisionByZero,
            VmError::PickOutOfRange { .. } => Trap::PickOutOfRange,
            VmError::InvalidExecutionToken { .. } => Trap::InvalidExecutionToken,
            VmError::InstructionOutOfBounds { .. } => Trap::InstructionOutOfBounds,
            VmError::FuelExhausted { .. } => Trap::FuelExhausted,
            VmError::Cancelled { .. } => Trap::Cancelled,
        }
    }
}

/// Everything observable about one engine's run of one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Final data stack, bottom first.
    pub stack: Vec<Cell>,
    /// Final return stack, bottom first.
    pub rstack: Vec<Cell>,
    /// Final memory image.
    pub memory: Vec<u8>,
    /// Bytes emitted via `emit`/`.`.
    pub output: Vec<u8>,
    /// The trap that ended execution, or `None` for a clean halt.
    pub trap: Option<Trap>,
    /// Instructions executed, when the engine counts at original-program
    /// granularity (`None` for engines that execute compiled code).
    pub executed: Option<u64>,
}

impl Outcome {
    /// Capture the outcome of `result` on `machine` after a run.
    #[must_use]
    pub fn capture(machine: &Machine, result: Result<u64, VmError>) -> Outcome {
        Outcome::from_machine(machine.clone(), result)
    }

    /// [`capture`](Self::capture) from a machine the caller is done
    /// with: its stacks, memory and output move into the outcome
    /// instead of being copied.
    #[must_use]
    pub fn from_machine(machine: Machine, result: Result<u64, VmError>) -> Outcome {
        let (trap, executed) = match result {
            Ok(n) => (None, Some(n)),
            Err(ref e) => (Some(Trap::from(e)), None),
        };
        let (stack, rstack, memory, output) = machine.into_parts();
        Outcome {
            stack,
            rstack,
            memory,
            output,
            trap,
            executed,
        }
    }

    /// The first field on which `self` and `other` differ, rendered for a
    /// divergence report, or `None` if the outcomes agree.
    ///
    /// `compare_executed` gates the instruction-count comparison: engines
    /// that run compiled or optimized code legitimately execute fewer
    /// instructions than the original program.
    #[must_use]
    pub fn first_difference(&self, other: &Outcome, compare_executed: bool) -> Option<String> {
        if self.trap != other.trap {
            return Some(format!("trap: {:?} vs {:?}", self.trap, other.trap));
        }
        if self.stack != other.stack {
            return Some(first_slot_diff("stack", &self.stack, &other.stack));
        }
        if self.rstack != other.rstack {
            return Some(first_slot_diff("rstack", &self.rstack, &other.rstack));
        }
        if self.output != other.output {
            return Some(format!(
                "output: {:?} vs {:?}",
                String::from_utf8_lossy(&self.output),
                String::from_utf8_lossy(&other.output)
            ));
        }
        if self.memory != other.memory {
            let i = self
                .memory
                .iter()
                .zip(&other.memory)
                .position(|(a, b)| a != b)
                .unwrap_or(self.memory.len().min(other.memory.len()));
            return Some(format!(
                "memory[{i}]: {:?} vs {:?}",
                self.memory.get(i),
                other.memory.get(i)
            ));
        }
        if compare_executed && self.executed != other.executed {
            return Some(format!(
                "executed: {:?} vs {:?}",
                self.executed, other.executed
            ));
        }
        None
    }
}

fn first_slot_diff(which: &str, a: &[Cell], b: &[Cell]) -> String {
    if a.len() != b.len() {
        return format!(
            "{which} depth: {} vs {} (a={a:?}, b={b:?})",
            a.len(),
            b.len()
        );
    }
    let i = a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(0);
    format!("{which}[{i}]: {} vs {}", a[i], b[i])
}
