//! Constant-folding hooks: the pure value semantics of the computational
//! instructions, factored out of the interpreter loop.
//!
//! Static analyses (the abstract interpreter and the fuel-bound pass in
//! `stackcache-analysis`) must agree with the executing engines on what
//! every arithmetic, logic, and comparison instruction computes — a
//! divergence there would make a "proof" admit a program whose checked and
//! unchecked runs differ. This module is the single source of truth: the
//! folding functions mirror [`exec`](crate::exec) exactly, instruction by
//! instruction, and a test in this module pins them against the reference
//! interpreter over the full binary/unary instruction set.

use crate::inst::{flag, Cell, Inst, CELL_BYTES};

/// Fold a binary computational instruction over concrete operands
/// (`a` below `b` on the stack).
///
/// Returns `None` when the instruction is not a pure binary operation, or
/// when it would trap (division by zero). The one overflowing division,
/// `i64::MIN / -1`, wraps to `MIN` (remainder `0`) in every engine.
#[must_use]
pub fn fold2(inst: Inst, a: Cell, b: Cell) -> Option<Cell> {
    let v = match inst {
        Inst::Add => a.wrapping_add(b),
        Inst::Sub => a.wrapping_sub(b),
        Inst::Mul => a.wrapping_mul(b),
        Inst::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div_euclid(b)
        }
        Inst::Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem_euclid(b)
        }
        Inst::And => a & b,
        Inst::Or => a | b,
        Inst::Xor => a ^ b,
        Inst::Lshift => ((a as u64) << (b as u64 & 63)) as Cell,
        Inst::Rshift => ((a as u64) >> (b as u64 & 63)) as Cell,
        Inst::Min => a.min(b),
        Inst::Max => a.max(b),
        Inst::Eq => flag(a == b),
        Inst::Ne => flag(a != b),
        Inst::Lt => flag(a < b),
        Inst::Gt => flag(a > b),
        Inst::Le => flag(a <= b),
        Inst::Ge => flag(a >= b),
        Inst::ULt => flag((a as u64) < (b as u64)),
        Inst::UGt => flag((a as u64) > (b as u64)),
        _ => return None,
    };
    Some(v)
}

/// Fold a unary computational instruction over a concrete operand.
///
/// Returns `None` when the instruction is not a pure unary operation.
#[must_use]
pub fn fold1(inst: Inst, a: Cell) -> Option<Cell> {
    let v = match inst {
        Inst::Negate => a.wrapping_neg(),
        Inst::Invert => !a,
        Inst::Abs => a.wrapping_abs(),
        Inst::OnePlus => a.wrapping_add(1),
        Inst::OneMinus => a.wrapping_sub(1),
        Inst::TwoStar => a.wrapping_mul(2),
        Inst::TwoSlash => a >> 1,
        Inst::ZeroEq => flag(a == 0),
        Inst::ZeroNe => flag(a != 0),
        Inst::ZeroLt => flag(a < 0),
        Inst::ZeroGt => flag(a > 0),
        Inst::CellPlus => a.wrapping_add(CELL_BYTES as Cell),
        Inst::Cells => a.wrapping_mul(CELL_BYTES as Cell),
        Inst::CharPlus => a.wrapping_add(1),
        _ => return None,
    };
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::machine::Machine;
    use crate::program::program_of;

    const SAMPLES: &[Cell] = &[
        0,
        1,
        -1,
        2,
        -2,
        7,
        63,
        64,
        255,
        -256,
        Cell::MAX,
        Cell::MIN,
        Cell::MIN + 1,
    ];

    #[test]
    fn fold2_matches_the_reference_interpreter() {
        for inst in Inst::all() {
            let eff = inst.effect();
            if eff.pops != 2 || eff.pushes != 1 || fold2(inst, 1, 1).is_none() {
                continue;
            }
            for &a in SAMPLES {
                for &b in SAMPLES {
                    let p = program_of(&[Inst::Lit(a), Inst::Lit(b), inst, Inst::Halt]);
                    let mut m = Machine::new();
                    match exec::run(&p, &mut m, 16) {
                        Ok(_) => {
                            assert_eq!(fold2(inst, a, b), Some(m.stack()[0]), "{inst} {a} {b}");
                        }
                        Err(_) => assert_eq!(fold2(inst, a, b), None, "{inst} {a} {b}"),
                    }
                }
            }
        }
    }

    #[test]
    fn fold1_matches_the_reference_interpreter() {
        for inst in Inst::all() {
            let eff = inst.effect();
            if eff.pops != 1 || eff.pushes != 1 || fold1(inst, 1).is_none() {
                continue;
            }
            for &a in SAMPLES {
                let p = program_of(&[Inst::Lit(a), inst, Inst::Halt]);
                let mut m = Machine::new();
                exec::run(&p, &mut m, 16).unwrap();
                assert_eq!(fold1(inst, a), Some(m.stack()[0]), "{inst} {a}");
            }
        }
    }

    #[test]
    fn division_folds_wrap_instead_of_trapping() {
        assert_eq!(fold2(Inst::Div, Cell::MIN, -1), Some(Cell::MIN));
        assert_eq!(fold2(Inst::Mod, Cell::MIN, -1), Some(0));
        assert_eq!(fold2(Inst::Div, 7, 0), None);
        assert_eq!(fold2(Inst::Mod, 7, 0), None);
    }
}
