//! Runtime depth-check levels for the execution engines.
//!
//! Every interpreter in the workspace guards each stack access with an
//! underflow check and each push with an overflow check. When a program
//! has been *proven* safe by static analysis (the `stackcache-analysis`
//! crate), those checks are pure overhead: the proof guarantees they can
//! never fire. [`Checks`] selects how many of them an engine compiles in;
//! engines monomorphize one loop per level, so the elided checks cost
//! nothing at all — not even a predictable branch.
//!
//! The levels mirror the analysis verdicts:
//!
//! * [`Checks::Full`] — the default; every check present. Required for
//!   unproven programs and the only level with fully defined trap
//!   behaviour on *arbitrary* input programs.
//! * [`Checks::NoUnderflow`] — underflow checks elided, overflow checks
//!   kept. Sound for programs whose minimum stack depths are proven
//!   non-negative but whose maxima are unbounded (recursion): overflow
//!   traps still fire at exactly the same instruction as under `Full`.
//! * [`Checks::None`] — all depth checks elided. Sound only when both
//!   minimum and maximum depths are proven within the machine's limits.
//!
//! Running a *non*-proven program above `Full` is a logic error. The
//! engines stay in safe Rust, so the failure mode is a Rust panic (index
//! out of bounds / arithmetic overflow in debug builds) rather than
//! undefined behaviour — defence in depth against analyzer bugs, not a
//! supported mode of operation.

/// How much runtime depth checking an engine performs.
///
/// See the [module documentation](self) for the soundness contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Checks {
    /// Every stack access is depth-checked (the default).
    #[default]
    Full,
    /// Underflow checks elided; overflow checks kept.
    NoUnderflow,
    /// All depth checks elided.
    None,
}

/// Mode constant: all checks on. The `CHECK_*` constants are the const
/// generic parameter every engine monomorphizes its loop on, one per
/// [`Checks`] level.
pub const CHECK_FULL: u8 = 0;
/// Mode constant: underflow checks off.
pub const CHECK_NO_UNDERFLOW: u8 = 1;
/// Mode constant: all depth checks off.
pub const CHECK_NONE: u8 = 2;

impl Checks {
    /// `true` when this level performs underflow checks.
    #[must_use]
    pub fn checks_underflow(self) -> bool {
        matches!(self, Checks::Full)
    }

    /// `true` when this level performs overflow checks.
    #[must_use]
    pub fn checks_overflow(self) -> bool {
        !matches!(self, Checks::None)
    }

    /// Short lower-case name (`full` / `no-underflow` / `none`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Checks::Full => "full",
            Checks::NoUnderflow => "no-underflow",
            Checks::None => "none",
        }
    }
}
