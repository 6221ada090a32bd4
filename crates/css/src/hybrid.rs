//! The hybrid multiple-valued/binary CSS (the paper's contribution, Figs.
//! 7–9).
//!
//! For each 4-context block `b` the generator broadcasts **four** five-valued
//! lines:
//!
//! | line            | value when block `b` active and `S0` matches | otherwise |
//! |-----------------|-----------------------------------------------|-----------|
//! | `S0·Vs`   (b)   | `Vs = (ctx mod 4) + 1`                         | 0         |
//! | `S0·¬Vs`  (b)   | `¬Vs = 5 − Vs`                                 | 0         |
//! | `¬S0·Vs`  (b)   | `Vs`                                           | 0         |
//! | `¬S0·¬Vs` (b)   | `¬Vs`                                          | 0         |
//!
//! The polarity pair (`S0` vs `¬S0`) makes the two FGMOSs of an MC-switch
//! mutually exclusive; the `Vs`/`¬Vs` pair lets a single *up*-threshold
//! select either the high-level or the low-level member of the polarity's
//! context pair. Level 0 is reserved for "gated off" — that is why the rail
//! is five-valued and why `CSS = 0` maps to `Vs = 1`, not 0.
//!
//! Block gating (the `b` in the table) is how "more context selection bits
//! such as S2 are merged into the hybrid MV/B-CSS without any overhead":
//! the AND with the block-select bits happens once, in the shared generator,
//! not in every switch.

use crate::CssError;
use mcfpga_mvl::{Level, Radix};

/// Identity of one broadcast line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineId {
    /// Which 4-context block the line serves.
    pub block: usize,
    /// Binary polarity the line is gated by: `true` = gated by `S0`,
    /// `false` = gated by `¬S0`.
    pub s0_polarity: bool,
    /// Rail carried: `false` = `Vs`, `true` = `¬Vs`.
    pub inverted: bool,
}

impl LineId {
    /// Human-readable name matching the paper's Fig. 7 captions, with the
    /// block suffixed when there is more than one.
    #[must_use]
    pub fn name(&self, blocks: usize) -> String {
        let pol = if self.s0_polarity { "S0" } else { "¬S0" };
        let rail = if self.inverted { "¬Vs" } else { "Vs" };
        if blocks > 1 {
            format!("{pol}·{rail}[b{}]", self.block)
        } else {
            format!("{pol}·{rail}")
        }
    }
}

/// Hybrid MV/B-CSS generator for `contexts` contexts (multiple of 4, ≤ 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridCssGen {
    contexts: usize,
    current: usize,
}

impl HybridCssGen {
    /// Contexts resolved per block by the MV rail.
    pub const BLOCK: usize = 4;

    /// Creates a generator parked at context 0.
    pub fn new(contexts: usize) -> Result<Self, CssError> {
        if contexts < 4 || !contexts.is_multiple_of(Self::BLOCK) || contexts > 64 {
            return Err(CssError::BadContextCount(contexts));
        }
        Ok(HybridCssGen {
            contexts,
            current: 0,
        })
    }

    /// Number of contexts.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of 4-context blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.contexts / Self::BLOCK
    }

    /// The five-valued rail the lines live on.
    #[must_use]
    pub fn radix(&self) -> Radix {
        Radix::FIVE
    }

    /// Currently broadcast context.
    #[must_use]
    pub fn current(&self) -> usize {
        self.current
    }

    /// Switches the broadcast context.
    pub fn switch_to(&mut self, ctx: usize) -> Result<(), CssError> {
        if ctx >= self.contexts {
            return Err(CssError::ContextOutOfRange {
                ctx,
                contexts: self.contexts,
            });
        }
        self.current = ctx;
        Ok(())
    }

    /// All broadcast lines, in a stable order:
    /// `(block 0: S0·Vs, S0·¬Vs, ¬S0·Vs, ¬S0·¬Vs), (block 1: …), …`.
    #[must_use]
    pub fn lines(&self) -> Vec<LineId> {
        self.line_ids().collect()
    }

    /// [`lines`](Self::lines) without collecting them.
    fn line_ids(&self) -> impl Iterator<Item = LineId> {
        (0..self.blocks()).flat_map(|block| {
            [(true, false), (true, true), (false, false), (false, true)]
                .into_iter()
                .map(move |(s0_polarity, inverted)| LineId {
                    block,
                    s0_polarity,
                    inverted,
                })
        })
    }

    /// Number of broadcast lines (`4 × blocks`).
    #[must_use]
    pub fn line_count(&self) -> usize {
        self.blocks() * 4
    }

    /// The value on `line` for an explicit context (pure function; does not
    /// change generator state).
    pub fn line_value_at(&self, line: LineId, ctx: usize) -> Result<Level, CssError> {
        if ctx >= self.contexts {
            return Err(CssError::ContextOutOfRange {
                ctx,
                contexts: self.contexts,
            });
        }
        if line.block >= self.blocks() {
            return Err(CssError::BadLine {
                block: line.block,
                blocks: self.blocks(),
            });
        }
        let block = ctx / Self::BLOCK;
        let s0 = ctx & 1 == 1;
        if block != line.block || s0 != line.s0_polarity {
            return Ok(Level::ZERO);
        }
        let vs = Level::encode_ctx(ctx % Self::BLOCK);
        Ok(if line.inverted {
            vs.invert(self.radix())
        } else {
            vs
        })
    }

    /// The value on `line` for the current context.
    pub fn line_value(&self, line: LineId) -> Result<Level, CssError> {
        self.line_value_at(line, self.current)
    }

    /// All line values for the current context, ordered like
    /// [`HybridCssGen::lines`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<Level> {
        self.lines()
            .into_iter()
            .map(|l| self.line_value(l).expect("line enumerated from self"))
            .collect()
    }

    /// Broadcast-line toggle count between two contexts (dynamic-energy
    /// proxy; a line "toggles" when its level changes).
    pub fn toggles_between(&self, a: usize, b: usize) -> Result<usize, CssError> {
        let mut toggles = 0;
        for line in self.line_ids() {
            if self.line_value_at(line, a)? != self.line_value_at(line, b)? {
                toggles += 1;
            }
        }
        Ok(toggles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_rules() {
        assert!(HybridCssGen::new(3).is_err());
        assert!(HybridCssGen::new(5).is_err());
        assert!(HybridCssGen::new(4).is_ok());
        assert!(HybridCssGen::new(8).is_ok());
        assert_eq!(HybridCssGen::new(8).unwrap().line_count(), 8);
    }

    /// The Fig. 7 waveform table, verbatim.
    #[test]
    #[allow(clippy::needless_range_loop)] // ctx indexes the expectation table
    fn fig7_values_4_contexts() {
        let gen = HybridCssGen::new(4).unwrap();
        let lines = gen.lines();
        // rows: S0·Vs, S0·¬Vs, ¬S0·Vs, ¬S0·¬Vs; columns: ctx 0..3
        let expected: [[u8; 4]; 4] = [[0, 2, 0, 4], [0, 3, 0, 1], [1, 0, 3, 0], [4, 0, 2, 0]];
        for (li, line) in lines.iter().enumerate() {
            for ctx in 0..4 {
                assert_eq!(
                    gen.line_value_at(*line, ctx).unwrap(),
                    Level::new(expected[li][ctx]),
                    "line {} ctx {ctx}",
                    line.name(1)
                );
            }
        }
    }

    #[test]
    fn output_is_mv_when_gate_high_else_zero() {
        // §3: "The output is same as the MV-CSS when the binary CSS is 1.
        // Otherwise, the output is 0."
        let gen = HybridCssGen::new(4).unwrap();
        for ctx in 0..4 {
            let s0 = ctx & 1 == 1;
            for line in gen.lines() {
                let v = gen.line_value_at(line, ctx).unwrap();
                if line.s0_polarity == s0 && !line.inverted {
                    assert_eq!(v, Level::encode_ctx(ctx));
                } else if line.s0_polarity != s0 {
                    assert_eq!(v, Level::ZERO);
                }
            }
        }
    }

    #[test]
    fn five_valuedness_gate_zero_distinct_from_mv_levels() {
        // Every live line value is ≥ 1 — level 0 unambiguously means
        // "gated off", which is the reason the rail needs five levels.
        let gen = HybridCssGen::new(8).unwrap();
        for ctx in 0..8 {
            for line in gen.lines() {
                let v = gen.line_value_at(line, ctx).unwrap();
                let live = line.block == ctx / 4 && line.s0_polarity == (ctx & 1 == 1);
                assert_eq!(!v.is_off(), live, "ctx {ctx} line {:?}", line);
            }
        }
    }

    #[test]
    fn block_gating_merges_high_bits() {
        // 8 contexts: lines of block 0 are all dead when ctx >= 4 and vice
        // versa — S2 has been merged into the broadcast, costing the switch
        // nothing.
        let gen = HybridCssGen::new(8).unwrap();
        for ctx in 4..8 {
            for line in gen.lines().into_iter().filter(|l| l.block == 0) {
                assert!(gen.line_value_at(line, ctx).unwrap().is_off());
            }
        }
        for ctx in 0..4 {
            for line in gen.lines().into_iter().filter(|l| l.block == 1) {
                assert!(gen.line_value_at(line, ctx).unwrap().is_off());
            }
        }
    }

    #[test]
    fn vs_and_nvs_always_complementary_when_live() {
        let gen = HybridCssGen::new(16).unwrap();
        for ctx in 0..16 {
            let block = ctx / 4;
            let pol = ctx & 1 == 1;
            let v = gen
                .line_value_at(
                    LineId {
                        block,
                        s0_polarity: pol,
                        inverted: false,
                    },
                    ctx,
                )
                .unwrap();
            let nv = gen
                .line_value_at(
                    LineId {
                        block,
                        s0_polarity: pol,
                        inverted: true,
                    },
                    ctx,
                )
                .unwrap();
            assert_eq!(v.value() + nv.value(), 5, "ctx {ctx}");
        }
    }

    #[test]
    fn snapshot_and_switch() {
        let mut gen = HybridCssGen::new(4).unwrap();
        gen.switch_to(1).unwrap();
        assert_eq!(gen.current(), 1);
        let snap = gen.snapshot();
        assert_eq!(snap.len(), 4);
        // ctx 1: S0=1, Vs=2 → lines [2, 3, 0, 0]
        assert_eq!(
            snap.iter().map(|l| l.value()).collect::<Vec<_>>(),
            vec![2, 3, 0, 0]
        );
        assert!(gen.switch_to(4).is_err());
    }

    #[test]
    fn toggle_counts() {
        let gen = HybridCssGen::new(4).unwrap();
        // ctx0 → ctx0: nothing toggles
        assert_eq!(gen.toggles_between(0, 0).unwrap(), 0);
        // ctx0 → ctx2 keeps polarity (both S0=0): only the ¬S0 pair moves
        assert_eq!(gen.toggles_between(0, 2).unwrap(), 2);
        // ctx0 → ctx1 flips polarity: all four lines change
        assert_eq!(gen.toggles_between(0, 1).unwrap(), 4);
    }

    #[test]
    fn line_names() {
        let l = LineId {
            block: 0,
            s0_polarity: true,
            inverted: true,
        };
        assert_eq!(l.name(1), "S0·¬Vs");
        assert_eq!(l.name(2), "S0·¬Vs[b0]");
    }
}
