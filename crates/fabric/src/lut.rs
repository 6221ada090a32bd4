//! Multi-context lookup tables.
//!
//! A `K`-LUT holds `2^K` configuration bits *per context* — exactly the
//! "multiple memory bits per configuration bit forming configuration planes"
//! overhead the paper opens with. The LUT model is architecture-agnostic
//! (the storage cost per architecture is priced in [`crate::power`]).

use crate::FabricError;

/// A multi-context K-input lookup table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiContextLut {
    k: usize,
    contexts: usize,
    /// `tables[ctx]` is a `2^K`-bit truth table, LSB = all-zero input row.
    tables: Vec<u64>,
}

impl MultiContextLut {
    /// Maximum supported inputs (truth table packed in a `u64`).
    pub const MAX_K: usize = 6;

    /// Creates a LUT with all contexts programmed to constant 0.
    pub fn new(k: usize, contexts: usize) -> Result<Self, FabricError> {
        Self::check_k(k)?;
        if contexts == 0 || contexts > 64 {
            return Err(FabricError::BadParams(format!("contexts={contexts}")));
        }
        Ok(MultiContextLut {
            k,
            contexts,
            tables: vec![0; contexts],
        })
    }

    /// Refuses a LUT arity outside `1..=MAX_K`.
    pub(crate) fn check_k(k: usize) -> Result<(), FabricError> {
        if k == 0 || k > Self::MAX_K {
            return Err(FabricError::BadParams(format!("k={k} not in 1..=6")));
        }
        Ok(())
    }

    /// Number of inputs.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of contexts.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Configuration bits per context (`2^K`).
    #[must_use]
    pub fn bits_per_context(&self) -> usize {
        1 << self.k
    }

    /// Programs one context's truth table.
    pub fn program(&mut self, ctx: usize, table: u64) -> Result<(), FabricError> {
        self.check_ctx(ctx)?;
        let mask = if self.bits_per_context() == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits_per_context()) - 1
        };
        self.tables[ctx] = table & mask;
        Ok(())
    }

    /// Reads back one context's truth table.
    pub fn table(&self, ctx: usize) -> Result<u64, FabricError> {
        self.check_ctx(ctx)?;
        Ok(self.tables[ctx])
    }

    /// Evaluates the LUT in `ctx` on packed inputs (bit `i` of `inputs` is
    /// input pin `i`).
    pub fn eval(&self, ctx: usize, inputs: usize) -> Result<bool, FabricError> {
        self.check_ctx(ctx)?;
        let row = inputs & (self.bits_per_context() - 1);
        Ok((self.tables[ctx] >> row) & 1 == 1)
    }

    fn check_ctx(&self, ctx: usize) -> Result<(), FabricError> {
        if ctx >= self.contexts {
            Err(FabricError::ContextOutOfRange {
                ctx,
                contexts: self.contexts,
            })
        } else {
            Ok(())
        }
    }
}

/// Truth-table constructors for common functions, packed LSB-first.
pub mod tables {
    /// AND of the first `k` inputs.
    #[must_use]
    pub fn and(k: usize) -> u64 {
        1u64 << ((1usize << k) - 1)
    }

    /// OR of the first `k` inputs.
    #[must_use]
    pub fn or(k: usize) -> u64 {
        let rows = 1usize << k;
        let full = if rows == 64 {
            u64::MAX
        } else {
            (1u64 << rows) - 1
        };
        full & !1
    }

    /// XOR (parity) of the first `k` inputs.
    #[must_use]
    pub fn xor(k: usize) -> u64 {
        let rows = 1usize << k;
        let mut t = 0u64;
        for row in 0..rows {
            if (row as u32).count_ones() % 2 == 1 {
                t |= 1 << row;
            }
        }
        t
    }

    /// NOT of input 0 (other inputs ignored).
    #[must_use]
    pub fn not(k: usize) -> u64 {
        let rows = 1usize << k;
        let mut t = 0u64;
        for row in 0..rows {
            if row & 1 == 0 {
                t |= 1 << row;
            }
        }
        t
    }

    /// Pass-through of input 0.
    #[must_use]
    pub fn buf(k: usize) -> u64 {
        let rows = 1usize << k;
        let mut t = 0u64;
        for row in 0..rows {
            if row & 1 == 1 {
                t |= 1 << row;
            }
        }
        t
    }

    /// Majority of inputs 0..2 (for full-adder carries).
    #[must_use]
    pub fn maj3(k: usize) -> u64 {
        assert!(k >= 3);
        let rows = 1usize << k;
        let mut t = 0u64;
        for row in 0..rows {
            if (row & 0b111_usize).count_ones() >= 2 {
                t |= 1 << row;
            }
        }
        t
    }

    /// 2:1 mux: inputs (data0, data1, select) on pins 0,1,2.
    #[must_use]
    pub fn mux2(k: usize) -> u64 {
        assert!(k >= 3);
        let rows = 1usize << k;
        let mut t = 0u64;
        for row in 0..rows {
            let sel = (row >> 2) & 1;
            let v = if sel == 1 { (row >> 1) & 1 } else { row & 1 };
            if v == 1 {
                t |= 1 << row;
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_and_eval_per_context() {
        let mut lut = MultiContextLut::new(2, 4).unwrap();
        lut.program(0, tables::and(2)).unwrap();
        lut.program(1, tables::or(2)).unwrap();
        lut.program(2, tables::xor(2)).unwrap();
        // ctx 3 left at constant 0
        for a in 0..2usize {
            for b in 0..2usize {
                let inputs = a | (b << 1);
                assert_eq!(lut.eval(0, inputs).unwrap(), a == 1 && b == 1);
                assert_eq!(lut.eval(1, inputs).unwrap(), a == 1 || b == 1);
                assert_eq!(lut.eval(2, inputs).unwrap(), (a ^ b) == 1);
                assert!(!lut.eval(3, inputs).unwrap());
            }
        }
    }

    #[test]
    fn truth_table_builders() {
        assert_eq!(tables::and(2), 0b1000);
        assert_eq!(tables::or(2), 0b1110);
        assert_eq!(tables::xor(2), 0b0110);
        assert_eq!(tables::buf(1), 0b10);
        assert_eq!(tables::not(1), 0b01);
    }

    #[test]
    fn maj3_and_mux2() {
        let lut_k = 4;
        let maj = tables::maj3(lut_k);
        for row in 0..8usize {
            let want = (row & 0b111).count_ones() >= 2;
            assert_eq!((maj >> row) & 1 == 1, want, "row {row}");
        }
        let mux = tables::mux2(lut_k);
        for row in 0..8usize {
            let (d0, d1, s) = (row & 1, (row >> 1) & 1, (row >> 2) & 1);
            let want = if s == 1 { d1 } else { d0 };
            assert_eq!((mux >> row) & 1, want as u64, "row {row}");
        }
    }

    #[test]
    fn bounds_checked() {
        assert!(MultiContextLut::new(0, 4).is_err());
        assert!(MultiContextLut::new(7, 4).is_err());
        assert!(MultiContextLut::new(4, 0).is_err());
        let mut lut = MultiContextLut::new(2, 2).unwrap();
        assert!(lut.program(2, 0).is_err());
        assert!(lut.eval(2, 0).is_err());
    }

    #[test]
    fn table_masked_to_width() {
        let mut lut = MultiContextLut::new(2, 1).unwrap();
        lut.program(0, u64::MAX).unwrap();
        assert_eq!(lut.table(0).unwrap(), 0b1111);
    }
}
