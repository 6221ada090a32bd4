//! The [`McSwitch`] abstraction shared by the three architectures.

use crate::CoreError;
use mcfpga_mvl::CtxSet;
use mcfpga_netlist::Netlist;

/// Which MC-switch architecture a value represents (for reports/tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// Conventional SRAM-based switch (Fig. 2).
    Sram,
    /// Pure multiple-valued FGFP switch of ref \[3\] (Figs. 5–6).
    MvFgfp,
    /// Proposed hybrid MV/B switch (Figs. 9–10).
    Hybrid,
}

impl ArchKind {
    /// Table row label used in the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::Sram => "SRAM-based one",
            ArchKind::MvFgfp => "Only MV-FGFP-based one [2]",
            ArchKind::Hybrid => "Proposed one",
        }
    }

    /// All architectures, in the paper's table order.
    #[must_use]
    pub fn all() -> [ArchKind; 3] {
        [ArchKind::Sram, ArchKind::MvFgfp, ArchKind::Hybrid]
    }

    /// The one-byte code every byte format uses for this architecture:
    /// the bitstream header, the checkpoint geometry and the
    /// configuration digest.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ArchKind::Sram => 0,
            ArchKind::MvFgfp => 1,
            ArchKind::Hybrid => 2,
        }
    }

    /// The inverse of [`code`](Self::code); `None` for an unknown byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ArchKind::Sram),
            1 => Some(ArchKind::MvFgfp),
            2 => Some(ArchKind::Hybrid),
            _ => None,
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A multi-context switch: one programmable cross-point whose ON/OFF state
/// is selected by the broadcast context-switching signal.
pub trait McSwitch {
    /// Architecture tag.
    fn arch(&self) -> ArchKind;

    /// Number of contexts the switch supports.
    fn contexts(&self) -> usize;

    /// Programs the switch so it conducts exactly in `on_set`'s contexts.
    fn configure(&mut self, on_set: &CtxSet) -> Result<(), CoreError>;

    /// The configured ON-set, if configured.
    fn configured(&self) -> Option<&CtxSet>;

    /// Does the switch conduct in context `ctx`?
    fn is_on(&self, ctx: usize) -> Result<bool, CoreError>;

    /// Physical transistor count of one switch instance (Table 1 accounting:
    /// excludes shared signal-generation and, for the hybrid switch,
    /// excludes the per-column shared select network — see
    /// [`HybridMcSwitch::select_transistors`](crate::HybridMcSwitch::select_transistors)).
    fn transistor_count(&self) -> usize;

    /// Builds a structural netlist of the switch between two nets named
    /// `"in"` and `"out"`, with control inputs named after the CSS lines the
    /// architecture consumes. Requires the switch to be configured.
    fn build_netlist(&self) -> Result<Netlist, CoreError>;

    /// Convenience: checks the whole configured function at once.
    fn on_set_evaluated(&self) -> Result<CtxSet, CoreError> {
        let mut s = CtxSet::empty(self.contexts()).map_err(|_| CoreError::Unconfigured)?;
        for ctx in 0..self.contexts() {
            if self.is_on(ctx)? {
                s.insert(ctx).expect("ctx in domain");
            }
        }
        Ok(s)
    }
}

/// A concrete MC-switch of any architecture (avoids `Box<dyn>` where clone
/// and value semantics are wanted, e.g. arrays of switches in a switch
/// block).
#[derive(Debug, Clone)]
pub enum AnySwitch {
    /// SRAM-based switch.
    Sram(crate::SramMcSwitch),
    /// Pure MV-FGFP switch.
    MvFgfp(crate::MvFgfpMcSwitch),
    /// Proposed hybrid switch.
    Hybrid(crate::HybridMcSwitch),
}

impl AnySwitch {
    /// Builds a switch of the given architecture.
    pub fn build(arch: ArchKind, contexts: usize) -> Result<Self, crate::CoreError> {
        Ok(match arch {
            ArchKind::Sram => AnySwitch::Sram(crate::SramMcSwitch::new(contexts)?),
            ArchKind::MvFgfp => AnySwitch::MvFgfp(crate::MvFgfpMcSwitch::new(contexts)?),
            ArchKind::Hybrid => AnySwitch::Hybrid(crate::HybridMcSwitch::new(contexts)?),
        })
    }

    fn inner(&self) -> &dyn McSwitch {
        match self {
            AnySwitch::Sram(s) => s,
            AnySwitch::MvFgfp(s) => s,
            AnySwitch::Hybrid(s) => s,
        }
    }

    fn inner_mut(&mut self) -> &mut dyn McSwitch {
        match self {
            AnySwitch::Sram(s) => s,
            AnySwitch::MvFgfp(s) => s,
            AnySwitch::Hybrid(s) => s,
        }
    }
}

impl McSwitch for AnySwitch {
    fn arch(&self) -> ArchKind {
        self.inner().arch()
    }
    fn contexts(&self) -> usize {
        self.inner().contexts()
    }
    fn configure(&mut self, on_set: &CtxSet) -> Result<(), crate::CoreError> {
        self.inner_mut().configure(on_set)
    }
    fn configured(&self) -> Option<&CtxSet> {
        self.inner().configured()
    }
    fn is_on(&self, ctx: usize) -> Result<bool, crate::CoreError> {
        self.inner().is_on(ctx)
    }
    fn transistor_count(&self) -> usize {
        self.inner().transistor_count()
    }
    fn build_netlist(&self) -> Result<Netlist, crate::CoreError> {
        self.inner().build_netlist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_switch_dispatches() {
        for arch in ArchKind::all() {
            let mut sw = AnySwitch::build(arch, 4).unwrap();
            assert_eq!(sw.arch(), arch);
            let s = CtxSet::from_ctxs(4, [0, 3]).unwrap();
            sw.configure(&s).unwrap();
            assert!(sw.is_on(0).unwrap());
            assert!(!sw.is_on(1).unwrap());
            assert!(sw.is_on(3).unwrap());
        }
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(ArchKind::Sram.label(), "SRAM-based one");
        assert_eq!(ArchKind::MvFgfp.label(), "Only MV-FGFP-based one [2]");
        assert_eq!(ArchKind::Hybrid.label(), "Proposed one");
        assert_eq!(ArchKind::all().len(), 3);
    }

    #[test]
    fn arch_codes_are_pinned_and_round_trip() {
        // the codes are baked into bitstreams, checkpoints and digests
        let codes: Vec<u8> = ArchKind::all().iter().map(|a| a.code()).collect();
        assert_eq!(codes, vec![0, 1, 2]);
        for arch in ArchKind::all() {
            assert_eq!(ArchKind::from_code(arch.code()), Some(arch));
        }
        assert_eq!(ArchKind::from_code(3), None);
        assert_eq!(ArchKind::from_code(u8::MAX), None);
    }
}
