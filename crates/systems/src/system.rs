//! System identities and capability descriptions.

/// Which of the paper's three systems a plan belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemId {
    /// The paper's first system (Figures 1-7): single-column non-clustered
    /// indexes, improved index scan, merge/hash index intersection.
    A,
    /// System B (Figure 8): two-column indexes that cannot cover (MVCC on
    /// main-table rows only), bitmap-sorted fetch.
    B,
    /// System C (Figure 9): covering two-column indexes with MDAM.
    C,
}

impl SystemId {
    /// All three systems.
    pub fn all() -> [SystemId; 3] {
        [SystemId::A, SystemId::B, SystemId::C]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            SystemId::A => "System A",
            SystemId::B => "System B",
            SystemId::C => "System C",
        }
    }
}

impl std::fmt::Display for SystemId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_distinct_systems() {
        let all = SystemId::all();
        assert_eq!(all.len(), 3);
        let names: std::collections::HashSet<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 3);
    }
}
