//! Access-rank computation for data-oriented (reference-based)
//! synchronization, behind the real-thread key table
//! (`datasync_core::keys`). The simulator's reference-based scheme
//! ranks its own accesses while it compiles.
//!
//! For every element of a *synchronized* array (one with at least one
//! ordering need), the sequential access sequence is ranked: a write's
//! rank counts every access before it; consecutive reads form a group
//! and share the rank of the group's start, so independent fetches can
//! proceed in any order (Fig 3.1.a). At run time an access waits until
//! `key >= rank` and increments the key afterwards.
//!
//! Paper claim served: the Cedar-key oracle (§3.3) of
//! `tests/property_random_loops.rs`, its only caller through
//! `datasync_core::keys`.

use crate::ir::{ArrayId, LoopNest, StmtId};
use crate::space::IterSpace;
use std::collections::{HashMap, HashSet};

/// The canonical intra-statement access order: reads in textual reference
/// order, then writes. Every executor of ranked accesses must follow it.
pub fn ordered_accesses(stmt: &crate::ir::Stmt) -> Vec<&crate::ir::ArrayRef> {
    stmt.reads().chain(stmt.writes()).collect()
}

/// `(pid, stmt, access position)` → `(array, element, rank)` for every
/// access, before filtering down to synchronized arrays.
type RawRanks = HashMap<(u64, StmtId, usize), (ArrayId, Vec<i64>, u64)>;

/// Ranks for one loop nest.
#[derive(Debug, Clone)]
pub struct AccessRanks {
    /// Rank per `(pid, stmt, position in ordered_accesses)`, present only
    /// for accesses to synchronized arrays.
    ranks: HashMap<(u64, StmtId, usize), u64>,
    /// Key index per synchronized element, densely assigned.
    key_of: HashMap<(ArrayId, Vec<i64>), usize>,
    /// Arrays that need ordering.
    synced: HashSet<ArrayId>,
}

#[derive(Debug, Default)]
struct ElementState {
    total: u64,
    group_start: u64,
    last_was_read: bool,
    writes: u64,
}

impl ElementState {
    fn rank(&mut self, is_write: bool) -> u64 {
        let rank = if is_write || !self.last_was_read { self.total } else { self.group_start };
        if is_write {
            self.last_was_read = false;
            self.writes += 1;
        } else {
            if !self.last_was_read {
                self.group_start = self.total;
            }
            self.last_was_read = true;
        }
        self.total += 1;
        rank
    }
}

impl AccessRanks {
    /// Computes ranks by walking the sequential access sequence.
    pub fn compute(nest: &LoopNest, space: &IterSpace) -> Self {
        let mut elems: HashMap<(ArrayId, Vec<i64>), ElementState> = HashMap::new();
        let mut raw: RawRanks = HashMap::new();
        for pid in 0..space.count() {
            let indices = space.indices(pid);
            for stmt in nest.executed_stmts(pid) {
                for (pos, r) in ordered_accesses(stmt).into_iter().enumerate() {
                    let element = r.element(&indices);
                    let st = elems.entry((r.array, element.clone())).or_default();
                    let rank = st.rank(r.kind.is_write());
                    raw.insert((pid, stmt.id, pos), (r.array, element, rank));
                }
            }
        }
        let synced: HashSet<ArrayId> = elems
            .iter()
            .filter(|(_, st)| st.total >= 2 && st.writes >= 1)
            .map(|((a, _), _)| *a)
            .collect();
        let mut key_of = HashMap::new();
        {
            let mut touched: Vec<&(ArrayId, Vec<i64>)> =
                elems.keys().filter(|(a, _)| synced.contains(a)).collect();
            touched.sort();
            for (i, k) in touched.into_iter().enumerate() {
                key_of.insert(k.clone(), i);
            }
        }
        let ranks = raw
            .into_iter()
            .filter(|(_, (a, _, _))| synced.contains(a))
            .map(|(k, (_, _, rank))| (k, rank))
            .collect();
        Self { ranks, key_of, synced }
    }

    /// `true` if the array needs key synchronization.
    pub fn is_synced(&self, array: ArrayId) -> bool {
        self.synced.contains(&array)
    }

    /// Rank of an access, if it is synchronized.
    pub fn rank(&self, pid: u64, stmt: StmtId, pos: usize) -> Option<u64> {
        self.ranks.get(&(pid, stmt, pos)).copied()
    }

    /// Key index of a synchronized element.
    pub fn key(&self, array: ArrayId, element: &[i64]) -> Option<usize> {
        self.key_of.get(&(array, element.to_vec())).copied()
    }

    /// Number of keys (= synchronized elements touched).
    pub fn n_keys(&self) -> usize {
        self.key_of.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workpatterns::fig21_loop;

    #[test]
    fn fig21_key_count_matches_elements() {
        let nest = fig21_loop(20);
        let space = IterSpace::of(&nest);
        let r = AccessRanks::compute(&nest, &space);
        // A touches elements 0..=23 -> 24 keys; result arrays unsynced.
        assert_eq!(r.n_keys(), 24);
        assert!(r.is_synced(ArrayId(0)));
        assert!(!r.is_synced(ArrayId(10)));
    }

    #[test]
    fn writes_count_everything_before_reads_share_group() {
        use crate::ir::{AccessKind, ArrayRef, LoopNestBuilder};
        // One element: W, R, R, W, R — ranks 0, 1, 1, 3, 4.
        let a = ArrayId(0);
        let nest = LoopNestBuilder::new(1, 1)
            .stmt("W1", 1, vec![ArrayRef::simple(a, AccessKind::Write, 0)])
            .stmt("R1", 1, vec![ArrayRef::simple(a, AccessKind::Read, 0)])
            .stmt("R2", 1, vec![ArrayRef::simple(a, AccessKind::Read, 0)])
            .stmt("W2", 1, vec![ArrayRef::simple(a, AccessKind::Write, 0)])
            .stmt("R3", 1, vec![ArrayRef::simple(a, AccessKind::Read, 0)])
            .build();
        let space = IterSpace::of(&nest);
        let r = AccessRanks::compute(&nest, &space);
        let rank = |s: usize| r.rank(0, StmtId(s), 0).unwrap();
        assert_eq!(rank(0), 0);
        assert_eq!(rank(1), 1);
        assert_eq!(rank(2), 1);
        assert_eq!(rank(3), 3);
        assert_eq!(rank(4), 4);
    }

    #[test]
    fn unsynced_accesses_have_no_rank() {
        let nest = fig21_loop(5);
        let space = IterSpace::of(&nest);
        let r = AccessRanks::compute(&nest, &space);
        // S2's write to R2 (pos 1 in reads-then-writes order) is unsynced.
        assert!(r.rank(0, StmtId(1), 1).is_none());
        // S2's read of A (pos 0) is synced.
        assert!(r.rank(0, StmtId(1), 0).is_some());
    }
}
