//! The improved primitives of Fig 4.3.
//!
//! [`ProcessHandle`] wraps one process's view of its process counter. The
//! improvement over the basic primitives is that a process need not
//! acquire ownership before its first source statement: `mark_PC` simply
//! skips the update while the counter still belongs to an earlier process
//! (`owner < myPC`), and the final `transfer_PC` acquires ownership if it
//! was never obtained — so only the ownership *handoff* can ever block,
//! never an intermediate mark.
//!
//! Paper claim served: Fig 4.3's improved primitives, where only the
//! ownership handoff can block. Caller: the `pc_primitives` group of
//! `crates/bench/benches/primitives.rs`, which times them on real
//! threads.

use crate::pc::{PcPool, PcValue};

/// One process's handle on its (possibly shared) process counter.
///
/// # Examples
///
/// ```
/// use datasync_core::{pc::PcPool, handle::ProcessHandle};
///
/// let pool = PcPool::new(2);
/// // Process 0 runs a two-source iteration.
/// let mut h = ProcessHandle::load_index(&pool, 0);
/// h.mark_pc(1);
/// h.transfer_pc();
/// // Process 2 (folded onto the same counter) can now take over.
/// let mut h2 = ProcessHandle::load_index(&pool, 2);
/// h2.mark_pc(1);
/// assert!(h2.owned());
/// h2.transfer_pc();
/// ```
#[derive(Debug)]
pub struct ProcessHandle<'a> {
    pool: &'a PcPool,
    pid: u64,
    owned: bool,
    transferred: bool,
}

impl<'a> ProcessHandle<'a> {
    /// `load_index(pid)`: saves the PC index and resets the `owned` flag.
    pub fn load_index(pool: &'a PcPool, pid: u64) -> Self {
        Self { pool, pid, owned: false, transferred: false }
    }

    /// This process's id.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    /// Whether the process has taken ownership of its counter.
    pub fn owned(&self) -> bool {
        self.owned
    }

    /// Whether [`ProcessHandle::transfer_pc`] has run.
    pub fn transferred(&self) -> bool {
        self.transferred
    }

    /// `mark_PC(step)`: records completion of a source statement if the
    /// counter is available; otherwise proceeds without waiting.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ProcessHandle::transfer_pc`].
    pub fn mark_pc(&mut self, step: u32) {
        assert!(!self.transferred, "mark_pc after transfer_pc");
        if !self.owned {
            let current = self.pool.load(self.pid);
            if current.owner < self.pid {
                // Not yet transferred to us: skip, the final transfer_PC
                // guarantees the information is eventually published.
                return;
            }
        }
        self.pool.set_pc(self.pid, step);
        self.owned = true;
    }

    /// `transfer_PC()`: signals completion of every source statement and
    /// hands the counter to process `pid + X`, acquiring ownership first
    /// if necessary. Idempotent.
    pub fn transfer_pc(&mut self) {
        if self.transferred {
            return;
        }
        if !self.owned {
            self.pool.get_pc(self.pid);
            self.owned = true;
        }
        self.pool.release_pc(self.pid);
        self.transferred = true;
    }

    /// `wait_PC(dist, step)`: busy-waits until process `pid - dist` has
    /// reached `step` (immediately satisfied when `dist > pid`).
    pub fn wait_pc(&self, dist: u64, step: u32) {
        self.pool.wait_pc(self.pid, dist, step);
    }

    /// Current value of the counter slot for this pid.
    pub fn peek(&self) -> PcValue {
        self.pool.load(self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mark_without_ownership_is_skipped() {
        let pool = PcPool::new(2);
        // Process 2 folds onto slot 0, still owned by process 0.
        let mut h = ProcessHandle::load_index(&pool, 2);
        h.mark_pc(1);
        assert!(!h.owned());
        assert_eq!(pool.load(0), PcValue::new(0, 0), "mark must not clobber the owner");
    }

    #[test]
    fn mark_after_transfer_takes_ownership() {
        let pool = PcPool::new(2);
        let mut h0 = ProcessHandle::load_index(&pool, 0);
        h0.transfer_pc();
        let mut h2 = ProcessHandle::load_index(&pool, 2);
        h2.mark_pc(1);
        assert!(h2.owned());
        assert_eq!(pool.load(2), PcValue::new(2, 1));
    }

    #[test]
    fn transfer_acquires_if_unowned() {
        let pool = PcPool::new(2);
        let mut h0 = ProcessHandle::load_index(&pool, 0);
        // No marks at all (e.g. all sources in a skipped branch arm):
        // transfer still works and hands over.
        h0.transfer_pc();
        assert!(pool.owns(2));
        assert!(h0.transferred());
        // Idempotent.
        h0.transfer_pc();
        assert!(pool.owns(2));
    }

    #[test]
    #[should_panic(expected = "mark_pc after transfer_pc")]
    fn mark_after_transfer_panics() {
        let pool = PcPool::new(2);
        let mut h = ProcessHandle::load_index(&pool, 0);
        h.transfer_pc();
        h.mark_pc(1);
    }

    #[test]
    fn chain_of_three_processes() {
        // X = 1: processes 0, 1, 2 share one counter and serialize on the
        // ownership handoff while marks skip when unowned.
        let pool = Arc::new(PcPool::new(1));
        let p = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            for pid in [1u64, 2u64] {
                let mut h = ProcessHandle::load_index(&p, pid);
                h.wait_pc(1, 1); // wait for predecessor's first source
                h.mark_pc(1);
                h.transfer_pc();
            }
        });
        let mut h = ProcessHandle::load_index(&pool, 0);
        h.mark_pc(1);
        h.transfer_pc();
        t.join().unwrap();
        assert!(pool.owns(3));
    }
}
