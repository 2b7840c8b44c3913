//! Virtual local images: §6 gives every processor a local image of
//! each sync variable, and the simulator stores one word per (variable,
//! broadcast domain) instead of one per (variable, processor).
//!
//! Every delivery targets a whole bus domain `lo..hi` (or `0..procs`
//! for a bridge forward, a memory-transport write or the ideal fabric),
//! so while no fault intervenes all processors of a domain hold the same
//! value and that value is the domain's *word*. The invariant:
//!
//! > `get(p, v)` is the word of `p`'s domain for `v`, unless `(v,
//! > domain)` has *diverged* — then it is `p`'s cell of that domain's
//! > row.
//!
//! A row is `span` words (one per processor of the domain) in a shared
//! arena, and it is materialised only on the paths that can make one
//! processor differ from its neighbours: a per-image delivery walk,
//! which runs only while image faults are armed or deferred updates are
//! in flight ([`Images::diverge`] + [`Images::put`]), a deferred update
//! landing late and the recovery flush of deferred updates (both
//! [`Images::set`], when the value differs). A whole-domain
//! [`Images::fill`] makes the domain uniform again and drops its row;
//! the watchdog repair ([`Images::heal`]) drops every row. Fault-free
//! runs never diverge, so a broadcast writes one word per domain it
//! reaches, whatever P is.

use crate::program::SyncVar;

/// `DomainImage::row` of a domain whose processors all hold `word`.
const NO_ROW: usize = usize::MAX;

/// The images of one variable within one broadcast domain.
#[derive(Debug, Clone, Copy)]
struct DomainImage {
    /// The value every processor of the domain holds (meaningless while
    /// the domain has a row).
    word: u64,
    /// Arena offset of the domain's per-processor row, or [`NO_ROW`].
    row: usize,
}

/// Every processor's local image of every sync variable.
#[derive(Debug)]
pub(crate) struct Images {
    /// Processors per broadcast domain (at least 1).
    span: usize,
    /// Broadcast domains per variable.
    domains: usize,
    /// Var-major `cells[var * domains + domain]`.
    cells: Vec<DomainImage>,
    /// Row arena: each diverged (variable, domain) owns `span`
    /// consecutive words, in processor order.
    rows: Vec<u64>,
    /// Arena offsets of rows dropped by a fill, reused before the arena
    /// grows — divergence costs no allocation once the arena is warm.
    free: Vec<usize>,
    /// Image words written by fills, per-processor writes and row
    /// materialisation (surfaced as `KernelCounters::image_words`).
    pub(crate) words_written: u64,
}

impl Images {
    /// All-zero images of `n_vars` variables for `procs` processors in
    /// `domains` equal broadcast domains.
    pub(crate) fn new(procs: usize, n_vars: usize, domains: usize) -> Self {
        Self {
            span: (procs / domains).max(1),
            domains,
            cells: vec![DomainImage { word: 0, row: NO_ROW }; n_vars * domains],
            rows: Vec::new(),
            free: Vec::new(),
            words_written: 0,
        }
    }

    /// Processors per broadcast domain.
    pub(crate) fn span(&self) -> usize {
        self.span
    }

    /// Grows the store to `n` variables; new ones start zeroed.
    pub(crate) fn resize_vars(&mut self, n: usize) {
        self.cells.resize(n * self.domains, DomainImage { word: 0, row: NO_ROW });
    }

    /// Index of processor `p`'s domain cell for `var`, and `p`'s place
    /// within the domain.
    #[inline]
    fn locate(&self, p: usize, var: SyncVar) -> (usize, usize) {
        // Flat fabrics (one domain) are the common case: skip the divide.
        let d = if self.domains == 1 { 0 } else { p / self.span };
        (var * self.domains + d, p - d * self.span)
    }

    /// Processor `p`'s local image of `var`.
    #[inline]
    pub(crate) fn get(&self, p: usize, var: SyncVar) -> u64 {
        let (cell, at) = self.locate(p, var);
        let DomainImage { word, row } = self.cells[cell];
        if row == NO_ROW {
            word
        } else {
            self.rows[row + at]
        }
    }

    /// Writes processor `p`'s image alone, diverging its domain if the
    /// value differs from what the domain holds.
    pub(crate) fn set(&mut self, p: usize, var: SyncVar, val: u64) {
        let (cell, at) = self.locate(p, var);
        let DomainImage { word, row } = self.cells[cell];
        if row == NO_ROW && word == val {
            self.words_written += 1;
            return;
        }
        let row = self.row_of(cell);
        self.put(row + at, val);
    }

    /// The arena offset of the row of the domain that starts at
    /// processor `lo`, materialised first if the domain was uniform:
    /// processor `lo + i`'s image is then written with
    /// `put(offset + i, ..)`, so a per-processor delivery walk pays one
    /// lookup per domain.
    pub(crate) fn diverge(&mut self, var: SyncVar, lo: usize) -> usize {
        debug_assert!(lo.is_multiple_of(self.span), "a delivery starts on a domain boundary");
        let (cell, _) = self.locate(lo, var);
        self.row_of(cell)
    }

    /// Writes one word of a row handed out by [`Images::diverge`].
    #[inline]
    pub(crate) fn put(&mut self, at: usize, val: u64) {
        self.rows[at] = val;
        self.words_written += 1;
    }

    /// The arena offset of `cell`'s row, materialised from the domain
    /// word if the domain was uniform.
    fn row_of(&mut self, cell: usize) -> usize {
        let DomainImage { word, row } = self.cells[cell];
        if row != NO_ROW {
            return row;
        }
        let row = match self.free.pop() {
            Some(row) => {
                self.rows[row..row + self.span].fill(word);
                row
            }
            None => {
                let row = self.rows.len();
                self.rows.resize(row + self.span, word);
                row
            }
        };
        self.words_written += self.span as u64;
        self.cells[cell].row = row;
        row
    }

    /// Delivers `val` to every image of `var` in `lo..hi` — whole
    /// domains: one bus's, or all of them. One word per domain, and any
    /// row there is dropped (the domain is uniform again).
    pub(crate) fn fill(&mut self, var: SyncVar, val: u64, lo: usize, hi: usize) {
        debug_assert!(
            lo.is_multiple_of(self.span) && hi.is_multiple_of(self.span),
            "fills cover whole domains"
        );
        let base = var * self.domains;
        let (first, last) =
            if self.domains == 1 { (0, 1) } else { (lo / self.span, hi / self.span) };
        for cell in &mut self.cells[base + first..base + last] {
            if cell.row != NO_ROW {
                self.free.push(cell.row);
            }
            *cell = DomainImage { word: val, row: NO_ROW };
        }
        self.words_written += (last - first) as u64;
    }

    /// Forces every image of variable `v` to `global[v]` and drops all
    /// divergence. Returns how many (processor, variable) images held a
    /// different value.
    pub(crate) fn heal(&mut self, global: &[u64]) -> u64 {
        let mut healed = 0;
        for (domain_cells, &g) in self.cells.chunks_exact_mut(self.domains).zip(global) {
            for cell in domain_cells {
                let stale = if cell.row != NO_ROW {
                    let row = &self.rows[cell.row..cell.row + self.span];
                    row.iter().filter(|&&w| w != g).count()
                } else if cell.word != g {
                    self.span
                } else {
                    0
                };
                healed += stale as u64;
                *cell = DomainImage { word: g, row: NO_ROW };
            }
        }
        self.rows.clear();
        self.free.clear();
        healed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The representation the store replaced: one word per (variable,
    /// processor), var-major.
    struct Dense {
        procs: usize,
        cells: Vec<u64>,
    }

    impl Dense {
        fn row(&mut self, var: usize) -> &mut [u64] {
            &mut self.cells[var * self.procs..(var + 1) * self.procs]
        }
    }

    fn assert_agree(images: &Images, dense: &Dense, step: &str) {
        for (i, &want) in dense.cells.iter().enumerate() {
            let (var, p) = (i / dense.procs, i % dense.procs);
            assert_eq!(images.get(p, var), want, "image({p}, {var}) after {step}");
        }
    }

    /// Independent oracle: the store and a naive dense matrix take the
    /// same seeded sequence of every operation the machine performs on
    /// images, and must agree on every image and every heal count.
    #[test]
    fn the_store_agrees_with_a_dense_matrix_under_random_operations() {
        // (processors, domains): flat, clustered, one processor per bus.
        for (procs, domains) in [(12, 1), (12, 4), (6, 6)] {
            let span = procs / domains;
            let mut rng = SplitMix64::new(1989 + domains as u64);
            let mut n_vars = 3;
            let mut images = Images::new(procs, n_vars, domains);
            let mut dense = Dense { procs, cells: vec![0; n_vars * procs] };
            assert_eq!(images.span(), span);
            let (mut diverged, mut heals) = (0, 0);
            for step in 0..4000 {
                let var = rng.range_usize(0, n_vars - 1);
                let val = rng.below(5);
                let lo = rng.range_usize(0, domains - 1) * span;
                let what = match rng.below(20) {
                    0..=5 => {
                        images.fill(var, val, lo, lo + span);
                        dense.row(var)[lo..lo + span].fill(val);
                        "domain fill"
                    }
                    6..=8 => {
                        images.fill(var, val, 0, procs);
                        dense.row(var).fill(val);
                        "bridge-wide fill"
                    }
                    9..=12 => {
                        let p = rng.range_usize(0, procs - 1);
                        images.set(p, var, val);
                        dense.row(var)[p] = val;
                        diverged += 1;
                        "set_image"
                    }
                    13..=16 => {
                        // A faulted delivery: some images miss the value.
                        let row = images.diverge(var, lo);
                        for i in 0..span {
                            if rng.chance_pct(60) {
                                images.put(row + i, val);
                                dense.row(var)[lo + i] = val;
                            }
                        }
                        diverged += 1;
                        "faulted delivery"
                    }
                    17 => {
                        n_vars += rng.range_usize(1, 2);
                        images.resize_vars(n_vars);
                        dense.cells.resize(n_vars * procs, 0);
                        "resize_vars"
                    }
                    _ => {
                        let global: Vec<u64> = (0..n_vars).map(|_| rng.below(5)).collect();
                        let mut want = 0;
                        for (var, &g) in global.iter().enumerate() {
                            for cell in dense.row(var) {
                                want += u64::from(*cell != g);
                                *cell = g;
                            }
                        }
                        assert_eq!(images.heal(&global), want, "heal count at step {step}");
                        assert!(images.rows.is_empty(), "a repair drops every row");
                        heals += 1;
                        "heal"
                    }
                };
                assert_agree(&images, &dense, what);
                // Dropped rows are reused: the arena never outgrows one
                // row per (variable, domain).
                assert!(images.rows.len() <= n_vars * procs, "arena leak after {what}");
            }
            assert!(diverged > 100 && heals > 10, "the sequence must exercise divergence");
        }
    }

    #[test]
    fn a_broadcast_writes_one_word_per_domain() {
        let mut flat = Images::new(4096, 2, 1);
        flat.fill(1, 7, 0, 4096);
        assert_eq!((flat.words_written, flat.get(4095, 1), flat.get(0, 0)), (1, 7, 0));
        let mut clustered = Images::new(4096, 2, 128);
        clustered.fill(1, 7, 32, 64);
        assert_eq!(clustered.words_written, 1);
        assert_eq!((clustered.get(31, 1), clustered.get(32, 1), clustered.get(64, 1)), (0, 7, 0));
        clustered.fill(1, 9, 0, 4096);
        assert_eq!(clustered.words_written, 1 + 128);
        assert!(flat.rows.is_empty() && clustered.rows.is_empty(), "fills never diverge");
    }

    #[test]
    fn images_diverge_per_domain_and_survive_a_resize() {
        let mut s = Images::new(4, 1, 2);
        s.set(1, 0, 7);
        assert_eq!([0, 1, 2, 3].map(|p| s.get(p, 0)), [0, 7, 0, 0]);
        assert_eq!(s.rows.len(), 2, "only processor 1's domain has a row");
        s.resize_vars(3);
        // Existing images survive the resize; new vars start zeroed.
        assert_eq!([0, 1, 2, 3].map(|p| s.get(p, 0)), [0, 7, 0, 0]);
        s.fill(2, 9, 0, 4);
        assert_eq!((s.get(0, 2), s.get(3, 2)), (9, 9));
        assert_eq!((s.get(0, 1), s.get(3, 1)), (0, 0));
        // A fill of the diverged domain makes it uniform again and its
        // row is the next one handed out.
        s.fill(0, 5, 0, 2);
        assert_eq!([0, 1, 2, 3].map(|p| s.get(p, 0)), [5, 5, 0, 0]);
        s.set(3, 1, 4);
        assert_eq!(s.rows.len(), 2, "the dropped row was reused");
        assert_eq!([0, 1, 2, 3].map(|p| s.get(p, 1)), [0, 0, 0, 4]);
    }
}
