//! The Modified Breadth-First Search (MBFS) over the Track Intersection
//! Graph.
//!
//! Paper §3.1: "Path searching is accomplished using a modified breadth
//! first search (MBFS) algorithm. A path consists of a sequence of
//! alternating horizontal and vertical track segments. For each
//! two-terminal connection, all possible paths with the minimum number
//! of corners are found … Two modified breadth first searches are
//! performed, starting from one of the two terminals [one from the
//! terminal's vertical track, one from its horizontal track] … During
//! the MBFS for possible paths, each vertex is examined exactly once
//! with the exception of the target vertices. This results in the
//! exclusion of paths requiring more than one corner on the same track."
//!
//! Each BFS level adds one corner; the first level at which either
//! target track (covering the destination terminal) appears gives the
//! minimum corner count, and the recorded predecessor sets form the
//! Path Selection Trees of §3.2 (see [`crate::pst`]).

use crate::tig::Tig;
use ocr_geom::Dir;

/// A TIG vertex: a physical routing track.
pub type VertexKey = (Dir, usize);

/// Dense arena index of a TIG vertex: vertical track `k` ↔ slot `k`,
/// horizontal track `k` ↔ slot `nv + k`.
pub(crate) type Slot = u32;

/// One arena slot of a [`PstStore`]. A slot belongs to the current
/// search iff `gen` equals the store's generation; stale slots need no
/// clearing (their `parents` capacity is reused on the next claim).
#[derive(Clone, Debug, Default)]
struct SlotData {
    gen: u32,
    level: u32,
    run_lo: u32,
    run_hi: u32,
    parents: Vec<Slot>,
}

/// Dense per-search vertex arena backing a [`Pst`].
///
/// Replaces the former `HashMap<VertexKey, VertexData>`: lookups become
/// direct indexing by track id, and the arena is reusable across nets
/// without clearing via generation stamps — `begin` bumps the
/// generation, instantly invalidating every slot, and each slot's
/// `parents` vector keeps its allocation for the search that next
/// claims it.
#[derive(Clone, Debug, Default)]
pub struct PstStore {
    nv: u32,
    slots: Vec<SlotData>,
    cur_gen: u32,
}

impl PstStore {
    /// An empty store; sized lazily by the first search.
    pub fn new() -> Self {
        PstStore::default()
    }

    /// Starts a new search generation over an `nv × nh` grid.
    fn begin(&mut self, nv: usize, nh: usize) {
        let n = nv + nh;
        if self.slots.len() < n {
            self.slots.resize_with(n, SlotData::default);
        }
        self.nv = nv as u32;
        if self.cur_gen == u32::MAX {
            for s in &mut self.slots {
                s.gen = 0;
            }
            self.cur_gen = 1;
        } else {
            self.cur_gen += 1;
        }
    }

    #[inline]
    fn slot_of(&self, key: VertexKey) -> Slot {
        match key.0 {
            Dir::Vertical => key.1 as Slot,
            Dir::Horizontal => self.nv + key.1 as Slot,
        }
    }

    #[inline]
    fn key_of(&self, slot: Slot) -> VertexKey {
        if slot < self.nv {
            (Dir::Vertical, slot as usize)
        } else {
            (Dir::Horizontal, (slot - self.nv) as usize)
        }
    }

    #[inline]
    fn is_live(&self, slot: Slot) -> bool {
        self.slots[slot as usize].gen == self.cur_gen
    }

    #[inline]
    fn level_of(&self, slot: Slot) -> usize {
        self.slots[slot as usize].level as usize
    }

    #[inline]
    fn run_of(&self, slot: Slot) -> (usize, usize) {
        let d = &self.slots[slot as usize];
        (d.run_lo as usize, d.run_hi as usize)
    }

    #[inline]
    fn parents_of(&self, slot: Slot) -> &[Slot] {
        &self.slots[slot as usize].parents
    }

    /// Claims `slot` for the current generation (lazily clearing its
    /// previous parents) and records its discovery level and free run.
    #[inline]
    fn insert(&mut self, slot: Slot, level: usize, run: (usize, usize)) {
        let gen = self.cur_gen;
        let d = &mut self.slots[slot as usize];
        d.gen = gen;
        d.level = level as u32;
        d.run_lo = run.0 as u32;
        d.run_hi = run.1 as u32;
        d.parents.clear();
    }

    #[inline]
    fn push_parent(&mut self, slot: Slot, parent: Slot) {
        self.slots[slot as usize].parents.push(parent);
    }
}

/// A read view of one visited vertex of a [`Pst`] (the arena-backed
/// replacement for the former public `VertexData`).
#[derive(Clone, Copy, Debug)]
pub struct PstVertex<'a> {
    /// BFS level = number of corners on any path reaching this vertex.
    pub level: usize,
    /// The free run (cross-index interval) of the track reachable within
    /// the window, recorded at first discovery.
    pub run: (usize, usize),
    parents: &'a [Slot],
    store: &'a PstStore,
}

impl<'a> PstVertex<'a> {
    /// All predecessors one level up (the Path Selection Tree edges), in
    /// discovery order. Empty for every vertex of a failed search
    /// (`corners == None`): parents are recorded only once the target is
    /// reached (see [`Pst`]).
    pub fn parents(&self) -> impl Iterator<Item = VertexKey> + 'a {
        let store = self.store;
        self.parents.iter().map(move |&s| store.key_of(s))
    }
}

/// The outcome of one MBFS: a Path Selection Tree rooted at `start`.
///
/// Every visited vertex carries its level and free run. Parents (the
/// tree's edges) are recorded only by a successful search: when
/// `corners` is `None` no path selection can follow, so the search skips
/// the parent replay and every vertex's parent list is empty.
#[derive(Clone, Debug)]
pub struct Pst {
    /// The start vertex (one of terminal 1's two tracks).
    pub start: VertexKey,
    /// Target vertices reached at the minimum level (each is a track of
    /// terminal 2 whose run covers the terminal).
    pub targets: Vec<VertexKey>,
    /// Minimum corner count found, if any path exists.
    pub corners: Option<usize>,
    /// Vertices expanded (performance counter for the maze comparison).
    pub expanded: usize,
    /// The vertex arena of this search.
    store: PstStore,
}

impl Pst {
    /// The recorded data of a visited vertex, if the search reached it.
    pub fn get(&self, key: VertexKey) -> Option<PstVertex<'_>> {
        let n = match key.0 {
            Dir::Vertical => self.store.nv as usize,
            Dir::Horizontal => self
                .store
                .slots
                .len()
                .saturating_sub(self.store.nv as usize),
        };
        if key.1 >= n {
            return None;
        }
        let slot = self.store.slot_of(key);
        self.store.is_live(slot).then(|| PstVertex {
            level: self.store.level_of(slot),
            run: self.store.run_of(slot),
            parents: self.store.parents_of(slot),
            store: &self.store,
        })
    }

    /// Iterates every visited vertex in slot order (vertical tracks
    /// first, then horizontal).
    pub fn iter(&self) -> impl Iterator<Item = (VertexKey, PstVertex<'_>)> {
        (0..self.store.slots.len() as Slot)
            .filter(|&slot| self.store.is_live(slot))
            .map(move |slot| {
                (
                    self.store.key_of(slot),
                    PstVertex {
                        level: self.store.level_of(slot),
                        run: self.store.run_of(slot),
                        parents: self.store.parents_of(slot),
                        store: &self.store,
                    },
                )
            })
    }

    #[inline]
    pub(crate) fn slot_of(&self, key: VertexKey) -> Slot {
        self.store.slot_of(key)
    }

    #[inline]
    pub(crate) fn key_of(&self, slot: Slot) -> VertexKey {
        self.store.key_of(slot)
    }

    #[inline]
    pub(crate) fn live(&self, slot: Slot) -> bool {
        self.store.is_live(slot)
    }

    #[inline]
    pub(crate) fn parents_of(&self, slot: Slot) -> &[Slot] {
        self.store.parents_of(slot)
    }
}

/// Reusable per-router search state: the two PST arenas and the MBFS
/// level buffers.
///
/// A [`crate::level_b::LevelBRouter`] holds one of these and threads it
/// through every window attempt via [`search_min_corner_paths_with`];
/// after consuming a [`SearchOutcome`] it hands the arenas back with
/// [`SearchScratch::reclaim`] so their allocations carry over to the
/// next net.
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    store_v: PstStore,
    store_h: PstStore,
    bfs: BfsBuffers,
}

impl SearchScratch {
    /// Empty scratch; buffers grow to the working set of the first
    /// searches and are then reused.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Takes the PST arenas back from a finished search, keeping their
    /// allocations for the next one.
    pub fn reclaim(&mut self, outcome: SearchOutcome) {
        self.store_v = outcome.from_v.store;
        self.store_h = outcome.from_h.store;
    }
}

/// Inclusive index window bounding one search (the paper's rectangular
/// region defined by the two terminal locations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchWindow {
    /// Lowest vertical-track index.
    pub i0: usize,
    /// Highest vertical-track index.
    pub i1: usize,
    /// Lowest horizontal-track index.
    pub j0: usize,
    /// Highest horizontal-track index.
    pub j1: usize,
}

impl SearchWindow {
    /// Window spanning the two terminals expanded by `margin` tracks,
    /// clipped to the grid.
    pub fn around(
        tig: &Tig<'_>,
        a: (usize, usize),
        b: (usize, usize),
        margin: usize,
    ) -> SearchWindow {
        let (nv, nh) = (tig.grid().nv(), tig.grid().nh());
        SearchWindow {
            i0: a.0.min(b.0).saturating_sub(margin),
            i1: (a.0.max(b.0) + margin).min(nv - 1),
            j0: a.1.min(b.1).saturating_sub(margin),
            j1: (a.1.max(b.1) + margin).min(nh - 1),
        }
    }

    /// The full-grid window.
    pub fn full(tig: &Tig<'_>) -> SearchWindow {
        SearchWindow {
            i0: 0,
            i1: tig.grid().nv() - 1,
            j0: 0,
            j1: tig.grid().nh() - 1,
        }
    }

    /// `true` if grid cell `(i, j)` lies inside the window.
    pub fn contains(&self, (i, j): (usize, usize)) -> bool {
        (self.i0..=self.i1).contains(&i) && (self.j0..=self.j1).contains(&j)
    }

    /// Cross-index bounds for a track running in `dir`.
    fn cross_bounds(&self, dir: Dir) -> (usize, usize) {
        match dir {
            Dir::Horizontal => (self.i0, self.i1), // run over vertical indices
            Dir::Vertical => (self.j0, self.j1),
        }
    }

    /// `true` if the track itself lies inside the window.
    fn track_in(&self, key: VertexKey) -> bool {
        match key.0 {
            Dir::Horizontal => self.j0 <= key.1 && key.1 <= self.j1,
            Dir::Vertical => self.i0 <= key.1 && key.1 <= self.i1,
        }
    }
}

/// Per-search MBFS buffers, reused across searches so that steady-state
/// searches allocate nothing.
#[derive(Clone, Debug, Default)]
struct BfsBuffers {
    /// Every visited vertex in discovery order: level `L` is
    /// `order[starts[L]..starts[L + 1]]` (the last level runs to the end),
    /// in the order that level's frontier is expanded.
    order: Vec<Slot>,
    starts: Vec<usize>,
    /// Discovered tracks, one bitset per direction (indexed by
    /// [`Dir::index`]): bit `k` is set once track `k` is visited.
    seen: [Vec<u64>; 2],
    /// Parent replay: the tracks of the level whose parents are being
    /// recorded.
    next_level: Vec<u64>,
}

impl BfsBuffers {
    /// The vertices of BFS level `level`, in frontier order.
    fn level(&self, level: usize) -> &[Slot] {
        let end = self
            .starts
            .get(level + 1)
            .copied()
            .unwrap_or(self.order.len());
        &self.order[self.starts[level]..end]
    }
}

/// Resets `bits` to an all-clear bitset of `n` bits.
fn clear_bits(bits: &mut Vec<u64>, n: usize) {
    bits.clear();
    bits.resize(n.div_ceil(64), 0);
}

#[inline]
fn set_bit(bits: &mut [u64], k: usize) {
    bits[k / 64] |= 1 << (k % 64);
}

/// The words of a bitset that cover the closed bit range `[lo, hi]`,
/// each with the mask of its bits inside the range.
#[inline]
fn words_in(lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
    (lo / 64..=hi / 64).map(move |w| {
        let mut mask = !0u64;
        if w == lo / 64 {
            mask &= !0 << (lo % 64);
        }
        if w == hi / 64 {
            mask &= !0 >> (63 - hi % 64);
        }
        (w, mask)
    })
}

/// The grid cell `(i, j)` where track `u` meets perpendicular track `k`.
#[inline]
fn corner((u_dir, u_track): VertexKey, k: usize) -> (usize, usize) {
    match u_dir {
        Dir::Horizontal => (k, u_track),
        Dir::Vertical => (u_track, k),
    }
}

/// Runs one MBFS for `net` from terminal `term1`'s track of direction
/// `start_dir`, searching for terminal `term2` within `window`.
///
/// Terminals are grid indices `(i, j)` (vertical track, horizontal
/// track). Returns the Path Selection Tree; `corners` is `None` when no
/// path exists within the window, and then no vertex has parents (see
/// [`Pst`]).
///
/// Allocates fresh search state; the router's hot loop goes through
/// [`search_min_corner_paths_with`] instead, which reuses a
/// [`SearchScratch`] across nets.
pub fn mbfs(
    tig: &Tig<'_>,
    net: u32,
    start_dir: Dir,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
) -> Pst {
    mbfs_in(
        tig,
        net,
        start_dir,
        term1,
        term2,
        window,
        PstStore::new(),
        None,
        &mut BfsBuffers::default(),
    )
}

/// The MBFS worker: runs one pass using a caller-provided arena and
/// level buffers, and moves the arena into the returned [`Pst`].
///
/// `other` is the arena of the connection's search from terminal 1's
/// other track, if that search already ran. Both searches cover the
/// same net in the same window over the same grid, so a track's free
/// run through a cross-index is the same run in both: a track the other
/// search discovered with a run that contains the wanted cross-index
/// reuses that run instead of scanning the grid again (see
/// [`free_run`]).
///
/// The search runs in two passes. *Discovery* expands the frontier level
/// by level; for each expanded run it scans only the perpendicular
/// tracks not yet visited, word by word over the `seen` bitset, so each
/// track reaches the corner test, the free-run scan and the arena insert
/// only until it is discovered (§3.1: "each vertex is examined exactly
/// once"). *Parent replay* runs only if a target is reached: it walks the
/// recorded levels and, for each vertex in frontier order, records it as
/// a parent of every next-level track its run meets at a usable corner —
/// exactly the parents, in exactly the order, that a per-cell loop
/// recording parents during discovery would push (the reference test
/// below checks this).
#[allow(clippy::too_many_arguments)]
fn mbfs_in(
    tig: &Tig<'_>,
    net: u32,
    start_dir: Dir,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
    mut store: PstStore,
    other: Option<&PstStore>,
    bfs: &mut BfsBuffers,
) -> Pst {
    let start_track = match start_dir {
        Dir::Horizontal => term1.1,
        Dir::Vertical => term1.0,
    };
    let start: VertexKey = (start_dir, start_track);
    let (nv, nh) = (tig.grid().nv(), tig.grid().nh());
    store.begin(nv, nh);
    let mut pst = Pst {
        start,
        targets: Vec::new(),
        corners: None,
        expanded: 0,
        store,
    };

    // The two target track slots of terminal 2.
    let target_v = pst.store.slot_of((Dir::Vertical, term2.0));
    let target_h = pst.store.slot_of((Dir::Horizontal, term2.1));
    let covers_term2 = |slot: Slot, run: (usize, usize)| -> bool {
        if slot == target_v {
            run.0 <= term2.1 && term2.1 <= run.1
        } else if slot == target_h {
            run.0 <= term2.0 && term2.0 <= run.1
        } else {
            false
        }
    };
    let through1 = match start_dir {
        Dir::Horizontal => term1.0,
        Dir::Vertical => term1.1,
    };

    if !window.track_in(start) {
        return pst;
    }
    let (wlo, whi) = window.cross_bounds(start_dir);
    let start_slot = pst.store.slot_of(start);
    let Some(run0) = free_run(tig, net, other, start, start_slot, through1, (wlo, whi)) else {
        return pst;
    };
    pst.store.insert(start_slot, 0, run0);
    if covers_term2(start_slot, run0) {
        pst.targets.push(start);
        pst.corners = Some(0);
        return pst;
    }

    let BfsBuffers {
        order,
        starts,
        seen,
        ..
    } = &mut *bfs;
    clear_bits(&mut seen[Dir::Vertical.index()], nv);
    clear_bits(&mut seen[Dir::Horizontal.index()], nh);
    set_bit(&mut seen[start_dir.index()], start_track);
    order.clear();
    order.push(start_slot);
    starts.clear();
    starts.push(0);
    let mut perp = start_dir.perp();
    let mut level = 0usize;
    loop {
        let (begin, end) = (starts[level], order.len());
        if begin == end {
            break;
        }
        // Runs are clipped to the window's cross bounds, so every
        // perpendicular track they meet lies inside the window.
        let (plo, phi) = window.cross_bounds(perp);
        let seen = &mut seen[perp.index()];
        for idx in begin..end {
            let u_slot = order[idx];
            pst.expanded += 1;
            let u = pst.store.key_of(u_slot);
            let run = pst.store.run_of(u_slot);
            for (w, mask) in words_in(run.0, run.1) {
                let mut fresh = !seen[w] & mask;
                while fresh != 0 {
                    let k = w * 64 + fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    let (ci, cj) = corner(u, k);
                    if !tig.edge_usable(net, ci, cj) {
                        continue;
                    }
                    debug_assert!(window.track_in((perp, k)));
                    let v_slot = pst.store.slot_of((perp, k));
                    // The corner cell sits at cross-index `u.1` of track
                    // `k`, and a usable corner is passable on both
                    // planes, so this run always exists: a vertex is
                    // discovered by the first frontier vertex with a
                    // usable corner to it, which the replay relies on.
                    let Some(vrun) = free_run(tig, net, other, (perp, k), v_slot, u.1, (plo, phi))
                    else {
                        continue;
                    };
                    pst.store.insert(v_slot, level + 1, vrun);
                    set_bit(seen, k);
                    order.push(v_slot);
                }
            }
        }
        // Level `level + 1` is now complete: check for targets.
        starts.push(end);
        for &v_slot in &order[end..] {
            if covers_term2(v_slot, pst.store.run_of(v_slot)) {
                pst.targets.push(pst.store.key_of(v_slot));
            }
        }
        if !pst.targets.is_empty() {
            pst.corners = Some(level + 1);
            replay_parents(tig, net, &mut pst.store, bfs, level + 1);
            break;
        }
        perp = perp.perp();
        level += 1;
    }
    pst
}

/// [`Tig::free_run`] of `track` (arena slot `slot`) through cross-index
/// `through`, clipped to `bounds`, or the run the connection's other
/// search stored for the track in `other` when that run contains
/// `through`.
#[inline]
fn free_run(
    tig: &Tig<'_>,
    net: u32,
    other: Option<&PstStore>,
    (dir, track): VertexKey,
    slot: Slot,
    through: usize,
    (lo, hi): (usize, usize),
) -> Option<(usize, usize)> {
    if let Some(store) = other.filter(|store| store.is_live(slot)) {
        let run = store.run_of(slot);
        if run.0 <= through && through <= run.1 {
            return Some(run);
        }
    }
    tig.free_run(net, dir, track, through, lo, hi)
}

/// The parent replay of a search that reached its targets at level
/// `corners`: records, for every level `L < corners` and every vertex
/// `u` of it in frontier order, `u` as a parent of each level-`L + 1`
/// track that `u`'s run meets at a usable corner.
fn replay_parents(
    tig: &Tig<'_>,
    net: u32,
    store: &mut PstStore,
    bfs: &mut BfsBuffers,
    corners: usize,
) {
    let mut next_level = std::mem::take(&mut bfs.next_level);
    let tracks = tig.grid().nv().max(tig.grid().nh());
    for level in 0..corners {
        let perp = store.key_of(bfs.level(level)[0]).0.perp();
        clear_bits(&mut next_level, tracks);
        for &v_slot in bfs.level(level + 1) {
            set_bit(&mut next_level, store.key_of(v_slot).1);
        }
        for &u_slot in bfs.level(level) {
            let u = store.key_of(u_slot);
            let run = store.run_of(u_slot);
            for (w, mask) in words_in(run.0, run.1) {
                let mut hits = next_level[w] & mask;
                while hits != 0 {
                    let k = w * 64 + hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let (ci, cj) = corner(u, k);
                    if tig.edge_usable(net, ci, cj) {
                        let v_slot = store.slot_of((perp, k));
                        debug_assert!(!store.parents_of(v_slot).contains(&u_slot));
                        store.push_parent(v_slot, u_slot);
                    }
                }
            }
        }
    }
    bfs.next_level = next_level;
}

/// Runs the paper's two MBFS passes (from the terminal's vertical and
/// horizontal tracks) and reports the pair plus the global minimum
/// corner count.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// PST of the search started from terminal 1's vertical track.
    pub from_v: Pst,
    /// PST of the search started from terminal 1's horizontal track.
    pub from_h: Pst,
    /// Global minimum corner count over both searches.
    pub corners: Option<usize>,
    /// Total vertices expanded by both searches.
    pub expanded: usize,
}

/// Runs both MBFS passes for one two-terminal connection with fresh
/// search state (tests, benches, one-off callers).
pub fn search_min_corner_paths(
    tig: &Tig<'_>,
    net: u32,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
) -> SearchOutcome {
    let mut scratch = SearchScratch::new();
    search_min_corner_paths_with(tig, net, term1, term2, window, &mut scratch)
}

/// Runs both MBFS passes reusing `scratch` (arenas, level buffers). The
/// arenas travel inside the returned PSTs; hand them back with
/// [`SearchScratch::reclaim`] once the outcome has been consumed. The
/// horizontal-track search reuses the free runs the vertical-track
/// search stored in its arena.
pub fn search_min_corner_paths_with(
    tig: &Tig<'_>,
    net: u32,
    term1: (usize, usize),
    term2: (usize, usize),
    window: &SearchWindow,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    let from_v = mbfs_in(
        tig,
        net,
        Dir::Vertical,
        term1,
        term2,
        window,
        std::mem::take(&mut scratch.store_v),
        None,
        &mut scratch.bfs,
    );
    let from_h = mbfs_in(
        tig,
        net,
        Dir::Horizontal,
        term1,
        term2,
        window,
        std::mem::take(&mut scratch.store_h),
        Some(&from_v.store),
        &mut scratch.bfs,
    );
    let corners = match (from_v.corners, from_h.corners) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let expanded = from_v.expanded + from_h.expanded;
    SearchOutcome {
        from_v,
        from_h,
        corners,
        expanded,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::{GridModel, TrackSet};

    fn grid(n: i64, pitch: i64) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    #[test]
    fn l_connection_needs_one_corner() {
        let g = grid(100, 10);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (0, 0), (10, 10), &w);
        assert_eq!(out.corners, Some(1));
    }

    #[test]
    fn straight_connection_needs_zero_corners() {
        let g = grid(100, 10);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        // Same row: terminal 1 at (0, 5), terminal 2 at (10, 5).
        let out = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &w);
        assert_eq!(out.corners, Some(0));
        // The zero-corner path comes from the horizontal-track search.
        assert_eq!(out.from_h.corners, Some(0));
    }

    #[test]
    fn obstacle_raises_corner_count() {
        let mut g = grid(100, 10);
        // Block the direct horizontal run between the terminals on the
        // horizontal plane, full width of the gap.
        g.block_rect(&Rect::new(25, 45, 75, 55), Dir::Horizontal);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &w);
        // Must dodge: at least 2 corners now.
        assert!(out.corners.expect("path exists") >= 2);
    }

    #[test]
    fn no_path_in_sealed_box() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            // Seal terminal 1 inside a box.
            g.block_rect(&Rect::new(15, 15, 45, 45), dir);
        }
        // Terminal inside the blocked region interior.
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (3, 3), (9, 9), &w);
        assert_eq!(out.corners, None);
    }

    #[test]
    fn window_limits_search() {
        let mut g = grid(100, 10);
        // Wall forcing a detour outside the tight window.
        g.block_rect(&Rect::new(35, -5, 45, 85), Dir::Horizontal);
        g.block_rect(&Rect::new(35, -5, 45, 85), Dir::Vertical);
        let tig = Tig::new(&g);
        let tight = SearchWindow::around(&tig, (0, 5), (10, 5), 1);
        let out = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &tight);
        assert_eq!(out.corners, None, "detour requires leaving the window");
        let full = SearchWindow::full(&tig);
        let out2 = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &full);
        assert!(out2.corners.is_some());
    }

    #[test]
    fn parents_record_all_min_corner_predecessors() {
        let g = grid(100, 10);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        // Two corners needed from (0,0) to (10,10) starting via the
        // horizontal track at j=0: h0 → some v → h10 … actually 1 corner:
        // h0 covers i=10, corner at (10, 0), then v10 up to (10,10):
        // the target v-track v10 reached at level 1.
        let pst = mbfs(&tig, 0, Dir::Horizontal, (0, 0), (10, 10), &w);
        assert_eq!(pst.corners, Some(1));
        // All 11 vertical tracks become level-1 vertices; the target v10
        // has exactly one parent (h0).
        let t = pst.get((Dir::Vertical, 10)).expect("visited");
        assert_eq!(t.level, 1);
        assert_eq!(t.parents().collect::<Vec<_>>(), vec![(Dir::Horizontal, 0)]);
    }

    #[test]
    fn blocked_straight_line_needs_two_corners() {
        let mut g = grid(100, 10);
        // Terminals share row y = 50; the row between them is cut on the
        // horizontal plane, but the vertical plane stays open, so a
        // U-shaped 2-corner dodge exists.
        g.block_rect(&Rect::new(25, 45, 75, 55), Dir::Horizontal);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &w);
        assert_eq!(out.corners, Some(2));
    }

    #[test]
    fn target_terminal_cell_blocked_on_one_plane_still_reachable() {
        let mut g = grid(100, 10);
        // The target's vertical plane is occupied by another net; the
        // horizontal-track approach still lands.
        g.set_state(Dir::Vertical, 10, 5, ocr_grid::CellState::Used(99));
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (0, 5), (10, 5), &w);
        assert_eq!(out.corners, Some(0), "same-row run needs no corner");
    }

    #[test]
    fn both_searches_agree_when_symmetric() {
        let g = grid(100, 10);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        // Diagonal terminals: both the v-start and h-start searches find
        // 1-corner paths (the two L orientations).
        let out = search_min_corner_paths(&tig, 0, (2, 2), (8, 8), &w);
        assert_eq!(out.from_v.corners, Some(1));
        assert_eq!(out.from_h.corners, Some(1));
    }

    #[test]
    fn expanded_counts_are_small_on_empty_grid() {
        let g = grid(1000, 10);
        let tig = Tig::new(&g);
        let w = SearchWindow::full(&tig);
        let out = search_min_corner_paths(&tig, 0, (0, 0), (100, 100), &w);
        // Track-based search expands O(tracks), not O(area).
        assert!(out.expanded < 2 * (g.nv() + g.nh()));
    }

    /// Per-cell reference MBFS: the loop `mbfs_in` replaced. It tests
    /// every cell of every expanded run against the perpendicular track,
    /// settled or not, and records parents inline — for failed searches
    /// too.
    fn mbfs_reference(
        tig: &Tig<'_>,
        net: u32,
        start_dir: Dir,
        term1: (usize, usize),
        term2: (usize, usize),
        window: &SearchWindow,
    ) -> Pst {
        let start_track = match start_dir {
            Dir::Horizontal => term1.1,
            Dir::Vertical => term1.0,
        };
        let start: VertexKey = (start_dir, start_track);
        let mut store = PstStore::new();
        store.begin(tig.grid().nv(), tig.grid().nh());
        let mut pst = Pst {
            start,
            targets: Vec::new(),
            corners: None,
            expanded: 0,
            store,
        };
        let target_v = pst.store.slot_of((Dir::Vertical, term2.0));
        let target_h = pst.store.slot_of((Dir::Horizontal, term2.1));
        let covers_term2 = |slot: Slot, run: (usize, usize)| -> bool {
            if slot == target_v {
                run.0 <= term2.1 && term2.1 <= run.1
            } else if slot == target_h {
                run.0 <= term2.0 && term2.0 <= run.1
            } else {
                false
            }
        };
        let through1 = match start_dir {
            Dir::Horizontal => term1.0,
            Dir::Vertical => term1.1,
        };
        if !window.track_in(start) {
            return pst;
        }
        let (wlo, whi) = window.cross_bounds(start_dir);
        let start_slot = pst.store.slot_of(start);
        let Some(run0) = tig.free_run(net, start_dir, start_track, through1, wlo, whi) else {
            return pst;
        };
        pst.store.insert(start_slot, 0, run0);
        if covers_term2(start_slot, run0) {
            pst.targets.push(start);
            pst.corners = Some(0);
            return pst;
        }
        let mut frontier = vec![start_slot];
        let mut next = Vec::new();
        let mut level = 0usize;
        while !frontier.is_empty() {
            next.clear();
            for &u_slot in frontier.iter() {
                pst.expanded += 1;
                let (u_dir, u_track) = pst.store.key_of(u_slot);
                let run = pst.store.run_of(u_slot);
                let perp = u_dir.perp();
                for k in run.0..=run.1 {
                    let (ci, cj) = match u_dir {
                        Dir::Horizontal => (k, u_track),
                        Dir::Vertical => (u_track, k),
                    };
                    if !tig.edge_usable(net, ci, cj) {
                        continue;
                    }
                    let v: VertexKey = (perp, k);
                    if !window.track_in(v) {
                        continue;
                    }
                    let v_slot = pst.store.slot_of(v);
                    if pst.store.is_live(v_slot) {
                        if pst.store.level_of(v_slot) == level + 1 {
                            pst.store.push_parent(v_slot, u_slot);
                        }
                    } else {
                        let (plo, phi) = window.cross_bounds(perp);
                        let through = match perp {
                            Dir::Horizontal => ci,
                            Dir::Vertical => cj,
                        };
                        let Some(vrun) = tig.free_run(net, perp, k, through, plo, phi) else {
                            continue;
                        };
                        pst.store.insert(v_slot, level + 1, vrun);
                        pst.store.push_parent(v_slot, u_slot);
                        next.push(v_slot);
                    }
                }
            }
            for &v_slot in next.iter() {
                if covers_term2(v_slot, pst.store.run_of(v_slot)) {
                    pst.targets.push(pst.store.key_of(v_slot));
                }
            }
            if !pst.targets.is_empty() {
                pst.corners = Some(level + 1);
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
            level += 1;
        }
        pst
    }

    type VertexDump = (VertexKey, usize, (usize, usize), Vec<VertexKey>);

    fn dump(pst: &Pst) -> Vec<VertexDump> {
        pst.iter()
            .map(|(k, v)| (k, v.level, v.run, v.parents().collect()))
            .collect()
    }

    /// Asserts that `got` found what the reference found: the same
    /// counters and targets, the same level and run for every visited
    /// vertex, and — for a successful search — the same parents in the
    /// same order. A failed search must record no parents at all.
    fn assert_matches_reference(got: &Pst, want: &Pst, case: &str) {
        assert_eq!(got.start, want.start, "{case}");
        assert_eq!(got.corners, want.corners, "{case}");
        assert_eq!(got.targets, want.targets, "{case}");
        assert_eq!(got.expanded, want.expanded, "{case}");
        let mut want_vertices = dump(want);
        if want.corners.is_none() {
            want_vertices.iter_mut().for_each(|v| v.3.clear());
        }
        assert_eq!(dump(got), want_vertices, "{case}");
    }

    /// A random `nv × nh` grid: scattered and rectangular `Blocked`
    /// cells, wiring of another net, and wiring of the searching net.
    pub(crate) fn random_grid(
        rng: &mut ocr_gen::rng::Rng,
        nv: usize,
        nh: usize,
        net: u32,
    ) -> GridModel {
        use ocr_grid::CellState;
        let mut g = GridModel::new(
            Rect::new(0, 0, 10 * (nv as i64 - 1), 10 * (nh as i64 - 1)),
            TrackSet::from_pitch(Interval::new(0, 10 * (nh as i64 - 1)), 10),
            TrackSet::from_pitch(Interval::new(0, 10 * (nv as i64 - 1)), 10),
        );
        assert_eq!((g.nv(), g.nh()), (nv, nh));
        let cells = nv * nh;
        let density = rng.gen_range(0usize..=30);
        for _ in 0..cells * density / 100 {
            let dir = if rng.gen_bool(0.5) {
                Dir::Horizontal
            } else {
                Dir::Vertical
            };
            let (i, j) = (rng.gen_range(0..nv), rng.gen_range(0..nh));
            let state = match rng.gen_range(0u32..10) {
                0..=5 => CellState::Blocked,
                6..=7 => CellState::Used(net + 1),
                _ => CellState::Used(net),
            };
            g.set_state(dir, i, j, state);
        }
        for _ in 0..rng.gen_range(0usize..4) {
            let (i0, j0) = (rng.gen_range(0..nv), rng.gen_range(0..nh));
            let (i1, j1) = (
                (i0 + rng.gen_range(0..nv / 3 + 1)).min(nv - 1),
                (j0 + rng.gen_range(0..nh / 3 + 1)).min(nh - 1),
            );
            let planes: &[Dir] = match rng.gen_range(0u32..3) {
                0 => &[Dir::Horizontal],
                1 => &[Dir::Vertical],
                _ => &[Dir::Horizontal, Dir::Vertical],
            };
            for &dir in planes {
                for i in i0..=i1 {
                    for j in j0..=j1 {
                        g.set_state(dir, i, j, CellState::Blocked);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn word_parallel_mbfs_matches_per_cell_reference() {
        const CASES: usize = 2000;
        let mut rng = ocr_gen::rng::Rng::seed_from_u64(0x3bf5_0001);
        // One scratch for every case, as the router holds it: stale
        // arenas, bitsets and level lists must never leak between
        // searches on grids of different sizes.
        let mut scratch = SearchScratch::new();
        let (mut successes, mut failures) = (0, 0);
        for case in 0..CASES {
            let (nv, nh) = (rng.gen_range(2usize..=150), rng.gen_range(2usize..=150));
            let net = 1;
            let g = random_grid(&mut rng, nv, nh, net);
            let tig = Tig::new(&g);
            let t1 = (rng.gen_range(0..nv), rng.gen_range(0..nh));
            let t2 = (rng.gen_range(0..nv), rng.gen_range(0..nh));
            let window = match rng.gen_range(0u32..3) {
                0 => SearchWindow::full(&tig),
                1 => SearchWindow::around(&tig, t1, t2, rng.gen_range(0usize..8)),
                // An arbitrary box around terminal 1; terminal 2 may
                // fall outside it.
                _ => SearchWindow {
                    i0: rng.gen_range(0..=t1.0),
                    i1: rng.gen_range(t1.0..nv),
                    j0: rng.gen_range(0..=t1.1),
                    j1: rng.gen_range(t1.1..nh),
                },
            };
            let out = search_min_corner_paths_with(&tig, net, t1, t2, &window, &mut scratch);
            for (pst, dir) in [(&out.from_v, Dir::Vertical), (&out.from_h, Dir::Horizontal)] {
                let want = mbfs_reference(&tig, net, dir, t1, t2, &window);
                let label = format!("case {case}: {nv}x{nh} {t1:?}->{t2:?} {window:?} {dir:?}");
                assert_matches_reference(pst, &want, &label);
                if want.corners.is_some() {
                    successes += 1;
                } else {
                    failures += 1;
                }
            }
            scratch.reclaim(out);
        }
        // The generator must exercise both outcomes in earnest.
        assert!(
            successes > CASES / 4 && failures > CASES / 4,
            "{successes}/{failures}"
        );
    }
}
