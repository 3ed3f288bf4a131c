#![warn(missing_docs)]

//! Lee-style maze routing baseline.
//!
//! Section 3 of the paper claims the Track Intersection Graph router
//! "results in faster completion of the interconnections on the average
//! when compared to maze type algorithms". This crate supplies the
//! comparator: a classic Lee router (Lee, "An algorithm for path
//! connections and its applications", 1961) expanding a wave over the
//! same two-plane grid model the Level B router uses, plus an A*
//! variant.
//!
//! The unit of comparison is **expanded nodes**: a maze wave touches
//! `O(area)` grid cells per connection, while the TIG search touches
//! `O(tracks)` vertices.
//!
//! A caller running many searches on one grid passes a [`MazeScratch`]
//! to the `_with` variants, so each search resets only what the previous
//! one wrote instead of allocating per-node arrays for the whole grid.
//!
//! # Example
//!
//! ```
//! use ocr_geom::{Interval, Point, Rect};
//! use ocr_grid::{GridModel, TrackSet};
//! use ocr_maze::{route_maze, MazeOptions};
//!
//! let mut grid = GridModel::new(
//!     Rect::new(0, 0, 100, 100),
//!     TrackSet::from_pitch(Interval::new(0, 100), 10),
//!     TrackSet::from_pitch(Interval::new(0, 100), 10),
//! );
//! let path = route_maze(&mut grid, 1, Point::new(0, 0), Point::new(100, 100),
//!                       MazeOptions::default())?;
//! assert_eq!(path.route.wire_length(), 200);
//! # Ok::<(), ocr_maze::MazeError>(())
//! ```

pub mod mikami;

pub use mikami::route_mikami;

use ocr_geom::{Coord, Dir, Point};
use ocr_grid::{CellState, GridModel};
use ocr_netlist::{NetRoute, RouteSeg, Via};
use std::collections::BinaryHeap;
use std::fmt;

/// Options for the maze router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MazeOptions {
    /// Extra cost charged for a plane change (a via).
    pub via_cost: Coord,
    /// Use the A* lower-bound (remaining Manhattan distance) to focus
    /// the wave. `false` reproduces the undirected Lee expansion.
    pub astar: bool,
}

impl Default for MazeOptions {
    fn default() -> Self {
        MazeOptions {
            via_cost: 5,
            astar: false,
        }
    }
}

/// Errors from the maze router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MazeError {
    /// A terminal does not lie on the grid.
    OffGrid(Point),
    /// A terminal's grid cell is blocked on both planes.
    TerminalBlocked(Point),
    /// The wave exhausted the grid without reaching the target.
    NoPath,
}

impl fmt::Display for MazeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MazeError::OffGrid(p) => write!(f, "terminal {p} is off the routing grid"),
            MazeError::TerminalBlocked(p) => write!(f, "terminal {p} is blocked on both planes"),
            MazeError::NoPath => write!(f, "no path exists between the terminals"),
        }
    }
}

impl std::error::Error for MazeError {}

/// A found maze path.
#[derive(Clone, Debug)]
pub struct MazePath {
    /// The physical route (wires on M3/M4, corner vias).
    pub route: NetRoute,
    /// Total cost (wire length plus via penalties).
    pub cost: Coord,
    /// Number of search nodes expanded — the performance measure the
    /// paper's comparison is about.
    pub expanded: usize,
    /// Grid nodes of the path as `(i, j, plane)`.
    pub nodes: Vec<(usize, usize, Dir)>,
}

/// A queued wave node: `node` is the packed index `dist`/`prev` use.
/// Ordered by priority, then cost (both reversed for the max-heap);
/// the node never takes part in the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: Coord,
    cost: Coord,
    node: u32,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .priority
            .cmp(&self.priority)
            .then(other.cost.cmp(&self.cost))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Packs node `(i, j, plane)` into its index in `dist`/`prev`.
#[inline]
fn pack(nv: usize, i: usize, j: usize, p: usize) -> u32 {
    ((j * nv + i) * 2 + p) as u32
}

/// Inverse of [`pack`].
#[inline]
fn unpack(nv: usize, k: u32) -> (usize, usize, usize) {
    let k = k as usize;
    let rest = k / 2;
    (rest % nv, rest / nv, k % 2)
}

/// The plane of node plane index `p` (0 = horizontal, 1 = vertical).
#[inline]
fn plane(p: usize) -> Dir {
    if p == 0 {
        Dir::Horizontal
    } else {
        Dir::Vertical
    }
}

/// Calls `visit(i, j, plane, step)` for every move out of node
/// `(i, j, p)` in the order the wave expands them: along the plane's
/// direction (lower index first), then the plane change (a via).
#[inline]
fn for_each_move(
    grid: &GridModel,
    (i, j, p): (usize, usize, usize),
    via_cost: Coord,
    mut visit: impl FnMut(usize, usize, usize, Coord),
) {
    if p == 0 {
        // Horizontal plane: move along x.
        let v = grid.v_tracks();
        if i > 0 {
            visit(i - 1, j, 0, v.offset(i) - v.offset(i - 1));
        }
        if i + 1 < grid.nv() {
            visit(i + 1, j, 0, v.offset(i + 1) - v.offset(i));
        }
    } else {
        // Vertical plane: move along y.
        let h = grid.h_tracks();
        if j > 0 {
            visit(i, j - 1, 1, h.offset(j) - h.offset(j - 1));
        }
        if j + 1 < grid.nh() {
            visit(i, j + 1, 1, h.offset(j + 1) - h.offset(j));
        }
    }
    visit(i, j, 1 - p, via_cost);
}

/// Reusable state of the Lee/A* and soft-path searches: per-node
/// distance and predecessor arrays, the indices the last search wrote,
/// and the wave heap.
///
/// A search resets only the entries its predecessor touched and
/// reallocates only when the grid's node count changes, so a caller
/// that routes many connections on one grid pays for what each wave
/// reaches rather than for the whole grid. Results never depend on the
/// scratch's history: [`route_maze`] and [`find_soft_path_filtered`]
/// are the `_with` searches run on a fresh scratch.
#[derive(Clone, Debug, Default)]
pub struct MazeScratch {
    dist: Vec<Coord>,
    prev: Vec<u32>,
    /// Every node whose `dist` left `Coord::MAX` since the last reset.
    touched: Vec<u32>,
    heap: BinaryHeap<QueueEntry>,
}

impl MazeScratch {
    /// An empty scratch; the first search sizes it to its grid.
    pub fn new() -> Self {
        MazeScratch::default()
    }

    /// Readies the scratch for a search over `nodes` nodes: every `dist`
    /// is `Coord::MAX`, every `prev` is `u32::MAX`, the heap is empty.
    fn begin(&mut self, nodes: usize) {
        // `u32::MAX` is the no-predecessor sentinel.
        assert!(
            nodes < u32::MAX as usize,
            "{nodes} maze nodes overflow u32 node indices"
        );
        if self.dist.len() == nodes {
            for &k in &self.touched {
                self.dist[k as usize] = Coord::MAX;
                self.prev[k as usize] = u32::MAX;
            }
        } else {
            self.dist = vec![Coord::MAX; nodes];
            self.prev = vec![u32::MAX; nodes];
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Relaxes node `k`: if `cost` beats its distance, records it with
    /// predecessor `from` (`u32::MAX` for a source) and queues it at
    /// `priority`.
    #[inline]
    fn improve(&mut self, k: u32, from: u32, cost: Coord, priority: Coord) {
        let d = &mut self.dist[k as usize];
        if cost < *d {
            if *d == Coord::MAX {
                self.touched.push(k);
            }
            *d = cost;
            self.prev[k as usize] = from;
            self.heap.push(QueueEntry {
                priority,
                cost,
                node: k,
            });
        }
    }

    /// The node path from a source to `goal`, following `prev`.
    fn trace(&self, nv: usize, goal: u32) -> Vec<(usize, usize, Dir)> {
        let mut nodes = Vec::new();
        let mut cur = goal;
        loop {
            let (i, j, p) = unpack(nv, cur);
            nodes.push((i, j, plane(p)));
            let pr = self.prev[cur as usize];
            if pr == u32::MAX {
                break;
            }
            cur = pr;
        }
        nodes.reverse();
        nodes
    }
}

/// Routes one two-terminal connection with a Lee/Dijkstra wave over the
/// grid's two planes, marking the found path as used by `net`.
///
/// Horizontal moves run on the horizontal plane (metal3), vertical moves
/// on the vertical plane (metal4); plane changes cost
/// [`MazeOptions::via_cost`]. Cells already used by `net` itself are
/// passable (reuse of own wiring).
///
/// # Errors
///
/// See [`MazeError`].
pub fn route_maze(
    grid: &mut GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
) -> Result<MazePath, MazeError> {
    route_maze_with(grid, net, from, to, opts, &mut MazeScratch::new())
}

/// [`route_maze`] on a caller-owned [`MazeScratch`], reused across
/// calls.
///
/// # Errors
///
/// See [`MazeError`].
pub fn route_maze_with(
    grid: &mut GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
    scratch: &mut MazeScratch,
) -> Result<MazePath, MazeError> {
    let src = grid.snap(from).ok_or(MazeError::OffGrid(from))?;
    let dst = grid.snap(to).ok_or(MazeError::OffGrid(to))?;
    let nv = grid.nv();
    let passable = |i: usize, j: usize, p: usize| match grid.state(plane(p), i, j) {
        CellState::Free => true,
        CellState::Used(n) => n == net,
        CellState::Blocked => false,
    };
    let h = |i: usize, j: usize| -> Coord {
        if opts.astar {
            grid.distance((i, j), dst)
        } else {
            0
        }
    };

    scratch.begin(nv * grid.nh() * 2);
    let mut start_ok = false;
    for p in 0..2 {
        if passable(src.0, src.1, p) {
            scratch.improve(pack(nv, src.0, src.1, p), u32::MAX, 0, h(src.0, src.1));
            start_ok = true;
        }
    }
    if !start_ok {
        return Err(MazeError::TerminalBlocked(from));
    }
    if !(0..2).any(|p| passable(dst.0, dst.1, p)) {
        return Err(MazeError::TerminalBlocked(to));
    }

    let mut expanded = 0usize;
    let mut goal: Option<u32> = None;
    while let Some(QueueEntry { cost, node, .. }) = scratch.heap.pop() {
        if cost > scratch.dist[node as usize] {
            continue;
        }
        expanded += 1;
        let (i, j, p) = unpack(nv, node);
        if (i, j) == dst {
            goal = Some(node);
            break;
        }
        for_each_move(grid, (i, j, p), opts.via_cost, |ni, nj, np, step| {
            if passable(ni, nj, np) {
                let nd = cost + step;
                scratch.improve(pack(nv, ni, nj, np), node, nd, nd + h(ni, nj));
            }
        });
    }

    let goal = goal.ok_or(MazeError::NoPath)?;
    let nodes = scratch.trace(nv, goal);
    let route = path_to_route(grid, &nodes);
    occupy_path(grid, net, &nodes);
    Ok(MazePath {
        route,
        cost: scratch.dist[goal as usize],
        expanded,
        nodes,
    })
}

/// A soft path: the cheapest route when other nets' wiring is passable
/// at a penalty, plus the nets that wiring belongs to.
///
/// Used by rip-up-and-reroute: when a net is hard-blocked, the soft
/// path names the cheapest set of victim nets to rip.
#[derive(Clone, Debug)]
pub struct SoftPath {
    /// Grid nodes of the path as `(i, j, plane)`.
    pub nodes: Vec<(usize, usize, Dir)>,
    /// Total cost including blocker penalties.
    pub cost: Coord,
    /// Distinct ids of other nets whose wiring the path crosses, in
    /// first-encounter order.
    pub blockers: Vec<u32>,
}

/// Finds the cheapest path from `from` to `to` treating cells used by
/// *other* nets as passable at `block_penalty` per cell (obstacles stay
/// impassable). Does **not** modify the grid.
///
/// # Errors
///
/// [`MazeError::OffGrid`] for off-grid terminals; [`MazeError::NoPath`]
/// when even ripping every net would not connect the terminals
/// (obstacles seal them apart).
pub fn find_soft_path(
    grid: &GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
    block_penalty: Coord,
) -> Result<SoftPath, MazeError> {
    find_soft_path_filtered(grid, net, from, to, opts, block_penalty, |_, _| true)
}

/// Like [`find_soft_path`], but only cells for which
/// `rippable(i, j)` returns `true` may be crossed at a penalty; other
/// nets' cells failing the filter stay impassable.
///
/// Rip-up-and-reroute uses this to exclude cells that ripping cannot
/// free (terminal reservations), so every named blocker is genuinely
/// removable.
///
/// # Errors
///
/// Same as [`find_soft_path`].
pub fn find_soft_path_filtered(
    grid: &GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
    block_penalty: Coord,
    rippable: impl Fn(usize, usize) -> bool,
) -> Result<SoftPath, MazeError> {
    find_soft_path_filtered_with(
        grid,
        net,
        from,
        to,
        opts,
        block_penalty,
        rippable,
        &mut MazeScratch::new(),
    )
}

/// [`find_soft_path_filtered`] on a caller-owned [`MazeScratch`], reused
/// across calls.
///
/// # Errors
///
/// Same as [`find_soft_path`].
#[allow(clippy::too_many_arguments)]
pub fn find_soft_path_filtered_with(
    grid: &GridModel,
    net: u32,
    from: Point,
    to: Point,
    opts: MazeOptions,
    block_penalty: Coord,
    rippable: impl Fn(usize, usize) -> bool,
    scratch: &mut MazeScratch,
) -> Result<SoftPath, MazeError> {
    let src = grid.snap(from).ok_or(MazeError::OffGrid(from))?;
    let dst = grid.snap(to).ok_or(MazeError::OffGrid(to))?;
    let nv = grid.nv();
    // Entry cost of a cell: None = impassable, Some(extra) otherwise.
    let entry = |i: usize, j: usize, p: usize| -> Option<Coord> {
        match grid.state(plane(p), i, j) {
            CellState::Free => Some(0),
            CellState::Used(n) if n == net => Some(0),
            CellState::Used(_) if rippable(i, j) => Some(block_penalty),
            CellState::Used(_) => None,
            CellState::Blocked => None,
        }
    };

    scratch.begin(nv * grid.nh() * 2);
    for p in 0..2 {
        if let Some(extra) = entry(src.0, src.1, p) {
            scratch.improve(pack(nv, src.0, src.1, p), u32::MAX, extra, extra);
        }
    }
    if scratch.heap.is_empty() {
        return Err(MazeError::TerminalBlocked(from));
    }

    let mut goal: Option<u32> = None;
    while let Some(QueueEntry { cost, node, .. }) = scratch.heap.pop() {
        if cost > scratch.dist[node as usize] {
            continue;
        }
        let (i, j, p) = unpack(nv, node);
        if (i, j) == dst {
            goal = Some(node);
            break;
        }
        for_each_move(grid, (i, j, p), opts.via_cost, |ni, nj, np, step| {
            if let Some(extra) = entry(ni, nj, np) {
                let nd = cost + step + extra;
                scratch.improve(pack(nv, ni, nj, np), node, nd, nd);
            }
        });
    }

    let goal = goal.ok_or(MazeError::NoPath)?;
    let nodes = scratch.trace(nv, goal);
    let mut blockers: Vec<u32> = Vec::new();
    for &(i, j, d) in &nodes {
        if let CellState::Used(n) = grid.state(d, i, j) {
            if n != net && !blockers.contains(&n) {
                blockers.push(n);
            }
        }
    }
    Ok(SoftPath {
        cost: scratch.dist[goal as usize],
        nodes,
        blockers,
    })
}

/// Converts a node path into wire segments and corner vias.
pub(crate) fn path_to_route(grid: &GridModel, nodes: &[(usize, usize, Dir)]) -> NetRoute {
    let mut route = NetRoute::new();
    if nodes.is_empty() {
        return route;
    }
    let layer_of = |d: Dir| match d {
        Dir::Horizontal => ocr_geom::Layer::Metal3,
        Dir::Vertical => ocr_geom::Layer::Metal4,
    };
    let mut run_start = 0usize;
    for k in 1..=nodes.len() {
        let end_run = k == nodes.len() || nodes[k].2 != nodes[run_start].2;
        if !end_run {
            continue;
        }
        let (i0, j0, d) = nodes[run_start];
        let (i1, j1, _) = nodes[k - 1];
        let a = grid.point(i0, j0);
        let b = grid.point(i1, j1);
        if a != b {
            route.segs.push(RouteSeg::new(a, b, layer_of(d)));
        }
        if k < nodes.len() {
            // Plane change: via at the junction point.
            let at = grid.point(nodes[k].0, nodes[k].1);
            route.vias.push(Via::new(
                at,
                ocr_geom::Layer::Metal3,
                ocr_geom::Layer::Metal4,
            ));
            run_start = k;
        }
    }
    route
}

/// Marks the path's cells as used by `net` on their respective planes.
pub(crate) fn occupy_path(grid: &mut GridModel, net: u32, nodes: &[(usize, usize, Dir)]) {
    for &(i, j, d) in nodes {
        grid.set_state(d, i, j, CellState::Used(net));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocr_geom::{Interval, Rect};
    use ocr_grid::TrackSet;

    fn grid(n: Coord, pitch: Coord) -> GridModel {
        GridModel::new(
            Rect::new(0, 0, n, n),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
            TrackSet::from_pitch(Interval::new(0, n), pitch),
        )
    }

    #[test]
    fn straight_line_costs_its_length() {
        let mut g = grid(100, 10);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 100);
        assert_eq!(p.route.vias.len(), 0);
    }

    #[test]
    fn l_path_has_one_via() {
        let mut g = grid(100, 10);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 0),
            Point::new(100, 100),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 200);
        assert_eq!(p.route.vias.len(), 1);
    }

    #[test]
    fn detours_around_obstacle() {
        let mut g = grid(100, 10);
        // Wall across the middle on both planes, with a hole at the top.
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 85), dir);
        }
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("routes");
        assert!(p.route.wire_length() > 100, "must detour");
        // Path must stay clear of blocked cells — re-route of same net
        // over its own path is fine, so just check wire length grew.
    }

    #[test]
    fn no_path_is_reported() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 105), dir);
        }
        let err = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, MazeError::NoPath);
    }

    #[test]
    fn astar_expands_no_more_than_dijkstra() {
        let mut g1 = grid(200, 10);
        let mut g2 = grid(200, 10);
        let lee = route_maze(
            &mut g1,
            1,
            Point::new(0, 0),
            Point::new(200, 200),
            MazeOptions::default(),
        )
        .expect("routes");
        let astar = route_maze(
            &mut g2,
            1,
            Point::new(0, 0),
            Point::new(200, 200),
            MazeOptions {
                astar: true,
                ..MazeOptions::default()
            },
        )
        .expect("routes");
        assert_eq!(lee.route.wire_length(), astar.route.wire_length());
        assert!(astar.expanded <= lee.expanded);
    }

    #[test]
    fn second_net_avoids_first() {
        let mut g = grid(100, 10);
        let first = route_maze(
            &mut g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("net 1");
        assert_eq!(first.route.wire_length(), 100);
        // Net 2 wants the same horizontal track: it must switch tracks.
        let second = route_maze(
            &mut g,
            2,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        );
        match second {
            Ok(p) => assert!(p.route.wire_length() > 100 || !p.route.vias.is_empty()),
            Err(e) => panic!("net 2 should still route: {e}"),
        }
    }

    #[test]
    fn own_wiring_is_reusable() {
        let mut g = grid(100, 10);
        route_maze(
            &mut g,
            7,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .expect("first pass");
        // Same net again across its own wire: allowed.
        let again = route_maze(
            &mut g,
            7,
            Point::new(0, 50),
            Point::new(50, 50),
            MazeOptions::default(),
        )
        .expect("reuse");
        assert_eq!(again.route.wire_length(), 50);
    }

    #[test]
    fn soft_path_names_the_blockers() {
        let mut g = grid(100, 10);
        // Net 5 owns three full columns on both planes — a wall of
        // wiring no other net can cross without paying its penalty.
        for i in 4..=6 {
            for j in 0..=10 {
                g.set_state(Dir::Horizontal, i, j, ocr_grid::CellState::Used(5));
                g.set_state(Dir::Vertical, i, j, ocr_grid::CellState::Used(5));
            }
        }
        // Hard search fails…
        let hard = route_maze(
            &mut g.clone(),
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        );
        assert_eq!(hard.unwrap_err(), MazeError::NoPath);
        // …but the soft search crosses net 5 and names it.
        let soft = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
            10_000,
        )
        .expect("soft path");
        assert_eq!(soft.blockers, vec![5]);
        assert!(soft.cost >= 10_000);
    }

    #[test]
    fn soft_path_prefers_free_routes_over_ripping() {
        let mut g = grid(100, 10);
        // Net 5 occupies the straight row, but a free detour exists.
        g.occupy_run(Dir::Horizontal, 5, 0, 10, 5);
        let soft = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
            10_000,
        )
        .expect("soft path");
        assert!(soft.blockers.is_empty(), "should detour instead of ripping");
    }

    #[test]
    fn soft_path_still_fails_through_obstacles() {
        let mut g = grid(100, 10);
        for dir in [Dir::Horizontal, Dir::Vertical] {
            g.block_rect(&Rect::new(45, -5, 55, 105), dir);
        }
        let err = find_soft_path(
            &g,
            1,
            Point::new(0, 50),
            Point::new(100, 50),
            MazeOptions::default(),
            10_000,
        )
        .unwrap_err();
        assert_eq!(err, MazeError::NoPath);
    }

    #[test]
    fn non_uniform_tracks_give_physical_lengths() {
        // Tracks at 0, 10, 50, 60: a run across the wide gap costs its
        // physical distance, not a unit step.
        let ts = TrackSet::from_offsets(vec![0, 10, 50, 60]);
        let mut g = GridModel::new(Rect::new(0, 0, 60, 60), ts.clone(), ts);
        let p = route_maze(
            &mut g,
            1,
            Point::new(0, 0),
            Point::new(60, 0),
            MazeOptions::default(),
        )
        .expect("routes");
        assert_eq!(p.route.wire_length(), 60);
        assert_eq!(p.cost, 60);
    }

    #[test]
    fn off_grid_terminal_errors() {
        let mut g = grid(100, 10);
        let err = route_maze(
            &mut g,
            1,
            Point::new(3, 50),
            Point::new(100, 50),
            MazeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MazeError::OffGrid(_)));
    }
}
