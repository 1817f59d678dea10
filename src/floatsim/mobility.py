"""Node mobility: synthetic Manhattan trajectories, trace ingestion,
pairwise contact detection, and per-link per-interval mobility features.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .rng import derive_seed
from .roadnet import DEFAULT_SNAP_M, RoadGrid, link_of_many

KMH = 1.0 / 3.6  # km/h expressed in m/s


class TraceParseError(ValueError):
    pass


class EmptyTraceError(ValueError):
    pass


class IntervalRangeError(ValueError):
    """Interval partition exceeds the trajectory horizon."""


@dataclass
class SpeedModel:
    """Node speed distribution in m/s: constant or uniform(low, high)."""
    kind: str                 # "constant" | "uniform"
    low: float
    high: float = 0.0

    @classmethod
    def constant(cls, v: float) -> "SpeedModel":
        return cls("constant", v)

    @classmethod
    def uniform(cls, low: float, high: float) -> "SpeedModel":
        return cls("uniform", low, high)

    def draw(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.low
        return float(rng.uniform(self.low, self.high))


@dataclass
class NodeTrack:
    """One contiguous presence episode of a node, sampled at every tick."""
    node: int
    enter_tick: int
    pos: np.ndarray      # (n, 2)
    speed: np.ndarray    # (n,)
    link: np.ndarray     # (n,) int


class TrajectorySet:
    """Node tracks over ticks 0..horizon-1, stored as columns.

    The tracks are concatenated once, track by track: track k has the
    samples first[k]..first[k] + exit[k] - enter[k] of the per-sample
    columns pos (S, 2), speed and link, at ticks enter[k]..exit[k].
    `tracks` holds NodeTrack views into those columns, so each sample is
    stored once; it is a tuple, because a set is built whole.
    """

    def __init__(self, tick: float, horizon: int, tracks=(), dropped_samples: int = 0):
        self.tick = tick
        self.horizon = horizon                    # number of ticks covered: ticks 0..horizon-1
        self.dropped_samples = dropped_samples    # off-grid samples discarded on ingestion
        tracks = list(tracks)
        lens = np.array([len(tr.pos) for tr in tracks], dtype=np.int64)
        self.enter = np.array([tr.enter_tick for tr in tracks], dtype=np.int64)
        self.exit = self.enter + lens - 1
        self.first = np.cumsum(lens) - lens
        self.pos = np.concatenate([tr.pos for tr in tracks] or [np.zeros((0, 2))], dtype=float)
        self.speed = np.concatenate([tr.speed for tr in tracks] or [np.zeros(0)], dtype=float)
        self.link = np.concatenate([tr.link for tr in tracks] or [np.zeros(0, np.int64)],
                                   dtype=np.int64)
        self.tracks = tuple(
            NodeTrack(tr.node, tr.enter_tick, self.pos[a:b], self.speed[a:b], self.link[a:b])
            for tr, a, b in zip(tracks, self.first.tolist(), (self.first + lens).tolist()))

    @property
    def num_tracks(self) -> int:
        return len(self.tracks)

    def sample_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The track and the tick of every sample, in column order."""
        lens = self.exit - self.enter + 1
        track = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        tick = np.arange(len(self.link), dtype=np.int64) + np.repeat(self.enter - self.first,
                                                                     lens)
        return track, tick


@dataclass(eq=False)
class ContactEvent:
    """Maximal run of ticks during which a track pair stays within range."""
    i: int               # track index, i < j
    j: int
    start: int           # tick (inclusive)
    end: int             # tick (inclusive)
    dist: np.ndarray     # (end - start + 1,) meters

    @property
    def num_ticks(self) -> int:
        return self.end - self.start + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactEvent):
            return NotImplemented
        return ((self.i, self.j, self.start, self.end)
                == (other.i, other.j, other.start, other.end)
                and np.array_equal(self.dist, other.dist))


class ContactTable(Sequence):
    """Contact episodes as columns, sorted by (start, i, j).

    Row e is the episode of track pair (i[e], j[e]), i < j, over ticks
    start[e]..end[e]; its per-tick distances are
    dist[off[e]:off[e] + end[e] - start[e] + 1].  Indexing and iteration give
    ContactEvent row views, and a table equals any table or list holding the
    same events, so it stands in for a list of events.
    """

    def __init__(self, i, j, start, end, dist):
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.dist = np.asarray(dist, dtype=float)
        length = self.end - self.start + 1
        self.off = np.cumsum(length) - length
        if len(self.dist) != int(length.sum()):
            raise ValueError(f"{len(self.dist)} distances for {int(length.sum())} contact-ticks")

    @classmethod
    def empty(cls) -> "ContactTable":
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, none, none, np.zeros(0))

    @classmethod
    def of(cls, contacts) -> "ContactTable":
        """The table itself, or the table of a sequence of ContactEvents."""
        if isinstance(contacts, ContactTable):
            return contacts
        if not len(contacts):
            return cls.empty()
        return cls([e.i for e in contacts], [e.j for e in contacts],
                   [e.start for e in contacts], [e.end for e in contacts],
                   np.concatenate([e.dist for e in contacts]))

    @property
    def num_ticks(self) -> np.ndarray:
        return self.end - self.start + 1

    def contact_ticks(self) -> tuple[np.ndarray, np.ndarray]:
        """(event, tick) of every contact-tick, event by event; row r of the
        result has distance dist[r]."""
        length = self.num_ticks
        event = np.repeat(np.arange(len(self), dtype=np.int64), length)
        tick = np.arange(len(self.dist), dtype=np.int64) + np.repeat(self.start - self.off,
                                                                     length)
        return event, tick

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, e) -> ContactEvent:
        if not isinstance(e, (int, np.integer)):
            raise TypeError(f"contact table index must be an integer, not {type(e).__name__}")
        if not -len(self) <= e < len(self):
            raise IndexError(f"event {e} out of range for {len(self)} events")
        e = int(e) % len(self)
        start, end, lo = int(self.start[e]), int(self.end[e]), int(self.off[e])
        return ContactEvent(int(self.i[e]), int(self.j[e]), start, end,
                            self.dist[lo:lo + end - start + 1])

    def __iter__(self):
        dist = self.dist
        for i, j, s, e, lo in zip(self.i.tolist(), self.j.tolist(), self.start.tolist(),
                                  self.end.tolist(), self.off.tolist()):
            yield ContactEvent(i, j, s, e, dist[lo:lo + e - s + 1])

    def __eq__(self, other) -> bool:
        if isinstance(other, ContactTable):
            return all(np.array_equal(getattr(self, c), getattr(other, c))
                       for c in ("i", "j", "start", "end", "dist"))
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ContactTable({len(self)} events, {len(self.dist)} contact-ticks)"


@dataclass
class MobilityFeatures:
    """Per-(link, interval) aggregates: mean node count, mean concurrent
    contacts per node, mean contact duration, mean speed."""
    n: np.ndarray        # (L, T)
    lam: np.ndarray      # (L, T)
    tau: np.ndarray      # (L, T) seconds
    nu: np.ndarray       # (L, T) m/s
    empty: np.ndarray    # (L, T) bool: no node sample in the cell
    d_t: np.ndarray      # (T,) interval durations, seconds

    @property
    def shape(self) -> tuple[int, int]:
        return self.n.shape


def interval_ticks(d_t, tick: float) -> np.ndarray:
    """Number of ticks in each interval; durations must be tick multiples."""
    d_t = np.asarray(d_t, dtype=float)
    if np.any(d_t <= 0):
        raise ValueError("interval durations must be positive")
    nt = np.rint(d_t / tick).astype(int)
    if not np.allclose(nt * tick, d_t, rtol=0, atol=1e-9):
        raise ValueError("interval durations must be whole multiples of the tick")
    return nt


def interval_of_tick(d_t, tick: float, horizon: int) -> np.ndarray:
    """Map tick index -> interval index (-1 beyond the partition)."""
    nt = interval_ticks(d_t, tick)
    total = int(nt.sum())
    if total > horizon:
        raise IntervalRangeError(
            f"interval partition covers {total} ticks but trajectory has {horizon}")
    out = np.full(horizon, -1, dtype=np.int64)
    pos = 0
    for t, n in enumerate(nt):
        out[pos:pos + n] = t
        pos += n
    return out


# ---------------------------------------------------------------------------
# synthetic Manhattan mobility
# ---------------------------------------------------------------------------

def _route_table(grid: RoadGrid) -> tuple[dict, list[int]]:
    """What `_walk_route` needs at each link endpoint, found once per grid.

    Endpoint e of link l is 0 for p1 and 1 for p2.  hops[(l, e)], for an
    endpoint on an intersection (the nearest one, within 1e-9 m), lists the
    links a vehicle arriving there over l may take next, in adjacency order,
    with the far endpoint of each; a border endpoint has no entry.  inner[l]
    is the endpoint of link l that a vehicle entering over it drives to.
    """
    inter = grid.intersections
    hops: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    inner = [1] * grid.num_links
    if not len(inter):
        return hops, inner
    for ln in grid.links:
        for e, here in enumerate((ln.p1, ln.p2)):
            dist = np.linalg.norm(inter - np.array(here), axis=1)
            if e == 0 and np.min(dist) < 1e-9:
                inner[ln.id] = 0
            k = int(np.argmin(dist))
            if np.linalg.norm(inter[k] - np.array(here)) > 1e-9:
                continue
            options = [lid for lid in grid.adjacency[k] if lid != ln.id] or [ln.id]
            hops[(ln.id, e)] = (options, [1 if np.allclose(grid.links[lid].p1, here) else 0
                                          for lid in options])
    return hops, inner


def _walk_route(grid: RoadGrid, stub_id: int, rng: np.random.Generator,
                max_hops: int = 10_000, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Random walk from a border stub to any border exit.

    Returns the route as polyline vertices (k, 2) plus the link id of each
    segment.  At each interior intersection the next link is drawn uniformly
    among the incident links other than the one just travelled (straight,
    right or left); the incoming link is reused only at a dead end.  `table`
    is the grid's `_route_table`, built here if not given.
    """
    hops, inner = table if table is not None else _route_table(grid)
    stub = grid.links[stub_id]
    e = inner[stub_id]
    points = [(stub.p1, stub.p2)[1 - e], (stub.p1, stub.p2)[e]]
    seg_links = [stub_id]
    cur = stub_id
    for _ in range(max_hops):
        step = hops.get((cur, e))
        if step is None:
            break  # reached a border point: exit
        options, far = step
        c = int(rng.integers(len(options)))
        cur, e = options[c], far[c]
        ln = grid.links[cur]
        points.append(ln.p2 if e else ln.p1)
        seg_links.append(cur)
    return np.array(points, dtype=float), np.array(seg_links, dtype=np.int64)


def simulate_manhattan(grid: RoadGrid, arrival_rate: float, speed_model: SpeedModel,
                       duration: float, seed: int, tick: float = 1.0,
                       warmup_s: float = 0.0) -> TrajectorySet:
    """Poisson arrivals at every border stub, random-turn walks along link
    center lines, exit at the border.  Deterministic given the seed.

    With warmup_s > 0, arrivals start warmup_s seconds before tick 0 and the
    warm-up ticks are discarded, so tick 0 sees steady-state occupancy.
    """
    if arrival_rate < 0:
        raise ValueError("arrival_rate must be >= 0")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if warmup_s < 0:
        raise ValueError("warmup must be >= 0")

    horizon = int(round(duration / tick))
    w_ticks = int(round(warmup_s / tick))
    window = warmup_s + duration
    stubs = [ln.id for ln in grid.links if ln.is_border_stub]
    arrivals: list[tuple[float, int]] = []
    for sid in stubs:
        rng = np.random.default_rng(derive_seed(seed, 101, sid))
        t = 0.0
        if arrival_rate > 0:
            while True:
                t += rng.exponential(1.0 / arrival_rate)
                if t >= window:
                    break
                arrivals.append((t, sid))
    arrivals.sort()

    tracks = []
    table = _route_table(grid)
    for node_id, (t0, sid) in enumerate(arrivals):
        rng = np.random.default_rng(derive_seed(seed, 202, node_id))
        speed = speed_model.draw(rng)
        points, seg_links = _walk_route(grid, sid, rng, table=table)
        seg_len = np.linalg.norm(np.diff(points, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        total = cum[-1]
        t_exit = t0 + total / speed
        k0 = max(math.ceil(t0 / tick - 1e-9), w_ticks)
        k1 = min(math.floor(t_exit / tick + 1e-9), w_ticks + horizon - 1)
        if k1 < k0:
            continue
        ticks = np.arange(k0, k1 + 1)
        dist = np.minimum((ticks * tick - t0) * speed, total)
        seg = np.minimum(np.searchsorted(cum, dist, side="right") - 1, len(seg_len) - 1)
        frac = (dist - cum[seg]) / seg_len[seg]
        pos = points[seg] + frac[:, None] * (points[seg + 1] - points[seg])
        tracks.append(NodeTrack(
            node=node_id, enter_tick=int(k0) - w_ticks, pos=pos,
            speed=np.full(len(ticks), speed), link=seg_links[seg]))
    return TrajectorySet(tick=tick, horizon=horizon, tracks=tracks)


# ---------------------------------------------------------------------------
# trace ingestion
# ---------------------------------------------------------------------------

def load_traces(path, grid: RoadGrid, tick: float = 1.0,
                eps_snap: float = DEFAULT_SNAP_M) -> TrajectorySet:
    """Load a `t,node_id,x,y[,speed]` CSV, resample every node to the tick
    grid by linear interpolation and snap samples to links.

    Samples farther than eps_snap from every link are dropped (counted in
    `dropped_samples`); a dropped sample splits the node's presence into
    separate episodes.
    """
    by_node: dict[int, list[tuple[float, float, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyTraceError(f"{path}: empty trace file")
        cols = [h.strip().lower() for h in header]
        if cols[:4] != ["t", "node_id", "x", "y"]:
            raise TraceParseError(f"{path}:1: header must start with t,node_id,x,y")
        has_speed = len(cols) > 4 and cols[4] == "speed"
        n_rows = 0
        for ln_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                t = float(row[0])
                node = int(row[1])
                x = float(row[2])
                y = float(row[3])
                sp = float(row[4]) if has_speed and len(row) > 4 and row[4] != "" else math.nan
            except (ValueError, IndexError) as exc:
                raise TraceParseError(f"{path}:{ln_no}: malformed row: {exc}") from exc
            samples = by_node.setdefault(node, [])
            if samples and t < samples[-1][0]:
                raise TraceParseError(f"{path}:{ln_no}: timestamps decrease for node {node}")
            samples.append((t, x, y, sp))
            n_rows += 1
    if n_rows == 0:
        raise EmptyTraceError(f"{path}: no data rows")

    t_max = max(s[-1][0] for s in by_node.values())
    horizon = int(math.floor(t_max / tick + 1e-9)) + 1
    tracks, dropped = [], 0
    for node in sorted(by_node):
        rows = by_node[node]
        ts = np.array([r[0] for r in rows])
        xs = np.array([r[1] for r in rows])
        ys = np.array([r[2] for r in rows])
        sp = np.array([r[3] for r in rows])
        k0 = math.ceil(ts[0] / tick - 1e-9)
        k1 = math.floor(ts[-1] / tick + 1e-9)
        if k1 < k0:
            continue
        ticks = np.arange(k0, k1 + 1)
        tgrid = ticks * tick
        x = np.interp(tgrid, ts, xs)
        y = np.interp(tgrid, ts, ys)
        if np.all(np.isnan(sp)):
            if len(tgrid) > 1:
                v = np.hypot(np.gradient(x, tgrid), np.gradient(y, tgrid))
            else:
                v = np.zeros(1)
        else:
            v = np.interp(tgrid, ts[~np.isnan(sp)], sp[~np.isnan(sp)])
        pos = np.stack([x, y], axis=1)
        links = link_of_many(grid, pos, eps_snap)
        on = links >= 0
        dropped += int((~on).sum())
        # split into contiguous on-grid episodes
        idx = np.nonzero(on)[0]
        if idx.size == 0:
            continue
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        for chunk in np.split(idx, breaks + 1):
            tracks.append(NodeTrack(
                node=node, enter_tick=int(ticks[chunk[0]]),
                pos=pos[chunk], speed=v[chunk], link=links[chunk]))
    return TrajectorySet(tick=tick, horizon=horizon, tracks=tracks, dropped_samples=dropped)


# ---------------------------------------------------------------------------
# contacts
# ---------------------------------------------------------------------------

# candidate pairs screened at once: bounds the temporary memory of a sweep
_SWEEP_BLOCK = 1 << 16


def detect_contacts(traj: TrajectorySet, r: float) -> ContactTable:
    """All maximal in-range episodes between unordered track pairs.

    A sweep over x: per tick, samples sorted by x are paired with the
    following samples less than about r farther along x; the pair is in
    range when sqrt(dx*dx + dy*dy) <= r.  The in-range (pair, tick) rows
    are then run-length encoded into episodes.  Ticks outside
    0..horizon-1 are ignored.
    """
    if r <= 0:
        raise ValueError("contact radius must be positive")
    track, tick = traj.sample_index()
    inside = (tick >= 0) & (tick < traj.horizon)
    track, tick, x, y = track[inside], tick[inside], traj.pos[inside, 0], traj.pos[inside, 1]
    order = np.lexsort((x, tick))
    track, tick, x, y = track[order], tick[order], x[order], y[order]

    # reach[p]: end of the x window of sample p within its tick.  The slack
    # keeps every pair whose rounded distance is <= r inside the window;
    # the distance test alone decides.
    n = len(x)
    bounds = np.searchsorted(tick, np.arange(traj.horizon + 1))
    limit = x + (r + 1e-9 * (r + (float(np.abs(x).max()) if n else 0.0)))
    reach = np.empty(n, dtype=np.int64)
    for k in range(traj.horizon):
        lo, hi = bounds[k], bounds[k + 1]
        reach[lo:hi] = lo + np.searchsorted(x[lo:hi], limit[lo:hi], side="right")
    fan = reach - np.arange(n) - 1               # partners after p in its window
    cum = np.concatenate([[0], np.cumsum(fan)])

    # one int64 key per in-range (pair, tick): (i * N + j) * (horizon + 1) + tick,
    # so sorting the keys sorts by (i, j, tick) and a key one above its
    # predecessor continues the same episode
    n_tracks, stride = traj.num_tracks, traj.horizon + 1
    if n_tracks * n_tracks * stride >= 2 ** 63:
        raise ValueError(f"{n_tracks} tracks over {traj.horizon} ticks overflow the pair key")
    keys, dists = [], []
    a = 0
    while a < n:
        b = max(int(np.searchsorted(cum, cum[a] + _SWEEP_BLOCK, side="right")) - 1, a + 1)
        p = np.repeat(np.arange(a, b), fan[a:b])
        q = p + 1 + np.arange(len(p)) - np.repeat(cum[a:b] - cum[a], fan[a:b])
        dx = x[q] - x[p]
        dy = y[q] - y[p]
        d = np.sqrt(dx * dx + dy * dy)
        hit = d <= r
        p, q = p[hit], q[hit]
        ti, tj = track[p], track[q]
        keys.append((np.minimum(ti, tj) * n_tracks + np.maximum(ti, tj)) * stride + tick[p])
        dists.append(d[hit])
        a = b
    key = np.concatenate(keys) if keys else np.zeros(0, np.int64)
    if not len(key):
        return ContactTable.empty()
    dist = np.concatenate(dists)
    del keys, dists
    order = np.argsort(key)
    key, dist = key[order], dist[order]
    del order

    head = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1] + 1]))
    tail = np.concatenate([head[1:], [len(key)]]) - 1
    pair, start = np.divmod(key[head], stride)
    ev = np.lexsort((pair, start))                      # by (start, i, j)
    head, tail, pair, start = head[ev], tail[ev], pair[ev], start[ev]
    length = tail - head + 1
    dist = dist[np.arange(len(key)) + np.repeat(head - (np.cumsum(length) - length), length)]
    i, j = np.divmod(pair, n_tracks)
    return ContactTable(i, j, start, start + length - 1, dist)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def mobility_features(traj: TrajectorySet, contacts: ContactTable | list[ContactEvent],
                      grid: RoadGrid, d_t) -> MobilityFeatures:
    """Table-1 style aggregates per (link, interval).

    n: time-averaged node count; nu: mean sampled speed; lam: mean number of
    concurrent contacts over node samples; tau: mean duration of contacts
    attributed to the link where each endpoint sits at contact start.
    """
    contacts = ContactTable.of(contacts)
    L = grid.num_links
    ivl = interval_of_tick(d_t, traj.tick, traj.horizon)
    T = int(ivl.max()) + 1 if ivl.size else 0
    nt = interval_ticks(d_t, traj.tick)

    count = np.zeros((L, T))
    speed_sum = np.zeros((L, T))
    lam_sum = np.zeros((L, T))
    tau_sum = np.zeros((L, T))
    tau_cnt = np.zeros((L, T))

    _, tick = traj.sample_index()
    first, enter, link, speed = traj.first, traj.enter, traj.link, traj.speed

    # per-sample concurrent contact counts
    event, c_tick = contacts.contact_ticks()
    row_i = first[contacts.i[event]] + c_tick - enter[contacts.i[event]]
    row_j = first[contacts.j[event]] + c_tick - enter[contacts.j[event]]
    degree = (np.bincount(row_i, minlength=len(tick))
              + np.bincount(row_j, minlength=len(tick)))

    # np.add.at adds in index order, here sample by sample, track by track:
    # the float sums are those of a loop over tracks
    ok = (tick >= 0) & (tick < len(ivl))
    iv = np.where(ok, ivl[np.where(ok, tick, 0)], -1)
    keep = iv >= 0
    lk, iv = link[keep], iv[keep]
    np.add.at(count, (lk, iv), 1.0)
    np.add.at(speed_sum, (lk, iv), speed[keep])
    np.add.at(lam_sum, (lk, iv), degree[keep].astype(float))

    # each contact counts once at the link of each endpoint at its start,
    # event by event, i then j: the summation order of a loop over events
    s = contacts.start
    valid = s < len(ivl)
    valid[valid] = ivl[s[valid]] >= 0
    ends = np.stack([contacts.i[valid], contacts.j[valid]], axis=1).ravel()
    at = np.repeat(s[valid], 2)
    lk = link[first[ends] + at - enter[ends]]
    iv = ivl[at]
    np.add.at(tau_sum, (lk, iv), np.repeat(contacts.num_ticks[valid] * traj.tick, 2))
    np.add.at(tau_cnt, (lk, iv), 1.0)

    nonzero = count > 0
    n = count / nt[None, :]
    nu = np.where(nonzero, speed_sum / np.maximum(count, 1.0), 0.0)
    lam = np.where(nonzero, lam_sum / np.maximum(count, 1.0), 0.0)
    tau = np.where(tau_cnt > 0, tau_sum / np.maximum(tau_cnt, 1.0), 0.0)
    return MobilityFeatures(n=n, lam=lam, tau=tau, nu=nu, empty=~nonzero,
                            d_t=np.asarray(d_t, dtype=float))
