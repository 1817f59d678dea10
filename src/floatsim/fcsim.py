"""Floating-content epidemic engine.

Simulates opportunistic replication, caching, and interval-boundary seeding
of one content item over a fixed trajectory set, and measures every
per-(link, interval) quantity the cost function and the success ratio need.

Event randomness is keyed by stable identifiers (track id, pair ids, tick),
so runs of different schemes over the same inputs and seed share per-event
draws.  In instantaneous mode this makes the holder set monotone in the
scheme: raising any of (a, b, s) anywhere can only enlarge it, never shrink
it.  For the interval-boundary seeding clamp to preserve that set ordering,
the post-boundary holder set of a link must not depend on who held content
before the clamp; it is therefore the target number of nodes with the best
keyed per-(node, tick) priorities, with upward adjustments billed as
infrastructure seeding and downward adjustments free.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .mobility import ContactTable, TrajectorySet, interval_of_tick, interval_ticks
from .roadnet import RoadGrid
from .scheme import FcScheme, check_settings, safe_ratio, zoi_alpha


class ShapeError(ValueError):
    pass


class ChannelRangeError(ValueError):
    pass


class UndefinedRatioError(ZeroDivisionError):
    """ZOI had no nodes in the interval: the success ratio is undefined."""


class LedgerImbalanceError(AssertionError):
    """Debug-mode content bookkeeping failed to balance on some tick."""


@dataclass
class ChannelModel:
    """Abstract distance-dependent channel with Shannon-capacity transfers."""
    bandwidth_hz: float
    edge_sinr_db: float
    path_loss_exp: float
    radius_m: float
    mode: str = "capacity"          # "capacity" | "instantaneous"
    sinr_cap_db: float = 30.0
    content_bits: float | None = None   # required for capacity-mode runs

    def __post_init__(self):
        numbers = ("bandwidth_hz", "edge_sinr_db", "path_loss_exp", "radius_m", "sinr_cap_db")
        check_settings([(math.isfinite(getattr(self, name)),
                         f"{name} must be a finite number, not {getattr(self, name)}")
                        for name in numbers] + [
            (self.bandwidth_hz > 0, "bandwidth_hz must be positive"),
            (self.path_loss_exp >= 2, "path_loss_exp must be >= 2"),
            (0 < self.radius_m < math.inf,
             f"radius_m must be positive and finite, not {self.radius_m}"),
            (self.content_bits is None or 0 < self.content_bits < math.inf,
             f"content_bits must be positive and finite, not {self.content_bits}"),
            (self.mode in ("capacity", "instantaneous"), f"mode {self.mode!r} unknown")])
        self.edge_sinr = _linear(self.edge_sinr_db)
        self.sinr_cap = _linear(self.sinr_cap_db)
        check_settings([
            (0 < self.edge_sinr < math.inf, "edge_sinr_db must give a positive finite SINR"),
            (self.sinr_cap < math.inf, "sinr_cap_db must give a finite SINR")])


def _linear(db: float) -> float:
    """10^(db / 10), or inf past the float range (above about 3,082 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def capacity(ch: ChannelModel, d: float) -> float:
    """Shannon capacity in bit/s at transmitter-receiver distance d."""
    if d <= 0:
        raise ValueError(f"invalid distance {d}")
    if d > ch.radius_m:
        raise ChannelRangeError(f"distance {d} m exceeds radius {ch.radius_m} m")
    return _rate(ch, d)


# ticks between fills of a batch's per-track key tables: each fill hashes
# the tracks entering before the next, so the tables hold, beyond the most
# tracks present at once, a row for each track arriving in that many ticks
_FILL_TICKS = 32


def _trial(p, keys, cell, ids, tick) -> np.ndarray:
    """u < p for keyed draws u, drawn only where 0 < p < 1: u lies in [0, 1),
    so elsewhere the outcome does not depend on it.  Row r's key is the
    partial key keys[cell[r]], chained with ids[r] (unless ids is None) and
    the tick."""
    hit = p >= 1.0
    unsure = ((p > 0.0) ^ hit).nonzero()[0]
    if len(unsure):
        h = keys[cell[unsure]]
        if ids is not None:
            h = rng.chain(h, ids[unsure])
        hit[unsure] = rng.u01(rng.chain(h, tick)) < p[unsure]
    return hit


def _first(seen: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Mask of one row per distinct value of cell, through the work array
    `seen` (indexed by cell).  Every entry read here was written just
    before, so `seen` needs no reset between calls."""
    rows = np.arange(len(cell))
    seen[cell] = rows
    return seen[cell] == rows


def _rate(ch: ChannelModel, d: float) -> float:
    """Capacity tolerant of degenerate in-sim distances (0 or beyond radius)."""
    if d > ch.radius_m:
        return 0.0
    sinr = min(ch.edge_sinr * (ch.radius_m / max(d, 1e-9)) ** ch.path_loss_exp, ch.sinr_cap)
    return ch.bandwidth_hz * math.log2(1.0 + sinr)


@dataclass
class SimOutcome:
    """Measured per-(link, interval) quantities of one simulation run."""
    n: np.ndarray          # (L, T) time-averaged node count
    n_c: np.ndarray        # (L, T) time-averaged content-holder count
    gamma: np.ndarray      # (L, T, U) time-averaged transmitting count
    v: np.ndarray          # (L, T) availability at interval start, before seeding
    seeded: np.ndarray     # (L, T) nodes seeded up by the infrastructure
    dropped: np.ndarray    # (L, T) holder losses (entry, boundary-down, departure)
    d_t: np.ndarray        # (T,) interval durations, seconds
    tick: float
    seed: int
    zoi: tuple[int, ...] | None = None
    alpha: np.ndarray | None = None        # (T,) NaN where undefined
    holder_history: list[frozenset] | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.n.shape


def success_ratio(outcome: SimOutcome, zoi, t: int) -> float:
    """Fraction of ZOI nodes holding content during interval t (1-based)."""
    if t < 1 or t > outcome.shape[1]:
        raise IndexError(f"interval {t} out of range 1..{outcome.shape[1]}")
    alpha = zoi_alpha(outcome.n_c[:, t - 1], outcome.n[:, t - 1], zoi)
    if np.isnan(alpha):
        raise UndefinedRatioError(f"no nodes in ZOI during interval {t}")
    return float(alpha)


class SimContext:
    """Precompiled per-tick view of (trajectories, contacts) that many
    scheme runs share.  Immutable once built; run() has no side effects."""

    def __init__(self, grid: RoadGrid, traj: TrajectorySet,
                 contacts: ContactTable, channel: ChannelModel, d_t):
        self.grid = grid
        self.traj = traj
        self.contacts = contacts
        self.channel = channel
        self.d_t = np.asarray(d_t, dtype=float)
        self.tick = traj.tick
        self.L = grid.num_links
        self.T = len(self.d_t)
        self.ivl = interval_of_tick(self.d_t, traj.tick, traj.horizon)
        self.nt = interval_ticks(self.d_t, traj.tick)
        self.sim_ticks = int(self.nt.sum())
        boundaries = np.concatenate([[0], np.cumsum(self.nt)[:-1]])
        self.boundary_of_tick = np.full(self.sim_ticks, -1, dtype=np.int64)
        self.boundary_of_tick[boundaries] = np.arange(self.T)

        self.enter, self.exit, self.offset = traj.enter, traj.exit, traj.first
        self.sample_base = traj.sample_base
        self.sample_link = traj.link
        s_track, s_tick = traj.sample_index()

        # per-tick presence slices over samples sorted by tick
        order = np.argsort(s_tick, kind="stable")
        pt_tick = s_tick[order]
        self.pt_track = s_track[order]
        self.pt_link = self.sample_link[order]
        self.pt_bounds = np.searchsorted(pt_tick, np.arange(self.sim_ticks + 1))

        # node counts depend on presence alone, so every run shares one sum
        lo, hi = self.pt_bounds[0], self.pt_bounds[self.sim_ticks]
        cell = self.pt_link[lo:hi] * self.T + self.ivl[pt_tick[lo:hi]]
        self.n_sum = np.bincount(cell, minlength=self.L * self.T).reshape(
            self.L, self.T).astype(float)

        # per-tick movers: samples whose link differs from their track's
        # previous sample, the candidates of entry-keep trials
        prev_link = self.sample_link[np.maximum(order - 1, 0)]
        moved = (pt_tick > self.enter[self.pt_track]) & (prev_link != self.pt_link)
        self.mv_track = self.pt_track[moved]
        self.mv_link = self.pt_link[moved]
        self.mv_prev = prev_link[moved]
        self.mv_bounds = np.searchsorted(pt_tick[moved], np.arange(self.sim_ticks + 1))

        # departures: tracks by last tick, with the link they left from
        self.exit_track = np.argsort(self.exit, kind="stable")
        self.exit_bounds = np.searchsorted(self.exit[self.exit_track],
                                           np.arange(self.sim_ticks + 1))
        self.exit_link = self.sample_link[self.offset + (self.exit - self.enter)]

        # track slots: a batch's per-track tables take a row per (run, slot),
        # filled at ticks m * _FILL_TICKS for the tracks entering before the
        # next fill (see `_track_slots`): fill m takes the tracks
        # enter_track[enter_bounds[m]:enter_bounds[m + 1]]
        self.slot, self.n_slots = _track_slots(self.enter, self.exit, _FILL_TICKS)
        self.enter_track = np.argsort(self.enter, kind="stable")
        self.enter_bounds = np.concatenate([[0], np.searchsorted(
            self.enter[self.enter_track],
            np.arange(_FILL_TICKS, self.sim_ticks + _FILL_TICKS, _FILL_TICKS))])

        # contact events by start tick: the events that open at tick k are
        # ev_bounds[k]..ev_bounds[k+1]-1, and ct_bounds[k] counts the
        # contact-ticks before tick k (a difference array of +1 at each
        # event's start and -1 after its end, clipped to the simulated ticks)
        self.ev_start, self.ev_end = contacts.start, contacts.end
        self.ev_i, self.ev_j = contacts.i, contacts.j
        self.ev_bounds = np.searchsorted(self.ev_start, np.arange(self.sim_ticks + 1))
        live = self.ev_start < self.sim_ticks
        open_now = np.cumsum(
            np.bincount(self.ev_start[live], minlength=self.sim_ticks + 1)
            - np.bincount(np.minimum(self.ev_end[live] + 1, self.sim_ticks),
                          minlength=self.sim_ticks + 1))
        self.ct_bounds = np.concatenate([[0], np.cumsum(open_now[:-1])])

    # -- vectorized random access ---------------------------------------------
    def present_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.pt_bounds[k], self.pt_bounds[k + 1]
        return self.pt_track[lo:hi], self.pt_link[lo:hi]

    def open_events(self):
        """The contact events open at each simulated tick, in ascending order.

        One running list: at tick k it drops the events that ended before k
        and appends those that start at k, which come after every earlier
        one because events are sorted by start."""
        end, bounds = self.ev_end, self.ev_bounds.tolist()
        ids = np.arange(len(end))
        events = ids[:0]
        for k in range(self.sim_ticks):
            events = np.concatenate((events[end[events] >= k], ids[bounds[k]:bounds[k + 1]]))
            yield events

    # ---------------------------------------------------------------------------
    def run(self, scheme: FcScheme, zoi=None, seed: int = 0,
            record_holders: bool = False, v_first=None,
            debug_ledger: bool = False) -> SimOutcome:
        return self.run_many([scheme], [seed], zoi=zoi, v_first=v_first,
                             record_holders=record_holders, debug_ledger=debug_ledger)[0]

    def run_many(self, schemes, seeds, zoi=None, v_first=None,
                 record_holders: bool = False, debug_ledger: bool = False) -> list[SimOutcome]:
        """Run schemes[r] with seeds[r] for every r, all R runs in lockstep.

        Outcome r is bit-identical to a lone run of (schemes[r], seeds[r]):
        draws are keyed per run, the runs share only the presence and
        contact slices of each tick, and every sum counts whole units.

        A call hashes the heads its draws share once per (run, track) (see
        `_Batch`), so a draw hashes only its remaining ids and the tick.
        Holder counts per (run, link) are kept running: updated at
        departures, entry-keep moves and drops, and gains, recounted after
        the seeding clamp, and summed as the per-tick measurement.  In
        capacity mode one transfer table holds the multi-tick transfers of
        every run.  With debug_ledger, each tick checks every run's holder
        count against its gains and losses, the running counts against a
        recount, and the transfer table against its invariants; a failure
        raises LedgerImbalanceError.
        """
        schemes, seeds = list(schemes), list(seeds)
        if len(schemes) != len(seeds):
            raise ValueError(f"{len(schemes)} schemes but {len(seeds)} seeds")
        for scheme in schemes:
            if scheme.shape != (self.L, self.T):
                raise ShapeError(f"scheme shape {scheme.shape} does not match "
                                 f"grid/interval shape {(self.L, self.T)}")
        ch = self.channel
        instant = ch.mode == "instantaneous"
        if not instant and ch.content_bits is None:
            raise ValueError("capacity-mode runs need channel.content_bits")
        if not schemes:
            return []

        R, L, T = len(schemes), self.L, self.T
        n_tracks = self.traj.num_tracks
        S = np.stack([sc.s for sc in schemes])
        bt = _Batch.build(schemes, seeds, self.n_slots, n_tracks, capacity=not instant)
        holds = np.zeros((n_tracks, R), dtype=bool)   # holds[track, run]: holder at tick k
        counts = np.zeros((R, L), dtype=np.int64)   # holders per (run, link) at tick k
        # per-interval tables, interval first: a tick adds to one contiguous
        # (R, L) block, which the steps update through flat views
        nc_sum = np.zeros((T, R, L))
        gamma_sum = np.zeros((T, R, L))
        seeded = np.zeros((T, R, L), dtype=np.int64)
        dropped = np.zeros((T, R, L), dtype=np.int64)
        v = np.zeros((T, R, L))
        if v_first is not None:
            v[0] = np.asarray(v_first, dtype=float)
        history = [[] for _ in range(R)] if record_holders else None
        expected = np.zeros(R, dtype=np.int64)
        xfer = _Transfers.empty()       # multi-tick transfers of every run
        ivl, boundary_of_tick = self.ivl.tolist(), self.boundary_of_tick.tolist()
        pt_bounds, mv_bounds, exit_bounds = (
            b.tolist() for b in (self.pt_bounds, self.mv_bounds, self.exit_bounds))

        for k, events in enumerate(self.open_events()):
            t = ivl[k]
            tids = self.pt_track[pt_bounds[k]:pt_bounds[k + 1]]
            links = self.pt_link[pt_bounds[k]:pt_bounds[k + 1]]
            bt.link[tids] = links
            if k % _FILL_TICKS == 0:
                m = k // _FILL_TICKS
                bt.enter(self.enter_track[self.enter_bounds[m]:self.enter_bounds[m + 1]],
                         self.slot)
            # holder gains minus losses of every run, kept for the ledger only
            delta = np.zeros(R, dtype=np.int64) if debug_ledger else None

            # departures: holders whose track ended at k-1 lose the content
            if k > 0 and exit_bounds[k] > exit_bounds[k - 1]:
                gone = self.exit_track[exit_bounds[k - 1]:exit_bounds[k]]
                col, run = holds.take(gone, axis=0).nonzero()
                if len(run):
                    lost = self._count(run * L + self.exit_link[gone[col]], R)
                    dropped[t] += lost
                    counts -= lost
                    if debug_ledger:
                        delta -= np.bincount(run, minlength=R)
                    holds[gone] = False

            boundary_t = boundary_of_tick[k]
            if boundary_t >= 0:
                if boundary_t > 0:
                    prev = boundary_t - 1
                    v[boundary_t] = safe_ratio(nc_sum[prev], self.n_sum[:, prev], 0.0)
                # the clamp owns boundary ticks: no entry-keep trials here
                if len(tids):
                    self._seed_clamp(holds, counts, tids, links, S[:, :, t], k,
                                     bt.prefix[rng.KIND_SEED_PRIORITY],
                                     seeded[t], dropped[t], delta)
            elif mv_bounds[k + 1] > mv_bounds[k]:
                # entry-keep trials for holders that changed link this tick
                lo, hi = mv_bounds[k], mv_bounds[k + 1]
                movers = self.mv_track[lo:hi]
                col, run = holds.take(movers, axis=0).nonzero()
                if len(run):
                    movers = movers[col]
                    base = run * L
                    cell = base + self.mv_link[lo:hi][col]
                    np.subtract.at(counts.reshape(-1), base + self.mv_prev[lo:hi][col], 1)
                    keep = _trial(bt.b[t][cell], bt.keys[rng.KIND_ENTRY_KEEP],
                                  run * self.n_slots + self.slot[movers], None, k)
                    np.add.at(counts.reshape(-1), cell[keep], 1)
                    drop = (~keep).nonzero()[0]
                    if len(drop):
                        run = run[drop]
                        np.add.at(dropped[t].reshape(-1), cell[drop], 1)
                        holds[movers[drop], run] = False
                        if debug_ledger:
                            delta -= np.bincount(run, minlength=R)

            # transfers whose receiver left, or made moot by a departure, the
            # clamp or an entry drop, are aborted
            if len(xfer):
                xfer = xfer.keep(holds[xfer.snd, xfer.run] & ~holds[xfer.rcv, xfer.run]
                                 & (self.exit[xfer.rcv] >= k))

            # measurement: the per-tick state is the one after the clamp
            nc_sum[t] += counts
            if record_holders:
                for r in range(R):
                    history[r].append(frozenset(holds[:, r].nonzero()[0].tolist()))

            if instant:
                if len(events):
                    self._step_instant(events, holds, counts, bt, t, k, gamma_sum[t], delta)
            else:
                before = holds.copy() if debug_ledger else None
                xfer = self._step_capacity(xfer, events, holds, counts, bt, t, k,
                                           gamma_sum[t], delta)
                if debug_ledger:
                    self._check_transfers(xfer, holds, before, k)

            if debug_ledger:
                expected += delta
                count = holds.sum(axis=0)
                bad = (count != expected).nonzero()[0]
                if len(bad):
                    r = int(bad[0])
                    raise LedgerImbalanceError(
                        f"tick {k}, run {r}: holder count {int(count[r])} != "
                        f"expected {int(expected[r])}")
                self._check_counts(holds, counts, tids, links, k)

        # back to (run, link, interval), C order, as every outcome array is
        nc_sum, gamma_sum, seeded, dropped, v = (
            np.ascontiguousarray(x.transpose(1, 2, 0))
            for x in (nc_sum, gamma_sum, seeded, dropped, v))
        nt = self.nt.astype(float)
        outs = []
        for r in range(R):
            out = SimOutcome(
                n=self.n_sum / nt[None, :], n_c=nc_sum[r] / nt[None, :],
                gamma=gamma_sum[r][:, :, None] / nt[None, :, None], v=v[r],
                seeded=seeded[r], dropped=dropped[r], d_t=self.d_t.copy(),
                tick=self.tick, seed=seeds[r],
                zoi=tuple(sorted(zoi)) if zoi is not None else None,
                holder_history=history[r] if record_holders else None)
            if zoi is not None:
                out.alpha = zoi_alpha(nc_sum[r], self.n_sum, zoi)
            outs.append(out)
        return outs

    # ---------------------------------------------------------------------------
    def _count(self, cell: np.ndarray, R: int) -> np.ndarray:
        """(R, L) number of rows per (run, link) cell run * L + link: integer
        counts, so float sums built from them stay exact."""
        return np.bincount(cell, minlength=R * self.L).reshape(R, self.L)

    def _check_counts(self, holds, counts, tids, links, k: int) -> None:
        """Debug check of the running (run, link) holder counts against a
        recount of the holders present at tick k."""
        col, run = holds.take(tids, axis=0).nonzero()
        recount = self._count(run * self.L + links[col], holds.shape[1])
        bad = np.argwhere(recount != counts)
        if len(bad):
            r, link = (int(x) for x in bad[0])
            raise LedgerImbalanceError(
                f"tick {k}, run {r}: link {link} has {int(recount[r, link])} holders, "
                f"running count {int(counts[r, link])}")

    def _seed_clamp(self, holds, counts, tids, links, s_t, k, prefix, seeded_t, dropped_t,
                    delta):
        """Set each (run, link) holder count to round(s*n); recounts `counts`
        and adds the net change of every run's holder count to `delta`
        (unless None)."""
        (_, R), n, L = holds.shape, len(tids), self.L
        u = rng.keyed_u01_at(prefix[:, None], tids, 0, k).ravel()
        nodes = np.bincount(links, minlength=L)
        target = np.floor(s_t * nodes + 0.5).astype(np.int64)  # .5 rounds up
        old = holds.take(tids, axis=0).T
        # one sort for every run: (run, link) groups, best priority first
        key = (np.arange(R)[:, None] * L + links).ravel()
        order = np.lexsort((u, key))
        sorted_key = key[order]
        rank = np.arange(R * n) - np.searchsorted(sorted_key, sorted_key, side="left")
        new = np.empty(R * n, dtype=bool)
        new[order] = rank < target.ravel()[sorted_key]
        counts[:] = self._count(key[new], R)
        new = new.reshape(R, n)
        up = new & ~old
        down = old & ~new
        seeded_t += self._count(key[up.ravel()], R)
        dropped_t += self._count(key[down.ravel()], R)
        holds[tids] = new.T
        if delta is not None:
            delta += up.sum(axis=1) - down.sum(axis=1)

    def _step_instant(self, events, holds, counts, bt: "_Batch", t, k, gamma_t,
                      delta) -> None:
        """Simultaneous single-tick transfers across all eligible contacts of
        every run; adds each run's holder gain to `delta` (unless None).

        A row is a (run, event) with exactly one holder.  Its sender and
        receiver tracks are derived once, and with them their (run, link)
        cells run * L + link, which serve a, b, gamma and the gains, and
        their (run, slot) cells run * n_slots + slot[track], which index the
        batch's tables for keys and the dedupe of senders and receivers.
        One keyed draw covers the send trials with 0 < a < 1 and the
        receive-keep trials with 0 < b < 1 of rows that may send: the two
        kinds share the (i, j, tick) tail of their keys, whose head is the
        (run, slot) cell of track i."""
        i, j = self.ev_i[events], self.ev_j[events]
        hi = holds.take(i, axis=0)
        row = (hi ^ holds.take(j, axis=0)).reshape(-1).nonzero()[0]     # event * R + run
        if not len(row):
            return
        e, run = np.divmod(row, holds.shape[1])
        hi = hi.reshape(-1)[row]
        i, j = i[e], j[e]
        snd, rcv = np.where(hi, i, j), np.where(hi, j, i)
        base = run * self.L
        s_cell, r_cell = base + bt.link[snd], base + bt.link[rcv]
        a, b = bt.a[t][s_cell], bt.b[t][r_cell]
        tx, kept = a >= 1.0, b >= 1.0
        may_send = a > 0.0
        us = (may_send ^ tx).nonzero()[0]                    # 0 < a < 1
        ub = (may_send & ((b > 0.0) ^ kept)).nonzero()[0]    # a > 0 and 0 < b < 1
        slot_base = run * self.n_slots
        if len(us) or len(ub):
            i_cell = slot_base + self.slot[i]
            h = np.concatenate([bt.keys[rng.KIND_SEND][i_cell[us]],
                                bt.keys[rng.KIND_RECV_KEEP][i_cell[ub]]])
            u = rng.u01(rng.chain(rng.chain(h, np.concatenate([j[us], j[ub]])), k))
            tx[us] = u[:len(us)] < a[us]
            kept[ub] = u[len(us):] < b[ub]
        if not tx.any():
            return
        # a node sending on several contacts transmits once
        np.add.at(gamma_t.reshape(-1),
                  s_cell[tx][_first(bt.seen, (slot_base + self.slot[snd])[tx])], 1.0)
        got = (tx & kept).nonzero()[0]
        run, rcv = run[got], rcv[got]
        self._gain(holds, counts, bt.seen, run, rcv, run * self.n_slots + self.slot[rcv],
                   r_cell[got], delta)

    def _gain(self, holds, counts, seen, run, track, cell, link_cell, delta) -> None:
        """Make the receivers `track` of runs `run`, at (run, slot) cells
        `cell`, holders once each, and count them in `counts` at their
        (run, link) cells; adds each run's holder gain to `delta` (unless
        None).  Receivers hold nothing before."""
        R = holds.shape[1]
        first = _first(seen, cell)
        holds.reshape(-1)[track * R + run] = True
        np.add.at(counts.reshape(-1), link_cell[first], 1)
        if delta is not None:
            delta += np.bincount(run[first], minlength=R)

    def _receive(self, holds, counts, bt: "_Batch", run, i, j, receiver, t, k, delta) -> None:
        """Receive-keep trials of the finished transfers over contacts (i, j);
        a receiver that keeps any copy becomes a holder.  Receivers hold
        nothing before the trials.  Adds each run's holder gain to `delta`
        (unless None)."""
        r_cell = run * self.L + bt.link[receiver]
        slot_base = run * self.n_slots
        kept = _trial(bt.b[t][r_cell], bt.keys[rng.KIND_RECV_KEEP],
                      slot_base + self.slot[i], j, k)
        self._gain(holds, counts, bt.seen, run[kept], receiver[kept],
                   (slot_base + self.slot[receiver])[kept], r_cell[kept], delta)

    def _tick_bits(self, events: np.ndarray, k: int) -> np.ndarray:
        """Bits a transfer over each contact event moves in tick k: the
        scalar `_rate` times the tick, at the distance recomputed from
        positions, computed once per distinct distance of the call.  NumPy's
        vectorised power and log2 may differ from the scalar ones in the
        last bit."""
        dist = self.traj.distance(self.ev_i[events], self.ev_j[events], k).tolist()
        ch, tick = self.channel, self.tick
        bits = {d: _rate(ch, d) * tick for d in set(dist)}
        return np.array([bits[d] for d in dist], dtype=float)

    def _step_capacity(self, xfer: "_Transfers", events, holds, counts, bt: "_Batch", t, k,
                       gamma_t, delta) -> "_Transfers":
        """Capacity tick of every run: progress the multi-tick transfers, then
        start new ones (one per node).  Adds each run's holder gain to
        `delta` (unless None); returns the transfer table after the tick."""
        R = holds.shape[1]
        content_bits = self.channel.content_bits

        # progress: a transfer whose contact ended is lost, with no partial content
        xfer = xfer.keep(k <= self.ev_end[xfer.ev])
        run, snd = xfer.run, xfer.snd               # this tick's senders
        if len(xfer):
            xfer.bits += self._tick_bits(xfer.ev, k)
            done = xfer.bits >= content_bits
            if done.any():
                fin = xfer.keep(done)
                self._receive(holds, counts, bt, fin.run, self.ev_i[fin.ev],
                              self.ev_j[fin.ev], fin.rcv, t, k, delta)
                xfer = xfer.keep(~done)

        new = self._start_transfers(xfer, events, holds, bt, t, k) if len(events) \
            else None
        if new is not None:
            run, snd = np.concatenate([run, new.run]), np.concatenate([snd, new.snd])
            one = new.bits >= content_bits
            if one.any():
                fin = new.keep(one)
                self._receive(holds, counts, bt, fin.run, self.ev_i[fin.ev],
                              self.ev_j[fin.ev], fin.rcv, t, k, delta)
            if not one.all():
                xfer = xfer + new.keep(~one)
        # a sender transmits on the link it is on
        gamma_t += self._count(run * self.L + bt.link[snd], R)
        return xfer

    def _start_transfers(self, xfer, events, holds, bt: "_Batch", t, k) -> "_Transfers | None":
        """Send trials and partner picks on contacts between an idle holder
        and an idle non-holder; returns the picks as rows of a transfer table
        (bits: this tick's), or None.

        In each run, senders pick in ascending order, each uniformly among
        its receivers that no earlier multi-tick pick made busy; a pick that
        completes in one tick leaves its receiver free.  A sender's pick is
        final once no earlier open sender of its run shares a candidate
        receiver with it, so each round settles every such sender at once."""
        n_tracks = holds.shape[0]
        # per (run, track): 0 idle non-holder, 1 idle holder, 2 busy
        state = bt.state
        np.copyto(state, holds.T.view(np.int8))
        state[xfer.run, xfer.snd] = 2
        state[xfer.run, xfer.rcv] = 2
        i, j = self.ev_i[events], self.ev_j[events]
        si = state[:, i]
        run, e = np.nonzero(si + state[:, j] == 1)
        if not len(run):
            return None
        hi = si[run, e] == 1
        snd = np.where(hi, i[e], j[e])
        a = bt.a[t][run * self.L + bt.link[snd]]
        can = np.flatnonzero(a > 0.0)       # rows a send trial may pass
        if not len(can):
            return None
        run, e, snd, hi, a = run[can], e[can], snd[can], hi[can], a[can]
        ev, i, j = events[e], i[e], j[e]
        rcv = np.where(hi, j, i)
        # candidate rows by (run, sender, receiver); a group is one (run, sender)
        order = np.lexsort((rcv, snd, run))
        run, snd, rcv, ev, i, j, a = (x[order] for x in (run, snd, rcv, ev, i, j, a))
        head = np.ones(len(run), dtype=bool)
        head[1:] = (run[1:] != run[:-1]) | (snd[1:] != snd[:-1])
        group = np.cumsum(head) - 1
        # one draw for the send trials that chance decides and the partner
        # draws of senders with a choice (the first rows of groups of two or more)
        ok = a >= 1.0
        unsure = np.flatnonzero(~ok)
        choice = head.copy()
        choice[:-1] &= ~head[1:]
        choice[-1] = False
        choice = np.flatnonzero(choice)
        pick_u = np.zeros(int(group[-1]) + 1)
        if len(unsure) or len(choice):
            h = np.concatenate([
                rng.chain(bt.keys[rng.KIND_SEND][run[unsure] * self.n_slots
                                                 + self.slot[i[unsure]]], j[unsure]),
                rng.chain(rng.chain(bt.prefix[rng.KIND_PARTNER][run[choice]], snd[choice]),
                          0)])
            u = rng.u01(rng.chain(h, k))
            ok[unsure] = u[:len(unsure)] < a[unsure]
            pick_u[group[choice]] = u[len(unsure):]

        rows = np.flatnonzero(ok)
        if not len(rows):
            return None
        p, bits = self._pick_partners(rows, group, run * n_tracks + rcv, ev, pick_u, state, k)
        return _Transfers(run[p], snd[p], rcv[p], ev[p], bits[p])

    def _pick_partners(self, rows, group, cell, ev, pick_u, state, k):
        """Partner picks, in rounds of conflicts.  rows are the candidate
        rows of the senders that passed their send trial, ascending; a row's
        group is its (run, sender) and its cell its (run, receiver) in the
        flat `state`.  Marks the receivers of multi-tick picks busy; returns
        the picked rows, ascending, and per row the bits its pick moves this
        tick."""
        content_bits = self.channel.content_bits
        flat = state.reshape(-1)            # a view
        picked = np.zeros(len(group), dtype=bool)
        bits = np.zeros(len(group))
        while len(rows):
            g = group[rows]
            # rows sharing a receiver: all but the earliest sender's wait
            by_cell = np.argsort(cell[rows], kind="stable")
            c = cell[rows[by_cell]]
            later = by_cell[1:][c[1:] == c[:-1]]
            if len(later):
                wait = np.zeros(len(pick_u), dtype=bool)
                wait[g[later]] = True
                ready = ~wait[g]
                now, g, rows = rows[ready], g[ready], rows[~ready]
            else:
                now, rows = rows, rows[:0]
            rank = np.arange(len(now)) - np.searchsorted(g, g)
            n = np.bincount(g)[g]
            chosen = now[rank == np.minimum((pick_u[g] * n).astype(np.int64), n - 1)]
            picked[chosen] = True
            bits[chosen] = got = self._tick_bits(ev[chosen], k)
            flat[cell[chosen[got < content_bits]]] = 2      # multi-tick: receiver busy
            rows = rows[flat[cell[rows]] != 2]
        return np.flatnonzero(picked), bits

    def _check_transfers(self, xfer: "_Transfers", holds, before, k: int) -> None:
        """Debug checks of the transfer table after tick k: no track is in
        two transfers of a run; senders hold the content; receivers did not
        hold it before this tick's transfers (one that got it from a one-tick
        transfer this tick may also be the target of a new, moot, multi-tick
        one); both ends are present."""
        n_tracks = holds.shape[0]
        ends = np.concatenate([xfer.run * n_tracks + xfer.snd, xfer.run * n_tracks + xfer.rcv])
        run, track = np.divmod(ends, n_tracks)
        checks = [
            ("is in two transfers", np.bincount(ends)[ends] > 1),
            ("sends content it does not hold",
             np.concatenate([~holds[xfer.snd, xfer.run], np.zeros(len(xfer), dtype=bool)])),
            ("receives content it already held",
             np.concatenate([np.zeros(len(xfer), dtype=bool), before[xfer.rcv, xfer.run]])),
            ("is in a transfer but not present",
             (self.enter[track] > k) | (self.exit[track] < k)),
        ]
        for what, bad in checks:
            if bad.any():
                x = int(np.argmax(bad))
                raise LedgerImbalanceError(
                    f"tick {k}, run {int(run[x])}: track {int(track[x])} {what}")


def _track_slots(enter: np.ndarray, exit: np.ndarray, lead: int) -> tuple[np.ndarray, int]:
    """A slot per track and the number of slots, such that a track's slot is
    free from `lead` ticks before it enters until it exits: tracks whose
    ticks enter-lead..exit overlap hold distinct slots.  So a table filled
    every `lead` ticks with the tracks entering before the next fill
    overwrites no track still present.  In order of first tick, a track
    takes the slot of the earliest ended track if that one is free, else a
    new slot, which needs the fewest slots."""
    slot = np.empty(len(enter), dtype=np.int64)
    ends: list[tuple[int, int]] = []        # heap of (last tick, slot)
    first, last = (enter - lead).tolist(), exit.tolist()
    for t in np.argsort(enter, kind="stable").tolist():
        if ends and ends[0][0] < first[t]:
            free = ends[0][1]
            heapq.heapreplace(ends, (last[t], free))
        else:
            free = len(ends)
            heapq.heappush(ends, (last[t], free))
        slot[t] = free
    return slot, len(ends)


@dataclass
class _Batch:
    """What the ticks of one run_many call share besides its holder state:
    the key prefixes and partial draw keys of every run, the a and b planes
    in flat (run, link) layout, the link of every track present at the
    current tick, and work arrays.  Per-track tables have a row per
    (run, slot) cell run * n_slots + slot[track] (see `_track_slots`), so
    they grow with the tracks present at once, not with all tracks."""
    prefix: dict          # kind -> (R,) key prefix (seed, kind) of every run
    keys: dict            # kind -> (R * n_slots,) partial keys of the present tracks
    a: np.ndarray         # (T, R * L): a[t, run * L + link]
    b: np.ndarray         # (T, R * L)
    link: np.ndarray      # (n_tracks,) link of each track present at the current tick
    seen: np.ndarray      # (R * n_slots,) work array of `_first`
    state: np.ndarray | None    # (R, n_tracks) int8 work array of capacity steps

    # kinds drawn per contact row or per mover, every tick: worth a table
    PAIR_KINDS = (rng.KIND_SEND, rng.KIND_RECV_KEEP)      # (seed, kind, track)
    TRACK_KINDS = (rng.KIND_ENTRY_KEEP,)                  # (seed, kind, track, 0)

    @classmethod
    def build(cls, schemes, seeds, n_slots: int, n_tracks: int, capacity: bool) -> "_Batch":
        R = len(schemes)
        L, T = schemes[0].shape
        # every run's seed read as key_prefix reads a lone seed, then one
        # array hash per kind
        seeds = np.array([rng.as_u64(sd) for sd in seeds], dtype=np.uint64)
        prefix = {kind: rng.key_prefix(seeds, kind)
                  for kind in (rng.KIND_SEED_PRIORITY, rng.KIND_ENTRY_KEEP, rng.KIND_SEND,
                               rng.KIND_RECV_KEEP, rng.KIND_PARTNER)}
        keys = {kind: np.zeros(R * n_slots, dtype=np.uint64)
                for kind in cls.PAIR_KINDS + cls.TRACK_KINDS}

        def flat(planes):
            return np.ascontiguousarray(np.stack(planes).transpose(2, 0, 1)).reshape(T, R * L)

        return cls(prefix, keys, flat([sc.a for sc in schemes]), flat([sc.b for sc in schemes]),
                   np.zeros(n_tracks, dtype=np.int64), np.zeros(R * n_slots, dtype=np.intp),
                   np.zeros((R, n_tracks), dtype=np.int8) if capacity else None)

    def enter(self, tracks: np.ndarray, slot: np.ndarray) -> None:
        """Write the partial keys of arriving tracks into their slots' rows."""
        if len(tracks):
            for kind, table in self.keys.items():
                h = rng.chain(self.prefix[kind][:, None], tracks)
                table.reshape(len(h), -1)[:, slot[tracks]] = (
                    rng.chain(h, 0) if kind in self.TRACK_KINDS else h)


@dataclass
class _Transfers:
    """Multi-tick transfers of a batch of runs in start order, one row each:
    run, sender, receiver, contact event, and bits received so far."""
    run: np.ndarray
    snd: np.ndarray
    rcv: np.ndarray
    ev: np.ndarray
    bits: np.ndarray

    @classmethod
    def empty(cls) -> "_Transfers":
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, none, none, np.zeros(0))

    def __len__(self) -> int:
        return len(self.run)

    def keep(self, mask: np.ndarray) -> "_Transfers":
        """The rows where mask is set (the table itself if that is all)."""
        if mask.all():
            return self
        rows = np.flatnonzero(mask)
        return _Transfers(self.run[rows], self.snd[rows], self.rcv[rows], self.ev[rows],
                          self.bits[rows])

    def __add__(self, other: "_Transfers") -> "_Transfers":
        return _Transfers(*(np.concatenate([getattr(self, f), getattr(other, f)])
                            for f in ("run", "snd", "rcv", "ev", "bits")))


def run_fc(traj: TrajectorySet, contacts: ContactTable, scheme: FcScheme,
           channel: ChannelModel, d_t, *, grid: RoadGrid, zoi=None, seed: int = 0,
           record_holders: bool = False, v_first=None, debug_ledger: bool = False) -> SimOutcome:
    """One-shot convenience wrapper around SimContext for single runs."""
    return SimContext(grid, traj, contacts, channel, d_t).run(
        scheme, zoi=zoi, seed=seed, record_holders=record_holders, v_first=v_first,
        debug_ledger=debug_ledger)
