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

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .mobility import (ContactEvent, ContactTable, TrajectorySet, interval_of_tick,
                       interval_ticks, sample_index)
from .roadnet import RoadGrid
from .scheme import FcScheme


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
    tech_id: int = 0
    mode: str = "capacity"          # "capacity" | "instantaneous"
    sinr_cap_db: float = 30.0
    content_bits: float | None = None   # required for capacity-mode runs

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.path_loss_exp < 2:
            raise ValueError("path-loss exponent must be >= 2")
        if self.radius_m <= 0:
            raise ValueError("radius must be positive")
        if self.mode not in ("capacity", "instantaneous"):
            raise ValueError(f"unknown transfer mode {self.mode!r}")
        self.edge_sinr = 10.0 ** (self.edge_sinr_db / 10.0)
        self.sinr_cap = 10.0 ** (self.sinr_cap_db / 10.0)
        if self.edge_sinr <= 0:
            raise ValueError("edge SINR must be positive")


def capacity(ch: ChannelModel, d: float) -> float:
    """Shannon capacity in bit/s at transmitter-receiver distance d."""
    if d <= 0:
        raise ValueError(f"invalid distance {d}")
    if d > ch.radius_m:
        raise ChannelRangeError(f"distance {d} m exceeds radius {ch.radius_m} m")
    sinr = min(ch.edge_sinr * (ch.radius_m / d) ** ch.path_loss_exp, ch.sinr_cap)
    return ch.bandwidth_hz * math.log2(1.0 + sinr)


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


def outcome_to_csv(out: SimOutcome) -> str:
    lines = ["link_id,t,n,n_c,gamma,v,seeded,dropped"]
    L, T = out.shape
    g = out.gamma.sum(axis=2)
    for l in range(L):
        for t in range(T):
            lines.append(f"{l},{t + 1},{float(out.n[l, t])!r},{float(out.n_c[l, t])!r},"
                         f"{float(g[l, t])!r},{float(out.v[l, t])!r},"
                         f"{int(out.seeded[l, t])},{int(out.dropped[l, t])}")
    return "\n".join(lines) + "\n"


def alpha_to_csv(out: SimOutcome) -> str:
    lines = ["t,alpha"]
    alpha = out.alpha if out.alpha is not None else np.full(out.shape[1], np.nan)
    for t, a in enumerate(alpha, start=1):
        lines.append(f"{t},{float(a)!r}")
    return "\n".join(lines) + "\n"


def success_ratio(outcome: SimOutcome, zoi, t: int) -> float:
    """Fraction of ZOI nodes holding content during interval t (1-based)."""
    z = np.asarray(sorted(zoi), dtype=np.int64)
    if t < 1 or t > outcome.shape[1]:
        raise IndexError(f"interval {t} out of range 1..{outcome.shape[1]}")
    denom = float(outcome.n[z, t - 1].sum())
    if denom <= 0:
        raise UndefinedRatioError(f"no nodes in ZOI during interval {t}")
    return float(outcome.n_c[z, t - 1].sum() / denom)


class SimContext:
    """Precompiled per-tick view of (trajectories, contacts) that many
    scheme runs share.  Immutable once built; run() has no side effects."""

    def __init__(self, grid: RoadGrid, traj: TrajectorySet,
                 contacts: ContactTable | list[ContactEvent], channel: ChannelModel, d_t,
                 seeding_mode: str = "exact"):
        if seeding_mode not in ("exact", "floor"):
            raise ValueError(f"unknown seeding_mode {seeding_mode!r}")
        self.grid = grid
        self.traj = traj
        self.contacts = contacts = ContactTable.of(contacts)
        self.channel = channel
        self.d_t = np.asarray(d_t, dtype=float)
        self.seeding_mode = seeding_mode
        self.tick = traj.tick
        self.L = grid.num_links
        self.T = len(self.d_t)
        self.ivl = interval_of_tick(self.d_t, traj.tick, traj.horizon)
        self.nt = interval_ticks(self.d_t, traj.tick)
        self.sim_ticks = int(self.nt.sum())
        boundaries = np.concatenate([[0], np.cumsum(self.nt)[:-1]])
        self.boundary_of_tick = np.full(self.sim_ticks, -1, dtype=np.int64)
        self.boundary_of_tick[boundaries] = np.arange(self.T)

        self.enter = np.array([tr.enter_tick for tr in traj.tracks], dtype=np.int64)
        self.exit = np.array([tr.exit_tick for tr in traj.tracks], dtype=np.int64)
        s_track, s_tick, self.offset = sample_index(traj)
        self.sample_link = (np.concatenate([tr.link for tr in traj.tracks])
                            if traj.tracks else np.zeros(0, np.int64))

        # per-tick presence slices over samples sorted by tick
        order = np.argsort(s_tick, kind="stable")
        self.pt_track = s_track[order]
        self.pt_link = self.sample_link[order]
        self.pt_bounds = np.searchsorted(s_tick[order], np.arange(self.sim_ticks + 1))

        # per-tick contact slices
        self.ev_start, self.ev_end = contacts.start, contacts.end
        self.ev_i, self.ev_j = contacts.i, contacts.j
        self.ev_off, self.ev_dist = contacts.off, contacts.dist
        c_event, c_tick = contacts.contact_ticks()
        keep = c_tick < self.sim_ticks
        c_tick, c_event = c_tick[keep], c_event[keep]
        order = np.argsort(c_tick, kind="stable")
        self.ct_event = c_event[order]
        self.ct_bounds = np.searchsorted(c_tick[order], np.arange(self.sim_ticks + 1))

    # -- vectorized random access ---------------------------------------------
    def links_at(self, tracks: np.ndarray, k: int) -> np.ndarray:
        return self.sample_link[self.offset[tracks] + (k - self.enter[tracks])]

    def link_at(self, track: int, k: int) -> int:
        return int(self.sample_link[self.offset[track] + (k - self.enter[track])])

    def present_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.pt_bounds[k], self.pt_bounds[k + 1]
        return self.pt_track[lo:hi], self.pt_link[lo:hi]

    def pairs_at(self, k: int) -> np.ndarray:
        lo, hi = self.ct_bounds[k], self.ct_bounds[k + 1]
        return self.ct_event[lo:hi]

    def dist_of(self, event: int, k: int) -> float:
        return float(self.ev_dist[self.ev_off[event] + (k - self.ev_start[event])])

    # ---------------------------------------------------------------------------
    def run(self, scheme: FcScheme, zoi=None, seed: int = 0,
            record_holders: bool = False, v_first=None,
            debug_ledger: bool = False) -> SimOutcome:
        if scheme.shape != (self.L, self.T):
            raise ShapeError(f"scheme shape {scheme.shape} does not match "
                             f"grid/interval shape {(self.L, self.T)}")
        a, b, s = scheme.a, scheme.b, scheme.s
        ch = self.channel
        instant = ch.mode == "instantaneous"
        if not instant and ch.content_bits is None:
            raise ValueError("capacity-mode runs need channel.content_bits")

        n_tracks = self.traj.num_tracks
        holds = np.zeros(n_tracks, dtype=bool)
        busy = np.full(n_tracks, -1, dtype=np.int64)
        transfers: dict[int, list] = {}
        next_tid = 0

        L, T = self.L, self.T
        n_sum = np.zeros((L, T))
        nc_sum = np.zeros((L, T))
        gamma_sum = np.zeros((L, T, 1))
        seeded = np.zeros((L, T), dtype=np.int64)
        dropped = np.zeros((L, T), dtype=np.int64)
        v = np.zeros((L, T))
        if v_first is not None:
            v[:, 0] = np.asarray(v_first, dtype=float)
        history: list[frozenset] | None = [] if record_holders else None
        expected_count = 0

        def abort(tid: int):
            sender, receiver, _, _ = transfers.pop(tid)
            busy[sender] = -1
            busy[receiver] = -1

        for k in range(self.sim_ticks):
            t = int(self.ivl[k])
            tids, links = self.present_at(k)
            gains = 0
            losses = 0

            # departures: holders that exited at k-1 lose the content
            if k > 0:
                gone_mask = holds & (self.exit == k - 1)
                if gone_mask.any():
                    gone = np.nonzero(gone_mask)[0]
                    np.add.at(dropped, (self.links_at(gone, k - 1), t), 1)
                    losses += len(gone)
                    holds[gone] = False
                for tid in [tid for tid, tr in transfers.items()
                            if self.exit[tr[0]] == k - 1 or self.exit[tr[1]] == k - 1]:
                    abort(tid)

            boundary_t = int(self.boundary_of_tick[k])
            if boundary_t >= 0:
                if boundary_t > 0:
                    prev = boundary_t - 1
                    denom = n_sum[:, prev]
                    v[:, boundary_t] = np.where(denom > 0,
                                                nc_sum[:, prev] / np.maximum(denom, 1e-300),
                                                0.0)
                # the clamp owns boundary ticks: no entry-keep trials here
                if len(tids):
                    up, down = self._seed_clamp(holds, tids, links, s[:, t], k, seed,
                                                seeded[:, t], dropped[:, t])
                    gains += up
                    losses += down
            elif len(tids):
                # entry-keep trials for holders that changed link this tick
                was_present = self.enter[tids] <= k - 1
                cand = tids[was_present]
                if len(cand):
                    moved = (self.links_at(cand, k - 1) != links[was_present]) & holds[cand]
                    if moved.any():
                        movers = cand[moved]
                        mlinks = links[was_present][moved]
                        u = rng.keyed_u01(seed, rng.KIND_ENTRY_KEEP, movers, 0, k)
                        drop = u >= b[mlinks, t]
                        if drop.any():
                            np.add.at(dropped, (mlinks[drop], t), 1)
                            holds[movers[drop]] = False
                            losses += int(drop.sum())

            # transfers made moot by the clamp or entry drops are aborted
            if transfers:
                for tid in [tid for tid, tr in transfers.items()
                            if not holds[tr[0]] or holds[tr[1]]]:
                    abort(tid)

            # measurement: the per-tick state is the one after the clamp
            if len(tids):
                np.add.at(n_sum, (links, t), 1.0)
                held = holds[tids]
                if held.any():
                    np.add.at(nc_sum, (links[held], t), 1.0)
            if record_holders:
                history.append(frozenset(np.nonzero(holds)[0].tolist()))

            events = self.pairs_at(k)
            if instant:
                gains += self._step_instant(events, holds, a, b, t, k, seed,
                                            gamma_sum[:, t, 0])
            else:
                kept, next_tid = self._step_capacity(events, holds, busy, transfers,
                                                     next_tid, a, b, t, k, seed,
                                                     gamma_sum[:, t, 0])
                gains += kept

            if debug_ledger:
                expected_count += gains - losses
                if int(holds.sum()) != expected_count:
                    raise LedgerImbalanceError(
                        f"tick {k}: holder count {int(holds.sum())} != "
                        f"expected {expected_count}")
            else:
                expected_count = int(holds.sum())

        nt = self.nt.astype(float)
        out = SimOutcome(
            n=n_sum / nt[None, :], n_c=nc_sum / nt[None, :],
            gamma=gamma_sum / nt[None, :, None], v=v,
            seeded=seeded, dropped=dropped, d_t=self.d_t.copy(),
            tick=self.tick, seed=seed,
            zoi=tuple(sorted(zoi)) if zoi is not None else None,
            holder_history=history)
        if zoi is not None:
            z = np.asarray(sorted(zoi), dtype=np.int64)
            denom = n_sum[z, :].sum(axis=0)
            num = nc_sum[z, :].sum(axis=0)
            out.alpha = np.where(denom > 0, num / np.maximum(denom, 1e-300), np.nan)
        return out

    # ---------------------------------------------------------------------------
    def _seed_clamp(self, holds, tids, links, s_t, k, seed, seeded_col, dropped_col):
        """Set each link's holder count to round(s*n); returns (#up, #down)."""
        u = rng.keyed_u01(seed, rng.KIND_SEED_PRIORITY, tids, 0, k)
        counts = np.bincount(links, minlength=self.L)
        target = np.floor(s_t * counts + 0.5).astype(np.int64)  # .5 rounds up
        old = holds[tids]
        if self.seeding_mode == "exact":
            order = np.lexsort((u, links))
        else:  # floor: holders sort ahead of non-holders and are never dropped
            order = np.lexsort((u, ~old, links))
        sorted_links = links[order]
        group_start = np.searchsorted(sorted_links, sorted_links, side="left")
        rank = np.arange(len(tids)) - group_start
        limit = target
        if self.seeding_mode == "floor":
            cur = np.bincount(links[old], minlength=self.L)
            limit = np.maximum(target, cur)
        new = np.empty(len(tids), dtype=bool)
        new[order] = rank < limit[sorted_links]
        up = new & ~old
        down = old & ~new
        np.add.at(seeded_col, links[up], 1)
        np.add.at(dropped_col, links[down], 1)
        holds[tids] = new
        return int(up.sum()), int(down.sum())

    def _step_instant(self, events, holds, a, b, t, k, seed, gamma_col) -> int:
        """Simultaneous single-tick transfers across all eligible contacts."""
        if not len(events):
            return 0
        i, j = self.ev_i[events], self.ev_j[events]
        hi, hj = holds[i], holds[j]
        elig = hi ^ hj
        if not elig.any():
            return 0
        i, j, hi = i[elig], j[elig], hi[elig]
        sender = np.where(hi, i, j)
        receiver = np.where(hi, j, i)
        u1 = rng.keyed_u01(seed, rng.KIND_SEND, i, j, k)
        tx = u1 < a[self.links_at(sender, k), t]
        if not tx.any():
            return 0
        np.add.at(gamma_col, self.links_at(np.unique(sender[tx]), k), 1.0)
        u2 = rng.keyed_u01(seed, rng.KIND_RECV_KEEP, i[tx], j[tx], k)
        kept = u2 < b[self.links_at(receiver[tx], k), t]
        new_holders = np.unique(receiver[tx][kept])
        gained = new_holders[~holds[new_holders]]
        holds[gained] = True
        return int(len(gained))

    def _step_capacity(self, events, holds, busy, transfers, next_tid,
                       a, b, t, k, seed, gamma_col) -> tuple[int, int]:
        """Progress multi-tick transfers, then start new ones (one per node)."""
        ch = self.channel
        kept_receptions = 0

        for tid in sorted(transfers):
            sender, receiver, event, bits = transfers[tid]
            if k > self.ev_end[event]:          # contact lost: abort, no partial content
                busy[sender] = -1
                busy[receiver] = -1
                del transfers[tid]
                continue
            bits += _rate(ch, self.dist_of(event, k)) * self.tick
            gamma_col[self.link_at(sender, k)] += 1.0
            if bits >= ch.content_bits:
                u = float(rng.keyed_u01(seed, rng.KIND_RECV_KEEP,
                                        min(sender, receiver), max(sender, receiver), k))
                if u < b[self.link_at(receiver, k), t] and not holds[receiver]:
                    holds[receiver] = True
                    kept_receptions += 1
                busy[sender] = -1
                busy[receiver] = -1
                del transfers[tid]
            else:
                transfers[tid][3] = bits

        if len(events):
            i, j = self.ev_i[events], self.ev_j[events]
            hi, hj = holds[i], holds[j]
            elig = (hi ^ hj) & (busy[i] < 0) & (busy[j] < 0)
            if elig.any():
                ev = events[elig]
                i, j, hi = i[elig], j[elig], hi[elig]
                sender = np.where(hi, i, j)
                receiver = np.where(hi, j, i)
                u1 = rng.keyed_u01(seed, rng.KIND_SEND, i, j, k)
                ok = u1 < a[self.links_at(sender, k), t]
                if ok.any():
                    order = np.lexsort((receiver[ok], sender[ok]))
                    snd, rcv, evs = sender[ok][order], receiver[ok][order], ev[ok][order]
                    start = 0
                    while start < len(snd):
                        stop = start
                        while stop < len(snd) and snd[stop] == snd[start]:
                            stop += 1
                        s_id = int(snd[start])
                        cands = [c for c in range(start, stop) if busy[rcv[c]] < 0]
                        if busy[s_id] < 0 and cands:
                            u = float(rng.keyed_u01(seed, rng.KIND_PARTNER, s_id, 0, k))
                            pick = cands[min(int(u * len(cands)), len(cands) - 1)]
                            r_id, e_id = int(rcv[pick]), int(evs[pick])
                            bits = _rate(ch, self.dist_of(e_id, k)) * self.tick
                            gamma_col[self.link_at(s_id, k)] += 1.0
                            if bits >= ch.content_bits:
                                u2 = float(rng.keyed_u01(seed, rng.KIND_RECV_KEEP,
                                                         min(s_id, r_id), max(s_id, r_id), k))
                                if u2 < b[self.link_at(r_id, k), t] and not holds[r_id]:
                                    holds[r_id] = True
                                    kept_receptions += 1
                            else:
                                busy[s_id] = next_tid
                                busy[r_id] = next_tid
                                transfers[next_tid] = [s_id, r_id, e_id, bits]
                                next_tid += 1
                        start = stop
        return kept_receptions, next_tid


def run_fc(traj: TrajectorySet, contacts: ContactTable | list[ContactEvent], scheme: FcScheme,
           channel: ChannelModel, d_t, *, grid: RoadGrid, zoi=None, seed: int = 0,
           seeding_mode: str = "exact", record_holders: bool = False, v_first=None,
           debug_ledger: bool = False) -> SimOutcome:
    """One-shot convenience wrapper around SimContext for single runs."""
    ctx = SimContext(grid, traj, contacts, channel, d_t, seeding_mode=seeding_mode)
    return ctx.run(scheme, zoi=zoi, seed=seed, record_holders=record_holders,
                   v_first=v_first, debug_ledger=debug_ledger)
