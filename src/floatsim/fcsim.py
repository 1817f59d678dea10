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


def safe_ratio(num, den, fill):
    """num / den elementwise where den > 0, `fill` elsewhere: the form of
    every success ratio and availability in the package."""
    return np.where(den > 0, num / np.maximum(den, 1e-300), fill)


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
        moved = (pt_tick > self.enter[self.pt_track]) & (
            self.sample_link[np.maximum(order - 1, 0)] != self.pt_link)
        self.mv_track = self.pt_track[moved]
        self.mv_link = self.pt_link[moved]
        self.mv_bounds = np.searchsorted(pt_tick[moved], np.arange(self.sim_ticks + 1))

        # departures: tracks by last tick, with the link they left from
        self.exit_track = np.argsort(self.exit, kind="stable")
        self.exit_bounds = np.searchsorted(self.exit[self.exit_track],
                                           np.arange(self.sim_ticks + 1))
        self.exit_link = self.sample_link[self.offset + (self.exit - self.enter)]

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
        return self.run_many([scheme], [seed], zoi=zoi, v_first=v_first,
                             record_holders=record_holders, debug_ledger=debug_ledger)[0]

    def run_many(self, schemes, seeds, zoi=None, v_first=None,
                 record_holders: bool = False, debug_ledger: bool = False) -> list[SimOutcome]:
        """Run schemes[r] with seeds[r] for every r, all R runs in lockstep.

        Outcome r is bit-identical to a lone run of (schemes[r], seeds[r]):
        draws are keyed per run, the runs share only the presence and
        contact slices of each tick, and every sum counts whole units.
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
        A = np.stack([sc.a for sc in schemes])
        B = np.stack([sc.b for sc in schemes])
        S = np.stack([sc.s for sc in schemes])
        keys = {kind: np.array([rng.key_prefix(sd, kind) for sd in seeds], dtype=np.uint64)
                for kind in (rng.KIND_SEED_PRIORITY, rng.KIND_ENTRY_KEEP, rng.KIND_SEND,
                             rng.KIND_RECV_KEEP, rng.KIND_PARTNER)}
        holds = np.zeros((R, n_tracks), dtype=bool)
        nc_sum = np.zeros((R, L, T))
        gamma_sum = np.zeros((R, L, T))
        seeded = np.zeros((R, L, T), dtype=np.int64)
        dropped = np.zeros((R, L, T), dtype=np.int64)
        v = np.zeros((R, L, T))
        if v_first is not None:
            v[:, :, 0] = np.asarray(v_first, dtype=float)
        history = [[] for _ in range(R)] if record_holders else None
        expected = np.zeros(R, dtype=np.int64)
        if not instant:                 # per-run transfer state
            busy = np.full((R, n_tracks), -1, dtype=np.int64)
            transfers: list[dict[int, list]] = [{} for _ in range(R)]
            next_tid = [0] * R
            cap_keys = [(keys[rng.KIND_SEND][r], int(keys[rng.KIND_PARTNER][r]),
                         int(keys[rng.KIND_RECV_KEEP][r])) for r in range(R)]

        def abort(r: int, tids: list[int]) -> None:
            for tid in tids:
                sender, receiver, _, _ = transfers[r].pop(tid)
                busy[r, sender] = -1
                busy[r, receiver] = -1

        for k in range(self.sim_ticks):
            t = int(self.ivl[k])
            tids, links = self.present_at(k)
            delta = np.zeros(R, dtype=np.int64)     # holder gains minus losses

            # departures: holders whose track ended at k-1 lose the content
            if k > 0:
                gone = self.exit_track[self.exit_bounds[k - 1]:self.exit_bounds[k]]
                if len(gone):
                    run, col = np.nonzero(holds[:, gone])
                    if len(run):
                        dropped[:, :, t] += self._count(run, self.exit_link[gone[col]], R)
                        delta -= np.bincount(run, minlength=R)
                        holds[:, gone] = False
                    if not instant:
                        left = set(gone.tolist())
                        for r in range(R):
                            abort(r, [tid for tid, (snd, rcv, _, _) in transfers[r].items()
                                      if snd in left or rcv in left])

            boundary_t = int(self.boundary_of_tick[k])
            if boundary_t >= 0:
                if boundary_t > 0:
                    prev = boundary_t - 1
                    v[:, :, boundary_t] = safe_ratio(nc_sum[:, :, prev], self.n_sum[:, prev],
                                                     0.0)
                # the clamp owns boundary ticks: no entry-keep trials here
                if len(tids):
                    delta += self._seed_clamp(holds, tids, links, S[:, :, t], k,
                                              keys[rng.KIND_SEED_PRIORITY],
                                              seeded[:, :, t], dropped[:, :, t])
            else:
                # entry-keep trials for holders that changed link this tick
                lo, hi = self.mv_bounds[k], self.mv_bounds[k + 1]
                if hi > lo:
                    movers, mlinks = self.mv_track[lo:hi], self.mv_link[lo:hi]
                    run, col = np.nonzero(holds[:, movers])
                    if len(run):
                        movers, mlinks = movers[col], mlinks[col]
                        u = rng.keyed_u01_at(keys[rng.KIND_ENTRY_KEEP][run], movers, 0, k)
                        drop = u >= B[run, mlinks, t]
                        if drop.any():
                            run = run[drop]
                            dropped[:, :, t] += self._count(run, mlinks[drop], R)
                            holds[run, movers[drop]] = False
                            delta -= np.bincount(run, minlength=R)

            # transfers made moot by the clamp or entry drops are aborted
            if not instant:
                for r in range(R):
                    if transfers[r]:
                        row = holds[r]
                        abort(r, [tid for tid, (snd, rcv, _, _) in transfers[r].items()
                                  if not row[snd] or row[rcv]])

            # measurement: the per-tick state is the one after the clamp
            if len(tids):
                run, col = np.nonzero(holds[:, tids])
                if len(run):
                    nc_sum[:, :, t] += self._count(run, links[col], R)
            if record_holders:
                for r in range(R):
                    history[r].append(frozenset(np.flatnonzero(holds[r]).tolist()))

            events = self.pairs_at(k)
            if instant:
                if len(events):
                    delta += self._step_instant(events, holds, A, B, t, k, keys,
                                                gamma_sum[:, :, t])
            else:
                for r in range(R):
                    kept, next_tid[r] = self._step_capacity(
                        events, holds[r], busy[r], transfers[r], next_tid[r], A[r], B[r],
                        t, k, cap_keys[r], gamma_sum[r, :, t])
                    delta[r] += kept

            if debug_ledger:
                expected += delta
                count = holds.sum(axis=1)
                bad = np.flatnonzero(count != expected)
                if len(bad):
                    r = int(bad[0])
                    raise LedgerImbalanceError(
                        f"tick {k}, run {r}: holder count {int(count[r])} != "
                        f"expected {int(expected[r])}")

        nt = self.nt.astype(float)
        z = np.asarray(sorted(zoi), dtype=np.int64) if zoi is not None else None
        outs = []
        for r in range(R):
            out = SimOutcome(
                n=self.n_sum / nt[None, :], n_c=nc_sum[r] / nt[None, :],
                gamma=gamma_sum[r][:, :, None] / nt[None, :, None], v=v[r].copy(),
                seeded=seeded[r].copy(), dropped=dropped[r].copy(), d_t=self.d_t.copy(),
                tick=self.tick, seed=seeds[r],
                zoi=tuple(sorted(zoi)) if zoi is not None else None,
                holder_history=history[r] if record_holders else None)
            if z is not None:
                out.alpha = safe_ratio(nc_sum[r][z, :].sum(axis=0),
                                       self.n_sum[z, :].sum(axis=0), np.nan)
            outs.append(out)
        return outs

    # ---------------------------------------------------------------------------
    def _count(self, run: np.ndarray, link: np.ndarray, R: int) -> np.ndarray:
        """(R, L) number of (run, link) rows: integer counts, so float sums
        built from them stay exact."""
        return np.bincount(run * self.L + link, minlength=R * self.L).reshape(R, self.L)

    def _seed_clamp(self, holds, tids, links, s_t, k, prefix, seeded_t, dropped_t):
        """Set each (run, link) holder count to round(s*n); returns the net
        change of every run's holder count."""
        R, n, L = len(holds), len(tids), self.L
        u = rng.keyed_u01_at(prefix[:, None], tids, 0, k).ravel()
        counts = np.bincount(links, minlength=L)
        target = np.floor(s_t * counts + 0.5).astype(np.int64)  # .5 rounds up
        old = holds[:, tids]
        # one sort for every run: (run, link) groups, best priority first
        key = (np.arange(R)[:, None] * L + links).ravel()
        limit = target.ravel()
        if self.seeding_mode == "exact":
            order = np.lexsort((u, key))
        else:  # floor: holders sort ahead of non-holders and are never dropped
            order = np.lexsort((u, ~old.ravel(), key))
            limit = np.maximum(limit, np.bincount(key[old.ravel()], minlength=R * L))
        sorted_key = key[order]
        rank = np.arange(R * n) - np.searchsorted(sorted_key, sorted_key, side="left")
        new = np.empty(R * n, dtype=bool)
        new[order] = rank < limit[sorted_key]
        new = new.reshape(R, n)
        up = new & ~old
        down = old & ~new
        seeded_t += np.bincount(key[up.ravel()], minlength=R * L).reshape(R, L)
        dropped_t += np.bincount(key[down.ravel()], minlength=R * L).reshape(R, L)
        holds[:, tids] = new
        return up.sum(axis=1) - down.sum(axis=1)

    def _step_instant(self, events, holds, A, B, t, k, keys, gamma_t) -> np.ndarray:
        """Simultaneous single-tick transfers across all eligible contacts of
        every run; returns each run's holder gain."""
        R, n_tracks = holds.shape
        i, j = self.ev_i[events], self.ev_j[events]
        hi = holds[:, i]
        run, e = np.nonzero(hi ^ holds[:, j])
        if not len(run):
            return 0
        i, j, hi = i[e], j[e], hi[run, e]
        sender = np.where(hi, i, j)
        receiver = np.where(hi, j, i)
        u1 = rng.keyed_u01_at(keys[rng.KIND_SEND][run], i, j, k)
        tx = u1 < A[run, self.links_at(sender, k), t]
        if not tx.any():
            return 0
        run, i, j, sender, receiver = run[tx], i[tx], j[tx], sender[tx], receiver[tx]
        # a node sending on several contacts transmits once
        s_run, s_track = np.divmod(np.unique(run * n_tracks + sender), n_tracks)
        gamma_t += self._count(s_run, self.links_at(s_track, k), R)
        u2 = rng.keyed_u01_at(keys[rng.KIND_RECV_KEEP][run], i, j, k)
        kept = u2 < B[run, self.links_at(receiver, k), t]
        # receivers held nothing before this step, so each kept one is a gain
        g_run, g_track = np.divmod(np.unique(run[kept] * n_tracks + receiver[kept]), n_tracks)
        holds[g_run, g_track] = True
        return np.bincount(g_run, minlength=R)

    def _step_capacity(self, events, holds, busy, transfers, next_tid,
                       a, b, t, k, keys, gamma_col) -> tuple[int, int]:
        """One run's capacity tick: progress multi-tick transfers, then start
        new ones (one per node).  `keys` are the run's send, partner and
        receive-keep key prefixes."""
        ch = self.channel
        send_key, partner_key, recv_key = keys
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
                u = rng.keyed_u01_scalar(recv_key, min(sender, receiver),
                                         max(sender, receiver), k)
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
                u1 = rng.keyed_u01_at(send_key, i, j, k)
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
                            u = rng.keyed_u01_scalar(partner_key, s_id, 0, k)
                            pick = cands[min(int(u * len(cands)), len(cands) - 1)]
                            r_id, e_id = int(rcv[pick]), int(evs[pick])
                            bits = _rate(ch, self.dist_of(e_id, k)) * self.tick
                            gamma_col[self.link_at(s_id, k)] += 1.0
                            if bits >= ch.content_bits:
                                u2 = rng.keyed_u01_scalar(recv_key, min(s_id, r_id),
                                                          max(s_id, r_id), k)
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
