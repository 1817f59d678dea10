"""The one-run engine that `SimContext.run_many` replaced, kept as a reference.

`oracle_run(ctx, ...)` is the earlier `SimContext.run` with its seeding
clamp, instantaneous step and capacity step, and `oracle_keyed_u01` is the
earlier five-round keyed draw.  `link_at` is the earlier scalar link
lookup of `SimContext`; `dist_of` recomputes a contact's distance from the
positions of its tracks, on its own; and `pairs_at` finds the contact events
open at a tick by scanning every event, where the engine keeps a running
list.  They read only a `SimContext`'s precomputed arrays and trajectories,
so every batched outcome can be compared with them bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from floatsim import rng
from floatsim.fcsim import LedgerImbalanceError, ShapeError, SimOutcome, _rate

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _finalize(x):
    x = (x ^ (x >> np.uint64(30))) * _MUL1
    x = (x ^ (x >> np.uint64(27))) * _MUL2
    return x ^ (x >> np.uint64(31))


def _as_u64(v):
    a = np.asarray(v)
    if a.dtype.kind in "iu":
        return a.astype(np.int64).view(np.uint64) if a.dtype.kind == "i" else a.astype(np.uint64)
    return np.asarray(a, dtype=np.int64).view(np.uint64)


def link_at(ctx, track: int, k: int) -> int:
    """Link of track `track` at tick k."""
    return int(ctx.sample_link[ctx.offset[track] + (k - ctx.enter[track])])


def dist_of(ctx, event: int, k: int) -> float:
    """Distance of contact event `event` at tick k, from the positions of its
    two tracks (the engine recomputes it the same way, so bit for bit)."""
    a, b = (ctx.traj.tracks[int(t)] for t in (ctx.ev_i[event], ctx.ev_j[event]))
    dx, dy = a.pos[k - a.enter_tick] - b.pos[k - b.enter_tick]
    return math.sqrt(dx * dx + dy * dy)


def pairs_at(ctx, k: int) -> np.ndarray:
    """Contact events open at tick k, ascending: a scan of every event."""
    return np.flatnonzero((ctx.ev_start <= k) & (k <= ctx.ev_end))


def oracle_keyed_u01(seed, kind, id_a, id_b, tick):
    with np.errstate(over="ignore"):
        h = _finalize(_as_u64(seed) + _GAMMA)
        h = _finalize((h + _GAMMA) ^ _as_u64(kind))
        h = _finalize((h + _GAMMA) ^ _as_u64(id_a))
        h = _finalize((h + _GAMMA) ^ _as_u64(id_b))
        h = _finalize((h + _GAMMA) ^ _as_u64(tick))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def oracle_run(ctx, scheme, zoi=None, seed: int = 0, record_holders: bool = False,
               v_first=None, debug_ledger: bool = False) -> SimOutcome:
    if scheme.shape != (ctx.L, ctx.T):
        raise ShapeError(f"scheme shape {scheme.shape} does not match "
                         f"grid/interval shape {(ctx.L, ctx.T)}")
    a, b, s = scheme.a, scheme.b, scheme.s
    ch = ctx.channel
    instant = ch.mode == "instantaneous"
    if not instant and ch.content_bits is None:
        raise ValueError("capacity-mode runs need channel.content_bits")

    n_tracks = ctx.traj.num_tracks
    holds = np.zeros(n_tracks, dtype=bool)
    busy = np.full(n_tracks, -1, dtype=np.int64)
    transfers: dict[int, list] = {}
    next_tid = 0

    L, T = ctx.L, ctx.T
    n_sum = np.zeros((L, T))
    nc_sum = np.zeros((L, T))
    gamma_sum = np.zeros((L, T, 1))
    seeded = np.zeros((L, T), dtype=np.int64)
    dropped = np.zeros((L, T), dtype=np.int64)
    v = np.zeros((L, T))
    if v_first is not None:
        v[:, 0] = np.asarray(v_first, dtype=float)
    history = [] if record_holders else None
    expected_count = 0

    def abort(tid):
        sender, receiver, _, _ = transfers.pop(tid)
        busy[sender] = -1
        busy[receiver] = -1

    for k in range(ctx.sim_ticks):
        t = int(ctx.ivl[k])
        tids, links = ctx.present_at(k)
        gains = 0
        losses = 0

        if k > 0:
            gone_mask = holds & (ctx.exit == k - 1)
            if gone_mask.any():
                gone = np.nonzero(gone_mask)[0]
                np.add.at(dropped, (ctx.links_at(gone, k - 1), t), 1)
                losses += len(gone)
                holds[gone] = False
            for tid in [tid for tid, tr in transfers.items()
                        if ctx.exit[tr[0]] == k - 1 or ctx.exit[tr[1]] == k - 1]:
                abort(tid)

        boundary_t = int(ctx.boundary_of_tick[k])
        if boundary_t >= 0:
            if boundary_t > 0:
                prev = boundary_t - 1
                denom = n_sum[:, prev]
                v[:, boundary_t] = np.where(denom > 0,
                                            nc_sum[:, prev] / np.maximum(denom, 1e-300), 0.0)
            if len(tids):
                up, down = _seed_clamp(ctx, holds, tids, links, s[:, t], k, seed,
                                       seeded[:, t], dropped[:, t])
                gains += up
                losses += down
        elif len(tids):
            was_present = ctx.enter[tids] <= k - 1
            cand = tids[was_present]
            if len(cand):
                moved = (ctx.links_at(cand, k - 1) != links[was_present]) & holds[cand]
                if moved.any():
                    movers = cand[moved]
                    mlinks = links[was_present][moved]
                    u = oracle_keyed_u01(seed, rng.KIND_ENTRY_KEEP, movers, 0, k)
                    drop = u >= b[mlinks, t]
                    if drop.any():
                        np.add.at(dropped, (mlinks[drop], t), 1)
                        holds[movers[drop]] = False
                        losses += int(drop.sum())

        if transfers:
            for tid in [tid for tid, tr in transfers.items()
                        if not holds[tr[0]] or holds[tr[1]]]:
                abort(tid)

        if len(tids):
            np.add.at(n_sum, (links, t), 1.0)
            held = holds[tids]
            if held.any():
                np.add.at(nc_sum, (links[held], t), 1.0)
        if record_holders:
            history.append(frozenset(np.nonzero(holds)[0].tolist()))

        events = pairs_at(ctx, k)
        if instant:
            gains += _step_instant(ctx, events, holds, a, b, t, k, seed, gamma_sum[:, t, 0])
        else:
            kept, next_tid = _step_capacity(ctx, events, holds, busy, transfers, next_tid,
                                            a, b, t, k, seed, gamma_sum[:, t, 0])
            gains += kept

        if debug_ledger:
            expected_count += gains - losses
            if int(holds.sum()) != expected_count:
                raise LedgerImbalanceError(
                    f"tick {k}: holder count {int(holds.sum())} != expected {expected_count}")
        else:
            expected_count = int(holds.sum())

    nt = ctx.nt.astype(float)
    out = SimOutcome(
        n=n_sum / nt[None, :], n_c=nc_sum / nt[None, :],
        gamma=gamma_sum / nt[None, :, None], v=v,
        seeded=seeded, dropped=dropped, d_t=ctx.d_t.copy(),
        tick=ctx.tick, seed=seed,
        zoi=tuple(sorted(zoi)) if zoi is not None else None,
        holder_history=history)
    if zoi is not None:
        z = np.asarray(sorted(zoi), dtype=np.int64)
        denom = n_sum[z, :].sum(axis=0)
        num = nc_sum[z, :].sum(axis=0)
        out.alpha = np.where(denom > 0, num / np.maximum(denom, 1e-300), np.nan)
    return out


def _seed_clamp(ctx, holds, tids, links, s_t, k, seed, seeded_col, dropped_col):
    u = oracle_keyed_u01(seed, rng.KIND_SEED_PRIORITY, tids, 0, k)
    counts = np.bincount(links, minlength=ctx.L)
    target = np.floor(s_t * counts + 0.5).astype(np.int64)
    old = holds[tids]
    if ctx.seeding_mode == "exact":
        order = np.lexsort((u, links))
    else:
        order = np.lexsort((u, ~old, links))
    sorted_links = links[order]
    group_start = np.searchsorted(sorted_links, sorted_links, side="left")
    rank = np.arange(len(tids)) - group_start
    limit = target
    if ctx.seeding_mode == "floor":
        cur = np.bincount(links[old], minlength=ctx.L)
        limit = np.maximum(target, cur)
    new = np.empty(len(tids), dtype=bool)
    new[order] = rank < limit[sorted_links]
    up = new & ~old
    down = old & ~new
    np.add.at(seeded_col, links[up], 1)
    np.add.at(dropped_col, links[down], 1)
    holds[tids] = new
    return int(up.sum()), int(down.sum())


def _step_instant(ctx, events, holds, a, b, t, k, seed, gamma_col) -> int:
    if not len(events):
        return 0
    i, j = ctx.ev_i[events], ctx.ev_j[events]
    hi, hj = holds[i], holds[j]
    elig = hi ^ hj
    if not elig.any():
        return 0
    i, j, hi = i[elig], j[elig], hi[elig]
    sender = np.where(hi, i, j)
    receiver = np.where(hi, j, i)
    u1 = oracle_keyed_u01(seed, rng.KIND_SEND, i, j, k)
    tx = u1 < a[ctx.links_at(sender, k), t]
    if not tx.any():
        return 0
    np.add.at(gamma_col, ctx.links_at(np.unique(sender[tx]), k), 1.0)
    u2 = oracle_keyed_u01(seed, rng.KIND_RECV_KEEP, i[tx], j[tx], k)
    kept = u2 < b[ctx.links_at(receiver[tx], k), t]
    new_holders = np.unique(receiver[tx][kept])
    gained = new_holders[~holds[new_holders]]
    holds[gained] = True
    return int(len(gained))


def _step_capacity(ctx, events, holds, busy, transfers, next_tid, a, b, t, k, seed,
                   gamma_col):
    ch = ctx.channel
    kept_receptions = 0

    for tid in sorted(transfers):
        sender, receiver, event, bits = transfers[tid]
        if k > ctx.ev_end[event]:
            busy[sender] = -1
            busy[receiver] = -1
            del transfers[tid]
            continue
        bits += _rate(ch, dist_of(ctx, event, k)) * ctx.tick
        gamma_col[link_at(ctx, sender, k)] += 1.0
        if bits >= ch.content_bits:
            u = float(oracle_keyed_u01(seed, rng.KIND_RECV_KEEP,
                                       min(sender, receiver), max(sender, receiver), k))
            if u < b[link_at(ctx, receiver, k), t] and not holds[receiver]:
                holds[receiver] = True
                kept_receptions += 1
            busy[sender] = -1
            busy[receiver] = -1
            del transfers[tid]
        else:
            transfers[tid][3] = bits

    if len(events):
        i, j = ctx.ev_i[events], ctx.ev_j[events]
        hi, hj = holds[i], holds[j]
        elig = (hi ^ hj) & (busy[i] < 0) & (busy[j] < 0)
        if elig.any():
            ev = events[elig]
            i, j, hi = i[elig], j[elig], hi[elig]
            sender = np.where(hi, i, j)
            receiver = np.where(hi, j, i)
            u1 = oracle_keyed_u01(seed, rng.KIND_SEND, i, j, k)
            ok = u1 < a[ctx.links_at(sender, k), t]
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
                        u = float(oracle_keyed_u01(seed, rng.KIND_PARTNER, s_id, 0, k))
                        pick = cands[min(int(u * len(cands)), len(cands) - 1)]
                        r_id, e_id = int(rcv[pick]), int(evs[pick])
                        bits = _rate(ch, dist_of(ctx, e_id, k)) * ctx.tick
                        gamma_col[link_at(ctx, s_id, k)] += 1.0
                        if bits >= ch.content_bits:
                            u2 = float(oracle_keyed_u01(seed, rng.KIND_RECV_KEEP,
                                                        min(s_id, r_id), max(s_id, r_id), k))
                            if u2 < b[link_at(ctx, r_id, k), t] and not holds[r_id]:
                                holds[r_id] = True
                                kept_receptions += 1
                        else:
                            busy[s_id] = next_tid
                            busy[r_id] = next_tid
                            transfers[next_tid] = [s_id, r_id, e_id, bits]
                            next_tid += 1
                    start = stop
    return kept_receptions, next_tid
