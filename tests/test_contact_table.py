"""The columnar contact sweep against the per-tick pair loop it replaced,
and the trajectory columns against the tracks they are built from.

`oracle_detect_contacts` and `oracle_mobility_features` are the earlier
list-of-events implementations, kept as references: the sweep must produce
the same events with bit-identical distances, and the features computed
from its columns must be bit-identical too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floatsim import (ChannelModel, ContactEvent, ContactTable, NodeTrack, SimContext,
                      TrajectorySet, all_on, detect_contacts, gen_random_schemes,
                      mobility_features)
from floatsim.mobility import interval_of_tick, interval_ticks


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _presence_index(traj):
    per_tick = [[] for _ in range(traj.horizon)]
    for ti, tr in enumerate(traj.tracks):
        e = min(tr.enter_tick + len(tr.pos) - 1, traj.horizon - 1)
        for k in range(tr.enter_tick, e + 1):
            per_tick[k].append(ti)
    return [np.array(v, dtype=np.int64) for v in per_tick]


def oracle_detect_contacts(traj, r):
    present = _presence_index(traj)
    open_runs = {}
    events = []

    def close(pair, run):
        ticks, dists = run
        events.append(ContactEvent(pair[0], pair[1], ticks[0], ticks[-1], np.array(dists)))

    for k in range(traj.horizon):
        ids = present[k]
        live = set()
        if len(ids) >= 2:
            pos = np.stack([traj.tracks[ti].pos[k - traj.tracks[ti].enter_tick] for ti in ids])
            diff = pos[:, None, :] - pos[None, :, :]
            dm = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            iu, ju = np.triu_indices(len(ids), k=1)
            hit = dm[iu, ju] <= r
            for a, b, d in zip(iu[hit], ju[hit], dm[iu, ju][hit]):
                ta, tb = int(ids[a]), int(ids[b])
                pair = (ta, tb) if ta < tb else (tb, ta)
                live.add(pair)
                run = open_runs.get(pair)
                if run is not None and run[0][-1] == k - 1:
                    run[0].append(k)
                    run[1].append(float(d))
                else:
                    if run is not None:
                        close(pair, run)
                    open_runs[pair] = [[k], [float(d)]]
        stale = [p for p, run in open_runs.items() if run[0][-1] < k and p not in live]
        for p in stale:
            close(p, open_runs.pop(p))
    for p in sorted(open_runs):
        close(p, open_runs.pop(p))
    events.sort(key=lambda e: (e.start, e.i, e.j))
    return events


def oracle_mobility_features(traj, contacts, L, d_t):
    ivl = interval_of_tick(d_t, traj.tick, traj.horizon)
    T = int(ivl.max()) + 1
    count, speed_sum, lam_sum, tau_sum, tau_cnt = (np.zeros((L, T)) for _ in range(5))
    degree = [np.zeros(len(tr.pos), dtype=np.int32) for tr in traj.tracks]
    for ev in contacts:
        for ti in (ev.i, ev.j):
            tr = traj.tracks[ti]
            degree[ti][ev.start - tr.enter_tick:ev.end - tr.enter_tick + 1] += 1
    for ti, tr in enumerate(traj.tracks):
        ticks = tr.enter_tick + np.arange(len(tr.pos))
        ok = ticks < len(ivl)
        iv = ivl[ticks[ok]]
        keep = iv >= 0
        lk = tr.link[ok][keep]
        iv = iv[keep]
        np.add.at(count, (lk, iv), 1.0)
        np.add.at(speed_sum, (lk, iv), tr.speed[ok][keep])
        np.add.at(lam_sum, (lk, iv), degree[ti][ok][keep].astype(float))
    for ev in contacts:
        if ev.start >= len(ivl) or ivl[ev.start] < 0:
            continue
        iv = ivl[ev.start]
        dur = ev.num_ticks * traj.tick
        for ti in (ev.i, ev.j):
            tr = traj.tracks[ti]
            tau_sum[tr.link[ev.start - tr.enter_tick], iv] += dur
            tau_cnt[tr.link[ev.start - tr.enter_tick], iv] += 1.0
    return count, speed_sum, lam_sum, tau_sum, tau_cnt


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_events(table, events):
    assert table == events
    assert len(table) == len(events)
    for got, want in zip(table, events):
        assert (got.i, got.j, got.start, got.end) == (want.i, want.j, want.start, want.end)
        np.testing.assert_array_equal(_bits(got.dist), _bits(want.dist))


# ---------------------------------------------------------------------------
# random small trajectory sets
# ---------------------------------------------------------------------------

R = 50.0
N_LINKS = 7             # links the random samples sit on; the grid has more
# a 10 m lattice puts many pairs at exactly R (50 m straight, or 30-40-50);
# the offsets of the second half are arbitrary floats
_lattice = st.integers(0, 12).map(lambda v: 10.0 * v)
_coord = st.one_of(_lattice, _lattice, st.floats(0.0, 120.0, allow_nan=False))


@st.composite
def track_lists(draw):
    """(horizon, tracks) of a random small trajectory set."""
    horizon = draw(st.integers(1, 14))
    tracks = []
    for node in range(draw(st.integers(0, 7))):
        enter = draw(st.integers(0, horizon - 1))
        # tracks may run past the horizon
        n = draw(st.integers(1, horizon - enter + 3))
        hold = draw(st.booleans())            # parked: one position throughout
        pts = [(draw(_coord), draw(_coord)) for _ in range(1 if hold else n)]
        pos = np.array(pts * n if hold else pts, dtype=float)
        link = np.array([draw(st.integers(0, N_LINKS - 1)) for _ in range(n)], dtype=np.int64)
        speed = np.array([draw(st.floats(0.0, 20.0)) for _ in range(n)])
        tracks.append(NodeTrack(node=node, enter_tick=enter, pos=pos, speed=speed, link=link))
    return horizon, tracks


@st.composite
def trajectory_sets(draw):
    horizon, tracks = draw(track_lists())
    return TrajectorySet(tick=1.0, horizon=horizon, tracks=tracks)


def _flatten_by_track(tracks):
    """The flat sample layout as loops over the tracks build it: one row
    (track, tick, x, y, speed, link) per sample, track by track."""
    return [(k, tr.enter_tick + r, *tr.pos[r], tr.speed[r], tr.link[r])
            for k, tr in enumerate(tracks) for r in range(len(tr.pos))]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(track_lists())
@example((3, []))
def test_columns_hold_the_tracks_in_order(spec):
    horizon, tracks = spec
    traj = TrajectorySet(tick=1.0, horizon=horizon, tracks=tracks)
    rows = _flatten_by_track(tracks)
    lens = [len(tr.pos) for tr in tracks]
    want = {"enter": [tr.enter_tick for tr in tracks],
            "exit": [tr.enter_tick + n - 1 for tr, n in zip(tracks, lens)],
            "first": [sum(lens[:k]) for k in range(len(tracks))],
            "link": [r[5] for r in rows]}
    for name, values in want.items():
        col = getattr(traj, name)
        assert col.dtype == np.int64 and col.tolist() == values, name
    track, tick = traj.sample_index()
    assert track.dtype == tick.dtype == np.int64
    assert track.tolist() == [r[0] for r in rows] and tick.tolist() == [r[1] for r in rows]
    assert traj.pos.shape == (len(rows), 2) and traj.speed.shape == (len(rows),)
    assert traj.pos.tobytes() == np.array([r[2:4] for r in rows], dtype=float).tobytes()
    assert traj.speed.tobytes() == np.array([r[4] for r in rows], dtype=float).tobytes()

    # the tracks are views into the columns, and the set is built whole
    assert traj.num_tracks == len(traj.tracks) == len(tracks)
    for got, given_track in zip(traj.tracks, tracks):
        assert (got.node, got.enter_tick) == (given_track.node, given_track.enter_tick)
        for name in ("pos", "speed", "link"):
            assert np.array_equal(getattr(got, name), getattr(given_track, name)), name
            assert np.shares_memory(getattr(got, name), getattr(traj, name)), name
    with pytest.raises(AttributeError):
        traj.tracks.append(tracks[0] if tracks else None)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trajectory_sets())
def test_sweep_matches_pair_loop(traj):
    table = detect_contacts(traj, R)
    assert isinstance(table, ContactTable)
    assert_same_events(table, oracle_detect_contacts(traj, R))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(traj=trajectory_sets())
def test_features_from_columns_match_event_loop(grid, traj):
    table = detect_contacts(traj, R)
    d_t = [float(traj.horizon)]
    m = mobility_features(traj, table, grid, d_t)
    count, speed_sum, lam_sum, tau_sum, tau_cnt = oracle_mobility_features(
        traj, list(table), grid.num_links, d_t)
    nonzero = count > 0
    np.testing.assert_array_equal(_bits(m.n), _bits(count / interval_ticks(d_t, 1.0)))
    np.testing.assert_array_equal(
        _bits(m.nu), _bits(np.where(nonzero, speed_sum / np.maximum(count, 1.0), 0.0)))
    np.testing.assert_array_equal(
        _bits(m.lam), _bits(np.where(nonzero, lam_sum / np.maximum(count, 1.0), 0.0)))
    np.testing.assert_array_equal(
        _bits(m.tau), _bits(np.where(tau_cnt > 0, tau_sum / np.maximum(tau_cnt, 1.0), 0.0)))


def test_pair_at_exactly_range_and_resumed_contact():
    # parked at 0 m and 30-40 m away (exactly R), then 60 m, then back
    a = np.zeros((5, 2))
    b = np.array([[30.0, 40.0], [30.0, 40.0], [60.0, 0.0], [50.0, 0.0], [50.0, 0.0]])
    traj = TrajectorySet(tick=1.0, horizon=5, tracks=[
        NodeTrack(0, 0, a, np.zeros(5), np.zeros(5, np.int64)),
        NodeTrack(1, 0, b, np.zeros(5), np.zeros(5, np.int64))])
    table = detect_contacts(traj, R)
    assert [(e.i, e.j, e.start, e.end) for e in table] == [(0, 1, 0, 1), (0, 1, 3, 4)]
    np.testing.assert_array_equal(table.dist, [R] * 4)
    assert_same_events(table, oracle_detect_contacts(traj, R))


def test_desk_contacts_match_pair_loop(desk_traj, desk_contacts):
    assert_same_events(desk_contacts, oracle_detect_contacts(desk_traj, 100.0))


def test_desk_features_bit_identical(grid, desk_traj, desk_contacts):
    d_t = [100.0, 100.0, 100.0]
    m = mobility_features(desk_traj, desk_contacts, grid, d_t)
    count, speed_sum, lam_sum, tau_sum, tau_cnt = oracle_mobility_features(
        desk_traj, list(desk_contacts), grid.num_links, d_t)
    nonzero = count > 0
    np.testing.assert_array_equal(
        _bits(m.nu), _bits(np.where(nonzero, speed_sum / np.maximum(count, 1.0), 0.0)))
    np.testing.assert_array_equal(
        _bits(m.tau), _bits(np.where(tau_cnt > 0, tau_sum / np.maximum(tau_cnt, 1.0), 0.0)))
    np.testing.assert_array_equal(
        _bits(m.lam), _bits(np.where(nonzero, lam_sum / np.maximum(count, 1.0), 0.0)))


# ---------------------------------------------------------------------------
# the table as a sequence of events
# ---------------------------------------------------------------------------

def test_table_behaves_like_event_list(desk_contacts):
    events = list(desk_contacts)
    assert len(events) == len(desk_contacts) > 0
    assert desk_contacts == events and events == desk_contacts
    assert desk_contacts == ContactTable.of(events)
    assert desk_contacts[-1].start == events[-1].start
    e = desk_contacts[3]
    assert e.dist.base is desk_contacts.dist              # a view, not a copy
    assert len(e.dist) == e.num_ticks
    assert sum(ev.end - ev.start + 1 for ev in desk_contacts) == len(desk_contacts.dist)
    assert desk_contacts != events[:-1]
    with pytest.raises(IndexError):
        desk_contacts[len(desk_contacts)]
    assert ContactTable.empty() == [] and ContactTable.of([]) == ContactTable.empty()


def test_table_rejects_mismatched_distances():
    with pytest.raises(ValueError):
        ContactTable([0], [1], [0], [2], np.zeros(2))


# ---------------------------------------------------------------------------
# SimContext built from the table or from a list of events
# ---------------------------------------------------------------------------

def _old_contact_slices(contacts, sim_ticks):
    """SimContext's per-tick contact slices as built from a list of events."""
    c_tick = np.concatenate([np.arange(e.start, e.end + 1) for e in contacts])
    c_event = np.repeat(np.arange(len(contacts)), [e.num_ticks for e in contacts])
    keep = c_tick < sim_ticks
    c_tick, c_event = c_tick[keep], c_event[keep]
    order = np.argsort(c_tick, kind="stable")
    return c_event[order], np.searchsorted(c_tick[order], np.arange(sim_ticks + 1))


CTX_ARRAYS = ("enter", "exit", "offset", "sample_link", "pt_track", "pt_link", "pt_bounds",
              "ev_start", "ev_end", "ev_i", "ev_j", "ev_off", "ev_dist", "ct_event",
              "ct_bounds")


def test_context_reads_the_trajectory_columns(grid, desk_traj, desk_contacts,
                                              capacity_channel):
    ctx = SimContext(grid, desk_traj, desk_contacts, capacity_channel, [150.0, 150.0])
    assert np.shares_memory(ctx.sample_link, desk_traj.link)
    for name, tracks_value in (("enter", [tr.enter_tick for tr in desk_traj.tracks]),
                               ("exit", [tr.enter_tick + len(tr.pos) - 1
                                         for tr in desk_traj.tracks])):
        np.testing.assert_array_equal(getattr(ctx, name), tracks_value, err_msg=name)
    np.testing.assert_array_equal(ctx.sample_link,
                                  np.concatenate([tr.link for tr in desk_traj.tracks]))


@pytest.mark.parametrize("mode", ["instantaneous", "capacity"])
def test_context_from_table_or_list_is_identical(grid, desk_traj, desk_contacts, mode):
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8)
    d_t = [150.0, 150.0]
    a = SimContext(grid, desk_traj, desk_contacts, ch, d_t)
    b = SimContext(grid, desk_traj, list(desk_contacts), ch, d_t)
    for name in CTX_ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    ct_event, ct_bounds = _old_contact_slices(list(desk_contacts), a.sim_ticks)
    np.testing.assert_array_equal(a.ct_event, ct_event)
    np.testing.assert_array_equal(a.ct_bounds, ct_bounds)
    schemes = [all_on(grid.num_links, 2)] + gen_random_schemes(2, grid.num_links, 2, 4, "iid")
    for k, sc in enumerate(schemes):
        x = a.run(sc, zoi=(0, 1, 2), seed=k, record_holders=True)
        y = b.run(sc, zoi=(0, 1, 2), seed=k, record_holders=True)
        for field in ("n", "n_c", "gamma", "v", "seeded", "dropped", "alpha"):
            np.testing.assert_array_equal(getattr(x, field), getattr(y, field), err_msg=field)
        assert x.holder_history == y.holder_history
