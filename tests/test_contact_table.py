"""The columnar contact sweep against the per-tick pair loop it replaced,
and the trajectory columns against the tracks they are built from.

`oracle_detect_contacts` and `oracle_mobility_features` are the earlier
list-of-events implementations, kept as references: the sweep must produce
the same events, the distances `TrajectorySet.distance` recomputes over
each event must be bit for bit the oracle's per-tick distances, and the
features computed from the table's columns must be bit-identical too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floatsim import (ChannelModel, ContactEvent, ContactTable, NodeTrack, SimContext,
                      TrajectorySet, detect_contacts, mobility_features)
from floatsim.mobility import _contact_degree, interval_of_tick, interval_ticks


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
    """(event, per-tick distances) of every episode, by (start, i, j)."""
    present = _presence_index(traj)
    open_runs = {}
    events = []

    def close(pair, run):
        ticks, dists = run
        events.append((ContactEvent(pair[0], pair[1], ticks[0], ticks[-1]), np.array(dists)))

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
    events.sort(key=lambda e: (e[0].start, e[0].i, e[0].j))
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


def event_distances(traj, ev):
    """Per-tick distances of a contact event, recomputed from the positions
    by the helper the capacity engine uses."""
    return traj.distance(ev.i, ev.j, np.arange(ev.start, ev.end + 1))


def assert_same_events(table, traj, oracle):
    assert len(table) == len(oracle)
    for got, (want, dist) in zip(table, oracle):
        assert (got.i, got.j, got.start, got.end) == (want.i, want.j, want.start, want.end)
        np.testing.assert_array_equal(_bits(event_distances(traj, got)), _bits(dist))


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
    assert_same_events(table, traj, oracle_detect_contacts(traj, R))


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
    np.testing.assert_array_equal(np.concatenate([event_distances(traj, e) for e in table]),
                                  [R] * 4)
    assert_same_events(table, traj, oracle_detect_contacts(traj, R))


def test_desk_contacts_match_pair_loop(desk_traj, desk_contacts):
    assert_same_events(desk_contacts, desk_traj, oracle_detect_contacts(desk_traj, 100.0))


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
# the table's rows as events
# ---------------------------------------------------------------------------

def test_table_behaves_like_event_list(desk_contacts):
    # rows read by index or iteration; tables compare column by column
    events = list(desk_contacts)
    assert len(events) == len(desk_contacts) > 0
    assert desk_contacts[-1] == events[-1]
    e = desk_contacts[3]
    assert e == events[3] == ContactEvent(*(int(getattr(desk_contacts, c)[3])
                                            for c in ("i", "j", "start", "end")))
    assert e.num_ticks == desk_contacts.num_ticks[3]
    assert sum(ev.num_ticks for ev in desk_contacts) == desk_contacts.num_ticks.sum()
    cols = [getattr(desk_contacts, c) for c in ("i", "j", "start", "end")]
    assert desk_contacts == ContactTable(*(c.copy() for c in cols))
    assert desk_contacts != ContactTable(*(c[:-1] for c in cols))
    assert desk_contacts != events
    with pytest.raises(IndexError):
        desk_contacts[len(desk_contacts)]
    with pytest.raises(TypeError):
        desk_contacts[1:3]
    assert ContactTable.empty() == ContactTable([], [], [], [])


def test_table_rejects_mismatched_columns():
    with pytest.raises(ValueError, match="differ in length"):
        ContactTable([0], [1], [0, 1], [2])


# ---------------------------------------------------------------------------
# SimContext's contact slices against the per-contact-tick expansion
# ---------------------------------------------------------------------------

def _old_contact_slices(contacts, sim_ticks):
    """SimContext's per-tick contact slices as built from a list of events:
    the events of tick k are ct_event[ct_bounds[k]:ct_bounds[k + 1]]."""
    c_tick = np.array([k for e in contacts for k in range(e.start, e.end + 1)], dtype=np.int64)
    c_event = np.repeat(np.arange(len(contacts)), [e.num_ticks for e in contacts])
    keep = c_tick < sim_ticks
    c_tick, c_event = c_tick[keep], c_event[keep]
    order = np.argsort(c_tick, kind="stable")
    return c_event[order], np.searchsorted(c_tick[order], np.arange(sim_ticks + 1))


def _old_degree(traj, contacts):
    """Per-sample contact counts as `mobility_features` built them: one
    (event, tick) row per contact-tick, counted by bincount per endpoint."""
    length = contacts.num_ticks
    event = np.repeat(np.arange(len(contacts), dtype=np.int64), length)
    off = np.cumsum(length) - length
    tick = np.arange(int(length.sum()), dtype=np.int64) + np.repeat(contacts.start - off,
                                                                     length)
    row_i = traj.first[contacts.i[event]] + tick - traj.enter[contacts.i[event]]
    row_j = traj.first[contacts.j[event]] + tick - traj.enter[contacts.j[event]]
    return (np.bincount(row_i, minlength=len(traj.link))
            + np.bincount(row_j, minlength=len(traj.link)))


def assert_old_contact_slices(ctx, contacts):
    ct_event, ct_bounds = _old_contact_slices(list(contacts), ctx.sim_ticks)
    assert ctx.ct_bounds.dtype == np.int64
    assert ctx.ct_bounds.tolist() == ct_bounds.tolist()
    ticks = list(ctx.open_events())
    assert len(ticks) == ctx.sim_ticks
    for k, events in enumerate(ticks):
        assert events.dtype == np.int64, k
        assert events.tolist() == ct_event[ct_bounds[k]:ct_bounds[k + 1]].tolist(), k


@st.composite
def contact_tables(draw):
    """(trajectory set, contact table, sim_ticks): random events between
    tracks while both are present, sorted by (start, i, j).  Events may be
    one tick long and may start or end past the simulated ticks or the
    horizon; a table may be empty."""
    traj = draw(trajectory_sets())
    sim_ticks = draw(st.integers(1, traj.horizon))
    rows = []
    for _ in range(draw(st.integers(0, 12)) if traj.num_tracks >= 2 else 0):
        a, b = sorted(draw(st.lists(st.integers(0, traj.num_tracks - 1), min_size=2,
                                    max_size=2, unique=True)))
        lo = int(max(traj.enter[a], traj.enter[b]))
        hi = int(min(traj.exit[a], traj.exit[b]))
        if lo <= hi:
            start = draw(st.integers(lo, hi))
            end = draw(st.one_of(st.just(start), st.integers(start, hi)))
            rows.append((start, a, b, end))
    rows.sort()
    cols = [np.array([row[c] for row in rows], dtype=np.int64) for c in range(4)]
    return traj, ContactTable(cols[1], cols[2], cols[0], cols[3]), sim_ticks


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(contact_tables())
@example((TrajectorySet(tick=1.0, horizon=4), ContactTable.empty(), 4))
def test_open_events_and_degree_match_contact_tick_expansion(grid, spec):
    traj, table, sim_ticks = spec
    ch = ChannelModel(1.0e6, 5.0, 3.0, R, mode="instantaneous")
    ctx = SimContext(grid, traj, table, ch, [float(sim_ticks)])
    assert_old_contact_slices(ctx, table)
    degree = _contact_degree(traj, table)
    assert degree.dtype == np.int64
    assert degree.tolist() == _old_degree(traj, table).tolist()


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
    assert_old_contact_slices(ctx, desk_contacts)


def test_contact_events_must_be_in_start_order():
    with pytest.raises(ValueError, match="start order"):
        ContactTable([0, 0], [1, 2], [3, 2], [3, 2])
