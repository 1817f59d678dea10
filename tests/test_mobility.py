import json

import numpy as np
import pytest

from floatsim import KMH, SpeedModel, detect_contacts, load_traces, mobility_features, simulate_manhattan
from floatsim import mobility
from floatsim.mobility import (ContactEvent, ContactTable, EmptyTraceError, IntervalRangeError,
                               TraceParseError, _walk_route)
from floatsim.roadnet import build_manhattan, grid_from_json, grid_to_json
from conftest import make_traj


# ---------------------------------------------------------------------------
# synthetic mobility
# ---------------------------------------------------------------------------

def test_zero_rate_gives_empty_trajectory(grid):
    traj = simulate_manhattan(grid, 0.0, SpeedModel.constant(8.0), 100.0, seed=1)
    assert traj.num_tracks == 0


def test_speed_range_unit_conversion(grid):
    traj = simulate_manhattan(grid, 0.1, SpeedModel.uniform(20 * KMH, 30 * KMH),
                              duration=120.0, seed=3)
    assert traj.num_tracks > 0
    for tr in traj.tracks:
        assert 5.55 <= tr.speed[0] <= 8.34


def test_poisson_arrival_counts(grid):
    # one stub's arrival count, averaged over 50 seeds, within 3 sigma
    rate, duration = 0.2, 200.0
    stub = next(ln.id for ln in grid.links if ln.is_border_stub)
    counts = []
    for seed in range(50):
        traj = simulate_manhattan(grid, rate, SpeedModel.constant(8.0),
                                  duration, seed=seed)
        entry_links = [tr.link[0] for tr in traj.tracks]
        counts.append(sum(1 for l in entry_links if l == stub))
    mean = rate * duration
    sigma_of_mean = np.sqrt(mean / 50)
    assert abs(np.mean(counts) - mean) <= 3 * sigma_of_mean


def test_determinism_bit_identical(grid):
    a = simulate_manhattan(grid, 0.05, SpeedModel.uniform(5.0, 9.0), 200.0, seed=42)
    b = simulate_manhattan(grid, 0.05, SpeedModel.uniform(5.0, 9.0), 200.0, seed=42)
    assert a.num_tracks == b.num_tracks
    for ta, tb in zip(a.tracks, b.tracks):
        assert ta.enter_tick == tb.enter_tick
        assert np.array_equal(ta.pos, tb.pos)
        assert np.array_equal(ta.speed, tb.speed)
        assert np.array_equal(ta.link, tb.link)


def test_per_tick_path_distance_matches_speed(grid):
    traj = simulate_manhattan(grid, 0.05, SpeedModel.constant(7.0), 200.0, seed=9)
    for tr in traj.tracks[:20]:
        step = np.linalg.norm(np.diff(tr.pos, axis=0), axis=1)
        # chords never exceed the path length and match it away from turns
        assert np.all(step <= 7.0 + 1e-6)
        same_link = tr.link[:-1] == tr.link[1:]
        interior = same_link.copy()
        if interior.any():
            assert np.all(np.abs(step[same_link] - 7.0) < 7.0 * 0.5 + 1e-6)


def test_nodes_stay_on_links(grid):
    traj = simulate_manhattan(grid, 0.05, SpeedModel.constant(8.0), 150.0, seed=5)
    for tr in traj.tracks:
        d = grid.distances_to_links(tr.pos)
        chosen = d[np.arange(len(tr.pos)), tr.link]
        assert np.all(chosen < 1e-6)


def _walk_route_by_search(grid, stub_id, rng, max_hops=10_000):
    """The walk that searched every intersection at each hop: the reference
    for `_walk_route`, which follows precomputed endpoint ids instead."""
    inter = grid.intersections
    stub = grid.links[stub_id]
    d1 = np.min(np.linalg.norm(inter - np.array(stub.p1), axis=1)) if len(inter) else 1.0
    entry, inner = (stub.p2, stub.p1) if d1 < 1e-9 else (stub.p1, stub.p2)
    points = [entry, inner]
    seg_links = [stub_id]
    cur_link = stub_id
    for _ in range(max_hops):
        here = np.array(points[-1])
        k = int(np.argmin(np.linalg.norm(inter - here, axis=1)))
        if np.linalg.norm(inter[k] - here) > 1e-9:
            break
        options = [lid for lid in grid.adjacency[k] if lid != cur_link]
        if not options:
            options = [cur_link]
        nxt = options[int(rng.integers(len(options)))]
        ln = grid.links[nxt]
        far = ln.p2 if np.allclose(ln.p1, points[-1]) else ln.p1
        points.append(far)
        seg_links.append(nxt)
        cur_link = nxt
    return np.array(points, dtype=float), np.array(seg_links, dtype=np.int64)


def _odd_grid():
    """Three entry stubs, a dead end at (100, 200), and a reversed link whose
    end sits 1e-12 m off its intersection."""
    links = [((0, 0), (100, 0), True), ((100, 0), (100, 100), False),
             ((100, 100), (100, 200), False), ((200, 100), (100, 100 + 1e-12), False),
             ((200, 100), (300, 100), True), ((200, 100), (200, 0), True)]
    return grid_from_json(json.dumps({
        "links": [{"id": n, "x1": p[0], "y1": p[1], "x2": q[0], "y2": q[1], "border_stub": b}
                  for n, (p, q, b) in enumerate(links)],
        "intersections": [{"x": x, "y": y} for x, y in
                          ((100, 0), (100, 100), (200, 100), (100, 200))]}))


_GRIDS = {
    "manhattan_5x4": lambda: build_manhattan(5, 4, 150.0),
    "manhattan_3x6": lambda: build_manhattan(3, 6, 97.3),
    "json_4x4": lambda: grid_from_json(grid_to_json(build_manhattan(4, 4, 120.0))),
    "json_odd": _odd_grid,
}


@pytest.mark.parametrize("name", sorted(_GRIDS))
def test_walk_route_matches_intersection_search(name, monkeypatch):
    grid = _GRIDS[name]()
    stubs = [ln.id for ln in grid.links if ln.is_border_stub]
    for seed in range(6):
        for sid in stubs:
            got_rng, want_rng = np.random.default_rng([seed, sid]), np.random.default_rng([seed, sid])
            got, want = _walk_route(grid, sid, got_rng), _walk_route_by_search(grid, sid, want_rng)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    speed = SpeedModel.uniform(20 * KMH, 30 * KMH)
    runs = []
    for walk in (mobility._walk_route,
                 lambda grid, sid, rng, table=None: _walk_route_by_search(grid, sid, rng)):
        monkeypatch.setattr(mobility, "_walk_route", walk)
        runs.append(simulate_manhattan(grid, 0.1, speed, duration=120.0, seed=3, warmup_s=60.0))
    got, want = runs
    assert len(got.tracks) == len(want.tracks) > 0
    for a, b in zip(got.tracks, want.tracks):
        assert (a.node, a.enter_tick) == (b.node, b.enter_tick)
        for col in ("pos", "speed", "link"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes()


# ---------------------------------------------------------------------------
# trace ingestion
# ---------------------------------------------------------------------------

def test_load_traces_stationary_node(grid, tmp_path):
    mid = grid.links[4].midpoint
    path = tmp_path / "trace.csv"
    rows = ["t,node_id,x,y"] + [f"{t},7,{mid[0]},{mid[1]}" for t in range(10)]
    path.write_text("\n".join(rows) + "\n")
    traj = load_traces(path, grid)
    assert traj.num_tracks == 1
    tr = traj.tracks[0]
    assert len(tr.pos) == 10
    assert np.all(tr.link == 4)
    assert traj.dropped_samples == 0


def test_load_traces_interpolates_missing_tick(grid, tmp_path):
    mid = np.array(grid.links[0].midpoint)
    p0 = mid - [20.0, 0.0]
    p1 = mid + [20.0, 0.0]
    path = tmp_path / "trace.csv"
    path.write_text("t,node_id,x,y\n"
                    f"0,1,{p0[0]},{p0[1]}\n"
                    f"2,1,{p1[0]},{p1[1]}\n")
    traj = load_traces(path, grid)
    tr = traj.tracks[0]
    assert len(tr.pos) == 3
    assert tr.pos[1][0] == pytest.approx(mid[0])
    assert tr.pos[1][1] == pytest.approx(mid[1])


def test_load_traces_parse_error_names_line(grid, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,node_id,x,y\n0,1,10.0,20.0\n1,1,oops,20.0\n")
    with pytest.raises(TraceParseError, match=":3"):
        load_traces(path, grid)


def test_load_traces_empty_file(grid, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,node_id,x,y\n")
    with pytest.raises(EmptyTraceError):
        load_traces(path, grid)


def test_load_traces_drops_off_grid_samples(grid, tmp_path):
    mid = grid.links[2].midpoint
    path = tmp_path / "trace.csv"
    path.write_text("t,node_id,x,y\n"
                    f"0,1,{mid[0]},{mid[1]}\n"
                    f"1,1,75.0,75.0\n"          # mid-block: off every link
                    f"2,1,{mid[0]},{mid[1]}\n")
    traj = load_traces(path, grid)
    assert traj.dropped_samples == 1
    assert traj.num_tracks == 2  # presence split around the gap


# ---------------------------------------------------------------------------
# contacts
# ---------------------------------------------------------------------------

def test_contact_parked_pair_within_range(grid):
    mid = np.array(grid.links[0].midpoint)
    traj = make_traj(grid, [(0, 0, mid - [25.0, 0.0]), (1, 0, mid + [25.0, 0.0])],
                     horizon=40)
    events = detect_contacts(traj, 100.0)
    assert len(events) == 1
    ev = events[0]
    assert (ev.start, ev.end) == (0, 39)
    assert np.allclose(ev.dist, 50.0)


def test_no_contact_beyond_range(grid):
    mid = np.array(grid.links[0].midpoint)
    traj = make_traj(grid, [(0, 0, mid - [75.0, 0.0]), (1, 0, mid + [75.0, 0.0])],
                     horizon=10)
    assert detect_contacts(traj, 100.0) == []


def test_head_on_pass_contact_duration(grid):
    # two nodes closing at 2 * 30 km/h on the same line: in range 2r/v_rel s
    v = 30 * KMH
    y = 150.0
    ticks = np.arange(60)
    xa = 30.0 + v * ticks
    xb = 530.0 - v * ticks
    pos_a = np.stack([xa, np.full_like(xa, y)], axis=1)
    pos_b = np.stack([xb, np.full_like(xb, y)], axis=1)
    traj = make_traj(grid, [(0, 0, pos_a), (1, 0, pos_b)], horizon=60)
    events = detect_contacts(traj, 100.0)
    assert len(events) == 1
    expected = 2 * 100.0 / (2 * v)
    assert abs(events[0].num_ticks - expected) <= 1.0


def test_multi_tick_contact_events_compare_by_value():
    a = ContactEvent(0, 1, 0, 1, np.array([1.0, 2.0]))
    assert a == ContactEvent(0, 1, 0, 1, np.array([1.0, 2.0]))
    assert a != ContactEvent(0, 1, 0, 1, np.array([1.0, 2.5]))
    assert a != ContactEvent(0, 2, 0, 1, np.array([1.0, 2.0]))
    assert a != ContactEvent(0, 1, 1, 2, np.array([1.0, 2.0]))
    assert a != "not an event"
    b = ContactEvent(2, 3, 4, 6, np.array([5.0, 6.0, 7.0]))
    same = [ContactEvent(0, 1, 0, 1, np.array([1.0, 2.0])),
            ContactEvent(2, 3, 4, 6, np.array([5.0, 6.0, 7.0]))]
    assert [a, b] == same
    assert [a, b] != [a, ContactEvent(2, 3, 4, 6, np.array([5.0, 6.0, 7.5]))]
    assert ContactTable.of([a, b]) == same
    assert ContactTable.of([a, b]) != [b, a]


def test_contacts_symmetric_and_disjoint(desk_traj, desk_contacts):
    seen = {}
    for ev in desk_contacts:
        assert ev.i < ev.j
        assert len(ev.dist) == ev.num_ticks
        assert np.all(ev.dist <= 100.0)
        for k in range(ev.start, ev.end + 1):
            key = (ev.i, ev.j, k)
            assert key not in seen, "overlapping events for one pair"
            seen[key] = True


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_features_single_parked_node(grid):
    mid = grid.links[2].midpoint
    traj = make_traj(grid, [(0, 0, np.array(mid))], horizon=50)
    m = mobility_features(traj, detect_contacts(traj, 100.0), grid, [50.0])
    assert m.n[2, 0] == pytest.approx(1.0)
    assert m.lam[2, 0] == 0.0
    assert m.tau[2, 0] == 0.0
    assert m.nu[2, 0] == 0.0
    assert not m.empty[2, 0]
    assert m.empty[5, 0]


def test_features_two_parked_nodes_in_contact(grid):
    mid = np.array(grid.links[2].midpoint)
    traj = make_traj(grid, [(0, 0, mid - [10.0, 0]), (1, 0, mid + [10.0, 0])],
                     horizon=100)
    m = mobility_features(traj, detect_contacts(traj, 100.0), grid, [100.0])
    assert m.lam[2, 0] == pytest.approx(1.0)
    assert m.tau[2, 0] == pytest.approx(100.0)
    assert m.n[2, 0] == pytest.approx(2.0)


def test_features_match_brute_force(grid, desk_traj, desk_contacts):
    d_t = [100.0, 100.0, 100.0]
    m = mobility_features(desk_traj, desk_contacts, grid, d_t)

    # independent single-pass oracle over raw samples
    L, T = grid.num_links, 3
    count = np.zeros((L, T)); speed = np.zeros((L, T)); lam = np.zeros((L, T))
    tau_s = np.zeros((L, T)); tau_c = np.zeros((L, T))
    deg = {}
    for ev in desk_contacts:
        for k in range(ev.start, ev.end + 1):
            deg[(ev.i, k)] = deg.get((ev.i, k), 0) + 1
            deg[(ev.j, k)] = deg.get((ev.j, k), 0) + 1
    for ti, tr in enumerate(desk_traj.tracks):
        for row in range(len(tr.pos)):
            k = tr.enter_tick + row
            if k >= 300:
                continue
            t = int(k // 100)
            l = tr.link[row]
            count[l, t] += 1
            speed[l, t] += tr.speed[row]
            lam[l, t] += deg.get((ti, int(k)), 0)
    for ev in desk_contacts:
        t = int(ev.start // 100)
        dur = ev.num_ticks * 1.0
        for ti in (ev.i, ev.j):
            tr = desk_traj.tracks[ti]
            l = tr.link[ev.start - tr.enter_tick]
            tau_s[l, t] += dur
            tau_c[l, t] += 1
    np.testing.assert_allclose(m.n, count / 100.0, atol=1e-12)
    nz = count > 0
    np.testing.assert_allclose(m.nu[nz], (speed / np.maximum(count, 1))[nz], atol=1e-12)
    np.testing.assert_allclose(m.lam[nz], (lam / np.maximum(count, 1))[nz], atol=1e-12)
    tz = tau_c > 0
    np.testing.assert_allclose(m.tau[tz], (tau_s / np.maximum(tau_c, 1))[tz], atol=1e-12)


def test_every_sample_counted_once(grid, desk_traj, desk_contacts):
    d_t = [300.0]
    m = mobility_features(desk_traj, desk_contacts, grid, d_t)
    total_samples = sum(min(tr.enter_tick + len(tr.pos) - 1, 299) - tr.enter_tick + 1
                        for tr in desk_traj.tracks)
    assert m.n.sum() * 300.0 == pytest.approx(total_samples)


def test_interval_partition_beyond_duration(grid, desk_traj, desk_contacts):
    with pytest.raises(IntervalRangeError):
        mobility_features(desk_traj, desk_contacts, grid, [400.0])
