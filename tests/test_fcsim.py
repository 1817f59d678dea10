import numpy as np
import pytest

from floatsim import (ChannelModel, FcScheme, SimContext, all_on, all_zero, capacity,
                      detect_contacts, run_fc, success_ratio)
from floatsim.fcsim import ChannelRangeError, ShapeError, SimOutcome, UndefinedRatioError
from floatsim.linktable import write_table
from floatsim.roadnet import build_manhattan
from conftest import make_traj

MB8 = 8 * 2 ** 20 * 8  # 8 MB in bits


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_capacity_at_edge(instant_channel):
    # B log2(1 + 10^(5/10)) at d = r
    assert capacity(instant_channel, 100.0) == pytest.approx(2.0574e6, rel=1e-3)


def test_capacity_limits_and_errors(instant_channel):
    weak = ChannelModel(1.0e6, -80.0, 3.0, 100.0)
    assert capacity(weak, 100.0) < 20.0
    with pytest.raises(ChannelRangeError):
        capacity(instant_channel, 100.0001)
    with pytest.raises(ValueError):
        capacity(instant_channel, 0.0)
    with pytest.raises(ValueError):
        capacity(instant_channel, -5.0)


@pytest.mark.parametrize("radius", [0.0, -5.0, float("nan"), float("inf")])
def test_channel_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ValueError, match="positive and finite"):
        ChannelModel(1.0e6, 5.0, 3.0, radius)


def test_capacity_cap_near_zero_distance(instant_channel):
    # SINR capped at 30 dB: capacity stops growing as d -> 0
    assert capacity(instant_channel, 1e-6) == pytest.approx(
        1.0e6 * np.log2(1 + 1000.0), rel=1e-9)


def test_eight_megabyte_transfer_duration():
    grid = build_manhattan(2, 2, 100.0)
    # sender parked on link 0, receiver on link 1, exactly r apart
    traj = make_traj(grid, [(0, 0, np.array([50.0, 100.0])),
                            (1, 0, np.array([150.0, 100.0]))], horizon=40)
    contacts = detect_contacts(traj, 100.0)
    assert len(contacts) == 1
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="capacity", content_bits=MB8)
    L = grid.num_links
    s = np.zeros((L, 1))
    s[0, 0] = 1.0
    scheme = FcScheme(np.ones((L, 1)), np.ones((L, 1)), s)
    out = run_fc(traj, contacts, scheme, ch, [40.0], grid=grid, seed=2,
                 record_holders=True, debug_ledger=True)
    first_held = next(k for k, h in enumerate(out.holder_history) if 1 in h)
    expected = MB8 / capacity(ch, 100.0)
    assert abs(first_held - expected) <= 1.0
    # the sender transmitted during every transfer tick
    assert out.gamma[0, 0, 0] == pytest.approx(first_held / 40.0)


# ---------------------------------------------------------------------------
# epidemic rules, hand-traceable scenarios
# ---------------------------------------------------------------------------

def test_single_seed_spreads_to_permanent_contact(grid):
    mid = np.array(grid.links[0].midpoint)
    traj = make_traj(grid, [(0, 0, mid - [10.0, 0.0]), (1, 0, mid + [10.0, 0.0])],
                     horizon=10)
    contacts = detect_contacts(traj, 100.0)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    L = grid.num_links
    s = np.zeros((L, 1))
    s[0, 0] = 0.5              # two nodes on the link: round(0.5 * 2) = 1 seeded
    scheme = FcScheme(np.ones((L, 1)), np.ones((L, 1)), s)
    out = run_fc(traj, contacts, scheme, ch, [10.0], grid=grid, seed=7,
                 record_holders=True, debug_ledger=True)
    assert len(out.holder_history[0]) == 1
    for h in out.holder_history[1:]:
        assert len(h) == 2
    assert int(out.seeded[0, 0]) == 1
    assert out.n_c[0, 0] == pytest.approx((1 + 9 * 2) / 10.0)


def test_all_zero_scheme_stays_empty(grid, desk_traj, desk_contacts, instant_channel):
    out = run_fc(desk_traj, desk_contacts, all_zero(grid.num_links, 1),
                 instant_channel, [300.0], grid=grid, seed=1, debug_ledger=True)
    assert out.n_c.sum() == 0.0
    assert out.gamma.sum() == 0.0
    assert out.seeded.sum() == 0


def test_hand_trace_discard_everything():
    # a=1, b=0: every transfer is attempted and every copy is discarded;
    # the lone seeded holder keeps transmitting, nobody ever gains content.
    grid = build_manhattan(2, 2, 100.0)
    traj = make_traj(grid, [(0, 0, np.array([50.0, 100.0])),     # link 0, seeded
                            (1, 0, np.array([110.0, 100.0])),    # link 1
                            (2, 0, np.array([150.0, 100.0]))],   # link 1
                     horizon=6)
    contacts = detect_contacts(traj, 100.0)
    assert len(contacts) == 3  # all pairs in range
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    L = grid.num_links
    s = np.zeros((L, 1))
    s[0, 0] = 1.0
    scheme = FcScheme(np.ones((L, 1)), np.zeros((L, 1)), s)
    out = run_fc(traj, contacts, scheme, ch, [6.0], grid=grid, seed=3,
                 record_holders=True, debug_ledger=True)
    assert all(h == frozenset({0}) for h in out.holder_history)
    assert out.n_c[0, 0] == pytest.approx(1.0)
    assert out.n_c[1, 0] == 0.0
    assert out.gamma[0, 0, 0] == pytest.approx(1.0)   # one transmitting node every tick
    assert out.dropped.sum() == 0                     # discards never held content


def test_hand_trace_entry_drop():
    # b=0 means content dies on the first link change
    grid = build_manhattan(2, 2, 100.0)
    xs = np.array([95.0, 105.0, 115.0, 125.0])
    pos = np.stack([xs, np.full_like(xs, 100.0)], axis=1)
    traj = make_traj(grid, [(0, 0, pos)], horizon=4)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    L = grid.num_links
    s = np.zeros((L, 1))
    s[0, 0] = 1.0
    scheme = FcScheme(np.ones((L, 1)), np.zeros((L, 1)), s)
    out = run_fc(traj, [], scheme, ch, [4.0], grid=grid, seed=5,
                 record_holders=True, debug_ledger=True)
    assert out.holder_history[0] == frozenset({0})    # seeded on link 0
    assert out.holder_history[1] == frozenset()       # entered link 1, dropped
    assert int(out.dropped[1, 0]) == 1
    assert out.n_c[0, 0] == pytest.approx(1 / 4.0)


def test_exact_seeding_drops_down():
    grid = build_manhattan(2, 2, 100.0)
    mid = np.array(grid.links[0].midpoint)
    tracks = [(i, 0, mid + [float(i), 0.0]) for i in range(4)]
    traj = make_traj(grid, tracks, horizon=4)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    L = grid.num_links
    a = np.zeros((L, 2))
    s = np.zeros((L, 2))
    s[0, 0] = 1.0    # all four seeded in interval 1
    s[0, 1] = 0.5    # clamped down to two at interval 2
    scheme = FcScheme(a, a.copy(), s)
    out = run_fc(traj, [], scheme, ch, [2.0, 2.0], grid=grid, seed=1,
                 record_holders=True, debug_ledger=True)
    assert len(out.holder_history[0]) == 4
    assert len(out.holder_history[2]) == 2
    assert int(out.dropped[0, 1]) == 2
    assert out.v[0, 1] == pytest.approx(1.0)   # carried availability before clamp


def test_floor_seeding_never_drops():
    grid = build_manhattan(2, 2, 100.0)
    mid = np.array(grid.links[0].midpoint)
    tracks = [(i, 0, mid + [float(i), 0.0]) for i in range(4)]
    traj = make_traj(grid, tracks, horizon=4)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    L = grid.num_links
    a = np.zeros((L, 2))
    s = np.zeros((L, 2))
    s[0, 0] = 1.0
    s[0, 1] = 0.5
    scheme = FcScheme(a, a.copy(), s)
    out = run_fc(traj, [], scheme, ch, [2.0, 2.0], grid=grid, seed=1,
                 seeding_mode="floor", record_holders=True, debug_ledger=True)
    assert all(len(h) == 4 for h in out.holder_history)
    assert out.dropped.sum() == 0


def test_departure_drops_content(grid, instant_channel):
    mid = np.array(grid.links[0].midpoint)
    traj = make_traj(grid, [(0, 0, np.tile(mid, (3, 1)))], horizon=6)
    L = grid.num_links
    s = np.zeros((L, 1))
    s[0, 0] = 1.0
    scheme = FcScheme(np.zeros((L, 1)), np.zeros((L, 1)), s)
    out = run_fc(traj, [], scheme, instant_channel, [6.0], grid=grid, seed=1,
                 record_holders=True, debug_ledger=True)
    assert out.holder_history[2] == frozenset({0})
    assert out.holder_history[3] == frozenset()
    assert int(out.dropped[0, 0]) == 1


# ---------------------------------------------------------------------------
# measurements and invariants
# ---------------------------------------------------------------------------

def test_outcome_bounds_and_v(grid, desk_traj, desk_contacts, instant_channel):
    rng = np.random.default_rng(8)
    scheme = FcScheme(*rng.uniform(0, 1, (3, grid.num_links, 3)))
    out = run_fc(desk_traj, desk_contacts, scheme, instant_channel,
                 [100.0, 100.0, 100.0], grid=grid, seed=4, debug_ledger=True)
    assert np.all(out.n_c <= out.n + 1e-12)
    assert np.all(out.gamma[:, :, 0] <= out.n + 1e-12)
    assert np.all(out.v[:, 0] == 0.0)
    for t in (1, 2):
        expect = np.where(out.n[:, t - 1] > 0,
                          out.n_c[:, t - 1] / np.maximum(out.n[:, t - 1], 1e-300), 0.0)
        np.testing.assert_allclose(out.v[:, t], expect, atol=1e-12)


def test_determinism_bit_identical(tmp_path, grid, desk_traj, desk_contacts,
                                   instant_channel):
    rng = np.random.default_rng(3)
    scheme = FcScheme(*rng.uniform(0, 1, (3, grid.num_links, 2)))
    ctx = SimContext(grid, desk_traj, desk_contacts, instant_channel, [150.0, 150.0])
    a = ctx.run(scheme, zoi=[0, 1], seed=99)
    b = ctx.run(scheme, zoi=[0, 1], seed=99)
    for field in ("n", "n_c", "gamma", "v", "seeded", "dropped", "alpha"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    # so is the outcome table `evaluate` writes
    for name, out in (("a.csv", a), ("b.csv", b)):
        write_table(tmp_path / name, {"n": out.n, "n_c": out.n_c,
                                      "gamma": out.gamma.sum(axis=2), "v": out.v,
                                      "seeded": out.seeded, "dropped": out.dropped})
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_monotone_coupling_sample(grid, desk_traj, desk_contacts, instant_channel):
    ctx = SimContext(grid, desk_traj, desk_contacts, instant_channel, [150.0, 150.0])
    rng = np.random.default_rng(12)
    for trial in range(20):
        low = rng.uniform(0, 1, (3, grid.num_links, 2))
        high = np.clip(low + rng.uniform(0, 1, low.shape), 0, 1)
        o1 = ctx.run(FcScheme(*low), seed=trial, record_holders=True)
        o2 = ctx.run(FcScheme(*high), seed=trial, record_holders=True)
        for h1, h2 in zip(o1.holder_history, o2.holder_history):
            assert h1 <= h2


def test_scheme_shape_mismatch(grid, desk_traj, desk_contacts, instant_channel):
    with pytest.raises(ShapeError):
        run_fc(desk_traj, desk_contacts, all_on(grid.num_links, 2), instant_channel,
               [300.0], grid=grid)


def test_capacity_mode_needs_content_size(grid, desk_traj, desk_contacts):
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="capacity")
    with pytest.raises(ValueError, match="content_bits"):
        run_fc(desk_traj, desk_contacts, all_on(grid.num_links, 1), ch, [300.0],
               grid=grid)


# ---------------------------------------------------------------------------
# success ratio
# ---------------------------------------------------------------------------

def _manual_outcome(n, n_c) -> SimOutcome:
    n = np.asarray(n, dtype=float)
    n_c = np.asarray(n_c, dtype=float)
    L, T = n.shape
    return SimOutcome(n=n, n_c=n_c, gamma=np.zeros((L, T, 1)), v=np.zeros((L, T)),
                      seeded=np.zeros((L, T), dtype=int),
                      dropped=np.zeros((L, T), dtype=int),
                      d_t=np.full(T, 100.0), tick=1.0, seed=0)


def test_success_ratio_hand_value():
    out = _manual_outcome([[10.0], [5.0]], [[9.0], [3.0]])
    assert success_ratio(out, [0, 1], 1) == pytest.approx(12.0 / 15.0)


def test_success_ratio_full_availability():
    out = _manual_outcome([[4.0], [2.0]], [[4.0], [2.0]])
    assert success_ratio(out, [0, 1], 1) == 1.0


def test_success_ratio_empty_zoi():
    out = _manual_outcome([[10.0], [0.0]], [[9.0], [0.0]])
    with pytest.raises(UndefinedRatioError):
        success_ratio(out, [1], 1)
