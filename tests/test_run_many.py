"""The batched engine against the one-run engine it replaced, plus engine
properties checked through batches of runs.

`engine_oracle.oracle_run` is the earlier `SimContext.run`; every outcome of
`SimContext.run_many` must equal it bit for bit, in both channel modes, for
any mix of schemes and seeds in the batch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floatsim import (ChannelModel, FcScheme, NodeTrack, SimContext, TrajectorySet, all_on,
                      all_zero, detect_contacts, gen_random_schemes, raster_embed, rng)
from floatsim.fcsim import (_FILL_TICKS, LedgerImbalanceError, ShapeError, _rate,
                            _track_slots, _Transfers)
from floatsim.plan import circular_scheme, default_radii
from floatsim.rng import derive_seed
from engine_oracle import dist_of, oracle_keyed_u01, oracle_run

RADIUS = 50.0
N_LINKS = 5              # links the random samples sit on; the grid has more
EDGE_BITS = 1.0e6 * np.log2(1.0 + 10 ** 0.5)     # one tick at the range edge
FIELDS = ("n", "n_c", "gamma", "v", "seeded", "dropped", "alpha")
_lattice = st.integers(0, 5).map(lambda v: 20.0 * v)
_coord = st.one_of(_lattice, st.floats(0.0, 100.0, allow_nan=False))


def assert_same_outcome(got, want):
    for name in FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
    assert got.holder_history == want.holder_history
    assert (got.seed, got.zoi, got.tick) == (want.seed, want.zoi, want.tick)
    assert got.d_t.tobytes() == want.d_t.tobytes()


# ---------------------------------------------------------------------------
# random small scenarios and batches
# ---------------------------------------------------------------------------

@st.composite
def contexts(draw, grid, mode=None):
    horizon = draw(st.integers(2, 14))
    tracks = []
    for node in range(draw(st.integers(0, 8))):
        enter = draw(st.integers(0, horizon - 1))
        n = draw(st.integers(1, horizon - enter + 2))       # may run past the horizon
        parked = draw(st.booleans())
        pts = [(draw(_coord), draw(_coord)) for _ in range(1 if parked else n)]
        pos = np.array(pts * n if parked else pts, dtype=float)
        if draw(st.booleans()):                               # one link throughout
            link = np.full(n, draw(st.integers(0, N_LINKS - 1)), dtype=np.int64)
        else:
            link = np.array([draw(st.integers(0, N_LINKS - 1)) for _ in range(n)],
                            dtype=np.int64)
        tracks.append(NodeTrack(node=node, enter_tick=enter, pos=pos,
                                speed=np.zeros(n), link=link))
    traj = TrajectorySet(tick=1.0, horizon=horizon, tracks=tracks)
    sim = draw(st.integers(1, horizon))
    cuts = sorted(draw(st.sets(st.integers(1, sim - 1), max_size=2))) if sim > 1 else []
    d_t = np.diff([0] + cuts + [sim]).astype(float)
    mode = mode or draw(st.sampled_from(["instantaneous", "capacity"]))
    channel = ChannelModel(1.0e6, 5.0, 3.0, RADIUS, mode=mode,
                           content_bits=EDGE_BITS * draw(st.floats(0.3, 4.0)))
    return SimContext(grid, traj, detect_contacts(traj, RADIUS), channel, d_t)


@st.composite
def crowded_contexts(draw, grid):
    """Capacity-mode scenarios of 6-12 nodes parked within range of each
    other, so senders compete for the same receivers.  The content size is
    such that close pairs move it in one tick and far pairs in several."""
    horizon = draw(st.integers(3, 12))
    tracks = []
    for node in range(draw(st.integers(6, 12))):
        enter = draw(st.integers(0, 2))
        n = draw(st.integers(1, horizon - enter))            # some leave early
        spot = draw(st.sampled_from([(5.0, 5.0), (30.0, 30.0)]) | st.tuples(
            st.floats(0.0, 30.0), st.floats(0.0, 30.0)))    # at most 42.5 m apart
        tracks.append(NodeTrack(node=node, enter_tick=enter,
                                pos=np.tile(np.array(spot, dtype=float), (n, 1)),
                                speed=np.zeros(n),
                                link=np.full(n, draw(st.integers(0, N_LINKS - 1)))))
    traj = TrajectorySet(tick=1.0, horizon=horizon, tracks=tracks)
    sim = draw(st.integers(1, horizon))
    cuts = sorted(draw(st.sets(st.integers(1, sim - 1), max_size=2))) if sim > 1 else []
    d_t = np.diff([0] + cuts + [sim]).astype(float)
    # one tick carries 2.6e6 bits at 42.5 m and 9.97e6 bits at 7 m or less
    channel = ChannelModel(1.0e6, 5.0, 3.0, RADIUS, mode="capacity",
                           content_bits=draw(st.floats(3.0e6, 9.0e6)))
    return SimContext(grid, traj, detect_contacts(traj, RADIUS), channel, d_t)


def _plane(draw, L, T):
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = gen.uniform(0.0, 1.0, (L, T))
    p[gen.uniform(size=(L, T)) < 0.25] = 0.0
    p[gen.uniform(size=(L, T)) < 0.25] = 1.0
    return p


@st.composite
def batches(draw, L, T):
    schemes, seeds = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["on", "zero", "random", "random", "again"]))
        if kind == "again" and schemes:
            schemes.append(schemes[draw(st.integers(0, len(schemes) - 1))])
        elif kind == "on":
            schemes.append(all_on(L, T))
        elif kind == "zero":
            schemes.append(all_zero(L, T))
        else:
            schemes.append(FcScheme(*(_plane(draw, L, T) for _ in range(3))))
        if seeds and draw(st.booleans()):
            seeds.append(draw(st.sampled_from(seeds)))          # a repeated seed
        else:
            seeds.append(draw(st.one_of(st.integers(0, 1000),
                                        st.integers(2 ** 63, 2 ** 64 - 1))))
    return schemes, seeds


# ---------------------------------------------------------------------------
# bit-identity with the one-run engine
# ---------------------------------------------------------------------------

@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_run_many_matches_one_run_engine(grid, data):
    ctx = data.draw(contexts(grid))
    schemes, seeds = data.draw(batches(ctx.L, ctx.T))
    zoi = data.draw(st.one_of(st.none(), st.sets(st.integers(0, N_LINKS - 1), min_size=1)))
    v_first = data.draw(st.one_of(st.none(), st.just(
        np.random.default_rng(len(seeds)).uniform(0.0, 1.0, ctx.L))))
    record = data.draw(st.booleans())
    outs = ctx.run_many(schemes, seeds, zoi=zoi, v_first=v_first, record_holders=record,
                        debug_ledger=True)
    assert len(outs) == len(schemes)
    for sc, sd, out in zip(schemes, seeds, outs):
        assert_same_outcome(out, oracle_run(ctx, sc, zoi=zoi, seed=sd, v_first=v_first,
                                            record_holders=record))
    # a permuted batch gives the permuted outcomes
    perm = data.draw(st.permutations(range(len(schemes))))
    again = ctx.run_many([schemes[p] for p in perm], [seeds[p] for p in perm], zoi=zoi,
                         v_first=v_first, record_holders=record)
    for p, out in zip(perm, again):
        assert_same_outcome(out, outs[p])


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_contended_partner_picks_match_one_run_engine(grid, data):
    ctx = data.draw(crowded_contexts(grid))
    schemes, seeds = data.draw(batches(ctx.L, ctx.T))
    outs = ctx.run_many(schemes, seeds, record_holders=True, debug_ledger=True)
    for sc, sd, out in zip(schemes, seeds, outs):
        assert_same_outcome(out, oracle_run(ctx, sc, seed=sd, record_holders=True))


@pytest.mark.parametrize("mode", ["instantaneous", "capacity"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_debug_ledger_leaves_outcomes_unchanged(grid, data, mode):
    # the per-tick holder deltas are built only for the ledger's checks: a
    # batch run without them ends exactly as the checked one
    scenes = contexts(grid, mode)
    if mode == "capacity":
        scenes = st.one_of(scenes, crowded_contexts(grid))
    ctx = data.draw(scenes)
    schemes, seeds = data.draw(batches(ctx.L, ctx.T))
    zoi = data.draw(st.one_of(st.none(), st.sets(st.integers(0, N_LINKS - 1), min_size=1)))
    v_first = data.draw(st.one_of(st.none(), st.just(
        np.random.default_rng(len(seeds)).uniform(0.0, 1.0, ctx.L))))
    plain = ctx.run_many(schemes, seeds, zoi=zoi, v_first=v_first, record_holders=True)
    checked = ctx.run_many(schemes, seeds, zoi=zoi, v_first=v_first, record_holders=True,
                           debug_ledger=True)
    for got, want in zip(plain, checked):
        assert_same_outcome(got, want)


@pytest.mark.parametrize("mode", ["instantaneous", "capacity"])
def test_desk_batch_matches_one_run_engine(grid, desk_traj, desk_contacts, mode):
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8)
    ctx = SimContext(grid, desk_traj, desk_contacts, ch, [150.0, 150.0])
    gen = np.random.default_rng(4)
    L = grid.num_links
    schemes = [all_on(L, 2), FcScheme(*gen.uniform(0, 1, (3, L, 2))), all_zero(L, 2)]
    seeds = [3, 2 ** 64 - 5, 3]
    outs = ctx.run_many(schemes, seeds, zoi=(0, 1, 2), record_holders=True)
    for sc, sd, out in zip(schemes, seeds, outs):
        assert_same_outcome(out, oracle_run(ctx, sc, zoi=(0, 1, 2), seed=sd,
                                            record_holders=True))
    assert_same_outcome(ctx.run(schemes[1], zoi=(0, 1, 2), seed=seeds[1],
                                record_holders=True), outs[1])


@pytest.mark.parametrize("mode", ["instantaneous", "capacity"])
def test_batch_over_the_head_of_a_trace_matches_one_run_engine(grid, desk_traj,
                                                               desk_contacts, mode):
    # 75 ticks, not a whole number of key-table fills, while tracks keep
    # entering after the last simulated tick
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8)
    ctx = SimContext(grid, desk_traj, desk_contacts, ch, [40.0, 35.0])
    assert ctx.sim_ticks % _FILL_TICKS and desk_traj.enter.max() >= ctx.sim_ticks
    gen = np.random.default_rng(5)
    schemes = [FcScheme(*gen.uniform(0, 1, (3, grid.num_links, 2))) for _ in range(3)]
    seeds = [7, 8, 9]
    outs = ctx.run_many(schemes, seeds, zoi=(0, 1, 2))
    for sc, sd, out in zip(schemes, seeds, outs):
        assert_same_outcome(out, oracle_run(ctx, sc, zoi=(0, 1, 2), seed=sd))


def _planner_shortlist(grid, zoi, T):
    """Candidates shaped like a `plan._plan` shortlist: all-on, the classic,
    float and light anchor zones at 3 radii, 3 mixed random strategies and
    2 perturbations of the first of them."""
    L = grid.num_links
    cands = [all_on(L, T)]
    for radius in default_radii(grid)[1:4]:
        cands += [circular_scheme(grid, zoi, radius, T),
                  circular_scheme(grid, zoi, radius, T, 1.0, 0.9),
                  circular_scheme(grid, zoi, radius, T, 0.6, 0.9)]
    randoms = gen_random_schemes(3, L, T, 5, "mixed", raster_embed(grid, 9, 7))[:3]
    gen = np.random.default_rng(8)
    return cands + randoms + [randoms[0].perturbed(0.1, gen) for _ in range(2)]


@pytest.mark.parametrize("mode", ["instantaneous", "capacity"])
def test_planner_batch_matches_one_run_engine(grid, desk_traj, desk_contacts, mode):
    # every shortlist entry on 2 verify seeds, as `_plan` batches them (30
    # runs); capacity mode takes every fourth run (8)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8)
    ctx = SimContext(grid, desk_traj, desk_contacts, ch, [150.0, 150.0])
    zoi = (0, 1, 2)
    cands = _planner_shortlist(grid, zoi, 2)
    verify_seeds = [derive_seed(9, 701, v) for v in range(2)]
    schemes = [sc for sc in cands for _ in verify_seeds]
    seeds = verify_seeds * len(cands)
    if mode == "capacity":
        schemes, seeds = schemes[::4], seeds[::4]
    # tracks come and go within the run, so the key tables' slots are reused
    assert ctx.n_slots < ctx.traj.num_tracks
    for v_first in (None, np.random.default_rng(3).uniform(0.0, 1.0, ctx.L)):
        outs = ctx.run_many(schemes, seeds, zoi=zoi, v_first=v_first, debug_ledger=True)
        for sc, sd, out in zip(schemes, seeds, outs):
            assert_same_outcome(out, oracle_run(ctx, sc, zoi=zoi, seed=sd, v_first=v_first))


def test_run_many_argument_errors(grid, desk_traj, desk_contacts, instant_channel):
    ctx = SimContext(grid, desk_traj, desk_contacts, instant_channel, [150.0, 150.0])
    L = grid.num_links
    assert ctx.run_many([], []) == []
    with pytest.raises(ValueError, match="seeds"):
        ctx.run_many([all_on(L, 2)], [1, 2])
    with pytest.raises(ShapeError):
        ctx.run_many([all_on(L, 2), all_on(L, 1)], [1, 2])


# ---------------------------------------------------------------------------
# keyed draws
# ---------------------------------------------------------------------------

_u64 = st.integers(0, 2 ** 64 - 1)
_i64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=300, deadline=None)
@given(seed=_u64, kind=st.integers(1, 5), id_a=_i64, id_b=_i64, tick=st.integers(0, 10 ** 7))
def test_scalar_draw_matches_array_draw(seed, kind, id_a, id_b, tick):
    want = oracle_keyed_u01(seed, kind, id_a, id_b, tick)
    prefix = rng.key_prefix(seed, kind)
    assert rng.keyed_u01_at(prefix, id_a, id_b, tick).tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(_u64, min_size=1, max_size=4), kind=st.integers(1, 5),
       ids=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6), tick=st.integers(0, 999))
def test_prefix_draws_broadcast_over_runs(seeds, kind, ids, tick):
    prefix = np.array([rng.key_prefix(s, kind) for s in seeds], dtype=np.uint64)
    got = rng.keyed_u01_at(prefix[:, None], np.array(ids), 0, tick)
    for r, s in enumerate(seeds):
        assert got[r].tobytes() == oracle_keyed_u01(s, kind, np.array(ids), 0, tick).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=_u64, kind=st.integers(1, 5), id_a=_i64, id_b=_i64,
       tick=st.one_of(st.integers(0, 10 ** 7), st.integers(0, 2 ** 63 - 1)))
def test_chained_partial_keys_match_five_round_draw(seed, kind, id_a, id_b, tick):
    want = oracle_keyed_u01(seed, kind, id_a, id_b, tick)
    head = rng.chain(rng.key_prefix(seed, kind), id_a)
    assert rng.u01(rng.chain(rng.chain(head, id_b), tick)).tobytes() == want.tobytes()


@settings(max_examples=50, deadline=None)
@given(seeds=st.lists(_u64, min_size=1, max_size=4), kind=st.integers(1, 5),
       ids=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=6),
       j=st.integers(0, 10 ** 6), tick=st.integers(0, 10 ** 7))
def test_partial_key_tables_broadcast_over_runs(seeds, kind, ids, j, tick):
    # per-(run, slot) tables as run_many fills them: (seed, kind, track)
    # for pair draws and (seed, kind, track, 0) for per-track draws
    heads = np.array([rng.key_prefix(s, kind) for s in seeds], dtype=np.uint64)
    ids = np.array(ids)
    pair = rng.chain(heads[:, None], ids)
    track = rng.u01(rng.chain(rng.chain(pair, 0), tick))
    # a pair draw reads its row's entry from the flat table
    cell = np.arange(len(seeds))[:, None] * len(ids) + np.arange(len(ids))
    drawn = rng.u01(rng.chain(rng.chain(pair.ravel()[cell], j), tick))
    for r, s in enumerate(seeds):
        assert track[r].tobytes() == oracle_keyed_u01(s, kind, ids, 0, tick).tobytes()
        assert drawn[r].tobytes() == oracle_keyed_u01(s, kind, ids, j, tick).tobytes()


@settings(max_examples=200, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 60)),
                      min_size=1, max_size=40),
       lead=st.sampled_from([0, 1, 7, _FILL_TICKS]))
def test_track_slots_are_free_lead_ticks_before_entry(spans, lead):
    enter = np.array([e for e, _ in spans], dtype=np.int64)
    exit = enter + np.array([d for _, d in spans], dtype=np.int64)
    slot, n_slots = _track_slots(enter, exit, lead)
    # two tracks share a slot only if one exits more than lead ticks before
    # the other enters: a fill every lead ticks overwrites no present track
    for x in range(len(spans)):
        for y in range(x + 1, len(spans)):
            if slot[x] == slot[y]:
                assert exit[x] < enter[y] - lead or exit[y] < enter[x] - lead
    # and no fewer slots would do: the most spans enter-lead..exit at a tick
    ticks = np.arange(-lead, 261)
    overlap = ((enter[:, None] - lead <= ticks) & (ticks <= exit[:, None])).sum(axis=0)
    assert n_slots == overlap.max()
    assert set(slot.tolist()) == set(range(n_slots))


# ---------------------------------------------------------------------------
# engine properties, checked on batches
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ledger_balances_and_holders_are_present(grid, data):
    ctx = data.draw(contexts(grid))
    schemes, seeds = data.draw(batches(ctx.L, ctx.T))
    outs = ctx.run_many(schemes, seeds, record_holders=True, debug_ledger=True)
    for out in outs:
        for k, held in enumerate(out.holder_history):
            present = set(ctx.present_at(k)[0].tolist())
            assert held <= present, f"tick {k}: holders {held - present} are not present"
        assert np.all(out.n_c <= out.n)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_monotone_coupling_on_random_schemes(grid, data):
    ctx = data.draw(contexts(grid, "instantaneous"))
    L, T = ctx.L, ctx.T
    low = [_plane(data.draw, L, T) for _ in range(3)]
    lift = [_plane(data.draw, L, T) for _ in range(3)]
    high = [np.clip(p + q, 0.0, 1.0) for p, q in zip(low, lift)]
    seed = data.draw(_u64)
    lo, hi = ctx.run_many([FcScheme(*low), FcScheme(*high)], [seed, seed],
                          record_holders=True)
    for k, (h1, h2) in enumerate(zip(lo.holder_history, hi.holder_history)):
        assert h1 <= h2, f"tick {k}"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_transfer_table_invariants_hold(grid, data):
    # debug_ledger checks the table after every tick: no track in two
    # transfers; senders hold the content and are present; receivers are
    # present and held nothing before the tick's transfers
    ctx = data.draw(st.one_of(contexts(grid, "capacity"), crowded_contexts(grid)))
    schemes, seeds = data.draw(batches(ctx.L, ctx.T))
    ctx.run_many(schemes, seeds, debug_ledger=True)


@pytest.mark.parametrize("corrupt, fault", [
    (lambda x: x + x, "is in two transfers"),
    (lambda x: _Transfers(x.run, x.rcv, x.snd, x.ev, x.bits), "sends content it does not hold"),
])
def test_transfer_checks_name_the_fault(grid, desk_traj, desk_contacts, capacity_channel,
                                        monkeypatch, corrupt, fault):
    ctx = SimContext(grid, desk_traj, desk_contacts, capacity_channel, [150.0, 150.0])
    scheme = FcScheme(*np.random.default_rng(2).uniform(0, 1, (3, grid.num_links, 2)))
    real = SimContext._step_capacity

    def broken(self, *args):
        xfer = real(self, *args)
        return corrupt(xfer) if len(xfer) else xfer

    monkeypatch.setattr(SimContext, "_step_capacity", broken)
    with pytest.raises(LedgerImbalanceError, match=f"run 1: track [0-9]+ {fault}"):
        ctx.run_many([all_zero(grid.num_links, 2), scheme], [1, 4], debug_ledger=True)


def test_transfer_rates_are_scalar_rates(grid, desk_traj, desk_contacts, capacity_channel,
                                         monkeypatch):
    # NumPy's vectorised power and log2 can differ from the scalar ones in
    # the last bit, so every rate a transfer uses must be the scalar _rate
    ctx = SimContext(grid, desk_traj, desk_contacts, capacity_channel, [150.0, 150.0])
    used = []
    real = SimContext._tick_bits

    def spy(self, events, k):
        bits = real(self, events, k)
        used.extend(zip(events.tolist(), [k] * len(events), bits.tolist()))
        return bits

    monkeypatch.setattr(SimContext, "_tick_bits", spy)
    gen = np.random.default_rng(6)
    L = grid.num_links
    ctx.run_many([FcScheme(*gen.uniform(0, 1, (3, L, 2))) for _ in range(4)], [1, 2, 3, 4])
    assert len({(e, k) for e, k, _ in used}) > 1000
    for e, k, bits in used:
        assert bits == _rate(capacity_channel, dist_of(ctx, e, k)) * ctx.tick, (e, k)


def test_ledger_imbalance_names_the_run(grid, desk_traj, desk_contacts, instant_channel,
                                        monkeypatch):
    ctx = SimContext(grid, desk_traj, desk_contacts, instant_channel, [150.0, 150.0])
    L = grid.num_links
    real = SimContext._step_instant

    def leaky(self, events, holds, *args):
        real(self, events, holds, *args)
        holds[:, 1] = False                  # run 1 loses holders off the books

    monkeypatch.setattr(SimContext, "_step_instant", leaky)
    with pytest.raises(LedgerImbalanceError, match="run 1"):
        ctx.run_many([all_on(L, 2), all_on(L, 2)], [1, 2], debug_ledger=True)


def test_running_count_imbalance_names_the_link(grid, desk_traj, desk_contacts,
                                                instant_channel, monkeypatch):
    ctx = SimContext(grid, desk_traj, desk_contacts, instant_channel, [150.0, 150.0])
    L = grid.num_links
    real = SimContext._step_instant

    def miscount(self, events, holds, counts, *args):
        gained = real(self, events, holds, counts, *args)
        counts[1, 3] += 1                   # run 1 counts a holder on link 3 it lacks
        return gained

    monkeypatch.setattr(SimContext, "_step_instant", miscount)
    with pytest.raises(LedgerImbalanceError, match="tick [0-9]+, run 1: link 3 has"):
        ctx.run_many([all_on(L, 2), all_on(L, 2)], [1, 2], debug_ledger=True)
