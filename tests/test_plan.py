import numpy as np
import pytest

from floatsim import (ChannelModel, ContactTable, CostWeights, ServiceRequest, SimContext,
                      all_on, build_dataset, detect_contacts, gen_random_schemes,
                      is_feasible, mobility_features, raster_embed, scheme_cost,
                      simulate_manhattan, SpeedModel, KMH)
from floatsim import plan
from floatsim.learn import SurrogateHyper, train_surrogate
from floatsim.plan import (PlannerOptions, ProblemInfeasibleError, ReplanRangeError,
                           bootstrap, circular_az_baseline, circular_scheme,
                           default_radii, full_infrastructure_baseline, replan, verify)
from floatsim.dataset import link_inputs
from floatsim.rng import derive_seed
from floatsim.scheme import zoi_alpha
from conftest import make_traj


@pytest.fixture(scope="module")
def planning(grid):
    """Trained surrogate plus verifier on a two-interval desk scenario."""
    emb = raster_embed(grid, 9, 7)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    train_traj = simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH),
                                    1200.0, seed=50, warmup_s=200.0)
    schemes = gen_random_schemes(30, grid.num_links, 4, seed=61, embedding=emb)
    pairs = build_dataset(train_traj, grid, [300.0] * 4, schemes, ch, seed=62)
    res = train_surrogate(pairs, emb, hyper=SurrogateHyper(epochs=20, folds=2,
                                                           learning_rate=0.1, seed=1))
    live_traj = simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH),
                                   600.0, seed=51, warmup_s=200.0)
    contacts = detect_contacts(live_traj, 100.0)
    verifier = SimContext(grid, live_traj, contacts, ch, [300.0, 300.0])
    forecast = mobility_features(live_traj, contacts, grid, [300.0, 300.0])
    req = ServiceRequest(zoi=(0, 1, 2), alpha0=0.9, d_t=np.array([300.0, 300.0]))
    w = CostWeights(d_t=req.d_t, content_bits=8 * 2 ** 20 * 8.0)
    return res.model, verifier, forecast, req, w


def _allon_verified_cost(verifier, req, w, seed, opts):
    costs = []
    scheme = all_on(verifier.L, len(w.d_t))
    for v_i in range(opts.verify_seeds):
        out = verifier.run(scheme, zoi=req.zoi, seed=derive_seed(seed, 701, v_i))
        costs.append(scheme_cost(out, scheme, w))
    return float(np.mean(costs))


def test_bootstrap_never_beats_all_on_but_tries(planning):
    model, verifier, forecast, req, w = planning
    opts = PlannerOptions(n_candidates=12, verify_top_k=4, verify_seeds=2)
    result = bootstrap(model, forecast, req, w, opts, verifier, seed=3)
    assert np.all(result.alpha >= req.alpha0)
    allon_cost = _allon_verified_cost(verifier, req, w, 3, opts)
    assert result.verified_cost <= allon_cost + 1e-9
    assert result.examined >= 12
    assert result.verified >= 1
    assert result.wall_clock_s > 0


def test_bootstrap_fallback_when_margin_blocks_everything(planning, monkeypatch):
    # no structured slots, and the probation band's floor at the margin bar,
    # so the band is empty: the margin filter alone decides
    model, verifier, forecast, req, w = planning
    monkeypatch.setattr(plan, "MARGIN", 50.0)
    monkeypatch.setattr(plan, "BAND_MARGIN", -50.0)
    monkeypatch.setattr(plan, "VERIFY_STRUCT_K", 0)
    opts = PlannerOptions(n_candidates=6, verify_top_k=3, verify_seeds=2)
    result = bootstrap(model, forecast, req, w, opts, verifier, seed=4)
    assert result.fallback
    assert np.all(result.scheme.a == 1.0)
    assert np.all(result.scheme.s == 1.0)
    assert result.filtered == 0


def test_bootstrap_deterministic(planning):
    model, verifier, forecast, req, w = planning
    opts = PlannerOptions(n_candidates=8, verify_top_k=3, verify_seeds=2)
    r1 = bootstrap(model, forecast, req, w, opts, verifier, seed=8)
    r2 = bootstrap(model, forecast, req, w, opts, verifier, seed=8)
    assert np.array_equal(r1.scheme.a, r2.scheme.a)
    assert np.array_equal(r1.scheme.s, r2.scheme.s)
    assert r1.verified_cost == r2.verified_cost
    assert np.array_equal(r1.alpha, r2.alpha)


def test_bootstrap_monotone_in_target(planning):
    model, verifier, forecast, req, w = planning
    opts = PlannerOptions(n_candidates=10, verify_top_k=4, verify_seeds=2)
    costs = []
    for alpha0 in (0.5, 0.7, 0.9):
        r = ServiceRequest(zoi=req.zoi, alpha0=alpha0, d_t=req.d_t)
        costs.append(bootstrap(model, forecast, r, w, opts, verifier,
                               seed=5).verified_cost)
    assert costs[0] <= costs[1] + 1e-9 <= costs[2] + 2e-9


def test_bootstrap_rejects_empty_zoi_traffic(planning, grid):
    model, verifier, forecast, req, w = planning
    # a ZOI nobody ever visits makes even all-on undefined -> infeasible
    lonely = make_traj(grid, [(0, 0, np.array(grid.links[5].midpoint))], horizon=600)
    ctx = SimContext(grid, lonely, ContactTable.empty(), verifier.channel, [300.0, 300.0])
    m = mobility_features(lonely, ContactTable.empty(), grid, [300.0, 300.0])
    with pytest.raises(ProblemInfeasibleError):
        bootstrap(model, m, req, w, PlannerOptions(n_candidates=4, verify_seeds=1),
                  ctx, seed=1)


def test_bootstrap_infeasible_when_target_unreachable(planning, grid):
    model, verifier, forecast, req, w = planning
    # an isolated parked node in the ZOI that never meets anyone caps alpha < 1
    mid = np.array(grid.links[1].midpoint)
    lonely = make_traj(grid, [(0, 0, mid)], horizon=600)
    ctx = SimContext(grid, lonely, ContactTable.empty(), verifier.channel, [300.0, 300.0])
    m = mobility_features(lonely, ContactTable.empty(), grid, [300.0, 300.0])
    # ZOI includes links 1 (occupied, seedable) and 2 (never seeded, empty)...
    # target 1.0 with an all-zero s on the lonely link is unreachable only if
    # seeding misses it; with all-on it IS seeded, so use alpha0 = 1.0 and a
    # node that leaves mid-interval instead.
    walk = np.stack([np.linspace(150.0, 440.0, 30), np.full(30, 150.0)], axis=1)
    mover = make_traj(grid, [(0, 0, walk)], horizon=600)
    ctx2 = SimContext(grid, mover, ContactTable.empty(), verifier.channel, [300.0, 300.0])
    m2 = mobility_features(mover, ContactTable.empty(), grid, [300.0, 300.0])
    req2 = ServiceRequest(zoi=(0, 1, 2), alpha0=1.0, d_t=req.d_t)
    with pytest.raises(ProblemInfeasibleError):
        bootstrap(model, m2, req2, w, PlannerOptions(n_candidates=4, verify_seeds=1),
                  ctx2, seed=1)


# ---------------------------------------------------------------------------
# replanning
# ---------------------------------------------------------------------------

def test_replan_never_costs_more_than_feasible_incumbent(planning):
    model, verifier, forecast, req, w = planning
    opts = PlannerOptions(n_candidates=10, verify_top_k=4, verify_seeds=2)
    first = bootstrap(model, forecast, req, w, opts, verifier, seed=6)

    live = verifier.run(first.scheme, zoi=req.zoi, seed=999)
    rest = SimContext(verifier.grid, verifier.traj, verifier.contacts,
                      verifier.channel, [300.0])
    m_rest = mobility_features(verifier.traj, verifier.contacts, verifier.grid,
                               [300.0])
    second = replan(model, live, m_rest, req, w, opts, rest, t0=2, seed=6,
                    incumbent=first.scheme)

    # incumbent tail cost measured with the replanner's own paired seeds
    v0 = np.where(live.n[:, 0] > 0, live.n_c[:, 0] / np.maximum(live.n[:, 0], 1e-300), 0.0)
    w_rest = CostWeights(d_t=np.array([300.0]), content_bits=w.content_bits)
    req_rest = ServiceRequest(zoi=req.zoi, alpha0=req.alpha0, d_t=np.array([300.0]))
    tail = first.scheme.tail(2)
    costs, feas = [], True
    for v_i in range(opts.verify_seeds):
        out = rest.run(tail, zoi=req.zoi, seed=derive_seed(6, 701, v_i),
                       v_first=np.clip(v0, 0, 1))
        costs.append(scheme_cost(out, tail, w_rest))
        feas = feas and is_feasible(out, req_rest)
    if feas:
        assert second.verified_cost <= np.mean(costs) + 1e-9


def test_replan_zero_seeding_when_covered(planning, grid):
    model, verifier, forecast, req, w = planning
    # carried availability 1.0 everywhere makes s = 1 free at the replan start
    L = grid.num_links
    from floatsim.fcsim import SimOutcome
    live = SimOutcome(n=np.ones((L, 1)), n_c=np.ones((L, 1)),
                      gamma=np.zeros((L, 1, 1)), v=np.zeros((L, 1)),
                      seeded=np.zeros((L, 1), dtype=int),
                      dropped=np.zeros((L, 1), dtype=int),
                      d_t=np.array([300.0]), tick=1.0, seed=0)
    rest = SimContext(verifier.grid, verifier.traj, verifier.contacts,
                      verifier.channel, [300.0])
    m_rest = mobility_features(verifier.traj, verifier.contacts, verifier.grid, [300.0])
    opts = PlannerOptions(n_candidates=6, verify_top_k=3, verify_seeds=1)
    result = replan(model, live, m_rest, req, w, opts, rest, t0=2, seed=9,
                    incumbent=all_on(L, 2))
    out = rest.run(result.scheme, zoi=req.zoi, seed=derive_seed(9, 701, 0),
                   v_first=np.ones(L))
    w_rest = CostWeights(d_t=np.array([300.0]), content_bits=w.content_bits)
    seeding_term = w.content_bits * np.maximum(result.scheme.s - out.v, 0).sum()
    full_cost = scheme_cost(out, result.scheme, w_rest)
    no_seed_cost = scheme_cost(out, result.scheme,
                               CostWeights(d_t=np.array([300.0]),
                                           content_bits=w.content_bits, delta=0.0))
    if np.all(result.scheme.s[:, 0] <= 1.0):
        assert seeding_term == pytest.approx(full_cost - no_seed_cost, abs=1e-6)
    assert full_cost - no_seed_cost == pytest.approx(0.0, abs=1e-9)


def test_denser_traffic_shrinks_active_region(planning, grid):
    # with more vehicles around the ZOI, fewer links need full replication:
    # the chosen strategy's active region shrinks (trend over seeds)
    model, _, _, req, w = planning
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    opts = PlannerOptions(n_candidates=8, verify_top_k=4, verify_seeds=2)
    shrunk = 0
    trials = 4
    for i in range(trials):
        sizes = []
        for rate in (0.04, 0.09):
            traj = simulate_manhattan(grid, rate, SpeedModel.uniform(20 * KMH, 30 * KMH),
                                      600.0, seed=300 + i, warmup_s=200.0)
            contacts = detect_contacts(traj, 100.0)
            ver = SimContext(grid, traj, contacts, ch, req.d_t)
            forecast = mobility_features(traj, contacts, grid, req.d_t)
            plan = bootstrap(model, forecast, req, w, opts, ver, seed=i)
            sizes.append(int((plan.scheme.a > 0.5).any(axis=1).sum()))
        if sizes[1] <= sizes[0]:
            shrunk += 1
    assert shrunk >= trials // 2


def test_replan_range_errors(planning):
    model, verifier, forecast, req, w = planning
    rest = SimContext(verifier.grid, verifier.traj, verifier.contacts,
                      verifier.channel, [300.0])
    m_rest = mobility_features(verifier.traj, verifier.contacts, verifier.grid, [300.0])
    live = verifier.run(all_on(verifier.L, 2), zoi=req.zoi, seed=1)
    opts = PlannerOptions(n_candidates=4, verify_seeds=1)
    with pytest.raises(ReplanRangeError):
        replan(model, live, m_rest, req, w, opts, rest, t0=1, seed=1)
    with pytest.raises(ReplanRangeError):
        replan(model, live, m_rest, req, w, opts, rest, t0=3, seed=1)


# ---------------------------------------------------------------------------
# pool scoring
# ---------------------------------------------------------------------------

def _lone_score(model, m, scheme, req, w, v_first):
    """One strategy scored on its own, as the planner scored every candidate
    before pool scoring: a forward pass of its own rasters, the availability
    it carries, its ZOI success ratio and the cost formula written out."""
    x = model.embedding.rasterize(link_inputs(model.normalizer, m, scheme).transpose(2, 0, 1))
    out = model.forward(x.transpose(0, 2, 3, 1))
    ratio = model.embedding.unrasterize(out.transpose(3, 0, 1, 2)).transpose(0, 2, 1)
    n_c, gamma = np.ascontiguousarray(ratio) * m.n
    v = np.zeros(n_c.shape)
    if v_first is not None:
        v[:, 0] = v_first
    v[:, 1:] = np.clip(np.where(m.n[:, :-1] > 0,
                                n_c[:, :-1] / np.maximum(m.n[:, :-1], 1e-300), 0.0), 0.0, 1.0)
    alpha = float(np.min(np.nan_to_num(zoi_alpha(n_c, m.n, req.zoi), nan=-1.0)))
    theta = np.broadcast_to(np.asarray(w.theta, dtype=float), gamma.shape + (1,))
    comm = (theta * gamma[:, :, None]).sum(axis=2)
    usage = (w.d_t[None, :] * w.content_bits * (n_c + w.beta * comm)).sum()
    usage /= w.d_t.sum()
    seeding = w.delta * w.content_bits * np.maximum(scheme.s - v, 0.0).sum()
    return alpha, float(usage + seeding)


def _replan_form(verifier, req, w):
    """The second interval of the request, from the live availability of an
    all-on run: mobility, carried availability, request and weights."""
    live = verifier.run(all_on(verifier.L, 2), zoi=req.zoi, seed=5)
    m = mobility_features(verifier.traj, verifier.contacts, verifier.grid, [300.0])
    v_first = plan._carried_availability(live.n_c[:, 0], live.n[:, 0])
    d_rest = req.d_t[1:]
    return (m, v_first, ServiceRequest(zoi=req.zoi, alpha0=req.alpha0, d_t=d_rest),
            CostWeights(d_t=d_rest, content_bits=w.content_bits, beta=0.5,
                        theta=np.linspace(0.5, 2.0, verifier.L)[:, None, None]))


@pytest.mark.parametrize("form", ["bootstrap", "replan"])
def test_pool_scores_equal_lone_scores(planning, form):
    # one surrogate pass over a pool scores every strategy bit for bit as a
    # pass of its own did; the replan form has one interval, so the head
    # multiplies one row per strategy, and carries availability in
    model, verifier, forecast, req, w = planning
    m, v_first = forecast, None
    if form == "replan":
        m, v_first, req, w = _replan_form(verifier, req, w)
    opts = PlannerOptions(n_candidates=12)
    pool, _ = plan._candidates(model, verifier.grid, req, m.shape[1], opts, 3, all_on(
        verifier.L, m.shape[1]))
    lone = np.array([_lone_score(model, m, scheme, req, w, v_first) for scheme in pool])
    for size in (1, 2, len(pool)):
        for lo in range(0, len(pool) - size + 1, size):
            got = np.array(plan._score(model, m, pool[lo:lo + size], req, w, v_first))
            assert got.tobytes() == lone[lo:lo + size].tobytes(), (size, lo)


class _PredictOnly:
    """The surrogate behind `predict` alone, like a model without
    `predict_many`: the planner maps `predict` over the pool."""

    def __init__(self, model):
        self.embedding, self.predict = model.embedding, model.predict


def test_predict_only_model_plans_the_same(planning):
    model, verifier, forecast, req, w = planning
    opts = PlannerOptions(n_candidates=12, verify_top_k=4, verify_seeds=2)
    rest = SimContext(verifier.grid, verifier.traj, verifier.contacts, verifier.channel,
                      [300.0])
    m_rest = mobility_features(verifier.traj, verifier.contacts, verifier.grid, [300.0])
    for seed in (3, 8):
        plans = [bootstrap(mdl, forecast, req, w, opts, verifier, seed=seed)
                 for mdl in (model, _PredictOnly(model))]
        live = verifier.run(plans[0].scheme, zoi=req.zoi, seed=seed)
        plans += [replan(mdl, live, m_rest, req, w, opts, rest, t0=2, seed=seed,
                         incumbent=plans[0].scheme) for mdl in (model, _PredictOnly(model))]
        for batched, mapped in (plans[:2], plans[2:]):
            for name in ("a", "b", "s"):
                assert getattr(batched.scheme, name).tobytes() == \
                    getattr(mapped.scheme, name).tobytes()
            assert batched.alpha.tobytes() == mapped.alpha.tobytes()
            assert (batched.predicted_cost, batched.verified_cost, batched.fallback,
                    batched.examined, batched.filtered, batched.verified) == \
                (mapped.predicted_cost, mapped.verified_cost, mapped.fallback,
                 mapped.examined, mapped.filtered, mapped.verified)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_circular_scheme_covering_grid_equals_all_on(grid):
    scheme = circular_scheme(grid, (0,), radius=5000.0, T=2)
    reference = all_on(grid.num_links, 2)
    assert np.array_equal(scheme.a, reference.a)
    assert np.array_equal(scheme.b, reference.b)
    assert np.array_equal(scheme.s, reference.s)


def test_circular_scheme_zero_radius_hits_centroid_link_only(grid):
    scheme = circular_scheme(grid, (3,), radius=0.0, T=1)
    assert scheme.a[3, 0] == 1.0
    assert scheme.a.sum() == 1.0


# (seed, zoi, alpha0): between them, in both channel modes, the sweep stops at
# the smallest radius, at a later one, and at none
AZ_SCENARIOS = [(2, (0, 1, 2), 0.9), (3, (5,), 0.5), (4, (12, 13), 0.8),
                (2, (8, 9, 10), 0.95), (5, (20,), 0.95)]


def test_circular_az_baseline_returns_smallest_feasible(grid, desk_traj, desk_contacts):
    """The baseline picks what a sweep of lone runs, smallest radius first,
    picks on the baseline's own verify seeds: the first radius feasible on
    every seed, else the largest, at the same cost bit for bit."""
    d_t = [150.0, 150.0]
    radii = default_radii(grid)
    for mode in ("instantaneous", "capacity"):
        ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8.0)
        ctx = SimContext(grid, desk_traj, desk_contacts, ch, d_t)
        stops = set()
        for seed, zoi, alpha0 in AZ_SCENARIOS:
            req = ServiceRequest(zoi=zoi, alpha0=alpha0, d_t=np.array(d_t))
            w = CostWeights(d_t=req.d_t, content_bits=8 * 2 ** 20 * 8.0)
            seeds = [derive_seed(seed, 701, v) for v in range(PlannerOptions.verify_seeds)]
            for radius in radii:
                scheme = circular_scheme(grid, zoi, radius, len(d_t))
                outs = [ctx.run(scheme, zoi=zoi, seed=s) for s in seeds]
                cost = float(np.mean([scheme_cost(o, scheme, w) for o in outs]))
                feasible = all(is_feasible(o, req) for o in outs)
                if feasible:
                    break
            got = circular_az_baseline(ctx, req, w, seed=seed)
            case = (mode, seed, zoi, alpha0)
            assert (got.radius, got.feasible, got.cost) == (radius, feasible, cost), case
            for plane in ("a", "b", "s"):
                assert np.array_equal(getattr(got.scheme, plane), getattr(scheme, plane)), case
            stops.add("none" if not feasible else "first" if radius == radii[0] else "later")
        assert stops == {"first", "later", "none"}, mode


def test_full_infrastructure_baseline(planning, grid):
    model, verifier, forecast, req, w = planning
    fi = full_infrastructure_baseline(req.zoi, grid.num_links, 2)
    assert np.all(fi.a == 0.0) and np.all(fi.b == 0.0)
    assert np.all(fi.s[list(req.zoi), :] == 1.0)
    out = verifier.run(fi, zoi=req.zoi, seed=3)
    assert out.gamma.sum() == 0.0            # nothing opportunistic happens

    # a parked, never-leaving ZOI population keeps alpha at 1 under FI
    mid = np.array(grid.links[req.zoi[0]].midpoint)
    parked = make_traj(grid, [(0, 0, mid), (1, 0, mid + [4.0, 0.0])], horizon=100)
    ctx = SimContext(grid, parked, ContactTable.empty(), verifier.channel, [100.0])
    fi1 = full_infrastructure_baseline(req.zoi, grid.num_links, 1)
    o = ctx.run(fi1, zoi=req.zoi, seed=0)
    assert o.alpha[0] == pytest.approx(1.0)


@pytest.mark.parametrize("mode, carried", [("instantaneous", False), ("capacity", False),
                                           ("instantaneous", True)])
def test_verify_equals_lone_runs(grid, desk_traj, desk_contacts, mode, carried):
    """verify's one batch gives each strategy the outcomes, costs and
    feasibility of separate runs, and aggregates them bit for bit."""
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode=mode, content_bits=8 * 2 ** 20 * 8.0)
    d_t = [150.0, 150.0]
    ctx = SimContext(grid, desk_traj, desk_contacts, ch, d_t)
    req = ServiceRequest(zoi=(0, 1, 2), alpha0=0.9, d_t=np.array(d_t))
    w = CostWeights(d_t=req.d_t, content_bits=8 * 2 ** 20 * 8.0)
    L = grid.num_links
    schemes = [all_on(L, 2), circular_scheme(grid, req.zoi, 300.0, 2),
               gen_random_schemes(1, L, 2, seed=9, style="iid")[0]]
    seeds = [derive_seed(4, 701, v) for v in range(3)]
    v_first = np.linspace(0.0, 1.0, L) if carried else None
    checks = verify(ctx, schemes, req, w, seeds, v_first=v_first)
    assert len(checks) == len(schemes)
    for scheme, got in zip(schemes, checks):
        lone = [ctx.run(scheme, zoi=req.zoi, seed=s, v_first=v_first) for s in seeds]
        costs = [scheme_cost(o, scheme, w) for o in lone]
        ok = [is_feasible(o, req) for o in lone]
        alpha = np.min(np.stack([np.nan_to_num(o.alpha, nan=-1.0) for o in lone]), axis=0)
        for a, b in zip(got.outcomes, lone):
            assert a.n_c.tobytes() == b.n_c.tobytes() and a.v.tobytes() == b.v.tobytes()
        assert got.costs == costs and got.feasible_per_seed == ok
        assert got.cost == float(np.mean(costs)) and got.feasible == all(ok)
        assert got.alpha.tobytes() == alpha.tobytes()
    # the three strategies differ, so a mix-up of their runs would show
    assert len({c.cost for c in checks}) == len(schemes)
