"""End-to-end acceptance gate.

Each test exercises one release criterion at its stated tolerance and prints
one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py` to see the
lines stream.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from floatsim import (ChannelModel, CostWeights, FcScheme, ServiceRequest,
                      SimContext, all_on, build_dataset, build_manhattan, capacity,
                      detect_contacts, gen_random_schemes, is_feasible,
                      mobility_features, raster_embed, run_fc, scheme_cost,
                      simulate_manhattan, success_ratio, SpeedModel, KMH)
from floatsim.cli import main as cli_main
from floatsim.dataset import feasibility_labels, fit_normalizer
from floatsim.fcsim import SimOutcome
from floatsim.learn import (SurrogateHyper, check_layer, f_score, train_baseline,
                            train_surrogate)
from floatsim.learn.baselines import flatten_pair_rows
from floatsim.learn.layers import Conv2D, Dense, Flatten, MaxPool2x2, ReLU, Softplus
from floatsim.plan import PlannerOptions, ProblemInfeasibleError, bootstrap, \
    circular_az_baseline, replan
from floatsim.rng import derive_seed

MB8 = 8 * 2 ** 20 * 8.0
SPEED = SpeedModel.uniform(20 * KMH, 30 * KMH)


def report(num: int, ok: bool, detail: str):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. grid fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_grid_fidelity():
    t0 = time.perf_counter()
    grid = build_manhattan(5, 4, 150.0)
    elapsed = time.perf_counter() - t0
    ok = grid.num_links == 31 and len(grid.intersections) == 12 and elapsed < 1.0
    report(1, ok, f"{grid.num_links} links, {len(grid.intersections)} intersections "
                  f"in {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. channel arithmetic
# ---------------------------------------------------------------------------

def test_criterion_2_channel_arithmetic():
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="capacity", content_bits=MB8)
    rate = capacity(ch, 100.0)
    rate_ok = abs(rate - 2.0574e6) <= 0.001 * 2.0574e6

    grid = build_manhattan(2, 2, 100.0)
    from conftest import make_traj
    traj = make_traj(grid, [(0, 0, np.array([50.0, 100.0])),
                            (1, 0, np.array([150.0, 100.0]))], horizon=40)
    contacts = detect_contacts(traj, 100.0)
    s = np.zeros((grid.num_links, 1))
    s[0, 0] = 1.0
    scheme = FcScheme(np.ones((grid.num_links, 1)), np.ones((grid.num_links, 1)), s)
    out = run_fc(traj, contacts, scheme, ch, [40.0], grid=grid, seed=2,
                 record_holders=True)
    first_held = next(k for k, h in enumerate(out.holder_history) if 1 in h)
    expected = MB8 / rate
    sim_ok = abs(first_held - expected) <= 1.0
    report(2, rate_ok and sim_ok,
           f"capacity {rate / 1e6:.4f} Mbit/s, transfer done after {first_held} ticks "
           f"(analytic {expected:.1f} s)")


# ---------------------------------------------------------------------------
# 3. objective oracle
# ---------------------------------------------------------------------------

def test_criterion_3_objective_matches_brute_force():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        L = int(rng.integers(1, 7))
        T = int(rng.integers(1, 5))
        U = int(rng.integers(1, 3))
        n = rng.uniform(0.5, 20, (L, T))
        out = SimOutcome(n=n, n_c=n * rng.uniform(0, 1, (L, T)),
                         gamma=rng.uniform(0, 4, (L, T, U)),
                         v=rng.uniform(0, 1, (L, T)),
                         seeded=np.zeros((L, T), dtype=int),
                         dropped=np.zeros((L, T), dtype=int),
                         d_t=rng.uniform(10, 100, T), tick=1.0, seed=0)
        scheme = FcScheme(*rng.uniform(0, 1, (3, L, T)))
        w = CostWeights(d_t=out.d_t, content_bits=float(rng.uniform(1e5, 1e8)),
                        beta=float(rng.uniform(0, 2)), delta=float(rng.uniform(0, 2)),
                        theta=rng.uniform(0, 2, (L, T, U)))
        # independent loop-based evaluation of the objective and the ratio
        manual = 0.0
        for t in range(T):
            for l in range(L):
                comm = sum(w.theta[l, t, u] * out.gamma[l, t, u] for u in range(U))
                manual += out.d_t[t] * w.content_bits * (out.n_c[l, t] + w.beta * comm)
        manual /= out.d_t.sum()
        for t in range(T):
            for l in range(L):
                manual += w.delta * w.content_bits * max(scheme.s[l, t] - out.v[l, t], 0.0)
        got = scheme_cost(out, scheme, w)
        worst = max(worst, abs(got - manual) / max(abs(manual), 1e-12))

        zoi = sorted(rng.choice(L, size=max(1, L // 2), replace=False).tolist())
        for t in range(1, T + 1):
            num = sum(out.n_c[l, t - 1] for l in zoi)
            den = sum(out.n[l, t - 1] for l in zoi)
            got_r = success_ratio(out, zoi, t)
            worst = max(worst, abs(got_r - num / den) / max(num / den, 1e-12))
    report(3, worst < 1e-9, f"max relative error {worst:.2e} over 25 outcomes")


# ---------------------------------------------------------------------------
# 4. monotone coupling
# ---------------------------------------------------------------------------

def test_criterion_4_monotone_coupling():
    grid = build_manhattan(5, 4, 150.0)
    traj = simulate_manhattan(grid, 0.05, SPEED, 600.0, seed=1, warmup_s=200.0)
    contacts = detect_contacts(traj, 100.0)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    ctx = SimContext(grid, traj, contacts, ch, [200.0, 200.0, 200.0])
    rng = np.random.default_rng(4)
    violations = 0
    for trial in range(100):
        low = rng.uniform(0, 1, (3, grid.num_links, 3))
        high = np.clip(low + rng.uniform(0, 1, low.shape), 0, 1)
        o1 = ctx.run(FcScheme(*low), seed=trial, record_holders=True)
        o2 = ctx.run(FcScheme(*high), seed=trial, record_holders=True)
        if not all(h1 <= h2 for h1, h2 in zip(o1.holder_history, o2.holder_history)):
            violations += 1
    report(4, violations == 0,
           f"{100 - violations}/100 scheme pairs kept the holder-set ordering")


# ---------------------------------------------------------------------------
# 5. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_5_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(10):
        x = rng.normal(size=(2, 6, 6, 3))
        for layer, inp in [(Conv2D(3, 4, 3, rng), x),
                           (ReLU(), x + 0.03),
                           (MaxPool2x2(), x),
                           (Flatten(), x),
                           (Dense(12, 5, rng), rng.normal(size=(4, 12))),
                           (Softplus(), rng.normal(size=(4, 8)))]:
            worst = max(worst, check_layer(layer, inp.copy(), seed=trial, step=1e-5))
    elapsed = time.perf_counter() - t0
    report(5, worst < 1e-4 and elapsed < 60.0,
           f"max relative error {worst:.2e} across 10 instances x 6 layers "
           f"in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6 + 7 share nothing but both need trained surrogates; they are the slow part
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_hour_bundle():
    """>= 200 schemes x 1 h Manhattan trace, ~6.2e5 (link, interval, scheme) rows."""
    grid = build_manhattan(5, 4, 150.0)
    emb = raster_embed(grid, 9, 7)
    traj = simulate_manhattan(grid, 0.05, SPEED, 3600.0, seed=3, warmup_s=300.0)
    contacts = detect_contacts(traj, 100.0)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="capacity", content_bits=MB8)
    d_t = [36.0] * 100
    schemes = gen_random_schemes(200, grid.num_links, 100, seed=5, embedding=emb)
    pairs = build_dataset(traj, grid, d_t, schemes, ch, seed=6, contacts=contacts)
    order = np.random.default_rng(7).permutation(len(pairs))
    test_idx = order[:40]
    train_idx = order[40:]
    train_pairs = [pairs[i] for i in train_idx]
    result = train_surrogate(train_pairs, emb,
                             hyper=SurrogateHyper(epochs=12, folds=2,
                                                  learning_rate=0.1, batch=64,
                                                  seed=8))
    return grid, emb, pairs, train_idx, test_idx, result


def test_criterion_6_surrogate_learning_floor(desk_hour_bundle):
    grid, emb, pairs, train_idx, test_idx, result = desk_hour_bundle
    train_pairs = [pairs[i] for i in train_idx]
    test_pairs = [pairs[i] for i in test_idx]
    rows = len(pairs) * grid.num_links * pairs[0].m.shape[1]
    assert rows >= 6e5 and len(pairs) >= 200

    errs, base_errs = [], []
    train_mean = float(np.mean([p.c.n_c for p in train_pairs]))
    for p in test_pairs:
        pred = result.model.predict(p.m, p.scheme)
        errs.append(float(np.mean((pred.n_c - p.c.n_c) ** 2)))
        base_errs.append(float(np.mean((train_mean - p.c.n_c) ** 2)))
    mse, base = float(np.mean(errs)), float(np.mean(base_errs))

    # soft, seed-averaged trend: surrogate-derived feasibility beats a tree.
    # Random strategies rarely clear 0.9, so the classification view uses a
    # target that splits the labels instead of degenerating to all-negative.
    zoi = (0, 1, 2)
    alpha_cls = 0.5
    labels = feasibility_labels(pairs, zoi, alpha_cls)
    norm = fit_normalizer(train_pairs)
    flat = flatten_pair_rows(pairs, norm)
    T = pairs[0].m.shape[1]
    test_rows = np.concatenate([np.arange(i * T, (i + 1) * T) for i in test_idx])
    train_rows = np.concatenate([np.arange(i * T, (i + 1) * T) for i in train_idx])
    tree = train_baseline("tree", flat[train_rows], labels[train_rows].astype(int),
                          max_depth=8)
    tree_f1 = f_score(tree.predict(flat[test_rows]) > 0, labels[test_rows])
    pred_labels = []
    for p in pairs:
        c = result.model.predict(p.m, p.scheme)
        z = np.asarray(zoi)
        den = p.m.n[z, :].sum(axis=0)
        ratio = np.where(den > 0, c.n_c[z, :].sum(axis=0) / np.maximum(den, 1e-300), 0.0)
        pred_labels.append(ratio >= alpha_cls)
    surro_f1 = f_score(np.concatenate(pred_labels)[test_rows], labels[test_rows])
    trend = "surrogate>=tree" if surro_f1 >= tree_f1 else "tree wins (soft check only)"

    ok = mse <= 0.8 * base
    report(6, ok, f"{rows} rows; held-out MSE {mse:.4f} vs mean-baseline {base:.4f} "
                  f"({100 * (1 - mse / base):.0f}% better; need >= 20%); "
                  f"F1 surrogate {surro_f1:.3f} vs tree {tree_f1:.3f} [{trend}]")


@pytest.fixture(scope="module")
def planner_bundle():
    grid = build_manhattan(5, 4, 150.0)
    emb = raster_embed(grid, 9, 7)
    ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
    train_traj = simulate_manhattan(grid, 0.05, SPEED, 3600.0, seed=900,
                                    warmup_s=300.0)
    schemes = gen_random_schemes(60, grid.num_links, 12, seed=901, embedding=emb)
    pairs = build_dataset(train_traj, grid, [300.0] * 12, schemes, ch, seed=902)
    result = train_surrogate(pairs, emb,
                             hyper=SurrogateHyper(epochs=15, folds=2,
                                                  learning_rate=0.1, batch=64,
                                                  seed=903))
    return grid, ch, result.model


def test_criterion_7_planner_soundness(planner_bundle):
    grid, ch, model = planner_bundle
    opts = PlannerOptions(n_candidates=12, verify_top_k=5, verify_seeds=3)
    d_t = np.array([300.0, 300.0])
    req = ServiceRequest(zoi=(0, 1, 2), alpha0=0.9, d_t=d_t)
    w = CostWeights(d_t=d_t, content_bits=MB8)

    usable = rejected = cheaper = az_beaten = az_feasible = 0
    for i in range(50):
        traj = simulate_manhattan(grid, 0.05, SPEED, 600.0, seed=1000 + i,
                                  warmup_s=200.0)
        contacts = detect_contacts(traj, 100.0)
        verifier = SimContext(grid, traj, contacts, ch, d_t)
        forecast = mobility_features(traj, contacts, grid, d_t)
        try:
            plan = bootstrap(model, forecast, req, w, opts, verifier, seed=i)
        except ProblemInfeasibleError:
            continue            # scenario not all-on feasible: out of scope
        usable += 1
        # verified rejection: a plan below alpha0 on its own verify seeds, or
        # on either of 2 fresh seeds
        fresh_ok = all(is_feasible(verifier.run(plan.scheme, zoi=req.zoi,
                                                seed=derive_seed(5000 + i, 1, r)), req)
                       for r in range(2))
        if not fresh_ok or not np.all(plan.alpha >= req.alpha0):
            rejected += 1
        allon = all_on(grid.num_links, 2)
        allon_costs = [scheme_cost(verifier.run(allon, zoi=req.zoi,
                                                seed=derive_seed(i, 701, v)),
                                   allon, w) for v in range(opts.verify_seeds)]
        allon_cost = float(np.mean(allon_costs))
        assert plan.verified_cost <= allon_cost + 1e-9
        if plan.verified_cost < allon_cost - 1e-9:
            cheaper += 1
        az = circular_az_baseline(verifier, req, w, seed=i)
        if az.feasible:
            az_feasible += 1
            if plan.verified_cost < az.cost:
                az_beaten += 1

    ok = (usable >= 40 and rejected == 0 and cheaper >= 0.8 * usable
          and az_beaten >= 0.8 * az_feasible)
    report(7, ok, f"{usable}/50 scenarios usable; rejection {rejected}; "
                  f"cheaper than all-on in {cheaper}/{usable}; "
                  f"beat circular-AZ in {az_beaten}/{az_feasible}")


# ---------------------------------------------------------------------------
# 8. seeding semantics
# ---------------------------------------------------------------------------

def test_criterion_8_seeding_semantics(planner_bundle):
    grid, ch, model = planner_bundle
    traj = simulate_manhattan(grid, 0.05, SPEED, 600.0, seed=77, warmup_s=200.0)
    contacts = detect_contacts(traj, 100.0)
    ctx = SimContext(grid, traj, contacts, ch, [300.0, 300.0])
    rng = np.random.default_rng(3)

    v_first_zero = True
    for k in range(5):
        out = ctx.run(FcScheme(*rng.uniform(0, 1, (3, grid.num_links, 2))), seed=k)
        v_first_zero &= bool(np.all(out.v[:, 0] == 0.0))

    # seeding component exactly zero whenever s <= v elementwise
    probe = ctx.run(all_on(grid.num_links, 2), seed=9)
    covered = FcScheme(np.ones((grid.num_links, 2)), np.ones((grid.num_links, 2)),
                       np.clip(probe.v * 0.9, 0, 1))
    w1 = CostWeights(d_t=np.array([300.0, 300.0]), content_bits=MB8, delta=1.0)
    w0 = CostWeights(d_t=np.array([300.0, 300.0]), content_bits=MB8, delta=0.0)
    seeding_zero = scheme_cost(probe, covered, w1) == scheme_cost(probe, covered, w0)

    # replanning with a still-feasible incumbent can never cost more
    d_t = np.array([300.0, 300.0])
    req = ServiceRequest(zoi=(0, 1, 2), alpha0=0.9, d_t=d_t)
    w = CostWeights(d_t=d_t, content_bits=MB8)
    opts = PlannerOptions(n_candidates=10, verify_top_k=4, verify_seeds=2)
    forecast = mobility_features(traj, contacts, grid, d_t)
    first = bootstrap(model, forecast, req, w, opts, ctx, seed=12)
    live = ctx.run(first.scheme, zoi=req.zoi, seed=500)
    rest_ctx = SimContext(grid, traj, contacts, ch, [300.0])
    m_rest = mobility_features(traj, contacts, grid, [300.0])
    second = replan(model, live, m_rest, req, w, opts, rest_ctx, t0=2, seed=12,
                    incumbent=first.scheme)
    v0 = np.clip(np.where(live.n[:, 0] > 0,
                          live.n_c[:, 0] / np.maximum(live.n[:, 0], 1e-300), 0.0), 0, 1)
    tail = first.scheme.tail(2)
    w_rest = CostWeights(d_t=np.array([300.0]), content_bits=MB8)
    req_rest = ServiceRequest(zoi=req.zoi, alpha0=req.alpha0, d_t=np.array([300.0]))
    tail_costs, tail_ok = [], True
    for v_i in range(opts.verify_seeds):
        o = rest_ctx.run(tail, zoi=req.zoi, seed=derive_seed(12, 701, v_i), v_first=v0)
        tail_costs.append(scheme_cost(o, tail, w_rest))
        tail_ok = tail_ok and is_feasible(o, req_rest)
    replan_ok = (not tail_ok) or second.verified_cost <= float(np.mean(tail_costs)) + 1e-9

    ok = v_first_zero and seeding_zero and replan_ok
    report(8, ok, f"v[:,1]=0: {v_first_zero}; covered seeding cost zero: "
                  f"{seeding_zero}; replan<=incumbent: {replan_ok}")


# ---------------------------------------------------------------------------
# 9. determinism and runtime
# ---------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "manhattan_desk.json"
    t0 = time.perf_counter()
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        rc = cli_main(["pipeline", "--config", str(config), "--out", str(out),
                       "--deterministic-svg"])
        assert rc == 0
        outs.append(out)
    elapsed = time.perf_counter() - t0

    identical = True
    for rel in ("trace.csv", "features.csv", "dataset/pairs.csv", "metrics.csv",
                "fscores.csv", "plan.csv", "outcome.csv", "alpha.csv",
                "alpha_samples.csv", "report/boxplot.csv", "report/savings.csv",
                "manifest.json", "grid.json", "model.bin",
                "report/replication_t1.svg", "report/storage_t1.svg"):
        if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes():
            identical = False
            break
    plan = json.loads((outs[0] / "plan.json").read_text())
    boot_fast = plan["timings"]["wall_clock_s"] < 5.0
    ok = identical and elapsed < 1800.0 and boot_fast
    report(9, ok, f"two pipelines in {elapsed:.0f} s (< 1800 s), byte-identical: "
                  f"{identical}, bootstrap {plan['timings']['wall_clock_s']:.2f} s (< 5 s)")
