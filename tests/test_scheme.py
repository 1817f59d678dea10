import numpy as np
import pytest

from floatsim import CostWeights, FcScheme, ServiceRequest, all_on, is_feasible, scheme_cost
from floatsim.fcsim import SimOutcome
from floatsim.scheme import CostShapeError, SchemeValueError


def manual_cost(outcome, scheme, w):
    """Plain-loop reimplementation of the objective, kept deliberately naive."""
    L, T = scheme.shape
    theta = np.broadcast_to(np.asarray(w.theta, dtype=float), outcome.gamma.shape)
    total_period = sum(w.d_t)
    usage = 0.0
    seeding = 0.0
    for l in range(L):
        for t in range(T):
            comm = 0.0
            for u in range(outcome.gamma.shape[2]):
                comm += theta[l, t, u] * outcome.gamma[l, t, u]
            usage += w.d_t[t] * w.content_bits * (outcome.n_c[l, t] + w.beta * comm) \
                / total_period
            seeding += w.delta * w.content_bits * max(scheme.s[l, t] - outcome.v[l, t], 0.0)
    return usage + seeding


def random_outcome(rng, L, T, U=1):
    n = rng.uniform(0, 20, (L, T))
    n_c = n * rng.uniform(0, 1, (L, T))
    return SimOutcome(n=n, n_c=n_c, gamma=rng.uniform(0, 5, (L, T, U)),
                      v=rng.uniform(0, 1, (L, T)),
                      seeded=np.zeros((L, T), dtype=int),
                      dropped=np.zeros((L, T), dtype=int),
                      d_t=rng.uniform(10, 100, T), tick=1.0, seed=0)


def test_scheme_validation():
    with pytest.raises(SchemeValueError):
        FcScheme(np.full((2, 2), 1.1), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(SchemeValueError):
        FcScheme(np.zeros((2, 2)), np.full((2, 2), -0.01), np.zeros((2, 2)))
    with pytest.raises(SchemeValueError):
        FcScheme(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(SchemeValueError):
        all_on(0, 1)


def test_all_on_reference_shape():
    s = all_on(31, 1)
    assert s.shape == (31, 1)
    assert np.all(s.a == 1.0) and np.all(s.b == 1.0) and np.all(s.s == 1.0)


def test_cost_zero_weights_leaves_storage_term():
    rng = np.random.default_rng(0)
    out = random_outcome(rng, 4, 2)
    scheme = FcScheme(*rng.uniform(0, 1, (3, 4, 2)))
    w = CostWeights(d_t=out.d_t, content_bits=1e6, beta=0.0, delta=0.0)
    expected = (out.d_t[None, :] * 1e6 * out.n_c).sum() / out.d_t.sum()
    assert scheme_cost(out, scheme, w) == pytest.approx(expected, rel=1e-12)


def test_cost_seeding_component_zero_when_covered():
    rng = np.random.default_rng(1)
    out = random_outcome(rng, 3, 2)
    s = out.v * 0.9          # everywhere below carried availability
    scheme = FcScheme(np.zeros((3, 2)), np.zeros((3, 2)), s)
    w0 = CostWeights(d_t=out.d_t, content_bits=1e6, beta=1.0, delta=0.0)
    w1 = CostWeights(d_t=out.d_t, content_bits=1e6, beta=1.0, delta=5.0)
    assert scheme_cost(out, scheme, w0) == pytest.approx(scheme_cost(out, scheme, w1),
                                                         rel=1e-12)


def test_cost_hand_value_seventeen_d():
    # single interval, one tech, theta = beta = delta = 1, L = 2:
    # n_c totals 12, gamma totals 3, v = 0, s = 1 -> D * (12 + 3) + D * 2
    D = 67_108_864.0
    out = SimOutcome(n=np.array([[20.0], [20.0]]), n_c=np.array([[7.0], [5.0]]),
                     gamma=np.array([[[1.0]], [[2.0]]]), v=np.zeros((2, 1)),
                     seeded=np.zeros((2, 1), dtype=int),
                     dropped=np.zeros((2, 1), dtype=int),
                     d_t=np.array([60.0]), tick=1.0, seed=0)
    scheme = all_on(2, 1)
    w = CostWeights(d_t=np.array([60.0]), content_bits=D)
    assert scheme_cost(out, scheme, w) == pytest.approx(17.0 * D, rel=1e-12)


def test_cost_matches_manual_oracle_on_randomized_outcomes():
    rng = np.random.default_rng(42)
    for _ in range(25):
        L = int(rng.integers(1, 6))
        T = int(rng.integers(1, 4))
        U = int(rng.integers(1, 3))
        out = random_outcome(rng, L, T, U)
        scheme = FcScheme(*rng.uniform(0, 1, (3, L, T)))
        w = CostWeights(d_t=out.d_t, content_bits=float(rng.uniform(1e5, 1e8)),
                        beta=float(rng.uniform(0, 3)), delta=float(rng.uniform(0, 3)),
                        theta=rng.uniform(0, 2, (L, T, U)))
        got = scheme_cost(out, scheme, w)
        want = manual_cost(out, scheme, w)
        assert got == pytest.approx(want, rel=1e-9)


def test_cost_monotone_and_linear_in_d():
    rng = np.random.default_rng(5)
    out = random_outcome(rng, 4, 3)
    scheme = FcScheme(*rng.uniform(0, 1, (3, 4, 3)))
    w = CostWeights(d_t=out.d_t, content_bits=1e6, beta=1.0, delta=1.0)
    base = scheme_cost(out, scheme, w)

    out_more = random_outcome(rng, 4, 3)
    out_more.n_c = out.n_c + 1.0
    out_more.gamma = out.gamma.copy()
    out_more.v = out.v.copy()
    out_more.d_t = out.d_t
    assert scheme_cost(out_more, scheme, w) > base

    s_up = FcScheme(scheme.a, scheme.b, np.clip(scheme.s + 0.2, 0, 1))
    assert scheme_cost(out, s_up, w) >= base

    w2 = CostWeights(d_t=out.d_t, content_bits=2e6, beta=1.0, delta=1.0)
    assert scheme_cost(out, scheme, w2) == pytest.approx(2 * base, rel=1e-12)

    w_beta = CostWeights(d_t=out.d_t, content_bits=1e6, beta=2.0, delta=1.0)
    assert scheme_cost(out, scheme, w_beta) >= base


def test_first_interval_seeding_equals_total_s():
    # v is zero in the first interval, so the seeding term is delta * D * sum(s)
    rng = np.random.default_rng(9)
    out = random_outcome(rng, 5, 1)
    out.v[:] = 0.0
    out.n_c[:] = 0.0
    out.gamma[:] = 0.0
    scheme = FcScheme(*rng.uniform(0, 1, (3, 5, 1)))
    w = CostWeights(d_t=out.d_t, content_bits=1e3, beta=1.0, delta=2.0)
    assert scheme_cost(out, scheme, w) == pytest.approx(2.0 * 1e3 * scheme.s.sum(),
                                                        rel=1e-12)


def test_cost_shape_errors():
    rng = np.random.default_rng(2)
    out = random_outcome(rng, 3, 2)
    w = CostWeights(d_t=out.d_t, content_bits=1e6)
    with pytest.raises(CostShapeError):
        scheme_cost(out, all_on(4, 2), w)
    with pytest.raises(CostShapeError):
        scheme_cost(out, all_on(3, 2), CostWeights(d_t=np.array([1.0]), content_bits=1e6))


def test_weights_validation():
    with pytest.raises(SchemeValueError):
        CostWeights(d_t=np.array([10.0]), content_bits=1e6, beta=-0.1)
    with pytest.raises(SchemeValueError):
        CostWeights(d_t=np.array([10.0]), content_bits=0.0)
    with pytest.raises(SchemeValueError):
        CostWeights(d_t=np.array([]), content_bits=1e6)


def test_is_feasible_thresholds():
    n = np.array([[10.0, 10.0]])
    req = ServiceRequest(zoi=(0,), alpha0=0.9, d_t=np.array([50.0, 50.0]))
    ok = SimOutcome(n=n, n_c=np.array([[9.5, 9.2]]), gamma=np.zeros((1, 2, 1)),
                    v=np.zeros((1, 2)), seeded=np.zeros((1, 2), dtype=int),
                    dropped=np.zeros((1, 2), dtype=int), d_t=req.d_t, tick=1.0, seed=0)
    assert is_feasible(ok, req)
    bad = SimOutcome(n=n, n_c=np.array([[9.5, 8.9]]), gamma=np.zeros((1, 2, 1)),
                     v=np.zeros((1, 2)), seeded=np.zeros((1, 2), dtype=int),
                     dropped=np.zeros((1, 2), dtype=int), d_t=req.d_t, tick=1.0, seed=0)
    assert not is_feasible(bad, req)
    empty = SimOutcome(n=np.array([[10.0, 0.0]]), n_c=np.array([[9.5, 0.0]]),
                       gamma=np.zeros((1, 2, 1)), v=np.zeros((1, 2)),
                       seeded=np.zeros((1, 2), dtype=int),
                       dropped=np.zeros((1, 2), dtype=int), d_t=req.d_t, tick=1.0, seed=0)
    assert not is_feasible(empty, req)


def test_request_validation():
    with pytest.raises(SchemeValueError):
        ServiceRequest(zoi=(), alpha0=0.9, d_t=np.array([10.0]))
    with pytest.raises(SchemeValueError):
        ServiceRequest(zoi=(1,), alpha0=0.0, d_t=np.array([10.0]))
    with pytest.raises(SchemeValueError):
        ServiceRequest(zoi=(1,), alpha0=1.2, d_t=np.array([10.0]))


def test_dominates_and_tail():
    low = FcScheme(np.full((2, 3), 0.2), np.full((2, 3), 0.3), np.full((2, 3), 0.1))
    high = FcScheme(np.full((2, 3), 0.9), np.full((2, 3), 0.9), np.full((2, 3), 0.9))
    assert high.dominates(low) and not low.dominates(high)
    tail = high.tail(2)
    assert tail.shape == (2, 2)
