"""The three benchmark workloads.

Each workload is a closed loop with one client: `op(state, i, untimed)` runs
the i-th operation to completion, times it, checks its outputs and returns a
record; the next operation starts only after that.  Work that is not part of
the operation (output checks, the live outcome a replan starts from) runs
inside `untimed()`, which keeps it out of the trace.  Inputs come from the
benchmark seed alone.  The program is called through module attributes
(`mobility.detect_contacts`, ...), so the tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from floatsim import cli, dataset, fcsim, mobility, plan, roadnet, scheme
from floatsim.dataset import CommFeatures
from floatsim.learn import surrogate
from floatsim.rng import derive_seed
from tracing import plan_family

MB8 = 8 * 2 ** 20 * 8.0
GRID = (5, 4, 150.0)
RADIUS_M = 100.0


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _speed():
    return mobility.SpeedModel.uniform(20 * mobility.KMH, 30 * mobility.KMH)


def _center_zoi(grid, count: int) -> tuple[int, ...]:
    xmin, ymin, xmax, ymax = grid.bbox
    center = np.array([(xmin + xmax) / 2, (ymin + ymax) / 2])
    d = np.linalg.norm(grid.link_midpoints() - center, axis=1)
    return tuple(int(i) for i in np.argsort(d, kind="stable")[:count])


# ---------------------------------------------------------------------------
# desk_pipeline: the researcher's end-to-end CLI run
# ---------------------------------------------------------------------------

DESK_CONFIG = "configs/manhattan_desk.json"


class DeskPipeline:
    """The shipped desk config, run as written (its own seed): the same input
    in every run, so the artifact digest is compared across operations and the
    timing spread is the machine's, not the scenario's."""

    name = "desk_pipeline"
    p50_name, tail_name = "pipeline_s", "pipeline_tail_s"
    min_ops = 2          # the artifact digest is compared between operations
    cycle = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        roadnet.build_manhattan(*GRID)
        cfg = cli.load_config(DESK_CONFIG)
        return {"pipeline_seed": cfg["seed"], "workdir": workdir, "digest": None}

    def op(self, state: dict, i: int, untimed) -> dict:
        out = Path(tempfile.mkdtemp(prefix=f"desk{i}-", dir=state["workdir"]))
        try:
            argv = ["pipeline", "--config", DESK_CONFIG,
                    "--seed", str(state["pipeline_seed"]), "--deterministic-svg",
                    "--out", str(out)]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
            seconds = time.perf_counter() - t0
            if rc != 0:
                raise CheckFailed(f"pipeline exit code {rc}")
            verdict = json.loads((out / "verdict.json").read_text())
            if not verdict["feasible"]:
                raise CheckFailed("verdict.json: plan infeasible")
            h = hashlib.sha256()
            for path in sorted(out.rglob("*.csv")):
                h.update(str(path.relative_to(out)).encode() + b"\0")
                h.update(path.read_bytes())
            digest = h.hexdigest()
            if state["digest"] is None:
                state["digest"] = digest
            elif digest != state["digest"]:
                raise CheckFailed("CSV artifact set differs between operations of one seed")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return {"seconds": seconds, "csv_sha256": digest}


# ---------------------------------------------------------------------------
# plan_stream: planning requests against a trained surrogate
# ---------------------------------------------------------------------------

PLAN_DT = (300.0, 300.0)
PLAN_ALPHAS = (0.8, 0.9)
PLAN_SCENARIOS = 2
PLAN_SCHEMES = 8         # random strategies in the offline dataset
# The offline phase and the live scenarios are fixed: they stand for the
# deployed surrogate and the city it serves.  The benchmark seed drives the
# request stream: the order of every rotation and every planner seed.
OFFLINE_SEED = 7
PLAN_OPTS = dict(n_candidates=12, verify_top_k=4, verify_seeds=2)
# One rotation bootstraps every scenario x ZOI x alpha0 key once, in a seeded
# order; after every REPLAN_EVERY bootstraps the last plan is replanned from
# the second interval on.  A run serves whole rotations, so every run times
# the same request mix.
REPLAN_EVERY = 4


class FixedModel:
    """Ablation stand-in for the surrogate: one fixed prediction (every
    node holds the content, one transmission per node) for every strategy,
    so the planner's ranking no longer depends on the learned model."""

    def __init__(self, embedding):
        self.embedding = embedding

    def predict(self, m, scheme_):
        return CommFeatures(n_c=m.n.copy(), gamma=m.n.copy()[:, :, None])


@dataclass
class Planned:
    kind: str            # bootstrap or replan
    key: tuple           # (scenario, zoi, alpha0)
    result: plan.PlanResult
    seconds: float
    family: str


class PlanStream:
    name = "plan_stream"
    p50_name, tail_name = "plan_p50_s", "plan_tail_s"

    def __init__(self):
        self.keys = PLAN_SCENARIOS * 2 * len(PLAN_ALPHAS)
        self.cycle = self.keys + self.keys // REPLAN_EVERY
        self.min_ops = self.cycle

    def setup(self, seed: int, workdir: Path) -> dict:
        off = OFFLINE_SEED
        grid = roadnet.build_manhattan(*GRID)
        emb = roadnet.raster_embed(grid, 9, 7)
        channel = fcsim.ChannelModel(1.0e6, 5.0, 3.0, RADIUS_M, mode="instantaneous")
        # offline phase: history trace, random strategies, dataset, surrogate
        history = mobility.simulate_manhattan(grid, 0.05, _speed(), 600.0,
                                              seed=derive_seed(off, 11), warmup_s=200.0)
        schemes = dataset.gen_random_schemes(PLAN_SCHEMES, grid.num_links, len(PLAN_DT),
                                             derive_seed(off, 12), "mixed", emb)
        pairs = dataset.build_dataset(history, grid, PLAN_DT, schemes, channel,
                                      seed=derive_seed(off, 13))
        hyper = surrogate.SurrogateHyper(epochs=10, folds=2, learning_rate=0.1,
                                         batch=16, seed=derive_seed(off, 14))
        model = surrogate.train_surrogate(pairs, emb, hyper=hyper).model
        # live desk-scale scenarios with perfect forecasts
        scenarios = []
        for k in range(PLAN_SCENARIOS):
            traj = mobility.simulate_manhattan(grid, 0.05, _speed(), 600.0,
                                               seed=derive_seed(off, 15, k), warmup_s=200.0)
            contacts = mobility.detect_contacts(traj, RADIUS_M)
            scenarios.append({
                "verifier": fcsim.SimContext(grid, traj, contacts, channel, PLAN_DT),
                "forecast": mobility.mobility_features(traj, contacts, grid, PLAN_DT),
                "rest": fcsim.SimContext(grid, traj, contacts, channel, PLAN_DT[1:]),
                "m_rest": mobility.mobility_features(traj, contacts, grid, PLAN_DT[1:])})
        zois = [_center_zoi(grid, 3), (0, 1, 2)]
        keys = [(k, z, a) for k in range(PLAN_SCENARIOS) for z in zois for a in PLAN_ALPHAS]
        return {"grid": grid, "model": model, "ablation": FixedModel(emb),
                "scenarios": scenarios, "keys": keys, "plans": {}, "seed": seed,
                "opts": plan.PlannerOptions(**PLAN_OPTS)}

    def _request(self, state, i):
        """Request i: a replan of request i-1's plan at the end of every group
        of REPLAN_EVERY bootstraps, otherwise the bootstrap of the next key of
        this rotation's seeded order."""
        rot, j = divmod(i, self.cycle)
        group, pos = divmod(j, REPLAN_EVERY + 1)
        if pos == REPLAN_EVERY:
            kind = "replan"
            if i - 1 not in state["plans"]:
                raise CheckFailed(f"request {i - 1} left no plan to replan")
            key, incumbent = state["plans"][i - 1]
        else:
            kind = "bootstrap"
            order = np.random.default_rng(derive_seed(state["seed"], 16, rot)) \
                .permutation(self.keys)
            key, incumbent = state["keys"][order[group * REPLAN_EVERY + pos]], None
        k, zoi, alpha0 = key
        d_t = np.asarray(PLAN_DT)
        req = scheme.ServiceRequest(zoi=zoi, alpha0=alpha0, d_t=d_t)
        w = scheme.CostWeights(d_t=d_t, content_bits=MB8)
        return key, state["scenarios"][k], req, w, incumbent, kind

    def _serve(self, state, i, model, untimed) -> tuple[Planned, float]:
        """Plan request i with `model`, then re-run the plan and all-on on the
        planner's verify seeds; returns the plan and its saving in percent."""
        key, sc, req, w, incumbent, kind = self._request(state, i)
        seed = derive_seed(state["seed"], 17, i)
        verifier, v_first = sc["verifier"], None
        if kind == "bootstrap":
            t0 = time.perf_counter()
            result = plan.bootstrap(model, sc["forecast"], req, w, state["opts"],
                                    verifier, seed=seed)
            seconds = time.perf_counter() - t0
        else:
            # the live outcome of the incumbent so far is an input of the request
            with untimed():
                live = verifier.run(incumbent, zoi=req.zoi, seed=derive_seed(seed, 1))
            t0 = time.perf_counter()
            result = plan.replan(model, live, sc["m_rest"], req, w, state["opts"],
                                 sc["rest"], t0=2, seed=seed, incumbent=incumbent)
            seconds = time.perf_counter() - t0
            # the remaining request exactly as replan verified it: second
            # interval only, started from the live availability
            verifier = sc["rest"]
            with np.errstate(invalid="ignore", divide="ignore"):
                v_first = np.clip(np.where(live.n[:, 0] > 0, live.n_c[:, 0]
                                           / np.maximum(live.n[:, 0], 1e-300), 0.0), 0.0, 1.0)
            req = scheme.ServiceRequest(zoi=req.zoi, alpha0=req.alpha0, d_t=req.d_t[1:])
            w = scheme.CostWeights(d_t=req.d_t, content_bits=MB8)
        planned = Planned(kind, key, result, seconds,
                          plan_family(state["grid"], req.zoi, req.alpha0, result.scheme))

        L, T = result.scheme.shape
        allon = scheme.all_on(L, T)
        costs, allon_costs = [], []
        with untimed():
            for v in range(state["opts"].verify_seeds):
                run_seed = derive_seed(seed, 701, v)
                out = verifier.run(result.scheme, zoi=req.zoi, seed=run_seed, v_first=v_first)
                if not scheme.is_feasible(out, req):
                    raise CheckFailed(f"plan misses alpha0={req.alpha0} on verify seed {v}")
                costs.append(scheme.scheme_cost(out, result.scheme, w))
                ref = verifier.run(allon, zoi=req.zoi, seed=run_seed, v_first=v_first)
                allon_costs.append(scheme.scheme_cost(ref, allon, w))
        cost, allon_cost = float(np.mean(costs)), float(np.mean(allon_costs))
        if not np.isclose(cost, result.verified_cost, rtol=1e-9, atol=0.0):
            raise CheckFailed(f"re-run cost {cost!r} != reported {result.verified_cost!r}")
        if cost > allon_cost * (1 + 1e-9):
            raise CheckFailed(f"plan cost {cost!r} exceeds all-on {allon_cost!r}")
        return planned, 100.0 * (1.0 - cost / allon_cost)

    def op(self, state: dict, i: int, untimed) -> dict:
        p, saving = self._serve(state, i, state["model"], untimed)
        if p.kind == "bootstrap":
            state["plans"][i] = (p.key, p.result.scheme)
        r = p.result
        return {"seconds": p.seconds, "kind": p.kind, "scenario": p.key[0],
                "zoi": list(p.key[1]), "alpha0": p.key[2], "examined": r.examined,
                "filtered": r.filtered, "verified": r.verified, "fallback": bool(r.fallback),
                "family": p.family, "verified_cost": r.verified_cost, "saving_pct": saving}

    def quality(self, records: list[dict]) -> dict:
        return {"plan_saving_pct": (float(np.mean([r["saving_pct"] for r in records])), "%")}

    def ablation(self, state: dict, i: int, untimed) -> dict:
        """The same request planned with the fixed-prediction stand-in."""
        p, saving = self._serve(state, i, state["ablation"], untimed)
        return {"seconds": p.seconds, "verified": p.result.verified, "saving_pct": saving,
                "family": p.family}


# ---------------------------------------------------------------------------
# dense_capacity: contact-heavy scenarios in capacity mode
# ---------------------------------------------------------------------------

DENSE_RATE = 0.5         # vehicles/s per border stub, 10x the desk rate
# two 30 s intervals after a 200 s warm-up: contact detection over 60 ticks
# at this density takes about 6 s, so a run still times several scenarios
DENSE_DT = (30.0, 30.0)


class DenseCapacity:
    name = "dense_capacity"
    p50_name, tail_name = "scenario_s", "scenario_tail_s"
    min_ops = 3          # the latency is a median
    cycle = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        grid = roadnet.build_manhattan(*GRID)
        channel = fcsim.ChannelModel(1.0e6, 5.0, 3.0, RADIUS_M, mode="capacity",
                                     content_bits=MB8)
        zoi = _center_zoi(grid, 3)
        T = len(DENSE_DT)
        radii = plan.default_radii(grid)
        schemes = [scheme.all_on(grid.num_links, T),
                   plan.circular_scheme(grid, zoi, radii[len(radii) // 2], T),
                   dataset.gen_random_schemes(1, grid.num_links, T, derive_seed(seed, 21),
                                              "iid")[0]]
        return {"grid": grid, "channel": channel, "zoi": zoi, "schemes": schemes,
                "seed": seed}

    def op(self, state: dict, i: int, untimed) -> dict:
        grid, seed = state["grid"], derive_seed(state["seed"], 22, i)
        t0 = time.perf_counter()
        traj = mobility.simulate_manhattan(grid, DENSE_RATE, _speed(), sum(DENSE_DT),
                                           seed=seed, warmup_s=200.0)
        contacts = mobility.detect_contacts(traj, RADIUS_M)
        mobility.mobility_features(traj, contacts, grid, DENSE_DT)
        ctx = fcsim.SimContext(grid, traj, contacts, state["channel"], DENSE_DT)
        outs = [ctx.run(s, zoi=state["zoi"], seed=derive_seed(seed, 1, r))
                for r, s in enumerate(state["schemes"])]
        seconds = time.perf_counter() - t0
        for out in outs:
            if np.any(out.n_c > out.n + 1e-9):
                raise CheckFailed("a cell has more holders than nodes (n_c > n)")
            if np.any(out.n_c < 0) or np.any(out.gamma < 0):
                raise CheckFailed("negative holder or transmitter average")
        events = len(contacts)
        contact_ticks = int(sum(e.end - e.start + 1 for e in contacts))
        if events == 0:
            raise CheckFailed("dense scenario produced no contacts")
        return {"seconds": seconds, "tracks": traj.num_tracks, "events": events,
                "contact_ticks": contact_ticks,
                "alpha_all_on": [float(a) for a in outs[0].alpha]}


WORKLOADS = {w.name: w for w in (DeskPipeline(), PlanStream(), DenseCapacity())}
