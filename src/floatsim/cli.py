"""Experiment orchestration: a JSON-configured pipeline with deterministic,
file-based artifacts.

Subcommands (in pipeline order): grid, mobility, features, dataset, train,
bootstrap, evaluate, report.  `pipeline` runs them all.  Exit codes:
0 success, 2 invalid configuration, 3 missing upstream artifact,
4 infeasible request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import (build_dataset, feasibility_labels, gen_random_schemes, load_dataset,
                      save_dataset)
from .fcsim import ChannelModel, SimContext, alpha_to_csv, outcome_to_csv, zoi_alpha
from .learn.baselines import flatten_pair_rows, train_baseline
from .learn.metrics import f_score
from .learn.surrogate import SurrogateHyper, load_model, save_model, train_surrogate
from .mobility import (EmptyTraceError, IntervalRangeError, SpeedModel, TraceParseError,
                       detect_contacts, interval_ticks, load_traces, mobility_features,
                       simulate_manhattan, KMH)
from .plan import (PlannerOptions, ProblemInfeasibleError, bootstrap,
                   circular_az_baseline, full_infrastructure_baseline)
from .rng import derive_seed
from .roadnet import build_manhattan, grid_from_json, grid_to_json, raster_embed
from .scheme import (CostWeights, ServiceRequest, all_on, is_feasible, scheme_cost,
                     scheme_from_csv, scheme_to_csv)

SUBCOMMANDS = ("grid", "mobility", "features", "dataset", "train",
               "bootstrap", "evaluate", "report", "pipeline")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_INFEASIBLE = 4

REPORT_SEEDS = 3        # evaluate seeds the report's strategy comparison is paired on


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = violations


class DependencyError(RuntimeError):
    pass


class RunLockedError(RuntimeError):
    pass


DEFAULTS: dict = {
    "seed": 7,
    "tick_s": 1.0,
    "seeding_mode": "exact",
    "grid": {"kind": "manhattan", "rows": 5, "cols": 4, "block_side_m": 150.0,
             "path": None},
    "mobility": {"kind": "synthetic", "arrival_rate": 1.5, "duration_s": 3600.0,
                 "warmup_s": 120.0,
                 "speed": {"kind": "uniform", "low_kmh": 20.0, "high_kmh": 30.0},
                 "trace_path": None},
    "channel": {"bandwidth_hz": 1.0e6, "edge_sinr_db": 5.0, "path_loss_exp": 3.0,
                "radius_m": 100.0, "mode": "capacity", "sinr_cap_db": 30.0},
    "content_mb": 8.0,
    "intervals": {"count": 1, "duration_s": 3600.0},
    "cost": {"beta": 1.0, "delta": 1.0, "theta": 1.0},
    "dataset": {"num_schemes": 1000, "style": "mixed"},
    "model": {"raster_h": 9, "raster_w": 7, "conv_channels": 8, "kernel": 3,
              "blocks": 1, "learning_rate": 0.05, "epochs": 15, "batch": 32,
              "momentum": 0.9, "folds": 10, "patience": 10},
    "baselines": {"knn_k": 5, "tree_depth": 8, "forest_trees": 10, "forest_depth": 8},
    "planner": {"n_candidates": 24, "margin": 0.05, "verify_top_k": 5,
                "verify_band_k": None, "band_margin": 0.15, "verify_struct_k": 4,
                "verify_seeds": 3, "perturb_sigma": 0.1, "n_perturb": 6,
                "az_radii": None},
    "request": {"zoi": "center", "center_count": 1, "alpha0": 0.9,
                "intervals": {"count": 1, "duration_s": 3600.0}},
    "evaluate": {"seeds": 10},
    "split": {"test_fraction": 0.2},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    cfg = DEFAULTS
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError([f"config file not found: {path}"])
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        cfg = _deep_merge(DEFAULTS, user)
    else:
        cfg = _deep_merge(DEFAULTS, {})
    if seed_override is not None:
        cfg["seed"] = seed_override
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    bad: list[str] = []

    def check(ok: bool, msg: str):
        if not ok:
            bad.append(msg)

    g = cfg["grid"]
    check(g["kind"] in ("manhattan", "file"), f"grid.kind {g['kind']!r} unknown")
    if g["kind"] == "manhattan":
        check(isinstance(g["rows"], int) and g["rows"] >= 2, "grid.rows must be an int >= 2")
        check(isinstance(g["cols"], int) and g["cols"] >= 2, "grid.cols must be an int >= 2")
        check(g["block_side_m"] > 0, "grid.block_side_m must be positive")
    else:
        check(bool(g.get("path")) and Path(g["path"]).is_file(),
              f"grid.path does not exist: {g.get('path')}")

    mob = cfg["mobility"]
    check(mob["kind"] in ("synthetic", "trace"), f"mobility.kind {mob['kind']!r} unknown")
    if mob["kind"] == "synthetic":
        check(mob["arrival_rate"] >= 0, "mobility.arrival_rate must be >= 0")
        check(mob["duration_s"] > 0, "mobility.duration_s must be positive")
        check(mob["warmup_s"] >= 0, "mobility.warmup_s must be >= 0")
        sp = mob["speed"]
        check(sp["kind"] in ("constant", "uniform"), f"speed.kind {sp['kind']!r} unknown")
        if sp["kind"] == "uniform":
            check(0 < sp["low_kmh"] <= sp["high_kmh"], "speed range must satisfy 0 < low <= high")
        else:
            check(sp.get("kmh", 0) > 0, "speed.kmh must be positive")
    else:
        check(bool(mob.get("trace_path")) and Path(mob["trace_path"]).is_file(),
              f"mobility.trace_path does not exist: {mob.get('trace_path')}")

    ch = cfg["channel"]
    check(ch["bandwidth_hz"] > 0, "channel.bandwidth_hz must be positive")
    check(ch["path_loss_exp"] >= 2, "channel.path_loss_exp must be >= 2")
    check(ch["radius_m"] > 0, "channel.radius_m must be positive")
    check(ch["mode"] in ("capacity", "instantaneous"), f"channel.mode {ch['mode']!r} unknown")
    check(cfg["content_mb"] > 0, "content_mb must be positive")
    check(cfg["tick_s"] > 0, "tick_s must be positive")
    check(cfg["seeding_mode"] in ("exact", "floor"),
          f"seeding_mode {cfg['seeding_mode']!r} unknown")

    for label, node in (("intervals", cfg["intervals"]),
                        ("request.intervals", cfg["request"]["intervals"])):
        n_bad = len(bad)
        if "durations_s" in node:
            check(all(d > 0 for d in node["durations_s"]),
                  f"{label}.durations_s must all be positive")
        else:
            check(node.get("count", 0) >= 1, f"{label}.count must be >= 1")
            check(node.get("duration_s", 0) > 0, f"{label}.duration_s must be positive")
        if len(bad) > n_bad or cfg["tick_s"] <= 0:
            continue
        d_t = _durations(node)
        try:
            interval_ticks(d_t, cfg["tick_s"])
        except ValueError:
            bad.append(f"{label} durations must be whole multiples of tick_s")
        if mob["kind"] == "synthetic":
            check(sum(d_t) <= mob["duration_s"] + 1e-9,
                  f"{label} cover {sum(d_t)} s, more than mobility.duration_s")

    cost = cfg["cost"]
    check(cost["beta"] >= 0 and cost["delta"] >= 0, "cost.beta and cost.delta must be >= 0")
    check(cost["theta"] >= 0, "cost.theta must be >= 0")

    ds = cfg["dataset"]
    check(ds["num_schemes"] >= 1, "dataset.num_schemes must be >= 1")
    check(ds["style"] in ("iid", "smoothed", "mixed"), f"dataset.style {ds['style']!r} unknown")

    mdl = cfg["model"]
    check(mdl["raster_h"] >= 2 and mdl["raster_w"] >= 2, "model raster must be at least 2x2")
    check(mdl["kernel"] % 2 == 1, "model.kernel must be odd")
    check(mdl["epochs"] >= 0 and mdl["folds"] >= 2, "model.epochs >= 0 and model.folds >= 2")
    check(0 < mdl["learning_rate"] < 1, "model.learning_rate out of range")

    req = cfg["request"]
    check(0 < req["alpha0"] <= 1, "request.alpha0 must lie in (0, 1]")
    if req["zoi"] != "center":
        check(isinstance(req["zoi"], list) and len(req["zoi"]) > 0
              and all(isinstance(z, int) and z >= 0 for z in req["zoi"]),
              "request.zoi must be 'center' or a non-empty list of link ids")
    else:
        check(req["center_count"] >= 1, "request.center_count must be >= 1")

    pl = cfg["planner"]
    check(pl["n_candidates"] >= 1, "planner.n_candidates must be >= 1")
    check(pl["margin"] >= 0, "planner.margin must be >= 0")
    check(pl["verify_top_k"] >= 1 and pl["verify_seeds"] >= 1,
          "planner verify settings must be >= 1")
    check(cfg["evaluate"]["seeds"] >= 1, "evaluate.seeds must be >= 1")
    check(0 < cfg["split"]["test_fraction"] < 1, "split.test_fraction must be in (0, 1)")

    # these sections are passed to their dataclasses by field name
    takes = {"channel": {f.name for f in fields(ChannelModel)} - {"content_bits"},
             "model": {f.name for f in fields(SurrogateHyper)} - {"seed"}
             | {"raster_h", "raster_w"},
             "planner": {f.name for f in fields(PlannerOptions)}}
    for section, names in takes.items():
        bad.extend(f"{section}.{key} is not a setting"
                   for key in sorted(set(cfg[section]) - names))

    if bad:
        raise ConfigError(bad)


# ---------------------------------------------------------------------------
# config-derived objects
# ---------------------------------------------------------------------------

def _durations(node: dict) -> list[float]:
    if "durations_s" in node:
        return [float(d) for d in node["durations_s"]]
    return [float(node["duration_s"])] * int(node["count"])


def _content_bits(cfg: dict) -> float:
    return cfg["content_mb"] * (2 ** 20) * 8.0


def _speed_model(cfg: dict) -> SpeedModel:
    sp = cfg["mobility"]["speed"]
    if sp["kind"] == "constant":
        return SpeedModel.constant(sp["kmh"] * KMH)
    return SpeedModel.uniform(sp["low_kmh"] * KMH, sp["high_kmh"] * KMH)


def _zoi(cfg: dict, grid) -> tuple[int, ...]:
    req = cfg["request"]
    if req["zoi"] == "center":
        xmin, ymin, xmax, ymax = grid.bbox
        center = np.array([(xmin + xmax) / 2, (ymin + ymax) / 2])
        d = np.linalg.norm(grid.link_midpoints() - center, axis=1)
        return tuple(int(i) for i in np.argsort(d, kind="stable")[:req["center_count"]])
    return tuple(sorted(set(req["zoi"])))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_manifest(out: Path, cfg: dict) -> None:
    manifest = {"config_sha256": config_hash(cfg), "seed": cfg["seed"],
                "tool": "floatsim"}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def _write_trace_csv(path: Path, traj) -> None:
    track, tick = traj.sample_index()
    block = 1 << 16                 # rows turned into Python lists at a time
    with open(path, "w") as fh:
        fh.write("t,node_id,x,y,speed\n")
        for lo in range(0, len(tick), block):
            rows = slice(lo, lo + block)
            for track_id, k, (x, y), v in zip(track[rows].tolist(), tick[rows].tolist(),
                                             traj.pos[rows].tolist(),
                                             traj.speed[rows].tolist()):
                fh.write(f"{float(k * traj.tick)!r},{track_id},{x!r},{y!r},{v!r}\n")


class Run:
    """One invocation's view of a run directory.

    Each upstream artifact is read, and each object derived from it is built,
    once, on first use; `pipeline` hands one Run to every step.  A step reads
    a property only after the step that writes its artifact has run, so every
    step sees the trajectory parsed from `trace.csv`, as a separate invocation
    would.  `verifier` holds no per-run state, so the steps share it."""

    def __init__(self, cfg: dict, out: Path, args):
        self.cfg, self.out, self.args = cfg, out, args

    def require(self, rel: str, producer: str) -> Path:
        p = self.out / rel
        if not p.exists():
            raise DependencyError(f"missing artifact {rel}; run the `{producer}` "
                                  f"subcommand first")
        return p

    @cached_property
    def grid(self):
        return grid_from_json(self.require("grid.json", "grid").read_text())

    @cached_property
    def traj(self):
        return load_traces(self.require("trace.csv", "mobility"), self.grid,
                           tick=self.cfg["tick_s"])

    @cached_property
    def contacts(self):
        return detect_contacts(self.traj, self.channel.radius_m)

    @cached_property
    def channel(self) -> ChannelModel:
        return ChannelModel(**self.cfg["channel"], content_bits=_content_bits(self.cfg))

    @cached_property
    def request(self) -> ServiceRequest:
        return ServiceRequest(zoi=_zoi(self.cfg, self.grid),
                              alpha0=self.cfg["request"]["alpha0"],
                              d_t=_durations(self.cfg["request"]["intervals"]))

    @cached_property
    def weights(self) -> CostWeights:
        c = self.cfg["cost"]
        return CostWeights(d_t=self.request.d_t, content_bits=_content_bits(self.cfg),
                           beta=c["beta"], delta=c["delta"], theta=c["theta"])

    @cached_property
    def verifier(self) -> SimContext:
        return SimContext(self.grid, self.traj, self.contacts, self.channel,
                          self.request.d_t, seeding_mode=self.cfg["seeding_mode"])


class run_lock:
    """One run directory is owned by one process at a time.

    The lock file holds the owner's pid.  A lock whose owner no longer runs
    is stale and is taken over; any other lock, including one whose pid
    cannot be read yet, excludes the run."""

    def __init__(self, out: Path):
        self.path = out / ".lock"

    def __enter__(self):
        fd = self._take()
        if fd is None:
            raise RunLockedError(f"run directory is locked by {self.path}; remove it "
                                 "if no other run is active")
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def _take(self) -> int | None:
        """Create the lock file, breaking a stale lock once; None if held."""
        for attempt in range(2):
            try:
                return os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._break_stale():
                    return None
        return None

    @staticmethod
    def _owner(path: Path) -> int | None:
        try:
            pid = int(path.read_text().strip())
        except (FileNotFoundError, ValueError):
            return None
        return pid if pid > 0 else None

    def _break_stale(self) -> bool:
        """Remove the lock if the process it names is gone.  The lock is
        moved aside first and put back if a live owner replaced it in the
        meantime, so two runs breaking one stale lock cannot both win."""
        pid = self._owner(self.path)
        if pid is None:
            return False
        try:
            os.kill(pid, 0)
            return False                # alive
        except (ProcessLookupError, OverflowError):
            pass                        # gone, or no valid pid at all
        except PermissionError:
            return False                # alive, owned by another user
        aside = self.path.with_name(f".lock.stale.{os.getpid()}")
        try:
            os.rename(self.path, aside)
        except FileNotFoundError:
            return True                 # another run removed it first
        if self._owner(aside) != pid:
            os.rename(aside, self.path)
            return False
        os.unlink(aside)
        return True

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def cmd_grid(run: Run) -> None:
    g = run.cfg["grid"]
    if g["kind"] == "manhattan":
        grid = build_manhattan(g["rows"], g["cols"], g["block_side_m"])
    else:
        grid = grid_from_json(Path(g["path"]).read_text())
    (run.out / "grid.json").write_text(grid_to_json(grid))
    print(f"grid: {grid.num_links} links, {len(grid.intersections)} intersections")


def cmd_mobility(run: Run) -> None:
    cfg, grid = run.cfg, run.grid
    mob = cfg["mobility"]
    if mob["kind"] == "synthetic":
        traj = simulate_manhattan(grid, mob["arrival_rate"], _speed_model(cfg),
                                  mob["duration_s"], seed=derive_seed(cfg["seed"], 1),
                                  tick=cfg["tick_s"], warmup_s=mob["warmup_s"])
    else:
        traj = load_traces(mob["trace_path"], grid, tick=cfg["tick_s"])
    if not traj.num_tracks:
        raise EmptyTraceError(f"mobility yields no track on the grid over {traj.horizon} "
                              f"ticks; trace.csv not written")
    _write_trace_csv(run.out / "trace.csv", traj)
    samples = len(traj.link)
    stats = {"tracks": traj.num_tracks, "ticks": traj.horizon,
             "samples": samples, "dropped_samples": traj.dropped_samples,
             "mean_concurrent": samples / max(traj.horizon, 1)}
    (run.out / "trace_stats.json").write_text(json.dumps(stats, sort_keys=True, indent=1))
    print(f"mobility: {traj.num_tracks} tracks over {traj.horizon} ticks "
          f"(~{stats['mean_concurrent']:.1f} concurrent)")


def cmd_features(run: Run) -> None:
    m = mobility_features(run.traj, run.contacts, run.grid,
                          _durations(run.cfg["intervals"]))
    with open(run.out / "features.csv", "w") as fh:
        fh.write("link_id,t,n,lambda,tau,nu,empty\n")
        for l in range(m.shape[0]):
            for t in range(m.shape[1]):
                fh.write(f"{l},{t + 1},{float(m.n[l, t])!r},{float(m.lam[l, t])!r},"
                         f"{float(m.tau[l, t])!r},{float(m.nu[l, t])!r},"
                         f"{int(m.empty[l, t])}\n")
    print(f"features: {m.shape[0]} links x {m.shape[1]} intervals")


def cmd_dataset(run: Run) -> None:
    cfg, grid = run.cfg, run.grid
    d_t = _durations(cfg["intervals"])
    embedding = raster_embed(grid, cfg["model"]["raster_h"], cfg["model"]["raster_w"])
    schemes = gen_random_schemes(cfg["dataset"]["num_schemes"], grid.num_links,
                                 len(d_t), seed=derive_seed(cfg["seed"], 2),
                                 style=cfg["dataset"]["style"], embedding=embedding)
    pairs = build_dataset(run.traj, grid, d_t, schemes, run.channel,
                          seed=derive_seed(cfg["seed"], 3), contacts=run.contacts,
                          seeding_mode=cfg["seeding_mode"])
    save_dataset(run.out / "dataset", pairs, grid, run.channel, d_t, cfg["tick_s"])
    rows = len(pairs) * grid.num_links * len(d_t)
    print(f"dataset: {len(pairs)} pairs, {rows} feature rows")


def cmd_train(run: Run) -> None:
    cfg, grid = run.cfg, run.grid
    run.require("dataset/pairs.csv", "dataset")
    pairs, _ = load_dataset(run.out / "dataset")
    embedding = raster_embed(grid, cfg["model"]["raster_h"], cfg["model"]["raster_w"])
    mdl = cfg["model"]
    hyper = SurrogateHyper(**{k: v for k, v in mdl.items()
                              if k not in ("raster_h", "raster_w")},
                           seed=derive_seed(cfg["seed"], 4))
    result = train_surrogate(pairs, embedding, hyper=hyper)
    save_model(result.model, run.out / "model.bin")
    with open(run.out / "metrics.csv", "w") as fh:
        fh.write("fold,train_mse,val_mse\n")
        for f, (tr, va) in enumerate(result.fold_losses):
            fh.write(f"{f},{tr!r},{va!r}\n")

    # feasibility classification: surrogate versus classical baselines
    req = run.request
    labels = feasibility_labels(pairs, req.zoi, req.alpha0)
    rows = flatten_pair_rows(pairs, result.model.normalizer)
    rng = np.random.default_rng(derive_seed(cfg["seed"], 5))
    order = rng.permutation(len(rows))
    n_test = max(1, int(len(rows) * cfg["split"]["test_fraction"]))
    test_idx, train_idx = order[:n_test], order[n_test:]
    y = labels.astype(np.int64)
    scores = {}
    if len(np.unique(y[train_idx])) > 1:
        bl = cfg["baselines"]
        for name, kind, params in [
                ("knn", "knn", {"k": min(bl["knn_k"], len(train_idx))}),
                ("tree", "tree", {"max_depth": bl["tree_depth"]}),
                ("forest", "forest", {"n_trees": bl["forest_trees"],
                                      "max_depth": bl["forest_depth"],
                                      "seed": derive_seed(cfg["seed"], 6)})]:
            model_b = train_baseline(kind, rows[train_idx], y[train_idx], **params)
            scores[name] = f_score(model_b.predict(rows[test_idx]) > 0, y[test_idx] > 0)
    # surrogate prediction -> predicted feasibility per (pair, interval)
    pred = np.concatenate([zoi_alpha(result.model.predict(p.m, p.scheme).n_c, p.m.n, req.zoi)
                           >= req.alpha0 for p in pairs])
    scores["surrogate"] = f_score(pred[test_idx], y[test_idx] > 0)
    with open(run.out / "fscores.csv", "w") as fh:
        fh.write("method,f_score\n")
        for name in sorted(scores):
            fh.write(f"{name},{scores[name]!r}\n")
    print(f"train: folds={len(result.fold_losses)} "
          f"final_val={result.final_val_loss:.4f} params={result.model.param_count}")


def cmd_bootstrap(run: Run) -> None:
    model = load_model(run.require("model.bin", "train"))
    req = run.request
    # perfect forecast: the measured mobility features of the request horizon
    forecast = mobility_features(run.traj, run.contacts, run.grid, req.d_t)
    pl = run.cfg["planner"]
    radii = pl["az_radii"]
    opts = PlannerOptions(**{**pl, "az_radii": tuple(radii) if radii else None})
    result = bootstrap(model, forecast, req, run.weights, opts, run.verifier,
                       seed=derive_seed(run.cfg["seed"], 7))
    (run.out / "plan.csv").write_text(scheme_to_csv(result.scheme))
    summary = {"predicted_cost": result.predicted_cost,
               "verified_cost": result.verified_cost,
               "alpha": [float(a) for a in result.alpha],
               "fallback": result.fallback,
               "candidates": {"examined": result.examined,
                              "filtered": result.filtered,
                              "verified": result.verified},
               "zoi": list(req.zoi),
               "timings": {"wall_clock_s": result.wall_clock_s}}
    (run.out / "plan.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    print(f"bootstrap: verified cost {result.verified_cost:.3e} "
          f"fallback={result.fallback} ({result.wall_clock_s:.2f}s)")


def cmd_evaluate(run: Run) -> None:
    out, req = run.out, run.request
    scheme = scheme_from_csv(run.require("plan.csv", "bootstrap").read_text())
    n_seeds = run.cfg["evaluate"]["seeds"]
    run_seeds = [derive_seed(run.cfg["seed"], 8, si) for si in range(n_seeds)]
    outcomes = run.verifier.run_many([scheme] * n_seeds, run_seeds, zoi=req.zoi)
    costs = [scheme_cost(outcome, scheme, run.weights) for outcome in outcomes]
    feasibles = [is_feasible(outcome, req) for outcome in outcomes]
    with open(out / "alpha_samples.csv", "w") as fh:
        fh.write("seed,t,alpha\n")
        for si, outcome in enumerate(outcomes):
            for t, a in enumerate(outcome.alpha, start=1):
                fh.write(f"{si},{t},{float(a)!r}\n")
    (out / "outcome.csv").write_text(outcome_to_csv(outcomes[0]))
    (out / "alpha.csv").write_text(alpha_to_csv(outcomes[0]))
    verdict = {"feasible": bool(all(feasibles)),
               "feasible_fraction": float(np.mean(feasibles)),
               "cost_mean": float(np.mean(costs)),
               "cost_per_seed": [float(c) for c in costs],
               "feasible_per_seed": [bool(f) for f in feasibles]}
    (out / "verdict.json").write_text(json.dumps(verdict, sort_keys=True, indent=1))
    print(f"evaluate: feasible={verdict['feasible']} "
          f"mean cost {verdict['cost_mean']:.3e} over {n_seeds} seeds")


# -- report helpers -----------------------------------------------------------

_HEAT_STOPS = [(0.0, (68, 1, 84)), (0.25, (59, 82, 139)), (0.5, (33, 145, 140)),
               (0.75, (94, 201, 98)), (1.0, (253, 231, 37))]


def _heat_color(v: float) -> str:
    v = min(max(float(v), 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(_HEAT_STOPS, _HEAT_STOPS[1:]):
        if v <= x1:
            f = 0.0 if x1 == x0 else (v - x0) / (x1 - x0)
            rgb = tuple(int(round(a + f * (b - a))) for a, b in zip(c0, c1))
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    return "#fde725"


def strategy_svg(grid, values: np.ndarray, title: str, zoi=(),
                 deterministic: bool = True) -> str:
    """Color every link of the grid by its per-link value in [0, 1]."""
    xmin, ymin, xmax, ymax = grid.bbox
    pad = 0.06 * max(xmax - xmin, ymax - ymin)
    wpx = 480.0
    scale = wpx / (xmax - xmin + 2 * pad)
    hpx = (ymax - ymin + 2 * pad) * scale

    def sx(x):
        return (x - xmin + pad) * scale

    def sy(y):
        return hpx - (y - ymin + pad) * scale

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{wpx:.0f}" '
             f'height="{hpx + 26:.0f}" viewBox="0 0 {wpx:.0f} {hpx + 26:.0f}">']
    if not deterministic:
        parts.append(f"<!-- generated {time.strftime('%Y-%m-%dT%H:%M:%S')} -->")
    parts.append(f'<text x="8" y="16" font-family="monospace" font-size="13">{title}</text>')
    parts.append(f'<g transform="translate(0 22)">')
    zoi = set(zoi)
    for ln in grid.links:
        color = _heat_color(values[ln.id])
        width = 7 if ln.id in zoi else 5
        dash = ' stroke-dasharray="2 2"' if ln.is_border_stub else ""
        parts.append(f'<line x1="{sx(ln.p1[0]):.1f}" y1="{sy(ln.p1[1]):.1f}" '
                     f'x2="{sx(ln.p2[0]):.1f}" y2="{sy(ln.p2[1]):.1f}" '
                     f'stroke="{color}" stroke-width="{width}"{dash}/>')
    for ln in grid.links:
        if ln.id in zoi:
            mx, my = ln.midpoint
            parts.append(f'<circle cx="{sx(mx):.1f}" cy="{sy(my):.1f}" r="6" '
                         f'fill="none" stroke="#d62728" stroke-width="2"/>')
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


def _box_stats(samples: np.ndarray) -> dict:
    q1, med, q3 = (float(np.percentile(samples, p)) for p in (25, 50, 75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = [float(s) for s in samples if s < lo or s > hi]
    return {"min": float(samples.min()), "q1": q1, "median": med, "q3": q3,
            "max": float(samples.max()), "iqr": iqr, "lo_fence": lo, "hi_fence": hi,
            "outliers": outliers}


def cmd_report(run: Run) -> None:
    cfg, out, grid, req = run.cfg, run.out, run.grid, run.request
    scheme = scheme_from_csv(run.require("plan.csv", "bootstrap").read_text())
    run.require("alpha_samples.csv", "evaluate")
    verdict = json.loads(run.require("verdict.json", "evaluate").read_text())
    report = out / "report"
    report.mkdir(exist_ok=True)

    # success-ratio box plots per interval
    rows = np.loadtxt(out / "alpha_samples.csv", delimiter=",", skiprows=1, ndmin=2)
    with open(report / "boxplot.csv", "w") as fh:
        fh.write("t,min,q1,median,q3,max,iqr,lo_fence,hi_fence,outliers\n")
        for t in sorted(set(int(r) for r in rows[:, 1])):
            samples = rows[rows[:, 1] == t, 2]
            st = _box_stats(samples)
            outl = ";".join(repr(o) for o in st["outliers"])
            fh.write(f"{t},{st['min']!r},{st['q1']!r},{st['median']!r},{st['q3']!r},"
                     f"{st['max']!r},{st['iqr']!r},{st['lo_fence']!r},"
                     f"{st['hi_fence']!r},{outl}\n")

    deterministic = bool(getattr(run.args, "deterministic_svg", False))
    for t in range(scheme.T):
        (report / f"replication_t{t + 1}.svg").write_text(strategy_svg(
            grid, scheme.a[:, t], f"replication a, interval {t + 1}", req.zoi,
            deterministic))
        (report / f"storage_t{t + 1}.svg").write_text(strategy_svg(
            grid, scheme.b[:, t], f"storage b, interval {t + 1}", req.zoi,
            deterministic))

    # cost comparison against the reference strategies, paired with the plan
    # on its first evaluate seeds
    verifier, w = run.verifier, run.weights
    n_paired = min(REPORT_SEEDS, len(verdict["cost_per_seed"]))
    seeds = [derive_seed(cfg["seed"], 8, i) for i in range(n_paired)]

    def sim_cost(strategy) -> tuple[float, bool]:
        outs = verifier.run_many([strategy] * len(seeds), seeds, zoi=req.zoi)
        return (float(np.mean([scheme_cost(o, strategy, w) for o in outs])),
                all(is_feasible(o, req) for o in outs))

    allon_cost, allon_ok = sim_cost(all_on(grid.num_links, scheme.T))
    az = circular_az_baseline(verifier, req, w,
                              radii=cfg["planner"]["az_radii"], run_seeds=seeds)
    fi_cost, fi_ok = sim_cost(full_infrastructure_baseline(req.zoi, grid.num_links,
                                                           scheme.T))
    plan_cost = float(np.mean(verdict["cost_per_seed"][:n_paired]))
    plan_ok = all(verdict["feasible_per_seed"][:n_paired])
    with open(report / "savings.csv", "w") as fh:
        fh.write("strategy,cost,feasible,savings_vs_all_on_pct\n")
        for name, cost, ok in [("planned", plan_cost, plan_ok),
                               ("all_on", allon_cost, allon_ok),
                               ("circular_az", az.cost, az.feasible),
                               ("full_infrastructure", fi_cost, fi_ok)]:
            sav = 100.0 * (1.0 - cost / allon_cost) if allon_cost > 0 else 0.0
            fh.write(f"{name},{cost!r},{int(ok)},{sav!r}\n")
    print(f"report: planned {plan_cost:.3e} vs all-on {allon_cost:.3e} "
          f"({100 * (1 - plan_cost / allon_cost):.1f}% saved)")


def cmd_pipeline(run: Run) -> None:
    for step in (cmd_grid, cmd_mobility, cmd_features, cmd_dataset, cmd_train,
                 cmd_bootstrap, cmd_evaluate, cmd_report):
        step(run)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="floatsim",
        description="Floating-content simulation and strategy planning pipeline.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--out", default="runs/default", help="run output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--deterministic-svg", action="store_true",
                        help="omit timestamps from SVG output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.seed)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {"grid": cmd_grid, "mobility": cmd_mobility, "features": cmd_features,
               "dataset": cmd_dataset, "train": cmd_train, "bootstrap": cmd_bootstrap,
               "evaluate": cmd_evaluate, "report": cmd_report,
               "pipeline": cmd_pipeline}[args.subcommand]
    try:
        with run_lock(out):
            _write_manifest(out, cfg)
            handler(Run(cfg, out, args))
    except DependencyError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DEPENDENCY
    except RunLockedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DEPENDENCY
    except ProblemInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (IntervalRangeError, TraceParseError, EmptyTraceError) as exc:
        # faults of the configured mobility, found once it is read or built
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
