"""Experiment orchestration: a JSON-configured pipeline with deterministic,
file-based artifacts.

Subcommands (in pipeline order): grid, mobility, features, dataset, train,
bootstrap, evaluate, report.  `pipeline` runs them all.  Exit codes:
0 success, 2 invalid configuration, 3 missing or malformed upstream artifact
(a `plan.csv` shaped for another grid or request is malformed), 4 infeasible
request.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import (build_dataset, feasibility_labels, gen_random_schemes, load_dataset,
                      save_dataset)
from .fcsim import ChannelModel, SimContext
from .learn.baselines import flatten_pair_rows, train_baseline
from .learn.metrics import f_score
from .learn.surrogate import SurrogateHyper, load_model, save_model, train_surrogate
from .linktable import TableError, read_table, write_table
from .mobility import (EmptyTraceError, IntervalRangeError, SpeedModel, TraceParseError,
                       detect_contacts, interval_ticks, load_traces, mobility_features,
                       simulate_manhattan, KMH)
from .plan import (PlannerOptions, ProblemInfeasibleError, anchor_zone_family, bootstrap,
                   full_infrastructure_baseline, pick_anchor_zone, verify)
from .rng import derive_seed
from .roadnet import build_manhattan, grid_from_json, grid_to_json, raster_embed
from .scheme import (CostWeights, FcScheme, SchemeValueError, ServiceRequest, SettingError,
                     all_on, zoi_alpha)

SUBCOMMANDS = ("grid", "mobility", "features", "dataset", "train",
               "bootstrap", "evaluate", "report", "pipeline")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEPENDENCY = 3
EXIT_INFEASIBLE = 4

REPORT_SEEDS = 3        # evaluate seeds the report's strategy comparison is paired on


class ConfigError(SettingError):
    def __str__(self):
        return "invalid configuration:\n  - " + "\n  - ".join(self.violations)


class DependencyError(RuntimeError):
    pass


class RunLockedError(RuntimeError):
    pass


DEFAULTS: dict = {
    "seed": 7,
    "tick_s": 1.0,
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
    "model": {"raster_h": 9, "raster_w": 7,
              **{k: v for k, v in asdict(SurrogateHyper()).items() if k != "seed"}},
    "baselines": {"knn_k": 5, "tree_depth": 8, "forest_trees": 10, "forest_depth": 8},
    "planner": asdict(PlannerOptions()),
    "request": {"zoi": "center", "center_count": 1, "alpha0": 0.9,
                "intervals": {"count": 1, "duration_s": 3600.0}},
    "evaluate": {"seeds": 10},
    "split": {"test_fraction": 0.2},
}
SECTION_CLASSES = {"channel": ChannelModel, "model": SurrogateHyper, "planner": PlannerOptions}

# Settings of a type other than their default's, or without a default (read
# only where they apply).  An int is a number too; a bool is neither.
KINDS: dict[str, tuple[type, ...]] = {
    "grid.path": (str, type(None)), "mobility.trace_path": (str, type(None)),
    "mobility.speed.kmh": (float,), "request.zoi": (str, list),
    "intervals.durations_s": (list,), "request.intervals.durations_s": (list,),
}
_KIND_NAMES = {int: "an int", float: "a number", str: "a string", list: "a list",
               type(None): "null"}


def _is_a(value, kinds: tuple[type, ...]) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, kinds) or (float in kinds and isinstance(value, int)))


def _finite(value) -> bool:
    """False for NaN, an infinity (JSON's NaN and Infinity parse to floats)
    or an int past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


def _above(low):
    return lambda v: v > low, f"> {low}"


def _one_of(*choices):
    return lambda v: v in choices, "one of " + ", ".join(choices)


# what a setting's value must satisfy besides its type, outside the sections
# that their dataclasses check (SECTION_CLASSES)
LIMITS = {
    "grid.kind": _one_of("manhattan", "file"), "grid.rows": _at_least(2),
    "grid.cols": _at_least(2), "grid.block_side_m": _above(0),
    "mobility.kind": _one_of("synthetic", "trace"), "mobility.arrival_rate": _at_least(0),
    "mobility.duration_s": _above(0), "mobility.warmup_s": _at_least(0),
    "mobility.speed.kind": _one_of("constant", "uniform"),
    "mobility.speed.low_kmh": _above(0), "mobility.speed.kmh": _above(0),
    "content_mb": (lambda v: v > 0 and _finite(_content_bits(v)),
                   "> 0 and small enough for a finite bit count"),
    "tick_s": _above(0),
    "intervals.count": _at_least(1), "intervals.duration_s": _above(0),
    "intervals.durations_s": (lambda v: len(v) > 0 and all(_is_a(d, (float,)) and _finite(d)
                                                           and d > 0 for d in v),
                              "a non-empty list of positive numbers"),
    "cost.beta": _at_least(0), "cost.delta": _at_least(0), "cost.theta": _at_least(0),
    "dataset.num_schemes": _at_least(1), "dataset.style": _one_of("iid", "smoothed", "mixed"),
    "model.raster_h": _at_least(2), "model.raster_w": _at_least(2),
    "request.zoi": (lambda v: v == "center" or len(v) > 0
                    and all(_is_a(z, (int,)) and z >= 0 for z in v),
                    "'center' or a non-empty list of link ids"),
    "request.center_count": _at_least(1), "request.alpha0": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "evaluate.seeds": _at_least(1), "split.test_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    # the range of derive_seed, whose keys are 64-bit
    "seed": (lambda v: -2 ** 63 <= v < 2 ** 64, "in [-2^63, 2^64)"),
}
LIMITS.update({"request." + key: LIMITS[key] for key in LIMITS if key.startswith("intervals.")})


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: str | None, seed_override: int | None = None) -> dict:
    user = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError([f"config file not found: {path}"])
        try:
            user = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
        if not isinstance(user, dict):
            raise ConfigError(["config must be a JSON object"])
    cfg = _deep_merge(DEFAULTS, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    validate_config(cfg)
    return cfg


def _setting_violations(node: dict, defaults: dict, prefix: str = ""):
    """(kind, message) for each key of `node` and below that is no setting
    ("key"), or whose value is of a type ("type") or out of LIMITS ("limit")."""
    for key, value in node.items():
        name = prefix + key
        kinds = KINDS.get(name) or (type(defaults.get(key)),)
        if key not in defaults and name not in KINDS:
            yield "key", f"{name} is not a setting"
        elif isinstance(defaults.get(key), dict):
            if isinstance(value, dict):
                yield from _setting_violations(value, defaults[key], name + ".")
            else:
                yield "type", f"{name} must be an object"
        elif not _is_a(value, kinds):
            yield "type", f"{name} must be " + " or ".join(_KIND_NAMES[k] for k in kinds)
        elif float in kinds and not _finite(value):
            yield "type", f"{name} must be a finite number"
        elif name in LIMITS and not LIMITS[name][0](value):
            yield "limit", f"{name} must be {LIMITS[name][1]}"


def validate_config(cfg: dict) -> None:
    """Raise ConfigError naming the keys that are no setting, the values of a wrong
    type, else those out of range, else the broken rules between settings."""
    found: dict[str, list[str]] = {"key": [], "type": [], "limit": []}
    for kind, message in _setting_violations(cfg, DEFAULTS):
        found[kind].append(message)
    bad = found["type"] + found["limit"]
    if not found["type"]:
        for section in SECTION_CLASSES:
            try:
                settings(cfg, section)
            except SettingError as exc:
                bad.extend(f"{section}.{v}" for v in exc.violations)
    if not bad:
        grid, mob, speed = cfg["grid"], cfg["mobility"], cfg["mobility"]["speed"]
        rules = [(grid["kind"] != "file" or Path(grid["path"] or "").is_file(),
                  f"grid.path does not exist: {grid['path']}"),
                 (mob["kind"] != "trace" or Path(mob["trace_path"] or "").is_file(),
                  f"mobility.trace_path does not exist: {mob['trace_path']}"),
                 (speed["kind"] != "uniform" or speed["low_kmh"] <= speed["high_kmh"],
                  "mobility.speed.low_kmh must be <= high_kmh"),
                 (speed["kind"] != "constant" or "kmh" in speed,
                  "mobility.speed.kmh must be set for a constant speed")]
        for label, node in (("intervals", cfg["intervals"]),
                            ("request.intervals", cfg["request"]["intervals"])):
            d_t = _durations(node)
            try:
                interval_ticks(d_t, cfg["tick_s"])
            except ValueError:
                rules.append((False, f"{label} durations must be whole multiples of tick_s"))
            rules.append((mob["kind"] != "synthetic" or sum(d_t) <= mob["duration_s"] + 1e-9,
                          f"{label} cover {sum(d_t)} s, more than mobility.duration_s"))
        bad = [message for ok, message in rules if not ok]
    if bad or found["key"]:
        raise ConfigError(bad + found["key"])


# ---------------------------------------------------------------------------
# config-derived objects
# ---------------------------------------------------------------------------

def _durations(node: dict) -> list[float]:
    if "durations_s" in node:
        return [float(d) for d in node["durations_s"]]
    return [float(node["duration_s"])] * int(node["count"])


def _content_bits(content_mb: float) -> float:
    return content_mb * (2 ** 20) * 8.0


def settings(cfg: dict, section: str, **program_set):
    """The `channel`, `model` or `planner` section as its dataclass, with
    the fields the program sets (`content_bits`, `seed`) passed on."""
    cls = SECTION_CLASSES[section]
    takes = {f.name for f in fields(cls)}
    return cls(**{key: cfg[section][key] for key in DEFAULTS[section] if key in takes},
               **program_set)


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


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _write_manifest(out: Path, cfg: dict) -> None:
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {"config_sha256": digest, "seed": cfg["seed"], "tool": "floatsim"}
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def _write_trace_csv(path: Path, traj) -> None:
    track, tick = traj.sample_index()
    block = 1 << 13                 # rows turned into Python lists at a time
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
        return settings(self.cfg, "channel", content_bits=_content_bits(self.cfg["content_mb"]))

    @cached_property
    def request(self) -> ServiceRequest:
        zoi, links = _zoi(self.cfg, self.grid), self.grid.num_links
        if max(zoi) >= links:
            raise ConfigError([f"request.zoi link id {max(zoi)} is not on the grid, "
                               f"whose links are 0..{links - 1}"])
        return ServiceRequest(zoi=zoi, alpha0=self.cfg["request"]["alpha0"],
                              d_t=_durations(self.cfg["request"]["intervals"]))

    @cached_property
    def plan(self) -> FcScheme:
        """The bootstrap's strategy, shaped for this grid and request."""
        path = self.require("plan.csv", "bootstrap")
        planes = read_table(path, {f.name: float for f in fields(FcScheme)},
                            shape=(self.grid.num_links, len(self.request.d_t)))
        try:
            return FcScheme(**planes)
        except SchemeValueError as exc:
            raise TableError(f"{path}: {exc}") from exc

    @cached_property
    def weights(self) -> CostWeights:
        c = self.cfg["cost"]
        return CostWeights(d_t=self.request.d_t,
                           content_bits=_content_bits(self.cfg["content_mb"]),
                           beta=c["beta"], delta=c["delta"], theta=c["theta"])

    @cached_property
    def verifier(self) -> SimContext:
        return SimContext(self.grid, self.traj, self.contacts, self.channel,
                          self.request.d_t)


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
    write_table(run.out / "features.csv",
                {"n": m.n, "lambda": m.lam, "tau": m.tau, "nu": m.nu, "empty": m.empty})
    print(f"features: {m.shape[0]} links x {m.shape[1]} intervals")


def cmd_dataset(run: Run) -> None:
    cfg, grid = run.cfg, run.grid
    d_t = _durations(cfg["intervals"])
    embedding = raster_embed(grid, cfg["model"]["raster_h"], cfg["model"]["raster_w"])
    schemes = gen_random_schemes(cfg["dataset"]["num_schemes"], grid.num_links,
                                 len(d_t), seed=derive_seed(cfg["seed"], 2),
                                 style=cfg["dataset"]["style"], embedding=embedding)
    pairs = build_dataset(run.traj, grid, d_t, schemes, run.channel,
                          seed=derive_seed(cfg["seed"], 3), contacts=run.contacts)
    save_dataset(run.out / "dataset", pairs, grid, run.channel, d_t, cfg["tick_s"])
    rows = len(pairs) * grid.num_links * len(d_t)
    print(f"dataset: {len(pairs)} pairs, {rows} feature rows")


def cmd_train(run: Run) -> None:
    cfg, grid, req = run.cfg, run.grid, run.request
    pairs, _ = load_dataset(run.require("dataset/pairs.csv", "dataset").parent)
    embedding = raster_embed(grid, cfg["model"]["raster_h"], cfg["model"]["raster_w"])
    result = train_surrogate(pairs, embedding,
                             hyper=settings(cfg, "model", seed=derive_seed(cfg["seed"], 4)))
    save_model(result.model, run.out / "model.bin")
    with open(run.out / "metrics.csv", "w") as fh:
        fh.write("fold,train_mse,val_mse\n")
        for f, (tr, va) in enumerate(result.fold_losses):
            fh.write(f"{f},{tr!r},{va!r}\n")

    # feasibility classification: surrogate versus classical baselines
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
    # surrogate prediction -> predicted feasibility per (pair, interval), in
    # one batched prediction per mobility block that pairs share
    blocks: dict[int, list[int]] = {}
    for k, p in enumerate(pairs):
        blocks.setdefault(id(p.m), []).append(k)
    n_c = {}
    for ks in blocks.values():
        predicted = result.model.predict_many(pairs[ks[0]].m, [pairs[k].scheme for k in ks])
        n_c.update((k, c.n_c) for k, c in zip(ks, predicted))
    pred = np.concatenate([zoi_alpha(n_c[k], p.m.n, req.zoi) >= req.alpha0
                           for k, p in enumerate(pairs)])
    scores["surrogate"] = f_score(pred[test_idx], y[test_idx] > 0)
    with open(run.out / "fscores.csv", "w") as fh:
        fh.write("method,f_score\n")
        for name in sorted(scores):
            fh.write(f"{name},{scores[name]!r}\n")
    print(f"train: folds={len(result.fold_losses)} "
          f"final_val={result.final_val_loss:.4f} params={result.model.param_count}")


def cmd_bootstrap(run: Run) -> None:
    req = run.request
    model = load_model(run.require("model.bin", "train"))
    # perfect forecast: the measured mobility features of the request horizon
    forecast = mobility_features(run.traj, run.contacts, run.grid, req.d_t)
    result = bootstrap(model, forecast, req, run.weights, settings(run.cfg, "planner"),
                       run.verifier, seed=derive_seed(run.cfg["seed"], 7))
    write_table(run.out / "plan.csv", asdict(result.scheme))
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
    out, req, scheme = run.out, run.request, run.plan
    run_seeds = [derive_seed(run.cfg["seed"], 8, si) for si in range(run.cfg["evaluate"]["seeds"])]
    v, = verify(run.verifier, [scheme], req, run.weights, run_seeds)
    alpha = [[f"{t},{float(a)!r}\n" for t, a in enumerate(o.alpha, 1)] for o in v.outcomes]
    (out / "alpha_samples.csv").write_text(
        "seed,t,alpha\n" + "".join(f"{si},{row}" for si, rows in enumerate(alpha) for row in rows))
    (out / "alpha.csv").write_text("t,alpha\n" + "".join(alpha[0]))
    o = v.outcomes[0]
    write_table(out / "outcome.csv", {"n": o.n, "n_c": o.n_c, "gamma": o.gamma.sum(axis=2),
                                      "v": o.v, "seeded": o.seeded, "dropped": o.dropped})
    verdict = {"feasible": v.feasible,
               "feasible_fraction": float(np.mean(v.feasible_per_seed)),
               "cost_mean": v.cost,
               "cost_per_seed": v.costs,
               "feasible_per_seed": v.feasible_per_seed}
    (out / "verdict.json").write_text(json.dumps(verdict, sort_keys=True, indent=1))
    print(f"evaluate: feasible={verdict['feasible']} "
          f"mean cost {verdict['cost_mean']:.3e} over {len(run_seeds)} seeds")


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


def _read_evaluation(run: Run) -> tuple[np.ndarray, dict]:
    """The `evaluate` step's (n, 3) seed,t,alpha samples and its verdict; a
    malformed file is a DependencyError that names it."""
    path = run.require("alpha_samples.csv", "evaluate")
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise DependencyError(f"{path}: malformed samples: {exc}") from exc
    if rows.shape[0] == 0 or rows.shape[1] != 3:
        raise DependencyError(f"{path}: expected one or more seed,t,alpha rows")
    path = run.require("verdict.json", "evaluate")
    try:
        verdict = json.loads(path.read_text())
        for key in ("cost_per_seed", "feasible_per_seed"):
            if not isinstance(verdict[key], list):
                raise TypeError(f"{key} is not a list")
    except (ValueError, KeyError, TypeError) as exc:
        raise DependencyError(f"{path}: malformed verdict: {exc!r}") from exc
    return rows, verdict


def cmd_report(run: Run) -> None:
    """Success-ratio box plots, strategy heat maps and `savings.csv`, the
    plan's cost against the reference strategies.  All-on, full
    infrastructure and every anchor-zone radius are checked in one `verify`
    batch on the plan's first evaluate seeds; `pick_anchor_zone` reads the
    anchor-zone row from it."""
    cfg, out, grid, req, scheme = run.cfg, run.out, run.grid, run.request, run.plan
    L, T = scheme.shape
    rows, verdict = _read_evaluation(run)
    report = out / "report"
    report.mkdir(exist_ok=True)

    # success-ratio box plots per interval
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
    for t in range(T):
        (report / f"replication_t{t + 1}.svg").write_text(strategy_svg(
            grid, scheme.a[:, t], f"replication a, interval {t + 1}", req.zoi,
            deterministic))
        (report / f"storage_t{t + 1}.svg").write_text(strategy_svg(
            grid, scheme.b[:, t], f"storage b, interval {t + 1}", req.zoi,
            deterministic))

    # cost comparison against the reference strategies, paired with the plan
    # on its first evaluate seeds
    n_paired = min(REPORT_SEEDS, len(verdict["cost_per_seed"]))
    seeds = [derive_seed(cfg["seed"], 8, i) for i in range(n_paired)]
    family = anchor_zone_family(grid, req.zoi, T)
    allon, fi, *az_checks = verify(
        run.verifier, [all_on(L, T), full_infrastructure_baseline(req.zoi, L, T),
                       *family.values()], req, run.weights, seeds)
    az = pick_anchor_zone(family, az_checks)
    plan_cost = float(np.mean(verdict["cost_per_seed"][:n_paired]))
    plan_ok = all(verdict["feasible_per_seed"][:n_paired])
    with open(report / "savings.csv", "w") as fh:
        fh.write("strategy,cost,feasible,savings_vs_all_on_pct\n")
        for name, cost, ok in [("planned", plan_cost, plan_ok),
                               ("all_on", allon.cost, allon.feasible),
                               ("circular_az", az.cost, az.feasible),
                               ("full_infrastructure", fi.cost, fi.feasible)]:
            sav = 100.0 * (1.0 - cost / allon.cost) if allon.cost > 0 else 0.0
            fh.write(f"{name},{cost!r},{int(ok)},{sav!r}\n")
    print(f"report: planned {plan_cost:.3e} vs all-on {allon.cost:.3e} "
          f"({100 * (1 - plan_cost / allon.cost):.1f}% saved)")


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

    handler = {"grid": cmd_grid, "mobility": cmd_mobility, "features": cmd_features,
               "dataset": cmd_dataset, "train": cmd_train, "bootstrap": cmd_bootstrap,
               "evaluate": cmd_evaluate, "report": cmd_report,
               "pipeline": cmd_pipeline}[args.subcommand]
    try:
        cfg = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with run_lock(out):
            _write_manifest(out, cfg)
            handler(Run(cfg, out, args))
    except (ConfigError, DependencyError, RunLockedError, TableError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DEPENDENCY
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
