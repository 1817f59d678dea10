import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatsim import cli
from floatsim.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_INFEASIBLE, EXIT_OK,
                          ConfigError, RunLockedError, load_config, main, run_lock,
                          strategy_svg)
from floatsim.fcsim import ChannelModel, SimContext
from floatsim.linktable import write_table
from floatsim.plan import circular_scheme, default_radii, full_infrastructure_baseline
from floatsim.rng import derive_seed
from floatsim.roadnet import build_manhattan, grid_from_json, grid_to_json
from floatsim.scheme import CostWeights, all_on, is_feasible, scheme_cost

TINY = {
    "seed": 5,
    "mobility": {"arrival_rate": 0.06, "duration_s": 240.0, "warmup_s": 150.0},
    "intervals": {"count": 2, "duration_s": 120.0},
    "dataset": {"num_schemes": 6},
    "model": {"epochs": 4, "folds": 2, "learning_rate": 0.1},
    "baselines": {"knn_k": 3, "tree_depth": 4, "forest_trees": 3, "forest_depth": 4},
    "planner": {"n_candidates": 6, "verify_top_k": 3, "verify_seeds": 2},
    "request": {"zoi": "center", "center_count": 3, "alpha0": 0.8,
                "intervals": {"count": 2, "duration_s": 120.0}},
    "evaluate": {"seeds": 3},
}

EXPECTED_ARTIFACTS = [
    "manifest.json", "grid.json", "trace.csv", "trace_stats.json", "features.csv",
    "dataset/manifest.json", "dataset/pairs.csv", "model.bin", "metrics.csv",
    "fscores.csv", "plan.csv", "plan.json", "outcome.csv", "alpha.csv",
    "alpha_samples.csv", "verdict.json", "report/boxplot.csv", "report/savings.csv",
    "report/replication_t1.svg", "report/replication_t2.svg",
    "report/storage_t1.svg", "report/storage_t2.svg",
]


def write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TINY))
    if overrides:
        for key, value in overrides.items():
            if isinstance(value, dict):
                cfg.setdefault(key, {}).update(value)
            else:
                cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_defaults_are_a_valid_config():
    cfg = load_config(None)
    assert cfg["request"]["alpha0"] == 0.9
    assert cfg["content_mb"] == 8.0
    assert cfg["channel"]["bandwidth_hz"] == 1.0e6
    assert cfg["channel"]["edge_sinr_db"] == 5.0
    assert cfg["channel"]["path_loss_exp"] == 3.0
    assert cfg["cost"]["beta"] == 1.0 and cfg["cost"]["delta"] == 1.0


def test_invalid_config_lists_every_violation(tmp_path):
    path = write_config(tmp_path, {
        "mobility": {"arrival_rate": -1.0},
        "request": {"alpha0": 1.5},
        "channel": {"mode": "warp", "tx_power_dbm": 20.0, "content_bits": 1.0},
        "model": {"lr": 0.1, "seed": 3},
        "planner": {"n_candidate": 5},
    })
    with pytest.raises(ConfigError) as err:
        load_config(path)
    text = str(err.value)
    assert "arrival_rate" in text
    assert "alpha0" in text
    assert "mode" in text
    # every key that no config object takes is named, set by the program or not
    for key in ("channel.tx_power_dbm", "channel.content_bits", "model.lr",
                "model.seed", "planner.n_candidate"):
        assert key in text
    assert main(["grid", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG


@pytest.mark.parametrize("key, value", [("radius_m", math.inf), ("edge_sinr_db", -math.inf),
                                        ("edge_sinr_db", math.nan), ("sinr_cap_db", math.nan)])
def test_non_finite_channel_value_is_a_config_error(tmp_path, capsys, key, value):
    # JSON's Infinity and NaN parse to floats; they are rejected before any step runs
    path = write_config(tmp_path, {"channel": {key: value}})
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"channel.{key} must be a finite number" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(**{**cli.DEFAULTS["channel"], key: value})


def _leaves(node, prefix=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _nested(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def _json_kind(value) -> str:
    return "bool" if isinstance(value, bool) else type(value).__name__


# the leaves that take a second type besides their default's
OTHER_KIND = {("grid", "path"): "str", ("mobility", "trace_path"): "str",
              ("request", "zoi"): "list"}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _non_finite(value) -> bool:
    return any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value]))


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_leaves(cli.DEFAULTS))),
       value=st.one_of(st.text(max_size=8), NON_FINITE,
                       st.lists(st.integers(-3, 3) | st.text(max_size=3) | NON_FINITE,
                                max_size=3),
                       st.none(), st.booleans(),
                       st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)))
def test_a_setting_of_another_type_is_a_config_error(tmp_path_factory, path, value):
    config = tmp_path_factory.mktemp("cfg") / "config.json"
    config.write_text(json.dumps(_nested(path, value)))
    try:
        cfg = load_config(str(config))
    except ConfigError:
        return
    got, default = cfg, cli.DEFAULTS
    for key in path:
        got, default = got[key], default[key]
    kinds = {_json_kind(default), OTHER_KIND.get(path)}
    if "float" in kinds:
        kinds.add("int")
    assert _json_kind(got) in kinds, f"{'.'.join(path)} = {got!r}"
    assert not _non_finite(got), f"{'.'.join(path)} = {got!r}"


@pytest.mark.parametrize("config, message", [
    ({"mobility": {"duration_s": math.inf}}, "mobility.duration_s must be a finite number"),
    ({"mobility": {"speed": {"high_kmh": math.inf}}},
     "mobility.speed.high_kmh must be a finite number"),
    ({"mobility": {"duration_s": 10 ** 400}}, "mobility.duration_s must be a finite number"),
    ({"intervals": {"durations_s": [120.0, math.nan]}},
     "intervals.durations_s must be a non-empty list of positive numbers"),
    ({"seed": 10 ** 23}, "seed must be in [-2^63, 2^64)"),
    ({"seed": 2 ** 64}, "seed must be in [-2^63, 2^64)"),
    ({"seed": -2 ** 63 - 1}, "seed must be in [-2^63, 2^64)"),
    ({"channel": {"edge_sinr_db": 1e5}}, "channel.edge_sinr_db must give a positive finite SINR"),
    ({"channel": {"sinr_cap_db": 1e5}}, "channel.sinr_cap_db must give a finite SINR"),
])
def test_a_value_past_what_a_step_computes_with_is_a_config_error(tmp_path, config, message):
    # values past what a step can compute with: the float range, or the seed range
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert message in str(err.value)


def test_content_size_without_a_finite_bit_count_is_a_config_error(tmp_path, capsys):
    # 1e308 MB is a finite number of megabytes but not of bits
    path = write_config(tmp_path, {"content_mb": 1e308})
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "content_mb must be > 0 and small enough for a finite bit count" \
        in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="finite"):
        ChannelModel(**cli.DEFAULTS["channel"], content_bits=math.inf)
    with pytest.raises(ValueError, match="finite"):
        CostWeights(d_t=[60.0], content_bits=math.inf)


@pytest.mark.parametrize("seed", [-2 ** 63, -1, 0, 2 ** 63, 2 ** 64 - 1])
def test_every_seed_derive_seed_takes_is_accepted(tmp_path, seed):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": seed}))
    assert load_config(str(path))["seed"] == seed
    derive_seed(seed, 1)


@pytest.mark.parametrize("config, message", [
    ({"channel": {"radius_m": "100"}}, "channel.radius_m must be a number"),
    ({"grid": {"block_side_m": "150"}}, "grid.block_side_m must be a number"),
    ({"channel": {"radius_m": True}}, "channel.radius_m must be a number"),
    ({"mobility": {"speed": {"kind": "constant", "kmh": "20"}}},
     "mobility.speed.kmh must be a number"),
    ({"intervals": {"durations_s": [120.0, "120"]}},
     "intervals.durations_s must be a non-empty list of positive numbers"),
    ({"request": {"zoi": [1, True]}}, "request.zoi must be 'center' or a non-empty list"),
    ({"grid": []}, "grid must be an object"),
] + [(_nested(key.split("."), 2.0), f"{key} must be an int")
     for key in ("grid.rows", "dataset.num_schemes", "request.center_count", "evaluate.seeds",
                 "intervals.count", "planner.n_candidates", "planner.verify_top_k",
                 "planner.verify_seeds", "seed")])
def test_a_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["grid", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, keys", [
    ({"seeding_mod": "floor", "evalute": {"seeds": 2}}, ["seeding_mod", "evalute"]),
    # the removed seeding clamp's setting, in two parts, so that a search of
    # the sources for its name finds no use of it
    ({"seeding" "_mode": "floor"}, ["seeding" "_mode"]),
    ({"planner": {"margin": 0.1, "verify_band_k": 2, "band_margin": 0.2,
                  "verify_struct_k": 0, "perturb_sigma": 0.2, "n_perturb": 3,
                  "az_radii": [100.0]}},
     ["planner.margin", "planner.verify_band_k", "planner.band_margin",
      "planner.verify_struct_k", "planner.perturb_sigma", "planner.n_perturb",
      "planner.az_radii"]),
    ({"mobility": {"speed": {"kmhh": 20.0}}, "request": {"intervals": {"cnt": 2}}},
     ["mobility.speed.kmhh", "request.intervals.cnt"]),
])
def test_a_key_that_is_no_setting_is_a_config_error(tmp_path, capsys, config, keys):
    # a removed setting is named too, rather than left to its old default
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["grid", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for key in keys:
        assert f"{key} is not a setting" in err


def test_optional_settings_are_accepted(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid_to_json(build_manhattan(3, 3, 100.0)))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t,node_id,x,y,speed\n")
    cfg = load_config(str(write_config(tmp_path, {
        "grid": {"kind": "file", "path": str(grid_path)},
        "intervals": {"durations_s": [120.0, 60, 60.0]},
        "request": {"intervals": {"durations_s": [120.0, 120.0]}}})))
    assert cfg["intervals"]["durations_s"] == [120.0, 60, 60.0]
    cfg = load_config(str(write_config(tmp_path, {
        "mobility": {"speed": {"kind": "constant", "kmh": 25}}})))
    assert cfg["mobility"]["speed"]["kmh"] == 25
    cfg = load_config(str(write_config(tmp_path, {
        "mobility": {"kind": "trace", "trace_path": str(trace_path)}})))
    assert cfg["mobility"]["trace_path"] == str(trace_path)


def test_dataclass_checks_are_reported_by_setting(tmp_path):
    path = write_config(tmp_path, {"model": {"kernel": 2, "folds": 1},
                                   "planner": {"verify_seeds": 0}})
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.violations == ["model.kernel must be odd", "model.folds must be >= 2",
                                    "planner.verify_seeds must be >= 1"]


@pytest.mark.parametrize("overrides, message", [
    ({"intervals": {"count": 3, "duration_s": 120.0}},
     "intervals cover 360.0 s, more than mobility.duration_s"),
    ({"request": {"intervals": {"count": 2, "duration_s": 150.0}}},
     "request.intervals cover 300.0 s"),
    ({"intervals": {"count": 2, "duration_s": 100.5}},
     "intervals durations must be whole multiples of tick_s"),
    ({"tick_s": 7.0}, "request.intervals durations must be whole multiples of tick_s"),
])
def test_interval_partition_is_validated(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, overrides)
    assert main(["grid", "--config", str(path), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_partition_beyond_trace_horizon_is_a_config_error(tmp_path, capsys):
    # a trace's horizon is known only once it is parsed
    src, synthetic = tmp_path / "src", str(write_config(tmp_path))
    for step in ("grid", "mobility"):
        assert main([step, "--config", synthetic, "--out", str(src)]) == EXIT_OK
    path = write_config(tmp_path, {
        "mobility": {"kind": "trace", "trace_path": str(src / "trace.csv")},
        "intervals": {"count": 3, "duration_s": 120.0}})
    out = str(tmp_path / "run")
    for step in ("grid", "mobility"):
        assert main([step, "--config", str(path), "--out", out]) == EXIT_OK
    assert main(["features", "--config", str(path), "--out", out]) == EXIT_CONFIG
    assert "interval partition covers 360 ticks" in capsys.readouterr().err


def test_mobility_without_vehicles_is_a_config_error(tmp_path, capsys):
    path = str(write_config(tmp_path, {"mobility": {"arrival_rate": 0.0}}))
    out = tmp_path / "run"
    assert main(["grid", "--config", path, "--out", str(out)]) == EXIT_OK
    assert main(["mobility", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "no track" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_malformed_trace_is_a_config_error(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("t,node_id,x,y\n0.0,1,0.0,0.0\n1.0,one,10.0,0.0\n")
    path = str(write_config(tmp_path, {"mobility": {"kind": "trace",
                                                    "trace_path": str(trace)}}))
    out = str(tmp_path / "run")
    assert main(["grid", "--config", path, "--out", out]) == EXIT_OK
    assert main(["mobility", "--config", path, "--out", out]) == EXIT_CONFIG
    assert "bad.csv:3: malformed row" in capsys.readouterr().err


def test_missing_artifact_names_producer(tmp_path, capsys):
    path = write_config(tmp_path)
    rc = main(["mobility", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == EXIT_DEPENDENCY
    assert "`grid`" in capsys.readouterr().err


def test_lock_excludes_second_run(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))     # a live owner
    rc = main(["grid", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_DEPENDENCY
    with pytest.raises(RunLockedError):
        with run_lock(out):
            pass
    assert (out / ".lock").read_text() == str(os.getpid())


def test_stale_lock_of_exited_process_is_replaced(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    out.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    assert child.wait(timeout=60) == 0
    (out / ".lock").write_text(str(child.pid))
    rc = main(["grid", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "grid.json").exists()
    assert not (out / ".lock").exists()
    assert not list(out.glob(".lock*"))


def test_unreadable_lock_is_kept(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / ".lock").write_text("")       # created, pid not written yet
    with pytest.raises(RunLockedError):
        with run_lock(out):
            pass
    assert (out / ".lock").exists()


def test_pipeline_produces_all_artifacts(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", str(path), "--out", str(out),
               "--deterministic-svg"])
    assert rc == EXIT_OK
    for rel in EXPECTED_ARTIFACTS:
        assert (out / rel).exists(), rel
    assert not (out / ".lock").exists()
    verdict = json.loads((out / "verdict.json").read_text())
    assert "cost_mean" in verdict and "feasible" in verdict
    plan = json.loads((out / "plan.json").read_text())
    assert plan["verified_cost"] <= plan.get("predicted_cost", float("inf")) * 10
    assert len(plan["alpha"]) == 2


def test_pipeline_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", "--config", str(path), "--out", str(out1),
                 "--deterministic-svg"]) == EXIT_OK
    assert main(["pipeline", "--config", str(path), "--out", str(out2),
                 "--deterministic-svg"]) == EXIT_OK
    for rel in EXPECTED_ARTIFACTS:
        if rel == "plan.json":   # carries wall-clock timings by design
            a = json.loads((out1 / rel).read_text())
            b = json.loads((out2 / rel).read_text())
            a.pop("timings"), b.pop("timings")
            assert a == b
            continue
        a = (out1 / rel).read_bytes()
        b = (out2 / rel).read_bytes()
        assert a == b, f"artifact {rel} differs between identical runs"


def test_pipeline_derives_each_artifact_once(tmp_path, monkeypatch):
    calls = {"load_traces": 0, "detect_contacts": 0, "SimContext": 0, "read_table": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("load_traces", "detect_contacts", "read_table"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.setattr(SimContext, "__init__", counted("SimContext", SimContext.__init__))
    path = write_config(tmp_path)
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--deterministic-svg"]) == EXIT_OK
    # one trajectory and one contact table; one engine for the dataset's
    # intervals and one for the request's, shared by bootstrap, evaluate, report;
    # one parse of plan.csv, shared by evaluate and report
    assert calls == {"load_traces": 1, "detect_contacts": 1, "SimContext": 2,
                     "read_table": 1}


def test_separate_steps_match_pipeline(tmp_path):
    path = write_config(tmp_path)
    steps, piped = tmp_path / "steps", tmp_path / "piped"
    for step in ("grid", "mobility", "features", "dataset", "train", "bootstrap",
                 "evaluate", "report"):
        assert main([step, "--config", str(path), "--out", str(steps),
                     "--deterministic-svg"]) == EXIT_OK
    assert main(["pipeline", "--config", str(path), "--out", str(piped),
                 "--deterministic-svg"]) == EXIT_OK
    files = sorted(p.relative_to(steps) for p in steps.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(piped) for p in piped.rglob("*") if p.is_file())
    for rel in files:
        a, b = (steps / rel).read_bytes(), (piped / rel).read_bytes()
        if rel == Path("plan.json"):    # carries wall-clock timings by design
            a, b = json.loads(a), json.loads(b)
            a.pop("timings"), b.pop("timings")
        assert a == b, f"{rel} differs between separate steps and one pipeline"


def test_seed_override_changes_artifacts(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["mobility", "--config", str(path), "--out", str(out1)]) \
        == EXIT_DEPENDENCY  # grid missing: nothing leaks into the run dir
    for out, seed in ((out1, None), (out2, 123)):
        argv = ["pipeline", "--config", str(path), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()


def test_all_on_plan_saves_exactly_nothing(tmp_path):
    # the report scores the reference strategies on the plan's own first
    # evaluate seeds, so an all-on plan costs exactly what all-on costs
    path = write_config(tmp_path)
    out = tmp_path / "run"
    for step in ("grid", "mobility"):
        assert main([step, "--config", str(path), "--out", str(out)]) == EXIT_OK
    grid = grid_from_json((out / "grid.json").read_text())
    ones = np.ones((grid.num_links, 2))
    write_table(out / "plan.csv", {"a": ones, "b": ones, "s": ones})
    for step in ("evaluate", "report"):
        assert main([step, "--config", str(path), "--out", str(out),
                     "--deterministic-svg"]) == EXIT_OK
    rows = {r["strategy"]: r for r in
            csv.DictReader((out / "report" / "savings.csv").read_text().splitlines())}
    assert rows["planned"]["cost"] == rows["all_on"]["cost"]
    assert rows["planned"]["feasible"] == rows["all_on"]["feasible"]
    assert float(rows["planned"]["savings_vs_all_on_pct"]) == 0.0


def test_report_reference_rows_equal_lone_runs(tmp_path):
    # the report verifies all-on, full infrastructure and every anchor-zone
    # radius in one batch; each row must equal separate runs on the plan's
    # first evaluate seeds
    path = write_config(tmp_path)
    out = tmp_path / "run"
    for step in ("grid", "mobility"):
        assert main([step, "--config", str(path), "--out", str(out)]) == EXIT_OK
    grid = grid_from_json((out / "grid.json").read_text())
    L, T = grid.num_links, 2
    write_table(out / "plan.csv", asdict(all_on(L, T)))
    for step in ("evaluate", "report"):
        assert main([step, "--config", str(path), "--out", str(out),
                     "--deterministic-svg"]) == EXIT_OK
    cfg = load_config(str(path))
    run = cli.Run(cfg, out, None)
    req, w, ctx = run.request, run.weights, run.verifier
    seeds = [derive_seed(cfg["seed"], 8, i)
             for i in range(min(cli.REPORT_SEEDS, cfg["evaluate"]["seeds"]))]

    def lone(scheme):
        outs = [ctx.run(scheme, zoi=req.zoi, seed=s) for s in seeds]
        return (float(np.mean([scheme_cost(o, scheme, w) for o in outs])),
                all(is_feasible(o, req) for o in outs))

    want = {"all_on": lone(all_on(L, T)),
            "full_infrastructure": lone(full_infrastructure_baseline(req.zoi, L, T))}
    for radius in sorted(default_radii(grid)):
        want["circular_az"] = lone(circular_scheme(grid, req.zoi, radius, T))
        if want["circular_az"][1]:
            break
    rows = {r["strategy"]: r for r in
            csv.DictReader((out / "report" / "savings.csv").read_text().splitlines())}
    for name, (cost, ok) in want.items():
        assert float(rows[name]["cost"]) == cost, name
        assert rows[name]["feasible"] == str(int(ok)), name


def test_each_simulating_step_makes_one_engine_call(tmp_path, monkeypatch):
    # dataset, bootstrap, evaluate and report each simulate in one batch
    batches = []
    run_many = SimContext.run_many

    def spy(self, schemes, *args, **kwargs):
        batches.append(len(schemes))
        return run_many(self, schemes, *args, **kwargs)

    monkeypatch.setattr(SimContext, "run_many", spy)
    path = str(write_config(tmp_path))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", path, "--out", str(out)]) == EXIT_OK
    assert len(batches) == 4
    batches.clear()
    assert main(["report", "--config", path, "--out", str(out)]) == EXIT_OK
    # all-on, full infrastructure and each radius, on each paired seed
    radii = default_radii(grid_from_json((out / "grid.json").read_text()))
    assert batches == [(2 + len(radii)) * min(cli.REPORT_SEEDS, TINY["evaluate"]["seeds"])]


def _drop_links(lines, *links):
    return [ln for ln in lines if ln.split(",")[0] not in {str(l) for l in links}]


@pytest.mark.parametrize("edit, line", [
    (lambda lines: _drop_links(lines, 5, 6), 12),                  # no cells for links 5, 6
    (lambda lines: lines[:2] + ["0,2,1.0,abc,1.0"] + lines[3:], 3),
    (lambda lines: lines[:50], 51),                                # 24.5 of the 31 links
])
def test_malformed_plan_is_a_dependency_error(tmp_path, capsys, edit, line):
    path = str(write_config(tmp_path))
    out = tmp_path / "run"
    for step in ("grid", "mobility"):
        assert main([step, "--config", path, "--out", str(out)]) == EXIT_OK
    links = grid_from_json((out / "grid.json").read_text()).num_links
    lines = ["link_id,t,a,b,s"] + [f"{l},{t},1.0,1.0,1.0" for l in range(links)
                                   for t in (1, 2)]
    (out / "plan.csv").write_text("".join(f"{ln}\n" for ln in edit(lines)))
    for step in ("evaluate", "report"):
        assert main([step, "--config", path, "--out", str(out)]) == EXIT_DEPENDENCY
        assert f"plan.csv:{line}: " in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


@pytest.mark.parametrize("name, edit", [
    ("alpha_samples.csv", lambda text: text.replace("\n0,1,", "\n0,1,abc", 1)),
    ("alpha_samples.csv", lambda text: text.rsplit(",", 1)[0]),     # last row cut short
    ("verdict.json", lambda text: text[:len(text) // 2]),
])
def test_malformed_evaluation_is_a_dependency_error(tmp_path, capsys, name, edit):
    path = str(write_config(tmp_path))
    out = tmp_path / "run"
    for step in ("grid", "mobility"):
        assert main([step, "--config", path, "--out", str(out)]) == EXIT_OK
    ones = np.ones((grid_from_json((out / "grid.json").read_text()).num_links, 2))
    write_table(out / "plan.csv", {"a": ones, "b": ones, "s": ones})
    assert main(["evaluate", "--config", path, "--out", str(out)]) == EXIT_OK
    target = out / name
    target.write_text(edit(target.read_text()))
    capsys.readouterr()
    assert main(["report", "--config", path, "--out", str(out)]) == EXIT_DEPENDENCY
    assert f"{target}: malformed" in capsys.readouterr().err
    assert not (out / "report").exists()


def test_zoi_link_outside_the_grid_is_a_config_error(tmp_path, capsys):
    path = str(write_config(tmp_path, {"request": {"zoi": [2, 999]}}))
    out = str(tmp_path / "run")
    for step in ("grid", "mobility", "features", "dataset"):
        assert main([step, "--config", path, "--out", out]) == EXIT_OK
    for step in ("train", "bootstrap"):
        assert main([step, "--config", path, "--out", out]) == EXIT_CONFIG
        assert "request.zoi link id 999 is not on the grid" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.bin").exists()


def test_infeasible_request_exit_code(tmp_path):
    # capacity-mode transfers take tens of seconds, so fresh arrivals cannot
    # all hold content instantly: a target of 1.0 is unreachable even all-on
    path = write_config(tmp_path, {
        "channel": {"mode": "capacity"},
        "request": {"alpha0": 1.0, "zoi": "center", "center_count": 3,
                    "intervals": {"count": 2, "duration_s": 120.0}},
    })
    out = tmp_path / "run"
    for step in ("grid", "mobility", "features", "dataset", "train"):
        assert main([step, "--config", str(path), "--out", str(out)]) == EXIT_OK
    rc = main(["bootstrap", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_INFEASIBLE


def test_strategy_svg_shapes():
    grid = build_manhattan(3, 3, 100.0)
    svg = strategy_svg(grid, np.linspace(0, 1, grid.num_links), "probe", zoi=(0,))
    assert svg.count("<line") == grid.num_links
    assert "probe" in svg
    assert "<circle" in svg
    svg_ts = strategy_svg(grid, np.zeros(grid.num_links), "probe", deterministic=False)
    assert "generated" in svg_ts
