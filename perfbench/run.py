"""floatsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a floatsim checkout; the program is imported from
`src/`.  One process, one client, closed loop: operations of the workload run
back to back, in whole cycles (one request rotation of `plan_stream`), while
the next cycle is expected to end within `--seconds`, and at least the
workload's minimum.  The line before the last names the workload's own
end-to-end figures (`pipeline_s`, `plan_p50_s`, `plan_tail_s`,
`plan_saving_pct`, `scenario_s`, `failed_frac`).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.  A traced run executes every
operation twice, untraced and traced, and reports the difference as the
tracing overhead.  A full report (operation records, failures with their
cause, and in traced runs every span and the planner ledger) is written to
`.perfbench_out/` at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one client, one thread: BLAS pools stay at a single thread (nproc is 2 on
# the reference machine), which also keeps timings steady
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
IMPORT_PROBE = "import floatsim, floatsim.cli, floatsim.plan, floatsim.learn"


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_seconds() -> float:
    """Median wall time of importing floatsim in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"cannot import floatsim from {ROOT / 'src'}:\n"
                 + proc.stderr.decode(errors="replace"))
    return statistics.median(times)


def latency_summary(values: list[float]) -> dict:
    """Median and sample count, and the highest percentile with at least ten
    samples beyond it; below 21 samples no such percentile lies above the
    median, so the maximum stands in for it and says so."""
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        tail, pct = xs[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = xs[-1], 100.0
    return {"p50_s": statistics.median(xs), "tail_s": tail, "tail_percentile": pct,
            "n": n}


def machine() -> dict:
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "ram_gb": round(pages / 2 ** 30, 1),
            "python": sys.version.split()[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    def __init__(self, wl, seed: int, seconds: int, traced: bool, workdir: Path):
        from tracing import Tracer
        self.wl, self.seed, self.seconds, self.traced = wl, seed, seconds, traced
        self.workdir = workdir
        self.tracer = Tracer()
        self.records: list[dict] = []       # untraced executions
        self.traced_records: list[dict] = []
        self.ablations: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0

    def execute(self, fn, i: int, kind: str) -> dict | None:
        from workloads import CheckFailed
        untimed = self.tracer.paused if self.traced else contextlib.nullcontext
        self.attempted += 1
        try:
            rec = fn(self.state, i, untimed)
        except CheckFailed as exc:
            cause = f"check failed: {exc}"
        except Exception as exc:       # any error of the program fails the operation
            cause = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            traceback.print_exc(file=sys.stderr)
        else:
            rec.update(op=i, execution=kind)
            return rec
        self.failures.append({"op": i, "execution": kind, "cause": cause})
        print(f"perfbench: operation {i} ({kind}) failed: {cause}", file=sys.stderr)
        return None

    def run(self) -> None:
        self.import_s = import_seconds()
        self.setup_times = []
        for rep in range(SETUP_REPS):
            # a traced run also traces its last set-up, apart from the operations
            traced = self.traced and rep == SETUP_REPS - 1
            with self.tracer.tracing(-1, "bench.setup") if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                self.state = self.wl.setup(self.seed, self.workdir)
                self.setup_times.append(time.perf_counter() - t0)

        # closed loop: the next operation starts when the previous one has
        # finished.  Operations run in whole cycles of the workload (one
        # request rotation), at least min_ops of them, and a further cycle
        # only if it is expected to end within the window.
        start = time.perf_counter()
        i = 0
        while i < self.wl.min_ops or self._fits(start, i):
            for _ in range(self.wl.cycle):
                self.step(i)
                i += 1
        self.loop_s = time.perf_counter() - start

    def step(self, i: int) -> None:
        rec = self.execute(self.wl.op, i, "untraced")
        if rec is not None:
            self.records.append(rec)
        if not self.traced:
            return
        with self.tracer.tracing(i, f"bench.{self.wl.name}"):
            rec = self.execute(self.wl.op, i, "traced")
        if rec is not None:
            self.traced_records.append(rec)
        if hasattr(self.wl, "ablation"):
            rec = self.execute(self.wl.ablation, i, "ablation")
            if rec is not None:
                self.ablations.append(rec)

    def _fits(self, start: float, i: int) -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + self.wl.cycle * elapsed / i <= self.seconds

    # -- metrics ----------------------------------------------------------
    def end_to_end(self) -> dict:
        lat = [r["seconds"] for r in self.records]
        return {"setup_s": self.import_s + statistics.median(self.setup_times),
                "op_p50_s": statistics.median(lat) if lat else float("nan"),
                "peak_rss_mb": peak_rss_mb()}

    def named(self) -> dict:
        """The workload's end-to-end figures under their own names, each as
        {"value", "unit"}."""
        out = {"failed_frac": (len(self.failures) / max(1, self.attempted), "ratio")}
        if self.records:
            lat = latency_summary([r["seconds"] for r in self.records])
            out.update({self.wl.p50_name: (lat["p50_s"], "s"),
                        self.wl.tail_name: (lat["tail_s"], "s"),
                        "tail_percentile": (lat["tail_percentile"], "%"),
                        "n": (lat["n"], "count")})
            if hasattr(self.wl, "quality"):
                out.update(self.wl.quality(self.records))
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def per_layer(self) -> dict:
        from layers import per_layer_metrics
        return per_layer_metrics(self.tracer, self.records, self.traced_records,
                                 self.ablations)


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"run from the root of a floatsim checkout: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "floatsim" / "__init__.py").is_file():
        fail(f"no floatsim sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace), workdir)
    try:
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = runner.per_layer() if args.trace else runner.end_to_end()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    named = runner.named()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "import_s": runner.import_s,
              "setup_s_reps": runner.setup_times, "loop_s": runner.loop_s,
              "end_to_end": runner.end_to_end(), "named": named,
              "operations": runner.records, "failures": runner.failures, "metrics": metrics}
    if args.trace:
        report.update(traced_operations=runner.traced_records, ablations=runner.ablations,
                      ledger=runner.tracer.plan_ledger(),
                      self_times_s=runner.tracer.self_times(),
                      setup_self_times_s=runner.tracer.self_times(setup=True),
                      spans=runner.tracer.to_records())
    (out_dir / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float))

    if not runner.records:
        fail("no operation succeeded; the causes are listed in the report")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **named}))
    failed = len(runner.failures)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
