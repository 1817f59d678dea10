"""Span tracing installed from outside the program.

`Tracer.install()` replaces every binding of the traced functions -- the
defining module, every `floatsim` module that imported the name, and the
package re-exports -- with a wrapper that records a span, and patches traced
methods on their class.  `Tracer.uninstall()` puts the originals back, so a
run can alternate traced and untraced executions of the same operation.

A span is (name, start, end, parent, request id).  Spans stay in memory; the
caller writes them out when the benchmark ends.  Counts that belong to a span
(engine ticks, contact events, ...) are attached to it by the hook of its
target, after the timed call returns.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _fingerprint(traj) -> str:
    """Content hash of a trajectory set: two calls on equal inputs match."""
    h = hashlib.sha1(f"{traj.tick}:{traj.horizon}:{traj.num_tracks}".encode())
    for tr in traj.tracks:
        h.update(np.int64(tr.enter_tick).tobytes())
        h.update(np.ascontiguousarray(tr.pos).tobytes())
    return h.hexdigest()


def _hook_tracks(counts, arg, result):
    counts["tracks"] = result.num_tracks


def _hook_load_traces(counts, arg, result):
    counts["input"] = _fingerprint(result)


def _hook_contacts(counts, arg, result):
    counts["events"] = len(result)
    counts["contact_ticks"] = int(sum(e.end - e.start + 1 for e in result))
    counts["input"] = _fingerprint(arg["traj"])


def _hook_run(counts, arg, result):
    # engine work of one run: ticks simulated, present track-samples and
    # contact-ticks inside the simulated window
    ctx = arg["self"]
    counts["ticks"] = int(ctx.sim_ticks)
    counts["samples"] = int(ctx.pt_bounds[ctx.sim_ticks])
    counts["contact_ticks"] = int(ctx.ct_bounds[ctx.sim_ticks])


def _name_run(arg):
    return f"fcsim.run.{arg['self'].channel.mode}"


def _hook_plan(counts, arg, result):
    req = arg["req"]
    counts.update(examined=result.examined, filtered=result.filtered,
                  verified=result.verified, fallback=int(result.fallback),
                  family=plan_family(arg["verifier"].grid, req.zoi, req.alpha0,
                                     result.scheme),
                  predicted_cost=result.predicted_cost,
                  verified_cost=result.verified_cost)


def plan_family(grid, zoi, alpha0, winner) -> str:
    """Which candidate family a plan comes from, judged from outside: all-on,
    an anchor-zone variant over the planner's default radii, or other
    (random candidates and perturbations)."""
    from floatsim.plan import circular_scheme, default_radii
    from floatsim.scheme import all_on
    L, T = winner.shape
    if _same(winner, all_on(L, T)):
        return "all_on"
    variants = [("az_classic", ()), ("az_light", (0.6, alpha0 if T > 1 else None))]
    if T > 1:
        variants.append(("az_float", (1.0, alpha0)))
    for radius in default_radii(grid):
        for fam, args in variants:
            if _same(winner, circular_scheme(grid, zoi, radius, T, *args)):
                return fam
    return "other"


def _same(x, y) -> bool:
    return (np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
            and np.array_equal(x.s, y.s))


# (module, attribute, span name, hook).  A dotted attribute is a method
# patched on its class.  Subcommand spans are named cli.<subcommand>.
TARGETS = [
    ("floatsim.roadnet", "link_of_many", "roadnet.link_of_many", None),
    ("floatsim.mobility", "simulate_manhattan", "mobility.simulate_manhattan", _hook_tracks),
    ("floatsim.mobility", "load_traces", "mobility.load_traces", _hook_load_traces),
    ("floatsim.mobility", "detect_contacts", "mobility.detect_contacts", _hook_contacts),
    ("floatsim.mobility", "mobility_features", "mobility.mobility_features", None),
    ("floatsim.fcsim", "SimContext.__init__", "fcsim.SimContext.init", None),
    ("floatsim.fcsim", "SimContext.run", _name_run, _hook_run),
    ("floatsim.dataset", "gen_random_schemes", "dataset.gen_random_schemes", None),
    ("floatsim.dataset", "build_dataset", "dataset.build_dataset", None),
    ("floatsim.dataset", "save_dataset", "dataset.save_dataset", None),
    ("floatsim.dataset", "load_dataset", "dataset.load_dataset", None),
    ("floatsim.learn.surrogate", "train_surrogate", "learn.train_surrogate", None),
    ("floatsim.learn.surrogate", "SurrogateModel.predict", "learn.predict", None),
    ("floatsim.learn.baselines", "train_baseline", "learn.train_baseline", None),
    ("floatsim.plan", "bootstrap", "plan.bootstrap", _hook_plan),
    ("floatsim.plan", "replan", "plan.replan", _hook_plan),
    ("floatsim.plan", "circular_az_baseline", "plan.circular_az_baseline", None),
] + [("floatsim.cli", f"cmd_{sub}", f"cli.{sub}", None)
     for sub in ("grid", "mobility", "features", "dataset", "train", "bootstrap",
                 "evaluate", "report")]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at top level
    request: int          # operation the span belongs to
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = -1
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []   # (owner, attr, original)

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def tracing(self, request: int, name: str):
        """Trace the block as one top-level span of request `request`; -1
        marks the workload's set-up."""
        self.install()
        self.request = request
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block run untraced: checks and world-model steps
        that are not part of the timed operation."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name, hook):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            arg = sig.bind(*args, **kwargs).arguments if hook or callable(name) else None
            idx = tracer.open(name(arg) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer.spans[idx].counts, arg, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            return
        for mod_name, attr, name, hook in TARGETS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            # every module of the package that bound the function by name
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == "floatsim"
                                         or other_name.startswith("floatsim.")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self, setup: bool = False) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover,
        over the operations' spans, or with `setup` over the set-up's."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, float] = {}
        for idx, sp in enumerate(self.spans):
            if (sp.request < 0) == setup:
                out[sp.layer] = out.get(sp.layer, 0.0) + sp.end - sp.start - child[idx]
        return out

    def under(self, idx: int, prefixes: tuple[str, ...]) -> bool:
        """True if span idx has an ancestor whose name starts with a prefix."""
        p = self.spans[idx].parent
        while p >= 0:
            if self.spans[p].name.startswith(prefixes):
                return True
            p = self.spans[p].parent
        return False

    def plan_ledger(self) -> list[dict]:
        """One row per traced planner call: its request, the candidate
        funnel and the winning family."""
        return [{"request": sp.request, "call": sp.name, "seconds": sp.end - sp.start,
                 **sp.counts}
                for sp in self.spans if sp.name in ("plan.bootstrap", "plan.replan")]

    def to_records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "request": s.request, **({"counts": s.counts} if s.counts else {})}
                for s in self.spans]
