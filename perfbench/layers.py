"""Per-layer metrics of a traced run, computed from its spans.

Times and counts are per traced operation (one pipeline, one planning
request, one dense scenario), so runs that complete different numbers of
operations compare.  A layer is a module of floatsim; `bench` is the
operation's own span, whose self time is the work of the operation that no
traced function covers.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import TARGETS

LAYERS = ("bench", "cli", "mobility", "roadnet", "fcsim", "dataset", "learn", "plan")
FAMILIES = ("all_on", "az_classic", "az_float", "az_light", "other")
PLAN_SPANS = ("plan.bootstrap", "plan.replan")
MODES = ("instantaneous", "capacity")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, records, traced_records, ablations) -> dict:
    spans = tracer.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, sp in enumerate(spans):
        if sp.request >= 0:           # the traced set-up is reported apart
            by_name[sp.name].append(idx)
    n_ops = max(1, sum(len(v) for k, v in by_name.items() if k.startswith("bench.")))

    def total(name: str) -> float:
        return sum(spans[i].end - spans[i].start for i in by_name[name])

    def count_sum(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in by_name[name])

    m: dict[str, float] = {}
    names = [t[2] for t in TARGETS if isinstance(t[2], str)]
    names += [f"fcsim.run.{mode}" for mode in MODES]
    for name in names:
        m[f"{name}.s"] = total(name) / n_ops
        m[f"{name}.calls"] = len(by_name[name]) / n_ops
    m["fcsim.SimContext.init_s"] = total("fcsim.SimContext.init") / n_ops

    m["mobility.simulate_manhattan.tracks"] = (
        count_sum("mobility.simulate_manhattan", "tracks") / n_ops)

    # contact detection: work, computed size of the contact representation
    # (8 B per contact-tick distance plus four int64 ids per event), and calls
    # repeated on a trajectory already handled within the same operation
    events = count_sum("mobility.detect_contacts", "events")
    cticks = count_sum("mobility.detect_contacts", "contact_ticks")
    m["mobility.detect_contacts.events"] = events / n_ops
    m["mobility.detect_contacts.contact_ticks"] = cticks / n_ops
    m["mobility.detect_contacts.computed_bytes"] = (8 * cticks + 32 * events) / n_ops
    for name in ("mobility.detect_contacts", "mobility.load_traces"):
        calls = len(by_name[name])
        distinct = len({(spans[i].request, spans[i].counts.get("input"))
                        for i in by_name[name]})
        m[f"{name}.redundant_calls"] = (calls - distinct) / n_ops
        m[f"{name}.useful_ratio"] = _ratio(distinct, calls)

    # engine work per channel mode
    for mode in MODES:
        name = f"fcsim.run.{mode}"
        ticks = count_sum(name, "ticks")
        samples = count_sum(name, "samples")
        ct = count_sum(name, "contact_ticks")
        m[f"{name}.ticks"] = ticks / n_ops
        m[f"{name}.samples"] = samples / n_ops
        m[f"{name}.contact_ticks"] = ct / n_ops
        m[f"{name}.us_per_tick"] = 1e6 * _ratio(total(name), ticks)
        m[f"{name}.us_per_contact_tick"] = 1e6 * _ratio(total(name), ct)

    # planner: engine time (verification) and surrogate time (scoring) spent
    # under a plan span, and the candidate funnel
    m["plan.verify_s"] = sum(spans[i].end - spans[i].start
                             for name in by_name if name.startswith("fcsim.run.")
                             for i in by_name[name] if tracer.under(i, PLAN_SPANS)) / n_ops
    m["plan.score_s"] = sum(spans[i].end - spans[i].start for i in by_name["learn.predict"]
                            if tracer.under(i, PLAN_SPANS)) / n_ops
    plans = [spans[i] for name in PLAN_SPANS for i in by_name[name]]
    for key in ("examined", "filtered", "verified", "fallback"):
        m[f"plan.{key}"] = _ratio(sum(sp.counts.get(key, 0) for sp in plans), len(plans))
    m["plan.filter_admit_ratio"] = _ratio(sum(sp.counts.get("filtered", 0) for sp in plans),
                                          sum(sp.counts.get("examined", 0) for sp in plans))
    for fam in FAMILIES:
        m[f"plan.winner.{fam}"] = _ratio(
            sum(1 for sp in plans if sp.counts.get("family") == fam), len(plans))
    savings = [r["saving_pct"] for r in records if "saving_pct" in r]
    m["plan.saving_pct"] = statistics.mean(savings) if savings else 0.0
    m["plan.ablation.saving_pct"] = (statistics.mean(r["saving_pct"] for r in ablations)
                                     if ablations else 0.0)
    m["plan.ablation.verified"] = (statistics.mean(r["verified"] for r in ablations)
                                   if ablations else 0.0)

    self_s = tracer.self_times()
    for layer in LAYERS:
        m[f"self.{layer}.s"] = self_s.get(layer, 0.0) / n_ops

    # tracing overhead: traced minus untraced time of the same operation
    untraced = {r["op"]: r["seconds"] for r in records}
    diffs = [r["seconds"] - untraced[r["op"]] for r in traced_records if r["op"] in untraced]
    base = [untraced[r["op"]] for r in traced_records if r["op"] in untraced]
    m["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    m["trace.overhead_pct"] = 100.0 * _ratio(m["trace.overhead_s"],
                                             statistics.median(base) if base else 0.0)
    m["trace.spans"] = sum(len(v) for v in by_name.values()) / n_ops
    return m
