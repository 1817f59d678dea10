"""Memory footprint guards.

Contacts are stored as events, with no array that has a row per
contact-tick.  Contact detection itself peaks at a bound per sample and
per event, plus one sweep block, whatever the number of contact-ticks.
Building a SimContext or the mobility features from the desk contacts
peaks no higher than from an empty contact table, up to the arrays with a
row per event.  Neither importing the package nor drawing smoothed random
strategies and planning a request loads SciPy.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import floatsim
from floatsim import (KMH, ContactTable, SimContext, SpeedModel, detect_contacts,
                      mobility_features, simulate_manhattan)

# bytes per contact-tick a build may add over the same build without
# contacts; one int64 array per contact-tick would add 8
MAX_BYTES_PER_CONTACT_TICK = 2.0

# detection's peak: bytes per trajectory sample and per contact event, plus
# a fixed allowance for the arrays of one sweep block
DETECT_BYTES_PER_SAMPLE = 128
DETECT_BYTES_PER_EVENT = 128
DETECT_BLOCK_BYTES = 8 * 2 ** 20


def _peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bytes_per_contact_tick(build, contacts) -> float:
    extra = _peak(lambda: build(contacts)) - _peak(lambda: build(ContactTable.empty()))
    return extra / int(contacts.num_ticks.sum())


def test_detection_peak_has_no_per_contact_tick_term(grid):
    # 10x the desk arrival rate: about 17 contact-ticks per event
    traj = simulate_manhattan(grid, 0.5, SpeedModel.uniform(20 * KMH, 30 * KMH),
                              duration=120.0, seed=3, warmup_s=200.0)
    box = []
    peak = _peak(lambda: box.append(detect_contacts(traj, 100.0)))
    contacts = box[0]
    assert contacts.num_ticks.sum() > 10 * len(contacts) > 0
    bound = (DETECT_BYTES_PER_SAMPLE * len(traj.link) + DETECT_BYTES_PER_EVENT * len(contacts)
             + DETECT_BLOCK_BYTES)
    assert peak < bound, f"detection peaked at {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_context_holds_nothing_per_contact_tick(grid, desk_traj, desk_contacts,
                                                capacity_channel):
    per_tick = _bytes_per_contact_tick(
        lambda c: SimContext(grid, desk_traj, c, capacity_channel, [150.0, 150.0]),
        desk_contacts)
    assert per_tick < MAX_BYTES_PER_CONTACT_TICK


def test_features_build_nothing_per_contact_tick(grid, desk_traj, desk_contacts):
    per_tick = _bytes_per_contact_tick(
        lambda c: mobility_features(desk_traj, c, grid, [100.0, 100.0, 100.0]),
        desk_contacts)
    assert per_tick < MAX_BYTES_PER_CONTACT_TICK


def _scipy_modules_after(code: str) -> str:
    """The scipy modules loaded in a fresh interpreter once `code` has run."""
    src = str(Path(floatsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    code = "import floatsim, floatsim.cli, floatsim.plan, floatsim.learn"
    assert _scipy_modules_after(code) == "[]"


def test_smoothed_strategies_and_a_plan_load_no_scipy():
    code = """
import numpy as np
from floatsim import (ChannelModel, CostWeights, KMH, ServiceRequest, SimContext, SpeedModel,
                      build_dataset, build_manhattan, detect_contacts, gen_random_schemes,
                      mobility_features, raster_embed, simulate_manhattan)
from floatsim.learn import SurrogateHyper, train_surrogate
from floatsim.plan import PlannerOptions, bootstrap
grid = build_manhattan(5, 4, 150.0)
emb = raster_embed(grid, 9, 7)
ch = ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")
traj = simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH), 200.0, seed=5,
                          warmup_s=100.0)
contacts = detect_contacts(traj, 100.0)
d_t = [100.0, 100.0]
schemes = gen_random_schemes(4, grid.num_links, 2, seed=1, style="smoothed", embedding=emb)
pairs = build_dataset(traj, grid, d_t, schemes, ch, seed=2, contacts=contacts)
model = train_surrogate(pairs, emb, hyper=SurrogateHyper(epochs=1, folds=2, seed=1)).model
req = ServiceRequest(zoi=(0, 1, 2), alpha0=0.9, d_t=np.array(d_t))
bootstrap(model, mobility_features(traj, contacts, grid, d_t), req,
          CostWeights(d_t=req.d_t, content_bits=8e6),
          PlannerOptions(n_candidates=4, verify_top_k=2, verify_seeds=1),
          SimContext(grid, traj, contacts, ch, d_t), seed=3)
"""
    assert _scipy_modules_after(code) == "[]"
