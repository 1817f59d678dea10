"""Memory footprint guards.

After contact detection, the distance column is the only array with a row
per contact-tick: building a SimContext or the mobility features from the
desk contacts peaks no higher than from an empty contact table, up to the
arrays with a row per event.  Importing the package loads no SciPy, which
only the smoothed random strategies use.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import floatsim
from floatsim import ContactTable, SimContext, mobility_features

# bytes per contact-tick a build may add over the same build without
# contacts; one int64 array per contact-tick would add 8
MAX_BYTES_PER_CONTACT_TICK = 2.0


def _peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bytes_per_contact_tick(build, contacts) -> float:
    extra = _peak(lambda: build(contacts)) - _peak(lambda: build(ContactTable.empty()))
    return extra / len(contacts.dist)


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


def test_import_loads_no_scipy():
    src = str(Path(floatsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, floatsim, floatsim.cli, floatsim.plan, floatsim.learn\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
