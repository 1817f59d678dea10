import numpy as np
import pytest

from floatsim import (ChannelModel, NodeTrack, SpeedModel, TrajectorySet,
                      build_manhattan, detect_contacts, simulate_manhattan, KMH)
from floatsim.roadnet import link_of_many


@pytest.fixture(scope="session")
def grid():
    return build_manhattan(5, 4, 150.0)


@pytest.fixture(scope="session")
def desk_traj(grid):
    """Small steady-state Manhattan run shared by simulation tests."""
    return simulate_manhattan(grid, 0.05, SpeedModel.uniform(20 * KMH, 30 * KMH),
                              duration=300.0, seed=11, warmup_s=200.0)


@pytest.fixture(scope="session")
def desk_contacts(desk_traj):
    return detect_contacts(desk_traj, 100.0)


@pytest.fixture
def instant_channel():
    return ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="instantaneous")


@pytest.fixture
def capacity_channel():
    return ChannelModel(1.0e6, 5.0, 3.0, 100.0, mode="capacity",
                        content_bits=8 * 2 ** 20 * 8)


def make_traj(grid, tracks_spec, horizon, tick=1.0):
    """Hand-built trajectory set: tracks_spec is a list of
    (node_id, enter_tick, positions (n, 2)) with parked or moving nodes."""
    tracks = []
    for node, enter, pos in tracks_spec:
        pos = np.asarray(pos, dtype=float)
        if pos.ndim == 1:
            pos = np.tile(pos, (horizon - enter, 1))
        links = link_of_many(grid, pos, eps_snap=5.0)
        if np.any(links < 0):
            raise AssertionError("test track leaves the grid")
        step = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        speed = np.concatenate([step, step[-1:]]) if len(pos) > 1 else np.zeros(1)
        tracks.append(NodeTrack(node=node, enter_tick=enter, pos=pos,
                                speed=speed / tick, link=links))
    return TrajectorySet(tick=tick, horizon=horizon, tracks=tracks)
