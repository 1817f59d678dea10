"""Road-grid geometry.

A road grid is a set of straight road links joining interior intersections,
plus border stubs through which vehicles enter and leave.  The module also
maps arbitrary positions onto links and bins links into a 2D cell raster so
that per-link features can be fed to a convolutional model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SNAP_M = 2.0


class DegenerateGridError(ValueError):
    """Grid construction parameters do not yield any interior intersection."""


class InvalidParameterError(ValueError):
    pass


class OffGridError(ValueError):
    """Position is farther than the snap tolerance from every link."""


class RasterResolutionError(ValueError):
    """Injective rasterization was requested but two links share a cell."""


@dataclass(frozen=True)
class Link:
    id: int
    p1: tuple[float, float]
    p2: tuple[float, float]
    is_border_stub: bool = False

    @property
    def length(self) -> float:
        return float(np.hypot(self.p2[0] - self.p1[0], self.p2[1] - self.p1[1]))

    @property
    def midpoint(self) -> tuple[float, float]:
        return ((self.p1[0] + self.p2[0]) / 2.0, (self.p1[1] + self.p2[1]) / 2.0)


@dataclass
class RoadGrid:
    links: list[Link]
    intersections: np.ndarray          # (n_int, 2) meters
    adjacency: list[list[int]]         # per intersection: incident link ids
    bbox: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

    # cached segment endpoints for vectorized distance queries
    _p1: np.ndarray = field(init=False, repr=False)
    _p2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.links:
            raise InvalidParameterError("grid must contain at least one link")
        for i, ln in enumerate(self.links):
            if ln.id != i:
                raise InvalidParameterError("link ids must be dense 0..L-1")
            if ln.length <= 0:
                raise InvalidParameterError(f"link {i} has zero length")
        self._p1 = np.array([ln.p1 for ln in self.links], dtype=float)
        self._p2 = np.array([ln.p2 for ln in self.links], dtype=float)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def link_midpoints(self) -> np.ndarray:
        return (self._p1 + self._p2) / 2.0

    def distances_to_links(self, points: np.ndarray) -> np.ndarray:
        """Point-to-segment distance from each point (N,2) to each link (N,L)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self._p2 - self._p1                      # (L,2)
        len2 = np.einsum("ij,ij->i", d, d)           # (L,)
        rel = pts[:, None, :] - self._p1[None, :, :]  # (N,L,2)
        t = np.einsum("nlj,lj->nl", rel, d) / len2
        t = np.clip(t, 0.0, 1.0)
        proj = self._p1[None, :, :] + t[:, :, None] * d[None, :, :]
        return np.linalg.norm(pts[:, None, :] - proj, axis=2)


def build_manhattan(rows: int, cols: int, block_side: float) -> RoadGrid:
    """Build a synthetic Manhattan grid of rows-by-cols square blocks.

    Interior intersections form a (rows-1)x(cols-1) lattice; links are the
    lattice edges plus one border stub per outward direction of each boundary
    intersection.  A 5-by-4 grid therefore has 12 intersections and 31 links.
    """
    if rows < 2 or cols < 2:
        raise DegenerateGridError(f"need rows, cols >= 2 (got {rows}, {cols})")
    if block_side <= 0:
        raise InvalidParameterError(f"block_side must be positive (got {block_side})")

    s = float(block_side)
    ny, nx = rows - 1, cols - 1  # lattice extents (y levels, x levels)
    xs = [(c + 1) * s for c in range(nx)]
    ys = [(r + 1) * s for r in range(ny)]
    inter = np.array([(x, y) for y in ys for x in xs], dtype=float)

    def iid(iy: int, ix: int) -> int:
        return iy * nx + ix

    links: list[Link] = []
    adjacency: list[list[int]] = [[] for _ in range(len(inter))]

    def add(p1, p2, stub, nodes):
        lid = len(links)
        links.append(Link(lid, tuple(p1), tuple(p2), is_border_stub=stub))
        for node in nodes:
            adjacency[node].append(lid)

    # lattice edges: horizontal then vertical, scanned row-major
    for iy in range(ny):
        for ix in range(nx - 1):
            add((xs[ix], ys[iy]), (xs[ix + 1], ys[iy]), False,
                [iid(iy, ix), iid(iy, ix + 1)])
    for iy in range(ny - 1):
        for ix in range(nx):
            add((xs[ix], ys[iy]), (xs[ix], ys[iy + 1]), False,
                [iid(iy, ix), iid(iy + 1, ix)])

    # border stubs: west, east, south, north
    for iy in range(ny):
        add((xs[0], ys[iy]), (0.0, ys[iy]), True, [iid(iy, 0)])
    for iy in range(ny):
        add((xs[nx - 1], ys[iy]), (cols * s, ys[iy]), True, [iid(iy, nx - 1)])
    for ix in range(nx):
        add((xs[ix], ys[0]), (xs[ix], 0.0), True, [iid(0, ix)])
    for ix in range(nx):
        add((xs[ix], ys[ny - 1]), (xs[ix], rows * s), True, [iid(ny - 1, ix)])

    return RoadGrid(links, inter, adjacency, (0.0, 0.0, cols * s, rows * s))


def link_of(grid: RoadGrid, position, eps_snap: float = DEFAULT_SNAP_M) -> int:
    """Id of the nearest link within eps_snap; ties go to the smallest id."""
    x, y = float(position[0]), float(position[1])
    xmin, ymin, xmax, ymax = grid.bbox
    if not (xmin - eps_snap <= x <= xmax + eps_snap and ymin - eps_snap <= y <= ymax + eps_snap):
        raise OffGridError(f"position ({x}, {y}) outside grid bounding box")
    dists = grid.distances_to_links(np.array([[x, y]]))[0]
    best = int(np.argmin(dists))  # argmin returns the first (= smallest id) on ties
    if dists[best] > eps_snap:
        raise OffGridError(
            f"no link within {eps_snap} m of ({x}, {y}); nearest is {dists[best]:.2f} m away")
    return best


def link_of_many(grid: RoadGrid, points: np.ndarray, eps_snap: float = DEFAULT_SNAP_M,
                 chunk: int = 4096) -> np.ndarray:
    """Vectorized link_of; off-grid points yield -1 instead of raising."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), -1, dtype=np.int64)
    for lo in range(0, len(pts), chunk):
        d = grid.distances_to_links(pts[lo:lo + chunk])
        best = np.argmin(d, axis=1)
        ok = d[np.arange(len(best)), best] <= eps_snap
        out[lo:lo + chunk][ok] = best[ok]
    return out


@dataclass
class RasterEmbedding:
    """Assignment of every link to one cell of an H-by-W raster."""

    H: int
    W: int
    rows: np.ndarray          # (L,) cell row per link
    cols: np.ndarray          # (L,) cell col per link
    origin: tuple[float, float]
    cell_size: tuple[float, float]   # (cell_w, cell_h) meters

    @property
    def num_links(self) -> int:
        return len(self.rows)

    def cell_of(self, link_id: int) -> tuple[int, int]:
        return int(self.rows[link_id]), int(self.cols[link_id])

    def rasterize(self, values: np.ndarray) -> np.ndarray:
        """Per-link values (..., L) -> planes (..., H, W); a cell with several
        links takes their mean, summed in link order."""
        values = np.asarray(values, dtype=float)
        lead = values.shape[:-1]
        cell = self.rows * self.W + self.cols
        plane = np.zeros((math.prod(lead), self.H * self.W))
        np.add.at(plane, (slice(None), cell), values.reshape(len(plane), -1))
        count = np.bincount(cell, minlength=self.H * self.W)
        nz = count > 0
        plane[:, nz] /= count[nz]
        return plane.reshape(lead + (self.H, self.W))

    def unrasterize(self, plane: np.ndarray) -> np.ndarray:
        """Planes (..., H, W) -> per-link values (..., L), each link reading
        its own cell."""
        return np.asarray(plane)[..., self.rows, self.cols]


def _bin_index(t: np.ndarray, n_cells: int) -> np.ndarray:
    # exact cell-boundary hits resolve toward the lower-index cell
    idx = np.floor(t).astype(np.int64)
    on_edge = (t == idx) & (idx > 0)
    idx[on_edge] -= 1
    return np.clip(idx, 0, n_cells - 1)


def raster_embed(grid: RoadGrid, H: int, W: int, require_injective: bool = False) -> RasterEmbedding:
    """Bin every link's midpoint into an H-by-W raster over the grid bbox."""
    if H < 1 or W < 1:
        raise InvalidParameterError(f"raster dimensions must be >= 1 (got {H}x{W})")
    xmin, ymin, xmax, ymax = grid.bbox
    cell_w = (xmax - xmin) / W
    cell_h = (ymax - ymin) / H
    mids = grid.link_midpoints()
    cols = _bin_index((mids[:, 0] - xmin) / cell_w, W)
    rows = _bin_index((mids[:, 1] - ymin) / cell_h, H)
    if require_injective:
        flat = rows * W + cols
        order = np.argsort(flat, kind="stable")
        dup = np.nonzero(np.diff(flat[order]) == 0)[0]
        if dup.size:
            i, j = order[dup[0]], order[dup[0] + 1]
            raise RasterResolutionError(
                f"links {min(i, j)} and {max(i, j)} collide in cell "
                f"({rows[i]}, {cols[i]}) at {H}x{W} resolution")
    return RasterEmbedding(H, W, rows, cols, (xmin, ymin), (cell_w, cell_h))


def grid_to_json(grid: RoadGrid) -> str:
    doc = {
        "links": [
            {"id": ln.id, "x1": ln.p1[0], "y1": ln.p1[1], "x2": ln.p2[0], "y2": ln.p2[1],
             "border_stub": ln.is_border_stub}
            for ln in grid.links
        ],
        "intersections": [{"x": float(x), "y": float(y)} for x, y in grid.intersections],
    }
    return json.dumps(doc, sort_keys=True)


def grid_from_json(text: str) -> RoadGrid:
    doc = json.loads(text)
    links = [Link(d["id"], (d["x1"], d["y1"]), (d["x2"], d["y2"]), d["border_stub"])
             for d in sorted(doc["links"], key=lambda d: d["id"])]
    inter = np.array([[d["x"], d["y"]] for d in doc["intersections"]], dtype=float)
    if inter.size == 0:
        inter = inter.reshape(0, 2)
    pts = np.array([ln.p1 for ln in links] + [ln.p2 for ln in links])
    bbox = (float(pts[:, 0].min()), float(pts[:, 1].min()),
            float(pts[:, 0].max()), float(pts[:, 1].max()))
    adjacency = [[] for _ in range(len(inter))]
    for ln in links:
        for k, (ix, iy) in enumerate(inter):
            for p in (ln.p1, ln.p2):
                if abs(p[0] - ix) < 1e-9 and abs(p[1] - iy) < 1e-9:
                    adjacency[k].append(ln.id)
                    break
    return RoadGrid(links, inter, adjacency, bbox)
