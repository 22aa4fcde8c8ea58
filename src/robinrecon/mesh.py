"""Structured triangulations of a rectangle with tagged boundary segments.

The domain (0, lx) x (0, ly) is split into nx * ny equal cells and each
cell is cut along its lower-left to upper-right diagonal, giving two
counterclockwise triangles per cell.  The nodes are numbered column by
column, x outer and y inner, so a mesh column is a run of consecutive
ids and the side x = lx is the last one.  Boundary edges carry a segment
tag once classified: the side x = lx is the inaccessible segment (where
the Robin coefficient lives), the remaining three sides form the
accessible segment (where measurements are taken).  Classification also
computes, once, everything the boundary integrals need of a segment: its
node list in (y, x) order, its edges with their lengths and their local
indices into that list.  A segment gives the exact P1 mass of a nodal
weight on it (Segment.weighted_mass) and keeps its unweighted mass
(Segment.mass), with which every boundary integral of a nodal field is
taken.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Mapping

import numpy as np


class SegmentTag(Enum):
    INACCESSIBLE = 0
    ACCESSIBLE = 1


@dataclass(frozen=True)
class Segment:
    """One tagged boundary segment; every array is read-only.

    Attributes
    ----------
    nodes : (ns,) int array, the unique node ids on the segment, ordered
        by (y, x) of their positions.
    edges : (k, 2) int array, the segment's boundary edges as node pairs.
    local : (k, 2) int array, positions of the edge endpoints in nodes.
    length : (k,) float array, edge lengths.
    mass : (ns, ns) float array, the unweighted mass, computed on first
        use and kept.
    """

    nodes: np.ndarray
    edges: np.ndarray
    local: np.ndarray
    length: np.ndarray

    def weighted_mass(self, w: np.ndarray) -> np.ndarray:
        """Exact P1 mass of the nodal weight w, shape (ns,), as a dense
        (ns, ns) array: entry (i, j) is the integral over the segment of
        w phi_i phi_j, w interpolated linearly along each edge.  On an
        edge of length l with end values w0, w1 the block is (l / 12)
        [[3 w0 + w1, w0 + w1], [w0 + w1, w0 + 3 w1]], linear in w."""
        ns = self.nodes.size
        a, b = self.local.T
        w0, w1 = w[a], w[b]
        l12 = self.length / 12.0
        off = l12 * (w0 + w1)
        index = np.concatenate([a * (ns + 1), b * (ns + 1), a * ns + b,
                                b * ns + a])
        values = np.concatenate([l12 * (3.0 * w0 + w1), l12 * (w0 + 3.0 * w1),
                                 off, off])
        return np.bincount(index, values, minlength=ns * ns).reshape(ns, ns)

    @cached_property
    def mass(self) -> np.ndarray:
        mass = self.weighted_mass(np.ones(self.nodes.size))
        mass.flags.writeable = False
        return mass


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a rectangle.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array, node coordinates.
    triangles : (n_tri, 3) int array, counterclockwise node triples.
    boundary_edges : (n_bedges, 2) int array, node pairs on the boundary.
    segments : map from SegmentTag to Segment, empty before
        classify_boundary has been applied.
    nx, ny : cell counts per axis.
    lx, ly : side lengths.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    segments: Mapping[SegmentTag, Segment]
    nx: int
    ny: int
    lx: float
    ly: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def segment_nodes(self, tag: SegmentTag) -> np.ndarray:
        """The node ids on the given boundary segment, ordered by (y, x),
        so the inaccessible side ascends in y, which the profile output
        relies on; see Segment.nodes."""
        if tag not in self.segments:
            raise ValueError("mesh boundary has not been classified yet")
        return self.segments[tag].nodes


def require_positive_int(value, name: str) -> None:
    """Raise ValueError unless value is a positive numbers.Integral other
    than a bool."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def require_finite(value, name: str, positive: bool = True) -> None:
    """Raise ValueError unless value is a finite numbers.Real other than a
    bool, and > 0 (positive) or >= 0 (not positive)."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (0 < value < math.inf or not positive and value == 0)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


def build_rect_mesh(nx: int, ny: int, lx: float, ly: float) -> Mesh:
    """Build the structured triangulation of (0, lx) x (0, ly).

    Nodes are numbered column by column, id = i * (ny + 1) + j for grid
    position (i, j), so ids increase along y first, then x.  Each cell is
    split along the lower-left to upper-right diagonal; cells are listed
    by j, then i.  Boundary edges are stored counterclockwise (bottom,
    right, top, left) and untagged; call classify_boundary to assign
    segment tags.

    Returns a mesh with (nx+1)(ny+1) nodes, 2*nx*ny triangles and
    2*(nx+ny) boundary edges.
    """
    require_positive_int(nx, "cell count nx")
    require_positive_int(ny, "cell count ny")
    require_finite(lx, "side lengths")
    require_finite(ly, "side lengths")

    # linspace pins the first and last coordinates to exactly 0 and the
    # side length, so boundary tests can compare x == lx without slack.
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([xv.ravel(), yv.ravel()])

    # grid[j, i] is the id of grid position (i, j)
    grid = np.arange((nx + 1) * (ny + 1),
                     dtype=np.int64).reshape(nx + 1, ny + 1).T
    # cell (i, j) gives (ll, lr, ur) and (ll, ur, ul), cells ordered by j
    # then i, so row 2k and 2k + 1 belong to cell k = j * nx + i
    ll = grid[:-1, :-1].ravel()
    lr = grid[:-1, 1:].ravel()
    ul = grid[1:, :-1].ravel()
    ur = grid[1:, 1:].ravel()
    triangles = np.stack([np.column_stack([ll, lr, ur]),
                          np.column_stack([ll, ur, ul])], axis=1).reshape(-1, 3)

    # the counterclockwise loop: bottom left to right, right bottom to top,
    # top right to left, left top to bottom, back to node 0
    loop = np.concatenate([grid[0, :], grid[1:, nx], grid[ny, nx - 1::-1],
                           grid[ny - 1::-1, 0]])
    boundary_edges = np.column_stack([loop[:-1], loop[1:]])

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        boundary_edges=boundary_edges,
        segments={},
        nx=nx,
        ny=ny,
        lx=float(lx),
        ly=float(ly),
    )


def _segment(mesh: Mesh, edges: np.ndarray) -> Segment:
    nodes = np.unique(edges)
    x, y = mesh.nodes[nodes].T
    nodes = nodes[np.lexsort((x, y))]
    position = np.empty(mesh.n_nodes, dtype=np.intp)
    position[nodes] = np.arange(nodes.size)
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    seg = Segment(nodes=nodes, edges=edges, local=position[edges],
                  length=np.hypot(d[:, 0], d[:, 1]))
    for array in (seg.nodes, seg.edges, seg.local, seg.length):
        array.flags.writeable = False
    return seg


def classify_boundary(mesh: Mesh) -> Mesh:
    """Tag boundary edges: both endpoints on x = lx means inaccessible,
    everything else accessible.  Returns a new mesh with both segments
    filled in; edges keep their boundary order within a segment."""
    x = mesh.nodes[:, 0]
    on_right = (x[mesh.boundary_edges] == mesh.lx).all(axis=1)
    segments = {
        SegmentTag.INACCESSIBLE: _segment(mesh, mesh.boundary_edges[on_right]),
        SegmentTag.ACCESSIBLE: _segment(mesh, mesh.boundary_edges[~on_right]),
    }
    return replace(mesh, segments=segments)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    return signed_areas(mesh.nodes[mesh.triangles])


def signed_areas(p: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles with vertex coordinates p, shape
    (m, 3, 2)."""
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
