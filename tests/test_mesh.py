import numpy as np
import pytest

from robinrecon.mesh import (
    SegmentTag,
    build_rect_mesh,
    classify_boundary,
    signed_areas,
)

NX, NY = 16, 32
LX, LY = 1.0, 2.0


def make_mesh():
    return classify_boundary(build_rect_mesh(NX, NY, LX, LY))


def test_counts_on_reference_mesh():
    mesh = make_mesh()
    assert mesh.n_nodes == (NX + 1) * (NY + 1) == 561
    assert mesh.triangles.shape == (2 * NX * NY, 3)
    assert mesh.boundary_edges.shape == (2 * (NX + NY), 2)


def test_total_area_is_exact():
    mesh = make_mesh()
    areas = signed_areas(mesh.nodes[mesh.triangles])
    assert np.all(areas > 0.0)
    # uniform splitting: every triangle has half a cell's area
    cell = (LX / NX) * (LY / NY)
    np.testing.assert_allclose(areas, cell / 2.0, rtol=1e-14)
    assert areas.sum() == pytest.approx(LX * LY, rel=1e-14)


def test_classification_splits_the_boundary():
    mesh = make_mesh()
    inacc = mesh.segments[SegmentTag.INACCESSIBLE].edges
    acc = mesh.segments[SegmentTag.ACCESSIBLE].edges
    assert inacc.shape[0] == NY
    assert acc.shape[0] == 2 * NX + NY
    # the inaccessible segment is exactly the x = LX side
    assert np.all(mesh.nodes[inacc.ravel(), 0] == LX)
    # every accessible edge has at least one node off that side
    assert np.all((mesh.nodes[acc, 0] != LX).any(axis=1))


def test_segment_nodes_sorted_and_shared_corners():
    mesh = make_mesh()
    seg_i = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    seg_a = mesh.segment_nodes(SegmentTag.ACCESSIBLE)
    assert seg_i.size == NY + 1
    # corners (LX, 0) and (LX, LY) belong to both segments
    assert seg_a.size == 2 * (NX + NY) - (NY + 1) + 2
    y = mesh.nodes[seg_i, 1]
    assert np.all(np.diff(y) > 0.0), "inaccessible nodes must ascend in y"
    assert y[0] == 0.0 and y[-1] == LY


def _per_cell_connectivity(nx, ny):
    """Triangles and boundary edges built one cell and one edge at a time,
    the oracle of the vectorized build_rect_mesh."""
    def nid(i, j):
        return i * (ny + 1) + j

    triangles = []
    for j in range(ny):
        for i in range(nx):
            ll, lr = nid(i, j), nid(i + 1, j)
            ul, ur = nid(i, j + 1), nid(i + 1, j + 1)
            triangles += [(ll, lr, ur), (ll, ur, ul)]
    edges = [(nid(i, 0), nid(i + 1, 0)) for i in range(nx)]
    edges += [(nid(nx, j), nid(nx, j + 1)) for j in range(ny)]
    edges += [(nid(i, ny), nid(i - 1, ny)) for i in range(nx, 0, -1)]
    edges += [(nid(0, j), nid(0, j - 1)) for j in range(ny, 0, -1)]
    return (np.array(triangles, dtype=np.int64),
            np.array(edges, dtype=np.int64))


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (8, 16), (64, 128)])
def test_build_matches_the_per_cell_construction(nx, ny):
    mesh = build_rect_mesh(nx, ny, LX, LY)
    triangles, edges = _per_cell_connectivity(nx, ny)
    for got, want in ((mesh.triangles, triangles),
                      (mesh.boundary_edges, edges)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    xs, ys = np.linspace(0.0, LX, nx + 1), np.linspace(0.0, LY, ny + 1)
    np.testing.assert_array_equal(
        mesh.nodes, [(x, y) for x in xs for y in ys])


def test_nodes_are_numbered_by_column_with_the_inaccessible_side_last():
    """Id i (ny + 1) + j sits at (x_i, y_j), so a mesh column is a run of
    ids ascending in y, and the last ny + 1 ids are the inaccessible
    segment in ascending y."""
    mesh = make_mesh()
    xs, ys = np.linspace(0.0, LX, NX + 1), np.linspace(0.0, LY, NY + 1)
    for i in range(NX + 1):
        for j in range(NY + 1):
            assert tuple(mesh.nodes[i * (NY + 1) + j]) == (xs[i], ys[j])
    columns = np.arange(mesh.n_nodes).reshape(NX + 1, NY + 1)
    for i, column in enumerate(columns):
        assert np.all(mesh.nodes[column, 0] == xs[i])
        assert np.all(np.diff(mesh.nodes[column, 1]) > 0.0)
    assert np.all(np.diff(mesh.nodes[columns[:, 0], 0]) > 0.0)
    np.testing.assert_array_equal(
        columns[-1], mesh.segment_nodes(SegmentTag.INACCESSIBLE))


@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (NX, NY)])
def test_segments_list_their_nodes_by_y_then_x(nx, ny):
    """Both segments list their nodes in (y, x) order, not by id: the
    order that the data, the noise and the profiles follow.  Each lists
    every node of its edges once, and local indexes into that list."""
    mesh = classify_boundary(build_rect_mesh(nx, ny, LX, LY))
    for tag in SegmentTag:
        seg = mesh.segments[tag]
        x, y = mesh.nodes[seg.nodes].T
        dx, dy = np.diff(x), np.diff(y)
        assert np.all((dy > 0.0) | ((dy == 0.0) & (dx > 0.0)))
        np.testing.assert_array_equal(np.sort(seg.nodes),
                                      np.unique(seg.edges))
        np.testing.assert_array_equal(seg.nodes[seg.local], seg.edges)
    # the accessible segment: the bottom row, the left side upwards, then
    # the top row, each row from left to right
    nodes = mesh.nodes[mesh.segment_nodes(SegmentTag.ACCESSIBLE)]
    xs, ys = np.linspace(0.0, LX, nx + 1), np.linspace(0.0, LY, ny + 1)
    want = ([(x, 0.0) for x in xs] + [(0.0, y) for y in ys[1:-1]]
            + [(x, LY) for x in xs])
    np.testing.assert_array_equal(nodes, want)


def test_unclassified_mesh_refuses_segment_queries():
    raw = build_rect_mesh(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        raw.segment_nodes(SegmentTag.ACCESSIBLE)


def test_build_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 4, 1.0, 2.0)
    with pytest.raises(ValueError):
        build_rect_mesh(4, 4, -1.0, 2.0)
    with pytest.raises(ValueError, match="nx must be a positive integer"):
        build_rect_mesh(2.5, 4, 1.0, 2.0)
    with pytest.raises(ValueError, match="ny must be a positive integer"):
        build_rect_mesh(4, 4.0, 1.0, 2.0)
    # a bool is a numbers.Integral, but no cell count
    with pytest.raises(ValueError, match="nx must be a positive integer"):
        build_rect_mesh(True, 2, 1.0, 1.0)
    with pytest.raises(ValueError, match="side lengths must be positive "
                                         "and finite"):
        build_rect_mesh(2, 2, np.inf, 1.0)
    with pytest.raises(ValueError, match="side lengths must be positive "
                                         "and finite"):
        build_rect_mesh(2, 2, True, 1.0)
    assert build_rect_mesh(np.int64(2), np.int32(3), 1.0, 2.0).n_nodes == 12


@pytest.mark.parametrize("lx, ly", [(np.nan, LY), (LX, np.nan)],
                         ids=["nan-lx", "nan-ly"])
def test_build_rejects_a_nan_side_length(lx, ly):
    with pytest.raises(ValueError, match="side lengths must be positive"):
        build_rect_mesh(4, 4, lx, ly)


def test_segment_data_is_consistent_and_read_only():
    mesh = make_mesh()
    for tag, perimeter in ((SegmentTag.INACCESSIBLE, LY),
                           (SegmentTag.ACCESSIBLE, 2.0 * LX + LY)):
        seg = mesh.segments[tag]
        np.testing.assert_array_equal(seg.nodes[seg.local], seg.edges)
        assert seg.length.sum() == pytest.approx(perimeter, rel=1e-14)
        for array in (seg.nodes, seg.edges, seg.local, seg.length, seg.mass):
            with pytest.raises(ValueError):
                array[0] = 0
