import math

import mpmath
import numpy as np
import pytest

from sepcurv import (
    MeshError,
    SeparableSurface,
    build_mesh,
    geometry,
    meshing,
    parse_function,
    solve_height,
    write_curvature_csv,
    write_obj,
)

from sepcurv.errors import describe

from lifts import (
    MIXED_BRACKET,
    MIXED_RANGES,
    assert_lift_matches_reference,
    mixed_surface,
    solve_verdicts,
    spy_second_evaluations,
)
from oracles import brute_coordinate_k
from reference_mesh import (
    reference_build_mesh,
    reference_write_curvature_csv,
    reference_write_obj,
    replicate_faces,
)


def sphere3(radius=1.0):
    return SeparableSurface(
        (
            parse_function("x^2"),
            parse_function("x^2"),
            parse_function(f"x^2 - {radius * radius!r}"),
        )
    )


def paraboloid_cylinder():
    # x3 = x1^2 + x2: one curved slot, affine elsewhere, so K = 0 everywhere
    return SeparableSurface(
        (parse_function("x^2"), parse_function("x"), parse_function("-x"))
    )


def vertex_ids(alive):
    """Vertex ids of an occupancy pattern, row-major over the live nodes,
    -1 where a node dropped."""
    alive = np.asarray(alive, dtype=bool)
    ids = np.full(alive.shape, -1, dtype=int)
    ids[alive] = np.arange(alive.sum())
    return ids


def nan_mesh():
    """A lifted sphere mesh with nan K at four of its vertices, so the
    writers render nan cells among finite ones."""
    mesh = build_mesh(sphere3(), [(-0.4, 0.4), (-0.4, 0.4)], (4, 4), (0.1, 1.01))
    curvatures = mesh.curvatures.copy()
    curvatures[[11, 13, 14, 15]] = math.nan
    return meshing.MeshResult(mesh.vertices, mesh.faces, curvatures, mesh.dropped)


def odd_value_mesh():
    """A hand-built mesh whose x and y mix 0.0, -0.0, nan (two bit patterns)
    and +-inf, each on several vertices, so a writer that renders a
    repeated value once must keep 0.0 and -0.0 apart and never match a nan
    by equality."""
    nan, inf, neg_nan = math.nan, math.inf, -math.nan
    grid = [0.0, -0.0, nan, inf, -inf, neg_nan, 0.0, -0.0, 1.5]
    vertices = tuple((x, y, float(k)) for k, (x, y) in enumerate(zip(grid, grid[::-1] * 2)))
    vertices += ((-0.0, 0.0, -0.0), (nan, -0.0, inf), (0.0, nan, -inf))
    faces = tuple((k, k + 1, k + 2) for k in range(len(vertices) - 2))
    curvatures = (0.0, -0.0, inf, -inf) + (0.25,) * (len(vertices) - 4)
    return meshing.MeshResult(vertices, faces, curvatures, dropped=0)


def test_hand_built_mesh_holds_read_only_arrays():
    mesh = odd_value_mesh()
    assert mesh.vertices.dtype == float and mesh.vertices.shape == (12, 3)
    assert mesh.faces.dtype == int and mesh.faces.shape == (10, 3)
    assert mesh.curvatures.dtype == float and mesh.curvatures.shape == (12,)
    assert not any(a.flags.writeable for a in (mesh.vertices, mesh.faces, mesh.curvatures))
    with pytest.raises(ValueError, match="assignment destination is read-only"):
        mesh.curvatures[0] = 1.0
    empty = meshing.MeshResult((), [], (), dropped=4)
    assert (empty.vertices.shape, empty.faces.shape, empty.curvatures.shape) == ((0, 3), (0, 3), (0,))
    with pytest.raises(ValueError, match=r"vertices: expected shape \(-1, 3\), got \(2,\)"):
        meshing.MeshResult((0.0, 1.0), (), (0.0,), dropped=0)
    with pytest.raises(ValueError, match=r"curvatures: expected shape \(-1,\), got \(1, 1\)"):
        meshing.MeshResult([(0.0, 1.0, 2.0)], (), [[0.0]], dropped=0)


def assert_faces_match_replica(alive):
    nx, ny = len(alive), len(alive[0])
    _, expected, tri_cells = replicate_faces(nx, ny, alive)
    faces = meshing._faces(vertex_ids(alive))
    assert faces.dtype == int and faces.shape == (len(expected), 3)
    assert list(map(tuple, faces.tolist())) == expected
    return tri_cells


@pytest.mark.parametrize("pattern", range(16))
def test_faces_of_one_cell_match_replica(pattern):
    # bit k of the pattern keeps corner q_k: (0, 0), (1, 0), (1, 1), (0, 1)
    live = [bool(pattern >> k & 1) for k in range(4)]
    assert_faces_match_replica([[live[0], live[3]], [live[1], live[2]]])


def test_faces_match_replica_on_random_masks():
    tri_cells = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        alive = rng.random((9, 13)) < rng.uniform(0.3, 0.95)
        tri_cells += assert_faces_match_replica(alive.tolist())
    assert tri_cells > 0


@pytest.mark.parametrize(
    "case", ["full sphere", "partial coverage", "nan curvature", "signed zero, nan and inf"]
)
def test_writers_match_line_at_a_time_reference(tmp_path, case):
    mesh = {
        "full sphere": lambda: build_mesh(sphere3(), [(-0.4, 0.4), (-0.4, 0.4)], (6, 7), (0.1, 1.01)),
        "partial coverage": lambda: build_mesh(
            sphere3(), [(-1.2, 1.2), (-1.2, 1.2)], (8, 8), (0.1, 1.01)
        ),
        "nan curvature": nan_mesh,
        "signed zero, nan and inf": odd_value_mesh,
    }[case]()
    assert len(mesh.faces) and (case != "partial coverage" or mesh.dropped)
    assert (case == "nan curvature") == any(math.isnan(k) for k in mesh.curvatures)
    for write, reference in ((write_obj, reference_write_obj),
                             (write_curvature_csv, reference_write_curvature_csv)):
        got, want = tmp_path / "got", tmp_path / "want"
        write(str(got), mesh)
        reference(str(want), mesh)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("ranges", [[(350.0, 354.5), (0.0, 5.0)], [(354.4, 354.5)] * 2])
def test_overflowing_jet_products_mesh_to_the_oracle_curvature(ranges):
    """exp(x_1) + exp(x_2) + x_3 = 0: the term f_1'^2 f_2'' f_3'' passes the
    float range where 2 x_1 + x_2 > 709.78, while K = exp(x_1 + x_2) /
    (exp(2 x_1) + exp(2 x_2) + 1)^2 reads 0.0 or a subnormal value."""
    s = SeparableSurface(tuple(map(parse_function, ("exp(x)", "exp(x)", "x"))))
    mesh = build_mesh(s, ranges, (4, 4), (-1e200, 1.0))
    assert len(mesh.vertices) == 16
    for vertex, k in zip(mesh.vertices.tolist(), mesh.curvatures.tolist()):
        # the oracles' difference steps are absolute (x_3 is about -1e154),
        # and their Gram determinant cancels 1e616 down to 1e308
        with mpmath.workdps(400):
            want = brute_coordinate_k(s, vertex, 1, 2)
        assert abs(k - want) <= 1e-9 * abs(want)


def test_full_coverage_sphere_mesh():
    surface = sphere3()
    mesh = build_mesh(surface, [(-0.4, 0.4), (-0.4, 0.4)], (6, 7), (0.1, 1.01))
    assert len(mesh.vertices) == 6 * 7
    assert mesh.dropped == 0
    assert len(mesh.faces) == 2 * 5 * 6
    assert len(mesh.curvatures) == len(mesh.vertices)
    for field, dtype, shape in ((mesh.vertices, float, (42, 3)), (mesh.faces, int, (60, 3)),
                                (mesh.curvatures, float, (42,))):
        assert isinstance(field, np.ndarray) and field.dtype == dtype and field.shape == shape
        assert not field.flags.writeable

    # row-major vertex order over the (x1, x2) grid
    a_vals = np.linspace(-0.4, 0.4, 6)
    b_vals = np.linspace(-0.4, 0.4, 7)
    for idx, (x, y, z) in enumerate(mesh.vertices):
        assert x == a_vals[idx // 7]
        assert y == b_vals[idx % 7]
        assert z > 0.0
        assert abs(x * x + y * y + z * z - 1.0) <= 1e-12

    for k in mesh.curvatures:
        assert abs(k - 1.0) <= 1e-9

    # each full cell splits into two triangles sharing the (r, c) corner
    assert mesh.faces[:2].tolist() == [[0, 7, 8], [0, 8, 1]]
    for face in mesh.faces.tolist():
        assert len(set(face)) == 3
        assert all(0 <= v < len(mesh.vertices) for v in face)


def test_partial_coverage_drops_and_triangulates():
    surface = sphere3()
    nx = ny = 8
    mesh = build_mesh(surface, [(-1.2, 1.2), (-1.2, 1.2)], (nx, ny), (0.1, 1.01))

    # a node lifts iff the height solve lands inside the bracket:
    # 1 - a^2 - b^2 in [0.1^2, 1.01^2], i.e. a^2 + b^2 <= 0.99
    vals = np.linspace(-1.2, 1.2, nx)
    alive = [[vals[r] ** 2 + vals[c] ** 2 <= 0.99 for c in range(ny)] for r in range(nx)]
    ids, faces, tri_cells = replicate_faces(nx, ny, alive)

    assert mesh.dropped == nx * ny - len(ids)
    assert mesh.dropped > 0
    assert len(mesh.vertices) == len(ids)
    assert list(map(tuple, mesh.faces.tolist())) == faces
    assert tri_cells > 0                   # 3-corner cells emit one triangle

    for (x, y, z), k in zip(mesh.vertices, mesh.curvatures):
        assert abs(x * x + y * y + z * z - 1.0) <= 1e-12
        assert abs(k - 1.0) <= 1e-9


def test_flat_mesh_curvatures_exactly_zero():
    mesh = build_mesh(
        paraboloid_cylinder(), [(-1.0, 1.0), (-1.0, 1.0)], (5, 5), (-10.0, 10.0)
    )
    assert len(mesh.vertices) == 25
    assert mesh.dropped == 0
    assert set(mesh.curvatures.tolist()) == {0.0}
    for x1, x2, x3 in mesh.vertices.tolist():
        assert abs(x1 * x1 + x2 - x3) <= 1e-12


def test_height_slot_respected():
    surface = SeparableSurface(
        (
            parse_function("x^2 - 1.0"),
            parse_function("x^2"),
            parse_function("x^2"),
        ),
        height=1,
    )
    mesh = build_mesh(surface, [(-0.3, 0.3), (-0.3, 0.3)], (4, 4), (0.1, 1.01))
    assert len(mesh.vertices) == 16
    a_vals = np.linspace(-0.3, 0.3, 4)
    for idx, (x1, x2, x3) in enumerate(mesh.vertices):
        assert x2 == a_vals[idx // 4]      # grid runs over the non-height slots
        assert x3 == a_vals[idx % 4]
        assert x1 > 0.0
        assert abs(x1 * x1 + x2 * x2 + x3 * x3 - 1.0) <= 1e-12


def test_mesh_drops_what_solve_height_rejects():
    s = mixed_surface()
    mesh = build_mesh(s, MIXED_RANGES, (24, 9), MIXED_BRACKET)
    nodes = [
        [a, b]
        for a in np.linspace(*MIXED_RANGES[0], 24).tolist()
        for b in np.linspace(*MIXED_RANGES[1], 9).tolist()
    ]
    verdicts = solve_verdicts(s, nodes, MIXED_BRACKET)
    assert {v.split(":")[0] for v in verdicts if v} == {
        "BracketError", "DomainError", "RegularityError",
    }
    kept = [node for node, v in zip(nodes, verdicts) if v is None]
    assert list(map(tuple, mesh.vertices.tolist())) == [
        solve_height(s, node, MIXED_BRACKET).coords for node in kept
    ]
    assert mesh.dropped == len(nodes) - len(kept)


def test_mesh_evaluates_lifted_jets_once(monkeypatch):
    calls = spy_second_evaluations(monkeypatch)
    mesh = build_mesh(mixed_surface(), MIXED_RANGES, (12, 9), MIXED_BRACKET)
    assert mesh.dropped and len(mesh.vertices)
    assert calls == []


def test_mesh_walks_each_non_height_function_once_over_every_node(monkeypatch):
    calls, real = [], geometry.eval_jets

    def spy(f, xs):
        calls.append((f, len(xs)))
        return real(f, xs)

    monkeypatch.setattr(geometry, "eval_jets", spy)
    s = mixed_surface()
    mesh = build_mesh(s, MIXED_RANGES, (12, 9), MIXED_BRACKET)
    assert mesh.dropped and len(mesh.vertices)
    f1, f2, fh = s.funcs
    # f_1 and f_2 over every node ...
    assert calls[:2] == [(f1, 12 * 9), (f2, 12 * 9)]
    # ... then f_h alone, once per lift step over the nodes still unsolved:
    # the lo bracket end, the hi end and each Newton step; the nodes that
    # f_1 or f_2 failed are never walked
    steps = [size for f, size in calls[2:]]
    assert all(f is fh for f, _ in calls[2:])
    assert steps[0] < 12 * 9 and len(steps) > 3
    assert steps == sorted(steps, reverse=True)


# name -> (surface, ranges, grid, bracket, {node: start of its failure text})
GRID_CASES = {
    # row 0 leaves f_1's declared domain and column 0 takes log(0) in f_2,
    # so node 0 fails both axes and the first column's failure wins
    "axis values fail their jets": lambda: (
        SeparableSurface((parse_function("x^2", (-1.0, math.inf)), parse_function("log(x + 1)"),
                          parse_function("exp(x) - 2"))),
        [(-1.0, 1.0), (-1.0, 1.2)], (7, 6), (-20.0, 3.0),
        {0: "DomainError: x = -1.0 outside", 1: "DomainError: x = -1.0 outside",
         6: "NonFiniteError: evaluating 'log(x + 1.0)' at x = -1.0"},
    ),
    # the same failures with the height in the middle: x_1 is the first column
    "axis values fail their jets, height 2": lambda: (
        SeparableSurface((parse_function("log(x + 1)"), parse_function("exp(x) - 2"),
                          parse_function("x^2", (-1.0, math.inf))), height=2),
        [(-1.0, 1.2), (-1.0, 1.0)], (6, 7), (-20.0, 3.0),
        {0: "NonFiniteError: evaluating 'log(x + 1.0)' at x = -1.0",
         1: "NonFiniteError: evaluating 'log(x + 1.0)' at x = -1.0",
         7: "DomainError: x = -1.0 outside"},
    ),
    # x_1 - 1e13 + x_2 + exp(x_3) = 0 with the lo bracket end at log(1e13):
    # a node settles there when |x_1 + x_2| is within its tolerance (about
    # 20) and otherwise fails where exp overflows at the hi end; row 0 leaves
    # f_1's domain
    "f_h overflows at the hi bracket end": lambda: (
        SeparableSurface((parse_function("x - 1e13", (-20.0, math.inf)), parse_function("x"),
                          parse_function("exp(x)"))),
        [(-20.0, 20.0), (-20.0, 20.0)], (9, 9), (29.933606208922594, 800.0),
        {0: "DomainError: x = -20.0 outside",
         9: "NonFiniteError: evaluating 'exp(x)' at x = 800.0"},
    ),
    "f_h overflows at the lo bracket end": lambda: (
        SeparableSurface((parse_function("x^2"), parse_function("x"), parse_function("exp(-x)"))),
        [(-1.0, 1.0), (-1.0, 1.0)], (5, 4), (-800.0, 3.0),
        {p: "NonFiniteError: evaluating 'exp(-x)' at x = -800.0" for p in range(20)},
    ),
    "bracket, domain and regularity failures": lambda: (
        mixed_surface(), MIXED_RANGES, (24, 9), MIXED_BRACKET, {},
    ),
}


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_mesh_lift_and_files_match_per_node_references(monkeypatch, tmp_path, case):
    surface, ranges, grid, bracket, expected = GRID_CASES[case]()
    lifts = []

    def spy(*args):
        lifts.append((args, geometry._lift(*args)))
        return lifts[-1][1]

    monkeypatch.setattr(meshing, "_lift", spy)
    want = reference_build_mesh(surface, ranges, grid, bracket)
    if len(want.vertices) < 3:
        with pytest.raises(MeshError):
            build_mesh(surface, ranges, grid, bracket)
    else:
        mesh = build_mesh(surface, ranges, grid, bracket)
        assert len(mesh.faces) and mesh.dropped == want.dropped
        for write, reference in ((write_obj, reference_write_obj),
                                 (write_curvature_csv, reference_write_curvature_csv)):
            got, ref = tmp_path / "got", tmp_path / "ref"
            write(str(got), mesh)
            reference(str(ref), want)
            assert got.read_bytes() == ref.read_bytes()
    [((_, partials, _), lift)] = lifts
    assert partials.shape == (grid[0] * grid[1], 2)   # one row per node, row-major
    assert_lift_matches_reference(lift, surface, partials.tolist(), bracket)
    for node, text in expected.items():
        assert describe(lift.failures[node]).startswith(text), node


def test_too_few_vertices_is_mesh_error():
    with pytest.raises(MeshError, match="only 0 grid nodes.*need at least 3"):
        build_mesh(sphere3(), [(2.0, 3.0), (2.0, 3.0)], (4, 4), (0.1, 1.01))


def test_build_mesh_validation():
    four = SeparableSurface(tuple(parse_function("x^2") for _ in range(4)))
    with pytest.raises(ValueError, match="mesh export needs n = 3, got n = 4"):
        build_mesh(four, [(-1.0, 1.0), (-1.0, 1.0)], (4, 4), (-1.0, 1.0))
    with pytest.raises(ValueError, match="expected 2 ranges"):
        build_mesh(sphere3(), [(-0.4, 0.4)], (4, 4), (0.1, 1.01))
    with pytest.raises(ValueError, match="grid must be an integer >= 2, got 1"):
        build_mesh(sphere3(), [(-0.4, 0.4), (-0.4, 0.4)], (1, 5), (0.1, 1.01))


def test_write_obj_format(tmp_path):
    mesh = build_mesh(sphere3(), [(-0.4, 0.4), (-0.4, 0.4)], (4, 5), (0.1, 1.01))
    path = tmp_path / "mesh.obj"
    write_obj(str(path), mesh)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(mesh.vertices) + len(mesh.faces)

    for line, vertex in zip(lines, mesh.vertices.tolist()):
        tag, *coords = line.split(" ")
        assert tag == "v"
        assert [float(c) for c in coords] == vertex

    for line, face in zip(lines[len(mesh.vertices):], mesh.faces.tolist()):
        tag, *idxs = line.split(" ")
        assert tag == "f"
        assert [int(s) for s in idxs] == [v + 1 for v in face]
        assert all(1 <= int(s) <= len(mesh.vertices) for s in idxs)


def test_write_curvature_csv_format(tmp_path):
    mesh = build_mesh(sphere3(2.0), [(-0.5, 0.5), (-0.5, 0.5)], (3, 3), (0.2, 2.02))
    path = tmp_path / "mesh_curvature.csv"
    write_curvature_csv(str(path), mesh)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vertex,k"
    assert len(lines) == 1 + len(mesh.curvatures)
    for row, (idx, k) in zip(lines[1:], enumerate(mesh.curvatures.tolist(), start=1)):
        vid, cell = row.split(",")
        assert int(vid) == idx
        assert cell == repr(k)
        assert abs(float(cell) - 0.25) <= 1e-9
