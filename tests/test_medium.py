import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsmodes.errors import GridMismatchError, ProfileError
from epsmodes.lattice import EDGE, FACE, Grid, VectorField
from epsmodes.medium import (
    MAX_PERMITTIVITY,
    EmptyCavity,
    Homogeneous,
    Layer,
    SlabStack,
    Sphere,
    build_profile,
    check_descriptor,
    check_permittivity,
    descriptor_from_dict,
    eps_inner,
    evaluate_descriptor,
)

from conftest import (
    component_positions,
    image_distance,
    random_medium,
    random_vector,
    reference_balls,
)


class TestBuildProfile:
    def test_homogeneous(self):
        g = Grid((4, 4, 4))
        m = build_profile(Homogeneous(1.0), g)
        assert np.all(m.eps == 1.0)
        assert m.mu is None

    def test_sphere_staircase(self):
        g = Grid((16, 16, 16), 1.0)
        desc = Sphere(center=(8, 8, 8), radius=2.0, eps_in=1.0, eps_out=4.0)
        m = build_profile(desc, g)
        # edge-x sample at the center cell lies inside, far corner outside
        assert m.eps[0, 8, 8, 8] == 1.0
        assert m.eps[0, 0, 0, 0] == 4.0
        inside = np.count_nonzero(m.eps == 1.0)
        assert 0 < inside < m.eps.size

    def test_slab_stack_matches_pointwise_evaluation(self):
        g = Grid((64, 1, 1), 1.0)
        desc = SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0)
        m = build_profile(desc, g)
        for a in range(3):
            axes = g.component_axes(EDGE, a)
            assert np.array_equal(m.eps[a], evaluate_descriptor(desc, axes, g))
        # cell-centered samples of the y component follow the layer pattern
        assert m.eps[1, 0, 0, 0] == 1.0
        assert m.eps[1, 6, 0, 0] == 13.0
        assert m.eps[1, 8, 0, 0] == 1.0

    def test_empty_cavity_forces_unity(self):
        g = Grid((16, 16, 16), 1.0)
        desc = EmptyCavity(Homogeneous(4.0), centers=((8.0, 8.0, 8.0),), radius=2.5)
        m = build_profile(desc, g)
        for a in range(3):
            pts = component_positions(g, EDGE, a)
            d = pts - np.array([8.0, 8.0, 8.0])
            r = np.linalg.norm(d, axis=-1)
            assert np.all(m.eps[a][r <= 2.5] == 1.0)
            assert np.all(m.eps[a][r > 2.5] == 4.0)

    def test_rejects_bad_geometry(self):
        g = Grid((8, 8, 8), 1.0)
        with pytest.raises(ProfileError):
            build_profile(Homogeneous(-1.0), g)
        with pytest.raises(ProfileError):
            build_profile(Sphere((4, 4, 4), 5.0, 1.0, 2.0), g)  # radius > L/2
        with pytest.raises(ProfileError):
            build_profile(SlabStack((Layer(3.0, 2.0),), axis=0), g)  # period mismatch
        with pytest.raises(ProfileError):
            build_profile(EmptyCavity(Homogeneous(2.0), ((4, 4, 4),), 0.2), g)

    @pytest.mark.parametrize(
        "desc, mu_desc",
        [
            (SlabStack((Layer(8.0, 2.0),), axis=5), None),
            (SlabStack((Layer(8.0, 2.0),), axis=1.0), None),
            (SlabStack((Layer(8e9, 2.0),)), None),
            (Sphere((4.0, 4.0), 2.0, 1.0, 2.0), None),
            (EmptyCavity(Homogeneous(2.0), ((4.0, 4.0, 4.0), (1.0, 1.0)), 1.5), None),
            # values no sample reaches: a sphere inside one cell, a layer
            # thinner than one
            (Sphere((4.2, 4.2, 4.2), 0.1, -1.0, 2.0), None),
            (SlabStack((Layer(7.1, 2.0), Layer(0.3, -1.0), Layer(0.6, 2.0))), None),
            (Homogeneous(1.0), SlabStack((Layer(7.1, 2.0), Layer(0.3, -1.0), Layer(0.6, 2.0)))),
            # refused before any arithmetic, so numpy warns of no invalid value
            (Sphere((math.nan, 4.0, 4.0), 2.0, 1.0, 2.0), None),
            (Sphere((4.0, 4.0, math.inf), 2.0, 1.0, 2.0), None),
            (EmptyCavity(Homogeneous(2.0), ((1.0, 1.0, 1.0), (4.0, -math.inf, 4.0)), 1.5), None),
            # past MAX_PERMITTIVITY, for eps and for mu
            (Homogeneous(1e8), None),
            (Homogeneous(1.0), Homogeneous(1e8)),
        ],
        ids=["slab-axis-5", "slab-axis-float", "period-far-above-box", "two-coordinate-center", "two-coordinate-cavity-center",
             "negative-eps-in-unsampled-sphere", "negative-eps-unsampled-layer",
             "negative-mu-unsampled-layer", "nan-center", "inf-center", "minus-inf-cavity-center",
             "eps-1e8", "mu-1e8"],
    )
    def test_rejects_descriptor_faults(self, desc, mu_desc):
        with pytest.raises(ProfileError):
            build_profile(desc, Grid((8, 8, 8), 1.0), mu_desc)


SPHERE = {"kind": "sphere", "center": [1.0, 1.0, 1.0], "radius": 1.0, "eps_in": 1.0,
          "eps_out": 2.0}


@pytest.mark.parametrize(
    "form, names",
    [
        ([], "descriptor: [] is not of type 'object'"),
        ({"eps": 2.0}, "descriptor: 'kind' is a required property"),
        ({"kind": "cube"}, "descriptor.kind: 'cube' is not one of ['homogeneous', "),
        ({"kind": ["sphere"]}, "descriptor.kind: ['sphere'] is not one of ['homogeneous', "),
        ({k: v for k, v in SPHERE.items() if k != "eps_in"},
         "descriptor: 'eps_in' is a required property"),
        ({"kind": "sphere"}, "descriptor: 'center' is a required property"),
        (dict(SPHERE, typo=1),
         "descriptor: Additional properties are not allowed ('typo' was unexpected)"),
        (dict(SPHERE, center=1.0), "descriptor.center: 1.0 is not of type 'array'"),
        (dict(SPHERE, center=[1.0, "1", 1.0]), "descriptor.center[1]: '1' is not of type 'number'"),
        (dict(SPHERE, radius=float("nan")), "descriptor.radius: nan is not of type 'number'"),
        (dict(SPHERE, eps_out=10**400), f"descriptor.eps_out: {10**400} is not of type 'number'"),
        ({"kind": "homogeneous", "eps": True}, "descriptor.eps: True is not of type 'number'"),
        ({"kind": "slab-stack", "layers": {"thickness": 1.0, "eps": 2.0}},
         "descriptor.layers: {'thickness': 1.0, 'eps': 2.0} is not of type 'array'"),
        ({"kind": "slab-stack", "layers": [2.0]},
         "descriptor.layers[0]: 2.0 is not of type 'object'"),
        ({"kind": "slab-stack", "layers": [{"thickness": 1.0}]},
         "descriptor.layers[0]: 'eps' is a required property"),
        ({"kind": "slab-stack", "layers": [{"thickness": 1.0, "eps": 2.0, "mu": 1.0}]},
         "descriptor.layers[0]: Additional properties are not allowed ('mu' was unexpected)"),
        ({"kind": "slab-stack", "layers": [{"thickness": 1.0, "eps": 2.0}], "axis": 1.0},
         "descriptor.axis: 1.0 is not of type 'integer'"),
        ({"kind": "empty-cavity", "host": [], "centers": [], "radius": 1.0},
         "descriptor.host: [] is not of type 'object'"),
        ({"kind": "empty-cavity", "host": {"kind": "homogeneous", "eps": 2.0, "typo": 1},
          "centers": [], "radius": 1.0},
         "descriptor.host: Additional properties are not allowed ('typo' was unexpected)"),
        ({"kind": "empty-cavity", "host": {"kind": "homogeneous", "eps": 2.0},
          "centers": [1.0, 1.0, 1.0], "radius": 1.0},
         "descriptor.centers[0]: 1.0 is not of type 'array'"),
    ],
    # each id names its fault, and keeps the name the suite has printed for it
    ids=["form0-descriptor must be an object", "form1-'kind' is a required property",
         "form2-unknown descriptor kind 'cube'", "form3-unknown descriptor kind ['sphere']",
         "form4-'eps_in' is a required property", "form5-'center' is a required property",
         "form6-unknown key 'typo'", "form7-center must be an array",
         "form8-center must be a finite number", "form9-radius must be a finite number",
         "form10-eps_out must be a finite number", "form11-eps must be a finite number",
         "form12-layers must be an array", "form13-layer must be an object",
         "form14-'eps' is a required property", "form15-unknown key 'mu'",
         "form16-axis must be an integer", "form17-host: descriptor must be an object",
         "form18-host: homogeneous: unknown key 'typo'", "form19-centers must be an array"],
)
def test_descriptor_grammar_names_the_key(form, names):
    with pytest.raises(ProfileError) as err:
        descriptor_from_dict(form)
    assert names in str(err.value)


def test_descriptor_grammar_names_an_integer_too_long_to_print():
    # an int past Python's str-conversion limit is shown by its digit count,
    # so the refusal stays a ProfileError naming the key
    with pytest.raises(ProfileError) as err:
        descriptor_from_dict({"kind": "homogeneous", "eps": 10**5000})
    assert "descriptor.eps: <integer of 5001 digits> is not of type 'number'" in str(err.value)


@pytest.mark.parametrize(
    "desc, names",
    [
        (Homogeneous("4"), "eps must be a number, got '4'"),
        (Sphere((1, 1, 1), "1", 1.0, 2.0), "sphere radius must be a number, got '1'"),
        (SlabStack((Layer(4.0, None),)), "layer 0 eps must be a number, got None"),
        (Sphere((1, "1", 1), 1.0, 1.0, 2.0), "sphere center must be a number"),
        (EmptyCavity(Homogeneous(2.0), ((1, 1, 1),), "1"), "cavity radius must be a number"),
        (Homogeneous(True), "eps must be a number, got True"),
        (SlabStack(({"thickness": 4.0, "eps": 2.0},)), "layer 0 must be a Layer, got {"),
        (SlabStack(Layer(4.0, 2.0)), "slab layers must be a tuple of Layer, got Layer("),
        (EmptyCavity(Homogeneous(2.0), None, 1.0), "cavity centers must be a tuple of points, got None"),
        (Sphere(None, 1.0, 1.0, 2.0), "sphere center None needs three coordinates"),
    ],
    ids=["homogeneous-eps-str", "sphere-radius-str", "layer-eps-none", "center-str",
         "cavity-radius-str", "eps-bool", "layer-dict", "layers-not-a-tuple",
         "cavity-centers-none", "sphere-center-none"],
)
def test_python_descriptor_of_wrong_type_names_the_key(desc, names):
    # a descriptor built in Python meets the rules with ProfileError, not
    # TypeError or AttributeError, when sampled and when only checked
    grid = Grid((4, 4, 4))
    with pytest.raises(ProfileError) as err:
        build_profile(desc, grid)
    assert names in str(err.value)
    with pytest.raises(ProfileError) as checked:
        check_descriptor(desc, grid)
    assert str(checked.value) == str(err.value)


@pytest.mark.parametrize(
    "desc",
    [Homogeneous(1e8), Sphere((1, 1, 1), 3.0, 1.0, 2.0), SlabStack((Layer(3.0, 2.0),)),
     EmptyCavity(Homogeneous(2.0), ((1, 1, 1),), 0.5)],
    ids=["eps-1e8", "sphere-wider-than-half-box", "period-not-tiling", "cavity-below-one-cell"],
)
def test_check_descriptor_refuses_what_sampling_refuses(desc):
    grid = Grid((4, 4, 4))
    with pytest.raises(ProfileError) as checked:
        check_descriptor(desc, grid)
    with pytest.raises(ProfileError) as sampled:
        build_profile(desc, grid)
    assert str(checked.value) == str(sampled.value)
    check_descriptor(Sphere((1, 1, 1), 1.0, 1.0, 2.0), grid)


def test_permittivity_rule_is_open_at_zero_and_closed_at_the_top():
    for value in (1e-300, 1.0, MAX_PERMITTIVITY):
        check_permittivity("eps", value)
    for value in (0.0, -1.0, MAX_PERMITTIVITY * (1 + 2**-52), math.inf, math.nan):
        with pytest.raises(ProfileError, match=r"eps must lie in \(0, 1e\+06\]"):
            check_permittivity("eps", value)


def reference_eps(desc, points, grid):
    """A descriptor's eps at full coordinates (..., 3), evaluated pointwise."""
    if isinstance(desc, Homogeneous):
        return np.full(points.shape[:-1], float(desc.eps))
    if isinstance(desc, SlabStack):
        x = np.mod(points[..., desc.axis], desc.period)
        out = np.full(points.shape[:-1], desc.layers[-1].eps)
        lo = 0.0
        for layer in desc.layers:
            hi = lo + layer.thickness
            out[(x >= lo) & (x < hi)] = layer.eps
            lo = hi
        return out
    if isinstance(desc, Sphere):
        inside = reference_balls(points, (desc.center,), desc.radius, grid)
        return np.where(inside, desc.eps_in, desc.eps_out)
    inside = reference_balls(points, desc.centers, desc.radius, grid)
    return np.where(inside, 1.0, reference_eps(desc.host, points, grid))


def random_descriptor(rng, grid, kinds=("homogeneous", "slab-stack", "sphere", "empty-cavity")):
    """A descriptor that passes the medium's rules on ``grid``.

    Centers fall inside and outside the box; a third of them sit on whole
    coordinates with the radius equal to a sample's distance, so the
    comparison with the radius is decided by its last bit.
    """
    lengths = np.asarray(grid.lengths)
    half = lengths.min() / 2
    if min(grid.dims) < 2:
        kinds = [k for k in kinds if k != "empty-cavity"]
    kind = kinds[rng.integers(len(kinds))]

    def center_and_radius(floor):
        if rng.random() < 1 / 3:
            center = rng.integers(-2, 2 * max(grid.dims), 3).astype(float)
            points = component_positions(grid, [EDGE, FACE][rng.integers(2)], rng.integers(3))
            dist = image_distance(points, center, grid).ravel()
            dist = dist[(dist >= floor) & (dist <= half)]
            if dist.size:
                return tuple(center), float(dist[rng.integers(dist.size)])
        center = tuple(float(x) for x in rng.uniform(-1.0, 2.0, 3) * lengths)
        return center, float(rng.uniform(max(floor, 0.05 * half), half))

    if kind == "homogeneous":
        return Homogeneous(float(rng.uniform(1, 13)))
    if kind == "slab-stack":
        axis = int(rng.integers(3))
        periods = 1 + int(rng.integers(2))
        parts = rng.uniform(0.2, 1.0, 1 + int(rng.integers(3)))
        parts *= grid.lengths[axis] / periods / parts.sum()
        return SlabStack(tuple(Layer(float(t), float(rng.uniform(1, 13))) for t in parts), axis)
    if kind == "sphere":
        center, radius = center_and_radius(0.0)
        return Sphere(center, radius, float(rng.uniform(1, 13)), float(rng.uniform(1, 13)))
    host = random_descriptor(rng, grid, ("homogeneous", "slab-stack", "sphere"))
    center, radius = center_and_radius(grid.spacing)
    others = [tuple(float(x) for x in rng.uniform(0, 1, 3) * lengths)
              for _ in range(int(rng.integers(2)))]
    return EmptyCavity(host, (center, *others), radius)


@pytest.mark.parametrize("seed", range(8))
def test_separable_sampling_is_bit_identical_to_full_coordinates(seed):
    # build_profile samples on 1D axes; the reference takes a norm per point
    rng = np.random.default_rng(seed)
    for _ in range(30):
        dims = tuple(int(n) for n in rng.integers(1, 13, 3))
        spacing = float([0.1, 0.37, 1.0, 2.5][rng.integers(4)] if rng.random() < 0.6
                        else rng.uniform(0.05, 3.0))
        grid = Grid(dims, spacing)
        desc, mu_desc = random_descriptor(rng, grid), random_descriptor(rng, grid)
        m = build_profile(desc, grid, mu_desc)
        for a in range(3):
            eps = reference_eps(desc, component_positions(grid, EDGE, a), grid)
            mu = reference_eps(mu_desc, component_positions(grid, FACE, a), grid)
            assert m.eps[a].tobytes() == eps.tobytes(), (desc, grid, a)
            assert m.mu[a].tobytes() == mu.tobytes(), (mu_desc, grid, a)


class TestEpsInner:
    def test_unit_fields_give_box_volume(self):
        g = Grid((4, 5, 6), 0.5)
        m = build_profile(Homogeneous(1.0), g)
        u = VectorField(g, EDGE, np.full((3,) + g.dims, 1.0) / math.sqrt(3))
        assert eps_inner(u, u, m) == pytest.approx(g.volume)

    def test_orthogonal_plane_waves(self):
        g = Grid((8, 8, 8), 1.0)
        m = build_profile(Homogeneous(2.0), g)
        x = np.arange(8)[:, None, None] * np.ones(g.dims)
        u = np.zeros((3,) + g.dims)
        v = np.zeros((3,) + g.dims)
        u[1] = np.cos(2 * np.pi * x / 8)
        v[1] = np.sin(2 * np.pi * x / 8)
        value = eps_inner(VectorField(g, EDGE, u), VectorField(g, EDGE, v), m)
        assert abs(value) < 1e-12

    def test_matches_fsum_oracle(self, rng):
        g = Grid((4, 4, 4), 0.9)
        m = random_medium(g, rng)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        oracle = math.fsum(
            (m.eps * u.values * v.values).ravel().tolist()
        ) * g.cell_volume
        got = eps_inner(u, v, m)
        assert abs(got - oracle) <= 1e-13 * abs(oracle)

    def test_symmetry(self, rng):
        g = Grid((3, 3, 3))
        m = random_medium(g, rng)
        u = random_vector(g, rng)
        v = random_vector(g, rng)
        assert eps_inner(u, v, m) == pytest.approx(eps_inner(v, u, m), rel=1e-14)

    def test_grid_mismatch(self, rng):
        m = random_medium(Grid((4, 4, 4)), rng)
        u = random_vector(Grid((3, 3, 3)), rng)
        with pytest.raises(GridMismatchError):
            eps_inner(u, u, m)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(-5, 5), seed=st.integers(0, 2**31))
def test_eps_inner_bilinear_property(scale, seed):
    rng = np.random.default_rng(seed)
    g = Grid((4, 4, 4))
    m = random_medium(g, rng)
    u = random_vector(g, rng)
    v = random_vector(g, rng)
    scaled = VectorField(g, EDGE, scale * u.values)
    lhs = eps_inner(scaled, v, m)
    rhs = scale * eps_inner(u, v, m)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def test_eps_inner_positive_definite(rng):
    g = Grid((5, 4, 3))
    m = random_medium(g, rng)
    u = random_vector(g, rng)
    assert eps_inner(u, u, m) > 0
