"""Metric, Christoffel, frame, and area checks against independent oracles.

Christoffel symbols are cross-checked with sympy's symbolic derivatives of
the fundamental form; metric jets against finite differences; areas against
closed forms and plain Riemann sums; frames against the embedded dot
products they are meant to reproduce.
"""

import math

import numpy as np
import pytest
import sympy as sp

from surfgeo import surface as sf

BUILTINS = [
    ("plane", {}),
    ("sphere", {"r": 1.0}),
    ("sphere", {"r": 2.0}),
    ("cylinder", {"r": 1.5}),
    ("torus", {"R": 2.0, "r": 0.7}),
    ("hill", {"h": 1.0, "sigma": 1.0}),
    ("ellipsoid", {"a": 1.0, "b": 1.2, "c": 0.8}),
]


def _interior_points(s, n, seed):
    rng = np.random.default_rng(seed)
    d = s.domain
    lo_u = d.u_min + d.margin_u + 0.05 * (d.u_max - d.u_min)
    hi_u = d.u_max - d.margin_u - 0.05 * (d.u_max - d.u_min)
    lo_v = d.v_min + d.margin_v + 0.05 * (d.v_max - d.v_min)
    hi_v = d.v_max - d.margin_v - 0.05 * (d.v_max - d.v_min)
    return np.column_stack([rng.uniform(lo_u, hi_u, n), rng.uniform(lo_v, hi_v, n)])


def _sympy_christoffel(E, F, G, u, v):
    """Gamma^k_ij from the first fundamental form, symbolically."""
    g = sp.Matrix([[E, F], [F, G]])
    ginv = g.inv()
    x = (u, v)
    gamma = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    for k in range(2):
        for i in range(2):
            for j in range(2):
                total = 0
                for m in range(2):
                    total += ginv[k, m] * (
                        sp.diff(g[m, i], x[j])
                        + sp.diff(g[m, j], x[i])
                        - sp.diff(g[i, j], x[m])
                    )
                gamma[k][i][j] = total / 2
    return gamma


SYMBOLIC_FORMS = {}


def _symbolic_form(kind, params):
    u, v = sp.symbols("u v", real=True)
    if kind == "sphere":
        r = params["r"]
        return (r**2, sp.Integer(0), r**2 * sp.sin(u) ** 2), u, v
    if kind == "torus":
        R, r = params["R"], params["r"]
        return (r**2, sp.Integer(0), (R + r * sp.cos(u)) ** 2), u, v
    if kind == "hill":
        h, sg = params["h"], params["sigma"]
        f = h * sp.exp(-(u**2 + v**2) / sg**2)
        fu, fv = sp.diff(f, u), sp.diff(f, v)
        return (1 + fu**2, fu * fv, 1 + fv**2), u, v
    if kind == "ellipsoid":
        a, b, c = params["a"], params["b"], params["c"]
        x = a * sp.sin(u) * sp.cos(v)
        y = b * sp.sin(u) * sp.sin(v)
        z = c * sp.cos(u)
        xu = sp.Matrix([sp.diff(w, u) for w in (x, y, z)])
        xv = sp.Matrix([sp.diff(w, v) for w in (x, y, z)])
        return (xu.dot(xu), xu.dot(xv), xv.dot(xv)), u, v
    raise KeyError(kind)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("sphere", {"r": 2.0}),
        ("torus", {"R": 2.0, "r": 0.7}),
        ("hill", {"h": 1.0, "sigma": 1.0}),
        ("ellipsoid", {"a": 1.0, "b": 1.2, "c": 0.8}),
    ],
)
def test_christoffel_matches_sympy(kind, params):
    (E, F, G), u, v = _symbolic_form(kind, params)
    gamma_sym = _sympy_christoffel(E, F, G, u, v)
    fns = [[[sp.lambdify((u, v), gamma_sym[k][i][j]) for j in range(2)] for i in range(2)]
           for k in range(2)]
    s = sf.builtin_surface(kind, params)
    for pu, pv in _interior_points(s, 4, seed=11):
        got = sf.christoffel_at(s, (pu, pv)).gamma
        want = np.array([[[fns[k][i][j](pu, pv) for j in range(2)] for i in range(2)]
                         for k in range(2)], dtype=float)
        assert np.allclose(got, want, atol=1e-12, rtol=1e-10)


@pytest.mark.parametrize("kind,params", BUILTINS)
def test_jet_derivatives_match_finite_differences(kind, params):
    s = sf.builtin_surface(kind, params)
    h = 1e-6
    for pu, pv in _interior_points(s, 5, seed=3):
        E, F, G, Eu, Ev, Fu, Fv, Gu, Gv = (float(x) for x in s.jet(pu, pv, math))
        for idx, d_du, d_dv in ((0, Eu, Ev), (1, Fu, Fv), (2, Gu, Gv)):
            up = float(s.jet(pu + h, pv, math)[idx])
            um = float(s.jet(pu - h, pv, math)[idx])
            vp = float(s.jet(pu, pv + h, math)[idx])
            vm = float(s.jet(pu, pv - h, math)[idx])
            assert abs((up - um) / (2 * h) - d_du) < 5e-6
            assert abs((vp - vm) / (2 * h) - d_dv) < 5e-6


@pytest.mark.parametrize("kind,params", BUILTINS)
def test_metric_matches_embedding_dots(kind, params):
    """E, F, G must equal the dot products of the embedded chart velocities."""
    s = sf.builtin_surface(kind, params)
    for pu, pv in _interior_points(s, 5, seed=5):
        _, xu, xv = s.embedding_frame(np.asarray(pu), np.asarray(pv))
        E, F, G = (float(x) for x in s.jet(pu, pv, math)[:3])
        assert abs(float(np.dot(xu, xu)) - E) < 1e-9 * max(1.0, E)
        assert abs(float(np.dot(xu, xv)) - F) < 1e-9
        assert abs(float(np.dot(xv, xv)) - G) < 1e-9 * max(1.0, G)


@pytest.mark.parametrize("kind,params", BUILTINS)
def test_frame_is_orthonormal(kind, params):
    s = sf.builtin_surface(kind, params)
    for p in _interior_points(s, 6, seed=7):
        e1, e2 = sf.frame_at(s, p)
        assert abs(sf.metric_norm(s, p, e1) - 1.0) < 1e-12
        assert abs(sf.metric_norm(s, p, e2) - 1.0) < 1e-12
        assert abs(sf.metric_dot(s, p, e1, e2)) < 1e-12


@pytest.mark.parametrize("kind,params", BUILTINS)
def test_frame_components_roundtrip(kind, params):
    s = sf.builtin_surface(kind, params)
    rng = np.random.default_rng(13)
    for p in _interior_points(s, 6, seed=17):
        w = rng.normal(size=2)
        a, b = sf.frame_components(s, p, w)
        back = a * sf.frame_at(s, p)[0] + b * sf.frame_at(s, p)[1]
        assert np.allclose(back, w, atol=1e-10)
        assert abs(math.hypot(a, b) - sf.metric_norm(s, p, w)) < 1e-10


@pytest.mark.parametrize("kind,params", BUILTINS)
def test_to_frame_and_from_frame_are_inverse_on_arrays(kind, params):
    s = sf.builtin_surface(kind, params)
    pts = _interior_points(s, 16, seed=19)
    w = np.random.default_rng(21).normal(size=(16, 2))
    E, F, G = s.jet(pts[:, 0], pts[:, 1], np)[:3]
    a, b = sf.to_frame(E, F, G, w[:, 0], w[:, 1])
    wu, wv = sf.from_frame(E, F, G, a, b)
    assert np.allclose(wu, w[:, 0], atol=1e-12) and np.allclose(wv, w[:, 1], atol=1e-12)
    for k, p in enumerate(pts):
        # the vectorized helpers agree with the scalar frame at each point
        assert np.allclose((a[k], b[k]), sf.frame_components(s, p, w[k]), atol=1e-13)
        assert abs(math.hypot(a[k], b[k]) - sf.metric_norm(s, p, w[k])) < 1e-12


def test_frame_angle_conventions_on_sphere():
    s = sf.builtin_surface("sphere", {"r": 1.0})
    p = (math.pi / 2, 1.0)
    south = np.array([1.0, 0.0])  # +u is increasing colatitude
    east = np.array([0.0, 1.0])
    assert abs(sf.frame_angle(s, p, south)) < 1e-12
    assert abs(sf.frame_angle(s, p, east) - math.pi / 2) < 1e-12
    assert abs(sf.frame_angle(s, p, -east) + math.pi / 2) < 1e-12


def test_connection_form_values():
    """The parallel frame rotates against d(theta) = -omega; on the sphere
    omega = cos(u) dv and on the torus omega = -sin(u) dv."""
    sph = sf.builtin_surface("sphere", {"r": 2.0})
    tor = sf.builtin_surface("torus", {"R": 2.0, "r": 0.7})
    for u in (0.4, 1.0, 2.2):
        wu, wv = sf.connection_form(sph, u, 0.3, math)
        assert abs(wu) < 1e-14
        assert abs(wv - math.cos(u)) < 1e-12
        wu, wv = sf.connection_form(tor, u, 0.3, math)
        assert abs(wu) < 1e-14
        assert abs(wv + math.sin(u)) < 1e-12
    for kind in ("plane", "cylinder"):
        s = sf.builtin_surface(kind, {} if kind == "plane" else {"r": 1.0})
        wu, wv = sf.connection_form(s, 0.5, 0.5, math)
        assert wu == 0.0 and wv == 0.0


def test_builtin_rejects_bad_params():
    with pytest.raises(ValueError):
        sf.builtin_surface("sphere", {})
    with pytest.raises(ValueError):
        sf.builtin_surface("sphere", {"radius": 1.0})
    with pytest.raises(ValueError):
        sf.builtin_surface("nosuch", {})
    with pytest.raises(ValueError):
        sf.builtin_surface("torus", {"R": 0.5, "r": 0.7})  # inner radius exceeds ring


def test_positive_definiteness_guard():
    dom = sf.ChartDomain(-1.0, 1.0, -1.0, 1.0)

    def bad_jet(u, v, xp):
        return (u, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # E changes sign

    with pytest.raises(ValueError):
        sf.Surface("bad", dom, bad_jet)


def test_area_closed_forms():
    """Spherical cap and octant against 2*pi*r^2*(1-cos u) and (pi/2) r^2."""
    s = sf.builtin_surface("sphere", {"r": 1.0})
    from surfgeo import paths
    cap = paths.chart_rectangle(s, 1e-3, 0.0, 1.0, 2.0 * math.pi)
    want = 2.0 * math.pi * (math.cos(1e-3) - math.cos(1.0))
    assert abs(sf.area_of_region(s, cap) - want) < 1e-8
    octant = paths.chart_rectangle(s, 1e-3, 0.0, math.pi / 2, math.pi / 2)
    want = (math.pi / 2) * math.cos(1e-3)
    assert abs(sf.area_of_region(s, octant) - want) < 1e-8


def test_area_riemann_sum_oracle_on_hill():
    """Non-rectangular region area against a brute midpoint Riemann sum."""
    s = sf.builtin_surface("hill", {"h": 1.0, "sigma": 1.0})
    poly = np.array([[0.0, 0.0], [1.2, 0.3], [0.9, 1.1], [-0.2, 0.8]])
    from surfgeo import paths
    loop = paths.loop_from_waypoints(s, np.vstack([poly, poly[:1]]), 0.05)
    got = sf.area_of_region(s, paths.region_from_loop(loop))

    n = 400
    uu = np.linspace(-0.3, 1.3, n)
    vv = np.linspace(-0.1, 1.2, n)
    du = uu[1] - uu[0]
    dv = vv[1] - vv[0]
    um, vm = np.meshgrid(uu[:-1] + du / 2, vv[:-1] + dv / 2, indexing="ij")
    from surfgeo import _chartgeom
    inside = _chartgeom.points_in_polygon(
        np.column_stack([um.ravel(), vm.ravel()]), poly
    ).reshape(um.shape)
    E, F, G = s.jet(um, vm, np)[:3]
    dens = np.sqrt(np.maximum(np.broadcast_to(E * G - F * F, um.shape), 0.0))
    brute = float(np.sum(dens * inside) * du * dv)
    assert abs(got - brute) < 5e-3 * max(1.0, brute)


def test_surface_from_embedding_matches_analytic():
    """A finite-difference surface over z = u^2 + v^2 must reproduce the
    analytic graph metric."""
    dom = sf.ChartDomain(-1.0, 1.0, -1.0, 1.0)

    def emb(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return np.stack([u, v, u * u + v * v], axis=-1)

    s = sf.surface_from_embedding("paraboloid", dom, emb)
    for pu, pv in _interior_points(s, 5, seed=23):
        E, F, G = (float(x) for x in s.jet(pu, pv, math)[:3])
        assert abs(E - (1 + 4 * pu * pu)) < 1e-6
        assert abs(F - 4 * pu * pv) < 1e-6
        assert abs(G - (1 + 4 * pv * pv)) < 1e-6


def test_vectorized_and_scalar_jets_agree():
    for kind, params in BUILTINS:
        s = sf.builtin_surface(kind, params)
        pts = _interior_points(s, 8, seed=29)
        vec = s.jet(pts[:, 0], pts[:, 1], np)
        for i, (pu, pv) in enumerate(pts):
            scal = s.jet(pu, pv, math)
            for a, b in zip(scal, vec):
                bb = float(np.broadcast_to(b, (len(pts),))[i])
                assert abs(float(a) - bb) < 1e-13 * max(1.0, abs(bb))
