"""Parametrized surfaces carrying a first fundamental form.

A surface is a chart rectangle together with the metric coefficients
E, F, G and their first derivatives (the "jet").  Builtins supply the jet
analytically; user-defined surfaces fall back to central differences.
Christoffel symbols, the orthonormal frame, and the connection one-form that
drives parallel transport are all derived from the jet here.

The orthonormal frame is e1 = d_u/sqrt(E) with e2 its Gram-Schmidt
complement.  ``to_frame`` and ``from_frame`` convert chart components to
frame components and back, for scalars (``xp=math``) or arrays (``xp=np``);
every caller that needs the frame goes through them, except the fused
geodesic right-hand side in ``geodesics``.

Conventions used throughout the package:

* chart coordinates are (u, v); on periodic axes paths run in unwrapped
  coordinates (no modular jumps),
* angles are measured against the metric-orthonormal frame aligned with
  the chart basis and are counterclockwise-positive,
* a positively oriented simple chart loop encloses positive signed area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import _chartgeom

U, V = 0, 1


class ChartPoint(NamedTuple):
    """A point in chart coordinates."""

    u: float
    v: float


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector attached to a chart point, in chart components."""

    base: ChartPoint
    du: float
    dv: float

    def components(self) -> np.ndarray:
        return np.array([self.du, self.dv])


@dataclass(frozen=True)
class ChristoffelSymbols:
    """Connection coefficients gamma[k][i][j] at a point, k,i,j in {U, V}."""

    gamma: np.ndarray  # shape (2, 2, 2)

    def __getitem__(self, key):
        return self.gamma[key]


@dataclass(frozen=True)
class ChartDomain:
    """Chart rectangle with optional periodic axes and interior margins.

    ``contains`` admits the closed rectangle (used for areas and path
    samples); ``strictly_inside`` additionally excludes the margin strips
    where the chart degenerates (sphere poles), which is what transport and
    geodesic integration require.
    """

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    periodic_u: bool = False
    periodic_v: bool = False
    margin_u: float = 0.0
    margin_v: float = 0.0

    @property
    def extent(self) -> float:
        return max(self.u_max - self.u_min, self.v_max - self.v_min)

    def contains(self, u, v) -> bool:
        ok = True
        if not self.periodic_u:
            ok = ok and bool(np.all((u >= self.u_min - 1e-12) & (u <= self.u_max + 1e-12)))
        if not self.periodic_v:
            ok = ok and bool(np.all((v >= self.v_min - 1e-12) & (v <= self.v_max + 1e-12)))
        return ok

    def strictly_inside(self, u, v) -> bool:
        ok = True
        if not self.periodic_u:
            lo, hi = self.u_min + self.margin_u, self.u_max - self.margin_u
            ok = ok and bool(np.all((u >= lo - 1e-12) & (u <= hi + 1e-12)))
        if not self.periodic_v:
            lo, hi = self.v_min + self.margin_v, self.v_max - self.margin_v
            ok = ok and bool(np.all((v >= lo - 1e-12) & (v <= hi + 1e-12)))
        return ok


@dataclass(frozen=True)
class Surface:
    """A chart domain plus metric jet and optional embedding.

    ``jet(u, v, xp)`` returns (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv); it must
    accept scalars with ``xp=math`` and arrays with ``xp=np``.  It is the
    single source of truth for both paths: scalar geodesic shots and the
    pointwise frame helpers call it with ``xp=math``; lane-batched shots,
    quadratures and array frame conversions call it with ``xp=np``.

    ``sphere_radius`` is set only by the builtin sphere.  It is the data the
    sphere-only rules read (the antipode check in ``connect_geodesic`` and
    the flat-map projections); a surface is never dispatched on its name.
    """

    name: str
    domain: ChartDomain
    jet: Callable = field(repr=False)
    embedding: Callable | None = field(default=None, repr=False)
    embedding_frame: Callable | None = field(default=None, repr=False)
    feature_scale: float = 1.0
    sphere_radius: float | None = None

    def __post_init__(self):
        _check_positive_definite(self)


def _check_positive_definite(s: Surface, grid: int = 8) -> None:
    d = s.domain
    uu = np.linspace(d.u_min + d.margin_u, d.u_max - d.margin_u, grid)
    vv = np.linspace(d.v_min + d.margin_v, d.v_max - d.margin_v, grid)
    um, vm = np.meshgrid(uu, vv, indexing="ij")
    E, F, G = s.jet(um, vm, np)[:3]
    E, F, G = np.broadcast_arrays(E, F, G, um)[:3]
    det = E * G - F * F
    if not (np.all(E > 0) and np.all(G > 0) and np.all(det > 0)):
        raise ValueError(
            f"metric for {s.name!r} is not positive-definite on the chart interior"
        )


# ---------------------------------------------------------------------------
# builtin surfaces
# ---------------------------------------------------------------------------


def _sphere_jet(r):
    r2 = r * r

    def jet(u, v, xp):
        su, cu = xp.sin(u), xp.cos(u)
        return (r2, 0.0, r2 * su * su, 0.0, 0.0, 0.0, 0.0, 2.0 * r2 * su * cu, 0.0)

    return jet


def _sphere_embedding(r):
    def emb(u, v):
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        return np.stack([r * su * cv, r * su * sv, r * cu], axis=-1)

    def frame(u, v):
        su, cu = np.sin(u), np.cos(u)
        sv, cv = np.sin(v), np.cos(v)
        x = np.stack([r * su * cv, r * su * sv, r * cu], axis=-1)
        xu = np.stack([r * cu * cv, r * cu * sv, -r * su], axis=-1)
        xv = np.stack([-r * su * sv, r * su * cv, np.zeros_like(u + v)], axis=-1)
        return x, xu, xv

    return emb, frame


def _plane_jet():
    def jet(u, v, xp):
        return (1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    return jet


def _cylinder_jet(r):
    r2 = r * r

    def jet(u, v, xp):
        return (1.0, 0.0, r2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    return jet


def _torus_jet(R, r):
    def jet(u, v, xp):
        cu, su = xp.cos(u), xp.sin(u)
        w = R + r * cu
        return (r * r, 0.0, w * w, 0.0, 0.0, 0.0, 0.0, -2.0 * r * w * su, 0.0)

    return jet


def _hill_f(h, sigma):
    s2 = sigma * sigma

    def fjet(u, v, xp):
        f = h * xp.exp(-(u * u + v * v) / s2)
        fu = -2.0 * u / s2 * f
        fv = -2.0 * v / s2 * f
        fuu = (-2.0 / s2 + 4.0 * u * u / (s2 * s2)) * f
        fvv = (-2.0 / s2 + 4.0 * v * v / (s2 * s2)) * f
        fuv = 4.0 * u * v / (s2 * s2) * f
        return f, fu, fv, fuu, fuv, fvv

    return fjet


def _hill_jet(h, sigma):
    fjet = _hill_f(h, sigma)

    def jet(u, v, xp):
        f, fu, fv, fuu, fuv, fvv = fjet(u, v, xp)
        E = 1.0 + fu * fu
        F = fu * fv
        G = 1.0 + fv * fv
        Eu = 2.0 * fu * fuu
        Ev = 2.0 * fu * fuv
        Fu = fuu * fv + fu * fuv
        Fv = fuv * fv + fu * fvv
        Gu = 2.0 * fv * fuv
        Gv = 2.0 * fv * fvv
        return (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv)

    return jet


def _ellipsoid_jet(a, b, c):
    a2, b2, c2 = a * a, b * b, c * c

    def jet(u, v, xp):
        su, cu = xp.sin(u), xp.cos(u)
        sv, cv = xp.sin(v), xp.cos(v)
        E = cu * cu * (a2 * cv * cv + b2 * sv * sv) + c2 * su * su
        F = (b2 - a2) * su * cu * sv * cv
        G = su * su * (a2 * sv * sv + b2 * cv * cv)
        Eu = 2.0 * su * cu * (c2 - a2 * cv * cv - b2 * sv * sv)
        Ev = 2.0 * sv * cv * cu * cu * (b2 - a2)
        Fu = (b2 - a2) * sv * cv * (cu * cu - su * su)
        Fv = (b2 - a2) * su * cu * (cv * cv - sv * sv)
        Gu = 2.0 * su * cu * (a2 * sv * sv + b2 * cv * cv)
        Gv = 2.0 * sv * cv * su * su * (a2 - b2)
        return (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv)

    return jet


_PARAM_NAMES = {
    "plane": (),
    "sphere": ("r",),
    "cylinder": ("r",),
    "torus": ("R", "r"),
    "hill": ("h", "sigma"),
    "ellipsoid": ("a", "b", "c"),
}


def builtin_surface(kind: str, params: Sequence[float] = (), pole_margin: float = 1e-3) -> Surface:
    """Construct one of the builtin surfaces.

    Kinds and parameters:

    * ``plane`` ()                   flat chart, box [-10, 10]^2
    * ``sphere`` (r)                 colatitude/longitude chart, poles excluded
    * ``cylinder`` (r)               axial coordinate and arc-length angle
    * ``torus`` (R, r)               tube angle u, axis angle v, both periodic
    * ``hill`` (h, sigma)            graph of a Gaussian bump over the plane
    * ``ellipsoid`` (a, b, c)        colatitude/longitude chart, poles excluded

    ``params`` may be positional or a mapping with those names.
    """
    if isinstance(params, Mapping):
        order = _PARAM_NAMES.get(kind)
        if order is None:
            raise ValueError(
                f"unknown surface kind {kind!r}; known kinds: plane, sphere, "
                "cylinder, torus, hill, ellipsoid"
            )
        extra = set(params) - set(order)
        if extra:
            raise ValueError(f"unknown parameter(s) for {kind!r}: {sorted(extra)}")
        try:
            params = tuple(params[name] for name in order)
        except KeyError as missing:
            raise ValueError(f"surface kind {kind!r} needs parameter {missing}") from None
    params = tuple(float(x) for x in params)
    if kind == "plane":
        dom = ChartDomain(-10.0, 10.0, -10.0, 10.0)
        return Surface("plane", dom, _plane_jet(), _plane_emb(), _plane_frame(), 1.0)
    if kind == "sphere":
        (r,) = _need(params, 1, kind)
        if r <= 0:
            raise ValueError("sphere radius must be positive")
        dom = ChartDomain(0.0, math.pi, 0.0, 2 * math.pi, False, True, pole_margin, 0.0)
        emb, frame = _sphere_embedding(r)
        return Surface("sphere", dom, _sphere_jet(r), emb, frame, r, sphere_radius=r)
    if kind == "cylinder":
        (r,) = _need(params, 1, kind)
        if r <= 0:
            raise ValueError("cylinder radius must be positive")
        dom = ChartDomain(-5.0, 5.0, 0.0, 2 * math.pi, False, True)

        def emb(u, v):
            return np.stack([r * np.cos(v), r * np.sin(v), u + 0 * v], axis=-1)

        def frame(u, v):
            z = np.zeros_like(u + v)
            x = np.stack([r * np.cos(v), r * np.sin(v), u + z], axis=-1)
            xu = np.stack([z, z, np.ones_like(z)], axis=-1)
            xv = np.stack([-r * np.sin(v), r * np.cos(v), z], axis=-1)
            return x, xu, xv

        return Surface("cylinder", dom, _cylinder_jet(r), emb, frame, r)
    if kind == "torus":
        R, r = _need(params, 2, kind)
        if not (R > r > 0):
            raise ValueError("torus needs R > r > 0")
        dom = ChartDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, True, True)

        def emb(u, v):
            w = R + r * np.cos(u)
            return np.stack([w * np.cos(v), w * np.sin(v), r * np.sin(u) + 0 * v], axis=-1)

        def frame(u, v):
            w = R + r * np.cos(u)
            z = np.zeros_like(u + v)
            x = np.stack([w * np.cos(v), w * np.sin(v), r * np.sin(u) + z], axis=-1)
            xu = np.stack(
                [-r * np.sin(u) * np.cos(v), -r * np.sin(u) * np.sin(v), r * np.cos(u) + z],
                axis=-1,
            )
            xv = np.stack([-w * np.sin(v), w * np.cos(v), z], axis=-1)
            return x, xu, xv

        return Surface("torus", dom, _torus_jet(R, r), emb, frame, r)
    if kind == "hill":
        h, sigma = _need(params, 2, kind)
        if sigma <= 0:
            raise ValueError("hill width sigma must be positive")
        half = 6.0 * sigma
        dom = ChartDomain(-half, half, -half, half)
        fjet = _hill_f(h, sigma)

        def emb(u, v):
            f = fjet(u, v, np)[0]
            return np.stack([u + 0 * v, v + 0 * u, f], axis=-1)

        def frame(u, v):
            f, fu, fv, *_ = fjet(u, v, np)
            z = np.zeros_like(u + v)
            one = np.ones_like(z)
            x = np.stack([u + z, v + z, f], axis=-1)
            xu = np.stack([one, z, fu + z], axis=-1)
            xv = np.stack([z, one, fv + z], axis=-1)
            return x, xu, xv

        return Surface("hill", dom, _hill_jet(h, sigma), emb, frame, sigma)
    if kind == "ellipsoid":
        a, b, c = _need(params, 3, kind)
        if min(a, b, c) <= 0:
            raise ValueError("ellipsoid semi-axes must be positive")
        dom = ChartDomain(0.0, math.pi, 0.0, 2 * math.pi, False, True, pole_margin, 0.0)

        def emb(u, v):
            su, cu = np.sin(u), np.cos(u)
            return np.stack([a * su * np.cos(v), b * su * np.sin(v), c * cu + 0 * v], axis=-1)

        def frame(u, v):
            su, cu = np.sin(u), np.cos(u)
            sv, cv = np.sin(v), np.cos(v)
            z = np.zeros_like(u + v)
            x = np.stack([a * su * cv, b * su * sv, c * cu + z], axis=-1)
            xu = np.stack([a * cu * cv, b * cu * sv, -c * su + z], axis=-1)
            xv = np.stack([-a * su * sv, b * su * cv, z], axis=-1)
            return x, xu, xv

        return Surface("ellipsoid", dom, _ellipsoid_jet(a, b, c), emb, frame, min(a, b, c))
    raise ValueError(
        f"unknown surface kind {kind!r}; known kinds: plane, sphere, cylinder, "
        "torus, hill, ellipsoid"
    )


def _need(params, n, kind):
    if len(params) != n:
        raise ValueError(f"surface kind {kind!r} takes {n} parameter(s), got {len(params)}")
    return params


def _plane_emb():
    def emb(u, v):
        return np.stack([u + 0 * v, v + 0 * u, np.zeros_like(u + v)], axis=-1)

    return emb


def _plane_frame():
    def frame(u, v):
        z = np.zeros_like(u + v)
        one = np.ones_like(z)
        x = np.stack([u + z, v + z, z], axis=-1)
        xu = np.stack([one, z, z], axis=-1)
        xv = np.stack([z, one, z], axis=-1)
        return x, xu, xv

    return frame


# ---------------------------------------------------------------------------
# user-defined surfaces
# ---------------------------------------------------------------------------


def surface_from_metric(
    name: str,
    domain: ChartDomain,
    metric: Callable,
    metric_jac: Callable | None = None,
    feature_scale: float = 1.0,
) -> Surface:
    """Surface from a metric callable (u, v) -> (E, F, G).

    Without ``metric_jac`` the derivatives come from central differences with
    step 1e-6 times the domain extent.
    """
    h = 1e-6 * domain.extent

    def jet(u, v, xp):
        E, F, G = metric(u, v)
        if metric_jac is not None:
            Eu, Ev, Fu, Fv, Gu, Gv = metric_jac(u, v)
        else:
            Ep, Fp, Gp = metric(u + h, v)
            Em, Fm, Gm = metric(u - h, v)
            Eu, Fu, Gu = (Ep - Em) / (2 * h), (Fp - Fm) / (2 * h), (Gp - Gm) / (2 * h)
            Ep, Fp, Gp = metric(u, v + h)
            Em, Fm, Gm = metric(u, v - h)
            Ev, Fv, Gv = (Ep - Em) / (2 * h), (Fp - Fm) / (2 * h), (Gp - Gm) / (2 * h)
        return (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv)

    return Surface(name, domain, jet, None, None, feature_scale)


def surface_from_embedding(
    name: str,
    domain: ChartDomain,
    embedding: Callable,
    feature_scale: float = 1.0,
) -> Surface:
    """Surface from an embedding callable (u, v) -> (x, y, z) array.

    The metric comes from first differences at step 1e-6 x extent.  The
    metric derivatives need second differences of the embedding; those use a
    wider 1e-4 x extent stencil, since nesting the tight step twice would
    drown the result in rounding noise.
    """
    h1 = 1e-6 * domain.extent
    h2 = 1e-4 * domain.extent

    def emb(u, v):
        return np.asarray(embedding(u, v), dtype=float)

    def first(u, v, h):
        xu = (emb(u + h, v) - emb(u - h, v)) / (2 * h)
        xv = (emb(u, v + h) - emb(u, v - h)) / (2 * h)
        return xu, xv

    def frame(u, v):
        xu, xv = first(u, v, h1)
        return emb(u, v), xu, xv

    def jet(u, v, xp):
        xu, xv = first(u, v, h1)
        E = np.sum(xu * xu, axis=-1)
        F = np.sum(xu * xv, axis=-1)
        G = np.sum(xv * xv, axis=-1)
        x0 = emb(u, v)
        xuu = (emb(u + h2, v) - 2 * x0 + emb(u - h2, v)) / (h2 * h2)
        xvv = (emb(u, v + h2) - 2 * x0 + emb(u, v - h2)) / (h2 * h2)
        xuv = (
            emb(u + h2, v + h2) - emb(u + h2, v - h2) - emb(u - h2, v + h2) + emb(u - h2, v - h2)
        ) / (4 * h2 * h2)
        xu2, xv2 = first(u, v, h2)
        Eu = 2 * np.sum(xuu * xu2, axis=-1)
        Ev = 2 * np.sum(xuv * xu2, axis=-1)
        Fu = np.sum(xuu * xv2 + xu2 * xuv, axis=-1)
        Fv = np.sum(xuv * xv2 + xu2 * xvv, axis=-1)
        Gu = 2 * np.sum(xuv * xv2, axis=-1)
        Gv = 2 * np.sum(xvv * xv2, axis=-1)
        if np.ndim(u) == 0:
            return tuple(float(t) for t in (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv))
        return (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv)

    return Surface(name, domain, jet, emb, frame, feature_scale)


# ---------------------------------------------------------------------------
# metric machinery
# ---------------------------------------------------------------------------


def christoffel_at(s: Surface, p) -> ChristoffelSymbols:
    """Christoffel symbols of the second kind at a chart point."""
    u, v = float(p[0]), float(p[1])
    E, F, G, Eu, Ev, Fu, Fv, Gu, Gv = s.jet(u, v, math)
    det = E * G - F * F
    iuu, iuv, ivv = G / det, -F / det, E / det
    g = np.empty((2, 2, 2))
    g[U, U, U] = 0.5 * (iuu * Eu + iuv * (2 * Fu - Ev))
    g[U, U, V] = g[U, V, U] = 0.5 * (iuu * Ev + iuv * Gu)
    g[U, V, V] = 0.5 * (iuu * (2 * Fv - Gu) + iuv * Gv)
    g[V, U, U] = 0.5 * (iuv * Eu + ivv * (2 * Fu - Ev))
    g[V, U, V] = g[V, V, U] = 0.5 * (iuv * Ev + ivv * Gu)
    g[V, V, V] = 0.5 * (iuv * (2 * Fv - Gu) + ivv * Gv)
    return ChristoffelSymbols(g)


def connection_form(s: Surface, u, v, xp=np):
    """Components (w_u, w_v) of the connection one-form in the chart frame.

    The frame is e1 = d_u/sqrt(E), e2 the Gram-Schmidt complement; for a
    vector parallel along a path, its frame angle obeys
    d(theta) = -(w_u du + w_v dv).  Equal to (W/E) * (Gamma^v_uu, Gamma^v_uv)
    with W = sqrt(EG - F^2); bounded even where the chart degenerates, which
    is what makes transport near the sphere's pole margin well behaved.
    """
    E, F, G, Eu, Ev, Fu, Fv, Gu, Gv = s.jet(u, v, xp)
    det = E * G - F * F
    W = xp.sqrt(det)
    # Gamma^v_uu and Gamma^v_uv from the standard formula
    g_vuu = 0.5 * (-F * Eu + E * (2 * Fu - Ev)) / det
    g_vuv = 0.5 * (-F * Ev + E * Gu) / det
    return (W / E) * g_vuu, (W / E) * g_vuv


def connection_increments(s: Surface, points, panels: int = 1) -> np.ndarray:
    """Transported-angle increment over each straight segment of a polyline.

    A vector kept parallel along the path changes its frame angle by
    -integral(omega) per segment; this evaluates that integral with composite
    Simpson quadrature, ``panels`` panels per segment, all segments at once.
    """
    pts = np.asarray(points, dtype=float)
    delta = np.diff(pts, axis=0)
    t = np.linspace(0.0, 1.0, 2 * panels + 1)
    weights = np.full(2 * panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights /= 6.0 * panels
    u = pts[:-1, 0][:, None] + delta[:, 0][:, None] * t
    v = pts[:-1, 1][:, None] + delta[:, 1][:, None] * t
    wu, wv = connection_form(s, u, v, np)
    f = wu * delta[:, 0][:, None] + wv * delta[:, 1][:, None]
    f = np.broadcast_to(np.asarray(f, dtype=float), u.shape)
    return -(f @ weights)


def to_frame(E, F, G, wu, wv, xp=np):
    """Components (a, b) of the chart vector (wu, wv) in the orthonormal frame.

    The frame is e1 = d_u/sqrt(E), e2 its Gram-Schmidt complement; E, F, G
    are the metric at the vector's base point.
    """
    rE = xp.sqrt(E)
    return (E * wu + F * wv) / rE, wv * xp.sqrt(E * G - F * F) / rE


def from_frame(E, F, G, a, b, xp=np):
    """Chart components (wu, wv) of a e1 + b e2; the inverse of ``to_frame``."""
    rE = xp.sqrt(E)
    W = xp.sqrt(E * G - F * F)
    return a / rE - b * F / (rE * W), b * rE / W


def _metric(s: Surface, p) -> tuple[float, float, float]:
    return tuple(float(t) for t in s.jet(float(p[0]), float(p[1]), math)[:3])


def frame_at(s: Surface, p) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frame (e1, e2) in chart components at a point."""
    E, F, G = _metric(s, p)
    return (
        np.array(from_frame(E, F, G, 1.0, 0.0, math)),
        np.array(from_frame(E, F, G, 0.0, 1.0, math)),
    )


def frame_components(s: Surface, p, w) -> tuple[float, float]:
    """Components (a, b) of chart vector w in the orthonormal frame at p."""
    return to_frame(*_metric(s, p), float(w[0]), float(w[1]), math)


def frame_angle(s: Surface, p, w) -> float:
    """Counterclockwise angle of chart vector w against the frame at p."""
    a, b = frame_components(s, p, w)
    return math.atan2(b, a)


def vector_from_frame(s: Surface, p, a: float, b: float) -> np.ndarray:
    return np.array(from_frame(*_metric(s, p), a, b, math))


def metric_dot(s: Surface, p, w1, w2) -> float:
    E, F, G = _metric(s, p)
    return (
        E * w1[0] * w2[0] + F * (w1[0] * w2[1] + w1[1] * w2[0]) + G * w1[1] * w2[1]
    )


def metric_norm(s: Surface, p, w) -> float:
    return math.sqrt(max(metric_dot(s, p, w, w), 0.0))


def _norm_and_angle(s: Surface, base, w) -> tuple[float, float]:
    """Metric norm and frame angle at ``base`` of a nonzero tangent vector.

    ``w`` is a TangentVector based at ``base`` or a pair of chart components.
    """
    if isinstance(w, TangentVector):
        if abs(w.base[0] - base[0]) > 1e-9 or abs(w.base[1] - base[1]) > 1e-9:
            raise ValueError("tangent vector is not based at the start point")
        w = (w.du, w.dv)
    w = np.asarray(w, dtype=float).reshape(2)
    norm = metric_norm(s, base, w)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValueError("tangent vector must be nonzero and finite")
    return norm, frame_angle(s, base, w)


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------


def _region_polygon(region) -> np.ndarray:
    if isinstance(region, np.ndarray):
        return region
    loop = getattr(region, "loop", region)
    pts = getattr(loop, "points", loop)
    return np.asarray(pts, dtype=float)


def _is_axis_rectangle(poly: np.ndarray) -> tuple | None:
    u0, v0 = poly.min(axis=0)
    u1, v1 = poly.max(axis=0)
    on_edge = (
        np.isclose(poly[:, 0], u0)
        | np.isclose(poly[:, 0], u1)
        | np.isclose(poly[:, 1], v0)
        | np.isclose(poly[:, 1], v1)
    )
    if np.all(on_edge) and u1 > u0 and v1 > v0:
        return u0, u1, v0, v1
    return None


def area_of_region(s: Surface, region, rel_tol: float = 1e-8) -> float:
    """Surface area enclosed by a simple chart polygon.

    Integrates sqrt(EG - F^2) with refinement until two successive levels
    agree to ``rel_tol`` relatively.
    """
    poly = _region_polygon(region)

    def density(u, v):
        E, F, G = s.jet(u, v, np)[:3]
        val = np.sqrt(np.maximum(E * G - F * F, 0.0))
        return np.broadcast_to(val, np.shape(u)).astype(float)

    rect = _is_axis_rectangle(poly)
    if rect is not None:
        u0, u1, v0, v1 = rect
        prev = None
        cells = 4
        for _ in range(8):
            un, vn, wn = _chartgeom.gauss_legendre_grid(u0, u1, v0, v1, cells, cells)
            total = float(np.sum(density(un, vn) * wn))
            if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-300):
                return total
            prev = total
            cells *= 2
        return total

    tris = _chartgeom.triangulate(poly)
    prev = None
    for _ in range(8):
        nodes, weights = _chartgeom.triangle_quadrature(tris)
        total = float(np.sum(density(nodes[:, 0], nodes[:, 1]) * weights))
        if prev is not None and abs(total - prev) <= rel_tol * max(abs(total), 1e-300):
            return total
        prev = total
        tris = _chartgeom.subdivide_triangles(tris)
    return total
