"""Carleman weight family, energy-expansion coefficients, and positivity checks.

The weight family is

    psi = exp(gamma rho),     phi = psi - mu (|x - x0|^2 + (t - t0)^2),
    ell = lam phi,            theta = exp(ell),

built on a level function rho.  ``WeightFamily`` exposes exact partials of ell
of any order (the bookkeeping coefficient of the cubic energy term needs
fourth-order ones) and assembles the expansion coefficients

    a = ell_t^2 - ell_tt - |grad ell|^2 + lap ell - Psi        (order lam^2)
    b = a Psi + (a ell_t)_t - div(a grad ell) + (Psi_tt - lap Psi)/2   (order lam^3)

with Psi = lap ell - ell_tt + 2 lam gamma psi varrho + 6 lam mu.  The cubic
coefficient of b splits as d2 + d3; d2 is computed both in matrix form and in
divergence form and the two must agree to roundoff.

The coefficients are built in two stages.  The point stage
(``WeightFamily.point_stage``) holds what does not depend on lam: the jets
of psi, rho and varrho, phi and its first derivatives, p, d1, d2 and d3.  The
lam stage (``PointStage.lambda_stage``) holds ell = lam phi and what ell
scales: Psi and its derivatives, a, a_t, a_x and b.  A check that sweeps lam
builds one point stage per point and one lam stage per lam.

The point stage is where a check's point is normalised and meets the
evaluators of rho, psi and varrho; the rest is built from it.  ``eval_D``
reads d1, d2 and d3 off it, and ``CarlemanFrame.make`` takes rho's jet and
varrho's value from it (``Jet2.from_partials``) to form psi, phi, ell and
theta by the chain rule, a route that shares no formula with psi's
evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    AnalyticFn,
    CapabilityError,
    ConfigurationError,
    Jet2,
    family,
    is_scalar,
    jet_add,
    jet_exp,
    jet_scale,
    multi_indices,
    normal_stream,
)


class RangeError(OverflowError):
    """exp(ell) left double range; reported with the offending lam*phi."""


_EXP_MAX = 700.0  # log of largest finite double, with margin


@dataclass(frozen=True)
class WeightParams:
    """Weight parameters: lam, gamma strictly positive; mu >= 0; center (t0, x0)."""

    lam: float
    gamma: float
    mu: float
    t0: float
    x0: tuple[float, ...]

    def __post_init__(self):
        if self.lam <= 0 or self.gamma <= 0:
            raise ConfigurationError("lam and gamma must be strictly positive")
        if self.mu < 0:
            raise ConfigurationError("mu must be nonnegative")
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))

    @property
    def n(self) -> int:
        return len(self.x0)


@dataclass(frozen=True)
class CarlemanFrame:
    """psi, phi, ell, theta and their jets at one point, plus the Psi choice."""

    psi_jet: Jet2
    phi_jet: Jet2
    ell_jet: Jet2
    theta: float
    Psi: float

    @staticmethod
    def make(t: float, x, rho_jet: Jet2, params: WeightParams, varrho: float) -> "CarlemanFrame":
        """The frame at (t, x) from rho's jet there; varrho is its value there."""
        x = tuple(float(v) for v in np.atleast_1d(x))
        n = rho_jet.n
        # psi = exp(gamma rho); phi = psi - mu q; ell = lam phi (chain rule jets)
        psi_jet = jet_exp(jet_scale(rho_jet, params.gamma))
        q_jet = Jet2.make(
            _q_partial(t, x, params.t0, params.x0, (0,) * (n + 1)),
            2.0 * (t - params.t0),
            2.0 * (np.array(x) - np.array(params.x0)),
            2.0,
            np.zeros(n),
            2.0 * np.eye(n),
        )
        phi_jet = jet_add(psi_jet, jet_scale(q_jet, -params.mu))
        ell_jet = jet_scale(phi_jet, params.lam)
        if abs(ell_jet.value) > _EXP_MAX:
            raise RangeError(
                f"exp(ell) overflows: lam*phi = {ell_jet.value:.6g} at (t, x) = ({t}, {x})"
            )
        theta = math.exp(ell_jet.value)
        varrho = float(varrho)
        lap_ell = float(np.trace(ell_jet.hess_xx))
        Psi = lap_ell - ell_jet.hess_tt + 2.0 * params.lam * params.gamma * psi_jet.value * varrho + 6.0 * params.lam * params.mu
        return CarlemanFrame(
            psi_jet=psi_jet,
            phi_jet=phi_jet,
            ell_jet=ell_jet,
            theta=theta,
            Psi=Psi,
        )

    @property
    def psi(self) -> float:
        return self.psi_jet.value

    @property
    def phi(self) -> float:
        return self.phi_jet.value

    @property
    def ell(self) -> float:
        return self.ell_jet.value


@dataclass(frozen=True)
class DQuantities:
    """The lam-free expansion coefficients d1, d2, d3 at one point.

    d2 carries both computations: the matrix form (through M(varrho)) and the
    divergence form (through transport of psi_t^2 - |grad psi|^2).
    """

    d1: float
    d2_matrix: float
    d2_divergence: float
    d3: float


def _q_partial(t, xs, t0, x0, alpha):
    """Partials of q = (t - t0)^2 + |x - x0|^2 (zero beyond second order)."""
    order = sum(alpha)
    if order == 0:
        return (t - t0) ** 2 + sum((xj - cj) ** 2 for xj, cj in zip(xs, x0))
    if order == 1:
        if alpha[0] == 1:
            return 2.0 * (t - t0)
        j = alpha.index(1, 1) - 1
        return 2.0 * (xs[j] - x0[j])
    if order == 2 and 2 in alpha:
        return 2.0 if is_scalar(t) else 2.0 * np.ones_like(np.asarray(t, dtype=float))
    return 0.0 if is_scalar(t) else np.zeros_like(np.asarray(t, dtype=float))


def _phi(psi_d, t, xs, params: WeightParams, alpha=None):
    """d^alpha phi = d^alpha psi - mu d^alpha q, from psi's partial at (t, xs);
    alpha defaults to the value."""
    alpha = (0,) * (len(xs) + 1) if alpha is None else alpha
    return psi_d - params.mu * _q_partial(t, xs, params.t0, params.x0, alpha)


def _psi_family(rho: AnalyticFn):
    """psi = exp(cw_gamma rho) as a family of its own, keyed by rho's family,
    and the position of cw_gamma among its parameters."""
    rho_sym = rho.symbolic
    if any(nm.startswith("cw_") for nm in rho_sym.param_names):
        raise CapabilityError("rho parameter names starting with 'cw_' are reserved")
    names = tuple(sorted(rho_sym.param_names + ("cw_gamma",)))

    def build():
        import sympy as sp

        gamma = sp.Symbol("cw_gamma", real=True)
        expr, param_syms = rho_sym.tree()
        return sp.exp(gamma * expr), tuple(sorted((*param_syms, gamma), key=lambda s: s.name))

    key = (("psi", rho_sym.key[0]), rho_sym.n)
    return family(f"psi[{rho.name}]", key, names, rho_sym.depends_on_t, build), names.index("cw_gamma")


_PSI: dict = {}  # rho.symbolic -> (psi's family, position of cw_gamma)


class PointStage:
    """The lam-free stage of ``WeightFamily.quantities`` at (t, xs).

    ``t`` and ``xs`` are the point as ``WeightFamily.point_stage`` normalised
    it: Python floats at a point, float arrays otherwise.  ``values`` holds
    the jets of psi and rho (``multi_indices(n).jet2``), phi, phi_t, phi_tt,
    phi_x, p, d1, d3 and both d2 routes; ``vr`` is varrho's jet
    and ``pv`` the derivatives of psi varrho that Psi reads.  The third- and
    fourth-order psi partials in ``phi_partials`` are evaluated in one sweep
    on its first call and kept, so a check that reads no ell never asks for
    them.
    ``lambda_stage(lam)`` leaves the stage unchanged: one serves every lam.
    """

    def __init__(self, psi: AnalyticFn, t, xs: list, params: WeightParams, vr: dict, pv: tuple, values: dict):
        self.psi, self.t, self.xs, self.params = psi, t, xs, params
        self.vr, self.pv, self.values = vr, pv, values
        self._phi_d = None

    def __getitem__(self, key):
        return self.values[key]

    def phi_partials(self) -> dict:
        """{alpha: d^alpha phi} for alpha in ``multi_indices(n).ell``."""
        if self._phi_d is None:
            pj, t, xs, params = self.values["psi"], self.t, self.xs, self.params
            ell = multi_indices(len(xs)).ell
            pj = {**pj, **self.psi.partials(t, xs, [a for a in ell if a not in pj])}
            self._phi_d = {a: _phi(pj[a], t, xs, params, a) for a in ell}
        return self._phi_d

    def lambda_stage(self, lam: float) -> dict:
        """ell = lam phi, Psi and its derivatives, and a, a_t, a_x, b at this stage's points."""
        n = len(self.xs)
        A = multi_indices(n)
        gamma, mu = self.params.gamma, self.params.mu
        ell = {a: lam * d for a, d in self.phi_partials().items()}

        ell_t, ell_tt = ell[A.t], ell[A.tt]
        ell_x = [ell[A.x[j]] for j in range(n)]
        ell_tx = [ell[A.tx[j]] for j in range(n)]
        ell_xx = [[ell[A.xx[j][k]] for k in range(n)] for j in range(n)]
        lap_ell = sum(ell_xx[j][j] for j in range(n))
        lap_ell_t = sum(ell[A.txx[j][j]] for j in range(n))
        lap_ell_tt = sum(ell[A.ttxx[j][j]] for j in range(n))
        lap_ell_x = [sum(ell[A.xkk[k][j]] for j in range(n)) for k in range(n)]
        laplap_ell = sum(ell[A.xxkk[j][k]] for j in range(n) for k in range(n))
        ell_ttt = ell[A.ttt]
        ell_tttt = ell[A.tttt]
        ell_ttx = [ell[A.ttx[j]] for j in range(n)]

        pv, pv_t, pv_tt, pv_x, lap_pv = self.pv
        two_lg = 2.0 * lam * gamma
        Psi = lap_ell - ell_tt + two_lg * pv + 6.0 * lam * mu
        Psi_t = lap_ell_t - ell_ttt + two_lg * pv_t
        Psi_tt = lap_ell_tt - ell_tttt + two_lg * pv_tt
        Psi_x = [lap_ell_x[j] - ell_ttx[j] + two_lg * pv_x[j] for j in range(n)]
        lap_Psi = laplap_ell - lap_ell_tt + two_lg * lap_pv

        grad_ell_sq = sum(v * v for v in ell_x)
        a = ell_t**2 - ell_tt - grad_ell_sq + lap_ell - Psi
        a_t = (
            2.0 * ell_t * ell_tt
            - ell_ttt
            - 2.0 * sum(ell_x[j] * ell_tx[j] for j in range(n))
            + lap_ell_t
            - Psi_t
        )
        a_x = [
            2.0 * ell_t * ell_tx[k]
            - ell_ttx[k]
            - 2.0 * sum(ell_x[j] * ell_xx[j][k] for j in range(n))
            + lap_ell_x[k]
            - Psi_x[k]
            for k in range(n)
        ]
        b = (
            a * Psi
            + a_t * ell_t
            + a * ell_tt
            - sum(a_x[k] * ell_x[k] for k in range(n))
            - a * lap_ell
            + 0.5 * (Psi_tt - lap_Psi)
        )
        return {
            "ell": ell, "Psi": Psi, "Psi_t": Psi_t, "Psi_tt": Psi_tt, "Psi_x": Psi_x, "lap_Psi": lap_Psi,
            "a": a, "a_t": a_t, "a_x": a_x, "b": b,
        }


class WeightFamily:
    """Weights derived from one level function rho and one auxiliary varrho.

    varrho may be a float or an AnalyticFn; it enters Psi and the matrix and
    cubic coefficients, never the weights themselves.  psi = exp(cw_gamma
    rho) is a family of its own, set up once per family of rho; a
    WeightFamily only binds rho's parameter values and gamma, so building one
    per case and per call creates no sympy objects.
    """

    def __init__(self, rho: AnalyticFn, varrho: AnalyticFn | float = 0.0):
        self.rho = rho
        self.n = rho.n
        self.varrho = varrho
        entry = _PSI.get(rho.symbolic)
        if entry is None:
            entry = _PSI[rho.symbolic] = _psi_family(rho)
        self._psi, self._gamma_at = entry

    def psi(self, gamma: float) -> AnalyticFn:
        """psi = exp(gamma rho) at rho's parameter values."""
        i, values = self._gamma_at, self.rho.param_values
        return AnalyticFn(self._psi.name, self._psi, values[:i] + (float(gamma),) + values[i:])

    def phi(self, t, xs, params: WeightParams):
        """phi = psi - mu q at (t, xs) (scalars or broadcastable arrays), alone."""
        xs = list(xs)
        return _phi(self.psi(params.gamma).d(t, xs, multi_indices(self.n).zero), t, xs, params)

    # -- partial evaluation ------------------------------------------------

    def varrho_partials(self, t, xs, alphas) -> dict:
        """{alpha: d^alpha varrho at (t, xs)}: one sweep of an AnalyticFn varrho,
        or a constant's value and zero derivatives, shaped like ``AnalyticFn.partials``."""
        if isinstance(self.varrho, AnalyticFn):
            return self.varrho.partials(t, xs, alphas)
        scalar = is_scalar(t) and all(map(is_scalar, xs))
        base = 0.0 if scalar else np.zeros(np.broadcast_shapes(np.shape(t), *map(np.shape, xs)))
        value = float(self.varrho)
        # base + value, not value alone, so that a varrho of -0.0 reads +0.0 at scalar and array points alike
        return {a: base + (0.0 if any(a) else value) for a in alphas}

    # -- expansion coefficients (array-compatible), in two stages -----------

    def point_stage(self, t, xs, params: WeightParams) -> PointStage:
        """The lam-free stage of ``quantities`` at (t, xs); ``params.lam`` is not read.

        The point is normalised here, and the stage keeps it as normalised.
        At a point, where t and every entry of xs are scalars, they become
        Python floats, and everything built from them stays on floats.
        Otherwise each becomes a float array, and every value follows their
        broadcast shape.  xs is a list or tuple of the n coordinates; anything
        else, a bare scalar or array, is the one coordinate at n == 1, as in
        ``AnalyticFn.partials``.
        """
        xs = list(xs) if isinstance(xs, (list, tuple)) else [xs]
        if is_scalar(t) and all(map(is_scalar, xs)):
            t, xs = float(t), [float(v) for v in xs]
        else:
            t, xs = np.asarray(t, dtype=float), [np.asarray(v, dtype=float) for v in xs]
        n = self.n
        A = multi_indices(n)
        gamma, mu, t0, x0 = params.gamma, params.mu, params.t0, params.x0
        psi = self.psi(gamma)
        a0, et, ett, ex = A.zero, A.t, A.tt, A.x

        pj = psi.partials(t, xs, A.jet2)
        vr = self.varrho_partials(t, xs, A.jet2)
        # psi varrho and its derivatives, by the product rule, for Psi
        pv = pj[a0] * vr[a0]
        pv_t = pj[et] * vr[a0] + pj[a0] * vr[et]
        pv_tt = pj[ett] * vr[a0] + 2.0 * pj[et] * vr[et] + pj[a0] * vr[ett]
        pv_x = [pj[ex[j]] * vr[a0] + pj[a0] * vr[ex[j]] for j in range(n)]
        lap_pv = sum(pj[A.xx[j][j]] * vr[a0] + 2.0 * pj[ex[j]] * vr[ex[j]] + pj[a0] * vr[A.xx[j][j]] for j in range(n))

        # transported quantities built on psi alone
        psi_t, psi_tt = pj[et], pj[ett]
        psi_x = [pj[ex[j]] for j in range(n)]
        psi_tx = [pj[A.tx[j]] for j in range(n)]
        psi_xx = [[pj[A.xx[j][k]] for k in range(n)] for j in range(n)]
        dt_ = t - t0
        dxs = [xs[j] - x0[j] for j in range(n)]

        p = psi_t**2 - sum(v * v for v in psi_x)
        p_t = 2.0 * psi_t * psi_tt - 2.0 * sum(psi_x[j] * psi_tx[j] for j in range(n))
        p_x = [
            2.0 * psi_t * psi_tx[k] - 2.0 * sum(psi_x[j] * psi_xx[j][k] for j in range(n))
            for k in range(n)
        ]
        d1 = (
            4.0 * mu**2 * (dt_**2 - sum(v * v for v in dxs))
            - 4.0 * mu * dt_ * psi_t
            + 4.0 * mu * sum(dxs[j] * psi_x[j] for j in range(n))
        )
        d1_t = (
            8.0 * mu**2 * dt_
            - 4.0 * mu * psi_t
            - 4.0 * mu * dt_ * psi_tt
            + 4.0 * mu * sum(dxs[j] * psi_tx[j] for j in range(n))
        )
        d1_x = [
            -8.0 * mu**2 * dxs[k]
            - 4.0 * mu * dt_ * psi_tx[k]
            + 4.0 * mu * psi_x[k]
            + 4.0 * mu * sum(dxs[j] * psi_xx[j][k] for j in range(n))
            for k in range(n)
        ]

        vr0 = vr[a0]
        psi0 = pj[a0]
        d2_div = 2.0 * gamma * psi0 * vr0 * p + p_t * psi_t - sum(p_x[k] * psi_x[k] for k in range(n))

        r = self.rho.partials(t, xs, A.jet2)
        r_t, r_tt = r[et], r[ett]
        r_x = [r[ex[j]] for j in range(n)]
        r_tx = [r[A.tx[j]] for j in range(n)]
        r_xx = [[r[A.xx[j][k]] for k in range(n)] for j in range(n)]
        char = r_t**2 - sum(v * v for v in r_x)
        qform = (
            (r_tt - vr0) * r_t**2
            - 2.0 * r_t * sum(r_tx[j] * r_x[j] for j in range(n))
            + sum(
                r_x[j] * r_x[k] * (r_xx[j][k] + (vr0 if j == k else 0.0))
                for j in range(n)
                for k in range(n)
            )
        )
        d2_mat = (
            4.0 * gamma**3 * psi0**3 * vr0 * char
            + 2.0 * gamma**3 * psi0**3 * qform
            + 2.0 * gamma**4 * psi0**3 * char**2
        )

        d3 = (
            2.0 * gamma * psi0 * vr0 * d1
            + 6.0 * mu * p
            + 6.0 * mu * d1
            - 2.0 * mu * dt_ * (p_t + d1_t)
            + d1_t * psi_t
            + 2.0 * mu * sum(dxs[k] * (p_x[k] + d1_x[k]) for k in range(n))
            - sum(d1_x[k] * psi_x[k] for k in range(n))
        )

        values = {
            "p": p, "d1": d1, "d2_matrix": d2_mat, "d2_divergence": d2_div, "d3": d3, "psi": pj, "rho": r,
            "phi": _phi(psi0, t, xs, params),
            "phi_t": psi_t - 2.0 * mu * dt_,
            "phi_tt": psi_tt - 2.0 * mu,
            "phi_x": [psi_x[j] - 2.0 * mu * dxs[j] for j in range(n)],
        }
        return PointStage(psi, t, xs, params, vr, (pv, pv_t, pv_tt, pv_x, lap_pv), values)

    def quantities(self, t, xs, params: WeightParams) -> dict:
        """ell partials, Psi derivatives, and a/b/d1/d2/d3 at (t, xs).

        The point stage (``point_stage``) followed by the lam stage
        (``PointStage.lambda_stage``) at ``params.lam``, in one dict.  t and
        the xs entries may be scalars or broadcastable arrays; every value in
        the returned dict follows that shape.
        """
        point = self.point_stage(t, xs, params)
        return {**point.values, **point.lambda_stage(params.lam)}


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def eval_D(point: PointStage) -> DQuantities:
    """Expansion coefficients at the point stage's point; d2 via both routes.

    A disagreement between the two d2 routes beyond 1e-9 relative raises
    ArithmeticError: the dual computation is the module's own consistency
    anchor.
    """
    d2m, d2d = float(point["d2_matrix"]), float(point["d2_divergence"])
    denom = max(abs(d2m), abs(d2d))
    if denom > 0.0 and abs(d2m - d2d) > 1e-9 * denom:
        raise ArithmeticError(f"d2 route disagreement: matrix {d2m!r} vs divergence {d2d!r}")
    return DQuantities(d1=float(point["d1"]), d2_matrix=d2m, d2_divergence=d2d, d3=float(point["d3"]))


@dataclass(frozen=True)
class PsiDerivatives:
    """First derivatives of the multiplier weight Psi, for the flux terms."""

    value: float
    grad_t: float
    grad_x: np.ndarray


def eval_VN(v: Jet2, frame: CarlemanFrame, psi_d: PsiDerivatives, a: float) -> tuple[np.ndarray, float]:
    """Spatial flux vector and time-boundary density of the multiplier identity.

    The time density carries the cross term -2 grad(ell).grad(v) v_t; with a
    single cross term the time derivative fails to close the identity.
    """
    lj = frame.ell_jet
    gv, vt = v.grad_x, v.grad_t
    gl, lt = lj.grad_x, lj.grad_t
    Psi = psi_d.value
    V = (
        2.0 * float(gl @ gv) * gv
        - gl * float(gv @ gv)
        - 2.0 * lt * gv * vt
        + gl * vt**2
        + Psi * v.value * gv
        - 0.5 * psi_d.grad_x * v.value**2
        - a * v.value**2 * gl
    )
    N = (
        lt * float(gv @ gv)
        + lt * vt**2
        - 2.0 * float(gl @ gv) * vt
        - Psi * v.value * vt
        + (a * lt + 0.5 * psi_d.grad_t) * v.value**2
    )
    return V, float(N)


# ---------------------------------------------------------------------------
# Small symmetric eigenproblems (cyclic Jacobi) and the structure matrix
# ---------------------------------------------------------------------------


# off-diagonal norm, relative to max(1, max |entry|), at which Jacobi stops; and its sweep cap
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 64


def jacobi_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations, ascending."""
    a = np.array(mat, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m) or not np.allclose(a, a.T, atol=0.0, rtol=0.0):
        raise ConfigurationError("jacobi_eigenvalues needs an exactly symmetric square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(m) for q in range(m) if p != q))
        if off <= JACOBI_TOL * scale:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                if abs(a[p, q]) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                sgn = 1.0 if tau >= 0 else -1.0
                t_rot = sgn / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t_rot * t_rot)
                s = t_rot * c
                rot = np.eye(m)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))


def build_M(rho_jet: Jet2, varrho: float) -> np.ndarray:
    """Structure matrix: [[rho_tt - vr, -grad rho_t^T], [-grad rho_t, vr I + Hess rho]].

    Symmetric as built, since ``Jet2`` holds an exactly symmetric Hessian.
    """
    n = rho_jet.n
    m = np.zeros((1 + n, 1 + n))
    m[0, 0] = rho_jet.hess_tt - varrho
    m[0, 1:] = -rho_jet.hess_tx
    m[1:, 0] = -rho_jet.hess_tx
    m[1:, 1:] = varrho * np.eye(n) + rho_jet.hess_xx
    return m


# ---------------------------------------------------------------------------
# Positivity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdCertificate:
    tau: float
    min_eigenvalue: float
    tangent_min_quadform: float
    tangent_checks: int
    passed: bool


TAU_CAP = 2.0**20

# smallest eigenvalue of I - Hess(g)/tau that certifies tau
EIG_FLOOR = 1e-9


def psd_certificate(g_jet: Jet2, seed: int, tangent_samples: int) -> PsdCertificate:
    """Doubling search for tau with I - Hess(g)/tau positive, then a tangent check.

    g must be a unit-gradient graph function at the base point (|grad g| = 1
    within 1e-9).  The level function exp(tau t) - exp(tau g(x)) evaluated at
    t0 = g(x0) has spatial block tau^2 e^{tau t0} (I - grad g grad g^T -
    Hess(g)/tau); the certificate verifies its quadratic form is nonnegative
    on directions orthogonal to grad g.
    """
    n = g_jet.n
    grad = g_jet.grad_x
    norm = float(np.sqrt(grad @ grad))
    if abs(norm - 1.0) > 1e-9:
        raise ConfigurationError(f"|grad g| = {norm} is not 1 within 1e-9")
    hess = g_jet.hess_xx
    tau = 1.0
    while True:
        min_eig = float(jacobi_eigenvalues(np.eye(n) - hess / tau)[0])
        if min_eig >= EIG_FLOOR:
            break
        tau *= 2.0
        if tau > TAU_CAP:
            raise ConfigurationError(f"tau doubling search exceeded cap {TAU_CAP}")
    t0 = g_jet.value
    mtilde = tau**2 * math.exp(tau * t0) * (np.eye(n) - np.outer(grad, grad) - hess / tau)
    worst = math.inf
    checks = 0
    if n >= 2:
        draws = normal_stream(seed, 4 * tangent_samples * n).reshape(-1, n)
        for y in draws:
            y = y - (y @ grad) * grad
            ly = float(np.sqrt(y @ y))
            if ly < 1e-8:
                continue
            y = y / ly
            worst = min(worst, float(y @ mtilde @ y))
            checks += 1
            if checks == tangent_samples:
                break
    else:
        worst = 0.0  # tangent space is trivial in one dimension
    passed = worst >= -1e-9
    return PsdCertificate(
        tau=tau,
        min_eigenvalue=min_eig,
        tangent_min_quadform=worst,
        tangent_checks=checks,
        passed=passed,
    )


ASSUMPTION_PRESETS = ("A2.1", "A2.2", "A2.3")

# eigenvalue band around zero that separates semidefinite from definite
PSD_TOL = 1e-12


@dataclass(frozen=True)
class AssumptionReport:
    preset: str
    min_eigenvalue: float
    rho_t: float
    rho_t_required: bool
    rho_t_ok: bool
    matrix_ok: bool
    passed: bool


def assumption_check(
    rho_jet: Jet2,
    varrho,
    preset: str,
    c0: float,
    b1_norm: float,
) -> AssumptionReport:
    """Matrix positivity report for the three assumption presets.

    A2.1 asks for nonnegative definiteness of M(varrho) plus rho_t >= c0;
    A2.2 for strict positivity of M(varrho) - 3 |rho_t| b1_norm^2 I (no rho_t
    clause); A2.3 for strict positivity of M(varrho) plus rho_t >= c0.
    """
    if preset not in ASSUMPTION_PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; have {ASSUMPTION_PRESETS}")
    vr = varrho.value if isinstance(varrho, Jet2) else float(varrho)
    m = build_M(rho_jet, vr)
    rho_t = float(rho_jet.grad_t)
    if preset == "A2.2":
        m = m - 3.0 * abs(rho_t) * b1_norm**2 * np.eye(m.shape[0])
    min_eig = float(jacobi_eigenvalues(m)[0])
    if preset == "A2.1":
        matrix_ok = min_eig >= -PSD_TOL
        rho_t_required = True
    elif preset == "A2.2":
        matrix_ok = min_eig > PSD_TOL
        rho_t_required = False
    else:
        matrix_ok = min_eig > PSD_TOL
        rho_t_required = True
    rho_t_ok = (rho_t >= c0) if rho_t_required else True
    return AssumptionReport(
        preset=preset,
        min_eigenvalue=min_eig,
        rho_t=rho_t,
        rho_t_required=rho_t_required,
        rho_t_ok=rho_t_ok,
        matrix_ok=matrix_ok,
        passed=matrix_ok and rho_t_ok,
    )
