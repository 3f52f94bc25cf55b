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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .fields import (
    AnalyticFn,
    CapabilityError,
    ConfigurationError,
    Jet2,
    T_SYM,
    X_SYMS,
    jet_add,
    jet_exp,
    jet_scale,
    normal_stream,
)


class RangeError(OverflowError):
    """exp(ell) left double range; reported with the offending lam*phi."""


_EXP_MAX = 700.0  # log of largest finite double, with margin
_GAMMA_SYM = sp.Symbol("cw_gamma", real=True)


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

    t: float
    x: tuple[float, ...]
    params: WeightParams
    varrho: float
    rho_jet: Jet2
    psi_jet: Jet2
    phi_jet: Jet2
    ell_jet: Jet2
    theta: float
    Psi: float

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
    """Expansion coefficients at one point.

    d2 carries both computations: the matrix form (through M(varrho)) and the
    divergence form (through transport of psi_t^2 - |grad psi|^2).
    """

    d1: float
    d2_matrix: float
    d2_divergence: float
    d3: float
    a: float
    b: float

    @property
    def d2(self) -> float:
        return self.d2_matrix


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
        return 2.0 * np.ones_like(np.asarray(t, dtype=float)) if np.ndim(t) else 2.0
    return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0


def _unit(n, j):
    return tuple(1 if k == j else 0 for k in range(n))


def _add_alpha(a, b):
    return tuple(x + y for x, y in zip(a, b))


class WeightFamily:
    """Weights derived from one level function rho and one auxiliary varrho.

    varrho may be a float or an AnalyticFn; it enters Psi and the matrix and
    cubic coefficients, never the weights themselves.
    """

    def __init__(self, rho: AnalyticFn, varrho: AnalyticFn | float = 0.0):
        self.rho = rho
        self.n = rho.n
        if any(s.name.startswith("cw_") for s in rho.param_syms):
            raise CapabilityError("rho parameter names starting with 'cw_' are reserved")
        self.varrho = varrho
        self._psi = AnalyticFn(
            f"psi[{rho.name}]",
            sp.exp(_GAMMA_SYM * rho.expr),
            rho.n,
            {**dict(zip(rho.param_syms, rho.param_values)), _GAMMA_SYM: 1.0},
        )

    # -- partial evaluation ------------------------------------------------

    def varrho_partial(self, t, xs, alpha):
        if isinstance(self.varrho, AnalyticFn):
            return self.varrho.d(t, xs, alpha)
        order = sum(alpha)
        base = np.zeros(np.broadcast_shapes(np.shape(t), *map(np.shape, xs))) if (np.ndim(t) or any(np.ndim(v) for v in xs)) else 0.0
        if order == 0:
            return base + float(self.varrho)
        return base

    # -- frames ------------------------------------------------------------

    def frame(self, t: float, x, params: WeightParams) -> CarlemanFrame:
        x = tuple(float(v) for v in np.atleast_1d(x))
        rho_jet = self.rho.jet2(t, x)
        # psi = exp(gamma rho); phi = psi - mu q; ell = lam phi (chain rule jets)
        psi_jet = jet_exp(jet_scale(rho_jet, params.gamma))
        q_jet = Jet2.make(
            _q_partial(t, x, params.t0, params.x0, (0,) * (self.n + 1)),
            2.0 * (t - params.t0),
            2.0 * (np.array(x) - np.array(params.x0)),
            2.0,
            np.zeros(self.n),
            2.0 * np.eye(self.n),
        )
        phi_jet = jet_add(psi_jet, jet_scale(q_jet, -params.mu))
        ell_jet = jet_scale(phi_jet, params.lam)
        if abs(ell_jet.value) > _EXP_MAX:
            raise RangeError(
                f"exp(ell) overflows: lam*phi = {ell_jet.value:.6g} at (t, x) = ({t}, {x})"
            )
        theta = math.exp(ell_jet.value)
        varrho_value = float(self.varrho_partial(t, x, (0,) * (self.n + 1)))
        lap_ell = float(np.trace(ell_jet.hess_xx))
        psi_val = psi_jet.value
        Psi = lap_ell - ell_jet.hess_tt + 2.0 * params.lam * params.gamma * psi_val * varrho_value + 6.0 * params.lam * params.mu
        return CarlemanFrame(
            t=t,
            x=x,
            params=params,
            varrho=varrho_value,
            rho_jet=rho_jet,
            psi_jet=psi_jet,
            phi_jet=phi_jet,
            ell_jet=ell_jet,
            theta=theta,
            Psi=Psi,
        )

    # -- expansion coefficients (array-compatible) --------------------------

    def quantities(self, t, xs, params: WeightParams) -> dict:
        """ell partials, Psi derivatives, and a/b/d1/d2/d3 at (t, xs).

        t and the xs entries may be scalars or broadcastable arrays; every
        value in the returned dict follows that shape.
        """
        n = self.n
        lam, gamma, mu, t0, x0 = params.lam, params.gamma, params.mu, params.t0, params.x0
        psi = self._psi.with_params(cw_gamma=gamma)
        xs = list(xs)

        def L(alpha):
            return lam * (psi.d(t, xs, alpha) - mu * _q_partial(t, xs, t0, x0, alpha))

        zero = (0,) * n
        et = (1, *zero)
        ett = (2, *zero)
        ex = [(0, *_unit(n, j)) for j in range(n)]

        ell = {
            (0, *zero): L((0, *zero)),
            et: L(et),
            ett: L(ett),
            (3, *zero): L((3, *zero)),
            (4, *zero): L((4, *zero)),
        }
        for j in range(n):
            ell[ex[j]] = L(ex[j])
            ell[_add_alpha(et, ex[j])] = L(_add_alpha(et, ex[j]))
            ell[_add_alpha(ett, ex[j])] = L(_add_alpha(ett, ex[j]))
            for k in range(j, n):
                a_jk = _add_alpha(ex[j], ex[k])
                ell[a_jk] = L(a_jk)
                ell[_add_alpha(et, a_jk)] = L(_add_alpha(et, a_jk))
                ell[_add_alpha(ett, a_jk)] = L(_add_alpha(ett, a_jk))
            for k in range(n):
                tri = _add_alpha(ex[j], _add_alpha(ex[k], ex[k]))
                if tri not in ell:
                    ell[tri] = L(tri)
        # fourth order, pure spatial: sum_jk d_jj d_kk
        for j in range(n):
            for k in range(n):
                quad = _add_alpha(_add_alpha(ex[j], ex[j]), _add_alpha(ex[k], ex[k]))
                if quad not in ell:
                    ell[quad] = L(quad)

        def Lg(alpha):
            return ell[alpha]

        ell_t, ell_tt = Lg(et), Lg(ett)
        ell_x = [Lg(ex[j]) for j in range(n)]
        ell_tx = [Lg(_add_alpha(et, ex[j])) for j in range(n)]
        ell_xx = [[Lg(_add_alpha(ex[min(j, k)], ex[max(j, k)])) for k in range(n)] for j in range(n)]
        lap_ell = sum(ell_xx[j][j] for j in range(n))
        lap_ell_t = sum(Lg(_add_alpha(et, _add_alpha(ex[j], ex[j]))) for j in range(n))
        lap_ell_tt = sum(Lg(_add_alpha(ett, _add_alpha(ex[j], ex[j]))) for j in range(n))
        lap_ell_x = [
            sum(Lg(_add_alpha(ex[k], _add_alpha(ex[j], ex[j]))) for j in range(n)) for k in range(n)
        ]
        laplap_ell = sum(
            Lg(_add_alpha(_add_alpha(ex[j], ex[j]), _add_alpha(ex[k], ex[k])))
            for j in range(n)
            for k in range(n)
        )
        ell_ttt = Lg((3, *zero))
        ell_tttt = Lg((4, *zero))
        ell_ttx = [Lg(_add_alpha(ett, ex[j])) for j in range(n)]

        # psi and varrho jets for the product rule in Psi derivatives
        pj = {a: psi.d(t, xs, a) for a in self._jet2_alphas()}
        vr = {a: self.varrho_partial(t, xs, a) for a in self._jet2_alphas()}
        pv = pj[(0, *zero)] * vr[(0, *zero)]
        pv_t = pj[et] * vr[(0, *zero)] + pj[(0, *zero)] * vr[et]
        pv_tt = (
            pj[ett] * vr[(0, *zero)]
            + 2.0 * pj[et] * vr[et]
            + pj[(0, *zero)] * vr[ett]
        )
        pv_x = [
            pj[ex[j]] * vr[(0, *zero)] + pj[(0, *zero)] * vr[ex[j]] for j in range(n)
        ]
        lap_pv = sum(
            pj[_add_alpha(ex[j], ex[j])] * vr[(0, *zero)]
            + 2.0 * pj[ex[j]] * vr[ex[j]]
            + pj[(0, *zero)] * vr[_add_alpha(ex[j], ex[j])]
            for j in range(n)
        )

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

        # transported quantities built on psi alone
        psi_t, psi_tt = pj[et], pj[ett]
        psi_x = [pj[ex[j]] for j in range(n)]
        psi_tx = [pj[_add_alpha(et, ex[j])] for j in range(n)]
        psi_xx = [[pj[_add_alpha(ex[min(j, k)], ex[max(j, k)])] for k in range(n)] for j in range(n)]
        dt_ = np.asarray(t, dtype=float) - t0 if np.ndim(t) else (t - t0)
        dxs = [np.asarray(xs[j], dtype=float) - x0[j] if np.ndim(xs[j]) else (xs[j] - x0[j]) for j in range(n)]

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

        vr0 = vr[(0, *zero)]
        psi0 = pj[(0, *zero)]
        d2_div = 2.0 * gamma * psi0 * vr0 * p + p_t * psi_t - sum(p_x[k] * psi_x[k] for k in range(n))

        r = {a: self.rho.d(t, xs, a) for a in self._jet2_alphas()}
        r_t, r_tt = r[et], r[ett]
        r_x = [r[ex[j]] for j in range(n)]
        r_tx = [r[_add_alpha(et, ex[j])] for j in range(n)]
        r_xx = [[r[_add_alpha(ex[min(j, k)], ex[max(j, k)])] for k in range(n)] for j in range(n)]
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

        phi = psi0 - mu * _q_partial(t, xs, t0, x0, (0, *zero))
        phi_t = psi_t - 2.0 * mu * dt_
        phi_tt = psi_tt - 2.0 * mu
        phi_x = [psi_x[j] - 2.0 * mu * dxs[j] for j in range(n)]

        return {
            "ell": ell,
            "Psi": Psi,
            "Psi_t": Psi_t,
            "Psi_tt": Psi_tt,
            "Psi_x": Psi_x,
            "lap_Psi": lap_Psi,
            "a": a,
            "a_t": a_t,
            "a_x": a_x,
            "b": b,
            "p": p,
            "d1": d1,
            "d2_matrix": d2_mat,
            "d2_divergence": d2_div,
            "d3": d3,
            "psi": pj,
            "rho": r,
            "phi": phi,
            "phi_t": phi_t,
            "phi_tt": phi_tt,
            "phi_x": phi_x,
        }

    def _jet2_alphas(self):
        n = self.n
        out = [(0,) * (n + 1), (1,) + (0,) * n, (2,) + (0,) * n]
        for j in range(n):
            out.append((0, *_unit(n, j)))
            out.append((1, *_unit(n, j)))
            for k in range(j, n):
                out.append((0, *_add_alpha(_unit(n, j), _unit(n, k))))
        return out


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def eval_frame(rho: AnalyticFn, t: float, x, params: WeightParams, varrho: AnalyticFn | float = 0.0) -> CarlemanFrame:
    """Frame of weight values and jets at one point (Psi uses the given varrho)."""
    return WeightFamily(rho, varrho).frame(t, x, params)


def eval_D(frame: CarlemanFrame, rho: AnalyticFn, varrho: AnalyticFn | float, params: WeightParams) -> DQuantities:
    """Expansion coefficients at the frame's point; d2 via both routes.

    A disagreement between the two d2 routes beyond 1e-9 relative raises
    ArithmeticError: the dual computation is the module's own consistency
    anchor.
    """
    fam = WeightFamily(rho, varrho)
    q = fam.quantities(frame.t, list(frame.x), params)
    d2m, d2d = float(q["d2_matrix"]), float(q["d2_divergence"])
    denom = max(abs(d2m), abs(d2d))
    if denom > 0.0 and abs(d2m - d2d) > 1e-9 * denom:
        raise ArithmeticError(f"d2 route disagreement: matrix {d2m!r} vs divergence {d2d!r}")
    return DQuantities(
        d1=float(q["d1"]),
        d2_matrix=d2m,
        d2_divergence=d2d,
        d3=float(q["d3"]),
        a=float(q["a"]),
        b=float(q["b"]),
    )


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


def jacobi_eigenvalues(mat: np.ndarray, tol: float = 1e-12, max_sweeps: int = 64) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix by cyclic Jacobi rotations, ascending."""
    a = np.array(mat, dtype=float)
    m = a.shape[0]
    if a.shape != (m, m) or not np.allclose(a, a.T, atol=0.0, rtol=0.0):
        raise ConfigurationError("jacobi_eigenvalues needs an exactly symmetric square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(m) for q in range(m) if p != q))
        if off <= tol * scale:
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


class SymMatrix:
    """Dense symmetric matrix of size 1+n with a Jacobi eigenvalue routine."""

    def __init__(self, entries: np.ndarray):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError("SymMatrix needs a square array")
        m = 0.5 * (m + m.T)  # enforce exact symmetry
        self.values = m

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return jacobi_eigenvalues(self.values)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])

    def quadratic_form(self, vec) -> float:
        v = np.asarray(vec, dtype=float)
        return float(v @ self.values @ v)



def build_M(rho_jet: Jet2, varrho: float) -> SymMatrix:
    """Structure matrix: [[rho_tt - vr, -grad rho_t^T], [-grad rho_t, vr I + Hess rho]]."""
    n = rho_jet.n
    m = np.zeros((1 + n, 1 + n))
    m[0, 0] = rho_jet.hess_tt - varrho
    m[0, 1:] = -rho_jet.hess_tx
    m[1:, 0] = -rho_jet.hess_tx
    m[1:, 1:] = varrho * np.eye(n) + rho_jet.hess_xx
    return SymMatrix(m)


# ---------------------------------------------------------------------------
# Positivity certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsdCertificate:
    tau: float
    min_eigenvalue: float
    tangent_min_quadform: float
    tangent_checks: int
    t0: float
    passed: bool


TAU_CAP = 2.0**20


def psd_certificate(g_jet: Jet2, seed: int = 0, eig_floor: float = 1e-9, tangent_samples: int = 50) -> PsdCertificate:
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
        if min_eig >= eig_floor:
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
        t0=t0,
        passed=passed,
    )


def certifies(hess: np.ndarray, tau: float, eig_floor: float = 1e-9) -> bool:
    """Whether I - Hess/tau clears the eigenvalue floor (exposed for rejection tests)."""
    n = hess.shape[0]
    return float(jacobi_eigenvalues(np.eye(n) - np.asarray(hess, dtype=float) / tau)[0]) >= eig_floor


ASSUMPTION_PRESETS = ("A2.1", "A2.2", "A2.3")


@dataclass(frozen=True)
class AssumptionReport:
    preset: str
    matrix: np.ndarray
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
    c0: float = 0.0,
    b1_norm: float = 0.0,
    psd_tol: float = 1e-12,
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
        m = SymMatrix(m.values - 3.0 * abs(rho_t) * b1_norm**2 * np.eye(m.dim))
    min_eig = m.min_eigenvalue()
    if preset == "A2.1":
        matrix_ok = min_eig >= -psd_tol
        rho_t_required = True
    elif preset == "A2.2":
        matrix_ok = min_eig > psd_tol
        rho_t_required = False
    else:
        matrix_ok = min_eig > psd_tol
        rho_t_required = True
    rho_t_ok = (rho_t >= c0) if rho_t_required else True
    return AssumptionReport(
        preset=preset,
        matrix=m.values,
        min_eigenvalue=min_eig,
        rho_t=rho_t,
        rho_t_required=rho_t_required,
        rho_t_ok=rho_t_ok,
        matrix_ok=matrix_ok,
        passed=matrix_ok and rho_t_ok,
    )
