"""Exact-identity checks and weighted-inequality scans.

The central object is the pointwise multiplier identity for the wave operator:
with v = theta w, S = -2 ell_t v_t + 2 grad ell . grad v + Psi v,

    theta S (w_tt - lap w) + div V + dt N
        = (ell_tt + lap ell - Psi) v_t^2 + (ell_tt - lap ell + Psi) |grad v|^2
          + 2 sum ell_jk v_j v_k - 4 grad ell_t . grad v v_t + b v^2 + S^2.

Both sides are evaluated from exact jets and must agree to roundoff; the
quadratic derivative terms regroup exactly into the characteristic square
plus the structure-matrix form, which is what the inequality scans integrate.
Stochastic content enters through the compensator of the quadratic variation
of v_t, lam phi_t (b1 v_t + (b2 - b1 ell_t) v)^2, kept in exact expanded form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    AnalyticFn,
    ConfigurationError,
    Jet2,
    StatisticsError,
    SupportError,
    multi_indices,
    sample_brownian,
)
from .weights import (
    CarlemanFrame,
    PsiDerivatives,
    RangeError,
    WeightFamily,
    WeightParams,
    eval_VN,
    jacobi_eigenvalues,
)
from . import solver as _solver


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------


def _smoothstep(s):
    """Quintic smoothstep: 0 below 0, 1 above 1, C^2 at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (6.0 * s**2 - 15.0 * s + 10.0)


def _smoothstep_d1(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s**2 * (s - 1.0) ** 2, 0.0)


def _smoothstep_d2(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 60.0 * s * (2.0 * s - 1.0) * (s - 1.0), 0.0)


@dataclass(frozen=True)
class CutoffSpec:
    """chi = smoothstep((phi - c2)/eps): 0 where phi < c2, 1 where phi > c2 + eps."""

    c2: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.c2 < 1.0):
            raise ConfigurationError("c2 must lie in (0, 1)")
        if self.eps <= 0.0:
            raise ConfigurationError("eps must be positive")

    def chi(self, phi):
        return _smoothstep((np.asarray(phi, dtype=float) - self.c2) / self.eps)

    def chi_d1(self, phi):
        return _smoothstep_d1((np.asarray(phi, dtype=float) - self.c2) / self.eps) / self.eps

    def chi_d2(self, phi):
        return _smoothstep_d2((np.asarray(phi, dtype=float) - self.c2) / self.eps) / self.eps**2

    @property
    def derivative_maxima(self) -> tuple[float, float]:
        """(max |chi'|, max |chi''|) over the transition band, in phi units."""
        return 1.875 / self.eps, (10.0 / math.sqrt(3.0)) / self.eps**2


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    t: float
    x: tuple[float, ...]
    params: WeightParams

    @property
    def relative_residual(self) -> float:
        return abs(self.residual) / max(1.0, abs(self.lhs), abs(self.rhs))


def _report(lhs: float, rhs: float, tol: float, t, x, params) -> IdentityReport:
    residual = lhs - rhs
    passed = abs(residual) <= tol * max(1.0, abs(lhs), abs(rhs))
    return IdentityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tol),
        passed=bool(passed),
        t=float(t),
        x=tuple(float(v) for v in np.atleast_1d(x)),
        params=params,
    )


# ---------------------------------------------------------------------------
# Core assembly: every identity/inequality ingredient on points or arrays
# ---------------------------------------------------------------------------


def _w_derivatives(u_fn: AnalyticFn, cutoff, quant, t, xs, n):
    """Jets of w = chi(phi) u (or plain u) to second order, as arrays."""
    A = multi_indices(n)
    u = {"v": u_fn.d(t, xs, A.zero), "t": u_fn.d(t, xs, A.t), "tt": u_fn.d(t, xs, A.tt)}
    u["x"] = [u_fn.d(t, xs, A.x[j]) for j in range(n)]
    u["tx"] = [u_fn.d(t, xs, A.tx[j]) for j in range(n)]
    u["xx"] = [[u_fn.d(t, xs, A.xx[j][k]) for k in range(n)] for j in range(n)]
    if cutoff is None:
        return u, None
    phi, phi_t, phi_tt = quant["phi"], quant["phi_t"], quant["phi_tt"]
    phi_x = quant["phi_x"]
    pj = quant["psi"]
    phi_tx = [pj[A.tx[j]] for j in range(n)]  # q has no t-x cross terms
    mu = quant["mu"]
    phi_xx = [[pj[A.xx[j][k]] - (2.0 * mu if j == k else 0.0) for k in range(n)] for j in range(n)]
    S0, S1, S2 = cutoff.chi(phi), cutoff.chi_d1(phi), cutoff.chi_d2(phi)
    chi = {
        "v": S0,
        "t": S1 * phi_t,
        "tt": S2 * phi_t**2 + S1 * phi_tt,
        "x": [S1 * phi_x[j] for j in range(n)],
        "tx": [S2 * phi_t * phi_x[j] + S1 * phi_tx[j] for j in range(n)],
        "xx": [[S2 * phi_x[j] * phi_x[k] + S1 * phi_xx[j][k] for k in range(n)] for j in range(n)],
    }
    w = {
        "v": chi["v"] * u["v"],
        "t": chi["t"] * u["v"] + chi["v"] * u["t"],
        "tt": chi["tt"] * u["v"] + 2.0 * chi["t"] * u["t"] + chi["v"] * u["tt"],
        "x": [chi["x"][j] * u["v"] + chi["v"] * u["x"][j] for j in range(n)],
        "tx": [
            chi["tx"][j] * u["v"] + chi["t"] * u["x"][j] + chi["x"][j] * u["t"] + chi["v"] * u["tx"][j]
            for j in range(n)
        ],
        "xx": [
            [
                chi["xx"][j][k] * u["v"]
                + chi["x"][j] * u["x"][k]
                + chi["x"][k] * u["x"][j]
                + chi["v"] * u["xx"][j][k]
                for k in range(n)
            ]
            for j in range(n)
        ],
    }
    return w, {"chi": chi, "u": u}


def assemble(
    family: WeightFamily,
    params: WeightParams,
    t,
    xs,
    u_fn: AnalyticFn,
    cutoff: CutoffSpec | None = None,
    rescale: bool = False,
    w_scale: float = 1.0,
) -> dict:
    """All multiplier-identity and inequality ingredients at (t, xs).

    With ``rescale`` the weight theta is replaced by exp(ell - max ell); every
    returned quadratic quantity then carries exp(-2 max ell), which cancels in
    any inequality formed from them.  ``log_scale`` reports 2 max ell.
    """
    n = family.n
    t = np.asarray(t, dtype=float)
    xs = [np.asarray(v, dtype=float) for v in np.atleast_1d(xs)] if not isinstance(xs, (list, tuple)) else [
        np.asarray(v, dtype=float) for v in xs
    ]
    quant = family.quantities(t, xs, params)
    quant["mu"] = params.mu
    ell = quant["ell"]
    A = multi_indices(n)
    l0 = ell[A.zero]
    lt, ltt = ell[A.t], ell[A.tt]
    lx = [ell[A.x[j]] for j in range(n)]
    ltx = [ell[A.tx[j]] for j in range(n)]
    lxx = [[ell[A.xx[j][k]] for k in range(n)] for j in range(n)]
    lap_l = sum(lxx[j][j] for j in range(n))

    w, w_parts = _w_derivatives(u_fn, cutoff, quant, t, xs, n)
    if rescale:
        # shift by the largest ell on the jet support of w so scaled
        # quantities stay order one (any common shift cancels in the
        # inequalities); off the support every theta-weighted term carries a
        # w factor and is exactly zero, so theta is set to zero there instead
        # of overflowing where ell exceeds its on-support maximum
        wmag = (
            np.abs(np.asarray(w["v"])) + np.abs(np.asarray(w["t"])) + np.abs(np.asarray(w["tt"]))
            + sum(np.abs(np.asarray(a)) for a in w["x"])
            + sum(np.abs(np.asarray(a)) for a in w["tx"])
            + sum(np.abs(np.asarray(w["xx"][j][k])) for j in range(n) for k in range(n))
        )
        mask = wmag > 0.0
        shift = float(np.max(np.asarray(l0)[mask])) if mask.any() else float(np.max(l0))
        th = np.zeros_like(np.asarray(l0, dtype=float))
        th[mask] = np.exp(np.asarray(l0, dtype=float)[mask] - shift)
    else:
        shift = 0.0
        if float(np.max(np.abs(l0))) > 350.0:
            raise RangeError(f"lam*phi reaches {float(np.max(np.abs(l0))):.3g}; theta^2 overflows")
        th = np.exp(l0 - shift)
    if w_scale != 1.0:
        w = {
            "v": w_scale * w["v"],
            "t": w_scale * w["t"],
            "tt": w_scale * w["tt"],
            "x": [w_scale * a for a in w["x"]],
            "tx": [w_scale * a for a in w["tx"]],
            "xx": [[w_scale * a for a in row] for row in w["xx"]],
        }

    v = th * w["v"]
    vt = th * (lt * w["v"] + w["t"])
    vx = [th * (lx[j] * w["v"] + w["x"][j]) for j in range(n)]
    vtt = th * ((ltt + lt**2) * w["v"] + 2.0 * lt * w["t"] + w["tt"])
    vtx = [
        th * ((ltx[j] + lt * lx[j]) * w["v"] + lt * w["x"][j] + lx[j] * w["t"] + w["tx"][j])
        for j in range(n)
    ]
    vxx = [
        [
            th
            * (
                (lxx[j][k] + lx[j] * lx[k]) * w["v"]
                + lx[j] * w["x"][k]
                + lx[k] * w["x"][j]
                + w["xx"][j][k]
            )
            for k in range(n)
        ]
        for j in range(n)
    ]
    lap_v = sum(vxx[j][j] for j in range(n))
    grad_v_sq = sum(vx[j] ** 2 for j in range(n))
    gl_dot_gv = sum(lx[j] * vx[j] for j in range(n))

    Psi, Psi_t, Psi_tt = quant["Psi"], quant["Psi_t"], quant["Psi_tt"]
    Psi_x, lap_Psi = quant["Psi_x"], quant["lap_Psi"]
    a, a_t, a_x = quant["a"], quant["a_t"], quant["a_x"]
    b = quant["b"]

    S = -2.0 * lt * vt + 2.0 * gl_dot_gv + Psi * v
    w_wave = w["tt"] - sum(w["xx"][j][j] for j in range(n))
    lhs_mult = th * S * w_wave

    div_V = (
        2.0 * sum((sum(lxx[k][j] * vx[k] + lx[k] * vxx[k][j] for k in range(n))) * vx[j] for j in range(n))
        + 2.0 * gl_dot_gv * lap_v
        - lap_l * grad_v_sq
        - 2.0 * sum(lx[j] * sum(vx[k] * vxx[k][j] for k in range(n)) for j in range(n))
        - 2.0 * sum(ltx[j] * vx[j] for j in range(n)) * vt
        - 2.0 * lt * lap_v * vt
        - 2.0 * lt * sum(vx[j] * vtx[j] for j in range(n))
        + lap_l * vt**2
        + 2.0 * sum(lx[j] * vtx[j] for j in range(n)) * vt
        + sum(Psi_x[j] * vx[j] for j in range(n)) * v
        + Psi * grad_v_sq
        + Psi * v * lap_v
        - 0.5 * lap_Psi * v**2
        - sum(Psi_x[j] * vx[j] for j in range(n)) * v
        - sum(a_x[j] * lx[j] for j in range(n)) * v**2
        - 2.0 * a * v * gl_dot_gv
        - a * v**2 * lap_l
    )
    dt_N = (
        ltt * grad_v_sq
        + 2.0 * lt * sum(vx[j] * vtx[j] for j in range(n))
        + ltt * vt**2
        + 2.0 * lt * vt * vtt
        - 2.0 * (sum(ltx[j] * vx[j] for j in range(n)) * vt + sum(lx[j] * vtx[j] for j in range(n)) * vt + gl_dot_gv * vtt)
        - Psi_t * v * vt
        - Psi * vt**2
        - Psi * v * vtt
        + (a_t * lt + a * ltt + 0.5 * Psi_tt) * v**2
        + 2.0 * (a * lt + 0.5 * Psi_t) * v * vt
    )

    e1 = (ltt + lap_l - Psi) * vt**2
    e2 = (ltt - lap_l + Psi) * grad_v_sq
    e3 = 2.0 * sum(lxx[j][k] * vx[j] * vx[k] for j in range(n) for k in range(n))
    e4 = -4.0 * sum(ltx[j] * vx[j] for j in range(n)) * vt
    b_v2 = b * v**2
    s_sq = S**2

    # exact regrouping of e1 + e2 + e3 + e4 at the canonical Psi
    rj = quant["rho"]
    r_t, r_tt = rj[A.t], rj[A.tt]
    r_x = [rj[A.x[j]] for j in range(n)]
    r_tx = [rj[A.tx[j]] for j in range(n)]
    r_xx = [[rj[A.xx[j][k]] for k in range(n)] for j in range(n)]
    psi0 = quant["psi"][A.zero]
    vr = family.varrho_partial(t, xs, A.zero)
    lam, gamma, mu = params.lam, params.gamma, params.mu
    qf_char = 2.0 * lam * gamma**2 * psi0 * (r_t * vt - sum(r_x[j] * vx[j] for j in range(n))) ** 2
    qf_mat = 2.0 * lam * gamma * psi0 * (
        (r_tt - vr) * vt**2
        - 2.0 * sum(r_tx[j] * vx[j] for j in range(n)) * vt
        + sum((r_xx[j][k] + (vr if j == k else 0.0)) * vx[j] * vx[k] for j in range(n) for k in range(n))
    )
    mu_terms = -10.0 * lam * mu * vt**2 + 2.0 * lam * mu * grad_v_sq

    return {
        "n": n,
        "log_scale": 2.0 * shift,
        "theta": th,
        "w": w,
        "w_parts": w_parts,
        "v": v,
        "vt": vt,
        "vx": vx,
        "vtt": vtt,
        "vtx": vtx,
        "vxx": vxx,
        "S": S,
        "w_wave": w_wave,
        "lhs_mult": lhs_mult,
        "div_V": div_V,
        "dt_N": dt_N,
        "identity_lhs": lhs_mult + div_V + dt_N,
        "identity_rhs": e1 + e2 + e3 + e4 + b_v2 + s_sq,
        "e_terms": e1 + e2 + e3 + e4,
        "qf_char": qf_char,
        "qf_mat": qf_mat,
        "mu_terms": mu_terms,
        "b_v2": b_v2,
        "s_sq": s_sq,
        "quant": quant,
    }


# ---------------------------------------------------------------------------
# Pointwise identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCase:
    """Residual report, weight frame, and the eval_VN (V, N) of one point."""

    report: IdentityReport
    frame: CarlemanFrame
    V: np.ndarray
    N: float


def identity_case(
    w_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    t: float,
    x,
    tol: float = 1e-8,
) -> IdentityCase:
    """The multiplier identity at one point, deterministic surrogate, from one assembly.

    The surrogate replaces dw_t by w_tt dt, drops the quadratic variation, and
    reads dN as its time derivative; the two sides are then assembled through
    disjoint formula routes and compared.  V and N take the eval_VN route from
    the assembled jet of v and the frame's jets.
    """
    t, x = float(t), [float(v) for v in np.atleast_1d(x)]
    out = assemble(family, params, t, x, w_fn)
    q = out["quant"]
    frame = family.frame(t, x, params)
    # the assembled vxx is symmetric only to roundoff and eval_VN reads no Hessian
    vxx = np.array(out["vxx"], dtype=float)
    v_jet = Jet2.make(out["v"], out["vt"], out["vx"], out["vtt"], out["vtx"], np.triu(vxx) + np.triu(vxx, 1).T)
    psi_d = PsiDerivatives(float(q["Psi"]), float(q["Psi_t"]), np.array(q["Psi_x"], dtype=float))
    V, N = eval_VN(v_jet, frame, psi_d, float(q["a"]))
    report = _report(float(out["identity_lhs"]), float(out["identity_rhs"]), tol, t, x, params)
    return IdentityCase(report, frame, V, N)


def identity_residual(
    w_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    t: float,
    x,
    tol: float = 1e-8,
) -> IdentityReport:
    """Residual report of the multiplier identity at one point (see identity_case)."""
    return identity_case(w_fn, family, params, t, x, tol).report


def conjugation_residual(
    u_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    cutoff: CutoffSpec,
    t: float,
    x,
    tol: float = 1e-8,
) -> tuple[IdentityReport, IdentityReport]:
    """Residuals of the conjugation identity and of the cutoff commutation.

    Conjugation: theta (w_tt - lap w) equals the conjugated operator applied
    to v = theta w.  Cutoff: (chi u) propagates the wave operator with the
    commutator chi_tt u + 2 chi_t u_t - 2 grad chi . grad u - lap chi u.
    """
    x = [float(v) for v in np.atleast_1d(x)]
    out = assemble(family, params, float(t), x, u_fn, cutoff=cutoff)
    n = out["n"]
    ell = out["quant"]["ell"]
    A = multi_indices(n)
    lt, ltt = float(ell[A.t]), float(ell[A.tt])
    lx = [float(ell[A.x[j]]) for j in range(n)]
    lap_l = sum(float(ell[A.xx[j][j]]) for j in range(n))
    v, vt, vtt = float(out["v"]), float(out["vt"]), float(out["vtt"])
    vx = [float(a) for a in out["vx"]]
    lap_v = sum(float(out["vxx"][j][j]) for j in range(n))
    th = float(out["theta"])
    conj_lhs = th * float(out["w_wave"])
    conj_rhs = (
        vtt
        - lap_v
        + (lt**2 - sum(g * g for g in lx)) * v
        - (ltt - lap_l) * v
        - 2.0 * lt * vt
        + 2.0 * sum(lx[j] * vx[j] for j in range(n))
    )
    conj = _report(conj_lhs, conj_rhs, tol, t, x, params)

    chi = out["w_parts"]["chi"]
    u = out["w_parts"]["u"]
    u_wave = float(u["tt"]) - sum(float(u["xx"][j][j]) for j in range(n))
    cut_lhs = float(out["w_wave"])
    cut_rhs = (
        float(chi["v"]) * u_wave
        + float(chi["tt"]) * float(u["v"])
        + 2.0 * float(chi["t"]) * float(u["t"])
        - 2.0 * sum(float(chi["x"][j]) * float(u["x"][j]) for j in range(n))
        - sum(float(chi["xx"][j][j]) for j in range(n)) * float(u["v"])
    )
    cut = _report(cut_lhs, cut_rhs, tol, t, x, params)
    return conj, cut


def identity_vn_values(
    w_fn: AnalyticFn, family: WeightFamily, params: WeightParams, t: float, x
) -> tuple[np.ndarray, float]:
    """Pointwise flux vector and time density (the eval_VN route)."""
    case = identity_case(w_fn, family, params, t, x)
    return case.V, case.N


# ---------------------------------------------------------------------------
# Quadratic-variation bookkeeping (Monte Carlo)
# ---------------------------------------------------------------------------

# fewest paths whose standard error qv_check will judge against a tolerance
QV_MIN_PATHS = 100


@dataclass(frozen=True)
class QvReport:
    empirical: float           # realized variation of the martingale part
    predicted: float           # compensator integral
    relative_error: float
    standard_error: float
    paths: int
    tolerance: float
    passed: bool


def qv_check(
    grid,
    coeffs,
    u0_fn: AnalyticFn,
    u1_fn: AnalyticFn | None,
    paths: int,
    seed: int,
    family: WeightFamily | None = None,
    params: WeightParams | None = None,
    tol: float = 0.05,
) -> QvReport:
    """Realized quadratic variation of v_t against its compensator integral.

    v = theta u with theta == 1 (ell == 0) when no weight family is given.  The
    martingale increment of v_t over one step is theta (b1 u_t + b2 u + f) dW,
    so its realized variation sums theta^2 D^2 dW^2 while the compensator
    integrates theta^2 D^2 dt, with D evaluated from the state the step
    starts at; zero diffusion gives exactly zero for both.  ``solver.solve``
    reduces each recorded state to every path's sum of theta^2 D^2; both sums
    then accumulate per path in step order.
    """
    if paths < QV_MIN_PATHS:
        raise StatisticsError(f"qv_check needs at least {QV_MIN_PATHS} paths, got {paths}")
    theta = [1.0] * (grid.num_steps + 1)
    if family is not None and params is not None:
        mesh, zero = list(grid.meshgrid()), multi_indices(grid.n).zero
        theta = [
            np.exp(family.ell(np.full(grid.shape, tv), mesh, params, (zero,))[zero])
            for tv in np.arange(grid.num_steps + 1) * grid.dt
        ]
    samplers = _solver.make_samplers(coeffs, grid)
    init = _solver.initial_state(grid, u0_fn, u1_fn, coeffs)
    bpaths = _solver.brownian_paths(seed, grid, paths)

    def reduce(k, state):
        # the record at t_max (twice, if the last step's time falls short of it) starts no step
        if k >= grid.num_steps:
            return (np.zeros(len(state.u)),)
        diff = _solver.diffusion_arrays(state.u, state.ut, state.time, samplers)
        return (_solver.row_sums(theta[k] ** 2 * diff**2),)

    _, (qv,) = _solver.solve(init, coeffs, grid, bpaths, reduce, support_guard=False)
    # Python float squares (C pow) can differ from numpy's x * x in the last bit
    dw2 = np.array([[float(x) ** 2 for x in bp.increments] for bp in bpaths])
    vol = grid.cell_volume
    emp_vals, pred_vals = np.zeros(paths), np.zeros(paths)
    for k in range(grid.num_steps):
        emp_vals += qv[:, k] * dw2[:, k] * vol
        pred_vals += qv[:, k] * grid.dt * vol
    emp_mean = float(np.mean(emp_vals))
    pred_mean = float(np.mean(pred_vals))
    se = float(np.std(emp_vals, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    denom = max(abs(pred_mean), 1e-300)
    rel = abs(emp_mean - pred_mean) / denom if pred_mean != 0.0 else abs(emp_mean)
    passed = rel <= tol if pred_mean != 0.0 else emp_mean == 0.0
    return QvReport(
        empirical=emp_mean,
        predicted=pred_mean,
        relative_error=rel,
        standard_error=se,
        paths=paths,
        tolerance=tol,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Inequality scans
# ---------------------------------------------------------------------------

GAP_PRESETS = ("T3.2", "T4.2", "T5.1", "T6.2")


@dataclass(frozen=True)
class RegionSpec:
    """Space-time box with uniform sampling for the scan integrals."""

    t_lo: float
    t_hi: float
    nt: int
    x_lo: tuple[float, ...]
    x_hi: tuple[float, ...]
    nx: int

    @property
    def n(self) -> int:
        return len(self.x_lo)

    def mesh(self):
        taxis = np.linspace(self.t_lo, self.t_hi, self.nt)
        axes = [np.linspace(lo, hi, self.nx) for lo, hi in zip(self.x_lo, self.x_hi)]
        grids = np.meshgrid(taxis, *axes, indexing="ij")
        return grids[0], list(grids[1:])

    @property
    def measure(self) -> float:
        dt = (self.t_hi - self.t_lo) / (self.nt - 1)
        out = dt
        for lo, hi in zip(self.x_lo, self.x_hi):
            out *= (hi - lo) / (self.nx - 1)
        return out

    @property
    def dt(self) -> float:
        return (self.t_hi - self.t_lo) / (self.nt - 1)


@dataclass(frozen=True)
class GapRow:
    lam: float
    gap_scaled: float
    log_scale: float
    gap: float
    components: dict


@dataclass(frozen=True)
class GapScan:
    preset: str
    rows: tuple
    margins: dict
    homogeneity_pair: tuple[float, float]


# largest |w| jet on the region boundary, relative to its peak, that a scan accepts
SUPPORT_TOL = 1e-10


def _support_ratio(out) -> float:
    w = np.abs(out["w"]["v"]) + np.abs(out["w"]["t"]) + sum(np.abs(a) for a in out["w"]["x"])
    peak = float(np.max(w))
    if peak == 0.0:
        return 0.0
    return float(np.max(w[_solver.near_boundary(w.shape, 1)])) / peak


def _qv_expanded(out, params, b1: float, b2: float):
    """Exact expanded compensator lam phi_t (b1 v_t + (b2 - b1 ell_t) v)^2.

    The v v_t cross term is integrated by parts in time; over the compact
    support of v the boundary term vanishes, leaving the phi_tt transport
    terms below.  Returns (coefficient of v_t^2, coefficient of v^2).
    """
    lam = params.lam
    phi_t, phi_tt = out["quant"]["phi_t"], out["quant"]["phi_tt"]
    c_vt2 = lam * phi_t * b1**2
    c_v2 = (
        lam * phi_t * (b2 - b1 * lam * phi_t) ** 2
        - lam * b1 * b2 * phi_tt
        + 2.0 * lam**2 * b1**2 * phi_t * phi_tt
    )
    return c_vt2, c_v2


def _structure_min_eig(out, params, vr, support_mask) -> float:
    """min over the support of the smallest eigenvalue of 2 gamma psi M(varrho) + mu I."""
    n = out["n"]
    q = out["quant"]
    A = multi_indices(n)
    rj = q["rho"]
    psi0 = q["psi"][A.zero]
    idx = np.argwhere(support_mask)
    worst = math.inf
    for flat in idx[:: max(1, len(idx) // 2000)]:  # cap the eigen loop at ~2000 nodes
        sel = tuple(flat)
        m = np.zeros((1 + n, 1 + n))
        m[0, 0] = rj[A.tt][sel] - vr[sel]
        for j in range(n):
            m[0, 1 + j] = m[1 + j, 0] = -rj[A.tx[j]][sel]
            for k in range(j, n):
                m[1 + j, 1 + k] = m[1 + k, 1 + j] = rj[A.xx[j][k]][sel] + (vr[sel] if j == k else 0.0)
        scaled = 2.0 * params.gamma * psi0[sel] * m + params.mu * np.eye(1 + n)
        worst = min(worst, float(jacobi_eigenvalues(scaled)[0]))
    return worst


def _margins(preset: str, out, params, varrho0, c0: float, c1: float) -> dict:
    """T4.2 / T5.1 coefficient margins on the support of w.  They read w's
    support, phi_t, d2, d3, psi, rho and varrho, none of which depends on lam."""
    support_mask = np.abs(out["w"]["v"]) > 0.0
    if preset not in ("T4.2", "T5.1") or not support_mask.any():
        return {}
    q = out["quant"]
    phi_t = q["phi_t"]
    m1 = 0.5 * phi_t * c1**2 - 11.0 * params.mu - params.gamma * c0 * c1**2 / 4.0
    m2 = 0.5 * c1**2 * phi_t**3 + q["d2_matrix"] + q["d3"] - params.gamma**3 * c0**3 * c1**2 / 4.0
    return {
        "vt_margin": float(np.min(m1[support_mask])),
        "v_margin": float(np.min(m2[support_mask])),
        "structure_min_eig": _structure_min_eig(out, params, varrho0, support_mask),
    }


def inequality_gap(
    preset: str,
    u_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    lambdas,
    region: RegionSpec,
    cutoff: CutoffSpec | None = None,
    c0: float = 1.0,
    c1: float = 1.0,
    b1: float | None = None,
    b2: float = 0.0,
    paths: int = 0,
    seed: int = 0,
) -> GapScan:
    """Integrated gap of the preset weighted inequality for each lam.

    Every term is evaluated exactly from jets; expectations reduce to plain
    integrals on the deterministic surrogate.  With ``paths`` > 0 the
    compensator term is re-weighted by realized squared Brownian increments
    (mean dt) and the gap is averaged over paths.  Each lam takes one
    assembly; one more, with w doubled, at the first lam gives the quadratic
    homogeneity pair.  The margins come from the first assembly.
    """
    if preset not in GAP_PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; have {GAP_PRESETS}")
    if preset == "T6.2" and (params.mu != 0.0 or params.gamma != 1.0):
        raise ConfigurationError("the cone preset fixes mu = 0 and gamma = 1")
    if b1 is None:
        b1 = c1
    T, Xs = region.mesh()
    meas = region.measure
    varrho0 = np.broadcast_to(
        np.asarray(family.varrho_partial(T, Xs, (0,) * (family.n + 1)), dtype=float), T.shape
    )
    qv_weight = 1.0
    if paths > 0:
        qv_weight = np.zeros_like(T)
        for p in range(paths):
            bw = sample_brownian(seed, region.dt, region.dt * (region.nt - 1), stream=p)
            inc2 = np.concatenate([bw.increments**2 / region.dt, [1.0]])
            qv_weight += inc2.reshape((-1,) + (1,) * family.n)
        qv_weight /= paths

    rows, margins = [], {}
    # doubling w is exact, so the doubled assembly meets the same support check
    for lamf, w_scale in [(float(lam), 1.0) for lam in lambdas] + [(float(lambdas[0]), 2.0)]:
        pl = replace(params, lam=lamf)
        out = assemble(family, pl, T, Xs, u_fn, cutoff=cutoff, rescale=True, w_scale=w_scale)
        support_ratio = _support_ratio(out)
        if support_ratio > SUPPORT_TOL:
            raise SupportError(f"field support touches the region boundary (ratio {support_ratio:.3g})")
        if not rows:
            margins = _margins(preset, out, params, varrho0, c0, c1)
        vt2, v2 = out["vt"] ** 2, out["v"] ** 2
        q = out["quant"]
        d23 = q["d2_matrix"] + q["d3"]
        c_vt2, c_v2 = _qv_expanded(out, pl, b1, b2)
        comp = {
            "qf_char": float(np.sum(out["qf_char"]) * meas),
            "qf_mat": float(np.sum(out["qf_mat"]) * meas),
            "mu_terms": float(np.sum(out["mu_terms"]) * meas),
            "cubic": float(np.sum(lamf**3 * d23 * v2) * meas),
            "qv": float(np.sum((c_vt2 * vt2 + c_v2 * v2) * qv_weight) * meas),
            "s_sq": float(np.sum(out["s_sq"]) * meas),
            "identity_lhs": float(np.sum(out["identity_lhs"]) * meas),
            "identity_rhs": float(np.sum(out["identity_rhs"]) * meas),
            "bound": 0.0,
        }
        if preset == "T3.2":
            gap_scaled = float(np.sum((q["b"] - lamf**3 * d23) * v2) * meas)
        elif preset == "T4.2":
            comp["bound"] = float(
                np.sum(
                    (params.gamma * c0 * c1**2 / 4.0) * lamf * vt2
                    + (params.gamma**3 * c0**3 * c1**2 / 4.0) * lamf**3 * v2
                )
                * meas
            )
            gap_scaled = (
                comp["qf_char"] + comp["qf_mat"] + comp["mu_terms"] + comp["cubic"] + comp["qv"] - comp["bound"]
            )
        elif preset == "T5.1":
            phi_t = q["phi_t"]
            penalty = 3.0 * lamf * np.abs(phi_t) * (b1**2 * vt2 + (b2 - b1 * lamf * phi_t) ** 2 * v2)
            comp["bound"] = float(np.sum(penalty) * meas)
            gap_scaled = (
                comp["qf_char"] + comp["qf_mat"] + comp["mu_terms"] + comp["cubic"] - comp["bound"]
            )
        else:  # T6.2: mu = 0 so the mu and d3 terms vanish identically
            gap_scaled = comp["qf_char"] + comp["qf_mat"] + comp["cubic"] + comp["qv"]
        log_scale = float(out["log_scale"])
        gap_raw = gap_scaled * math.exp(log_scale) if log_scale < 700.0 else math.inf * np.sign(gap_scaled)
        rows.append(GapRow(lam=lamf, gap_scaled=gap_scaled, log_scale=log_scale, gap=float(gap_raw), components=comp))
    doubled = rows.pop()
    return GapScan(
        preset=preset,
        rows=tuple(rows),
        margins=margins,
        homogeneity_pair=(4.0 * rows[0].gap_scaled, doubled.gap_scaled),
    )
