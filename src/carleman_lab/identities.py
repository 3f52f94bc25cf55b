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
from typing import NamedTuple

import numpy as np

from .fields import (
    AnalyticFn,
    ConfigurationError,
    Jet2,
    StatisticsError,
    SupportError,
    is_scalar,
    multi_indices,
    sample_brownian,
)
from .weights import (
    CarlemanFrame,
    PointStage,
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


@dataclass(frozen=True)
class IdentityReport:
    """The two sides of an identity and |lhs - rhs| / max(1, |lhs|, |rhs|)."""

    lhs: float
    rhs: float
    relative_residual: float


def _report(lhs: float, rhs: float) -> IdentityReport:
    lhs, rhs = float(lhs), float(rhs)
    return IdentityReport(lhs, rhs, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))


# ---------------------------------------------------------------------------
# Core assembly: every identity/inequality ingredient on points or arrays
# ---------------------------------------------------------------------------


def _w_derivatives(u_fn: AnalyticFn, cutoff, point: PointStage, mu: float, t, xs, n):
    """Jets of w = chi(phi) u (or plain u) to second order, from one sweep of u's partials;
    floats at a scalar point, arrays otherwise."""
    A = multi_indices(n)
    ud = u_fn.partials(t, xs, A.jet2)
    u = {"v": ud[A.zero], "t": ud[A.t], "tt": ud[A.tt]}
    u["x"] = [ud[A.x[j]] for j in range(n)]
    u["tx"] = [ud[A.tx[j]] for j in range(n)]
    u["xx"] = [[ud[A.xx[j][k]] for k in range(n)] for j in range(n)]
    if cutoff is None:
        return u, None
    phi, phi_t, phi_tt = point["phi"], point["phi_t"], point["phi_tt"]
    phi_x = point["phi_x"]
    pj = point["psi"]
    phi_tx = [pj[A.tx[j]] for j in range(n)]  # q has no t-x cross terms
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


class LambdaFree(NamedTuple):
    """The lam-free part of an assembly or a scan: the weights' point stage and
    the jets of w (``_w_derivatives``)."""

    point: PointStage
    w: dict
    w_parts: dict | None


def lambda_free(family: WeightFamily, params: WeightParams, t, xs, u_fn: AnalyticFn, cutoff=None) -> LambdaFree:
    """The lam-free part of ``assemble`` at (t, xs); ``params.lam`` is not read.

    At a point, where t and every entry of xs are scalars, they become Python
    floats, and everything built from them stays on floats.  Otherwise each
    becomes a float array, and every value follows their broadcast shape.
    """
    xs = list(xs) if isinstance(xs, (list, tuple)) else list(np.atleast_1d(xs))
    if is_scalar(t) and all(map(is_scalar, xs)):
        t, xs = float(t), [float(v) for v in xs]
    else:
        t, xs = np.asarray(t, dtype=float), [np.asarray(v, dtype=float) for v in xs]
    point = family.point_stage(t, xs, params)
    return LambdaFree(point, *_w_derivatives(u_fn, cutoff, point, params.mu, t, xs, family.n))


def _first_order(point: PointStage, stage: dict, params: WeightParams, th, w) -> dict:
    """v = theta w to first order, S, and the forms the quadratic derivative terms regroup into:
    the characteristic square ``qf_char``, the structure-matrix form ``qf_mat`` and ``mu_terms``.
    ``stage`` is ``point.lambda_stage(params.lam)``; of ``w`` only w, w_t and grad w are read."""
    n = len(point.xs)
    A = multi_indices(n)
    ell = stage["ell"]
    lt = ell[A.t]
    lx = [ell[A.x[j]] for j in range(n)]

    v = th * w["v"]
    vt = th * (lt * w["v"] + w["t"])
    vx = [th * (lx[j] * w["v"] + w["x"][j]) for j in range(n)]
    grad_v_sq = sum(vx[j] ** 2 for j in range(n))
    gl_dot_gv = sum(lx[j] * vx[j] for j in range(n))
    S = -2.0 * lt * vt + 2.0 * gl_dot_gv + stage["Psi"] * v

    # exact regrouping of e1 + e2 + e3 + e4 at the canonical Psi
    rj = point["rho"]
    r_t, r_tt = rj[A.t], rj[A.tt]
    r_x = [rj[A.x[j]] for j in range(n)]
    r_tx = [rj[A.tx[j]] for j in range(n)]
    r_xx = [[rj[A.xx[j][k]] for k in range(n)] for j in range(n)]
    psi0 = point["psi"][A.zero]
    vr = point.vr[A.zero]
    lam, gamma, mu = params.lam, params.gamma, params.mu
    qf_char = 2.0 * lam * gamma**2 * psi0 * (r_t * vt - sum(r_x[j] * vx[j] for j in range(n))) ** 2
    qf_mat = 2.0 * lam * gamma * psi0 * (
        (r_tt - vr) * vt**2
        - 2.0 * sum(r_tx[j] * vx[j] for j in range(n)) * vt
        + sum((r_xx[j][k] + (vr if j == k else 0.0)) * vx[j] * vx[k] for j in range(n) for k in range(n))
    )
    mu_terms = -10.0 * lam * mu * vt**2 + 2.0 * lam * mu * grad_v_sq
    return {
        "v": v, "vt": vt, "vx": vx, "grad_v_sq": grad_v_sq, "gl_dot_gv": gl_dot_gv, "S": S, "s_sq": S**2,
        "qf_char": qf_char, "qf_mat": qf_mat, "mu_terms": mu_terms,
    }


def assemble(
    family: WeightFamily,
    params: WeightParams,
    t,
    xs,
    u_fn: AnalyticFn,
    cutoff: CutoffSpec | None = None,
    base: LambdaFree | None = None,
) -> dict:
    """Both sides of the multiplier identity and their ingredients at (t, xs).

    ``base`` is ``lambda_free(family, params, t, xs, u_fn, cutoff)`` when the
    caller already holds it.  On ``_first_order`` this adds the second-order
    jets of v, div V, dt N and ``e_terms``, the sum of the four quadratic
    derivative terms.  theta = exp(ell) unscaled: a |lam phi| above 350 raises
    RangeError (the scans rescale theta instead, see ``inequality_gap``).
    """
    n = family.n
    if base is None:
        base = lambda_free(family, params, t, xs, u_fn, cutoff)
    point = base.point
    stage = point.lambda_stage(params.lam)
    quant = {**point.values, **stage}
    ell = stage["ell"]
    A = multi_indices(n)
    l0 = ell[A.zero]
    lt, ltt = ell[A.t], ell[A.tt]
    lx = [ell[A.x[j]] for j in range(n)]
    ltx = [ell[A.tx[j]] for j in range(n)]
    lxx = [[ell[A.xx[j][k]] for k in range(n)] for j in range(n)]
    lap_l = sum(lxx[j][j] for j in range(n))

    if float(np.max(np.abs(l0))) > 350.0:
        raise RangeError(f"lam*phi reaches {float(np.max(np.abs(l0))):.3g}; theta^2 overflows")
    th = np.exp(l0)
    w = base.w
    first = _first_order(point, stage, params, th, w)
    v, vt, vx = first["v"], first["vt"], first["vx"]
    grad_v_sq, gl_dot_gv, S = first["grad_v_sq"], first["gl_dot_gv"], first["S"]

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

    Psi, Psi_t, Psi_tt = quant["Psi"], quant["Psi_t"], quant["Psi_tt"]
    Psi_x, lap_Psi = quant["Psi_x"], quant["lap_Psi"]
    a, a_t, a_x = quant["a"], quant["a_t"], quant["a_x"]
    b = quant["b"]

    w_wave = w["tt"] - sum(w["xx"][j][j] for j in range(n))

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

    return {
        **first,
        "theta": th,
        "w": w,
        "w_parts": base.w_parts,
        "vtt": vtt,
        "vtx": vtx,
        "vxx": vxx,
        "w_wave": w_wave,
        "div_V": div_V,
        "dt_N": dt_N,
        "identity_lhs": th * S * w_wave + div_V + dt_N,
        "identity_rhs": e1 + e2 + e3 + e4 + b * v**2 + first["s_sq"],
        "e_terms": e1 + e2 + e3 + e4,
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
) -> IdentityCase:
    """The multiplier identity at one point, deterministic surrogate, from one assembly.

    The surrogate replaces dw_t by w_tt dt, drops the quadratic variation, and
    reads dN as its time derivative; the two sides are then assembled through
    disjoint formula routes and compared.  V and N take the eval_VN route from
    the assembled jet of v and the frame's jets, which the frame forms from
    rho's jet in the assembly's point stage by the chain rule.
    """
    t, x = float(t), [float(v) for v in np.atleast_1d(x)]
    base = lambda_free(family, params, t, x, w_fn)
    out = assemble(family, params, t, x, w_fn, base=base)
    q = out["quant"]
    point, zero = base.point, multi_indices(family.n).zero
    frame = CarlemanFrame.make(t, x, Jet2.from_partials(point["rho"]), params, point.vr[zero])
    # the assembled vxx is symmetric only to roundoff and eval_VN reads no Hessian: its upper triangle serves
    vxx, r = out["vxx"], range(family.n)
    v_jet = Jet2.make(out["v"], out["vt"], out["vx"], out["vtt"], out["vtx"], [[vxx[min(j, k)][max(j, k)] for k in r] for j in r])
    psi_d = PsiDerivatives(float(q["Psi"]), float(q["Psi_t"]), np.array(q["Psi_x"], dtype=float))
    V, N = eval_VN(v_jet, frame, psi_d, float(q["a"]))
    return IdentityCase(_report(out["identity_lhs"], out["identity_rhs"]), frame, V, N)


def conjugation_residual(
    u_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    cutoff: CutoffSpec,
    t: float,
    x,
) -> tuple[IdentityReport, IdentityReport]:
    """Residuals of the conjugation identity and of the cutoff commutation.

    Conjugation: theta (w_tt - lap w) equals the conjugated operator applied
    to v = theta w.  Cutoff: (chi u) propagates the wave operator with the
    commutator chi_tt u + 2 chi_t u_t - 2 grad chi . grad u - lap chi u.
    """
    x = [float(v) for v in np.atleast_1d(x)]
    out = assemble(family, params, float(t), x, u_fn, cutoff=cutoff)
    n = family.n
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
    conj = _report(conj_lhs, conj_rhs)

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
    cut = _report(cut_lhs, cut_rhs)
    return conj, cut


# ---------------------------------------------------------------------------
# Quadratic-variation bookkeeping (Monte Carlo)
# ---------------------------------------------------------------------------

# fewest paths whose Monte Carlo mean a qv-check tolerance can judge
QV_MIN_PATHS = 100


@dataclass(frozen=True)
class QvReport:
    empirical: float           # realized variation of the martingale part
    predicted: float           # compensator integral
    relative_error: float      # |empirical - predicted| / |predicted|, |empirical| when predicted is 0
    standard_error: float


def qv_check(
    grid,
    samplers,
    u0: np.ndarray,
    u1: np.ndarray | None,
    paths: int,
    seed: int,
    family: WeightFamily | None,
    params: WeightParams | None,
) -> QvReport:
    """Realized quadratic variation of v_t against its compensator integral.

    ``u0`` and ``u1`` are the initial data at the nodes (``u1`` None is zero)
    and ``samplers`` the coefficient samplers of ``solver.make_samplers``.
    v = theta u with theta == 1 (ell == 0) when no weight family is given.  The
    martingale increment of v_t over one step is theta (b1 u_t + b2 u + f) dW,
    so its realized variation sums theta^2 D^2 dW^2 while the compensator
    integrates theta^2 D^2 dt, with D evaluated from the state the step
    starts at; zero diffusion gives exactly zero for both.  ``solver.solve``
    records every step and reduces each state to every path's sum of
    theta^2 D^2; both sums then accumulate per path in step order, over every
    state but the last, which starts no step.
    """
    if paths < QV_MIN_PATHS:
        raise StatisticsError(f"qv_check needs at least {QV_MIN_PATHS} paths, got {paths}")
    steps = _solver.recorded_steps(grid.num_steps, 1)
    theta = [1.0] * len(steps)
    if family is not None:
        mesh = list(grid.meshgrid())
        theta = [np.exp(params.lam * family.phi(np.full(grid.shape, k * grid.dt), mesh, params)) for k in steps]
    init = _solver.initial_state(grid, u0, u1, samplers)
    bpaths = _solver.brownian_paths(seed, grid, paths)

    def reduce(k, state):
        diff = _solver.diffusion_arrays(state.u, state.ut, state.time, samplers)
        return (_solver.row_sums(theta[k] ** 2 * diff**2),)

    _, (qv,) = _solver.solve(init, samplers, grid, bpaths, reduce, support_guard=False)
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
    return QvReport(empirical=emp_mean, predicted=pred_mean, relative_error=rel, standard_error=se)


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

    def __post_init__(self):
        if len(self.x_lo) != len(self.x_hi):
            raise ConfigurationError(f"region x_lo has {len(self.x_lo)} entries and x_hi {len(self.x_hi)}")

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
        out = self.dt
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
    rows: tuple
    margins: dict
    homogeneity_pair: tuple[float, float]


# largest |w| jet on the region boundary, relative to its peak, that a scan accepts
SUPPORT_TOL = 1e-10


def _qv_expanded(point: PointStage, params, b1: float, b2: float):
    """Exact expanded compensator lam phi_t (b1 v_t + (b2 - b1 ell_t) v)^2.

    The v v_t cross term is integrated by parts in time; over the compact
    support of v the boundary term vanishes, leaving the phi_tt transport
    terms below.  Returns (coefficient of v_t^2, coefficient of v^2).
    """
    lam = params.lam
    phi_t, phi_tt = point["phi_t"], point["phi_tt"]
    c_vt2 = lam * phi_t * b1**2
    c_v2 = (
        lam * phi_t * (b2 - b1 * lam * phi_t) ** 2
        - lam * b1 * b2 * phi_tt
        + 2.0 * lam**2 * b1**2 * phi_t * phi_tt
    )
    return c_vt2, c_v2


def _structure_min_eig(point: PointStage, params, vr, support_mask) -> float:
    """min over the support of the smallest eigenvalue of 2 gamma psi M(varrho) + mu I, with one
    Jacobi solve per distinct matrix (by its bytes, so +0.0 and -0.0 stay apart)."""
    n = len(point.xs)
    A = multi_indices(n)
    rj = point["rho"]
    idx = np.argwhere(support_mask)
    sel = tuple(idx[:: max(1, len(idx) // 2000)].T)  # cap the eigen loop at ~2000 nodes
    m = np.zeros((len(sel[0]), 1 + n, 1 + n))
    m[:, 0, 0] = rj[A.tt][sel] - vr[sel]
    for j in range(n):
        m[:, 0, 1 + j] = m[:, 1 + j, 0] = -rj[A.tx[j]][sel]
        for k in range(j, n):
            m[:, 1 + j, 1 + k] = m[:, 1 + k, 1 + j] = rj[A.xx[j][k]][sel] + (vr[sel] if j == k else 0.0)
    scaled = (2.0 * params.gamma * point["psi"][A.zero][sel])[:, None, None] * m + params.mu * np.eye(1 + n)
    seen, worst = set(), math.inf
    for mat in scaled:
        key = mat.tobytes()
        if key not in seen:
            seen.add(key)
            worst = min(worst, float(jacobi_eigenvalues(mat)[0]))
    return worst


def _margins(preset: str, point: PointStage, support_mask, params, varrho0, c0: float, c1: float) -> dict:
    """T4.2 / T5.1 coefficient margins on the support of w.  They read w's
    support, phi_t, d2, d3, psi, rho and varrho, none of which depends on lam."""
    if preset not in ("T4.2", "T5.1") or not support_mask.any():
        return {}
    phi_t = point["phi_t"]
    m1 = 0.5 * phi_t * c1**2 - 11.0 * params.mu - params.gamma * c0 * c1**2 / 4.0
    m2 = 0.5 * c1**2 * phi_t**3 + point["d2_matrix"] + point["d3"] - params.gamma**3 * c0**3 * c1**2 / 4.0
    return {
        "vt_margin": float(np.min(m1[support_mask])),
        "v_margin": float(np.min(m2[support_mask])),
        "structure_min_eig": _structure_min_eig(point, params, varrho0, support_mask),
    }


def inequality_gap(
    preset: str,
    u_fn: AnalyticFn,
    family: WeightFamily,
    params: WeightParams,
    lambdas,
    region: RegionSpec,
    cutoff: CutoffSpec | None,
    c0: float,
    c1: float,
    b1: float,
    b2: float,
    paths: int,
    seed: int,
) -> GapScan:
    """Integrated gap of the preset weighted inequality for each lam.

    Every term is evaluated exactly from jets; expectations reduce to plain
    integrals on the deterministic surrogate.  With ``paths`` > 0 the
    compensator term is re-weighted by realized squared Brownian increments
    (mean dt) and the gap is averaged over paths.  The lam-free part
    (``lambda_free``) and the margins are built once; each lam then takes
    one lam stage and one ``_first_order`` pass, and one more pass, with w
    doubled, on the first lam's stage and theta gives the quadratic
    homogeneity pair.  No second-order jet of v is formed.

    theta is rescaled to exp(ell - shift), shift being the largest ell on the
    jet support of w (the nodes where some jet of w is nonzero), and to zero
    off it.  So 0 <= theta <= 1 at every node, and no weight overflows.  Every
    integrated quadratic quantity carries the common factor exp(-2 shift),
    which cancels in the inequality; ``log_scale`` reports 2 shift.  The shift
    does not keep the scaled values of order one: where w is small at the
    largest ell they fall far below it (1.8e-85 at lam 64 on a cone scan) and
    can underflow.
    """
    if preset not in GAP_PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; have {GAP_PRESETS}")
    if preset == "T6.2" and (params.mu != 0.0 or params.gamma != 1.0):
        raise ConfigurationError("the cone preset fixes mu = 0 and gamma = 1")
    T, Xs = region.mesh()
    meas = region.measure
    n = family.n
    base = lambda_free(family, params, T, Xs, u_fn, cutoff)
    point, w = base.point, base.w
    zero = multi_indices(n).zero
    varrho0 = np.broadcast_to(np.asarray(point.vr[zero], dtype=float), T.shape)
    qv_weight = 1.0
    if paths > 0:
        qv_weight = np.zeros_like(T)
        for p in range(paths):
            bw = sample_brownian(seed, region.dt, region.dt * (region.nt - 1), stream=p)
            inc2 = np.concatenate([bw.increments**2 / region.dt, [1.0]])
            qv_weight += inc2.reshape((-1,) + (1,) * n)
        qv_weight /= paths

    # w does not depend on lam and doubling it is exact, so one support check covers every row
    mag = np.abs(w["v"]) + np.abs(w["t"]) + sum(np.abs(a) for a in w["x"])
    support_ratio = _solver.relative_leak(mag, _solver.near_boundary(mag.shape, 1))
    if support_ratio > SUPPORT_TOL:
        raise SupportError(f"field support touches the region boundary (ratio {support_ratio:.3g})")
    # the jet support of w, where theta is kept; off it every theta-weighted term carries a w
    # factor and is exactly zero, so theta is set to zero there instead of overflowing where
    # ell exceeds its on-support maximum
    wmag = (
        np.abs(w["v"]) + np.abs(w["t"]) + np.abs(w["tt"])
        + sum(np.abs(a) for a in w["x"])
        + sum(np.abs(a) for a in w["tx"])
        + sum(np.abs(w["xx"][j][k]) for j in range(n) for k in range(n))
    )
    jet_support = wmag > 0.0
    margins = _margins(preset, point, np.abs(w["v"]) > 0.0, params, varrho0, c0, c1)
    d23 = point["d2_matrix"] + point["d3"]
    w_doubled = {"v": 2.0 * w["v"], "t": 2.0 * w["t"], "x": [2.0 * a for a in w["x"]]}
    rows = []
    for i, lam in enumerate(lambdas):
        lamf = float(lam)
        pl = replace(params, lam=lamf)
        stage = point.lambda_stage(lamf)
        l0 = stage["ell"][zero]
        # shift by the largest ell on the jet support, so theta <= 1 there
        shift = float(np.max(l0[jet_support])) if jet_support.any() else float(np.max(l0))
        th = np.zeros_like(l0)
        th[jet_support] = np.exp(l0[jet_support] - shift)
        log_scale = 2.0 * shift
        c_vt2, c_v2 = _qv_expanded(point, pl, b1, b2)
        # the first lam also takes w doubled, on the same stage and theta, for the homogeneity pair
        for wl in (w, w_doubled) if i == 0 else (w,):
            out = _first_order(point, stage, pl, th, wl)
            vt2, v2 = out["vt"] ** 2, out["v"] ** 2
            comp = {
                "qf_char": float(np.sum(out["qf_char"]) * meas),
                "qf_mat": float(np.sum(out["qf_mat"]) * meas),
                "mu_terms": float(np.sum(out["mu_terms"]) * meas),
                "cubic": float(np.sum(lamf**3 * d23 * v2) * meas),
                "qv": float(np.sum((c_vt2 * vt2 + c_v2 * v2) * qv_weight) * meas),
                "s_sq": float(np.sum(out["s_sq"]) * meas),
                "bound": 0.0,
            }
            if preset == "T3.2":
                gap_scaled = float(np.sum((stage["b"] - lamf**3 * d23) * v2) * meas)
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
                phi_t = point["phi_t"]
                penalty = 3.0 * lamf * np.abs(phi_t) * (b1**2 * vt2 + (b2 - b1 * lamf * phi_t) ** 2 * v2)
                comp["bound"] = float(np.sum(penalty) * meas)
                gap_scaled = (
                    comp["qf_char"] + comp["qf_mat"] + comp["mu_terms"] + comp["cubic"] - comp["bound"]
                )
            else:  # T6.2: mu = 0 so the mu and d3 terms vanish identically
                gap_scaled = comp["qf_char"] + comp["qf_mat"] + comp["cubic"] + comp["qv"]
            gap_raw = gap_scaled * math.exp(log_scale) if log_scale < 700.0 else math.inf * np.sign(gap_scaled)
            rows.append(GapRow(lam=lamf, gap_scaled=gap_scaled, log_scale=log_scale, gap=float(gap_raw), components=comp))
    doubled = rows.pop(1)  # the first lam's second pass, on w doubled
    return GapScan(
        rows=tuple(rows),
        margins=margins,
        homogeneity_pair=(4.0 * rows[0].gap_scaled, doubled.gap_scaled),
    )
