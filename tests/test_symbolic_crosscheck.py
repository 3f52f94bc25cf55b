"""Independent symbolic route for the multiplier identity.

These tests rebuild every quantity by composing sympy expressions directly
(psi, phi, ell, Psi, v, the flux vector, the time density, both identity
sides) and differentiating the composites, with no reuse of the package's
chain-rule assembly.  Agreement to roundoff pins the assembly formulas.
"""

import pytest
import sympy as sp

from carleman_lab.fields import _coordinates
from carleman_lab.weights import WeightFamily, WeightParams
from carleman_lab.identities import assemble, identity_case

from oracles import expression_fn

T_SYM, X_SYMS = _coordinates()


def _symbolic_pipeline():
    t, x = T_SYM, X_SYMS[0]
    rho_expr = sp.Rational(4, 5) / sp.Integer(10) * sp.sin(sp.Rational(11, 10) * t + sp.Rational(1, 5)) * sp.cos(
        sp.Rational(9, 10) * x + sp.Rational(2, 5)
    )
    vr_expr = sp.Rational(1, 2) + sp.Rational(3, 10) * t + sp.Rational(1, 10) * t**2 - sp.Rational(1, 10) * x + sp.Rational(1, 5) * x**2
    w_expr = sp.Rational(13, 10) * sp.exp(
        -sp.Rational(1, 5) * t**2 + sp.Rational(1, 10) * t - sp.Rational(3, 20) * x**2 + sp.Rational(1, 20) * x
    )
    lam, gamma, mu, t0, x0 = sp.Rational(3), sp.Rational(17, 10), sp.Rational(7, 20), sp.Rational(1, 10), sp.Rational(1, 5)

    psi = sp.exp(gamma * rho_expr)
    phi = psi - mu * ((t - t0) ** 2 + (x - x0) ** 2)
    ell = lam * phi
    Psi = sp.diff(ell, x, 2) - sp.diff(ell, t, 2) + 2 * lam * gamma * psi * vr_expr + 6 * lam * mu
    v = sp.exp(ell) * w_expr

    ell_t, ell_x = sp.diff(ell, t), sp.diff(ell, x)
    v_t, v_x = sp.diff(v, t), sp.diff(v, x)
    S = -2 * ell_t * v_t + 2 * ell_x * v_x + Psi * v
    A = ell_t**2 - sp.diff(ell, t, 2) - ell_x**2 + sp.diff(ell, x, 2) - Psi
    N = (
        ell_t * v_x**2
        + ell_t * v_t**2
        - 2 * ell_x * v_x * v_t
        - Psi * v * v_t
        + (A * ell_t + sp.diff(Psi, t) / 2) * v**2
    )
    B = A * Psi + sp.diff(A * ell_t, t) - sp.diff(A * ell_x, x) + (sp.diff(Psi, t, 2) - sp.diff(Psi, x, 2)) / 2
    V = (
        2 * (ell_x * v_x) * v_x
        - ell_x * v_x**2
        - 2 * ell_t * v_x * v_t
        + ell_x * v_t**2
        + Psi * v * v_x
        - sp.diff(Psi, x) / 2 * v**2
        - A * v**2 * ell_x
    )
    lhs = sp.exp(ell) * S * (sp.diff(w_expr, t, 2) - sp.diff(w_expr, x, 2)) + sp.diff(V, x) + sp.diff(N, t)
    rhs = (
        (sp.diff(ell, t, 2) + sp.diff(ell, x, 2) - Psi) * v_t**2
        + (sp.diff(ell, t, 2) - sp.diff(ell, x, 2) + Psi) * v_x**2
        + 2 * sp.diff(ell, x, 2) * v_x**2
        - 4 * sp.diff(ell, t, x) * v_x * v_t
        + B * v**2
        + S**2
    )
    return rho_expr, vr_expr, w_expr, {"lhs": lhs, "rhs": rhs, "V": V, "N": N, "A": A, "B": B, "Psi": Psi}


@pytest.fixture(scope="module")
def pipeline():
    rho_expr, vr_expr, w_expr, sym = _symbolic_pipeline()
    lam = sp.lambdify((T_SYM, X_SYMS[0]), [sym["lhs"], sym["rhs"], sym["V"], sym["N"], sym["A"], sym["B"], sym["Psi"]], modules="numpy", cse=True)
    rho = expression_fn("cross_rho", rho_expr, 1, {})
    vr = expression_fn("cross_vr", vr_expr, 1, {})
    w = expression_fn("cross_w", w_expr, 1, {})
    family = WeightFamily(rho, vr)
    params = WeightParams(lam=3.0, gamma=1.7, mu=0.35, t0=0.1, x0=(0.2,))
    return lam, w, family, params


POINTS = [(0.37, 0.51), (-0.2, 0.3), (0.05, -0.45), (0.6, 0.1)]


@pytest.mark.parametrize("t,x", POINTS)
def test_identity_sides_match_symbolic_composition(pipeline, t, x):
    lam, w, family, params = pipeline
    lhs_ref, rhs_ref, _, _, _, _, _ = (float(v) for v in lam(t, x))
    rep = identity_case(w, family, params, t, [x]).report
    assert rep.lhs == pytest.approx(lhs_ref, rel=1e-11)
    assert rep.rhs == pytest.approx(rhs_ref, rel=1e-11)
    assert lhs_ref == pytest.approx(rhs_ref, rel=1e-9)


@pytest.mark.parametrize("t,x", POINTS)
def test_flux_and_density_match_symbolic_composition(pipeline, t, x):
    lam, w, family, params = pipeline
    _, _, v_ref, n_ref, _, _, _ = (float(v) for v in lam(t, x))
    case = identity_case(w, family, params, t, [x])
    V, N = case.V, case.N
    assert float(V[0]) == pytest.approx(v_ref, rel=1e-11)
    assert N == pytest.approx(n_ref, rel=1e-11)


@pytest.mark.parametrize("t,x", POINTS)
def test_coefficients_match_symbolic_composition(pipeline, t, x):
    lam, w, family, params = pipeline
    _, _, _, _, a_ref, b_ref, psi_ref = (float(v) for v in lam(t, x))
    q = family.quantities(t, [x], params)
    assert float(q["a"]) == pytest.approx(a_ref, rel=1e-12)
    assert float(q["b"]) == pytest.approx(b_ref, rel=1e-12)
    assert float(q["Psi"]) == pytest.approx(psi_ref, rel=1e-12)


@pytest.mark.parametrize("t,x", POINTS[:2])
def test_divergence_terms_match_symbolic_composition(pipeline, t, x):
    lam, w, family, params = pipeline
    out = assemble(family, params, t, [x], w)
    lhs_ref, rhs_ref, *_ = (float(v) for v in lam(t, x))
    assert float(out["identity_lhs"]) == pytest.approx(lhs_ref, rel=1e-11)
    assert float(out["identity_rhs"]) == pytest.approx(rhs_ref, rel=1e-11)
