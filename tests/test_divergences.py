import math

import numpy as np
import pytest

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 DomainError, Power, Range, SolveOptions,
                 UnsupportedEntropyError, dual_value, grad_positions,
                 grad_weights, hausdorff_divergence, ot_eps,
                 sinkhorn_divergence, sinkhorn_entropy, solve)
from uot.divergences import quadratic_term, solve_terms
from uot.sinkhorn import extrapolate

SQ = CostSpec.sq_euclidean()
TIGHT = SolveOptions(tol=1e-12, max_iter=100000)


def kl_dirac_value(rho, eps, c):
    scale = 2 * rho + eps
    return scale * (1 - math.exp(-c / scale))


def dirac_pair(c, m1=1.0, m2=1.0):
    return (DiscreteMeasure([m1], [[0.0]]),
            DiscreteMeasure([m2], [[math.sqrt(c)]]))


def random_measure(rng, n, d=2, lo=0.5, hi=1.5):
    return DiscreteMeasure(rng.uniform(lo, hi, n) / n, rng.random((n, d)))


# ---------------------------------------------------------------- ot_eps


@pytest.mark.parametrize("rho,eps,c", [(1.0, 1.0, 3.0), (0.5, 0.1, 1.0),
                                       (2.0, 0.5, 0.25)])
def test_ot_eps_kl_dirac_closed_form(rho, eps, c):
    a, b = dirac_pair(c)
    res = ot_eps(a, b, SQ, KL(rho), eps, TIGHT)
    assert res.value == pytest.approx(kl_dirac_value(rho, eps, c), rel=1e-10)


def test_ot_eps_identical_diracs_balanced_is_zero():
    a, b = dirac_pair(0.0)
    res = ot_eps(a, b, SQ, Balanced(), 1.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_ot_eps_null_measure_closed_forms():
    null = DiscreteMeasure([], [])
    beta = DiscreteMeasure([1.0, 2.0], [[0.0], [1.0]])
    assert ot_eps(null, beta, SQ, KL(1.5), 1.0).value == pytest.approx(4.5)
    assert ot_eps(beta, null, SQ, TV(0.5), 1.0).value == pytest.approx(1.5)
    assert math.isinf(ot_eps(null, beta, SQ, Berg(1.0), 1.0).value)
    assert math.isinf(ot_eps(null, beta, SQ, Balanced(), 1.0).value)
    assert ot_eps(null, null, SQ, Berg(1.0), 1.0).value == 0.0
    assert ot_eps(null, beta, SQ, Range(a=0.0, b=1.0), 1.0).value == 0.0


def test_ot_eps_infeasible_range():
    a, b = dirac_pair(1.0, m1=1.0, m2=4.0)
    res = ot_eps(a, b, SQ, Range(a=0.5, b=1.5), 1.0)
    assert math.isinf(res.value)
    assert res.report.status == "infeasible"


def test_ot_eps_is_symmetric_in_its_arguments():
    rng = np.random.default_rng(30)
    a, b = random_measure(rng, 12), random_measure(rng, 15)
    for entropy in (KL(0.7), TV(0.5), Berg(1.2)):
        v1 = ot_eps(a, b, SQ, entropy, 0.3, TIGHT).value
        v2 = ot_eps(b, a, SQ, entropy, 0.3, TIGHT).value
        assert v1 == pytest.approx(v2, rel=1e-10)


def test_quadratic_term_diagnostic_agreement():
    # the O(NM) LSE evaluation and the pointwise conjugate-derivative form
    # must agree at convergence
    rng = np.random.default_rng(31)
    a, b = random_measure(rng, 10), random_measure(rng, 13)
    tol = 1e-11
    for entropy in (KL(1.0), Berg(0.9), Power(1.1, s=0.5)):
        c_ab = SQ.pairwise(a.points, b.points)
        pots, _ = solve(a, b, c_ab, entropy, 0.4, SolveOptions(tol=tol))
        q_lse = quadratic_term(pots, a, b, c_ab, method="lse")
        q_conj = quadratic_term(pots, a, b, c_ab, method="conj")
        assert abs(q_lse - q_conj) <= 10 * tol * (a.total_mass + b.total_mass)


def test_kl_value_matches_symmetrized_dual_formula():
    # <a, rho - (rho + eps/2) e^{-f/rho}> + <b, ...> + eps m(a) m(b)
    rng = np.random.default_rng(32)
    a, b = random_measure(rng, 9), random_measure(rng, 11)
    rho, eps = 0.8, 0.3
    c_ab = SQ.pairwise(a.points, b.points)
    pots, _ = solve(a, b, c_ab, KL(rho), eps, SolveOptions(tol=1e-13))
    lhs = dual_value(pots, a, b, c_ab)
    coef = rho + eps / 2
    rhs = (float(a.weights @ (rho - coef * np.exp(-pots.f / rho)))
           + float(b.weights @ (rho - coef * np.exp(-pots.g / rho)))
           + eps * a.total_mass * b.total_mass)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_high_temperature_limit():
    # OT_eps -> <a, C*b> + m(a) phi(m(b)) + m(b) phi(m(a))
    rng = np.random.default_rng(33)
    a = random_measure(rng, 8)
    b = random_measure(rng, 9, lo=1.0, hi=2.0)
    c_ab = SQ.pairwise(a.points, b.points)
    ma, mb = a.total_mass, b.total_mass
    for entropy in (KL(1.0), TV(0.7)):
        limit = (float(a.weights @ c_ab @ b.weights)
                 + ma * float(entropy.phi(mb)) + mb * float(entropy.phi(ma)))
        devs = [abs(ot_eps(a, b, SQ, entropy, eps, TIGHT).value - limit)
                for eps in (1e2, 1e3, 1e4)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 0.01 * abs(limit)


# ------------------------------------------------------- sinkhorn_entropy


def test_entropy_of_unit_dirac():
    a = DiscreteMeasure([1.0], [[0.3]])
    res = sinkhorn_entropy(a, SQ, KL(1.0), 1.0)
    assert res.value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("entropy", [KL(1.0), TV(0.5), Balanced(), Berg(1.0)],
                         ids=["kl", "tv", "balanced", "berg"])
def test_divergence_between_two_null_measures_is_zero(entropy):
    # F_eps(null) is inf when phi(0) is; S_eps still vanishes on the diagonal
    null_a, null_b = DiscreteMeasure([], []), DiscreteMeasure([], [])
    res = sinkhorn_divergence(null_a, null_b, SQ, entropy, 0.5)
    assert res.value == 0.0
    assert res.report.converged
    assert solve_terms(null_a, null_b, SQ, entropy, 0.5, "s").value().value == 0.0


def test_entropy_of_null_measure():
    null = DiscreteMeasure([], [])
    assert sinkhorn_entropy(null, SQ, KL(1.0), 1.0).value == 0.0
    assert sinkhorn_entropy(null, SQ, TV(1.0), 1.0).value == 0.0
    assert math.isinf(sinkhorn_entropy(null, SQ, Berg(1.0), 1.0).value)


@pytest.mark.parametrize("entropy", [KL(1.0), Berg(0.8), TV(0.5)])
def test_entropy_identity_against_generic_solver(entropy):
    rng = np.random.default_rng(34)
    a = random_measure(rng, 14)
    f_eps = sinkhorn_entropy(a, SQ, entropy, 0.3, TIGHT).value
    b = DiscreteMeasure(a.weights.copy(), a.points.copy())
    ot_aa = ot_eps(a, b, SQ, entropy, 0.3, TIGHT).value
    m = a.total_mass
    assert f_eps == pytest.approx(-0.5 * ot_aa + 0.5 * 0.3 * m * m, abs=1e-8)


# --------------------------------------------------- sinkhorn_divergence


def test_divergence_vanishes_on_diagonal():
    rng = np.random.default_rng(35)
    a = random_measure(rng, 10)
    assert sinkhorn_divergence(a, a, SQ, KL(1.0), 0.5).value == 0.0


def test_divergence_kl_dirac_closed_form():
    rho, eps, c = 1.0, 1.0, 3.0
    a, b = dirac_pair(c)
    res = sinkhorn_divergence(a, b, SQ, KL(rho), eps, TIGHT)
    assert res.value == pytest.approx(kl_dirac_value(rho, eps, c), rel=1e-9)


def test_divergence_nonnegative_on_random_pairs():
    rng = np.random.default_rng(36)
    for _ in range(5):
        a, b = random_measure(rng, 10), random_measure(rng, 10)
        val = sinkhorn_divergence(a, b, SQ, KL(0.8), 0.4, TIGHT).value
        assert val >= -1e-10


def test_divergence_infeasible_cross_term():
    a, b = dirac_pair(1.0, m1=1.0, m2=4.0)
    assert math.isinf(sinkhorn_divergence(a, b, SQ, Range(a=0.5, b=1.5), 1.0).value)


def test_divergence_reports_a_self_solve_stopped_at_max_iter():
    # on this instance the cross solve converges in 23 sweeps and the self
    # solve of ``a`` needs 24: a budget of 23 stops only the self solve
    n = 8
    rng = np.random.default_rng([4, n])
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n * 1.2, rng.random((n, 2)))
    assert ot_eps(a, b, SQ, KL(0.1), 0.05).report.iterations == 23
    assert sinkhorn_entropy(a, SQ, KL(0.1), 0.05).report.iterations == 24
    res = sinkhorn_divergence(a, b, SQ, KL(0.1), 0.05,
                              SolveOptions(max_iter=23))
    assert res.report.status == "max_iter"
    assert res.report.iterations > 23  # sweeps of all three solves


# ------------------------------------------------------------- hausdorff


def test_hausdorff_vanishes_on_diagonal():
    rng = np.random.default_rng(37)
    a = random_measure(rng, 8)
    assert hausdorff_divergence(a, a, SQ, KL(1.0), 0.5).value == 0.0


def test_hausdorff_bounds_against_divergence():
    rng = np.random.default_rng(38)
    for _ in range(5):
        a, b = random_measure(rng, 9), random_measure(rng, 12)
        h = hausdorff_divergence(a, b, SQ, KL(0.9), 0.4, TIGHT).value
        s = sinkhorn_divergence(a, b, SQ, KL(0.9), 0.4, TIGHT).value
        assert -1e-10 <= h <= 2 * s + 1e-10


def test_hausdorff_unsupported_for_nonsmooth():
    a, b = dirac_pair(1.0)
    for entropy in (TV(1.0), Balanced(), Range(a=0.5, b=1.5)):
        with pytest.raises(UnsupportedEntropyError):
            hausdorff_divergence(a, b, SQ, entropy, 1.0)


def test_hausdorff_kl_closed_form():
    # (rho + eps) <a - b, e^{-f_a/rho} - e^{-g_b/rho}> with the symmetric
    # potentials extended across supports
    rng = np.random.default_rng(39)
    a, b = random_measure(rng, 7), random_measure(rng, 9)
    rho, eps = 1.1, 0.5
    h = hausdorff_divergence(a, b, SQ, KL(rho), eps, TIGHT).value
    from uot.sinkhorn import symmetric_potentials
    pa, _ = symmetric_potentials(a, SQ.pairwise(a.points, a.points), KL(rho), eps, TIGHT)
    pb, _ = symmetric_potentials(b, SQ.pairwise(b.points, b.points), KL(rho), eps, TIGHT)
    fa_on_b = extrapolate(pa, "a", a, b.points, SQ)
    gb_on_a = extrapolate(pb, "a", b, a.points, SQ)
    expected = (rho + eps) * (
        float(a.weights @ (np.exp(-pa.f / rho) - np.exp(-gb_on_a / rho)))
        - float(b.weights @ (np.exp(-fa_on_b / rho) - np.exp(-pb.f / rho))))
    assert h == pytest.approx(expected, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------- gradients


def test_weight_gradient_identical_diracs_is_zero():
    a, b = dirac_pair(0.0)
    g = grad_weights(a, b, SQ, KL(1.0), 0.5, "ot", TIGHT)
    assert g.d_weights_a[0] == pytest.approx(0.0, abs=1e-10)
    assert g.d_weights_b[0] == pytest.approx(0.0, abs=1e-10)


def test_weight_gradient_matches_kl_closed_form():
    # (rho + eps m(b)) - (rho + eps) exp(-f / rho)
    rng = np.random.default_rng(40)
    a, b = random_measure(rng, 8), random_measure(rng, 10)
    rho, eps = 0.9, 0.35
    c_ab = SQ.pairwise(a.points, b.points)
    pots, _ = solve(a, b, c_ab, KL(rho), eps, SolveOptions(tol=1e-12))
    g = grad_weights(a, b, SQ, KL(rho), eps, "ot", SolveOptions(tol=1e-12))
    expected = (rho + eps * b.total_mass) - (rho + eps) * np.exp(-pots.f / rho)
    assert np.allclose(g.d_weights_a, expected, atol=1e-9)


@pytest.mark.parametrize("entropy", [KL(1.0), Berg(1.0)])
@pytest.mark.parametrize("which", ["ot", "s"])
def test_weight_gradient_matches_finite_differences(entropy, which):
    from uot.oracle import fd_gradient
    rng = np.random.default_rng(41)
    a, b = random_measure(rng, 6), random_measure(rng, 7)
    eps = 0.4
    fn = ot_eps if which == "ot" else sinkhorn_divergence

    def value(m):
        return fn(m, b, SQ, entropy, eps, TIGHT).value

    fd_w, _ = fd_gradient(value, a, h=1e-5)
    g = grad_weights(a, b, SQ, entropy, eps, which, TIGHT)
    scale = max(np.max(np.abs(fd_w)), 1e-12)
    assert np.max(np.abs(g.d_weights_a - fd_w)) / scale <= 1e-5


def test_divergence_weight_gradient_vanishes_at_equal_measures():
    rng = np.random.default_rng(42)
    a = random_measure(rng, 9)
    b = DiscreteMeasure(a.weights.copy(), a.points.copy())
    g = grad_weights(a, b, SQ, KL(1.0), 0.5, "s", TIGHT)
    assert np.max(np.abs(g.d_weights_a)) <= 1e-8
    assert np.max(np.abs(g.d_weights_b)) <= 1e-8


def test_weight_gradient_unsupported_entropies():
    a, b = dirac_pair(1.0)
    for entropy in (Balanced(), TV(1.0), Range(a=0.5, b=1.5)):
        with pytest.raises(UnsupportedEntropyError):
            grad_weights(a, b, SQ, entropy, 1.0)


def test_position_gradient_dirac_pair_formula():
    rho, eps, c = 1.0, 0.5, 2.0
    a, b = dirac_pair(c)
    g = grad_positions(a, b, SQ, KL(rho), eps, "ot", TIGHT)
    t = math.exp(-c / (2 * rho + eps))
    expected = 2 * t * (a.points[0] - b.points[0])
    assert np.allclose(g.d_points_a[0], expected, rtol=1e-9)
    assert np.allclose(g.d_points_b[0], -expected, rtol=1e-9)


@pytest.mark.parametrize("entropy", [KL(1.0), Berg(1.0)])
@pytest.mark.parametrize("which", ["ot", "s"])
def test_position_gradient_matches_finite_differences(entropy, which):
    from uot.oracle import fd_gradient
    rng = np.random.default_rng(43)
    a, b = random_measure(rng, 6), random_measure(rng, 7)
    eps = 0.4
    fn = ot_eps if which == "ot" else sinkhorn_divergence

    def value(m):
        return fn(m, b, SQ, entropy, eps, TIGHT).value

    _, fd_p = fd_gradient(value, a, h=1e-5)
    g = grad_positions(a, b, SQ, entropy, eps, which, TIGHT)
    scale = max(np.max(np.abs(fd_p)), 1e-12)
    assert np.max(np.abs(g.d_points_a - fd_p)) / scale <= 1e-5
    if which == "ot":
        # other side, via symmetry of the value in its two arguments
        value_b = lambda m: ot_eps(a, m, SQ, entropy, eps, TIGHT).value  # noqa: E731
        fd_wb, fd_pb = fd_gradient(value_b, b, h=1e-5)
        gw = grad_weights(a, b, SQ, entropy, eps, "ot", TIGHT)
        assert np.max(np.abs(g.d_points_b - fd_pb)) <= 1e-5 * max(np.max(np.abs(fd_pb)), 1e-12)
        assert np.max(np.abs(gw.d_weights_b - fd_wb)) <= 1e-5 * max(np.max(np.abs(fd_wb)), 1e-12)


def test_divergence_position_gradient_vanishes_at_equal_measures():
    rng = np.random.default_rng(44)
    a = random_measure(rng, 8)
    b = DiscreteMeasure(a.weights.copy(), a.points.copy())
    g = grad_positions(a, b, SQ, KL(1.0), 0.5, "s", TIGHT)
    assert np.max(np.abs(g.d_points_a)) <= 1e-8


def test_position_gradient_balanced_is_available():
    rng = np.random.default_rng(45)
    a = random_measure(rng, 6)
    b = random_measure(rng, 6)
    a = a.scaled(1 / a.total_mass)
    b = b.scaled(1 / b.total_mass)
    g = grad_positions(a, b, SQ, Balanced(), 0.3, "s", TIGHT)
    assert np.all(np.isfinite(g.d_points_a))


def test_position_gradient_coincident_distance_cost_rejected():
    a = DiscreteMeasure([1.0], [[0.0, 0.0]])
    b = DiscreteMeasure([1.0], [[0.0, 0.0]])
    with pytest.raises(DomainError):
        grad_positions(a, b, CostSpec.euclidean_pow(1.0), KL(1.0), 0.5)


# --------------------------------------------------- spatially varying KL


def test_spatially_varying_kl_solve_and_gap():
    from uot.oracle import duality_gap
    rng = np.random.default_rng(46)
    a = random_measure(rng, 8)
    b = random_measure(rng, 10)
    entropy = KL(1.0, rho_fn=lambda pts: 0.5 + pts[:, 0])
    c_ab = SQ.pairwise(a.points, b.points)
    pots, rep = solve(a, b, c_ab, entropy, 0.3, SolveOptions(tol=1e-12))
    assert rep.converged
    gap = duality_gap(a, b, c_ab, entropy, 0.3, pots)
    assert abs(gap.gap) <= 1e-8 * (1 + abs(gap.dual))


def test_spatially_varying_null_value_integrates_rho():
    null = DiscreteMeasure([], [])
    beta = DiscreteMeasure([1.0, 2.0], [[0.0], [1.0]])
    entropy = KL(1.0, rho_fn=lambda pts: 1.0 + pts[:, 0])
    # integral of rho(y) d(beta): 1*1 + 2*2
    assert ot_eps(null, beta, SQ, entropy, 1.0).value == pytest.approx(5.0)
