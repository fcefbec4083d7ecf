import math

import numpy as np
import pytest

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 FDDomainError, Range, SolveOptions, dirac_pair_value,
                 duality_gap, fd_gradient, plan_matrix, primal_cost, solve)
from uot.oracle import run_checks

SQ = CostSpec.sq_euclidean()


def test_primal_cost_product_plan_term_by_term():
    # independent spreadsheet-style evaluation with plain loops
    aw, ap = [0.3, 0.7], [[0.0], [1.0]]
    bw, bp = [0.5, 1.1], [[0.2], [0.8]]
    rho, eps = 0.8, 0.4
    alpha = DiscreteMeasure(aw, ap)
    beta = DiscreteMeasure(bw, bp)
    cost = SQ.pairwise(alpha.points, beta.points)
    pi = np.outer(aw, bw)

    mb, ma = sum(bw), sum(aw)
    transport = sum(aw[i] * bw[j] * (ap[i][0] - bp[j][0]) ** 2
                    for i in range(2) for j in range(2))
    kl_term = lambda p: p * math.log(p) - p + 1  # noqa: E731
    d_a = sum(aw[i] * rho * kl_term(mb) for i in range(2))
    d_b = sum(bw[j] * rho * kl_term(ma) for j in range(2))
    reg = sum(aw[i] * bw[j] * kl_term(1.0) for i in range(2) for j in range(2))
    expected = transport + d_a + d_b + eps * reg

    got = primal_cost(pi, alpha, beta, cost, KL(rho), eps)
    assert got == pytest.approx(expected, rel=1e-12)


def test_primal_cost_zero_plan_closed_form():
    alpha = DiscreteMeasure([0.6, 0.9], [[0.0], [1.0]])
    beta = DiscreteMeasure([2.0], [[0.5]])
    cost = SQ.pairwise(alpha.points, beta.points)
    pi = np.zeros((2, 1))
    ma, mb = alpha.total_mass, beta.total_mass
    for entropy in (KL(1.3), TV(0.7)):
        expected = (ma + mb) * entropy.phi_zero + 0.5 * ma * mb
        assert primal_cost(pi, alpha, beta, cost, entropy, 0.5) == pytest.approx(expected)
    assert math.isinf(primal_cost(pi, alpha, beta, cost, Berg(1.0), 0.5))


def test_primal_cost_balanced_indicator():
    alpha = DiscreteMeasure([0.5, 0.5], [[0.0], [1.0]])
    beta = DiscreteMeasure([1.0], [[0.5]])
    cost = SQ.pairwise(alpha.points, beta.points)
    bad = np.array([[0.4], [0.5]])  # row sums != alpha
    assert math.isinf(primal_cost(bad, alpha, beta, cost, Balanced(), 0.5))
    exact = np.array([[0.5], [0.5]])
    assert math.isfinite(primal_cost(exact, alpha, beta, cost, Balanced(), 0.5))


def test_dirac_pair_trivial_kl():
    assert dirac_pair_value(KL(1.0), (1.0, 1.0), 0.0, 1.0) == pytest.approx(0.0, abs=1e-11)


def test_dirac_pair_kl_closed_form():
    val = dirac_pair_value(KL(1.0), (1.0, 1.0), 3.0, 1.0)
    assert val == pytest.approx(3 * (1 - math.exp(-1)), rel=1e-10)


def test_dirac_pair_tv_expensive_transport_kills_plan():
    # for c > 2 rho both TV terms slope at -rho, so the stationarity
    # condition c - 2 rho + eps log(t / (m1 m2)) = 0 gives
    # t* = m1 m2 exp(-(c - 2 rho)/eps) and
    # F* = (m1 + m2) rho + eps m1 m2 (1 - exp(-(c - 2 rho)/eps)):
    # the zero-plan value minus the entropic correction eps t*
    rho, eps, m1, m2 = 0.4, 0.3, 1.2, 0.9
    c = 2 * rho + 1.0
    val = dirac_pair_value(TV(rho), (m1, m2), c, eps)
    expected = (m1 + m2) * rho + eps * m1 * m2 * (1 - math.exp(-(c - 2 * rho) / eps))
    assert val == pytest.approx(expected, abs=1e-10)


def test_dirac_pair_monotone_in_cost_and_bounded():
    rng = np.random.default_rng(50)
    for entropy in (KL(0.7), TV(0.9), Berg(1.1)):
        m1, m2 = rng.uniform(0.5, 2.0, 2)
        cs = np.linspace(0.0, 6.0, 13)
        vals = [dirac_pair_value(entropy, (m1, m2), c, 0.5) for c in cs]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))
        if entropy.phi_zero < math.inf:
            bound = (m1 + m2) * entropy.phi_zero + 0.5 * m1 * m2
            assert all(v <= bound + 1e-10 for v in vals)


def test_dirac_pair_balanced_and_infeasible_range():
    assert math.isinf(dirac_pair_value(Balanced(), (1.0, 2.0), 1.0, 0.5))
    assert math.isinf(dirac_pair_value(Range(a=0.5, b=1.5), (1.0, 4.0), 1.0, 0.5))
    v = dirac_pair_value(Balanced(), (1.0, 1.0), 2.0, 0.5)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_fd_gradient_quadratic_self_test():
    rng = np.random.default_rng(51)
    m = DiscreteMeasure(rng.uniform(0.5, 1.5, 5), rng.random((5, 2)))

    def quad(measure):
        return float(np.sum(measure.weights ** 2) + np.sum(measure.points ** 2))

    dw, dp = fd_gradient(quad, m, h=1e-6)
    assert np.allclose(dw, 2 * m.weights, atol=1e-8)
    assert np.allclose(dp, 2 * m.points, atol=1e-8)


def test_fd_gradient_rejects_infinite_probe():
    m = DiscreteMeasure([1.0], [[0.0]])
    with pytest.raises(FDDomainError):
        fd_gradient(lambda _: math.inf, m, h=1e-5)


def test_fd_gradient_rejects_vanishing_weight():
    m = DiscreteMeasure([1e-7], [[0.0]])
    with pytest.raises(FDDomainError):
        fd_gradient(lambda mm: mm.total_mass, m, h=1e-5)


def test_duality_gap_dirac_pair():
    a = DiscreteMeasure([1.0], [[0.0]])
    b = DiscreteMeasure([1.0], [[1.0]])
    cost = SQ.pairwise(a.points, b.points)
    pots, _ = solve(a, b, cost, KL(1.0), 0.5, SolveOptions(tol=1e-13))
    gap = duality_gap(a, b, cost, KL(1.0), 0.5, pots)
    assert abs(gap.gap) <= 1e-10
    assert gap.gap == gap.primal - gap.dual


def test_duality_gap_random_kl_instance():
    rng = np.random.default_rng(52)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 20) / 20, rng.random((20, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 20) / 20, rng.random((20, 2)))
    cost = SQ.pairwise(a.points, b.points)
    pots, _ = solve(a, b, cost, KL(1.0), 0.2, SolveOptions(tol=1e-11))
    gap = duality_gap(a, b, cost, KL(1.0), 0.2, pots)
    assert abs(gap.gap) <= 1e-6 * (1 + abs(gap.dual))


@pytest.mark.parametrize("rho", [0.3, 1.0])
def test_duality_gap_random_tv_instance(rho):
    # TV's dual value sums the plan; Range is left out, because at the
    # solver's output its marginal ratios sit just outside [a, b], where
    # its primal is inf.  On [0, 3]^2 both potentials have entries strictly
    # inside (-rho, rho), where the plan's marginals are matched
    rng = np.random.default_rng(55)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 12), 3 * rng.random((12, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 15), 3 * rng.random((15, 2)))
    a, b = a.scaled(1 / a.total_mass), b.scaled(1.4 / b.total_mass)
    cost = SQ.pairwise(a.points, b.points)
    pots, report = solve(a, b, cost, TV(rho), 0.2, SolveOptions(tol=1e-12))
    assert report.converged
    gap = duality_gap(a, b, cost, TV(rho), 0.2, pots)
    assert abs(gap.gap) <= 1e-10 * (1 + abs(gap.dual))


def test_duality_gap_balanced_reports_marginal_residuals():
    rng = np.random.default_rng(53)
    aw = rng.uniform(0.5, 1.5, 15)
    bw = rng.uniform(0.5, 1.5, 18)
    a = DiscreteMeasure(aw / aw.sum(), rng.random((15, 2)))
    b = DiscreteMeasure(bw / bw.sum(), rng.random((18, 2)))
    cost = SQ.pairwise(a.points, b.points)
    pots, _ = solve(a, b, cost, Balanced(), 0.2, SolveOptions(tol=1e-11))
    gap = duality_gap(a, b, cost, Balanced(), 0.2, pots)
    assert max(gap.marginal_residuals) <= 1e-6


def test_weak_duality_holds_even_before_convergence():
    rng = np.random.default_rng(54)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 10) / 10, rng.random((10, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 12) / 12, rng.random((12, 2)))
    cost = SQ.pairwise(a.points, b.points)
    for max_iter in (1, 3, 10, 100):
        pots, _ = solve(a, b, cost, Berg(1.0), 0.3,
                        SolveOptions(max_iter=max_iter))
        pi = plan_matrix(pots, a, b, cost)
        primal = primal_cost(pi, a, b, cost, Berg(1.0), 0.3)
        from uot import dual_value
        assert primal >= dual_value(pots, a, b, cost) - 1e-9


def test_run_checks_all_pass():
    report = run_checks(seed=0)
    assert report["all_passed"]
    assert set(report["checks"]) >= {"lambert_w_residuals", "dirac_kl_closed_form",
                                     "duality_gap_smooth", "balanced_marginals"}
