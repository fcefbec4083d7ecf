import math

import numpy as np
import pytest

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 DomainError, DualPotentials, Range, SolveOptions, extrapolate,
                 half_update, implicit_plan, plan_matrix, softmin, solve,
                 solve_symmetric)

SQ = CostSpec.sq_euclidean()


def dirac_pair(c, m1=1.0, m2=1.0):
    a = DiscreteMeasure([m1], [[0.0]])
    b = DiscreteMeasure([m2], [[math.sqrt(c)]])
    return a, b, SQ.pairwise(a.points, b.points)


def random_pair(rng, n, m, d=2):
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, d)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, m) / m, rng.random((m, d)))
    return a, b, SQ.pairwise(a.points, b.points)


def run_solver(symmetric, a, b, cost=None, eps=0.5, **opts):
    """``solve(a, b)``, or ``solve_symmetric(a)`` when ``symmetric``, under
    KL(1); ``cost`` defaults to the squared distances it expects."""
    other = a if symmetric else b
    if cost is None:
        cost = SQ.pairwise(a.points, other.points)
    if symmetric:
        return solve_symmetric(a, cost, KL(1.0), eps, SolveOptions(**opts))
    return solve(a, b, cost, KL(1.0), eps, SolveOptions(**opts))


# ---------------------------------------------------------------- softmin


def test_softmin_single_atom():
    m = DiscreteMeasure([0.3], [[0.0]])
    assert softmin(1.0, m, [2.0]) == pytest.approx(2.0 - math.log(0.3))
    assert softmin(0.5, m, [2.0]) == pytest.approx(2.0 - 0.5 * math.log(0.3))


def test_softmin_constant_on_probability_measure():
    m = DiscreteMeasure([0.25, 0.25, 0.5], [[0.0], [1.0], [2.0]])
    for eps in (1e-3, 1.0, 100.0):
        assert softmin(eps, m, [7.5, 7.5, 7.5]) == pytest.approx(7.5, abs=1e-12)


def test_softmin_small_eps_value():
    m = DiscreteMeasure([0.5, 0.5], [[0.0], [1.0]])
    assert softmin(1e-3, m, [0.0, 1.0]) == pytest.approx(1e-3 * math.log(2), rel=1e-9)


def test_softmin_null_measure_rejected():
    with pytest.raises(DomainError):
        softmin(1.0, DiscreteMeasure([], []), np.zeros(0))


def test_softmin_non_expansive():
    rng = np.random.default_rng(10)
    m = DiscreteMeasure(rng.uniform(0.1, 1.0, 20), rng.random((20, 2)))
    for _ in range(50):
        h1 = rng.standard_normal(20)
        h2 = rng.standard_normal(20)
        gap = abs(softmin(0.3, m, h1) - softmin(0.3, m, h2))
        assert gap <= np.max(np.abs(h1 - h2)) + 1e-12


def test_softmin_order_preserving():
    rng = np.random.default_rng(11)
    m = DiscreteMeasure(rng.uniform(0.1, 1.0, 15), rng.random((15, 1)))
    for _ in range(50):
        h1 = rng.standard_normal(15)
        h2 = h1 + rng.uniform(0.0, 1.0, 15)
        assert softmin(0.7, m, h1) <= softmin(0.7, m, h2) + 1e-12


def test_softmin_translation_invariant():
    rng = np.random.default_rng(12)
    m = DiscreteMeasure(rng.uniform(0.1, 1.0, 9), rng.random((9, 1)))
    h = rng.standard_normal(9)
    for k in (-5.0, 0.3, 12.0):
        assert softmin(0.2, m, h + k) == pytest.approx(
            softmin(0.2, m, h) + k, abs=1e-12)


def test_softmin_interpolates_between_min_and_mean():
    rng = np.random.default_rng(13)
    w = rng.uniform(0.1, 1.0, 12)
    m = DiscreteMeasure(w / w.sum(), rng.random((12, 1)))
    h = rng.standard_normal(12)
    mean = float(m.weights @ h)
    assert softmin(1e6, m, h) == pytest.approx(mean, abs=1e-4)
    assert softmin(1e-6, m, h) == pytest.approx(
        float(np.min(h)), abs=1e-4 * float(np.ptp(h)))


# ---------------------------------------------------------------- half update


def test_half_update_balanced_identical_diracs():
    a, b, cost = dirac_pair(0.0)
    f = half_update(1.0, Balanced(), b, np.zeros(1), cost)
    assert f[0] == pytest.approx(0.0, abs=1e-15)


def test_half_update_kl_diracs():
    rho, eps, c = 0.8, 0.4, 2.0
    a, b, cost = dirac_pair(c)
    f = half_update(eps, KL(rho), b, np.zeros(1), cost)
    assert f[0] == pytest.approx(rho * c / (rho + eps), rel=1e-12)


@pytest.mark.parametrize("entropy", [Balanced(), KL(0.7), TV(0.5),
                                     Range(a=0.5, b=1.5), Berg(1.2)])
def test_half_update_fixed_point_is_stationary(entropy):
    c, eps = 1.1, 0.6
    a, b, cost = dirac_pair(c)
    pots, rep = solve(a, b, cost, entropy, eps,
                      SolveOptions(tol=1e-14, max_iter=200000))
    assert rep.converged
    f_again = half_update(eps, entropy, b, pots.g, cost)
    g_again = half_update(eps, entropy, a, pots.f, cost.T)
    assert abs(f_again[0] - pots.f[0]) <= 1e-12
    assert abs(g_again[0] - pots.g[0]) <= 1e-12


# ---------------------------------------------------------------- solve


def test_solve_identical_unit_diracs_balanced():
    a, b, cost = dirac_pair(0.0)
    pots, rep = solve(a, b, cost, Balanced(), 1.0)
    assert rep.converged and rep.iterations <= 2
    assert pots.f[0] == pytest.approx(0.0, abs=1e-12)
    assert pots.g[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rho,eps,c", [(1.0, 1.0, 3.0), (0.5, 0.1, 1.0),
                                       (2.0, 0.01, 0.3)])
def test_solve_kl_dirac_fixed_point(rho, eps, c):
    a, b, cost = dirac_pair(c)
    pots, rep = solve(a, b, cost, KL(rho), eps,
                      SolveOptions(tol=1e-13, max_iter=100000))
    expected = rho * c / (2 * rho + eps)
    assert pots.f[0] == pytest.approx(expected, rel=1e-9)
    assert pots.g[0] == pytest.approx(expected, rel=1e-9)


def test_solve_range_infeasible_masses():
    a, b, _ = dirac_pair(1.0, m1=1.0, m2=4.0)
    cost = SQ.pairwise(a.points, b.points)
    pots, rep = solve(a, b, cost, Range(a=0.5, b=1.5), 1.0)
    assert rep.status == "infeasible"
    assert pots is None


def test_solve_null_measure_rejected():
    a = DiscreteMeasure([1.0], [[0.0]])
    null = DiscreteMeasure([], [])
    with pytest.raises(DomainError):
        solve(a, null, np.zeros((1, 0)), KL(1.0), 1.0)


def test_solve_validates_inputs():
    # solve and solve_symmetric share the entry checks and the init parser
    rng = np.random.default_rng(24)
    a, b, _ = random_pair(rng, 5, 6)
    for symmetric in (False, True):
        n, m = len(a), len(a if symmetric else b)
        rejected = [dict(eps=-1.0), dict(cost=np.zeros((1, m))),
                    dict(cost=np.zeros((n, 1))), dict(init="bogus"),
                    # a bare vector is a symmetric-only init with n entries
                    dict(init=np.zeros(1 if symmetric else n)),
                    # (f, g) with the lengths swapped; solve_symmetric reads f
                    dict(init=(np.zeros(len(b)), np.zeros(len(a))))]
        for case in rejected:
            with pytest.raises(DomainError):
                run_solver(symmetric, a, b, **case)
        _, rep = run_solver(symmetric, a, b, init=(np.zeros(n), np.zeros(m)))
        assert rep.converged


@pytest.mark.parametrize("entropy", [KL(1.0), Berg(0.8), TV(0.6),
                                     Range(a=0.7, b=1.3)])
def test_converged_potentials_are_fixed_points(entropy):
    rng = np.random.default_rng(14)
    a, b, cost = random_pair(rng, 13, 17)
    tol = 1e-10
    pots, rep = solve(a, b, cost, entropy, 0.25, SolveOptions(tol=tol))
    assert rep.converged
    assert rep.final_update <= tol
    f_res = np.max(np.abs(half_update(0.25, entropy, b, pots.g, cost) - pots.f))
    g_res = np.max(np.abs(half_update(0.25, entropy, a, pots.f, cost.T) - pots.g))
    assert f_res <= 2 * tol
    assert g_res <= 2 * tol


def test_tv_iterates_stay_bounded_by_rho():
    rng = np.random.default_rng(15)
    a, b, cost = random_pair(rng, 10, 12)
    rho = 0.3
    pots, _ = solve(a, b, cost, TV(rho), 0.1)
    assert np.max(np.abs(pots.f)) <= rho + 1e-12
    assert np.max(np.abs(pots.g)) <= rho + 1e-12


@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["solve", "solve_symmetric"])
def test_update_history_is_recorded(symmetric):
    rng = np.random.default_rng(16)
    a, b, _ = random_pair(rng, 8, 9)
    _, rep = run_solver(symmetric, a, b, record_history=True)
    assert rep.update_history is not None
    assert len(rep.update_history) == rep.iterations
    assert rep.update_history[-1] == rep.final_update


def test_geometric_rate_for_kl():
    rng = np.random.default_rng(17)
    a, b, cost = random_pair(rng, 30, 25)
    rho, eps = 1.0, 0.2
    bound = (rho / (rho + eps)) ** 2
    _, rep = solve(a, b, cost, KL(rho), eps,
                   SolveOptions(tol=1e-4, record_history=True))
    h = rep.update_history
    for t in range(2, len(h) - 1):
        assert h[t + 1] / h[t] <= bound + 1e-12


def test_zero_init_converges_to_same_potentials():
    rng = np.random.default_rng(18)
    a, b, cost = random_pair(rng, 9, 11)
    p1, _ = solve(a, b, cost, KL(1.0), 0.3, SolveOptions(tol=1e-12))
    p2, _ = solve(a, b, cost, KL(1.0), 0.3,
                  SolveOptions(tol=1e-12, init="zero"))
    assert np.allclose(p1.f, p2.f, atol=1e-10)
    assert np.allclose(p1.g, p2.g, atol=1e-10)


def test_provided_init_is_used():
    rng = np.random.default_rng(19)
    a, b, cost = random_pair(rng, 9, 11)
    p1, r1 = solve(a, b, cost, KL(1.0), 0.3, SolveOptions(tol=1e-12))
    p2, r2 = solve(a, b, cost, KL(1.0), 0.3,
                   SolveOptions(tol=1e-12, init=(p1.f, p1.g)))
    assert r2.iterations <= 2
    assert np.allclose(p1.f, p2.f, atol=1e-10)


# ---------------------------------------------------------------- symmetric


def test_symmetric_unit_dirac_is_zero():
    a = DiscreteMeasure([1.0], [[0.7]])
    cost = SQ.pairwise(a.points, a.points)
    f, rep = solve_symmetric(a, cost, KL(1.0), 0.5)
    assert rep.converged
    assert f[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("entropy", [KL(0.8), Berg(1.1), TV(0.4), Balanced()])
def test_symmetric_potential_fixes_general_solver(entropy):
    rng = np.random.default_rng(20)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 12) / 12, rng.random((12, 2)))
    cost = SQ.pairwise(a.points, a.points)
    tol = 1e-11
    f, rep = solve_symmetric(a, cost, entropy, 0.3, SolveOptions(tol=tol))
    assert rep.converged
    res = np.max(np.abs(half_update(0.3, entropy, a, f, cost) - f))
    assert res <= 2 * tol


def test_symmetric_balanced_two_point_measure_gives_constant():
    a = DiscreteMeasure([0.5, 0.5], [[-1.0], [1.0]])
    cost = SQ.pairwise(a.points, a.points)
    f, rep = solve_symmetric(a, cost, Balanced(), 0.5, SolveOptions(tol=1e-12))
    assert rep.converged
    assert np.max(f) - np.min(f) <= 1e-10


# ---------------------------------------------------------------- extrapolate


def test_extrapolate_reproduces_stored_potentials():
    rng = np.random.default_rng(21)
    a, b, cost = random_pair(rng, 10, 14)
    tol = 1e-11
    pots, _ = solve(a, b, cost, KL(1.0), 0.4, SolveOptions(tol=tol))
    f_again = extrapolate(pots, "a", b, a.points, SQ)
    g_again = extrapolate(pots, "b", a, b.points, SQ)
    assert np.max(np.abs(f_again - pots.f)) <= 2 * tol
    assert np.max(np.abs(g_again - pots.g)) <= 2 * tol


def test_extrapolate_single_atom_formula():
    rho, eps, c = 1.0, 0.5, 1.7
    a, b, cost = dirac_pair(c)
    pots, _ = solve(a, b, cost, KL(rho), eps, SolveOptions(tol=1e-13))
    y = np.array([[2.0]])
    expected = KL(rho).damp(eps, SQ.pairwise(y, b.points)[0, 0] - pots.g[0])
    assert extrapolate(pots, "a", b, y, SQ)[0] == pytest.approx(float(expected), rel=1e-10)


def test_extrapolated_potential_is_cost_lipschitz():
    # with C(x, y) = |x - y| the extension inherits the cost's 1-Lipschitz bound
    rng = np.random.default_rng(22)
    cost_spec = CostSpec.euclidean_pow(1.0)
    a = DiscreteMeasure(np.full(8, 1 / 8), rng.random((8, 1)))
    b = DiscreteMeasure(np.full(8, 1 / 8), rng.random((8, 1)))
    cost = cost_spec.pairwise(a.points, b.points)
    pots, _ = solve(a, b, cost, Balanced(), 0.2, SolveOptions(tol=1e-11))
    grid = np.linspace(-0.5, 1.5, 201).reshape(-1, 1)
    f_grid = extrapolate(pots, "a", b, grid, cost_spec)
    slopes = np.abs(np.diff(f_grid)) / np.diff(grid.ravel())
    assert np.max(slopes) <= 1.0 + 1e-6


# ---------------------------------------------------------------- plans


def test_balanced_plan_has_matching_marginals():
    rng = np.random.default_rng(23)
    a, b, cost = random_pair(rng, 20, 30)
    a = a.scaled(1 / a.total_mass)
    b = b.scaled(1 / b.total_mass)
    cost = SQ.pairwise(a.points, b.points)
    pots, rep = solve(a, b, cost, Balanced(), 0.2, SolveOptions(tol=1e-10))
    assert rep.converged
    pi = plan_matrix(pots, a, b, cost)
    assert np.max(np.abs(pi.sum(1) - a.weights)) / np.max(a.weights) <= 1e-6
    assert np.max(np.abs(pi.sum(0) - b.weights)) / np.max(b.weights) <= 1e-6


def test_plan_identical_unit_diracs_balanced():
    a, b, cost = dirac_pair(0.0)
    pots, _ = solve(a, b, cost, Balanced(), 1.0)
    plan = implicit_plan(pots, a, b, cost)
    assert len(plan) == 1
    assert plan.total_mass == pytest.approx(1.0, abs=1e-12)


def test_plan_kl_dirac_pair_mass():
    rho, eps, c = 1.0, 0.5, 2.0
    a, b, cost = dirac_pair(c)
    pots, _ = solve(a, b, cost, KL(rho), eps, SolveOptions(tol=1e-13))
    plan = implicit_plan(pots, a, b, cost)
    assert plan.total_mass == pytest.approx(math.exp(-c / (2 * rho + eps)), rel=1e-9)
    assert plan.points.shape == (1, 2)


def test_dual_potentials_serialization_round_trip():
    pots = DualPotentials(np.array([0.25, -1.5]), np.array([0.125]), 0.5, KL(2.0))
    back = DualPotentials.from_dict(pots.to_dict())
    assert np.array_equal(back.f, pots.f)
    assert np.array_equal(back.g, pots.g)
    assert back.eps == pots.eps
    assert back.entropy == pots.entropy
