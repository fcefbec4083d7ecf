import math

import numpy as np
import pytest

import uot.sinkhorn
from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 DomainError, DualPotentials, FlowParams, Power, Range,
                 SolveOptions, dual_value, duality_gap, extrapolate,
                 half_update, implicit_plan, ot_eps, plan_matrix,
                 sinkhorn_divergence, sinkhorn_entropy, softmin, solve,
                 solve_symmetric)
from uot.measures import _row_blocks

SQ = CostSpec.sq_euclidean()


def dirac_pair(c, m1=1.0, m2=1.0):
    a = DiscreteMeasure([m1], [[0.0]])
    b = DiscreteMeasure([m2], [[math.sqrt(c)]])
    return a, b, SQ.pairwise(a.points, b.points)


def random_pair(rng, n, m, d=2):
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, d)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, m) / m, rng.random((m, d)))
    return a, b, SQ.pairwise(a.points, b.points)


def run_solver(symmetric, a, b, cost=None, eps=0.5, entropy=KL(1.0), **opts):
    """``solve(a, b)``, or ``solve_symmetric(a)`` when ``symmetric``;
    ``cost`` defaults to the squared distances it expects."""
    other = a if symmetric else b
    if cost is None:
        cost = SQ.pairwise(a.points, other.points)
    if symmetric:
        return solve_symmetric(a, cost, entropy, eps, SolveOptions(**opts))
    return solve(a, b, cost, entropy, eps, SolveOptions(**opts))


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


@pytest.mark.parametrize("n_other, eps, pot, cost_shape, rho", [
    (1, 0.1, [0.0], (5, 3), None), (3, -0.1, [0.0] * 3, (5, 3), None),
    (3, 0.1, [0.0], (5, 3), None), (3, 0.1, [0.0] * 3, (5, 2), None),
    (2, 0.1, [0.0] * 2, (3, 2), [0.5]), (2, 0.1, [0.0] * 2, (3, 2), [0.5] * 2)],
    ids=["one-atom-against-three-columns", "negative-eps",
         "short-potential", "two-columns-against-three-atoms",
         "one-rho-against-three-rows", "two-rho-against-three-rows"])
def test_half_update_rejects_mismatched_inputs(n_other, eps, pot, cost_shape,
                                               rho):
    # numpy would broadcast the first, third and fifth, compute the second
    # and raise its own ValueError on the fourth and sixth; the last two
    # bind the penalty to 1 and 2 atoms against 3 cost rows
    m_other = DiscreteMeasure(np.full(n_other, 1.0 / n_other),
                              np.arange(float(n_other))[:, None])
    entropy = (KL(1.0) if rho is None else
               KL(1.0, rho_fn=lambda pts: np.array(rho)).at(
                   np.zeros((len(rho), 1))))
    with pytest.raises(DomainError):
        half_update(eps, entropy, m_other, np.array(pot), np.ones(cost_shape))


def test_half_update_rejects_an_unbound_spatially_varying_penalty():
    # unbound, the damping would silently use the scalar rho
    a, b, cost = random_pair(np.random.default_rng(15), 6, 7)
    entropy = KL(1.0, rho_fn=lambda pts: 0.5 + pts[:, 0])
    with pytest.raises(DomainError, match=r"\.at\(points\)"):
        half_update(0.1, entropy, b, np.zeros(7), cost)
    half_update(0.1, entropy.at(a.points), b, np.zeros(7), cost)


def test_solvers_reject_a_penalty_bound_to_atoms():
    # bound to a's atoms, the g half-update would read a's strengths on
    # b's atoms and reach another fixed point
    a, b, cost = random_pair(np.random.default_rng(16), 2, 2, d=1)
    varying = KL(0.5, rho_fn=lambda pts: 0.5 + pts[:, 0])
    with pytest.raises(DomainError, match="unbound penalty"):
        solve(a, b, cost, varying.at(a.points), 0.1)
    with pytest.raises(DomainError, match="unbound penalty"):
        solve_symmetric(a, SQ.pairwise(a.points, a.points),
                        varying.at(a.points), 0.1)
    pots, report = solve(a, b, cost, varying, 0.1)
    assert report.converged
    # the bound penalty still serves the maps of one support; the solve's
    # cached kernel rounds differently
    f = half_update(0.1, varying.at(a.points), b, pots.g, cost)
    assert np.max(np.abs(f - pots.f)) <= 1e-12


def test_half_update_does_not_depend_on_memory_layout():
    # the kernel buffer is C-ordered whatever the layout of the cost rows
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b, cost = random_pair(rng, 60, 70)
        f = 0.01 * rng.standard_normal(60)
        assert np.array_equal(
            half_update(1e-3, KL(1.0), a, f, cost.T),
            half_update(1e-3, KL(1.0), a, f, np.ascontiguousarray(cost.T)))


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


NAN, INF = math.nan, math.inf
ONE = DiscreteMeasure([1.0], [[0.0]])
NULL = DiscreteMeasure([], [])


@pytest.mark.parametrize("make,name", [
    (lambda: SolveOptions(tol=NAN), "tol"),
    (lambda: SolveOptions(tol=INF), "tol"),
    (lambda: solve(*dirac_pair(1.0), KL(1.0), NAN), "eps"),
    (lambda: solve_symmetric(ONE, np.zeros((1, 1)), KL(1.0), INF), "eps"),
    (lambda: half_update(NAN, KL(1.0), ONE, [0.0], [[1.0]]), "eps"),
    (lambda: softmin(INF, ONE, [0.0]), "eps"),
    # null measures have closed forms, which are not read before eps is
    # checked
    (lambda: ot_eps(NULL, ONE, SQ, KL(1.0), NAN), "eps"),
    (lambda: sinkhorn_divergence(NULL, NULL, SQ, KL(1.0), NAN), "eps"),
    (lambda: sinkhorn_entropy(NULL, SQ, KL(1.0), INF), "eps"),
    (lambda: KL(NAN), "rho"), (lambda: KL(INF), "rho"),
    (lambda: KL(rho_fn=lambda x: np.full(len(x), NAN)).at(ONE.points),
     "rho"),
    (lambda: TV(NAN), "rho"), (lambda: TV(INF), "rho"),
    (lambda: Power(NAN), "rho"), (lambda: Power(1.0, s=NAN), "finite s"),
    (lambda: Power(1.0, s=-INF), "finite s"), (lambda: Berg(INF), "rho"),
    (lambda: CostSpec(power=NAN), "cost power"),
    (lambda: CostSpec(power=INF), "cost power"),
    (lambda: CostSpec(scale=NAN), "cost scale"),
    (lambda: FlowParams(eps=NAN), "eps"),
    (lambda: FlowParams(eta_x=NAN), "eta_x"),
    (lambda: FlowParams(eta_r=INF), "eta_r"),
    (lambda: FlowParams(steps=-2), "steps"),
    (lambda: FlowParams(solve_tol=NAN), "tol"),
    (lambda: FlowParams(solve_tol=0.0), "tol"),
    (lambda: FlowParams(solve_max_iter=0), "max_iter")])
def test_non_finite_parameters_raise_naming_them(make, name):
    with pytest.raises(DomainError, match=name):
        make()


@pytest.mark.parametrize("max_iter", [1e4, 100.0, NAN, INF, "100", None])
def test_non_integral_max_iter_raises_naming_it(max_iter):
    # the loop's range() takes integers only, so the options check first
    for make in (lambda: SolveOptions(max_iter=max_iter),
                 lambda: FlowParams(solve_max_iter=max_iter)):
        with pytest.raises(DomainError, match="max_iter"):
            make()


def test_numpy_integer_max_iter_is_accepted():
    a, b, cost = dirac_pair(0.5)
    opts = SolveOptions(max_iter=np.int64(3))
    assert FlowParams(solve_max_iter=np.int32(5)).solve_max_iter == 5
    _, report = solve(a, b, cost, KL(1.0), 0.5, opts)
    assert report.iterations <= 3


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
                    dict(init=(np.zeros(len(b)), np.zeros(len(a)))),
                    # (None, g) is solve-only, with one g entry per b atom
                    dict(init=(None, np.zeros(len(a)))),
                    dict(init=(None, None))]
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


# ---------------------------------------------------------------- g-only init


def moved_source_resolve(entropy, eps, seed, n, m, shift):
    """Converged potentials on ``(a, b)``, and ``(a + shift, b)`` with its
    cost: the cross solve of a particle-flow step."""
    a, b, cost = random_pair(np.random.default_rng(seed), n, m)
    pots, _ = solve(a, b, cost, entropy, eps, SolveOptions(tol=1e-11))
    moved = DiscreteMeasure(a.weights, a.points + shift)
    return pots, moved, b, SQ.pairwise(moved.points, b.points)


@pytest.mark.parametrize("entropy", [KL(1.0), TV(0.5), Power(1.0, 0.5)],
                         ids=["kl", "tv", "power"])
def test_g_only_init_reaches_the_same_solution(entropy):
    pots, a, b, cost = moved_source_resolve(entropy, 0.05, 27, 30, 40, 0.02)
    results = [solve(a, b, cost, entropy, 0.05,
                     SolveOptions(tol=1e-11, init=init))
               for init in ((pots.f, pots.g), (None, pots.g))]
    (fg, fg_report), (g_only, g_report) = results
    assert fg_report.converged and g_report.converged
    assert np.allclose(g_only.f, fg.f, rtol=0.0, atol=1e-9)
    assert np.allclose(g_only.g, fg.g, rtol=0.0, atol=1e-9)
    value = dual_value(fg, a, b, cost)
    assert dual_value(g_only, a, b, cost) == pytest.approx(value, rel=1e-10)


@pytest.mark.parametrize("entropy", [KL(1.0), TV(0.5), Berg(0.8)],
                         ids=["kl", "tv", "berg"])
def test_g_only_init_is_one_f_half_update_then_the_loop(monkeypatch,
                                                        entropy):
    # without the kernel cache every half-update is exact, so the start
    # equals an (f, g) start from half_update's f, bit for bit
    monkeypatch.setattr(uot.sinkhorn, "_KERNEL_DRIFT", 0.0)
    pots, a, b, cost = moved_source_resolve(entropy, 0.05, 28, 20, 30, 0.02)
    f = half_update(0.05, entropy, b, pots.g, cost)
    opts = dict(tol=1e-11, record_history=True)
    g_only, g_report = solve(a, b, cost, entropy, 0.05,
                             SolveOptions(init=(None, pots.g), **opts))
    ref, ref_report = solve(a, b, cost, entropy, 0.05,
                            SolveOptions(init=(f, pots.g), **opts))
    assert np.array_equal(g_only.f, ref.f) and np.array_equal(g_only.g, ref.g)
    assert g_report.update_history == ref_report.update_history


def test_g_only_init_saves_sweeps_on_the_solver_tour_resolve():
    # the moved-source re-solve of demos/02_solver_tour.py, with its seeded
    # sweep counts: KL(0.05) 10 cold, 9 and 9 warm; TV(0.05) 65, 31 and 29
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.normal(0.0, 0.05, 30), rng.normal(1.0, 0.05, 20)])
    ys = rng.normal(0.05, 0.06, 40)
    alpha = DiscreteMeasure(np.full(50, 1.0 / 50), xs)
    beta = DiscreteMeasure(np.full(40, 0.8 / 40), ys)
    moved = DiscreteMeasure(alpha.weights, alpha.points + 0.01)
    cost, moved_cost = (SQ.pairwise(x.points, beta.points)
                        for x in (alpha, moved))
    for entropy in (KL(0.05), TV(0.05)):
        pots, _ = solve(alpha, beta, cost, entropy, 1e-2,
                        SolveOptions(tol=1e-10))
        fg, g_only = (solve(moved, beta, moved_cost, entropy, 1e-2,
                            SolveOptions(tol=1e-10, init=init))[1]
                      for init in ((pots.f, pots.g), (None, pots.g)))
        assert fg.converged and g_only.converged
        assert g_only.iterations <= fg.iterations
        if isinstance(entropy, TV):
            assert g_only.iterations < fg.iterations


@pytest.mark.parametrize("entropy, mass", [
    (KL(10.0), 1.4), (TV(0.5), 1.4), (Berg(1.0), 1.4), (Range(0.5, 1.5), 1.4),
    (Balanced(), 1.0)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_dirac_pair_sweeps_match_the_array_half_update(monkeypatch, entropy,
                                                       mass, symmetric):
    # a Dirac pair runs the array loop of larger problems: without the
    # kernel cache every sweep equals, bit for bit, one through half_update,
    # the cross loop's relaxed steps (Berg's pair relaxes) included
    monkeypatch.setattr(uot.sinkhorn, "_KERNEL_DRIFT", 0.0)
    a, b, cost = dirac_pair(0.7, 1.0, mass)
    eps, f, g = 0.05, np.array([0.3]), np.array([-0.2])
    opts = SolveOptions(tol=1e-300, max_iter=40, init=(f, g),
                        record_history=True)
    translate = (uot.sinkhorn._kl_translation(entropy.rho, a, b)
                 if isinstance(entropy, KL) else lambda f, g: 0.0)
    relax, history = uot.sinkhorn._Relaxation(), []
    for _ in range(opts.max_iter):
        if symmetric:
            tf = half_update(eps, entropy, a, f, np.zeros((1, 1)))
            history.append(float(np.abs(tf - f).max()))
            f = f + 2 / 3 * (tf - f)
        else:
            omega, lam = relax.omega, translate(f, g)
            tg = half_update(eps, entropy, a, f + lam, cost.T)
            g_new = tg if omega == 1.0 else tg + (omega - 1) * (tg - g + lam)
            tf = half_update(eps, entropy, b, g_new, cost)
            f_new = tf if omega == 1.0 else tf + (omega - 1) * (tf - f - lam)
            history.append(relax.observe(max(float(np.abs(tf - f).max()),
                                             float(np.abs(tg - g).max()))))
            # the solve returns the f half-update's output with its input
            f, g, returned = f_new, g_new, (tf, g_new)
        if history[-1] <= opts.tol:
            break
    if symmetric:
        pot, report = solve_symmetric(a, np.zeros((1, 1)), entropy, eps, opts)
        assert pot.shape == (1,) and np.array_equal(pot, f)
    else:
        pots, report = solve(a, b, cost, entropy, eps, opts)
        assert pots.f.shape == pots.g.shape == (1,)
        assert (np.array_equal(pots.f, returned[0])
                and np.array_equal(pots.g, returned[1]))
    assert report.update_history == history


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


@pytest.mark.parametrize("eps", [1e-3, 0.05])
@pytest.mark.parametrize("entropy", [
    KL(0.1), KL(10.0), Power(0.1, 0.5), Berg(0.1), TV(0.1), Range(0.7, 1.4),
    Balanced()], ids=["kl", "kl-10", "power", "berg", "tv", "range",
                      "balanced"])
def test_symmetric_solves_contract_at_a_third(entropy, eps):
    # the 2/3 step contracts at 1/3, the averaged map at 1/2 (see
    # solve_symmetric); the ratios of successive updates show the rate
    rng = np.random.default_rng(60)
    n = 60
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, 2)))
    _, report = solve_symmetric(a, SQ.pairwise(a.points, a.points), entropy,
                                eps, SolveOptions(record_history=True))
    assert report.converged
    history = np.array(report.update_history)
    ratios = history[1:] / history[:-1]
    assert np.all(ratios[len(ratios) // 2:] <= 0.4)


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


# ---------------------------------------------------------------- exp floor


def underflow_instance():
    """eps = 1e-3 on [0, 1.5]: max-shifted exponents fall both below -745,
    where exp returns 0, and into the subnormal band [-745, -708]."""
    rng = np.random.default_rng(40)
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, 150) / 150,
                        rng.uniform(0.0, 1.5, (150, 1)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 170) / 170,
                        rng.uniform(0.0, 1.5, (170, 1)))
    pots = DualPotentials(0.01 * rng.standard_normal(150),
                          0.01 * rng.standard_normal(170), 1e-3, KL(0.1))
    return a, b, SQ.pairwise(a.points, b.points), pots


def assert_underflows(shifted):
    assert np.any(shifted < -745.2)
    assert np.any((shifted > -745.0) & (shifted < -708.5))


def unfloored_softmin_rows(eps, log_w, pot, cost):
    """The row softmins with a plain max-shifted exp."""
    tmp = (log_w + pot / eps)[None, :] - cost / eps
    mx = tmp.max(axis=1)
    tmp -= mx[:, None]
    assert_underflows(tmp)
    return -eps * (mx + np.log(np.exp(tmp).sum(axis=1)))


def unfloored_log_plan(pots, a, b, cost):
    return (a.log_weights[:, None] + b.log_weights[None, :]
            + (pots.f[:, None] + pots.g[None, :] - cost) / pots.eps)


def test_exp_floor_leaves_softmins_bit_identical():
    a, b, cost, pots = underflow_instance()
    eps, entropy = pots.eps, pots.entropy
    h = eps * np.array([0.0, 100.0, 710.0, 730.0, 744.0, 800.0, 1e4])
    m = DiscreteMeasure(np.full(7, 1.0 / 7), np.arange(7.0))
    ref = unfloored_softmin_rows(eps, m.log_weights, np.zeros(7), h[None, :])
    assert softmin(eps, m, h) == float(ref[0])
    ref = unfloored_softmin_rows(eps, b.log_weights, pots.g, cost)
    assert np.array_equal(half_update(eps, entropy, b, pots.g, cost),
                          entropy.damp(eps, ref))


def test_exp_floor_leaves_the_plan_mass_bit_identical():
    # the plan mass is the entropic term of dual_value for TV, Range and
    # Balanced
    a, b, cost, pots = underflow_instance()
    log_plan = unfloored_log_plan(pots, a, b, cost)
    assert_underflows(log_plan)
    ref = np.sum(np.exp(log_plan))
    assert np.sum(plan_matrix(pots, a, b, cost)) == ref


def test_plan_entries_below_the_exp_floor_are_zero():
    a, b, cost, pots = underflow_instance()
    log_plan = unfloored_log_plan(pots, a, b, cost)
    kept = log_plan >= -700.0
    below = np.exp(log_plan[~kept])
    assert np.any(below > 0.0) and np.any(below == 0.0)
    pi = plan_matrix(pots, a, b, cost)
    assert np.array_equal(pi[kept], np.exp(log_plan[kept]))
    assert np.all(pi[~kept] == 0.0)
    out = np.full(cost.shape, np.nan)
    assert plan_matrix(pots, a, b, cost, out=out) is out
    assert np.array_equal(out, pi)
    ref = np.where(kept, np.exp(log_plan), 0.0)
    plan = implicit_plan(pots, a, b, cost)
    assert np.array_equal(plan.weights, ref[ref > 0.0])


def unblocked_plan(pots, a, b, cost):
    """The plan in one N x M pass, with its two N x M temporaries."""
    pi = (np.add.outer(pots.f, pots.g) - cost) / pots.eps
    pi += np.add.outer(a.log_weights, b.log_weights)
    return np.where(pi < -700.0, 0.0, np.exp(np.maximum(pi, -700.0)))


@pytest.mark.parametrize("n,m", [(130, 400), (3, 70_000)])
def test_blocked_plan_is_bit_identical_to_one_pass(n, m):
    # several row blocks with a ragged last one, and rows longer than a
    # block, which go one row a block
    rows, blocks = _row_blocks(n, m)
    assert len(blocks) > 2 and (rows == 1 if m > 2 ** 16 else n % rows)
    rng = np.random.default_rng(n)
    a, b, cost = random_pair(rng, n, m)
    pots = DualPotentials(0.01 * rng.standard_normal(n),
                          0.01 * rng.standard_normal(m), 1e-3, KL(0.1))
    ref = unblocked_plan(pots, a, b, cost)
    assert np.any(ref == 0.0) and np.any(ref > 0.0)
    assert np.array_equal(plan_matrix(pots, a, b, cost), ref)
    out = np.full(cost.shape, np.nan)
    assert np.array_equal(plan_matrix(pots, a, b, cost, out=out), ref)


def test_plan_matrix_out_of_the_wrong_shape_raises():
    a, b, cost, pots = underflow_instance()
    read_only = np.empty(cost.shape)
    read_only.setflags(write=False)
    for bad in (np.empty((150, 171)), np.empty((170, 150)),
                np.empty(cost.shape, dtype=np.float32), read_only):
        with pytest.raises(DomainError, match="output buffer"):
            plan_matrix(pots, a, b, cost, out=bad)


def test_plan_matrix_out_overlapping_an_input_raises():
    a, b, cost = random_pair(np.random.default_rng(57), 6, 6)
    pots, _ = solve(a, b, cost, KL(1.0), 0.05)
    # f and g live in the first row and column of a 7 x 7 block
    block = np.empty((7, 7))
    block[0, 1:], block[1:, 0] = pots.f, pots.g
    pots = DualPotentials(block[0, 1:], block[1:, 0], 0.05, KL(1.0))
    for out in (cost, cost.T, block[:6, :6], block[1:, 1:]):
        with pytest.raises(DomainError, match="overlap"):
            plan_matrix(pots, a, b, cost, out=out)


def test_plan_matrix_checks_its_inputs():
    # an N x 1 cost used to broadcast into a plan of the right shape
    a, b, cost = random_pair(np.random.default_rng(47), 3, 4)
    pots, _ = solve(a, b, cost, KL(1.0), 0.1)
    for bad in (cost[:, :1], cost[:1], cost.T, cost[:, :, None]):
        with pytest.raises(DomainError, match="cost shape"):
            plan_matrix(pots, a, b, bad)
    for f, g in ((pots.f[:2], pots.g), (pots.f, pots.g[:1]),
                 (pots.g, pots.f), (pots.f[:, None], pots.g)):
        with pytest.raises(DomainError, match="potentials"):
            plan_matrix(DualPotentials(f, g, pots.eps, pots.entropy), a, b,
                        cost)
    # the plan mass of the non-smooth entropies goes through it
    b = b.scaled(a.total_mass / b.total_mass)
    for entropy in (TV(0.5), Range(0.5, 2.0), Balanced()):
        pots, _ = solve(a, b, cost, entropy, 0.1)
        with pytest.raises(DomainError, match="cost shape"):
            dual_value(pots, a, b, cost[:, :1])


class CountingUfunc:
    """A ufunc with its elementwise calls counted, or only those on arrays
    of ``ndim`` dimensions if given; ``reduce`` and the other ufunc methods
    pass through uncounted."""

    def __init__(self, ufunc, ndim=None):
        self.ufunc, self.ndim, self.calls = ufunc, ndim, 0

    def __call__(self, *args, **kwargs):
        if self.ndim is None or np.ndim(args[0]) == self.ndim:
            self.calls += 1
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)


class CountingNumpy:
    """numpy with a counted ``maximum`` and an ``exp`` that counts the
    exponentiated N x M blocks."""

    def __init__(self):
        self.maximum = CountingUfunc(np.maximum)
        self.exp = CountingUfunc(np.exp, ndim=2)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("symmetric", [False, True])
def test_solve_floors_every_exponentiated_kernel(monkeypatch, symmetric):
    counting = CountingNumpy()
    monkeypatch.setattr(uot.sinkhorn, "np", counting)
    dirac = dirac_pair(2.0)[:2]
    a, b, _ = random_pair(np.random.default_rng(41), 20, 30)
    # a narrow scaled cost (C/eps < 40 in the unit square) floors too
    for (x, y), eps in [(dirac, 0.01), ((a, b), 0.05), ((a, b), 1e-3)]:
        counting.maximum.calls = counting.exp.calls = 0
        run_solver(symmetric, x, y, eps=eps, max_iter=50)
        assert counting.maximum.calls == counting.exp.calls >= 1


# ---------------------------------------------------------------- kernel cache


def normalized_pair(rng, n, m, mass_b):
    a, b, _ = random_pair(rng, n, m)
    return a.scaled(1 / a.total_mass), b.scaled(mass_b / b.total_mass)


def exact_sweep(symmetric, a, b, entropy, eps, f, g):
    """One sweep of the loop through ``half_update``, the exact softmin."""
    if symmetric:
        cost = SQ.pairwise(a.points, a.points)
        tf = half_update(eps, entropy.at(a.points), a, f, cost)
        return [f + 2 / 3 * (tf - f)]
    cost = SQ.pairwise(a.points, b.points)
    if isinstance(entropy, KL) and entropy.rho_fn is None:
        # a uniform KL loop translates the g half-update's input
        f = f + uot.sinkhorn._kl_translation(entropy.rho, a, b)(f, g)
    g = half_update(eps, entropy.at(b.points), a, f, cost.T)
    f = half_update(eps, entropy.at(a.points), b, g, cost)
    return [f, g]


def potentials(symmetric, result):
    pots, report = result
    return ([pots] if symmetric else [pots.f, pots.g]), report


@pytest.mark.parametrize("eps, size", [
    (1e-3, (20, 30)), (0.05, (20, 30)), (1e-3, (1, 1)), (0.05, (1, 1))],
    ids=["0.001", "0.05", "0.001-1x1", "0.05-1x1"])
@pytest.mark.parametrize("entropy", [
    KL(1.0), KL(0.5, rho_fn=lambda pts: 0.5 + pts[:, 0]), TV(0.3), Balanced(),
    Berg(0.8), Power(1.0, 0.5), Range(0.5, 1.5)],
    ids=["kl", "spatial_kl", "tv", "balanced", "berg", "power", "range"])
@pytest.mark.parametrize("symmetric", [False, True],
                         ids=["solve", "solve_symmetric"])
def test_cached_kernel_matches_the_exact_loop(monkeypatch, symmetric, entropy,
                                              eps, size):
    # a Dirac pair (1 x 1) runs the same array loop as larger problems
    mass_b = 1.0 if isinstance(entropy, Balanced) else 1.2
    a, b = normalized_pair(np.random.default_rng(50), *size, mass_b)
    f0, g0 = np.zeros(len(a)), np.zeros(len(b))
    first, _ = potentials(symmetric, run_solver(
        symmetric, a, b, eps=eps, entropy=entropy, max_iter=1,
        init=(f0, g0)))
    ref = exact_sweep(symmetric, a, b, entropy, eps, f0, g0)
    assert all(np.array_equal(x, y) for x, y in zip(first, ref))
    cached, report = potentials(symmetric, run_solver(
        symmetric, a, b, eps=eps, entropy=entropy))
    # every half-update rebuilds its kernel: the loop without the cache
    monkeypatch.setattr(uot.sinkhorn, "_KERNEL_DRIFT", 0.0)
    exact, exact_report = potentials(symmetric, run_solver(
        symmetric, a, b, eps=eps, entropy=entropy))
    assert report.status == exact_report.status == "converged"
    assert report.iterations == exact_report.iterations
    for x, y in zip(cached, exact):
        assert np.all(np.abs(x - y) <= 1e-12 * (1.0 + np.abs(y)))


@pytest.mark.parametrize("entropy, mass_b, tol", [
    (KL(0.1), 1.5, 1e-9), (TV(0.1), 1.5, 1e-9),
    # balanced Sinkhorn contracts slowly at eps = 1e-4: 75k sweeps to 1e-9
    (Balanced(), 1.0, 1e-6)], ids=["kl", "tv", "balanced"])
def test_cold_solves_at_tiny_eps_rebuild_the_kernel(monkeypatch, entropy,
                                                    mass_b, tol):
    # rho / eps = 1e3: the first sweeps move the potentials by thousands of
    # eps, far past the drift a cached kernel absorbs
    eps = 1e-4
    a, b = normalized_pair(np.random.default_rng(51), 40, 50, mass_b)
    cost = SQ.pairwise(a.points, b.points)
    counting = CountingNumpy()
    monkeypatch.setattr(uot.sinkhorn, "np", counting)
    pots, report = solve(a, b, cost, entropy, eps, SolveOptions(tol=tol))
    assert report.converged
    assert np.all(np.isfinite(pots.f)) and np.all(np.isfinite(pots.g))
    assert 2 < counting.exp.calls < report.iterations
    monkeypatch.setattr(uot.sinkhorn, "_KERNEL_DRIFT", 0.0)
    exact, exact_report = solve(a, b, cost, entropy, eps,
                                SolveOptions(tol=tol))
    assert exact_report.converged
    value, exact_value = (dual_value(p, a, b, cost) for p in (pots, exact))
    assert abs(value - exact_value) <= 1e-10 * abs(exact_value)


def test_solves_hold_one_kernel_per_half_update(traced_peak):
    # the kernels are the only N x M arrays a solve allocates: no C / eps
    a, b, cost = random_pair(np.random.default_rng(55), 300, 400)
    cost_aa = SQ.pairwise(a.points, a.points)
    opts = SolveOptions(max_iter=20)
    peak = traced_peak(lambda: solve(a, b, cost, KL(1.0), 0.05, opts))
    assert peak < 2.5 * cost.nbytes
    peak = traced_peak(lambda: solve_symmetric(a, cost_aa, KL(1.0), 0.05, opts))
    assert peak < 1.5 * cost_aa.nbytes


def test_solves_keep_their_kernels_in_given_buffers():
    a, b, cost = random_pair(np.random.default_rng(56), 30, 40)
    cost_aa = SQ.pairwise(a.points, a.points)
    opts = SolveOptions(tol=1e-10)
    fresh, fresh_report = solve(a, b, cost, KL(1.0), 0.05, opts)
    fresh_f, _ = solve_symmetric(a, cost_aa, KL(1.0), 0.05, opts)
    kernels = (np.full((40, 30), np.nan), np.full((30, 40), np.nan))
    kernel = np.full((30, 30), np.nan)
    # a second solve reuses buffers that hold the first one's kernels
    for _ in range(2):
        pots, report = solve(a, b, cost, KL(1.0), 0.05, opts, kernels=kernels)
        assert np.array_equal(pots.f, fresh.f)
        assert np.array_equal(pots.g, fresh.g)
        assert report.iterations == fresh_report.iterations
        f, _ = solve_symmetric(a, cost_aa, KL(1.0), 0.05, opts, kernel=kernel)
        assert np.array_equal(f, fresh_f)
    assert all(np.all(np.isfinite(k)) for k in (*kernels, kernel))
    for bad in ((np.empty((30, 40)), np.empty((30, 40))),
                (np.empty((40, 30)), np.empty((30, 40), dtype=np.float32))):
        with pytest.raises(DomainError, match="output buffer"):
            solve(a, b, cost, KL(1.0), 0.05, opts, kernels=bad)
    with pytest.raises(DomainError, match="output buffer"):
        solve_symmetric(a, cost_aa, KL(1.0), 0.05, opts,
                        kernel=np.empty((30, 31)))


def test_solve_kernels_overlapping_the_cost_or_each_other_raise():
    a, b, cost = random_pair(np.random.default_rng(58), 6, 6)
    kernel = np.empty((6, 6))
    for kernels in ((cost.T, kernel), (kernel, cost), (kernel, kernel),
                    (kernel.T, kernel)):
        with pytest.raises(DomainError, match="overlap"):
            solve(a, b, cost, KL(1.0), 0.05, kernels=kernels)


def test_solve_symmetric_kernel_overlapping_the_cost_raises():
    a, _, _ = random_pair(np.random.default_rng(59), 6, 6)
    cost = SQ.pairwise(a.points, a.points)
    for kernel in (cost, cost.T):
        with pytest.raises(DomainError, match="overlap"):
            solve_symmetric(a, cost, KL(1.0), 0.05, kernel=kernel)


# ---------------------------------------------------------------- translation


def kl_translation_slope(a, b, rho, f, g):
    """The KL dual's derivative along ``(f + t, g - t)`` at ``t = 0``,
    relative to the first sum (the entropic term does not move)."""
    sum_a = a.weights @ np.exp(-f / rho)
    return 1.0 - (b.weights @ np.exp(-g / rho)) / sum_a


def test_kl_translation_maximizes_the_dual_along_the_mass_shift():
    rng = np.random.default_rng(52)
    a, b = normalized_pair(rng, 40, 50, 1.5)
    cost = SQ.pairwise(a.points, b.points)
    rho, eps = 1.0, 1e-2
    lam = uot.sinkhorn._kl_translation(rho, a, b)
    for _ in range(5):
        f, g = rng.standard_normal(40), rng.standard_normal(50)
        t = lam(f, g)
        assert abs(kl_translation_slope(a, b, rho, f + t, g - t)) <= 1e-14
    # at the solver's output the dual, entropic term included, is flat
    pots, report = solve(a, b, cost, KL(rho), eps, SolveOptions(tol=1e-9))
    assert report.converged
    assert abs(kl_translation_slope(a, b, rho, pots.f, pots.g)) <= 1e-14

    def dual(t):
        shifted = DualPotentials(pots.f + t, pots.g - t, eps, KL(rho))
        return (-a.weights @ KL(rho).conj(-shifted.f)
                - b.weights @ KL(rho).conj(-shifted.g)
                - eps * plan_matrix(shifted, a, b, cost).sum())

    h = 1e-4
    assert abs(dual(h) - dual(-h)) / (2 * h) <= 1e-11


def test_kl_translation_cuts_the_sweeps_of_a_cold_solve():
    # the plain loop contracts at (rho / (rho + eps))^2: 5306 sweeps here
    a, b, cost = random_pair(np.random.default_rng(0), 300, 300)
    pots, report = solve(a, b, cost, KL(1.0), 1e-3, SolveOptions(tol=1e-9))
    assert report.converged and report.iterations <= 1800
    gap = duality_gap(a, b, cost, KL(1.0), 1e-3, pots)
    assert abs(gap.gap) <= 1e-9 * abs(gap.dual)


@pytest.mark.parametrize("shift", [1e4, -1e4])
def test_kl_translation_absorbs_a_huge_mass_shift(shift):
    # exp(-f / rho) would overflow (or underflow to 0) on either side
    a, b = normalized_pair(np.random.default_rng(53), 20, 30, 1.2)
    cost = SQ.pairwise(a.points, b.points)
    rho, eps = 0.5, 0.05
    pots, _ = solve(a, b, cost, KL(rho), eps, SolveOptions(tol=1e-11))
    init = (pots.f + shift * rho, pots.g - shift * rho)
    moved, report = solve(a, b, cost, KL(rho), eps,
                          SolveOptions(tol=1e-11, init=init))
    # the first sweep translates the shift away
    assert report.converged and report.iterations <= 3
    assert np.allclose(moved.f, pots.f, rtol=0, atol=1e-9)
    assert np.allclose(moved.g, pots.g, rtol=0, atol=1e-9)


@pytest.mark.parametrize("entropy, mass_b", [
    (KL(0.5, rho_fn=lambda pts: 0.5 + pts[:, 0]), 1.2), (TV(0.3), 1.2),
    (Power(1.0, 0.5), 1.2), (Balanced(), 1.0)],
    ids=["spatial_kl", "tv", "power", "balanced"])
def test_only_uniform_kl_solves_translate(monkeypatch, entropy, mass_b):
    def no_translation(*args):
        raise AssertionError("translated a solve that runs the plain loop")

    a, b = normalized_pair(np.random.default_rng(54), 20, 30, mass_b)
    cost = SQ.pairwise(a.points, b.points)
    monkeypatch.setattr(uot.sinkhorn, "_kl_translation", no_translation)
    assert solve(a, b, cost, entropy, 0.05)[1].converged
    assert solve_symmetric(a, SQ.pairwise(a.points, a.points), KL(1.0),
                           0.05)[1].converged
    with pytest.raises(AssertionError, match="plain loop"):
        solve(a, b, cost, KL(1.0), 0.05)


# ---------------------------------------------------------------- relaxation


def uniform_clouds(seed, n, mass_b):
    rng = np.random.default_rng(seed)
    return (DiscreteMeasure(np.full(n, 1 / n), rng.random((n, 2))),
            DiscreteMeasure(np.full(n, mass_b / n), rng.random((n, 2))))


def plain_and_relaxed(monkeypatch, a, b, cost, entropy, eps, **opts):
    """``solve`` with the relaxation capped at 1, the plain loop, then as
    it ships."""
    results = []
    for cap in (1.0, uot.sinkhorn._OMEGA_MAX):
        monkeypatch.setattr(uot.sinkhorn, "_OMEGA_MAX", cap)
        results.append(solve(a, b, cost, entropy, eps, SolveOptions(**opts)))
    return results


@pytest.mark.parametrize("eps, entropy, seeds", [
    *[(1e-2, entropy, (70, 71, 72, 73)) for entropy in (
        KL(1.0), KL(0.1), TV(0.1), Range(0.5, 1.5), Balanced(),
        Power(1.0, 0.5), Berg(1.0))],
    # without its fall-back a relaxed loop holds Range's seed 80 in a
    # limit cycle up to max_iter; the plain loop needs 364 sweeps
    (1e-3, Range(0.5, 1.5), (70, 80)), (1e-3, TV(0.1), (73,))],
    ids=["kl-1", "kl-0.1", "tv", "range", "balanced", "power", "berg",
         "range-0.001", "tv-0.001"])
def test_relaxation_never_loses_to_the_plain_loop(monkeypatch, eps, entropy,
                                                  seeds):
    for seed in seeds:
        a, b = uniform_clouds(seed, 40, 1.0 if entropy.name == "balanced"
                              else 1.2)
        cost = SQ.pairwise(a.points, b.points)
        (plain, plain_report), (relaxed, report) = plain_and_relaxed(
            monkeypatch, a, b, cost, entropy, eps, tol=1e-9, max_iter=40000)
        assert plain_report.converged and report.converged
        assert report.iterations <= plain_report.iterations
        if eps < 1e-2:
            assert report.iterations < plain_report.iterations
        value = dual_value(plain, a, b, cost)
        assert dual_value(relaxed, a, b, cost) == pytest.approx(value,
                                                                rel=1e-10)


@pytest.mark.parametrize("instance", ["criterion-2", "kl", "power"])
def test_loops_contracting_faster_than_the_threshold_never_relax(
        monkeypatch, instance):
    if instance == "criterion-2":
        # the first instance of acceptance criterion 2
        rng = np.random.default_rng(2024)
        a, b = (DiscreteMeasure(rng.uniform(0.5, 1.5, 50) / 50,
                                rng.random((50, 2))) for _ in range(2))
        entropy, eps, tol = KL(1.0), 0.1, 3e-4
    else:
        # a 250-atom solve of the grad-cli benchmark
        rng = np.random.default_rng([1, 250])
        a = DiscreteMeasure(rng.uniform(0.5, 1.5, 250) / 250,
                            rng.random((250, 2)))
        b = DiscreteMeasure(rng.uniform(0.5, 1.5, 250) / 250 * 1.2,
                            rng.random((250, 2)))
        entropy = KL(0.1) if instance == "kl" else Power(0.1, 0.5)
        eps, tol = 0.05, 1e-9
    cost = SQ.pairwise(a.points, b.points)
    (plain, plain_report), (relaxed, report) = plain_and_relaxed(
        monkeypatch, a, b, cost, entropy, eps, tol=tol, record_history=True)
    assert report.update_history == plain_report.update_history
    assert np.array_equal(relaxed.f, plain.f)
    assert np.array_equal(relaxed.g, plain.g)
