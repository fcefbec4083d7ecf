import math
from functools import partial

import numpy as np
import pytest

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 DomainError, DualPotentials, Power, Range, SolveOptions,
                 UnsupportedEntropyError, dual_value, grad_positions,
                 grad_weights, hausdorff_divergence, ot_eps, plan_matrix,
                 sinkhorn_divergence, sinkhorn_entropy, solve)
import uot.divergences
import uot.sinkhorn
from uot.divergences import _entropy_grad, _term, solve_terms
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


def test_entry_points_reject_a_penalty_bound_to_atoms():
    # a bound penalty would read one support's strengths on the other,
    # and its phi(0) against the null measure is a vector
    rng = np.random.default_rng(62)
    a, b = random_measure(rng, 2, d=1), random_measure(rng, 2, d=1)
    varying = KL(0.5, rho_fn=lambda pts: 0.5 + pts[:, 0])
    null = DiscreteMeasure([], [])
    for call in (lambda: ot_eps(null, b, SQ, varying.at(b.points), 0.1),
                 lambda: ot_eps(a, b, SQ, varying.at(a.points), 0.1),
                 lambda: sinkhorn_divergence(a, b, SQ, varying.at(a.points),
                                             0.1),
                 lambda: sinkhorn_entropy(a, SQ, varying.at(a.points), 0.1),
                 lambda: grad_weights(a, b, SQ, varying.at(a.points), 0.1),
                 lambda: dual_value(DualPotentials(np.zeros(2), np.zeros(2),
                                                   0.1, varying.at(a.points)),
                                    a, b, SQ.pairwise(a.points, b.points))):
        with pytest.raises(DomainError, match="unbound penalty"):
            call()
    assert ot_eps(null, b, SQ, varying, 0.1).value == pytest.approx(
        float(b.weights @ (0.5 + b.points[:, 0])))


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
    # the O(NM) plan mass and the pointwise conjugate-derivative form must
    # agree at convergence
    rng = np.random.default_rng(31)
    a, b = random_measure(rng, 10), random_measure(rng, 13)
    tol = 1e-11
    for entropy in (KL(1.0), Berg(0.9), Power(1.1, s=0.5)):
        c_ab = SQ.pairwise(a.points, b.points)
        pots, _ = solve(a, b, c_ab, entropy, 0.4, SolveOptions(tol=tol))
        q_plan = plan_matrix(pots, a, b, c_ab).sum()
        q_conj = float(a.weights @ entropy.conj_grad(-pots.f))
        assert abs(q_plan - q_conj) <= 10 * tol * (a.total_mass + b.total_mass)


@pytest.mark.parametrize("g_only", [False, True])
def test_vector_inits_warm_start_the_cross_solve_only(g_only):
    # the self solves of S_eps live on one support each: an init vector of
    # the cross solve does not fit them, so they start cold
    rng = np.random.default_rng(36)
    a, b = random_measure(rng, 5), random_measure(rng, 7)
    entropy, eps = KL(0.8), 0.3
    pots, _ = solve(a, b, SQ.pairwise(a.points, b.points), entropy, eps)
    init = (None if g_only else pots.f + 0.01, pots.g - 0.01)
    warm = SolveOptions(tol=TIGHT.tol, max_iter=TIGHT.max_iter, init=init)
    cold_value = sinkhorn_divergence(a, b, SQ, entropy, eps, TIGHT).value
    value = sinkhorn_divergence(a, b, SQ, entropy, eps, warm).value
    assert abs(value - cold_value) <= 1e-9
    cold = grad_positions(a, b, SQ, entropy, eps, "s", TIGHT)
    grads = grad_positions(a, b, SQ, entropy, eps, "s", warm)
    for side in ("d_points_a", "d_points_b"):
        assert np.max(np.abs(getattr(grads, side)
                             - getattr(cold, side))) <= 1e-9


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
    # on this instance the cross solve converges in 2 sweeps, the self
    # solve of ``a`` needs 16 and that of ``b`` 19: a budget of 17 stops
    # only the self solve of ``b``
    n = 8
    rng = np.random.default_rng([4, n])
    a = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n, rng.random((n, 2)))
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, n) / n * 1.2, rng.random((n, 2)))
    assert ot_eps(a, b, SQ, TV(0.1), 0.5).report.iterations == 2
    assert sinkhorn_entropy(a, SQ, TV(0.1), 0.5).report.iterations == 16
    assert sinkhorn_entropy(b, SQ, TV(0.1), 0.5).report.iterations == 19
    res = sinkhorn_divergence(a, b, SQ, TV(0.1), 0.5,
                              SolveOptions(max_iter=17))
    assert res.report.status == "max_iter"
    assert res.report.iterations == 2 + 16 + 17  # sweeps of all three solves


# ------------------------------------------------------------- hausdorff


def test_hausdorff_vanishes_on_diagonal():
    rng = np.random.default_rng(37)
    a = random_measure(rng, 8)
    assert hausdorff_divergence(a, a, SQ, KL(1.0), 0.5).value == 0.0


def test_hausdorff_bounds_against_divergence():
    rng = np.random.default_rng(38)
    for _ in range(5):
        a, b = random_measure(rng, 9), random_measure(rng, 12)
        for entropy in (KL(0.9), KL(0.9, rho_fn=lambda pts: 0.5 + pts[:, 0])):
            h = hausdorff_divergence(a, b, SQ, entropy, 0.4, TIGHT).value
            s = sinkhorn_divergence(a, b, SQ, entropy, 0.4, TIGHT).value
            assert -1e-10 <= h <= 2 * s + 1e-10


@pytest.mark.parametrize("power", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("entropy", [
    KL(0.8), Power(0.5, s=0.5), Berg(2.0),
    KL(1.0, rho_fn=lambda pts: 0.5 + pts[:, 0])],
    ids=["kl", "power", "berg", "spatial_kl"])
def test_hausdorff_builds_its_cross_cost_once(monkeypatch, entropy, power):
    rng = np.random.default_rng(39)
    a, b = random_measure(rng, 7, d=3), random_measure(rng, 9, d=3)
    cost, eps = CostSpec.euclidean_pow(power), 0.4
    # each self potential extended to the other support through extrapolate
    pots_a, pots_b = (sinkhorn_entropy(m, cost, entropy, eps, TIGHT).potentials
                      for m in (a, b))
    f_on_b = extrapolate(pots_a, "a", a, b.points, cost)
    g_on_a = extrapolate(pots_b, "a", b, a.points, cost)
    # the gradients of F_eps on each support, rho read there
    on_a, on_b = (partial(_entropy_grad, entropy.at(m.points), eps)
                  for m in (a, b))
    expected = (float(a.weights @ (on_a(pots_a.f) - on_a(g_on_a)))
                - float(b.weights @ (on_b(f_on_b) - on_b(pots_b.f))))
    inner, calls = CostSpec.pairwise, []

    def recorded(self, xs, ys, out=None):
        calls.append(len(xs) * len(ys))
        return inner(self, xs, ys, out)

    monkeypatch.setattr(CostSpec, "pairwise", recorded)
    value = hausdorff_divergence(a, b, cost, entropy, eps, TIGHT).value
    # one cross cost, and the two self costs unless the self terms build
    # their squared-Euclidean kernels from the points
    assert sorted(calls) == ([7 * 9] if power == 2.0
                             else [7 * 7, 7 * 9, 9 * 9])
    assert value == expected


def test_hausdorff_unsupported_for_nonsmooth():
    a, b = dirac_pair(1.0)
    for entropy in (TV(1.0), Balanced(), Range(a=0.5, b=1.5)):
        with pytest.raises(UnsupportedEntropyError):
            hausdorff_divergence(a, b, SQ, entropy, 1.0)


@pytest.mark.parametrize("pair", ["f_g", "none_g"])
def test_hausdorff_self_solves_start_from_the_asymptotic_init(pair):
    # a vector init lives on the supports of a cross problem, which this
    # divergence does not solve; its two self solves start as solve_terms'
    rng = np.random.default_rng(40)
    a, b = random_measure(rng, 5), random_measure(rng, 7)
    f = None if pair == "none_g" else np.zeros(5)
    opts = SolveOptions(tol=1e-10, init=(f, np.zeros(7)))
    ref = hausdorff_divergence(a, b, SQ, KL(1.0), 0.2, SolveOptions(tol=1e-10))
    got = hausdorff_divergence(a, b, SQ, KL(1.0), 0.2, opts)
    assert got.value == ref.value
    assert got.report.iterations == ref.report.iterations


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


@pytest.mark.parametrize("which", ["ot", "s"])
def test_weight_gradient_of_distance_cost_at_coincident_points(which,
                                                               monkeypatch):
    # weight gradients read the plans' row sums alone: a cost whose
    # gradient is undefined where atoms coincide (every self term, and here
    # the cross term) still has them, and no cost gradient is formed
    from uot.oracle import fd_gradient
    rng = np.random.default_rng(47)
    a = random_measure(rng, 6)
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, 7) / 7,
                        np.vstack([a.points[:3], rng.random((4, 2))]))
    cost, eps = CostSpec.euclidean_pow(1.0), 0.4
    fn = ot_eps if which == "ot" else sinkhorn_divergence
    fd_w, _ = fd_gradient(lambda m: fn(m, b, cost, KL(1.0), eps, TIGHT).value,
                          a, h=1e-5)

    def no_grad_x(*args, **kwargs):
        raise AssertionError("weight gradients formed a cost gradient")

    monkeypatch.setattr(CostSpec, "grad_x", no_grad_x)
    g = grad_weights(a, b, cost, KL(1.0), eps, which, TIGHT)
    assert np.all(np.isfinite(g.d_weights_a))
    assert np.all(np.isfinite(g.d_weights_b))
    assert np.max(np.abs(g.d_weights_a - fd_w)) <= 1e-5 * np.max(np.abs(fd_w))


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


def tensor_cost_grad(spec, xs, ys):
    """``grad_x C(x_i, y_j)`` as the N x M x d tensor."""
    diff = xs[:, None, :] - ys[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    coef = spec.scale * spec.power * dist ** (spec.power - 2.0)
    return coef[:, :, None] * diff


@pytest.mark.parametrize("d", [1, 2, 3])
def test_position_gradient_matches_the_tensor_contraction(d):
    # the plan contracted with the N x M x d tensor of cost gradients
    rng = np.random.default_rng(60 + d)
    a, b = random_measure(rng, 30, d), random_measure(rng, 40, d)
    for spec in (SQ, CostSpec.euclidean_pow(1.5, 2.0)):
        g = grad_positions(a, b, spec, KL(1.0), 0.3, "ot")
        cost = spec.pairwise(a.points, b.points)
        pots, _ = solve(a, b, cost, KL(1.0), 0.3)
        plan = plan_matrix(pots, a, b, cost)
        for got, pi, own, other in ((g.d_points_a, plan, a, b),
                                    (g.d_points_b, plan.T, b, a)):
            ref = np.einsum("ij,ijk->ik", pi,
                            tensor_cost_grad(spec, own.points, other.points))
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_position_gradients_build_no_cost_gradient_tensor(traced_peak):
    # each contraction is a row sum and a matrix product with the plan; the
    # N x M x 2 tensor of cost gradients took 2 N x M arrays.  The first
    # side read builds the plan and reduces the other side from it too
    n = 300
    rng = np.random.default_rng(61)
    a, b = random_measure(rng, n), random_measure(rng, n)
    for first, second in (("a", "b"), ("b", "a")):
        cross = solve_terms(a, b, SQ, KL(1.0), 0.1, "ot").cross
        cross.reductions(first, SQ)
        peak = traced_peak(lambda: cross.reductions(second, SQ))
        assert peak < 0.25 * n * n * 8


def test_gradients_hold_one_plan_at_a_time(traced_peak):
    # the cross cost, two self kernels and one plan (4.39 N x M): each term
    # reduces its plan side by side and drops it before the next term
    # builds its own; terms that kept their plans would hold about 7
    n = 300
    rng = np.random.default_rng(61)
    a, b = random_measure(rng, n), random_measure(rng, n)

    def gradients():
        bundle = solve_terms(a, b, SQ, KL(1.0), 0.1, "s")
        bundle.grad_weights()
        bundle.grad_positions()

    assert traced_peak(gradients) < 4.5 * n * n * 8


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


# ------------------------------------------- plans read off the f kernel


def workspace_pair(seed, n=12, m=15):
    """Two measures of equal mass, so that every penalty is feasible."""
    rng = np.random.default_rng(seed)
    a = random_measure(rng, n)
    b = DiscreteMeasure(rng.uniform(0.5, 1.5, m), 0.3 + 0.8 * rng.random((m, 2)))
    return a, b.scaled(a.total_mass / b.total_mass)


def workspace_term(alpha, beta, cost, entropy, eps, symmetric=False):
    """A term solved into buffers it owns, as a flow's terms are."""
    n, m = len(alpha), len(beta)
    kernels = ((np.empty((n, n)),) if symmetric
               else (np.empty((m, n)), np.empty((n, m))))
    return _term(alpha, beta, cost, entropy, eps,
                 SolveOptions(max_iter=3000), symmetric=symmetric,
                 kernels=kernels)


def assert_reductions_match_the_plan(term, side, cost, plan):
    """Row sums within 1e-12 relative of the plan's, and the contraction
    within 1e-12 of its largest possible size, the plan's largest row mass
    times the largest ``|grad_x C|``: a self term's contraction nearly
    vanishes, cancelling down from terms of that size."""
    _, own, other = term.oriented(side)
    sums, contraction = term.reductions(side, cost)
    ref_sums = plan.sum(axis=1)
    assert np.max(np.abs(sums - ref_sums)) <= 1e-12 * np.max(ref_sums)
    ref = cost.grad_x(own.points, other.points, plan)
    grad_size = np.max(np.linalg.norm(
        tensor_cost_grad(cost, own.points, other.points), axis=-1))
    assert (np.max(np.abs(contraction - ref))
            <= 1e-12 * np.max(ref_sums) * grad_size)


def no_plan_matrix(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("plan_matrix called")
    monkeypatch.setattr(uot.divergences, "plan_matrix", refused)


every_penalty = pytest.mark.parametrize("entropy", [
    KL(0.1), KL(0.1, rho_fn=lambda pts: 0.05 + 0.1 * pts[:, 0]), TV(0.1),
    Range(0.7, 1.4), Balanced(), Power(0.1, 0.5), Berg(0.1)],
    ids=["kl", "spatial-kl", "tv", "range", "balanced", "power", "berg"])


@pytest.mark.parametrize("eps", [1e-3, 0.05])
@every_penalty
def test_workspace_terms_read_their_plan_off_the_f_kernel(monkeypatch,
                                                          entropy, eps):
    a, b = workspace_pair(81)
    no_plan_matrix(monkeypatch)
    for power in (2.0, 3.0):
        cost = CostSpec.euclidean_pow(power)
        for beta, symmetric in ((b, False), (a, True)):
            term = workspace_term(a, beta, cost, entropy, eps, symmetric)
            plan = uot.sinkhorn.plan_matrix(
                term.pots, a, beta, cost.pairwise(a.points, beta.points))
            assert_reductions_match_the_plan(term, "a", cost, plan)


@pytest.mark.parametrize("symmetric", [False, True], ids=["cross", "self"])
def test_a_rebuilt_f_kernel_is_the_plan_up_to_row_scales(monkeypatch,
                                                         symmetric):
    # with no drift allowed every half-update rebuilds its kernel, so the
    # last one leaves no column scales to fold in
    monkeypatch.setattr(uot.sinkhorn, "_KERNEL_DRIFT", 0.0)
    a, b = workspace_pair(82)
    beta = a if symmetric else b
    no_plan_matrix(monkeypatch)
    term = workspace_term(a, beta, SQ, TV(0.1), 1e-3, symmetric)
    assert term._half.e is None
    plan = uot.sinkhorn.plan_matrix(term.pots, a, beta,
                                    SQ.pairwise(a.points, beta.points))
    assert_reductions_match_the_plan(term, "a", SQ, plan)


def test_side_b_builds_one_plan_and_side_a_reads_the_f_kernel(monkeypatch):
    # side "b" of a workspace cross term is reduced from a fresh plan,
    # which leaves the f kernel to side "a"
    a, b = workspace_pair(83)
    term = workspace_term(a, b, SQ, KL(0.1), 1e-3)
    plan = plan_matrix(term.pots, a, b, SQ.pairwise(a.points, b.points))
    kernel = term._half.kernel.copy()
    built = []

    def counted(*args):
        built.append(args)
        return plan_matrix(*args)

    monkeypatch.setattr(uot.divergences, "plan_matrix", counted)
    assert_reductions_match_the_plan(term, "b", SQ, plan.T)
    assert len(built) == 1
    assert np.array_equal(term._half.kernel, kernel)
    no_plan_matrix(monkeypatch)
    assert_reductions_match_the_plan(term, "a", SQ, plan)


@pytest.mark.parametrize("owned", [False, True], ids=["fresh", "workspace"])
def test_a_weights_read_leaves_the_self_kernel_unchanged(monkeypatch, owned):
    # row sums need no W = K diag(e); a position read forms it later
    a, _ = workspace_pair(87)
    term = (workspace_term(a, a, SQ, KL(0.1), 1e-3, symmetric=True)
            if owned else _term(a, a, SQ, KL(0.1), 1e-3,
                                SolveOptions(max_iter=3000), symmetric=True))
    assert term._half.e is not None
    kernel = term._half.kernel.copy()
    no_plan_matrix(monkeypatch)
    sums, contraction = term.reductions("a")
    assert contraction is None
    assert np.array_equal(term._half.kernel, kernel)
    plan = plan_matrix(term.pots, a, a, SQ.pairwise(a.points, a.points))
    assert_reductions_match_the_plan(term, "a", SQ, plan)
    assert np.array_equal(term.reductions("a")[0], sums)


@pytest.mark.parametrize("entropy", [KL(0.1), TV(0.1), Balanced()],
                         ids=["kl", "tv", "balanced"])
def test_workspace_self_terms_solve_as_terms_without_buffers(entropy):
    # a workspace self term refreshes its half-update at the returned
    # potential, which moves neither the potential nor the report
    a, _ = workspace_pair(84)
    plain = _term(a, a, SQ, entropy, 1e-2, SolveOptions(max_iter=3000),
                  symmetric=True)
    term = workspace_term(a, a, SQ, entropy, 1e-2, symmetric=True)
    assert np.array_equal(term.pots.f, plain.pots.f)
    assert term.report == plain.report


@pytest.mark.parametrize("owned", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize("eps", [1e-3, 0.05])
@every_penalty
def test_self_terms_read_sums_contraction_and_value_off_their_kernel(
        monkeypatch, entropy, eps, owned):
    a, _ = workspace_pair(85)
    for power in (2.0, 3.0):
        cost = CostSpec.euclidean_pow(power)
        no_plan_matrix(monkeypatch)
        term = (workspace_term(a, a, cost, entropy, eps, symmetric=True)
                if owned else _term(a, a, cost, entropy, eps,
                                    SolveOptions(max_iter=3000),
                                    symmetric=True))
        c_aa = cost.pairwise(a.points, a.points)
        plan = uot.sinkhorn.plan_matrix(term.pots, a, a, c_aa)
        assert_reductions_match_the_plan(term, "a", cost, plan)
        value = term.ot
        monkeypatch.undo()
        ref = dual_value(term.pots, a, a, c_aa)
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_self_terms_keep_their_kernel_instead_of_their_cost():
    a, b = workspace_pair(86)
    solved = solve_terms(a, b, SQ, KL(0.1), 1e-2, "s")
    for term in (solved.self_a, solved.self_b):
        assert term.cost is None and term._half.cost is None
        # the only N x N array either holds is the kernel
        held = [v for obj in (term, term._half) for v in vars(obj).values()
                if isinstance(v, np.ndarray) and v.ndim == 2]
        assert len(held) == 1 and held[0] is term._half.kernel
    assert np.all(np.isfinite(solved.grad_positions().d_points_a))


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
