import math

import numpy as np
import pytest

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure,
                 DomainError, Power, Range, UnsupportedEntropyError, feasible,
                 hellinger, lambert_w, parse_entropy)

ALL = [Balanced(), KL(1.0), TV(1.0), Range(a=0.5, b=1.5), Power(1.0, s=0.5),
       Power(1.0, s=-1.0), Berg(1.0)]


def brute_aprox(entropy, eps, p, lo=-60.0, hi=60.0):
    """Independent oracle: minimize eps*exp((p-q)/eps) + phi*(q) on a grid,
    then golden-refine around the best point."""
    qs = np.linspace(lo, hi, 20001)
    with np.errstate(over="ignore"):
        vals = eps * np.exp(np.minimum((p - qs) / eps, 700.0)) + entropy.conj(qs)
    k = int(np.argmin(vals))
    a, b = qs[max(k - 1, 0)], qs[min(k + 1, len(qs) - 1)]
    golden = (math.sqrt(5) - 1) / 2
    x1, x2 = b - golden * (b - a), a + golden * (b - a)

    def f(q):
        return eps * math.exp((p - q) / eps) + float(entropy.conj(q))

    f1, f2 = f(x1), f(x2)
    while b - a > 1e-12:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


# ---------------------------------------------------------------- phi


def test_phi_is_zero_at_one_for_every_entropy():
    for e in ALL:
        assert float(e.phi(1.0)) == pytest.approx(0.0, abs=1e-15)


def test_phi_values():
    assert float(TV(2.0).phi(0.0)) == 2.0
    assert float(Power(1.0, s=0.5).phi(4.0)) == pytest.approx(2.0, abs=1e-12)
    assert float(KL(1.5).phi(0.0)) == 1.5
    assert math.isinf(float(Berg(1.0).phi(0.0)))
    assert float(Range(a=0.5, b=1.5).phi(0.7)) == 0.0
    assert math.isinf(float(Range(a=0.5, b=1.5).phi(2.0)))
    assert math.isinf(float(Balanced().phi(0.5)))


def test_phi_infinite_for_negative_arguments():
    for e in ALL:
        assert math.isinf(float(e.phi(-0.25)))


def test_hellinger_matches_power_half():
    # 4*rho*(1 + (p-1)/2 - sqrt(p))
    p = np.linspace(0.0, 5.0, 41)
    rho = 1.3
    closed = 4 * rho * (1 + (p - 1) / 2 - np.sqrt(p))
    assert np.allclose(hellinger(rho).phi(p), closed, atol=1e-12)


# ---------------------------------------------------------------- conjugate


def test_conj_values():
    assert float(Balanced().conj(3.7)) == 3.7
    assert float(KL(1.0).conj(0.0)) == 0.0
    assert float(TV(1.0).conj(-5.0)) == -1.0
    assert math.isinf(float(TV(1.0).conj(1.5)))
    assert float(Range(a=0.5, b=1.5).conj(2.0)) == 3.0
    assert float(Range(a=0.5, b=1.5).conj(-2.0)) == -1.0
    assert math.isinf(float(Berg(1.0).conj(1.0)))
    assert float(Berg(2.0).conj(0.0)) == pytest.approx(0.0)


def test_conj_by_brute_force_supremum():
    p = np.linspace(0.0, 60.0, 600001)
    for e in ALL:
        phi_p = e.phi(p)
        finite = np.isfinite(phi_p)
        for q in (-3.0, -0.5, 0.0, 0.3):
            direct = float(e.conj(q))
            brute = float(np.max(p[finite] * q - phi_p[finite]))
            if math.isinf(direct):
                continue
            assert direct == pytest.approx(brute, abs=1e-4)


def test_young_fenchel_inequality():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 4.0, 200)
    for e in ALL:
        q = rng.uniform(-3.0, 0.2, 200)
        lhs = e.phi(p) + e.conj(q)
        with np.errstate(invalid="ignore"):
            assert np.all((lhs >= p * q - 1e-12) | np.isnan(lhs - p * q))


def test_young_fenchel_equality_for_kl():
    rho = 0.7
    e = KL(rho)
    for p in (0.3, 1.0, 2.5):
        q = rho * math.log(p)  # q in the subdifferential of phi at p
        assert float(e.phi(p)) + float(e.conj(q)) == pytest.approx(p * q, abs=1e-12)


def test_rho_scaling_identity():
    # (rho*phi)*(q) = rho * phi*(q / rho)
    rng = np.random.default_rng(6)
    q = rng.uniform(-5.0, 0.5, 100)
    for rho in (0.3, 2.0, 7.5):
        lhs = KL(rho).conj(q)
        rhs = rho * KL(1.0).conj(q / rho)
        assert np.allclose(lhs, rhs, rtol=1e-12)


def test_conj_grad_matches_finite_differences():
    h = 1e-7
    for e in (KL(0.8), Berg(1.2), Power(1.1, s=0.5), Power(0.9, s=-2.0)):
        for q in (-2.0, -0.4, 0.1):
            fd = (float(e.conj(q + h)) - float(e.conj(q - h))) / (2 * h)
            assert float(e.conj_grad(q)) == pytest.approx(fd, rel=1e-6)


# ---------------------------------------------------------------- damp


def test_damp_examples():
    assert float(KL(1.0).damp(1.0, 2.0)) == pytest.approx(1.0)
    assert float(Berg(1.0).damp(1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)
    # Range soft threshold: lower knee at -eps*log(b), so the value at
    # p = -3 is p + log(1.5)
    assert float(Range(a=0.5, b=1.5).damp(1.0, -3.0)) == pytest.approx(
        -3.0 + math.log(1.5), abs=1e-12)
    assert float(Range(a=0.5, b=1.5).damp(1.0, 3.0)) == pytest.approx(
        3.0 + math.log(0.5), abs=1e-12)
    assert float(TV(0.7).damp(1.0, 3.0)) == 0.7
    assert float(Balanced().damp(0.1, -4.2)) == -4.2


def test_damp_fixes_zero_for_every_entropy():
    for e in ALL + [Range(a=0.0, b=1.0), Range(a=0.0, b=2.0), KL(0.1),
                    Power(2.0, s=0.9), Power(0.5, s=-3.0)]:
        for eps in (1e-3, 0.1, 1.0, 10.0):
            assert float(e.damp(eps, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_damp_agrees_with_brute_force_aprox():
    # damp(p) must equal -argmin_q [eps*exp((-p-q)/eps) + phi*(q)]
    for e in ALL:
        for eps in (0.5, 1.0):
            for p in (-2.3, -0.4, 0.0, 0.9, 3.1):
                expected = -brute_aprox(e, eps, -p)
                assert float(e.damp(eps, p)) == pytest.approx(
                    expected, abs=5e-7), (e, eps, p)


def test_damp_is_one_lipschitz_and_monotone():
    rng = np.random.default_rng(7)
    p = np.sort(rng.uniform(-8.0, 8.0, 500))
    for e in ALL:
        for eps in (0.05, 1.0):
            d = e.damp(eps, p)
            steps = np.diff(d)
            assert np.all(steps >= -1e-12)
            assert np.all(steps <= np.diff(p) + 1e-12)


def test_power_damp_matches_hellinger_closed_form():
    rho, eps = 1.4, 0.6
    p = np.linspace(-4.0, 4.0, 81)
    closed = 2 * eps * lambert_w((rho / eps) * np.exp((rho + p / 2) / eps)) - 2 * rho
    assert np.allclose(hellinger(rho).damp(eps, p), closed, atol=1e-10)


def test_berg_damp_matches_lambert_closed_form():
    rho, eps = 0.8, 0.25
    p = np.linspace(-3.0, 3.0, 61)
    closed = eps * lambert_w((rho / eps) * np.exp((rho + p) / eps)) - rho
    assert np.allclose(Berg(rho).damp(eps, p), closed, atol=1e-10)


def test_damp_stable_for_tiny_eps():
    # the log-domain Lambert path must not overflow
    for e in (Power(1.0, s=0.5), Power(1.0, s=-1.0), Berg(1.0)):
        vals = e.damp(1e-6, np.array([-5.0, 0.0, 5.0]))
        assert np.all(np.isfinite(vals))


def test_eps_rescaling_identity():
    # aprox^eps_{phi*}(p) = eps * aprox_{(phi/eps)*}(p/eps); dividing the
    # entropy by eps rescales rho
    rng = np.random.default_rng(8)
    p = rng.uniform(-6.0, 6.0, 50)
    for eps in (0.3, 2.0):
        for make in (KL, Berg):
            lhs = make(1.0).damp(eps, p)
            rhs = eps * make(1.0 / eps).damp(1.0, p / eps)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_range_zero_lower_bound_degenerates_to_min():
    e = Range(a=0.0, b=2.0)
    p = np.linspace(-4, 4, 33)
    assert np.allclose(e.damp(1.0, p), np.minimum(p + math.log(2.0), 0.0))


def test_spatially_varying_kl_damp():
    rho = np.array([0.5, 1.0, 2.0])
    e = KL(1.0, rho_fn=lambda pts: rho).at(np.zeros((3, 1)))
    p = np.array([1.0, 1.0, 1.0])
    out = e.damp(0.5, p)
    assert np.allclose(out, rho / (rho + 0.5))


VARYING = KL(1.0, rho_fn=lambda pts: 0.5 + pts[:, 0])


@pytest.mark.parametrize("call", [
    lambda e, v: e.damp(0.5, v), lambda e, v: e.conj(v),
    lambda e, v: e.conj_grad(v), lambda e, v: e.phi(v),
    lambda e, v: e.aprox(0.5, v)],
    ids=["damp", "conj", "conj_grad", "phi", "aprox"])
def test_spatially_varying_kl_maps_need_a_bound_support(call):
    # unbound, the maps would silently use the scalar rho
    with pytest.raises(DomainError, match=r"\.at\(points\)"):
        call(VARYING, np.ones(3))
    bound = VARYING.at(np.array([[0.0], [1.0], [2.0]]))
    assert np.array_equal(bound.rho, [0.5, 1.5, 2.5])
    call(bound, np.ones(3))
    # a bound strength vector takes one value per atom
    for values in (np.ones(2), np.ones(1), np.ones(4)):
        with pytest.raises(DomainError, match="bound strengths"):
            call(bound, values)


def test_at_binds_only_spatially_varying_strengths():
    points = np.zeros((4, 2))
    for e in ALL:
        assert e.at(points) is e
    bound = VARYING.at(points)
    assert bound.rho_fn is None and np.array_equal(bound.rho, np.full(4, 0.5))
    with pytest.raises(DomainError, match="rho"):
        KL(1.0, rho_fn=lambda pts: np.array([1.0, 0.0, 1.0, 1.0])).at(points)


def test_tv_damp_is_bit_identical_to_clip():
    rng = np.random.default_rng(16)
    p = np.concatenate([3.0 * rng.standard_normal(1000),
                        [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0]])
    for rho in (1e-300, 0.3, 1.0, 1e300):
        expected = np.clip(p, -rho, rho)
        assert np.array_equal(TV(rho).damp(0.5, p).view(np.uint64),
                              expected.view(np.uint64))


# ---------------------------------------------------------------- feasibility


def test_feasibility_rules():
    assert not feasible(Range(a=0.5, b=1.5), 1.0, 4.0)
    assert feasible(Range(a=0.5, b=1.5), 1.0, 2.0)
    assert feasible(KL(1.0), 0.3, 17.0)
    assert feasible(Balanced(), 1.0, 1.0)
    assert not feasible(Balanced(), 1.0, 2.0)


def test_feasibility_null_measures():
    assert feasible(KL(1.0), 0.0, 3.0)
    assert feasible(TV(1.0), 3.0, 0.0)
    assert feasible(Range(a=0.0, b=1.0), 0.0, 1.0)
    assert not feasible(Range(a=0.5, b=1.5), 0.0, 1.0)
    assert not feasible(Berg(1.0), 0.0, 1.0)
    assert not feasible(Balanced(), 0.0, 1.0)
    assert feasible(Balanced(), 0.0, 0.0)


# ---------------------------------------------------------------- init


def _pair(mass_b):
    alpha = DiscreteMeasure([1.0, 1.0], [[0.0], [1.0]])
    beta = DiscreteMeasure([mass_b / 2, mass_b / 2], [[0.5], [1.5]])
    cost = CostSpec().pairwise(alpha.points, beta.points)
    return alpha, beta, cost


def test_init_potential_kl():
    alpha, beta, cost = _pair(1.0)
    assert np.allclose(KL(2.0).init_potential(1.0, alpha, beta, cost), 0.0)
    alpha, beta, cost = _pair(math.e)
    f0 = KL(1.0).init_potential(1.0, alpha, beta, cost)
    assert np.allclose(f0, -1.0)


def test_init_potential_range_is_zero():
    alpha, beta, cost = _pair(3.7)
    assert np.allclose(Range(a=0.5, b=1.5).init_potential(1.0, alpha, beta, cost), 0.0)


def test_init_potential_balanced():
    alpha, beta, cost = _pair(1.0)
    conv = cost @ beta.weights
    expected = conv - 0.5 * float(alpha.weights @ conv)
    assert np.allclose(Balanced().init_potential(1.0, alpha, beta, cost), expected)


def test_init_potential_tv():
    alpha, beta, cost = _pair(2.0)
    assert np.allclose(TV(0.4).init_potential(1.0, alpha, beta, cost), -0.4)
    alpha, beta, cost = _pair(0.5)
    assert np.allclose(TV(0.4).init_potential(1.0, alpha, beta, cost), 0.4)
    alpha, beta, cost = _pair(1.0)
    e = TV(0.4)
    conv = cost @ beta.weights
    expected = e.damp(1.0, conv - 0.5 * float(alpha.weights @ conv))
    assert np.allclose(e.init_potential(1.0, alpha, beta, cost), expected)
    assert np.max(np.abs(e.init_potential(1.0, alpha, beta, cost))) <= 0.4


def test_init_potential_power_and_berg():
    alpha, beta, cost = _pair(2.0)
    e = Power(1.0, s=0.5)
    expected = e.recession * (2.0 ** (e.s - 1.0) - 1.0)
    assert np.allclose(e.init_potential(1.0, alpha, beta, cost), expected)
    assert np.allclose(Berg(1.5).init_potential(1.0, alpha, beta, cost),
                       1.5 * (1.0 / 2.0 - 1.0))


def test_init_potential_null_other_falls_back_to_zero():
    alpha = DiscreteMeasure([1.0], [[0.0]])
    null = DiscreteMeasure([], [])
    out = KL(1.0).init_potential(1.0, alpha, null, np.zeros((1, 0)))
    assert np.array_equal(out, np.zeros(1))


# ---------------------------------------------------------------- parsing


def test_parse_entropy_grammar():
    assert parse_entropy("balanced") == Balanced()
    assert parse_entropy("kl:rho=1.0") == KL(1.0)
    assert parse_entropy("tv:rho=0.5") == TV(0.5)
    assert parse_entropy("range:a=0.7,b=1.3") == Range(a=0.7, b=1.3)
    assert parse_entropy("power:rho=1,s=0.5") == Power(1.0, s=0.5)
    assert parse_entropy("berg:rho=1") == Berg(1.0)


def test_parse_entropy_errors():
    with pytest.raises(DomainError):
        parse_entropy("gaussian")
    with pytest.raises(DomainError):
        parse_entropy("kl:rho")
    with pytest.raises(DomainError):
        parse_entropy("kl:sigma=1")


def test_parameter_validation():
    with pytest.raises(DomainError):
        KL(0.0)
    with pytest.raises(DomainError):
        TV(-1.0)
    with pytest.raises(DomainError):
        Range(a=1.2, b=1.5)
    with pytest.raises(DomainError):
        Range(a=0.5, b=0.9)
    with pytest.raises(DomainError):
        Power(1.0, s=0.0)
    with pytest.raises(DomainError):
        Power(1.0, s=1.5)
    with pytest.raises(DomainError):
        Berg(0.0)


def test_conj_grad_unsupported_for_nonsmooth():
    with pytest.raises(UnsupportedEntropyError):
        TV(1.0).conj_grad(0.0)
