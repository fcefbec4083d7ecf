"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion N (<label>): PASS|FAIL` line (run with -s to
see them on success) and enforces the stated runtime budget.
"""

import math
import time

import numpy as np

from uot import (KL, TV, Balanced, Berg, CostSpec, DiscreteMeasure, Power,
                 Range, SolveOptions, dirac_pair_value, dual_value,
                 grad_positions, grad_weights, hausdorff_divergence,
                 lambert_w, lambert_w_log, ot_eps, plan_matrix,
                 sinkhorn_divergence, sinkhorn_entropy, softmin, solve,
                 solve_symmetric)
from uot.flows import FlowParams, FlowState, run_flow
from uot.oracle import fd_gradient
from uot.sinkhorn import symmetric_potentials

SQ = CostSpec.sq_euclidean()


def _report(num, label, failures, elapsed, budget):
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds {budget:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} ({label}): {status} [{elapsed:.2f}s]"
          + ("" if not failures else f" -- {failures[:3]}"))
    assert not failures, f"criterion {num}: {failures}"


def _random_measure(rng, n, d=2, mass_lo=0.5, mass_hi=1.5, box=1.0):
    return DiscreteMeasure(rng.uniform(mass_lo, mass_hi, n) / n,
                           box * rng.random((n, d)))


def test_criterion_01_dirac_pair_exactness():
    t0 = time.monotonic()
    failures = []
    opts = SolveOptions(tol=1e-9, max_iter=30000)
    for c in (0.0, 0.5, 1.0, 3.0):
        a = DiscreteMeasure([1.0], [[0.0]])
        b = DiscreteMeasure([1.0], [[math.sqrt(c)]])
        cost = SQ.pairwise(a.points, b.points)
        for rho in (0.1, 1.0, 10.0):
            for eps in (0.01, 0.1, 1.0):
                scale = 2 * rho + eps
                closed = scale * (1 - math.exp(-c / scale))
                golden = dirac_pair_value(KL(rho), (1.0, 1.0), c, eps)
                if abs(golden - closed) > 1e-9 * (1 + closed):
                    failures.append(f"oracle mismatch at c={c} rho={rho} eps={eps}")
                pots, _ = solve(a, b, cost, KL(rho), eps, opts)
                val = dual_value(pots, a, b, cost)
                err = abs(val - closed) / closed if closed else abs(val)
                if err > 1e-9:
                    failures.append(
                        f"c={c} rho={rho} eps={eps}: rel err {err:.2e}")
    _report(1, "Dirac-pair exactness", failures, time.monotonic() - t0, 1.0)


def test_criterion_02_geometric_rate():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(2024)
    rho, eps = 1.0, 0.1
    bound = (rho / (rho + eps)) ** 2 + 1e-12
    checked = 0
    for trial in range(20):
        a = _random_measure(rng, 50)
        b = _random_measure(rng, 50)
        cost = SQ.pairwise(a.points, b.points)
        _, rep = solve(a, b, cost, KL(rho), eps,
                       SolveOptions(tol=3e-4, record_history=True))
        h = rep.update_history
        # h[k] is the sup-norm update of sweep k+1; the first checked ratio
        # is update_3 / update_2
        for t in range(1, len(h) - 1):
            checked += 1
            ratio = h[t + 1] / h[t]
            if ratio > bound:
                failures.append(f"trial {trial}, iter {t}: ratio {ratio:.15f}")
    if checked < 100:
        failures.append(f"only {checked} ratios checked")
    _report(2, "geometric rate", failures, time.monotonic() - t0, 5.0)


def test_criterion_03_balanced_marginals():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(3)
    for trial in range(5):
        a = _random_measure(rng, 100)
        b = _random_measure(rng, 100)
        a = a.scaled(1 / a.total_mass)
        b = b.scaled(1 / b.total_mass)
        cost = SQ.pairwise(a.points, b.points)
        pots, rep = solve(a, b, cost, Balanced(), 0.1, SolveOptions(tol=1e-10))
        if not rep.converged:
            failures.append(f"trial {trial}: {rep.status}")
            continue
        pi = plan_matrix(pots, a, b, cost)
        res_a = np.max(np.abs(pi.sum(1) - a.weights)) / np.max(a.weights)
        res_b = np.max(np.abs(pi.sum(0) - b.weights)) / np.max(b.weights)
        if max(res_a, res_b) > 1e-6:
            failures.append(f"trial {trial}: residual {max(res_a, res_b):.2e}")
    _report(3, "balanced marginal feasibility", failures,
            time.monotonic() - t0, 10.0)


def _warm_ot_value(entropy, eps, beta, base_pots, cost_spec):
    def value(m):
        cost = cost_spec.pairwise(m.points, beta.points)
        pots, _ = solve(m, beta, cost, entropy, eps,
                        SolveOptions(tol=1e-10, init=(base_pots.f, base_pots.g)))
        return dual_value(pots, m, beta, cost)
    return value


def _warm_s_value(entropy, eps, beta, base_pots, base_sym, f_beta_val, cost_spec):
    def value(m):
        cost = cost_spec.pairwise(m.points, beta.points)
        pots, _ = solve(m, beta, cost, entropy, eps,
                        SolveOptions(tol=1e-10, init=(base_pots.f, base_pots.g)))
        ot = dual_value(pots, m, beta, cost)
        c_aa = cost_spec.pairwise(m.points, m.points)
        f_sym, _ = solve_symmetric(m, c_aa, entropy, eps,
                                   SolveOptions(tol=1e-10, init=base_sym))
        from uot.sinkhorn import DualPotentials
        ot_aa = dual_value(DualPotentials(f_sym, f_sym, eps, entropy), m, m, c_aa)
        f_a = -0.5 * ot_aa + 0.5 * eps * m.total_mass ** 2
        return ot + f_a + f_beta_val - eps * m.total_mass * beta.total_mass
    return value


def test_criterion_04_gradient_correctness():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(4)
    eps, h = 0.4, 1e-5
    opts = SolveOptions(tol=1e-11)

    def check(entropy, tag, trial):
        a = _random_measure(rng, 20)
        b = _random_measure(rng, 20)
        cost = SQ.pairwise(a.points, b.points)
        base, _ = solve(a, b, cost, entropy, eps, opts)
        f_sym, _ = solve_symmetric(a, SQ.pairwise(a.points, a.points),
                                   entropy, eps, opts)
        f_beta = sinkhorn_entropy(b, SQ, entropy, eps, opts).value
        probes = {
            "ot": _warm_ot_value(entropy, eps, b, base, SQ),
            "s": _warm_s_value(entropy, eps, b, base, f_sym, f_beta, SQ),
        }
        for which, value_fn in probes.items():
            fd_w, fd_p = fd_gradient(value_fn, a, h=h)
            gw = grad_weights(a, b, SQ, entropy, eps, which, opts).d_weights_a
            gp = grad_positions(a, b, SQ, entropy, eps, which, opts).d_points_a
            err_w = np.max(np.abs(gw - fd_w)) / max(np.max(np.abs(fd_w)), 1e-12)
            err_p = np.max(np.abs(gp - fd_p)) / max(np.max(np.abs(fd_p)), 1e-12)
            if err_w > 1e-5:
                failures.append(f"{tag} {which} trial {trial}: weights {err_w:.2e}")
            if err_p > 1e-5:
                failures.append(f"{tag} {which} trial {trial}: positions {err_p:.2e}")

    for trial in range(5):
        check(KL(1.0), "kl", trial)
        check(Berg(1.0), "berg", trial)
    _report(4, "gradient correctness", failures, time.monotonic() - t0, 30.0)


def test_criterion_05_positivity_and_lower_bounds():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(5)
    opts = SolveOptions(tol=1e-11)
    for trial in range(50):
        n, m = rng.integers(5, 31), rng.integers(5, 31)
        a = _random_measure(rng, int(n))
        b = _random_measure(rng, int(m))
        rho = float(rng.uniform(0.5, 1.5))
        eps = float(rng.uniform(0.2, 0.8))
        entropy = KL(rho)
        s_val = sinkhorn_divergence(a, b, SQ, entropy, eps, opts).value
        h_val = hausdorff_divergence(a, b, SQ, entropy, eps, opts).value
        if s_val < -1e-10:
            failures.append(f"trial {trial}: S = {s_val:.2e}")
        if s_val < 0.5 * h_val - 1e-10:
            failures.append(f"trial {trial}: S < H/2 ({s_val:.2e} vs {h_val:.2e})")
        # kernel-norm lower bound with k = exp(-C/eps)
        pa, _ = symmetric_potentials(a, SQ.pairwise(a.points, a.points),
                                     entropy, eps, opts)
        pb, _ = symmetric_potentials(b, SQ.pairwise(b.points, b.points),
                                     entropy, eps, opts)
        mu = np.concatenate([a.weights * np.exp(pa.f / eps),
                             -b.weights * np.exp(pb.f / eps)])
        pts = np.vstack([a.points, b.points])
        kernel = np.exp(-SQ.pairwise(pts, pts) / eps)
        norm_sq = float(mu @ kernel @ mu)
        if s_val < 0.5 * eps * norm_sq - 1e-10:
            failures.append(f"trial {trial}: S below kernel bound")
    _report(5, "positivity and lower bounds", failures,
            time.monotonic() - t0, 30.0)


def test_criterion_06_high_temperature_asymptotics():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(6)
    scale = 1.0 / math.sqrt(2.0)  # unit square scaled to diameter <= 1
    for entropy in (KL(1.0), TV(0.7)):
        for trial in range(3):
            a = _random_measure(rng, 10, mass_lo=0.7, mass_hi=0.9, box=scale)
            b = _random_measure(rng, 12, mass_lo=1.1, mass_hi=1.4, box=scale)
            cost = SQ.pairwise(a.points, b.points)
            ma, mb = a.total_mass, b.total_mass
            limit = (float(a.weights @ cost @ b.weights)
                     + ma * float(entropy.phi(mb)) + mb * float(entropy.phi(ma)))
            devs = []
            for eps in (1e2, 1e3, 1e4):
                val = ot_eps(a, b, SQ, entropy, eps,
                             SolveOptions(tol=1e-12)).value
                devs.append(abs(val - limit))
            if not devs[0] > devs[1] > devs[2]:
                failures.append(f"{entropy.name} {trial}: not monotone {devs}")
            if devs[2] > 0.01 * abs(limit):
                failures.append(f"{entropy.name} {trial}: dev {devs[2]:.2e}")
    _report(6, "high-temperature asymptotics", failures,
            time.monotonic() - t0, 5.0)


def test_criterion_07_symmetric_identity():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(7)
    opts = SolveOptions(tol=1e-11, max_iter=50000)
    for trial in range(20):
        a = _random_measure(rng, int(rng.integers(5, 25)))
        f_eps = sinkhorn_entropy(a, SQ, KL(1.0), 0.3, opts).value
        twin = DiscreteMeasure(a.weights.copy(), a.points.copy())
        ot_aa = ot_eps(a, twin, SQ, KL(1.0), 0.3, opts).value
        expected = -0.5 * ot_aa + 0.5 * 0.3 * a.total_mass ** 2
        if abs(f_eps - expected) > 1e-8:
            failures.append(f"trial {trial}: |diff| {abs(f_eps - expected):.2e}")
    _report(7, "symmetric identity", failures, time.monotonic() - t0, 5.0)


def test_criterion_08_null_measure_closed_forms():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(8)
    null = DiscreteMeasure([], [])
    beta = _random_measure(rng, 7)
    mb = beta.total_mass
    for rho in (0.25, 1.0, 3.0):
        if ot_eps(null, beta, SQ, KL(rho), 0.5).value != mb * rho:
            failures.append(f"KL rho={rho}")
        if ot_eps(null, beta, SQ, TV(rho), 0.5).value != mb * rho:
            failures.append(f"TV rho={rho}")
        if not math.isinf(ot_eps(null, beta, SQ, Berg(rho), 0.5).value):
            failures.append(f"Berg rho={rho}")
    _report(8, "null-measure closed forms", failures,
            time.monotonic() - t0, 1.0)


def test_criterion_09_range_feasibility_gate():
    t0 = time.monotonic()
    failures = []
    grid = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)
    for (lo, hi) in ((0.5, 1.5), (0.0, 1.0), (0.7, 1.3), (1.0, 1.0)):
        entropy = Range(a=lo, b=hi)
        for ma in grid:
            for mb in grid:
                alpha = DiscreteMeasure([ma], [[0.0]])
                beta = DiscreteMeasure([mb], [[0.5]])
                cost = SQ.pairwise(alpha.points, beta.points)
                _, rep = solve(alpha, beta, cost, entropy, 0.5)
                empty = lo * max(ma, mb) > hi * min(ma, mb)
                if (rep.status == "infeasible") != empty:
                    failures.append(f"[{lo},{hi}] masses ({ma},{mb})")
    _report(9, "range feasibility gate", failures, time.monotonic() - t0, 1.0)


def test_criterion_10_operator_property_suite():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(10)
    entropies = [Balanced(), KL(1.3), TV(0.8), Range(a=0.4, b=1.9),
                 Power(1.1, s=0.5), Power(0.9, s=-1.5), Berg(1.2)]
    per = 10000 // len(entropies) + 1

    # damp: 1-Lipschitz, non-decreasing, fixes zero -- 10^4 draws each
    for e in entropies:
        eps = float(rng.uniform(0.05, 2.0))
        p = rng.uniform(-10, 10, per)
        q = rng.uniform(-10, 10, per)
        dp, dq = np.asarray(e.damp(eps, p)), np.asarray(e.damp(eps, q))
        if np.any(np.abs(dp - dq) > np.abs(p - q) + 1e-12):
            failures.append(f"damp lipschitz {e.name}")
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        if np.any(np.asarray(e.damp(eps, hi)) < np.asarray(e.damp(eps, lo)) - 1e-12):
            failures.append(f"damp monotone {e.name}")
    for _ in range(4):
        rhos = rng.uniform(0.01, 10.0, 2500)
        bound = KL(1.0, rho_fn=lambda pts: rhos).at(np.zeros((2500, 1)))
        zero = bound.damp(float(rng.uniform(0.05, 2.0)), np.zeros(2500))
        if np.any(np.abs(zero) > 1e-12):
            failures.append("damp zero fixed point (kl)")
    for e in entropies:
        vals = [float(e.damp(float(eps), 0.0))
                for eps in rng.uniform(0.05, 5.0, 25)]
        if np.any(np.abs(vals) > 1e-12):
            failures.append(f"damp zero fixed point {e.name}")

    # softmin: non-expansive, order-preserving, translation-invariant
    # (10^4 draws per property)
    w = rng.uniform(0.2, 1.0, 8)
    m = DiscreteMeasure(w, rng.random((8, 2)))
    for _ in range(10000):
        eps = float(rng.uniform(0.05, 2.0))
        h1 = rng.standard_normal(8) * 3
        h2 = rng.standard_normal(8) * 3
        s1, s2 = softmin(eps, m, h1), softmin(eps, m, h2)
        if abs(s1 - s2) > np.max(np.abs(h1 - h2)) + 1e-12:
            failures.append("softmin non-expansive")
        if softmin(eps, m, np.minimum(h1, h2)) > min(s1, s2) + 1e-12:
            failures.append("softmin order")
        k = float(rng.uniform(-10, 10))
        if abs(softmin(eps, m, h1 + k) - (s1 + k)) > 1e-12:
            failures.append("softmin translation")

    # eps-rescaling identity for the dampening maps
    for make in (KL, Berg):
        p = rng.uniform(-8, 8, 5000)
        eps = float(rng.uniform(0.1, 3.0))
        lhs = np.asarray(make(1.0).damp(eps, p))
        rhs = eps * np.asarray(make(1.0 / eps).damp(1.0, p / eps))
        if np.any(np.abs(lhs - rhs) > 1e-10 * (1 + np.abs(lhs))):
            failures.append(f"eps rescaling {make.__name__}")

    _report(10, "operator property suite", failures, time.monotonic() - t0, 5.0)


def test_criterion_11_lambert_residuals():
    t0 = time.monotonic()
    failures = []
    z = np.logspace(-12, 12, 481)
    w = lambert_w(z)
    if np.any(np.abs(w * np.exp(w) - z) > 1e-12 * (1 + z)):
        failures.append("direct residuals")
    log_z = np.linspace(-30.0, 700.0, 731)
    wl = lambert_w_log(log_z)
    if np.any(np.abs(wl + np.log(wl) - log_z) > 1e-9):
        failures.append("log-form residuals")
    _report(11, "Lambert-W residuals", failures, time.monotonic() - t0, 1.0)


def test_criterion_12_flow_reproduction():
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(12)
    n = 200
    tgt = np.clip(0.75 + 0.06 * rng.standard_normal((n, 2)), 0.02, 0.98)
    src = np.clip(0.15 + 0.06 * rng.standard_normal((n, 2)), 0.02, 0.98)
    target = DiscreteMeasure(np.full(n, 1.0 / n), tgt)
    init_mass = 1.3

    finals = {}
    for entropy, label in ((KL(0.1), "kl"), (TV(0.1), "tv")):
        init = FlowState(src.copy(), np.sqrt(np.full(n, init_mass / n)))
        params = FlowParams(eta_x=60.0, eta_r=0.3, eps=1e-3, entropy=entropy,
                            steps=300, mass_rate="eta_r", solve_tol=1e-6,
                            solve_max_iter=2000)
        traj = run_flow(init, target, SQ, params, snapshot_every=300)
        finals[label] = traj
    kl_drop = 1.0 - finals["kl"][-1].s_eps / finals["kl"][0].s_eps
    if kl_drop < 0.90:
        failures.append(f"KL divergence drop only {kl_drop:.3f}")
    kl_mass = float(np.sum(finals["kl"][-1].r ** 2))
    tv_mass = float(np.sum(finals["tv"][-1].r ** 2))
    if not tv_mass < kl_mass:
        failures.append(f"TV mass {tv_mass:.4f} !< KL mass {kl_mass:.4f}")
    if not tv_mass < init_mass:
        failures.append(f"TV mass {tv_mass:.4f} did not shrink from {init_mass}")
    _report(12, "flow reproduction", failures, time.monotonic() - t0, 180.0)
