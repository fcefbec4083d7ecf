from dataclasses import replace

import numpy as np
import pytest

import uot.divergences
from uot import (KL, TV, Balanced, CostSpec, DiscreteMeasure, DomainError,
                 FlowParams, FlowState, SolveOptions, flow_step, run_flow,
                 sinkhorn_divergence)
from uot.flows import _FlowWorkspace

SQ = CostSpec.sq_euclidean()


def blob(rng, n, center, mass, spread=0.05):
    pts = center + spread * rng.standard_normal((n, 2))
    return DiscreteMeasure(np.full(n, mass / n), pts)


def test_flow_state_validation():
    with pytest.raises(DomainError):
        FlowState(np.zeros((2, 2)), np.array([1.0]))
    with pytest.raises(DomainError):
        FlowState(np.zeros((1, 2)), np.array([0.0]))


def test_flow_state_measure_round_trip():
    state = FlowState(np.array([[0.1, 0.2]]), np.array([0.5]))
    m = state.measure()
    assert m.weights[0] == pytest.approx(0.25)
    back = FlowState.from_measure(m)
    assert np.allclose(back.r, [0.5])


def test_step_at_the_minimum_is_a_fixed_point():
    rng = np.random.default_rng(60)
    target = blob(rng, 12, 0.5, 1.0)
    state = FlowState(target.points.copy(), np.sqrt(target.weights))
    params = FlowParams(steps=1, entropy=KL(0.5), eps=0.01, solve_tol=1e-11,
                        mass_rate="eta_r")
    new = flow_step(state, target, SQ, params)
    assert np.max(np.abs(new.positions - state.positions)) <= 1e-8
    assert np.max(np.abs(new.r - state.r)) <= 1e-8
    assert new.step == 1


def test_single_particle_moves_toward_target():
    target = DiscreteMeasure([1.0], [[0.6, 0.6]])
    state = FlowState(np.array([[0.4, 0.4]]), np.array([1.0]))
    params = FlowParams(eta_x=0.1, entropy=KL(0.1), eps=0.01,
                        mass_updates=False)
    new = flow_step(state, target, SQ, params)
    direction = new.positions[0] - state.positions[0]
    assert np.all(direction > 0)  # toward (0.6, 0.6)


def test_mass_updates_off_keeps_r_bitwise():
    rng = np.random.default_rng(61)
    target = blob(rng, 8, 0.6, 1.0)
    state = FlowState(blob(rng, 8, 0.4, 1.2).points, np.full(8, 0.3))
    params = FlowParams(entropy=KL(0.1), eps=0.01, mass_updates=False)
    new = flow_step(state, target, SQ, params)
    assert np.array_equal(new.r, state.r)


def test_balanced_forces_mass_updates_off():
    rng = np.random.default_rng(62)
    target = blob(rng, 6, 0.6, 1.0)
    src = blob(rng, 6, 0.4, 1.0)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(entropy=Balanced(), eps=0.01, mass_updates=True)
    assert not params.mass_updates_active
    new = flow_step(state, target, SQ, params)
    assert np.array_equal(new.r, state.r)
    assert not np.allclose(new.positions, state.positions)


def test_zero_rates_freeze_the_trajectory():
    rng = np.random.default_rng(63)
    target = blob(rng, 7, 0.7, 1.0)
    src = blob(rng, 7, 0.3, 1.4)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(eta_x=0.0, eta_r=0.0, entropy=KL(0.1), eps=0.01,
                        steps=3, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=1)
    for snap in traj:
        assert np.array_equal(snap.positions, state.positions)
        assert np.array_equal(snap.r, state.r)


def test_mass_stays_positive():
    rng = np.random.default_rng(64)
    target = blob(rng, 10, 0.8, 0.5)
    src = blob(rng, 10, 0.2, 2.0)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(entropy=TV(0.1), eps=1e-3, steps=25,
                        solve_tol=1e-5, solve_max_iter=200, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=5)
    for snap in traj:
        assert np.all(snap.r > 0)


def test_permutation_equivariance():
    rng = np.random.default_rng(65)
    target = blob(rng, 9, 0.7, 1.0)
    src = blob(rng, 9, 0.35, 1.2)
    perm = rng.permutation(9)
    params = FlowParams(entropy=KL(0.1), eps=0.01, steps=3, solve_tol=1e-10,
                        mass_rate="eta_r")
    s1 = FlowState(src.points, np.sqrt(src.weights))
    s2 = FlowState(src.points[perm], np.sqrt(src.weights)[perm])
    t1 = run_flow(s1, target, SQ, params, snapshot_every=3)[-1]
    t2 = run_flow(s2, target, SQ, params, snapshot_every=3)[-1]
    assert np.allclose(t1.positions[perm], t2.positions, atol=1e-9)
    assert np.allclose(t1.r[perm], t2.r, atol=1e-9)


def test_run_flow_zero_steps_returns_initial_snapshot():
    rng = np.random.default_rng(66)
    target = blob(rng, 5, 0.7, 1.0)
    src = blob(rng, 5, 0.3, 1.0)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(entropy=KL(0.1), eps=0.01, steps=0)
    traj = run_flow(state, target, SQ, params)
    assert len(traj) == 1
    assert np.array_equal(traj[0].positions, state.positions)
    assert np.array_equal(traj[0].r, state.r)
    assert traj[0].step == 0
    assert traj[0].s_eps is not None


def test_run_flow_snapshot_cadence():
    rng = np.random.default_rng(67)
    target = blob(rng, 5, 0.7, 1.0)
    src = blob(rng, 5, 0.4, 1.0)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(eta_x=0.05, entropy=KL(0.1), eps=0.01, steps=7,
                        mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=3)
    assert [s.step for s in traj] == [0, 3, 6, 7]
    assert all(s.s_eps is not None for s in traj)


def test_flow_decreases_divergence_small_scale():
    # position rate scaled to the particle count: per-atom gradients carry
    # the atom mass, so eta_x ~ 60 assumes ~200 particles
    rng = np.random.default_rng(68)
    target = blob(rng, 20, 0.65, 1.0, spread=0.08)
    src = blob(rng, 20, 0.40, 1.2, spread=0.08)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(eta_x=6.0, entropy=KL(0.1), eps=1e-3, steps=40,
                        solve_tol=1e-6, solve_max_iter=2000, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=40)
    assert traj[-1].s_eps < 0.2 * traj[0].s_eps


def test_flow_params_validation():
    with pytest.raises(DomainError):
        FlowParams(eta_x=-1.0)
    with pytest.raises(DomainError):
        FlowParams(eps=0.0)
    with pytest.raises(DomainError):
        FlowParams(mass_rate="other")


@pytest.mark.parametrize("entropy", [KL(0.1), TV(0.1)])
def test_snapshot_value_is_the_divergence(entropy):
    rng = np.random.default_rng(69)
    target = blob(rng, 8, 0.6, 1.0)
    src = blob(rng, 8, 0.4, 1.3)
    state = FlowState(src.points, np.sqrt(src.weights))
    params = FlowParams(eta_x=6.0, entropy=entropy, eps=0.01, steps=4,
                        solve_tol=1e-10, mass_rate="eta_r")
    opts = SolveOptions(tol=1e-10)
    for snap in run_flow(state, target, SQ, params, snapshot_every=2):
        expected = sinkhorn_divergence(snap.measure(), target, SQ, entropy,
                                       0.01, opts).value
        assert snap.s_eps == pytest.approx(expected, rel=1e-8, abs=1e-9)


def two_clouds(seed, n):
    """Criterion 12's layout at ``n`` particles: a source of mass 1.3 near
    (0.1, 0.1), a unit-mass target near (0.7, 0.7)."""
    rng = np.random.default_rng(seed)
    target = DiscreteMeasure(np.full(n, 1.0 / n),
                             0.7 + 0.06 * rng.standard_normal((n, 2)))
    src = 0.1 + 0.06 * rng.standard_normal((n, 2))
    return FlowState(src, np.sqrt(np.full(n, 1.3 / n))), target


def recorded_solves(monkeypatch):
    """``(init, potentials, report)`` of every cross solve run through
    ``uot.divergences``, in order."""
    inner, calls = uot.divergences.solve, []

    def recorded(*args, **kwargs):
        pots, report = inner(*args, **kwargs)
        calls.append((args[-1].init, pots, report))
        return pots, report

    monkeypatch.setattr(uot.divergences, "solve", recorded)
    return calls


# cross-solve sweeps of this flow when each step warm-starts from the last
# (f, g), and from the extrapolated target potential alone; the bound sits
# halfway
@pytest.mark.parametrize("entropy, fg_sweeps, g_only_sweeps", [
    (KL(0.1), 668, 423), (TV(0.1), 244, 126)], ids=["kl", "tv"])
def test_cross_solves_warm_start_from_the_target_potential(
        monkeypatch, entropy, fg_sweeps, g_only_sweeps):
    calls = recorded_solves(monkeypatch)
    state, target = two_clouds(72, 40)
    params = FlowParams(eta_x=12.0, eps=1e-2, entropy=entropy, steps=40,
                        solve_tol=1e-6, solve_max_iter=2000, mass_rate="eta_r")
    run_flow(state, target, SQ, params, snapshot_every=40)
    reports = [report for *_, report in calls]
    assert len(reports) == 41 and all(r.converged for r in reports)
    assert sum(r.iterations for r in reports) <= (fg_sweeps
                                                  + g_only_sweeps) // 2


def test_cross_solves_start_from_the_extrapolated_target_potential(
        monkeypatch):
    calls = recorded_solves(monkeypatch)
    state, target = two_clouds(74, 10)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=KL(0.1), steps=4,
                        solve_tol=1e-6, mass_rate="eta_r")
    run_flow(state, target, SQ, params, snapshot_every=2)
    # steps 0 to 3, then the final state; the snapshots solve nothing
    inits = [init for init, *_ in calls]
    g = [pots.g for _, pots, _ in calls]
    assert len(calls) == 5 and inits[0] == "asymptotic"
    expected = {1: g[0], 2: 2.0 * g[1] - g[0], 3: 2.0 * g[2] - g[1],
                4: 2.0 * g[3] - g[2]}
    for k, g_start in expected.items():
        assert inits[k][0] is None and np.array_equal(inits[k][1], g_start)


def test_snapshots_report_their_solves():
    state, target = two_clouds(73, 10)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=KL(0.1), steps=4,
                        solve_tol=1e-6, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=2)
    for snap in traj:
        assert snap.report.converged and snap.report.iterations > 0
    # a solve cut at max_iter shows in the snapshot's report
    params = replace(params, solve_max_iter=3)
    for snap in run_flow(state, target, SQ, params, snapshot_every=2):
        assert snap.report.status == "max_iter"


def recorded_reports(monkeypatch, cut=()):
    """The report of every cross and self solve run through
    ``uot.divergences``, in order; the cross solves numbered in ``cut``
    report a ``max_iter`` stop instead."""
    reports, cross_calls = [], []

    def recording(inner, cross):
        def recorded(*args, **kwargs):
            pots, report = inner(*args, **kwargs)
            if cross:
                if len(cross_calls) in cut:
                    report = replace(report, status="max_iter")
                cross_calls.append(report)
            reports.append(report)
            return pots, report
        return recorded

    for name, cross in (("solve", True), ("symmetric_potentials", False)):
        monkeypatch.setattr(uot.divergences, name,
                            recording(getattr(uot.divergences, name), cross))
    return reports


def test_snapshots_report_every_solve_since_the_last_one(monkeypatch):
    reports = recorded_reports(monkeypatch)
    state, target = two_clouds(76, 10)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=KL(0.1), steps=5,
                        solve_tol=1e-6, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=2)
    assert [snap.step for snap in traj] == [0, 2, 4, 5]
    # the target's self solve, then a cross and a self solve per state:
    # steps 0 to 4 and the final state 5
    sizes = [1 + 2, 2 * 2, 2 * 2, 2]
    assert sum(sizes) == len(reports)
    ends = np.cumsum(sizes)
    for snap, end, size in zip(traj, ends, sizes):
        since = reports[end - size:end]
        assert snap.report.converged
        assert snap.report.iterations == sum(r.iterations for r in since)
        assert snap.report.final_update == max(r.final_update for r in since)


def test_a_stop_between_snapshots_shows_in_the_next_one(monkeypatch):
    # cross solves: steps 0 to 3, then the final state 4; the one of
    # step 3, which no snapshot reads, is cut
    recorded_reports(monkeypatch, cut=(3,))
    state, target = two_clouds(77, 10)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=KL(0.1), steps=4,
                        solve_tol=1e-6, mass_rate="eta_r")
    traj = run_flow(state, target, SQ, params, snapshot_every=2)
    assert [snap.report.status for snap in traj] == [
        "converged", "converged", "max_iter"]


def test_flow_steps_reuse_the_workspace_buffers(traced_peak):
    # the first step allocates the workspace's five N x M arrays, the costs
    # and kernels, and writes the plans into the spent kernels; later steps
    # reuse them, and what is left are temporaries, one N x M array at a
    # time
    n = 200
    state, target = two_clouds(75, n)
    params = FlowParams(eps=1e-3, entropy=KL(0.1), solve_tol=1e-6,
                        solve_max_iter=2000, mass_rate="eta_r")
    workspace = _FlowWorkspace(target, SQ, params)
    states = [state]

    def step():
        states.append(flow_step(states[-1], target, SQ, params, workspace))

    assert traced_peak(step) < 7.5 * n * n * 8
    assert traced_peak(step) < 2 * n * n * 8


@pytest.mark.parametrize("entropy", [KL(0.1), TV(0.1)], ids=["kl", "tv"])
def test_snapshots_do_not_move_the_flow(entropy):
    state, target = two_clouds(78, 12)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=entropy, steps=6,
                        solve_tol=1e-6, mass_rate="eta_r")
    finals = [run_flow(state, target, SQ, params, snapshot_every=every)[-1]
              for every in (1, 2, params.steps)]
    for final in finals[1:]:
        assert np.array_equal(final.positions, finals[0].positions)
        assert np.array_equal(final.r, finals[0].r)
        assert final.s_eps == finals[0].s_eps


@pytest.mark.parametrize("every", [1, 2, 5])
def test_run_flow_solves_each_state_once(monkeypatch, every):
    state, target = two_clouds(79, 8)
    solved = []
    for name in ("solve", "symmetric_potentials"):
        def recorded(*args, inner=getattr(uot.divergences, name), name=name,
                     **kwargs):
            solved.append("target" if args[0] is target else name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(uot.divergences, name, recorded)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=KL(0.1), steps=5,
                        solve_tol=1e-6, mass_rate="eta_r")
    run_flow(state, target, SQ, params, snapshot_every=every)
    assert solved.count("solve") == params.steps + 1
    assert solved.count("symmetric_potentials") == params.steps + 1
    assert solved.count("target") == 1


@pytest.mark.parametrize("entropy", [KL(0.1), TV(0.1)], ids=["kl", "tv"])
def test_flow_steps_read_their_plans_off_the_kernels(monkeypatch, entropy):
    inner, plans = uot.divergences.plan_matrix, []

    def counted(*args, **kwargs):
        plans.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(uot.divergences, "plan_matrix", counted)
    state, target = two_clouds(80, 10)
    params = FlowParams(eta_x=3.0, eps=1e-2, entropy=entropy, steps=4,
                        solve_tol=1e-6, mass_rate="eta_r")
    flow_step(state, target, SQ, params)
    assert plans == []
    # TV's dual value sums the plan: the target's self term once, and the
    # cross and particles' self term at each snapshot
    traj = run_flow(state, target, SQ, params, snapshot_every=2)
    assert len(plans) == (0 if entropy.smooth else 1 + 2 * len(traj))
