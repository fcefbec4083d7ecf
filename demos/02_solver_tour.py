"""
A tour of the generalized Sinkhorn solver
=========================================

We couple two 1D measures with different total masses under several
marginal penalties and look at what the optimal plan actually does: the
balanced constraint must be told the masses match, KL dampens smoothly
with distance, TV transports some mass fully and drops the rest, and the
range penalty pins the marginal ratio inside a box.
"""

import numpy as np

from uot import (KL, TV, Balanced, CostSpec, DiscreteMeasure, Range,
                 SolveOptions, duality_gap, plan_matrix, solve)

rng = np.random.default_rng(0)

##############################################################
# Two bumps on the line
# ---------------------
# The source has mass 1 split over two clusters; the target has mass 0.8
# concentrated near the left cluster.  A pure transport model must stretch
# across the gap; robust penalties may prefer to destroy the far mass.

xs = np.concatenate([rng.normal(0.0, 0.05, 30), rng.normal(1.0, 0.05, 20)])
ys = rng.normal(0.05, 0.06, 40)
alpha = DiscreteMeasure(np.full(50, 1.0 / 50), xs)
beta = DiscreteMeasure(np.full(40, 0.8 / 40), ys)
cost = CostSpec.sq_euclidean()
c_matrix = cost.pairwise(alpha.points, beta.points)
eps = 1e-2
opts = SolveOptions(tol=1e-10)

print(f"source mass {alpha.total_mass:.2f}, target mass {beta.total_mass:.2f}\n")

for entropy in (Balanced(), KL(rho=0.05), TV(rho=0.05), Range(a=0.6, b=1.4)):
    pots, report = solve(alpha, beta, c_matrix, entropy, eps, opts)
    if pots is None:
        print(f"{entropy!r:20} -> {report.status} (masses violate the constraint)")
        continue
    pi = plan_matrix(pots, alpha, beta, c_matrix)
    row = pi.sum(axis=1)
    near = row[:30].sum() / alpha.weights[:30].sum()
    far = row[30:].sum() / alpha.weights[30:].sum()
    print(f"{entropy!r:20} -> {report.status} in {report.iterations} sweeps; "
          f"plan mass {pi.sum():.3f}; kept near/far = {near:.2f}/{far:.2f}")

##############################################################
# Strong duality as a health check
# --------------------------------
# The solver reports the value of the dual functional; the primal cost of
# the implicit plan is evaluated independently.  At convergence the two
# sides agree to solver tolerance.

entropy = KL(rho=0.05)
pots, _ = solve(alpha, beta, c_matrix, entropy, eps, opts)
gap = duality_gap(alpha, beta, c_matrix, entropy, eps, pots)
print(f"\nKL duality gap: primal {gap.primal:.10f} vs dual {gap.dual:.10f} "
      f"(gap {gap.gap:+.2e})")

##############################################################
# Warm starts
# -----------
# Re-solving a perturbed instance from the previous potentials cuts the
# sweep count.  When only the source moved, the old f lives on points that
# are gone while g still lives on the unchanged target: starting from g
# alone, with f one f half-update of it, saves a few more sweeps.  The
# particle flow (`run_flow`) starts every step this way, from a g
# extrapolated from the last two steps.  KL(0.05) contracts so fast at this
# eps that the start hardly matters; TV shows the difference.

alpha2 = DiscreteMeasure(alpha.weights, alpha.points + 0.01)
c2 = cost.pairwise(alpha2.points, beta.points)
for entropy in (KL(rho=0.05), TV(rho=0.05)):
    pots, _ = solve(alpha, beta, c_matrix, entropy, eps, opts)
    sweeps = [solve(alpha2, beta, c2, entropy, eps,
                    SolveOptions(tol=1e-10, init=init))[1].iterations
              for init in ("asymptotic", (pots.f, pots.g), (None, pots.g))]
    print(f"{entropy!r:20} moved-source re-solve: cold {sweeps[0]} sweeps, "
          f"warm from (f, g) {sweeps[1]}, from (None, g) {sweeps[2]}")
