"""Worst-case preference weights from moment conditions.

Shows the moment ambiguity set over preference states, the strong duality
between the direct sup and the dual LP used inside stage subproblems, and a
robust multistage run converging onto its exact oracle. Also demonstrates the
collapse to the non-robust model when the moments pin the weights uniquely.

Run:  python3 demos/robust_preferences.py
"""

import numpy as np

from msrisk import (
    MomentAmbiguitySet,
    PreferenceDistribution,
    TrainOptions,
    build_lognormal_lattice,
    dr_train,
    extensive_form_dr,
    extensive_form_marsrm,
    worst_case_arsrm,
)
from msrisk.dr import worst_case_arsrm_primal
from msrisk.scenario import RngStream

rng = np.random.default_rng(1)

print("=" * 72)
print("1. A moment ambiguity set over preference states (lam, alpha)")
print("=" * 72)
support = np.column_stack([rng.uniform(0.1, 0.9, 4), rng.uniform(0.1, 0.8, 4)])
q_emp = rng.dirichlet(np.ones(4))
amb = MomentAmbiguitySet.from_empirical(support, q_emp)
print(f"   support:\n{np.round(support, 3)}")
print(f"   empirical weights: {np.round(q_emp, 3)}")
print(f"   mean: {np.round(amb.mu, 4)}  covariance:\n{np.round(amb.Sigma, 5)}")

print()
print("=" * 72)
print("2. Worst case vs empirical member, and strong duality")
print("=" * 72)
values = rng.normal(size=5)
w = amb.stage_weights(5)
dual = worst_case_arsrm(values, amb, w)
primal = worst_case_arsrm_primal(values, amb, w)
member_pref = PreferenceDistribution.from_points(support, q_emp)
from msrisk import DiscreteDistribution, arsrm_via_combination

member = arsrm_via_combination(DiscreteDistribution.from_values(values), member_pref)
print(f"   scenario values: {np.round(values, 3)}")
print(f"   dual LP value   : {dual:.10f}")
print(f"   direct sup value: {primal:.10f}")
print(f"   empirical member: {member:.10f}  (worst case dominates it)")

print()
print("=" * 72)
print("3. Robust multistage run vs its exact oracle")
print("=" * 72)
lat = build_lognormal_lattice(2, 2, 0.6, 0.3, 0.5, 4, RngStream(5))
report = dr_train(lat, amb, options=TrainOptions(max_iterations=60, tolerance=1e-8))
oracle = extensive_form_dr(lat, amb)
print(f"   converged: {report.converged} after {report.iterations} iterations")
print(f"   lower {report.final_lower:.8f} <= oracle {oracle:.8f} "
      f"<= upper {report.final_upper:.8f}")
member_value = extensive_form_marsrm(lat, prefs=member_pref)
print(f"   non-robust value under the empirical weights: {member_value:.8f}")

print()
print("=" * 72)
print("4. Six generic support points pin the weights: robustness vanishes")
print("=" * 72)
support6 = np.column_stack([rng.uniform(0.1, 0.9, 6), rng.uniform(0.1, 0.8, 6)])
q6 = rng.dirichlet(np.ones(6) * 4)
amb6 = MomentAmbiguitySet.from_empirical(support6, q6)
print(f"   pinned weights recovered: {np.round(amb6.pinned_q(), 4)}")
robust = extensive_form_dr(lat, amb6)
pinned = extensive_form_marsrm(lat, prefs=PreferenceDistribution.from_points(support6, q6))
print(f"   robust value {robust:.10f} vs pinned value {pinned:.10f}")
print(f"   difference: {abs(robust - pinned):.2e}")
