"""Gallery of the closed-form ceilings and their dominance over exact values.

Every guarantee the construction comes with is a closed-form expression
in (n, d, delta, rate): an error ceiling, an overflow-exponent floor,
and per-block/tail probability ceilings.  The polynomial prefactors
(n+d)^(4d) keep the error ceiling vacuous at desk scale; with the
certified curvature constant C3 = 1 the qubit ceiling leaves 1 at
n of about 4,600 (0.885 at 10^4) and falls to 0.34 at 10^6 -- all
evaluation is log-domain, so that regime is one function call away --
while the exact quantities it dominates are already tiny at n in the
hundreds.
"""

import math

from qvlcode import CodeParams, build_code
from qvlcode.bounds import (
    error_ceiling_bures,
    error_ceiling_overlap2,
    overflow_exponent_floor,
    block_probability_ceiling,
    tail_mass_ceiling,
    log_block_probability_ceiling,
)
from qvlcode.codec import average_error_exact, delta_schedule, log_overflow_probability
from qvlcode.info import entropy
from qvlcode.linalg import basis_source
from qvlcode.schur_weyl import log_block_prob_iid_two_level

spec = (0.7, 0.3)
src = basis_source(2, spec)

print("=== error ceiling vs exact error along the schedule ===")
print(f"{'n':>12} {'exact error':>12} {'ceiling':>10}")
for n in (50, 200, 400):
    delta, _ = delta_schedule(n)
    code = build_code(CodeParams(n=n, d=2, delta=delta))
    err = average_error_exact(code, src)
    print(f"{n:>12,} {err:12.4e} {error_ceiling_bures(n, 2, delta):10.4f}")
print("the ceiling is clamped at 1 (vacuous) at desk scale; its crossover:")
for n in (10**4, 10**5, 10**6, 4 * 10**6, 10**7, 10**8):
    print(f"{n:>12,} {'':>12} {error_ceiling_bures(n, 2, n ** -0.25):10.4f}")

print()
print("=== the overlap-squared criterion has the looser ceiling ===")
n = 10**7
delta = n ** -0.25
print(f"n = {n:,}: bures-squared ceiling {error_ceiling_bures(n, 2, delta):.4f}, "
      f"overlap-squared ceiling {error_ceiling_overlap2(n, 2, delta):.4f}")

print()
print("=== overflow-exponent floor vs the exact exponent ===")
rate = entropy(spec) + 0.15
print(f"rate = H + 0.15 = {rate:.4f} nats (above ln 2: overflow dies entirely)")
print(f"{'n':>6} {'exact -(1/n)logP':>17} {'exponent floor':>16}")
for n in (100, 200, 400):
    delta, _ = delta_schedule(n)
    code = build_code(CodeParams(n=n, d=2, delta=delta))
    logp = log_overflow_probability(code, spec, rate)
    exact = -logp / n if logp > -math.inf else math.inf
    print(f"{n:>6} {exact:>17} {overflow_exponent_floor(n, 2, delta, rate, spec):16.4f}")

print()
print("=== per-block ceiling, exhaustive at n = 500 ===")
n = 500
worst_margin = math.inf
for a in range(250, 501):
    lhs = log_block_prob_iid_two_level(a, n - a, *spec)
    rhs = log_block_probability_ceiling((a, n - a), spec, 2)
    worst_margin = min(worst_margin, rhs - lhs)
print(f"min log-margin (ceiling - block log-probability) over all blocks: "
      f"{worst_margin:.2f} nats")

print()
print("=== tail mass outside a spectral window ===")
boxes = [[(0.6, 0.8)]]
for n in (100, 300, 500):
    lhs = sum(
        math.exp(log_block_prob_iid_two_level(a, n - a, *spec))
        for a in range((n + 1) // 2, n + 1)
        if not 0.6 <= a / n <= 0.8
    )
    print(f"n = {n:>4}: exact tail {lhs:10.3e}   ceiling {tail_mass_ceiling(boxes, spec, n, 2):10.3e}")

print()
print("=== converting to a fixed-rate code costs at most the overflow ===")
from qvlcode.codec import to_fixed_length

code = build_code(CodeParams(n=6, d=2, delta=0.25))
for rate in (0.55, 0.75, 1.0):
    rep = to_fixed_length(code, rate, src)
    print(f"rate {rate:.2f}: fixed error {rep.error_fixed:.5f} = variable "
          f"{rep.error_variable:.5f} + <= overflow {rep.overflow:.5f} "
          f"(slack {rep.slack:.2e})")
