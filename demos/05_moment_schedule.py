"""
The moment-controlled schedule
==============================

Shrinking the spike radii on the schedule
    delta_N = min((s-1) inf R / sup D_{g(eps)} R, g(eps_{N-1})),
    eps_N   = min(delta_N / t_N, eps_{N-1}),      g(r) = e^{-eps D} r,
keeps the shell depths growing slowly enough that the coefficient measure has
finite first moment and entropy, certified per round by the closed-form
geometric envelope.
"""

from fractions import Fraction

from freewalk import (WeightedFreeGroup, LocallyConstantFunction, GreedyParams,
                      default_params, uniform_ps_measure, moment_decompose)

G = WeightedFreeGroup(2)
P = default_params(G)
nu = uniform_ps_measure(G, P)

F = LocallyConstantFunction.constant(G, 1.0)
params = GreedyParams(margin=1, rescale="proof", s=Fraction(3, 2), tau=0.0)
res = moment_decompose(F, nu, params, rounds=3)

print("round  shell  cover  spikes     eps        mass     contrib    envelope")
for rec in res.records:
    print(f"{rec.index:>4} {rec.shell:>6} {rec.cover_depth:>6} "
          f"{rec.spike_count:>7}  {rec.eps:.6f}  {float(rec.round_mass):.6f} "
          f"{rec.moment_contribution:.6f}  {rec.envelope:.6f}")

env = res.envelope_report
print("\nrho* =", round(env["rho_star"], 6), " lambda_hat =",
      round(env["lambda_hat"], 4), " C' =", env["c_prime"])
print("checks:", env["checks"])
print("tail bounds beyond each round:",
      {k: round(v, 6) for k, v in env["tail_bounds"].items()})
print("\nfirst moment:", float(res.moment))
print("entropy:     ", res.entropy,
      " <= A ||F||_1 with A =", round(env["entropy_bound_A"], 4))
