"""
Spikes and the regularity audits
================================

Unit-normalized derivatives are spikes: tall on a shadow ball, decaying
against a singular kernel off it, with bounded short-range oscillation.
On the tree every ball is a finite cylinder union, so the three conditions,
the Q-spike Lipschitz bound, the Shadow Lemma and the decay integral are all
finite exact computations.
"""

from fractions import Fraction

from freewalk import (WeightedFreeGroup, Cylinder, default_params,
                      uniform_ps_measure, make_spike, verify_spike,
                      shadow_lemma_audit, decay_check, measure_constants)

G = WeightedFreeGroup(2)
P = default_params(G)
nu = uniform_ps_measure(G, P)

# 1. a spike from gamma = a^-1: value 1 on C(a), 1/9 off it, radius 1/3
s = make_spike(G.parse_word("A"), nu, P, margin=0)
print("center:", G.format_word(s.center.word), " radius:", s.radius,
      " measured C:", s.c)
rep = verify_spike(s, nu)  # one report: spike and Q-spike conditions
print("conditions:", rep.cond1_ok, rep.cond2_ok, rep.cond3_ok,
      " measured:", {k: str(v) for k, v in rep.measured.items()})
print("Q-spike:", rep.q_spike_ok, " local doubling:", rep.local_doubling)

# 2. the Shadow Lemma sweep: one beta certifies both inequalities
audit = shadow_lemma_audit(nu, P, max_len=4, ds=[0, 1, 2])
print("\nShadow Lemma: beta =", audit.beta, " D0 =", audit.d0,
      " worst lower witness:", audit.worst_lower)

# 3. (Q, theta)-decay of nu: the singular integral per center and radius
center = Cylinder(G.parse_word("aba"))
decay = decay_check(nu, 1, 1, (), [center],
                    [1, Fraction(1, 3), Fraction(1, 9)], params=P)
print("\ndecay constant D_nu =", decay.d_nu)
for row in decay.rows:
    print(f"   r = {row['radius']:>4}: integral {row['integral']}  "
          f"required {row['required']}")

# 4. everything the decomposition needs, measured in one bundle
con = measure_constants(nu, P, max_len=3, ds=(0, 1))
print("\nmeasured constants: beta", con.beta, " D_nu", con.d_nu,
      " T_nu", con.t_nu, " B", con.lebesgue_b, " =>  L_nu =", con.l_nu)
