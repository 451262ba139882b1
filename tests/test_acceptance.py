"""Acceptance criteria, one test per criterion.

Every check runs at its stated tolerance; exact-rational assertions carry no
tolerance at all.  Each test prints a single PASS line on success (pytest -s
shows them; a failure fails the assert first).
"""

import itertools
import json
import math
import random
from fractions import Fraction

from freewalk import (GreedyParams, LocallyConstantFunction,
                      WeightedFreeGroup, basis_decompose, convolve,
                      integrate, locally_constant_cells, make_spike,
                      moment_decompose, pushforward, radon_nikodym,
                      sequence_decay_bound, sequence_decay_iterate,
                      shadow_lemma_audit, sphere_uniform,
                      verify_spike, verify_q_spike)
from freewalk.words import invert, multiply
from freewalk.cli import main


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_sphere_uniform_exact(f2, nu2):
    """Sphere-uniform mu of radii 1, 2, 3 stationize the uniform nu with zero
    error on every cylinder of depth <= 6, in exact-rational mode."""
    for radius in (1, 2, 3):
        mu = sphere_uniform(f2, radius)
        conv = convolve(mu, nu2)
        for depth in range(1, 7):
            for w in f2.sphere(depth):
                assert conv.mass_of(w) == nu2.mass_of(w), (radius, w)
    ok(1, "sphere-uniform radii 1-3 exactly stationary at every depth <= 6")


def test_criterion_2_conformality_oracle(f2, nu2, params2):
    """integral f_gamma d nu = 1 exactly, and the derivative chain rule holds
    exactly for all ||gamma||, ||eta|| <= 3 (in the measure convention pinned
    by the pushforward examples, f_{gamma eta}(z) = f_eta(z) f_gamma(eta z))."""
    words = f2.ball(3)
    cache = {gamma: radon_nikodym(gamma, nu2, params2) for gamma in words}
    for gamma in words:
        assert integrate(cache[gamma], nu2) == 1
    for gamma in words:
        fg = cache[gamma]
        for eta in words:
            lhs = radon_nikodym(multiply(gamma, eta), nu2, params2)
            rhs = cache[eta].mul(fg.translate(invert(eta)))
            assert lhs == rhs, (gamma, eta)
    ok(2, f"unit integrals and exact cocycle over {len(words)}^2 pairs")


def test_criterion_3_shadow_lemma(f2, nu2, params2):
    """One beta <= 4/3 certifies both Shadow Lemma inequalities exactly over
    ||gamma|| <= 5, D in {0,1,2}; the reported beta is stable across runs."""
    first = shadow_lemma_audit(nu2, params2, 5, [0, 1, 2])
    second = shadow_lemma_audit(nu2, params2, 5, [0, 1, 2])
    assert first.beta == Fraction(4, 3) <= Fraction(4, 3)
    assert first.beta == second.beta
    assert first.rows == second.rows
    for row in first.rows:
        assert row["lower_ratio"] <= first.beta
        assert row["upper_ratio"] <= first.beta
    ok(3, f"beta = {first.beta} uniform over {len(first.rows)} shadows, "
          f"identical across two runs")


def test_criterion_4_spike_verification(f2, nu2, params2):
    """Every make_spike for ||gamma|| <= 5, D in {0,1}, eps = alpha passes
    verify_spike and verify_q_spike; measured C never exceeds the bound
    beta e^{alpha(10 delta + 2D)} at delta = 0."""
    beta = shadow_lemma_audit(nu2, params2, 3, [0, 1]).beta
    checked = 0
    worst = {0: Fraction(0), 1: Fraction(0)}
    for n in range(1, 6):
        for gamma in f2.sphere(n):
            for d in (0, 1):
                spike = make_spike(gamma, nu2, params2, margin=d)
                rep = verify_spike(spike, nu2)
                qrep = verify_q_spike(spike, nu2)
                assert rep.all_ok and qrep.q_spike_ok, (gamma, d)
                measured = max(rep.measured_c, qrep.measured_c)
                bound = beta * Fraction(9) ** d    # e^{2 alpha D} = 9^D
                assert measured <= bound, (gamma, d, measured)
                worst[d] = max(worst[d], measured)
                checked += 1
    ok(4, f"{checked} spikes pass; worst C: D=0 -> {worst[0]}, "
          f"D=1 -> {worst[1]} (bounds 4/3 and 12)")


def test_criterion_5_greedy_reconstruction(f2, nu2, params2, constants2):
    """basis_decompose of F = 1 (fixed C, float, tau = 1e-6) terminates with
    depth-4 cell error <= 1e-6 and per-round contraction within the measured
    1 - L_nu beta / (C^2 s^2)."""
    params = GreedyParams(tau=1e-6, schedule="fixed")
    F = LocallyConstantFunction.constant(f2, 1.0)
    res = basis_decompose(F, nu2, params, constants=constants2)
    assert res.achieved_tolerance <= 1e-6
    cap = params.cap_for(constants2, params2)
    rho = float(constants2.rho_star(params.beta, cap, params.s))
    trace = [float(x) for x in res.residual_trace]
    for prev, nxt in zip(trace, trace[1:]):
        assert nxt < prev and nxt <= rho * prev + 1e-12
    conv = convolve(res.coefficients, nu2)
    err = max(abs(float(conv.mass_of(w)) - float(nu2.mass_of(w)))
              for w in f2.sphere(4))
    assert err <= 1e-6
    ok(5, f"terminated in {res.rounds} round(s), depth-4 error {err:.2e}, "
          f"contraction within rho* = {rho:.5f} (L_nu = {constants2.l_nu})")


def test_criterion_6_moment_entropy(f2, nu2, constants2):
    """moment_decompose of F = 1: finite first moment and entropy, with every
    round's moment contribution (and the tail beyond each round) under the
    case-3 closed-form envelope."""
    params = GreedyParams(margin=1, rescale="proof", s=Fraction(3, 2), tau=0.0)
    F = LocallyConstantFunction.constant(f2, 1.0)
    res = moment_decompose(F, nu2, params, rounds=3, constants=constants2)
    assert math.isfinite(float(res.moment)) and float(res.moment) > 0
    assert math.isfinite(res.entropy) and res.entropy > 0
    rep = res.envelope_report
    assert all(rep["checks"].values()), rep["checks"]
    for rec in res.records:
        assert rec.moment_contribution <= rec.envelope + 1e-12
    # tail beyond round N: measured sum of later contributions under the
    # closed-form geometric tail
    for i, rec in enumerate(res.records):
        actual_tail = sum(r.moment_contribution for r in res.records[i + 1:])
        assert actual_tail <= rep["tail_bounds"][str(rec.index)] + 1e-12
    assert res.entropy <= rep["entropy_bound_A"] * float(res.residual_trace[0]) + 1e-9
    ok(6, f"moment {float(res.moment):.4f}, entropy {res.entropy:.4f}; "
          f"all envelope checks hold (A = {rep['entropy_bound_A']:.3f})")


def test_criterion_7_fixed_points(f2, nu2, params2, constants2):
    """Decomposing F = f_gamma reproduces nu' = gamma* nu within 1e-6 at depth
    4 for every ||gamma|| <= 2."""
    params = GreedyParams(tau=1e-6)
    count = 0
    for n in (1, 2):
        for gamma in f2.sphere(n):
            f = radon_nikodym(gamma, nu2, params2)
            res = basis_decompose(f, nu2, params, constants=constants2)
            assert res.achieved_tolerance <= 1e-6
            conv = convolve(res.coefficients, nu2)
            target = pushforward(gamma, nu2)
            for w in f2.sphere(4):
                assert abs(float(conv.mass_of(w)) - float(target.mass_of(w))) <= 1e-6
            count += 1
    ok(7, f"{count} derivative targets reproduce their pushforwards at depth 4")


def test_criterion_8_sequence_decay():
    """Closed-form envelope matches the direct recursion to 1e-12 on 100
    randomized (delta, eps) schedules with delta in [0, 1]."""
    rng = random.Random(1898)
    for trial in range(100):
        n = rng.randint(1, 30)
        deltas = [Fraction(rng.randint(0, 128), 128) for _ in range(n)]
        epsilons = [Fraction(rng.randint(0, 1000), 1000) for _ in range(n)]
        a1 = Fraction(rng.randint(1, 1000), 1000)
        direct = sequence_decay_iterate(deltas, epsilons, a1)
        closed = sequence_decay_bound(deltas, epsilons, a1)
        for x, y in zip(direct, closed):
            assert x <= y
            assert abs(float(x - y)) <= 1e-12
    ok(8, "100 random schedules: envelope == recursion exactly")


def test_criterion_9_metric_properties(params2):
    """0-hyperbolicity, the ultrametric inequality at depth 3 and Busemann
    local constancy hold exactly on exhaustive enumerations for F_2 and F_3.

    Products at an arbitrary base translate to base-e products exactly
    (asserted below), so the four-point condition is checked as exhaustive
    base-e triples: F_2 over length <= 4, F_3 over length <= 3."""
    def prefix_weight(group, u, v):
        n = 0
        while n < min(len(u), len(v)) and u[n] == v[n]:
            n += 1
        return n

    for rank, max_len in ((2, 4), (3, 3)):
        group = WeightedFreeGroup(rank)
        words = group.ball(max_len)
        prods = {w: None for w in words}
        for x, y, z in itertools.combinations(words, 3):
            pxy = prefix_weight(group, x, y)
            pxz = prefix_weight(group, x, z)
            pyz = prefix_weight(group, y, z)
            assert pxy >= min(pxz, pyz)
        # translation invariance backing the base-e reduction
        from freewalk import gromov_product
        for g in group.sphere(2)[:4]:
            for x in group.ball(2):
                for y in group.ball(2):
                    assert gromov_product(group, multiply(g, x),
                                          multiply(g, y), base=g) \
                        == gromov_product(group, x, y)
        # ultrametric at depth 3 (product form of d = e^{-eps (x.y)})
        cells = group.sphere(3)
        for x, y, z in itertools.combinations(cells, 3):
            assert prefix_weight(group, x, z) >= min(prefix_weight(group, x, y),
                                                     prefix_weight(group, y, z))
        # Busemann local constancy on the reported partition, len(q) <= 4
        for q in group.ball(4):
            for cyl, value in locally_constant_cells(group, q):
                w1 = cyl.word
                while len(w1) < 8:
                    w1 = w1 + (group.valid_extensions(w1)[0],)
                w2 = w1[:-1] + (group.valid_extensions(w1[:-1])[-1],)
                for z in (w1, w2):
                    assert group.distance(q, z) - group.word_weight(z) == value
    ok(9, "four-point, ultrametric and Busemann constancy all exact "
          "(F_2 length 4 / depth 3, F_3 length 3 / depth 3)")


def test_criterion_10_cli_determinism(tmp_path):
    """Two cmd_decompose runs produce byte-identical result JSON and CSV."""
    cfg = {
        "group": {"rank": 2, "weights": ["1", "1"]},
        "params": {"alpha": "critical", "epsilon": "critical",
                   "arithmetic": "float", "tau": 1e-6},
        "decompose": {"target": "derivative:ab"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["decompose", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["decompose", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "decomposition.json").read_bytes()
    b2 = (out2 / "decomposition.json").read_bytes()
    assert b1 == b2
    assert (out1 / "decomposition.csv").read_bytes() \
        == (out2 / "decomposition.csv").read_bytes()
    ok(10, f"{len(b1)} result bytes identical across two runs")
