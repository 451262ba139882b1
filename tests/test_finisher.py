"""The cone finisher: the exact trie solve of SpikeAccumulator against the
inserted sums, its int-pair path against its plain Fraction/float path, and
the finisher against the float projected Gauss-Seidel sweep it replaced,
kept here as the oracle."""

import json
import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from freewalk import (GreedyParams, LocallyConstantFunction, VisualParams,
                      WeightedFreeGroup, default_params, integrate,
                      uniform_ps_measure)
from freewalk.cli import main
from freewalk.decomposition import _cone_finisher, _cover, oscillation_threshold
from freewalk.measures import SpikeAccumulator, unit_spike
from freewalk.partitions import refine_leaves, spine_word, trie_closure
from freewalk.words import invert


def sweep_finisher(R, nu, centers, tau, sweeps=120):
    """The finisher as it was before the trie solve: float projected
    Gauss-Seidel sweeps over the cover's center words, snapped with
    limit_denominator(10**12) in exact mode, then retried with the unsnapped
    floats."""
    group, vparams = R.group, nu.params
    depth = max([R.depth()] + [len(b) for b in centers])
    spines = [spine_word(group, b, depth) for b in centers]
    targets = [float(R.at(sp)) for sp in spines]
    acc = SpikeAccumulator(group, VisualParams.floats(vparams.alpha.value,
                                                      vparams.epsilon.value))
    lam = [0.0] * len(centers)
    for _ in range(sweeps):
        moved = 0.0
        for i, b in enumerate(centers):
            g_here = acc.value_at(spines[i])
            new = max(0.0, lam[i] + (targets[i] - g_here))
            delta = new - lam[i]
            if delta != 0.0:
                acc.insert(b, delta)
                lam[i] = new
                moved = max(moved, abs(delta))
        if moved <= 1e-16:
            break
    exact = all(isinstance(v, Fraction) for v in R.values.values())
    leaves = refine_leaves(group, R.leaves(), trie_closure(group, centers))

    def attempt(lam_list):
        acc_q = SpikeAccumulator(group, vparams)
        for b, x in zip(centers, lam_list):
            if x > 0:
                acc_q.insert(b, x)
        g_vals = {w: acc_q.value_at(w) for w in leaves}
        scale = None
        for w in leaves:
            gv = g_vals[w]
            if gv > 0:
                ratio = R.at(w) / gv
                scale = ratio if scale is None else min(scale, ratio)
        if scale is None or scale <= 0:
            return None
        one = Fraction(1) if exact else 1.0
        if scale > 1:
            scale = one
        residual = sum((R.at(w) - scale * g_vals[w]) * nu.mass_of(w)
                       for w in leaves)
        if float(residual) > tau or residual < 0:
            return None
        lambdas = [(invert(b), scale * x) for b, x in zip(centers, lam_list)]
        h = LocallyConstantFunction(group, {w: scale * g_vals[w] for w in leaves},
                                    validate=False)
        return lambdas, h, residual

    if exact:
        snapped = [Fraction(x).limit_denominator(10 ** 12) for x in lam]
        got = attempt(snapped)
        if got is not None and got[2] == 0:
            return got[0], got[1]
        got = attempt([Fraction(x) for x in lam])
    else:
        got = attempt(lam)
    if got is None:
        return None
    return got[0], got[1]


# ---------------------------------------------------------------------------
# the solve
# ---------------------------------------------------------------------------

@st.composite
def prefix_free_centers(draw, group):
    """Up to 12 cells of a cover grown from the depth-1 cells by splitting
    cells up to depth 4: centers of mixed lengths, none a prefix of
    another."""
    cells = [(x,) for x in group.letters()]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(cells) - 1))
        if len(cells[i]) < 4:
            cells[i:i + 1] = [cells[i] + (x,) for x in group.valid_extensions(cells[i])]
    return draw(st.lists(st.sampled_from(cells), min_size=1, max_size=12,
                         unique=True))


@st.composite
def solve_cases(draw, fraction_steps=True):
    """A rank 2-3 group with weights from {1, 2, 3/2}, alpha = epsilon =
    c log b with c in {1, 1/2} and b in {2, 3}, prefix-free centers and int
    or Fraction targets of either sign.  With `fraction_steps`, no weight is
    3/2 when c = 1/2, so every step e^{-2 alpha w_x} is a Fraction."""
    rank = draw(st.integers(2, 3))
    alpha = draw(st.sampled_from([1, Fraction(1, 2)]))
    letters = ["1", "2"] if fraction_steps and alpha != 1 else ["1", "2", "3/2"]
    group = WeightedFreeGroup(rank, [draw(st.sampled_from(letters))
                                     for _ in range(rank)])
    centers = draw(prefix_free_centers(group))
    value = st.one_of(st.integers(-3, 6),
                      st.fractions(-2, 6, max_denominator=12))
    targets = {b: draw(value) for b in centers}
    base = draw(st.sampled_from([2, 3]))
    return group, VisualParams.exact_base(base, alpha, alpha), targets


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(solve_cases())
def test_solve_reproduces_every_target(case):
    group, params, targets = case
    acc = SpikeAccumulator(group, params)
    assert all(isinstance(s, Fraction) for s in acc.step.values())
    lambdas = acc.solve(targets)
    assert set(lambdas) == set(targets)
    assert all(isinstance(x, Fraction) for x in lambdas.values())
    for b, x in lambdas.items():
        acc.insert(b, x)
    for b, t in targets.items():
        assert acc.value_at(b) == t


# F_2 = <a, b> on the centers a, A, ba, bA, bb: positive targets whose
# solution has lambda_ba = -9/164
POSITIVE_TARGETS_NEGATIVE_LAMBDA = (
    WeightedFreeGroup(2), VisualParams.exact_base(3),
    {(0,): 1, (1,): 1, (2, 0): Fraction(1, 2), (2, 1): 3, (2, 2): 1})


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(solve_cases(fraction_steps=False))
@example(POSITIVE_TARGETS_NEGATIVE_LAMBDA)
def test_pair_solve_matches_plain_solve(case):
    # with every step a Fraction, solve runs on int pairs and gives the plain
    # solve's values, types and order; with a step that is not, it is the
    # plain solve
    group, params, targets = case
    acc = SpikeAccumulator(group, params)
    fraction_steps = all(isinstance(s, Fraction) for s in acc.step.values())
    oracle = acc._solve_plain(targets)
    with mock.patch.object(acc, "_solve_plain", wraps=acc._solve_plain) as plain:
        got = acc.solve(targets)
    assert plain.called is not fraction_steps
    assert list(got) == list(oracle)
    assert [(type(x), x) for x in got.values()] == \
        [(type(x), x) for x in oracle.values()]


def test_example_has_a_negative_lambda():
    group, params, targets = POSITIVE_TARGETS_NEGATIVE_LAMBDA
    assert SpikeAccumulator(group, params).solve(targets)[(2, 0)] == Fraction(-9, 164)


def test_float_params_and_float_targets_take_the_plain_solve():
    # float params, or a float target in exact mode: plain float arithmetic,
    # and the sums of the solved spikes reproduce the targets
    group = WeightedFreeGroup(2)
    centers = [(0,), (1,), (2, 0), (2, 1), (2, 2), (3, 1, 1), (3, 1, 3), (3, 3)]
    targets = {b: Fraction(i + 1, 3) for i, b in enumerate(centers)}
    cases = [(VisualParams.floats(math.log(3), math.log(3)), targets),
             (VisualParams.exact_base(3), {**targets, (3, 3): 0.5})]
    for params, case_targets in cases:
        acc = SpikeAccumulator(group, params)
        with mock.patch.object(acc, "_solve_pairs",
                               side_effect=AssertionError("int-pair solve")):
            lambdas = acc.solve(case_targets)
        assert all(type(x) is float for x in lambdas.values())
        for b, x in lambdas.items():
            acc.insert(b, x)
        for b, t in case_targets.items():
            assert math.isclose(acc.value_at(b), t, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the finisher against the sweep
# ---------------------------------------------------------------------------

def _seeded_targets():
    """random.Random(1): 30 F_2 and 8 F_3 targets, each constant on the
    cells of one depth 1-3, with values p/q, p <= 12, q <= 4."""
    rng = random.Random(1)
    for rank, count in ((2, 30), (3, 8)):
        group = WeightedFreeGroup(rank)
        for _ in range(count):
            depth = rng.randint(1, 3)
            yield LocallyConstantFunction(group, {
                w: Fraction(rng.randint(1, 12), rng.randint(1, 4))
                for w in group.sphere(depth)})


def _finisher_cases():
    """(F, nu, cover) in exact mode and the same in float mode (float
    targets, params and nu): each target on the cover of the shell that
    basis_decompose starts from, and F_2 targets also one shell deeper."""
    gp = GreedyParams()
    measures = {}
    for F in _seeded_targets():
        group = F.group
        if group.rank not in measures:
            params = default_params(group)
            fparams = VisualParams.floats(params.alpha.value, params.epsilon.value)
            measures[group.rank] = [uniform_ps_measure(group, p)
                                    for p in (params, fparams)]
        shell = max(1, min(int(oscillation_threshold(F, gp.s)), gp.max_shell))
        for extra in ((0, 1) if group.rank == 2 else (0,)):
            cover = _cover(group, shell + extra, 0)
            yield [(G, nu, cover)
                   for G, nu in zip((F, F.map(float)), measures[group.rank])]


def _residual(F, nu, finished):
    return integrate(F.sub(finished[1]), nu)


def _residual_of_lambdas(F, nu, lambdas):
    """int (F - h) d nu for h = sum lambda u_{gamma^-1}, built spike by spike
    from a finisher's lambdas."""
    rest = F
    for gamma, lam in lambdas:
        rest = rest.sub(unit_spike(gamma, nu, nu.params), lam)
    return integrate(rest, nu)


def test_finisher_accepts_what_the_sweep_accepts():
    tau = 1e-6
    counts = {"accepted": 0, "snapped_short": 0, "rejected": 0, "float": 0}
    for (F, nu, cover), float_case in _finisher_cases():
        new = _cone_finisher(F, nu, cover, tau)
        old = sweep_finisher(F, nu, cover, tau)
        if new is None:
            # every rejection comes from a negative exact lambda
            depth = max(F.depth(), len(cover[0]))
            solved = SpikeAccumulator(F.group, nu.params).solve(
                {b: F.at(spine_word(F.group, b, depth)) for b in cover})
            assert min(solved.values()) < 0
            counts["rejected"] += 1
        else:
            assert all(isinstance(lam, Fraction) for _, lam in new[0])
            # R - h and its L1 norm are exact
            assert all(type(v) in (int, Fraction) for v in new[2].values.values())
            assert type(new[3]) in (int, Fraction)
            new_residual = _residual_of_lambdas(F, nu, new[0])
            assert new_residual == new[3]
        if old is not None:
            counts["accepted"] += 1
            assert new is not None
            old_residual = _residual(F, nu, old)
            assert new_residual <= old_residual
            if old_residual == 0:
                assert dict(new[0]) == {g: lam for g, lam in old[0] if lam > 0}
            else:  # the snap missed the exact solution; the solve does not
                counts["snapped_short"] += 1
                assert new_residual == 0
        if sweep_finisher(*float_case, tau) is not None:
            counts["float"] += 1
            float_new = _cone_finisher(*float_case, tau)
            assert float_new is not None
            assert all(isinstance(lam, float) for _, lam in float_new[0])
    assert counts == {"accepted": 35, "snapped_short": 16, "rejected": 33,
                      "float": 35}


def test_finisher_lambdas_leave_the_residual_it_reports():
    # with no bound on ||R - h||_1 the finisher also accepts clamped solves,
    # scaled below 1 with a positive residual; the lambdas it returns must
    # leave exactly the residual it reports
    positive = 0
    for (F, nu, cover), _ in _finisher_cases():
        new = _cone_finisher(F, nu, cover, math.inf)
        if new is not None:
            assert _residual_of_lambdas(F, nu, new[0]) == new[3]
            positive += new[3] > 0
    assert positive == 33


def test_float_derivatives_finish_in_one_round(tmp_path):
    # float rounding turns the exact solve's zeros into values like -1e-17;
    # clamping them keeps mu = delta_gamma
    for word in ("ab", "aB"):
        cfg = tmp_path / f"{word}.json"
        cfg.write_text(json.dumps({
            "group": {"rank": 2, "weights": ["1", "1"], "names": ["a", "b"]},
            "params": {"arithmetic": "float", "tau": 1e-6, "max_rounds": 1},
            "decompose": {"target": f"derivative:{word}"}}))
        out = tmp_path / word
        assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "decomposition.json").read_text())
        assert doc["rounds"] == 1
        assert len(doc["coefficients"]) == 1
