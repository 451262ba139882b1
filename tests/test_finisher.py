"""The cone finisher: the exact trie solve of SpikeAccumulator against the
inserted sums, and the finisher against the float projected Gauss-Seidel
sweep it replaced, kept here as the oracle."""

import json
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from freewalk import (GreedyParams, LocallyConstantFunction, VisualParams,
                      WeightedFreeGroup, default_params, integrate,
                      uniform_ps_measure)
from freewalk.cli import main
from freewalk.decomposition import (_cone_finisher, _round_spikes,
                                    oscillation_threshold)
from freewalk.measures import SpikeAccumulator
from freewalk.partitions import refine_leaves, spine_word, trie_closure


def sweep_finisher(R, nu, spikes, vparams, tau, sweeps=120):
    """The finisher as it was before the trie solve: float projected
    Gauss-Seidel sweeps, snapped with limit_denominator(10**12) in exact mode,
    then retried with the unsnapped floats."""
    group = R.group
    depth = max([R.depth()] + [len(sp.center.word) for sp in spikes])
    centers = [sp.center.word for sp in spikes]
    spines = [spine_word(group, b, depth) for b in centers]
    targets = [float(R.at(sp)) for sp in spines]
    acc = SpikeAccumulator(group, VisualParams.floats(vparams.alpha.value,
                                                      vparams.epsilon.value))
    lam = [0.0] * len(spikes)
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
        lambdas = [(sp.gamma, scale * x) for sp, x in zip(spikes, lam_list)]
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
def solve_cases(draw):
    """A rank 2-3 group with rational steps e^{-2 alpha w_x}, a set of
    centers of one length, and positive targets."""
    rank = draw(st.integers(2, 3))
    alpha = draw(st.sampled_from([1, Fraction(1, 2)]))
    letters = ["1", "2", "3/2"] if alpha == 1 else ["1", "2"]
    group = WeightedFreeGroup(rank, [draw(st.sampled_from(letters))
                                     for _ in range(rank)])
    sphere = group.sphere(draw(st.integers(1, 3)))
    centers = draw(st.lists(st.sampled_from(sphere), min_size=1, max_size=12,
                            unique=True))
    targets = {b: draw(st.fractions(Fraction(1, 8), 6, max_denominator=12))
               for b in centers}
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
    """(F, nu, cover, params) in exact mode and the same in float mode (float
    targets, params, nu and cover): each target on the cover of the shell
    that basis_decompose starts from, and F_2 targets also one shell deeper."""
    gp = GreedyParams()
    measures = {}
    for F in _seeded_targets():
        group = F.group
        if group.rank not in measures:
            params = default_params(group)
            fparams = VisualParams.floats(params.alpha.value, params.epsilon.value)
            measures[group.rank] = [(uniform_ps_measure(group, p), p)
                                    for p in (params, fparams)]
        shell = max(1, min(int(oscillation_threshold(F, gp.s)), gp.max_shell))
        for extra in ((0, 1) if group.rank == 2 else (0,)):
            yield [(G, nu, _round_spikes(group, p, shell + extra, 0, None), p)
                   for G, (nu, p) in zip((F, F.map(float)), measures[group.rank])]


def _residual(F, nu, finished):
    return integrate(F.sub(finished[1]), nu)


def test_finisher_accepts_what_the_sweep_accepts():
    tau = 1e-6
    counts = {"accepted": 0, "snapped_short": 0, "rejected": 0, "float": 0}
    for (F, nu, cover, params), float_case in _finisher_cases():
        new = _cone_finisher(F, nu, cover, params, tau)
        old = sweep_finisher(F, nu, cover, params, tau)
        if new is None:
            # every rejection comes from a negative exact lambda
            depth = max(F.depth(), len(cover[0].center.word))
            solved = SpikeAccumulator(F.group, params).solve(
                {sp.center.word: F.at(spine_word(F.group, sp.center.word, depth))
                 for sp in cover})
            assert min(solved.values()) < 0
            counts["rejected"] += 1
        else:
            assert all(isinstance(lam, Fraction) for _, lam in new[0])
            # h is held exactly: int numerators over one shared denominator
            assert type(new[1].den) is int
            assert all(type(v) is int for v in new[1].values.values())
        if old is not None:
            counts["accepted"] += 1
            assert new is not None
            old_residual = _residual(F, nu, old)
            assert _residual(F, nu, new) <= old_residual
            if old_residual == 0:
                assert dict(new[0]) == {g: lam for g, lam in old[0] if lam > 0}
            else:  # the snap missed the exact solution; the solve does not
                counts["snapped_short"] += 1
                assert _residual(F, nu, new) == 0
        if sweep_finisher(*float_case, tau) is not None:
            counts["float"] += 1
            float_new = _cone_finisher(*float_case, tau)
            assert float_new is not None
            assert all(isinstance(lam, float) for _, lam in float_new[0])
    assert counts == {"accepted": 35, "snapped_short": 16, "rejected": 33,
                      "float": 35}


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
