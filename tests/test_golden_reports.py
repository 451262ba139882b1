"""Recorded `DecompositionResult.to_json()` reports of both outer loops on F_2,
in exact (`exact_base(3)`) and float (`log 3`) mode, compared byte for byte.

The runs cover `basis_decompose`'s shell deepening, its adaptive fallback,
the proof rescale and the cone finisher's accepted round (on `f_w + 1`
targets), and two rounds of `moment_decompose` with each rescale.  On
every exact run, each round's recorded mass is also checked against
`factor * int g d nu`, with g rebuilt from the round's lambdas.
Regenerate the files only after an intended change of results:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from freewalk import (GreedyParams, LocallyConstantFunction, VisualParams,
                      WeightedFreeGroup, basis_decompose, decomposition,
                      integrate, measure_constants, moment_decompose,
                      radon_nikodym, uniform_ps_measure)
from freewalk.measures import unit_spike

REPORTS = Path(__file__).resolve().parent / "data" / "reports"

# the 28:1 contrast target of test_decomposition.py, on (a, A, b, B)
CONTRAST = {(0,): Fraction(1, 2), (1,): Fraction(1, 4), (2,): Fraction(7),
            (3,): Fraction(3)}

# name -> (loop, target, GreedyParams keywords, moment rounds); the target
# "bump:w" is f_w + 1, which the cone finisher reconstructs in round 1
RUNS = {
    "basis-deepen": ("basis", "contrast", {"max_rounds": 3}, None),
    "basis-fallback": ("basis", "contrast", {"max_rounds": 3, "max_shell": 2}, None),
    "basis-proof": ("basis", "contrast", {"max_rounds": 3, "rescale": "proof"}, None),
    "moment-proof": ("moment", "ones", {"margin": 1, "rescale": "proof"}, 2),
    "moment-adaptive": ("moment", "ones", {"margin": 1}, 2),
    **{f"finisher-{w}": ("basis", f"bump:{w}", {}, None)
       for w in ("ab", "abA", "bbaB", "ABABa")},
}
MODES = ("exact", "float")
_SETUP = {}


def setup(mode):
    """(group, nu, constants) on F_2 in the given arithmetic."""
    if mode not in _SETUP:
        group = WeightedFreeGroup(2)
        params = VisualParams.exact_base(3) if mode == "exact" \
            else VisualParams.floats(math.log(3), math.log(3))
        nu = uniform_ps_measure(group, params)
        _SETUP[mode] = (group, nu, measure_constants(nu, params, max_len=3,
                                                     ds=(0, 1)))
    return _SETUP[mode]


def result(name, mode):
    """The DecompositionResult of run `name` in the given arithmetic."""
    loop, target, keywords, rounds = RUNS[name]
    group, nu, constants = setup(mode)
    if target.startswith("bump:"):
        F = radon_nikodym(group.parse_word(target[5:]), nu, nu.params).add(
            LocallyConstantFunction.constant(group, Fraction(1)))
    else:
        values = CONTRAST if target == "contrast" else {(): Fraction(1)}
        F = LocallyConstantFunction(group, values, validate=False)
    if mode == "float":
        F = F.map(float)
    params = GreedyParams(**keywords)
    if loop == "basis":
        return basis_decompose(F, nu, params, constants=constants)
    return moment_decompose(F, nu, params, rounds=rounds, constants=constants)


def report(name, mode) -> str:
    return json.dumps(result(name, mode).to_json(), sort_keys=True, indent=2) + "\n"


def path(name, mode) -> Path:
    return REPORTS / f"{name}.{mode}.json"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes(name, mode):
    assert report(name, mode).encode() == path(name, mode).read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_round_mass_is_the_integral_of_g(monkeypatch, name):
    # a round records its mass as the sum of the coefficients it credits;
    # for the conformal nu that is factor * int g d nu, read here off every
    # accepted round (a greedy round, or the finisher's with factor 1 and
    # g = h); the rounds do not return g, so the oracle integrates
    # g = sum lambda u_{gamma^-1} spike by spike
    rounds = []
    for spied in ("_greedy_round", "_cone_finisher"):
        def spy(*args, original=getattr(decomposition, spied)):
            out = original(*args)
            if out is not None:
                rounds.append(out)
            return out
        monkeypatch.setattr(decomposition, spied, spy)
    res = result(name, "exact")
    nu = setup("exact")[1]
    assert len(rounds) == len(res.records) > 0
    for rec, (lambdas, factor, _, _) in zip(res.records, rounds):
        int_g = sum(lam * integrate(unit_spike(gamma, nu, nu.params), nu)
                    for gamma, lam in lambdas if lam > 0)
        assert type(rec.round_mass) is Fraction
        assert rec.round_mass == factor * int_g


def test_moment_tail_is_the_series_sum():
    # a float sum of 4 10^6 terms of the series beyond round 1 of the exact
    # moment-proof run gives 4.55073571665e13
    tails = json.loads(report("moment-proof", "exact"))["envelope"]["tail_bounds"]
    assert abs(tails["1"] - 4.55073571665e13) <= 1.5e-12 * 4.55073571665e13


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for run_name in sorted(RUNS):
        for run_mode in MODES:
            path(run_name, run_mode).write_text(report(run_name, run_mode))
            print(path(run_name, run_mode))
