"""Refusals that the rest of the suite, the demos, the golden audits and the
benchmark workloads never run: each case raises its named error, or, through
the CLI, exits 2 with an error that names its config key or file."""

import json
from fractions import Fraction

import pytest

from freewalk import (BoundaryMeasure, Cylinder, GroupMeasure, InputError,
                      LogScale, VisualParams, WeightedFreeGroup, decay_check,
                      default_params, mix, poincare_series, sequence_decay_bound,
                      shadow, shadow_lemma_audit, uniform_ps_measure)
from freewalk.cli import main
from freewalk.measures import (ConformalityError, RefinementRuleError,
                               require_conformal)

F2, F3 = WeightedFreeGroup(2), WeightedFreeGroup(3)
PARAMS = default_params(F2)
NU = uniform_ps_measure(F2, PARAMS)
# nu with no VisualParams: a measure file without the conformal rule
BARE_NU = BoundaryMeasure.from_json({
    "group": {"rank": 2},
    "cells": [["a", "1/4"], ["A", "1/4"], ["b", "1/4"], ["B", "1/4"]]})


def run_cli(tmp_path, command, config, user_file=None) -> int:
    """`freewalk COMMAND` on `config`, with `user_file` written to user.json."""
    if user_file is not None:
        (tmp_path / "user.json").write_text(json.dumps(user_file))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"group": {"rank": 2}, **config}))
    return main([command, "--config", str(path)])


# name -> (case run on a tmp_path, the error it raises or None for a CLI exit
# of 2, and what the error's message holds: for a CLI exit, one string or a
# tuple of strings that it holds each)
CASES = {
    "LogScale.of_float(0)": (lambda tmp: LogScale.of_float(0),
                             InputError, "must be positive"),
    "alpha log(1)": (lambda tmp: run_cli(tmp, "decompose", {
        "params": {"alpha": "log(1)"}}), None,
        "config['params']['alpha'] = 'log(1)' is malformed"),
    "shadow at e": (lambda tmp: shadow(F2, ()), InputError, "gamma = e"),
    "shadow at D = -1": (lambda tmp: shadow(F2, (0,), -1),
                         InputError, "must be >= 0"),
    "negative cell in a nu file": (lambda tmp: run_cli(tmp, "verify", {
        "verify": {"nu": str(tmp / "user.json")}}, {
            "group": {"rank": 2},
            "cells": [["a", "-1/4"], ["A", "1/2"], ["b", "1/2"], ["B", "1/4"]]}),
        None, "user.json is malformed: InputError: cylinder masses must be "
        "nonnegative"),
    "conformal rule without params": (lambda tmp: BoundaryMeasure.from_json({
        "group": {"rank": 2}, "cells": [["e", "1"]], "rule": "conformal"}),
        RefinementRuleError, "requires VisualParams"),
    "alpha of nu and params disagree": (lambda tmp: require_conformal(
        NU, VisualParams.exact_base(5), "test"), ConformalityError, "disagree"),
    "poincare_series truncation 0": (lambda tmp: poincare_series(F2, 2.0, 0),
                                     InputError, "truncation"),
    "decay_check without params": (lambda tmp: decay_check(
        BARE_NU, 1, 1, [Cylinder((0,))], [1]), InputError, "needs VisualParams"),
    "shadow_lemma_audit max_len 0": (lambda tmp: shadow_lemma_audit(
        NU, PARAMS, 0, [0]), InputError, "max_len"),
    "shadow_lemma_audit no margins": (lambda tmp: shadow_lemma_audit(
        NU, PARAMS, 1, []), InputError, "empty list"),
    "mix of nothing": (lambda tmp: mix([]), InputError, "at least one"),
    "mix over two groups": (lambda tmp: mix([
        (GroupMeasure(F2, {(0,): Fraction(1)}), Fraction(1, 2)),
        (GroupMeasure(F3, {(0,): Fraction(1)}), Fraction(1, 2))]),
        InputError, "different groups"),
    "sphere(-1)": (lambda tmp: F2.sphere(-1), InputError, "radius"),
    "verify's default sphere:1 on unequal weights": (lambda tmp: run_cli(
        tmp, "verify", {"group": {"rank": 2, "weights": ["1", "2"]},
                        "params": {"arithmetic": "float"}}),
        None, "config['verify']['mu'] = 'sphere:1' is malformed: "
        "UnsupportedClosedFormError: sphere-uniform closed form requires equal"),
    "mix with a mu file over another group": (lambda tmp: run_cli(tmp, "verify", {
        "verify": {"mu": {"mix": [["sphere:1", "1/2"], [str(tmp / "user.json"), "1/2"]]}}},
        {"group": {"rank": 3}, "atoms": [["c", "1"]]}),
        None, ("config['verify']['mu'] measure file ",
               "user.json is malformed: ValueError: its group {'rank': 3")),
    "conformal nu' file with a mass off the closed form": (lambda tmp: run_cli(
        tmp, "verify", {"verify": {"nu_prime": str(tmp / "user.json"), "depth": 1}},
        {"group": {"rank": 2}, "rule": "conformal",
         "cells": [["a", "1/2"], ["A", "1/6"], ["b", "1/6"], ["B", "1/6"]]}),
        None, ("measure file ", "user.json is malformed: ConformalityError: "
               "cell a has mass 1/2, but the conformal closed form gives it 1/4")),
    "conformal nu file with nested cells": (lambda tmp: run_cli(tmp, "verify", {
        "verify": {"nu": str(tmp / "user.json")}},
        {"group": {"rank": 2}, "rule": "conformal",
         "cells": [["a", "1/4"], ["aa", "1/12"]]}),
        None, "user.json is malformed: PartitionError: cell (0, 0) nested inside"),
    "nu' file over another group": (lambda tmp: run_cli(tmp, "verify", {
        "verify": {"nu_prime": str(tmp / "user.json"), "depth": 1}},
        {"group": {"rank": 3}, "cells": [[x, "1/6"] for x in "aAbBcC"]}),
        None, ("measure file ", "user.json is malformed: ValueError: its group "
               "{'rank': 3")),
    "group config without rank": (lambda tmp: WeightedFreeGroup.from_config({}),
                                  InputError, "'rank'"),
    "decay bound on unequal lengths": (lambda tmp: sequence_decay_bound(
        [Fraction(1, 2)], [], 1), InputError, "equal length"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal(tmp_path, capsys, name):
    run, error, message = CASES[name]
    if error is None:
        assert run(tmp_path) == 2
        err = capsys.readouterr().err
        parts = message if isinstance(message, tuple) else (message,)
        assert err.startswith("error: ") and all(part in err for part in parts)
    else:
        with pytest.raises(error, match=message):
            run(tmp_path)
