"""The record classes against stdlib dataclass twins, and the import cost the
in-package helper (`freewalk.records`) saves.

Each twin is made by `dataclasses.make_dataclass` with the name, fields,
defaults and flags the record had as a stdlib dataclass, so construction,
==, hash, ordering, repr, the frozen refusal and `replace` must agree with
stdlib semantics field by field.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freewalk import (AuditConstants, Cylinder, DecayReport, DecompositionResult,
                      GreedyParams, InputError, LogScale, ShadowAuditReport, Spike,
                      SpikeReport, StationarityReport, VisualParams)
from freewalk.decomposition import RoundRecord
from freewalk.records import replace

F = dataclasses.field
# class -> (dataclass flags, fields as make_dataclass takes them, the values of
# the fields without a default, one value per defaulted field to pass instead)
TWINS = {
    LogScale: ({"frozen": True}, ["value", ("base", object, None), ("coeff", object, 1)],
               [1.5], [3, Fraction(1, 2)]),
    VisualParams: ({"frozen": True}, ["alpha", "epsilon"],
                   [LogScale.log_of(3), LogScale.log_of(3, Fraction(1, 2))], []),
    Cylinder: ({"frozen": True, "order": True}, ["word"], [(0, 2)], []),
    Spike: ({}, ["function", "r_exp", "center", "c", "gamma", "params", ("margin", object, 0),
                 ("cell_table", object, F(default=None, repr=False, compare=False))],
            ["f", 2, Cylinder((1,)), None, (0,), "params"], [1, ["table"]]),
    SpikeReport: ({}, ["cond1_ok", "cond2_ok", "cond3_ok", "q_spike_ok", "measured_c",
                       ("measured", object, F(default_factory=dict)),
                       ("witnesses", object, F(default_factory=dict))],
                  [True, False, True, True, Fraction(3, 2)], [{"cond1": 1}, {"cond1": "a"}]),
    DecayReport: ({}, ["p", "alpha", "d_nu", "rows"], [1, 2, Fraction(1, 3), [{}]], []),
    ShadowAuditReport: ({}, ["beta", "d0", "worst_lower", "t_nu", "shadows"],
                        [Fraction(4, 3), 0, {"gamma": "a"}, 4, [("a", 0)]], []),
    AuditConstants: ({}, ["beta", "d0", "d_nu", "t_nu", "lebesgue_b", "q", "l_nu",
                          ("worst_lower", object, None)],
                     [Fraction(4, 3), 0, 1, 4, 1, 1, Fraction(1, 9)], [{"gamma": "a"}]),
    GreedyParams: ({}, [("s", object, Fraction(2)), ("beta", object, Fraction(1, 2)),
                        ("c_cap", object, None), ("margin", object, 0), ("tau", object, 1e-6),
                        ("schedule", object, "fixed"), ("rescale", object, "adaptive"),
                        ("max_rounds", object, 200), ("max_shell", object, 24),
                        ("audit_len", object, 3)],
                   [], [1.5, "1/4", 3, 2.0, 0.0, "growing", "proof", 5, 6, 2]),
    RoundRecord: ({}, ["index", "shell", "cover_depth", "spike_count", "factor",
                       "round_mass", "residual_l1", *[(name, object, None) for name in (
                           "eps", "delta", "max_log_inv_l1", "max_r_exp",
                           "moment_contribution", "envelope")]],
                  [1, 2, 3, 4, Fraction(1, 2), Fraction(1, 3), 0.5],
                  [0.1, 0.2, 0.3, 4, 0.5, 0.6]),
    DecompositionResult: ({}, ["coefficients", "residual_trace", "rounds",
                               "achieved_tolerance", "moment", "log_moment", "entropy",
                               ("records", object, F(default_factory=list)),
                               ("envelope_report", object, None), ("leak", object, 0.0)],
                          ["mu", [1, Fraction(1, 2)], 1, 0.5, Fraction(1, 7), 0.1, 0.2],
                          [["record"], {"checks": {}}, 0.25]),
    StationarityReport: ({}, ["max_cell_error", "depth", "exact", "moment", "log_moment",
                              "entropy", ("normalized_copy", object, False)],
                         [Fraction(0), 3, True, Fraction(5, 2), 0.1, 0.2], [True]),
}


def _twin(cls):
    flags, fields, _, _ = TWINS[cls]
    # the methods a dataclass keeps from the class body
    namespace = {name: vars(cls)[name] for name in ("__post_init__", "__repr__")
                 if name in vars(cls)}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, **flags)


def _fields(record, names) -> list:
    return [(getattr(record, name), type(getattr(record, name))) for name in names]


def _outcome(make, names):
    """The fields of the record `make()` returns, or the type of its error."""
    try:
        return _fields(make(), names)
    except Exception as exc:
        return type(exc)


def _calls(cls):
    """(args, kwargs) calls: positional, keyword and mixed, with the defaults
    taken and with every defaulted field given."""
    _, fields, required, given = TWINS[cls]
    names = [f if isinstance(f, str) else f[0] for f in fields]
    for values in (required, required + given):
        half = len(values) // 2
        yield values, {}
        yield [], dict(zip(names, values))
        yield values[:half], dict(zip(names[half:], values[half:]))


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_records_agree_with_stdlib_dataclasses(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(twin)]
    assert list(cls._fields) == names
    frozen = TWINS[cls][0].get("frozen", False)
    for args, kwargs in _calls(cls):
        ours, theirs = cls(*args, **kwargs), twin(*args, **kwargs)
        assert _fields(ours, names) == _fields(theirs, names)
        assert repr(ours) == repr(theirs)
        again, twin_again = cls(*args, **kwargs), twin(*args, **kwargs)
        assert (ours == again) is (theirs == twin_again) is True
        assert ours != theirs and theirs != ours  # another class never compares equal
        if frozen:
            assert hash(ours) == hash(theirs) == hash(again)
            for name in names:
                for act in (lambda r: setattr(r, name, 0), lambda r: delattr(r, name)):
                    with pytest.raises(AttributeError) as mine:
                        act(ours)
                    with pytest.raises(AttributeError) as stdlib:
                        act(theirs)
                    assert str(mine.value) == str(stdlib.value)
        else:
            for record in (ours, theirs):
                with pytest.raises(TypeError):
                    hash(record)
        # one field changed: ==, and replace as dataclasses.replace
        for name in names:
            change = {name: "other"}
            outcome = _outcome(lambda: replace(ours, **change), names)
            assert outcome == _outcome(lambda: dataclasses.replace(theirs, **change), names)
            if isinstance(outcome, list):
                assert (replace(ours, **change) == ours) is \
                    (dataclasses.replace(theirs, **change) == theirs)
    # missing and unknown fields are refused, as by the generated __init__
    if TWINS[cls][2]:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make()
    for make in (cls, twin):
        with pytest.raises(TypeError):
            make(*TWINS[cls][2], no_such_field=1)


def test_factories_give_each_record_its_own_container():
    reports = [SpikeReport(True, True, True, True, 1) for _ in range(2)]
    assert reports[0].measured == {} and reports[0].measured is not reports[1].measured
    results = [DecompositionResult(*TWINS[DecompositionResult][2]) for _ in range(2)]
    assert results[0].records == [] and results[0].records is not results[1].records


def test_cylinder_order_is_the_word_order():
    twin = _twin(Cylinder)
    words = [(), (0,), (0, 2), (1,), (3, 1), (0, 3)]
    assert [c.word for c in sorted(map(Cylinder, words))] == \
        [c.word for c in sorted(map(twin, words))] == sorted(words)
    for u in words:
        for w in words:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(Cylinder(u), op)(Cylinder(w)) == getattr(twin(u), op)(twin(w))
            assert Cylinder(u).__lt__(twin(w)) is NotImplemented
    with pytest.raises(TypeError):
        Cylinder((0,)) < (0,)


def test_replace_reruns_post_init_and_keeps_the_cell_table():
    params = replace(GreedyParams(), margin=1, rescale="proof")
    assert (params.margin, params.rescale, params.s) == (1, "proof", Fraction(2))
    assert replace(params, s=1.5).s == Fraction(3, 2)  # __post_init__ converted it
    for bad in ({"s": 3}, {"beta": 1}, {"schedule": "weekly"}, {"margin": -1}):
        with pytest.raises(InputError):
            replace(params, **bad)
    table = object()
    spike = Spike(*TWINS[Spike][2], cell_table=table)
    moved = replace(spike, r_exp=5, margin=1)
    assert moved.cell_table is table and (moved.r_exp, moved.margin) == (5, 1)
    assert replace(moved, cell_table=None).cell_table is None
    with pytest.raises(TypeError):
        replace(spike, no_such_field=1)


def test_a_command_set_up_loads_neither_dataclasses_nor_inspect(tmp_path):
    """A fresh interpreter, without `site`, imports freewalk.cli and builds
    a `cli.Run` on a config: the stdlib modules the records do without stay
    unloaded."""
    config = tmp_path / "config.json"
    config.write_text('{"group": {"rank": 2}, "params": {"D": 1}}')
    code = ("import sys; from freewalk import cli; cli.Run(cli.load_config(sys.argv[1])); "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(config)], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
