"""Batch experiment runner.

Commands: decompose | verify | audit | moments.  A JSON run config holds the
group (weights as exact fraction strings), the visual/greedy parameters and
per-command options; `CONFIG_KEYS` lists every key it may hold.  Results are
machine-readable JSON (and CSV for coefficient tables).  Outputs are
byte-identical across runs; timestamps go to a separate meta file.

Exit codes: 0 pass, 1 check failed, 2 usage/config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import reprlib
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .words import WeightedFreeGroup, as_exact
from .geometry import VisualParams, LogScale, Cylinder
from .partitions import LocallyConstantFunction, word_values, _num_to_str
from .measures import (BoundaryMeasure, GroupMeasure, uniform_ps_measure,
                       radon_nikodym, pushforward, conformal_exponent)
from .spikes import make_spike, with_margin, verify_spike, Spike, _checked_margin
from .decomposition import (GreedyParams, basis_decompose, moment_decompose,
                            measure_constants, ContractionShortfall)
from .stationarity import verify_stationarity, sphere_uniform, mix
from .records import replace


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _parsing(what: str, *value):
    """A missing key, a value of the wrong type, "1/0" or any such error in
    parsing `what` (a config key holding `value`, or a user file) becomes a
    ConfigError that names it."""
    try:
        yield
    except (ValueError, TypeError, ZeroDivisionError, KeyError, AttributeError,
            IndexError) as exc:
        shown = "".join(f" = {reprlib.repr(v)}" for v in value)
        raise ConfigError(f"{what}{shown} is malformed: "
                          f"{type(exc).__name__}: {exc}") from exc


def _read_file(path, what: str, parse=lambda doc: doc):
    """`parse` of the JSON document in the user file at `path`.  A path that
    is not a readable file of JSON is a ConfigError that names it."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{what} file {str(path)!r} cannot be read: "
                          f"{type(exc).__name__}: {exc}") from exc
    with _parsing(f"{what} file {path}"):
        return parse(doc)


# The parsers of CONFIG_KEYS read one JSON value each, given the group and
# whether the run is exact; a target or measure becomes a function of the Run.

def _rational(value, *_):
    """A number or "p/q", read exactly: 1.5 is 3/2 and no float enters."""
    return as_exact(str(value))


def _int(value, *_) -> int:
    if not isinstance(number := _rational(value), int):  # 1.5 is not truncated
        raise ValueError(f"must be an integer, got {value!r}")
    return number


def _count(value, *_) -> int:
    """An integer >= 1, for a number of rounds or a word length: zero rounds
    would certify an empty mu with every check true."""
    if (number := _int(value)) < 1:
        raise ValueError(f"must be an integer >= 1, got {value!r}")
    return number


def _rationals(values, *_) -> list:
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return [_rational(v) for v in values]


def _margins(values, *_) -> list:
    """Shadow margins D for the audit, at least one: 0 or at least 1, as the
    spike sweep checks no margin in between (nor below 0), and none twice."""
    if not (margins := [_checked_margin(d) for d in _rationals(values)]):
        raise ValueError("needs at least one shadow margin D")
    for d in margins:
        if 0 < d < 1:
            raise ValueError(f"shadow margin D = {d} is not checked by the "
                             "spike sweep; use D = 0 or D >= 1")
        if margins.count(d) > 1:
            raise ValueError(f"shadow margin D = {d} is repeated")
    return margins


def _finite(value, *_) -> float:
    if not math.isfinite(number := float(value)):
        raise ValueError(f"{number} is not finite")
    return number


def _tau(value, group, exact) -> float:
    tau = _finite(value)
    if not exact and tau <= 0:
        raise ValueError("tau = 0 is unreachable in float mode")
    return tau


def _arithmetic(value, *_) -> str:
    if value not in ("exact", "float"):
        raise ValueError(f"unknown arithmetic mode {value!r}")
    return value


def _scale(spec, group: WeightedFreeGroup, exact: bool) -> LogScale:
    """"critical", "log(b)" or "c*log(b)"; a number in float mode only."""
    if isinstance(spec, str):
        spec = spec.strip()
        if spec == "critical":
            if group.unit_weights():  # equal weights w: log(2k-1)/w
                return LogScale.log_of(2 * group.rank - 1,
                                       Fraction(1) / group.weights[0])
            if exact:
                raise ValueError("'critical' on unequal weights is a float "
                                 "root, forbidden in exact mode")
            return LogScale.of_float(conformal_exponent(group))
        if spec.startswith("log(") and spec.endswith(")"):
            return LogScale.log_of(_rational(spec[4:-1]))
        if "*log(" in spec and spec.endswith(")"):
            coeff, base = spec.split("*log(")
            return LogScale.log_of(_rational(base[:-1]), _rational(coeff))
    if exact:
        raise ValueError(f"float scale {spec!r} forbidden in exact mode")
    if not isinstance(spec, (int, float, str)):
        raise TypeError(f"scale {spec!r} is neither a number nor a log")
    return LogScale.of_float(_finite(spec))


def _inline(numbers, what: str, exact: bool) -> None:
    """Cells and atoms written in the config or a spike file are ints or
    "p/q": a decimal would silently turn an exact run into floats, so only
    float mode takes one, and only a finite one."""
    for v in numbers:
        if isinstance(v, float) and exact:
            raise ValueError(f"{what} {v!r} is a decimal, forbidden in exact "
                             "mode; write it as an integer or p/q")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{what} {v!r} is not finite")


def _target(spec, group: WeightedFreeGroup, exact: bool):
    """"ones", "derivative:WORD" (the density of WORD nu) or inline
    {"cells": ...}."""
    if isinstance(spec, str) and spec.startswith("derivative:"):
        gamma = group.parse_word(spec.split(":", 1)[1])
        build = lambda run: radon_nikodym(gamma, run.nu, run.params)
    elif spec in (None, "ones", "1"):
        build = lambda run: LocallyConstantFunction.constant(group, Fraction(1))
    elif isinstance(spec, dict) and "cells" in spec:
        f = LocallyConstantFunction.from_json(group, spec)
        _inline(f.values.values(), "inline target cell", exact)
        build = lambda run: f
    else:
        raise ValueError(f"unknown decomposition target {spec!r}")
    return build if exact else lambda run: build(run).map(float)


def _same_group(its: WeightedFreeGroup, group: WeightedFreeGroup) -> None:
    """Refuse a measure file over another group than the config's."""
    if its != group:
        raise ValueError(f"its group {its.to_config()} is not the config's "
                         f"{group.to_config()}")


def _group_measure(spec, group: WeightedFreeGroup, exact: bool):
    """"sphere:R", a measure file or decomposition report, inline
    {"atoms": ...}, or a convex {"mix": [[spec, weight], ...]}.  All is
    checked here but files and the sphere's closed form, built by verify:
    the closed form needs equal weights, which the other commands do not."""
    if isinstance(spec, str) and spec.startswith("sphere:"):
        radius = _count(spec.split(":", 1)[1])

        def sphere(run):
            with _parsing("config['verify']['mu']", spec):
                return sphere_uniform(group, radius)
        return sphere
    if isinstance(spec, str):
        def parse(doc):  # a measure file, or a decomposition report
            if "coefficients" in doc:
                doc = {"group": group.to_config(), "atoms": doc["coefficients"]}
            mu = GroupMeasure.from_json(doc)
            _same_group(mu.group, group)
            return mu
        return lambda run: _read_file(spec, "config['verify']['mu'] measure", parse)
    if isinstance(spec, dict) and "atoms" in spec:
        atoms = word_values(group, spec["atoms"])
        _inline(atoms.values(), "inline atom", exact)
        if not (mu := GroupMeasure(group, atoms)).atoms:
            raise ValueError("inline atoms have no positive weight")
        return lambda run: mu
    if isinstance(spec, dict) and "mix" in spec:
        parts = [(_group_measure(m, group, exact), _rational(t)) for m, t in spec["mix"]]
        mix([(GroupMeasure(group, {}), t) for _, t in parts])  # checks the weights
        return lambda run: mix([(m(run), t) for m, t in parts])
    raise ValueError(f"unknown group measure spec {spec!r}")


def _boundary_measure(spec, group: WeightedFreeGroup, exact: bool):
    """"uniform" (the conformal nu), "pushforward:WORD" or a measure file over
    the config's group."""
    if spec in (None, "uniform", "ps"):
        return lambda run: run.nu
    if isinstance(spec, str) and spec.startswith("pushforward:"):
        gamma = group.parse_word(spec.split(":", 1)[1])
        return lambda run: pushforward(gamma, run.nu)
    if isinstance(spec, str):
        def parse(doc, params):
            _same_group(WeightedFreeGroup.from_config(doc["group"]), group)
            return BoundaryMeasure.from_json(doc, params=params)
        return lambda run: _read_file(spec, "measure", lambda doc: parse(doc, run.params))
    raise ValueError(f"unknown boundary measure spec {spec!r}")


# Every config key: (section, key) -> (default, parser).  The group keys build
# the group and come first, then "arithmetic": the rest are read on that group
# in that mode.  A key with default None may be left out or null; any other
# null goes to its parser, which reads it as the default target or nu and
# refuses it elsewhere.
CONFIG_KEYS = {
    ("group", "rank"): (None, _int),
    ("group", "weights"): (None, _rationals),
    ("group", "names"): (None, lambda names, *_: names),
    ("params", "arithmetic"): ("exact", _arithmetic),
    ("params", "alpha"): ("critical", _scale),
    ("params", "epsilon"): ("critical", _scale),
    ("params", "s"): ("2", _rational),
    ("params", "beta"): ("1/2", _rational),
    ("params", "C"): (None, _rational),
    ("params", "D"): (0, _int),
    ("params", "tau"): (1e-6, _tau),
    ("params", "schedule"): ("fixed", lambda name, *_: name),
    ("params", "rescale"): ("adaptive", lambda name, *_: name),
    ("params", "max_rounds"): (120, _count),
    ("params", "audit_len"): (3, _count),
    ("decompose", "target"): ("ones", _target),
    ("verify", "mu"): ("sphere:1", _group_measure),
    ("verify", "nu"): ("uniform", _boundary_measure),
    ("verify", "nu_prime"): ("uniform", _boundary_measure),
    ("verify", "depth"): (None, _int),
    ("verify", "threshold"): (1e-9, _finite),
    ("audit", "max_len"): (5, _count),
    ("audit", "Ds"): ([0, 1, 2], _margins),
    ("audit", "inject"): (None, lambda path, *_: os.fspath(path)),
    ("moments", "rounds"): (3, _count),
    ("moments", "target"): ("ones", _target),
}


def load_config(path: str) -> dict:
    """The config file at `path` as {section: {key: value}}, each key of
    CONFIG_KEYS parsed or defaulted and "group" the group.  An unknown or
    malformed section or key is a ConfigError that names it."""
    doc = _read_file(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    cfg = {section: {} for section, _ in CONFIG_KEYS}
    for section, body in doc.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object, "
                              f"got {type(body).__name__}")
        for key in body:
            if (section, key) not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {section}.{key}")
    group = exact = None
    for (section, key), (default, parse) in CONFIG_KEYS.items():
        value = doc.get(section, {}).get(key, default)
        if value is not None or default is not None:
            with _parsing(f"config[{section!r}][{key!r}]", value):
                value = parse(value, group, exact)
        cfg[section][key] = value
        if key == "names":  # the last group key
            with _parsing("config['group']"):
                group = cfg["group"] = WeightedFreeGroup(**cfg["group"])
        elif key == "arithmetic":
            exact = value == "exact"
    return cfg


class Run:
    """Run state shared by the commands, from a config `load_config` read."""

    def __init__(self, cfg: dict):
        self.cfg, self.group, pc = cfg, cfg["group"], cfg["params"]
        self.exact = pc["arithmetic"] == "exact"
        with _parsing("config['params']"):
            self.params = VisualParams(alpha=pc["alpha"], epsilon=pc["epsilon"])
            self.greedy = GreedyParams(
                s=pc["s"], beta=pc["beta"], c_cap=pc["C"], margin=pc["D"],
                tau=pc["tau"], schedule=pc["schedule"], rescale=pc["rescale"],
                max_rounds=pc["max_rounds"], audit_len=pc["audit_len"])
            self.nu = uniform_ps_measure(self.group, self.params)

    def target(self, spec) -> LocallyConstantFunction:
        """F for a decomposition target spec such as "derivative:ab"."""
        return _target(spec, self.group, self.exact)(self)


def _write(out_dir: Optional[str], name: str, text: str) -> None:
    if out_dir is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text)


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_meta(out_dir: Optional[str], command: str) -> None:
    if out_dir is None:
        return
    meta = {"command": command, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    _write(out_dir, "meta.json", _dump(meta))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_decompose(run: Run, args) -> int:
    F = run.cfg["decompose"]["target"](run)
    try:
        result = basis_decompose(F, run.nu, run.greedy)
    except ContractionShortfall as exc:  # ends the run, as max_rounds does
        print(f"stopped: {exc}", file=sys.stderr)
        result = exc.result
    _write(args.out, "decomposition.json", _dump(result.to_json()))
    _write(args.out, "decomposition.csv", result.to_csv())
    _write_meta(args.out, "decompose")
    return 0 if result.achieved_tolerance <= run.greedy.tau else 1


def cmd_moments(run: Run, args) -> int:
    section = run.cfg["moments"]
    F = section["target"](run)
    params = run.greedy
    if params.margin < 1:
        params = replace(params, margin=1, rescale="proof")
    result = moment_decompose(F, run.nu, params,
                              rounds=section["rounds"])
    _write(args.out, "moments.json", _dump(result.to_json()))
    _write(args.out, "moments.csv", result.to_csv())
    _write_meta(args.out, "moments")
    checks = result.envelope_report["checks"]
    return 0 if all(checks.values()) else 1


def cmd_verify(run: Run, args) -> int:
    section = run.cfg["verify"]
    mu = section["mu"](run)
    nu = section["nu"](run)
    nu_prime = section["nu_prime"](run)
    depth = section["depth"] if args.depth is None else args.depth
    report = verify_stationarity(mu, nu, nu_prime, depth=depth)
    _write(args.out, "stationarity.json", _dump(report.to_json()))
    _write_meta(args.out, "verify")
    threshold = section["threshold"] if args.threshold is None else args.threshold
    return 0 if float(report.max_cell_error) <= threshold else 1


def _spike_from_json(run: Run, doc: dict) -> Spike:
    for key in ("function", "r_exp", "center"):
        if key not in doc:
            raise ValueError(f"injected spike file has no {key!r}")
    f = LocallyConstantFunction.from_json(run.group, doc["function"])
    _inline(f.values.values(), "injected spike cell", run.exact)
    return Spike(function=f,
                 r_exp=_rational(doc["r_exp"]),
                 center=Cylinder(run.group.parse_word(doc["center"])),
                 c=_rational(doc["C"]) if "C" in doc else None,
                 gamma=run.group.parse_word(doc.get("gamma", "e")),
                 margin=_rational(doc.get("D", 0)),
                 params=run.params)


def _spike_sweep(gammas, ds, nu: BoundaryMeasure, params: VisualParams):
    """(gamma, D, spike) for every gamma and then every D.  f_gamma, the
    center and Q do not depend on D: the first margin builds them, and the
    others reuse them with their own radius and C."""
    for gamma in gammas:
        sp = None
        for d in ds:
            sp = make_spike(gamma, nu, params, margin=d) if sp is None \
                else with_margin(sp, d, nu)
            yield gamma, d, sp


def cmd_audit(run: Run, args) -> int:
    section = run.cfg["audit"]
    max_len, ds = section["max_len"], section["Ds"]
    nu, params = run.nu, run.params
    constants = measure_constants(nu, params, max_len, ds)

    gammas = [gamma for n in range(1, max_len + 1) for gamma in run.group.sphere(n)]

    failures = []
    witness_dump = []
    worst_c = Fraction(0)
    for gamma, d, sp in _spike_sweep(gammas, ds, nu, params):
        rep = verify_spike(sp, nu)
        if not rep.all_ok:
            failures.append({"gamma": run.group.format_word(gamma), "D": str(d),
                             "witnesses": rep.witnesses})
        worst_c = max(worst_c, rep.measured_c)
        if args.witnesses:
            witness_dump.append({
                "gamma": run.group.format_word(gamma), "D": str(d),
                "measured_C": _num_to_str(rep.measured_c),
                "witnesses": {k: v for k, v in rep.witnesses.items()
                              if v is not None}})

    injected_fail = None
    if section["inject"] is not None:
        sp = _read_file(section["inject"], "injected spike",
                        lambda doc: _spike_from_json(run, doc))
        rep = verify_spike(sp, nu)
        if not rep.all_ok:
            injected_fail = {"witnesses": rep.witnesses,
                             "measured": {k: _num_to_str(v) if v is not None else None
                                          for k, v in rep.measured.items()}}

    doc = {
        "beta": _num_to_str(constants.beta),
        "D0": _num_to_str(constants.d0),
        "D_nu": _num_to_str(constants.d_nu),
        "T_nu": _num_to_str(constants.t_nu),
        "spikes_checked": len(gammas) * len(ds),
        "spikes_failed": len(failures),
        "worst_measured_C": _num_to_str(worst_c),
        "worst_lower": {**constants.worst_lower,
                        "ratio": _num_to_str(constants.worst_lower["ratio"])},
        "failures": failures,
        "injected_failure": injected_fail,
    }
    if args.witnesses:
        doc["witness_dump"] = witness_dump
    _write(args.out, "audit.json", _dump(doc))
    _write_meta(args.out, "audit")
    return 1 if failures or injected_fail else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags it reads.  Built
    once: a parser is a web of cycles that only the cyclic collector frees."""
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="Stationary measures for random walks on free-group boundaries")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("decompose", "verify", "audit", "moments"):
        sub = commands.add_parser(name)
        sub.add_argument("--config", required=True, help="run config JSON")
        sub.add_argument("--out", default=None, help="output directory")
    verify, audit = commands.choices["verify"], commands.choices["audit"]
    verify.add_argument("--depth", type=int, default=None)
    verify.add_argument("--threshold", type=_finite, default=None)
    audit.add_argument("--witnesses", action="store_true",
                       help="dump per-spike worst-case witnesses in audit output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        run = Run(cfg)
        handler = {"decompose": cmd_decompose, "verify": cmd_verify,
                   "audit": cmd_audit, "moments": cmd_moments}[args.command]
        return handler(run, args)
    except ValueError as exc:  # every user-facing library error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surfaced, never silently swallowed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
