"""Batch experiment runner.

Commands: decompose | verify | audit | moments.  A JSON run config holds the
group (weights as exact fraction strings), the visual/greedy parameters and
per-command options; results are machine-readable JSON (and CSV for
coefficient tables).  Outputs are byte-identical across runs; timestamps go
to a separate meta file.

Exit codes: 0 pass, 1 check failed, 2 usage/config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .words import WeightedFreeGroup, as_exact
from .geometry import VisualParams, LogScale, Cylinder
from .partitions import LocallyConstantFunction, _num_to_str
from .measures import (BoundaryMeasure, GroupMeasure, uniform_ps_measure,
                       radon_nikodym, pushforward, conformal_exponent)
from .spikes import make_spike, with_margin, verify_spike, shadow_lemma_audit, \
    Spike, _spine_decay
from .decomposition import GreedyParams, basis_decompose, moment_decompose
from .stationarity import verify_stationarity, sphere_uniform, mix


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _parsing(what: str):
    """A KeyError, TypeError, AttributeError or IndexError while parsing
    `what` (a missing key, a value of the wrong type) becomes a ConfigError
    that names it."""
    try:
        yield
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ConfigError(f"{what} is malformed: "
                          f"{type(exc).__name__}: {exc}") from exc


def _parse_scale(spec, group: WeightedFreeGroup, exact: bool) -> LogScale:
    if isinstance(spec, str):
        spec = spec.strip()
        if spec == "critical":
            if group.unit_weights():  # equal weights w: log(2k-1)/w
                return LogScale.log_of(2 * group.rank - 1,
                                       Fraction(1) / group.weights[0])
            if exact:
                raise ConfigError("'critical' on unequal weights is a float "
                                  "root, forbidden in exact mode")
            return LogScale.of_float(conformal_exponent(group))
        if spec.startswith("log(") and spec.endswith(")"):
            return LogScale.log_of(Fraction(spec[4:-1]))
        if "*log(" in spec and spec.endswith(")"):
            coeff, base = spec.split("*log(")
            return LogScale.log_of(Fraction(base[:-1]), Fraction(coeff))
    if exact:
        raise ConfigError(f"float scale {spec!r} forbidden in exact mode")
    with _parsing(f"scale {spec!r}"):
        return LogScale.of_float(float(spec))


def _int_option(section: dict, key: str, default: Optional[int] = None) -> int:
    """An integer config field; a non-integral value is a ConfigError, never
    truncated."""
    value = section.get(key, default)
    try:
        number = Fraction(str(value))
    except ValueError:
        number = None
    if number is None or number.denominator != 1:
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return number.numerator


def _read_file(path, what: str, parse=lambda doc: doc):
    """`parse` of the JSON document in the user file at `path`.  A missing
    file, invalid JSON or a document `parse` cannot read is a ConfigError
    that names the file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    with _parsing(f"{what} file {path}"):
        return parse(doc)


SECTIONS = ("group", "params", "decompose", "verify", "audit", "moments")


def _config_shape(cfg):
    """`cfg` if its top level and each section it has are JSON objects and
    audit's `Ds` is a list; else a ConfigError that names the key."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    for key in SECTIONS:
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"config section {key!r} must be an object, "
                              f"got {type(cfg[key]).__name__}")
    ds = cfg.get("audit", {}).get("Ds", [])
    if not isinstance(ds, list):
        raise ConfigError(f"audit 'Ds' must be a list, got {type(ds).__name__}")
    return cfg


def load_config(path: str) -> dict:
    return _read_file(path, "config", _config_shape)


class Run:
    """Materialized run state shared by the commands."""

    def __init__(self, cfg: dict):
        if "group" not in cfg:
            raise ConfigError("config needs a 'group' section")
        with _parsing("config 'group'"):
            self.group = WeightedFreeGroup.from_config(cfg["group"])
        pc = dict(cfg.get("params", {}))
        self.arithmetic = pc.get("arithmetic", "exact")
        if self.arithmetic not in ("exact", "float"):
            raise ConfigError(f"unknown arithmetic mode {self.arithmetic!r}")
        exact = self.arithmetic == "exact"
        self.params = VisualParams(
            alpha=_parse_scale(pc.get("alpha", "critical"), self.group, exact),
            epsilon=_parse_scale(pc.get("epsilon", "critical"), self.group, exact))
        with _parsing("config 'tau'"):
            tau = float(pc.get("tau", 1e-6))
        if not exact and tau <= 0:
            raise ConfigError("tau = 0 is unreachable in float mode")
        self.greedy = GreedyParams(
            s=Fraction(str(pc.get("s", "2"))),
            beta=Fraction(str(pc.get("beta", "1/2"))),
            c_cap=Fraction(str(pc["C"])) if "C" in pc else None,
            margin=Fraction(str(pc.get("D", 0))),
            tau=tau,
            schedule=pc.get("schedule", "fixed"),
            rescale=pc.get("rescale", "adaptive"),
            max_rounds=_int_option(pc, "max_rounds", 120),
            audit_len=_int_option(pc, "audit_len", 3))
        self.cfg = cfg
        self.nu = uniform_ps_measure(self.group, self.params)

    def _exact_inline(self, numbers, what: str) -> None:
        """Exact mode reads numbers written in the config or a spike file as
        ints or "p/q" only; a decimal would silently turn the run into floats."""
        bad = [v for v in numbers if isinstance(v, float)]
        if bad and self.arithmetic == "exact":
            raise ConfigError(f"{what} {bad[0]!r} is a decimal, forbidden "
                              "in exact mode; write it as an integer or p/q")

    def target(self, spec) -> LocallyConstantFunction:
        conv = Fraction if self.arithmetic == "exact" else float
        if spec in (None, "ones", "1"):
            return LocallyConstantFunction.constant(self.group, conv(1))
        if isinstance(spec, str) and spec.startswith("derivative:"):
            gamma = self.group.parse_word(spec.split(":", 1)[1])
            f = radon_nikodym(gamma, self.nu, self.params)
            return f if conv is Fraction else f.map(float)
        if isinstance(spec, dict) and "cells" in spec:
            with _parsing("target 'cells'"):
                f = LocallyConstantFunction.from_json(self.group, spec)
            self._exact_inline(f.values.values(), "inline target cell")
            return f if conv is Fraction else f.map(float)
        raise ConfigError(f"unknown decomposition target {spec!r}")

    def group_measure(self, spec) -> GroupMeasure:
        if isinstance(spec, str) and spec.startswith("sphere:"):
            return sphere_uniform(self.group, int(spec.split(":", 1)[1]))
        if isinstance(spec, str):
            def parse(doc):  # a measure file, or a decomposition report
                if "coefficients" in doc:
                    doc = {"group": self.group.to_config(), "atoms": doc["coefficients"]}
                return GroupMeasure.from_json(doc)
            return _read_file(spec, "measure", parse)
        if isinstance(spec, dict) and "atoms" in spec:
            doc = {"group": self.group.to_config(), "atoms": spec["atoms"]}
            with _parsing("measure 'atoms'"):
                mu = GroupMeasure.from_json(doc)
            self._exact_inline(mu.atoms.values(), "inline atom")
            return mu
        if isinstance(spec, dict) and "mix" in spec:
            with _parsing("measure 'mix'"):
                parts = [(m, Fraction(str(t))) for m, t in spec["mix"]]
            return mix([(self.group_measure(m), t) for m, t in parts])
        raise ConfigError(f"unknown group measure spec {spec!r}")

    def boundary_measure(self, spec) -> BoundaryMeasure:
        if spec in (None, "uniform", "ps"):
            return self.nu
        if isinstance(spec, str) and spec.startswith("pushforward:"):
            gamma = self.group.parse_word(spec.split(":", 1)[1])
            return pushforward(gamma, self.nu)
        if isinstance(spec, str):
            return _read_file(spec, "measure", lambda doc: BoundaryMeasure.from_json(
                doc, params=self.params))
        raise ConfigError(f"unknown boundary measure spec {spec!r}")


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
    section = run.cfg.get("decompose", {})
    F = run.target(section.get("target"))
    result = basis_decompose(F, run.nu, run.greedy)
    _write(args.out, "decomposition.json", _dump(result.to_json()))
    _write(args.out, "decomposition.csv", result.to_csv())
    _write_meta(args.out, "decompose")
    return 0 if result.achieved_tolerance <= run.greedy.tau else 1


def cmd_moments(run: Run, args) -> int:
    section = run.cfg.get("moments", {})
    F = run.target(section.get("target"))
    params = run.greedy
    if params.margin < 1:
        params = dataclasses.replace(params, margin=1, rescale="proof")
    result = moment_decompose(F, run.nu, params,
                              rounds=_int_option(section, "rounds", 3))
    doc = result.to_json()
    _write(args.out, "moments.json", _dump(doc))
    _write(args.out, "moments.csv", result.to_csv())
    _write_meta(args.out, "moments")
    checks = result.envelope_report["checks"]
    return 0 if all(checks.values()) else 1


def cmd_verify(run: Run, args) -> int:
    section = run.cfg.get("verify", {})
    mu = run.group_measure(section.get("mu", "sphere:1"))
    nu = run.boundary_measure(section.get("nu"))
    nu_prime = run.boundary_measure(section.get("nu_prime"))
    depth = args.depth
    if depth is None and section.get("depth") is not None:
        depth = _int_option(section, "depth")
    report = verify_stationarity(mu, nu, nu_prime, depth=depth)
    _write(args.out, "stationarity.json", _dump(report.to_json()))
    _write_meta(args.out, "verify")
    threshold = args.threshold
    if threshold is None:
        with _parsing("verify 'threshold'"):
            threshold = float(section.get("threshold", 1e-9))
    return 0 if float(report.max_cell_error) <= threshold else 1


def _spike_from_json(run: Run, doc: dict) -> Spike:
    for key in ("function", "r_exp", "center"):
        if key not in doc:
            raise ConfigError(f"injected spike file has no {key!r}")
    f = LocallyConstantFunction.from_json(run.group, doc["function"])
    run._exact_inline(f.values.values(), "injected spike cell")
    return Spike(function=f,
                 r_exp=as_exact(str(doc["r_exp"])),
                 center=Cylinder(run.group.parse_word(doc["center"])),
                 q=run.params.q_exponent, theta=run.params.q_exponent,
                 c=Fraction(str(doc["C"])) if "C" in doc else None,
                 gamma=run.group.parse_word(doc.get("gamma", "e")),
                 margin=as_exact(str(doc.get("D", 0))),
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
    section = run.cfg.get("audit", {})
    max_len = _int_option(section, "max_len", 5)
    ds = [Fraction(str(d)) for d in section.get("Ds", [0, 1, 2])]
    if max_len < 1 or not ds:
        raise ConfigError("audit sweep is empty (need max_len >= 1 and Ds)")
    for d in ds:
        if 0 < d < 1:
            raise ConfigError(f"shadow margin D = {d} is not checked by the "
                              "spike sweep; use D = 0 or D >= 1")
    nu, params = run.nu, run.params
    shadows = shadow_lemma_audit(nu, params, max_len, ds)
    decay = _spine_decay(nu, params, max_len)

    gammas = [gamma for n in range(1, max_len + 1) for gamma in run.group.sphere(n)]

    failures = []
    witness_dump = []
    worst_c = Fraction(0)
    worst_doubling = 0
    for gamma, d, sp in _spike_sweep(gammas, ds, nu, params):
        rep = verify_spike(sp, nu)
        if not rep.all_ok:
            failures.append({"gamma": run.group.format_word(gamma), "D": str(d),
                             "witnesses": rep.witnesses})
        worst_c = max(worst_c, rep.measured_c)
        if rep.local_doubling is not None and rep.local_doubling > worst_doubling:
            worst_doubling = rep.local_doubling
        if args.witnesses:
            witness_dump.append({
                "gamma": run.group.format_word(gamma), "D": str(d),
                "measured_C": _num_to_str(rep.measured_c),
                "witnesses": {k: v for k, v in rep.witnesses.items()
                              if v is not None}})

    injected_fail = None
    if section.get("inject"):
        with _parsing("audit 'inject'"):
            path = Path(section["inject"])
        sp = _read_file(path, "injected spike",
                        lambda doc: _spike_from_json(run, doc))
        rep = verify_spike(sp, nu)
        if not rep.all_ok:
            injected_fail = {"witnesses": rep.witnesses,
                             "measured": {k: _num_to_str(v) if v is not None else None
                                          for k, v in rep.measured.items()}}

    doc = {
        "beta": _num_to_str(shadows.beta),
        "D0": _num_to_str(shadows.d0),
        "D_nu": _num_to_str(decay.d_nu),
        "T_nu": _num_to_str(worst_doubling),
        "spikes_checked": len(gammas) * len(ds),
        "spikes_failed": len(failures),
        "worst_measured_C": _num_to_str(worst_c),
        "worst_lower": {**shadows.worst_lower,
                        "ratio": _num_to_str(shadows.worst_lower["ratio"])},
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
    verify.add_argument("--threshold", type=float, default=None)
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
