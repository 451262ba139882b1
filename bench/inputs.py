"""Seeded input generator for the freewalk benchmark.

    python3 bench/inputs.py --workload NAME --seed N --out DIR

Writes every config, target and measure file a workload needs into DIR, plus
`plan.json` (also printed): the CLI operations to time, the untimed probes,
and the config used to measure set-up.  The same seed always gives the same files.  This is
the benchmark's own set-up; none of it is timed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0

F2 = {"rank": 2, "weights": ["1", "1"], "names": ["a", "b"]}
F3 = {"rank": 3, "weights": ["1", "1", "1"], "names": ["a", "b", "c"]}
EXACT = {"alpha": "critical", "epsilon": "critical", "arithmetic": "exact",
         "tau": 1e-6}

# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "audit-sweep": "spike build/verify and LogScale comparisons over many small "
                   "Fractions; no decomposition or convolution",
    "decompose-bumps": "basis_decompose on seeded f_w + 1 targets: cone finisher, "
                       "SpikeAccumulator and measure_constants",
    "verify-convolution": "convolve and mass_of, on the closed-form nu and on a "
                          "file-backed nu' for a decomposed mu",
    "moments-schedule": "moment_decompose with big rationals: gcd work in "
                        "greedy_lambdas and SpikeAccumulator",
}


def _config(group: dict, params: dict, **sections) -> dict:
    return {"group": group, "params": dict(EXACT, **params), **sections}


def _op(name: str, command: str, config: str, seeded: bool) -> dict:
    """One CLI invocation; `seeded` ops have exact expected values only for
    the default seed."""
    return {"name": name, "command": command, "config": config,
            "expect_exit": 0, "seeded": seeded}


class Inputs:
    """Writes one workload's files into `out` and collects its plan."""

    def __init__(self, out: Path, seed: int):
        self.out = out
        self.rng = random.Random(seed)
        out.mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(ROOT / "src"))
        import freewalk
        self.fw = freewalk
        self.group = freewalk.WeightedFreeGroup(2)
        self.params = freewalk.default_params(self.group)
        self.nu = freewalk.uniform_ps_measure(self.group, self.params)

    def write(self, name: str, doc: dict) -> str:
        path = self.out / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def words(self, length: int, count: int) -> list:
        return self.rng.sample(self.group.sphere(length), count)

    def bump(self, word):
        """F = f_w + 1 with f_w = d(w nu)/d nu."""
        fw = self.fw
        one = fw.LocallyConstantFunction.constant(self.group, Fraction(1))
        return fw.radon_nikodym(word, self.nu, self.params).add(one)

    def audit_sweep(self) -> dict:
        f2 = self.write("audit_f2.json",
                        _config(F2, {}, audit={"max_len": 4, "Ds": [0, 1]}))
        f3 = self.write("audit_f3.json",
                        _config(F3, {}, audit={"max_len": 3, "Ds": [0, 1]}))
        return {"setup": f2, "probes": [],
                "ops": [_op("audit-F2", "audit", f2, False),
                        _op("audit-F3", "audit", f3, False)]}

    def decompose_bumps(self) -> dict:
        ops = []
        words = self.words(5, 2) + self.words(4, 1)
        for i, w in enumerate(words):
            target = self.bump(w).to_json()
            cfg = self.write(f"decompose_{i}.json",
                             _config(F2, {}, decompose={"target": target}))
            ops.append(_op(f"decompose-{i}", "decompose", cfg, True))
        return {"setup": ops[0]["config"], "probes": [], "ops": ops}

    def verify_convolution(self) -> dict:
        fw = self.fw
        sphere = self.write("verify_sphere.json", _config(F2, {}, verify={
            "mu": "sphere:4", "nu": "uniform", "nu_prime": "uniform"}))
        (w,) = self.words(4, 1)
        F = self.bump(w)
        greedy = fw.GreedyParams(tau=EXACT["tau"])
        mu = self.write("mu.json", fw.basis_decompose(F, self.nu, greedy).to_json())
        norm = fw.integrate(F, self.nu)
        cells = {c: F.at(c) * self.nu.mass_of(c) / norm
                 for c in self.group.sphere(len(w) + 2)}
        nu_prime = fw.BoundaryMeasure(self.group, cells, validate=False)
        nu_path = self.write("nu_prime.json", nu_prime.to_json())
        bump = self.write("verify_bump.json", _config(F2, {}, verify={
            "mu": mu, "nu": "uniform", "nu_prime": nu_path}))
        return {"setup": sphere, "probes": [],
                "ops": [_op("verify-sphere4", "verify", sphere, False),
                        _op("verify-bump", "verify", bump, True)]}

    def moments_schedule(self) -> dict:
        proof = self.write("moments_proof.json", _config(
            F2, {"D": 1, "rescale": "proof"},
            moments={"rounds": 3, "target": "ones"}))
        # The default (adaptive) rescale with D = 1 is a supported config; it
        # is run untimed and counted only in fail_ratio.
        default = self.write("moments_default.json", _config(
            F2, {"D": 1}, moments={"rounds": 1, "target": "ones"}))
        return {"setup": proof,
                "ops": [_op("moments-proof", "moments", proof, False)],
                "probes": [_op("moments-default-rescale", "moments", default,
                               False)]}


def make_plan(workload: str, seed: int, out: Path) -> dict:
    gen = Inputs(out, seed)
    plan = getattr(gen, workload.replace("-", "_"))()
    plan.update(workload=workload, seed=seed,
                default_seed=seed == DEFAULT_SEED)
    gen.write("plan.json", plan)
    return plan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(make_plan(args.workload, args.seed, Path(args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
