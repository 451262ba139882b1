"""Per-layer call tracing from outside the program.

`Tracer.install()` replaces each traced freewalk function with a timing
wrapper in every `freewalk.*` module namespace that binds it (modules import
functions by name, e.g. `cli.make_spike`), and each traced method on its
class, and `geometry.math` with a shim that counts `leq_scaled`'s float
fallbacks where they happen.  `Tracer.uninstall()` puts the originals back.
A wrapped function's self time is its total time minus the time of wrapped
functions it called.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# layer (module) -> traced functions; "Class.method" names a method.
LAYERS = {
    "words": ["WeightedFreeGroup.word_weight", "multiply"],
    "geometry": ["LogScale.exp_neg", "LogScale.leq_scaled",
                 "locally_constant_cells", "shadow"],
    "partitions": ["LocallyConstantFunction.canonical", "refine_leaves",
                   "trie_closure"],
    "measures": ["BoundaryMeasure.mass_of", "radon_nikodym", "convolve",
                 "pushforward", "integrate"],
    "spikes": ["make_spike", "verify_spike", "verify_q_spike",
               "shadow_lemma_audit", "decay_check", "local_doubling_sup",
               "lipschitz_scale", "ball_cells"],
    "decomposition": ["measure_constants", "basis_decompose", "moment_decompose",
                      "greedy_lambdas", "oscillation_threshold",
                      "SpikeAccumulator.insert", "SpikeAccumulator.value_at"],
    "stationarity": ["verify_stationarity", "functionals"],
    # every command handler reports as one span, since a workload runs one command
    "cli": ["Run.__init__", "cmd_audit", "cmd_decompose", "cmd_verify",
            "cmd_moments"],
}
ALIASES = {"cli.Run.__init__": "cli.Run", "cli.cmd_audit": "cli.handler",
           "cli.cmd_decompose": "cli.handler", "cli.cmd_verify": "cli.handler",
           "cli.cmd_moments": "cli.handler"}
SPAN_NAMES = sorted({ALIASES.get(f"{layer}.{fn}", f"{layer}.{fn}")
                     for layer, fns in LAYERS.items() for fn in fns})
COUNTER_NAMES = ["geometry.LogScale.leq_scaled.float_fallbacks",
                 "geometry.LogScale.exp_neg.float_results",
                 "decomposition.greedy_lambdas.lambdas",
                 "decomposition.greedy_lambdas.positive"]


class _CountingMath:
    """Stands in for `geometry.math` while tracing: counts the `math.exp`
    calls made while a `leq_scaled` span is open, i.e. the comparisons that
    left exact arithmetic for floats."""

    def __init__(self, leq_scaled_stats: list, counters: dict):
        self._open = leq_scaled_stats
        self._counters = counters

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        if self._open[3]:
            self._counters["geometry.LogScale.leq_scaled.float_fallbacks"] += 1
        return math.exp(x)


def _observe(name: str, counters: dict):
    """Extra counting for a few spans, run after the call returns."""
    if name == "geometry.LogScale.exp_neg":
        def observe(args, result):
            if args[0].base is not None and isinstance(result, float):
                counters["geometry.LogScale.exp_neg.float_results"] += 1
        return observe
    if name == "decomposition.greedy_lambdas":
        def observe(args, result):
            lambdas = result[0]
            counters["decomposition.greedy_lambdas.lambdas"] += len(lambdas)
            counters["decomposition.greedy_lambdas.positive"] += sum(
                1 for _, lam in lambdas if lam > 0)
        return observe
    return None


class Tracer:
    """Span statistics (calls, total, self) per traced function name."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._child = []          # per open span: time spent in wrapped children
        self._patches = []        # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        child = self._child
        observe = _observe(name, self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            st[3] += 1                     # open calls, so recursion counts once
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                st[0] += 1
                st[2] += dt - child.pop()
                if st[3] == 0:
                    st[1] += dt
                if child:
                    child[-1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import freewalk  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "freewalk" or n.startswith("freewalk.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"freewalk.{layer}"]
            for fn_name in fns:
                name = ALIASES.get(f"{layer}.{fn_name}", f"{layer}.{fn_name}")
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(home, cls_name)
                    self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        self._patch(sys.modules["freewalk.geometry"], "math", _CountingMath(
            self.stats["geometry.LogScale.leq_scaled"], self.counters))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, passes: int = 1) -> dict:
        """Per-pass span metrics and counters, averaged over `passes`."""
        out = {}
        for name, (calls, total, self_s, _) in self.stats.items():
            out[f"{name}.calls"] = per_pass(calls, passes)
            out[f"{name}.total_s"] = total / passes
            out[f"{name}.self_s"] = self_s / passes
        c = self.counters
        out["geometry.LogScale.leq_scaled.float_fallbacks"] = per_pass(
            c["geometry.LogScale.leq_scaled.float_fallbacks"], passes)
        out["geometry.LogScale.exp_neg.float_results"] = per_pass(
            c["geometry.LogScale.exp_neg.float_results"], passes)
        lam = c["decomposition.greedy_lambdas.lambdas"]
        out["decomposition.greedy_lambdas.positive_ratio"] = \
            c["decomposition.greedy_lambdas.positive"] / lam if lam else 0.0
        makes = self.stats["spikes.make_spike"][0]
        out["spikes.verify_spike.per_make_spike"] = \
            self.stats["spikes.verify_spike"][0] / makes if makes else 0.0
        return out


def per_pass(count: int, passes: int):
    return count // passes if count % passes == 0 else count / passes
