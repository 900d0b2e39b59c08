"""Traced run of one workload round, in process, without editing holink.

Run as a child process of the benchmark:

    python bench/trace.py WORKLOAD INPUTS.json OUT.json

The tracer wraps the public functions listed in SPANS at every module
binding that holds them (``from ... import`` copies a name, so
``holink.linking.theta`` and ``holink.special_functions.theta`` are both
replaced).  Each wrapper keeps a span stack in memory: a call's self time
is its duration minus the time of the wrapped calls it made.  Totals are
written to OUT.json when the round ends, together with the round's outcome
(the CSV or stdout digest for the CLI workloads, the per-request results
for library-mix) so the parent can compare it with an untraced round.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
import time

# holink.cli is not imported by the package; import it so that its
# bindings exist when the tracer replaces them.
cli = importlib.import_module("holink.cli")
special_functions = importlib.import_module("holink.special_functions")
linking = importlib.import_module("holink.linking")

import mix  # noqa: E402  (after holink, which it imports too)

#: (module, function) pairs wrapped with a span, named "<module>.<function>".
SPANS = (
    ("special_functions", "theta"),
    ("special_functions", "modular_lambda"),
    ("special_functions", "lattice_sum_p"),
    ("special_functions", "weierstrass_p"),
    ("special_functions", "reduce_mod_lattice"),
    ("special_functions", "torus_distance"),
    ("linking", "arakelov_green"),
    ("linking", "linking_elliptic"),
    ("linking", "linking_sphere"),
    ("linking", "check_adjunction"),
    ("massey", "massey_report"),
    ("massey", "massey_value_via_linking"),
    ("massey", "massey_value_closed_form"),
    ("hodge", "hodge_diamond_x"),
    ("hodge", "invariant_dims"),
    ("hodge", "invariant_dims_by_enumeration"),
    ("verify", "run_all"),
    ("cli", "main"),
)

#: Spans reported by self time only: their children are the other layers.
SELF_ONLY = ("verify.run_all", "cli.main")


class Tracer:
    """Per-name call counts, total and self times, kept in memory."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._children: list[float] = []  # child time of each open span
        self.constructions = 0

    def span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if children:
                    children[-1] += dt
        return wrapper

    def count(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.constructions += 1
            return fn(*args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> None:
    """Replace every holink binding of the SPANS functions, and the two
    constructors, with tracing wrappers."""
    modules = [m for name, m in sys.modules.items()
               if name == "holink" or name.startswith("holink.")]
    for mod_name, fn_name in SPANS:
        original = getattr(sys.modules[f"holink.{mod_name}"], fn_name)
        wrapped = tracer.span(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
    tau_cls = special_functions.TauParameter
    tau_cls.__post_init__ = tracer.count(tau_cls.__post_init__)
    linking.Divisor.__init__ = tracer.span("linking.Divisor",
                                           linking.Divisor.__init__)


def layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer metric values of one traced round, by name."""
    out = {}
    for mod_name, fn_name in SPANS:
        name = f"{mod_name}.{fn_name}"
        calls, total, self_s = tracer.stats[name]
        if name not in SELF_ONLY:
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    calls, _, self_s = tracer.stats["linking.Divisor"]
    out["linking.Divisor.constructions"] = calls
    out["linking.Divisor.self_s"] = self_s
    out["special_functions.TauParameter.constructions"] = tracer.constructions
    lookups = cache_hits + cache_misses
    out["special_functions.theta_constants.lookups"] = lookups
    out["special_functions.theta_constants.hit_ratio"] = (
        cache_hits / lookups if lookups else 0.0)
    return out


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_traced(workload: str, inputs, scratch_csv: str) -> dict:
    """One traced round.  The outcome matches the untraced round's form."""
    tracer = Tracer()
    install(tracer)
    cache = special_functions._theta_constants
    before = cache.cache_info()
    if workload == "library-mix":
        outcome = mix.run_loop(inputs)
        outcome = {"ops": [op[1:] for op in outcome["ops"]]}
    elif workload == "scan-grid":
        code, _ = _run_cli(inputs + ["--out", scratch_csv])
        with open(scratch_csv, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        outcome = {"exit": code, "digest": digest}
    else:
        code, text = _run_cli(inputs)
        outcome = {"exit": code,
                   "digest": hashlib.sha256(text.encode()).hexdigest()}
    after = cache.cache_info()
    metrics = layer_metrics(tracer, after.hits - before.hits,
                            after.misses - before.misses)
    return {"metrics": metrics, "outcome": outcome}


def main(argv: list[str]) -> int:
    workload, in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    result = run_traced(workload, inputs, out_path + ".csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
