"""The library-mix closed loop: one caller, one request at a time.

Run as a child process of the benchmark:

    python bench/mix.py INPUTS.json OUT.json

INPUTS.json is ``inputs.mix_inputs(seed)``.  OUT.json receives the loop's
duration and, per request, its latency in nanoseconds, its status ("ok" or
"<ExceptionType>: <message>") and its result values as float.hex strings,
so that the parent can check them bit for bit.  A failing request is
recorded and the loop goes on.
"""

from __future__ import annotations

import json
import sys
import time

import holink
from holink import Divisor, RationalMapSpec


def _points(terms) -> list[tuple[complex, int]]:
    return [(complex(re_, im), m) for re_, im, m in terms]


def run_request(req, pool) -> list[float]:
    """Execute one request through the public holink API."""
    kind = req[0]
    if kind == "massey":
        rep = holink.massey_report(complex(req[1], req[2]))
        return [rep.value_closed_form, rep.value_via_linking]
    if kind == "link":
        tau = pool[req[1]]
        z = Divisor.elliptic(tau, _points(req[2]))
        w = Divisor.elliptic(tau, _points(req[3]))
        return [holink.linking(z, w).value]
    if kind == "adj-power":
        z = Divisor.sphere(_points(req[2]))
        w = Divisor.sphere(_points(req[3]))
        chk = holink.check_adjunction(RationalMapSpec.power(req[1]), z, w)
        return [chk.lhs, chk.rhs, chk.residual]
    if kind == "adj-shift":
        tau = pool[req[1]]
        spec = RationalMapSpec.translation(complex(*req[2]))
        z = Divisor.elliptic(tau, _points(req[3]))
        w = Divisor.elliptic(tau, _points(req[4]))
        chk = holink.check_adjunction(spec, z, w)
        return [chk.lhs, chk.rhs, chk.residual]
    raise ValueError(f"unknown request kind {kind!r}")


def run_loop(inputs: dict) -> dict:
    """Run every request once, in order; never abort on a failure."""
    pool = [complex(re_, im) for re_, im in inputs["tau_pool"]]
    ops = []
    clock = time.perf_counter_ns
    start = clock()
    for req in inputs["requests"]:
        t0 = clock()
        try:
            values = run_request(req, pool)
            status = "ok"
        except Exception as exc:  # the loop records every failure and goes on
            values = []
            status = f"{type(exc).__name__}: {exc}"
        ops.append([clock() - t0, status, [float(v).hex() for v in values]])
    return {"loop_s": (clock() - start) / 1e9, "ops": ops}


def main(argv: list[str]) -> int:
    in_path, out_path = argv
    with open(in_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    result = run_loop(inputs)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
