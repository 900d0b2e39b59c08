"""The holink benchmark: seeded workloads, end-to-end metrics, and a traced
per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``scan-grid``: ``python -m holink.cli scan`` over a 201 x 151 grid of the
  README box, shifted by a seeded sub-step offset.  One operation is one
  grid point.
* ``verify-suites``: ``python -m holink.cli verify --seed 42``.  One
  operation is one of the 18 suites.
* ``library-mix``: bench/mix.py, a closed loop of 2250 seeded library calls
  (Massey reports, elliptic linking, adjunction checks) in one child.  One
  operation is one request.

Each round runs the workload once in a fresh child process; rounds repeat
until ``--seconds`` have passed (at least three).  The child's wall time
runs from spawn to exit, and its peak resident memory comes from
``os.wait4``.  Outputs are checked after the timed rounds.

The end-to-end times are normalised to the machine's speed at the moment
they were taken.  bench/calib.py, fixed reference work, runs before the
first round and after every round; each round's times are multiplied by
``REF_CALIB_S`` over the mean of the two calibration times around it.  On
a shared host the speed of the whole machine drifts by a third over
minutes, which would swamp any change to holink; the calibration drifts
with it and cancels it.  The raw times are kept in the result record.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced rounds with rounds of bench/trace.py
and reports the per-layer metrics and the tracing overhead.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (machine, versions, commit, per-round data)
is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import inputs

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scan-grid", "verify-suites", "library-mix")
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
#: Median wall time of bench/calib.py, spawn to exit, on the machine the
#: bounds in BENCHMARK.json were set on (2 shared vCPUs of an Intel Xeon,
#: CPython 3.11), rounded.  Normalised times read as seconds on a machine
#: that runs the calibration this fast.
REF_CALIB_S = 0.40
CHILD_TIMEOUT_S = 120.0
SETUP_CODE = "import holink, holink.cli"


@dataclass
class Child:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def spawn(argv: list[str], stdout_path: pathlib.Path) -> Child:
    """Run argv from the repository root; time it from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)


class Calibration:
    """Wall times of bench/calib.py, whose printed checksum must repeat."""

    def __init__(self, tag: str) -> None:
        self.stdout = OUT / f"{tag}-calib.stdout"
        self.times: list[float] = []
        self.output: bytes | None = None

    def measure(self) -> None:
        child = spawn([sys.executable, str(BENCH / "calib.py")], self.stdout)
        output = self.stdout.read_bytes()
        if self.output is None:
            self.output = output
        if child.exit_code != 0 or output != self.output:
            raise RuntimeError("bench/calib.py failed or changed its output; "
                               f"see {self.stdout.with_suffix('.err')}")
        self.times.append(child.wall_s)

    def scale(self) -> float:
        """Normalising factor for the round between the last two
        calibrations."""
        return REF_CALIB_S / statistics.fmean(self.times[-2:])


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by nearest rank (p in (0, 100])."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


class Workload:
    """One workload's rounds, outcomes and failure counts."""

    def __init__(self, name: str, seed: int, tag: str) -> None:
        self.name = name
        self.seed = seed
        self.inputs = inputs.workload_inputs(name, seed)
        self.input_hash = inputs.input_hash(self.inputs)
        self.tag = tag
        self.inputs_path = OUT / f"{tag}-inputs.json"
        self.inputs_path.write_text(json.dumps(self.inputs))
        if name == "scan-grid":
            self.ops_per_round = len(checks().scan_grid_points(self.inputs))
        elif name == "verify-suites":
            self.ops_per_round = checks().VERIFY_SUITES
        else:
            self.ops_per_round = len(self.inputs["requests"])
        self.first = None  # outcome of the first untraced round
        self.first_bad: set[int] = set()
        self.attempted = 0
        self.failed = 0

    # -- running -------------------------------------------------------------

    def run_untraced(self) -> tuple[Child, object]:
        py = sys.executable
        if self.name == "library-mix":
            path = OUT / f"{self.tag}-mix.json"
            child = spawn([py, str(BENCH / "mix.py"), str(self.inputs_path),
                           str(path)], OUT / f"{self.tag}.stdout")
            outcome = json.loads(path.read_text()) if child.exit_code == 0 else None
            return child, outcome
        argv = [py, "-m", "holink.cli", *self.inputs]
        if self.name == "scan-grid":
            csv = OUT / f"{self.tag}.csv"
            child = spawn(argv + ["--out", str(csv)], OUT / f"{self.tag}.stdout")
            data = csv.read_bytes() if child.exit_code == 0 else b""
        else:
            child = spawn(argv, OUT / f"{self.tag}.stdout")
            data = (OUT / f"{self.tag}.stdout").read_bytes()
        return child, {"exit": child.exit_code, "data": data}

    def run_traced(self) -> tuple[Child, dict | None]:
        path = OUT / f"{self.tag}-trace.json"
        child = spawn([sys.executable, str(BENCH / "trace.py"), self.name,
                       str(self.inputs_path), str(path)],
                      OUT / f"{self.tag}.stdout")
        return child, json.loads(path.read_text()) if child.exit_code == 0 else None

    # -- checking --------------------------------------------------------------

    def bad_ops(self, outcome) -> set[int] | int:
        """Failed operations of one untraced round: a set of request
        indices for library-mix, a count for the CLI workloads."""
        if self.name == "library-mix":
            if outcome is None:
                return set(range(self.ops_per_round))
            ops = [op[1:] for op in outcome["ops"]]
            if self.first is None:
                self.first = ops
                self.first_bad = checks().check_mix(self.inputs, ops, self.seed)
            return self.first_bad | self.differing(ops)
        if self.first is None:
            self.first = outcome
            if outcome["exit"] != 0:
                self.first_bad = set(range(self.ops_per_round))
            elif self.name == "scan-grid":
                self.first_bad = checks().check_scan(
                    outcome["data"].decode(), self.inputs, self.seed)
            else:
                n = checks().check_verify(outcome["exit"],
                                          outcome["data"].decode())
                self.first_bad = set(range(n))
        if outcome != self.first:
            # Output must repeat byte for byte for one seed.
            return self.ops_per_round
        return len(self.first_bad)

    def differing(self, ops: list) -> set[int]:
        """Requests whose status or result bits differ from the first round."""
        if self.first is None:  # no untraced round has completed
            return set(range(self.ops_per_round))
        diff ={k for k, (a, b) in enumerate(zip(ops, self.first)) if a != b}
        return diff | set(range(min(len(ops), len(self.first)),
                                self.ops_per_round))

    def traced_bad(self, traced: dict | None) -> int:
        """Operations whose traced outcome differs from the untraced one."""
        if traced is None:
            return self.ops_per_round
        got = traced["outcome"]
        if self.name == "library-mix":
            return len(self.differing(got["ops"]))
        digest = hashlib.sha256(self.first["data"]).hexdigest()
        same = got["exit"] == self.first["exit"] and got["digest"] == digest
        return 0 if same else self.ops_per_round

    def record(self, bad) -> int:
        """Count one round's operations; return how many of them failed."""
        n = bad if isinstance(bad, int) else len(bad)
        self.attempted += self.ops_per_round
        self.failed += n
        return n


def checks():
    """The checks module.  It imports holink, so it is loaded only after
    main() has found the package."""
    import checks as module
    return module


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    setup, walls, rss, rates, failed = [], [], [], [], []
    raw_setup, raw_walls, scales = [], [], []
    # One (p50, p99) pair per round: per-request latencies for library-mix,
    # the one invocation of the command for the CLI workloads.
    round_latency: list[tuple[float, float]] = []
    samples = 0
    calib = Calibration(wl.tag)
    calib.measure()
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # Set-up time: a process that starts the interpreter and imports
        # holink, measured before every round so it sees the same machine.
        raw_setup.append(spawn([sys.executable, "-c", SETUP_CODE],
                               OUT / f"{wl.tag}-setup.stdout").wall_s)
        child, outcome = wl.run_untraced()
        raw_walls.append(child.wall_s)
        calib.measure()
        scale = calib.scale()
        scales.append(scale)
        setup.append(raw_setup[-1] * scale)
        walls.append(child.wall_s * scale)
        rss.append(child.peak_rss_mb)
        failed.append(wl.record(wl.bad_ops(outcome)))
        # Only completed operations count toward the rate, so a round that
        # fails early never reads as a faster one.
        done = wl.ops_per_round - failed[-1]
        if wl.name != "library-mix":
            # A CLI request is one invocation of the command.
            rates.append(done / walls[-1])
            samples += 1
        elif outcome is None:
            rates.append(0.0)
        else:
            rates.append(done / (outcome["loop_s"] * scale))
            lat = sorted(op[0] / 1e3 * scale for op in outcome["ops"])
            round_latency.append((nearest_rank(lat, 50), nearest_rank(lat, 99)))
            samples += len(lat)
    if wl.name != "library-mix":
        lat = sorted(w * 1e6 for w in walls)
        round_latency = [(nearest_rank(lat, 50), nearest_rank(lat, 99))]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_us": (statistics.median(p for p, _ in round_latency)
                           if round_latency else 0.0, "us"),
        "latency_p99_us": (statistics.median(p for _, p in round_latency)
                           if round_latency else 0.0, "us"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    detail = {"rounds": len(walls), "round_wall_s": walls, "setup_s": setup,
              "raw_round_wall_s": raw_walls, "raw_setup_s": raw_setup,
              "calib_s": calib.times, "ref_calib_s": REF_CALIB_S,
              "scale": scales, "peak_rss_mb": rss, "round_failed": failed,
              "round_latency_us": round_latency, "latency_samples": samples}
    return metrics, detail


def per_layer(wl: Workload, seconds: float) -> tuple[dict, dict]:
    untraced, traced = [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PAIRS
           or time.perf_counter() - start < seconds):
        child, outcome = wl.run_untraced()
        untraced.append(child.wall_s)
        wl.record(wl.bad_ops(outcome))
        child, result = wl.run_traced()
        traced.append((child.wall_s, result))
        wl.record(wl.traced_bad(result))
    runs = [r["metrics"] for _, r in traced if r is not None]
    # Counts are exact and repeat; times are medians over the traced rounds.
    values = {name: (statistics.median_low if isinstance(runs[0][name], int)
                     else statistics.median)([r[name] for r in runs])
              for name in runs[0]} if runs else {}
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(w for w, _ in traced) / statistics.median(untraced),
        "ratio")
    detail = {"rounds": 2 * len(traced), "untraced_wall_s": untraced,
              "traced_wall_s": [w for w, _ in traced]}
    return metrics, detail


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat.endswith("ratio") else "count"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(seed: int) -> dict:
    import mpmath
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "seed": seed,
            "git_commit": git_commit()}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "holink" / "__init__.py").is_file():
        print(f"error: no holink package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # Byte-compile holink once, so no round pays for it.
    warm = spawn([sys.executable, "-c", SETUP_CODE], OUT / "setup.stdout")
    if warm.exit_code != 0:
        print("error: importing holink failed; see .bench_out/setup.err",
              file=sys.stderr)
        return 3

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, tag)
    if args.trace:
        metrics, detail = per_layer(wl, args.seconds)
    else:
        metrics, detail = end_to_end(wl, args.seconds)

    probe = checks().run_probe() if wl.name == "library-mix" else None
    if args.trace:
        metrics["probe.massey_report.attempted"] = (
            probe["attempted"] if probe else 0, "count")
        metrics["probe.massey_report.failed"] = (
            probe["failed"] if probe else 0, "count")

    ratio = wl.failed / wl.attempted
    print(f"holink benchmark: workload={wl.name} seed={wl.seed} "
          f"trace={args.trace} inputs_sha256={wl.input_hash}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "latency_samples" in detail:
        if wl.name == "library-mix":
            print(f"  latency: per-round percentiles of {detail['latency_samples']}"
                  f" requests in {detail['rounds']} rounds, median over rounds")
        else:
            print(f"  latency: percentiles of {detail['latency_samples']}"
                  f" invocation times")
    print(f"  rounds = {detail['rounds']}")
    print(f"  ops_failed_ratio = {ratio:.6g} ({wl.failed} failed of "
          f"{wl.attempted} attempted)")
    if probe:
        print(f"  domain probe (untimed, outside the mix): {probe['failed']} "
              f"of {probe['attempted']} tau failed, by class "
              f"{probe['by_class']}")
    record = {**machine_record(wl.seed), "workload": wl.name,
              "trace": args.trace, "inputs_sha256": wl.input_hash,
              "attempted": wl.attempted, "failed": wl.failed,
              "ops_failed_ratio": ratio, "probe": probe, **detail,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    result_path = OUT / f"result-{wl.name}-seed{wl.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    for path in OUT.glob(f"{tag}*"):
        path.unlink()
    print("record: " + json.dumps({k: record[k] for k in (
        "nproc", "cpu_model", "python", "numpy", "seed", "git_commit",
        "workload", "attempted", "failed")}))
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
