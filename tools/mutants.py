"""Kill matrix of ``holink verify`` over a fixed catalogue of injected faults.

Each fault is one textual edit of a module under ``src/holink``: (name, file,
old text, new text).  For each fault the script copies ``src/`` into a
temporary directory, applies the edit there, runs ``python -m holink.cli
verify --seed S`` on the copy at each seed of ``SEEDS`` and records which
suites fail.  The repository's own ``src/`` is never edited.

It prints one row per fault and one column per suite; a cell is the number
of seeds at which the suite failed, "." for none.  A fault is killed when at
every seed some suite fails, or the run neither passes nor fails its suites
(an exception, exit code 3): then the fault's row reads "x".  The last row
counts, for each suite, the faults it fails at every seed.

Exit status 1 when the unedited source fails a suite, when an old text is
not found exactly once, when a fault other than those of
``KNOWN_SURVIVORS`` survives, or when that list is stale: it names a fault
that is killed or not in ``FAULTS``; else 0.

Run from anywhere, with the standard library only::

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = (42, 0, 1)

#: (name, file under src/holink, old text, new text).
FAULTS = (
    ("pi^2/3 x (1 + 1e-7)", "special_functions.py",
     "_PI2_3 = _PI2 / 3.0\n", "_PI2_3 = _PI2 / 3.0 * (1 + 1e-7)\n"),
    ("EPS_SERIES 1e-18 -> 1e-9", "special_functions.py",
     "EPS_SERIES = 1e-18\n", "EPS_SERIES = 1e-9\n"),
    ("Massey prefactor 8 x (1 + 1e-9)", "massey.py",
     "return 8.0 * math.fsum(",
     "return 8.0 * (1 + 1e-9) * math.fsum("),
    ("closed form 4/pi x (1 + 1e-9)", "massey.py",
     "_FOUR_OVER_PI = 4.0 / math.pi\n",
     "_FOUR_OVER_PI = 4.0 / math.pi * (1 + 1e-9)\n"),
    ("quadratic term x (1 + 1e-6)", "linking.py",
     "- gap * (gap / im_t))", "- gap * (gap / im_t) * (1 + 1e-6))"),
    ("theta4 odd-term sign wrong from n = 3", "special_functions.py",
     "    if kind == 4 and n & 1:\n", "    if kind == 4 and n & 1 and n < 3:\n"),
    ("theta1 terms from n = 4 dropped", "special_functions.py",
     "        total += _paired_term(kind, n, e_plus, e_minus)\n",
     "        if kind != 1 or n < 4:\n"
     "            total += _paired_term(kind, n, e_plus, e_minus)\n"),
    ("MERGE_TOL 1e-12 -> 1e-6", "linking.py",
     "MERGE_TOL = 1e-12\n", "MERGE_TOL = 1e-6\n"),
    ("even shift one period too far", "special_functions.py",
     "        return tau - 2.0 * round(tau.real / 2.0)\n",
     "        return tau - 2.0 * round(tau.real / 2.0) - 2.0\n"),
    ("sphere 1/pi -> 1/3.14159265", "linking.py",
     "LinkingResult(total / math.pi)", "LinkingResult(total / 3.14159265)"),
    ("bent kernel: F x (1 + 1e-3 |X|^2)", "special_functions.py",
     "    return x * g - g_inv\n",
     "    return (x * g - g_inv) * (1.0 + 1e-3 * abs(x) ** 2)\n"),
    ("kernel log/pi x (1 + 1e-6)", "linking.py",
     "x_inv))) / math.pi\n", "x_inv))) / math.pi * (1 + 1e-6)\n"),
    ("quadratic term / Im tau^1.01", "linking.py",
     "- gap * (gap / im_t))", "- gap * (gap / im_t ** 1.01))"),
    ("fold gap x (1 + 1e-6)", "linking.py",
     "gap = half - y\n", "gap = (half - y) * (1 + 1e-6)\n"),
    ("c_n exponent x 1.001", "special_functions.py",
     "(-_PI * tv.imag * (n * (n + 1)), phase)",
     "(-_PI * tv.imag * (n * (n + 1)) * 1.001, phase)"),
    ("d_n exponent x 1.001", "special_functions.py",
     "(-_PI * tv.imag * (n * n), phase)",
     "(-_PI * tv.imag * (n * n) * 1.001, phase)"),
    ("pullback root phase pi*k", "linking.py",
     "(phase + 2 * math.pi * k) / n", "(phase + math.pi * k) / n"),
    ("enumeration's conjugate subsets of size p", "hodge.py",
     "combinations(range(3), q)", "combinations(range(3), p)"),
    ("diamond's q range 1 <= q <= 3", "hodge.py",
     "1 <= q <= 2", "1 <= q <= 3"),
    ("sixteen fixed curves -> 15", "hodge.py",
     "(16 if", "(15 if"),
)

#: Faults that no suite catches: the merge distance sees no pair between
#: 1e-12 and 1e-6 apart.  The even shift one period too far is equivalent:
#: Z + Z tau and Z + Z (tau - 2) are one lattice.  lambda-periodicity does
#: evaluate at tau + 2 and tau +- 1, and every suite passes while the digest
#: of ``verify --seed 42`` moves.  The tier-1 tests that pin bits or the
#: shifted tau kill it: test_no_series_runs_at_an_unshifted_tau,
#: test_theta_far_along_re_tau_is_a_power_of_i_times_the_shifted,
#: test_evaluators_keep_their_bits_under_an_even_shift_of_tau,
#: test_weierstrass_p_bits_are_pinned, test_lambda_errors and
#: test_verify_seed_42_stdout_is_pinned.  And 15 fixed curves keep the
#: diamond symmetric with Euler characteristic 0, while no second route
#: counts the curves.
KNOWN_SURVIVORS = frozenset({
    "MERGE_TOL 1e-12 -> 1e-6",
    "even shift one period too far",
    "sixteen fixed curves -> 15",
})


def run_verify(src: Path, seed: int) -> tuple[list[str], set[str] | None]:
    """(suite names in report order, the failing ones) of ``verify --seed
    seed`` on the package under ``src``; None for the failing ones of a run
    that neither passed nor failed its suites."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "holink.cli", "verify", "--seed", str(seed)],
        capture_output=True, text=True, env=env, cwd=src.parent, timeout=300)
    rows = [line.split()[:2] for line in run.stdout.splitlines()
            if line.startswith(("[PASS] ", "[FAIL] "))]
    failed = {name for mark, name in rows if mark == "[FAIL]"}
    return [name for _, name in rows], failed if run.returncode in (0, 1) else None


def mutant_runs(fault: tuple | None) -> list[tuple[list[str], set[str] | None]]:
    """``run_verify`` at each seed of ``SEEDS`` on a copy of ``src/`` with
    ``fault`` applied, or on an unedited copy for None."""
    with tempfile.TemporaryDirectory(prefix="holink-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        if fault is not None:
            name, file, old, new = fault
            path = src / "holink" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"fault {name!r}: its old text occurs "
                                 f"{text.count(old)} times in {file}, not once")
            path.write_text(text.replace(old, new))
        return [run_verify(src, seed) for seed in SEEDS]


def main() -> int:
    missing = KNOWN_SURVIVORS - {name for name, *_ in FAULTS}
    if missing:
        print("known survivors not in the catalogue:", ", ".join(sorted(missing)),
              file=sys.stderr)
        return 1
    clean = mutant_runs(None)
    if any(failed != set() for _, failed in clean):
        print("the unedited source fails verify:", clean, file=sys.stderr)
        return 1
    suites = clean[0][0]
    width = max(len(name) for name, *_ in FAULTS)
    print(f"seeds {', '.join(map(str, SEEDS))}; the columns are the suites:")
    for k, suite in enumerate(suites, 1):
        print(f"  {k:2d} {suite}")
    print(" " * width + " " + "".join(f"{k:3d}" for k in range(1, len(suites) + 1))
          + "  verdict")
    kills = [0] * len(suites)
    unexpected, stale = [], []
    for fault in FAULTS:
        runs = [failed for _, failed in mutant_runs(fault)]
        crashed = None in runs
        cells = []
        for k, suite in enumerate(suites):
            count = sum(suite in r for r in runs if r is not None)
            kills[k] += count == len(SEEDS)
            cells.append("x" if crashed else str(count) if count else ".")
        verdict = "killed"
        if not all(r is None or r for r in runs):
            verdict = "SURVIVES"
            if fault[0] in KNOWN_SURVIVORS:
                verdict += " (known)"
            else:
                unexpected.append(fault[0])
        elif fault[0] in KNOWN_SURVIVORS:
            verdict += " (listed as a known survivor)"
            stale.append(fault[0])
        print(f"{fault[0]:<{width}} " + "".join(f"{c:>3}" for c in cells)
              + f"  {verdict}")
    print(f"{'kills':<{width}} " + "".join(f"{k:3d}" for k in kills))
    if unexpected:
        print("faults that no suite kills at every seed:", ", ".join(unexpected),
              file=sys.stderr)
    if stale:
        print("known survivors that are killed:", ", ".join(stale),
              file=sys.stderr)
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
