"""``holink.hodge`` and ``holink.verify`` sit in sys.modules from the start
and run at the first lookup of a name they have not defined.  Each check
runs in a fresh interpreter, where neither has run yet."""

import pathlib
import pickle
import subprocess
import sys

import holink
from holink import standard_quotient_action
from holink.verify import SuiteResult

ROOT = str(pathlib.Path(holink.__file__).resolve().parent.parent)


def _run(script: str, stdin: bytes = b"") -> bytes:
    proc = subprocess.run([sys.executable, "-B", "-c", script, ROOT],
                          input=stdin, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


_NOT_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import holink, holink.cli

def not_run(step):
    for name, defined in (("holink.hodge", "hodge_diamond_x"),
                          ("holink.verify", "run_all")):
        assert name in sys.modules, (step, name)
        assert defined not in vars(sys.modules[name]), (step, name)

not_run("import holink, holink.cli")
assert holink.cli.main(["massey", "0.3+1.7i"]) == 0
not_run("massey")
assert holink.cli.main(["scan", "--re-min", "-0.5", "--re-max", "0.5",
                        "--im-min", "1", "--im-max", "2", "--steps-re", "2",
                        "--steps-im", "2", "--out", sys.argv[2]]) == 0
not_run("scan")
missing = set(holink.__all__) - set(dir(holink))
assert not missing, missing
not_run("dir(holink)")
namespace = {}
exec("from holink import *", namespace)
missing = set(holink.__all__) - set(namespace)
assert not missing, missing
assert namespace["run_all"] is sys.modules["holink.verify"].run_all
assert namespace["hodge_diamond_x"] is sys.modules["holink.hodge"].hodge_diamond_x
"""


def test_import_and_hot_commands_run_neither_module(tmp_path):
    proc = subprocess.run([sys.executable, "-B", "-c", _NOT_RUN, ROOT,
                           str(tmp_path / "grid.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "grid.csv").read_text().count("\n") == 5


_THREADS = """
import sys, threading
sys.path.insert(0, sys.argv[1])
import holink

sys.setswitchinterval(1e-6)  # switch threads often while a module runs
barrier = threading.Barrier(8)
errors = []

def first_use():
    try:
        barrier.wait()
        holink.run_all
        holink.hodge_diamond_x
        from holink.verify import TAU_BOX
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_use) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads), "a thread is still waiting"
assert not errors, errors
"""


def test_first_use_from_eight_threads_at_once():
    # Each thread may be the one that runs a module, or wait while another
    # runs it: none sees a partly run module.
    for _ in range(20):
        _run(_THREADS)


_PICKLE = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
sys.stdout.buffer.write(pickle.dumps(pickle.loads(sys.stdin.buffer.read())))
"""


def test_pickle_round_trip_in_a_fresh_interpreter():
    values = (standard_quotient_action(),
              SuiteResult("hodge-diamond", True, 0.0, 1e-12, "exact"))
    assert pickle.loads(_run(_PICKLE, pickle.dumps(values))) == values
