"""Command-line contract: parsing, formatting, exit codes, CSV output."""

import errno
import hashlib
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import pytest

from holink.cli import (
    CSV_HEADER,
    divisor_from_json,
    format_complex,
    main,
    parse_complex,
    scan_axes,
)
from holink.errors import DivergenceError
from holink.massey import massey_report, massey_value_closed_form
from holink.special_functions import TauParameter, modular_lambda


# ------------------------------------------------------------------ parsing


def test_parse_complex_forms():
    assert parse_complex("0.3+1.7i") == 0.3 + 1.7j
    assert parse_complex("1-2e-3i") == 1 - 2e-3j
    assert parse_complex("2i") == 2j
    assert parse_complex("-2.5i") == -2.5j
    assert parse_complex("i") == 1j
    assert parse_complex("+i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("4+i") == 4 + 1j
    assert parse_complex("4-i") == 4 - 1j
    assert parse_complex("-3") == complex(-3, 0)
    assert parse_complex(" 1 + 2 i ") == 1 + 2j
    assert parse_complex(".5i") == 0.5j
    assert parse_complex("1e-3i") == complex(0.0, 1e-3)
    assert parse_complex("-1e-3-2e+3i") == complex(-1e-3, -2e3)
    one_minus_zero = parse_complex("1-0i")
    assert one_minus_zero == 1.0
    assert math.copysign(1.0, one_minus_zero.imag) == -1.0


@pytest.mark.parametrize("bad", ["", "5j", "1+2", "i5", "nan", "inf",
                                 "1+nan i", "1++2i", "2i+1", "abc",
                                 "+-2i"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


def test_format_complex():
    assert format_complex(0.5) == "0.5+0i"
    assert format_complex(1 - 2j) == "1-2i"
    assert format_complex(-0.25 + 3e-7j) == "-0.25+3e-07i"
    assert parse_complex(format_complex(0.1 - 0.7j)) == 0.1 - 0.7j


def test_divisor_json_schema():
    d = divisor_from_json({"curve": "sphere",
                           "terms": [[1.0, 2.0, 1], ["inf", -1]]})
    assert d.degree() == 0
    e = divisor_from_json({"curve": {"elliptic": "0.5+1.5i"},
                           "terms": [[0.25, 0.0, 2], [0.1, 0.9, -2]]})
    assert e.curve.tau.value == 0.5 + 1.5j
    for bad in (
        [],                                                   # not an object
        {"curve": "sphere"},                                  # missing terms
        {"terms": []},                                        # missing curve
        {"curve": "sphere", "terms": [], "x": 1},             # unknown key
        {"curve": "torus", "terms": []},                      # bad curve tag
        {"curve": {"elliptic": "i", "x": 1}, "terms": []},    # extra curve key
        {"curve": "sphere", "terms": [[1.0, 1]]},             # short term
        {"curve": "sphere", "terms": [[True, 0.0, 1]]},       # bool as number
        {"curve": "sphere", "terms": ["inf"]},                # term not a list
        {"curve": "sphere", "terms": {"a": 1}},               # terms not a list
        {"curve": "sphere", "terms": [[10 ** 400, 0.0, 1]]},  # beyond a double
    ):
        with pytest.raises(ValueError):
            divisor_from_json(bad)


def test_scan_grid_geometry():
    # endpoints inclusive
    assert scan_axes(-1.0, 1.0, 0.5, 1.5, 3, 2) == ([-1.0, 0.0, 1.0], [0.5, 1.5])
    assert scan_axes(0.25, 0.25, 1.0, 1.0, 1, 1) == ([0.25], [1.0])
    (signed_zero,), _ = scan_axes(-0.0, -0.0, 1.0, 1.0, 1, 1)
    assert math.copysign(1.0, signed_zero) == -1.0
    for bad in (
        dict(re_min=1.0, re_max=-1.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=0.0, re_max=0.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.0, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=1.5, im_max=0.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.5, im_max=1.5, steps_re=0, steps_im=2),
        # a bool is not a step count, as it is no theta kind
        dict(re_min=0.25, re_max=0.25, im_min=1.0, im_max=1.0, steps_re=True,
             steps_im=True),
        dict(re_min=-math.inf, re_max=1.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        # the axis formula overflows to inf inside these bounds
        dict(re_min=-5e307, re_max=5e307, im_min=0.5, im_max=1.5, steps_re=3, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.05, im_max=1e308, steps_re=2, steps_im=3),
    ):
        with pytest.raises(ValueError):
            scan_axes(**bad)


# ------------------------------------------------------------- subcommands


def test_lambda_command(capsys):
    assert main(["lambda", "2i"]) == 0
    assert capsys.readouterr().out == "0.0294372515228594+0i\n"
    assert main(["lambda", "0+1i"]) == 0
    assert capsys.readouterr().out == "0.5+0i\n"


def test_lambda_errors(capsys):
    assert main(["lambda", "bogus"]) == 2          # unparseable tau
    assert main(["lambda", "1-2i"]) == 3           # lower half-plane
    assert main(["lambda", "1+0.01i"]) == 3        # below the Im floor
    err = capsys.readouterr().err
    assert "error:" in err
    # far along Re tau the even shift moves tau to 0.5i exactly
    assert main(["lambda", "--", "3e306+0.5i"]) == 0
    far = capsys.readouterr().out
    assert main(["lambda", "0.5i"]) == 0
    assert far == capsys.readouterr().out
    assert main(["massey", "--", "-5e307+0.5i"]) == 0
    far = capsys.readouterr().out.splitlines()
    assert main(["massey", "0.5i"]) == 0
    assert far[1:] == capsys.readouterr().out.splitlines()[1:]


def test_massey_command(capsys):
    assert main(["massey", "0+1i"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 7
    fields = dict(line.split("=", 1) for line in lines)
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    assert fields["tau"] == "0+1i"
    assert fields["lambda(tau)"] == "0.5+0i"
    want = 4.0 * math.log(0.5) / math.pi
    assert abs(float(fields["value_closed_form"]) - want) < 1e-12
    assert abs(float(fields["value_via_linking"]) - want) < 1e-12
    assert float(fields["residual"]) < 1e-8
    assert fields["nonvanishing"] == "true"
    assert fields["tolerance"] == "1e-06"


def test_massey_divergence_is_domain_exit(capsys):
    # The half-period closed form diverges here: a typed error, exit code 3.
    assert main(["massey", "--", "-0.018+0.059i"]) == 3
    assert "diverges" in capsys.readouterr().err


def test_massey_tolerance_sources(capsys):
    main(["massey", "0+1i", "--tol", "1.0"])
    assert "nonvanishing       = false" in capsys.readouterr().out
    main(["massey", "0+1i"])
    assert "nonvanishing       = true" in capsys.readouterr().out
    assert main(["massey", "0+1i", "--tol", "not-a-number"]) == 2
    assert main(["massey", "0+1i", "--tol", "-3"]) == 3
    assert main(["massey", "0+1i", "--tol", "0"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("env", ["1.0", "0.5", "not-a-number", "-3"])
def test_environment_sets_no_tolerance(capsys, monkeypatch, env):
    # A tolerance comes from --tol or the default, never from HOLINK_TOL.
    monkeypatch.setenv("HOLINK_TOL", env)
    assert main(["massey", "0+1i"]) == 0
    out = capsys.readouterr().out
    assert "nonvanishing       = true" in out
    assert "tolerance          = 1e-06" in out
    assert main(["verify", "--seed", "42"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "verification suites: seed=42 tol=default")


def test_hodge_command(capsys):
    assert main(["hodge"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[3].split() == ["1", "19", "19", "1"]
    assert "betti numbers      : [1, 0, 19, 40, 19, 0, 1]" in out
    assert "euler characteristic: 0" in out
    payload = json.loads(lines[-1])
    assert payload["hodge"][1][1] == 19
    assert payload["betti"] == [1, 0, 19, 40, 19, 0, 1]
    assert payload["euler_characteristic"] == 0


def test_link_command(tmp_path, capsys):
    z = tmp_path / "z.json"
    w = tmp_path / "w.json"
    z.write_text(json.dumps({"curve": "sphere", "terms": [[0.0, 0.0, 1], [1.0, 0.0, -1]]}))
    w.write_text(json.dumps({"curve": "sphere", "terms": [[2.0, 0.0, 1], ["inf", -1]]}))
    assert main(["link", str(z), str(w)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.splitlines())
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    assert abs(float(fields["value"]) - math.log(2.0) / math.pi) < 1e-15
    assert fields["method"] == "cross-ratio"

    # errors: missing file -> 4, bad JSON -> 2, overlapping supports -> 3
    assert main(["link", str(tmp_path / "nope.json"), str(w)]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["link", str(bad), str(w)]) == 2
    bad.write_text('{"curve": "sphere", "terms": [[1%s, 0.0, 1], ["inf", -1]]}'
                   % ("0" * 400))
    assert main(["link", str(bad), str(w)]) == 2
    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps({"curve": "sphere", "terms": [[0.0, 0.0, 1], [3.0, 0.0, -1]]}))
    assert main(["link", str(z), str(w2)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("curve, a, b", [("sphere", 10 ** 400, 1),
                                         ({"elliptic": "i"}, 10 ** 200, 10 ** 200)])
def test_link_huge_multiplicity_is_domain_exit(tmp_path, capsys, curve, a, b):
    # a multiplicity product beyond double range: exit 3 with one error
    # line, not an OverflowError traceback and exit 1
    z = tmp_path / "z.json"
    w = tmp_path / "w.json"
    z.write_text(json.dumps({"curve": curve,
                             "terms": [[0.1, 0.1, a], [0.3, 0.2, -a]]}))
    w.write_text(json.dumps({"curve": curve,
                             "terms": [[0.6, 0.5, b], [0.7, 0.8, -b]]}))
    assert main(["link", str(z), str(w)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "double range" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_link_point_beyond_double_range_pairs_its_representative(tmp_path,
                                                                 capsys):
    # finite, though its float lattice coordinates overflow: reduced
    # exactly.  1e308+1e308i is a lattice point of 0.3+0.5i, so the pairing
    # prints what it prints with the point at 0.
    curve = {"elliptic": "0.3+0.5i"}
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"curve": curve,
                             "terms": [[0.35, 0.9, 1], [0.8, 0.15, -1]]}))
    outs = []
    for name, point in (("far", [1e308, 1e308, 1]), ("zero", [0, 0, 1])):
        z = tmp_path / f"{name}.json"
        z.write_text(json.dumps({"curve": curve,
                                 "terms": [point, [0.1, 0.2, -1]]}))
        assert main(["link", str(z), str(w)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("value    = 0.0732227546297992\n")


def test_link_elliptic_half_periods(tmp_path, capsys):
    z = tmp_path / "z.json"
    w = tmp_path / "w.json"
    z.write_text(json.dumps({"curve": {"elliptic": "i"},
                             "terms": [[0.0, 0.0, 1], [0.5, 0.0, -1]]}))
    w.write_text(json.dumps({"curve": {"elliptic": "i"},
                             "terms": [[0.0, 0.5, 1], [0.5, 0.5, -1]]}))
    assert main(["link", str(z), str(w)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split("=", 1) for line in out.splitlines())
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    assert abs(float(fields["value"]) - math.log(0.5) / (2 * math.pi)) < 1e-13
    assert fields["method"] == "arakelov-green"
    assert "residual" not in fields


def test_link_elliptic_merge_across_the_cell_edge_is_pinned(tmp_path, capsys):
    # The 8-point pair of the CI pin: its first two points, at lattice y
    # 1.3e-12 and 1 - 1.3e-12, merge into one term of multiplicity 2.
    z = tmp_path / "z.json"
    w = tmp_path / "w.json"
    z.write_text(json.dumps({"curve": {"elliptic": "0.1+0.3i"}, "terms": [
        [0.4, 4e-13, 1], [0.5, 0.2999999999996, 1], [0.15, 0.1, -1],
        [0.55, 0.22, -1], [0.9, 0.05, 1], [0.25, 0.27, -1], [0.65, 0.12, 1],
        [0.05, 0.18, -1]]}))
    w.write_text(json.dumps({"curve": {"elliptic": "0.1+0.3i"}, "terms": [
        [0.3, 0.05, 1], [0.8, 0.25, -1], [0.45, 0.15, 1], [0.1, 0.28, -1],
        [0.6, 0.02, 1], [0.95, 0.2, -1], [0.2, 0.12, 1], [0.75, 0.08, -1]]}))
    assert main(["link", str(z), str(w)]) == 0
    assert capsys.readouterr().out == ("value    = 0.145667684328484\n"
                                       "method   = arakelov-green\n")


def test_scan_command(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    rc = main(["scan", "--re-min", "-0.5", "--re-max", "0.5",
               "--im-min", "0.8", "--im-max", "1.2",
               "--steps-re", "3", "--steps-im", "2",
               "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "-0.5" and first[1] == "0.8"
    assert lines[2].split(",")[0] == "0"            # re varies fastest
    assert lines[3].split(",")[0] == "0.5"
    assert lines[4].split(",")[1] == "1.2"
    assert list(tmp_path.glob("grid.csv.*.tmp")) == []
    assert lines == _scalar_rows(scan_axes(-0.5, 0.5, 0.8, 1.2, 3, 2))
    capsys.readouterr()


def test_scan_single_point_and_errors(tmp_path, capsys):
    out_path = tmp_path / "one.csv"
    rc = main(["scan", "--re-min", "0", "--re-max", "0",
               "--im-min", "1", "--im-max", "1",
               "--steps-re", "1", "--steps-im", "1", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert abs(float(cells[2]) - 0.5) < 1e-12
    assert abs(float(cells[4]) - 4 * math.log(0.5) / math.pi) < 1e-12

    # degenerate bounds with steps > 1 -> usage error
    rc = main(["scan", "--re-min", "0", "--re-max", "0",
               "--im-min", "1", "--im-max", "2",
               "--steps-re", "2", "--steps-im", "2", "--out", str(out_path)])
    assert rc == 2
    # unwritable output directory -> I/O error
    rc = main(["scan", "--re-min", "0", "--re-max", "1",
               "--im-min", "1", "--im-max", "2",
               "--steps-re", "2", "--steps-im", "2",
               "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 4
    assert not (tmp_path / "missing").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["-u"], []])
@pytest.mark.parametrize("argv", [["massey", "0.3+1i"],
                                  ["verify", "--seed", "42"]])
def test_closed_stdout_pipe_exits_4_without_a_word(argv, flags):
    # As in `holink massey 0.3+1i | true`: the reader's end is closed before
    # the child starts, so its first write to stdout fails.  Unbuffered (-u)
    # that write comes inside the subcommand; block-buffered, at the flush
    # that would otherwise come at shutdown.  Either way the exit code is
    # the I/O error's, and stderr stays empty: no message and no
    # "Exception ignored".
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *flags, "-m", "holink.cli",
                               *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == b""


def _scan(out_path, re_min, re_max, im_min, im_max, steps_re, steps_im):
    return main(["scan", "--re-min", str(re_min), "--re-max", str(re_max),
                 "--im-min", str(im_min), "--im-max", str(im_max),
                 "--steps-re", str(steps_re), "--steps-im", str(steps_im),
                 "--out", str(out_path)])


#: The pinned sha256 digests, each written once: CI compares against the
#: same file.
PINS = json.loads((pathlib.Path(__file__).parent / "pins.json").read_text())


def test_scan_readme_box_csv_is_pinned(tmp_path):
    out_path = tmp_path / "box.csv"
    assert _scan(out_path, -1, 1, 0.5, 2, 201, 151) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == PINS["scan_readme_box_csv"]


def test_hodge_stdout_is_pinned(capsys):
    # the diamond, the Betti line and the JSON line, byte for byte
    assert main(["hodge"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINS["hodge_stdout"]


def test_scan_validates_grid_once(tmp_path, monkeypatch):
    built = []
    validate = TauParameter.__post_init__

    def counting(self):
        built.append(self.value)
        validate(self)

    monkeypatch.setattr(TauParameter, "__post_init__", counting)
    assert _scan(tmp_path / "box.csv", -1, 1, 0.5, 2, 201, 151) == 0
    assert len(built) <= 201 + 151 + 1


def test_scan_builds_no_green_terms(tmp_path, monkeypatch):
    # scan's taus go through the theta series as arrays; their
    # TauParameters pair no divisors, and so build no Green-kernel term
    # data.
    built = []
    validate = TauParameter.__post_init__

    def recording(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(TauParameter, "__post_init__", recording)
    assert _scan(tmp_path / "box.csv", -1, 1, 0.5, 2, 21, 16) == 0
    assert built
    assert not any("_green_terms" in vars(t) for t in built)
    massey_report(built[0])
    assert "_green_terms" in vars(built[0])


def _scalar_rows(axes):
    """The CSV rows of the grid on ``axes``, the pair (re_axis, im_axis),
    from a scalar ``modular_lambda`` loop."""
    re_axis, im_axis = axes
    rows = []
    for tau in (complex(re, im) for im in im_axis for re in re_axis):
        lam = modular_lambda(tau)
        rows.append(f"{tau.real:.12g},{tau.imag:.12g},{lam.real:.12g},"
                    f"{lam.imag:.12g},{massey_value_closed_form(tau):.12g}")
    return [CSV_HEADER] + rows


def test_scan_one_column_matches_scalar_loop(tmp_path):
    # A column of 1061 rows, each of one tau.
    steps_im = 1061
    out_path = tmp_path / "column.csv"
    assert _scan(out_path, 0.25, 0.25, 0.5, 3, 1, steps_im) == 0
    axes = scan_axes(0.25, 0.25, 0.5, 3.0, 1, steps_im)
    assert out_path.read_text().splitlines() == _scalar_rows(axes)


@pytest.mark.parametrize("bounds", [
    # across the even shift of Re tau at -1 and 1
    (-1.5, 1.5, 0.5, 2.0, 31, 9),
    # Re tau about 1e15, where ".12g" rounds the axis values alike
    (1e15, 1e15 + 1, 0.7, 1.3, 5, 3),
])
def test_scan_wide_grid_matches_scalar_loop(tmp_path, bounds):
    out_path = tmp_path / "wide.csv"
    assert _scan(out_path, *bounds) == 0
    assert out_path.read_text().splitlines() == _scalar_rows(scan_axes(*bounds))


def test_scan_far_up_the_imaginary_axis_is_silent(tmp_path):
    # There the rule sums theta2's first term and no term of theta3, and no
    # RuntimeWarning is printed.  A grid that also holds rows near the floor
    # shares its columns' phases with them; each row sums its own terms.
    out_path = tmp_path / "far.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for im_min, im_max, steps in ((1e300, 1e308, 2), (0.05, 1e307, 5)):
            assert _scan(out_path, -0.0, 0.5, im_min, im_max, 3, steps) == 0
            axes = scan_axes(-0.0, 0.5, im_min, im_max, 3, steps)
            assert out_path.read_text().splitlines() == _scalar_rows(axes)


def test_scan_first_failing_tau_decides(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    # below the Im tau floor: DomainError from validation
    assert _scan(out_path, -1, 1, 0.01, 1, 3, 2) == 3
    assert "below the supported floor" in capsys.readouterr().err
    # on the real axis: the same tau rule, the same exit code
    assert _scan(out_path, -1, 1, 0, 1, 3, 2) == 3
    assert "not in upper half-plane" in capsys.readouterr().err
    # near the floor |1 - lambda| rounds to 0: a lost value, not a -inf row
    assert _scan(out_path, -0.018, -0.018, 0.059, 0.059, 1, 1) == 3
    assert "rounds to 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # the first row at Im 0.3 reaches the TAU_BOX corner -1+0.3i, where
    # |lambda| is about 2206: the relative lambda pin passes it
    assert _scan(out_path, -1, 1, 0.3, 1, 3, 2) == 0
    lam = modular_lambda(-1 + 0.3j)
    assert out_path.read_text().splitlines()[1] == (
        f"-1,0.3,{lam.real:.12g},{lam.imag:.12g},"
        f"{massey_value_closed_form(-1 + 0.3j):.12g}")
    assert list(tmp_path.iterdir()) == [out_path]


def test_scan_near_the_cusp_matches_lambda(tmp_path, capsys):
    # |lambda| ~ 6e10 near the cusp -1: scan's lambda cells and the lambda
    # command print the same lambda.
    assert main(["lambda", "--", "-0.983094027854641+0.11120398821644994i"]) == 0
    re_tau, im_tau = -0.983094027854641, 0.11120398821644994
    lam = modular_lambda(complex(re_tau, im_tau))
    assert capsys.readouterr().out == format_complex(lam) + "\n"
    out_path = tmp_path / "grid.csv"
    assert _scan(out_path, re_tau, re_tau, im_tau, im_tau, 1, 1) == 0
    cells = out_path.read_text().splitlines()[1].split(",")
    assert cells[2:4] == [f"{lam.real:.12g}", f"{lam.imag:.12g}"]


def test_scan_failing_partway_leaves_no_file(tmp_path, capsys, monkeypatch):
    # Rows are written as they are formatted, so a failure partway leaves a
    # partial temporary file, which scan removes.  Near the floor |1 - lambda|
    # rounds to 0 at -0.018+0.059i, after the header is written.
    out_path = tmp_path / "grid.csv"
    assert _scan(out_path, -0.018, -0.018, 0.059, 0.059, 1, 1) == 3
    assert "rounds to 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # The third row of the README box fails after two rows are on disk.
    cli = sys.modules["holink.cli"]
    closed_form = cli._closed_form_from_lambda
    seen = []

    def failing_in_row_3(lam):
        seen.append(lam)
        if len(seen) > 2 * 201:
            [tmp] = tmp_path.iterdir()
            assert tmp.name.startswith("grid.csv.") and tmp.suffix == ".tmp"
            lines = tmp.read_text().splitlines()
            assert lines[0] == CSV_HEADER and len(lines) > 201
            raise DivergenceError("injected in row 3")
        return closed_form(lam)

    monkeypatch.setattr(cli, "_closed_form_from_lambda", failing_in_row_3)
    assert _scan(out_path, -1, 1, 0.5, 2, 201, 5) == 3
    assert "injected in row 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("im_tau, replace_fails, code", [
    (1.0, False, 0),
    (0.059, False, 3),   # |1 - lambda| rounds to 0: scan's own file is removed
    (1.0, True, 4),      # the rename fails: only scan's own file is removed
])
def test_scan_leaves_other_tmp_files_alone(tmp_path, capsys, monkeypatch,
                                           im_tau, replace_fails, code):
    out_path = tmp_path / "g.csv"
    precious = tmp_path / "g.csv.tmp"
    precious.write_bytes(b"precious\n")
    if replace_fails:
        def failing_replace(src, dst):
            raise PermissionError(f"cannot rename {src} to {dst}")
        monkeypatch.setattr(os, "replace", failing_replace)
    assert _scan(out_path, -0.018, -0.018, im_tau, im_tau, 1, 1) == code
    assert precious.read_bytes() == b"precious\n"
    assert set(tmp_path.iterdir()) == ({precious, out_path} if code == 0
                                       else {precious})
    if code == 0:
        # the output's mode is what open() gives under the umask
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask
    capsys.readouterr()


def test_scan_keeps_exit_4_when_its_file_cannot_be_removed(tmp_path, capsys,
                                                          monkeypatch):
    # Both the rename and the removal of the temporary file fail: the rename's
    # error is reported, not the removal's, naming --out, and the file is
    # left where it is.
    def failing_replace(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", src, None, dst)

    def failing_unlink(path):
        raise PermissionError(errno.EPERM, "Operation not permitted", path)

    monkeypatch.setattr(os, "replace", failing_replace)
    monkeypatch.setattr(os, "unlink", failing_unlink)
    out = tmp_path / "g.csv"
    assert _scan(out, 0, 1, 1, 2, 2, 2) == 4
    assert capsys.readouterr().err == (
        f"error: [Errno 13] Permission denied: {str(out)!r}\n")
    [tmp] = tmp_path.iterdir()
    assert tmp.name.startswith("g.csv.") and tmp.suffix == ".tmp"

def test_scan_io_error_names_the_out_path(tmp_path, capsys):
    # The temporary file is scan's own business: neither a missing
    # directory nor a failed rename onto a directory names it.
    missing = tmp_path / "missing" / "x.csv"
    assert _scan(missing, 0, 1, 1, 2, 2, 2) == 4
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    directory = tmp_path / "adir"
    directory.mkdir()
    assert _scan(directory, 0, 1, 1, 2, 2, 2) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": {str(directory)!r}\n")
    assert ".tmp" not in err
    assert set(tmp_path.iterdir()) == {directory} and not any(directory.iterdir())


def test_scan_name_clash_names_the_temporary_file(tmp_path, capsys, monkeypatch):
    # "File exists" is true of the temporary name, not of --out, which scan
    # replaces; the file that was there is left alone.
    monkeypatch.setattr(os, "urandom", lambda n: b"\x00" * n)
    out = tmp_path / "x.csv"
    clash = tmp_path / "x.csv.000000000000.tmp"
    clash.write_text("not scan's")
    assert _scan(out, 0, 1, 1, 2, 2, 2) == 4
    assert capsys.readouterr().err == (
        f"error: [Errno 17] File exists: {str(clash)!r}\n")
    assert set(tmp_path.iterdir()) == {clash} and clash.read_text() == "not scan's"


def test_verify_command(capsys):
    assert main(["verify", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "verification suites: seed=42 tol=default"
    assert out.splitlines()[-1].endswith("suites passed")
    assert "[FAIL]" not in out
    assert main(["verify", "--seed", "42", "--tol", "1e-30"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    assert main(["verify", "--tol", "-1"]) == 3
    assert main(["verify", "--tol", "nan"]) == 3
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main([]) == 2                      # missing subcommand
    assert main(["frobnicate"]) == 2          # unknown subcommand
    assert main(["massey"]) == 2              # missing tau
    assert main(["scan", "--re-min", "0"]) == 2
    capsys.readouterr()


def test_verify_byte_determinism_subprocess():
    cmd = [sys.executable, "-c",
           "from holink.cli import main; raise SystemExit(main(['verify', '--seed', '42']))"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout  # not empty


def test_verify_seed_42_stdout_is_pinned():
    # Across commits, not only from run to run; CI checks the same pin.
    cmd = [sys.executable, "-c",
           "from holink.cli import main; raise SystemExit(main(['verify', '--seed', '42']))"]
    run = subprocess.run(cmd, capture_output=True)
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == PINS["verify_seed_42_stdout"]


# The child runs every public path, a 2x2 scan, the verify suites and the
# lattice sum, checking after each that numpy is still unloaded; then it
# imports numpy, which the check must see: it is not vacuous.
_NUMPY_FREE_SCRIPT = """
import sys
import holink, holink.cli
from holink import Divisor, RationalMapSpec

def numpy_free(step):
    assert "numpy" not in sys.modules, step

numpy_free("import holink, holink.cli")
# nor the modules the CLI's start-up has no use for
unused = {"dataclasses", "inspect", "json"} & set(sys.modules)
assert not unused, unused
sz, sw, ez, ew, out = sys.argv[1:]
for argv in (["lambda", "0.3+1.7i"], ["massey", "0.3+1.7i"], ["hodge"],
             ["link", sz, sw], ["link", ez, ew]):
    assert holink.cli.main(argv) == 0, argv
    numpy_free(argv)
tau = 0.3 + 1.7j
holink.massey_report(tau)
numpy_free("massey_report")
for kind in (1, 2, 3, 4):
    holink.theta(kind, 0.1 + 0.2j, tau)
numpy_free("theta")
holink.weierstrass_p(0.1 + 0.2j, tau)
holink.half_period_values(tau)
holink.arakelov_green(0.1 + 0.2j, tau)
numpy_free("weierstrass_p, half_period_values, arakelov_green")
pts = [(k % 4) / 4 + 0.1 + ((k // 4) / 4 + 0.1) * tau for k in range(16)]
signs = [1, -1] * 4
z = Divisor.elliptic(tau, list(zip(pts[:8], signs)))
w = Divisor.elliptic(tau, list(zip(pts[8:], signs)))
holink.linking(z, w)
numpy_free("8-point elliptic linking")
holink.check_adjunction(RationalMapSpec.power(2),
                        Divisor.sphere([(0.5 + 0.2j, 1), (1.5 - 0.3j, -1)]),
                        Divisor.sphere([(2.0 + 1.0j, 1), (-0.7 + 0.4j, -1)]))
holink.check_adjunction(RationalMapSpec.translation(0.25 + 0.1j), z, w)
numpy_free("check_adjunction")
assert holink.cli.main(["scan", "--re-min", "-0.5", "--re-max", "0.5",
                        "--im-min", "1", "--im-max", "2", "--steps-re", "2",
                        "--steps-im", "2", "--out", out]) == 0
numpy_free("scan")
assert holink.cli.main(["verify", "--seed", "42"]) == 0
numpy_free("verify")
holink.lattice_sum_p(0.1 + 0.2j, tau)
numpy_free("lattice_sum_p")
import numpy
assert "numpy" in sys.modules, "the check cannot see numpy"
"""


def test_cli_import_loads_no_typing_or_fractions():
    # an isolated interpreter without site, whose own start-up loads
    # neither: importing the CLI must not either.  -I drops
    # PYTHONDONTWRITEBYTECODE, so -B keeps the run from writing bytecode
    # next to the source.
    import holink
    root = str(pathlib.Path(holink.__file__).resolve().parent.parent)
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import holink.cli; "
              "print(sorted({'typing', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", script, root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_scalar_paths_never_import_numpy(tmp_path):
    paths = []
    for name, curve, terms in (
            ("sz", "sphere", [[0.0, 0.0, 1], [1.0, 0.0, -1]]),
            ("sw", "sphere", [[2.0, 0.0, 1], ["inf", -1]]),
            ("ez", {"elliptic": "0.3+1.7i"}, [[0.1, 0.2, 1], [0.6, 0.3, -1]]),
            ("ew", {"elliptic": "0.3+1.7i"}, [[0.2, 1.1, 1], [0.7, 0.9, -1]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"curve": curve, "terms": terms}))
        paths.append(str(path))
    paths.append(str(tmp_path / "grid.csv"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT, *paths],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "grid.csv").read_text().count("\n") == 5
