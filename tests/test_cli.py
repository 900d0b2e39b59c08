"""Command-line contract: parsing, formatting, exit codes, CSV output."""

import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import pytest

from holink.cli import (
    CSV_HEADER,
    ScanGrid,
    divisor_from_json,
    format_complex,
    main,
    parse_complex,
)
from holink.massey import massey_report, massey_value_closed_form
from holink.special_functions import THETA_BLOCK, TauParameter, modular_lambda


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("HOLINK_TOL", raising=False)


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
    g = ScanGrid(-1.0, 1.0, 0.5, 1.5, 3, 2)
    pts = g.taus.tolist()
    assert len(pts) == 6
    assert pts[0] == -1.0 + 0.5j
    assert pts[1] == 0.0 + 0.5j          # re varies fastest
    assert pts[2] == 1.0 + 0.5j
    assert pts[3] == -1.0 + 1.5j
    assert pts[-1] == 1.0 + 1.5j         # endpoints inclusive
    single = ScanGrid(0.25, 0.25, 1.0, 1.0, 1, 1)
    assert single.taus.tolist() == [0.25 + 1.0j]
    signed_zero = ScanGrid(-0.0, -0.0, 1.0, 1.0, 1, 1).taus[0].real
    assert math.copysign(1.0, signed_zero) == -1.0
    for bad in (
        dict(re_min=1.0, re_max=-1.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=0.0, re_max=0.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.0, im_max=1.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=1.5, im_max=0.5, steps_re=2, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.5, im_max=1.5, steps_re=0, steps_im=2),
        dict(re_min=-math.inf, re_max=1.0, im_min=0.5, im_max=1.5, steps_re=2, steps_im=2),
        # the axis formula overflows to inf inside these bounds
        dict(re_min=-5e307, re_max=5e307, im_min=0.5, im_max=1.5, steps_re=3, steps_im=2),
        dict(re_min=-1.0, re_max=1.0, im_min=0.05, im_max=1e308, steps_re=2, steps_im=3),
    ):
        with pytest.raises(ValueError):
            ScanGrid(**bad)


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


def test_massey_tolerance_sources(capsys, monkeypatch):
    main(["massey", "0+1i", "--tol", "1.0"])
    assert "nonvanishing       = false" in capsys.readouterr().out
    monkeypatch.setenv("HOLINK_TOL", "1.0")
    main(["massey", "0+1i"])
    assert "nonvanishing       = false" in capsys.readouterr().out
    main(["massey", "0+1i", "--tol", "1e-6"])   # flag beats environment
    assert "nonvanishing       = true" in capsys.readouterr().out
    monkeypatch.setenv("HOLINK_TOL", "not-a-number")
    assert main(["massey", "0+1i"]) == 2
    monkeypatch.setenv("HOLINK_TOL", "-3")
    assert main(["massey", "0+1i"]) == 3
    capsys.readouterr()
    assert main(["massey", "0+1i", "--tol", "0"]) == 3


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


def test_link_point_beyond_double_range_is_domain_exit(tmp_path, capsys):
    # finite, but its lattice coordinates overflow: exit 3 with one error
    # line, not an OverflowError traceback and exit 1
    z = tmp_path / "z.json"
    w = tmp_path / "w.json"
    curve = {"elliptic": "0.3+0.5i"}
    z.write_text(json.dumps({"curve": curve,
                             "terms": [[1e308, 1e308, 1], [0.1, 0.2, -1]]}))
    w.write_text(json.dumps({"curve": curve,
                             "terms": [[0.35, 0.9, 1], [0.8, 0.15, -1]]}))
    assert main(["link", str(z), str(w)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "double range" in captured.err
    assert len(captured.err.splitlines()) == 1


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
    assert not (tmp_path / "grid.csv.tmp").exists()
    # center column sanity: lambda(i) = 1/2 on the row through tau = i
    mid = lines[2].split(",")
    # tau = 0+0.8i there; just check the file parses as floats
    for cell in mid:
        float(cell)
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


def _scan(out_path, re_min, re_max, im_min, im_max, steps_re, steps_im):
    return main(["scan", "--re-min", str(re_min), "--re-max", str(re_max),
                 "--im-min", str(im_min), "--im-max", str(im_max),
                 "--steps-re", str(steps_re), "--steps-im", str(steps_im),
                 "--out", str(out_path)])


def test_scan_readme_box_csv_is_pinned(tmp_path):
    out_path = tmp_path / "box.csv"
    assert _scan(out_path, -1, 1, 0.5, 2, 201, 151) == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == ("672888beb7ab19b42c00211ca43241c8"
                      "d06b9e8dccba761aa32e98a20d107a03")


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
    # scan's taus go through the array kernel; their TauParameters pair no
    # divisors, and so build no Green-kernel term data.
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


def _scalar_rows(grid):
    """The CSV rows of ``grid`` from a scalar ``modular_lambda`` loop."""
    rows = []
    for tau in grid.taus.tolist():
        lam = modular_lambda(tau)
        rows.append(f"{tau.real:.12g},{tau.imag:.12g},{lam.real:.12g},"
                    f"{lam.imag:.12g},{massey_value_closed_form(tau):.12g}")
    return [CSV_HEADER] + rows


def test_scan_one_column_matches_scalar_loop(tmp_path):
    # One column longer than a block: blocks run across grid rows.
    steps_im = THETA_BLOCK + 37
    out_path = tmp_path / "column.csv"
    assert _scan(out_path, 0.25, 0.25, 0.5, 3, 1, steps_im) == 0
    grid = ScanGrid(0.25, 0.25, 0.5, 3.0, 1, steps_im)
    assert out_path.read_text().splitlines() == _scalar_rows(grid)


def test_scan_far_up_the_imaginary_axis_is_silent(tmp_path):
    # -pi * Im(tau) * a^2 overflows to -inf there: the stopping bound is 0,
    # as in the scalar loop, and no RuntimeWarning is printed.
    out_path = tmp_path / "far.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scan(out_path, -0.0, 0.5, 1e300, 1e308, 3, 2) == 0
        grid = ScanGrid(-0.0, 0.5, 1e300, 1e308, 3, 2)
        assert out_path.read_text().splitlines() == _scalar_rows(grid)


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


@pytest.mark.parametrize("im_tau, replace_fails, code", [
    (1.0, False, 0),
    (0.059, False, 3),   # |1 - lambda| rounds to 0 before any file is made
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
    # Across commits, not only from run to run; CI checks the same digest.
    cmd = [sys.executable, "-c",
           "from holink.cli import main; raise SystemExit(main(['verify', '--seed', '42']))"]
    run = subprocess.run(cmd, capture_output=True)
    assert run.returncode == 0
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "3687a109501304091f87330266b8560cea12776cf3f6578ad9f57466758ef916")


# The child runs every scalar path, checking after each that numpy is still
# unloaded, then a 2x2 scan, which must load it: the check is not vacuous.
_NUMPY_FREE_SCRIPT = """
import sys
import holink, holink.cli
from holink import Divisor, RationalMapSpec

def numpy_free(step):
    assert "numpy" not in sys.modules, step

numpy_free("import holink, holink.cli")
sz, sw, ez, ew, out = sys.argv[1:]
for argv in (["lambda", "0.3+1.7i"], ["massey", "0.3+1.7i"], ["hodge"],
             ["link", sz, sw], ["link", ez, ew]):
    assert holink.cli.main(argv) == 0, argv
    numpy_free(argv)
tau = 0.3 + 1.7j
holink.massey_report(tau)
numpy_free("massey_report")
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
assert "numpy" in sys.modules, "scan ran without numpy"
"""


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
