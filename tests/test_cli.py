"""Command-line interface: outputs, schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from importlib import resources

import incewave
from incewave import cli
from incewave.cli import build_parser, finite_float, main


def run(tmp_path, *argv):
    return main(list(argv))


def validate(doc, schema_name):
    base = resources.files("incewave") / "schemas"
    schema = json.loads((base / schema_name).read_text())
    jsonschema.validate(doc, schema)


def validate_sidecar(out, command):
    # a CSV output written to a path has its manifest beside it
    sidecar = str(out) + ".manifest.json"
    manifest = json.loads(Path(sidecar).read_text())
    validate(manifest, "manifest.schema.json")
    assert manifest["output_paths"] == [str(out), sidecar]
    assert manifest["command"] == command


def test_spectrum_json_schema(tmp_path):
    out = tmp_path / "spec.json"
    assert run(tmp_path, "spectrum", "--parity", "even", "--n", "1", "--a", "12",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate(doc, "spectrum.schema.json")
    vals = doc["data"]["eigenvalues"]
    assert vals[0] == pytest.approx(2 + math.sqrt(148), rel=1e-14)
    assert vals[1] == pytest.approx(2 - math.sqrt(148), rel=1e-14)


def test_spectrum_trivial_odd(tmp_path):
    out = tmp_path / "s.json"
    assert run(tmp_path, "spectrum", "--parity", "odd", "--n", "0", "--a", "5",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["data"]["eigenvalues"] == [1]
    assert doc["data"]["eigenvectors"] == [[1]]


def test_spectrum_extended_contains_figure_value(tmp_path):
    out = tmp_path / "s.json"
    assert run(tmp_path, "spectrum", "--parity", "even", "--n", "15", "--a", "12",
               "--tier", "extended", "--out", str(out)) == 0
    vals = json.loads(out.read_text())["data"]["eigenvalues"]
    assert min(abs(v - 718.092858484742) for v in vals) < 1e-9


def test_spectrum_csv_layout(tmp_path):
    out = tmp_path / "s.csv"
    assert run(tmp_path, "spectrum", "--parity", "even", "--n", "2", "--a", "1",
               "--format", "csv", "--out", str(out)) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,eta,r,coeff"
    assert len(lines) == 1 + 4 * 4  # dim 4: one row per (k, r)
    assert "\r" not in text
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    validate_sidecar(out, "spectrum")


def test_spectrum_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(tmp_path, "spectrum", "--parity", "even", "--n", "5", "--a", "3.7",
                   "--tier", "extended", "--out", str(out)) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert json.dumps(da["data"], sort_keys=True) == json.dumps(db["data"], sort_keys=True)


def test_spectrum_invalid_params_exit2(tmp_path):
    assert run(tmp_path, "spectrum", "--parity", "even", "--n", "0", "--a", "1") == 2
    assert run(tmp_path, "spectrum", "--parity", "even", "--n", "2", "--a", "-1") == 2


def test_io_error_exit3(tmp_path):
    assert run(tmp_path, "spectrum", "--parity", "odd", "--n", "0", "--a", "1",
               "--out", str(tmp_path / "missing" / "x.json")) == 3


def test_seedless_flag_accepts_bare_and_rejects_value(tmp_path):
    assert run(tmp_path, "spectrum", "--parity", "odd", "--n", "0", "--a", "1",
               "--seedless", "--out", str(tmp_path / "x.json")) == 0
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "spectrum", "--parity", "odd", "--n", "0", "--a", "1",
            "--seedless=true")
    assert exc.value.code == 2


def test_wavefunction_csv(tmp_path):
    out = tmp_path / "w.csv"
    assert run(tmp_path, "wavefunction", "--parity", "odd", "--n", "0", "--a", "0",
               "--eta", "1", "--points", "64", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "xi,re,im,abs"
    assert len(lines) == 65
    for row in lines[1:]:
        assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-12)
    validate_sidecar(out, "wavefunction")


def test_wavefunction_json_schema_and_prefactor(tmp_path):
    out = tmp_path / "w.json"
    sout = tmp_path / "s.json"
    assert run(tmp_path, "wavefunction", "--parity", "even", "--n", "15", "--a", "12",
               "--eta", "718.09", "--tier", "extended", "--with-prefactor",
               "--points", "128", "--format", "json", "--out", str(out),
               "--strengths-out", str(sout)) == 0
    doc = json.loads(out.read_text())
    validate(doc, "wavefunction.schema.json")
    assert doc["data"]["k"] == 5
    assert doc["data"]["eta"] == pytest.approx(718.092858484742, abs=1e-9)
    sdoc = json.loads(sout.read_text())
    validate(sdoc, "strengths.schema.json")
    assert sdoc["manifest"]["command"] == "wavefunction-strengths"
    assert sdoc["manifest"]["output_paths"] == [str(sout)]
    assert sdoc["data"]["k"] == 5


def test_wavefunction_eta_selector_failure(tmp_path, capsys):
    code = run(tmp_path, "wavefunction", "--parity", "even", "--n", "2", "--a", "1",
               "--eta", "200", "--out", str(tmp_path / "w.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "nearest candidates" in err


@pytest.mark.parametrize("n,a,eta,listed", [
    # the full vector stage raises at this n and a ("residual out of
    # tolerance for label k=4"); the candidate list needs only the values
    (40, "100", "1e6", None),
    (15, "12", "1000", "935.99999999999966, 822.70456044451794, 822.70456044451623"),
])
def test_wavefunction_eta_tol_failure_lists_candidates(tmp_path, capsys, n, a, eta, listed):
    assert run(tmp_path, "wavefunction", "--parity", "even", "--n", str(n), "--a", a,
               "--eta", eta, "--eta-tol", "1", "--out", str(tmp_path / "w.csv")) == 2
    err = capsys.readouterr().err
    candidates = err.strip().split("nearest candidates: ")[1].split(", ")
    assert len(candidates) == 3 and all(math.isfinite(float(c)) for c in candidates)
    if listed is not None:
        assert ", ".join(candidates) == listed
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("parity,n,points", [
    ("odd", 0, 2**18 + 1),  # over the bound on points
    ("even", 15, 2**22 // 30 + 1),  # over the bound on points x dim
    ("odd", 15, 100_000_000),  # a 48 GB phase matrix
    ("odd", 0, -5),  # a negative count
])
def test_wavefunction_points_bounded(tmp_path, capsys, parity, n, points):
    # refused, exit 2, before the solve and the trace; only refused values run
    out = tmp_path / "w.csv"
    assert run(tmp_path, "wavefunction", "--parity", parity, "--n", str(n), "--a", "12",
               "--eta", "0", "--eta-tol", "1e9", "--points", str(points), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --points") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("a,eta", [
    ("5000", "2000"),  # e^(a/4) = e^1250 at xi = pi is beyond float range
    ("2839", "-14189"),  # e^709.75 is finite, but |f(pi)| = 2.0 for this label
])
def test_wavefunction_prefactor_overflow_exit2(tmp_path, capsys, a, eta):
    # no rows of inf
    out = tmp_path / "w.json"
    code = run(tmp_path, "wavefunction", "--parity", "even", "--n", "3", "--a", a,
               "--eta", eta, "--eta-tol", "1e9", "--xi-min", "3", "--xi-max", "3.3",
               "--points", "3", "--with-prefactor", "--format", "json", "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--parity", "even", "--n", "5", "--a", "1e308"],
    ["scan", "--parity", "odd", "--n-min", "3", "--n-max", "3", "--a", "1e200"],
    ["physics", "--photon-ev", "2", "--plasma-ev", "1", "--intensity-wcm2", "1e308"],
    ["physics", "--photon-ev", "1e300", "--plasma-ev", "1", "--intensity-wcm2", "1e300"],
])
def test_overflowing_inputs_exit2(tmp_path, capsys, argv):
    # a typed error, one line, no output file and no numpy warning
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("parity,n,a,tier", [("even", 5, "1e200", "double"),
                                              ("even", 5, "1e200", "extended"),
                                              ("odd", 3, "1e300", "extended")])
def test_spectrum_at_huge_a(tmp_path, capsys, parity, n, a, tier):
    # exit 0, nothing on stderr and no numpy warning; the inverse sweeps of
    # the last case overflow and keep the LAPACK vectors
    out = tmp_path / "s.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "spectrum", "--parity", parity, "--n", str(n), "--a", a,
                   "--tier", tier, "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    assert len(json.loads(out.read_text())["data"]["eigenvalues"]) == 2 * n + (parity == "odd")


def test_wavefunction_strengths_sum(tmp_path):
    out = tmp_path / "w.csv"
    sout = tmp_path / "strengths.csv"
    assert run(tmp_path, "wavefunction", "--parity", "even", "--n", "15", "--a", "12",
               "--eta", "718.09", "--out", str(out), "--strengths-out", str(sout)) == 0
    lines = sout.read_text().strip().split("\n")
    assert lines[0] == "r,strength"
    total = sum(float(row.split(",")[1]) for row in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)
    validate_sidecar(out, "wavefunction")
    validate_sidecar(sout, "wavefunction-strengths")


def test_physics_report(tmp_path):
    out = tmp_path / "p.json"
    assert run(tmp_path, "physics", "--photon-ev", "1.563", "--plasma-ev", "1.0",
               "--intensity-wcm2", "1e8", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate(doc, "physics.schema.json")
    d = doc["data"]
    assert 13.3 <= d["first_principles"]["a"] <= 13.9
    assert 13.3 <= d["handbook"]["a"] <= 13.9
    assert d["handbook"]["mu0"] == pytest.approx(6.782e-6, rel=1e-3)
    assert d["discrepancy_percent"]["a"] < 3.0


def test_physics_kiefer_anchor(tmp_path):
    out = tmp_path / "p.json"
    assert run(tmp_path, "physics", "--photon-ev", "1.563", "--plasma-ev", "1.0",
               "--intensity-wcm2", "6e20", "--out", str(out)) == 0
    d = json.loads(out.read_text())["data"]
    assert d["first_principles"]["mu0"] == pytest.approx(16.61, abs=0.1)


def test_physics_not_underdense_exit2(tmp_path):
    assert run(tmp_path, "physics", "--photon-ev", "1.0", "--plasma-ev", "1.5") == 2


def test_physics_density_input(tmp_path):
    out = tmp_path / "p.json"
    assert run(tmp_path, "physics", "--photon-ev", "1.563",
               "--density-cm3", "7.242e20", "--intensity-wcm2", "0",
               "--out", str(out)) == 0
    d = json.loads(out.read_text())["data"]
    assert d["inputs"]["plasma_energy_ev"] == pytest.approx(1.0, rel=5e-3)


def test_scan_table(tmp_path):
    out = tmp_path / "scan.json"
    assert run(tmp_path, "scan", "--parity", "even", "--n-min", "15", "--n-max", "15",
               "--a", "12", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate(doc, "scan.schema.json")
    rows = doc["data"]["rows"]
    assert len(rows) == 30
    for n, a, k, eta, gap, p_xi in rows:
        assert gap == (eta < 36.0)
        if not gap:
            assert p_xi == pytest.approx(math.sqrt(eta - 36.0), rel=1e-12)
        else:
            assert p_xi is None


def test_scan_trivial_rows_and_count(tmp_path):
    out = tmp_path / "scan.csv"
    assert run(tmp_path, "scan", "--parity", "odd", "--n-min", "0", "--n-max", "1",
               "--a", "1", "2", "3", "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    # dims: n=0 -> 1, n=1 -> 3, for 3 couplings each
    assert len(lines) == 1 + 3 * (1 + 3)
    n0 = [row for row in lines[1:] if row.startswith("0,")]
    for row in n0:
        assert float(row.split(",")[3]) == pytest.approx(1.0, abs=1e-13)
    validate_sidecar(out, "scan")


def test_scan_empty_grid_exit2(tmp_path):
    assert run(tmp_path, "scan", "--parity", "odd", "--n-min", "3", "--n-max", "1",
               "--a", "1") == 2
    assert run(tmp_path, "scan", "--parity", "even", "--n-min", "0", "--n-max", "2",
               "--a", "1") == 2


# Every float option of the parser, with arguments that make the rest of its
# command valid.
_BASE_ARGV = {
    "spectrum": ["--parity", "even", "--n", "2", "--a", "1"],
    "wavefunction": ["--parity", "even", "--n", "2", "--a", "1", "--eta", "1"],
    "physics": ["--photon-ev", "1.5", "--plasma-ev", "1"],
    "scan": ["--parity", "even", "--n-min", "1", "--n-max", "2", "--a", "1"],
    "verify": ["--parity", "even", "--n", "2", "--a", "1"],
}
_FLOAT_OPTIONS = [
    ("spectrum", "--a"), ("wavefunction", "--a"), ("wavefunction", "--eta"),
    ("wavefunction", "--eta-tol"), ("wavefunction", "--xi-min"),
    ("wavefunction", "--xi-max"), ("physics", "--photon-ev"), ("physics", "--plasma-ev"),
    ("physics", "--density-cm3"), ("physics", "--intensity-wcm2"), ("scan", "--a"),
    ("scan", "--pz"), ("scan", "--K"), ("verify", "--a"),
]


def test_float_option_list_is_complete():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and a.dest == "command")
    found, plain = set(), []
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type is finite_float:
                found.add((name, action.option_strings[0]))
            elif action.type is float:
                plain.append((name, action.option_strings[0]))
    assert found == set(_FLOAT_OPTIONS)
    assert plain == []


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command,option", _FLOAT_OPTIONS)
def test_non_finite_float_option_exit2(tmp_path, capsys, command, option, bad):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, *_BASE_ARGV[command], option, bad, "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()
    assert "must be a finite number" in capsys.readouterr().err


def test_verify_pass(tmp_path):
    out = tmp_path / "v.json"
    assert run(tmp_path, "verify", "--parity", "even", "--n", "15", "--a", "12",
               "--tier", "extended", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    validate(doc, "verify.schema.json")
    assert doc["data"]["passed"] is True


def test_verify_trivial_pass(tmp_path):
    assert run(tmp_path, "verify", "--parity", "odd", "--n", "0", "--a", "7",
               "--out", str(tmp_path / "v.json")) == 0


def test_verify_small_a_at_oracle_dimension_passes(tmp_path):
    # dim 5 at a=0.01: two eigenvalues near 9 split by 3.7e-7, which the
    # oracle's exact Sturm counts separate
    out = tmp_path / "v.json"
    assert run(tmp_path, "verify", "--parity", "odd", "--n", "2", "--a", "0.01",
               "--out", str(out)) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["data"]["checks"]}
    assert checks["oracle_delta"]["passed"]


def test_verify_identically_zero_gram_form_passes(tmp_path, capsys):
    # odd n=0 at a=0 is exact (eta = 1, D = [1]), but its one kernel entry is
    # I_1(0) = 0: the Gram ratios are measured against the form's bound 2*pi
    out = tmp_path / "v.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "verify", "--parity", "odd", "--n", "0", "--a", "0",
                   "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["data"]["checks"]
    assert all(math.isfinite(c["observed"]) and c["passed"] for c in checks)


def test_verify_corruption_exit1(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = run(tmp_path, "verify", "--parity", "even", "--n", "3", "--a", "1",
               "--corrupt-eta", "2", "--out", str(out))
    assert code == 1
    assert "ode_residual" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["data"]["passed"] is False


@pytest.mark.parametrize("label", ["0", "7", "99", "-1"])
def test_verify_corruption_label_out_of_range_exit2(tmp_path, capsys, label):
    out = tmp_path / "v.json"
    code = run(tmp_path, "verify", "--parity", "even", "--n", "3", "--a", "1",
               "--corrupt-eta", label, "--out", str(out))
    assert code == 2
    assert "outside 1..6" in capsys.readouterr().err
    assert not out.exists()


_PHYSICS = ["physics", "--photon-ev", "1.563", "--plasma-ev", "1.0", "--intensity-wcm2", "1e8"]


def _without_wall_time(path):
    return [line for line in path.read_text().splitlines() if '"wall_time_s":' not in line]


def test_parser_is_built_once_across_subcommands(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as built:
        assert main(["spectrum", "--parity", "even", "--n", "2", "--a", "1",
                     "--out", str(tmp_path / "s.json")]) == 0
        assert main([*_PHYSICS, "--out", str(tmp_path / "p.json")]) == 0
        assert main(["verify", "--parity", "odd", "--n", "1", "--a", "1",
                     "--out", str(tmp_path / "v.json")]) == 0
        assert main(["scan", "--parity", "odd", "--n-min", "0", "--n-max", "1", "--a", "1",
                     "--out", str(tmp_path / "c.json")]) == 0
    assert built.call_count == 1


def test_valid_call_after_a_usage_error_gives_its_own_output(tmp_path, monkeypatch):
    argv = ["verify", "--parity", "even", "--n", "2", "--a", "1"]
    monkeypatch.setattr(cli, "_PARSER", None)
    assert main([*argv, "--out", str(tmp_path / "fresh.json")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--parity", "even", "--n", "2", "--a", "nan",
              "--out", str(tmp_path / "bad.json")])
    assert exc.value.code == 2
    assert main([*argv, "--out", str(tmp_path / "again.json")]) == 0
    assert not (tmp_path / "bad.json").exists()
    fresh = _without_wall_time(tmp_path / "fresh.json")
    again = _without_wall_time(tmp_path / "again.json")
    assert again == [line.replace("fresh.json", "again.json") for line in fresh]


def test_handler_replaced_after_the_first_call_runs(tmp_path, monkeypatch):
    assert main([*_PHYSICS, "--out", str(tmp_path / "p.json")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_physics", lambda args: seen.append(args.photon_ev) or 7)
    assert main(_PHYSICS) == 7
    assert seen == [1.563]


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; loading it would add to every CLI
    # process's start-up time
    code = ("import sys, incewave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(incewave.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_seventeen_digit_serialization(tmp_path):
    out = tmp_path / "s.json"
    run(tmp_path, "spectrum", "--parity", "even", "--n", "1", "--a", "12",
        "--out", str(out))
    text = out.read_text()
    doc = json.loads(text)
    v = doc["data"]["eigenvalues"][0]
    # 17 significant digits round-trip the underlying float bit-exactly
    assert float(format(v, ".17g")) == v
    assert v == pytest.approx(2 + math.sqrt(148), rel=1e-15)
    # and the serialized text carries the full precision (not a short repr)
    assert format(v, ".17g") in text


SPECIAL_FLOATS = [math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                  0.1, 1.0 / 3.0, 718.0928584868179, -163.70616441570896]


def test_flat_float_lists_render_as_the_generic_path():
    # plain floats take the one-pass path; numpy floats and mixed lists the
    # per-element one, which must give the same bytes
    from incewave.cli import _csv_lines, render_json

    generic = np.array(SPECIAL_FLOATS)
    assert all(type(v) is np.float64 for v in list(generic))
    assert render_json(SPECIAL_FLOATS) == render_json(generic)
    assert render_json(SPECIAL_FLOATS) == "[" + ", ".join(map(render_json, generic)) + "]"
    assert render_json([SPECIAL_FLOATS, SPECIAL_FLOATS]) == render_json([generic, generic])
    assert render_json([]) == "[]"
    mixed = [1.5, 2, True, None, "s", math.nan, -0.0, np.float64(5e-324)]
    assert render_json(mixed) == ('[1.5, 2, true, null, "s", NaN, -0, '
                                  '4.9406564584124654e-324]')
    rows = [SPECIAL_FLOATS[i:i + 4] for i in range(0, len(SPECIAL_FLOATS), 4)]
    assert _csv_lines(["a", "b", "c", "d"], rows) == _csv_lines(["a", "b", "c", "d"],
                                                               [np.array(r) for r in rows])
    assert _csv_lines(["x", "y", "z"], [(1, -0.0, None), (True, math.nan, 5e-324)]) == \
        "x,y,z\n1,-0,\ntrue,NaN,4.9406564584124654e-324\n"
    # 4-float rows, as a wavefunction trace writes them, and rows or lists
    # holding a NaN take the one-call path too
    finite = [tuple(SPECIAL_FLOATS[i:i + 4]) for i in range(1, len(SPECIAL_FLOATS) - 3, 4)]
    assert _csv_lines(["a", "b", "c", "d"], finite) == _csv_lines(["a", "b", "c", "d"],
                                                                 [np.array(r) for r in finite])
    assert _csv_lines(["a", "b"], [(0.5, math.nan)]) == "a,b\n0.5,NaN\n"
    assert render_json([0.5, math.nan, -1e308]) == "[0.5, NaN, -1e+308]"
    assert render_json([0.5, math.inf, -math.inf]) == "[0.5, inf, -inf]"
