"""End-to-end command-line checks: exit codes, JSON envelopes, file IO."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from stiffkit import __version__
from stiffkit.cli import _emit, main
from stiffkit.codes import (
    LatticeCode,
    cross_polytope,
    cube,
    demicube,
    load_code,
    ngon,
    save_code,
)
from stiffkit.exact import Surd, parse_scalar
from stiffkit.stiffness import dual_search
from stiffkit.suite import ALL_CRITERIA, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["--version"])
    assert ex.value.code == 0
    assert "stiffkit" in capsys.readouterr().out


def test_construct_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "d5.json"
    code, stdout, stderr = run(capsys, "construct", "demicube", "5", "-o", str(out))
    assert code == 0
    assert load_code(out).same_point_set(demicube(5))
    env = json.loads(stdout)
    assert env["tool"] == "stiffkit" and env["command"] == "construct"
    assert env["report"]["size"] == 16
    assert "demicube" in stderr


def test_construct_stdout_schema_is_loadable(tmp_path, capsys):
    code, stdout, _ = run(capsys, "construct", "cube", "3")
    assert code == 0
    path = tmp_path / "pipe.json"
    path.write_text(stdout)
    assert load_code(path).same_point_set(cube(3))


def test_envelope_and_raw_code_are_the_printed_dumps(capsys):
    # json.dump to stdout writes the bytes print(json.dumps(...)) wrote
    report = {"value": Fraction(1, 3), "rows": [[0.5, -1.0]], "none": None}
    _emit("probe", report, seed=3, tolerances={"tol": 1e-9})
    want = {"tool": "stiffkit", "version": __version__, "command": "probe",
            "seed": 3, "tolerances": {"tol": 1e-9}, "report": report}
    assert capsys.readouterr().out == json.dumps(want, indent=2, default=str) + "\n"
    _, stdout, _ = run(capsys, "construct", "cube", "3")
    assert stdout == json.dumps(cube(3).to_json_dict(), indent=2, default=str) + "\n"


def test_construct_unknown_name_is_usage_error(capsys):
    code, _, stderr = run(capsys, "construct", "dodecahedron")
    assert code == 2
    assert "unknown constructor" in stderr


def test_construct_bad_params_is_usage_error(capsys):
    assert run(capsys, "construct", "demicube", "five")[0] == 2
    assert run(capsys, "construct", "demicube", "5", "7")[0] == 2
    # out-of-range values the constructors reject
    assert run(capsys, "construct", "cube", "0")[0] == 2
    assert run(capsys, "construct", "ngon", "1")[0] == 2


def test_check_design_exact(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "check-design", str(f), "--nmax", "4")
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["strength"] == 3 and rep["exact"] is True
    assert rep["index_set"] == [1, 2, 3]


def test_check_design_float_mode(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "check-design", str(f), "--nmax", "4", "--float")
    assert code == 0
    env = json.loads(stdout)
    assert env["report"]["exact"] is False
    assert env["report"]["strength"] == 3
    assert "pair_sum_rel_tol" in env["tolerances"]


def test_check_design_exact_flag_on_float_code(tmp_path, capsys):
    f = tmp_path / "ngon.json"
    code, _, _ = run(capsys, "construct", "ngon", "7", "-o", str(f))
    assert code == 0
    assert run(capsys, "check-design", str(f), "--nmax", "3", "--exact")[0] == 2


@pytest.mark.parametrize("argv", [
    ["check-design", "--nmax", "1"],
    ["check-design", "--nmax", "1", "--float"],
    ["dual", "-m", "1"],
], ids=" ".join)
def test_code_on_s0_is_usage_error(tmp_path, capsys, argv):
    # two points in R^1 lie on S^0, where no Gegenbauer polynomial exists
    f = tmp_path / "seg.json"
    save_code(LatticeCode("seg", 1, 1, ((1,), (-1,))), f)
    code, stdout, stderr = run(capsys, argv[0], str(f), *argv[1:])
    assert code == 2
    assert stdout == ""
    assert "S^0" in stderr and "check failed" not in stderr


def test_dual_reports_certificate(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "2")
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["dual"]["count"] == 10
    assert rep["dual"]["mode"] == "exact"
    assert rep["certificate"]["stiff"] is True


@pytest.mark.parametrize("code,m", [
    (demicube(5), 2),
    (ngon(8), 4),
    (LatticeCode("e1", 4, 1, ((-1, 0, 0, 0), (1, 0, 0, 0))), 1),
], ids=["exact", "float", "subspace"])
def test_dual_json_is_the_certificates_dual(tmp_path, capsys, code, m):
    f = tmp_path / "code.json"
    save_code(code, f)
    rc, stdout, _ = run(capsys, "dual", str(f), "-m", str(m))
    assert rc == 0
    rep = json.loads(stdout)["report"]
    assert rep["dual"] == rep["certificate"]["dual"]
    assert rep["dual"] == dual_search(load_code(f), m).to_json_dict()


def test_dual_without_needed_nodes_fails(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "4")
    assert code == 1
    rep = json.loads(stdout)["report"]
    assert rep["dual"] is None and "reason" in rep


def test_dual_m_below_one_is_usage_error(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    with pytest.raises(SystemExit) as ex:
        main(["dual", str(f), "-m", "0"])
    assert ex.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err
    for argv in (["rotated-cubes", "0"],
                 ["check-design", str(f), "--nmax", "0"],
                 ["verify-min", str(f), "-m", "2", "--dual", str(f),
                  "--kernels", "riesz:1", "--restarts", "0"]):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 2, argv
        assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1e-9"), ("--tol", "x"),
    ("--argmin-tol", "nan"), ("--argmin-tol", "-1"), ("--argmin-tol", "inf"),
    ("--seed", "-1"), ("--seed", "1.5"), ("glue-seed", "-3"),
])
def test_bad_tolerance_or_seed_is_usage_error(tmp_path, capsys, flag, value):
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    argv = {
        "--tol": ["spectrum", str(f), "--probe", "0"],
        "--argmin-tol": ["verify-min", str(f), "-m", "2", "--dual", str(f),
                         "--kernels", "gauss:1", "--restarts", "4"],
        "--seed": ["verify-min", str(f), "-m", "2", "--dual", str(f),
                   "--kernels", "gauss:1", "--restarts", "4"],
        "glue-seed": ["glue", str(f), str(f), "-m", "2"],
    }[flag]
    with pytest.raises(SystemExit) as ex:
        main(argv + ["--seed" if flag == "glue-seed" else flag, value])
    assert ex.value.code == 2
    assert capsys.readouterr().out == ""


def test_code_file_with_wrong_dimension_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"name": "bad", "ambient_dim": 3, "norm_sq": 2,
                             "points": [[1, 1, 0], [1, 1]]}))
    code, _, stderr = run(capsys, "dual", str(f), "-m", "2")
    assert code == 2
    assert "bad code file" in stderr and "dimension" in stderr


def test_code_file_with_non_integral_coordinates_is_usage_error(tmp_path, capsys):
    # truncated, these points would be the square {+-e_1, +-e_2}, an exact
    # 3-design
    f = tmp_path / "frac.json"
    f.write_text(json.dumps({"name": "frac", "ambient_dim": 2, "norm_sq": 1,
                             "points": [[1.9, 0], [-1.9, 0], [0, 1.5], [0, -1.2]]}))
    code, stdout, stderr = run(capsys, "check-design", str(f), "--nmax", "3")
    assert (code, stdout) == (2, "")
    assert "bad code file" in stderr
    for field in ("ambient_dim", "norm_sq"):
        data = {"name": "sq", "ambient_dim": 2, "norm_sq": 1,
                "points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}
        data[field] = 2.5
        f.write_text(json.dumps(data))
        code, stdout, stderr = run(capsys, "check-design", str(f), "--nmax", "3")
        assert (code, stdout) == (2, ""), field
        assert "bad code file" in stderr


def test_dual_with_too_many_nodes_is_usage_error(tmp_path, capsys):
    f = tmp_path / "c3.json"
    save_code(cube(3), f)
    code, stdout, stderr = run(capsys, "dual", str(f), "-m", "2", "--nodes=0,1/3,-1/3")
    assert (code, stdout) == (2, "")
    assert "3 nodes supplied for m = 2" in stderr
    assert "check failed" not in stderr


def test_float_code_file_with_exact_repeat_at_tolerance_zero_is_usage_error(tmp_path, capsys):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({"name": "rep", "ambient_dim": 2, "tolerance": 0,
                             "points_decimal": [[1, 0], [1, 0], [0, 1], [-1, 0], [0, -1]]}))
    code, stdout, stderr = run(capsys, "check-design", str(f), "--nmax", "1")
    assert (code, stdout) == (2, "")
    assert "bad code file" in stderr and "closer than the tolerance" in stderr


def test_dual_with_supplied_nodes(tmp_path, capsys):
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "2",
                          "--nodes=-sqrt(1/3),sqrt(1/3)")
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["dual"]["count"] == 8
    assert rep["dual"]["nodes_supplied"] is True


def test_spectrum_by_index_and_coords(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "spectrum", str(f), "--probe", "0")
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert rep["exact"] is True and rep["entries"][-1]["count"] == 1

    code, stdout, _ = run(capsys, "spectrum", str(f), "--probe", "1,0,0,0,0")
    assert code == 0
    rep = json.loads(stdout)["report"]
    assert [e["count"] for e in rep["entries"]] == [8, 8]


def test_dual_of_a_subspace(tmp_path, capsys):
    f = tmp_path / "e1.json"
    save_code(LatticeCode("e1", 4, 1, ((-1, 0, 0, 0), (1, 0, 0, 0))), f)
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "1")
    assert code == 0
    dual = json.loads(stdout)["report"]["dual"]
    assert (dual["mode"], dual["count"]) == ("subspace", 0)
    assert dual["subspace_basis"] == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_spectrum_of_a_float_code(tmp_path, capsys):
    f = tmp_path / "n7.json"
    run(capsys, "construct", "ngon", "7", "-o", str(f))
    for probe in ("0.6,0.8", "0"):
        code, stdout, _ = run(capsys, "spectrum", str(f), "--probe", probe)
        assert code == 0, probe
        rep = json.loads(stdout)["report"]
        assert rep["exact"] is False, probe
        assert sum(e["count"] for e in rep["entries"]) == 7, probe
    # the vertex itself: dot 1 once, the six others in three pairs
    assert [e["count"] for e in rep["entries"]] == [2, 2, 2, 1]


def test_spectrum_bad_probe(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    for probe in ("99", "x,y", "0,0,0,0,0", "0.0,0,0,0,0", "nan,0,0,0,0",
                  "1,2", "1.5,2", "1,0,0,0,0,0"):
        code, stdout, _ = run(capsys, "spectrum", str(f), "--probe", probe)
        assert (code, stdout) == (2, ""), probe


def test_verify_min_pass_and_fail(tmp_path, capsys):
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    good = tmp_path / "dual.json"
    save_code(dual_search(cross_polytope(3), 2).as_code("dual"), good)
    code, stdout, _ = run(capsys, "verify-min", str(f), "-m", "2",
                          "--dual", str(good), "--kernels", "riesz:2,gauss:1",
                          "--restarts", "40")
    assert code == 0
    env = json.loads(stdout)
    assert all(r["passed"] for r in env["report"])
    assert env["seed"] == 0 and env["tolerances"]["argmin_tol"] == 1e-5

    bad = tmp_path / "bad.json"
    save_code(LatticeCode(
        "edge_midpoints", 3, 2,
        ((1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0))), bad)
    code, stdout, _ = run(capsys, "verify-min", str(f), "-m", "2",
                          "--dual", str(bad), "--kernels", "gauss:1",
                          "--restarts", "40")
    assert code == 1
    assert not json.loads(stdout)["report"][0]["passed"]

    other = tmp_path / "x4.json"
    save_code(cross_polytope(4), other)
    code, stdout, stderr = run(capsys, "verify-min", str(f), "-m", "2",
                               "--dual", str(other), "--kernels", "gauss:1")
    assert (code, stdout) == (2, "") and "dimension" in stderr


def test_verify_min_bad_kernel_is_usage_error(tmp_path, capsys):
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    code, stdout, stderr = run(capsys, "verify-min", str(f), "-m", "2", "--dual", str(f),
                               "--kernels", "riesz:x")
    assert (code, stdout) == (2, "")
    assert "'x'" in stderr
    assert "--kernels" in stderr and "riesz:x" in stderr


@pytest.mark.parametrize("spec", ["foo:1", "riesz:1/0"])
def test_verify_min_unknown_kernel_names_the_spec(tmp_path, capsys, spec):
    # an unknown family, and a parameter that Fraction divides by zero
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    code, stdout, stderr = run(capsys, "verify-min", str(f), "-m", "2", "--dual", str(f),
                               "--kernels", f"log,{spec}")
    assert (code, stdout) == (2, "")
    assert "--kernels" in stderr and spec in stderr


def test_verify_min_past_int64(tmp_path, capsys):
    # a square scaled by 2^70 gives the unit square's report, by its verdict
    s = 2 ** 70
    big, small, axes = (tmp_path / n for n in ("big.json", "small.json", "axes.json"))
    save_code(LatticeCode("big square", 2, 2 * s * s,
                          ((-s, -s), (-s, s), (s, -s), (s, s))), big)
    save_code(cube(2), small)
    save_code(cross_polytope(2), axes)
    reports = []
    for f in (big, small):
        code, stdout, stderr = run(capsys, "verify-min", str(f), "-m", "2",
                                   "--dual", str(axes), "--kernels", "riesz:1,gauss:1",
                                   "--restarts", "20")
        assert code == 0, stderr
        reports.append([{k: v for k, v in r.items() if k != "code"}
                        for r in json.loads(stdout)["report"]])
    assert reports[0] == reports[1]


def test_verify_min_requires_m_dual_dots(tmp_path, capsys):
    f = tmp_path / "x4.json"
    save_code(cross_polytope(4), f)
    dual = tmp_path / "dual.json"
    save_code(dual_search(cross_polytope(4), 2).as_code("dual"), dual)
    for m, want in ((2, 0), (1, 1)):
        code, stdout, _ = run(capsys, "verify-min", str(f), "-m", str(m),
                              "--dual", str(dual), "--kernels", "gauss:1",
                              "--restarts", "40")
        assert code == want, m
        assert json.loads(stdout)["report"][0]["passed"] is (want == 0)


def test_symmetrize_roundtrip(tmp_path, capsys):
    f = tmp_path / "d5.json"
    out = tmp_path / "sym.json"
    save_code(demicube(5), f)
    assert run(capsys, "symmetrize", str(f), "-o", str(out))[0] == 0
    assert load_code(out).same_point_set(cube(5))


def test_facet_exact_and_unattained(tmp_path, capsys):
    f = tmp_path / "x4.json"
    out = tmp_path / "fx.json"
    save_code(cross_polytope(4), f)
    code, _, stderr = run(capsys, "facet", str(f), "--point", "1,0,0,0",
                          "--t", "0", "-o", str(out))
    assert code == 0
    assert "exact" in stderr
    assert load_code(out).same_point_set(cross_polytope(3))
    assert run(capsys, "facet", str(f), "--point", "1,0,0,0", "--t", "1/3")[0] == 1
    for point in ("0.0,0,0,0", "0,0,0,0", "1,0,0", "1.0,0,0,0,0"):
        code, stdout, _ = run(capsys, "facet", str(f), "--point", point, "--t", "0")
        assert (code, stdout) == (2, ""), point


def test_glue_and_reload(tmp_path, capsys):
    f = tmp_path / "x3.json"
    out = tmp_path / "glued.json"
    save_code(cross_polytope(3), f)
    code, stdout, _ = run(capsys, "glue", str(f), str(f), "-m", "2",
                          "--seed", "3", "-o", str(out))
    assert code == 0
    env = json.loads(stdout)
    assert env["seed"] == 3
    assert env["report"]["certificate"]["stiff"] is True
    assert load_code(out).size == 12


def test_glue_to_stdout(tmp_path, capsys):
    f = tmp_path / "x3.json"
    save_code(cross_polytope(3), f)
    code, stdout, _ = run(capsys, "glue", str(f), str(f), "-m", "2")
    assert code == 0
    report = json.loads(stdout)["report"]
    assert list(report) == ["code", "certificate"]
    assert len(report["code"]["points_decimal"]) == 12
    assert report["certificate"]["stiff"] is True


def test_glue_of_different_dimensions_is_usage_error(tmp_path, capsys):
    f3, f4 = tmp_path / "x3.json", tmp_path / "x4.json"
    save_code(cross_polytope(3), f3)
    save_code(cross_polytope(4), f4)
    code, stdout, stderr = run(capsys, "glue", str(f3), str(f4), "-m", "2")
    assert (code, stdout) == (2, "") and "dimension" in stderr


def test_glue_nonstiff_input_fails(tmp_path, capsys):
    f = tmp_path / "ngon5.json"
    run(capsys, "construct", "ngon", "5", "-o", str(f))
    code, _, stderr = run(capsys, "glue", str(f), str(f), "-m", "2")
    assert code == 1
    assert "check failed" in stderr


def test_rotated_cubes_certificate(tmp_path, capsys):
    out = tmp_path / "rc.json"
    code, stdout, _ = run(capsys, "rotated-cubes", "2", "-o", str(out))
    assert code == 0
    env = json.loads(stdout)
    assert env["report"]["certificate"]["stiff"] is True
    assert load_code(out).size == 16


def test_suite_subset(capsys):
    code, stdout, stderr = run(capsys, "suite", "--paper", "--only", "2,9")
    assert code == 0
    rows = json.loads(stdout)["report"]
    assert [r["number"] for r in rows] == [2, 9]
    assert all(r["passed"] for r in rows)
    assert "PASS" in stderr and "2/2 criteria passed" in stderr


def test_suite_requires_paper_flag(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["suite"])
    assert ex.value.code == 2


def test_suite_bad_only_token(capsys):
    assert run(capsys, "suite", "--paper", "--only", "2,x")[0] == 2
    assert run(capsys, "suite", "--paper", "--only", "13")[0] == 2
    assert run(capsys, "suite", "--paper", "--only", "0,2")[0] == 2
    for empty in ("", ","):
        code, stdout, stderr = run(capsys, "suite", "--paper", "--only", empty)
        assert (code, stdout) == (2, ""), empty
        assert "[ 1]" not in stderr, empty
    with pytest.raises(ValueError):
        run_suite([])
    with pytest.raises(ValueError):
        run_suite([len(ALL_CRITERIA) + 1])


def test_missing_file_is_io_error(capsys):
    assert run(capsys, "check-design", "/nonexistent/f.json", "--nmax", "3")[0] == 2


def test_size_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STIFFKIT_SIZE_CAP", "100")
    code, _, stderr = run(capsys, "construct", "2-41")
    assert code == 2
    assert "STIFFKIT_SIZE_CAP" in stderr
    for raw in ("abc", "0"):
        monkeypatch.setenv("STIFFKIT_SIZE_CAP", raw)
        for argv in (("suite", "--paper", "--only", "5"), ("construct", "cube", "3")):
            code, stdout, stderr = run(capsys, *argv)
            assert (code, stdout) == (2, ""), (raw, argv)
            assert "STIFFKIT_SIZE_CAP must be a positive integer" in stderr
            assert "bad parameters" not in stderr and "check failed" not in stderr


def test_square_free_split_over_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # the rectangle (+-1, +-10^17) against the probe (1, 0): the dots are
    # surds over 1 + 10^34 = 101 * 28559389 * ..., which trial division
    # cannot split below the cap (a code point as the probe shares the
    # code's norm, which unit_surd takes out of the root without a split)
    f = tmp_path / "rect.json"
    save_code(LatticeCode("rect", 2, 1 + 10**34,
                          tuple(sorted((a, b * 10**17) for a in (1, -1) for b in (1, -1)))), f)
    monkeypatch.setenv("STIFFKIT_SIZE_CAP", "1000")
    code, stdout, stderr = run(capsys, "spectrum", str(f), "--probe", "1,0")
    assert (code, stdout) == (2, "")
    assert "above the cap 1000" in stderr


def test_descent_starts_under_size_cap(tmp_path, capsys, monkeypatch):
    # restarts + code antipodes + dual points go through the cap before any
    # generator is spawned: demicube(5) has 16 antipode starts, its dual 10
    f, g = tmp_path / "d5.json", tmp_path / "x5.json"
    save_code(demicube(5), f)
    save_code(cross_polytope(5), g)
    monkeypatch.setenv("STIFFKIT_SIZE_CAP", "100")
    base = ["verify-min", str(f), "-m", "2", "--dual", str(g), "--kernels", "gauss:1"]
    for restarts, starts in ((101, 127), (75, 101)):
        code, stdout, stderr = run(capsys, *base, "--restarts", str(restarts))
        assert (code, stdout) == (2, ""), restarts
        assert f"descent starts needs {starts} items, above the cap 100" in stderr
    # exactly 100 starts run, and their clustering stays under the cap
    code, stdout, _ = run(capsys, *base, "--restarts", "74")
    assert code == 0
    assert json.loads(stdout)["report"][0]["n_antipode_starts"] == 16


def test_parse_scalar_grammar():
    assert parse_scalar("0") == Fraction(0)
    assert parse_scalar("1/3") == Fraction(1, 3)
    assert parse_scalar("-2/7") == Fraction(-2, 7)
    assert parse_scalar("sqrt(1/2)") == Surd.sqrt_of(Fraction(1, 2))
    assert parse_scalar("-sqrt(1/8)") == -Surd.sqrt_of(Fraction(1, 8))
    assert parse_scalar("0.25") == Fraction(1, 4)
    # the form `dual` prints for irrational nodes
    assert parse_scalar("-1/5*sqrt(5)") == -Surd.sqrt_of(Fraction(1, 5))
    for bad in ("sqrt(", "two", "nan", "inf", "-inf", "1/0"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_bad_scalars_are_usage_errors(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    for nodes in ("--nodes=nan,0", "--nodes=inf", "--nodes=sqrt(", "--nodes=1/0"):
        code, stdout, stderr = run(capsys, "dual", str(f), "-m", "2", nodes)
        assert code == 2, nodes
        assert stdout == "" and "cannot parse scalar" in stderr
    assert run(capsys, "facet", str(f), "--point", "1,0,0,0,0", "--t", "nan")[0] == 2


def test_dual_nodes_round_trip(tmp_path, capsys):
    # the nodes `dual` prints, fed back through --nodes, give the same dual
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "2")
    assert code == 0
    first = json.loads(stdout)["report"]["certificate"]
    assert first["dual"]["nodes"] == ["-1/5*sqrt(5)", "1/5*sqrt(5)"]
    nodes = "--nodes=" + ",".join(first["dual"]["nodes"])
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "2", nodes)
    assert code == 0
    second = json.loads(stdout)["report"]["certificate"]
    for key in ("stiff", "design_strength", "properties", "frequency_table"):
        assert second[key] == first[key], key
    for key in ("mode", "count", "nodes", "points"):
        assert second["dual"][key] == first["dual"][key], key
    assert second["dual"]["nodes_supplied"] is True
    # and a second pass through the printed nodes is a fixed point
    nodes = "--nodes=" + ",".join(second["dual"]["nodes"])
    code, stdout, _ = run(capsys, "dual", str(f), "-m", "2", nodes)
    assert code == 0
    assert json.loads(stdout)["report"]["certificate"] == second


def test_reports_embed_version(tmp_path, capsys):
    f = tmp_path / "d5.json"
    save_code(demicube(5), f)
    _, stdout, _ = run(capsys, "dual", str(f), "-m", "2")
    env = json.loads(stdout)
    from stiffkit import __version__
    assert env["version"] == __version__
