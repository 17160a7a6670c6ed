import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from wpkrylov import bounds, cdr, schwarz
from wpkrylov.cli import _SOLVERS, build_parser, main
from wpkrylov.matrixio import write_matrix_market, write_vector


@pytest.fixture
def calls(monkeypatch):
    """The positional arguments of every call to the problem assembly and
    the Schwarz partition and preconditioner builds, by function name."""
    seen = {}
    for module, name in ((cdr, "assemble"), (schwarz, "build_partition"),
                         (schwarz, "build_preconditioner")):
        def counted(*args, _real=getattr(module, name), _seen=seen.setdefault(name, []),
                    **kwargs):
            _seen.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return seen


@pytest.fixture
def identity_files(tmp_path):
    mtx = tmp_path / "eye.mtx"
    rhs = tmp_path / "b.txt"
    write_matrix_market(scipy.sparse.eye_array(3, format="csr"), mtx)
    write_vector(np.array([1.0, 2.0, 3.0]), rhs)
    return str(mtx), str(rhs)


@pytest.fixture
def skew_files(tmp_path):
    mtx = tmp_path / "skew.mtx"
    rhs = tmp_path / "e1.txt"
    write_matrix_market(scipy.sparse.csr_array(np.array([[0.0, 1.0], [-1.0, 0.0]])), mtx)
    write_vector(np.array([1.0, 0.0]), rhs)
    return str(mtx), str(rhs)


def test_solve_identity(identity_files, tmp_path, capsys):
    mtx, rhs = identity_files
    out = tmp_path / "report.json"
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--precond", "identity",
                 "--weight", "identity", "--solver", "gcr", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["iterations"] == 1
    assert report["status"] == "converged"
    assert "iterations=1" in capsys.readouterr().out


def test_solve_skew_breakdown_exit_code(skew_files, capsys):
    mtx, rhs = skew_files
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--precond", "identity",
                 "--weight", "identity", "--solver", "gcr"])
    assert code == 3
    assert "breakdown" in capsys.readouterr().out


def test_solve_skew_with_gmres_oracle_converges(skew_files, capsys):
    # the route for a system that GCR halts on: Arnoldi GMRES does not break
    # down where 0 is in the numerical range
    mtx, rhs = skew_files
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--precond", "identity",
                 "--weight", "identity", "--solver", "gmres-oracle"])
    assert code == 0
    assert "status=converged iterations=2" in capsys.readouterr().out


@pytest.mark.parametrize("a, b", [
    (np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
               [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]]), np.array([-1.0, -1.0, 0.0, 1.0])),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 0.0])),
], ids=["singular", "nilpotent"])
def test_gmres_oracle_breakdown_exit_code(tmp_path, capsys, a, b):
    # A singular on the Krylov space, which then holds no solution: the
    # oracle ends in a breakdown, without a warning (the suite fails on one).
    # The value printed is the oracle's Givens diagonal, so it is not
    # labelled as any one loop's quantity
    paths = {name: str(tmp_path / name) for name in ("m.mtx", "n.mtx", "b.txt")}
    write_matrix_market(scipy.sparse.csr_array(0.5 * (a + a.T)), paths["m.mtx"])
    write_matrix_market(scipy.sparse.csr_array(0.5 * (a - a.T)), paths["n.mtx"])
    write_vector(b, paths["b.txt"])
    code = main(["solve", "--matrix", paths["m.mtx"], "--matrix-skew", paths["n.mtx"],
                 "--rhs", paths["b.txt"], "--precond", "identity", "--weight", "identity",
                 "--solver", "gmres-oracle"])
    assert code == 3
    out = capsys.readouterr().out
    assert "status=breakdown" in out
    assert re.search(r"^breakdown at iteration \d+ \(value=-?\d\.\d{3}e[+-]\d{2}\)$",
                     out.splitlines()[-1])


def test_non_finite_rhs_is_usage_error(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    rhs = tmp_path / "b.txt"
    write_matrix_market(scipy.sparse.eye_array(3, format="csr"), mtx)
    rhs.write_text("1.0\nnan\n3.0\n", encoding="utf-8")
    code = main(["solve", "--matrix", str(mtx), "--rhs", str(rhs), "--precond", "identity",
                 "--weight", "identity"])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


GOOD_MTX = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"


@pytest.mark.parametrize("bad, mtx_text, rhs_text, fragment", [
    ("mtx", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 1.0\n",
     "1.0\n1.0\n", "finite"),
    ("mtx", "garbage\n", "1.0\n1.0\n", "bad banner"),
    ("mtx", "%%MatrixMarket matrix coordinate real general\n2 2\n", "1.0\n1.0\n",
     "bad size line"),
    ("mtx", "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 0.0\n",
     "1.0\n1.0\n", "real only"),
    ("mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
     "1.0\n1.0\n", "outside 2x2"),
    ("mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n",
     "1.0\n1.0\n", "invalid literal"),
    ("rhs", GOOD_MTX, "1.0\nabc\n", "could not convert"),
    ("rhs", GOOD_MTX, None, "No such file"),
], ids=["non-finite", "banner", "size-line", "complex-field", "index-range", "entry",
        "rhs-entry", "rhs-missing"])
def test_non_finite_matrix_is_usage_error(tmp_path, capsys, bad, mtx_text, rhs_text, fragment):
    # every malformed or missing input file is an error line naming the
    # file, not a traceback
    paths = {"mtx": tmp_path / "a.mtx", "rhs": tmp_path / "b.txt"}
    for key, text in (("mtx", mtx_text), ("rhs", rhs_text)):
        if text is not None:
            paths[key].write_text(text, encoding="utf-8")
    code = main(["solve", "--matrix", str(paths["mtx"]), "--rhs", str(paths["rhs"]),
                 "--precond", "identity", "--weight", "identity"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]}: ") and fragment in err


def test_non_square_matrix_is_usage_error(tmp_path, capsys):
    mtx = tmp_path / "a.mtx"
    rhs = tmp_path / "b.txt"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1.0\n2 2 1.0\n",
                   encoding="utf-8")
    rhs.write_text("1.0\n1.0\n", encoding="utf-8")
    code = main(["solve", "--matrix", str(mtx), "--rhs", str(rhs), "--precond", "identity",
                 "--weight", "identity"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {mtx}: matrix is 2x3, not square\n"


def test_skew_part_of_another_shape_is_usage_error(tmp_path, capsys):
    m_path = tmp_path / "m.mtx"
    n_path = tmp_path / "n.mtx"
    rhs = tmp_path / "b.txt"
    write_matrix_market(scipy.sparse.eye_array(2, format="csr"), m_path)
    write_matrix_market(scipy.sparse.eye_array(3, format="csr"), n_path)
    write_vector(np.array([1.0, 1.0]), rhs)
    code = main(["solve", "--matrix", str(m_path), "--matrix-skew", str(n_path),
                 "--rhs", str(rhs), "--precond", "identity", "--weight", "identity"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {n_path}: matrix is 3x3, --matrix is 2x2\n"


def test_usage_error_exit_code(capsys):
    assert main(["solve"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_solver_is_usage_error(identity_files):
    mtx, rhs = identity_files
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--solver", "nope",
                 "--weight", "identity"])
    assert code == 1


def test_bounds_direct_mode(capsys):
    assert main(["bounds", "--kappa", "63", "--rho", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.996" in out
    assert "3468" in out


def test_bounds_trivial_direct_mode(capsys):
    assert main(["bounds", "--kappa", "1", "--rho", "0"]) == 0
    assert "predicted iterations to 1e-6: 1" in capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    """``python -m wpkrylov.cli`` with these arguments, in a new interpreter
    that imports this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "wpkrylov.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_bounds_direct_mode_writes_its_report(tmp_path):
    # run as a module, so its __main__ line and exit code are checked too
    out = tmp_path / "r.json"
    done = run_module("bounds", "--kappa", "10", "--rho", "0.5", "--out", str(out))
    assert done.returncode == 0 and "bound3=0.959166" in done.stdout
    report = json.loads(out.read_text())
    assert report["metadata"] == {"problem": "direct mode"}
    assert {key: value for key, value in report["bound_report"].items() if value is not None} == {
        "kappa": 10.0, "rho": 0.5, "bound3": bounds.direct_bound3(10.0, 0.5)}


def test_bounds_problem_mode_writes_what_it_prints(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["bounds", "--cdr", "m=10", "--precond", "two-level", "--n-sub", "4",
                 "--out", str(out)]) == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines()
                   if "=" in line)
    report = json.loads(out.read_text())
    assert report["metadata"] == {"problem": "cdr m=10 nu=1.0 c0=1.0"}
    assert {key: f"{value:.8g}" for key, value in report["bound_report"].items()
            if value is not None} == printed
    assert len(printed) == 10


def test_rho_table_reaches_m60(tmp_path, capsys):
    # rho comes from sparse Lanczos, so m = 60 (n = 3481) is no longer skipped
    out = tmp_path / "rho.csv"
    code = main(["rho-table", "--m-list", "10,30,60", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "h=1/10: rho=0.31" in text
    assert "h=1/30: rho=0.33" in text
    assert "h=1/60: rho=0.33" in text
    assert "skipped" not in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "m,h,rho"
    assert len(lines) == 4
    assert float(lines[3].split(",")[2]) == pytest.approx(0.34, abs=0.005)


def test_bounds_w_equal_h_has_no_dense_size_guard(capsys):
    # m = 60 gives n = 3481, above the (50 - 1)^2 guard of the dense report
    flags = ["bounds", "--cdr", "m=60", "--precond", "two-level", "--n-sub", "4",
             "--layout", "grid:2x2"]
    assert main(flags) == 0
    assert "bound3=" in capsys.readouterr().out


def test_bounds_exact_sym_is_the_unit_kappa_reference(calls, capsys):
    # H = M^{-1} factors M once and partitions nothing
    assert main(["bounds", "--cdr", "m=20", "--precond", "exact-sym"]) == 0
    printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("predicted"))
    assert f"{float(printed['kappa']):.6f}" == "1.000000"
    assert float(printed["bound2"]) == pytest.approx(float(printed["bound3"]), rel=1e-7)
    assert not calls["build_partition"] and not calls["build_preconditioner"]


@pytest.mark.parametrize("m", [30, 52, 70])
def test_bounds_identity_weight_has_no_size_guard(capsys, m):
    # sym(A H) is indefinite on these problems, so the numerical range
    # holds 0 and bound1 = 1 with no search; m = 70 gives n = 4761 > 4096
    code = main(["bounds", "--cdr", f"m={m}", "--precond", "two-level", "--n-sub", "4",
                 "--layout", "grid:2x2", "--weight", "identity"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "fov_distance=0" in lines and "bound1=1" in lines
    if m == 30:
        assert "op_norm=4.2795492" in lines


def test_bounds_without_a_reaction_leaves_the_analytic_bound_out(capsys):
    # c0 = 0 is a valid problem, but the analytic rho bound needs c0 > 0
    assert main(["bounds", "--cdr", "m=10", "c0=0", "--precond", "two-level", "--n-sub", "4",
                 "--layout", "grid:2x2"]) == 0
    out = capsys.readouterr().out
    assert "bound3=" in out and "alpha_analytic" not in out


@pytest.mark.parametrize("argv", [
    ["solve", "--cdr", "m=10", "nu=-1"],
    ["solve", "--cdr", "m=10", "c0=-1"],
    ["solve", "--cdr", "m=10", "nu=nan"],
    ["bounds", "--cdr", "m=10", "nu=0"],
    ["sweep", "--axis", "coefficient", "--cdr", "m=10", "--coeff-list", "1,-1"],
    ["rho-table", "--nu", "-1", "--m-list", "10"],
], ids=["solve-nu", "solve-c0", "solve-nan", "bounds-nu", "sweep-coefficient", "rho-table"])
def test_bad_coefficients_are_rejected_before_assembly(calls, capsys, argv):
    assert main(argv) == 1
    assert "needs finite nu > 0 and c0 >= 0" in capsys.readouterr().err
    assert calls["assemble"] == []


@pytest.mark.parametrize("argv, fragment", [
    (["solve", "--cdr", "m=12", "--n-sub", "8", "--layout", "grid:2x2"], "must factor"),
    (["solve", "--cdr", "m=12", "--n-sub", "0"], "n_subdomains must be positive"),
    (["solve", "--cdr", "m=12", "--overlap", "-1"], "overlap_layers must be nonnegative"),
    (["solve", "--cdr", "m=3", "--n-sub", "10"], "more subdomains than unknowns"),
    (["solve", "--cdr", "m=6", "--n-sub", "16", "--layout", "grid:16x1"], "came out empty"),
    (["sweep", "--axis", "n-subdomains", "--cdr", "m=12", "--n-sub-list", "4,8",
      "--layout", "grid:2x2"], "must factor"),
], ids=["grid-shape", "no-subdomains", "negative-overlap", "too-many", "empty-core", "sweep"])
def test_bad_partitions_are_rejected_before_factorization(calls, capsys, argv, fragment):
    if argv[0] == "solve":
        argv = argv + ["--precond", "two-level", "--solver", "whp-gcr"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    # a sweep names the --n-sub-list entry that failed
    assert err.startswith("error: --n-sub-list: N=8: " if argv[0] == "sweep" else "error: --n-sub ")
    assert fragment in err
    assert calls["build_preconditioner"] == []


def test_unconverged_bound_report_is_an_error_line(monkeypatch, capsys):
    from wpkrylov import bounds

    monkeypatch.setattr(bounds, "LANCZOS_STEP_LIMIT", 2)
    code = main(["bounds", "--cdr", "m=10", "--precond", "two-level", "--n-sub", "4",
                 "--layout", "grid:2x2"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bound report: Lanczos did not converge")


# symmetric part diag(1, -1, 2): its local block is not positive definite
INDEFINITE = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize("precond, matrix, fragment", [
    ("one-level", INDEFINITE, "not positive definite"),
    ("two-level", INDEFINITE, "not positive definite"),
    ("one-level-nonsym", np.diag([1.0, 0.0, 2.0]), "singular"),
    ("exact-sym", INDEFINITE, "not positive definite"),
], ids=["one-level", "two-level", "one-level-nonsym", "exact-sym"])
def test_failed_preconditioner_factorization_is_usage_error(tmp_path, capsys, command,
                                                            precond, matrix, fragment):
    mtx = tmp_path / "a.mtx"
    rhs = tmp_path / "b.txt"
    write_matrix_market(scipy.sparse.csr_array(matrix), mtx)
    write_vector(np.ones(3), rhs)
    # a non-symmetric H cannot be the weight, so it runs with W = I
    weight = "identity" if precond == "one-level-nonsym" else "precond"
    code = main([command, "--matrix", str(mtx), "--rhs", str(rhs), "--precond", precond,
                 "--n-sub", "1", "--weight", weight])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --precond {precond}: ") and fragment in err


# M with one off-diagonal 0.5: the symmetric modes refuse it
NONSYMMETRIC_M = np.array([[2.0, 0.5, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])


@pytest.mark.parametrize("command", ["solve", "bounds"])
@pytest.mark.parametrize("precond", ["one-level", "two-level", "exact-sym"])
def test_nonsymmetric_m_is_usage_error(tmp_path, capsys, command, precond):
    paths = {name: str(tmp_path / name) for name in ("m.mtx", "n.mtx", "b.txt")}
    write_matrix_market(scipy.sparse.csr_array(NONSYMMETRIC_M), paths["m.mtx"])
    write_matrix_market(scipy.sparse.csr_array((3, 3)), paths["n.mtx"])
    write_vector(np.ones(3), paths["b.txt"])
    code = main([command, "--matrix", paths["m.mtx"], "--matrix-skew", paths["n.mtx"],
                 "--rhs", paths["b.txt"], "--precond", precond, "--n-sub", "1"])
    assert code == 1
    assert capsys.readouterr().err == f"error: --precond {precond}: matrix is not symmetric\n"


def test_max_iter_exit_code():
    code = main(["solve", "--cdr", "m=16", "nu=0.01", "c0=0.01",
                 "--precond", "identity", "--weight", "identity",
                 "--solver", "gcr", "--max-iter", "2"])
    assert code == 2


def test_rho_table_zero_convection_not_applicable(capsys):
    # rho-table always uses the reference convection field; a=0 requires the
    # library API, covered in the bounds tests
    code = main(["rho-table", "--m-list", "4"])
    assert code == 0


def test_solve_cdr_whp(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["solve", "--cdr", "m=12", "nu=1", "c0=1", "--precond", "two-level",
                 "--n-sub", "2", "--layout", "strips", "--solver", "whp-gcr",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "converged"
    assert report["metadata"]["solver"] == "whp-gcr"


def test_solver_variants_parse(tmp_path):
    for solver in ("mr", "orthomin:2", "gcr-restart:3", "gmres-oracle", "gcr-left"):
        code = main(["solve", "--cdr", "m=8", "--precond", "one-level", "--n-sub", "2",
                     "--solver", solver])
        assert code == 0, solver


def test_solver_help_names_every_solver():
    # the --solver help is written by hand: it must name each solver the
    # parser accepts, the windowed names with their parameter
    solve = build_parser()._subparsers._group_actions[0].choices["solve"]
    names = solve._option_string_actions["--solver"].help.split(" | ")
    assert len(names) == len(set(names))
    assert set(names) == {*_SOLVERS, "mr", "orthomin:K", "gcr-restart:K"}


def test_csv_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    flags = ["solve", "--cdr", "m=10", "--precond", "two-level", "--n-sub", "2",
             "--solver", "whp-gcr", "--format", "csv"]
    assert main(flags + ["--out", str(out1)]) == 0
    assert main(flags + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_coefficient_smoke(capsys):
    code = main(["sweep", "--axis", "coefficient", "--cdr", "m=10", "--n-sub", "2",
                 "--coeff-list", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "symmetric-part-only" in out


def test_sweep_mesh_budget(capsys):
    code = main(["sweep", "--axis", "mesh", "--m-list", "10,999", "--n-sub", "2"])
    assert code == 0
    assert "skipped" in capsys.readouterr().out


def test_solve_budget_guard():
    assert main(["solve", "--cdr", "m=999", "--solver", "whp-gcr",
                 "--precond", "one-level"]) == 1


def test_matrix_skew_pair_input(tmp_path):
    m_part = scipy.sparse.csr_array(np.array([[2.0, 0.0], [0.0, 3.0]]))
    n_part = scipy.sparse.csr_array(np.array([[0.0, 0.5], [-0.5, 0.0]]))
    m_path = tmp_path / "m.mtx"
    n_path = tmp_path / "n.mtx"
    rhs = tmp_path / "b.txt"
    write_matrix_market(m_part, m_path)
    write_matrix_market(n_part, n_path)
    write_vector(np.array([1.0, 1.0]), rhs)
    code = main(["solve", "--matrix", str(m_path), "--matrix-skew", str(n_path),
                 "--rhs", str(rhs), "--solver", "whp-gcr", "--precond", "one-level",
                 "--n-sub", "1"])
    assert code == 0


@pytest.mark.parametrize("axis", ["n-subdomains", "inner-product"])
def test_sweep_assembles_once(calls, capsys, axis):
    # one assembly per sweep, one two-level H per N: the GMRES and whp-gcr
    # rows of an inner-product N share it
    assert main(["sweep", "--axis", axis, "--cdr", "m=12", "--n-sub-list", "4,9"]) == 0
    assert [problem.mesh_divisions for problem, in calls["assemble"]] == [12]
    assert [mode for _, _, mode in calls["build_preconditioner"]] == ["two_level_sym"] * 2
    assert "N=9" in capsys.readouterr().out


def test_inner_product_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--axis", "inner-product", "--cdr", "m=12", "--n-sub-list", "4,9",
                 "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case,iterations,status"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "N=4 gmres", "N=4 whp-gcr", "N=9 gmres", "N=9 whp-gcr"]


@pytest.mark.parametrize("axis, cdr_flags, fragment", [
    ("n-subdomains", ["m=20", "nu=0.01", "bogus=1"], "unknown keys ['bogus']"),
    ("inner-product", ["m=12", "bogus=1"], "unknown keys ['bogus']"),
    ("coefficient", ["m=12", "nu=0.5"], "unknown keys ['nu']"),
    ("coefficient", ["m=12", "c0=2"], "unknown keys ['c0']"),
    ("mesh", ["m=10"], "unknown keys ['m']"),
    ("n-subdomains", ["m=12", "nu=abc"], "could not convert"),
], ids=["n-subdomains", "inner-product", "coefficient-nu", "coefficient-c0", "mesh-m",
        "not-a-float"])
def test_sweep_rejects_cdr_keys_its_axis_does_not_take(calls, capsys, axis, cdr_flags,
                                                       fragment):
    code = main(["sweep", "--axis", axis, "--m-list", "10", "--cdr", *cdr_flags])
    assert code == 1
    assert fragment in capsys.readouterr().err
    assert calls["assemble"] == []


@pytest.mark.parametrize("axis", ["n-subdomains", "inner-product", "coefficient"])
def test_sweep_checks_the_cdr_mesh_budget(calls, capsys, axis):
    assert main(["sweep", "--axis", axis, "--cdr", "m=999"]) == 1
    assert "exceeds the solve budget" in capsys.readouterr().err
    assert calls["assemble"] == []


@pytest.mark.parametrize("axis, cdr_flags", [
    ("n-subdomains", ["m=8", "nu=0.5", "c0=2"]),
    ("inner-product", ["m=8", "nu=0.5", "c0=2"]),
    ("mesh", ["nu=0.5", "c0=2"]),
], ids=["n-subdomains", "inner-product", "mesh"])
def test_sweep_solves_the_cdr_coefficients(calls, axis, cdr_flags):
    assert main(["sweep", "--axis", axis, "--m-list", "8", "--n-sub-list", "4",
                 "--cdr", *cdr_flags]) == 0
    assert [(p.mesh_divisions, p.nu, p.c0) for p, in calls["assemble"]] == [(8, 0.5, 2.0)]


@pytest.mark.parametrize("m, fields", [
    (8, ["fov_distance=0.42592342", "op_norm=4.2422904", "bound1=0.91259725"]),
    (16, ["fov_distance=0.0047476947", "op_norm=4.2541323", "bound1=0.9999836"]),
    (30, ["fov_distance=0", "op_norm=4.2579845", "bound1=1"]),
    (70, ["fov_distance=0", "op_norm=4.2606274", "bound1=1"]),
], ids=["8", "16", "30", "70"])
def test_bounds_nonsym_h_has_no_size_guard(capsys, m, fields):
    # a weight other than H needs H^T, which the non-symmetric H applies by
    # transposed local solves: m = 70 gives n = 4761, past the 4096 columns
    # H used to be densified to; at m = 8 and 16 the numerical range
    # excludes 0, so the bound1 search runs through C^T
    code = main(["bounds", "--cdr", f"m={m}", "--precond", "one-level-nonsym", "--n-sub", "4",
                 "--layout", "grid:2x2", "--weight", "identity"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == fields


@pytest.mark.parametrize("argv, fragment", [
    (["solve", "--cdr", "m=10", "--precond", "one-level-nonsym"],
     "--weight precond requires a symmetric preconditioner"),
    (["bounds", "--cdr", "m=10", "--precond", "one-level-nonsym"],
     "--weight precond requires a symmetric preconditioner"),
    (["solve", "--cdr", "m=10", "--precond", "one-level-nonsym", "--weight", "identity",
      "--solver", "whp-gcr"], "--solver whp-gcr requires a symmetric preconditioner"),
    # the retired storage-lean rearrangements of whp-gcr
    *[(["solve", "--cdr", "m=10", "--precond", "two-level", "--solver", solver],
       f"unknown solver '{solver}'") for solver in ("whp-gcr-alt-a", "whp-gcr-alt-b")],
    (["solve", "--cdr", "m=10", "--precond", "two-level", "--solver", "gcr-restart:0"],
     "--solver gcr-restart:0: restart_period must be >= 1"),
    (["solve", "--cdr", "m=10", "--precond", "two-level", "--solver", "orthomin:-1"],
     "--solver orthomin:-1: truncation_window must be >= 0"),
    (["solve", "--cdr", "m=10", "--precond", "two-level", "--solver", "orthomin:x"],
     "bad parameter in 'orthomin:x'"),
    (["solve", "--cdr", "m=10", "--precond", "two-level", "--solver", "bogus"],
     "unknown solver 'bogus'"),
], ids=["solve-weight", "bounds-weight", "whp-gcr", "whp-gcr-alt-a", "whp-gcr-alt-b",
        "restart-0", "orthomin-negative", "orthomin-text", "bogus"])
def test_bad_solver_pairing_is_rejected_before_assembly(calls, capsys, argv, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert calls["assemble"] == []


@pytest.mark.parametrize("argv, fragment", [
    (["solve", "--cdr", "m=10", "--tol", "0"], "rel_tolerance must be positive"),
    (["solve", "--cdr", "m=10", "--precond", "two-level", "--n-sub", "4", "--layout", "grid:2x2",
      "--solver", "whp-gcr", "--tol", "nan", "--max-iter", "40"],
     "rel_tolerance must be positive and finite"),
    (["solve", "--cdr", "m=10", "--max-iter", "-1"], "max_iterations must be >= 0"),
    (["sweep", "--axis", "mesh", "--m-list", "10", "--tol", "-1"],
     "rel_tolerance must be positive"),
    (["sweep", "--axis", "mesh", "--m-list", "10", "--tol", "inf"],
     "rel_tolerance must be positive and finite"),
    (["sweep", "--axis", "n-subdomains", "--cdr", "m=12", "--max-iter", "-1"],
     "max_iterations must be >= 0"),
], ids=["solve-tol", "solve-tol-nan", "solve-max-iter", "sweep-tol", "sweep-tol-inf",
        "sweep-max-iter"])
def test_bad_solve_settings_are_rejected_before_assembly(calls, capsys, argv, fragment):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol ") and fragment in captured.err
    assert captured.out == ""
    assert calls["assemble"] == []


@pytest.mark.parametrize("argv, message", [
    (["solve", "--cdr", "m"], "--cdr: expected key=value, got 'm'"),
    (["solve", "--cdr", "nu=1"], "--cdr needs m=INT"),
    (["solve", "--cdr", "m=10", "--layout", "grid:3"],
     "bad grid layout 'grid:3', expected grid:PxQ"),
    (["solve", "--cdr", "m=10", "--layout", "hex"], "unknown layout 'hex'"),
    (["solve", "--matrix", "{mtx}"], "--rhs is required with --matrix"),
    (["solve", "--matrix", "{mtx}", "--rhs", "{short}"],
     "right-hand side length does not match the matrix"),
    (["solve", "--matrix", "{mtx}", "--rhs", "{rhs}", "--layout", "grid", "--precond",
      "one-level"], "grid layout requires a --cdr problem (coordinates)"),
    (["bounds", "--kappa", "5"], "direct mode needs both --kappa and --rho"),
    (["bounds", "--kappa", "0.5", "--rho", "0.1"], "--kappa must be finite and >= 1, got 0.5"),
    (["bounds", "--kappa", "nan", "--rho", "0.1"], "--kappa must be finite and >= 1, got nan"),
    (["bounds", "--kappa", "inf", "--rho", "0.1"], "--kappa must be finite and >= 1, got inf"),
    (["bounds", "--kappa", "5", "--rho", "-1"], "--rho must be finite and >= 0, got -1.0"),
    (["bounds", "--kappa", "5", "--rho", "nan"], "--rho must be finite and >= 0, got nan"),
    (["rho-table", "--m-list", "1"], "--m-list: m=1: mesh_divisions must be at least 2"),
    # every mesh is checked before the first one is assembled
    (["rho-table", "--m-list", "10,1"], "--m-list: m=1: mesh_divisions must be at least 2"),
    (["rho-table", "--m-list", ","], "--m-list: empty int list ','"),
    (["sweep", "--axis", "mesh", "--m-list", ","], "--m-list: empty int list ','"),
    (["sweep", "--axis", "n-subdomains", "--cdr", "m=12", "--n-sub-list", ""],
     "--n-sub-list: empty int list ''"),
    (["sweep", "--axis", "coefficient", "--cdr", "m=12", "--coeff-list", ",,"],
     "--coeff-list: empty float list ',,'"),
    # a bad list entry names its list flag, not --cdr or --n-sub
    (["sweep", "--axis", "mesh", "--m-list", "1"],
     "--m-list: m=1: mesh_divisions must be at least 2"),
    (["sweep", "--axis", "n-subdomains", "--cdr", "m=12", "--n-sub-list", "0"],
     "--n-sub-list: N=0: n_subdomains must be positive"),
    (["sweep", "--axis", "mesh", "--m-list", "10,x"], "--m-list: bad int list '10,x'"),
], ids=["cdr-no-equals", "cdr-no-m", "grid-no-shape", "unknown-layout", "matrix-no-rhs",
        "rhs-length", "grid-with-matrix", "kappa-no-rho", "kappa-below-1", "kappa-nan",
        "kappa-inf", "rho-negative", "rho-nan", "rho-table-m-1", "rho-table-m-10-1",
        "rho-table-empty", "sweep-mesh-empty", "sweep-n-sub-empty", "sweep-coeff-empty",
        "sweep-mesh-m-1", "sweep-n-sub-0", "sweep-mesh-bad-int"])
def test_usage_errors_stop_before_assembly(calls, identity_files, tmp_path, capsys, argv,
                                           message):
    mtx, rhs = identity_files
    short = tmp_path / "short.txt"
    write_vector(np.ones(2), short)
    assert main([token.format(mtx=mtx, rhs=rhs, short=short) for token in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert calls == {"assemble": [], "build_partition": [], "build_preconditioner": []}


SWEEP_AXES = {
    "n-subdomains": ["--cdr", "m=12", "--n-sub-list", "4"],
    "inner-product": ["--cdr", "m=12", "--n-sub-list", "4"],
    "mesh": ["--m-list", "12", "--n-sub", "4"],
    "coefficient": ["--cdr", "m=12", "--n-sub", "4", "--coeff-list", "1"],
}


@pytest.mark.parametrize("layout, kind, shape", [
    (None, "grid", None), ("strips", "strips", None), ("grid:1x4", "grid", (1, 4))])
@pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
def test_sweep_reads_the_layout_on_every_axis(calls, capsys, axis, layout, kind, shape):
    flags = [] if layout is None else ["--layout", layout]
    assert main(["sweep", "--axis", axis, *SWEEP_AXES[axis], *flags]) == 0
    specs = [spec for _, spec in calls["build_partition"]]
    assert specs and all((spec.layout, spec.grid_shape) == (kind, shape) for spec in specs)
    if axis == "coefficient":
        assert f"two-level {layout or 'grid'}," in capsys.readouterr().out


def test_sweep_partitions_every_row_before_factoring(calls, capsys):
    code = main(["sweep", "--axis", "n-subdomains", "--cdr", "m=3", "--n-sub-list", "1,10"])
    assert code == 1
    assert "more subdomains than unknowns" in capsys.readouterr().err
    assert len(calls["assemble"]) == 1
    assert calls["build_preconditioner"] == []


SOLVE_ONLY_FLAGS = {
    "sweep": [("--matrix", "a.mtx"), ("--matrix-skew", "n.mtx"), ("--rhs", "b.txt"),
              ("--precond", "one-level"), ("--weight", "identity"),
              ("--stop-norm", "euclidean"), ("--format", "csv")],
    "bounds": [("--tol", "1e-8"), ("--max-iter", "10"), ("--stop-norm", "euclidean"),
               ("--format", "csv")],
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, pairs in SOLVE_ONLY_FLAGS.items()
    for flag, value in pairs])
def test_subcommand_rejects_a_flag_it_does_not_read(calls, capsys, command, flag, value):
    base = {"sweep": ["sweep", "--axis", "mesh", "--m-list", "4"],
            "bounds": ["bounds", "--cdr", "m=4"]}[command]
    assert main(base + [flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert calls["assemble"] == []
    build_parser().parse_args(["solve", "--cdr", "m=4", flag, value])
