"""CLI surface: formats, exit codes, determinism, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpbt
from dpbt import cli, oracle, telemat
from dpbt.cli import run
from dpbt.diagrams import _row_tuples, enumerate_diagrams, partition_counts
from dpbt.oracle import DEFAULT_CHECK_CELLS
from dpbt.protocol import optimal_solution
from dpbt.spectral import closed_form_d2
from dpbt.telemat import gram_H, incidence_edges, incidence_matrix, teleportation_matrix


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def read_csv(text):
    """(row labels, column labels, integer entries) of a matrix CSV."""
    header, *records = csv.reader(io.StringIO(text))
    return [r[0] for r in records], header[1:], tuple(tuple(map(int, r[1:])) for r in records)


class TestMatrixCommand:
    def test_csv_matches_gram(self):
        code, out, _ = invoke(
            ["matrix", "--ports", "4", "--dim", "4", "--kind", "MF", "--format", "csv"]
        )
        assert code == 0
        rows, cols, entries = read_csv(out)
        e = incidence_edges(4, 4)
        dense = incidence_matrix(e)
        assert entries == tuple(map(tuple, (dense.T @ dense).tolist()))
        assert rows == cols == list(e.col_basis.labels())
        assert len(out.strip().splitlines()) == 6  # header + 5 rows

    def test_json_payload(self):
        code, out, _ = invoke(["matrix", "--ports", "3", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["version"]
        assert payload["kind"] == "MF"
        assert payload["entries"] == [[1, 1], [1, 2]]

    def test_roundtrip_all_kinds(self):
        e = incidence_edges(5, 3)
        views = {
            "MF": (teleportation_matrix, e.col_basis, e.col_basis),
            "R": (incidence_matrix, e.row_basis, e.col_basis),
            "H": (gram_H, e.row_basis, e.row_basis),
        }
        for kind, (build, rows, cols) in views.items():
            code, out, _ = invoke(
                ["matrix", "--ports", "5", "--dim", "3", "--kind", kind, "--format", "csv"]
            )
            assert code == 0
            assert read_csv(out) == (
                list(rows.labels()),
                list(cols.labels()),
                tuple(map(tuple, build(e).tolist())),
            )
            code, out, _ = invoke(["matrix", "--ports", "5", "--dim", "3", "--kind", kind])
            assert code == 0 and json.loads(out)["kind"] == kind

    def test_kind_g_is_rejected(self):
        code, out, err = invoke(["matrix", "--ports", "4", "--dim", "3", "--kind", "G"])
        assert code == 1 and out == ""
        error, usage = err.split("\n", 1)
        assert "invalid choice: 'G'" in error and usage.startswith("usage: dpbt matrix")
        assert "[--kind {MF,R,H}]" in usage

    def test_h_json_reports_the_requested_port_count(self):
        code, out, _ = invoke(["matrix", "-N", "4", "-d", "3", "--kind", "H"])
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 4
        assert payload["basis"] == ["[3]", "[2,1]", "[1,1,1]"]

    def test_output_file(self, tmp_path):
        target = tmp_path / "m.csv"
        code, out, _ = invoke(
            ["matrix", "--ports", "3", "--dim", "2", "--format", "csv", "-o", str(target)]
        )
        assert code == 0 and out == ""
        assert read_csv(target.read_text()) == (["[3]", "[2,1]"], ["[3]", "[2,1]"], ((1, 1), (1, 2)))

    def test_refuses_dense_output_above_limit(self, tmp_path):
        # 3434 diagrams of 200 with height <= 3, so M_F has 3434^2 entries
        target = tmp_path / "m.json"
        for argv in (["--kind", "MF"], ["--kind", "MF", "-o", str(target)]):
            code, out, err = invoke(["matrix", "--ports", "200", "--dim", "3", *argv])
            assert code == 1 and out == ""
            assert "11792356 entries" in err and "limit of 10000000" in err
        assert not target.exists()


class TestFidelityCommand:
    def test_qubit_three_ports(self):
        code, out, _ = invoke(["fidelity", "--ports", "3", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed_d2"
        assert abs(payload["f_opt"] - math.cos(math.pi / 5) ** 2) < 1e-12
        assert abs(payload["f_sqrt_ent"] - 0.625) < 1e-12
        assert payload["f_lower"] == 0.5

    def test_qubit_four_ports_is_exact(self):
        # 4 cos^2(pi/6) = 3 exactly, so f_opt = 3/4
        payload = json.loads(invoke(["fidelity", "--ports", "4", "--dim", "2"])[1])
        assert payload["radius"] == 3.0 and payload["f_opt"] == 0.75

    @pytest.mark.parametrize("n", [1022, 2000])
    def test_large_qubit_cell_is_finite(self, n):
        # the square-root-measurement sum once overflowed a float at N = 1022
        code, out, _ = invoke(["fidelity", "--ports", str(n), "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["f_opt"] == math.cos(math.pi / (n + 2)) ** 2
        assert payload["f_lower"] <= payload["f_sqrt_ent"] <= payload["f_opt"]

    def test_product_budget_exhausted_exits_2(self):
        code, out, err = invoke(["fidelity", "--ports", "100", "--dim", "3", "--max-iter", "50"])
        assert code == 2 and out == ""
        assert err.startswith("computation failed: no certified radius within 50 products")
        assert "Traceback" not in err

    def test_deterministic_bytes(self):
        runs = {invoke(["fidelity", "--ports", "6", "--dim", "3"])[1] for _ in range(3)}
        assert len(runs) == 1

    def test_matches_sweep_row(self):
        code, out, _ = invoke(["fidelity", "--ports", "6", "--dim", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload.pop("version")
        _, rows, _ = invoke(["sweep", "--ports", "6", "--dims", "3"])
        assert payload == json.loads(rows)["rows"][0]


class TestSpectrumCommand:
    def test_full_regime(self):
        code, out, _ = invoke(["spectrum", "--ports", "4", "--dim", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["radius"] == 4.0
        assert payload["method"] == "closed_dgeN"
        assert payload["spectrum_multiplicities"] == {"4": 1, "2": 1, "1": 1, "0": 2}
        assert abs(payload["perron"]["[3,1]"] - 0.3) < 1e-12

    # every class of S(N) by label, in order: fixed points descending, then
    # parts; the eigenvalue of its character column is its fixed-point count
    EIGENVECTOR_CLASSES = {
        1: [("1^1", 1)],
        4: [("1^4", 4), ("1^2 2^1", 2), ("1^1 3^1", 1), ("2^2", 0), ("4^1", 0)],
        6: [
            ("1^6", 6),
            ("1^4 2^1", 4),
            ("1^3 3^1", 3),
            ("1^2 2^2", 2),
            ("1^2 4^1", 2),
            ("1^1 2^1 3^1", 1),
            ("1^1 5^1", 1),
            ("2^3", 0),
            ("3^2", 0),
            ("2^1 4^1", 0),
            ("6^1", 0),
        ],
    }

    @pytest.mark.parametrize("n", sorted(EIGENVECTOR_CLASSES))
    def test_eigenvector_classes(self, n):
        d = max(n, 2)  # d >= N, the smallest local dimension allowed
        code, out, _ = invoke(["spectrum", "--ports", str(n), "--dim", str(d)])
        assert code == 0
        want = [{"class": label, "eigenvalue": k} for label, k in self.EIGENVECTOR_CLASSES[n]]
        assert json.loads(out)["eigenvector_classes"] == want

    def test_full_regime_at_30_ports(self):
        code, out, _ = invoke(["spectrum", "--ports", "30", "--dim", "30"])
        assert code == 0
        mult = json.loads(out)["spectrum_multiplicities"]
        assert sum(mult.values()) == 5604  # p(30), one eigenvector per class
        assert "29" not in mult and mult["30"] == 1

    def test_qubit_regime(self):
        code, out, _ = invoke(["spectrum", "--ports", "6", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed_d2"
        assert payload["radius"] == payload["eigenvalues"][0]
        assert abs(sum(payload["perron"].values()) - 1) < 1e-12

    @pytest.mark.parametrize(
        "n, eigenvalues", [(1, [1.0]), (2, [2.0, 0.0]), (4, [3.0, 1.0, 0.0]), (6, closed_form_d2(6))]
    )
    def test_qubit_eigenvalues_list_the_radius_exactly(self, n, eigenvalues):
        payload = json.loads(invoke(["spectrum", "--ports", str(n), "--dim", "2"])[1])
        assert payload["eigenvalues"] == eigenvalues
        assert payload["bracket"] == [payload["radius"], payload["radius"]] == eigenvalues[:1] * 2

    def test_power_regime(self):
        code, out, _ = invoke(["spectrum", "--ports", "6", "--dim", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "lanczos"
        assert payload["iterations"] > 0
        assert abs(sum(payload["perron"].values()) - 1) < 1e-12
        lo, hi = payload["bracket"]
        assert lo == payload["radius"] and hi - lo <= 1e-12 * hi
        assert "residual" not in payload

    def test_closed_forms_have_a_point_bracket(self):
        for n, d in [(6, 2), (5, 5)]:
            payload = json.loads(invoke(["spectrum", "--ports", str(n), "--dim", str(d)])[1])
            assert payload["bracket"] == [payload["radius"], payload["radius"]]


class TestPovmCommand:
    def test_payload_shape(self):
        code, out, _ = invoke(["povm", "--ports", "2", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["v"]["[2]"] - 1 / math.sqrt(2)) < 1e-12
        assert abs(payload["o_coeffs"]["[1,1]"] - math.sqrt(2)) < 1e-12
        assert payload["p_coeffs"][0]["alpha"] == "[1]"
        assert payload["method"] == "closed_dgeN"
        code, out, _ = invoke(["povm", "--ports", "5", "--dim", "2"])
        assert code == 0 and json.loads(out)["method"] == "closed_d2"

    def test_large_qubit_cell_is_finite(self, gamma_table):
        # 2^1030 exceeds a double, yet every coefficient here fits one
        n, d = 1030, 2
        code, out, err = invoke(["povm", "--ports", str(n), "--dim", str(d)])
        assert code == 0, err
        payload = json.loads(out)
        values = [
            *payload["o_coeffs"].values(),
            *payload["c_coeffs"].values(),
            *(entry["p"] for entry in payload["p_coeffs"]),
        ]
        assert all(math.isfinite(x) and x > 0 for x in values)
        dn = d**n
        c = {tuple(json.loads(k)): Fraction(x) for k, x in payload["c_coeffs"].items()}
        basis = enumerate_diagrams(n, d)
        dims, mults = basis.numbers
        trace = sum(c[mu] * dm for mu, dm in zip(_row_tuples(basis), (dims * mults).tolist()))
        assert abs(trace / dn - 1) < 1e-12
        # exact lam = gamma / d^N: its float form is subnormal at this cell
        gamma = gamma_table(n, d)
        assert len(gamma) == len(payload["p_coeffs"])
        for entry in payload["p_coeffs"]:
            alpha, mu = (tuple(json.loads(entry[k])) for k in ("alpha", "mu"))
            lam = gamma[(alpha, mu)] / dn
            c_mu = c[mu]
            assert abs(Fraction(entry["p"]) ** 2 * lam / c_mu - 1) < 1e-12

    def test_coefficient_beyond_double_range_fails_cleanly(self):
        code, out, err = invoke(["povm", "--ports", "1050", "--dim", "2"])
        assert code == 2 and out == ""
        assert err.startswith("computation failed: p_mu(alpha) at alpha=[1049]")
        assert "N=1050, d=2" in err and "Traceback" not in err

    def test_first_coefficient_beyond_double_range_is_named(self):
        # p_[1045]([1044]) fits a double; the next edge of [1044] is the first that does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(["povm", "--ports", "1045", "--dim", "2"])
        assert (code, out) == (2, "")
        assert err == (
            "computation failed: p_mu(alpha) at alpha=[1044], mu=[1044,1] "
            "exceeds double range at N=1045, d=2\n"
        )

    def test_first_o_coefficient_beyond_double_range_is_named(self):
        # o_mu and c_mu are checked before p_mu(alpha); at N = 1060 the
        # single-row diagram is the first whose c_mu does not fit a double
        code, out, err = invoke(["povm", "-N", "1060", "-d", "2"])
        assert (code, out) == (2, "")
        assert err == "computation failed: o_mu, c_mu at mu=[1060] exceeds double range at N=1060, d=2\n"

    @pytest.mark.parametrize("n,d", [(6, 3), (40, 4)])
    def test_p_coeffs_sorted_by_diagram_rows(self, n, d):
        payload = json.loads(invoke(["povm", "--ports", str(n), "--dim", str(d)])[1])
        pairs = [(entry["alpha"], entry["mu"]) for entry in payload["p_coeffs"]]

        def rows(pair):
            return tuple(tuple(json.loads(label)) for label in pair)

        # the order of a sort of the (alpha, mu) pairs by their rows
        assert pairs == sorted(pairs, key=rows)
        sol = optimal_solution(telemat.incidence_edges(n, d))
        e = sol.edges
        alphas, mus = e.row_basis.labels(), e.col_basis.labels()
        by_pair = {
            (alphas[i], mus[j]): p
            for i, j, p in zip(e.parent.tolist(), e.child.tolist(), sol.p_coeffs.tolist())
        }
        assert len(by_pair) == len(pairs)
        assert [entry["p"] for entry in payload["p_coeffs"]] == [by_pair[pair] for pair in pairs]


class TestVerifyCommand:
    def test_single_cell_passes(self):
        code, out, _ = invoke(["verify", "--oracle", "--ports", "2", "--dim", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert all(r["passed"] for r in payload["checks"])

    def test_default_cells_pass(self, verify_oracle):
        code, out, _ = verify_oracle
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(r["N"], r["d"]) for r in checks[::26]] == list(DEFAULT_CHECK_CELLS)
        assert len(checks) == 26 * len(DEFAULT_CHECK_CELLS)
        assert all(r["passed"] for r in checks)

    def test_cap_exceeded_is_computation_failure(self):
        code, _, err = invoke(["verify", "--oracle", "--ports", "9", "--dim", "3"])
        assert code == 2
        assert "cap" in err

    def test_cap_field_names_both_bounds(self):
        code, out, _ = invoke(["verify", "--oracle", "--ports", "2", "--dim", "2"])
        assert code == 0
        assert json.loads(out)["cap"] == {"entries": oracle.MAX_ENTRIES, "scatter": oracle.MAX_SCATTER}

    def test_calls_run_checks_through_the_module(self, monkeypatch):
        # a wrapper set at dpbt.cli.run_checks, as the benchmark's tracer sets
        # one, is the function verify calls
        failed = oracle.CheckResult("stub", 1.0, 0.5, False)
        monkeypatch.setattr(cli, "run_checks", lambda n, d: [failed])
        code, out, _ = invoke(["verify", "--oracle", "-N", "2", "-d", "2"])
        assert code == 2
        assert [r["name"] for r in json.loads(out)["checks"]] == ["stub"]

    def test_only_verify_imports_the_oracle(self):
        # the oracle module is loaded on the first verify, not by the CLI
        script = (
            "import io, sys; import dpbt.cli as cli; "
            "cli.run(['fidelity', '-N', '3', '-d', '3'], out=io.StringIO()); "
            "print('dpbt.oracle' in sys.modules); "
            "cli.run(['verify', '--oracle', '-N', '2', '-d', '2'], out=io.StringIO()); "
            "print('dpbt.oracle' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert done.stdout.split() == ["False", "True"], done.stderr

    def test_requires_oracle_flag(self):
        code, _, err = invoke(["verify"])
        assert code == 1


class TestSweepCommand:
    def test_csv_57_rows(self, tmp_path):
        target = tmp_path / "out.csv"
        code, _, _ = invoke(
            ["sweep", "--ports", "2:20", "--dims", "2,3,4", "-o", str(target)]
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("N,d,f_lower,f_sqrt_ent,f_opt,method,radius,iterations")
        assert len(lines) == 58  # header + 19 * 3 cells

    def test_json_rows_ordered(self):
        code, out, _ = invoke(["sweep", "--ports", "2:4", "--dims", "3,2"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [(r["N"], r["d"]) for r in rows] == [
            (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3),
        ]

    def test_qubit_column_closed_form(self):
        code, out, _ = invoke(["sweep", "--ports", "2:10", "--dims", "2"])
        rows = json.loads(out)["rows"]
        for r in rows:
            assert abs(r["f_opt"] - math.cos(math.pi / (r["N"] + 2)) ** 2) < 1e-12


class TestValidation:
    def test_unknown_verb(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 1
        assert "usage" in err

    def test_dim_one_rejected(self):
        code, _, err = invoke(["fidelity", "--ports", "3", "--dim", "1"])
        assert code == 1
        assert "--dim" in err

    def test_ports_zero_rejected(self):
        code, _, _ = invoke(["matrix", "--ports", "0", "--dim", "2"])
        assert code == 1

    def test_bad_range(self):
        code, _, _ = invoke(["sweep", "--ports", "5:2", "--dims", "2"])
        assert code == 1
        code, _, _ = invoke(["sweep", "--ports", "2:5", "--dims", "x"])
        assert code == 1

    def test_options_that_select_nothing_are_rejected(self):
        for argv in (
            ["matrix", "--ports", "3", "--dim", "2", "--tol", "1e-9"],
            ["matrix", "--ports", "3", "--dim", "2", "--max-iter", "5"],
            ["verify", "--oracle", "--format", "json"],
            ["verify", "--oracle", "--tol", "1e-6"],
            ["spectrum", "--ports", "5", "--dim", "2", "--format", "csv"],
            ["fidelity", "--ports", "5", "--dim", "2", "--format", "csv"],
            ["povm", "--ports", "5", "--dim", "2", "--format", "json"],
        ):
            code, _, err = invoke(argv)
            assert code == 1 and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "-N", "6", "-d", "3", "--kind", "G"],  # argparse
            ["matrix", "-N", "3", "-d", "2", "--tol", "1e-9"],  # argparse, unrecognized
            ["fidelity", "-N", "5", "-d", "3", "--tol", "2"],  # option validation
            ["fidelity", "-N", "5", "-d", "3", "-o", "out.csv"],  # option validation
            ["povm", "-N", "0", "-d", "3"],  # the command itself
        ],
    )
    def test_usage_line_is_the_failing_verbs(self, argv):
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        error, usage = err.split("\n", 1)
        assert error.startswith("error: ")
        assert usage.startswith(f"usage: dpbt {argv[0]} [-h] --ports PORTS --dim DIM")

    def test_usage_line_without_a_verb_is_the_top_level_one(self):
        for argv in ([], ["frobnicate"], ["--bogus"]):
            code, _, err = invoke(argv)
            assert code == 1 and err.splitlines()[1].startswith("usage: dpbt [-h] [--version]")

    @pytest.mark.parametrize("verb", ["spectrum", "fidelity", "povm", "sweep"])
    @pytest.mark.parametrize(
        "option,value",
        [("--tol", "-1"), ("--tol", "0"), ("--tol", "1e-16"), ("--tol", "1"), ("--tol", "nan"),
         ("--tol", "inf"), ("--max-iter", "0"), ("--max-iter", "-3")],
    )
    def test_solver_options_out_of_range(self, verb, option, value):
        cell = ["--ports", "30", "--dims", "3"] if verb == "sweep" else ["-N", "30", "-d", "3"]
        # a small budget keeps an accepted value from running long
        code, out, err = invoke([verb, *cell, "--max-iter", "50", option, value])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {option} must be") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "-N", "5", "-d", "3"], ["fidelity", "-N", "5", "-d", "3"],
         ["povm", "-N", "5", "-d", "3"], ["verify", "--oracle", "-N", "2", "-d", "2"]],
    )
    def test_json_only_verbs_refuse_csv_output(self, tmp_path, argv):
        target = tmp_path / "out.CSV"
        code, out, err = invoke([*argv, "-o", str(target)])
        assert code == 1 and out == ""
        assert f"{argv[0]} writes JSON only" in err
        assert not target.exists()

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["fidelity", "-N", "3", "-d", "2"], "missing/x.json"),
            (["matrix", "-N", "3", "-d", "2"], "."),
            (["sweep", "--ports", "2:40", "--dims", "2,3,4"], "missing/x.csv"),
            (["sweep", "--ports", "2:40", "--dims", "2,3,4"], "."),
        ],
        ids=["missing_directory", "directory", "sweep_missing_directory", "sweep_directory"],
    )
    def test_unwritable_output_path(self, monkeypatch, tmp_path, argv, target):
        def computed(*args, **kwargs):
            raise AssertionError("the command computed before checking its -o path")

        monkeypatch.setattr(cli, "sweep", computed)
        monkeypatch.setattr(cli, "fidelity_row", computed)
        path = str(tmp_path / target)
        code, out, err = invoke([*argv, "-o", path])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_output_probe_leaves_no_trace_when_the_command_fails(self, tmp_path):
        argv = ["fidelity", "-N", "100", "-d", "3", "--max-iter", "50", "-o"]
        kept, new = tmp_path / "kept.json", tmp_path / "new.json"
        kept.write_text("earlier result\n")
        assert invoke([*argv, str(kept)])[0] == 2
        assert kept.read_text() == "earlier result\n"
        assert invoke([*argv, str(new)])[0] == 2
        assert not new.exists()

    def test_help_exits_zero(self):
        # argparse prints help straight to stdout; run() maps the exit to 0
        assert run(["--help"]) == 0

    def test_runs_in_one_process_match_separate_processes(self, monkeypatch, capsys):
        # the parser is built once per process; a run that fails or exits
        # through argparse must leave it as the next run needs it
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        src = Path(dpbt.__file__).resolve().parents[1]
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        sequence = [
            ["fidelity", "-N", "12", "-d", "3"],
            ["matrix", "-N", "6", "-d", "3", "--kind", "G"],
            ["--version"],
            ["fidelity", "-N", "12", "-d", "3"],
        ]
        for argv in sequence:
            code = run(argv)
            out, err = capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-m", "dpbt", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        assert cli.build_parser() is cli.build_parser()


class TestOneEdgeBuildPerCell:
    """Each command evaluates a cell on one edge list: solver, fidelities and
    coefficients all receive the list the command built."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls, build = [], telemat.incidence_edges

        def counted(n, d):
            calls.append((n, d))
            return build(n, d)

        # every name in the package that is bound to the builder
        for name, module in list(sys.modules.items()):
            if name.startswith("dpbt") and hasattr(module, "incidence_edges"):
                monkeypatch.setattr(module, "incidence_edges", counted)
        return calls

    # power, closed d = 2, closed d >= N, and N = 1
    @pytest.mark.parametrize("verb", ["fidelity", "povm", "spectrum"])
    @pytest.mark.parametrize("n,d", [(12, 3), (9, 4), (10, 2), (6, 6), (5, 9), (1, 2)])
    def test_one_build_per_command(self, builds, verb, n, d):
        code, _, _ = invoke([verb, "--ports", str(n), "--dim", str(d)])
        assert code == 0
        assert builds == [(n, d)]

    def test_one_build_per_sweep_cell(self, builds):
        code, _, _ = invoke(["sweep", "--ports", "1:12", "--dims", "2,3,4"])
        assert code == 0
        assert sorted(builds) == [(n, d) for n in range(1, 13) for d in (2, 3, 4)]


class TestClosedPipe:
    def test_reader_closing_stdout_exits_1_without_traceback(self):
        # a child with a closed stdout fails on its first write, not on the solve
        src = Path(dpbt.__file__).resolve().parents[1]
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "dpbt", "povm", "-N", "1030", "-d", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err


# JSON values for the writer: keys with `%` and non-ASCII text, every leaf
# type the payloads hold (numpy scalars, non-finite floats), homogeneous lists
# and tables (lists of dicts sharing one key tuple), then arbitrary nesting
json_keys = st.text(max_size=4) | st.sampled_from(["%", "%s", "100%%", "%(p)s", "[]", "[2,1]"])
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | finite_floats | st.text()
    | st.floats().map(np.float64)
)
json_columns = st.sampled_from([st.integers(), finite_floats, st.floats(), st.text(), json_leaves])
json_tables = st.lists(st.tuples(json_keys, json_columns), max_size=4, unique_by=lambda kc: kc[0]).flatmap(
    lambda columns: st.lists(st.fixed_dictionaries(dict(columns)), max_size=5)
)
json_homogeneous = st.lists(st.integers()) | st.lists(finite_floats) | st.lists(st.text()) | st.lists(st.floats())
json_values = st.recursive(
    json_leaves | json_homogeneous | json_tables,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_keys, inner, max_size=4),
    max_leaves=40,
)


class TestJsonWriter:
    """cli._json is json.dumps(payload, indent=2) byte for byte."""

    @settings(deadline=None)
    @given(json_values)
    def test_matches_indenting_encoder(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "payload",
        [
            # a failed sweep cell next to normal rows: the key tuples differ
            {
                "rows": [
                    {"N": 2, "d": 3, "f_lower": 0.5, "method": "closed_dgeN", "iterations": 0},
                    {"N": 4, "d": 3, "error": "PowerIterationError: no certified radius"},
                    {"N": 5, "d": 3, "f_lower": 0.25, "method": "lanczos", "iterations": 90},
                ]
            },
            # a failed oracle check with an infinite residual
            {
                "checks": [
                    {"name": "primal", "N": 3, "d": 3, "residual": 0.0, "tolerance": 1e-8, "passed": True},
                    {"name": "dual", "N": 3, "d": 3, "residual": math.inf, "tolerance": 1e-8, "passed": False},
                    {"name": "eta", "N": 3, "d": 3, "residual": -math.inf, "tolerance": 1e-8, "passed": False},
                    {"name": "nan", "N": 3, "d": 3, "residual": math.nan, "tolerance": 1e-8, "passed": False},
                ],
                "all_passed": False,
            },
            {"p_coeffs": [{"alpha": "[]", "mu": "[1]", "p": 1.0}], "v": {"[1]": 1.0}},
            {"empty": {}, "none": [], "nested": [[], {}, [[]]], "table_of_empties": [{}, {}]},
            # dicts sharing one key tuple, but not all leaves
            {"rows": [{"x": [1.5], "y": 1}, {"x": {}, "y": 2}, {"x": {"z": None}, "y": 3}]},
        ],
    )
    def test_explicit_payloads(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["matrix", "-N", "6", "-d", "3"],
            ["matrix", "-N", "6", "-d", "3", "--kind", "R"],
            ["matrix", "-N", "6", "-d", "3", "--kind", "H"],
            ["spectrum", "-N", "6", "-d", "6"],
            ["spectrum", "-N", "9", "-d", "3"],
            ["spectrum", "-N", "7", "-d", "2"],
            ["fidelity", "-N", "9", "-d", "3"],
            ["povm", "-N", "1", "-d", "3"],  # the empty diagram "[]" labels the parent
            ["povm", "-N", "9", "-d", "3"],
            ["povm", "-N", "5", "-d", "2"],
            ["verify", "--oracle", "-N", "2", "-d", "2"],
            ["sweep", "--ports", "1:8", "--dims", "2,3"],
            ["sweep", "--ports", "3:8", "--dims", "2,3", "--max-iter", "1"],  # error rows
            # larger real payloads: 6775 p_coeffs rows, 297 x 297 entries, 117 sweep rows
            ["povm", "-N", "60", "-d", "4"],
            ["matrix", "-N", "30", "-d", "4"],
            ["matrix", "-N", "30", "-d", "4", "--kind", "R"],
            ["sweep", "--ports", "2:40", "--dims", "2,3,4"],
        ],
        ids="_".join,
    )
    def test_every_verb_prints_indented_json(self, monkeypatch, argv):
        payloads, write = [], cli._json

        def checked(payload):
            payloads.append(payload)
            return write(payload)

        monkeypatch.setattr(cli, "_json", checked)
        code, out, _ = invoke(argv)
        assert code == 0 and len(payloads) == 1
        assert out == json.dumps(payloads[0], indent=2) + "\n"
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        if "--max-iter" in argv:
            assert any("error" in row for row in payloads[0]["rows"])

    def test_matrix_csv_matches_its_json(self):
        # the CSV form of a larger matrix carries the labels and entries of its JSON form
        code, out, _ = invoke(["matrix", "-N", "30", "-d", "4", "--format", "csv"])
        assert code == 0
        payload = json.loads(invoke(["matrix", "-N", "30", "-d", "4"])[1])
        basis, entries = payload["basis"], tuple(map(tuple, payload["entries"]))
        assert read_csv(out) == (basis, basis, entries) and len(basis) == 297


class TestCellLimit:
    """A cell above MAX_CELL_DIAGRAMS diagrams of N - 1 and N, or above
    MAX_CELL_BITS bits of exact d_mu and m_mu, is refused before anything is
    listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "-N", "1000000", "-d", "1000000"],
            ["fidelity", "-N", "1000", "-d", "4"],
            ["povm", "-N", "1000", "-d", "4"],
            ["spectrum", "-N", "2000", "-d", "5"],
            ["spectrum", "-N", "61", "-d", "61"],
            ["povm", "-N", "5000000", "-d", "2"],
            ["spectrum", "-N", "2000000", "-d", "2"],
            ["sweep", "--ports", "2:1000000000000", "--dims", "2,3"],
            ["sweep", "--ports", "2:1000", "--dims", "3,4"],
            ["matrix", "-N", "1000000", "-d", "1000000"],
            ["verify", "--oracle", "-N", "1000000", "-d", "1000000"],
        ],
        ids="_".join,
    )
    def test_refused_within_a_second(self, argv):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "diagrams of N-1 and N, above the cell limit of 2000000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "-N", "1999999", "-d", "2"],
            ["povm", "-N", "44721", "-d", "2"],
            ["fidelity", "-N", "3460", "-d", "3"],
            ["spectrum", "-N", "1962", "-d", "3"],
            ["sweep", "--ports", "2:2000", "--dims", "2,3"],
            ["matrix", "-N", "100000", "-d", "2"],
        ],
        ids="_".join,
    )
    def test_wide_exact_integers_refused_within_a_second(self, argv):
        # few enough diagrams, but their exact d_mu, m_mu of up to N log2 d
        # bits each would not fit
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "bits, above the cell limit of 2000000000 bits" in err

    def test_qubit_spectrum_skips_the_bit_bound(self):
        # the d = 2 closed form reads rows only, so spectrum is bounded by the
        # diagram count alone; 50001 diagrams of up to 50000 bits would be
        # 2.5e9 bits
        code, out, err = invoke(["spectrum", "-N", "50000", "-d", "2"])
        assert code == 0, err
        assert json.loads(out)["radius"] == closed_form_d2(50000)[0]
        assert cli._validate_nd(50000, 2, exact=False) == (25000, 25001)

    def test_limit_falls_between_the_named_cells(self):
        assert cli.MAX_CELL_DIAGRAMS == 2 * 10**6
        assert cli.MAX_CELL_BITS == 2 * 10**9
        assert sum(cli._validate_nd(500, 4)) == 1783362  # (500,4) stays allowed
        with pytest.raises(cli.UsageError, match="has at least 14077140 diagrams"):
            cli._validate_nd(1000, 4)
        # the largest N allowed at d = 2 and 3, where the bit bound binds
        assert sum(cli._validate_nd(44720, 2)) == 44721
        with pytest.raises(cli.UsageError, match="44722 diagrams .* 44721 bits: 2000012562 bits"):
            cli._validate_nd(44721, 2)
        assert sum(cli._validate_nd(1961, 3)) == 642555
        with pytest.raises(cli.UsageError, match="up to 3110 bits"):
            cli._validate_nd(1962, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 17, 40, 61, 120, 400, 2000, 5000])
    def test_counts_are_exact_within_the_limit(self, n):
        for d in (2, 3, 4, 5, 6, 8, 13, n, n + 1):
            counts = cli._cell_counts(n, d)
            if sum(counts) <= cli.MAX_CELL_DIAGRAMS:
                assert list(counts) == partition_counts(n, d)[-2:], (n, d)
            elif n <= 120:  # above the limit: a lower bound
                assert sum(counts) <= sum(partition_counts(n, d)[-2:]), (n, d)


class TestDimensionLimit:
    """d above MAX_DIM = 2^511 is refused before anything is listed: there d^2
    leaves double range, or the fidelities turn subnormal."""

    def test_largest_dimension_prints_normal_fidelities(self):
        assert cli.MAX_DIM == 2**511
        code, out, err = invoke(["fidelity", "-N", "1", "-d", str(2**511)])
        assert code == 0, err
        assert '"f_opt": 2.2250738585072014e-308' in out
        payload = json.loads(out)
        # N / (d^2 + N - 1) = 2^-1022, the least normal double, at all three
        assert payload["f_lower"] == payload["f_sqrt_ent"] == payload["f_opt"] == 2.0**-1022

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "-N", "1", "-d", str(2**511 + 1)],
            ["fidelity", "-N", "3", "-d", str(2**512)],
            ["sweep", "--ports", "2:3", "--dims", f"2,{2**512}"],
            ["povm", "-N", "1", "-d", str(2**512)],
            ["verify", "--oracle", "-N", "1", "-d", str(2**512)],
        ],
        ids=["fidelity-1-above", "fidelity-3-2^512", "sweep-2^512", "povm-2^512", "verify-2^512"],
    )
    def test_refused_with_usage(self, argv):
        code, out, err = invoke(argv)
        assert code == 1 and out == ""
        message, usage = err.splitlines()[:2]
        assert message.startswith("error: local dimension d=")
        assert message.endswith("is above the largest supported, 2**511")
        assert usage.startswith(f"usage: dpbt {argv[0]}")
