"""End-to-end tests of the command-line interface and the JSON formats."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import qfdiv
from qfdiv import errors, suites
from qfdiv.channels import depolarizing_channel, unitary_channel
from qfdiv.cli import main
from qfdiv.divergence import minimal_reverse_test
from qfdiv.matio import (channel_from_json, channel_to_json,
                         matrix_from_json, matrix_to_json, save_matrix)
from qfdiv.suites import SUITE_NAMES, _undominated_pair


@pytest.fixture
def qubit_files(tmp_path):
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([0.25, 0.75]).astype(complex)
    paths = {}
    for name, M in [("rho", rho), ("sigma", sigma)]:
        p = tmp_path / f"{name}.json"
        save_matrix(str(p), M)
        paths[name] = str(p)
    return paths


class TestMatrixJson:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = matrix_from_json(matrix_to_json(A))
        np.testing.assert_array_equal(A, B)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]] * 3})

    def test_rejects_missing_fields(self):
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": 2})

    @pytest.mark.parametrize("dim", ["a", None, 0, -1, 2.9, "2", True, 2.0])
    def test_rejects_bad_dimension(self, dim):
        # the entries fit int(dim), which reads 2.9, "2" and True as 2, 2 and 1
        n = 2 if dim in (2.9, "2", 2.0) else 1
        entries = matrix_to_json(np.eye(n))["entries"]
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": dim, "entries": entries})
        for dims in ({"dim_in": dim, "dim_out": n}, {"dim_in": n, "dim_out": dim}):
            with pytest.raises(errors.InvalidOperator):
                channel_from_json({**dims, "kraus": [{"entries": entries}]})

    @pytest.mark.parametrize("entry", [["a", 0.0], [0.0], None, [0.0, 1.0, 2.0]])
    def test_rejects_malformed_entry(self, entry):
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": 1, "entries": [entry]})
        with pytest.raises(errors.InvalidOperator):
            channel_from_json({"dim_in": 1, "dim_out": 1,
                               "kraus": [{"entries": [entry]}]})

    @pytest.mark.parametrize("entry", [["1", "0"], [1.0, "0"], [True, 0.0],
                                       [0.0, False], [True, 0.5]],
                             ids=["string", "string-im", "bool", "bool-im",
                                  "bool-and-float"])
    def test_rejects_entry_that_is_not_a_json_number(self, entry):
        # numpy read "1" and true as 1.0 and false as 0.0
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": 1, "entries": [entry]})

    @pytest.mark.parametrize("entry", [["1", "0"], [True, False]],
                             ids=["string", "bool"])
    def test_rejects_kraus_entry_that_is_not_a_json_number(self, entry):
        # either read as K = [[1]], a channel that passed its own check
        with pytest.raises(errors.InvalidOperator):
            channel_from_json({"dim_in": 1, "dim_out": 1,
                               "kraus": [{"entries": [entry]}]})

    def test_int_entries_are_numbers(self):
        A = matrix_from_json({"dim": 2, "entries": [[1, 0], [0, 2], [0, -2], [3, 0]]})
        np.testing.assert_array_equal(A, [[1, 2j], [-2j, 3]])
        ch = channel_from_json({"dim_in": 1, "dim_out": 1,
                                "kraus": [{"entries": [[0, 1]]}]})
        np.testing.assert_array_equal(ch.kraus[0], [[1j]])

    def test_channel_roundtrip(self):
        ch = depolarizing_channel(2, 0.3)
        back = channel_from_json(channel_to_json(ch))
        assert back.dim_in == 2 and back.dim_out == 2
        for K1, K2 in zip(ch.kraus, back.kraus):
            np.testing.assert_array_equal(K1, K2)
        # every Kraus operator carries its row and column counts
        kraus = channel_to_json(ch)["kraus"][0]
        assert (kraus["dim_out"], kraus["dim_in"]) == (2, 2)
        assert "dim" not in kraus
        # files that wrote square Kraus operators in the matrix format load
        old = {"dim_in": 2, "dim_out": 2,
               "kraus": [matrix_to_json(K) for K in ch.kraus]}
        for K1, K2 in zip(ch.kraus, channel_from_json(old).kraus):
            np.testing.assert_array_equal(K1, K2)

    def test_rectangular_channel_roundtrip(self):
        from qfdiv.channels import embedding_channel
        ch = embedding_channel(2, 4)
        back = channel_from_json(channel_to_json(ch))
        assert (back.dim_in, back.dim_out) == (2, 4)
        np.testing.assert_array_equal(ch.kraus[0], back.kraus[0])


class TestComputeCommand:
    def test_square_value(self, qubit_files, capsys):
        code = main(["compute", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"], "--f", "square"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert out["finite"] is True
        assert out["rho_tilde_trace"] == pytest.approx(1.0)
        assert out["atoms"] == 2

    @pytest.mark.parametrize("dominated", [True, False])
    def test_atoms_is_the_length_of_the_reverse_test(self, tmp_path, capsys,
                                                      dominated):
        rng = np.random.default_rng(5)
        if dominated:   # sigma of rank 2, rho inside its support
            V = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]
            rho, sigma = V @ np.diag([0.3, 0.7]) @ V.T, V @ np.diag([0.6, 0.4]) @ V.T
        else:
            rho, sigma = _undominated_pair(rng, 3)
        for name, M in [("rho", rho), ("sigma", sigma)]:
            save_matrix(str(tmp_path / f"{name}.json"), M)
        code = main(["compute", "--rho", str(tmp_path / "rho.json"),
                     "--sigma", str(tmp_path / "sigma.json"), "--f", "square"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        rt = minimal_reverse_test(rho, sigma)
        assert out["atoms"] == len(rt) == (2 if dominated else 3)
        assert (0.0 in rt.q) is not dominated    # the escaped atom

    def test_alpha_flag(self, qubit_files, capsys):
        code = main(["compute", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"],
                     "--f", "neg_power:0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["finite"] is True
        assert out["value"] < 0

    def test_psi_with_a_far_pole(self, qubit_files, capsys):
        # building psi:1e103 overflowed in its second derivative at 1
        code = main(["compute", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"], "--f", "psi:1e103"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(-1e-103, rel=1e-12)

    def test_infinite_value_reported(self, tmp_path, capsys):
        save_matrix(str(tmp_path / "r.json"), np.diag([1.0, 0.0]))
        save_matrix(str(tmp_path / "s.json"), np.diag([0.0, 1.0]))
        code = main(["compute", "--rho", str(tmp_path / "r.json"),
                     "--sigma", str(tmp_path / "s.json"), "--f", "xlogx"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["finite"] is False
        assert out["value"] is None

    def test_bad_matrix_is_domain_error(self, tmp_path, capsys, qubit_files):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [[1.0, 0.0]]}))
        code = main(["compute", "--rho", str(bad),
                     "--sigma", qubit_files["sigma"], "--f", "square"])
        assert code == 3

    @pytest.mark.parametrize("dim", [2.9, "2"])
    def test_dimension_that_is_not_an_int_exits_three(self, tmp_path, capsys,
                                                      qubit_files, dim):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"dim": dim, "entries": matrix_to_json(np.eye(2) / 2)["entries"]}))
        code = main(["compute", "--rho", str(bad),
                     "--sigma", qubit_files["sigma"], "--f", "square"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:")

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--rho", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("entries", [
        [["a", 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        # read as diag(1/2, 1/2) and diag(1, 0), each a valid operand
        [["0.5", 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[True, 0.0], [0.0, 0.0], [0.0, 0.0], [False, 0.0]]])
    def test_malformed_or_non_finite_entries_exit_three(
            self, tmp_path, capsys, qubit_files, entries):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": entries}))
        for rho, sigma in ((str(bad), qubit_files["sigma"]),
                           (qubit_files["rho"], str(bad))):
            code = main(["compute", "--rho", rho, "--sigma", sigma,
                         "--f", "square"])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert captured.err.startswith("error:")


class TestExitCodes:
    """cli.main alone turns an exception into an exit code: 3 for a
    QfdivError or an unreadable file, 2 for any other ValueError."""

    @pytest.mark.parametrize("spec", ["square:-3", "xlogx:7"])
    def test_parameter_on_a_plain_generator_exits_three(self, qubit_files,
                                                         capsys, spec):
        code = main(["compute", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"], "--f", spec])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("content", [
        b'{"dim": 1, "entries": [[1.0, 0.0]]}\xff\xfe', b"not json"],
        ids=["not-utf8", "not-json"])
    @pytest.mark.parametrize("which", ["rho", "sigma", "channel"])
    def test_undecodable_file_exits_three(self, qubit_files, tmp_path, capsys,
                                          which, content):
        # a non-UTF-8 file ended in a UnicodeDecodeError traceback, exit 1
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(channel_to_json(unitary_channel(np.eye(2)))))
        files = dict(qubit_files, channel=str(ch_path))
        files[which] = str(bad)
        code = main(["check", "--rho", files["rho"], "--sigma", files["sigma"],
                     "--channel", files["channel"], "--f", "square"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "UTF-8 JSON" in lines[0] and "Traceback" not in captured.err

    def test_error_inside_a_suite_exits_three(self, capsys, monkeypatch):
        # a QfdivError from a suite's body was caught as a usage error (2)
        def body(cfg, tol):
            raise errors.NotPSD("minimum eigenvalue -1 below -1e-10")
            yield
        monkeypatch.setitem(suites._SUITES, "dpi", (body, 1e-8))
        code = main(["suite", "--suite", "dpi", "--trials", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error: minimum eigenvalue -1 below -1e-10\n"

    def test_bad_tol_is_judged_before_any_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = main(["check", "--rho", missing, "--sigma", missing,
                     "--channel", missing, "--f", "square", "--tol", "nan"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tol must be finite")


class TestClosedStdout:
    """A reader that closes stdout early, as `qfdiv ... | head -1` does, is
    not a numeric error: no error line, exit 141 (128 + SIGPIPE)."""

    def test_broken_pipe_exits_141_and_silences_stdout(self, qubit_files,
                                                       tmp_path, capsys,
                                                       monkeypatch):
        target = tmp_path / "stdout"

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        with open(target, "wb") as fh:
            fd = fh.fileno()
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["reverse-test", "--rho", qubit_files["rho"],
                         "--sigma", qubit_files["sigma"]])
            # stdout's descriptor now points at os.devnull
            os.write(fd, b"flushed at exit")
        assert code == 141
        assert capsys.readouterr().err == ""
        assert target.read_bytes() == b""

    def test_closed_pipe_in_a_process(self, qubit_files):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qfdiv", "reverse-test",
                 "--rho", qubit_files["rho"], "--sigma", qubit_files["sigma"]],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=os.path.dirname(
                    os.path.dirname(qfdiv.__file__))),
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""


class TestReverseTestCommand:
    def test_dump(self, qubit_files, capsys):
        code = main(["reverse-test", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"]])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["labels"]) == 2
        assert sum(out["p"]) == pytest.approx(1.0)
        assert sum(out["q"]) == pytest.approx(1.0)
        G0 = matrix_from_json(out["outputs"][0])
        assert np.trace(G0).real == pytest.approx(1.0)

    def test_dump_of_undominated_pair_rebuilds_it(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        rho, sigma = _undominated_pair(rng, 3)
        paths = {}
        for name, M in [("rho", rho), ("sigma", sigma)]:
            paths[name] = str(tmp_path / f"{name}.json")
            save_matrix(paths[name], M)
        code = main(["reverse-test", "--rho", paths["rho"],
                     "--sigma", paths["sigma"]])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out) == ["labels", "outputs", "p", "q"]
        assert out["labels"][-1] == "x0" and out["q"][-1] == 0.0
        atoms = [matrix_from_json(g) for g in out["outputs"]]
        assert len(atoms) == len(out["labels"]) == len(out["p"])
        rho_hat = sum(a * G for a, G in zip(out["p"], atoms))
        sigma_hat = sum(b * G for b, G in zip(out["q"], atoms))
        assert np.abs(rho_hat - rho).max() <= 1e-12
        assert np.abs(sigma_hat - sigma).max() <= 1e-12


class TestCheckCommand:
    def test_unitary_report(self, qubit_files, tmp_path, capsys):
        theta = 0.3
        U = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(channel_to_json(unitary_channel(U))))
        code = main(["check", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"],
                     "--channel", str(ch_path), "--f", "neg_power:0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["equal"] is True
        assert out["reverse_test_preserved"] is True

    @pytest.mark.parametrize("entries", [
        [[0.0], [0.0], [0.0], [1.0, 0.0]],
        [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    def test_bad_kraus_entries_exit_three(self, qubit_files, tmp_path, capsys,
                                          entries):
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(
            {"dim_in": 2, "dim_out": 2, "kraus": [{"entries": entries}]}))
        code = main(["check", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"],
                     "--channel", str(ch_path), "--f", "square"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_usage_error(self, qubit_files, tmp_path, capsys, tol):
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(channel_to_json(unitary_channel(np.eye(2)))))
        code = main(["check", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"], "--channel", str(ch_path),
                     "--f", "square", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite")

    @pytest.mark.parametrize("doc", [
        3, None, {"dim_in": 2, "dim_out": 2, "kraus": 3},
        {"dim_in": 2, "dim_out": 2, "kraus": None},
        {"dim_in": 2, "dim_out": 2, "kraus": {"entries": [[1.0, 0.0]] * 4}}])
    def test_malformed_channel_json_exits_three(self, qubit_files, tmp_path,
                                                capsys, doc):
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(doc))
        code = main(["check", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"],
                     "--channel", str(ch_path), "--f", "square"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")


class TestRldCommand:
    def test_qubit_example(self, tmp_path, capsys):
        save_matrix(str(tmp_path / "rho.json"), np.eye(2) / 2)
        save_matrix(str(tmp_path / "x.json"), np.diag([0.5, -0.5]))
        code = main(["rld", "--rho", str(tmp_path / "rho.json"),
                     "--x", str(tmp_path / "x.json"),
                     "--y", str(tmp_path / "x.json"), "--f", "xlogx"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["analytic"] == pytest.approx(1.0)
        assert out["err"] <= 1e-4

    def test_directions_of_another_dimension_exit_three(self, tmp_path, capsys):
        save_matrix(str(tmp_path / "rho.json"), np.eye(2) / 2)
        save_matrix(str(tmp_path / "x.json"), np.diag([0.5, -0.5, 0.0]))
        code = main(["rld", "--rho", str(tmp_path / "rho.json"),
                     "--x", str(tmp_path / "x.json"),
                     "--y", str(tmp_path / "x.json"), "--f", "xlogx"])
        assert code == 3
        assert "does not match rho" in capsys.readouterr().err


class TestSuiteCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "10",
                     "--seed", "3"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["fail"] == 0

    @pytest.mark.parametrize("suites", ["dpi", "dpi,umegaki-bound"])
    def test_json_is_strict(self, capsys, suites):
        # dpi trials 0 and 4 have an infinite rhs, written as null
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")
        code = main(["suite", "--suite", suites, "--trials", "6", "--seed", "0",
                     "--rows"])
        assert code == 0
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        report = out if suites == "dpi" else out[0]
        rhs = [row["rhs"] for row in report["rows"]]
        assert rhs[0] is None and rhs[4] is None
        assert all(isinstance(v, float) for i, v in enumerate(rhs) if i not in (0, 4))

    def test_failing_suite_exit_one(self, capsys):
        # the reconstruction errors are roundoff above 0, so tol 0 fails them
        code = main(["suite", "--suite", "reverse-test-reconstruction",
                     "--trials", "5", "--seed", "3", "--tol", "0"])
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_usage_error(self, capsys, tol):
        code = main(["suite", "--suite", "dpi", "--trials", "3", "--tol", tol])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: tol must be finite")

    def test_unknown_suite_usage_error(self, capsys):
        code = main(["suite", "--suite", "nope", "--trials", "5"])
        assert code == 2

    def test_bad_trials_usage_error(self, capsys):
        code = main(["suite", "--suite", "dpi", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("dims", ["a", "2,,3", "2.5"])
    def test_bad_dims_usage_error(self, capsys, dims):
        code = main(["suite", "--suite", "dpi", "--trials", "2", "--dims", dims])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_env_seed_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SEED", "x")
        code = main(["suite", "--suite", "dpi", "--trials", "2"])
        assert code == 2
        assert "QFDIV_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, env", [("-1", None), (str(2 ** 64), None),
                                           (None, "-3")])
    def test_out_of_range_seed_usage_error(self, capsys, monkeypatch, flag, env):
        args = ["suite", "--suite", "dpi", "--trials", "2"]
        if flag is not None:
            args += ["--seed", flag]
        if env is not None:
            monkeypatch.setenv("QFDIV_SEED", env)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: seed must lie in")

    def test_largest_seed_runs(self, capsys):
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "2",
                     "--seed", str(2 ** 64 - 1)])
        assert code == 0

    @pytest.mark.parametrize("args", [
        ["suite", "--suite", "dpi", "--trials", "2", "--f", "json"],
        ["compute", "--rh", "r.json", "--sigma", "s.json", "--f", "square"],
    ])
    def test_abbreviated_option_usage_error(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["suite", "--suite", "lowner-quadrature", "--trials", "1",
                     "--out", str(out_path), "--format", "csv"])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "suite,dim,seed,lhs,rhs,margin,pass"
        assert len(lines) == 4

    def test_csv_of_several_suites_has_one_header(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["suite", "--suite", "all", "--trials", "2",
                     "--out", str(out_path), "--format", "csv"])
        assert code == 0
        # stderr holds one "suite NAME: P pass, F fail [ok]" line per suite
        counts = re.findall(r"(\d+) pass, (\d+) fail", capsys.readouterr().err)
        assert len(counts) == len(SUITE_NAMES)
        with open(out_path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == sum(int(p) + int(f) for p, f in counts)
        assert {r["pass"] for r in records} == {"1"}

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SEED", "123")
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "4"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 123

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QFDIV_SEED", "123")
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "4",
                     "--seed", "7"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_json_report_deterministic(self, tmp_path, capsys):
        args = ["suite", "--suite", "commutative-oracle", "--trials", "8",
                "--seed", "11"]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second


class TestNoToleranceKnobs:
    """The tolerances of rank, clustering and escaped mass are constants of
    qfdiv.linalg, not parameters; so are the weight match of equality_check
    and the commutation test of the classical oracle, in their own modules.
    The CLI has no flag for them or for a generator parameter outside the
    spec.  The suites' generators are fixed too: neither SuiteConfig nor
    `qfdiv suite` takes a list of them."""

    def test_no_public_callable_takes_a_tolerance_knob(self):
        import importlib
        import inspect
        import pkgutil

        import qfdiv
        knobs = {"rank_tol", "cluster_tol", "mass_tol", "weight_tol", "comm_tol"}
        found = []
        for info in pkgutil.iter_modules(qfdiv.__path__):
            if info.name.startswith("_"):
                continue
            mod = importlib.import_module(f"qfdiv.{info.name}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                fns = [obj] if inspect.isfunction(obj) else []
                if inspect.isclass(obj):
                    fns = [fn for meth, fn in vars(obj).items()
                           if not meth.startswith("_") and inspect.isfunction(fn)]
                for fn in fns:
                    params = inspect.signature(fn).parameters
                    found += [f"{info.name}.{name}({p})" for p in params if p in knobs]
        assert found == []

    def test_suites_have_no_generator_knob(self, capsys):
        import dataclasses
        import re

        from qfdiv.suites import SuiteConfig
        assert "generators" not in {f.name for f in dataclasses.fields(SuiteConfig)}
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--suite" in text
        assert not re.search(r"--f\b", text)
        # the names, as argparse wraps them: a line may break after a hyphen
        flat = re.sub(r"-\s+", "-", " ".join(text.split()))
        assert [name for name in SUITE_NAMES if name not in flat] == []

    def test_help_lists_no_tol_or_alpha(self, capsys):
        for command, flags in (("compute", ("--tol", "--alpha")),
                               ("reverse-test", ("--tol",)),
                               ("check", ("--alpha",)), ("rld", ("--alpha",))):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            assert "--rho" in text
            for flag in flags:
                assert flag not in text, (command, flag)
