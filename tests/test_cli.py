"""End-to-end tests of the command-line interface and the JSON formats."""

import json

import numpy as np
import pytest

from qfdiv import errors
from qfdiv.channels import depolarizing_channel, unitary_channel
from qfdiv.cli import main
from qfdiv.matio import (channel_from_json, channel_to_json,
                         matrix_from_json, matrix_to_json, save_matrix)


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

    @pytest.mark.parametrize("dim", ["a", None, 0, -1])
    def test_rejects_bad_dimension(self, dim):
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": dim, "entries": []})
        with pytest.raises(errors.InvalidOperator):
            channel_from_json({"dim_in": 1, "dim_out": dim,
                               "kraus": [{"entries": [[1.0, 0.0]]}]})

    @pytest.mark.parametrize("entry", [["a", 0.0], [0.0], None, [0.0, 1.0, 2.0]])
    def test_rejects_malformed_entry(self, entry):
        with pytest.raises(errors.InvalidOperator):
            matrix_from_json({"dim": 1, "entries": [entry]})
        with pytest.raises(errors.InvalidOperator):
            channel_from_json({"dim_in": 1, "dim_out": 1,
                               "kraus": [{"entries": [entry]}]})

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

    def test_alpha_flag(self, qubit_files, capsys):
        code = main(["compute", "--rho", qubit_files["rho"],
                     "--sigma", qubit_files["sigma"],
                     "--f", "neg_power:0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["finite"] is True
        assert out["value"] < 0

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

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--rho", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("entries", [
        [["a", 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]])
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


class TestSuiteCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "10",
                     "--seed", "3"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["fail"] == 0

    def test_failing_suite_exit_one(self, capsys):
        code = main(["suite", "--suite", "umegaki-bound", "--trials", "5",
                     "--seed", "3", "--tol", "-1"])
        assert code == 1

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

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = main(["suite", "--suite", "lowner-quadrature", "--trials", "1",
                     "--out", str(out_path), "--format", "csv"])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "suite,dim,seed,lhs,rhs,margin,pass"
        assert len(lines) == 4

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
    qfdiv.linalg, not parameters, and the CLI has no flag for them or for a
    generator parameter outside the spec.  The suites' generators are fixed
    too: neither SuiteConfig nor `qfdiv suite` takes a list of them."""

    def test_no_public_callable_takes_a_tolerance_knob(self):
        import importlib
        import inspect
        import pkgutil

        import qfdiv
        knobs = {"rank_tol", "cluster_tol", "mass_tol"}
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
