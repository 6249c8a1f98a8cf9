"""Tests of the benchmark's own references and checkers.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

qfdiv = pytest.importorskip("qfdiv")


def _commuting(seed):
    return [p for p in inputs.small_pairs(seed) if p.kind == "commuting"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mpmath_reference_equals_classical_on_commuting_pairs(seed):
    for pair in _commuting(seed):
        ref = reference.exact(pair)
        for spec in inputs.GENERATORS:
            want = checks.classical(pair.p, pair.q, spec)
            got = ref["values"][spec]
            assert got == want or abs(got - want) <= 1e-13 * max(1, abs(want))


def test_classical_recession_convention():
    p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    assert checks.classical(p, q, "xlogx") == math.inf
    assert checks.classical(p, q, "neg_power:0.5") == pytest.approx(
        -math.sqrt(0.5))
    # p = q = 0 contributes nothing
    assert checks.classical([1.0, 0.0], [1.0, 0.0], "square") == 1.0


def _program_outputs(pair):
    gens = {s: qfdiv.from_spec(s) for s in inputs.GENERATORS}
    values = {s: qfdiv.d_max(pair.rho, pair.sigma, f) for s, f in gens.items()}
    rt = qfdiv.minimal_reverse_test(pair.rho, pair.sigma)
    rt_values = {s: qfdiv.reverse_test_value(rt, f) for s, f in gens.items()}
    return values, rt, rt_values


def _seeded_pairs():
    pairs = [p for p in inputs.small_pairs(3) if p.kind != "near-threshold"]
    return [pairs[i] for i in range(0, len(pairs), 5)]


@pytest.mark.parametrize("pair", _seeded_pairs(), ids=lambda p: p.name)
def test_correct_outputs_pass_and_perturbed_value_fails(pair):
    ref = reference.exact(pair)
    values, rt, rt_values = _program_outputs(pair)
    assert checks.check_pair(pair, ref, values, rt.outputs, rt.p, rt.q,
                             rt_values) == []
    spec = "neg_power:0.5"            # finite on every kind
    bad = dict(values, **{spec: values[spec] * (1 + 1e-6)})
    errors = checks.check_pair(pair, ref, bad, rt.outputs, rt.p, rt.q,
                               rt_values)
    assert any(e.startswith(spec) for e in errors)


def test_infinite_reference_needs_infinite_value():
    pair = next(p for p in inputs.small_pairs(0) if p.escapes)
    ref = reference.exact(pair)
    assert ref["values"]["xlogx"] == math.inf
    values, rt, rt_values = _program_outputs(pair)
    bad = dict(values, xlogx=1e300)
    errors = checks.check_pair(pair, ref, bad, rt.outputs, rt.p, rt.q,
                               rt_values)
    assert any(e.startswith("xlogx") for e in errors)


def test_perturbed_reverse_test_fails():
    pair = inputs.small_pairs(4)[0]
    ref = reference.exact(pair)
    values, rt, rt_values = _program_outputs(pair)
    p = rt.p.copy()
    p[np.argmax(p)] += 1e-6
    errors = checks.check_pair(pair, ref, values, rt.outputs, p, rt.q,
                               rt_values)
    assert any("rebuilds the pair" in e for e in errors)
    outputs = list(rt.outputs)
    outputs[0] = outputs[0] - 1e-6 * np.eye(pair.rho.shape[0])
    errors = checks.check_pair(pair, ref, values, outputs, rt.p, rt.q,
                               rt_values)
    assert any("atom" in e for e in errors)


def test_non_psd_atom_fails():
    G = np.diag([1.5, -0.5]).astype(complex)
    assert checks.atom_error(G) == "atom not PSD"
    assert checks.atom_error(np.diag([0.5, 0.5]).astype(complex)) is None


def test_known_fault_input_fails():
    """The near-threshold pairs show the reverse-test clustering fault, and
    the fault explains every violation there."""
    pair = next(p for p in inputs.near_threshold_pairs() if p.name == "near-1e-09")
    assert pair.fault == "clustering-near-threshold"
    values, rt, rt_values = _program_outputs(pair)
    errors = checks.check_pair(pair, reference.exact(pair), values,
                               rt.outputs, rt.p, rt.q, rt_values)
    assert any("rebuilds the pair" in e for e in errors)
    assert checks.unexpected_errors(errors, pair.fault) == []


def test_known_fault_does_not_excuse_a_wrong_value():
    pair = next(p for p in inputs.near_threshold_pairs() if p.name == "near-1e-09")
    ref = reference.exact(pair)
    values, rt, rt_values = _program_outputs(pair)
    # cond(sigma) is 5e8 here, so the value tolerance is 5e-6 relative
    bad = dict(values, xlogx=values["xlogx"] * (1 + 1e-3))
    errors = checks.check_pair(pair, ref, bad, rt.outputs, rt.p, rt.q,
                               rt_values)
    assert [e for e in checks.unexpected_errors(errors, pair.fault)
            if e.startswith("xlogx")]


def test_only_failing_inputs_carry_a_fault():
    assert [p.name for p in inputs.near_threshold_pairs() if p.fault] == [
        "near-1e-09", "near-3e-10", "near-1e-11", "near-3e-12"]
    assert [p.name for p in inputs.large_pairs(0, n=16) if p.fault] == [
        "plain-dominated-0", "plain-dominated-1"]
    assert checks.unexpected_errors(["raised ValueError: x"], "clustering")
    assert checks.unexpected_errors(["reverse test: rebuilds the pair"], None)


def test_cli_check():
    pair, spec = inputs.cli_pairs(0)[0]
    ref = reference.exact(pair)
    good = {"value": ref["values"][spec], "finite": True,
            "rho_tilde_trace": ref["tilde_trace"],
            "atoms": min(pair.rho_rank, pair.sigma_rank)
            + (pair.rho_rank < pair.sigma_rank)}
    assert checks.check_cli(0, json.dumps(good), ref, pair, spec) == []
    bad = dict(good, value=good["value"] * (1 + 1e-6))
    assert checks.check_cli(0, json.dumps(bad), ref, pair, spec)
    assert checks.check_cli(3, json.dumps(good), ref, pair, spec)


def test_large_square_reference_is_the_linear_solve():
    pair = inputs.large_pairs(0, n=16)[0]
    ref = reference.large(pair)
    d = qfdiv.d_max(pair.rho, pair.sigma, qfdiv.from_spec("square"))
    assert checks.value_ok(d, ref["values"]["square"], ref["cond"])


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.optimize",
        "import time:        50 |        750 |   qfdiv.oracles",
        "import time:        10 |        900 | qfdiv",
    ])
    assert run.parse_importtime(text) == {"import.qfdiv_ms": 0.9,
                                          "import.scipy_ms": 0.7}
