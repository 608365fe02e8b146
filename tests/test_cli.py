"""CLI contract: exit codes, schemas, determinism of results blocks."""

import dataclasses
import importlib
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from corpusgen import random_double_complex, random_filtered_complex
from test_geometry import great_circle
import chernlab
from chernlab import cli
from chernlab.cli import main
from chernlab.spectral import double_complex_to_dict, filtered_complex_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if out else {}), err


@pytest.fixture()
def rep_file(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "build", "2", "1", "--out", str(path))
    assert code == 0
    return path


# -- milnor / build ----------------------------------------------------------------

def test_build_then_milnor_round_trip(rep_file, capsys):
    code, data, _ = run_json(capsys, "milnor", str(rep_file), "--oracle")
    assert code == 0
    assert data["results"]["milnor_number"] == 1
    assert data["results"]["path_winding"] == 1
    assert all(item["passed"] for item in data["verification"])


def test_milnor_trivial_rep(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    eye = [1.0, 0.0, 0.0, 1.0]
    path.write_text(json.dumps({"genus": 1, "A": [eye], "B": [eye]}))
    code, data, _ = run_json(capsys, "milnor", str(path))
    assert code == 0
    assert data["results"]["milnor_number"] == 0


def test_milnor_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"genus": 2, "A": [')
    code, _, err = run(capsys, "milnor", str(path))
    assert code == 2
    assert "line" in err and "column" in err


@pytest.mark.parametrize("command", ["spectral", "milnor"])
@pytest.mark.parametrize(
    "text",
    ['{"genus": 1, "A": [[' + "1" * 5000 + ', 0, 0, 1]], "B": [[1, 0, 0, 1]]}',
     "[" * 100_000],
    ids=["5000-digit-integer", "deep-nesting"],
)
def test_json_past_the_interpreter_limits_exits_2(tmp_path, capsys, command, text):
    """json.loads raises a plain ValueError for an integer literal past the
    int-string digit limit, and RecursionError for deep nesting."""
    path = tmp_path / "limits.json"
    path.write_text(text)
    code, _, err = run(capsys, command, str(path))
    _assert_one_line_error(code, err, 2)
    assert f"JSON parse error in {path}" in err


def test_milnor_bad_payload_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"genus": 2, "A": [[1, 0, 0, 1]], "B": []}))
    code, _, _ = run(capsys, "milnor", str(path))
    assert code == 2


def test_milnor_relation_violation_exits_3(tmp_path, capsys):
    path = tmp_path / "bad_rel.json"
    payload = {
        "genus": 1,
        "A": [[2.0, 1.0, 0.0, 1.0]],
        "B": [[2.0, 0.0, 0.0, 0.5]],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "milnor", str(path))
    assert code == 3
    assert "relation" in err


@pytest.mark.parametrize("entries, code, message", [
    # singular, with the float det inf - inf = nan
    ([1e200, 1e200, 1e200, 1e200], 2, "determinant nan is not positive"),
    # det 1, but the relation product overflows
    ([1e160, 1e160, 0.0, 1e-160], 3, "non-finite relation product"),
])
def test_milnor_nan_determinant_or_defect_is_refused(tmp_path, capsys, entries, code, message):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"genus": 1, "A": [entries], "B": [entries]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(capsys, "milnor", str(path))
    _assert_one_line_error(got, err, code)
    assert message in err and not caught


def test_milnor_tolerance_flag_relaxes_relation(tmp_path, capsys):
    # rotation pair with a relation defect around 1e-7
    a = [float(v) for v in
         np.array([[0.9999999, 0.0], [0.0, 1.0000001]]).ravel()]
    eye = [1.0, 0.0, 0.0, 1.0]
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"genus": 1, "A": [a], "B": [eye]}))
    code, _, _ = run(capsys, "milnor", str(path))
    assert code == 0  # commuting pair: defect is zero regardless
    code, _, _ = run(capsys, "milnor", str(path), "--tolerance", "1e-2")
    assert code == 0


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_milnor_tolerance_must_be_finite_and_positive(
    rep_file, tmp_path, capsys, monkeypatch, source, value
):
    import chernlab.cli as cli_mod

    cfg = tmp_path / "config.json"
    monkeypatch.setattr(cli_mod, "CONFIG_PATH", cfg)
    flags = []
    if source == "flag":
        flags, name, shown = [f"--tolerance={value}"], "--tolerance", repr(float(value))
    elif source == "env":
        monkeypatch.setenv("CHERNLAB_TOLERANCE", value)
        name, shown = "CHERNLAB_TOLERANCE", repr(value)
    else:
        cfg.write_text(json.dumps({"tolerance": float(value)}))
        name, shown = f"tolerance in {cfg}", repr(float(value))
    code, _, err = run(capsys, "milnor", str(rep_file), *flags)
    _assert_one_line_error(code, err, 2)
    assert err.strip() == f"error: bad {name}: {shown}"


@pytest.mark.parametrize("payload, message", [
    ({"genus": 1.5, "A": [[1, 0, 0, 1]], "B": [[1, 0, 0, 1]]},
     "genus is 1.5, not an integer"),
    ({"genus": 1.0, "A": [[1, 0, 0, 1]], "B": [[1, 0, 0, 1]]},
     "genus is 1.0, not an integer"),
    ({"genus": True, "A": [[1, 0, 0, 1]], "B": [[1, 0, 0, 1]]},
     "genus is true, not an integer"),
    ({"genus": 1, "A": [[1, 0, 0, 1]], "B": [[1, False, 0, 1]]},
     "B[0] has a boolean entry, not a number"),
    ({"genus": 2, "A": [[1, 0, 0, 1], [[1, 0], [True, 1]]], "B": [[1, 0, 0, 1]] * 2},
     "A[1] has a boolean entry, not a number"),
], ids=["float-genus", "integral-float-genus", "bool-genus", "bool-entry",
        "bool-entry-nested"])
def test_milnor_loader_refuses_what_it_would_misread(tmp_path, capsys, payload, message):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "milnor", str(path), "--oracle")
    _assert_one_line_error(code, err, 2)
    assert err.strip() == f"error: {message}"


def test_milnor_oracle_lifts_each_generator_once(tmp_path, capsys, monkeypatch):
    import chernlab.liftgroup as liftgroup_mod
    import chernlab.milnor as milnor_mod

    path = str(tmp_path / "rep.json")
    assert run(capsys, "build", "4", "3", "--out", path)[0] == 0
    calls = []

    def counted(m):
        calls.append(m)
        return liftgroup_mod.principal_lift(m)

    monkeypatch.setattr(milnor_mod, "principal_lift", counted)
    code, data, err = run_json(capsys, "milnor", path, "--oracle")
    assert code == 0, err
    assert data["results"]["path_winding"] == 3
    assert len(calls) == 2 * 4


@pytest.mark.parametrize("degree", ["4", "-4"])
def test_build_lifts_and_inverts_each_generator_once(tmp_path, capsys, monkeypatch, degree):
    # genus 7 has 14 generators: the degree-5 core's 10 are lifted and
    # inverted for the degree check, and the rep and milnor_number reuse
    # them; a negative degree reuses the positive build's lifts, swapped
    import chernlab.liftgroup as liftgroup_mod
    import chernlab.milnor as milnor_mod

    calls = {"principal_lift": 0, "lift_inv": 0}
    for name in calls:
        def counted(x, name=name, real=getattr(liftgroup_mod, name)):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(milnor_mod, name, counted)
        monkeypatch.setattr(liftgroup_mod, name, counted)
    code, data, err = run_json(capsys, "build", "7", degree, "--out", str(tmp_path / "r.json"))
    assert code == 0, err
    assert data["results"]["milnor_number"] == int(degree)
    assert calls == {"principal_lift": 14, "lift_inv": 14}


def test_build_inadmissible_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "build", "2", "2", "--out", str(tmp_path / "x"))
    assert code == 5
    assert "inadmissible" in err


@pytest.mark.parametrize("genus, degree", [("300", "299"), ("251", "250")])
def test_build_past_the_float_range_exits_3(tmp_path, capsys, genus, degree):
    # entries grow polynomially with the degree; near 1e10 their float
    # roundings leave the K class, long before MAX_FLOAT_ENTRY
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(
            capsys, "build", genus, degree, "--out", str(tmp_path / "big.json")
        )
    _assert_one_line_error(code, err, 3)
    assert "float rounding of an exact matrix" in err and "largest entry" in err
    assert not caught and "Warning" not in err


@pytest.mark.parametrize("genus, degree, message", [
    # the first degrees, one of each sign, where the float product of two
    # valid GL+ lifts loses its determinant sign
    ("35", "34", "float product of two GL+ matrices left GL+"),
    ("34", "-33", "float product of two GL+ matrices left GL+"),
])
def test_build_float_conditioning_exits_3(tmp_path, capsys, genus, degree, message):
    out = tmp_path / "rep.json"
    code, _, err = run(capsys, "build", genus, degree, "--out", str(out))
    _assert_one_line_error(code, err, 3)
    assert message in err and "largest entry" in err
    assert not out.exists()


def test_build_below_the_conditioning_limit_exits_0(tmp_path, capsys):
    for genus, degree in [("7", "5"), ("7", "6"), ("7", "-6"), ("17", "16"),
                          ("18", "17"), ("33", "32"), ("34", "33")]:
        out = str(tmp_path / "rep.json")
        assert run(capsys, "build", genus, degree, "--out", out)[0] == 0


def test_milnor_disagreement_exits_4(rep_file, capsys, monkeypatch):
    import chernlab.milnor as milnor_mod

    monkeypatch.setattr(milnor_mod, "winding_number", lambda rep: 7)
    code, out, err = run(capsys, "milnor", str(rep_file), "--oracle")
    _assert_one_line_error(code, err, 4)
    assert "dual-method agreement (lift 1 vs winding 7)" in err
    assert "[FAIL] dual-method agreement" in out


def test_milnor_oracle_past_the_sample_cap_exits_3(tmp_path, capsys, monkeypatch):
    import chernlab.liftgroup as liftgroup_mod

    # build 26 25 needs 15 619 loop samples, within the real cap of 2**15
    monkeypatch.setattr(liftgroup_mod, "MAX_LOOP_SAMPLES", 2**13)
    path = tmp_path / "rep2625.json"
    code, _, _ = run(capsys, "build", "26", "25", "--out", str(path))
    assert code == 0
    code, _, err = run(capsys, "milnor", str(path), "--oracle")
    _assert_one_line_error(code, err, 3)
    assert "MAX_LOOP_SAMPLES = 8192" in err


def test_build_writes_schema(tmp_path, capsys):
    path = tmp_path / "rep32.json"
    code, _, _ = run(capsys, "build", "3", "2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["genus"] == 3
    assert len(data["A"]) == 3 and all(len(row) == 4 for row in data["A"])


def test_milnor_results_block_is_deterministic(rep_file, capsys):
    _, first, _ = run_json(capsys, "milnor", str(rep_file))
    _, second, _ = run_json(capsys, "milnor", str(rep_file))
    assert first["results"] == second["results"]
    assert first["inputs"] == second["inputs"]


def test_build_and_milnor_compute_the_relation_defect_once_per_rep(
    tmp_path, capsys, monkeypatch
):
    import chernlab.milnor as milnor_mod

    reps = []
    relation_defect = milnor_mod.relation_defect

    def counted(rep):
        reps.append(rep)
        return relation_defect(rep)

    monkeypatch.setattr(milnor_mod, "relation_defect", counted)
    path = str(tmp_path / "rep.json")
    for argv in (["build", "3", "2", "--out", path], ["milnor", path, "--oracle"]):
        reps.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(reps) == 1, argv


# -- spectral ---------------------------------------------------------------------

@pytest.fixture()
def complex_file(tmp_path):
    rng = np.random.default_rng(71)
    c = random_filtered_complex(rng)
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(filtered_complex_to_dict(c)))
    return path


def test_spectral_report(complex_file, capsys):
    code, data, _ = run_json(capsys, "spectral", str(complex_file))
    assert code == 0
    assert data["verification"][0]["passed"]
    assert "infinity" in data["results"]
    assert data["results"]["stabilized_at"] >= 1


def test_spectral_pages_flag(complex_file, capsys):
    code, data, _ = run_json(capsys, "spectral", str(complex_file), "--pages", "1")
    assert code == 0
    assert set(data["results"]["pages"]) == {"0", "1"}


def test_spectral_double_complex(tmp_path, capsys):
    rng = np.random.default_rng(73)
    dc = random_double_complex(rng)
    path = tmp_path / "double.json"
    path.write_text(json.dumps(double_complex_to_dict(dc)))
    for filtration in ("vertical", "horizontal"):
        code, data, _ = run_json(
            capsys, "spectral", str(path), "--double", filtration
        )
        assert code == 0
        assert data["verification"][0]["passed"]


def test_spectral_bad_dsquared_exits_3(tmp_path, capsys):
    payload = {
        "degrees": {"0": 1, "1": 1, "2": 1},
        "differentials": {"0": [["1"]], "1": [["1"]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1"]], "2": [["1"]]},
            "1": {"0": [], "1": [], "2": []},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path))
    assert code == 3
    assert "d^2" in err


@pytest.mark.parametrize("entry, expected", [("-3", 0), ("-3.000000000000000000001", 3)])
def test_spectral_dsquared_is_exact_on_fractions(tmp_path, capsys, entry, expected):
    """d^1 d^0 = 2 (1/2) - 3 (1/3) = 0 exactly, and a change in the 21st
    decimal of one entry breaks it."""
    payload = {
        "degrees": {"0": 1, "1": 2, "2": 1},
        "differentials": {"0": [["1/2"], ["1/3"]], "1": [["2", entry]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1", "0"], ["0", "1"]], "2": [["1"]]},
            "1": {"0": [], "1": [], "2": []},
        },
    }
    path = tmp_path / "fractions.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path))
    if expected:
        _assert_one_line_error(code, err, expected)
        assert err.strip() == "error: d^2 != 0 at degree 0"
    else:
        assert code == 0, err


def test_spectral_bad_filtration_exits_3(tmp_path, capsys):
    payload = {
        "degrees": {"0": 1, "1": 1},
        "differentials": {"0": [["1"]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1"]]},
            "1": {"0": [["1"]], "1": []},
            "2": {"0": [], "1": []},
        },
    }
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path))
    assert code == 3
    assert "subcomplex" in err


def test_spectral_missing_interior_step_exits_2(tmp_path, capsys):
    # F^1 C^1 is absent; building the adapted basis of C^1 reads it
    payload = {
        "degrees": {"0": 1, "1": 1},
        "differentials": {"0": [["0"]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1"]]},
            "1": {"0": [["1"]]},
            "2": {"0": [], "1": []},
        },
    }
    path = tmp_path / "missing_step.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path))
    _assert_one_line_error(code, err, 2)
    assert "missing filtration step (1, 1)" in err


def test_spectral_missing_step_in_the_first_degree_exits_2(tmp_path, capsys):
    # F^1 C^0 is absent: the error names that step, not the one before it
    payload = {
        "degrees": {"0": 1, "1": 1},
        "differentials": {"0": [["0"]]},
        "filtration": {
            "0": {"0": [["1"]], "1": [["1"]]},
            "1": {"1": [["1"]]},
            "2": {"0": [], "1": []},
        },
    }
    path = tmp_path / "missing_first.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path))
    _assert_one_line_error(code, err, 2)
    assert err.strip() == "error: missing filtration step (1, 0)"


def test_spectral_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"degrees": {"0": 1}}))
    code, _, _ = run(capsys, "spectral", str(path))
    assert code == 2


def test_spectral_bete_file_stabilizes_by_page_two(tmp_path, capsys):
    from chernlab.spectral import bete_filtration
    from chernlab.subspaces import mat_from_rows

    c = bete_filtration(
        {0: 2, 1: 2, 2: 1},
        {0: mat_from_rows([[1, 0], [1, 0]]), 1: mat_from_rows([[0, 0]])},
        0, 2,
    )
    path = tmp_path / "bete.json"
    path.write_text(json.dumps(filtered_complex_to_dict(c)))
    code, data, _ = run_json(capsys, "spectral", str(path), "--pages", "2")
    assert code == 0
    assert data["results"]["pages"]["2"] == data["results"]["infinity"]
    # graded pieces concentrate the cohomology on the diagonal q = 0
    total_h = sum(int(v) for v in data["results"]["cohomology"].values())
    total_inf = sum(int(v) for v in data["results"]["infinity"].values())
    assert total_h == total_inf


def _assert_one_line_error(code, err, expected_code):
    assert code == expected_code
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _patch_adapted_basis(monkeypatch, patch):
    """Route the pairing's adapted bases of C^n through patch(n, vectors, levels)."""
    import chernlab.spectral as spectral_mod

    real = spectral_mod._adapted_basis
    monkeypatch.setattr(
        spectral_mod, "_adapted_basis", lambda c, n: patch(n, *real(c, n))
    )


def test_spectral_unstable_infinity_page_exits_7(complex_file, capsys, monkeypatch):
    # levels raised by 100 per degree: every pair outlives the stable page
    _patch_adapted_basis(
        monkeypatch, lambda n, vecs, levels: (vecs, [p + 100 * n for p in levels])
    )
    code, _, err = run(capsys, "spectral", str(complex_file))
    _assert_one_line_error(code, err, 7)
    assert "failed to stabilize" in err


def test_spectral_adapted_basis_check_exits_7(complex_file, capsys, monkeypatch):
    _patch_adapted_basis(
        monkeypatch, lambda n, vecs, levels: (vecs[:1] * len(vecs), levels)
    )
    code, _, err = run(capsys, "spectral", str(complex_file))
    _assert_one_line_error(code, err, 7)
    assert "no basis" in err


def test_spectral_cli_reads_pages_from_the_pairing(tmp_path, capsys, monkeypatch):
    """17 spots of dimension 7 in one row and no differentials: every page
    is E_0.  The CLI takes its pages from the pairing alone, so it never
    runs the page recursion, which took seconds here."""
    import chernlab.spectral as spectral_mod

    def recursion(*args):
        raise AssertionError("the CLI ran the page recursion")

    for name in ("page_entry", "page_differential", "compute_page", "infinity_page"):
        monkeypatch.setattr(spectral_mod, name, recursion)
    spots = {f"{i},0": 7 for i in range(17)}
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"dims": spots}))
    code, data, err = run_json(capsys, "spectral", str(path), "--double", "horizontal")
    assert code == 0, err
    assert data["results"]["pages"]["0"] == data["results"]["infinity"] == spots
    assert data["verification"][0]["passed"]


@pytest.mark.parametrize("double", [None, "vertical"])
def test_spectral_convergence_check_builds_no_subspace(
    tmp_path, capsys, monkeypatch, double
):
    """The check reads graded cohomology from ranks: no kernel, image, sum
    or intersection of subspaces is built on the CLI path.  No rank, pivot
    or pairing elimination divides to Fraction there either: rref runs
    only for the loader's Subspace.span."""
    import chernlab.subspaces as subspaces_mod

    rng = np.random.default_rng(79)
    if double:
        payload = double_complex_to_dict(random_double_complex(rng))
        flags = ["--double", double]
    else:
        payload = filtered_complex_to_dict(random_filtered_complex(rng))
        flags = []
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(payload))
    calls = []
    modules = [m for n, m in sys.modules.items() if n.startswith("chernlab")]
    for name in (
        "subspace_intersect", "subspace_sum", "kernel", "kernel_basis", "image",
        "quotient_coordinates", "rref",
    ):
        real = getattr(subspaces_mod, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    span = subspaces_mod.Subspace.span.__func__

    def counted_span(cls, *args, **kwargs):
        calls.append("span")
        return span(cls, *args, **kwargs)

    monkeypatch.setattr(subspaces_mod.Subspace, "span", classmethod(counted_span))
    code, data, err = run_json(capsys, "spectral", str(path), *flags)
    assert code == 0, err
    assert data["verification"][0]["passed"]
    assert any(data["results"]["cohomology"].values())
    assert calls.count("rref") == calls.count("span")
    assert set(calls) <= {"rref", "span"}


def _count_calls(monkeypatch, names) -> list:
    """Record the name of each call of the named subspaces functions, in
    every chernlab module that imported them."""
    import chernlab.subspaces as subspaces_mod

    calls = []
    modules = [m for n, m in sys.modules.items() if n.startswith("chernlab")]
    for name in names:
        real = getattr(subspaces_mod, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


QUOTIENT_ELIMINATIONS = ("quotient_representatives", "_integer_coordinates")


def _load(payload: dict, double: str | None):
    """The complex the CLI builds from payload: loader and pairing."""
    from chernlab import spectral

    if double:
        return spectral.from_double_complex(spectral.double_complex_from_dict(payload), double)
    return spectral.filtered_complex_from_dict(payload)


@pytest.mark.parametrize("double", [None, "vertical", "horizontal"])
def test_spectral_coordinate_payload_runs_no_quotient_elimination(
    tmp_path, capsys, monkeypatch, double
):
    """Every step of a corpus payload is spanned by unit vectors, so the
    kernel reads the pairing's adapted bases and coordinates off unit
    positions: building the complex, loader and pairing, runs no
    elimination, and gives the bases and pairs of the forced eliminations."""
    import chernlab.spectral as spectral_mod
    import chernlab.subspaces as subspaces_mod

    rng = np.random.default_rng(83)
    eliminations, built = [], []
    real_echelon = subspaces_mod._echelon
    real_pairing = spectral_mod.persistence_pairing

    def counted(rows):
        eliminations.append(len(rows))
        return real_echelon(rows)

    def pairing(c):
        built.append((c, len(eliminations)))
        return real_pairing(c)

    monkeypatch.setattr(subspaces_mod, "_echelon", counted)
    monkeypatch.setattr(spectral_mod, "persistence_pairing", pairing)
    paired = 0
    for k in range(4):
        if double:
            payload = double_complex_to_dict(random_double_complex(rng))
            flags = ["--double", double]
        else:
            payload = filtered_complex_to_dict(random_filtered_complex(rng))
            flags = []
        path = tmp_path / f"complex{k}.json"
        path.write_text(json.dumps(payload))
        eliminations.clear()
        code, data, err = run_json(capsys, "spectral", str(path), *flags)
        assert code == 0, err
        assert data["verification"][0]["passed"]
        pages = data["results"]["pages"]
        paired += pages["0"] != data["results"]["infinity"]
        (c, before_pairing), = built
        built.clear()
        assert before_pairing == 0
        bases = {n: spectral_mod._adapted_basis(c, n) for n in c.degrees()}
        with monkeypatch.context() as m:
            m.setattr(subspaces_mod, "_positions", lambda vectors, length: None)
            mark = len(eliminations)
            forced = _load(payload, double)
            assert len(eliminations) > mark
            assert bases == {n: spectral_mod._adapted_basis(forced, n) for n in c.degrees()}
        assert real_pairing(forced).bars == real_pairing(c).bars
    assert paired  # some differential paired vectors, so coordinates ran


# F^1 C^0 = span((1, 1)) in Q^2: no unit vector spans it
SKEW_PAYLOAD = {
    "degrees": {"0": 2, "1": 1},
    "differentials": {"0": [["1", "1"]]},
    "filtration": {
        "0": {"0": [["1", "0"], ["0", "1"]], "1": [["1"]]},
        "1": {"0": [["1", "1"]], "1": [["1"]]},
        "2": {"0": [], "1": []},
    },
}


def test_spectral_non_unit_step_runs_the_eliminations(tmp_path, capsys, monkeypatch):
    from chernlab.spectral import compute_page, filtered_complex_from_dict, infinity_page

    c = filtered_complex_from_dict(SKEW_PAYLOAD)
    stable = c.filtration_length + 1
    reference = {
        "pages": {
            str(r): {f"{p},{q}": d for (p, q), d in compute_page(c, r).dims().items()}
            for r in range(stable + 1)
        },
        "infinity": {f"{p},{q}": d for (p, q), d in infinity_page(c).dims().items()},
    }
    assert reference["pages"]["0"] == {"0,0": 1, "1,-1": 1, "1,0": 1}
    assert reference["infinity"] == {"0,0": 1}

    calls = _count_calls(monkeypatch, QUOTIENT_ELIMINATIONS)
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(SKEW_PAYLOAD))
    code, data, err = run_json(capsys, "spectral", str(path))
    assert code == 0, err
    assert data["verification"][0]["passed"]
    assert {key: data["results"][key] for key in reference} == reference
    assert set(calls) == set(QUOTIENT_ELIMINATIONS)


@pytest.mark.parametrize("flags, payload, message", [
    ([], {"degrees": {"0": 1, "1": 1},
          "differentials": {"0": [["0"]], "5": [["1", "2"]]},
          "filtration": {"0": {"0": [["1"]], "1": [["1"]]}, "1": {"0": [], "1": []}}},
     "differential at 5 is outside the degrees 0 <= n < 1"),
    ([], {"degrees": {"0": 1, "1": 1},
          "differentials": {"0": [["0"]], "-1": []},
          "filtration": {"0": {"0": [["1"]], "1": [["1"]]}, "1": {"0": [], "1": []}}},
     "differential at -1 is outside the degrees 0 <= n < 1"),
    ([], {"degrees": {"0": 1.7}, "differentials": {},
          "filtration": {"0": {"0": [["1"]]}, "1": {"0": []}}},
     "dimension at 0 is 1.7, not an integer"),
    ([], {"degrees": {"0": True}, "differentials": {},
          "filtration": {"0": {"0": [["1"]]}, "1": {"0": []}}},
     "dimension at 0 is true, not an integer"),
    (["--double", "vertical"], {"dims": {"0,0": 1.9, "1,0": 1}},
     "dimension at 0,0 is 1.9, not an integer"),
    (["--double", "horizontal"], {"dims": {"0,0": 1, "1,0": False}},
     "dimension at 1,0 is false, not an integer"),
], ids=["differential-above", "differential-below", "float-degree", "bool-degree",
        "float-spot", "bool-spot"])
def test_spectral_loaders_refuse_what_they_would_misread(
    tmp_path, capsys, flags, payload, message
):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "spectral", str(path), *flags)
    _assert_one_line_error(code, err, 2)
    assert err.strip() == f"error: {message}"


def test_spectral_dimensions_read_from_ints_and_integer_strings(tmp_path, capsys):
    path = tmp_path / "payload.json"
    for dim in (1, "1"):
        path.write_text(json.dumps({
            "degrees": {"0": dim}, "differentials": {},
            "filtration": {"0": {"0": [["1"]]}, "1": {"0": []}},
        }))
        code, data, err = run_json(capsys, "spectral", str(path))
        assert code == 0, err
        assert data["results"]["cohomology"] == {"0": 1}
    path.write_text(json.dumps({"dims": {"0,0": "2", "1,0": 1}}))
    code, data, err = run_json(capsys, "spectral", str(path), "--double", "vertical")
    assert code == 0, err
    assert data["results"]["infinity"] == {"0,0": 2, "0,1": 1}


def test_gauss_bonnet_skipped_nodes_exit_3(capsys, monkeypatch):
    import chernlab.geometry as geo_mod
    from chernlab.errors import DomainError

    def singular(*args, **kwargs):
        raise DomainError("degenerate metric")

    monkeypatch.setattr(geo_mod, "gaussian_curvature", singular)
    code, _, err = run(
        capsys, "geometry", "gauss-bonnet", "flat-torus:2", "--mesh", "8"
    )
    _assert_one_line_error(code, err, 3)
    assert "quadrature nodes were singular" in err


@pytest.mark.parametrize("argv, numpy_loaded", [
    ([], False),
    (["euler", "Sigma(2)"], False),
    (["spectral", "COMPLEX"], False),
    (["geometry", "levi-civita", "sphere:1", "--point", "1,0"], True),
], ids=["import", "euler", "spectral", "geometry"])
def test_cold_start_imports_numpy_only_for_commands_that_use_it(
    complex_file, argv, numpy_loaded
):
    argv = [str(complex_file) if a == "COMPLEX" else a for a in argv]
    script = (
        "import json, sys\n"
        "from chernlab.cli import main\n"
        f"argv = {argv!r}\n"
        "code = main(argv) if argv else 0\n"
        "loaded = [n for n in sys.modules if n.startswith('chernlab.')]\n"
        "print(json.dumps([code, loaded, 'numpy' in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(chernlab.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    code, loaded, numpy_seen = json.loads(child.stdout.splitlines()[-1])
    assert code == 0
    assert numpy_seen is numpy_loaded
    # perfbench's Tracer.install indexes sys.modules["chernlab.<engine>"]
    # for every module it wraps, so importing the cli must register them all
    engines = ("euler", "geometry", "liftgroup", "milnor", "spectral", "subspaces")
    assert {f"chernlab.{name}" for name in engines} <= set(loaded)


# -- geometry -----------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (["transport", "sphere:1", "--latitude", "1", "--vector", "1,0",
          "--samples", "0"], "--samples must be between 1 and"),
        (["transport", "sphere:1", "--latitude", "1", "--vector", "1,0",
          "--samples", "1000001"], "between 1 and 1000000"),
        (["geodesic", "sphere:1", "--point", "1,0", "--time", "nan"],
         "--time must be positive and finite"),
        (["geodesic", "sphere:1", "--point", "1,0", "--time", "inf"],
         "--time must be positive and finite"),
        (["geodesic", "sphere:1", "--point", "1,0", "--time", "0"],
         "--time must be positive and finite"),
        (["geodesic", "euclidean:2", "--time", "1e9"], "between 1 and 1000000"),
        (["geodesic", "euclidean:2", "--time", "1001"], "between 1 and 1000000, got 1001000"),
        (["geodesic", "euclidean:2", "--steps", "1000001"], "between 1 and 1000000"),
        (["exp", "euclidean:2", "--steps", "1000001"], "between 1 and 1000000"),
        (["geodesic", "euclidean:2", "--steps", "0"], "between 1 and 1000000, got 0"),
        (["exp", "euclidean:2", "--steps", "0"], "between 1 and 1000000, got 0"),
        (["geodesic", "euclidean:2", "--rows", "-1"],
         "--rows must be at least 0, got -1"),
        (["gauss-bonnet", "sphere:1", "--mesh", "1025"], "between 8 and 1024"),
        (["geodesic", "euclidean:65"], "between 1 and 64, got 65"),
        (["geodesic", "hopf:65"], "between 1 and 64, got 65"),
        (["geodesic", "flat-torus:100000"], "between 1 and 64, got 100000"),
        (["levi-civita", "sphere:inf", "--point", "1,0.2"],
         "sphere radius must be positive and finite"),
        (["gauss-bonnet", "sphere:nan"], "sphere radius must be positive and finite"),
        (["levi-civita", "sphere:1e300", "--point", "1,0"],
         "sphere radius must be between 1e-50 and 1e+50, got 1e300"),
        (["geodesic", "sphere:1e-300", "--point", "1,0"], "between 1e-50 and 1e+50"),
        (["gauss-bonnet", "sphere:1e100", "--mesh", "8"], "between 1e-50 and 1e+50"),
        (["transport", "sphere:1e-160", "--latitude", "1", "--vector", "1,0",
          "--samples", "20"], "between 1e-50 and 1e+50"),
        (["geodesic", "euclidean:2", "--velocity", "inf,0"], "--velocity must be finite"),
        (["levi-civita", "euclidean:2", "--point", "nan,0"], "--point must be finite"),
        (["levi-civita", "sphere:1", "--point", "5,0"],
         "point [5.0, 0.0] is outside the chart domain"),
        (["geodesic", "euclidean:3", "--point", "0,0", "--velocity", "1,0,0"],
         "point/velocity dimension mismatch"),
        (["transport", "hopf:2", "--latitude", "1", "--vector", "1,0"],
         "--latitude paths exist on spheres only"),
        (["transport", "sphere:1", "--vector", "1,0"],
         "transport needs --path-file or --latitude"),
        (["gauss-bonnet", "hopf:2"], "has no closed-surface patches"),
        (["levi-civita", "hopf:2", "--point", "1,0"], "carries no metric"),
        (["levi-civita", "euclidean:2", "--point", "1,x"], "bad --point"),
    ],
    ids=["samples-0", "samples-cap", "time-nan", "time-inf", "time-0",
         "time-steps-cap", "time-1001", "steps-cap", "exp-steps-cap", "steps-0", "exp-steps-0",
         "rows-negative", "mesh-cap",
         "euclidean-dim-cap", "hopf-dim-cap", "torus-dim-cap", "sphere-inf",
         "sphere-nan", "sphere-radius-cap-high", "sphere-radius-cap-low",
         "sphere-radius-cap-gauss-bonnet", "sphere-radius-cap-transport",
         "velocity-inf", "point-nan", "levi-civita-outside",
         "point-velocity-mismatch", "latitude-off-sphere", "transport-no-path",
         "gauss-bonnet-no-patches", "levi-civita-no-metric", "bad-point"],
)
def test_geometry_input_bounds_exit_2(capsys, argv, message):
    code, _, err = run(capsys, "geometry", *argv)
    _assert_one_line_error(code, err, 2)
    assert message in err


@pytest.mark.parametrize(
    "argv, payload, message",
    [
        (["build", "1001", "1", "--out", "x.json"], None,
         "genus must be at most 1000, got 1001"),
        (["build", "0", "0", "--out", "x.json"], None,
         "genus must be a positive integer"),
        (["build", "-1", "0", "--out", "x.json"], None,
         "genus must be a positive integer"),
        (["build", "3", "2", "--out", "/nonexistent/dir/x.json"], None,
         "cannot write /nonexistent/dir/x.json"),
        (["spectral", "FILE", "--pages", "-1"], None, "between 0 and 100, got -1"),
        (["spectral", "FILE", "--pages", "3000"], None, "between 0 and 100, got 3000"),
        (["spectral", "FILE", "--double", "vertical"],
         {"dims": {"0,0": 1, "1000,1000": 1}}, "between 0 and 16, got 1000 and 1000"),
        (["spectral", "FILE", "--double", "vertical"],
         {"dims": {"0,0": 100, "1,0": 29}}, "total dimension exceeds 128"),
        (["spectral", "FILE"],
         {"degrees": {"0": 10**9}, "differentials": {},
          "filtration": {"0": {}, "1": {}}},
         "total dimension exceeds 128"),
        (["spectral", "FILE"],
         {"degrees": {"0": 1}, "differentials": {},
          "filtration": {"0": {"0": [["1"]]}, "1000": {"0": []}}},
         "filtration length exceeds 64"),
        (["spectral", "FILE"],
         {"degrees": {"0": 1}, "differentials": {},
          "filtration": {"0": {"0": [["1e999999999"]]}, "1": {"0": []}}},
         "exponent beyond 1000"),
        (["spectral", "FILE", "--double", "vertical"],
         {"dims": {"0,0": 1, "1,0": 1}, "dH": {"0,0": [["1"]], "7,7": [["1", "2"]]},
          "dV": {"-1,0": [["5"]]}},
         "d_h at (7, 7) is outside the grid 0 <= i <= 1, 0 <= j <= 0"),
        (["milnor", "."], None, "cannot read ."),
    ],
    ids=["genus-cap", "genus-0", "genus-negative", "unwritable-out", "pages-negative",
         "pages-cap", "bidegree-cap", "double-dim-cap", "degree-dim-cap",
         "filtration-length-cap", "entry-exponent-cap", "double-spot-outside-grid",
         "milnor-directory"],
)
def test_build_and_spectral_input_bounds_exit_2(
    tmp_path, complex_file, capsys, monkeypatch, argv, payload, message
):
    monkeypatch.chdir(tmp_path)
    path = complex_file  # FILE, unless the case brings its own payload
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, _, err = run(capsys, *argv)
    _assert_one_line_error(code, err, 2)
    assert message in err


def test_geodesic_torus_runs_to_time(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "geodesic", "flat-torus:2",
        "--point", "0.1,0.2", "--velocity", "0.3,0.7",
        "--time", "10", "--steps", "2000",
    )
    assert code == 0
    assert data["results"]["escape_flag"] is False
    assert data["results"]["end_time"] == pytest.approx(10.0)


def test_geodesic_json_keeps_huge_velocities_finite(capsys):
    # rounding a numpy float to 12 places overflows above about 1.8e296
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "geometry", "geodesic", "sphere:1",
            "--point", "1,0", "--velocity", "1e300,0", "--json",
        )
    assert code == 0
    assert err == "" and not caught
    rows = json.loads(out, parse_constant=refuse)["results"]["rows"]
    assert rows[0]["velocity"] == [1e300, 0.0]
    assert rows[0]["point"] == [1.0, 0.0]


def test_geodesic_reports_its_steps(capsys):
    argv = ["geometry", "geodesic", "sphere:1", "--point", "1,0",
            "--velocity", "1,1", "--time", "0.3"]
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    got = data["results"]
    assert got["floored"] == 0 and "method" not in got
    assert 0 < got["steps"] < 300 and got["rejected"] >= 0
    assert got["rows"][-1]["t"] == 0.3
    assert len(got["rows"]) == got["steps"] + 1  # fewer than 2 x 20 rows: all printed
    assert data["verification"][0]["check"] == "coarser integration agrees"
    assert data["verification"][0]["passed"]
    assert run_json(capsys, *argv)[1]["results"] == got

    # --steps is the budget of the same integration: a run that never
    # needs the floor time / steps is unchanged by it
    code, data, _ = run_json(capsys, *argv, "--steps", "300")
    assert code == 0 and data["results"] == got
    assert data["verification"][0]["passed"]
    # a budget the run needs: at most 10 steps, none but the last below 0.3 / 10
    code, data, _ = run_json(capsys, *argv, "--steps", "10")
    times = [row["t"] for row in data["results"]["rows"]]
    assert code == 0 and len(times) - 1 == data["results"]["steps"] <= 10
    assert all(b - a >= 0.03 - 1e-12 for a, b in zip(times[:-2], times[1:-1]))


def test_exp_sphere_with_a_step_budget_follows_the_great_circle(capsys):
    for p, v in [([1.0, 0.3], [0.4, 0.2]), ([2.1, -2.5], [-0.35, 0.3]),
                 ([1.4, 1.0], [0.1, -0.55])]:
        code, data, _ = run_json(
            capsys, "geometry", "exp", "sphere:2.5", f"--point={p[0]},{p[1]}",
            f"--velocity={v[0]},{v[1]}", "--steps", "400",
        )
        assert code == 0
        diff = np.array(data["results"]["exp"]) - great_circle(p, v, 1.0)
        diff[1] = math.remainder(diff[1], 2.0 * math.pi)
        assert np.max(np.abs(diff)) <= 1e-6


def test_an_under_resolved_geodesic_fails_the_coarser_check(capsys):
    code, _, err = run(
        capsys, "geometry", "geodesic", "sphere:1", "--point", "1,0",
        "--velocity", "1,1", "--steps", "3",
    )
    assert code == 4
    assert "failed checks: coarser integration agrees (endpoint drift" in err


def test_geodesic_hopf_incompleteness_verdict(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "geodesic", "hopf:2",
        "--point", "1,0", "--velocity=-p", "--time", "1.01",
    )
    assert code == 0
    assert data["results"]["escape_flag"] is True
    assert "incomplete" in data["results"]["verdict"]
    assert data["results"]["end_time"] < 1.01


def test_geometry_unknown_key_exits_2(capsys):
    code, _, err = run(capsys, "geometry", "geodesic", "banana:2")
    assert code == 2
    assert "unknown geometry" in err


def test_exponential_escape_exits_6(capsys):
    code, _, err = run(
        capsys, "geometry", "exp", "hopf:2",
        "--point", "0.7,0", "--velocity=-p",
    )
    assert code == 6
    assert "last state" in err


def test_exponential_escape_integrates_once(capsys, monkeypatch):
    import chernlab.geometry as geo_mod

    calls = []
    geodesic = geo_mod.geodesic

    def counted(*args, **kwargs):
        calls.append(args)
        return geodesic(*args, **kwargs)

    monkeypatch.setattr(geo_mod, "geodesic", counted)
    code, _, _ = run(
        capsys, "geometry", "exp", "hopf:2",
        "--point", "0.7,0", "--velocity=-p",
    )
    assert code == 6
    assert len(calls) == 1


def test_exponential_flat(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "exp", "euclidean:2",
        "--point", "1,1", "--velocity", "0.5,-0.25", "--steps", "64",
    )
    assert code == 0
    assert data["results"]["exp"] == pytest.approx([1.5, 0.75])


def test_gauss_bonnet_sphere(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "gauss-bonnet", "sphere:1", "--mesh", "16"
    )
    assert code == 0
    assert data["results"]["chi_refined"] == pytest.approx(2.0, abs=5e-3)
    assert data["results"]["nearest_integer"] == 2


def test_gauss_bonnet_env_mesh_overrides_flag(capsys, monkeypatch):
    monkeypatch.setenv("CHERNLAB_MESH", "8")
    code, data, _ = run_json(
        capsys, "geometry", "gauss-bonnet", "flat-torus:2", "--mesh", "32"
    )
    assert code == 0
    assert data["results"]["mesh"] == 8


def test_config_file_is_overridden_by_flag(tmp_path, capsys, monkeypatch):
    import chernlab.cli as cli_mod

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mesh": 8}))
    monkeypatch.setattr(cli_mod, "CONFIG_PATH", cfg)
    # config alone sets the mesh
    code, data, _ = run_json(capsys, "geometry", "gauss-bonnet", "flat-torus:2")
    assert code == 0 and data["results"]["mesh"] == 8
    # an explicit flag beats the config
    code, data, _ = run_json(
        capsys, "geometry", "gauss-bonnet", "flat-torus:2", "--mesh", "16"
    )
    assert code == 0 and data["results"]["mesh"] == 16


@pytest.mark.parametrize(
    "text, message",
    [('{"mesh": ', "JSON parse error in"), ('{"mesh": "abc"}', "bad mesh in"),
     ('{"mesh": null}', "bad mesh in"), ("[8]", "must hold a JSON object"),
     ('{"mesh": 1' + "0" * 5000 + "}", "JSON parse error in")],
    ids=["truncated", "not-a-number", "null", "not-an-object", "huge-integer"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, monkeypatch, text, message):
    import chernlab.cli as cli_mod

    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    monkeypatch.setattr(cli_mod, "CONFIG_PATH", cfg)
    code, _, err = run(capsys, "geometry", "gauss-bonnet", "flat-torus:2")
    _assert_one_line_error(code, err, 2)
    assert message in err and str(cfg) in err


def run_with_home(home, config, argv, env=None):
    """main(argv) in a fresh interpreter whose HOME is home, with config
    (if any) as its ~/.config/chernlab/config.json: (exit code, stderr,
    config path)."""
    cfg = home / ".config" / "chernlab" / "config.json"
    if config is not None:
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(json.dumps(config))
    script = "import sys\nfrom chernlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    child_env = {k: v for k, v in os.environ.items() if not k.startswith("CHERNLAB_")}
    child_env.update(HOME=str(home), **(env or {}))
    child_env["PYTHONPATH"] = str(Path(chernlab.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", script, *argv], env=child_env,
                           capture_output=True, text=True, timeout=120)
    return child.returncode, child.stderr, cfg


@pytest.mark.parametrize("name", ["tolerance", "mesh"])
def test_a_boolean_setting_in_the_config_file_is_refused(tmp_path, capsys, name):
    # float(True) and int(True) would run at tolerance 1.0 or mesh 1
    rep = tmp_path / "rep.json"
    assert run(capsys, "build", "2", "1", "--out", str(rep))[0] == 0
    argv = (["milnor", str(rep)] if name == "tolerance"
            else ["geometry", "gauss-bonnet", "flat-torus:2"])
    code, err, cfg = run_with_home(tmp_path, {name: True}, argv)
    _assert_one_line_error(code, err, 2)
    assert err.strip() == f"error: bad {name} in {cfg}: True"


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_the_mesh_bound_names_the_source_of_the_value(tmp_path, source):
    argv, env, config = ["geometry", "gauss-bonnet", "flat-torus:2"], None, None
    if source == "flag":
        argv += ["--mesh", "2"]
    elif source == "env":
        env = {"CHERNLAB_MESH": "2"}
    else:
        config = {"mesh": 2}
    code, err, cfg = run_with_home(tmp_path, config, argv, env)
    name = {"flag": "--mesh", "env": "CHERNLAB_MESH", "config": f"mesh in {cfg}"}[source]
    _assert_one_line_error(code, err, 2)
    assert err.strip() == f"error: {name} must be between 8 and 1024, got 2"


def test_missing_config_file_is_allowed(tmp_path, capsys, monkeypatch):
    import chernlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "CONFIG_PATH", tmp_path / "absent.json")
    code, data, _ = run_json(capsys, "geometry", "gauss-bonnet", "flat-torus:2")
    assert code == 0 and data["results"]["mesh"] == 64


def test_transport_latitude(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "transport", "sphere:1",
        "--latitude", "1.0", "--vector", "1,0", "--samples", "400",
    )
    assert code == 0
    assert float(data["results"]["round_trip_residual"]) <= 1e-5 * 1.0  # max|v|, v = 1,0
    assert data["verification"] == []


def test_transport_path_file(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps([[0.0, 0.0], [0.5, 0.1], [1.0, 0.3]]))
    code, data, _ = run_json(
        capsys, "geometry", "transport", "euclidean:2",
        "--path-file", str(path), "--vector", "0.2,-0.4",
    )
    assert code == 0
    assert data["results"]["transported"] == pytest.approx([0.2, -0.4])


def test_transport_refines_substeps_until_the_round_trip_closes(tmp_path, capsys):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps([[1.0, 1.0], [1.0, 0.25]]))
    argv = ["geometry", "transport", "sphere:1", "--path-file", str(path)]
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    assert data["results"]["substeps"] == 2
    assert float(data["results"]["round_trip_residual"]) <= 1e-5 * 1.0  # max|v|, v = 1,0
    assert data["verification"] == []
    code, data, _ = run_json(capsys, "geometry", "transport", "sphere:1",
                             "--latitude", "1.0", "--samples", "400")
    assert code == 0 and data["results"]["substeps"] == 1


def test_transport_past_the_step_cap_exits_3(tmp_path, capsys, monkeypatch):
    import chernlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_STEPS", 1)
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps([[1.0, 1.0], [1.0, 0.25]]))
    code, _, err = run(capsys, "geometry", "transport", "sphere:1",
                       "--path-file", str(path))
    _assert_one_line_error(code, err, 3)
    assert "MAX_STEPS = 1 " in err


def test_transport_ladder_stays_within_the_step_cap(tmp_path, capsys, monkeypatch):
    import chernlab.cli as cli_mod
    import chernlab.geometry as geo_mod

    monkeypatch.setattr(cli_mod, "MAX_STEPS", 100)
    round_trip = geo_mod.transport_round_trip
    rungs = []

    def counted(conn, path, v0, substeps=1):
        rungs.append((len(path) - 1) * substeps)
        return round_trip(conn, path, v0, substeps)

    monkeypatch.setattr(geo_mod, "transport_round_trip", counted)
    path = tmp_path / "never_closes.json"
    path.write_text(json.dumps([[0.001, 0.0], [0.001, 1e6]]))
    code, _, err = run(capsys, "geometry", "transport", "sphere:1",
                       "--path-file", str(path), "--vector", "1,1")
    _assert_one_line_error(code, err, 3)
    # 1 + 2 + ... + 16 substeps, both directions: 62 steps; the next rung
    # (32 substeps, 64 steps) would take the total past 100
    assert rungs == [1, 2, 4, 8, 16]
    assert 2 * sum(rungs) == 62 <= cli_mod.MAX_STEPS < 2 * sum(rungs) + 2 * 32
    assert "after 62 RK4 steps" in err


@pytest.mark.parametrize("vector", ["1,0", "1e-6,0", "1e6,0"])
def test_transport_closure_is_relative_to_the_vector(tmp_path, capsys, vector):
    path = tmp_path / "path.json"
    path.write_text(json.dumps([[1, 0], [1, 2], [1, 4], [1, 6]]))
    code, data, _ = run_json(capsys, "geometry", "transport", "sphere:1",
                             "--path-file", str(path), f"--vector={vector}")
    assert code == 0 and data["results"]["substeps"] == 8


def test_transport_of_the_zero_vector_closes_at_once(capsys):
    code, data, _ = run_json(capsys, "geometry", "transport", "sphere:1",
                             "--latitude", "1.0", "--vector", "0,0")
    assert code == 0 and data["results"]["substeps"] == 1
    assert data["results"]["transported"] == [0.0, 0.0]


def test_transport_evaluates_the_metric_once_per_distinct_node(capsys, monkeypatch):
    import chernlab.geometry as geo_mod

    factory = geo_mod.sphere_metric
    points = []

    def counted(radius):
        g = factory(radius)

        def metric(p):
            points.append(math.prod(np.shape(p)[:-1]))
            return g(p)

        return metric

    monkeypatch.setattr(geo_mod, "sphere_metric", counted)
    code, data, _ = run_json(capsys, "geometry", "transport", "sphere:1",
                             "--latitude", "1.0", "--vector", "1,0", "--samples", "150")
    assert code == 0 and data["results"]["substeps"] == 1
    # 2 * 150 + 1 nodes, each on a 5-point stencil
    assert sum(points) == 1505


def test_transport_path_file_is_capped_at_max_samples(tmp_path, capsys, monkeypatch):
    import chernlab.cli as cli_mod

    monkeypatch.setattr(cli_mod, "MAX_SAMPLES", 4)
    path = tmp_path / "path.json"
    path.write_text(json.dumps([[0.0, 0.1 * k] for k in range(6)]))
    code, _, err = run(capsys, "geometry", "transport", "euclidean:2",
                       "--path-file", str(path), "--vector", "1,0")
    _assert_one_line_error(code, err, 2)
    assert "--path-file has 6 points" in err and "MAX_SAMPLES + 1 = 5" in err
    path.write_text(json.dumps([[0.0, 0.1 * k] for k in range(5)]))
    code, _, _ = run(capsys, "geometry", "transport", "euclidean:2",
                     "--path-file", str(path), "--vector", "1,0")
    assert code == 0


@pytest.mark.parametrize(
    "rows, vector",
    [([[0.0, 0.0], [1.0]], "1,0"), ([[0.0, 0.0], [1.0, 0.5]], "1,0,0")],
    ids=["ragged-path", "vector-dimension"],
)
def test_transport_malformed_input_exits_2(tmp_path, capsys, rows, vector):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(rows))
    code, _, err = run(
        capsys, "geometry", "transport", "euclidean:2",
        "--path-file", str(path), "--vector", vector,
    )
    _assert_one_line_error(code, err, 2)


@pytest.mark.parametrize(
    "key, text",
    [("euclidean:2", '{"01": 5, "23": 7}'), ("euclidean:1", '"12"'),
     ("euclidean:2", "[[true, false], [false, true]]"),
     ("euclidean:2", '[["0", "1.5"], ["2", "3"]]')],
    ids=["object", "string", "booleans", "number-strings"],
)
def test_transport_path_file_must_hold_points_of_numbers(tmp_path, capsys, key, text):
    path = tmp_path / "path.json"
    path.write_text(text)
    code, _, err = run(capsys, "geometry", "transport", key,
                       "--path-file", str(path), "--vector", ",".join(["1"] * int(key[-1])))
    _assert_one_line_error(code, err, 2)
    assert f"--path-file {path} must hold a JSON list of points" in err


def test_transport_path_file_past_the_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(f"[[{10**400}, 0], [1, 2]]")
    code, _, err = run(capsys, "geometry", "transport", "euclidean:2",
                       "--path-file", str(path), "--vector", "1,0")
    _assert_one_line_error(code, err, 2)
    assert str(path) in err


def test_levi_civita_report(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "levi-civita", "sphere:1", "--point", "1.1,0.2"
    )
    assert code == 0
    gamma = data["results"]["christoffel"]
    assert gamma[0][1][1] == pytest.approx(-np.sin(1.1) * np.cos(1.1), abs=1e-6)


# -- euler --------------------------------------------------------------------------

def test_euler_flat_four_manifold_expression(capsys):
    code, data, _ = run_json(capsys, "euler", "(Sigma(3)*Sigma(3)) # P^6")
    assert code == 0
    assert data["results"]["euler_characteristic"] == 4


def test_euler_trivial_surface(capsys):
    code, data, _ = run_json(capsys, "euler", "Sigma(1)")
    assert code == 0
    assert data["results"]["euler_characteristic"] == 0


def test_euler_smillie_form(capsys):
    code, data, _ = run_json(capsys, "euler", "smillie", "10")
    assert code == 0
    assert data["results"]["euler_characteristic"] == 32


def test_euler_deep_nesting_exits_2_with_caret(capsys):
    from chernlab.euler import MAX_NESTING

    code, _, err = run(capsys, "euler", "(" * 3000 + "P" + ")" * 3000)
    assert code == 2
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[0].startswith("error: parentheses nest deeper")
    assert lines[-1].index("^") - lines[-2].index("(") == MAX_NESTING


@pytest.mark.parametrize(
    "expression, message",
    [
        ("Sigma(\u00b2)", "expected an integer"),
        ("P^\u00b2", "expected an integer"),
        ("Sigma(" + "7" * 5000 + ")", "exceeds 1000 digits"),
        ("smillie 30000", "smillie dimension exceeds 10000"),
        ("P^1000000", "between 1 and 10000"),
        ("smillie 100000000", "smillie dimension exceeds 10000"),
        (" * ".join(["Sigma(" + "9" * 999 + ")"] * 6), "exceeds 10000 bits"),
    ],
    ids=["superscript-genus", "superscript-power", "long-literal",
         "smillie-30000", "power-cap", "smillie-cap", "chi-bits"],
)
def test_euler_input_bounds_exit_2(capsys, expression, message):
    code, _, err = run(capsys, "euler", expression)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("error: ")
    assert message in err.splitlines()[0]


def test_euler_grammar_error_has_caret(capsys):
    code, _, err = run(capsys, "euler", "Sigma(3) * Q(2)")
    assert code == 2
    lines = err.splitlines()
    caret_line = lines[-1]
    assert caret_line.strip() == "^"
    assert caret_line.index("^") - lines[-2].index("Sigma") == 11


# -- every verification check can fail -----------------------------------------------

def _coarse_run_one_unit_off(geodesic):
    """geodesic, with the end point of the coarser run, the one call that
    passes a tolerance, moved by one unit."""
    def faulty(conn, p, v, time, steps=None, *tol):
        traj = geodesic(conn, p, v, time, steps, *tol)
        if not tol:
            return traj
        return dataclasses.replace(traj, points=traj.points[:-1] + (traj.points[-1] + 1.0,))
    return faulty


# each check the CLI emits: the command that emits it, and one fault (module,
# function, wrapper) in the value the check compares
CHECK_FAULTS = {
    # both methods agree on |delta| = g
    "milnor inequality": (["milnor", "REP", "--oracle"], [
        ("milnor", "milnor_number", lambda f: lambda rep: rep.genus),
        ("milnor", "winding_number", lambda f: lambda rep: rep.genus),
    ]),
    "dual-method agreement": (["milnor", "REP", "--oracle"], [
        ("milnor", "winding_number", lambda f: lambda rep: f(rep) + 1),
    ]),
    "degree realised": (["build", "2", "1", "--out", "OUT"], [
        ("milnor", "milnor_number", lambda f: lambda rep: f(rep) + 1),
    ]),
    "convergence E_inf = gr H": (["spectral", "COMPLEX"], [
        ("spectral", "graded_cohomology", lambda f: lambda c, p, q: f(c, p, q) + 1),
    ]),
    "coarser integration agrees": (
        ["geometry", "geodesic", "sphere:1", "--point", "1,0", "--velocity", "1,1",
         "--time", "0.3"],
        [("geometry", "geodesic", _coarse_run_one_unit_off)],
    ),
    # the refined pass, at mesh 32, is a quarter off
    "mesh refinement converges": (["geometry", "gauss-bonnet", "sphere:1", "--mesh", "16"], [
        ("geometry", "gauss_bonnet",
         lambda f: lambda patches, n: f(patches, n) + (0.25 if n == 32 else 0.0)),
    ]),
}


@pytest.mark.parametrize("name", sorted(CHECK_FAULTS))
def test_each_check_fails_alone_on_its_fault(name, rep_file, complex_file, tmp_path,
                                             capsys, monkeypatch):
    files = {"REP": str(rep_file), "COMPLEX": str(complex_file),
             "OUT": str(tmp_path / "out.json")}
    command, faults = CHECK_FAULTS[name]
    argv = [files.get(a, a) for a in command]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and f"  [PASS] {name}" in out
    for module, attr, fault in faults:
        module = importlib.import_module(f"chernlab.{module}")
        monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    code, out, err = run(capsys, *argv)
    assert code == 4
    (fail,) = [line for line in out.splitlines() if "[FAIL]" in line]
    assert fail.startswith(f"  [FAIL] {name}")
    assert err == f"error: failed checks: {fail.removeprefix('  [FAIL] ')}\n"


# -- argument parsing ---------------------------------------------------------------

FILTERED_ROW = {"degrees": {"0": 1}, "differentials": {},
                "filtration": {"0": {"0": [["1"]]}, "1": {"0": []}}}

PARSE_ROUTE_ARGV = [
    [], ["-h"], ["--help"], ["-h", "euler"], ["nosuch"], ["nosuch", "P"],
    ["Euler", "P"], ["--json", "euler", "P"],
    ["euler"], ["euler", "P", "-h"], ["euler", "--he"], ["euler", "P"],
    ["euler", "--js", "P"], ["euler", "P", "--json", "--json"], ["euler", "-x"],
    ["euler", "--", "P"], ["euler", "P", "--", "--json"], ["euler", "P", "--nope"],
    ["milnor", "r.json", "--nope"], ["milnor", "r.json", "--orac"],
    ["milnor", "r.json", "--o", "--json"], ["milnor", "--json", "r.json"],
    ["milnor", "r.json", "s.json"], ["milnor", "r.json", "--tolerance"],
    ["milnor", "r.json", "--tolerance", "1e-6", "--oracle"], ["milnor"],
    ["build", "2"], ["build", "2", "x", "--out", "b.json"],
    ["build", "2", "1", "3", "--out", "b.json"], ["build", "2", "1", "--o", "b.json"],
    ["build", "2", "3", "--out", "b.json"],
    ["spectral", "c.json", "--pages=-1"], ["spectral", "c.json", "--pages", "-1"],
    ["spectral", "c.json", "--pages", "1"], ["spectral", "c.json", "--double", "diagonal"],
    ["geometry", "nosuch", "hopf:2"], ["geometry", "levi-civita"],
    ["geometry", "geodesic", "euclidean:2", "--point", "-0.5,0.3"],
    ["geometry", "geodesic", "euclidean:2", "--point=-0.5,0.3", "--time", "0.1"],
    ["geometry", "geodesic", "hopf:2", "--steps", "x"],
    ["geometry", "geodesic", "hopf:2", "--steps", "1.5"],
    ["geometry", "exp", "hopf:2", "--velocity", "-p"],
    ["geometry", "exp", "hopf:2", "--point", "0.7,0", "--velocity=-p"],
    ["geometry", "geodesic", "hopf:2", "--point", "-0.5,0.3", "--velocity", "-1,0",
     "--time", "0.3"],
    ["geometry", "geodesic", "euclidean:2", "--velocity", "-.5,1", "--time", "0.1"],
    ["geometry", "transport", "sphere:1", "--latitude", "1.0", "--vector", "-1,0"],
    ["geometry", "transport", "sphere:1", "--vector=-1,0", "--latitude", "1.0"],
    ["geometry", "geodesic", "hopf:2", "--velocity", "1,0", "--point"],
]


def parse_route_outcome(capsys, monkeypatch, argv):
    """Exit code, stdout and stderr of main(argv), with the clock stopped."""
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_ROUTE_ARGV,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_argv_as_the_top_parser_does(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "2", "1", "--out", "r.json"]) == 0
    (tmp_path / "c.json").write_text(json.dumps(FILTERED_ROW))
    capsys.readouterr()
    direct = parse_route_outcome(capsys, monkeypatch, argv)
    monkeypatch.setattr(cli, "_parse_args", cli.build_parser().parse_args)
    assert parse_route_outcome(capsys, monkeypatch, argv) == direct
    assert "Traceback" not in direct[2]


@pytest.mark.parametrize("argv, option, value", [
    (["geometry", "geodesic", "hopf:2", "--time", "0.3"], "--point", "-0.5,0.3"),
    (["geometry", "geodesic", "hopf:2", "--point", "0.5,0.3"], "--velocity", "-1,0.2"),
    (["geometry", "exp", "sphere:1", "--point", "1,0.3"], "--velocity", "-.4,0.2"),
    (["geometry", "transport", "sphere:1", "--latitude", "1.0"], "--vector", "-1,0"),
    (["geometry", "levi-civita", "euclidean:2"], "--point", "-1e-3,2"),
])
def test_a_negative_vector_value_parses_after_a_space_as_after_equals(
        capsys, argv, option, value):
    reports = []
    for form in ([option, value], [f"{option}={value}"]):
        code, report, err = run_json(capsys, *argv, *form)
        assert code == 0 and report.pop("timing")
        reports.append((report, err))
    assert reports[0] == reports[1]


def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["chernlab", "euler", "smillie 4"])
    assert parse_route_outcome(capsys, monkeypatch, None)[:1] == (0,)
    monkeypatch.setattr(sys, "argv", ["chernlab", "euler"])
    code, out, err = parse_route_outcome(capsys, monkeypatch, None)
    assert (code, out) == ("SystemExit(2)", "")
    assert err.splitlines()[-1].startswith("chernlab euler: error: ")


# -- the output end of the exit-code contract ----------------------------------------

def cli_child(argv, **kwargs):
    """The installed command's entry, console_main, on argv in a fresh
    interpreter, as a Popen with stderr piped."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHERNLAB_")}
    env["PYTHONPATH"] = str(Path(chernlab.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "chernlab.cli", *argv], env=env,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def output_end(child, stdout_closed_after=None):
    """(exit code, stderr lines) of the child, its stdout pipe read up to
    stdout_closed_after bytes (None: not at all) and then closed."""
    if stdout_closed_after:
        child.stdout.read(stdout_closed_after)
    if child.stdout is not None:
        child.stdout.close()
    err = child.stderr.read()
    return child.wait(timeout=120), err.splitlines()


@pytest.fixture()
def output_end_inputs(tmp_path, rep_file, complex_file):
    return {"REP": str(rep_file), "COMPLEX": str(complex_file),
            "OUT": str(tmp_path / "out.json")}


OUTPUT_END_OPS = [
    ["milnor", "REP", "--json"],
    ["build", "3", "2", "--out", "OUT"],
    ["spectral", "COMPLEX"],
    ["geometry", "gauss-bonnet", "sphere:1", "--mesh", "16"],
    ["euler", "smillie 10", "--json"],
]


@pytest.mark.parametrize("argv", OUTPUT_END_OPS, ids=[a[0] for a in OUTPUT_END_OPS])
def test_a_closed_stdout_pipe_exits_2_with_one_error_line(output_end_inputs, argv):
    # the reader is gone before the report is written: every write is EPIPE
    argv = [output_end_inputs.get(a, a) for a in argv]
    code, err = output_end(cli_child(argv, stdout=subprocess.PIPE))
    assert (code, err) == (2, ["error: cannot write stdout: Broken pipe"])


def test_a_pipe_closed_after_one_byte_exits_2_with_one_error_line():
    # about 290 KB of rows: more than a pipe holds, so writes follow the close
    argv = ["geometry", "geodesic", "sphere:1", "--point", "1,0", "--velocity", "1,1",
            "--time", "50", "--rows", "0", "--json"]
    code, err = output_end(cli_child(argv, stdout=subprocess.PIPE), stdout_closed_after=1)
    assert (code, err) == (2, ["error: cannot write stdout: Broken pipe"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["euler", "smillie 10"], ["euler", "smillie 10", "--json"]])
def test_a_full_stdout_device_exits_2_with_one_error_line(argv):
    with open("/dev/full", "w") as full:
        code, err = output_end(cli_child(argv, stdout=full))
    assert (code, err) == (2, ["error: cannot write stdout: No space left on device"])


def numpy_mapped(pid):
    """Whether the process pid has mapped numpy, from /proc/<pid>/maps."""
    with open(f"/proc/{pid}/maps") as maps:
        return any("numpy" in line for line in maps)


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/maps"),
                    reason="reads the memory map from /proc")
def test_sigint_ends_the_command_by_the_signal_without_a_traceback():
    child = cli_child(["geometry", "gauss-bonnet", "sphere:1", "--mesh", "1024"],
                      stdout=subprocess.DEVNULL)
    try:
        # only the geometry command imports numpy, after console_main has
        # restored the default SIGINT; the 1024-mesh quadrature then runs
        # for seconds
        deadline = time.monotonic() + 60
        while not numpy_mapped(child.pid):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGINT)
        err = child.stderr.read()
        assert child.wait(timeout=60) == -signal.SIGINT
        assert "Traceback" not in err and "KeyboardInterrupt" not in err
    finally:
        child.kill()
        child.wait()
