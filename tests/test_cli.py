"""CLI contract: exit codes, schemas, determinism of results blocks."""

import json

import numpy as np
import pytest

from corpusgen import random_double_complex, random_filtered_complex
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


def test_build_inadmissible_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "build", "2", "2", "--out", str(tmp_path / "x"))
    assert code == 5
    assert "inadmissible" in err


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


def test_spectral_differential_invariant_exits_7(complex_file, capsys, monkeypatch):
    import chernlab.spectral as spectral_mod
    from chernlab.errors import InternalConsistencyError

    def broken(c, r, p, q):
        raise InternalConsistencyError("page differential leaves the target")

    monkeypatch.setattr(spectral_mod, "page_differential", broken)
    code, _, err = run(capsys, "spectral", str(complex_file))
    _assert_one_line_error(code, err, 7)
    assert "internal invariant violated" in err


def test_spectral_unstable_infinity_page_exits_7(complex_file, capsys, monkeypatch):
    import chernlab.spectral as spectral_mod

    real_entry = spectral_mod.page_entry

    def drifting(c, r, p, q):
        entry = real_entry(c, r, p, q)
        if r == c.filtration_length + 2:  # the stability probe
            return spectral_mod.PageEntry(entry.numerator, entry.numerator)
        return entry

    monkeypatch.setattr(spectral_mod, "page_entry", drifting)
    code, _, err = run(capsys, "spectral", str(complex_file))
    _assert_one_line_error(code, err, 7)
    assert "failed to stabilize" in err


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
        (["geodesic", "euclidean:2", "--steps", "1000001"], "between 1 and 1000000"),
        (["exp", "euclidean:2", "--steps", "1000001"], "between 1 and 1000000"),
        (["gauss-bonnet", "sphere:1", "--mesh", "1025"], "between 8 and 1024"),
    ],
    ids=["samples-0", "samples-cap", "time-nan", "time-inf", "time-0",
         "time-steps-cap", "steps-cap", "exp-steps-cap", "mesh-cap"],
)
def test_geometry_input_bounds_exit_2(capsys, argv, message):
    code, _, err = run(capsys, "geometry", *argv)
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


def test_transport_latitude(capsys):
    code, data, _ = run_json(
        capsys, "geometry", "transport", "sphere:1",
        "--latitude", "1.0", "--vector", "1,0", "--samples", "400",
    )
    assert code == 0
    assert data["verification"][0]["passed"]


def test_transport_path_file(tmp_path, capsys):
    path = tmp_path / "path.json"
    path.write_text(json.dumps([[0.0, 0.0], [0.5, 0.1], [1.0, 0.3]]))
    code, data, _ = run_json(
        capsys, "geometry", "transport", "euclidean:2",
        "--path-file", str(path), "--vector", "0.2,-0.4",
    )
    assert code == 0
    assert data["results"]["transported"] == pytest.approx([0.2, -0.4])


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


def test_euler_grammar_error_has_caret(capsys):
    code, _, err = run(capsys, "euler", "Sigma(3) * Q(2)")
    assert code == 2
    lines = err.splitlines()
    caret_line = lines[-1]
    assert caret_line.strip() == "^"
    assert caret_line.index("^") - lines[-2].index("Sigma") == 11
