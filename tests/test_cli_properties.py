"""Property tests of the CLI contract on arbitrary input.

Whatever small JSON value a file holds, the three JSON loaders (milnor,
spectral, spectral --double) and `geometry transport --path-file` end in a
documented exit code with no traceback, print exactly one `error:` line on
failure and none on success, and stay within a time budget per example.
So does `euler` on strings over its grammar's alphabet.
"""

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chernlab.cli import main

DOCUMENTED_CODES = {0, 2, 3, 4, 5, 6, 7}

# Keys of the real schemas mixed with arbitrary text, so the loaders get
# past their first lookup often enough to reach the deeper checks.
KEYS = st.sampled_from(
    ["genus", "A", "B", "degrees", "differentials", "filtration",
     "dims", "dH", "dV", "0", "1", "2", "0,0", "1,0", "0,1", "1,1"]
) | st.text(max_size=4)

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(-1e3, 1e3)
    | st.sampled_from([float("nan"), float("inf"), "1/2", "-3", "1/0", "1e9999"])
    | st.text(max_size=4)
)

JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=24,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _assert_contract(path, value, argv):
    path.write_text(json.dumps(value))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().strip().splitlines()
    assert code in DOCUMENTED_CODES
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not any(line.startswith("error:") for line in lines)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")


@PROPERTY_SETTINGS
@given(value=JSON_VALUES)
def test_milnor_loader_ends_in_a_documented_code(tmp_path, value):
    path = tmp_path / "rep.json"
    _assert_contract(path, value, ["milnor", str(path), "--oracle"])


@PROPERTY_SETTINGS
@given(value=JSON_VALUES)
@example(value={  # an interior step F^1 C^1 is missing
    "degrees": {"0": 1, "1": 1}, "differentials": {"0": [["0"]]},
    "filtration": {"0": {"0": [["1"]], "1": [["1"]]}, "1": {"0": [["1"]]},
                   "2": {"0": [], "1": []}},
})
def test_filtered_complex_loader_ends_in_a_documented_code(tmp_path, value):
    path = tmp_path / "complex.json"
    _assert_contract(path, value, ["spectral", str(path)])


@PROPERTY_SETTINGS
@given(value=JSON_VALUES, filtration=st.sampled_from(["vertical", "horizontal"]))
def test_double_complex_loader_ends_in_a_documented_code(tmp_path, value, filtration):
    path = tmp_path / "double.json"
    _assert_contract(path, value, ["spectral", str(path), "--double", filtration])


@PROPERTY_SETTINGS
@given(value=JSON_VALUES, key=st.sampled_from(["euclidean:2", "sphere:1"]))
def test_path_file_ends_in_a_documented_code(tmp_path, value, key):
    path = tmp_path / "path.json"
    _assert_contract(
        path, value,
        ["geometry", "transport", key, "--path-file", str(path), "--vector", "1,0"],
    )


@PROPERTY_SETTINGS
@given(
    rows=st.lists(
        st.lists(st.floats(0.1, 3.0) | st.integers(0, 3), min_size=2, max_size=2),
        max_size=6,
    ),
    key=st.sampled_from(["euclidean:2", "sphere:1"]),
)
def test_point_path_file_ends_in_a_documented_code(tmp_path, rows, key):
    """Well-shaped paths, which reach the transport itself."""
    path = tmp_path / "path.json"
    _assert_contract(
        path, rows,
        ["geometry", "transport", key, "--path-file", str(path), "--vector", "1,0"],
    )


# Tokens of the euler grammar, digits and spaces, and free text.
EULER_TOKENS = (
    st.sampled_from(
        ["Sigma", "Torus", "Sphere", "Hopf", "P", "smillie",
         "(", ")", "*", "#", "^", " ", "  "]
    )
    | st.integers(0, 10**5).map(str)
    | st.sampled_from(list("0123456789"))
    | st.text(max_size=3)
)


@PROPERTY_SETTINGS
@given(tokens=st.lists(EULER_TOKENS, max_size=16))
@example(tokens=["Sigma(1)", "\nerror: boom"])
def test_euler_expression_ends_in_a_documented_code(tokens):
    text = "".join(tokens)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["euler", "--", text])  # "--": text is never an option
    errors = [
        line for line in err.getvalue().splitlines() if line.startswith("error:")
    ]
    assert code in DOCUMENTED_CODES
    assert "Traceback" not in err.getvalue()
    assert len(errors) == (0 if code == 0 else 1)
