"""Golden regression pin: `chernlab spectral --json` results and
verification blocks for seeded corpus complexes, compared exactly.

The golden file was written with the dense, unmemoized engine that
preceded the current one.  Any change in a page dimension, a
stabilisation index, a cohomology dimension or a verification line shows
up as a difference.  To regenerate it after an intended change of output:

    PYTHONPATH=src:tests python tests/test_spectral_golden.py --write
"""

import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from corpusgen import random_double_complex, random_filtered_complex
from chernlab.cli import main
from chernlab.spectral import (
    DoubleComplex,
    double_complex_to_dict,
    filtered_complex_to_dict,
)

GOLDEN = Path(__file__).parent / "data" / "spectral_golden.json"


def _bulk(seed):
    return random_filtered_complex(np.random.default_rng(seed))


def _tail(seed):
    c = random_filtered_complex(
        np.random.default_rng(seed), max_dim=10, max_length=6
    )
    assert c.filtration_length == 5
    return c


def _double(seed):
    return random_double_complex(np.random.default_rng(seed))


# name -> (payload builder, extra argv)
CASES = {
    **{f"bulk-{s}": (lambda s=s: _bulk(s), []) for s in range(8)},
    "tail-124": (lambda: _tail(124), []),
    "double-208-vertical": (lambda: _double(208), ["--double", "vertical"]),
    "double-208-horizontal": (lambda: _double(208), ["--double", "horizontal"]),
    # stabilises at page 5; pages 6 and 7 lie past the stable page
    "bulk-4-pages-7": (lambda: _bulk(4), ["--pages", "7"]),
}


def _payload(obj) -> dict:
    if isinstance(obj, DoubleComplex):
        return double_complex_to_dict(obj)
    return filtered_complex_to_dict(obj)


def run_case(name: str, workdir: Path) -> dict:
    build, extra = CASES[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(_payload(build())))
    out = StringIO()
    with redirect_stdout(out):
        code = main(["spectral", str(path), *extra, "--json"])
    assert code == 0
    report = json.loads(out.getvalue())
    return {"results": report["results"], "verification": report["verification"]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectral_output_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_case(name, tmp_path) == golden[name]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_case(name, Path(tmp)) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
