"""Output checks: each compares an op's --json report with the reference
computed when the op list was made, never with the program's own verdict
alone. A check returns "" when the output is right, else what is wrong."""

from __future__ import annotations

import math

import numpy as np


def _passed_all(report: dict) -> str:
    failed = [v["check"] for v in report["verification"] if not v["passed"]]
    return f"verification failed: {failed}" if failed else ""


def spectral(results: dict, expect: dict) -> str:
    got = results["cohomology"]
    return "" if got == expect["cohomology"] else (
        f"cohomology {got} != reference {expect['cohomology']}"
    )


def build(results: dict, expect: dict) -> str:
    got = results["milnor_number"]
    return "" if got == expect["degree"] else f"delta {got} != {expect['degree']}"


def milnor(results: dict, expect: dict) -> str:
    got = (results["milnor_number"], results.get("path_winding"))
    want = (expect["degree"], expect["degree"])
    return "" if got == want else f"(delta, winding) {got} != {want}"


def euler(results: dict, expect: dict) -> str:
    got = results["euler_characteristic"]
    return "" if got == expect["chi"] else f"chi {got} != {expect['chi']}"


def gauss_bonnet(results: dict, expect: dict) -> str:
    got = results["nearest_integer"]
    return "" if got == expect["chi"] else f"chi {got} != {expect['chi']}"


def close(results: dict, expect: dict) -> str:
    """results[field] within tol (relative to max(1, |value|)) of the
    reference; axes listed in "wrap" compare modulo 2 pi."""
    if "escape" in expect and results["escape_flag"] != expect["escape"]:
        return f"escape_flag {results['escape_flag']} != {expect['escape']}"
    got = np.asarray(results[expect["field"]], dtype=float)
    want = np.asarray(expect["value"], dtype=float)
    diff = got - want
    for axis in expect.get("wrap", []):
        diff[axis] = math.remainder(diff[axis], 2.0 * math.pi)
    err = float(np.max(np.abs(diff) / np.maximum(1.0, np.abs(want))))
    return "" if err <= expect["tol"] else (
        f"{expect['field']} off by {err:.3e} (tol {expect['tol']:.0e})"
    )


def puncture(results: dict, expect: dict) -> str:
    """A geodesic aimed at the deleted origin escapes just before t = 1, at
    a point on the segment from the start towards the origin."""
    end_time = results["end_time"]
    if not results["escape_flag"] or not 0.99 < end_time <= 1.0:
        return f"expected an escape near t = 1, got {results['escape_flag']} at {end_time}"
    want = np.asarray(expect["point"]) * (1.0 - end_time)
    err = float(np.max(np.abs(np.asarray(results["end_point"]) - want)))
    return "" if err <= 1e-9 else f"escape point off the ray by {err:.3e}"


CHECKS = {
    "spectral": spectral,
    "build": build,
    "milnor": milnor,
    "euler": euler,
    "gauss-bonnet": gauss_bonnet,
    "close": close,
    "puncture": puncture,
}


def check(op: dict, report: dict) -> str:
    return _passed_all(report) or CHECKS[op["check"]](report["results"], op["expect"])
