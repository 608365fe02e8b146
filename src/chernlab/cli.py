"""Command-line front door.

Subcommands: milnor, build, spectral, geometry, euler.  Each run produces a
report with a command echo, an input digest, a results block, a
verification block (every cross-check with its pass/fail), and timing.
Results blocks are deterministic for fixed inputs and flags; wall-clock
time lives only under "timing".

Exit codes are a stable contract:

    0  success
    2  parse error: bad JSON, bad expression, unknown geometry key, a
       geometry input beyond its cap (MAX_MESH, MAX_SAMPLES, MAX_STEPS)
    3  precondition violation: surface relation, d^2 != 0, bad filtration;
       a numerical guard tripped (instability, too many skipped quadrature
       nodes)
    4  method disagreement (lift arithmetic vs path winding)
    5  inadmissible (genus, degree) by the Milnor inequality
    6  escape during the exponential map
    7  internal invariant violated (a bug)

Settings precedence: config file (~/.config/chernlab/config.json), then
flags, then CHERNLAB_* environment variables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import euler as euler_mod
from . import geometry as geo_mod
from . import milnor as milnor_mod
from . import spectral as spectral_mod
from .errors import (
    AdmissibilityError,
    ConventionError,
    DomainError,
    EscapeError,
    InstabilityError,
    InternalConsistencyError,
    PreconditionError,
    QuadratureError,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DISAGREEMENT = 4
EXIT_INADMISSIBLE = 5
EXIT_ESCAPE = 6
EXIT_INTERNAL = 7

CONFIG_PATH = Path.home() / ".config" / "chernlab" / "config.json"

# Resource caps on geometry inputs; a value beyond one exits 2.
MAX_MESH = 1024        # Gauss-Bonnet mesh (the refined pass uses twice this)
MAX_SAMPLES = 10**6    # latitude samples of a transport path
MAX_STEPS = 10**6      # RK4 steps of a geodesic, given or from --time


class CliFailure(Exception):
    """Internal: carries an exit code and a message to stderr."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: dict = field(default_factory=dict)
    verification: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    def check(self, name: str, passed: bool, detail: str = "") -> bool:
        self.verification.append(
            {"check": name, "passed": bool(passed), "detail": detail}
        )
        return passed

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "verification": self.verification,
            "timing": self.timing,
        }

    def emit(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.to_dict(), indent=2, sort_keys=True))
            return
        print(f"chernlab {self.command}")
        for key, value in self.inputs.items():
            print(f"  input {key}: {value}")
        _print_block(self.results, indent="  ")
        for item in self.verification:
            mark = "PASS" if item["passed"] else "FAIL"
            detail = f" ({item['detail']})" if item["detail"] else ""
            print(f"  [{mark}] {item['check']}{detail}")
        print(f"  time: {self.timing.get('seconds', 0.0):.3f}s")


def _print_block(data, indent: str = "", key: str | None = None) -> None:
    label = f"{key}: " if key is not None else ""
    if isinstance(data, dict):
        if key is not None:
            print(f"{indent}{key}:")
            indent += "  "
        for k, v in data.items():
            _print_block(v, indent, str(k))
    elif isinstance(data, list) and data and isinstance(data[0], (dict, list)):
        print(f"{indent}{label}{json.dumps(data)}")
    else:
        print(f"{indent}{label}{data}")


def _load_config() -> dict:
    try:
        with open(CONFIG_PATH) as fh:
            data = json.load(fh)
        return data if isinstance(data, dict) else {}
    except (OSError, json.JSONDecodeError):
        return {}


def _setting(name: str, flag_value, cast, default):
    """config < flag < CHERNLAB_<NAME> environment variable."""
    value = _load_config().get(name.lower(), default)
    if flag_value is not None:
        value = flag_value
    env = os.environ.get(f"CHERNLAB_{name.upper()}")
    if env is not None:
        try:
            value = cast(env)
        except ValueError as exc:
            raise CliFailure(
                EXIT_PARSE, f"bad CHERNLAB_{name.upper()}: {env!r}"
            ) from exc
    return cast(value) if value is not None else None


def _read_json(path: str) -> tuple[dict, dict]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:16]
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        position = ""
        if isinstance(exc, json.JSONDecodeError):
            position = f" at line {exc.lineno} column {exc.colno}"
        raise CliFailure(
            EXIT_PARSE, f"JSON parse error in {path}{position}: {exc}"
        ) from exc
    return data, {"file": path, "sha256": digest}


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise CliFailure(EXIT_PARSE, f"bad {what}: {text!r}") from exc


def _bounded(what: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise CliFailure(
            EXIT_PARSE, f"{what} must be between {low} and {high}, got {value}"
        )
    return value


# -- subcommands ---------------------------------------------------------------

def cmd_milnor(args) -> RunReport:
    data, digest = _read_json(args.file)
    tolerance = _setting("tolerance", args.tolerance, float, milnor_mod.TAU_REL)
    report = RunReport("milnor", digest)
    try:
        rep = milnor_mod.rep_from_dict(data, tolerance=tolerance)
    except PreconditionError as exc:
        raise CliFailure(EXIT_PRECONDITION, str(exc)) from exc
    except DomainError as exc:
        raise CliFailure(EXIT_PARSE, f"bad representation file: {exc}") from exc

    defect = milnor_mod.relation_defect(rep)
    delta = milnor_mod.milnor_number(rep)
    report.results = {
        "genus": rep.genus,
        "milnor_number": delta,
        "relation_defect": f"{defect:.3e}",
        "inequality": f"|{delta}| < {rep.genus}",
    }
    report.check(
        "surface relation", defect <= tolerance, f"defect {defect:.3e}"
    )
    report.check(
        "milnor inequality", abs(delta) < rep.genus, f"|{delta}| < {rep.genus}"
    )
    if args.oracle:
        winding = milnor_mod.winding_number(rep)
        report.results["path_winding"] = winding
        agreed = report.check(
            "dual-method agreement",
            winding == delta,
            f"lift {delta} vs winding {winding}",
        )
        if not agreed:
            raise CliFailure(
                EXIT_DISAGREEMENT,
                f"lift arithmetic gives {delta}, path winding gives {winding}",
            )
    return report


def cmd_build(args) -> RunReport:
    report = RunReport(
        "build", {"genus": args.genus, "degree": args.degree, "out": args.out}
    )
    try:
        rep = milnor_mod.build_representation(args.genus, args.degree)
    except AdmissibilityError as exc:
        raise CliFailure(
            EXIT_INADMISSIBLE,
            f"{exc}: need |degree| < genus (the Milnor inequality)",
        ) from exc
    delta = milnor_mod.milnor_number(rep)
    payload = milnor_mod.rep_to_dict(rep)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    report.results = {
        "written": args.out,
        "milnor_number": delta,
        "relation_defect": f"{milnor_mod.relation_defect(rep):.3e}",
    }
    report.check("degree realised", delta == args.degree,
                 f"requested {args.degree}, got {delta}")
    return report


def cmd_spectral(args) -> RunReport:
    data, digest = _read_json(args.file)
    report = RunReport("spectral", digest)
    try:
        if args.double:
            dc = spectral_mod.double_complex_from_dict(data)
            complex_ = spectral_mod.from_double_complex(dc, args.double)
            report.inputs["double"] = args.double
        else:
            complex_ = spectral_mod.filtered_complex_from_dict(data)
    except (PreconditionError, ConventionError) as exc:
        raise CliFailure(EXIT_PRECONDITION, str(exc)) from exc
    except DomainError as exc:
        # payload/shape problems; structural violations arrive as
        # PreconditionError above
        raise CliFailure(EXIT_PARSE, str(exc)) from exc

    stable = spectral_mod.infinity_page(complex_)
    r_max = args.pages if args.pages is not None else stable.stabilized_at
    pages = {}
    for r in range(0, r_max + 1):
        page = spectral_mod.compute_page(complex_, r)
        pages[str(r)] = {f"{p},{q}": d for (p, q), d in page.dims().items()}
    report.results = {
        "pages": pages,
        "infinity": {f"{p},{q}": d for (p, q), d in stable.dims().items()},
        "stabilized_at": stable.stabilized_at,
        "cohomology": {
            str(n): spectral_mod.cohomology_dim(complex_, n)
            for n in complex_.degrees()
        },
    }
    mismatches = []
    for p in range(complex_.p_min, complex_.p_max):
        for n in complex_.degrees():
            q = n - p
            e_dim = stable.dim(p, q)
            g_dim = spectral_mod.graded_cohomology(complex_, p, q)
            if e_dim != g_dim:
                mismatches.append(f"({p},{q}): {e_dim} vs {g_dim}")
    report.check(
        "convergence E_inf = gr H",
        not mismatches,
        "; ".join(mismatches) if mismatches else "entrywise equal",
    )
    return report


def _geometry(key: str):
    try:
        return geo_mod.parse_geometry(key)
    except DomainError as exc:
        raise CliFailure(EXIT_PARSE, str(exc)) from exc


def cmd_geometry(args) -> RunReport:
    geo = _geometry(args.key)
    report = RunReport(f"geometry {args.geo_command}", {"key": args.key})

    if args.geo_command in ("geodesic", "exp"):
        point = _parse_floats(args.point, "--point")
        if args.velocity.strip() == "-p":
            velocity = -point
        else:
            velocity = _parse_floats(args.velocity, "--velocity")
        if len(point) != geo.chart.dim or len(velocity) != geo.chart.dim:
            raise CliFailure(EXIT_PARSE, "point/velocity dimension mismatch")

    if args.geo_command == "geodesic":
        if not (math.isfinite(args.time) and args.time > 0.0):
            raise CliFailure(
                EXIT_PARSE, f"--time must be positive and finite, got {args.time}"
            )
        steps = _bounded(
            f"geodesic steps (--steps, or {geo_mod.STEPS_PER_UNIT} per unit of --time)",
            args.steps or max(1, round(geo_mod.STEPS_PER_UNIT * args.time)),
            1, MAX_STEPS,
        )
        traj = geo_mod.geodesic(
            geo.connection, point, velocity, args.time, steps
        )
        stride = max(1, len(traj.times) // args.rows) if args.rows else 1
        rows = [
            {
                "t": round(traj.times[i], 12),
                "point": [round(v, 12) for v in traj.points[i]],
                "velocity": [round(v, 12) for v in traj.velocities[i]],
            }
            for i in range(0, len(traj.times), stride)
        ]
        report.results = {
            "escape_flag": traj.escape_flag,
            "end_time": traj.end_time,
            "end_point": [float(v) for v in traj.end_point],
            "verdict": (
                "incomplete: left the chart before the requested time"
                if traj.escape_flag
                else "complete for the requested time"
            ),
            "rows": rows,
        }
        # dual-resolution cross-check: half the steps must tell the same story
        coarse = geo_mod.geodesic(
            geo.connection, point, velocity, args.time, max(1, steps // 2)
        )
        if traj.escape_flag:
            report.check(
                "half-resolution integration agrees",
                coarse.escape_flag,
                "both runs escape",
            )
        else:
            drift = float(
                np.max(np.abs(coarse.end_point - traj.end_point))
            )
            report.check(
                "half-resolution integration agrees",
                not coarse.escape_flag and drift < 1e-4 * max(
                    1.0, float(np.max(np.abs(traj.end_point)))
                ),
                f"endpoint drift {drift:.2e}",
            )
        return report

    if args.geo_command == "exp":
        if args.steps:
            _bounded("--steps", args.steps, 1, MAX_STEPS)
        try:
            end = geo_mod.exponential_map(
                geo.connection, point, velocity, args.steps
            )
        except EscapeError as exc:
            traj = geo_mod.geodesic(
                geo.connection, point, velocity, 1.0, args.steps
            )
            raise CliFailure(
                EXIT_ESCAPE,
                f"{exc}; last state: t={traj.end_time:.6f} "
                f"point={traj.end_point.tolist()}",
            ) from exc
        report.results = {"exp": [float(v) for v in end]}
        report.check("geodesic reached t = 1", True, "")
        return report

    if args.geo_command == "transport":
        vector = _parse_floats(args.vector, "--vector")
        if args.path_file:
            data, digest = _read_json(args.path_file)
            report.inputs.update(digest)
            try:
                path = [np.array([float(v) for v in row]) for row in data]
            except (TypeError, ValueError) as exc:
                raise CliFailure(EXIT_PARSE, f"bad path file: {exc}") from exc
        elif args.latitude is not None:
            if not args.key.startswith("sphere"):
                raise CliFailure(
                    EXIT_PARSE, "--latitude paths exist on spheres only"
                )
            samples = _bounded("--samples", args.samples, 1, MAX_SAMPLES)
            phi = 2.0 * math.pi * np.arange(samples + 1) / samples
            path = np.stack([np.full_like(phi, args.latitude), phi], axis=-1)
        else:
            raise CliFailure(
                EXIT_PARSE, "transport needs --path-file or --latitude"
            )
        out = geo_mod.parallel_transport(geo.connection, path, vector)
        report.results = {
            "transported": [float(v) for v in out],
            "samples": len(path),
        }
        back = geo_mod.parallel_transport(geo.connection, path[::-1], out)
        report.check(
            "reverse transport returns",
            bool(np.allclose(back, vector, atol=1e-5)),
            f"round trip residual {float(np.max(np.abs(back - vector))):.2e}",
        )
        return report

    if args.geo_command == "gauss-bonnet":
        mesh = _bounded("--mesh", _setting("mesh", args.mesh, int, 64), 8, MAX_MESH)
        if not geo.patches:
            raise CliFailure(
                EXIT_PARSE,
                f"geometry '{args.key}' has no closed-surface patches",
            )
        chi_coarse = geo_mod.gauss_bonnet(geo.patches, mesh)
        chi_fine = geo_mod.gauss_bonnet(geo.patches, 2 * mesh)
        report.results = {
            "mesh": mesh,
            "chi_estimate": chi_coarse,
            "chi_refined": chi_fine,
            "nearest_integer": round(chi_fine),
        }
        nearest = round(chi_fine)
        e1 = abs(chi_coarse - nearest)
        e2 = abs(chi_fine - nearest)
        report.check(
            "mesh refinement converges",
            e2 <= e1 + 1e-12,
            f"error {e1:.2e} -> {e2:.2e}",
        )
        return report

    if args.geo_command == "levi-civita":
        if geo.metric is None:
            raise CliFailure(
                EXIT_PARSE, f"geometry '{args.key}' carries no metric"
            )
        point = _parse_floats(args.point, "--point")
        conn = geo_mod.levi_civita(geo.metric, geo.chart)
        gamma = conn.gamma(point)
        report.results = {
            "point": [float(v) for v in point],
            "christoffel": [[list(map(float, row)) for row in plane]
                            for plane in gamma],
        }
        sym = float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1))))
        report.check("symmetry in lower indices", sym < 1e-7, f"max {sym:.2e}")
        return report

    raise CliFailure(EXIT_PARSE, f"unknown geometry action {args.geo_command}")


def cmd_euler(args) -> RunReport:
    text = " ".join(args.expression)
    report = RunReport("euler", {"expression": text})
    try:
        expr, chi = euler_mod.evaluate_query(text)
    except euler_mod.ParseError as exc:
        caret = " " * exc.position + "^"
        raise CliFailure(
            EXIT_PARSE, f"{exc}\n    {text}\n    {caret}"
        ) from exc
    except DomainError as exc:
        raise CliFailure(EXIT_PARSE, str(exc)) from exc
    report.results = {
        "euler_characteristic": chi,
        "dimension": expr.dimension,
        "normalized": str(expr),
    }
    report.check("expression evaluated", True, str(expr))
    return report


# -- argument parsing ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernlab",
        description=(
            "Milnor numbers of flat rank-two bundles, spectral sequences of "
            "filtered complexes, chart geometry probes, and Euler-"
            "characteristic arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mil = sub.add_parser("milnor", help="Milnor number of a representation file")
    p_mil.add_argument("file", help="representation JSON")
    p_mil.add_argument("--oracle", action="store_true",
                       help="cross-check against the path-winding oracle")
    p_mil.add_argument("--tolerance", type=float, default=None,
                       help="surface-relation tolerance")
    p_mil.add_argument("--json", action="store_true")
    p_mil.set_defaults(func=cmd_milnor)

    p_build = sub.add_parser("build", help="construct a representation")
    p_build.add_argument("genus", type=int)
    p_build.add_argument("degree", type=int)
    p_build.add_argument("--out", required=True, help="output JSON path")
    p_build.add_argument("--json", action="store_true")
    p_build.set_defaults(func=cmd_build)

    p_spec = sub.add_parser("spectral", help="spectral sequence of a complex")
    p_spec.add_argument("file", help="filtered-complex or double-complex JSON")
    p_spec.add_argument("--pages", type=int, default=None,
                        help="highest page to print")
    p_spec.add_argument("--double", choices=["vertical", "horizontal"],
                        default=None,
                        help="treat the file as a double complex with this filtration")
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(func=cmd_spectral)

    p_geo = sub.add_parser("geometry", help="chart geometry probes")
    p_geo.add_argument(
        "geo_command",
        choices=["geodesic", "exp", "transport", "gauss-bonnet", "levi-civita"],
    )
    p_geo.add_argument("key", help="euclidean:m | hopf:m | flat-torus:m | sphere:r")
    p_geo.add_argument("--point", default="0,0")
    p_geo.add_argument("--velocity", default="1,0",
                       help="comma-separated, or '-p' to aim at the origin")
    p_geo.add_argument("--time", type=float, default=1.0)
    p_geo.add_argument("--steps", type=int, default=None)
    p_geo.add_argument("--rows", type=int, default=20,
                       help="max trajectory rows to print (0 = all)")
    p_geo.add_argument("--vector", default="1,0")
    p_geo.add_argument("--latitude", type=float, default=None)
    p_geo.add_argument("--samples", type=int, default=2000)
    p_geo.add_argument("--path-file", default=None)
    p_geo.add_argument("--mesh", type=int, default=None)
    p_geo.add_argument("--json", action="store_true")
    p_geo.set_defaults(func=cmd_geometry)

    p_eul = sub.add_parser("euler", help="evaluate a space expression")
    p_eul.add_argument("expression", nargs="+",
                       help="e.g. '(Sigma(3)*Sigma(3)) # P^6' or 'smillie 10'")
    p_eul.add_argument("--json", action="store_true")
    p_eul.set_defaults(func=cmd_euler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except CliFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code
    except (PreconditionError, InstabilityError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except EscapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESCAPE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalConsistencyError as exc:
        print(f"error: internal invariant violated (a bug): {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL
    report.timing = {"seconds": round(time.perf_counter() - start, 6)}
    report.emit(args.json)
    if any(not item["passed"] for item in report.verification):
        return EXIT_DISAGREEMENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
