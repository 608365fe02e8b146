"""Command-line front door.

Subcommands: milnor, build, spectral, geometry, euler.  Each run produces a
report with a command echo, an input digest, a results block, a
verification block (every cross-check with its pass/fail), and timing.
Results blocks are deterministic for fixed inputs and flags; wall-clock
time lives only under "timing".

Exit codes are a stable contract.  Each error class in errors.py carries
its code, and main returns it; argparse exits 2 itself on a usage error:

    0  success
    2  bad input: a command-line usage error (a missing or unknown
       argument, an unknown command, a value of the wrong type), bad
       JSON, bad expression, unknown geometry key, an unreadable or
       unwritable file, a malformed config file, an input beyond its cap
       (MAX_GENUS, MAX_PAGES, MAX_MESH, MAX_SAMPLES and MAX_STEPS here;
       the MAX_* bounds in euler.py, geometry.py and spectral.py)
    3  precondition violation: surface relation, d^2 != 0, bad filtration;
       a numerical guard tripped (instability, loop refinement past its
       depth or sample cap, a transport round trip that does not close
       within MAX_STEPS, too many skipped quadrature nodes)
    4  a verification check failed (method disagreement, e.g. lift
       arithmetic vs path winding)
    5  inadmissible (genus, degree) by the Milnor inequality
    6  escape during the exponential map
    7  internal invariant violated (a bug)

A report that cannot be written to stdout (a closed pipe, a full device)
exits 2 with one error line.  The installed command, console_main, ends by
the signal on SIGINT, without a traceback.

Settings precedence: config file (~/.config/chernlab/config.json), then
flags, then CHERNLAB_* environment variables.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import euler as euler_mod
from . import geometry as geo_mod
from . import milnor as milnor_mod
from . import spectral as spectral_mod
from .errors import ChernLabError, DomainError, InstabilityError, ParseError

EXIT_CHECK_FAILED = 4

CONFIG_PATH = Path.home() / ".config" / "chernlab" / "config.json"

# Resource caps on command-line inputs; a value beyond one exits 2.
MAX_GENUS = 1000       # genus of a built representation
MAX_PAGES = 100        # highest spectral page printed
MAX_MESH = 1024        # Gauss-Bonnet mesh (the refined pass uses twice this)
MAX_SAMPLES = 10**6    # transport path segments: --samples, or --path-file points - 1
MAX_STEPS = 10**6      # geodesic step budget: --steps, or 1000 per unit of --time


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
            print(json.dumps(self.to_dict(), sort_keys=True))
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
    """The config file's settings; a missing file holds none."""
    if not CONFIG_PATH.exists():
        return {}
    data, _ = _read_json(str(CONFIG_PATH))
    if not isinstance(data, dict):
        raise DomainError(f"config file {CONFIG_PATH} must hold a JSON object")
    return data


def _setting(name: str, flag_value, cast, default, bounds=None):
    """config < flag < CHERNLAB_<NAME> environment variable.  A JSON
    boolean is refused, not cast to a number; bounds (low, high) are
    checked under the name of the value's source."""
    value = _load_config().get(name, default)
    source = f"{name} in {CONFIG_PATH}"
    if flag_value is not None:
        value, source = flag_value, f"--{name}"
    env = f"CHERNLAB_{name.upper()}"
    if env in os.environ:
        value, source = os.environ[env], env
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        value = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad {source}: {value!r}") from exc
    return value if bounds is None else _bounded(source, value, *bounds)


def _read_json(path: str) -> tuple[dict, dict]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()[:16]
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError and UnicodeDecodeError: an integer literal
        # past the interpreter's int-string digit limit, or nesting past
        # its recursion limit
        position = ""
        if isinstance(exc, json.JSONDecodeError):
            position = f" at line {exc.lineno} column {exc.colno}"
        raise DomainError(f"JSON parse error in {path}{position}: {exc}") from exc
    return data, {"file": path, "sha256": digest}


def _parse_floats(text: str, what: str) -> "numpy.ndarray":
    import numpy as np

    try:
        values = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise DomainError(f"bad {what}: {text!r}") from exc
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite, got {text!r}")
    return values


def _tolerance(value) -> float:
    """A surface-relation tolerance: a finite float > 0.  nan or inf would
    switch the relation check off."""
    tol = float(value)
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")
    return tol


def _bounded(what: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise DomainError(f"{what} must be between {low} and {high}, got {value}")
    return value


# -- subcommands ---------------------------------------------------------------

def cmd_milnor(args) -> RunReport:
    data, digest = _read_json(args.file)
    tolerance = _setting(
        "tolerance", args.tolerance, _tolerance, milnor_mod.TAU_REL
    )
    report = RunReport("milnor", digest)
    rep = milnor_mod.rep_from_dict(data, tolerance=tolerance)
    delta = milnor_mod.milnor_number(rep)
    report.results = {
        "genus": rep.genus,
        "milnor_number": delta,
        "relation_defect": f"{rep.defect:.3e}",
        "inequality": f"|{delta}| < {rep.genus}",
    }
    report.check(
        "milnor inequality", abs(delta) < rep.genus, f"|{delta}| < {rep.genus}"
    )
    if args.oracle:
        winding = milnor_mod.winding_number(rep)
        report.results["path_winding"] = winding
        report.check(
            "dual-method agreement",
            winding == delta,
            f"lift {delta} vs winding {winding}",
        )
    return report


def cmd_build(args) -> RunReport:
    report = RunReport(
        "build", {"genus": args.genus, "degree": args.degree, "out": args.out}
    )
    if args.genus > MAX_GENUS:
        raise DomainError(f"genus must be at most {MAX_GENUS}, got {args.genus}")
    rep = milnor_mod.build_representation(args.genus, args.degree)
    delta = milnor_mod.milnor_number(rep)
    payload = milnor_mod.rep_to_dict(rep)
    try:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc.strerror}") from exc
    report.results = {
        "written": args.out,
        "milnor_number": delta,
        "relation_defect": f"{rep.defect:.3e}",
    }
    report.check("degree realised", delta == args.degree,
                 f"requested {args.degree}, got {delta}")
    return report


def _keyed(dims: dict) -> dict:
    return {f"{p},{q}": d for (p, q), d in dims.items()}


def cmd_spectral(args) -> RunReport:
    data, digest = _read_json(args.file)
    report = RunReport("spectral", digest)
    if args.pages is not None:
        _bounded("--pages", args.pages, 0, MAX_PAGES)
    if args.double:
        dc = spectral_mod.double_complex_from_dict(data)
        complex_ = spectral_mod.from_double_complex(dc, args.double)
        report.inputs["double"] = args.double
    else:
        complex_ = spectral_mod.filtered_complex_from_dict(data)

    pairing = spectral_mod.persistence_pairing(complex_)
    r_max = args.pages if args.pages is not None else pairing.stabilized_at
    infinity = pairing.dims()
    report.results = {
        "pages": {str(r): _keyed(pairing.dims(r)) for r in range(r_max + 1)},
        "infinity": _keyed(infinity),
        "stabilized_at": pairing.stabilized_at,
        "cohomology": {
            str(n): spectral_mod.cohomology_dim(complex_, n)
            for n in complex_.degrees()
        },
    }
    mismatches = []
    for p in range(complex_.p_min, complex_.p_max):
        for n in complex_.degrees():
            q = n - p
            e_dim = infinity.get((p, q), 0)
            g_dim = spectral_mod.graded_cohomology(complex_, p, q)
            if e_dim != g_dim:
                mismatches.append(f"({p},{q}): {e_dim} vs {g_dim}")
    report.check(
        "convergence E_inf = gr H",
        not mismatches,
        "; ".join(mismatches) if mismatches else "entrywise equal",
    )
    return report


def cmd_geometry(args) -> RunReport:
    import numpy as np

    geo = geo_mod.parse_geometry(args.key)
    report = RunReport(f"geometry {args.geo_command}", {"key": args.key})

    if args.geo_command in ("geodesic", "exp"):
        point = _parse_floats(args.point, "--point")
        if args.velocity.strip() == "-p":
            velocity = -point
        else:
            velocity = _parse_floats(args.velocity, "--velocity")
        if len(point) != geo.chart.dim or len(velocity) != geo.chart.dim:
            raise DomainError("point/velocity dimension mismatch")

    if args.geo_command == "geodesic":
        if not (math.isfinite(args.time) and args.time > 0.0):
            raise DomainError(f"--time must be positive and finite, got {args.time}")
        steps = _bounded(
            f"geodesic steps (--steps, or {geo_mod.STEPS_PER_UNIT} per unit of --time)",
            args.steps if args.steps is not None
            else math.ceil(geo_mod.STEPS_PER_UNIT * args.time),
            1, MAX_STEPS,
        )
        if args.rows < 0:
            raise DomainError(f"--rows must be at least 0, got {args.rows}")
        traj = geo_mod.geodesic(geo.connection, point, velocity, args.time, steps)
        stride = max(1, len(traj.times) // args.rows) if args.rows else 1
        rows = [
            {
                "t": round(traj.times[i], 12),
                "point": [round(float(v), 12) for v in traj.points[i]],
                "velocity": [round(float(v), 12) for v in traj.velocities[i]],
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
            "steps": len(traj.times) - 1,
            "rejected": traj.rejected,
            "floored": traj.floored,
        }
        # a coarser run must tell the same story: half the step budget at a
        # 100 times looser tolerance
        check = "coarser integration agrees"
        coarse = geo_mod.geodesic(geo.connection, point, velocity, args.time,
                                  max(1, steps // 2), 100 * geo_mod.GEODESIC_RTOL)
        if traj.escape_flag:
            report.check(check, coarse.escape_flag, "both runs escape")
        else:
            drift = float(
                np.max(np.abs(coarse.end_point - traj.end_point))
            )
            report.check(
                check,
                not coarse.escape_flag and drift < 1e-4 * max(
                    1.0, float(np.max(np.abs(traj.end_point)))
                ),
                f"endpoint drift {drift:.2e}",
            )
        return report

    if args.geo_command == "exp":
        if args.steps is not None:
            _bounded("--steps", args.steps, 1, MAX_STEPS)
        end = geo_mod.exponential_map(geo.connection, point, velocity, args.steps)
        report.results = {"exp": [float(v) for v in end]}
        return report

    if args.geo_command == "transport":
        vector = _parse_floats(args.vector, "--vector")
        if args.path_file:
            data, digest = _read_json(args.path_file)
            report.inputs.update(digest)
            # a bool is an int to Python, but not a number to JSON
            if not (isinstance(data, list) and all(
                isinstance(row, list) and all(type(v) in (int, float) for v in row)
                for row in data
            )):
                raise DomainError(f"--path-file {args.path_file} must hold a JSON "
                                  "list of points, each a list of numbers")
            if len(data) > MAX_SAMPLES + 1:
                raise DomainError(
                    f"--path-file has {len(data)} points, more than "
                    f"MAX_SAMPLES + 1 = {MAX_SAMPLES + 1}"
                )
            try:
                path = [np.array([float(v) for v in row]) for row in data]
            except OverflowError as exc:
                raise DomainError(f"bad path file {args.path_file}: {exc}") from exc
        elif args.latitude is not None:
            if not args.key.startswith("sphere"):
                raise DomainError("--latitude paths exist on spheres only")
            samples = _bounded("--samples", args.samples, 1, MAX_SAMPLES)
            phi = 2.0 * math.pi * np.arange(samples + 1) / samples
            path = np.stack([np.full_like(phi, args.latitude), phi], axis=-1)
        else:
            raise DomainError("transport needs --path-file or --latitude")
        # double the RK4 substeps per segment until the round trip closes:
        # |back - v|_inf <= 1e-5 |v|_inf, since transport is linear in v.
        # Each rung is one transport_round_trip, which evaluates Gamma once
        # per distinct node, in blocks of at most TRANSPORT_BLOCK_ENTRIES
        # Gamma entries, and takes both directions from those node matrices.
        # The first rung always runs, and a further rung only while the RK4
        # steps of all rungs, both directions, stay within MAX_STEPS.  A
        # too-coarse step may overflow, which the residual then shows.
        rung_steps = 2 * (len(path) - 1)  # both directions, 1 substep
        size = float(np.max(np.abs(vector)))
        substeps, spent = 1, 0
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                out, back = geo_mod.transport_round_trip(
                    geo.connection, path, vector, substeps
                )
                residual = float(np.max(np.abs(back - vector)))
            spent += rung_steps * substeps
            closed = residual <= 1e-5 * size
            if closed or spent + rung_steps * 2 * substeps > MAX_STEPS:
                break
            substeps *= 2
        if not closed:
            raise InstabilityError(
                f"transport round trip residual {residual:.2e} after {spent} "
                f"RK4 steps, at {substeps} substeps per segment; another "
                f"doubling would exceed MAX_STEPS = {MAX_STEPS} RK4 steps"
            )
        report.results = {
            "transported": [float(v) for v in out],
            "samples": len(path),
            "substeps": substeps,
            "round_trip_residual": f"{residual:.2e}",
        }
        return report

    if args.geo_command == "gauss-bonnet":
        mesh = _setting("mesh", args.mesh, int, 64, bounds=(8, MAX_MESH))
        if not geo.patches:
            raise DomainError(f"geometry '{args.key}' has no closed-surface patches")
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
            raise DomainError(f"geometry '{args.key}' carries no metric")
        point = _parse_floats(args.point, "--point")
        gamma = geo.connection.gamma(geo_mod._require_inside(geo.connection, point))
        report.results = {
            "point": [float(v) for v in point],
            "christoffel": [[list(map(float, row)) for row in plane]
                            for plane in gamma],
        }
        return report

    raise DomainError(f"unknown geometry action {args.geo_command}")


def cmd_euler(args) -> RunReport:
    text = " ".join(args.expression)
    report = RunReport("euler", {"expression": text})
    try:
        expr, chi = euler_mod.evaluate_query(text)
    except ParseError as exc:
        # the echo keeps one character per position, so the caret lines up,
        # and no line break of the input can start a line of its own
        shown = "".join(c if c.isprintable() else " " for c in text)
        caret = " " * exc.position + "^"
        raise DomainError(f"{exc}\n    {shown}\n    {caret}") from exc
    report.results = {
        "euler_characteristic": chi,
        "dimension": expr.dimension,
        "normalized": str(expr),
    }
    return report


# -- argument parsing ------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
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
    p_geo.add_argument("--steps", type=int, default=None,
                       help="most accepted geodesic steps; the smallest step is "
                            "--time / --steps (default: 1000 per unit of --time)")
    p_geo.add_argument("--rows", type=int, default=20,
                       help="max trajectory rows to print (0 = all)")
    p_geo.add_argument("--vector", default="1,0")
    p_geo.add_argument("--latitude", type=float, default=None)
    p_geo.add_argument("--samples", type=int, default=2000)
    p_geo.add_argument("--path-file", default=None)
    p_geo.add_argument("--mesh", type=int, default=None)
    p_geo.add_argument("--json", action="store_true")
    # argparse reads a word that starts with "-" as an option unless this
    # matcher, by default plain negative numbers only, takes it for a value:
    # so -0.5,0.3 or -1e-3,2 reads after a space as it does after "="
    p_geo._negative_number_matcher = re.compile(r"-\.?\d")
    p_geo.set_defaults(func=cmd_geometry)

    p_eul = sub.add_parser("euler", help="evaluate a space expression")
    p_eul.add_argument("expression", nargs="+",
                       help="e.g. '(Sigma(3)*Sigma(3)) # P^6' or 'smillie 10'")
    p_eul.add_argument("--json", action="store_true")
    p_eul.set_defaults(func=cmd_euler)
    return parser


@functools.cache
def _command_parsers() -> dict:
    """Each command's own parser, by command name, from build_parser."""
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    return commands.choices


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args parses it, in one pass.

    After a known command word, the top parser only hands the rest of argv
    to that command's parser; here the command's parser takes it directly.
    Any other first word, or arguments left over, go through the top parser,
    so every usage error is argparse's own, with its text and exit code 2.
    """
    command = _command_parsers().get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    start = time.perf_counter()
    try:
        report = args.func(args)
    except ChernLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    report.timing = {"seconds": round(time.perf_counter() - start, 6)}
    failed = [
        f"{item['check']} ({item['detail']})" if item["detail"] else item["check"]
        for item in report.verification
        if not item["passed"]
    ]
    try:
        report.emit(args.json)
        sys.stdout.flush()
        if failed:
            print(f"error: failed checks: {'; '.join(failed)}", file=sys.stderr)
    except OSError as exc:
        return _unwritable(exc)
    return EXIT_CHECK_FAILED if failed else 0


def _unwritable(exc: OSError) -> int:
    """Exit 2 for a report that cannot be written (a closed pipe, a full
    device), with one error line.  stdout is pointed at os.devnull first:
    the interpreter flushes it again at exit, which would raise again."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # an in-memory stdout has no descriptor
        pass
    try:
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass
    return 2


def console_main() -> int:
    """The installed chernlab command: main with the default SIGINT
    disposition, so that an interrupt ends the process by the signal
    without a traceback."""
    import signal  # here, not at the top: importing it costs every cold start 1 ms

    signal.signal(signal.SIGINT, signal.SIG_DFL)
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
