"""Seeded op lists for the benchmark workloads.

An op is one `chernlab` CLI invocation (argv, always with --json) plus the
reference its output is checked against. The seed draws the inputs. The
number of ops of each kind, and the parameters that set an op's cost
(filtration shape, integration time, sample count, mesh), are the same for
every seed, so that runs with different seeds do comparable work.

Run in the parent process, which has the checkout's src/ and tests/ on
sys.path; the input files are written into the run's work directory.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np

# Seed of the shape profile that the spectral corpus matches for every run.
PROFILE_SEED = 20180209


def _op(op_id, kind, argv, check, expect, after=None) -> dict:
    return {"id": op_id, "kind": kind, "argv": argv + ["--json"],
            "check": check, "expect": expect, "after": after}


def _flag(name: str, text: str) -> list:
    """`--name text`, or `--name=text` when text starts with '-', which
    argparse would otherwise take for an option and exit."""
    return [f"{name}={text}"] if text.startswith("-") else [name, text]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _shuffled(rng, ops: list) -> list:
    """Seeded order in which each op still follows the op it reads from."""
    order = [ops[i] for i in rng.permutation(len(ops))]
    position = {op["id"]: i for i, op in enumerate(order)}
    for op in list(order):
        if op["after"] is None:
            continue
        i, j = position[op["id"]], position[op["after"]]
        if j > i:
            order[i], order[j] = order[j], order[i]
            position[order[i]["id"]], position[order[j]["id"]] = i, j
    return order


# -- spectral-corpus -------------------------------------------------------------

def _stratified(rng, profile: list, draw, shape, pool_factor: int) -> list:
    """One seeded draw per profile entry, the pool's nearest to the entry's
    shape (a, b, total dimension, dimension vector): a and b equal if
    possible, then the closest total, then the closest vector. The inputs
    change with the seed, the mix of shapes does not."""
    pool = defaultdict(list)
    for _ in range(pool_factor * len(profile)):
        item = draw(rng)
        pool[shape(item)].append(item)

    def distance(have, want):
        vector = sum(abs(x - y) for x, y in zip(have[3], want[3]))
        return (have[:2] != want[:2], abs(have[2] - want[2]), vector, have)

    picked = []
    for want in profile:
        key = min((k for k, items in pool.items() if items),
                  key=lambda k: distance(k, want))
        picked.append(pool[key].pop())
    return picked


def _matrix(rows) -> list:
    return [[Fraction(v) for v in row] for row in rows]


def _cohomology(dims: dict, diffs: dict, rank) -> dict:
    """dim H^n = dim C^n - rank d^n - rank d^(n-1), keyed like the CLI."""
    ranks = {n: rank(m) for n, m in diffs.items()}
    return {str(n): dims[n] - ranks.get(n, 0) - ranks.get(n - 1, 0)
            for n in sorted(dims)}


def _filtered_cohomology(data: dict, rank) -> dict:
    dims = {int(n): d for n, d in data["degrees"].items()}
    diffs = {int(n): _matrix(m) for n, m in data["differentials"].items()}
    return _cohomology(dims, diffs, rank)


def _double_cohomology(data: dict, rank) -> dict:
    """Cohomology of the total complex, assembled here from the payload.
    The blocks are taken as they are when that squares to zero, and with
    the sign (-1)^i on d_v otherwise (commuting input)."""
    spot_dims = {tuple(int(t) for t in k.split(",")): v
                 for k, v in data["dims"].items()}
    top = max(i + j for i, j in spot_dims)
    offsets, dims = {}, {}
    for n in range(top + 1):
        offset = 0
        for spot in sorted(s for s in spot_dims if sum(s) == n):
            offsets[spot] = offset
            offset += spot_dims[spot]
        dims[n] = offset

    def total(twist: bool) -> dict:
        diffs = {n: [[Fraction(0)] * dims[n] for _ in range(dims[n + 1])]
                 for n in range(top)}
        for key_name, step in (("dH", (1, 0)), ("dV", (0, 1))):
            for key, rows in data.get(key_name, {}).items():
                i, j = (int(t) for t in key.split(","))
                target = (i + step[0], j + step[1])
                if target not in spot_dims:
                    continue
                sign = -1 if twist and key_name == "dV" and i % 2 else 1
                block = diffs[i + j]
                for a, row in enumerate(_matrix(rows)):
                    for b, v in enumerate(row):
                        block[offsets[target] + a][offsets[(i, j)] + b] = sign * v
        return diffs

    def squares_to_zero(diffs: dict) -> bool:
        for n in range(top - 1):
            d0, d1 = diffs[n], diffs[n + 1]
            for row in d1:
                for c in range(dims[n]):
                    if sum(row[k] * d0[k][c] for k in range(dims[n + 1])):
                        return False
        return True

    plain = total(twist=False)
    return _cohomology(
        dims, plain if squares_to_zero(plain) else total(twist=True), rank
    )


def spectral_corpus(rng, workdir) -> list:
    from chernlab import spectral
    from corpusgen import random_double_complex, random_filtered_complex
    from independent_linalg import rank

    def bulk(r):
        return random_filtered_complex(r, max_dim=6, max_length=4)

    def tail(r):
        while True:  # long filtrations, where page recursion grows
            c = random_filtered_complex(
                r, max_dim=int(r.integers(10, 13)), max_length=6
            )
            if c.filtration_length >= 5:
                return c

    def filtered_shape(c):
        dims = tuple(c.dims[n] for n in c.degrees())
        return (c.filtration_length, c.n_max, sum(dims), dims)

    def double_shape(dc):
        dims = tuple(dc.dims[spot] for spot in dc.spots())
        return (dc.i_max, dc.j_max, sum(dims), dims)

    # (kind, ops, draw, shape, pool factor): pools large enough that nearly
    # every profile entry finds its length, top degree and total dimension
    kinds = [
        ("bulk", 150, bulk, filtered_shape, 8),
        ("tail", 6, tail, filtered_shape, 32),
        ("double", 25, random_double_complex, double_shape, 8),
    ]
    profile_rng = np.random.default_rng(PROFILE_SEED)
    ops = []
    for kind, count, draw, shape, pool_factor in kinds:
        profile = [shape(draw(profile_rng)) for _ in range(count)]
        for k, item in enumerate(_stratified(rng, profile, draw, shape, pool_factor)):
            name = f"{kind}-{k:03d}"
            file = f"{name}.json"
            if kind == "double":
                data = spectral.double_complex_to_dict(item)
                expect = {"cohomology": _double_cohomology(data, rank)}
                for filtration in ("vertical", "horizontal"):
                    ops.append(_op(
                        f"{name}-{filtration}", f"double-{filtration}",
                        ["spectral", file, "--double", filtration],
                        "spectral", expect,
                    ))
            else:
                data = spectral.filtered_complex_to_dict(item)
                expect = {"cohomology": _filtered_cohomology(data, rank)}
                ops.append(_op(name, kind, ["spectral", file], "spectral", expect))
            (workdir / file).write_text(json.dumps(data))
    return _shuffled(rng, ops)


# -- geometry-probes -------------------------------------------------------------

def _sphere_frame(theta, phi):
    """Unit-sphere point and coordinate tangent vectors at (theta, phi)."""
    st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
    x = np.array([st * cp, st * sp, ct])
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-st * sp, st * cp, 0.0])
    return x, e_theta, e_phi


def _great_circle(point, velocity, time) -> list:
    """Chart coordinates at `time` of the sphere geodesic from point with
    coordinate velocity, from the great circle in R^3 (radius-free)."""
    x, e_theta, e_phi = _sphere_frame(*point)
    dx = velocity[0] * e_theta + velocity[1] * e_phi
    speed = float(np.linalg.norm(dx))
    y = math.cos(speed * time) * x + math.sin(speed * time) * dx / speed
    return [math.acos(y[2]), math.atan2(y[1], y[0])]


def _sphere_christoffel(theta) -> list:
    g = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    g[0][1][1] = -math.sin(theta) * math.cos(theta)
    g[1][0][1] = g[1][1][0] = math.cos(theta) / math.sin(theta)
    return g


def _latitude_transport(theta, vector) -> list:
    """Coordinate components after transport once around the latitude:
    orthonormal components rotate by 2 pi cos(theta)."""
    a, b = vector[0], math.sin(theta) * vector[1]
    turn = 2.0 * math.pi * math.cos(theta)
    c, s = math.cos(turn), math.sin(turn)
    return [a * c + b * s, (-a * s + b * c) / math.sin(theta)]


def _clears_origin(p, v, time, margin=0.1) -> bool:
    t = float(np.clip(-(p @ v) / (v @ v), 0.0, time))
    return float(np.linalg.norm(p + t * v)) > margin


GAUSS_BONNET = [("sphere:1", 16, 2), ("sphere:1", 20, 2), ("sphere:1", 24, 2),
                ("flat-torus:2", 16, 0), ("flat-torus:2", 20, 0)]


def geometry_probes(rng, workdir) -> list:
    def u(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    def vec(lo, hi):
        return np.array([u(lo, hi), u(lo, hi)])

    def flat_pair(key, time):
        while True:
            p, v = vec(-2.0, 2.0), vec(-1.0, 1.0)
            if key == "euclidean:2" or _clears_origin(p, v, time):
                return p, v

    def sphere_pair(lo, hi):
        theta, phi, speed, angle = u(0.9, 2.2), u(-3.0, 3.0), u(lo, hi), u(-3.1, 3.1)
        v = np.array([round(speed * math.cos(angle), 4),
                      round(speed * math.sin(angle) / math.sin(theta), 4)])
        return np.array([theta, phi]), v

    def levi_civita(k):
        if k % 2:
            p = vec(-3.0, 3.0)
            zero = np.zeros((2, 2, 2)).tolist()
            return (["levi-civita", "euclidean:2", *_flag("--point", _csv(p))],
                    "close", {"field": "christoffel", "value": zero, "tol": 1e-9})
        p = np.array([u(0.4, 2.7), u(-3.0, 3.0)])
        return (["levi-civita", f"sphere:{u(0.5, 3.0)}", *_flag("--point", _csv(p))],
                "close", {"field": "christoffel", "value": _sphere_christoffel(p[0]), "tol": 1e-6})

    def line(key, command, time):
        def make(k):
            t = time[k % len(time)]
            p, v = flat_pair(key, t)
            argv = [command, key, *_flag("--point", _csv(p)), *_flag("--velocity", _csv(v))]
            if command == "geodesic":
                argv += ["--time", repr(t)]
                return argv, "close", {"field": "end_point", "value": (p + t * v).tolist(),
                                       "tol": 1e-9, "escape": False}
            return argv, "close", {"field": "exp", "value": (p + v).tolist(), "tol": 1e-9}
        return make

    def puncture(k):
        radius, angle = u(0.5, 2.0), u(-3.1, 3.1)
        p = np.array([round(radius * math.cos(angle), 4), round(radius * math.sin(angle), 4)])
        argv = ["geodesic", "hopf:2", *_flag("--point", _csv(p)), "--velocity=-p", "--time", "1.5"]
        return argv, "puncture", {"point": p.tolist()}

    def sphere_geodesic(k):
        p, v = sphere_pair(0.5, 1.5)
        argv = ["geodesic", f"sphere:{u(0.5, 3.0)}", *_flag("--point", _csv(p)),
                *_flag("--velocity", _csv(v)), "--time", "0.3"]
        return argv, "close", {"field": "end_point", "value": _great_circle(p, v, 0.3),
                               "tol": 1e-6, "wrap": [1], "escape": False}

    def sphere_exp(k):
        p, v = sphere_pair(0.3, 0.6)
        argv = ["exp", f"sphere:{u(0.5, 3.0)}", *_flag("--point", _csv(p)),
                *_flag("--velocity", _csv(v)), "--steps", "400"]
        return argv, "close", {"field": "exp", "value": _great_circle(p, v, 1.0),
                               "tol": 1e-6, "wrap": [1]}

    def transport(k):
        theta, v = u(0.5, 2.6), vec(-1.0, 1.0)
        argv = ["transport", f"sphere:{u(0.5, 3.0)}", "--latitude", repr(theta),
                *_flag("--vector", _csv(v)), "--samples", "150"]
        return argv, "close", {"field": "transported",
                               "value": _latitude_transport(theta, v), "tol": 1e-5}

    def gauss_bonnet(k):
        key, mesh, chi = GAUSS_BONNET[k]
        return ["gauss-bonnet", key, "--mesh", str(mesh)], "gauss-bonnet", {"chi": chi}

    # Counts put op_p50_ms inside the flat RK4 + transport tier and
    # op_p90_ms inside the sphere RK4 tier, clear of both tier edges;
    # Gauss-Bonnet is 5 % of the ops and over a quarter of wall_s.
    kinds = [
        ("levi-civita", 20, levi_civita),
        ("geodesic-flat", 10, line("euclidean:2", "geodesic", [0.5, 1.0])),
        ("exp-flat", 6, line("euclidean:2", "exp", [1.0])),
        ("exp-hopf", 6, line("hopf:2", "exp", [1.0])),
        ("geodesic-hopf", 8, line("hopf:2", "geodesic", [0.5, 1.0])),
        ("geodesic-puncture", 8, puncture),
        ("transport", 22, transport),
        ("geodesic-sphere", 9, sphere_geodesic),
        ("exp-sphere", 6, sphere_exp),
        ("gauss-bonnet", len(GAUSS_BONNET), gauss_bonnet),
    ]
    ops = []
    for kind, count, make in kinds:
        for k in range(count):
            argv, check, expect = make(k)
            ops.append(_op(f"{kind}-{k:02d}", kind, ["geometry", *argv], check, expect))
    return _shuffled(rng, ops)


# -- milnor-table ----------------------------------------------------------------

def _smillie_chi(dim: int) -> int:
    """Products of the flat four-manifold (chi 4) and six-manifold (chi 8)
    with 4a + 6b = dim, b <= 1."""
    a, b = (dim // 4, 0) if dim % 4 == 0 else ((dim - 6) // 4, 1)
    return 4 ** a * 8 ** b


def _euler_query(k: int, rng) -> tuple:
    """Query k: a README query or a closed-form template, in a fixed cycle
    so that the mix of work is the same for every seed; the seed draws the
    genera."""
    a, b = (int(x) for x in rng.integers(0, 6, size=2))
    template, size = k % 6, k // 6 % 5
    if template == 0:
        return "(Sigma(3)*Sigma(3)) # P^6", 4
    if template == 1:
        dim = 4 + 2 * size
        return f"smillie {dim}", _smillie_chi(dim)
    if template == 2:
        chi = (2 - 2 * a) * (2 - 2 * b) - 2 * (size + 1)
        return f"(Sigma({a})*Sigma({b})) # P^{size + 1}", chi
    if template == 3:
        return f"Sigma({a}) * Sigma({b})", (2 - 2 * a) * (2 - 2 * b)
    if template == 4:
        return f"Sphere({2 * a + 2})^{size + 2}", 2
    return f"Torus({a + 1}) * Sigma({b})", 0


def milnor_table(rng, workdir) -> list:
    ops = []
    for g in range(2, 8):
        for d in range(1 - g, g):
            file = f"rep-g{g}-d{d}.json"
            build = f"build-g{g}-d{d}"
            ops.append(_op(build, "build", ["build", str(g), str(d), "--out", file],
                           "build", {"degree": d}))
            ops.append(_op(f"milnor-g{g}-d{d}", "milnor-oracle", ["milnor", file, "--oracle"],
                           "milnor", {"degree": d}, after=build))
    for k in range(200):
        text, chi = _euler_query(k, rng)
        ops.append(_op(f"euler-{k:03d}", "euler", ["euler", text], "euler", {"chi": chi}))
    return _shuffled(rng, ops)


WORKLOADS = {
    "spectral-corpus": spectral_corpus,
    "geometry-probes": geometry_probes,
    "milnor-table": milnor_table,
}
