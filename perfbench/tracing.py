"""Span tracing of chernlab's layers, installed from outside the program.

A Tracer replaces the public layer functions listed in WRAPPED by timing
wrappers. It patches the attribute on the defining module and on every
chernlab module that imported the same function object by name (spectral
imports the subspaces names, milnor the liftgroup names), and the cli
reaches the layers through module objects. Connections handed out by
parse_geometry and levi_civita get a counting, timed gamma; metric fields
get a counter.

Spans (name, start, end, parent span, op) live in flat arrays in memory
and are written out once, at the end. A span's self time is its duration
minus the durations of its child spans; calls are single-threaded and
strictly nested, so children never overlap.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SUBSPACE_OPS = (
    "kernel_basis", "kernel", "image", "subspace_sum", "subspace_intersect",
    "subspace_preimage", "quotient_dim", "quotient_representatives",
    "quotient_coordinates", "matmul", "matvec",
    "Subspace.span", "Subspace.contains", "Subspace.contains_vector",
)

# (module, attribute, span name). Several attributes may share one span
# name; their calls and self time are then reported together. Spans that
# no metric reports still keep their time out of their callers' self time.
WRAPPED = (
    [("cli", "main", "cli")]
    + [("subspaces", "rref", "subspaces.rref")]
    + [("subspaces", attr, "subspaces.ops") for attr in SUBSPACE_OPS]
    + [
        ("spectral", "cycles_up_to_filtration", "spectral.cycles"),
        ("spectral", "page_entry", "spectral.page_entry"),
        ("spectral", "page_differential", "spectral.page_differential"),
        ("spectral", "compute_page", "spectral.compute_page"),
        ("spectral", "infinity_page", "spectral.infinity_page"),
        ("spectral", "cohomology_dim", "spectral.cohomology_dim"),
        ("spectral", "graded_cohomology", "spectral.graded_cohomology"),
        ("spectral", "from_double_complex", "spectral.from_double_complex"),
        ("spectral", "filtered_complex_from_dict", "spectral.from_dict"),
        ("spectral", "double_complex_from_dict", "spectral.from_dict"),
        ("liftgroup", "lift_mul", "liftgroup.lift_mul"),
        ("liftgroup", "lift_mul_rotation", "liftgroup.lift_mul_rotation"),
        ("liftgroup", "lift_commutator", "liftgroup.lift_commutator"),
        ("liftgroup", "lift_inv", "liftgroup.lift_inv"),
        ("liftgroup", "principal_lift", "liftgroup.principal_lift"),
        ("liftgroup", "product_lift", "liftgroup.product_lift"),
        ("liftgroup", "lift_loop", "liftgroup.lift_loop"),
        ("liftgroup", "SampledLoop.from_path", "liftgroup.from_path"),
        ("milnor", "build_representation", "milnor.build"),
        ("milnor", "milnor_number", "milnor.milnor_number"),
        ("milnor", "winding_number", "milnor.winding_number"),
        ("milnor", "relation_defect", "milnor.relation_defect"),
        ("milnor", "commutator_loop_path", "milnor.commutator_loop_path"),
        ("milnor", "rep_from_dict", "milnor.rep_io"),
        ("milnor", "rep_to_dict", "milnor.rep_io"),
        ("geometry", "parse_geometry", "geometry.parse_geometry"),
        ("geometry", "levi_civita", "geometry.levi_civita"),
        ("geometry", "sphere_metric", "geometry.sphere_metric"),
        ("geometry", "geodesic", "geometry.geodesic"),
        ("geometry", "exponential_map", "geometry.exponential_map"),
        ("geometry", "parallel_transport", "geometry.parallel_transport"),
        ("geometry", "gauss_bonnet", "geometry.gauss_bonnet"),
        ("euler", "evaluate_query", "euler.parse"),
        ("euler", "parse_expression", "euler.parse"),
        ("euler", "euler_char", "euler.euler_char"),
        ("euler", "smillie", "euler.smillie"),
    ]
)


class Tracer:
    """Records spans and work counters while installed; one per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self._op = -1
        self.counts: Counter = Counter()
        # distinct-work keys of the current op; summed into counts per op
        self._keys = {"spectral.page_entry": set(), "geometry.gamma": set()}
        self._alive: list = []
        self._restore: list = []

    # -- ops -------------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self) -> None:
        for name, keys in self._keys.items():
            self.counts[f"{name}.distinct"] += len(keys)
            keys.clear()
        self._alive.clear()
        self._op = -1

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def timed(self, name: str, fn, after=None):
        """fn wrapped in a span; after(arguments, result) may replace the
        result and runs outside the span."""
        nid = self._name_id(name)
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self._op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if after is None:
                return result
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return after(bound.arguments, result)

        traced.perfbench_traced = True
        return traced

    # -- per-function hooks ----------------------------------------------------

    def _after_rref(self, args, result):
        self.counts["subspaces.rref.rows"] += len(args["rows"])
        return result

    def _after_page_entry(self, args, result):
        c = args["c"]
        self._alive.append(c)  # keeps id(c) unique within the op
        self._keys["spectral.page_entry"].add(
            (id(c), args["r"], args["p"], args["q"])
        )
        return result

    def _after_from_path(self, args, result):
        self.counts["liftgroup.loop_samples"] += len(result)
        self.counts["liftgroup.initial_samples"] += args["initial_samples"] + 1
        return result

    def _after_commutator_loop_path(self, args, result):
        count = self.counts
        path = self.timed("milnor.path", result)

        def counted(t):
            count["milnor.path_evals"] += 1
            return path(t)

        return counted

    def _after_geodesic(self, args, result):
        attempted = len(result.times) - 1 + int(result.escape_flag)
        self.counts["geometry.rk4_steps"] += attempted
        return result

    def _after_transport(self, args, result):
        steps = (len(args["path"]) - 1) * args["substeps"]
        self.counts["geometry.rk4_steps"] += steps
        return result

    def _after_gauss_bonnet(self, args, result):
        self.counts["geometry.quad_nodes"] += (
            len(args["patches"]) * args["mesh_n"] ** 2
        )
        return result

    def _counted_metric(self, g):
        if g is None or getattr(g, "perfbench_traced", False):
            return g
        count = self.counts

        def metric(p):
            count["geometry.metric.calls"] += 1
            return g(p)

        metric.perfbench_traced = True
        return metric

    def _counted_connection(self, conn):
        if getattr(conn.gamma, "perfbench_traced", False):
            return conn
        timed_gamma = self.timed("geometry.gamma", conn.gamma)
        keys = self._keys["geometry.gamma"]
        owner = id(conn.gamma)

        def gamma(p):
            keys.add((owner, np.asarray(p, dtype=float).tobytes()))
            return timed_gamma(p)

        gamma.perfbench_traced = True
        self._alive.append(conn.gamma)
        return dataclasses.replace(conn, gamma=gamma)

    def _after_sphere_metric(self, args, result):
        return self._counted_metric(result)

    def _after_levi_civita(self, args, result):
        return self._counted_connection(result)

    def _after_parse_geometry(self, args, geo):
        metric = self._counted_metric(geo.metric)
        patches = tuple(
            dataclasses.replace(
                patch,
                metric=metric if patch.metric is geo.metric
                else self._counted_metric(patch.metric),
            )
            for patch in geo.patches
        )
        return dataclasses.replace(
            geo,
            connection=self._counted_connection(geo.connection),
            metric=metric,
            patches=patches,
        )

    # -- install / remove --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "subspaces.rref": self._after_rref,
            "spectral.page_entry": self._after_page_entry,
            "liftgroup.from_path": self._after_from_path,
            "milnor.commutator_loop_path": self._after_commutator_loop_path,
            "geometry.geodesic": self._after_geodesic,
            "geometry.parallel_transport": self._after_transport,
            "geometry.gauss_bonnet": self._after_gauss_bonnet,
            "geometry.sphere_metric": self._after_sphere_metric,
            "geometry.levi_civita": self._after_levi_civita,
            "geometry.parse_geometry": self._after_parse_geometry,
        }
        package = [m for n, m in sys.modules.items() if n.startswith("chernlab")]
        for module_name, attr, span in WRAPPED:
            module = sys.modules[f"chernlab.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[method]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self.timed(span, fn, hooks.get(span))
                self._patch(owner, method, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self.timed(span, fn, hooks.get(span))
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def span_table(self, factors: list) -> dict:
        """Calls and total self seconds per span name, each span's time
        scaled by the speed factor of its op."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        self_time = (dur - child) * np.asarray(factors)[op]
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_time, minlength=len(self.names))
        table = {
            n: {"calls": int(calls[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }
        mul = self._name_ids.get("liftgroup.lift_mul")
        rot = self._name_ids.get("liftgroup.lift_mul_rotation")
        split = 0
        if mul is not None and rot is not None:
            parents = np.unique(parent[name == rot])
            split = int(np.count_nonzero(name[parents[parents >= 0]] == mul))
        table.setdefault("liftgroup.lift_mul", {"calls": 0, "self_s": 0.0})
        table["liftgroup.lift_mul"]["split"] = split
        return table

    def save(self, path, op_ids: list) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            op_ids=np.array(op_ids),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
