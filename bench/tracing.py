"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``zerolap`` module namespace (and module-level dict, such as the
CLI's command table) that holds it, so calls made through a name imported
with ``from ... import`` are caught too. Each span records its name, start,
end, parent span and instance id; spans stay in memory and are written out
once at the end. A layer's self time is its spans' busy time minus the busy
time of their child spans.
"""

import gzip
import inspect
import json
import signal
import sys
import types
from time import perf_counter


def _scan_info(base):
    """Counters for a brute-force scan: assignments tried, witnesses, refusals."""

    def info(args, kwargs, result, exc):
        h, component = args[0], args[1]
        if exc is not None:
            return {"refused": int(type(exc).__name__ == "BudgetExceededError")}
        m = len(set(component))
        return {"assignments": (base or h.k) ** m, "witnesses": len(result)}

    return info


def _build_info(args, kwargs, result, exc):
    if result is None:
        return None
    return {"system": (tuple(sorted(set(args[1]))), args[2])}


def _snf_info(args, kwargs, result, exc):
    matrix = args[0]
    return {"cells": len(matrix) * (len(matrix[0]) if matrix else 0)}


def _len_info(key):
    return lambda args, kwargs, result, exc: None if result is None else {key: len(result)}


# (module, attribute, span name, counter hook)
TARGETS = [
    ("hypergraph", "load_hypergraph", "hypergraph.load", None),
    ("hypergraph", "connected_components", "hypergraph.components", None),
    ("zk_solver", "build_zero_eig_system", "zk_solver.build", _build_info),
    ("zk_solver", "smith_normal_form", "zk_solver.snf", _snf_info),
    ("zk_solver", "solve_mod_k", "zk_solver.solve", None),
    ("zk_solver", "enumerate_solutions", "zk_solver.enumerate", None),
    ("eigenstructure", "structure_counts", "eigenstructure.counts", None),
    ("eigenstructure", "minimal_zero_eigenvectors", "eigenstructure.classes", _len_info("listed")),
    ("eigenstructure", "realize_complex", "eigenstructure.realize", None),
    ("tensor_ops", "apply_adjacency", "tensor_ops.apply", None),
    ("tensor_ops", "eig_residual", "tensor_ops.residual", None),
    ("tensor_ops", "nqz_spectral_radius", "tensor_ops.power", None),
    ("tensor_ops", "hm_spectral_reflection", "tensor_ops.reflect", None),
    ("tensor_ops", "materialize_dense", "tensor_ops.dense", lambda a, kw, r, e: None if r is None else {"entries": len(r.entries)}),
    ("tensor_ops", "diag_similarity", "tensor_ops.dense", None),
    ("tensor_ops", "DenseTensor.same_entries", "tensor_ops.dense", None),
    ("partitions", "enumerate_bipartitions", "partitions.bipartition_scan", _scan_info(2)),
    ("partitions", "enumerate_multipartitions", "partitions.multipartition_scan", _scan_info(None)),
    ("partitions", "find_hm_bipartition", "partitions.hm_search", None),
    ("partitions", "discrepancy_scan", "partitions.discrepancy", None),
    ("cli", "cmd_components", "cli.command", None),
    ("cli", "cmd_zero_eigenvectors", "cli.command", None),
    ("cli", "cmd_partitions", "cli.command", None),
    ("cli", "cmd_crosscheck", "cli.command", None),
    ("cli", "cmd_spectral_transforms", "cli.command", None),
]


class Tracer:
    def __init__(self):
        # span: [id, parent id, name, instance, start, end, busy, counters]
        self.spans: list = []
        self.stack: list = []
        self.instance = None
        self.missing: list = []
        self._undo: list = []

    # -- spans

    def open(self, name):
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, name, self.instance, perf_counter(), None, 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        end = perf_counter()
        while self.stack and self.stack.pop() is not span:
            pass  # an interrupted call (timeout) left inner spans open
        span[5] = end
        span[6] += end - span[4]

    def wrap(self, name, fn, info):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.close(span)
                if info is not None:
                    span[7] = info(args, kwargs, result, exc)

        return traced

    def wrap_generator(self, name, fn):
        """One span per generator: busy time summed over its resumptions."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            span = None
            items = 0
            try:
                while True:
                    t0 = perf_counter()
                    if span is None:
                        span = tracer.open(name)
                        t0 = span[4]
                    else:
                        tracer.stack.append(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer.stack.pop()
                        span[5] = t1
                        span[6] += t1 - t0
                    items += 1
                    yield item
            finally:
                it.close()
                if span is not None:
                    span[7] = {"items": items}

        return traced

    # -- patching

    def install(self, json_module):
        modules = [m for n, m in sys.modules.items() if n == "zerolap" or n.startswith("zerolap.")]
        for mod_name, attr, name, info in TARGETS:
            owner = sys.modules.get(f"zerolap.{mod_name}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if inspect.isgeneratorfunction(original):
                wrapper = self.wrap_generator(name, original)
            else:
                wrapper = self.wrap(name, original, info)
            if len(path) > 1:
                self._set(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._undo.append((value, dkey, dvalue, True))
                                value[dkey] = wrapper
        cli = sys.modules["zerolap.cli"]
        render = self.wrap("cli.render", json_module.dumps, None)
        proxy = types.SimpleNamespace(
            dumps=render, loads=json_module.loads, JSONDecodeError=json_module.JSONDecodeError
        )
        self._set(cli, "json", proxy)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._undo):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results

    def layer_totals(self) -> dict:
        """name -> {"self": s, "busy": s, "calls": n, counters summed}."""
        child_busy = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_busy[span[1]] += span[6]
        totals: dict = {}
        for span in self.spans:
            t = totals.setdefault(span[2], {"self": 0.0, "busy": 0.0, "calls": 0})
            t["self"] += span[6] - child_busy[span[0]]
            t["busy"] += span[6]
            t["calls"] += 1
            for key, value in (span[7] or {}).items():
                if isinstance(value, (int, float)):
                    t[key] = t.get(key, 0) + value
        return totals

    def child_calls(self, parent_name, child_name) -> int:
        names = {s[0]: s[2] for s in self.spans if s[2] == parent_name}
        return sum(1 for s in self.spans if s[2] == child_name and s[1] in names)

    def distinct_systems(self) -> int:
        return len(
            {(s[3], s[7]["system"]) for s in self.spans if s[2] == "zk_solver.build" and s[7]}
        )

    def write(self, path):
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(["id", "parent", "name", "instance", "start", "end", "busy", "counters"]))
            out.write("\n")
            for span in self.spans:
                out.write(json.dumps(span, default=str))
                out.write("\n")


class SnfSampler:
    """Share of Smith normal form time spent re-multiplying U * A * V.

    That check sits inline in ``smith_normal_form``, below any function
    boundary, so it is measured by sampling instead: a CPU-time timer
    interrupts the run every millisecond, and a sample that finds the
    function's frame on a line of the check counts toward the share.
    The check's lines run from the first ``prod = [`` to ``if prod != S``;
    if the source no longer has them, the share reads 0.
    """

    INTERVAL_S = 0.001

    def __init__(self, function):
        self.code = getattr(function, "__code__", None)
        self.lines = range(0)
        self.in_snf = self.in_check = 0
        try:
            source, first = inspect.getsourcelines(function)
        except (OSError, TypeError):
            return
        starts = [i for i, line in enumerate(source) if line.strip().startswith("prod = [")]
        ends = [i for i, line in enumerate(source) if line.strip().startswith("if prod != S")]
        if starts and ends:
            self.lines = range(first + starts[0], first + ends[-1] + 1)

    def _sample(self, signum, frame):
        while frame is not None and frame.f_code is not self.code:
            frame = frame.f_back
        if frame is not None:
            self.in_snf += 1
            self.in_check += frame.f_lineno in self.lines

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def share(self) -> float:
        return self.in_check / self.in_snf if self.in_snf else 0.0


def layer_metrics(tracer: Tracer, output_bytes: int, snf_check_share: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    t = tracer.layer_totals()

    def get(name, key="self"):
        return t.get(name, {}).get(key, 0)

    command_s = get("cli.command", "busy")
    assignments = get("partitions.bipartition_scan", "assignments") + get("partitions.multipartition_scan", "assignments")
    witnesses = get("partitions.bipartition_scan", "witnesses") + get("partitions.multipartition_scan", "witnesses")
    enumerated = get("zk_solver.enumerate", "items")
    systems = tracer.distinct_systems()

    def share(x):
        return x / command_s if command_s else 0.0

    return {
        "hypergraph.load_s": get("hypergraph.load"),
        "hypergraph.components_s": get("hypergraph.components"),
        "hypergraph.components_calls": get("hypergraph.components", "calls"),
        "zk_solver.snf_s": get("zk_solver.snf"),
        "zk_solver.snf_calls": get("zk_solver.snf", "calls"),
        "zk_solver.snf_cells": get("zk_solver.snf", "cells"),
        "zk_solver.solve_s": get("zk_solver.solve"),
        "zk_solver.solve_calls": get("zk_solver.solve", "calls"),
        "zk_solver.solves_per_component": get("zk_solver.solve", "calls") / systems if systems else 0.0,
        "zk_solver.build_s": get("zk_solver.build"),
        "zk_solver.enumerate_s": get("zk_solver.enumerate"),
        "zk_solver.solutions_enumerated": enumerated,
        "zk_solver.snf_share": share(get("zk_solver.snf")),
        "zk_solver.snf_check_share": snf_check_share,
        "eigenstructure.counts_s": get("eigenstructure.counts"),
        "eigenstructure.classes_s": get("eigenstructure.classes"),
        "eigenstructure.classes_listed": get("eigenstructure.classes", "listed"),
        "eigenstructure.enum_yield": get("eigenstructure.classes", "listed") / enumerated if enumerated else 0.0,
        "eigenstructure.realize_s": get("eigenstructure.realize"),
        "eigenstructure.realize_calls": get("eigenstructure.realize", "calls"),
        "tensor_ops.apply_s": get("tensor_ops.apply"),
        "tensor_ops.apply_calls": get("tensor_ops.apply", "calls"),
        "tensor_ops.residual_s": get("tensor_ops.residual"),
        "tensor_ops.power_s": get("tensor_ops.power"),
        "tensor_ops.power_iterations": tracer.child_calls("tensor_ops.power", "tensor_ops.apply"),
        "tensor_ops.power_share": share(get("tensor_ops.power", "busy")),
        "tensor_ops.dense_s": get("tensor_ops.dense"),
        "tensor_ops.dense_entries": get("tensor_ops.dense", "entries"),
        "tensor_ops.reflect_s": get("tensor_ops.reflect"),
        "partitions.bipartition_scan_s": get("partitions.bipartition_scan"),
        "partitions.bipartition_assignments": get("partitions.bipartition_scan", "assignments"),
        "partitions.multipartition_scan_s": get("partitions.multipartition_scan"),
        "partitions.multipartition_assignments": get("partitions.multipartition_scan", "assignments"),
        "partitions.scan_yield": witnesses / assignments if assignments else 0.0,
        "partitions.scans_refused": get("partitions.bipartition_scan", "refused") + get("partitions.multipartition_scan", "refused"),
        "partitions.scan_share": share(get("partitions.bipartition_scan") + get("partitions.multipartition_scan")),
        "partitions.hm_search_s": get("partitions.hm_search"),
        "partitions.hm_search_share": share(get("partitions.hm_search")),
        "partitions.discrepancy_s": get("partitions.discrepancy"),
        "cli.command_s": command_s,
        "cli.render_s": get("cli.render"),
        "cli.output_bytes": output_bytes,
    }
