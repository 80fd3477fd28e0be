import gc
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import counting, eigenstructure, hypergraph, names, partitions, tensor_ops, zk_solver
from zerolap import cli as cli_module
from zerolap.cli import _COMMANDS, EXIT_BROKEN_PIPE, main, render_report
from zerolap.corpus import random_connected_hypergraph, random_hm_bipartite
from zerolap.errors import VerificationError
from zerolap.kinds import KIND_SPECS, N_PAIR_KINDS, KindSpec

from conftest import FIXTURE_DIR

CHAIN = str(FIXTURE_DIR / "k3_chain_n7.json")
K4 = str(FIXTURE_DIR / "k4_overlap_n6.json")
EDGE3 = str(FIXTURE_DIR / "single_edge_k3.json")
EDGE3_ISOLATED = str(FIXTURE_DIR / "single_edge_k3_isolated.json")
EDGE4 = str(FIXTURE_DIR / "single_edge_k4.json")
COMPLETE4 = str(FIXTURE_DIR / "k3_complete_n4.json")
K4_VERTICES = tuple(range(1, 7))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEdgelessLargeUniformity:
    """An edgeless input costs nothing per residue of Z_k: at the largest
    accepted k, a run over all k phases would take hours."""

    def _input(self, tmp_path, k):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"k": k, "n": 3, "edges": []}))
        return str(path)

    def test_largest_k_lists_every_class(self, tmp_path, capsys):
        k = hypergraph.K_MAX
        code, report = run_json(capsys, "zero-eigenvectors", "--input", self._input(tmp_path, k))
        assert code == 0
        for op in report["operators"]:
            assert [c["count"] for c in op["components"]] == [k] * 3
            classes = [cls for c in op["components"] for cls in c["classes"]]
            assert [(cls["alpha"], cls["kind"], cls["residual"]) for cls in classes] == [
                ([0], "H", 0.0)
            ] * 3

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_largest_k_runs_every_command(self, tmp_path, capsys, command):
        assert main([command, "--input", self._input(tmp_path, hypergraph.K_MAX)]) == 0

    @pytest.mark.parametrize("k", [hypergraph.K_MAX + 1, 10**12, 2**63])
    def test_k_past_the_bound_exits_2(self, tmp_path, capsys, k):
        assert main(["zero-eigenvectors", "--input", self._input(tmp_path, k)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: uniformity k must be at most")


class TestComponentsCommand:
    def test_chain_summary(self, capsys):
        code, report = run_json(capsys, "components", "--input", CHAIN)
        assert code == 0
        assert report["instance"] == {
            "k": 3,
            "n": 7,
            "edge_count": 3,
            "component_count": 1,
            "singleton_count": 0,
        }
        assert report["degrees"] == [1, 1, 2, 1, 2, 1, 1]

    def test_missing_file_exits_2(self, capsys):
        assert main(["components", "--input", "/nonexistent/x.json"]) == 2

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3, "n": 3, "edges": [[1, 2, 2]]}')
        assert main(["components", "--input", str(bad)]) == 2

    @pytest.mark.parametrize(
        "edges,message",
        [
            ("[[true, 2, 3]]", "vertex id True in edge [True, 2, 3] is not an integer"),
            ("[[1.0, 2, 3]]", "vertex id 1.0 in edge [1.0, 2, 3] is not an integer"),
        ],
    )
    def test_non_integer_vertex_exits_2(self, tmp_path, capsys, edges, message):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"k": 3, "n": 3, "edges": {edges}}}')
        assert main(["components", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_underscored_text_token_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 4\n1_0 2 3\n")
        assert main(["components", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == "error: non-integer token '1_0'\n"

    @pytest.mark.parametrize(
        "name,body", [("bom.json", '{"k": 3, "n": 3, "edges": [[1, 2, 3]]}'), ("bom.txt", "3 3\n1 2 3\n")]
    )
    def test_byte_order_mark_exits_2_naming_it(self, tmp_path, capsys, name, body):
        bad = tmp_path / name
        bad.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert main(["components", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: input starts with a byte-order mark; save it without one\n"
        )
        bad.write_bytes(body.encode())  # the same file without the mark loads
        assert main(["components", "--input", str(bad)]) == 0

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "components", "--input", CHAIN)
        _, second = run(capsys, "components", "--input", CHAIN)
        assert first == second


# Imports the modules named second (comma-separated), runs ``python -m
# zerolap.cli ARGS...`` and writes, from an atexit hook, the names in
# sys.modules before the run and at exit, one a line with a blank line
# between, to the file named first.
_MODULES_AT_EXIT = """
import atexit, runpy, sys
out, preload, sys.argv = sys.argv[1], sys.argv[2], ["zerolap.cli", *sys.argv[3:]]
for name in filter(None, preload.split(",")):
    __import__(name)
before = list(sys.modules)
def record():
    with open(out, "w") as f:
        f.write("\\n".join([*before, "", *sys.modules]))
atexit.register(record)
runpy.run_module("zerolap.cli", run_name="__main__", alter_sys=True)
"""


class TestStartupImports:
    """``components``, usage errors and input errors run on the standard
    library and the hypergraph model alone: numpy and the algebra load only
    in the commands that solve. That path also leaves out the standard
    library's slow imports: ``dataclasses`` (which loads ``inspect``),
    ``typing`` and ``pathlib``. It runs under ``python -S``, since a
    ``site`` hook may import ``typing`` or ``pathlib`` first."""

    ALGEBRA = {
        "numpy",
        "zerolap.zk_solver",
        "zerolap.tensor_ops",
        "zerolap.eigenstructure",
        "zerolap.partitions",
        "zerolap.counting",
    }
    SLOW_STDLIB = {"dataclasses", "inspect", "typing", "pathlib"}

    def _modules_at_exit(self, tmp_path, *argv, flags=(), preload=()) -> tuple[int, set, set]:
        """Exit code, the modules loaded once ``preload`` is imported, and
        the modules loaded at exit."""
        out = tmp_path / "modules.txt"
        paths = [str(FIXTURE_DIR.parent / "src"), str(FIXTURE_DIR.parent / "tests")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _MODULES_AT_EXIT, str(out), ",".join(preload), *argv],
            env=env,
            capture_output=True,
        )
        before, at_exit = out.read_text().split("\n\n")
        return proc.returncode, set(before.split("\n")), set(at_exit.split("\n"))

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["components", "--input", CHAIN], 0),
            (["components", "--input", "BAD"], 2),
            (["zero-eigenvectors", "--input", "BAD"], 2),
            (["crosscheck", "--input", CHAIN, "--tolerance", "-1"], 2),
            (["partitions", "--operator", "adjacency", "--input", CHAIN], 2),
            (["--help"], 0),
            (["partitions", "--kind", "tri", "--input", K4], 2),
        ],
    )
    def test_no_algebra_loaded(self, tmp_path, argv, code):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3, "n": 3, "edges": [[1, 2, 2]]}')
        argv = [str(bad) if arg == "BAD" else arg for arg in argv]
        exit_code, _, modules = self._modules_at_exit(tmp_path, *argv, flags=["-S"])
        assert exit_code == code
        assert {"zerolap.hypergraph", "zerolap.names"} <= modules
        assert not modules & self.ALGEBRA
        assert not modules & self.SLOW_STDLIB

    def test_solving_command_loads_the_algebra(self, tmp_path):
        """The probe sees the modules a command does load: all of the
        algebra but ``partitions``, which no count or class listing reads."""
        exit_code, _, modules = self._modules_at_exit(
            tmp_path, "zero-eigenvectors", "--input", CHAIN
        )
        assert exit_code == 0
        assert self.ALGEBRA - {"zerolap.partitions"} <= modules
        assert "zerolap.partitions" not in modules

    def test_components_loads_only_the_model(self, tmp_path):
        exit_code, _, modules = self._modules_at_exit(tmp_path, "components", "--input", K4)
        assert exit_code == 0
        # the command line itself runs as __main__
        expected = {"zerolap", "zerolap.errors", "zerolap.hypergraph", "zerolap.names"}
        assert {name for name in modules if name.split(".")[0] == "zerolap"} == expected

    def test_partitions_loads_no_eigenstructure(self, tmp_path):
        """Its listings render without the class listing's module."""
        exit_code, _, modules = self._modules_at_exit(tmp_path, "partitions", "--input", K4)
        assert exit_code == 0
        assert {"zerolap.partitions", "zerolap.counting"} <= modules
        assert not modules & {"zerolap.eigenstructure", "zerolap.tensor_ops"}

    @pytest.mark.parametrize(
        "command, fixture",
        [("crosscheck", K4), ("zero-eigenvectors", K4), ("spectral-transforms", EDGE4)],
    )
    def test_solving_commands_load_no_dataclasses(self, tmp_path, command, fixture):
        """The solving modules build their records without ``dataclasses``:
        past what numpy loads, a solving command imports none, and
        ``crosscheck``, which realizes no vector, no ``tensor_ops``."""
        exit_code, numpy_loaded, modules = self._modules_at_exit(
            tmp_path, command, "--input", fixture, preload=["numpy"]
        )
        assert exit_code == 0
        assert {"zerolap.zk_solver", "zerolap.counting"} <= modules
        assert "dataclasses" not in modules - numpy_loaded
        assert ("zerolap.tensor_ops" in modules) is (command != "crosscheck")
        assert ("zerolap.partitions" in modules) is (command == "spectral-transforms")

    @pytest.mark.parametrize(
        "module, absent",
        [
            ("zerolap.counting", ["zk_solver", "partitions", "eigenstructure", "tensor_ops"]),
            ("oracles", ["zk_solver", "partitions", "eigenstructure"]),
            ("zerolap.kinds", ["numpy"]),
        ],
    )
    def test_routes_load_apart(self, tmp_path, module, absent):
        """The combinatorial counts and the brute-force oracles load apart
        from the exact solve, and the kind table loads no numpy."""
        _, loaded, _ = self._modules_at_exit(tmp_path, "--help", preload=[module])
        assert module in loaded
        assert not loaded & {name if name == "numpy" else f"zerolap.{name}" for name in absent}

    def test_lazy_names_resolve(self):
        """In a fresh interpreter, where no test has resolved them yet."""
        script = (
            "import importlib, zerolap\n"
            "assert zerolap._LAZY and not set(zerolap._LAZY) & set(vars(zerolap))\n"
            "for name, module in zerolap._LAZY.items():\n"
            "    owner = importlib.import_module(f'zerolap.{module}')\n"
            "    assert getattr(zerolap, name) is getattr(owner, name), name\n"
            "    assert name in dir(zerolap), name\n"
            "assert not hasattr(zerolap, 'no_such_name')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()


class TestRecordSemantics:
    """The records of the solving modules, built on ``hypergraph._Record``:
    immutable; compared and hashed by identity where they hold arrays, by
    their counts (``ComponentStructure``) or fields (``KindSpec``) otherwise."""

    def _records(self):
        counts = eigenstructure.solve_components(hypergraph.load_hypergraph(K4))["laplacian"]
        (structure,) = counts.components
        listing = eigenstructure.ClassListing(np.zeros((1, 1), np.int64), np.ones(1, bool), np.zeros(1))
        pair = tensor_ops.nqz_spectral_radius(hypergraph.load_hypergraph(EDGE4))
        form = zk_solver.howell_form(structure.system.edges, 6, 4)
        return counts, structure, [structure.description, form, listing, pair]

    def test_records_are_immutable(self):
        counts, structure, arrays = self._records()
        spec = KIND_SPECS[names.L_QUAD]
        for record in [counts, structure, spec, *arrays]:
            name = type(record)._fields[0]
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(record, name)

    def test_array_records_compare_by_identity(self):
        _, _, arrays = self._records()
        for record in arrays:
            twin = type(record)(*(getattr(record, name) for name in type(record)._fields))
            assert record == record and record != twin
            assert hash(record) == object.__hash__(record) and len({record, twin}) == 2

    def test_component_structure_compares_by_counts(self):
        counts, structure, _ = self._records()
        c = structure
        twin = eigenstructure.ComponentStructure(
            c.component, c.singleton, c.feasible, c.solution_count, c.class_count, c.h_count,
            c.n_pair_count, None, c.h_expected,
        )
        assert twin == c and hash(twin) == hash(c) and repr(twin) == repr(c)
        assert "description" not in repr(c) and "h_expected" in repr(c)
        assert twin.description is None and twin.counter is None and twin.system is None
        assert c.system is not None and c.counter is not None
        bumped = eigenstructure.ComponentStructure(
            c.component, c.singleton, c.feasible, c.solution_count, c.class_count, c.h_count,
            c.n_pair_count, c.description, c.h_count + 1, c.counter, c.system,
        )
        assert bumped != c
        same = eigenstructure.StructureCounts("laplacian", 4, (twin,))
        assert same == counts and hash(same) == hash(counts)

    def test_kind_spec_hashable(self):
        spec = KIND_SPECS[names.TRIPARTITE]
        twin = KindSpec(
            k=spec.k, operator=spec.operator, min_nonempty=spec.min_nonempty, profiles=spec.profiles
        )
        assert twin == spec and hash(twin) == hash(spec) and len({spec, twin}) == 1
        assert spec != KIND_SPECS[names.L_QUAD]


# Runs ``python -m zerolap.cli ARGS...`` and writes ``gc.isenabled()`` to
# the file named first from an atexit hook, registered before the run.
_GC_AT_EXIT = """
import atexit, gc, runpy, sys
out, sys.argv = sys.argv[1], ["zerolap.cli", *sys.argv[2:]]
def record():
    with open(out, "w") as f:
        f.write(f"{gc.isenabled()}")
atexit.register(record)
runpy.run_module("zerolap.cli", run_name="__main__", alter_sys=True)
"""

# Runs ``cli.run`` with ``main`` replaced by one that writes to stdout and
# stderr, flushing neither, and returns the code given first.
_RUN_RETURNING = """
import sys
from zerolap import cli
def main():
    sys.stdout.write("report\\n" * 3)
    sys.stderr.write("warning")
    return int(sys.argv[1])
cli.main = main
cli.run()
"""


class TestProcessEntryPoint:
    """``cli.run`` runs the process without the cyclic collector and ends
    it without the interpreter's teardown, after the exit handlers and a
    flush of both streams; ``cli.main`` leaves the collector alone."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_found(self, capsys, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert run(capsys, "crosscheck", "--input", CHAIN)[0] == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["crosscheck", "--input", CHAIN], 0),
            (["crosscheck", "--input", "BAD"], 2),
            (["partitions", "--kind", "even", "--budget", "1", "--input", K4], 4),
        ],
    )
    def test_module_run_disables_collector_and_runs_handlers(self, tmp_path, capsys, argv, code):
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3, "n": 3, "edges": [[1, 2, 2]]}')
        argv = [str(bad) if arg == "BAD" else arg for arg in argv]
        out = tmp_path / "gc.txt"
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _GC_AT_EXIT, str(out), *argv], env=env, capture_output=True
        )
        assert proc.returncode == code, proc.stderr.decode()
        # the handler registered before the run ran, with the collector off
        assert out.read_text() == "False"
        # the process writes what main writes in-process
        assert (proc.returncode, proc.stdout.decode()) == run(capsys, *argv)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["zero-eigenvectors", "--input", K4], 0),
            (["crosscheck", "--input", "BAD"], 2),
            (["partitions", "--budget", "1", "--input", K4], 4),
            (["spectral-transforms", "--input", COMPLETE4], 6),
        ],
    )
    def test_process_writes_what_main_writes(self, tmp_path, capsys, argv, code):
        """stdout, stderr and an ``--out`` report are complete, byte for
        byte as ``main`` writes them in-process, and the code passes through."""
        bad = tmp_path / "bad.json"
        bad.write_text('{"k": 3, "n": 3, "edges": [[1, 2, 2]]}')
        argv = [str(bad) if arg == "BAD" else arg for arg in argv]
        command = [sys.executable, "-m", "zerolap.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        proc = subprocess.run(command, env=env, capture_output=True)
        assert proc.returncode == main(argv) == code
        expected = capsys.readouterr()
        assert proc.stdout.decode() == expected.out
        assert proc.stderr.decode() == expected.err
        report = tmp_path / "report.json"
        argv += ["--out", str(report)]
        assert main(argv) == code
        in_process = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        to_file = subprocess.run([*command, "--out", str(report)], env=env, capture_output=True)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (code, b"", proc.stderr)
        assert (report.read_text() if report.exists() else None) == in_process
        assert (in_process is None) is (code == 2)

    @pytest.mark.parametrize(
        "locale, folder",
        [
            ({"LC_ALL": "C.UTF-8"}, b"lat\xe9"),
            ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, "\u00e9".encode()),
        ],
        ids=["utf8-locale", "c-locale"],
    )
    def test_out_file_holds_the_bytes_stdout_prints(self, tmp_path, locale, folder):
        """A --pretty report echoes the input path as the file system
        decoded it: a byte the locale cannot decode is a lone surrogate,
        which the report file writes back as that byte, as stdout does."""
        directory = os.path.join(os.fsencode(tmp_path), folder)
        os.mkdir(directory)
        source = os.path.join(directory, b"in.json")
        with open(source, "wb") as stream:
            stream.write((FIXTURE_DIR / "k3_chain_n7.json").read_bytes())
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"), **locale)
        command = [sys.executable, "-m", "zerolap.cli", "components", "--pretty", "--input", source]
        printed = subprocess.run(command, env=env, capture_output=True)
        report = tmp_path / "report.txt"
        written = subprocess.run([*command, "--out", str(report)], env=env, capture_output=True)
        assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
        assert (printed.returncode, printed.stderr) == (0, b"")
        assert b"input: " + source in printed.stdout

        def lines(text):  # all but the echoed ``out`` field
            return [line for line in text.splitlines() if not line.startswith(b"  out: ")]

        assert lines(report.read_bytes()) == lines(printed.stdout)

    @pytest.mark.parametrize("code", [0, 2, 3, 4, 5, 6])
    def test_run_passes_the_code_through_and_flushes(self, code):
        """Whatever ``main`` returns is the exit code, and what it left in
        the streams' buffers is written before the process ends."""
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)  # so that both streams buffer
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_RETURNING, str(code)], env=env, capture_output=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, b"report\n" * 3, b"warning")


class TestZeroEigenvectorsCommand:
    def test_k4_laplacian_h_count(self, capsys):
        code, report = run_json(
            capsys, "zero-eigenvectors", "--input", K4, "--operator", "laplacian"
        )
        assert code == 0
        (op,) = report["operators"]
        assert op["H_count"] == 4
        assert op["crosscheck"]["matched"] is True

    def test_chain_counts(self, capsys):
        code, report = run_json(
            capsys, "zero-eigenvectors", "--input", CHAIN, "--operator", "laplacian"
        )
        (op,) = report["operators"]
        assert (op["H_count"], op["N_pair_count"]) == (1, 13)
        comp = op["components"][0]
        assert comp["class_count"] == 27
        assert len(comp["classes"]) == 27
        assert all(c["residual"] <= 1e-9 for c in comp["classes"])

    def test_odd_signless_reports_reason(self, capsys):
        code, report = run_json(
            capsys, "zero-eigenvectors", "--input", EDGE3, "--operator", "signless"
        )
        assert code == 0
        comp = report["operators"][0]["components"][0]
        assert comp["feasible"] is False
        assert comp["classes"] == []
        assert "odd uniformity" in comp["reason"]

    @staticmethod
    def _signless_singleton(capsys, path):
        code, report = run_json(
            capsys, "zero-eigenvectors", "--input", str(path), "--operator", "signless"
        )
        assert code == 0
        singleton = report["operators"][0]["components"][-1]
        assert singleton["singleton"] is True and singleton["feasible"] is True
        assert singleton["classes"] == [{"alpha": [0], "kind": "H", "residual": 0.0}]
        return singleton

    def test_odd_k_singleton_has_no_signless_rhs(self, capsys):
        """At odd k, k/2 is no residue: the singleton's signless record,
        feasible with its scalar class, carries no edge residue."""
        singleton = self._signless_singleton(capsys, EDGE3_ISOLATED)
        assert singleton["vertices"] == [4] and singleton["rhs"] is None

    def test_even_k_singleton_keeps_the_signless_rhs(self, tmp_path, capsys):
        path = tmp_path / "edge_k4_isolated.json"
        path.write_text(json.dumps({"k": 4, "n": 5, "edges": [[1, 2, 3, 4]]}))
        singleton = self._signless_singleton(capsys, path)
        assert singleton["vertices"] == [5] and singleton["rhs"] == 2

    def test_both_operators_by_default(self, capsys):
        _, report = run_json(capsys, "zero-eigenvectors", "--input", EDGE4)
        assert [op["operator"] for op in report["operators"]] == ["laplacian", "signless"]


class TestPartitionsCommand:
    def test_k4_even_witnesses(self, capsys):
        code, report = run_json(
            capsys, "partitions", "--input", K4, "--kind", "even"
        )
        assert code == 0
        (entry,) = report["partitions"]
        assert entry["count"] == 3
        sides = {
            frozenset(frozenset(p) for p in w["parts"]) for w in entry["witnesses"]
        }
        assert frozenset({frozenset({1, 2, 5}), frozenset({3, 4, 6})}) in sides

    def test_chain_tripartite_residue(self, capsys):
        code, report = run_json(
            capsys, "partitions", "--input", CHAIN, "--kind", "tri", "--predicate", "residue"
        )
        assert report["partitions"][0]["count"] == 13

    def test_budget_exhaustion_exits_4(self, capsys):
        code, report = run_json(
            capsys, "partitions", "--input", CHAIN, "--kind", "tri", "--budget", "10"
        )
        assert code == 4
        assert "budget_exceeded" in report["partitions"][0]

    def test_default_kinds_for_k4(self, capsys):
        _, report = run_json(capsys, "partitions", "--input", K4)
        kinds = [e["kind"] for e in report["partitions"]]
        assert kinds == ["hm", "odd", "even", "lquad", "slquad"]


class TestCrosscheckCommand:
    @pytest.mark.parametrize("path", [CHAIN, K4, EDGE3, EDGE4])
    def test_fixtures_pass(self, capsys, path):
        code, report = run_json(capsys, "crosscheck", "--input", path)
        assert code == 0
        for entry in report["crosschecks"]:
            assert entry["H_matched"] is True
            assert entry.get("N_matched") in (True, None)

    def test_n_equivalence_reported(self, capsys):
        _, report = run_json(capsys, "crosscheck", "--input", CHAIN)
        lap = next(e for e in report["crosschecks"] if e["operator"] == "laplacian")
        assert lap["N_expected"] == 13
        assert lap["N_matched"] is True
        assert lap["N_literal_count"] == 13  # the two tripartite predicates agree

    def test_discrepancy_scans_included(self, capsys):
        _, report = run_json(capsys, "crosscheck", "--input", K4)
        kinds = {scan["kind"]: scan for scan in report["discrepancies"]}
        assert set(kinds) == {"lquad", "slquad"}
        lquad_values = [d["values"] for d in kinds["lquad"]["disagreements"]]
        assert [0, 1, 1, 2] in lquad_values


class TestSpectralTransformsCommand:
    def test_single_edge_all_rotations(self, capsys):
        code, report = run_json(capsys, "spectral-transforms", "--input", EDGE3)
        assert code == 0
        (entry,) = report["spectral_transforms"]
        assert len(entry["rotations"]) == 3
        assert all(r["residual"] <= 1e-8 for r in entry["rotations"])

    def test_even_k_similarity_identity(self, capsys):
        code, report = run_json(capsys, "spectral-transforms", "--input", EDGE4)
        assert code == 0
        assert report["spectral_transforms"][0]["similarity_identity_exact"] is True

    @pytest.mark.parametrize("k, heads, masses, extra", [(4, 25, 45, 20), (6, 8, 20, 10)])
    def test_similarity_identity_has_no_size_cliff(self, tmp_path, capsys, k, heads, masses, extra):
        """n = 70 at k = 4 and n = 28 at k = 6: both past what a dense
        tensor of n^k entries could hold, both checked edge by edge."""
        h, _ = random_hm_bipartite(random.Random(5), k, heads, masses, extra)
        path = tmp_path / "hm.json"
        path.write_text(json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}))
        code, report = run_json(capsys, "spectral-transforms", "--input", str(path))
        assert code == 0
        entries = report["spectral_transforms"]
        assert entries and all(e["similarity_identity_exact"] is True for e in entries)

    def test_failed_similarity_identity_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(tensor_ops, "similarity_identity_holds", lambda h, row: False)
        assert main(["spectral-transforms", "--input", EDGE4]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "diagonal similarity identity failed on component" in captured.err

    @pytest.mark.parametrize("even", [False, True])
    def test_row_and_input_pair_checked_once(self, even, tmp_path, capsys, monkeypatch):
        """Each component's hm row is checked by the reflection and, for even
        k, by the similarity identity, and its input pair's residual is
        computed once, not once per rotation."""
        path, sizes = (_two_components(tmp_path), [6, 4]) if even else (CHAIN, [7])
        row_checks, input_residuals, pairs = [], [], []
        check, residual, power = (
            tensor_ops._heads_per_edge, tensor_ops.eig_residual, tensor_ops.nqz_spectral_radius
        )

        def checking(h, row):
            row_checks.append(h.n)
            return check(h, row)

        def computing(h, operator, lam, x):
            if pairs and x is pairs[-1].vector:
                input_residuals.append(h.n)
            return residual(h, operator, lam, x)

        monkeypatch.setattr(tensor_ops, "_heads_per_edge", checking)
        monkeypatch.setattr(tensor_ops, "eig_residual", computing)
        monkeypatch.setattr(
            tensor_ops, "nqz_spectral_radius", lambda h: pairs.append(power(h)) or pairs[-1]
        )
        assert main(["spectral-transforms", "--input", path]) == 0
        assert row_checks == [n for n in sizes for _ in range(1 + even)]
        assert input_residuals == sizes

    def test_non_hm_input_exits_6(self, capsys):
        code, report = run_json(capsys, "spectral-transforms", "--input", COMPLETE4)
        assert code == 6
        assert report["error"] == "no hm-bipartition exists"

    def test_power_iteration_cap_exits_4(self, tmp_path, capsys):
        """A loose 3-uniform path of 100 edges leaves the power iteration's
        eigenvalue bracket near 5e-8 after its 10^4 steps."""
        path = tmp_path / "loose_path.json"
        edges = [[2 * i + 1, 2 * i + 2, 2 * i + 3] for i in range(100)]
        path.write_text(json.dumps({"k": 3, "n": 201, "edges": edges}))
        assert main(["spectral-transforms", "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: power iteration did not converge within 10000")

    def test_hm_search_budget_exits_4_without_traceback(self, tmp_path):
        """The hm search on an instance where the recursive search used to
        backtrack needs more than 50 head trials, and far fewer than the
        default budget."""
        h, _ = random_hm_bipartite(random.Random(0), 3, 130, 30, 20)
        path = tmp_path / "hard_hm.json"
        path.write_text(json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}))
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        command = [sys.executable, "-m", "zerolap.cli", "spectral-transforms", "--input", str(path)]
        capped = subprocess.run(command + ["--budget", "50"], capture_output=True, env=env)
        assert capped.returncode == 4
        assert capped.stdout == b""
        assert capped.stderr == b"error: hm-bipartition search needs more than 50 head trials\n"
        full = subprocess.run(command, capture_output=True, env=env)
        assert full.returncode == 0
        assert full.stderr == b""
        assert len(json.loads(full.stdout)["spectral_transforms"]) == 1


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_both_operators_share_one_factorization(command, capsys, eliminations):
    assert main([command, "--input", K4, "--operator", "both"]) == 0
    assert eliminations == [(K4_VERTICES, 4), (K4_VERTICES, 2)]  # one component, k = 4


def _two_components(tmp_path, k=4):
    """Two k-uniform components, of two edges and of one, beside a singleton."""
    path = tmp_path / f"two_components_k{k}.json"
    edges = [[*range(1, k + 1)], [*range(k - 1, 2 * k - 1)], [*range(2 * k - 1, 3 * k - 1)]]
    path.write_text(json.dumps({"k": k, "n": 3 * k - 1, "edges": edges}))
    return str(path)


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_each_component_eliminated_once(command, tmp_path, capsys, eliminations):
    """Both operators share each non-singleton component's one elimination
    modulo k, and the H counts its one elimination modulo 2 (k = 4 > 2);
    the singleton builds no form."""
    assert main([command, "--input", _two_components(tmp_path), "--operator", "both"]) == 0
    first, second = tuple(range(1, 7)), tuple(range(7, 11))
    assert eliminations == [(first, 4), (first, 2), (second, 4), (second, 2)]


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_each_k6_component_eliminated_once_per_prime_power(command, tmp_path, capsys, eliminations):
    """At k = 6 each non-singleton component is eliminated once modulo 2
    and once modulo 3, in that order: its form modulo 6 is their join, and
    the H counts read the same form modulo 2."""
    assert main([command, "--input", _two_components(tmp_path, 6), "--operator", "both"]) == 0
    first, second = tuple(range(1, 11)), tuple(range(11, 17))
    assert eliminations == [(first, 2), (first, 3), (second, 2), (second, 3)]


@pytest.mark.parametrize(
    "command", [["spectral-transforms"], ["zero-eigenvectors", "--operator", "both"]]
)
def test_edge_index_built_once_per_component(command, tmp_path, capsys, edge_index_builds):
    """The solve, the realization, the hm search, the power iteration and
    the reflections all read each component's one edge index; the
    singleton builds none."""
    assert main([*command, "--input", _two_components(tmp_path)]) == 0
    assert [h.n for h in edge_index_builds] == [6, 4]


def test_over_budget_bipartitions_eliminated_once(capsys, eliminations):
    """A component whose bipartition listing is over budget is eliminated
    modulo 2 once, not once per flavor; lquad and slquad share one
    elimination modulo 4."""
    assert main(["partitions", "--input", K4, "--budget", "1"]) == 4
    assert eliminations == [(K4_VERTICES, 2), (K4_VERTICES, 4)]


@pytest.mark.parametrize("fixture", ["k4_overlap", "two_components"])
def test_partitions_drop_the_form_modulo_2_before_multipartitions(
    fixture, tmp_path, capsys, monkeypatch
):
    """At k = 4 with the default kinds, a component's form modulo 2 is gone
    once its bipartitions are listed: no multipartition listing, which
    eliminates modulo 4, runs beside it."""
    path = K4 if fixture == "k4_overlap" else _two_components(tmp_path)
    listing = partitions.enumerate_multipartitions
    seen = []

    def watched(system, kind, *args):
        seen.append((system.vertices, kind, sorted(system.forms)))
        return listing(system, kind, *args)

    monkeypatch.setattr(partitions, "enumerate_multipartitions", watched)
    assert main(["partitions", "--input", path]) == 0
    capsys.readouterr()
    kinds = [kind for _, kind, _ in seen]
    assert kinds == [names.L_QUAD, names.SL_QUAD] * (len(kinds) // 2) and kinds
    assert [moduli for _, _, moduli in seen if 2 in moduli] == []


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_one_system_per_component(command, tmp_path, capsys, eliminations, induced_builds):
    """On every fixture, and on two components beside a singleton at k = 4
    and at k = 6, each non-singleton component's sub-hypergraph is induced
    once, and each (component, modulus) eliminated at most once, modulo a
    prime power; ``components`` builds neither."""
    inputs = [*sorted(map(str, FIXTURE_DIR.iterdir())), _two_components(tmp_path)]
    for path in [*inputs, _two_components(tmp_path, 6)]:
        eliminations.clear()
        induced_builds.clear()
        main([command, "--input", path])
        capsys.readouterr()
        assert induced_builds == ([] if command == "components" else _non_singletons(path)), path
        assert len(set(eliminations)) == len(eliminations), path
        assert all(len(zk_solver._prime_powers(q)) == 1 for _, q in eliminations), path


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck", "partitions"])
def test_no_form_outlives_its_component(command, tmp_path, capsys, eliminations, monkeypatch):
    """When a component's first form is built, no earlier component's form
    is alive: a command solves or lists one component at a time and lets
    its forms go before the next."""
    path = tmp_path / "three_components.json"
    edges = [[1, 2, 3, 4], [3, 4, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14], [12, 13, 14, 15]]
    path.write_text(json.dumps({"k": 4, "n": 15, "edges": edges}))
    forms = []  # (component, weak reference to one of its forms)
    eliminating = zk_solver.howell_form  # the fixture's, which records the component

    def tracking(edges, width, modulus):
        form = eliminating(edges, width, modulus)
        component = eliminations[-1][0]
        if all(seen != component for seen, _ in forms):
            assert [seen for seen, ref in forms if ref() is not None] == [], component
        forms.append((component, weakref.ref(form)))
        return form

    monkeypatch.setattr(zk_solver, "howell_form", tracking)
    assert main([command, "--input", str(path)]) == 0
    capsys.readouterr()
    assert len({component for component, _ in forms}) == 3


@pytest.mark.parametrize("path", [CHAIN, K4, EDGE3, EDGE4])
def test_crosscheck_scans_each_component_and_kind_once(path, capsys, literal_scans):
    h = hypergraph.load_hypergraph(path)
    decomp = hypergraph.connected_components(h)
    kinds = [N_PAIR_KINDS[h.k, op] for op in ("laplacian", "signless") if (h.k, op) in N_PAIR_KINDS]
    comps = [c for c, single in zip(decomp.components, decomp.singleton) if not single]
    assert main(["crosscheck", "--input", path]) == 0
    assert literal_scans == [(comp, kind) for kind in kinds for comp in comps]


def test_crosscheck_scans_nothing_for_an_unchecked_n_identity(tmp_path, capsys, literal_scans):
    """One 3-edge beside all ten triples of a 5-set, under budget 100: the
    counter refuses the 5-set's tripartite count (a bag of 3^5 entries),
    so the Laplacian N identity stays unchecked, the report carries no
    literal count, and no literal scan runs."""
    path = tmp_path / "edge_and_complete5.json"
    edges = [[1, 2, 3]] + [list(e) for e in itertools.combinations(range(4, 9), 3)]
    path.write_text(json.dumps({"k": 3, "n": 8, "edges": edges}))
    code, report = run_json(capsys, "crosscheck", "--budget", "100", "--input", str(path))
    assert code == 0
    lap = next(e for e in report["crosschecks"] if e["operator"] == "laplacian")
    assert lap["N_expected"] is None and lap["N_matched"] is None
    assert lap["N_formula"].endswith("(budget exceeded, unchecked)")
    assert "N_literal_count" not in lap
    assert literal_scans == []


def test_zero_eigenvectors_counts_no_n_identity(capsys, monkeypatch):
    """``zero-eigenvectors`` reports no N identity, so it neither counts
    residue orbits nor lists multipartitions."""

    def refuse(*args, **kwargs):
        raise AssertionError("zero-eigenvectors read an N identity")

    monkeypatch.setattr(counting, "residue_orbit_count", refuse)
    monkeypatch.setattr(counting, "literal_scan", refuse)
    assert main(["zero-eigenvectors", "--input", CHAIN]) == 0
    capsys.readouterr()


def _even_k_inputs(tmp_path):
    """The even-k fixtures, plus two 4-edges and an isolated vertex."""
    two = tmp_path / "two_edges_k4.json"
    two.write_text(json.dumps({"k": 4, "n": 9, "edges": [[1, 2, 3, 4], [5, 6, 7, 8]]}))
    return [K4, EDGE4, str(FIXTURE_DIR / "single_edge_k6.json"), str(two)]


def _non_singletons(path):
    decomp = hypergraph.connected_components(hypergraph.load_hypergraph(path))
    return [c for c, single in zip(decomp.components, decomp.singleton) if not single]


@pytest.mark.parametrize("argv", [["partitions"]], ids=["partitions"])
def test_one_bipartition_scan_per_component(argv, tmp_path, capsys, bipartition_scans):
    """One scan per non-singleton component serves every bipartition kind
    that ``partitions`` lists."""
    for path in _even_k_inputs(tmp_path):
        bipartition_scans.clear()
        assert main([*argv, "--input", path]) == 0
        capsys.readouterr()
        assert bipartition_scans == _non_singletons(path), path


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_h_counts_by_elimination_not_scans(
    command, tmp_path, capsys, bipartition_scans, elimination_orders, residue_counts
):
    """Both operators' H cross-checks read one elimination order per
    non-singleton component and one count per parity over {0, k/2}; no
    bipartition is scanned. ``crosscheck``'s N counts reuse the same order."""
    for path in _even_k_inputs(tmp_path):
        h = hypergraph.load_hypergraph(path)
        comps = _non_singletons(path)
        half = h.k // 2
        for calls in (bipartition_scans, elimination_orders, residue_counts):
            calls.clear()
        assert main([command, "--operator", "both", "--input", path]) == 0
        capsys.readouterr()
        assert bipartition_scans == [], path
        assert elimination_orders == [len(c) for c in comps], path
        parities = [call for call in residue_counts if call[2] == (0, half)]
        assert parities == [(len(c), r, (0, half)) for c in comps for r in (0, half)], path


@pytest.mark.parametrize("path", [CHAIN, K4])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_components_computed_once_per_run(command, path, capsys, monkeypatch):
    """Counts calls on the loaded hypergraph only: the spectral check on an
    induced subhypergraph decomposes that other hypergraph."""
    loaded = []
    real_load = cli_module.load_hypergraph

    def loading(source):
        loaded.append(real_load(source))
        return loaded[-1]

    calls = []
    real = hypergraph.connected_components

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(cli_module, "load_hypergraph", loading)
    for module in (hypergraph, cli_module, eigenstructure, tensor_ops):
        monkeypatch.setattr(module, "connected_components", counting)
    main([command, "--input", path])
    assert sum(h is loaded[0] for h in calls) == 1


class _CountingEdges(tuple):
    """An edge tuple that counts the full passes made over it."""

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _edge_passes(command: str, isolated: int, monkeypatch, capsys) -> int:
    """Full passes over ``h.edges`` in one run of ``command`` on a k=4
    instance with two edge-bearing components and ``isolated`` more
    vertices."""
    edges = ((1, 2, 3, 4), (3, 4, 5, 6), (7, 8, 9, 10), (8, 9, 10, 11))
    h = hypergraph.Hypergraph(4, 11 + isolated, edges)
    counting = _CountingEdges(h.edges)
    counting.passes = 0
    object.__setattr__(h, "edges", counting)
    monkeypatch.setattr(cli_module, "load_hypergraph", lambda source: h)
    assert main([command, "--input", "unused", "--operator", "both"]) == 0
    capsys.readouterr()
    return counting.passes


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_edge_passes_independent_of_component_count(command, monkeypatch, capsys):
    """Per-component steps read their edges through the hypergraph's
    vertex-to-edge index, so a run scans all edges a fixed number of times
    however many components there are."""
    few = _edge_passes(command, 0, monkeypatch, capsys)
    many = _edge_passes(command, 200, monkeypatch, capsys)
    assert many == few <= 3


class TestFailureExitCodes:
    def test_crosscheck_mismatch_exits_5(self, capsys, monkeypatch):
        """Wiring check: a count disagreement must surface as exit 5."""
        real_solve = eigenstructure.solve_components

        def broken_solve(*args, **kwargs):
            return {
                op: eigenstructure.StructureCounts(
                    counts.operator,
                    counts.k,
                    tuple(
                        eigenstructure.ComponentStructure(
                            c.component, c.singleton, c.feasible, c.solution_count,
                            c.class_count, c.h_count, c.n_pair_count, c.description,
                            c.h_count + 1, c.counter, c.system,
                        )
                        for c in counts.components
                    ),
                )
                for op, counts in real_solve(*args, **kwargs).items()
            }

        monkeypatch.setattr(eigenstructure, "solve_components", broken_solve)
        code, report = run_json(capsys, "crosscheck", "--input", EDGE3)
        assert code == 5
        assert any(e["H_matched"] is False for e in report["crosschecks"])

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        """``zerolap ... | head -1``: the report (about 3 MB, far beyond a
        pipe buffer) is cut off after one byte."""
        tree = tmp_path / "hypertree.json"
        edges = [[2 * i + 1, 2 * i + 2, 2 * i + 3] for i in range(8)]
        tree.write_text(json.dumps({"k": 3, "n": 17, "edges": edges}))
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "zerolap.cli", "zero-eigenvectors", "--input", str(tree)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_BROKEN_PIPE
        assert stderr == b""

    @staticmethod
    def _parse_failure(capsys, argv, message):
        """Exit 2 with ``message`` as the one line on stderr: no traceback."""
        assert main(["components", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_no_input_exits_2(self, capsys):
        self._parse_failure(capsys, [], "no input file given (flag --input or config file)")

    @pytest.mark.parametrize("budget", ["0", "-5", "config"])
    def test_nonpositive_budget_exits_2(self, tmp_path, capsys, budget):
        argv = ["--input", CHAIN, "--budget", budget]
        if budget == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"budget": 0}))
            argv[2:] = ["--config", str(cfg)]
        self._parse_failure(capsys, argv, "budget must be positive")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        cfg = str(tmp_path / "absent.json")
        message = f"cannot read config file: [Errno 2] No such file or directory: {cfg!r}"
        self._parse_failure(capsys, ["--config", cfg], message)

    def test_config_not_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("input: k3_chain_n7.json")
        message = "cannot read config file: Expecting value: line 1 column 1 (char 0)"
        self._parse_failure(capsys, ["--config", str(cfg)], message)

    def test_config_not_utf8_names_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"input": "\xff"}')
        message = (
            "cannot read config file: 'utf-8' codec can't decode byte 0xff in position 11:"
            " invalid start byte"
        )
        self._parse_failure(capsys, ["--config", str(cfg)], message)

    def test_input_not_utf8_exits_2(self, tmp_path, capsys):
        source = tmp_path / "in.json"
        source.write_bytes(b'{"k": 3, "n": 3, "edges": []}\xff')
        message = (
            "input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 29:"
            " invalid start byte"
        )
        self._parse_failure(capsys, ["--input", str(source)], message)

    def test_verification_failure_exits_3(self, monkeypatch, capsys):
        def broken_report(*args, **kwargs):
            raise VerificationError("synthetic residual blow-up")

        monkeypatch.setattr(eigenstructure, "zero_eigenvector_report", broken_report)
        assert main(["zero-eigenvectors", "--input", EDGE3]) == 3

    def test_render_verification_failure_exits_3(self, monkeypatch, capsys):
        def broken_render(report):
            raise VerificationError("synthetic placeholder clash")

        monkeypatch.setattr(cli_module, "render_report", broken_render)
        assert main(["zero-eigenvectors", "--input", EDGE3]) == 3
        err = capsys.readouterr().err
        assert err == "error: synthetic placeholder clash\n"


class TestOutOfMemory:
    """Under a 3 GiB address space, an input whose Howell form or whose
    decomposition does not fit exits 4 with no traceback. The solving
    commands run on a 3-uniform hypertree of 20 001 vertices, whose form's
    work array takes 20001 x 30001 int64 entries, 4.47 GiB.
    ``spectral-transforms`` is left out: on that input the first pass of
    its hm search finds a witness, so it builds no form and exits 0."""

    LIMIT = 3 * 2**30

    @pytest.fixture(scope="class")
    def hypertree(self, tmp_path_factory):
        h = random_connected_hypergraph(random.Random(0), 3, 20001)
        path = tmp_path_factory.mktemp("memory") / "hypertree.json"
        path.write_text(json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}))
        return str(path)

    def _run(self, *argv) -> subprocess.CompletedProcess:
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.LIMIT, self.LIMIT))

        # one BLAS thread: the numpy import's own reservations then fit the
        # cap whatever the host's core count
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"), OPENBLAS_NUM_THREADS="1")
        run = [sys.executable, "-m", "zerolap.cli", *argv]
        return subprocess.run(run, env=env, capture_output=True, text=True, preexec_fn=cap)

    @pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
    def test_solve_past_memory_exits_4(self, command, hypertree):
        proc = self._run(command, "--input", hypertree)
        assert proc.returncode == 4 and "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: component of vertex 1 (m=20001, |E|=10000): its Howell form needs a"
            " 20001 x 30001 work array of 4800400008 bytes, more than memory holds\n"
        )

    def test_prime_power_part_past_memory_exits_4(self, tmp_path):
        """At k = 6 the form modulo 6 is joined from those modulo 2 and 3;
        the part modulo 2, eliminated first, does not fit, and its work
        array of 20001 x 24001 int64 entries (3.58 GiB) is named."""
        h = random_connected_hypergraph(random.Random(0), 6, 20001)
        path = tmp_path / "hypertree_k6.json"
        path.write_text(json.dumps({"k": h.k, "n": h.n, "edges": [list(e) for e in h.edges]}))
        proc = self._run("zero-eigenvectors", "--input", str(path))
        assert proc.returncode == 4 and "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: component of vertex 1 (m=20001, |E|=4000): its Howell form needs a"
            " 20001 x 24001 work array of 3840352008 bytes, more than memory holds\n"
        )

    def test_partitions_records_each_kind(self, hypertree):
        proc = self._run("partitions", "--input", hypertree)
        assert proc.returncode == 4 and proc.stderr == ""
        entries = json.loads(proc.stdout)["partitions"]
        assert [entry["kind"] for entry in entries] == ["hm", "tripartite"]
        assert all("4800400008 bytes" in entry["budget_exceeded"] for entry in entries)

    def test_decomposition_past_memory_exits_4(self, tmp_path):
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps({"k": 3, "n": 10**9, "edges": []}))
        proc = self._run("components", "--input", str(path))
        assert proc.returncode == 4 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


class TestConfigHandling:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "operator": "laplacian"}))
        code, report = run_json(capsys, "zero-eigenvectors", "--config", str(cfg))
        assert code == 0
        assert [op["operator"] for op in report["operators"]] == ["laplacian"]

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "operator": "laplacian"}))
        code, report = run_json(
            capsys, "zero-eigenvectors", "--config", str(cfg), "--operator", "signless"
        )
        assert [op["operator"] for op in report["operators"]] == ["signless"]

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["components", "--input", CHAIN, "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["instance"]["n"] == 7

    def test_config_echoed_in_report(self, capsys):
        _, report = run_json(capsys, "components", "--input", CHAIN, "--budget", "7")
        assert report["config"]["budget"] == 7
        assert report["version"]

    def test_seed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["components", "--input", CHAIN, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_seed_in_config_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "seed": 0}))
        assert main(["components", "--config", str(cfg)]) == 2
        assert "unknown config field 'seed'" in capsys.readouterr().err

    def test_pretty_renders_text(self, capsys):
        code, out = run(capsys, "components", "--input", CHAIN, "--pretty")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_invalid_tolerance_exits_2(self, capsys):
        assert main(["components", "--input", CHAIN, "--tolerance", "-1"]) == 2

    def test_unknown_predicate_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "predicate": "exact"}))
        assert main(["partitions", "--config", str(cfg)]) == 2
        assert "unknown predicate 'exact'" in capsys.readouterr().err

    def test_unknown_operator_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "operator": "foo"}))
        assert main(["zero-eigenvectors", "--config", str(cfg)]) == 2
        assert "unknown operator 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tri", "penta"])
    def test_kind_of_another_uniformity_exits_2(self, capsys, kind):
        name, k = {"tri": ("tripartite", 3), "penta": ("penta", 5)}[kind]
        assert main(["partitions", "--input", K4, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} applies to {k}-uniform hypergraphs, got k=4\n"

    @pytest.mark.parametrize("kind", ["odd", "even"])
    def test_swap_quotient_bipartition_on_odd_k_exits_2(self, capsys, kind):
        """Odd and even bipartitions are listed up to swapping the sides,
        which keeps a witness only for even k."""
        assert main(["partitions", "--input", EDGE3, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {kind} bipartitions apply to even k, got k=3\n"

    @pytest.mark.parametrize(
        "k,kinds",
        [
            (2, ["hm", "odd", "even"]),
            (3, ["hm", "tripartite"]),
            (4, ["hm", "odd", "even", "lquad", "slquad"]),
            (5, ["hm", "penta"]),
            (6, ["hm", "odd", "even"]),
            (7, ["hm"]),
        ],
    )
    def test_default_kinds_per_uniformity(self, tmp_path, capsys, k, kinds):
        """Without --kind, every kind that applies to k, bipartitions first."""
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"k": k, "n": k, "edges": [list(range(1, k + 1))]}))
        code, report = run_json(capsys, "partitions", "--input", str(path))
        assert code == 0
        bipartitions = {"hm", "odd", "even"}
        assert [(entry["family"], entry["kind"]) for entry in report["partitions"]] == [
            ("bipartition" if kind in bipartitions else "multipartition", kind) for kind in kinds
        ]

    def test_kind_of_the_input_uniformity_runs(self, capsys):
        code, report = run_json(capsys, "partitions", "--input", K4, "--kind", "lquad")
        assert code == 0
        assert [entry["kind"] for entry in report["partitions"]] == [names.L_QUAD]

    def test_unknown_kind_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "kind": "foo"}))
        assert main(["partitions", "--config", str(cfg)]) == 2
        assert "unknown kind 'foo'" in capsys.readouterr().err

    def test_config_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["components", "--input", CHAIN, "--config", str(cfg)]) == 2
        assert "config file must hold a JSON object, not list" in capsys.readouterr().err

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "bogus": 1}))
        assert main(["components", "--config", str(cfg)]) == 2
        assert "unknown config field 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tolerance", "x"),
            ("budget", True),
            ("budget", 1.5),
            ("operator", 3),
            ("out", 0),
            ("kind", [1]),
            ("pretty", 1),
        ],
    )
    def test_mistyped_config_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, field: value}))
        assert main(["components", "--config", str(cfg)]) == 2
        assert f"config field {field!r} must be" in capsys.readouterr().err

    def test_dense_budget_config_field_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": EDGE4, "dense_budget": 10}))
        assert main(["spectral-transforms", "--config", str(cfg)]) == 2
        assert "unknown config field 'dense_budget'" in capsys.readouterr().err

    def test_dense_budget_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectral-transforms", "--input", EDGE4, "--dense-budget", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dense-budget 10" in capsys.readouterr().err

    def test_utf8_config_under_an_ascii_locale(self, tmp_path):
        """A config file is JSON, so UTF-8 text in any locale, and a file
        name in it stands for the bytes of its UTF-8 text: under the C
        locale its input and out paths reach the same files as flags do."""
        folder = tmp_path / "\u00e9"
        folder.mkdir()
        source = folder / "in.json"
        source.write_bytes((FIXTURE_DIR / "k3_chain_n7.json").read_bytes())
        cfg = tmp_path / "cfg.json"
        values = {"input": str(source), "out": str(folder / "out.json")}
        cfg.write_bytes(json.dumps(values, ensure_ascii=False).encode("utf-8"))
        env = dict(os.environ, PYTHONPATH=str(FIXTURE_DIR.parent / "src"), LC_ALL="C")
        env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        command = [sys.executable, "-m", "zerolap.cli", "components"]
        by_config = subprocess.run([*command, "--config", str(cfg)], env=env, capture_output=True)
        by_flag = subprocess.run([*command, "--input", str(source)], env=env, capture_output=True)
        assert by_config.returncode == 0, by_config.stderr.decode()
        assert by_flag.returncode == 0, by_flag.stderr.decode()
        written, printed = json.loads((folder / "out.json").read_text()), json.loads(by_flag.stdout)
        assert written["components"] == printed["components"]
        assert written["config"]["input"] == printed["config"]["input"]

    def test_integer_tolerance_in_config_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "tolerance": 1}))
        code, report = run_json(capsys, "components", "--config", str(cfg))
        assert code == 0
        assert report["config"]["tolerance"] == 1

    def test_default_tolerance_is_the_named_one(self):
        defaults = {name: default for name, _, default in cli_module._CONFIG_FIELDS}
        assert defaults["tolerance"] is names.DEFAULT_TOLERANCE == 1e-9
        for function in (eigenstructure.realize_classes, eigenstructure.zero_eigenvector_report):
            assert function.__defaults__[-1] is names.DEFAULT_TOLERANCE

    def test_nan_tolerance_exits_2(self, capsys):
        assert main(["components", "--input", CHAIN, "--tolerance", "nan"]) == 2
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "Infinity", "1e400"])
    def test_infinite_tolerance_flag_exits_2(self, capsys, value):
        assert main(["zero-eigenvectors", "--input", CHAIN, "--tolerance", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be positive and finite" in captured.err

    def test_overflowing_tolerance_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # json.loads reads 1e400 as float("inf")
        cfg.write_text('{"input": %s, "tolerance": 1e400}' % json.dumps(CHAIN))
        assert main(["zero-eigenvectors", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be positive and finite" in captured.err

    def test_largest_finite_tolerance_accepted(self, capsys):
        largest = repr(sys.float_info.max)
        code, report = run_json(capsys, "components", "--input", CHAIN, "--tolerance", largest)
        assert code == 0
        assert report["config"]["tolerance"] == sys.float_info.max

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["components", "--input", CHAIN, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ")
        assert "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("field", ["input", "out"])
    def test_nul_byte_in_a_path_exits_2(self, tmp_path, capsys, monkeypatch, field):
        """A path holding NUL is refused before any work, naming its field."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        values = {"input": CHAIN, "out": "report.json"}
        values[field] = values[field] + "\x00b"
        cfg.write_text(json.dumps(values))
        monkeypatch.setattr(cli_module, "connected_components", None)  # no work may start
        assert main(["components", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field {field!r} holds a NUL byte\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# JSON trees holding what the report renderer must spell as json.dumps does:
# escapes, big ints, float edge cases, bools among ints, tuples, and record
# lists (dicts sharing a key set, some fields lists of int lists) with and
# without values that break them.
_strings = st.text(st.sampled_from('ab"\\/%\x00\x1f\x7f\n\té€ 😀')) | st.text(max_size=4)
_floats = st.floats(allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, float("nan"), math.inf, -math.inf]
)
_ints = st.integers() | st.integers(-(2**200), 2**200)
_scalars = st.none() | st.booleans() | _ints | _floats | _strings
_int_lists = st.lists(_ints, max_size=5) | st.lists(_ints | st.booleans(), max_size=5)


@st.composite
def _record_lists(draw, children):
    keys = draw(st.lists(_strings, min_size=1, max_size=4, unique=True))
    value = _scalars | _int_lists | _int_lists.map(tuple) | st.lists(_int_lists, max_size=3)
    if draw(st.booleans()):
        value = value | children
    records = draw(st.lists(st.fixed_dictionaries({k: value for k in keys}), min_size=1, max_size=5))
    if draw(st.booleans()):
        records.insert(
            draw(st.integers(0, len(records))), draw(st.dictionaries(_strings, value, max_size=3))
        )
    return records


_trees = st.recursive(
    _scalars | _int_lists,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_strings, children, max_size=4)
    | _record_lists(children),
    max_leaves=25,
)


# Listings held as arrays, each with its records built in plain Python:
# exponents of k = 2..12 (two digits from k = 11), residuals that repeat
# and hold both zeros, the least subnormal and 1e16, witness rows with
# empty parts, zero-row and one-vertex blocks, several blocks per listing.
_residuals = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 8.005932084973443e-16]) | st.floats(0, 1e-9)


@st.composite
def _class_listings(draw):
    k = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=m, max_size=m), max_size=6))
    real = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    residuals = draw(st.lists(_residuals, min_size=len(rows), max_size=len(rows)))
    listing = eigenstructure.ClassListing(
        np.array(rows, dtype=np.int64).reshape(len(rows), m),
        np.array(real, dtype=bool),
        np.array(residuals, dtype=np.float64),
    )
    records = [
        {"alpha": alpha, "kind": "H" if r else "N", "residual": x}
        for alpha, r, x in zip(rows, real, residuals)
    ]
    return listing, records


@st.composite
def _witness_listings(draw):
    parts = draw(st.integers(2, 5))
    kind, predicate = draw(_strings), draw(st.sampled_from(names.PREDICATES))
    listing = cli_module.WitnessListing(kind, predicate, parts)
    records = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 6))
        comp = sorted(draw(st.sets(st.integers(1, 2**40), min_size=m, max_size=m)))
        rows = draw(st.lists(st.lists(st.integers(0, parts - 1), min_size=m, max_size=m), max_size=4))
        listing.blocks.append((tuple(comp), np.array(rows, dtype=np.int8).reshape(len(rows), m)))
        for row in rows:
            split = [[v for v, j in zip(comp, row) if j == part] for part in range(parts)]
            records.append({"kind": kind, "parts": split, "predicate": predicate, "valid": True})
    return listing, records


# Where a listing may sit: a record's field, a list item, a list item in a
# dict value.
_PLACES = [
    lambda rows: {"count": len(rows), "rows": rows},
    lambda rows: rows,
    lambda rows: {"b": [rows]},
]


class IntSub(int):
    pass


class StrSub(str):
    pass


class TestRenderReport:
    @settings(max_examples=200, deadline=None)
    @given(_trees)
    def test_matches_json_dumps(self, tree):
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "tree",
        [
            {"a": np.int64(1)},
            {"a": [1, np.int64(2)]},
            [{"a": 1}, {"a": np.int64(2)}],
            [{"a": [1]}, {"a": [np.int64(2)]}],
            {"a": {1, 2}},
            {"a": np.bool_(True)},
        ],
    )
    def test_unserializable_value_raises(self, tree):
        with pytest.raises(TypeError):
            json.dumps(tree, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            render_report(tree)

    @pytest.mark.parametrize("tree", [{1: "a"}, {"a": {2: 0}}, [{1: 0}, {1: 1}]])
    def test_non_str_keys_render_as_json_does(self, tree):
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_part_lists_render_as_json_does(self):
        """A field of int-list lists, as ``edges`` in a components report's
        records, renders byte for byte, empty lists included."""
        records = [
            {"kind": "hm", "parts": [[1, 3], [2, 4, 5]], "valid": True},
            {"kind": "hm", "parts": [[], [1, 2, 3, 4, 5]], "valid": True},
            {"kind": "hm", "parts": [[2], [], [10**30]], "valid": True},
            {"kind": "hm", "parts": [], "valid": True},
            {"kind": "hm", "parts": [[], []], "valid": True},
        ]
        tree = {"partitions": [{"count": 5, "witnesses": records}]}
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_class_listings() | _witness_listings(), st.sampled_from(_PLACES)), max_size=4),
        st.integers(0, 3),
    )
    def test_listings_render_as_their_records(self, cases, depth):
        """Listings, alone or several in a report nested ``depth`` deep, as
        dict values or list items, beside a singleton's plain record list,
        render as json.dumps renders their records."""
        singleton = {"count": 1, "rows": [{"alpha": [0], "kind": "H", "residual": 0.0}]}
        tree = {"listings": [singleton] + [place(listing) for (listing, _), place in cases]}
        plain = {"listings": [singleton] + [place(rows) for (_, rows), place in cases]}
        for _ in range(depth):
            tree, plain = {"nested": [tree]}, {"nested": [plain]}
        assert [list(listing) for (listing, _), _ in cases] == [rows for (_, rows), _ in cases]
        assert render_report(tree) == json.dumps(plain, indent=2, sort_keys=True)
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True, default=list)
        # --pretty sees a listing only as a record's field, as in a report
        listings = {"l": [{"rows": listing} for (listing, _), _ in cases]}
        records = {"l": [{"rows": rows} for (_, rows), _ in cases]}
        assert cli_module._render_pretty(listings) == cli_module._render_pretty(records)
        for (listing, rows), _ in cases:
            assert render_report(listing) == json.dumps(rows, indent=2, sort_keys=True)
            items, plain_items = [listing, {"b": [listing]}], [rows, {"b": [rows]}]
            assert render_report(items) == json.dumps(plain_items, indent=2, sort_keys=True)

    def test_empty_listing_beside_a_listing(self):
        listing = eigenstructure.ClassListing(
            np.array([[0, 1], [0, 2]]), np.array([True, False]), np.array([0.0, 1e-17])
        )
        empty = eigenstructure.ClassListing(
            np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=bool), np.zeros(0)
        )
        witnesses = cli_module.WitnessListing("hm", "literal", 2, [((1, 2), np.zeros((0, 2), np.int8))])
        tree = {"a": [empty, listing, witnesses], "b": {"classes": listing, "empty": empty}}
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True, default=list)

    @pytest.mark.parametrize(
        "tree",
        [
            {"a": "\x00listing"},
            {"\x00listing": [1]},
            {"a": ['x"\x00listing', "\x00listing!"]},
        ],
    )
    def test_placeholder_text_in_a_report_string(self, tree):
        """Without a listing, a string holding the placeholder's text renders
        as json.dumps does; beside one, the splice refuses the report."""
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True)
        listing = eigenstructure.ClassListing(
            np.zeros((1, 1), dtype=np.int64), np.ones(1, dtype=bool), np.zeros(1)
        )
        with pytest.raises(VerificationError, match="placeholder"):
            render_report({"listing": listing, "tree": tree})

    def test_signed_zero_residuals_keep_their_texts(self):
        """0.0 and -0.0 compare equal but render apart, and so do their rows."""
        listing = eigenstructure.ClassListing(
            np.zeros((4, 1), dtype=np.int64),
            np.ones(4, dtype=bool),
            np.array([0.0, -0.0, 0.0, -0.0]),
        )
        text = render_report(listing)
        assert [line.strip() for line in text.splitlines() if "residual" in line] == [
            '"residual": 0.0',
            '"residual": -0.0',
            '"residual": 0.0',
            '"residual": -0.0',
        ]

    def test_scalar_subclasses_render_as_json_does(self):
        tree = {"f": np.float64(0.1), "i": [IntSub(3)], "s": [{"k": StrSub("v")}]}
        assert render_report(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_cli_report_of_thousands_of_classes(self, tmp_path, capsys, monkeypatch):
        """stdout and ``--out`` both hold json.dumps of the report plus a newline."""
        tree = tmp_path / "hypertree.json"
        edges = [[2 * i + 1, 2 * i + 2, 2 * i + 3] for i in range(7)]
        tree.write_text(json.dumps({"k": 3, "n": 15, "edges": edges}))
        reports = []
        real = cli_module.render_report
        monkeypatch.setattr(
            cli_module, "render_report", lambda report: reports.append(report) or real(report)
        )
        target = tmp_path / "report.json"
        argv = ["zero-eigenvectors", "--input", str(tree)]
        code, out = run(capsys, *argv)
        assert code == 0
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        listed = [c for op in reports[0]["operators"] for comp in op["components"] for c in comp["classes"]]
        assert len(listed) >= 2000
        # ``default=list`` writes each listing as its records, the plain form
        assert out == json.dumps(reports[0], indent=2, sort_keys=True, default=list) + "\n"
        assert target.read_text() == json.dumps(reports[1], indent=2, sort_keys=True, default=list) + "\n"
