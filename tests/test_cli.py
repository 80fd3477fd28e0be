import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerolap import eigenstructure, hypergraph, partitions, tensor_ops
from zerolap import cli as cli_module
from zerolap.cli import _COMMANDS, EXIT_BROKEN_PIPE, main, render_report
from zerolap.corpus import random_hm_bipartite

from conftest import FIXTURE_DIR

CHAIN = str(FIXTURE_DIR / "k3_chain_n7.json")
K4 = str(FIXTURE_DIR / "k4_overlap_n6.json")
EDGE3 = str(FIXTURE_DIR / "single_edge_k3.json")
EDGE4 = str(FIXTURE_DIR / "single_edge_k4.json")
COMPLETE4 = str(FIXTURE_DIR / "k3_complete_n4.json")


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

    def test_byte_identical_reruns(self, capsys):
        _, first = run(capsys, "components", "--input", CHAIN)
        _, second = run(capsys, "components", "--input", CHAIN)
        assert first == second


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
    assert eliminations == [4, 2]  # one non-singleton component, k = 4


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_each_component_eliminated_once(command, tmp_path, capsys, eliminations):
    """Both operators share each non-singleton component's one elimination
    modulo k, and the H counts its one elimination modulo 2 (k = 4 > 2);
    the singleton builds no form."""
    path = tmp_path / "two_components.json"
    edges = [[1, 2, 3, 4], [3, 4, 5, 6], [7, 8, 9, 10]]
    path.write_text(json.dumps({"k": 4, "n": 11, "edges": edges}))
    assert main([command, "--input", str(path), "--operator", "both"]) == 0
    assert eliminations == [4, 2, 4, 2]


@pytest.mark.parametrize("path", [CHAIN, K4, EDGE3, EDGE4])
def test_crosscheck_scans_each_component_and_kind_once(path, capsys, multipartition_scans):
    h = hypergraph.load_hypergraph(path)
    decomp = hypergraph.connected_components(h)
    kinds = [
        partitions.N_PAIR_KINDS[(h.k, op)]
        for op in ("laplacian", "signless")
        if (h.k, op) in partitions.N_PAIR_KINDS
    ]
    comps = [c for c, single in zip(decomp.components, decomp.singleton) if not single]
    assert main(["crosscheck", "--input", path]) == 0
    assert multipartition_scans == [(comp, kind) for kind in kinds for comp in comps]


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
        import dataclasses

        import zerolap.cli as cli_mod

        real_solve = cli_mod.eigenstructure.solve_components

        def broken_solve(*args, **kwargs):
            return {
                op: dataclasses.replace(
                    counts,
                    components=tuple(
                        dataclasses.replace(c, crosscheck_expected=c.h_count + 1)
                        for c in counts.components
                    ),
                )
                for op, counts in real_solve(*args, **kwargs).items()
            }

        monkeypatch.setattr(cli_mod.eigenstructure, "solve_components", broken_solve)
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

    def test_verification_failure_exits_3(self, monkeypatch, capsys):
        import zerolap.cli as cli_mod
        from zerolap.errors import VerificationError

        def broken_report(*args, **kwargs):
            raise VerificationError("synthetic residual blow-up")

        monkeypatch.setattr(
            cli_mod.eigenstructure, "zero_eigenvector_report", broken_report
        )
        assert main(["zero-eigenvectors", "--input", EDGE3]) == 3


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
        assert main(["partitions", "--input", K4, "--kind", kind]) == 2
        _, name = cli_module._KIND_FLAGS[kind]
        k = partitions.KIND_SPECS[name].k
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

    def test_kind_of_the_input_uniformity_runs(self, capsys):
        code, report = run_json(capsys, "partitions", "--input", K4, "--kind", "lquad")
        assert code == 0
        assert [entry["kind"] for entry in report["partitions"]] == [partitions.L_QUAD]

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

    def test_integer_tolerance_in_config_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": CHAIN, "tolerance": 1}))
        code, report = run_json(capsys, "components", "--config", str(cfg))
        assert code == 0
        assert report["config"]["tolerance"] == 1

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


# JSON trees holding what the report renderer must spell as json.dumps does:
# escapes, big ints, float edge cases, bools among ints, tuples, and record
# lists (dicts sharing a key set) with and without values that break them.
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
    value = _scalars | _int_lists | _int_lists.map(tuple)
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
    def test_non_str_key_raises(self, tree):
        with pytest.raises(TypeError):
            render_report(tree)

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
        assert out == json.dumps(reports[0], indent=2, sort_keys=True) + "\n"
        assert target.read_text() == json.dumps(reports[1], indent=2, sort_keys=True) + "\n"
