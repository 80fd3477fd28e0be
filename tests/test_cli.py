import json
import os
import subprocess
import sys

import pytest

from zerolap import eigenstructure, hypergraph, partitions, tensor_ops
from zerolap import cli as cli_module
from zerolap.cli import _COMMANDS, EXIT_BROKEN_PIPE, main

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

    def test_non_hm_input_exits_6(self, capsys):
        code, report = run_json(capsys, "spectral-transforms", "--input", COMPLETE4)
        assert code == 6
        assert report["error"] == "no hm-bipartition exists"


@pytest.mark.parametrize("command", ["zero-eigenvectors", "crosscheck"])
def test_both_operators_share_one_factorization(command, capsys, snf_calls):
    assert main([command, "--input", K4, "--operator", "both"]) == 0
    assert len(snf_calls) == 1  # one non-singleton component


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


class TestFailureExitCodes:
    def test_crosscheck_mismatch_exits_5(self, capsys, monkeypatch):
        """Wiring check: a count disagreement must surface as exit 5."""
        import zerolap.cli as cli_mod
        from zerolap.eigenstructure import structure_counts as real_counts

        def broken_counts(h, operator, budget=200_000, factored=None):
            counts = real_counts(h, operator, budget, factored)
            import dataclasses

            return dataclasses.replace(
                counts, crosscheck_expected=counts.h_count + 1, crosscheck_matched=False
            )

        monkeypatch.setattr(cli_mod.eigenstructure, "structure_counts", broken_counts)
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
        _, report = run_json(capsys, "components", "--input", CHAIN, "--seed", "7")
        assert report["config"]["seed"] == 7
        assert report["version"]

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
