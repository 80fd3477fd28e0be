"""Report checker that trusts nothing the program computed.

Each report is held against the instance file and the expectations that
``workloads`` recorded at generation time: every listed class is re-checked
edge by edge, every count against the independent count, every hm witness
against the edges. ``self_test`` corrupts a report that passed and requires
each corruption to be rejected, so a checker that stopped looking shows up
as a failed run.
"""

import cmath
import copy
import math

import numpy as np

SPECTRAL_RESIDUAL_MAX = 1e-8
# multipartition kinds whose literal-vs-residue scan the crosscheck reports, by k
DISCREPANCY_KINDS = {3: ["tripartite"], 4: ["lquad", "slquad"], 5: ["penta"]}


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _check_header(report, command, inst):
    _require(report.get("command") == command, f"command is {report.get('command')!r}")
    summary = report.get("instance", {})
    want = {
        "k": inst.k,
        "n": inst.n,
        "edge_count": len(inst.edges),
        "component_count": len(inst.components),
        "singleton_count": sum(1 for e in inst.expected["laplacian"] if e["singleton"]),
    }
    got = {key: summary.get(key) for key in want}
    _require(got == want, f"instance summary {got} != {want}")


def _comp_edges(inst, comp):
    cset = set(comp)
    return [e for e in inst.edges if cset.issuperset(e)]


def _check_classes(inst, exp, classes, tolerance):
    """Every listed alpha: canonical, distinct, each edge congruence holds, kind right."""
    k = inst.k
    comp = exp["vertices"]
    if not classes:
        return
    alphas = np.array([c["alpha"] for c in classes], dtype=np.int64)
    _require(alphas.shape == (len(classes), len(comp)), f"alpha shape {alphas.shape} on {comp}")
    _require(((alphas >= 0) & (alphas < k)).all(), f"alpha entry outside 0..{k - 1} on {comp}")
    _require((alphas[:, 0] == 0).all(), f"class not shift-canonical (alpha[0] != 0) on {comp}")
    _require(len(np.unique(alphas, axis=0)) == len(alphas), f"repeated class on {comp}")
    pos = {v: i for i, v in enumerate(comp)}
    edges = _comp_edges(inst, comp)
    if edges:
        idx = np.array([[pos[v] for v in e] for e in edges])
        sums = alphas[:, idx].sum(axis=2) % k
        bad = np.argwhere(sums != exp["rhs"])
        if len(bad):
            raise CheckError(f"class {alphas[bad[0][0]].tolist()} breaks edge {edges[bad[0][1]]}")
    real = (alphas == 0) | ((alphas == k // 2) & (k % 2 == 0))
    want_kind = np.where(real.all(axis=1), "H", "N")
    got_kind = np.array([c["kind"] for c in classes])
    _require((got_kind == want_kind).all(), f"kind disagrees with real-scalability on {comp}")
    for c in classes:
        r = c["residual"]
        _require(isinstance(r, float) and 0 <= r <= tolerance, f"residual {r!r} above {tolerance}")


def check_zero_eigenvectors(report, inst):
    _check_header(report, "zero-eigenvectors", inst)
    tolerance = report["config"]["tolerance"]
    ops = report.get("operators", [])
    _require([o.get("operator") for o in ops] == ["laplacian", "signless"], "operators missing")
    for o in ops:
        op = o["operator"]
        expected = inst.expected[op]
        _require(o["k"] == inst.k, f"{op}: k is {o['k']}")
        comps = o["components"]
        _require([c["vertices"] for c in comps] == [e["vertices"] for e in expected], f"{op}: components differ")
        for c, exp in zip(comps, expected):
            where = f"{op} component {exp['vertices'][:4]}..."
            for key in ("singleton", "feasible", "rhs", "count", "class_count", "H_count", "N_pair_count"):
                _require(c[key] == exp[key], f"{where}: {key} {c[key]!r} != {exp[key]!r}")
            _require(c["count"] % inst.k == 0 and c["class_count"] == c["count"] // inst.k, f"{where}: class_count != count / k")
            _require(c["H_count"] + 2 * c["N_pair_count"] == c["class_count"], f"{where}: H + 2N != class_count")
            _require(c["crosscheck"]["matched"] is not False, f"{where}: crosscheck mismatch")
            classes = c["classes"]
            _require(c["truncated"] == (len(classes) < c["class_count"]), f"{where}: truncated flag wrong")
            _require(len(classes) <= c["class_count"], f"{where}: more classes than class_count")
            _check_classes(inst, exp, classes, tolerance)
            if not c["truncated"]:
                n_classes = {tuple(x["alpha"]) for x in classes if x["kind"] == "N"}
                _require(len(classes) - len(n_classes) == c["H_count"], f"{where}: listed H classes != H_count")
                conj = {tuple((-a) % inst.k for a in alpha) for alpha in n_classes}
                _require(conj == n_classes, f"{where}: N classes not closed under conjugation")
        _require(o["H_count"] == sum(e["H_count"] for e in expected), f"{op}: H_count total")
        _require(o["N_pair_count"] == sum(e["N_pair_count"] for e in expected), f"{op}: N_pair_count total")
        _require(o["crosscheck"]["matched"] is not False, f"{op}: crosscheck mismatch")


def check_crosscheck(report, inst):
    _check_header(report, "crosscheck", inst)
    checks = report.get("crosschecks", [])
    _require([c.get("operator") for c in checks] == ["laplacian", "signless"], "operators missing")
    for c in checks:
        op = c["operator"]
        expected = inst.expected[op]
        h_total = sum(e["H_count"] for e in expected)
        n_total = sum(e["N_pair_count"] for e in expected)
        _require(c["H_count"] == h_total, f"{op}: H_count {c['H_count']} != {h_total}")
        _require(c["N_pair_count"] == n_total, f"{op}: N_pair_count {c['N_pair_count']} != {n_total}")
        _require(c["H_matched"] is not False, f"{op}: H cross-check mismatch")
        _require(c["H_expected"] in (None, h_total), f"{op}: H_expected {c['H_expected']} != {h_total}")
        if "N_matched" in c:
            _require(c["N_matched"] is not False, f"{op}: N cross-check mismatch")
            _require(c["N_expected"] in (None, n_total), f"{op}: N_expected {c['N_expected']} != {n_total}")
        comps = c["components"]
        _require([x["vertices"] for x in comps] == [e["vertices"] for e in expected], f"{op}: components differ")
        for x, exp in zip(comps, expected):
            _require(x["H_count"] == exp["H_count"], f"{op} {exp['vertices'][:4]}: H_count")
            _require(x["N_pair_count"] == exp["N_pair_count"], f"{op} {exp['vertices'][:4]}: N_pair_count")
            _require(x["crosscheck"]["matched"] is not False, f"{op} {exp['vertices'][:4]}: mismatch")
            _require(x["crosscheck"]["expected"] in (None, exp["H_count"]), f"{op} {exp['vertices'][:4]}: expected")
    scans = report.get("discrepancies", [])
    _require([s["kind"] for s in scans] == DISCREPANCY_KINDS.get(inst.k, []), "discrepancy scans missing")
    for s in scans:
        _require(s["modulus"] == inst.k, f"{s['kind']}: modulus {s['modulus']}")
        for d in s["disagreements"]:
            residue_ok = sum(d["values"]) % s["modulus"] == s["rhs"]
            _require(len(d["values"]) == inst.k, f"{s['kind']}: pattern length")
            _require(d["residue_valid"] == residue_ok, f"{s['kind']}: residue flag wrong for {d['values']}")
            _require(d["literal_valid"] != residue_ok, f"{s['kind']}: {d['values']} is no disagreement")


def check_spectral(report, inst):
    _check_header(report, "spectral-transforms", inst)
    k = inst.k
    entries = report.get("spectral_transforms", [])
    wanted = [list(e["vertices"]) for e in inst.expected["laplacian"] if not e["singleton"]]
    _require([e["component"] for e in entries] == wanted, "components differ")
    for entry in entries:
        comp = entry["component"]
        heads = set(entry["heads"])
        edges = _comp_edges(inst, comp)
        _require(heads <= set(comp), "heads outside the component")
        bad = [e for e in edges if len(heads.intersection(e)) != 1]
        _require(not bad, f"edge {bad[:1]} does not have exactly one head")
        degree = {v: 0 for v in comp}
        for e in edges:
            for v in e:
                degree[v] += 1
        rho = entry["spectral_radius"]
        slack = 1e-9 * max(1.0, rho)
        _require(min(degree.values()) - slack <= rho <= max(degree.values()) + slack, f"spectral radius {rho} outside degree bounds")
        _require(0 <= entry["base_residual"] <= SPECTRAL_RESIDUAL_MAX, f"base residual {entry['base_residual']}")
        rotations = entry["rotations"]
        _require([r["r"] for r in rotations] == list(range(k)), "rotations missing")
        for r in rotations:
            _require(0 <= r["residual"] <= SPECTRAL_RESIDUAL_MAX, f"rotation {r['r']} residual {r['residual']}")
            want = rho * cmath.exp(2j * math.pi * r["r"] / k)
            got = complex(*r["lambda"])
            _require(abs(got - want) <= slack, f"rotation {r['r']} eigenvalue {got} != {want}")
        if k % 2 == 0:
            _require(entry.get("similarity_identity_exact") is True, "similarity identity not shown exact")


CHECKERS = {
    "zero-eigenvectors": check_zero_eigenvectors,
    "crosscheck": check_crosscheck,
    "spectral-transforms": check_spectral,
}

IDENTITY_KEYS = ("matched", "H_matched", "N_matched", "similarity_identity_exact")


def identity_tally(report) -> tuple[int, int]:
    """(decided, reported) over every cross-check identity in a report."""
    decided = reported = 0
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            for key, value in node.items():
                if key in IDENTITY_KEYS:
                    reported += 1
                    decided += value is not None
                else:
                    stack.append(value)
        elif isinstance(node, list):
            stack.extend(node)
    return decided, reported


# --------------------------------------------------------------------------
# self-test


def _corruptions(command, report, k):
    """(label, mutator) pairs, each making one field of a good report wrong."""
    out = []
    if command == "zero-eigenvectors":
        listed = [
            (i, j)
            for i, op in enumerate(report["operators"])
            for j, comp in enumerate(op["components"])
            if comp["classes"] and len(comp["vertices"]) > 1
        ]
        if listed:
            i, j = listed[0]

            def flip(r):
                cls = r["operators"][i]["components"][j]["classes"][-1]
                cls["alpha"][-1] = (cls["alpha"][-1] + 1) % k

            def kind(r):
                cls = r["operators"][i]["components"][j]["classes"][-1]
                cls["kind"] = "N" if cls["kind"] == "H" else "H"

            out += [("alpha entry changed", flip), ("kind flipped", kind)]

        def count(r):
            r["operators"][0]["components"][0]["count"] += k

        def matched(r):
            r["operators"][0]["crosscheck"]["matched"] = False

        out += [("count changed", count), ("matched set false", matched)]
    elif command == "crosscheck":

        def h_count(r):
            r["crosschecks"][0]["H_count"] += 1

        def mismatch(r):
            r["crosschecks"][-1]["components"][0]["crosscheck"]["matched"] = False

        out += [("H_count changed", h_count), ("matched set false", mismatch)]
    elif command == "spectral-transforms":

        def heads(r):
            entry = r["spectral_transforms"][0]
            entry["heads"] = entry["heads"][1:]

        def residual(r):
            r["spectral_transforms"][0]["rotations"][-1]["residual"] = 1e-3

        out += [("head dropped", heads), ("rotation residual raised", residual)]
    return out


def self_test(command, report, inst) -> list[str]:
    """Labels of corruptions the checker failed to reject (empty when sound).

    ``report`` must be one that already passed the checker.
    """
    checker = CHECKERS[command]
    missed = []
    for label, mutate in _corruptions(command, report, inst.k):
        bad = copy.deepcopy(report)
        mutate(bad)
        try:
            checker(bad, inst)
        except (CheckError, KeyError, IndexError, TypeError):
            continue
        missed.append(label)
    return missed
