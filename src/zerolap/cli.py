"""Command-line front end.

Subcommands ingest a hypergraph file, run one analysis, and emit a JSON
report (stdout by default, ``--out`` for a file, ``--pretty`` for a human
rendering). Identical input, config, and seed produce byte-identical
reports. Every number in a report comes from a library call; the CLI does
no arithmetic of its own.

Exit codes: 0 success, 1 stdout closed before the report was written
(for example piped into ``head``; the run ends without a traceback), 2
parse/validation failure, 3 internal verification failure, 4 budget
exhaustion, 5 cross-check mismatch, 6 structural precondition not met.
"""

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BudgetExceededError, HypergraphFormatError, VerificationError
from .hypergraph import (
    ComponentDecomposition,
    Hypergraph,
    connected_components,
    degrees,
    induced_subhypergraph,
    load_hypergraph,
)
from . import eigenstructure, partitions, tensor_ops

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_STRUCTURE = 6

_KIND_FLAGS = {
    "hm": ("bipartition", partitions.HM),
    "odd": ("bipartition", partitions.ODD),
    "even": ("bipartition", partitions.EVEN),
    "tri": ("multipartition", partitions.TRIPARTITE),
    "lquad": ("multipartition", partitions.L_QUAD),
    "slquad": ("multipartition", partitions.SL_QUAD),
    "penta": ("multipartition", partitions.PENTA),
}


@dataclasses.dataclass
class AnalysisConfig:
    """Run configuration; flags override config-file values override defaults."""

    input: str
    operator: str = "both"
    predicate: str = "residue"
    kind: str | None = None
    tolerance: float = 1e-9
    budget: int = 200_000
    dense_budget: int = 10_000_000
    seed: int = 0
    out: str | None = None
    pretty: bool = False

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.budget <= 0 or self.dense_budget <= 0:
            raise ValueError("budgets must be positive")
        if self.predicate not in partitions.PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    values: dict = {}
    if args.config:
        try:
            values.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise HypergraphFormatError(f"cannot read config file: {exc}") from exc
    for name in (
        "input",
        "operator",
        "predicate",
        "kind",
        "tolerance",
        "budget",
        "dense_budget",
        "seed",
        "out",
    ):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if args.pretty:
        values["pretty"] = True
    if "input" not in values:
        raise HypergraphFormatError("no input file given (flag --input or config file)")
    return AnalysisConfig(**values)


def _operators(cfg: AnalysisConfig) -> list[str]:
    if cfg.operator == "both":
        return ["laplacian", "signless"]
    return [cfg.operator]


def _instance_summary(h: Hypergraph, decomp: ComponentDecomposition) -> dict:
    return {
        "k": h.k,
        "n": h.n,
        "edge_count": h.edge_count,
        "component_count": len(decomp),
        "singleton_count": decomp.singleton_count,
    }


def cmd_components(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    return {
        "components": [
            {
                "vertices": list(comp),
                "edges": [list(e) for e in edges],
                "singleton": single,
            }
            for comp, edges, single in zip(
                decomp.components, decomp.edge_lists, decomp.singleton
            )
        ],
        "degrees": list(degrees(h)),
    }, EXIT_OK


def cmd_zero_eigenvectors(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    factored = eigenstructure.factor_components(h, decomp)
    report = {
        "operators": [
            eigenstructure.zero_eigenvector_report(
                h,
                op,
                enumerate_limit=cfg.budget,
                tolerance=cfg.tolerance,
                budget=cfg.budget,
                factored=factored,
            )
            for op in _operators(cfg)
        ]
    }
    return report, EXIT_OK


def _applicable_kinds(h: Hypergraph, cfg: AnalysisConfig) -> list[str]:
    if cfg.kind is not None:
        return [cfg.kind]
    kinds = ["hm"]
    if h.k % 2 == 0:
        kinds += ["odd", "even"]
    return kinds + [
        flag
        for flag, (family, kind) in _KIND_FLAGS.items()
        if family == "multipartition" and partitions.KIND_SPECS[kind].k == h.k
    ]


def cmd_partitions(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    inventories = []
    budget_hit = False
    for flag in _applicable_kinds(h, cfg):
        family, kind = _KIND_FLAGS[flag]
        entry: dict = {"kind": kind, "family": family, "witnesses": [], "count": 0}
        if family == "multipartition":
            entry["predicate"] = cfg.predicate
        for comp, edges, single in zip(
            decomp.components, decomp.edge_lists, decomp.singleton
        ):
            if single:
                continue
            try:
                if family == "bipartition":
                    found = partitions.enumerate_bipartitions(h, comp, kind, cfg.budget)
                    entry["witnesses"] += [w.to_json_dict() for w in found]
                else:
                    found = partitions.enumerate_multipartitions(h, comp, kind, cfg.budget)[
                        cfg.predicate
                    ]
                    entry["witnesses"] += [w.to_json_dict(cfg.predicate) for w in found]
                entry["count"] += len(found)
            except BudgetExceededError as exc:
                entry["budget_exceeded"] = str(exc)
                budget_hit = True
        inventories.append(entry)
    return {"partitions": inventories}, EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_crosscheck(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    """Algebraic counts versus combinatorial partition counts, both operators."""
    checks = []
    mismatch = False
    factored = eigenstructure.factor_components(h, decomp)
    for op in _operators(cfg):
        result = eigenstructure.crosscheck(h, op, cfg.budget, factored)
        counts = result.counts
        entry = {
            "operator": op,
            "H_count": counts.h_count,
            "H_expected": counts.crosscheck_expected,
            "H_formula": counts.crosscheck_formula,
            "H_matched": counts.crosscheck_matched,
            "N_pair_count": counts.n_pair_count,
            "components": [
                {
                    "vertices": list(c.component),
                    "operator": op,
                    "H_count": c.h_count,
                    "N_pair_count": c.n_pair_count,
                    "crosscheck": {
                        "expected": c.crosscheck_expected,
                        "matched": c.crosscheck_matched,
                    },
                }
                for c in counts.components
            ],
        }
        kind = result.n_kind
        if kind is not None and result.n_expected is None:
            entry["N_expected"] = None
            entry["N_formula"] = f"residue-valid {kind} count (budget exceeded, unchecked)"
            entry["N_matched"] = None
        elif kind is not None:
            entry["N_expected"] = result.n_expected
            entry["N_formula"] = f"residue-valid {kind} multipartition count"
            entry["N_matched"] = result.n_matched
            # the case-by-case clause lists can legitimately diverge from
            # the residue condition; report the counts side by side
            entry["N_literal_count"] = result.n_literal
        mismatch = mismatch or result.mismatch
        checks.append(entry)
    scans = [
        partitions.discrepancy_scan(kind).to_json_dict()
        for kind, spec in partitions.KIND_SPECS.items()
        if spec.k == h.k
    ]
    report = {"crosschecks": checks, "discrepancies": scans}
    return report, EXIT_MISMATCH if mismatch else EXIT_OK


def cmd_spectral_transforms(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    """Root-of-unity eigenvalue rotations on every head-mass component.

    Each non-singleton component must admit an hm-bipartition; otherwise
    the structural precondition fails (exit 6). For even k the exact
    diagonal-similarity identity between the two Laplacian family tensors
    is asserted on the dense form.
    """
    results = []
    budget_hit = False
    for comp, edges, single in zip(decomp.components, decomp.edge_lists, decomp.singleton):
        if single:
            continue
        witness = partitions.find_hm_bipartition(h, comp)
        if witness is None:
            return {
                "error": "no hm-bipartition exists",
                "component": list(comp),
            }, EXIT_STRUCTURE
        sub, original = induced_subhypergraph(h, comp)
        relabel = {orig: new for new, orig in enumerate(original, start=1)}
        v1 = tuple(sorted(relabel[v] for v in witness.v1))
        v2 = tuple(sorted(relabel[v] for v in witness.v2))
        pair = tensor_ops.nqz_spectral_radius(h=sub)
        rotations = []
        for r in range(h.k):
            rotated = tensor_ops.hm_spectral_reflection(sub, (v1, v2), pair, r)
            rotations.append(
                {
                    "r": r,
                    "lambda": [rotated.value.real, rotated.value.imag],
                    "residual": rotated.residual,
                }
            )
        entry = {
            "component": list(comp),
            "heads": list(witness.v1),
            "spectral_radius": pair.value.real,
            "base_residual": pair.residual,
            "rotations": rotations,
        }
        if h.k % 2 == 0:
            try:
                dense_lap = tensor_ops.materialize_dense(sub, "laplacian", cfg.dense_budget)
                dense_sig = tensor_ops.materialize_dense(sub, "signless", cfg.dense_budget)
                signs = [1 if v in set(v1) else -1 for v in range(1, sub.n + 1)]
                transformed = tensor_ops.diag_similarity(dense_lap, signs)
                identical = transformed.same_entries(dense_sig)
                entry["similarity_identity_exact"] = identical
                if not identical:
                    raise VerificationError(
                        f"diagonal similarity identity failed on component {comp}"
                    )
            except BudgetExceededError as exc:
                entry["similarity_identity_exact"] = None
                entry["budget_exceeded"] = str(exc)
                budget_hit = True
        results.append(entry)
    return {"spectral_transforms": results}, EXIT_BUDGET if budget_hit else EXIT_OK


_COMMANDS = {
    "components": cmd_components,
    "zero-eigenvectors": cmd_zero_eigenvectors,
    "partitions": cmd_partitions,
    "crosscheck": cmd_crosscheck,
    "spectral-transforms": cmd_spectral_transforms,
}


def _render_pretty(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_pretty(item, indent + 1))
                lines.append(f"{pad}  -")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(ln for ln in lines if ln)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerolap",
        description="Zero-eigenvalue eigenvector structure of k-uniform hypergraphs",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="hypergraph file (JSON or plain text)")
    parser.add_argument("--config", help="JSON config file with AnalysisConfig fields")
    parser.add_argument("--operator", choices=["laplacian", "signless", "both"])
    parser.add_argument("--predicate", choices=["literal", "residue"])
    parser.add_argument("--kind", choices=sorted(_KIND_FLAGS))
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--budget", type=int)
    parser.add_argument("--dense-budget", dest="dense_budget", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--pretty", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        h = load_hypergraph(cfg.input)
    except (HypergraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    decomp = connected_components(h)
    try:
        body, code = _COMMANDS[args.command](h, decomp, cfg)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

    report = {
        "command": args.command,
        "version": __version__,
        "instance": _instance_summary(h, decomp),
        "config": dataclasses.asdict(cfg),
    }
    report.update(body)
    rendered = (
        _render_pretty(report) if cfg.pretty else json.dumps(report, indent=2, sort_keys=True)
    )
    if cfg.out:
        Path(cfg.out).write_text(rendered + "\n")
        return code
    try:
        print(rendered, flush=True)
    except BrokenPipeError:
        # The reader went away. Point stdout at devnull so that the flush at
        # interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
