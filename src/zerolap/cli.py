"""Command-line front end.

Subcommands ingest a hypergraph file, run one analysis, and emit a JSON
report (stdout by default, ``--out`` for a file, ``--pretty`` for a human
rendering). Identical input and config produce byte-identical reports.
``zero-eigenvectors`` lists each component's classes in lexicographic
order of their exponents, shifted to 0 at the component's first vertex,
and ``--budget`` keeps the lexicographically first classes, components in
order; the order depends only on the solution set, not on the solver.
``render_report`` writes a report byte for byte as
``json.dumps(report, indent=2, sort_keys=True)`` does, built from the same
stdlib primitives but without that call's pure-Python encoder. Every
number in a report comes from a library call; the CLI does no arithmetic
of its own.

Exit codes: 0 success, 1 stdout closed before the report was written
(for example piped into ``head``; the run ends without a traceback), 2
parse/validation failure (a bad input or config file, or an unwritable
``--out`` path), 3 internal verification failure, 4 budget exhaustion, 5
cross-check mismatch, 6 structural precondition not met.
"""

import argparse
import dataclasses
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import numpy as np

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
from .zk_solver import ZERO_EIG_OPERATORS

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
_OPERATOR_CHOICES = (*ZERO_EIG_OPERATORS, "both")

_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__


@dataclasses.dataclass
class AnalysisConfig:
    """Run configuration; flags override config-file values override defaults."""

    input: str
    operator: str = "both"
    predicate: str = "residue"
    kind: str | None = None
    tolerance: float = 1e-9
    budget: int = partitions.DEFAULT_ENUM_BUDGET
    out: str | None = None
    pretty: bool = False

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # a config file's numbers may be JSON integers; bool is an int
            # subclass but never a number or a count here
            expected = (int, float) if field.type is float else field.type
            if not isinstance(value, expected) or (
                isinstance(value, bool) and field.type is not bool
            ):
                name = getattr(field.type, "__name__", field.type)
                raise ValueError(f"config field {field.name!r} must be {name}, got {value!r}")
        if not 0 < self.tolerance < _INF:  # also rejects NaN
            raise ValueError("tolerance must be positive and finite")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.predicate not in partitions.PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if self.operator not in _OPERATOR_CHOICES:
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.kind is not None and self.kind not in _KIND_FLAGS:
            raise ValueError(f"unknown kind {self.kind!r}")


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    values: dict = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise HypergraphFormatError(f"cannot read config file: {exc}") from exc
        if not isinstance(values, dict):
            raise HypergraphFormatError(
                f"config file must hold a JSON object, not {type(values).__name__}"
            )
        unknown = sorted(values.keys() - {f.name for f in dataclasses.fields(AnalysisConfig)})
        if unknown:
            raise HypergraphFormatError(f"unknown config field {unknown[0]!r}")
    for field in dataclasses.fields(AnalysisConfig):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    if "input" not in values:
        raise HypergraphFormatError("no input file given (flag --input or config file)")
    return AnalysisConfig(**values)


def _operators(cfg: AnalysisConfig) -> list[str]:
    return list(ZERO_EIG_OPERATORS) if cfg.operator == "both" else [cfg.operator]


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
    counts = eigenstructure.solve_components(h, decomp, cfg.budget)
    report = {
        "operators": [
            eigenstructure.zero_eigenvector_report(
                h, counts[op], enumerate_limit=cfg.budget, tolerance=cfg.tolerance
            )
            for op in _operators(cfg)
        ]
    }
    return report, EXIT_OK


def _applicable_kinds(h: Hypergraph, cfg: AnalysisConfig) -> list[str]:
    if cfg.kind is not None:
        return [cfg.kind]
    return [
        flag
        for flag, (family, kind) in _KIND_FLAGS.items()
        if kind in partitions.bipartition_flavors(h.k)
        or family == "multipartition" and partitions.KIND_SPECS[kind].k == h.k
    ]


def _witness_records(comp: tuple[int, ...], rows, parts: int, kind: str, predicate: str) -> list:
    """The report records of one component's witness rows: part j of a row
    lists the vertices whose entry is j, so an empty part stays []."""
    vertices = np.array(comp)
    return [
        {
            "kind": kind,
            "parts": [vertices[row == j].tolist() for j in range(parts)],
            "predicate": predicate,
            "valid": True,
        }
        for row in rows
    ]


def cmd_partitions(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    inventories = []
    budget_hit = False
    bipartitions: dict = {}  # component -> its one listing, shared by every bipartition kind
    for flag in _applicable_kinds(h, cfg):
        family, kind = _KIND_FLAGS[flag]
        entry: dict = {"kind": kind, "family": family, "witnesses": [], "count": 0}
        if family == "multipartition":
            entry["predicate"] = cfg.predicate
        for comp, single in zip(decomp.components, decomp.singleton):
            if single:
                continue
            try:
                if family == "bipartition":
                    if comp not in bipartitions:
                        bipartitions[comp] = partitions.enumerate_bipartitions(h, comp, cfg.budget)
                    rows, parts, predicate = bipartitions[comp][kind], 2, "literal"
                else:
                    rows = partitions.enumerate_multipartitions(h, comp, kind, cfg.budget)[
                        cfg.predicate
                    ]
                    parts, predicate = partitions.KIND_SPECS[kind].parts, cfg.predicate
                entry["witnesses"] += _witness_records(comp, rows, parts, kind, predicate)
                entry["count"] += len(rows)
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
    solved = eigenstructure.solve_components(h, decomp, cfg.budget)
    for op in _operators(cfg):
        result = eigenstructure.crosscheck(h, solved[op], cfg.budget)
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
    the structural precondition fails (exit 6). The search for it is
    bounded by ``cfg.budget`` head trials, and the power iteration by its
    iteration cap; running out of either raises BudgetExceededError (exit
    4). For even k, the diagonal similarity by the heads' signs (+1 on
    heads, -1 elsewhere) must carry the Laplacian exactly to the signless
    Laplacian, which is checked edge by edge as an odd number of heads in
    every edge; a failure raises VerificationError (exit 3).
    """
    results = []
    for comp, single in zip(decomp.components, decomp.singleton):
        if single:
            continue
        row = partitions.find_hm_bipartition(h, comp, cfg.budget)
        if row is None:
            return {
                "error": "no hm-bipartition exists",
                "component": list(comp),
            }, EXIT_STRUCTURE
        sub = induced_subhypergraph(h, comp).hypergraph
        pair = tensor_ops.nqz_spectral_radius(h=sub)
        rotations = []
        for r in range(h.k):
            rotated = tensor_ops.hm_spectral_reflection(sub, row, pair, r)
            rotations.append(
                {
                    "r": r,
                    "lambda": [rotated.value.real, rotated.value.imag],
                    "residual": rotated.residual,
                }
            )
        entry = {
            "component": list(comp),
            "heads": np.array(comp)[row == 0].tolist(),
            "spectral_radius": pair.value.real,
            "base_residual": pair.residual,
            "rotations": rotations,
        }
        if h.k % 2 == 0:
            if not tensor_ops.similarity_identity_holds(sub, row):
                raise VerificationError(f"diagonal similarity identity failed on component {comp}")
            entry["similarity_identity_exact"] = True
        results.append(entry)
    return {"spectral_transforms": results}, EXIT_OK


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


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


# JSON text of a scalar by exact type; subclasses take the isinstance path.
_SCALAR_TEXT = {
    str: _encode_str,
    int: _int_repr,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _int_lists_text(lists, pad: str) -> list[str] | None:
    """The texts of lists or tuples whose items are all exactly ``int``, or
    None if some item is not; each item's line starts with ``pad``."""
    if not set(map(type, chain.from_iterable(lists))) <= {int}:
        return None
    sep, close = "," + pad, pad[:-2] + "]"
    return ["[" + pad + sep.join(map(_int_repr, v)) + close if v else "[]" for v in lists]


def _records_text(records: list, pad: str) -> str | None:
    """A list of dicts sharing one key set, field by field, or None unless
    each field holds scalars in every record or int lists in every record.
    Each record's line starts with ``pad``."""
    keys = records[0].keys() if type(records[0]) is dict else None
    if not keys:
        return None
    for record in records:
        if type(record) is not dict or record.keys() != keys:
            return None
    key_pad = pad + "  "
    fields = []
    for i, key in enumerate(sorted(keys)):
        values = [record[key] for record in records]
        types = set(map(type, values))
        if types <= {list, tuple}:
            texts = _int_lists_text(values, key_pad + "  ")
        elif types <= _SCALAR_TEXT.keys():
            texts = [_SCALAR_TEXT[type(v)](v) for v in values]
        else:
            texts = None
        if texts is None:
            return None
        fields += [repeat(("," if i else pad + "{") + key_pad + _encode_str(key) + ": "), texts]
    fields.append(repeat(pad + "}"))
    return "[" + ",".join(map("".join, zip(*fields))) + pad[:-2] + "]"


def _render(value, level: int, parts: list) -> None:
    """Append the text ``json.dumps(value, indent=2, sort_keys=True)`` gives
    ``value`` nested ``level`` deep, checking types in the order ``json``
    does."""
    text_of = _SCALAR_TEXT.get(type(value))
    if text_of is not None:
        parts.append(text_of(value))
    elif isinstance(value, str):
        parts.append(_encode_str(value))
    elif isinstance(value, int):
        parts.append(_int_repr(value))
    elif isinstance(value, float):
        parts.append(_float_text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        pad = "\n" + "  " * (level + 1)
        ints = _int_lists_text([value], pad)
        text = ints[0] if ints else _records_text(value, pad)
        if text is not None:
            parts.append(text)
            return
        for i, item in enumerate(value):
            parts.append(("," if i else "[") + pad)
            _render(item, level + 1, parts)
        parts.append(pad[:-2] + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        pad = "\n" + "  " * (level + 1)
        for i, key in enumerate(sorted(value)):
            parts.append(("," if i else "{") + pad + _encode_str(key) + ": ")
            _render(value[key], level + 1, parts)
        parts.append(pad[:-2] + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_report(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True)`` spells
    it, byte for byte, without that call's pure-Python encoder."""
    parts: list[str] = []
    _render(report, 0, parts)
    return "".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerolap",
        description="Zero-eigenvalue eigenvector structure of k-uniform hypergraphs",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", help="hypergraph file (JSON or plain text)")
    parser.add_argument("--config", help="JSON config file with AnalysisConfig fields")
    parser.add_argument("--operator", choices=_OPERATOR_CHOICES)
    parser.add_argument("--predicate", choices=partitions.PREDICATES)
    parser.add_argument("--kind", choices=sorted(_KIND_FLAGS))
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--budget", type=int)
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--pretty", action="store_const", const=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        h = load_hypergraph(cfg.input)
        family, kind = _KIND_FLAGS.get(cfg.kind, (None, None))
        if args.command == "partitions" and family == "multipartition":
            partitions.kind_spec(kind, h.k)  # a kind of another uniformity
        elif args.command == "partitions" and family == "bipartition":
            if kind not in partitions.bipartition_flavors(h.k):
                raise ValueError(f"{kind} bipartitions apply to even k, got k={h.k}")
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
    rendered = _render_pretty(report) if cfg.pretty else render_report(report)
    if cfg.out:
        try:
            Path(cfg.out).write_text(rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_PARSE
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
