"""Command-line front end.

Subcommands ingest a hypergraph file, run one analysis, and emit a JSON
report (stdout by default, ``--out`` for a file, ``--pretty`` for a human
rendering). Identical input and config produce byte-identical reports.
``zero-eigenvectors`` lists each component's classes in lexicographic
order of their exponents, shifted to 0 at the component's first vertex,
and ``--budget`` keeps the lexicographically first classes, components in
order; the order depends only on the solution set, not on the solver.
``render_report`` writes a report byte for byte as
``json.dumps(report, indent=2, sort_keys=True, default=list)`` does. A
listing (``eigenstructure.ClassListing``, ``WitnessListing``) stays in the
report as its arrays and iterates as its records. The stdlib encoder
writes the rest of the report, and each listing's records are written
from its arrays, one text per distinct value, and spliced in. Every
number in a report comes from a library call; the CLI does no arithmetic.

``components``, ``--help``, usage errors and bad input or config files run
on the standard library and the ``errors``, ``hypergraph`` and ``names``
modules, without ``dataclasses``, ``typing`` or ``pathlib``; numpy and the
algebra load inside the commands that solve. A ``components`` call takes
about 0.07 s wall on a 2-core x86-64 host with Python 3.11, against about
0.2 s with numpy.

``run()`` is the process entry (``python -m zerolap.cli`` and the
``zerolap`` script): it runs ``main()`` with the cyclic garbage collector
disabled, as a call is one short process whose objects live until exit.
Then it runs the exit handlers, flushes both streams and ends with
``os._exit``, skipping the interpreter's teardown: on that host, from the
exit handlers to the process being reaped took 2.0 ms against 5.6 ms
(median of 20 ``crosscheck`` calls). With the solving modules' records
built without ``dataclasses``, the benchmark's median ``crosscheck`` call
went from 0.185 to 0.168 s. ``main()`` leaves the collector as it found
it and returns its code, for callers in a longer process.

Exit codes: 0 success, 1 stdout closed before the report was written
(for example piped into ``head``; the run ends without a traceback), 2
parse/validation failure (a bad input or config file, or an unwritable
``--out`` path), 3 internal verification failure, 4 budget exhaustion or
out of memory, 5 cross-check mismatch, 6 structural precondition not met.
"""

import argparse
import atexit
import gc
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, names
from .errors import BudgetExceededError, HypergraphFormatError, VerificationError
from .hypergraph import (
    ComponentDecomposition,
    Hypergraph,
    connected_components,
    degrees,
    load_hypergraph,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_STRUCTURE = 6

_KIND_FLAGS = {
    "hm": names.HM,
    "odd": names.ODD,
    "even": names.EVEN,
    "tri": names.TRIPARTITE,
    "lquad": names.L_QUAD,
    "slquad": names.SL_QUAD,
    "penta": names.PENTA,
}
_OPERATOR_CHOICES = (*names.ZERO_EIG_OPERATORS, "both")

_INF = float("inf")
# Bound here, not looked up at call time: callers may swap ``json`` for a proxy.
_ENCODER = json.JSONEncoder()
_number_text = _ENCODER.encode
_PLACEHOLDER = "\x00listing"  # no report string holds NUL: see AnalysisConfig
_PLACEHOLDER_TEXT = _ENCODER.encode(_PLACEHOLDER)


# AnalysisConfig's fields as (name, type, default), in report order
_CONFIG_FIELDS = (
    ("input", str, None),
    ("operator", str, "both"),
    ("predicate", str, "residue"),
    ("kind", str | None, None),
    ("tolerance", float, names.DEFAULT_TOLERANCE),
    ("budget", int, names.DEFAULT_ENUM_BUDGET),
    ("out", str | None, None),
    ("pretty", bool, False),
)


class AnalysisConfig:
    """Run configuration; flags override config-file values override defaults.
    Each of ``_CONFIG_FIELDS`` is an attribute, checked at construction."""

    def __init__(self, **values):
        unknown = sorted(values.keys() - {name for name, _, _ in _CONFIG_FIELDS})
        if unknown:
            raise HypergraphFormatError(f"unknown config field {unknown[0]!r}")
        if "input" not in values:
            raise HypergraphFormatError("no input file given (flag --input or config file)")
        for name, kind, default in _CONFIG_FIELDS:
            value = values.get(name, default)
            # a config file's numbers may be JSON integers; bool is an int
            # subclass but never a number or a count here
            expected = (int, float) if kind is float else kind
            if not isinstance(value, expected) or (isinstance(value, bool) and kind is not bool):
                kind_name = getattr(kind, "__name__", kind)
                raise ValueError(f"config field {name!r} must be {kind_name}, got {value!r}")
            setattr(self, name, value)
        for name in ("input", "out"):
            if "\x00" in (getattr(self, name) or ""):
                raise ValueError(f"config field {name!r} holds a NUL byte")
        if not 0 < self.tolerance < _INF:  # also rejects NaN
            raise ValueError("tolerance must be positive and finite")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.predicate not in names.PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if self.operator not in _OPERATOR_CHOICES:
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.kind is not None and self.kind not in _KIND_FLAGS:
            raise ValueError(f"unknown kind {self.kind!r}")


def _merge_config(args: argparse.Namespace) -> AnalysisConfig:
    values: dict = {}
    if args.config:
        try:
            with open(args.config, "rb") as stream:  # JSON text is UTF-8 in any locale
                values = json.loads(stream.read().decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HypergraphFormatError(f"cannot read config file: {exc}") from exc
        if not isinstance(values, dict):
            raise HypergraphFormatError(
                f"config file must hold a JSON object, not {type(values).__name__}"
            )
        for name in ("input", "out"):  # a file name is the bytes its UTF-8 text spells
            if isinstance(values.get(name), str):
                values[name] = os.fsdecode(values[name].encode("utf-8", "surrogateescape"))
    flags = ((name, getattr(args, name)) for name, _, _ in _CONFIG_FIELDS)
    values.update((name, flag) for name, flag in flags if flag is not None)
    return AnalysisConfig(**values)


def _operators(cfg: AnalysisConfig) -> list[str]:
    return list(names.ZERO_EIG_OPERATORS) if cfg.operator == "both" else [cfg.operator]


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
    components = zip(decomp.components, decomp.edge_lists, decomp.singleton)
    return {
        "components": [
            {"vertices": list(comp), "edges": [list(e) for e in edges], "singleton": single}
            for comp, edges, single in components
        ],
        "degrees": list(degrees(h)),
    }, EXIT_OK


def cmd_zero_eigenvectors(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    from . import eigenstructure

    counts = eigenstructure.solve_components(h, decomp, cfg.budget)
    reports = [
        eigenstructure.zero_eigenvector_report(
            h, counts[op], enumerate_limit=cfg.budget, tolerance=cfg.tolerance
        )
        for op in _operators(cfg)
    ]
    return {"operators": reports}, EXIT_OK


class WitnessListing:
    """One kind's witnesses, a block of part-index rows per component: row
    r of a block puts its i-th vertex in part ``rows[r, i]``. Iterating
    gives the report records; ``render_report`` writes them from the rows."""

    def __init__(self, kind: str, predicate: str, parts: int, blocks=()):
        self.kind, self.predicate, self.parts = kind, predicate, parts
        self.blocks = list(blocks)  # (vertices, rows) per component

    def __len__(self) -> int:
        return sum(len(rows) for _, rows in self.blocks)

    def __iter__(self):
        for comp, rows in self.blocks:
            for row in rows.tolist():
                parts = [[v for v, j in zip(comp, row) if j == part] for part in range(self.parts)]
                yield dict(kind=self.kind, parts=parts, predicate=self.predicate, valid=True)


def cmd_partitions(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    """Each kind's witnesses, one non-singleton component at a time: its
    ``zk_solver.ComponentSystem``, let go before the next is built, serves
    every kind, and its one bipartition listing, or that listing's budget
    error, every bipartition kind. The form modulo 2 goes once that listing
    is made, before any multipartition kind eliminates modulo k."""
    from . import partitions
    from .kinds import KIND_SPECS, applicable_kinds
    from .zk_solver import ComponentSystem

    def listing(scan, *args):
        try:
            return scan(system, *args, cfg.budget)
        except BudgetExceededError as exc:
            return str(exc)

    inventories = []
    for kind in applicable_kinds(h.k) if cfg.kind is None else [_KIND_FLAGS[cfg.kind]]:
        family = "multipartition" if kind in KIND_SPECS else "bipartition"
        witnesses = WitnessListing(kind, "literal", 2)
        entry: dict = {"kind": kind, "family": family, "witnesses": witnesses, "count": 0}
        if family == "multipartition":  # a multipartition kind of k has k parts
            entry["predicate"] = cfg.predicate
            entry["witnesses"] = WitnessListing(kind, cfg.predicate, h.k)
        inventories.append(entry)
    for comp, single in zip(decomp.components, decomp.singleton):
        if single:
            continue
        system, bipartitions = ComponentSystem(h, comp), None
        for entry in inventories:
            kind = entry["kind"]
            if entry["family"] == "multipartition":
                rows = listing(partitions.enumerate_multipartitions, kind, cfg.predicate)
            else:
                if bipartitions is None:
                    bipartitions = listing(partitions.enumerate_bipartitions)
                    system.forms.pop(2, None)  # no other kind reads the form modulo 2
                rows = bipartitions if isinstance(bipartitions, str) else bipartitions[kind]
            if isinstance(rows, str):
                entry["budget_exceeded"] = rows
            else:
                entry["witnesses"].blocks.append((comp, rows))
                entry["count"] += len(rows)
    budget_hit = any("budget_exceeded" in entry for entry in inventories)
    return {"partitions": inventories}, EXIT_BUDGET if budget_hit else EXIT_OK


def cmd_crosscheck(
    h: Hypergraph, decomp: ComponentDecomposition, cfg: AnalysisConfig
) -> tuple[dict, int]:
    """Both count identities of each operator, as its ``StructureCounts``
    decides them, with the literal multipartition count beside each
    decided N identity."""
    from . import eigenstructure
    from .kinds import KIND_SPECS, applicable_kinds, discrepancy_scan

    checks = []
    mismatch = False
    solved = eigenstructure.solve_components(h, decomp, cfg.budget)
    for op in _operators(cfg):
        counts = solved[op]
        entry = {
            "operator": op,
            "H_count": counts.h_count,
            "H_expected": counts.h_expected,
            "H_formula": counts.h_formula,
            "H_matched": counts.h_matched,
            "N_pair_count": counts.n_pair_count,
            "components": counts.component_entries(),
        }
        if counts.n_kind is not None:
            entry["N_expected"] = counts.n_expected
            entry["N_formula"] = counts.n_formula
            entry["N_matched"] = counts.n_matched
        if counts.n_expected is not None:
            entry["N_literal_count"] = eigenstructure.n_literal_count(counts, cfg.budget)
        mismatch = mismatch or counts.mismatch
        checks.append(entry)
    scans = [discrepancy_scan(kind) for kind in applicable_kinds(h.k) if kind in KIND_SPECS]
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
    from . import partitions, tensor_ops
    from .zk_solver import ComponentSystem

    results = []
    for comp, single in zip(decomp.components, decomp.singleton):
        if single:
            continue
        system = ComponentSystem(h, comp)
        row = partitions.find_hm_bipartition(system, cfg.budget)
        if row is None:
            return {
                "error": "no hm-bipartition exists",
                "component": list(comp),
            }, EXIT_STRUCTURE
        pair = tensor_ops.nqz_spectral_radius(h=system.sub)
        rotations = [
            {"r": r, "lambda": [p.value.real, p.value.imag], "residual": p.residual}
            for r, p in enumerate(tensor_ops.hm_spectral_reflection(system.sub, row, pair))
        ]
        entry = {
            "component": list(comp),
            "heads": [v for v, part in zip(comp, row.tolist()) if part == 0],
            "spectral_radius": pair.value.real,
            "base_residual": pair.residual,
            "rotations": rotations,
        }
        if h.k % 2 == 0:
            if not tensor_ops.similarity_identity_holds(system.sub, row):
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
        if not isinstance(value, (dict, list, tuple, str)) and hasattr(value, "__iter__"):
            value = list(value)  # a listing held as arrays, as its records
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


def _distinct_texts(values) -> list:
    """Each entry's JSON text, as nested lists, made once per distinct value
    (floats by bit pattern, so 0.0 and -0.0 keep their own texts)."""
    import numpy as np

    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, index = np.unique(keys, return_inverse=True)
    texts = list(map(_number_text, distinct.view(values.dtype).tolist()))
    return np.array(texts, dtype=object)[index.reshape(values.shape)].tolist()


def _classes_text(listing, pad: str, parts: list) -> None:
    """Append a non-empty ``eigenstructure.ClassListing``'s text to ``parts``:
    each row's exponent and residual texts between its keys' fixed texts."""
    key_pad, item_pad = pad + "  ", pad + "    "
    opening = "{" + key_pad + '"alpha": [' + item_pad
    kinds = [f'{key_pad}],{key_pad}"kind": "{kind}",{key_pad}"residual": ' for kind in "NH"]
    kinds = map(kinds.__getitem__, listing.real.tolist())
    alphas = map(("," + item_pad).join, _distinct_texts(listing.alphas))
    between = repeat(pad + "}," + pad + opening)
    parts.append("[" + pad + opening)
    parts += chain.from_iterable(zip(alphas, kinds, _distinct_texts(listing.residuals), between))
    parts[-1] = pad + "}" + pad[:-2] + "]"


def _witnesses_text(listing: WitnessListing, pad: str, parts: list) -> None:
    """Append a non-empty ``WitnessListing``'s text to ``parts``: a row's
    parts are its vertices in the order of one stable argsort of the row,
    cut at the part bounds."""
    import numpy as np

    key_pad, part_pad, vpad = pad + "  ", pad + "    ", pad + "      "
    vsep, part_sep, close = "," + vpad, "," + part_pad, part_pad + "]"
    opening = "{" + key_pad + f'"kind": {_encode_str(listing.kind)},{key_pad}"parts": [{part_pad}'
    predicate = _encode_str(listing.predicate)
    closing = f'{key_pad}],{key_pad}"predicate": {predicate},{key_pad}"valid": true{pad}}}'
    parts.append("[" + pad + opening)
    for comp, rows in listing.blocks:
        texts = np.array(list(map(_number_text, comp)), dtype=object)
        by_part = texts[np.argsort(rows, axis=1, kind="stable")].tolist()
        bounds = np.stack([(rows < j).sum(axis=1) for j in range(listing.parts + 1)], axis=1)
        for row, cut in zip(by_part, bounds.tolist()):
            cuts = zip(cut, cut[1:])
            lists = ["[" + vpad + vsep.join(row[a:b]) + close if a < b else "[]" for a, b in cuts]
            parts += (part_sep.join(lists), closing + "," + pad + opening)
    parts[-1] = closing + pad[:-2] + "]"


def render_report(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True,
    default=list)`` spells it, byte for byte. The stdlib encoder writes it
    with a placeholder for each non-empty listing, and each listing's text
    from its arrays is spliced in at its placeholder."""
    listings = []

    def hold(value):
        if not isinstance(value, WitnessListing):
            from .eigenstructure import ClassListing  # only a solving command makes one

            if not isinstance(value, ClassListing):
                return _ENCODER.default(value)  # raises json's TypeError
        if not len(value):
            return []
        listings.append(value)
        return _PLACEHOLDER

    text = json.dumps(report, indent=2, sort_keys=True, default=hold)
    if not listings:
        return text
    pieces = text.split(_PLACEHOLDER_TEXT)
    if len(pieces) != len(listings) + 1:
        raise VerificationError("a report string holds the listing placeholder")
    parts = [pieces[0]]
    for listing, piece in zip(listings, pieces[1:]):
        line = parts[-1].rpartition("\n")[2]  # the key's line, or the item's indent
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")) + 2)
        write = _witnesses_text if isinstance(listing, WitnessListing) else _classes_text
        write(listing, pad, parts)
        parts.append(piece)
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
    parser.add_argument("--predicate", choices=names.PREDICATES)
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
        if args.command == "partitions" and cfg.kind is not None:
            from .kinds import require_applicable

            require_applicable(_KIND_FLAGS[cfg.kind], h.k)
    except (HypergraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        decomp = connected_components(h)
        body, code = _COMMANDS[args.command](h, decomp, cfg)
        report = {
            "command": args.command,
            "version": __version__,
            "instance": _instance_summary(h, decomp),
            "config": dict(vars(cfg)),  # the fields, in table order
        }
        report.update(body)
        rendered = _render_pretty(report) if cfg.pretty else render_report(report)
    except (BudgetExceededError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_VERIFICATION
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_BUDGET
    if cfg.out:
        try:
            # the bytes stdout writes, a file name's undecodable bytes included
            with open(cfg.out, "w", encoding="utf-8", errors="surrogateescape") as out:
                print(rendered, file=out)  # then the newline: no second copy of the report
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


def run() -> None:
    """Process entry point: ``main()`` without the cyclic garbage collector.

    Then the registered exit handlers run (a ``site`` hook's, coverage's),
    both streams are flushed, and ``os._exit`` ends the process with
    ``main``'s code: the teardown of every module and object is skipped,
    as it frees nothing a finished process keeps."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
