"""Command line interface: compute, audit, independence, concordance.

Exit codes: 0 success, 1 strict-mode axiom violation or independence-pattern
mismatch, 2 input or usage error.  The environment variable PCM_SEED
provides a default master seed; --seed overrides it.  With --json a single
report document is printed to stdout; re-running the same command with the
same flags reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .axioms import AuditConfig, AuditReport, UnknownAxiomError, audit
from .core import DomainError, Triad
from .indices import AXIOMS, INDEX_IDS, UnknownIndexError, get_index
from .reporting import build_report, dumps_canonical

__all__ = ["main", "parse_matrix_file", "CliError"]


def __getattr__(name: str):
    # analysis's own independence_table and ranking_concordance, which perfbench's
    # tracer wraps here too; only the commands that run them import analysis.
    if name in ("independence_table", "ranking_concordance"):
        from . import analysis
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    """Input or usage error; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise CliError, so that main reports
    them as one line; add_subparsers makes each subparser of this class too."""

    def error(self, message: str):
        raise CliError(message)


# Validation band for hand-entered matrices: |a_ij * a_ji - 1| <= tol.
_RECIPROCITY_TOL = 1e-6


def _positive(v: float, i: int, j: int) -> float:
    if not math.isfinite(v) or v <= 0.0:
        raise DomainError(f"entry ({i + 1},{j + 1}) must be a finite positive real, got {v!r}")
    return v


def _invertible(v: float, i: int, j: int) -> float:
    """An upper entry whose reciprocal, the rebuilt cell (j, i), is also finite."""
    if not math.isfinite(1.0 / _positive(v, i, j)):
        raise DomainError(f"entry ({i + 1},{j + 1}) must have a finite reciprocal, got {v!r}")
    return v


def _completed(t12: float, t13: float, t23: float) -> list[list[float]]:
    """The 3x3 matrix with this strict upper triangle, its other cells rebuilt by reciprocity."""
    t12, t13, t23 = _invertible(t12, 0, 1), _invertible(t13, 0, 2), _invertible(t23, 1, 2)
    return [[1.0, t12, t13], [1.0 / t12, 1.0, t23], [1.0 / t13, 1.0 / t23, 1.0]]


def _matrix_triad(rows: list[list[float]]) -> Triad:
    """The triad of a 3x3 positive reciprocal matrix, every cell checked."""
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            _positive(v, i, j)
    for i in range(3):
        if abs(rows[i][i] - 1.0) > _RECIPROCITY_TOL:
            raise DomainError(f"diagonal entry ({i + 1},{i + 1}) must be 1, got {rows[i][i]!r}")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if abs(rows[i][j] * rows[j][i] - 1.0) > _RECIPROCITY_TOL:
            raise DomainError(
                f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) are not reciprocal: "
                f"{rows[i][j]!r} * {rows[j][i]!r} != 1"
            )
    return Triad(rows[0][1], rows[0][2], rows[1][2])


def parse_matrix_file(path: str | Path, complete_lower: bool = False) -> tuple[Triad, list[str] | None]:
    """Read a triad file: a 3x3 matrix as JSON with a "matrix" key or as CSV rows, or one CSV row "t12,t13,t23".

    With ``complete_lower`` (always, for the one row) the diagonal and the
    sub-diagonal are rebuilt from the strict upper triangle, which tolerates
    hand-entered files that round reciprocals (or leave them 0).  Returns the
    triad and the optional alternative labels.  Every way the file can be
    unreadable, malformed or not a triad raises CliError naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text("utf-8")
        if path.suffix.lower() == ".json":
            doc = json.loads(text)
            if not isinstance(doc, dict) or "matrix" not in doc:
                raise CliError(f'{path} must be a JSON object with a "matrix" key')
            rows = doc["matrix"]
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise CliError(f"{path}: matrix must be a list of rows")
            if not all(type(cell) in (int, float) for row in rows for cell in row):
                raise CliError(f"{path}: matrix cells must be JSON numbers")
            labels = doc.get("labels")
            if labels is not None:
                if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
                    raise CliError(f'"labels" in {path} must be a list of strings')
                if len(labels) != len(rows):
                    raise CliError(f'"labels" in {path} must have one entry per row')
            rows = [[float(cell) for cell in row] for row in rows]
        else:
            rows = [[float(cell) for cell in line.split(",")] for line in text.splitlines() if line.strip()]
            labels = None
            if len(rows) == 1 and len(rows[0]) == 3:
                rows = _completed(*rows[0])
        if not rows:
            raise CliError(f"{path} contains no matrix rows")
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            lengths = {len(row) for row in rows}
            shape = f"{len(rows)}x{lengths.pop()} matrix" if len(lengths) == 1 else "ragged matrix"
            raise CliError(f"triads only: {path} holds a {shape}; expected 3x3 or one CSV row t12,t13,t23")
        if complete_lower:
            rows = _completed(rows[0][1], rows[0][2], rows[1][2])
        triad = _matrix_triad(rows)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    # Malformed text, JSON nested past the parser's depth, an integer beyond
    # float64, a non-numeric cell or a matrix that is not positive reciprocal.
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise CliError(f"{path}: {exc}") from exc
    return triad, labels


def _config_from(args) -> AuditConfig:
    """--samples and --seed (else PCM_SEED) when given; AuditConfig supplies every other value."""
    given = {"samples": getattr(args, "samples", None), "master_seed": getattr(args, "seed", None)}
    env = os.environ.get("PCM_SEED")
    if given["master_seed"] is None and env is not None:
        try:
            given["master_seed"] = int(env)
        except ValueError:
            raise CliError(f"PCM_SEED must be an integer, got {env!r}") from None
    try:
        return AuditConfig(**{name: value for name, value in given.items() if value is not None})
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_axioms(arg: str) -> tuple[str, ...]:
    """'all' or comma-separated names, upper-cased; audit rejects unknown ones."""
    if arg.strip().lower() == "all":
        return AXIOMS
    names = tuple(part.strip().upper() for part in arg.split(",") if part.strip())
    if not names:
        raise CliError("--axioms must name at least one axiom or be 'all'")
    return names


def _print_report(doc: dict) -> None:
    sys.stdout.write(dumps_canonical(doc) + "\n")


def _witness_text(witness_dict: dict) -> str:
    triads = ", ".join(
        f"{name}=({t['t12']:.6g}, {t['t13']:.6g}, {t['t23']:.6g})" for name, t in witness_dict["triads"].items()
    )
    observed = ", ".join(f"I({k})={v:.12g}" for k, v in witness_dict["observed"].items())
    return f"{witness_dict['relation']}; {triads}; {observed}"


def _cmd_compute(args) -> int:
    triad, labels = parse_matrix_file(args.matrix, complete_lower=args.complete_lower)
    ids = tuple(args.index) if args.index else INDEX_IDS
    # Valid entries can still push a ratio or product of entries past float64.
    try:
        values = {index_id: get_index(index_id).evaluate(triad) for index_id in ids}
        if not all(map(math.isfinite, values.values())):
            raise OverflowError("an index value is not finite")
    except ArithmeticError as exc:
        raise CliError(f"{args.matrix}: the indices cannot be evaluated on this triad in float64 ({exc})") from exc
    if args.json:
        results: dict = {"triad": triad.as_dict(), "indices": values}
        if labels is not None:
            results["labels"] = labels
        command = {
            "name": "compute",
            "matrix": str(args.matrix),
            "indices": list(ids),
            "complete_lower": bool(args.complete_lower),
        }
        _print_report(build_report(command, _config_from(args), results, []))
    else:
        width = max(len(i) for i in ids)
        for index_id in ids:
            print(f"{index_id:<{width}}  {values[index_id]:.12g}")
    return 0


def _render_audit_text(report: AuditReport, strict: bool) -> None:
    print(f"audit of {report.index_id}  (samples={report.config.samples}, seed={report.config.master_seed})")
    for v in report.verdicts:
        marker = "ok" if v.status == report.expected[v.axiom] else "UNEXPECTED"
        print(f"  {v.axiom:<4} {v.status:<4}  expected {report.expected[v.axiom]:<4}  [{marker}]")
        if v.witness is not None:
            print(f"       witness: {_witness_text(v.witness.to_dict())}")
    if strict and not report.all_pass:
        print("strict mode: at least one axiom check failed")


def _cmd_audit(args) -> int:
    descriptor = get_index(args.index)
    axioms = _parse_axioms(args.axioms)
    cfg = _config_from(args)
    report = audit(descriptor, axioms, cfg)
    if args.json:
        command = {
            "name": "audit",
            "index": descriptor.id,
            "axioms": list(axioms),
            "strict": bool(args.strict),
        }
        witnesses = [w.to_dict() for w in report.witnesses()]
        _print_report(build_report(command, cfg, report.to_dict(), witnesses))
    else:
        _render_audit_text(report, args.strict)
    return 1 if args.strict and not report.all_pass else 0


def _cmd_independence(args) -> int:
    from .analysis import INDEPENDENCE_AXIOMS, independence_table

    cfg = _config_from(args)
    table = independence_table(cfg)
    if args.json:
        witnesses = [
            {**cell.witness.to_dict(), "index": row.index_id}
            for row in table.rows
            for cell in row.cells
            if cell.witness is not None
        ]
        _print_report(build_report({"name": "independence"}, cfg, table.to_dict(), witnesses))
    else:
        axiom_header = "  ".join(f"{a:<4}" for a in INDEPENDENCE_AXIOMS)
        print(f"index  {axiom_header}")
        for row in table.rows:
            cells = "  ".join(f"{c.status:<4}" for c in row.cells)
            note = "" if row.matches_expected else "  <- unexpected pattern"
            print(f"{row.index_id:<5}  {cells}{note}")
        print(f"pattern matches expected diagonal: {'yes' if table.matches_expected else 'no'}")
    return 0 if table.matches_expected else 1


def _cmd_concordance(args) -> int:
    from .analysis import ranking_concordance

    a = get_index(args.index_a)
    b = get_index(args.index_b)
    cfg = _config_from(args)
    stats = ranking_concordance(a, b, cfg)
    if args.json:
        witnesses = [stats.discordant_witness.to_dict()] if stats.discordant_witness is not None else []
        command = {"name": "concordance", "index_a": a.id, "index_b": b.id}
        _print_report(build_report(command, cfg, stats.to_dict(), witnesses))
    else:
        print(f"concordance of {a.id} vs {b.id} over {stats.pairs} pairs")
        print(f"  concordant   {stats.concordant}")
        print(f"  discordant   {stats.discordant}")
        print(f"  ties a only  {stats.ties_a_only}")
        print(f"  ties b only  {stats.ties_b_only}")
        print(f"  ties both    {stats.ties_both}")
        print(f"  kendall tau-b {stats.kendall_tau_b:.12g}")
        if stats.discordant_witness is not None:
            print(f"  witness: {_witness_text(stats.discordant_witness.to_dict())}")
    return 0


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, help=f"random probes per check (default: {AuditConfig.samples})")
    parser.add_argument("--seed", type=int, help=f"master seed (default: PCM_SEED or {AuditConfig.master_seed})")
    parser.add_argument("--json", action="store_true", help="emit a JSON report document")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="triadaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate inconsistency indices on a matrix file")
    compute.add_argument("--matrix", required=True, help="JSON or CSV matrix file")
    compute.add_argument("--index", action="append", default=None, help="index id (repeatable; default: all)")
    compute.add_argument("--complete-lower", action="store_true", help="fill the lower triangle from the upper")
    compute.add_argument("--json", action="store_true", help="emit a JSON report document")
    compute.set_defaults(func=_cmd_compute)

    audit_cmd = sub.add_parser("audit", help="check axioms for one index")
    audit_cmd.add_argument("index", help=f"index id, one of: {', '.join(INDEX_IDS)}")
    audit_cmd.add_argument("--axioms", default="all", help="comma-separated axiom names or 'all'")
    audit_cmd.add_argument("--strict", action="store_true", help="exit 1 if any verdict is fail")
    _add_sampling_flags(audit_cmd)
    audit_cmd.set_defaults(func=_cmd_audit)

    independence = sub.add_parser("independence", help="reproduce the six-axiom independence table")
    _add_sampling_flags(independence)
    independence.set_defaults(func=_cmd_independence)

    concordance = sub.add_parser("concordance", help="pairwise ranking agreement of two indices")
    concordance.add_argument("index_a")
    concordance.add_argument("index_b")
    _add_sampling_flags(concordance)
    concordance.set_defaults(func=_cmd_concordance)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, once printed
        return int(exc.code or 0)
    except (CliError, DomainError, UnknownIndexError, UnknownAxiomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
