"""Command-line frontend.

Subcommands dispatch definition files to the engine and print deterministic
tables (TSV or a JSON mirror).  Exit codes: 0 = computed (verdicts, pass or
fail, live in the output), 1 = input error, 2 = a budget or window was
exceeded, 3 = an invariant failed (algebra.InvariantError, a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import cache as cachemod
from .algebra import BudgetExceededError, GradedAlgebra, InvariantError, radical
from .azumaya import (
    check_classical_azumaya,
    check_generalized_azumaya,
    check_weak_azumaya,
)
from .defs import (
    DefinitionError,
    DefinitionFile,
    build_algebra,
    build_module,
    parse_definition,
)
from .dg import QuotientDGA, homology
from .hochschild import hochschild_cohomology, mu_homology_image
from .morita import (
    MoritaContext,
    completion,
    completion_matches,
    retract_identity,
    roundtrip_FG,
    torsion_roundtrip,
)
from .resolve import AModule, ext_table
from .tables import BigradedTable


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DefinitionError(f"window must be LO:HI, got {text!r}") from None
    if lo > hi:
        raise DefinitionError(f"empty window {text!r}")
    return (lo, hi)


def _table_rows(table: BigradedTable):
    return [(s, t, fr, ",".join(str(n) for n in tors) or "-")
            for s, t, fr, tors in table.rows()]


def _table_doc(table: BigradedTable) -> dict:
    return {"rows": [list(r) for r in _table_rows(table)], "notes": list(table.notes)}


def _emit_tables(out, sections, args):
    """sections: list of (name, BigradedTable)."""
    if args.format == "json":
        doc = {name: _table_doc(table) for name, table in sections}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for name, table in sections:
        if not args.quiet:
            out.write(f"# {name}\n")
            out.write("s\tt\tfree_rank\ttorsion\n")
            for note in table.notes:
                out.write(f"# note: {note}\n")
        for s, t, fr, tors in _table_rows(table):
            out.write(f"{s}\t{t}\t{fr}\t{tors}\n")


def _emit_records(out, sections, args):
    """sections: list of (name, list of (key, value))."""
    if args.format == "json":
        doc = {name: dict(rec) for name, rec in sections}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for name, rec in sections:
        if not args.quiet:
            out.write(f"# {name}\n")
        for key, value in rec:
            out.write(f"{key}\t{value}\n")


def _graded_entries(built):
    return [(n, a) for n, a in built.items() if isinstance(a, GradedAlgebra)]


def _dg_entries(built):
    return [(n, q) for n, q in built.items() if isinstance(q, QuotientDGA)]


def _build_all(df: DefinitionFile) -> dict:
    return {name: build_algebra(df, name) for name, _ in df.algebras}


def cmd_ext(df, built, args, out):
    window = _parse_window(args.window)
    definition = dataclasses.astuple(df)
    sections = []
    for name, A in _graded_entries(built):
        key = cachemod.cache_key("ext", definition, name, args.smax, window)
        table = cachemod.cached_table(
            args.cache_path, key,
            lambda A=A: ext_table(A, s_max=args.smax, t_window=window),
        )
        sections.append((name, table))
    if not sections:
        raise DefinitionError("ext needs at least one algebra entry")
    _emit_tables(out, sections, args)
    return 0


def cmd_hochschild(df, built, args, out):
    window = _parse_window(args.window)
    sections = []
    budget_hit = False
    for name, A in _graded_entries(built):
        table = hochschild_cohomology(A, n_max=args.nmax, window=window,
                                      budget=args.budget)
        budget_hit = budget_hit or table.completed_through is not None
        sections.append((name, table))
    if not sections:
        raise DefinitionError("hochschild needs at least one algebra entry")
    _emit_tables(out, sections, args)
    return 2 if budget_hit else 0


def cmd_homology(df, built, args, out):
    window = _parse_window(args.window)
    dgs = _dg_entries(built)
    if not dgs:
        raise DefinitionError("homology needs a dg algebra entry")
    sections = [(name, homology(q.dga.complex(), window)) for name, q in dgs]
    _emit_tables(out, sections, args)
    return 0


def cmd_mu_image(df, built, args, out):
    dgs = _dg_entries(built)
    if not dgs:
        raise DefinitionError("mu-image needs a dg algebra entry")
    sections = []
    for name, q in dgs:
        r = mu_homology_image(q)
        sections.append((name, [
            ("coefficient", r.coefficient),
            ("modeled_defect", r.modeled_defect),
            ("is_unit", "true" if r.is_unit else "false"),
            ("alpha_choice", r.alpha_choice),
            ("note", r.note),
        ]))
    _emit_records(out, sections, args)
    return 0


AZUMAYA_FLAVORS = {
    "classical": check_classical_azumaya,
    "generalized": check_generalized_azumaya,
    "weak": check_weak_azumaya,
}


def cmd_azumaya(df, built, args, out):
    window = _parse_window(args.window)
    check = AZUMAYA_FLAVORS[args.flavor]
    sections = []
    for name, entry in built.items():
        report = check(entry.dga if isinstance(entry, QuotientDGA) else entry, window)
        rec = [(f"condition: {c.name}",
                ("pass" if c.verdict else "fail")
                + (f" ({c.witness})" if c.witness and not args.quiet else ""))
               for c in report.conditions]
        rec.append(("overall", "pass" if report.overall else "fail"))
        sections.append((name, rec))
    if not sections:
        raise DefinitionError("azumaya needs at least one algebra entry")
    _emit_records(out, sections, args)
    return 0


def _morita_contexts(df, built):
    specs = [dict(t) for t in df.tasks if dict(t).get("command") == "morita"]
    if not specs:
        raise DefinitionError(
            "morita needs a task entry {'command': 'morita', 'R': .., 'A': .., "
            "'E_R': .., 'E_A': ..}"
        )
    out = []
    for spec in specs:
        for key in ("R", "A", "E_R", "E_A"):
            if key not in spec:
                raise DefinitionError(f"morita task missing {key!r}")
        E_R = build_module(df, spec["E_R"], built)
        E_A = build_module(df, spec["E_A"], built)
        if E_R.algebra is not built[spec["R"]] or E_A.algebra is not built[spec["A"]]:
            raise DefinitionError("E_R and E_A must be modules over R and A")
        out.append((f"{spec['R']}|{spec['A']}|{spec['E_R']}", MoritaContext(E_R, E_A)))
    return out


def _verified(ok) -> str:
    return ("pass" if ok else "fail") + " (corpus-verified)"


def cmd_morita(df, built, args, out):
    window = _parse_window(args.window)
    definition = dataclasses.astuple(df)
    sections = []  # (name, completion table or None, records), one per context
    for name, ctx in _morita_contexts(df, built):
        M = AModule.regular(ctx.R, "right")
        if args.check == "completion":
            key = cachemod.cache_key("completion", definition, name,
                                     args.smax, window)
            table = cachemod.cached_table(args.cache_path, key, lambda: completion(
                ctx, M, window, args.smax, notes=("valid inside the window only",)))
            verdict = _verified(completion_matches(table, M.module, compare=window))
            sections.append((name, table, [("in-window equivalence", verdict)]))
        elif args.check == "roundtrip":
            if radical(ctx.A):
                raise DefinitionError(
                    "roundtrip needs a semisimple auxiliary algebra")
            rec = [(label, _verified(roundtrip_FG(ctx, Y, window))) for label, Y in (
                ("roundtrip F.G on the regular module", AModule.regular(ctx.A)),
                ("roundtrip F.G on E", ctx.E_A))]
            rec.append(("retract identity on E(x)M", _verified(retract_identity(ctx, M))))
            sections.append((name, None, rec))
        else:
            ok = torsion_roundtrip(ctx, compare=(0, min(window[1], args.smax)),
                                   window=window, s_max=args.smax)
            sections.append((name, None, [("torsion roundtrip S(T(A)) ~ A", _verified(ok))]))
    if args.format == "json":
        doc = {name: {**(_table_doc(table) if table is not None else {}), **dict(rec)}
               for name, table, rec in sections}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    for name, table, rec in sections:
        if table is not None:
            _emit_tables(out, [(name, table)], args)
        _emit_records(out, [(name, rec)], args)
    return 0


COMMANDS = {
    "ext": cmd_ext,
    "hochschild": cmd_hochschild,
    "azumaya": cmd_azumaya,
    "morita": cmd_morita,
    "homology": cmd_homology,
    "mu-image": cmd_mu_image,
}


def _common_flags(p):
    p.add_argument("--file", required=True, help="definition file (JSON)")
    p.add_argument("--smax", type=int, default=8)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--window", default="-16:16", help="LO:HI internal degrees")
    p.add_argument("--budget", type=int, default=200000,
                   help="generator budget for bar-complex stages")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--quiet", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hhalg",
        description="exact homological algebra over graded bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ext", "hochschild", "homology", "mu-image"):
        _common_flags(sub.add_parser(name))
    p = sub.add_parser("azumaya")
    _common_flags(p)
    p.add_argument("--flavor", choices=tuple(AZUMAYA_FLAVORS), default="classical")
    p = sub.add_parser("morita")
    _common_flags(p)
    p.add_argument("--check", choices=("completion", "roundtrip", "torsion"),
                   default="completion")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag, value, least in (("--smax", args.smax, 0), ("--nmax", args.nmax, 0),
                               ("--budget", args.budget, 1)):
        if value < least:
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return 1
    args.cache_path = cachemod.resolve_cache_dir(args.cache_dir)
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        df = parse_definition(text)
        built = _build_all(df)
        return COMMANDS[args.command](df, built, args, sys.stdout)
    except (DefinitionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, BudgetExceededError) else 1
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
