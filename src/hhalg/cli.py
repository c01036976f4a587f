"""Command-line frontend.

Each subcommand parses only the flags it reads, and --file, --format,
--quiet and --cache-dir (read by ext and morita; perfbench/run.py passes
it to every command).  Each builds what `parse_definition` checked and
returns its sections, (name, table or None, records), one per entry or task;
`_emit` writes them all as TSV or as a JSON mirror.  Exit codes: 0 =
computed (verdicts, pass or fail, live in the output), 1 = input error, 2 =
a budget or window was exceeded, or a table stopped short of the request,
3 = an invariant failed (algebra.InvariantError, a bug).

Each subcommand imports the engine modules that only it uses (cache,
hochschild, azumaya, morita) when it runs, not on `import hhalg.cli`.  Cache
keys hash the definition's field tuple, `DefinitionFile.astuple()`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import BudgetExceededError, GradedAlgebra, InvariantError, radical
from .defs import (
    DefinitionError,
    build_algebra,
    build_module,
    parse_definition,
)
from .dg import QuotientDGA, homology
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


def _emit(out, sections, args):
    """sections: list of (name, BigradedTable or None, list of (key, value)).

    JSON merges a section's table, {rows, notes}, with its records; TSV
    writes the table block, then the records block, each under `# name`.
    """
    if args.format == "json":
        doc = {name: {**({"rows": _table_rows(table), "notes": list(table.notes)}
                         if table is not None else {}), **dict(rec)}
               for name, table, rec in sections}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for name, table, rec in sections:
        if table is not None:
            if not args.quiet:
                out.write(f"# {name}\ns\tt\tfree_rank\ttorsion\n")
                for note in table.notes:
                    out.write(f"# note: {note}\n")
            for s, t, fr, tors in _table_rows(table):
                out.write(f"{s}\t{t}\t{fr}\t{tors}\n")
        if rec:
            if not args.quiet:
                out.write(f"# {name}\n")
            for key, value in rec:
                out.write(f"{key}\t{value}\n")


def _entries(built, kind, command):
    """The built entries of type `kind`; a DefinitionError if there are none."""
    found = [(n, e) for n, e in built.items() if isinstance(e, kind)]
    if not found:
        need = "a dg algebra" if kind is QuotientDGA else "at least one algebra"
        raise DefinitionError(f"{command} needs {need} entry")
    return found


def cmd_ext(df, built, args):
    from .cache import cache_key, cached_table, resolve_cache_dir

    definition, cache_path = df.astuple(), resolve_cache_dir(args.cache_dir)
    sections = []
    for name, A in _entries(built, GradedAlgebra, "ext"):
        key = cache_key("ext", definition, name, args.smax, args.window)
        table = cached_table(
            cache_path, key,
            lambda A=A: ext_table(A, s_max=args.smax, t_window=args.window),
        )
        sections.append((name, table, []))
    return sections


def cmd_hochschild(df, built, args):
    from .hochschild import hochschild_cohomology

    return [(name, hochschild_cohomology(A, n_max=args.nmax, window=args.window,
                                         budget=args.budget), [])
            for name, A in _entries(built, GradedAlgebra, "hochschild")]


def cmd_homology(df, built, args):
    return [(name, homology(q.dga.complex(), args.window), [])
            for name, q in _entries(built, QuotientDGA, "homology")]


def cmd_mu_image(df, built, args):
    from .hochschild import mu_homology_image

    sections = []
    for name, q in _entries(built, QuotientDGA, "mu-image"):
        r = mu_homology_image(q)
        sections.append((name, None, [
            ("coefficient", r.coefficient),
            ("modeled_defect", r.modeled_defect),
            ("is_unit", "true" if r.is_unit else "false"),
            ("alpha_choice", r.alpha_choice),
            ("note", r.note),
        ]))
    return sections


def cmd_azumaya(df, built, args):
    from .azumaya import check_classical_azumaya, check_generalized_azumaya, check_weak_azumaya

    check = {"classical": check_classical_azumaya, "generalized": check_generalized_azumaya,
             "weak": check_weak_azumaya}[args.flavor]
    sections = []
    for name, entry in _entries(built, (GradedAlgebra, QuotientDGA), "azumaya"):
        report = check(entry.dga if isinstance(entry, QuotientDGA) else entry, args.window)
        rec = [(f"condition: {c.name}",
                ("pass" if c.verdict else "fail")
                + (f" ({c.witness})" if c.witness and not args.quiet else ""))
               for c in report.conditions]
        rec.append(("overall", "pass" if report.overall else "fail"))
        sections.append((name, None, rec))
    return sections


def _morita_contexts(df, built):
    """(section name, (R, A, E_R, E_A), context) per morita task.

    A section is named R|A|E_R, and R|A|E_R|E_A when tasks share R|A|E_R.
    """
    from .morita import MoritaContext

    specs = [dict(t) for t in df.tasks]
    if not specs:
        raise DefinitionError(
            "morita needs a task entry {'command': 'morita', 'R': .., 'A': .., "
            "'E_R': .., 'E_A': ..}"
        )
    heads = [(spec["R"], spec["A"], spec["E_R"]) for spec in specs]
    out = []
    for spec, head in zip(specs, heads):
        names = head + (spec["E_A"],)
        name = "|".join(names if heads.count(head) > 1 else head)
        ctx = MoritaContext(build_module(df, spec["E_R"], built),
                            build_module(df, spec["E_A"], built))
        out.append((name, names, ctx))
    return out


def _verified(ok) -> str:
    return ("pass" if ok else "fail") + " (corpus-verified)"


def cmd_morita(df, built, args):
    from .cache import cache_key, cached_table, resolve_cache_dir
    from .morita import (completion, completion_matches, retract_identity, roundtrip_FG,
                         torsion_roundtrip)

    window, definition = args.window, df.astuple()
    cache_path = resolve_cache_dir(args.cache_dir)
    sections = []
    for name, names, ctx in _morita_contexts(df, built):
        M = AModule.regular(ctx.R, "right")
        if args.check == "completion":
            key = cache_key("completion", definition, names, args.smax, window)
            def compute():
                table = completion(ctx, M, window, args.smax)
                table.notes = ("valid inside the window only",)
                return table
            table = cached_table(cache_path, key, compute)
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
    return sections


COMMANDS = {
    "ext": cmd_ext,
    "hochschild": cmd_hochschild,
    "azumaya": cmd_azumaya,
    "morita": cmd_morita,
    "homology": cmd_homology,
    "mu-image": cmd_mu_image,
}

# the flags each subcommand reads besides --file, --format, --cache-dir and --quiet
FLAGS = {"ext": ("--smax", "--window"), "hochschild": ("--nmax", "--window", "--budget"),
         "homology": ("--window",), "mu-image": (), "azumaya": ("--window", "--flavor"),
         "morita": ("--smax", "--window", "--check")}

OPTIONS = {
    "--smax": dict(type=int, default=8),
    "--nmax": dict(type=int, default=4),
    "--window": dict(default="-16:16", help="LO:HI internal degrees"),
    "--budget": dict(type=int, default=200000, help="generator budget for bar-complex stages"),
    "--flavor": dict(choices=("classical", "generalized", "weak"), default="classical"),
    "--check": dict(choices=("completion", "roundtrip", "torsion"), default="completion"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hhalg",
        description="exact homological algebra over graded bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--file", required=True, help="definition file (JSON)")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--quiet", action="store_true")
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, least in (("smax", 0), ("nmax", 0), ("budget", 1)):
        value = getattr(args, dest, least)
        if value < least:
            print(f"error: --{dest} must be at least {least}, got {value}", file=sys.stderr)
            return 1
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        df = parse_definition(text)
        built = {name: build_algebra(df, name) for name, _ in df.algebras}
        if "window" in args:
            args.window = _parse_window(args.window)
        sections = COMMANDS[args.command](df, built, args)
        _emit(sys.stdout, sections, args)
    except (DefinitionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, BudgetExceededError) else 1
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    stopped_short = any(table is not None and table.completed_through is not None
                        for _, table, _ in sections)
    return 2 if stopped_short else 0


if __name__ == "__main__":
    sys.exit(main())
