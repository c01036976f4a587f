"""Command-line frontend.

Each subcommand parses only the flags it reads, and --file, --format,
--quiet and --cache-dir.  Each builds what `parse_definition` checked and
returns its sections, (name, table or None, records), one per entry or task;
`_emit` writes them all as TSV or as a JSON mirror.  Exit codes: 0 =
computed (verdicts, pass or fail, live in the output), 1 = input error, 2 =
a budget or window was exceeded, or a table stopped short of the request,
3 = an invariant failed (ground.InvariantError, a bug).

The cache is the front door of `main`: after parsing the definition it
keys the run by the subcommand, `DefinitionFile.astuple()`, the value of
each flag in FLAGS and --quiet (azumaya leaves witnesses out under it), and
a hit emits the stored sections without building an algebra or importing
an engine module.  A miss runs the subcommand, stores its sections and
emits them; a run that raises stores nothing.  --format is not in the key:
TSV and JSON render the same sections.  Importing this module loads only
defs, ground and tables of hhalg; `main` loads cache, and each subcommand
imports the engine modules it reads when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .defs import (
    DefinitionError,
    build_algebra,
    build_module,
    parse_definition,
)
from .ground import BudgetExceededError, InvariantError
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
    from .dg import QuotientDGA

    found = [(n, e) for n, e in built.items() if isinstance(e, kind)]
    if not found:
        need = "a dg algebra" if kind is QuotientDGA else "at least one algebra"
        raise DefinitionError(f"{command} needs {need} entry")
    return found


def cmd_ext(df, built, args):
    from .algebra import GradedAlgebra
    from .resolve import ext_table

    return [(name, ext_table(A, s_max=args.smax, t_window=args.window), [])
            for name, A in _entries(built, GradedAlgebra, "ext")]


def cmd_hochschild(df, built, args):
    from .algebra import GradedAlgebra
    from .hochschild import hochschild_cohomology

    return [(name, hochschild_cohomology(A, n_max=args.nmax, window=args.window,
                                         budget=args.budget), [])
            for name, A in _entries(built, GradedAlgebra, "hochschild")]


def cmd_homology(df, built, args):
    from .dg import QuotientDGA, homology

    return [(name, homology(q.dga.complex(), args.window), [])
            for name, q in _entries(built, QuotientDGA, "homology")]


def cmd_mu_image(df, built, args):
    from .dg import QuotientDGA
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
    from .algebra import GradedAlgebra
    from .azumaya import check_classical_azumaya, check_generalized_azumaya, check_weak_azumaya
    from .dg import QuotientDGA

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
    """(section name, context) per morita task.

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
        name = "|".join(head + (spec["E_A"],) if heads.count(head) > 1 else head)
        ctx = MoritaContext(build_module(df, spec["E_R"], built),
                            build_module(df, spec["E_A"], built))
        out.append((name, ctx))
    return out


def _verified(ok) -> str:
    return ("pass" if ok else "fail") + " (corpus-verified)"


def cmd_morita(df, built, args):
    from .algebra import radical
    from .morita import (completion, completion_matches, retract_identity, roundtrip_FG,
                         torsion_roundtrip)
    from .resolve import AModule

    window = args.window
    sections = []
    for name, ctx in _morita_contexts(df, built):
        M = AModule.regular(ctx.R, "right")
        if args.check == "completion":
            table = completion(ctx, M, window, args.smax)
            table.notes = ("valid inside the window only",)
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
    "--window": dict(default="-16:16", help="LO:HI internal degrees reported and checked"),
    "--budget": dict(type=int, default=200000, help="generator budget for bar-complex stages"),
    "--flavor": dict(choices=("classical", "generalized", "weak"), default="classical"),
    "--check": dict(choices=("completion", "roundtrip", "torsion"), default="completion"),
}


def _cached_run(df, args):
    """The run's sections: stored under its key, or computed and then stored.

    The key holds each flag's value as given, so a hit replays a run whose
    window parsed; an unwritable cache directory costs the next run a
    recomputation, not this one its output.
    """
    from .cache import cache_key, cached_sections, resolve_cache_dir, serialize_sections, store

    cache_dir = resolve_cache_dir(args.cache_dir)
    key = cache_key(args.command, df.astuple(),
                    [getattr(args, flag[2:]) for flag in FLAGS[args.command]], args.quiet)
    sections = cached_sections(cache_dir, key)
    if sections is None:
        built = {name: build_algebra(df, name) for name, _ in df.algebras}
        if "window" in args:
            args.window = _parse_window(args.window)
        sections = COMMANDS[args.command](df, built, args)
        try:
            store(cache_dir, key, serialize_sections(sections))
        except OSError:
            pass
    return sections


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
        sections = _cached_run(df, args)
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
