"""Command-line entry point.

Subcommands: validate, rank, profile, stats, synth. Every run is a pure
function of the input files and flags; rerunning any subcommand with the
same inputs produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import partial
from itertools import chain
from pathlib import Path

from .errors import PubrankError
from .registry import PUBLISHER_TYPES
from .report import RunConfig, _joined, run_profile, run_rank, run_stats, run_validate
from .samples import sample_registry_dir, sample_taxonomy_path

EXIT_OK = 0
EXIT_DIRTY = 1  # validate found problems in otherwise loadable inputs
EXIT_FATAL = 2


def _int_pair(form: str):
    """An argparse type for "int:int" values that names `form` in its error."""
    def parse(text: str) -> tuple[int, int]:
        try:
            start, _, end = text.partition(":")
            return int(start), int(end)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{form}, got {text!r}")
    return parse


def _path(text: str) -> Path:
    """An argparse type for a path flag that refuses "": Path("") is ".",
    the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("path must be non-empty")
    return Path(text)


def _parse_formats(text: str) -> tuple[str, ...]:
    """The comma-separated formats, stripped; RunConfig checks them."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_pipeline_flags(parser: argparse.ArgumentParser, need_out: bool) -> None:
    parser.add_argument("--corpus", type=_path, required=True, help="JSONL corpus file")
    parser.add_argument(
        "--registry-dir",
        type=_path,
        default=None,
        help="directory with publishers.csv / variants.csv / acquisitions.csv (default: bundled sample)",
    )
    parser.add_argument(
        "--taxonomy", type=_path, default=None,
        help="category,discipline,field CSV (default: bundled sample)",
    )
    parser.add_argument("--window", type=_int_pair("window must be YYYY:YYYY"),
                        default=RunConfig.window, metavar="YYYY:YYYY")
    parser.add_argument("--min-books", type=int, default=RunConfig.min_books)
    parser.add_argument("--min-chapters", type=int, default=RunConfig.min_chapters)
    parser.add_argument("--threshold-basis", choices=("scope", "global"), default=RunConfig.basis)
    parser.add_argument(
        "--format", type=_parse_formats, default=RunConfig.formats, metavar="csv,json,html",
        help="comma-separated output formats",
    )
    parser.add_argument(
        "--type", choices=(*PUBLISHER_TYPES, "all"), default="all",
        help="restrict rankings to one publisher type",
    )
    parser.add_argument("--strict", action="store_true", help="unresolved publisher names are fatal")
    if need_out:
        parser.add_argument("--out", type=_path, required=True, help="output directory")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        corpus=args.corpus,
        registry_dir=args.registry_dir if args.registry_dir is not None else sample_registry_dir(),
        taxonomy=args.taxonomy if args.taxonomy is not None else sample_taxonomy_path(),
        out=getattr(args, "out", None),
        window=args.window,
        min_books=args.min_books,
        min_chapters=args.min_chapters,
        basis=args.threshold_basis,
        formats=args.format,
        strict=args.strict,
        type_filter=None if args.type == "all" else args.type,
    )


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("publisher", help="publisher id or any registered name form")
    _add_pipeline_flags(parser, need_out=True)


def _add_synth_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=_path, required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--publishers", type=int, default=10)
    parser.add_argument("--items", type=_int_pair("items must be LO:HI"), default=(30, 70), metavar="LO:HI",
                        help="items per publisher, inclusive range")
    parser.add_argument("--chapter-fraction", type=float, default=0.5)
    parser.add_argument("--edited-fraction", type=float, default=0.5)
    parser.add_argument("--taxonomy", type=_path, default=None,
                        help="taxonomy to draw categories from (default: bundled sample)")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand. Given the `argv` it is to parse, it
    adds the flags of only the subcommands that `argv` names, as a run
    parses with one; each is still registered, so help and usage errors
    are the same."""
    parser = argparse.ArgumentParser(
        prog="pubrank",
        description="Rank academic book publishers by output and citation impact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        if argv is None or name in argv:
            add_flags(subparser)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    report = run_validate(_config_from(args))
    errors = sum(1 for d in report.diagnostics if d.severity == "error")
    dirty = bool(errors or report.unresolved)
    registry, taxonomy = report.registry, report.taxonomy
    lines = chain(
        [f"registry: {len(registry.publishers)} publishers, {len(registry.variant_rows)} variants, "
         f"{len(registry.acquisitions)} acquisitions",
         f"taxonomy: {taxonomy.field_count} fields, {taxonomy.discipline_count} disciplines",
         f"corpus: {report.ingested} records ingested, {report.filtered} in scope, "
         f"{report.resolved} resolved"],
        (f"  line {diag.line}: {diag.reason} [{diag.severity}]" for diag in report.diagnostics),
        (f"  unresolved publisher: {folded!r}" for folded in sorted(report.unresolved)),
        (f"  unknown category: {category!r}" for category in report.unknown_categories),
        [f"  {report.orphan_chapters} chapters reference books outside the corpus"]
        if report.orphan_chapters else [],
        [f"validation found problems: {errors} malformed lines, "
         f"{len(report.unresolved)} unresolved publishers" if dirty else "validation ok"],
    )
    # in parts, not a print call per line or one whole text: a dirty corpus
    # has tens of thousands of diagnostics. The flush is here so that a
    # closed stdout fails the command, not the interpreter's exit.
    sys.stdout.writelines(_joined("\n", lines))
    sys.stdout.write("\n")
    sys.stdout.flush()
    return EXIT_DIRTY if dirty else EXIT_OK


def _cmd_rank(args: argparse.Namespace) -> int:
    result, written = run_rank(_config_from(args))
    print(f"{result.filtered} items in window, {result.resolved} resolved, "
          f"{len(result.tables)} tables, {len(written)} files -> {args.out}")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    profile, written = run_profile(_config_from(args), args.publisher)
    print(f"{profile.publisher.name}: {len(profile.rows)} scope rows, "
          f"{len(profile.variants)} variants, {len(written)} files -> {args.out}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = run_stats(_config_from(args))

    def fmt_avg(value):
        return "-" if value is None else f"{value:.2f}"

    for fieldname in sorted(stats.per_field):
        fs = stats.per_field[fieldname]
        print(f"{fieldname}: {fs.disciplines} disciplines, {fs.publishers} publishers "
              f"({fs.commercial_publishers} commercial / {fs.university_publishers} university), "
              f"{fs.books} books, {fs.chapters} chapters, {fs.citations} citations, "
              f"avg cites/book {fmt_avg(fs.book_citation_avg)}, "
              f"avg cites/chapter {fmt_avg(fs.chapter_citation_avg)}")
    total = stats.total
    print(f"TOTAL: {total.publishers} publishers, {total.books} books, "
          f"{total.chapters} chapters, {total.citations} citations, "
          f"avg cites/book {fmt_avg(total.book_citation_avg)}, "
          f"avg cites/chapter {fmt_avg(total.chapter_citation_avg)}")
    if stats.unknown_categories:
        print(f"unknown categories: {', '.join(stats.unknown_categories)}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    from .taxonomy import load_taxonomy
    from .testkit import SynthParams, generate_corpus

    taxonomy_path = args.taxonomy if args.taxonomy is not None else sample_taxonomy_path()
    taxonomy = load_taxonomy(taxonomy_path)
    params = SynthParams(
        seed=args.seed,
        publisher_count=args.publishers,
        items_per_publisher=args.items,
        chapter_fraction=args.chapter_fraction,
        edited_fraction=args.edited_fraction,
    )
    result = generate_corpus(params, taxonomy, args.out)
    print(f"wrote {result.item_count} records -> {result.corpus_path}")
    print(f"registry -> {result.registry_dir}")
    print(f"taxonomy -> {result.taxonomy_path}")
    print(f"ledger -> {result.ledger_path}")
    return EXIT_OK


# each subcommand's help line, what adds its flags, and what runs it
_COMMANDS = {
    "validate": ("load and cross-check all inputs",
                 partial(_add_pipeline_flags, need_out=False), _cmd_validate),
    "rank": ("build and export every ranking table",
             partial(_add_pipeline_flags, need_out=True), _cmd_rank),
    "profile": ("export one publisher profile", _add_profile_flags, _cmd_profile),
    "stats": ("corpus coverage statistics per field",
              partial(_add_pipeline_flags, need_out=False), _cmd_stats),
    "synth": ("generate a synthetic corpus with ground truth", _add_synth_flags, _cmd_synth),
}


def run_cli(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    # A command keeps one record per input line alive to its walk or its end, and leaves
    # under two thousand objects in reference cycles, so cyclic collection
    # would only walk the live records again and again.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _, _, command = _COMMANDS[args.command]
        return command(args)
    except (PubrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
