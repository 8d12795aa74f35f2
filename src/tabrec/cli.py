"""Command-line front end for tableau enumeration, minors, deck
reconstruction, and the exhaustive verification suites."""

import argparse
import functools
import sys

from .census import (
    VERIFY_SUITES,
    _class_lines,
    census,
    compute_H1_exact,
    verify_proposition,
)
from .core import (
    StandardTableau,
    TableauError,
    check_partition,
    enumerate_syt,
    enumerate_syt_all,
)
from .reconstruct import (
    Unique,
    format_outcome,
    reconstruct_from_multiset,
    reconstruct_from_set,
)
from .taquin import (
    Deck,
    DeckMultiset,
    delete_entry,
    minor_multiset,
    minor_set,
    slide_path,
)


def _parse_shape(text: str):
    try:
        return check_partition(int(tok) for tok in text.split(","))
    except (ValueError, TableauError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated partition: {exc}"
        ) from None


def _parse_jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


# one parser serves every run(): parse_args leaves it unchanged, and argparse
# finds sys.stdout, sys.stderr and the terminal width only when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabrec",
        description="Standard Young tableaux: jeu-de-taquin minors and "
        "reconstruction from decks of 1-minors.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    tableau_help = "tableau in text form, or - to read it from stdin"

    p = sub.add_parser(
        "enumerate", help="stream all standard tableaux of a given size"
    )
    p.add_argument("--n", type=int, required=True, help="number of entries")
    p.add_argument(
        "--shape",
        type=_parse_shape,
        help="restrict to one shape, comma-separated parts such as 4,3,1,1",
    )

    p = sub.add_parser("delete", help="delete one entry by jeu de taquin")
    p.add_argument("--tableau", required=True, help=tableau_help)
    p.add_argument("--entry", type=int, required=True, help="entry to delete")
    p.add_argument(
        "--trace", action="store_true", help="also print the slide path"
    )

    p = sub.add_parser("minors", help="print the deck of k-minors")
    p.add_argument("--tableau", required=True, help=tableau_help)
    p.add_argument("--k", type=int, default=1, help="minor order (default 1)")
    p.add_argument(
        "--multiset", action="store_true", help="count with multiplicity"
    )

    p = sub.add_parser(
        "reconstruct", help="reconstruct a tableau from a deck on stdin"
    )
    p.add_argument(
        "--multiset", action="store_true", help="read a multiset deck"
    )
    p.add_argument(
        "--expect-unique",
        action="store_true",
        help="exit 1 unless the outcome is unique",
    )

    p = sub.add_parser(
        "census", help="group all size-n tableaux by their decks"
    )
    p.add_argument("--n", type=int, required=True, help="tableau size")
    p.add_argument("--k", type=int, default=1, help="minor order (default 1)")
    p.add_argument(
        "--multiset", action="store_true", help="group by multiset decks"
    )
    p.add_argument(
        "--jobs", type=_parse_jobs, default=1, help="worker processes (default 1)"
    )
    p.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    p = sub.add_parser(
        "hbound", help="witness pair for the submultiset bound"
    )
    p.add_argument("--n", type=int, required=True, help="tableau size")
    p.add_argument(
        "--exact",
        action="store_true",
        help="also compute the exact bound (n >= 5); at n = 4, list the "
        "colliding multiset decks",
    )

    p = sub.add_parser("verify", help="run one exhaustive property suite")
    p.add_argument(
        "--suite", required=True, choices=sorted(VERIFY_SUITES)
    )
    p.add_argument(
        "--max-n", type=int, required=True, help="largest size to cover"
    )
    return parser


def _cmd_enumerate(args) -> int:
    if args.shape is not None:
        if sum(args.shape) != args.n:
            raise TableauError(
                f"shape {args.shape} has {sum(args.shape)} cells, --n is {args.n}"
            )
        tableaux = enumerate_syt(args.shape)
    else:
        tableaux = enumerate_syt_all(args.n)
    for t in tableaux:
        print(t.to_text())
    return 0


def _cmd_delete(args) -> int:
    text = sys.stdin.read() if args.tableau == "-" else args.tableau
    tableau = StandardTableau.from_text(text)
    print(delete_entry(tableau, args.entry).to_text())
    if args.trace:
        steps = slide_path(tableau, args.entry)
        print("path " + " ".join(f"({r},{c})" for r, c in steps))
    return 0


def _cmd_minors(args) -> int:
    text = sys.stdin.read() if args.tableau == "-" else args.tableau
    tableau = StandardTableau.from_text(text)
    minors = minor_multiset if args.multiset else minor_set
    print(minors(tableau, args.k).to_text())
    return 0


def _cmd_reconstruct(args) -> int:
    text = sys.stdin.read()
    if args.multiset:
        outcome = reconstruct_from_multiset(DeckMultiset.from_text(text))
    else:
        outcome = reconstruct_from_set(Deck.from_text(text))
    print(format_outcome(outcome))
    if args.expect_unique and not isinstance(outcome, Unique):
        return 1
    return 0


def _cmd_census(args) -> int:
    report = census(
        args.n,
        args.k,
        "multiset" if args.multiset else "set",
        jobs=args.jobs,
    )
    print(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_hbound(args) -> int:
    report = verify_proposition(args.n)
    classes = ()
    if args.exact and args.n >= 5:
        report = report.replace(exact_H1=compute_H1_exact(args.n))
    elif args.exact:
        classes = census(args.n, 1, "multiset").classes
    print("\n".join([report.to_text(), *_class_lines(classes)]))
    return 0


def _cmd_verify(args) -> int:
    violations = VERIFY_SUITES[args.suite](args.max_n)
    print(
        f"verify suite={args.suite} max-n={args.max_n} "
        f"violations={len(violations)}"
    )
    for violation in violations:
        print(violation, file=sys.stderr)
    return 1 if violations else 0


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "delete": _cmd_delete,
    "minors": _cmd_minors,
    "reconstruct": _cmd_reconstruct,
    "census": _cmd_census,
    "hbound": _cmd_hbound,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    """Parse and execute one invocation; returns the exit status.

    0 on success, 1 on a domain error (or a non-unique outcome under
    --expect-unique), 2 on a usage error.
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.verb](args)
    except BrokenPipeError:
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (TableauError, UnicodeDecodeError) as exc:  # stdin may not decode
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
