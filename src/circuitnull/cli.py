"""Command-line front door: parse inputs, dispatch, emit text or JSON."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from .errors import CapExceededError, InputFormatError, check_cap
from .gf2 import Gf2Matrix, nullity, rank
from .graphs import (
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    read_dow_text,
    read_edge_list_text,
)
from .interlace import interlace_graph, interlace_matrix, parse_looped_graph_text
from .partitions import (
    DEFAULT_SWEEP_CAP,
    parse_assignment,
    partition_matrix,
    trace,
    verify_extended_cle,
)
from .polynomials import (
    DEFAULT_PAIR_CAP,
    DEFAULT_SUBSET_CAP,
    courcelle,
    q_nullity,
    q_two_variable,
)
from .permutations import (
    orbit_count,
    orbit_count_via_nullity,
    parse_permutation,
    sigma_transposition_factorization,
    verify_permutation_reduction,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_INTERNAL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; keep 2 for counterexamples.
    def error(self, message: str):  # noqa: D102
        raise InputFormatError(message)


@contextmanager
def _input_errors():
    """Report a ValueError raised while reading or building user input as bad input."""
    try:
        yield
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def _read(path: str) -> str:
    with _input_errors():  # a file that is not UTF-8 text
        return Path(path).read_text()


def _system_from_dow(path: str):
    return from_double_occurrence_words(read_dow_text(_read(path)))


def _looped_graph_from_args(args):
    if (args.dow is None) == (args.graph is None):
        raise InputFormatError("give exactly one of --dow or --graph")
    if args.graph is not None:
        if args.loops:
            raise InputFormatError("--loops applies only to --dow input")
        return parse_looped_graph_text(_read(args.graph))
    _, es = _system_from_dow(args.dow)
    check_cap(len(es.graph.vertices), args.cap, *args.sweep)  # before the O(n^2) interlace graph
    loops = (args.loops or "").replace(",", " ").split()
    with _input_errors():  # a --loops vertex the word does not have
        return interlace_graph(es, loops)


# A handler returns its exit code and two callables, one rendering the text form and one
# building the JSON object; main calls only the one that --format selects.
def _cmd_nullity(args):
    m = Gf2Matrix.from_text(_read(args.matrix))
    return (
        EXIT_OK,
        lambda: f"nullity: {nullity(m)}",
        lambda: {"n": m.n, "labels": list(m.labels), "rank": rank(m), "nullity": nullity(m)},
    )


def _cmd_interlace_matrix(args):
    _, es = _system_from_dow(args.dow)
    m = interlace_matrix(es)
    return EXIT_OK, m.to_text, m.to_json_dict


def _cmd_poly(args):
    h = _looped_graph_from_args(args)
    poly = args.evaluator(h, cap=args.cap)
    return EXIT_OK, poly.to_text, poly.to_json_dict


def _cmd_partitions(args):
    g, es = _system_from_dow(args.dow)
    assignment = parse_assignment(args.assign, g.vertices)
    partition = trace(g, es, assignment)
    m = partition_matrix(es, assignment)
    nu = nullity(m)
    predicted = nu + len(es.circuits)

    def text() -> str:
        circuits = [f"circuit: {' '.join(w)}" for w in partition.words]
        matrix = m.to_text().rstrip("\n")
        tail = [f"nullity: {nu}", f"predicted: {predicted}", f"traced: {partition.size}"]
        return "\n".join([*circuits, "matrix:", matrix, *tail])

    return EXIT_OK, text, lambda: {
        "circuits": [list(w) for w in partition.words],
        "matrix": m.to_json_dict(),
        "nullity": nu,
        "predicted": predicted,
        "traced": partition.size,
    }


def _cmd_verify_cle(args):
    if (args.dow is None) == (args.edges is None):
        raise InputFormatError("give exactly one of --dow or --edges")
    if args.dow is not None:
        g, es = _system_from_dow(args.dow)
    else:
        with _input_errors():  # an edge list that is not 4-regular
            g = from_edge_list(read_edge_list_text(_read(args.edges)))
        es = euler_system(g)
    report = verify_extended_cle(g, es, cap=args.cap)

    def text() -> str:
        if report.ok:
            return f"{report.checked}/{report.checked} assignments verified"
        lines = [f"counterexample: {len(report.failures)} of {report.checked} assignments disagree"]
        for f in report.failures:
            lines.append(f"  {f.assignment}: traced {f.traced}, predicted {f.predicted}")
        return "\n".join(lines)

    return (EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE), text, report.to_json_dict


def _cmd_orbits(args):
    p = parse_permutation(args.perm)
    oracle = orbit_count(p)
    if args.via == "oracle":
        return EXIT_OK, lambda: f"orbits: {oracle}", lambda: {"orbits": oracle, "via": "oracle"}
    if args.via == "nullity":
        factors = sigma_transposition_factorization(p)
        if factors is None:
            raise InputFormatError(
                "permutation is not a full cycle times disjoint transpositions; "
                "try --via reduction"
            )
        predicted = orbit_count_via_nullity(p.size, factors)
        return (
            EXIT_OK if predicted == oracle else EXIT_COUNTEREXAMPLE,
            lambda: f"orbits: {predicted}",
            lambda: {
                "orbits": predicted,
                "via": "nullity",
                "transpositions": [list(t) for t in factors],
                "oracle": oracle,
            },
        )
    report = verify_permutation_reduction(p)
    return (
        EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE,
        lambda: (
            f"orbits: {report.orbits}\n"
            f"reduction: nullity={report.nullity} components={report.components} "
            f"traced={report.traced}"
        ),
        lambda: {"orbits": report.orbits, "via": "reduction", **report.to_json_dict()},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circuitnull",
        description=(
            "Circuit partitions, interlace matrices, and interlace polynomials "
            "of 4-regular multigraphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nullity", help="GF(2) nullity of a matrix file")
    p.add_argument("matrix", help="matrix file (size line, then 0/1 rows)")
    p.set_defaults(handler=_cmd_nullity)

    p = sub.add_parser("interlace-matrix", help="interlace matrix of an Euler system")
    p.add_argument("--dow", required=True)
    p.set_defaults(handler=_cmd_interlace_matrix)

    subsets, pairs = (DEFAULT_SUBSET_CAP, 2, "subsets"), (DEFAULT_PAIR_CAP, 3, "subset pairs")
    for name, help_text, evaluator, (default_cap, *sweep) in (
        ("qn", "vertex-nullity interlace polynomial", q_nullity, subsets),
        ("q2", "two-variable interlace polynomial", q_two_variable, subsets),
        ("courcelle", "multivariate interlace polynomial", courcelle, pairs),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dow", help="double occurrence word file (one component per line)")
        p.add_argument("--graph", help="looped-graph file (vertices:/loops:/edge lines)")
        p.add_argument("--loops", help="comma-separated loop vertices for --dow input")
        p.add_argument(
            "--cap", type=int, default=default_cap, help="vertex cap override for the sweep"
        )
        p.set_defaults(handler=_cmd_poly, evaluator=evaluator, sweep=sweep)

    p = sub.add_parser("partitions", help="trace one transition assignment")
    p.add_argument("--dow", required=True)
    p.add_argument("--assign", required=True, help='tokens like "1:F 2:X 3:C"')
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("verify-cle", help="exhaustively verify |P| = nullity + c(G)")
    p.add_argument("--dow")
    p.add_argument("--edges", help="edge list file (one 'u v' per line)")
    p.add_argument("--cap", type=int, default=DEFAULT_SWEEP_CAP)
    p.set_defaults(handler=_cmd_verify_cle)

    p = sub.add_parser("orbits", help="orbit count of a permutation")
    p.add_argument("--perm", required=True, help='"3 1 2" or "(1 3 2)(4 5)"')
    p.add_argument("--via", choices=("oracle", "nullity", "reduction"), default="oracle")
    p.set_defaults(handler=_cmd_orbits)

    for p in sub.choices.values():  # last, so it ends each subcommand's usage line
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, text, data = args.handler(args)
        out = json.dumps(data(), indent=2, sort_keys=True) if args.format == "json" else text()
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        return code
    except (InputFormatError, CapExceededError, OSError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a bare MemoryError
        return EXIT_INPUT_ERROR
    except (ValueError, RuntimeError) as exc:  # input errors are typed where input is parsed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
