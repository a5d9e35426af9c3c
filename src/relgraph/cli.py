"""Command-line experiment harness.

Subcommands mirror the library: generators, classification, exhaustive
traversal with loop/breadth/Hamilton accounting, the Euler-limit table over
complete graphs, the per-start invariant check, layered partition, the
coefficient search, the coloring trials, exact colouring, the
cycle-permutation power and the arc-sequence validators.

Each subcommand has one job, and argparse declares every argument it
reads, so argparse decides which argvs are legal (only the parameter count
of a ``gen`` family is checked by hand): a flag placed before the
subcommand, or one the subcommand does not read, is a usage error.
Output is TSV by default and a single JSON document with
``--json``.  Wall times are printed only with ``--times`` so that default
output is byte-identical across runs given the same seed.  ``--force``
lifts the size guards of ``gen``, ``euler``, ``bocps``, ``color`` and
``chromatic``; ``--threads N`` starts at most N workers, and no more than
the start has children.

Exit codes: 0 success, 1 usage error, 2 domain or size refusal, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import sys
import time
from argparse import ArgumentTypeError

from . import core, sequences
from .bocps import bocps
from .coloring import bogpc, boerc, chromatic_oracle, enumerate_mcivs
from .errors import DomainError, GraphError, InvariantViolation, SizeLimitError
from .partition import partition
from .traversal import search_report, traversal_invariant


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the harness reserves 2 for
    # domain refusals, so route usage problems through an exception instead
    def error(self, message):  # noqa: D102
        raise _UsageError(message)


# every flag a handler reads, declared only on the subcommands that read it
_FLAGS = {
    "--json": dict(action="store_true", help="emit one JSON document"),
    "--seed": dict(type=int, default=0, help="base seed for randomized runs"),
    "--threads": dict(type=int, default=1, help="at most this many subtree workers"),
    "--undirected": dict(action="store_true", help="mirror every arc on load"),
    "--force": dict(action="store_true", help="lift desk-scale size guards"),
    "--times": dict(action="store_true", help="include wall-time columns"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="relgraph")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, handler, help: str, *flags: str) -> _Parser:
        # no prefix matching: it would read `partition --seed 5` as `--seeds 5`
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    p = command("gen", _cmd_gen, "write a generated instance", "--force")
    p.add_argument("family", choices=list(_GEN_FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    p = command("classify", _cmd_classify, "print the instance class", "--json", "--undirected")
    p.add_argument("file")

    p = command("traverse", _cmd_traverse, "exhaustive search report",
                "--json", "--threads", "--undirected", "--times")
    p.add_argument("file")
    p.add_argument("--start", type=int, required=True)

    p = command("euler", _cmd_euler, "loop/breadth ratios over complete graphs",
                "--json", "--threads", "--force", "--times")
    p.add_argument("--max", type=int, default=9, dest="n_max")

    p = command("invariant", _cmd_invariant, "per-start Hamiltonian cycle counts",
                "--json", "--undirected")
    p.add_argument("file")

    p = command("partition", _cmd_partition, "layered region sequence", "--json", "--undirected")
    p.add_argument("file")
    p.add_argument("--seeds", type=_int_list, required=True, help="comma-separated seed vertices")

    p = command("bocps", _cmd_bocps, "minimal coefficients, gcd and lcm", "--json", "--force")
    p.add_argument("m1", type=int)
    p.add_argument("m2", type=int)

    p = command("color", _cmd_color, "randomized coloring trials",
                "--json", "--seed", "--undirected", "--force")
    p.add_argument("file")
    p.add_argument("--algo", choices=["bogpc", "boerc"], default="bogpc")
    p.add_argument("--trials", type=int, default=1)

    p = command("chromatic", _cmd_chromatic, "interval layouts, bound and chromatic number",
                "--json", "--undirected", "--force")
    p.add_argument("file")

    p = command("minpower", _cmd_minpower, "least identity power of the index-m cycle permutation")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)

    p = command("sequences", _cmd_sequences, "arc-sequence validators")
    p.add_argument("kind", choices=["trail", "path", "cycle", "medium", "chains"])
    p.add_argument("--arcs", type=_arc_sequence, required=True, help='arc list like "1-2,2-3,3-1"')

    return parser


def _emit(
    args, params: dict, columns: list[str], rows: list[dict], verdict: str | None = None
) -> None:
    if args.json:
        doc = {"command": args.command, "params": params, "rows": rows}
        if verdict is not None:
            doc["verdict"] = verdict
        print(json.dumps(doc, sort_keys=True))
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(str(row[c]) for c in columns))
        if verdict is not None:
            print(verdict)


def _load(args) -> core.MultiTraversalRelation:
    return core.load_graph(args.file, undirected=args.undirected)


def _report_row(args, label: str, g, start: int) -> dict:
    t0 = time.perf_counter()
    result, stats = search_report(g, start, threads=args.threads)
    elapsed = time.perf_counter() - t0
    ratio = result.loop_count / result.breadth if result.breadth else 0.0
    row = {
        "label": label,
        "loop_count": result.loop_count,
        "breadth": result.breadth,
        "ratio": f"{ratio:.9f}",
        "hp": stats.hamiltonian_paths,
        "hc": stats.hamiltonian_cycles,
    }
    if args.times:
        row["time_s"] = f"{elapsed:.3f}"
    return row


# family -> (parameter count, arc count of the instance, generator)
_GEN_FAMILIES = {
    "complete": (1, lambda n: n * (n - 1), core.gen_complete),
    "cycle": (1, lambda n: 2 * n, core.gen_cycle),
    "path": (1, lambda n: n - 1, core.gen_path),
    "grid": (2, lambda r, c: 2 * (r * (c - 1) + c * (r - 1)), core.gen_grid),
    "cycleseq": (2, lambda k, z: 6 * (z - 1) * k, core.gen_cycle_sequence),
    "dodecahedron": (0, lambda: 60, core.gen_dodecahedron),
}
_GEN_ARC_CAP = 1_000_000


def _cmd_gen(args) -> int:
    family, p = args.family, args.params
    arity, arc_count, make = _GEN_FAMILIES[family]
    if len(p) != arity:
        raise _UsageError(f"{family} takes {arity} integer parameter(s), got {len(p)}")
    arcs = arc_count(*(max(x, 0) for x in p))  # negative sizes meet the generator's refusal
    if arcs > _GEN_ARC_CAP and not args.force:
        raise SizeLimitError(f"{arcs} arcs exceed the {_GEN_ARC_CAP} cap; pass --force to insist")
    text = core.serialize_graph(make(*p))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_classify(args) -> int:
    g = _load(args)
    label = core.classify(g).value
    if args.json:
        _emit(args, {"file": args.file}, ["class"], [{"class": label}])
    else:
        print(label)
    return 0


def _cmd_traverse(args) -> int:
    g = _load(args)
    row = _report_row(args, args.file, g, args.start)
    params = {"file": args.file, "start": args.start, "threads": args.threads}
    _emit(args, params, list(row), [row])
    return 0


def _cmd_euler(args) -> int:
    if args.n_max < 3:
        raise DomainError("euler table needs --max >= 3")
    if args.n_max > 12 and not args.force:
        raise SizeLimitError("complete graphs beyond n=12 take hours; pass --force to insist")
    rows = []
    for n in range(3, args.n_max + 1):
        row = _report_row(args, f"K{n}", core.gen_complete(n), 1)
        row["n"] = n
        row["abs_err"] = f"{abs(row['loop_count'] / row['breadth'] - math.e):.9f}"
        rows.append(row)
    cols = ["n", "loop_count", "breadth", "ratio", "abs_err"]
    if args.times:
        cols.append("time_s")
    _emit(args, {"n_max": args.n_max}, cols, rows)
    return 0


def _cmd_invariant(args) -> int:
    g = _load(args)
    counts = traversal_invariant(g)
    values = set(counts.values())
    verdict = "PASS" if len(values) == 1 else "FAIL"
    rows = [{"start": start, "hc": hc} for start, hc in sorted(counts.items())]
    _emit(args, {"file": args.file}, ["start", "hc"], rows, verdict)
    if verdict == "FAIL":
        raise InvariantViolation("per-start Hamiltonian cycle counts disagree")
    return 0


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ArgumentTypeError(f"expected integers like 1,16, got {text!r}") from None


def _cmd_partition(args) -> int:
    g = _load(args)
    result = partition(g, args.seeds)
    row = {
        "regions": result.t,
        "sizes": ",".join(str(s) for s in result.sizes()),
        "stranded": len(result.stranded),
    }
    _emit(args, {"file": args.file, "seeds": args.seeds}, ["regions", "sizes", "stranded"], [row])
    return 0


# the scalar cursor takes about a second per 10^7 steps
_BOCPS_STEP_CAP = 10_000_000


def _cmd_bocps(args) -> int:
    m1, m2 = args.m1, args.m2
    # non-positive inputs meet bocps's own refusal; a positive pair needs
    # exactly (m1 + m2) / gcd(m1, m2) steps
    steps = (m1 + m2) // math.gcd(m1, m2) if min(m1, m2) > 0 else 0
    if steps > _BOCPS_STEP_CAP and not args.force:
        raise SizeLimitError(
            f"{steps} cursor steps exceed the {_BOCPS_STEP_CAP} cap; pass --force to insist"
        )
    row = dataclasses.asdict(bocps(m1, m2))
    _emit(args, {"m1": m1, "m2": m2}, ["k1", "k2", "gcd", "lcm", "loops"], [row])
    return 0


_TRIAL_ARC_CAP = 1_000_000  # trials x arcs; 100,000 trials on C5 take about 5 s


def _cmd_color(args) -> int:
    g = _load(args)
    if args.trials < 1:
        raise DomainError(f"--trials must be at least 1, got {args.trials}")
    if args.trials * len(g.arcs) > _TRIAL_ARC_CAP and not args.force:
        raise SizeLimitError(f"{args.trials} trials on {len(g.arcs)} arcs exceed the "
                             f"{_TRIAL_ARC_CAP} trial-arc cap; pass --force to insist")
    algo = bogpc if args.algo == "bogpc" else boerc
    counts = collections.Counter(algo(g, args.seed + trial).k for trial in range(args.trials))
    rows = [
        {"k": k, "count": counts[k], "freq": f"{counts[k] / args.trials:.3f}"}
        for k in sorted(counts)
    ]
    params = {"file": args.file, "algo": args.algo, "trials": args.trials, "seed": args.seed}
    _emit(args, params, ["k", "count", "freq"], rows)
    return 0


def _cmd_chromatic(args) -> int:
    g = _load(args)
    by_classes: collections.Counter[int] = collections.Counter()
    bound = g.n  # no layout has more parts than vertices
    for layout in enumerate_mcivs(g, force=args.force):
        by_classes[len(layout.classes)] += 1
        bound = min(bound, layout.bound)
    rows = [{"classes": k, "layouts": by_classes[k]} for k in sorted(by_classes)]
    chromatic = chromatic_oracle(g, force=args.force)
    params = {"file": args.file, "bound": bound, "chromatic": chromatic}
    _emit(args, params, ["classes", "layouts"], rows)
    if not args.json:
        print(f"bound\t{bound}\nchromatic\t{chromatic}")
    return 0


def _cmd_minpower(args) -> int:
    print(sequences.minimal_power(args.n, args.m))
    return 0


def _arc_sequence(text: str) -> sequences.ArcSequence:
    pairs = []
    for token in text.replace(",", " ").split():
        try:
            a, b = token.split("-")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ArgumentTypeError(f"bad arc token {token!r}, expected like 1-2") from None
    try:
        return sequences.ArcSequence.of(*pairs)
    except DomainError as exc:  # a ValueError, which argparse would report without its message
        raise ArgumentTypeError(str(exc)) from None


def _cmd_sequences(args) -> int:
    seq = args.arcs
    if args.kind == "trail":
        print(sequences.is_trail(seq))
    elif args.kind == "path":
        print(sequences.is_path(seq))
    elif args.kind == "cycle":
        print(sequences.is_cycle(seq))
    elif args.kind == "medium":
        print(",".join(str(v) for v in sequences.medium_vertices(seq)))
    elif args.kind == "chains":
        for chain in sequences.chains_of(seq):
            print(",".join(f"{a.tail}-{a.head}" for a in chain.arcs))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
