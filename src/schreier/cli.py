"""Command-line front end.

Every analysis command prints one JSON document with the schema version,
the command name, the full configuration (flags, seeds) needed to
reproduce the run, and the result.  ``build`` alone prints raw SGF1
text.  Exit codes: 0 on success, 2 when an asserted inequality fails,
1 for usage errors, guard violations and results that JSON cannot
represent (NaN or infinity), which print nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from schreier.builders import (
    SPEC_GRAMMAR,
    action_from_spec,
    complete_ball,
    free_core,
    from_spec,
    parse_spec,
    restrict_to_orbit,
    tree_core,
)
from schreier.core import (
    GenSet,
    GraphInvariantError,
    InequalityViolation,
    InsufficientRadiusError,
    SGF1Error,
    SchreierGraph,
    Verdict,
    bfs_layers,
    format_word,
    layer_depths,
    parse_word,
    require_room,
    serialize,
)
from schreier.cycles import cycle_profile
from schreier.experiments import EXPERIMENTS
from schreier.irs import invariance_diagnostic, stabilizer_sample, uniform_conjugate
from schreier.local import ball_distance, bs_statistics, fix_density, local_approx_check
from schreier.spectral import (
    bipartition,
    estimate_rho_returns,
    markov_spectrum,
    product_return_bound,
    ramanujan_check,
    support_copies,
)
from schreier.walks import (
    conditioned_prefix_probabilities,
    return_counts,
    return_domination_reports,
    segment_distributions,
)


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, which drops its section tree once its text is
    out: a section lists its subsections' and the formatter's methods and
    names its parent and the formatter, so a usage or help text would
    otherwise leave the tree and the formatter as cyclic garbage."""

    def format_help(self) -> str:
        try:
            return super().format_help()
        finally:
            sections = [self._root_section]
            for section in sections:
                sections += [
                    func.__self__ for func, _ in section.items
                    if isinstance(func.__self__, self._Section)
                ]
                section.items.clear()
            self._root_section = self._current_section = None


class _RawFormatter(_Formatter, argparse.RawDescriptionHelpFormatter):
    """``_Formatter`` keeping the line breaks of a description or epilog."""


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 (2 is reserved for violated
    inequalities), and every flag has one spelling: no prefixes, so that
    ``--config`` can tell which flags are given explicitly."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ball_root(core: SchreierGraph, radius: int, horizon: int) -> bool:
    """Refuse the root's return counts to ``horizon`` as on
    ``complete_ball(core, radius)``, and say whether that ball is
    bipartite, from one search of the core to depth R.  At every horizon
    the guard admits, the ball's root counts are the core's (a whole
    graph reads as a complete core).

    The ball's boundary is its sphere vertices with an undefined slot, so
    if it has one, the root's distance to it is R.  It has one exactly
    when (a) a core vertex lies beyond R: the core being connected, one
    lies at R + 1, and its edge to the sphere is undefined in the ball; or
    (b) a core vertex v with an undefined slot lies at distance k ≤ R, and
    k = R or d ≥ 2: v is on the sphere if k = R, and otherwise hangs a
    tree whose vertices at depth R − k are, with d − 1 undefined slots
    each.  For d ≥ 2 the ball thus has no boundary iff the core is
    complete and lies within R.

    Ball distances are graph distances and tree edges join consecutive
    ones, so the ball is bipartite iff no core edge joins two vertices at
    the same distance ≤ R.
    """
    # no core vertex lies farther than n − 1, however large R is
    order, ends = bfs_layers(core.slots, core.root, min(radius, core.n))
    depth = layer_depths(core.n, order, ends)  # −1 beyond R and for a missing slot
    partial = depth[list(core.boundary)]
    if len(order) < core.n or (partial >= 0).any() and (core.degree > 1 or radius in partial):
        require_room("return counts", 0, radius, (horizon + 1) // 2)
    return not (depth[core.slots[order]] == depth[order][:, None]).any()


def _parse_rank(group: str) -> int:
    if group and group[0] in "Ff" and group[1:].isdigit():
        return int(group[1:])
    raise ValueError(f"unknown group {group!r} (expected F<rank>, e.g. F2)")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _free_ball(rank: int, n: int):
    """The radius-n/2 ball of F_rank, which holds every returning length-n walk."""
    if n < 2 or n % 2:
        raise ValueError("returning-word checks concern even n >= 2")
    return complete_ball(free_core(rank), n // 2)


def _random_support(gens: GenSet, rng: random.Random) -> list[str | None]:
    support: list[str | None] = []
    for l in range(gens.degree):
        partner = gens.inv[l]
        if partner < l:
            continue
        count = rng.randrange(3)
        if partner == l:
            support += [gens.labels[l]] * count
        else:
            support += [gens.labels[l], gens.labels[partner]] * count
    support += [None] * rng.randrange(3)
    if not support:
        support.append(None)
    rng.shuffle(support)
    return support


def _parse_supports(text: str) -> list[list[str | None]]:
    sequence = []
    for chunk in text.split(";"):
        entries: list[str | None] = []
        for name in chunk.split(","):
            name = name.strip()
            if name:
                entries.append(None if name == "e" else name)
        if not entries:
            raise ValueError("every support needs at least one entry")
        sequence.append(entries)
    if not sequence:
        raise ValueError("no supports given")
    return sequence


def _branch_flags(args, taken: bool, refusal: str, **defaults) -> None:
    """Flags that one branch of a command reads parse as None: fill in
    their defaults when that branch is taken, so that ``config`` echoes
    them, and refuse them with ``refusal`` when it is not."""
    for key, default in defaults.items():
        if not taken and getattr(args, key) is not None:
            raise ValueError(refusal)
        if taken and getattr(args, key) is None:
            setattr(args, key, default)


def _require_least(flag: str, value: int | None, least: int) -> None:
    """Refuse a flag value below which a check has no row to check: an
    empty row list would read as a verdict that nothing certifies."""
    if value is not None and value < least:
        raise ValueError(
            f"{flag} {value} leaves nothing to check; it must be at least {least}"
        )


def _build_parser() -> _Parser:
    """The whole argparse tree, built once at import into ``_PARSER``, so
    that no ``run`` pays its build or leaves its objects as garbage."""
    parser = _Parser(prog="schreier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="emit a graph as SGF1 text", epilog=SPEC_GRAMMAR,
                       formatter_class=_RawFormatter)
    p.add_argument("spec")
    p.add_argument("--out")

    p = sub.add_parser("spectrum", help="exact Markov-operator eigenvalues")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("rho-estimate", help="certified spectral-radius lower bound "
                       "from return counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--out")

    p = sub.add_parser("ramanujan", help="compare rho0 against the tree value")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")

    p = sub.add_parser("walks", help="exact return counts at the root")
    p.add_argument("--graph", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--vertex", type=int)
    p.add_argument("--out")

    p = sub.add_parser("lemma-check", help="verify one of the walk/operator/ball "
                       "inequalities on a concrete instance")
    checks = p.add_subparsers(dest="check", required=True, parser_class=_Parser)
    c = {
        name: checks.add_parser(name, help=check.__doc__, description=check.__doc__)
        for name, check in _CHECKS.items()
    }
    transitive = dict(action="store_true", help="skip the vertex-transitivity "
                      "check (truncated inputs whose full graph is transitive, "
                      "e.g. tree balls)")
    q = c["different"]
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--tree-degree", type=int, help="the regular tree of "
                        "this degree, from its one-vertex core instead of a "
                        "stored graph")
    q.add_argument("--n", type=int, required=True,
                   help="check every even length up to n")
    q.add_argument("--assume-transitive", **transitive)
    q.set_defaults(assume_transitive=None)  # read with --graph only
    q = c["returningvsrw"]
    q.add_argument("--graph", required=True)
    q.add_argument("--n", type=int, required=True, help="walk length")
    q.add_argument("--prefix-length", type=int, default=2,
                   help="prefix length cap")
    q.add_argument("--assume-transitive", **transitive)
    for q in (c["triv1"], c["triv2"]):
        q.add_argument("--group", required=True, help="F<rank>, the free group")
        q.add_argument("--n", type=int, required=True, help="word length")
        q.add_argument("--k", type=int, default=3,
                       help="prefix / segment length cap")
    q = c["modifiedrw"]
    q.add_argument("--action", required=True)
    supports = q.add_mutually_exclusive_group(required=True)
    supports.add_argument("--supports", help="semicolon-separated supports "
                          "of comma-separated labels, 'e' for identity")
    supports.add_argument("--random", type=int, metavar="COUNT",
                          help="number of random support sequences")
    q.add_argument("--seed", type=int,
                   help="seed of the --random draws (default 0)")
    q = c["subgroupnorm"]
    q.add_argument("--action", required=True)
    q.add_argument("--support", required=True,
                   help="comma-separated labels, 'e' for identity")
    q = c["lekv"]
    q.add_argument("--action", action="append", required=True,
                   help="repeatable")
    q.add_argument("--radius", type=int, default=2, help="ball radius")
    q.add_argument("--words", help="comma-separated words (default: every "
                   "reduced word of length at most twice the radius)")
    q.add_argument("--restrict", action="store_true",
                   help="restrict each action to the orbit of 0 first")
    for q in c.values():
        q.add_argument("--out")

    p = sub.add_parser("bs-stats", help="ball-class frequencies over all roots")
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("ball-distance", help="rooted distance 1/k for the largest "
                       "radius k with isomorphic k-balls (1 if the 1-balls differ; "
                       "1/max-radius with exact false if every radius agrees)")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--max-radius", type=int, default=32)
    p.add_argument("--out")

    p = sub.add_parser("fix-density", help="fraction of points a word fixes")
    p.add_argument("--action", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--out")

    p = sub.add_parser("cycles", help="girth and exact short-cycle counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--lmax", type=int, default=6)
    p.add_argument("--out")

    p = sub.add_parser("irs-sample", help="stabilizer ensemble of an action, with an "
                       "invariance diagnostic")
    p.add_argument("--action", required=True)
    p.add_argument("--count", type=int, help="samples to draw (default 1000)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--exact", action="store_true",
                   help="exact uniform-conjugate ensemble instead of sampling")
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="run a named experiment recipe; its "
                       "flags are the recipe's keyword parameters")
    recipes = p.add_subparsers(dest="name", required=True, parser_class=_Parser)
    for name in sorted(EXPERIMENTS):
        r = recipes.add_parser(name)
        for param in inspect.signature(EXPERIMENTS[name]).parameters.values():
            default = param.default
            r.add_argument(
                "--" + param.name.replace("_", "-"),
                type=_parse_ints if isinstance(default, tuple) else type(default),
                default=default,
                help="default: %(default)s",
            )
        r.add_argument("--out")

    return parser


def _echo_config(args: argparse.Namespace, config_file: str | None) -> dict:
    config = {}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "out") or value is None:
            continue
        config[key.replace("_", "-")] = value
    if config_file is not None:
        config["config-file"] = config_file
    return config


def plain(value, name: str) -> tuple[object, dict[str, dict]]:
    """``value`` as JSON data: floats to 12 significant digits, ``Fraction``s
    as ``{"num": p, "den": q}`` and each ``Verdict`` as its boolean, listed
    in the verdicts block under its dotted path below ``value`` with its
    certificate.  A NaN or infinity is refused, named by its path from
    ``name``, since JSON cannot represent it."""
    verdicts: dict[str, dict] = {}
    return _plain_walk(value, name, verdicts), verdicts


_LEAVES = frozenset({str, int, bool, type(None)})  # by exact type: np.float64 is rounded


def _plain_walk(value, path, verdicts: dict[str, dict]):
    """``plain``'s walk of ``value`` at ``path``, listing each verdict in
    ``verdicts``.  ``path`` is the name or a (parent path, key) pair,
    joined into its dotted text only where a verdict or an error names it."""
    if type(value) in _LEAVES:
        return value
    if isinstance(value, Verdict):
        entry = {"value": value.value, "certificate": value.certificate}
        verdicts[_dotted(path).partition(".")[2]] = entry
        return value.value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{_dotted(path)} is {value}, which JSON cannot represent")
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {key: _plain_walk(item, (path, key), verdicts) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_walk(item, (path, i), verdicts) for i, item in enumerate(value)]
    return value


def _dotted(path) -> str:
    """A ``_plain_walk`` path as its dotted text, e.g. ``result.rows.1``."""
    keys = []
    while isinstance(path, tuple):
        path, key = path
        keys.append(f"{key}")
    return ".".join([path, *reversed(keys)])


def _emit(args: argparse.Namespace, config_file: str | None, result: dict) -> None:
    config, _ = plain(_echo_config(args, config_file), "config")
    result, verdicts = plain(result, "result")
    doc = {"schema": 1, "command": args.command, "config": config, "result": result}
    if verdicts:
        doc["verdicts"] = verdicts
    _write_out(json.dumps(doc) + "\n", getattr(args, "out", None))


def _write_out(text: str, out: str | None) -> None:
    """Print ``text`` and, given a path, write it to that file too, in
    1 MB slices: neither stream encodes a second whole copy of the text.
    The file is opened first, so a path that cannot be written prints
    nothing."""
    with open(out, "w") if out else contextlib.nullcontext() as file:
        for start in range(0, len(text), 1 << 20):
            piece = text[start : start + (1 << 20)]
            sys.stdout.write(piece)
            if file:
                file.write(piece)


# ---------------------------------------------------------------------------
# lemma-check handlers
# ---------------------------------------------------------------------------


def _prefix_rows(gens: GenSet, rows) -> list[dict]:
    """One output row per (prefix w, probability) pair, with the floor d^(-2|w|)."""
    return [
        {
            "prefix": format_word(gens, w),
            "probability": p,
            "bound": Fraction(1, gens.degree ** (2 * len(w))),
        }
        for w, p in rows
    ]


def _check_different(args) -> dict:
    """at even n, the return count dominates every other endpoint count
    and is at most d^2 times the return count at n - 2"""
    _branch_flags(args, args.graph is not None, "--assume-transitive is for "
                  "--graph; the regular tree is transitive", assume_transitive=False)
    _require_least("--n", args.n, 2)
    if args.tree_degree is not None:
        label = f"{args.tree_degree}-regular tree"
        source, transitive = tree_core(args.tree_degree), True
    else:
        label, source, transitive = args.graph, from_spec(args.graph), args.assume_transitive
    reports = return_domination_reports(
        source, args.n - args.n % 2, vertex_transitive=transitive
    )
    rows = [
        {
            "n": r.n,
            "return_count": r.return_count,
            "max_other_count": r.max_other_count,
            "previous_return_count": r.previous_return_count,
        }
        for r in reports
    ]
    return {"source": label, "rows": rows, "holds": Verdict(True, "exact")}


def _check_returningvsrw(args) -> dict:
    """a returning length-n walk starts with prefix w with probability at
    least d^(-2|w|) (vertex-transitive graphs)"""
    _require_least("--prefix-length", args.prefix_length, 1)
    g = from_spec(args.graph)
    _, rows = conditioned_prefix_probabilities(
        g, g.root, args.n, args.prefix_length,
        vertex_transitive=args.assume_transitive,
    )
    return {"n": args.n, "rows": _prefix_rows(g.gens, rows), "holds": Verdict(True, "exact")}


def _check_triv1(args) -> dict:
    """a uniform returning length-n word of F_r starts with prefix w with
    probability at least (2r)^(-2|w|)"""
    _require_least("--k", args.k, 1)
    g = _free_ball(_parse_rank(args.group), args.n)
    _require_least("--n", args.n, 4)
    kmax = min(args.k, (args.n - 1) // 2)
    total, rows = conditioned_prefix_probabilities(
        g, g.root, args.n, kmax, vertex_transitive=True
    )
    return {
        "n": args.n,
        "word_count": total,
        "prefix_length_max": kmax,
        "rows": _prefix_rows(g.gens, rows),
        "holds": Verdict(True, "exact"),
    }


def _check_triv2(args) -> dict:
    """a uniform returning length-n word of F_r has the same segment
    distribution at every cyclic shift"""
    _require_least("--k", args.k, 1)
    g = _free_ball(_parse_rank(args.group), args.n)
    kmax = min(args.k, args.n)
    total, laws = segment_distributions(g, g.root, args.n, kmax)
    for k, by_shift in laws.items():
        for t in range(1, args.n):
            if by_shift[t] != by_shift[0]:
                raise InequalityViolation(
                    f"segment distribution at cyclic shift {t} differs (k={k})"
                )
    return {
        "n": args.n,
        "word_count": total,
        "segment_length_max": kmax,
        "segment_classes": {k: len(by_shift[0]) for k, by_shift in laws.items()},
        "shifts_checked": args.n - 1,
        "identical": Verdict(True, "exact"),
    }


def _check_modifiedrw(args) -> dict:
    """a product of uniform steps from the supports fixes point 0 with
    probability at most the product of their operator norms.  On a finite
    action each averaged operator is symmetric and doubly stochastic, so
    every norm is 1 and the check only shows the probability is at most 1"""
    _branch_flags(args, args.random is not None, "--seed draws the --random "
                  "supports; --supports takes none", seed=0)
    _require_least("--random", args.random, 1)
    act = action_from_spec(args.action)
    if args.supports is not None:
        sequences = [_parse_supports(args.supports)]
    else:
        rng = random.Random(args.seed)
        sequences = [
            [_random_support(act.gens, rng) for _ in range(rng.randrange(1, 4))]
            for _ in range(args.random)
        ]
    rows = []
    for seq in sequences:
        bound = product_return_bound(act, seq)
        rows.append(
            {
                "supports": [[name or "e" for name in sup] for sup in seq],
                "probability": bound.probability,
                "norms": bound.norms,
                "bound": bound.bound,
            }
        )
    return {"action": args.action, "sequences": rows, "holds": Verdict(True, "theorem")}


def _check_subgroupnorm(args) -> dict:
    """a support's averaged operator is one copy of its subgroup's graph
    per coset, so its norm is that graph's spectral radius"""
    act = action_from_spec(args.action)
    support = _parse_supports(args.support)[0]
    subgraph, index = support_copies(act, support)  # exact, or refused
    sub_spectrum = markov_spectrum(subgraph)
    return {
        "action": args.action,
        "support": [name or "e" for name in support],
        "operator_norm": max(abs(sub_spectrum[0]), abs(sub_spectrum[-1])),
        "subgroup_order": subgraph.n,
        "index": index,
        "subgroup_spectrum": sub_spectrum.tolist(),
        "max_deviation": 0.0,
        "copies_verified": Verdict(True, "exact"),
    }


def _check_lekv(args) -> dict:
    """with P the share of tree balls, each reduced word of length <= 2R
    fixes at most 1 - P of the points, and P >= 1 - their fix-density sum"""
    actions = [action_from_spec(spec) for spec in args.action]
    if args.restrict:
        actions = [restrict_to_orbit(act) for act in actions]
    words = None
    if args.words is not None:
        gens = actions[0].gens
        words = [parse_word(gens, w) for w in args.words.split(",") if w]
        if not words:
            raise ValueError("--words names no word, which leaves nothing to check")
    reports = local_approx_check(actions, args.radius, words=words)
    rows = []
    for spec, report in zip(args.action, reports):
        row = {
            "action": spec,
            "n": report.n,
            "tree_ball_probability": report.tree_ball_probability,
            "words_checked": len(report.densities),
            "words_complete": report.words_complete,
            "density_sum": report.density_sum,
        }
        if len(report.densities) <= 64:
            row["densities"] = [[format_word(actions[0].gens, w), d] for w, d in report.densities]
        rows.append(row)
    return {"radius": args.radius, "rows": rows, "holds": Verdict(True, "exact")}


_CHECKS = {
    "different": _check_different,
    "returningvsrw": _check_returningvsrw,
    "triv1": _check_triv1,
    "triv2": _check_triv2,
    "modifiedrw": _check_modifiedrw,
    "subgroupnorm": _check_subgroupnorm,
    "lekv": _check_lekv,
}

# a constant, not a memo cache: bench/jobs.py empties those before every job
_PARSER = _build_parser()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(args: argparse.Namespace, config_file: str | None) -> int:
    if args.command == "build":
        _write_out(serialize(from_spec(args.spec)), args.out)
        return 0

    if args.command == "spectrum":
        g = from_spec(args.graph)
        eigenvalues = markov_spectrum(g)
        result = {
            "n": g.n,
            "degree": g.degree,
            "bipartite": bipartition(g) is not None,
            "eigenvalues": eigenvalues.tolist(),
        }
    elif args.command == "rho-estimate":
        source, radius = parse_spec(args.graph)
        bounds = estimate_rho_returns(source, args.horizon)  # checks the horizon first
        result = {
            "horizon": args.horizon,
            "certified_lower_bound": bounds[-1],
            "bipartite": bipartition(source) is not None
            if radius is None
            else _ball_root(source, radius, args.horizon),
        }
    elif args.command == "ramanujan":
        g = from_spec(args.graph)
        verdict = ramanujan_check(g)
        result = {
            "n": verdict.report.n,
            "degree": verdict.report.d,
            "rho0": verdict.report.rho0,
            "threshold": verdict.threshold,
            "verdict": verdict.ramanujan,
            "strict": verdict.ramanujan_strict,
            "equality": verdict.equality,
            # an unconverged solve bounds nothing; its verdicts are undecided
            "error_bound": verdict.report.error_bound if verdict.report.converged else None,
            "converged": verdict.report.converged,
        }
    elif args.command == "walks":
        if args.vertex is None:
            source, radius = parse_spec(args.graph)
            if radius is not None:
                _ball_root(source, radius, args.horizon)
            x = source.root
        else:
            source, radius, x = from_spec(args.graph), None, args.vertex
        counts = list(return_counts(source, x, args.horizon))
        result = {
            "vertex": x if radius is None else 0,  # a ball's root is 0
            "horizon": args.horizon,
            "return_counts": counts,
            "return_probabilities": [c / source.gens.degree**k for k, c in enumerate(counts)],
        }
    elif args.command == "lemma-check":
        result = _CHECKS[args.check](args)
    elif args.command == "bs-stats":
        g = from_spec(args.graph)
        dist = bs_statistics(g, args.radius)
        result = {
            "radius": args.radius,
            "n": dist.n,
            "class_count": len(dist.frequencies),
            "classes": [
                {"digest": digest, "frequency": freq}
                for digest, freq in dist.frequencies.items()
            ],
        }
    elif args.command == "ball-distance":
        first = from_spec(args.first)
        second = from_spec(args.second)
        outcome = ball_distance(first, second, max_radius=args.max_radius)
        result = {
            "value": outcome.value,
            "agreement_radius": outcome.agreement_radius,
            "exact": outcome.exact,
        }
    elif args.command == "fix-density":
        act = action_from_spec(args.action)
        word = parse_word(act.gens, args.word)
        density = fix_density(act, word)
        result = {
            "word": args.word,
            "points": act.degree,
            "density": density,
            "value": float(density),
        }
    elif args.command == "cycles":
        profile = cycle_profile(from_spec(args.graph), args.lmax)
        result = {
            "label": args.graph,
            "n": profile.n,
            "girth": None if math.isinf(profile.girth) else profile.girth,
            "counts": list(profile.counts),
            "densities": profile.densities,
            "method": profile.method,
        }
    elif args.command == "irs-sample":
        _branch_flags(args, not args.exact, "--exact enumerates every conjugate; "
                      "it takes no --count or --seed", count=1000, seed=0)
        act = action_from_spec(args.action)
        if args.exact:
            ensemble = uniform_conjugate(act)
        else:
            ensemble = stabilizer_sample(act, args.count, args.seed)
        diag = invariance_diagnostic(ensemble, args.radius)
        result = {
            "kind": ensemble.kind,
            "provenance": {
                "source": ensemble.provenance.source,
                "seed": ensemble.provenance.seed,
                "sample_count": len(ensemble.samples),
            },
            "radius": args.radius,
            "ball_classes": [
                {"digest": digest, "weight": w} for digest, w in diag.distribution.items()
            ],
            "invariance": {
                "per_generator": diag.per_generator,
                "max_tv": diag.max_tv,
                "confidence_radius": diag.confidence_radius,
            },
        }
    elif args.command == "experiment":
        recipe = EXPERIMENTS[args.name]
        params = inspect.signature(recipe).parameters
        result = recipe(**{key: getattr(args, key) for key in params})
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command!r}")

    _emit(args, config_file, result)
    return 0


def _apply_config(argv: list[str]) -> tuple[list[str], str | None]:
    """Splice `key = value` lines from --config FILE (or --config=FILE) in
    as flags before the explicit ones.  Explicit flags win: a file flag is
    dropped when it, or a member of its mutually exclusive group in the
    command the argv names, is given explicitly."""
    at = next(
        (i for i, token in enumerate(argv) if token.split("=", 1)[0] == "--config"),
        None,
    )
    if at is None:
        return argv, None
    _, joined, path = argv[at].partition("=")
    if not joined:
        path = argv[at + 1] if at + 1 < len(argv) else ""
    if not path:
        raise ValueError("--config needs a file path")
    rest = argv[:at] + argv[at + 1 + (not joined) :]
    parser, head = _PARSER, 0  # walk the command words down to the command's own parser
    while head < len(rest) and not rest[head].startswith("-"):
        subs = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs[0].get(rest[head], parser) if subs else parser
        head += 1
    taken = {token.split("=", 1)[0] for token in rest[head:] if token.startswith("--")}
    for group in parser._mutually_exclusive_groups:
        names = {name for action in group._group_actions for name in action.option_strings}
        if names & taken:
            taken |= names
    injected: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line without '=': {line!r}")
        flag = "--" + key.strip().replace("_", "-")
        value = value.strip()
        if flag in taken or value.lower() in ("false", "no", "off"):
            continue
        injected += [flag] if value.lower() in ("true", "yes", "on") else [flag, value]
    return rest[:head] + injected + rest[head:], path


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config_file = _apply_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args, config_file)
    except InequalityViolation as exc:
        print(f"inequality violated: {exc}", file=sys.stderr)
        return 2
    except (
        ValueError,
        KeyError,
        GraphInvariantError,
        SGF1Error,
        InsufficientRadiusError,
        OSError,
    ) as exc:
        # a string, not the exception: its traceback would hold this frame
        reason = str(exc.args[0] if isinstance(exc, KeyError) and exc.args else exc)
        print(f"error: {reason}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
