"""Command line front end.

Exit codes: 0 success, 1 a mathematical finding (mismatch or failed
verification), 2 invalid input, 3 an enumeration cap was exceeded.
Reports go to stdout; diagnostics go to stderr.  Outputs are
deterministic byte for byte for identical inputs.

`verify` checks iota independence against the realization over the
reversed period, or over the period rotated by one position when the
period is a palindrome.  For rank 2 and up that is always a different
index sequence; rank 1 has only one index sequence, so there the check
compares the crystal with itself.
"""

from __future__ import annotations

import argparse
import sys

from .binfinity import (
    BInfinityCrystal,
    IotaSequence,
    graded_counts,
    transport_isomorphism_findings,
)
from .cartan import (
    BorcherdsCartanDatum,
    load_cartan,
    load_quiver,
    quiver_to_cartan,
    weight_height,
)
from .crystal import check_strict_morphism, export_graph, generate_graph, verify_axioms
from .errors import DepthExceededError, GkmError, InputError, StrippingStuckError
from .geometry import (
    DEFAULT_FLAG_DIM_BOUND,
    eps_point,
    eps_star_point,
    flag_exists,
    load_rep,
    moment_map,
    regular_semisimple_verdicts,
)
from .oracle import DEFAULT_HEIGHT_BOUND, graded_dim

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_datum(args) -> BorcherdsCartanDatum:
    if bool(args.cartan) == bool(args.quiver):
        raise InputError("provide exactly one of --cartan or --quiver")
    if args.cartan:
        return load_cartan(_read_file(args.cartan))
    return quiver_to_cartan(load_quiver(_read_file(args.quiver)))


def _parse_iota(spec: str, n: int) -> IotaSequence:
    if spec == "cyclic":
        return IotaSequence.from_spec("cyclic", n)
    try:
        period = [int(part) for part in spec.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --iota value {spec!r}") from exc
    try:
        return IotaSequence.from_spec(period, n)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cartan", help="path to a JSON Borcherds-Cartan matrix")
    parser.add_argument("--quiver", help="path to a JSON quiver (Omega arrows)")
    parser.add_argument("--iota", default="cyclic", help='index sequence: "cyclic" or a comma list, e.g. "1,2,1"')
    parser.add_argument("--cap", type=int, default=10000, help="node cap for enumeration")


def cmd_graph(args) -> int:
    datum = _load_datum(args)
    iota = _parse_iota(args.iota, datum.index_count)
    crystal = BInfinityCrystal(datum, iota)
    graph = generate_graph(crystal, crystal.highest_weight(), args.depth, args.cap)
    sys.stdout.write(export_graph(graph, args.format))
    return EXIT_OK


def cmd_dims(args) -> int:
    datum = _load_datum(args)
    if args.height > args.oracle_bound:
        raise InputError(f"--height {args.height} exceeds the oracle bound {args.oracle_bound}")
    iota = _parse_iota(args.iota, datum.index_count)
    crystal = BInfinityCrystal(datum, iota)
    counts = graded_counts(crystal, args.height, args.cap)
    weights = _positive_weights(datum.index_count, args.height)
    mismatches = 0
    print("weight\tcrystal\toracle\tmatch")
    for alpha in weights:
        crystal_count = counts.get(alpha, 0)
        oracle_count = graded_dim(datum, alpha, args.oracle_bound)
        ok = crystal_count == oracle_count
        if not ok:
            mismatches += 1
        print(f"{alpha}\t{crystal_count}\t{oracle_count}\t{'ok' if ok else 'MISMATCH'}")
    if mismatches:
        print(f"{mismatches} mismatching weights", file=sys.stderr)
        return EXIT_FINDING
    return EXIT_OK


def _positive_weights(n: int, max_height: int):
    out = []

    def rec(prefix, remaining_slots, budget):
        if remaining_slots == 0:
            out.append(tuple(prefix))
            return
        for c in range(budget + 1):
            rec(prefix + [c], remaining_slots - 1, budget - c)

    rec([], n, max_height)
    return sorted(out, key=lambda a: (weight_height(a), a))


def cmd_verify(args) -> int:
    datum = _load_datum(args)
    iota = _parse_iota(args.iota, datum.index_count)
    crystal = BInfinityCrystal(datum, iota)
    findings: list[str] = []
    try:
        elements, _, _ = crystal.enumerate_to_depth(args.depth, args.cap)
    except StrippingStuckError as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return EXIT_FINDING

    def check(name: str, problems) -> None:
        problems = list(problems)
        status = "ok" if not problems else "FAIL"
        print(f"{name}: {status}")
        for p in problems[:5]:
            print(f"  {p}")
        findings.extend(str(p) for p in problems)

    check("crystal axioms on enumerated nodes", verify_axioms(crystal, elements, datum))
    for i in range(1, datum.index_count + 1):
        try:
            psi, target = crystal.psi_morphism(i)
            problems = check_strict_morphism(psi, elements, crystal, target)
        except GkmError as exc:
            problems = [f"embedding at index {i} failed to evaluate: {exc}"]
        check(f"strict embedding through index {i}", problems)
    bad_weights = [crystal.key(b) for b in elements if any(c > 0 for c in crystal.wt(b))]
    check("weights lie in the negative cone", bad_weights)
    zero_wt = [crystal.key(b) for b in elements if not any(crystal.wt(b))]
    check("unique weight-zero element", [] if zero_wt == ["hw"] else [f"weight-zero elements: {zero_wt}"])
    stuck = [
        crystal.key(b)
        for b in elements
        if b.entries and all(crystal.e(i, b) is None for i in range(1, datum.index_count + 1))
    ]
    check("every non-head node can be raised", stuck)
    reverse = IotaSequence(tuple(reversed(crystal.iota.period)))
    alt = crystal.realization_with(reverse if reverse != crystal.iota else crystal.iota.shifted())
    check(
        "iota independence (transport is a graph isomorphism)",
        transport_isomorphism_findings(crystal, alt, args.depth, args.cap),
    )
    return EXIT_FINDING if findings else EXIT_OK


def _format_q(x) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cmd_geom(args) -> int:
    rep = load_rep(_read_file(args.rep))
    nv = rep.quiver.vertex_count
    mu_parts = []
    for i in range(1, nv + 1):
        mu_parts.append(f"v{i}:{'zero' if moment_map(rep, i).is_zero() else 'NONZERO'}")
    print("moment map: " + " ".join(mu_parts))
    witness = flag_exists(rep, max_total_dim=args.flag_bound)
    if witness is None:
        print("flag: not found (rational search)")
    else:
        rendered = ", ".join(
            f"(v{vertex}, [{', '.join(_format_q(x) for x in vec)}])" for vertex, vec in witness.steps
        )
        print(f"flag: found {rendered}")
    verdicts = regular_semisimple_verdicts(rep)
    if verdicts:
        print("regular semisimple: " + " ".join(f"h{k}:{str(v).lower()}" for k, v in sorted(verdicts.items())))
    else:
        print("regular semisimple: vacuous (no weak loops)")
    stats = " ".join(f"v{i}:({eps_point(rep, i)},{eps_star_point(rep, i)})" for i in range(1, nv + 1))
    print(f"(eps, eps*) = {stats}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm-crystals",
        description="Crystal graphs, graded dimensions and quiver-point invariants "
                    "for quantum generalized Kac-Moody algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="enumerate and export a crystal graph")
    _add_common(p_graph)
    p_graph.add_argument("--depth", type=int, required=True)
    p_graph.add_argument("--format", choices=("dot", "json"), default="json")
    p_graph.set_defaults(func=cmd_graph)

    p_dims = sub.add_parser("dims", help="compare crystal counts with the graded-dimension oracle")
    _add_common(p_dims)
    p_dims.add_argument("--height", type=int, required=True)
    p_dims.add_argument("--oracle-bound", type=int, default=DEFAULT_HEIGHT_BOUND,
                        help="height bound accepted by the oracle")
    p_dims.set_defaults(func=cmd_dims)

    p_verify = sub.add_parser("verify", help="run the structural verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--depth", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_geom = sub.add_parser("geom", help="report pointwise invariants of a quiver representation")
    p_geom.add_argument("--rep", required=True, help="path to a JSON representation file")
    p_geom.add_argument("--flag-bound", type=int, default=DEFAULT_FLAG_DIM_BOUND,
                        help="largest total dimension the flag search accepts")
    p_geom.set_defaults(func=cmd_geom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("depth", "cap", "height"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name} must be nonnegative, got {getattr(args, name)}")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DepthExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
