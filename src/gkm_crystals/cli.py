"""Command line front end.

Exit codes: 0 success, 1 a mathematical finding (mismatch or failed
verification), 2 invalid input, 3 more than crystal.NODE_CAP (10000)
elements enumerated, 4 an internal error: any other exception a command
raises, such as the InternalInconsistencyError tripwire.
Reports go to stdout, and only once they are complete: a run that ends
with exit code 2, 3 or 4 writes nothing there.  Diagnostics go to stderr,
one line for exit codes 2-4.  Outputs are deterministic byte for byte for
identical inputs.

`verify` enumerates its window once, and every check reads it.  It checks
iota independence against the realization over the reversed period, or
over the period rotated by one position when the period is a palindrome.
For rank 2 and up that is always a different index sequence; rank 1 has
only one index sequence, so there the check compares the crystal with
itself.  The check is `check_strict_morphism` of transport on the window,
and the target is not enumerated: wt is preserved and the head is the
only element of weight 0, so injectivity and f_i commutation make
transport a bijection onto the target's window, by induction on depth.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
from .errors import DepthExceededError, InputError
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
EXIT_INTERNAL = 4


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_datum(args) -> BorcherdsCartanDatum:
    if bool(args.cartan) == bool(args.quiver):
        raise InputError("provide exactly one of --cartan or --quiver")
    if args.cartan:
        return load_cartan(_read_file(args.cartan))
    return quiver_to_cartan(load_quiver(_read_file(args.quiver)))


def _load_crystal(args) -> BInfinityCrystal:
    """The B(inf) realization named by --cartan/--quiver and --iota."""
    datum = _load_datum(args)
    spec = args.iota
    if spec != "cyclic":
        try:
            spec = [int(part) for part in spec.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --iota value {args.iota!r}") from exc
    return BInfinityCrystal(datum, IotaSequence.from_spec(spec, datum.index_count))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cartan", help="path to a JSON Borcherds-Cartan matrix")
    parser.add_argument("--quiver", help="path to a JSON quiver (Omega arrows)")
    parser.add_argument("--iota", default="cyclic", help='index sequence: "cyclic" or a comma list, e.g. "1,2,1"')


def cmd_graph(args) -> tuple[int, str]:
    crystal = _load_crystal(args)
    graph = generate_graph(crystal, crystal.highest_weight(), args.depth)
    return EXIT_OK, export_graph(graph, args.format)


def cmd_dims(args) -> tuple[int, str]:
    crystal = _load_crystal(args)
    if args.height > DEFAULT_HEIGHT_BOUND:
        raise InputError(f"--height {args.height} exceeds the oracle bound {DEFAULT_HEIGHT_BOUND}")
    counts = graded_counts(crystal, args.height)
    weights = _positive_weights(crystal.datum.index_count, args.height)
    mismatches = 0
    out = ["weight\tcrystal\toracle\tmatch\n"]
    for alpha in weights:
        crystal_count = counts.get(alpha, 0)
        oracle_count = graded_dim(crystal.datum, alpha)
        ok = crystal_count == oracle_count
        if not ok:
            mismatches += 1
        out.append(f"{alpha}\t{crystal_count}\t{oracle_count}\t{'ok' if ok else 'MISMATCH'}\n")
    if mismatches:
        print(f"{mismatches} mismatching weights", file=sys.stderr)
    return EXIT_FINDING if mismatches else EXIT_OK, "".join(out)


def _positive_weights(n: int, max_height: int):
    # One weight per multiset of at most max_height indices: no (max_height + 1)^n walk.
    weights = (tuple(map(letters.count, range(n)))
               for h in range(max_height + 1) for letters in itertools.combinations_with_replacement(range(n), h))
    return sorted(weights, key=lambda a: (weight_height(a), a))


def cmd_verify(args) -> tuple[int, str]:
    crystal = _load_crystal(args)
    datum = crystal.datum
    findings: list[str] = []
    out: list[str] = []
    elements, _, _ = crystal.enumerate_to_depth(args.depth)

    def check(name: str, problems) -> None:
        problems = list(problems)
        status = "ok" if not problems else "FAIL"
        out.append(f"{name}: {status}\n")
        out.extend(f"  {p}\n" for p in problems[:5])
        findings.extend(str(p) for p in problems)

    check("crystal axioms on enumerated nodes", verify_axioms(crystal, elements))
    for i in range(1, datum.index_count + 1):
        psi, target = crystal.psi_morphism(i)
        check(f"strict embedding through index {i}", check_strict_morphism(psi, elements, crystal, target))
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
    alt = crystal.realization_with(reverse if reverse != crystal.iota else crystal.iota.rotated(1))
    check(
        "iota independence (transport is a graph isomorphism)",
        transport_isomorphism_findings(crystal, alt, elements),
    )
    return EXIT_FINDING if findings else EXIT_OK, "".join(out)


def cmd_geom(args) -> tuple[int, str]:
    rep = load_rep(_read_file(args.rep))
    nv = rep.quiver.vertex_count
    witness = flag_exists(rep)  # first: it rejects a total dimension over the bound before any d x d matrix
    mu_parts = []
    for i in range(1, nv + 1):
        mu_parts.append(f"v{i}:{'zero' if moment_map(rep, i).is_zero() else 'NONZERO'}")
    out = ["moment map: " + " ".join(mu_parts) + "\n"]
    if witness is None:
        out.append("flag: not found (rational search)\n")
    else:
        digit_cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # witness entries may outgrow the cap that input integers keep
        try:
            rendered = ", ".join(f"(v{vertex}, [{', '.join(map(str, vec))}])" for vertex, vec in witness.steps)
        finally:
            sys.set_int_max_str_digits(digit_cap)
        out.append(f"flag: found {rendered}\n" if rendered else "flag: found\n")
    verdicts = regular_semisimple_verdicts(rep)
    if verdicts:
        out.append("regular semisimple: " + " ".join(f"h{k}:{str(v).lower()}" for k, v in sorted(verdicts.items())) + "\n")
    else:
        out.append("regular semisimple: vacuous (no weak loops)\n")
    stats = " ".join(f"v{i}:({eps_point(rep, i)},{eps_star_point(rep, i)})" for i in range(1, nv + 1))
    out.append(f"(eps, eps*) = {stats}\n")
    return EXIT_OK, "".join(out)


@functools.cache  # one parser per process: its defaults bind the cmd_* functions at the first call
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
    p_dims.add_argument("--height", type=int, required=True,
                        help=f"largest weight height compared (at most {DEFAULT_HEIGHT_BOUND})")
    p_dims.set_defaults(func=cmd_dims)

    p_verify = sub.add_parser("verify", help="run the structural verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--depth", type=int, required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_geom = sub.add_parser("geom", help="report pointwise invariants of a quiver representation")
    p_geom.add_argument("--rep", required=True,
                        help=f"path to a JSON representation file (total dimension at most {DEFAULT_FLAG_DIM_BOUND})")
    p_geom.set_defaults(func=cmd_geom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("depth", "height"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name} must be nonnegative, got {getattr(args, name)}")
        code, report = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DepthExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
