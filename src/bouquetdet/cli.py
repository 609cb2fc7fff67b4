"""Command-line surface: validate inputs, build chain matrices, compute
determinants and invariant tables, verify the factorization, and emit
Hasse diagrams.

Exit codes: 0 success / verdict true, 1 verdict false, 2 structural
invalidity, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, NamedTuple

from . import com as com_mod
from . import matroid as matroid_mod
from .chains import (InvalidLabeling, Labeling, WeightAssignment,
                     chain_matrix, make_labeling, min_labeling)
from .determinant import (VERIFICATION_PRIME, DeterminantError,
                          block_determinants, det_texts, verify_theorem)
from .poset import Poset, PosetError, poset_from_json

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_STRUCTURAL = 2
EXIT_PARSE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc


def _poset_report(P: Poset) -> dict:
    report = {"meet_semilattice": P.is_meet_semilattice()}
    failure = P.geometric_failure()
    report["geometric"] = failure is None
    if failure is not None:
        report["geometric_failure"] = {"reason": failure[0],
                                       "witness": list(failure[1])}
    report["bouquet"] = P.is_bouquet()
    return report


class Kind(NamedTuple):
    parse: Callable[[dict], Any]       # JSON input -> validated object
    poset: Callable[[Any], Poset]      # validated object -> working poset
    report: Callable[[Any], dict]      # validated object -> `check` fields


# The adapters are looked up on their modules at call time, so that a
# wrapper installed on a module attribute (as perfbench's tracer does)
# sees the call.
KINDS = {
    "poset": Kind(poset_from_json, lambda P: P, _poset_report),
    "matroid": Kind(lambda d: matroid_mod.matroid_from_json(d),
                    lambda m: matroid_mod.flat_lattice(m)[0],
                    lambda m: {"matroid": True, "simple": m.is_simple()}),
    "bouquet": Kind(lambda d: matroid_mod.bouquet_from_json(d),
                    lambda b: matroid_mod.bouquet_flat_poset(b)[0],
                    lambda b: {"bouquet_of_matroids": True}),
    "com": Kind(lambda d: com_mod.com_from_json(d),
                lambda c: com_mod.zero_set_poset(c)[0],
                lambda c: {"com": True, "om": c.is_om()}),
}
STRUCTURAL_ERRORS = (PosetError, matroid_mod.MatroidError, com_mod.ComError)


def _parse(args):
    """Read the input file and validate it with its kind's parser.  JSON
    of the wrong shape (a list for an object, a cover that is not a
    pair, a number for a list, ...) is a parse error."""
    data = _load_json(args.input)
    try:
        return KINDS[args.kind].parse(data)
    except KeyError as exc:
        raise CliError(f"missing field in input: {exc}", EXIT_PARSE) from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"malformed input: {exc}", EXIT_PARSE) from exc


def _load_poset(args) -> Poset:
    """Build the working poset for the requested input kind."""
    try:
        return KINDS[args.kind].poset(_parse(args))
    except STRUCTURAL_ERRORS as exc:
        raise CliError(f"{args.kind}: {exc}", EXIT_STRUCTURAL) from exc


def _load_labels(path: str) -> dict[str, str]:
    """Read an explicit labeling: a JSON object of element -> atom name."""
    labels = _load_json(path)
    if not (isinstance(labels, dict)
            and all(isinstance(a, str) for a in labels.values())):
        raise CliError(f"malformed labeling: {path} is not an object of "
                       f"element -> atom name", EXIT_PARSE)
    return labels


def _require_bouquet(P: Poset) -> None:
    if not P.is_bouquet():
        raise CliError("input poset is not a bouquet of geometric lattices",
                       EXIT_STRUCTURAL)


def _pipeline_input(args) -> tuple[Poset, Labeling, WeightAssignment]:
    """The front half of `matrix`, `det` and `verify`: load the input,
    require a bouquet, then build the labeling and the variables from one
    atom order, --atom-order or else the poset's own."""
    P = _load_poset(args)
    _require_bouquet(P)
    order = P.atoms
    if args.atom_order:
        order = tuple(a.strip() for a in args.atom_order.split(","))
        if sorted(order) != sorted(P.atoms):
            raise CliError("atom_order must be a permutation of the atoms",
                           EXIT_STRUCTURAL)
    try:
        labeling = (min_labeling(P, order) if args.labeling == "min"
                    else make_labeling(P, _load_labels(args.labeling)))
    except InvalidLabeling as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL) from exc
    return P, labeling, WeightAssignment({a: i for i, a in enumerate(order)})


def _emit(args, payload: Callable[[], dict], text: Callable[[], str]) -> None:
    """Print the requested format; only that one is built."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        print(text())


def cmd_check(args) -> int:
    report: dict = {"kind": args.kind}
    try:
        report.update(KINDS[args.kind].report(_parse(args)))
    except STRUCTURAL_ERRORS as exc:
        report["valid"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        _emit(args, lambda: report, lambda: report["error"])
        return EXIT_STRUCTURAL
    ok = report.get("bouquet", True)  # other kinds are valid once parsed
    report["valid"] = ok
    _emit(args, lambda: report,
          lambda: "\n".join(f"{k}: {v}" for k, v in report.items() if k != "kind"))
    return EXIT_OK if ok else EXIT_STRUCTURAL


def cmd_matrix(args) -> int:
    P, labeling, weights = _pipeline_input(args)
    M = chain_matrix(P, labeling, weights)

    def text() -> str:
        lines = [f"chains: {[list(c.elements) for c in M.chains]}"]
        lines += [" | ".join(p.to_string() for p in row) for row in M.entries]
        return "\n".join(lines)

    _emit(args, M.to_json, text)
    return EXIT_OK


def cmd_det(args) -> int:
    P, labeling, weights = _pipeline_input(args)
    blocks = block_determinants(P, labeling, weights)
    block_texts, det = det_texts(blocks)
    payload = {"det": det,
               "blocks": [{"top": t, "dim": d, "det": text}
                          for (t, d, _), text in zip(blocks, block_texts)]}
    _emit(args, lambda: payload, lambda: det)
    return EXIT_OK


def cmd_rho(args) -> int:
    P = _load_poset(args)
    _require_bouquet(P)
    table = {x: {"rank": P.rank(x), "mobius": P.mobius(P.bottom, x),
                 "beta": P.beta(x), "rho": P.rho(x)}
             for x in P.elements}
    _emit(args, lambda: table, lambda: "\n".join(
        f"{x}: rank={v['rank']} mu={v['mobius']} beta={v['beta']} rho={v['rho']}"
        for x, v in table.items()))
    return EXIT_OK


def cmd_verify(args) -> int:
    P, labeling, weights = _pipeline_input(args)
    try:
        report = verify_theorem(P, labeling, weights, mode=args.mode,
                                trials=args.trials, seed=args.seed)
    except DeterminantError as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL) from exc

    def text() -> str:
        out = (f"verdict: {report.verdict}\nsign: {report.sign}\n"
               f"mode: {report.mode}")
        _, det, product = report.texts()
        if det is not None:
            out += f"\ndet: {det}\nproduct: {product}"
        return out

    _emit(args, report.to_json, text)
    return EXIT_OK if report.verdict else EXIT_VERDICT_FALSE


def cmd_dot(args) -> int:
    P = _load_poset(args)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for x in P.elements:
        lines.append(f'  "{x}";')
    for x, y in sorted(P.covers):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouquetdet",
        description="Chain matrices of bouquets of geometric lattices and "
                    "their determinant factorization.",
        epilog=f"Randomized verification evaluates modulo the fixed 62-bit "
               f"prime {VERIFICATION_PRIME}.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("check", cmd_check), ("matrix", cmd_matrix),
                     ("det", cmd_det), ("rho", cmd_rho),
                     ("verify", cmd_verify), ("dot", cmd_dot)]:
        p = sub.add_parser(name)
        p.add_argument("input", help="path to the input JSON file")
        p.add_argument("--kind", choices=list(KINDS), default="poset")
        p.add_argument("--labeling", default="min",
                       help='"min" or path to an explicit labeling JSON')
        p.add_argument("--atom-order", default=None,
                       help="comma-separated atom order for the min-labeling "
                            "and the variable numbering")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if name == "verify":
            p.add_argument("--mode", choices=["symbolic", "randomized"],
                           default="symbolic")
            p.add_argument("--trials", type=int, default=20)
            p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trials", 1) < 1:
        print("trials must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
