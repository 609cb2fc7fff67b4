"""Command-line surface: validate inputs, build chain matrices, compute
determinants and invariant tables, verify the factorization, and emit
Hasse diagrams.

Exit codes: 0 success / verdict true, 1 verdict false, 2 structural
invalidity, 3 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, NamedTuple

from . import com as com_mod
from . import matroid as matroid_mod
from .chains import (InvalidLabeling, WeightAssignment, chain_matrix,
                     make_labeling, min_labeling)
from .determinant import (VERIFICATION_PRIME, DeterminantError,
                          block_determinants, verify_theorem)
from .poset import NotABouquet, Poset, PosetError, poset_from_json

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
    """Read the input file and validate it with its kind's parser."""
    data = _load_json(args.input)
    try:
        return KINDS[args.kind].parse(data)
    except KeyError as exc:
        raise CliError(f"missing field in input: {exc}", EXIT_PARSE) from exc


def _load_poset(args) -> Poset:
    """Build the working poset for the requested input kind."""
    try:
        return KINDS[args.kind].poset(_parse(args))
    except STRUCTURAL_ERRORS as exc:
        raise CliError(f"{args.kind}: {exc}", EXIT_STRUCTURAL) from exc


def _labeling_and_weights(P: Poset, args):
    atom_order = None
    if args.atom_order:
        atom_order = [a.strip() for a in args.atom_order.split(",")]
    try:
        if args.labeling == "min":
            labeling = min_labeling(P, atom_order)
        else:
            labeling = make_labeling(P, _load_json(args.labeling))
    except InvalidLabeling as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL) from exc
    if atom_order is None:
        return labeling, WeightAssignment.default(P)
    return labeling, WeightAssignment({a: i for i, a in enumerate(atom_order)})


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_check(args) -> int:
    report: dict = {"kind": args.kind}
    try:
        report.update(KINDS[args.kind].report(_parse(args)))
    except STRUCTURAL_ERRORS as exc:
        report["valid"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        _emit(args, report, report["error"])
        return EXIT_STRUCTURAL
    ok = report.get("bouquet", True)  # other kinds are valid once parsed
    report["valid"] = ok
    text = "\n".join(f"{k}: {v}" for k, v in report.items() if k != "kind")
    _emit(args, report, text)
    return EXIT_OK if ok else EXIT_STRUCTURAL


def _require_bouquet(P: Poset) -> None:
    if not P.is_bouquet():
        raise CliError("input poset is not a bouquet of geometric lattices",
                       EXIT_STRUCTURAL)


def cmd_matrix(args) -> int:
    P = _load_poset(args)
    _require_bouquet(P)
    labeling, weights = _labeling_and_weights(P, args)
    M = chain_matrix(P, labeling, weights)
    payload = M.to_json()
    lines = [f"chains: {[list(c.elements) for c in M.chains]}"]
    lines += [" | ".join(p.to_string() for p in row) for row in M.entries]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_det(args) -> int:
    P = _load_poset(args)
    _require_bouquet(P)
    labeling, weights = _labeling_and_weights(P, args)
    product, blocks = block_determinants(P, labeling, weights)
    det = product.to_string()
    _emit(args, {"det": det,
                 "blocks": [{"top": t, "dim": d, "det": p.to_string()}
                            for t, d, p in blocks]},
          det)
    return EXIT_OK


def cmd_rho(args) -> int:
    P = _load_poset(args)
    _require_bouquet(P)
    table = {x: {"rank": P.rank(x), "mobius": P.mobius(P.bottom, x),
                 "beta": P.beta(x), "rho": P.rho(x)}
             for x in P.elements}
    text = "\n".join(
        f"{x}: rank={v['rank']} mu={v['mobius']} beta={v['beta']} rho={v['rho']}"
        for x, v in table.items())
    _emit(args, table, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    P = _load_poset(args)
    labeling, weights = _labeling_and_weights(P, args)
    try:
        report = verify_theorem(P, labeling, weights, mode=args.mode,
                                trials=args.trials, seed=args.seed)
    except (NotABouquet, DeterminantError) as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL) from exc
    payload = report.to_json()
    text = (f"verdict: {report.verdict}\nsign: {report.sign}\n"
            f"mode: {report.mode}")
    if report.determinant is not None:
        text += f"\ndet: {report.determinant.to_string()}"
        text += f"\nproduct: {report.rhs.to_string()}"
    _emit(args, payload, text)
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
    default_seed = int(os.environ.get("BOUQUETDET_SEED", "0"))
    for name, fn in [("check", cmd_check), ("matrix", cmd_matrix),
                     ("det", cmd_det), ("rho", cmd_rho),
                     ("verify", cmd_verify), ("dot", cmd_dot)]:
        p = sub.add_parser(name)
        p.add_argument("input", help="path to the input JSON file")
        p.add_argument("--kind", choices=list(KINDS), default="poset")
        p.add_argument("--labeling", default="min",
                       help='"min" or path to an explicit labeling JSON')
        p.add_argument("--atom-order", default=None,
                       help="comma-separated atom order for the min-labeling")
        p.add_argument("--format", choices=["json", "text"], default="json")
        if name == "verify":
            p.add_argument("--mode", choices=["symbolic", "randomized"],
                           default="symbolic")
            p.add_argument("--trials", type=int, default=20)
            p.add_argument("--seed", type=int, default=default_seed)
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
