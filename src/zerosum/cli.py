"""Command-line front end.

One subcommand per core computation, each with a human-readable text
mode and a --json mode emitting a single document; the two modes always
carry the same numbers.  Exit status: 0 on success, 1 when a
verification run found violations, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import sums
from .errors import DomainError, ZerosumError
from .groups import (
    AbelianGroup,
    Element,
    ZSequence,
    format_element,
    parse_entries,
    parse_group,
)
from .sums import INFINITY

if TYPE_CHECKING:
    from . import quad, verify

# "all" and the ids of verify.STATEMENTS, written out so that building
# the parser imports no verify; a test pins the two lists together
VERIFY_STATEMENTS = (
    "all", "support-bound", "full-length-constant", "extremal-structure",
    "short-zero-sum", "sumset-growth", "egz", "davenport-table",
)


def _element_json(group: AbelianGroup, g: Element):
    return g[0] if group.rank == 1 else list(g)


def _value_json(v):
    return "infinity" if v == INFINITY else v


def _emit(args: argparse.Namespace, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _parse_seq_args(args: argparse.Namespace) -> tuple[AbelianGroup, list[Element], ZSequence]:
    group = parse_group(args.group)
    entries = parse_entries(group, args.seq)
    return group, entries, ZSequence.from_iterable(group, entries)


def cmd_mz(args: argparse.Namespace) -> int:
    group, entries, seq = _parse_seq_args(args)
    result = sums.mz(seq)
    supp = sums.support_size(seq)
    lines = [f"group: {group}", f"sequence: {args.seq.strip()}"]
    payload = {
        "group": str(group),
        "sequence": [_element_json(group, e) for e in entries],
        "mz": _value_json(result.value),
        "witness": None,
        "supp": supp,
    }
    if result.is_finite:
        witness = [entries[i] for i in result.witness.positions_in(entries)]
        shown = "+".join(format_element(group, e) for e in witness)
        lines.append(f"mz: {int(result.value)}")
        lines.append(f"witness: {shown}=0")
        payload["witness"] = [_element_json(group, e) for e in witness]
    else:
        lines.append("mz: infinity (no nonempty zero-sum subsequence)")
    lines.append(f"supp: {supp}")
    _emit(args, lines, payload)
    return 0


def cmd_sigma(args: argparse.Namespace) -> int:
    group, entries, seq = _parse_seq_args(args)
    ss = sums.sumset(seq)
    values = list(ss.values)
    shown = ", ".join(format_element(group, v) for v in values)
    lines = [
        f"group: {group}",
        f"sequence: {args.seq.strip()}",
        f"sigma: {{{shown}}}",
        "min lengths: "
        + " ".join(
            f"{format_element(group, v)}:{ss.min_length_of(v)}" for v in values
        ),
    ]
    payload = {
        "group": str(group),
        "sequence": [_element_json(group, e) for e in entries],
        "values": [_element_json(group, v) for v in values],
        "min_lengths": {
            format_element(group, v): ss.min_length_of(v) for v in values
        },
    }
    _emit(args, lines, payload)
    return 0


def cmd_supp(args: argparse.Namespace) -> int:
    group, entries, seq = _parse_seq_args(args)
    support = seq.support
    shown = ", ".join(format_element(group, v) for v in support)
    lines = [
        f"group: {group}",
        f"sequence: {args.seq.strip()}",
        f"supp: {len(support)}",
        f"support: {{{shown}}}",
    ]
    payload = {
        "group": str(group),
        "sequence": [_element_json(group, e) for e in entries],
        "supp": len(support),
        "support": [_element_json(group, v) for v in support],
    }
    _emit(args, lines, payload)
    return 0


def cmd_davenport(args: argparse.Namespace) -> int:
    group = parse_group(args.group)
    result = sums.davenport(group)
    witness = ",".join(format_element(group, e) for e in result.witness.entries)
    lines = [
        f"group: {group}",
        f"davenport: {result.value}",
        f"zero-sum-free witness: {witness}" if witness else "zero-sum-free witness: (empty)",
    ]
    payload = {
        "group": str(group),
        "davenport": result.value,
        "witness": [_element_json(group, e) for e in result.witness.entries],
    }
    _emit(args, lines, payload)
    return 0


def _verify_reports(args: argparse.Namespace) -> list[verify.VerificationReport]:
    from . import verify

    statement = args.statement
    if args.n is not None and statement in ("all", "davenport-table"):
        raise ZerosumError(f"--n does not apply to '{statement}'; use --n-max")
    if args.budget is not None and statement == "davenport-table":
        raise ZerosumError("--budget does not apply to 'davenport-table'")
    if args.n_max is not None and (args.n is not None or args.group is not None):
        raise ZerosumError("--n-max does not apply with --n or --group")
    if args.shards < 1:
        raise DomainError(f"--shards must be >= 1, got {args.shards}")
    n_max = 8 if args.n_max is None else args.n_max
    if args.group is not None:
        if statement != "sumset-growth":
            raise ZerosumError(f"--group does not apply to '{statement}'")
        if args.n is not None:
            raise ZerosumError("--n and --group both name the group; give one")
        return [verify.verify_sumset_lemmas(parse_group(args.group), budget=args.budget)]
    if statement == "all":
        return verify.verify_all(n_max, shards=args.shards, budget=args.budget)
    return verify.verify_statement(
        statement, n_max, n=args.n, shards=args.shards, budget=args.budget
    )


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    reports = _verify_reports(args)
    if args.json:
        print(verify.reports_to_json(reports))
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            params = " ".join(f"{k}={v}" for k, v in sorted(r.parameters.items()))
            print(
                f"[{tag}] {r.statement_id} {params} "
                f"instances={r.instances_checked} elapsed={r.elapsed_ms}ms"
            )
            for row in r.violations:
                print(f"    violation {row['law']}: seq={row['sequence']} observed={row['observed']}")
        total = sum(r.violations_total for r in reports)
        print(f"checked {len(reports)} reports, {total} violations")
    return 0 if all(r.passed for r in reports) else 1


def cmd_quad_class_group(args: argparse.Namespace) -> int:
    from . import quad

    order = quad.QuadOrder(args.d)
    cg = quad.class_group(order)
    structure = "trivial" if not cg.structure else "x".join(f"Z{m}" for m in cg.structure)
    lines = [
        f"field: {order}",
        f"discriminant: {order.discriminant}",
        f"h: {cg.order_h}",
        f"structure: {structure}",
        "reduced forms: " + " ".join(str(f) for f in cg.element_reps),
    ]
    if cg.generator_index is not None:
        lines.append(f"generator: {cg.generator}")
    payload = {
        "d": args.d,
        "discriminant": order.discriminant,
        "h": cg.order_h,
        "structure": list(cg.structure),
        "forms": [list(f) for f in cg.element_reps],
        "generator_index": cg.generator_index,
    }
    _emit(args, lines, payload)
    return 0


def _ideal_payload(ideal: quad.QuadIdeal) -> dict:
    return {"a": ideal.a, "b": ideal.b, "scale": ideal.scale}


def cmd_quad_ideal(args: argparse.Namespace) -> int:
    from . import quad

    order = quad.QuadOrder(args.d)
    ideals = quad.parse_ideal_list(order, args.ideals)
    product = ideals[0]
    for ideal in ideals[1:]:
        product = quad.ideal_mul(order, product, ideal)
    generator = quad.is_principal(order, product)
    cg = quad.class_group(order)
    cls = quad.ideal_class(cg, product) if cg.is_cyclic else None
    lines = [
        f"field: {order}",
        f"ideal: {product}",
        f"norm: {product.norm}",
    ]
    if cls is not None:
        lines.append(f"class: {cls} (of Z{cg.order_h})")
    if generator is not None:
        lines.append(f"principal: yes, generator {quad.format_element(order, generator)}")
    else:
        lines.append("principal: no")
    payload = {
        "d": args.d,
        "hnf": _ideal_payload(product),
        "norm": product.norm,
        "class": cls,
        "h": cg.order_h,
        "principal": generator is not None,
        "generator": list(generator) if generator is not None else None,
    }
    _emit(args, lines, payload)
    return 0


def cmd_quad_demo(args: argparse.Namespace) -> int:
    from . import quad

    order = quad.QuadOrder(args.d)
    ideals = quad.parse_ideal_list(order, args.ideals)
    result = quad.find_short_principal_product(order, ideals)
    h = len(result.classes)
    lines = [
        f"field: {order}",
        f"class group: Z{h}",
        "classes: " + ",".join(str(c) for c in result.classes),
        f"distinct classes: {result.support} (bound: at most {result.bound} ideals)",
        f"subset: indices {','.join(str(i) for i in result.indices)} -> size {len(result.indices)}",
        f"product: {result.product} norm {result.product.norm}",
        f"generator: {quad.format_element(order, result.generator)}",
        "irreducible: yes",
    ]
    payload = {
        "d": args.d,
        "h": h,
        "classes": list(result.classes),
        "support": result.support,
        "bound": result.bound,
        "indices": list(result.indices),
        "subset_size": len(result.indices),
        "product": _ideal_payload(result.product),
        "norm": result.product.norm,
        "generator": list(result.generator),
        "generator_str": quad.format_element(order, result.generator),
        "irreducible": True,
    }
    _emit(args, lines, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Exact zero-sum computations over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seq_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="group string, e.g. Z6 or Z2xZ4")
        p.add_argument("--seq", required=True, help="comma-separated entries, e.g. 2,2,3 or (1,0),(0,1)")
        p.add_argument("--json", action="store_true")
        return p

    seq_command("mz", "minimal zero-sum subsequence length").set_defaults(func=cmd_mz)
    seq_command("sigma", "subsequence-sum set with minimal lengths").set_defaults(func=cmd_sigma)
    seq_command("supp", "support of a sequence").set_defaults(func=cmd_supp)

    p = sub.add_parser("davenport", help="Davenport constant of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_davenport)

    p = sub.add_parser("verify", help="exhaustive verification of the package laws")
    p.add_argument("statement", choices=VERIFY_STATEMENTS)
    p.add_argument("--n", type=int, default=None, help="single cyclic order to check")
    p.add_argument("--n-max", type=int, default=None, help="check cyclic orders up to this (default 8)")
    p.add_argument("--group", default=None, help="explicit group (sumset-growth only)")
    p.add_argument(
        "--shards",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for a scan over Z_n of order at least its family's"
        " verify.POOL_MIN_ORDER (default: the CPU count)",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max work per scan: leaves walked plus subtrees settled over Z_n,"
        " multisets for sumset-growth",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    def quad_command(name: str, help_text: str, ideals: bool):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-d", type=int, required=True, help="squarefree d for Q(sqrt(-d))")
        if ideals:
            p.add_argument(
                "--ideals",
                required=True,
                help="';'-separated ideals 'a,b' meaning the span of a and b+w",
            )
        p.add_argument("--json", action="store_true")
        return p

    quad_command("quad-class-group", "class group of an imaginary quadratic field", False).set_defaults(
        func=cmd_quad_class_group
    )
    quad_command("quad-ideal", "multiply ideals and test principality", True).set_defaults(
        func=cmd_quad_ideal
    )
    quad_command(
        "quad-demo51", "short principal product over a cyclic class group", True
    ).set_defaults(func=cmd_quad_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZerosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
