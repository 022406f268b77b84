"""Command-line interface.

Exit status: 0 on success, 1 when a verification run reports failures,
2 on bad flags or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chain import build_elliptic_chain, left_weighted_weights
from .drop import DropContext, drop_all
from .enumeration import STRATA, TableEnumerator, count_small_oracle
from .fixtures import g22_example
from .multidegree import TwistVector, default_multidegree
from .render import (
    render_multidegree_ascii,
    render_table_ascii,
    render_table_latex,
    render_tensor_ascii,
    render_tensor_latex,
)
from .table import (
    VanishingTable,
    classify_degeneracy,
    rho_accounting,
    validate_table,
)
from .tensor import build_tensor_table
from .verify import FamilyConfig, verify_family


def _load_table(args) -> VanishingTable:
    if getattr(args, "example", False):
        return g22_example()
    if not args.table:
        raise ValueError("need --table FILE or --example")
    with open(args.table, encoding="utf-8") as fh:
        table = VanishingTable.from_json(json.load(fh))
    validate_table(table)
    return table


def _load_w(args, table: VanishingTable) -> TwistVector:
    if getattr(args, "w", None):
        return TwistVector.from_json(json.loads(args.w))
    return default_multidegree(table)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, default=6)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho-max", type=int, default=None)
    p.add_argument("--stratum", default="all", choices=list(STRATA))


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags that pick a run's indices (see ``run_indices``), and --out."""
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sampled"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--out", default=None)


def _cmd_enumerate(args) -> int:
    enum = TableEnumerator(args.g, args.r, args.d, args.rho_max, args.stratum)
    indices = enum.run_indices(args.mode, args.n, args.seed, args.limit)
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        batch = []
        for _, table in enum.iter_slice(indices):
            record = json.dumps(table.to_json(), sort_keys=True,
                                separators=(",", ":"))
            if args.format == "jsonl":
                out.write(record + "\n")
            else:
                batch.append(record)
        if args.format == "json":
            out.write("[" + ",\n ".join(batch) + "]\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_count(args) -> int:
    enum = TableEnumerator(args.g, args.r, args.d, args.rho_max, args.stratum)
    print(enum.total())
    return 0


def _cmd_verify(args) -> int:
    jobs = args.jobs
    if jobs is None:
        jobs = int(os.environ.get("LLSCHAIN_JOBS", "1"))
    config = FamilyConfig(
        g=args.g, r=args.r, d=args.d, rho_max=args.rho_max,
        mode=args.mode, n=args.n, seed=args.seed, stratum=args.stratum,
        jobs=jobs, out_path=args.out, checkpoint_path=args.checkpoint,
        emit_certificates=args.emit_certs, limit=args.limit,
    )
    report = verify_family(config)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 1 if report.failed else 0


def _cmd_inspect(args) -> int:
    table = _load_table(args)
    lam = table.shape
    breakdown = rho_accounting(table)
    swaps = table.swaps
    klass = classify_degeneracy(table)
    print(f"(g, r, d) = ({table.g}, {table.r}, {table.d}), rho = {table.rho}")
    print(
        "rho accounting: ramification "
        f"{breakdown.initial_ramification}, exceptional "
        f"{breakdown.exceptional_defect}, missing delta "
        f"{breakdown.missing_delta}, total {breakdown.total}"
    )
    if swaps:
        descs = [
            f"column {s.column}, rows {s.rows}, {'minimal' if s.minimal else 'non-minimal'}"
            for s in swaps
        ]
        print(f"{len(swaps)} swap{'s' if len(swaps) > 1 else ''}: " + "; ".join(descs)
              + f"; class {klass.kind}")
    else:
        print(f"no swaps; class {klass.kind}")
    deltas = [
        f"{i}:{lam.delta[i]}" for i in range(1, table.n_columns + 1)
        if lam.delta[i] is not None
    ]
    print("delta rows: " + " ".join(deltas))
    return 0


def _cmd_default_md(args) -> int:
    table = _load_table(args)
    w = default_multidegree(table)
    print(render_multidegree_ascii(w))
    print("c =", ",".join(str(ci) for ci in w.c))
    return 0


def _cmd_drop(args) -> int:
    table = _load_table(args)
    w = _load_w(args, table)
    ctx = DropContext(table, w)
    result = drop_all(ctx)
    if args.trace and result.certificate is not None:
        for k, step in enumerate(result.certificate.steps):
            print(f"{k:3d} {json.dumps(step, sort_keys=True)}")
    if result.success:
        print(f"dropped all {len(ctx.sections)} sections "
              f"in {len(result.certificate.steps)} steps")
        return 0
    print(f"stuck with {len(result.remaining)} sections:")
    for s in result.remaining:
        print(f"  row {s.row} columns {s.start}..{s.end}")
    return 1


def _cmd_render(args) -> int:
    table = _load_table(args)
    if args.tensor:
        tt = build_tensor_table(table)
        w = _load_w(args, table)
        text = (
            render_tensor_latex(tt, w)
            if args.format == "latex"
            else render_tensor_ascii(tt, w)
        )
    else:
        text = (
            render_table_latex(table)
            if args.format == "latex"
            else render_table_ascii(table)
        )
    print(text)
    return 0


def _cmd_oracle(args) -> int:
    # the enumerator validates the family and defaults rho_max as count does
    rho_max = TableEnumerator(args.g, args.r, args.d, args.rho_max).rho_max
    print(count_small_oracle(args.g, args.r, args.d, rho_max))
    return 0


def _cmd_left_weighted(args) -> int:
    chain = build_elliptic_chain(args.g)
    print(",".join(str(x) for x in left_weighted_weights(chain, args.d)))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="llschain",
        description="limit-linear-series tables on elliptic chains: "
                    "enumeration, dropping certificates, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream tables as JSONL")
    _add_family_flags(p)
    _add_run_flags(p)
    p.add_argument("--format", default="jsonl", choices=["jsonl", "json"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="exact stratum size")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="verify a family, streaming verdicts")
    _add_family_flags(p)
    _add_run_flags(p)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--emit-certs", action="store_true")
    p.set_defaults(func=_cmd_verify)

    for name, fn in [("inspect", _cmd_inspect), ("default-md", _cmd_default_md)]:
        p = sub.add_parser(name)
        p.add_argument("--table", default=None)
        p.add_argument("--example", action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser("drop", help="run the dropping engine on one table")
    p.add_argument("--table", default=None)
    p.add_argument("--example", action="store_true")
    p.add_argument("--w", default=None, help='twist vector JSON {"D":..,"c":[..]}')
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_drop)

    p = sub.add_parser("render")
    p.add_argument("--table", default=None)
    p.add_argument("--example", action="store_true")
    p.add_argument("--format", default="ascii", choices=["ascii", "latex"])
    p.add_argument("--tensor", action="store_true")
    p.add_argument("--w", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oracle", help="independent brute-force table count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rho-max", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("left-weighted", help="minimal left-weighted node weights")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=_cmd_left_weighted)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
