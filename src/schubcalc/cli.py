"""Command-line front end.

One logical command per invocation; every text output has a JSON twin
(``--format json``) carrying the same information, and ``--output PATH``
writes that JSON to a file regardless of the console format.  Exit
codes: 0 success or verification pass, 1 verification failure
(a counterexample was found), 2 usage error (including an unwritable
``--output`` path and a sweep bound that leaves nothing to check).  All
errors go to stderr with the prefix ``error:``.
"""

from __future__ import annotations

import argparse
import json
import sys

from schubcalc.chow import (
    _lr_vanishes,
    format_class,
    multiply,
    product_vanishes_fast,
    schubert_class,
)
from schubcalc.core import (
    GrassmannContext,
    _check_render_size,
    dim_partition_to_symbol,
    dual_partition,
    dual_symbol,
    normalize_partition,
    render_diagram,
    symbol_to_dim_partition,
)
from schubcalc.morphisms import MorphismQuery, classify, classify_table, table_text
from schubcalc.search import (
    _checked_contexts,
    compute_egd,
    search_report,
    verify_egd,
    verify_prop_comp,
    verify_thm_md,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ValueError(message)


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        msg = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", metavar="PATH", default=None,
                   help="also write the JSON twin of the result to PATH")


def _add_ctx(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="schubcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="symbol <-> partition, both conventions and the dual")
    _add_ctx(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--symbol", type=_ints, help="Schubert symbol, 1-based, comma-separated")
    g.add_argument("--partition", type=_ints,
                   help="partition in the dimension convention, trailing zeros optional")
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("render", help="ASCII Young diagram in the (k+1) x (n-k) box")
    _add_ctx(p)
    p.add_argument("--partition", type=_ints, required=True)
    p.add_argument("--overlay", type=_ints, default=None)
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("product", help="Littlewood-Richardson expansion of sigma_a * sigma_b")
    _add_ctx(p)
    p.add_argument("--a", type=_ints, required=True,
                   help="partition in the codimension convention")
    p.add_argument("--b", type=_ints, required=True)
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("vanishes", help="fast vanishing verdict for [X_I] * [X_J]")
    _add_ctx(p)
    p.add_argument("--i", type=_ints, required=True, help="Schubert symbol I")
    p.add_argument("--j", type=_ints, required=True, help="Schubert symbol J")
    p.add_argument("--cross-validate", action="store_true",
                   help="also look for one LR tableau inside the box and compare")
    p.set_defaults(handler=_cmd_vanishes)

    p = sub.add_parser("mdpairs", help="full md-pair search report for G(k, n)")
    _add_ctx(p)
    p.add_argument("--cross-validate", action="store_true")
    p.set_defaults(handler=_cmd_mdpairs)

    p = sub.add_parser("egd", help="effective good divisibility of G(k, n)")
    _add_ctx(p)
    p.set_defaults(handler=_cmd_egd)

    p = sub.add_parser("verify", help="mechanically verify a claim, exit 1 on counterexample")
    p.add_argument("claim", choices=("thm-md", "prop-comp", "egd-sweep"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None,
                   help="sweep bound when --k/--n are omitted (default 10)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("classify", help="classify morphisms G(l, n) -> G(k, n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(handler=_cmd_classify)

    for p in sub.choices.values():  # last, so every --help lists them last
        _add_common(p)
    return parser


def _cmd_convert(args):
    ctx = GrassmannContext(args.k, args.n)
    if args.symbol is not None:
        sym = args.symbol
        lam = symbol_to_dim_partition(ctx, sym)
    else:
        _check_render_size(ctx, parts_only=True)  # before the partition is padded
        lam = normalize_partition(ctx, args.partition)
        sym = dim_partition_to_symbol(ctx, lam)
    codim = dual_partition(ctx, lam)
    dsym = dual_symbol(ctx, sym)
    payload = {
        "k": ctx.k,
        "n": ctx.n,
        "symbol": list(sym),
        "dim_partition": list(lam),
        "codim_partition": list(codim),
        "dual_symbol": list(dsym),
        "dim": sum(lam),
        "codim": sum(codim),
    }
    text = (
        f"{ctx}\n"
        f"symbol:           {','.join(map(str, sym))}\n"
        f"dim partition:    ({','.join(map(str, lam))})   weight {sum(lam)} = dim X_I\n"
        f"codim partition:  ({','.join(map(str, codim))})   weight {sum(codim)} = codim X_I\n"
        f"dual symbol:      {','.join(map(str, dsym))}\n"
    )
    return text, payload, 0


def _cmd_render(args):
    ctx = GrassmannContext(args.k, args.n)
    _check_render_size(ctx)  # before the partitions are padded to k+1 parts
    lam = normalize_partition(ctx, args.partition)
    overlay = normalize_partition(ctx, args.overlay) if args.overlay is not None else None
    diagram = render_diagram(ctx, lam, overlay)
    payload = {
        "k": ctx.k,
        "n": ctx.n,
        "partition": list(lam),
        "overlay": list(overlay) if overlay is not None else None,
        "diagram": diagram,
    }
    return diagram, payload, 0


def _cmd_product(args):
    ctx = GrassmannContext(args.k, args.n)
    _check_render_size(ctx, parts_only=True)  # before the partitions are padded
    a = normalize_partition(ctx, args.a)
    b = normalize_partition(ctx, args.b)
    result = multiply(schubert_class(ctx, a), schubert_class(ctx, b))
    payload = result.to_json_dict()
    payload["a"] = list(a)
    payload["b"] = list(b)
    return format_class(result), payload, 0


def _cmd_vanishes(args):
    ctx = GrassmannContext(args.k, args.n)
    verdict = product_vanishes_fast(ctx, args.i, args.j)
    payload = {
        "k": ctx.k,
        "n": ctx.n,
        "i": list(args.i),
        "j": list(args.j),
        "vanishes": verdict,
    }
    code = 0
    lines = [f"[X_I] * [X_J] in {ctx}: {'zero' if verdict else 'nonzero'}"]
    if args.cross_validate:
        a = dual_partition(ctx, symbol_to_dim_partition(ctx, args.i))
        b = dual_partition(ctx, symbol_to_dim_partition(ctx, args.j))
        lr_zero = _lr_vanishes(ctx, a, b)
        agree = lr_zero == verdict
        payload.update(
            {"cross_validated": True, "lr_product_zero": lr_zero, "agree": agree}
        )
        lines.append(
            f"LR cross-check: {'zero' if lr_zero else 'nonzero'} "
            f"({'agrees' if agree else 'DISAGREES'})"
        )
        if not agree:
            code = 1
    return "\n".join(lines) + "\n", payload, code


def _cmd_mdpairs(args):
    ctx = GrassmannContext(args.k, args.n)
    report = search_report(ctx, cross_validate=args.cross_validate)
    lines = [
        f"{ctx}: egd = {report.computed_egd}, "
        f"scanned {report.scanned_pair_count} basis pairs with codim sum <= "
        f"{report.computed_egd + 1} in {report.elapsed_ms} ms",
        "md-pairs:",
    ]
    for p in report.md_pairs:
        t = p.pair_type
        lines.append(
            f"  {{({','.join(map(str, p.a))}), ({','.join(map(str, p.b))})}}"
            f"  type {{{t[0]},{t[1]}}}"
        )
    return "\n".join(lines) + "\n", report.to_json_dict(), 0


def _cmd_egd(args):
    ctx = GrassmannContext(args.k, args.n)
    value = compute_egd(ctx)
    payload = {"k": ctx.k, "n": ctx.n, "egd": value}
    return f"egd({ctx}) = {value}\n", payload, 0


def _cmd_verify(args):
    claim = args.claim
    single = args.k is not None or args.n is not None
    if single and (args.k is None or args.n is None):
        raise ValueError("verify needs both --k and --n, or neither (sweep mode)")
    if single and claim == "egd-sweep":
        raise ValueError("egd-sweep is a sweep; use --max-n, not --k/--n")
    if single and args.max_n is not None:
        raise ValueError("--max-n bounds a sweep; it cannot be combined with --k/--n")
    checker = {"thm-md": verify_thm_md, "prop-comp": verify_prop_comp, "egd-sweep": verify_egd}
    if single:
        report = checker[claim](GrassmannContext(args.k, args.n))
        reports = [report]
        payload = report.to_json_dict()
    else:
        max_n = args.max_n if args.max_n is not None else 10
        # Refuse an oversized sweep before checking its first context, and
        # before building the rest of a range that may be arbitrarily large.
        contexts = _checked_contexts(
            GrassmannContext(k, n)
            for n in range(1, max_n + 1)
            for k in range(n)
            if claim == "egd-sweep" or 1 <= k <= n - 2
        )
        if not contexts:  # a sweep over nothing must not report "pass"
            raise ValueError(f"--max-n {max_n} leaves no context to check for {claim}")
        reports = [checker[claim](ctx) for ctx in contexts]
        payload = {
            "claim": claim,
            "max_n": max_n,
            "status": "pass" if all(r.passed for r in reports) else "fail",
            "contexts": [r.to_json_dict() for r in reports],
        }
    lines = []
    for r in reports:
        lines.append(
            f"{r.claim} G({r.k},{r.n}): {r.status} "
            f"(hypothesis space: {r.hypothesis_count}, "
            f"counterexamples: {len(r.counterexamples)})"
        )
    ok = all(r.passed for r in reports)
    if not single:
        lines.append(f"{claim}: {'pass' if ok else 'FAIL'} over {len(reports)} contexts")
    return "\n".join(lines) + "\n", payload, 0 if ok else 1


def _cmd_classify(args):
    if (args.l is None) != (args.k is None):
        raise ValueError("classify needs both --l and --k for a single query, "
                         "or neither for the full table")
    if args.l is not None:
        outcome = classify(MorphismQuery(args.l, args.k, args.n))
        text = (
            f"G({outcome.l},{outcome.n}) -> G({outcome.k},{outcome.n}): "
            f"{outcome.verdict} [{outcome.branch}]\n  {outcome.details}\n"
        )
        return text, outcome.to_json_dict(), 0
    table = classify_table(args.n)
    payload = {
        "n": args.n,
        "grid": [[cell.to_json_dict() for cell in row] for row in table],
        "glyph_grid": ["".join(cell.glyph for cell in row) for row in table],
    }
    return table_text(table), payload, 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, payload, code = args.handler(args)
    except ValueError as err:  # a usage error, from argparse or from a handler
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:  # cross-validation found the two routes disagreeing
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit:  # --help; every parse error is a ValueError from _Parser.error
        return 0
    if args.output or args.format == "json":  # the JSON twin, built only when it is used
        twin = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as out:
                out.write(twin)
        except OSError as err:
            print(f"error: cannot write --output {args.output}: {err.strerror or err}",
                  file=sys.stderr)
            return 2
    if args.format == "json":
        sys.stdout.write(twin)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


def main_entry() -> None:
    raise SystemExit(main())
