"""Command line front end.

Verbs take a recipe (inline JSON or @file) and print either an aligned
text table or, with --json, a machine-readable document. Exit codes:
0 success, 1 assertion failure, 2 resource budget or numeric precision
limit hit, 3 bad input (usage errors included). Integer flags pass through
to the function that reads them, which checks their floor: a budget of 0
exits 3 with an error naming the key.

Most calls are one verb in a fresh process, whose start-up is most of its
time. So this module imports nothing from permres at module level, and
each verb imports only the layers it uses: `--version` loads no group
code, `bounds --check threshold-m` only the bounds layer, and only
`verify` loads the manifest runner.
"""

from __future__ import annotations

import argparse
import json
import sys


def _read_recipe(text: str) -> dict:
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ValueError(f"cannot read recipe file: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"recipe is not valid JSON (line {e.lineno} column {e.colno}: "
            f"{e.msg})") from None


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    width = max(len(k) for k in doc)
    for k, v in doc.items():
        if isinstance(v, (list, tuple)):
            v = ", ".join(str(x) for x in v)
        print(f"{k:<{width}}  {v}")


def _cmd_construct(args) -> int:
    from .recipes import construct_recipe, serialize_group

    act = construct_recipe(_read_recipe(args.recipe))
    doc = serialize_group(act.group)
    doc["point-labels"] = [str(lbl) for lbl in act.labels]
    text = json.dumps(doc, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write --out file: {e}") from None
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_describe(args) -> int:
    # gamma_profile reads the factor list that composition_factors cached
    # on G, so the descent runs once per invocation
    from .recipes import construct_recipe
    from .structure import composition_factors, gamma_profile

    act = construct_recipe(_read_recipe(args.recipe))
    G = act.group
    factors = composition_factors(G)
    prof = gamma_profile(G)
    doc = {
        "label": G.label,
        "degree": G.degree,
        "order": G.order(),
        "transitive": G.is_transitive(),
        "primitive": G.is_primitive(),
        "orbit-sizes": sorted(len(o) for o in G.orbits()),
        "composition-factors": [f.name for f in factors],
        "min-certified-d": prof["min_certified_d"],
        "profile-tight": prof["tight"],
    }
    _emit(doc, args.json)
    return 0


def _cmd_order(args) -> int:
    from .recipes import construct_recipe

    act = construct_recipe(_read_recipe(args.recipe))
    _emit({"order": act.group.order()}, args.json)
    return 0


def _cmd_base_size(args) -> int:
    from .recipes import construct_recipe, pick
    from .search import base_size_exact

    act = construct_recipe(_read_recipe(args.recipe))
    w = base_size_exact(act.group, **pick(vars(args), "node_budget"))
    doc = {"status": w.status, "size": w.size,
           "proof": w.proof_of_minimality,
           "points": list(w.points) if w.points is not None else None,
           "nodes": w.nodes}
    if w.status == "partial":
        doc["lower-bound"], doc["upper-bound"] = w.lower_bound, w.upper_bound
    _emit(doc, args.json)
    return 0 if w.status == "exact" else 2


def _cmd_dist_number(args) -> int:
    from .recipes import construct_recipe, pick
    from .search import distinguishing_number

    act = construct_recipe(_read_recipe(args.recipe))
    res = distinguishing_number(act.group, **pick(vars(args), "elem_cap"))
    _emit({"distinguishing-number": res.number, "method": res.method},
          args.json)
    return 0


def _cmd_stab_scan(args) -> int:
    from .recipes import construct_recipe, pick
    from .search import stabilizer_scan

    act = construct_recipe(_read_recipe(args.recipe))
    rep = stabilizer_scan(act.group, args.c, args.predicate,
                          **pick(vars(args), "node_budget"))
    doc = {"verdict": rep.verdict, "classes": rep.classes,
           "exhaustive": rep.exhaustive}
    if rep.worst_witness is not None:
        doc["worst-order"] = rep.worst_witness.order
        doc["worst-points"] = list(rep.worst_witness.points)
        doc["worst-summary"] = rep.worst_witness.summary
    if rep.first_failure is not None:
        doc["first-failure-points"] = list(rep.first_failure.points)
        doc["first-failure-order"] = rep.first_failure.order
    _emit(doc, args.json)
    if rep.verdict == "fail":
        return 1
    return 0 if rep.verdict == "all-pass" else 2


def _cmd_reg_count(args) -> int:
    from .recipes import construct_recipe, pick
    from .search import count_regular_tuples

    act = construct_recipe(_read_recipe(args.recipe))
    res = count_regular_tuples(act.group, args.t, threshold=args.threshold,
                               first_point=args.first_point,
                               **pick(vars(args), "node_budget"))
    _emit({"value": res.value, "t": res.t, "exact": res.exact,
           "reached-threshold": res.reached_threshold}, args.json)
    return 0


def _cmd_bounds(args) -> int:
    from .bounds import evaluate

    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    group = None
    if args.recipe:
        from .recipes import construct_recipe

        group = construct_recipe(_read_recipe(args.recipe)).group
    rep = evaluate(args.check, params, group)
    if isinstance(rep, int):  # M of threshold-m, N of threshold-n
        doc = {args.check[-1].upper(): rep}
    elif args.check == "formula":
        doc = {"bound": rep.bound_value, "verdict": rep.verdict}
    else:
        doc = {"bound": rep.bound_value, "measured": rep.measured_value,
               "verdict": rep.verdict}
    _emit(doc, args.json)
    return 1 if doc.get("verdict") == "fails" else 0


def _cmd_verify(args) -> int:
    from .manifest import bundled_corpus, run_manifest

    source = args.manifest
    if source == "corpus":
        source = bundled_corpus()
    report = run_manifest(source, budget_ms=args.budget_ms)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        wid = max(len(c.id) for c in report.checks) if report.checks else 2
        for c in report.checks:
            print(f"{c.id:<{wid}}  {c.status:<16}  {c.elapsed_ms:>7} ms")
            for a in c.assertions:
                if a.ok is False:
                    print(f"{'':<{wid}}  {a.op}: expected "
                          f"{a.expected!r}, measured {a.measured!r}"
                          + (f" ({a.error})" if a.error else ""))
                elif a.ok is None:
                    print(f"{'':<{wid}}  {a.op}: {a.error}")
            if c.error:
                print(f"{'':<{wid}}  {c.error}")
        counts = report.counts()
        print(f"checks: {counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skipped-resource']} resource-skipped")
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 3, not argparse's 2, which this
    CLI reserves for a resource budget hit."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    from . import __version__

    top = _Parser(
        prog="permres",
        description="permutation group measurements and check manifests")
    top.add_argument("--version", action="version",
                     version=f"permres {__version__}")
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, recipe_required=True):
        if recipe_required:
            p.add_argument("--recipe", required=True,
                           help="inline JSON or @file")
        else:
            p.add_argument("--recipe", help="inline JSON or @file")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("construct", help="build a group, emit generators")
    common(p)
    p.add_argument("--out", help="write the serialized group here")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("describe", help="order, orbits, factors, profile")
    common(p)
    p.set_defaults(fn=_cmd_describe)

    p = sub.add_parser("order", help="group order")
    common(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("base-size", help="exact minimal base size")
    common(p)
    p.add_argument("--node-budget", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_base_size)

    p = sub.add_parser("dist-number", help="exact distinguishing number")
    common(p)
    p.add_argument("--elem-cap", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_dist_number)

    p = sub.add_parser("stab-scan", help="predicate over c-point stabilizers")
    common(p)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--predicate", default="solvable",
                   help="solvable or gamma:<d>")
    p.add_argument("--node-budget", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_stab_scan)

    p = sub.add_parser("reg-count", help="count tuples with trivial stabilizer")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--threshold", type=int)
    p.add_argument("--first-point", type=int)
    p.add_argument("--node-budget", type=int, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_reg_count)

    p = sub.add_parser("bounds", help="closed-form bounds and thresholds")
    common(p, recipe_required=False)
    p.add_argument("--check", required=True,
                   help="check name; an unknown one lists them")
    p.add_argument("--params", help="JSON object of parameters")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("verify", help="run a check manifest")
    p.add_argument("--manifest", required=True,
                   help="path to a manifest, or 'corpus' for the bundled one")
    p.add_argument("--budget-ms", type=int,
                   help="per-check budget in ms, unless a check sets its "
                        "own budget_ms; default: none")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        # the error types load once a verb has failed, not before; the
        # input errors of the verbs, recipes and manifests are all ValueErrors
        from .recipes import describe_error
        from .stabchain import ResourceLimit

        if isinstance(e, ResourceLimit):
            print(f"resource limit: {e}", file=sys.stderr)
            return 2
        if isinstance(e, ArithmeticError):
            # a certified threshold whose enclosure needs more digits than
            # the precision ladder holds: a limit of the tool, not of the input
            print(f"error: {describe_error(e)}", file=sys.stderr)
            return 2
        if isinstance(e, (ValueError, KeyError, TypeError)):
            print(f"error: {describe_error(e)}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
