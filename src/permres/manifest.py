"""Declarative check manifests: build a group from a recipe, measure it,
compare against expected values, report.

A manifest is a JSON document:

    {"schema": 1,
     "name": "optional title",
     "checks": [
        {"id": "unique-string",
         "recipe": {"kind": "...", ...},
         "budget_ms": 60000,          # optional, overrides the default
         "assertions": [
            {"op": "order", "params": {}, "expect": 1451520,
             "tag": "reported"},
            ...]}]}

Tags classify where an expected value came from and are validated but
otherwise inert: "reported" for values taken from an external source,
"direct" for values immediate from the definition, "derived" for values
produced by an independent computation kept alongside the tests.

A check's time budget is its own budget_ms field, else the budget_ms
given to run_manifest (the CLI's --budget-ms), else none. Budgets are
cooperative: the clock is consulted between assertions, so a single long
assertion is never interrupted mid-flight. A check that runs out of
budget or trips an internal resource cap is reported as
"skipped-resource", never as a failure; any other exception fails only
its own check. Reports are deterministic apart from wall-clock fields;
fingerprint() strips those.

A run builds each distinct recipe once. The build counts toward the budget
of the first check that needs the recipe, and every later check shares the
built group read-only, so the report is the same in any check order.

Recipes and their builder live in permres.recipes. This module imports
construct_recipe, ManifestError, pick, describe_error and serialize_group
from there, so callers may keep reading them here.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from . import __version__
from .bounds import CHECKS, evaluate
from .constructions import LabeledAction
from .fq import require_int, require_keys
from .recipes import (
    _BUILT,
    ManifestError,
    construct_recipe,
    describe_error,
    pick,
    serialize_group,
)
from .search import (
    base_size_exact,
    count_regular_tuples,
    distinguishing_number,
    distinguishing_witness,
    greedy_base,
    stabilizer_scan,
)
from .stabchain import ResourceLimit
from .structure import composition_factors, gamma_profile, in_gamma, is_solvable

SCHEMA_VERSION = 1
VALID_TAGS = ("reported", "direct", "derived")


# -- assertion operations --------------------------------------------------
# Every runner takes the constructed action and the assertion's parameter
# object and returns a JSON-comparable measured value. Expected values that
# are objects match as subsets: only the listed keys are compared. OPS
# lists each op's runner with the params keys it reads: its own inputs and
# the search budgets node_budget and elem_cap. A budget left out takes the
# library function's own default, and that function checks one given; any
# other key fails the assertion with an error naming it. The five bounds
# ops take their keys from bounds.CHECKS and need every one but formula's
# measured.


def _op_order(act: LabeledAction, p: dict):
    return act.group.order()


def _op_degree(act: LabeledAction, p: dict):
    return act.group.degree


def _op_transitive(act: LabeledAction, p: dict):
    return act.group.is_transitive()


def _op_primitive(act: LabeledAction, p: dict):
    return act.group.is_primitive()


def _op_solvable(act: LabeledAction, p: dict):
    return is_solvable(act.group)


def _op_orbit_sizes(act: LabeledAction, p: dict):
    return sorted(len(o) for o in act.group.orbits())


def _op_suborbit_sizes(act: LabeledAction, p: dict):
    H = act.group.point_stabilizer(p.get("point", 0))
    return sorted(len(o) for o in H.orbits())


def _op_comp_factors(act: LabeledAction, p: dict):
    factors = composition_factors(act.group)
    return [f.name for f in factors]


def _op_gamma_min_d(act: LabeledAction, p: dict):
    prof = gamma_profile(act.group)
    return prof["min_certified_d"]


def _op_in_gamma(act: LabeledAction, p: dict):
    return in_gamma(act.group, p["d"])


def _op_base_size(act: LabeledAction, p: dict):
    w = base_size_exact(act.group, **pick(p, "node_budget"))
    if w.status != "exact":
        raise ResourceLimit(f"base search stopped with status {w.status}")
    return {"size": w.size, "proof": w.proof_of_minimality}


def _op_base_upper(act: LabeledAction, p: dict):
    return greedy_base(act.group).size


def _op_dist_number(act: LabeledAction, p: dict):
    res = distinguishing_number(act.group, **pick(p, "elem_cap"))
    return res.number


def _op_dist_upper(act: LabeledAction, p: dict):
    return distinguishing_witness(act.group, p["r"]) is not None


def _op_stab_scan(act: LabeledAction, p: dict):
    rep = stabilizer_scan(act.group, p["c"], p["predicate"],
                          **pick(p, "node_budget"))
    if not rep.exhaustive:
        raise ResourceLimit(f"stabilizer scan stopped at its node budget after "
                            f"{rep.classes} classes")
    out = {"verdict": rep.verdict, "classes": rep.classes,
           "exhaustive": rep.exhaustive}
    if rep.worst_witness is not None:
        out["worst_order"] = rep.worst_witness.order
    return out


def _op_reg_count(act: LabeledAction, p: dict):
    res = count_regular_tuples(act.group, p["t"],
                               **pick(p, "threshold", "first_point", "node_budget"))
    return {"value": res.value, "reached": res.reached_threshold,
            "exact": res.exact, "t": res.t}


def _op_bound(name: str, shape: Callable = lambda rep: rep) -> tuple:
    # the bounds verb calls the same evaluate; shape makes this op's output
    return (lambda act, p: shape(evaluate(name, p, act.group))), CHECKS[name]


def _formula_shape(rep) -> dict:
    out = {"value": rep.bound_value}
    if rep.verdict is not None:
        out["verdict"] = rep.verdict
    return out


def _op_matches(act: LabeledAction, p: dict):
    other = construct_recipe(p["other"])
    for name in p["compare"]:
        if name not in OPS or name == "matches":
            raise ManifestError(f"cannot compare through op {name!r}")
        run = OPS[name][0]
        if run(act, {}) != run(other, {}):
            return False
    return True


def _op_roundtrip(act: LabeledAction, p: dict):
    G = act.group
    H = construct_recipe(json.loads(json.dumps(serialize_group(G)))).group
    if H.degree != G.degree or H.order() != G.order():
        return False
    return all(G.contains(g) for g in H.gens)


# op -> (runner, the params keys it reads)
OPS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "order": (_op_order, ()),
    "degree": (_op_degree, ()),
    "transitive": (_op_transitive, ()),
    "primitive": (_op_primitive, ()),
    "solvable": (_op_solvable, ()),
    "orbit-sizes": (_op_orbit_sizes, ()),
    "suborbit-sizes": (_op_suborbit_sizes, ("point",)),
    "comp-factors": (_op_comp_factors, ()),
    "gamma-min-d": (_op_gamma_min_d, ()),
    "in-gamma": (_op_in_gamma, ("d",)),
    "base-size": (_op_base_size, ("node_budget",)),
    "base-upper": (_op_base_upper, ()),
    "dist-number": (_op_dist_number, ("elem_cap",)),
    "dist-upper": (_op_dist_upper, ("r",)),
    "stab-scan": (_op_stab_scan, ("c", "predicate", "node_budget")),
    "reg-count": (_op_reg_count, ("t", "threshold", "first_point", "node_budget")),
    "lemma22": _op_bound("lemma22", attrgetter("verdict")),
    "thm13": _op_bound("thm13", attrgetter("verdict")),
    "formula": _op_bound("formula", _formula_shape),
    "threshold-m": _op_bound("threshold-m"),
    "threshold-n": _op_bound("threshold-n"),
    "matches": (_op_matches, ("other", "compare")),
    "roundtrip": (_op_roundtrip, ()),
}

# Threshold and formula ops never look at the constructed group, so their
# checks may use any cheap recipe; {"kind": "cyclic", "m": 1} works.


# -- validation ------------------------------------------------------------


def validate_manifest(doc: Any) -> list[dict]:
    if not isinstance(doc, dict):
        raise ManifestError("manifest root must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema {doc.get('schema')!r}, "
                            f"expected {SCHEMA_VERSION}")
    checks = doc.get("checks")
    if not isinstance(checks, list):
        raise ManifestError("manifest needs a 'checks' array")
    seen = set()
    for pos, chk in enumerate(checks):
        where = f"checks[{pos}]"
        if not isinstance(chk, dict):
            raise ManifestError(f"{where} must be an object")
        cid = chk.get("id")
        if not isinstance(cid, str) or not cid:
            raise ManifestError(f"{where} needs a nonempty string id")
        if cid in seen:
            raise ManifestError(f"{where}: duplicate id {cid!r}")
        seen.add(cid)
        if not isinstance(chk.get("recipe"), dict):
            raise ManifestError(f"{where} ({cid}): recipe must be an object")
        asserts = chk.get("assertions")
        if not isinstance(asserts, list) or not asserts:
            raise ManifestError(f"{where} ({cid}): needs a nonempty "
                                "assertions array")
        for apos, a in enumerate(asserts):
            aw = f"{where}.assertions[{apos}]"
            if not isinstance(a, dict):
                raise ManifestError(f"{aw} must be an object")
            if a.get("op") not in OPS:
                raise ManifestError(f"{aw}: unknown op {a.get('op')!r}")
            if "expect" not in a:
                raise ManifestError(f"{aw}: missing expect")
            if a.get("tag") not in VALID_TAGS:
                raise ManifestError(f"{aw}: tag must be one of "
                                    f"{', '.join(VALID_TAGS)}")
            if not isinstance(a.get("params", {}), dict):
                raise ManifestError(f"{aw}: params must be an object")
    return checks


# -- execution -------------------------------------------------------------


@dataclass
class AssertionResult:
    op: str
    expected: Any
    measured: Any
    ok: bool | None          # None when the assertion was resource-skipped
    error: str | None = None


@dataclass
class CheckResult:
    id: str
    status: str              # pass | fail | skipped-resource
    elapsed_ms: int
    assertions: list[AssertionResult] = field(default_factory=list)
    error: str | None = None


@dataclass
class RunReport:
    schema_version: int
    tool_version: str
    manifest_sha256: str
    name: str | None
    checks: list[CheckResult]

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped-resource": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts()
        if counts["fail"]:
            return 1
        if counts["skipped-resource"]:
            return 2
        return 0

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version,
                "tool_version": self.tool_version,
                "manifest_sha256": self.manifest_sha256,
                "name": self.name,
                "summary": self.counts(),
                "checks": [asdict(c) for c in self.checks]}

    def fingerprint(self) -> dict:
        """Report content with wall-clock fields removed; equal across
        runs of the same manifest."""
        doc = self.to_dict()
        for c in doc["checks"]:
            del c["elapsed_ms"]
        return doc


class _Clock:
    def __init__(self, budget_ms: int | None):
        self.budget_ms = budget_ms
        self.start = time.perf_counter()

    def elapsed_ms(self) -> int:
        return int((time.perf_counter() - self.start) * 1000)

    def check(self) -> None:
        if self.budget_ms is not None and self.elapsed_ms() > self.budget_ms:
            raise ResourceLimit(f"check budget {self.budget_ms}ms exhausted")


def run_check(chk: dict, budget_ms: int | None = None) -> CheckResult:
    """Build the check's recipe and evaluate its assertions in order.

    A ResourceLimit (budget or cap) skips the rest of the check, as does an
    assertion's ArithmeticError: a certified enclosure that needs more
    digits than the precision ladder holds, a limit of the tool, not of the
    input. Any other exception fails its assertion, or the whole check at
    construction, with a one-line cause, and never reaches the caller. The
    check's budget_ms is read first, at construction, so a bad one fails
    only this check.
    """
    clock = _Clock(chk.get("budget_ms", budget_ms))
    cid = chk["id"]
    try:
        if clock.budget_ms is not None:
            require_int("budget_ms", clock.budget_ms, 1)
        act = construct_recipe(chk["recipe"])
    except ResourceLimit as e:
        return CheckResult(cid, "skipped-resource", clock.elapsed_ms(),
                           error=f"construction: {describe_error(e)}")
    except Exception as e:
        return CheckResult(cid, "fail", clock.elapsed_ms(),
                           error=f"construction: {describe_error(e)}")

    results: list[AssertionResult] = []
    failed = skipped = False
    for a in chk["assertions"]:
        op, params, expected = a["op"], a.get("params", {}), a["expect"]
        try:
            clock.check()
            run, keys = OPS[op]
            require_keys(params, keys, f"op {op}")
            measured = run(act, params)
        except (ResourceLimit, ArithmeticError) as e:
            results.append(AssertionResult(op, expected, None, None, describe_error(e)))
            skipped = True
            break  # later assertions would blow the same budget
        except Exception as e:
            results.append(AssertionResult(op, expected, None, False, describe_error(e)))
            failed = True
            continue
        ok = _matches(expected, measured)
        failed = failed or not ok
        results.append(AssertionResult(op, expected, measured, ok))
    status = "fail" if failed else ("skipped-resource" if skipped else "pass")
    return CheckResult(cid, status, clock.elapsed_ms(), results)


def _matches(expected: Any, measured: Any) -> bool:
    if isinstance(expected, bool) or isinstance(measured, bool):
        return expected is measured
    if isinstance(expected, dict):
        return (isinstance(measured, dict)
                and all(k in measured and _matches(v, measured[k])
                        for k, v in expected.items()))
    if isinstance(expected, list):
        return (isinstance(measured, (list, tuple))
                and len(expected) == len(measured)
                and all(_matches(e, m) for e, m in zip(expected, measured)))
    return expected == measured


def bundled_corpus() -> Path:
    return Path(resources.files("permres.data") / "corpus.json")


def load_manifest(source: str | Path) -> tuple[dict, str]:
    """Read and parse a manifest file; returns (document, sha256 hex)."""
    import hashlib  # loads OpenSSL, so only where a digest is computed

    path = Path(source)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ManifestError(f"cannot read {path}: {e}") from None
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ManifestError(f"{path}: invalid JSON at line {e.lineno} "
                            f"column {e.colno}: {e.msg}") from None
    return doc, digest


def run_manifest(source: str | Path | dict,
                 budget_ms: int | None = None) -> RunReport:
    """Run every check and return the merged report, in manifest order.

    source may be a path or an already-parsed document. budget_ms is the
    per-check default (None: no budget), and a check's own budget_ms field
    overrides it. Like that field, it must be an integer >= 1; a bad field
    fails only its own check.

    Each distinct recipe is built once per run, by the first check that
    needs it and inside that check's budget; later checks share the built
    group, its cached chain and factor list included, and only read it.
    """
    if budget_ms is not None:
        require_int("budget_ms", budget_ms, 1)
    if isinstance(source, dict):
        doc = source
        try:
            text = json.dumps(doc, sort_keys=True)
        except (TypeError, ValueError):
            # not encodable as JSON; its bad recipes fail their own checks
            text = repr(doc)
        import hashlib

        digest = hashlib.sha256(text.encode()).hexdigest()
    else:
        doc, digest = load_manifest(source)
    checks = validate_manifest(doc)
    token = _BUILT.set({})
    try:
        results = [run_check(c, budget_ms) for c in checks]
    finally:
        _BUILT.reset(token)
    return RunReport(SCHEMA_VERSION, __version__, digest,
                     doc.get("name"), results)
