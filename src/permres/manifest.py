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

Budgets are cooperative: the clock is consulted between assertions, so a
single long assertion is never interrupted mid-flight. A check that runs
out of budget or trips an internal resource cap is reported as
"skipped-resource", never as a failure; any other exception fails only its
own check. Reports are deterministic apart from wall-clock fields;
fingerprint() strips those.

A run builds each distinct recipe once. The build counts toward the budget
of the first check that needs the recipe, and every later check shares the
built group read-only, so the report is the same in any check order.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata, resources
from pathlib import Path
from typing import Any, Callable

from .bounds import formula_suite, lemma22_check, m_epsilon, n_c_delta, theorem13_check
from .classical import FAMILIES, MatrixGroup, classical_generators
from .constructions import (
    ConstructionError,
    LabeledAction,
    affine_action,
    coset_action,
    diagonal_type_group,
    matrix_orbit_action,
    partitions_action,
    subsets_action,
    wreath_imprimitive,
    wreath_product_action,
)
from .fq import FqField, FqMatrix
from .perm import Perm
from .search import (
    base_size_exact,
    count_regular_tuples,
    distinguishing_number,
    distinguishing_witness,
    greedy_base,
    stabilizer_scan,
)
from .stabchain import PermGroup, ResourceLimit
from .structure import composition_factors, gamma_profile, in_gamma, is_solvable

SCHEMA_VERSION = 1
VALID_TAGS = ("reported", "direct", "derived")

try:
    TOOL_VERSION = metadata.version("permres")
except metadata.PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.1.0"


class ManifestError(ValueError):
    """Manifest cannot be parsed or fails structural validation."""


# -- group serialization ---------------------------------------------------


def serialize_group(G: PermGroup) -> dict:
    return {
        "degree": G.degree,
        "generators": [list(g.images) for g in G.gens],
        "label": G.label,
    }


def group_from_serialized(doc: dict) -> PermGroup:
    try:
        degree = int(doc["degree"])
        gens = [Perm(list(map(int, images))) for images in doc["generators"]]
    except (KeyError, TypeError, ValueError) as e:
        raise ManifestError(f"bad serialized group: {e}") from None
    for g in gens:
        if len(g.images) != degree:
            raise ManifestError("generator length does not match degree")
    return PermGroup(degree, gens, label=doc.get("label"))


# -- recipes ---------------------------------------------------------------


def _as_action(G: PermGroup) -> LabeledAction:
    pts = list(range(G.degree))
    return LabeledAction(G, pts, {i: i for i in pts})


def _need(recipe: dict, *keys: str) -> list:
    missing = [k for k in keys if k not in recipe]
    if missing:
        raise ConstructionError(
            f"recipe kind {recipe.get('kind')!r} needs {', '.join(missing)}")
    return [recipe[k] for k in keys]


def _matrix_group(recipe: dict) -> MatrixGroup:
    kind = recipe["kind"]
    if kind == "classical":
        family, m, q = _need(recipe, "family", "m", "q")
        if family not in FAMILIES:
            raise ConstructionError(f"unknown family {family!r}")
        return classical_generators(family, m, q)
    if kind == "matrix-generators":
        m, q, mats = _need(recipe, "m", "q", "matrices")
        if m < 1:
            raise ConstructionError("matrix-generators needs m >= 1")
        fld = FqField.of(q)
        for rows in mats:
            if not (isinstance(rows, list) and len(rows) == m and all(
                    isinstance(row, list) and len(row) == m
                    and all(isinstance(x, int) and 0 <= x < q for x in row)
                    for row in rows)):
                raise ConstructionError(
                    f"each matrix must be {m}x{m} with entries in 0..{q - 1}")
        return MatrixGroup(family=recipe.get("label", "custom"), m=m, q=q,
                           field=fld,
                           matrices=[FqMatrix(fld, rows) for rows in mats],
                           form=None, abstract_order=0)
    raise ConstructionError(f"recipe kind {kind!r} does not define matrices")


def _matrix_action(recipe: dict) -> LabeledAction:
    grp = _matrix_group(recipe)
    space = recipe.get("space", "vector")
    seed = recipe.get("seed")
    if seed is not None:
        # a vector seed is one row, a subspace seed a list of rows
        rows = [seed] if space == "vector" else seed
        if not (isinstance(rows, (list, tuple)) and all(
                isinstance(row, (list, tuple)) and len(row) == grp.m
                and all(isinstance(x, int) and 0 <= x < grp.q for x in row)
                for row in rows)):
            shape = "a vector" if space == "vector" else "a list of vectors"
            raise ConstructionError(
                f"seed must be {shape} of {grp.m} entries in 0..{grp.q - 1}")
    if space == "vector":
        return matrix_orbit_action(grp, seed=seed, kind="vector")
    if space == "subspace":
        return matrix_orbit_action(grp, seed=seed,
                                   kind="subspace", k=recipe.get("k"),
                                   flt=recipe.get("filter", "all"))
    raise ConstructionError(f"unknown space {space!r}")


# recipe JSON text -> action built from it, kept only when the build
# succeeds; set only while run_manifest runs
_BUILT: ContextVar[dict | None] = ContextVar("_BUILT", default=None)


def construct_recipe(recipe: dict) -> LabeledAction:
    """Build the labeled permutation action a recipe describes.

    Matrix-flavored kinds accept "space": "vector" or "subspace" (with "k"
    and "filter"). A coset recipe whose subgroup is also matrix-flavored
    over the same field embeds the subgroup's matrices through the parent
    action instead of building a second, unrelated action.

    Inside run_manifest each distinct recipe that JSON can encode is built
    once, nested ones (coset parents, wreath factors, a matches target)
    included, and every later call returns the same action. Elsewhere, and
    for a recipe JSON cannot encode, every call builds afresh.
    """
    built = _BUILT.get()
    if built is None:
        return _build_recipe(recipe)
    try:
        key = json.dumps(recipe, sort_keys=True)
    except (TypeError, ValueError):
        # a dict built in code may hold what JSON cannot encode (a set,
        # keys of mixed types); such a recipe is built afresh, not kept
        return _build_recipe(recipe)
    act = built.get(key)
    if act is None:
        act = built[key] = _build_recipe(recipe)
    return act


def _build_recipe(recipe: dict) -> LabeledAction:
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ConstructionError("recipe must be an object with a 'kind'")
    kind = recipe["kind"]

    if kind in ("symmetric", "alternating", "cyclic"):
        (m,) = _need(recipe, "m")
        if m < 1:
            raise ConstructionError(f"{kind} needs m >= 1")
    if kind == "symmetric":
        return _as_action(PermGroup.symmetric(m))
    if kind == "alternating":
        return _as_action(PermGroup.alternating(m))
    if kind == "cyclic":
        g = Perm(list(range(1, m)) + [0])
        return _as_action(PermGroup(m, [g], label=f"C{m}"))
    if kind == "dihedral":
        (m,) = _need(recipe, "m")
        if m < 3:
            raise ConstructionError("dihedral needs m >= 3")
        rot = Perm(list(range(1, m)) + [0])
        ref = Perm([(m - i) % m for i in range(m)])
        return _as_action(PermGroup(m, [rot, ref], label=f"D{m}"))
    if kind == "perm-generators":
        degree, gens = _need(recipe, "degree", "generators")
        G = group_from_serialized({"degree": degree, "generators": gens,
                                   "label": recipe.get("label")})
        return _as_action(G)
    if kind in ("classical", "matrix-generators"):
        return _matrix_action(recipe)
    if kind == "affine":
        return affine_action(_matrix_group(dict(recipe, kind="classical")))
    if kind == "coset":
        parent_recipe, sub_recipe = _need(recipe, "group", "subgroup")
        if not isinstance(sub_recipe, dict):
            raise ConstructionError("coset subgroup must be an object")
        parent = construct_recipe(parent_recipe)
        if (sub_recipe.get("kind") in ("classical", "matrix-generators")
                and parent_recipe.get("kind") in ("classical", "matrix-generators")):
            sub_mats = _matrix_group(sub_recipe)
            H = PermGroup(parent.degree,
                          [parent.perm_of(M) for M in sub_mats.matrices],
                          label=sub_mats.label)
        else:
            H = construct_recipe(sub_recipe).group
            if H.degree != parent.degree:
                raise ConstructionError("subgroup degree does not match")
        return coset_action(parent.group, H)
    if kind == "subsets":
        m, k = _need(recipe, "m", "k")
        return subsets_action(m, k, alt=recipe.get("alt", False))
    if kind == "partitions":
        m, k = _need(recipe, "m", "k")
        return partitions_action(m, k, alt=recipe.get("alt", False))
    if kind == "wreath":
        inner, outer, act = _need(recipe, "inner", "outer", "action")
        L = construct_recipe(inner).group
        P = construct_recipe(outer).group
        if act == "imprimitive":
            return wreath_imprimitive(L, P)
        if act == "product":
            return wreath_product_action(L, P)
        raise ConstructionError(f"unknown wreath action {act!r}")
    if kind == "diagonal":
        (factor,) = _need(recipe, "factor")
        T = construct_recipe(factor).group
        outer = recipe.get("outer")
        return diagonal_type_group(
            T, include_swap=recipe.get("swap", True),
            outer=Perm(list(outer)) if outer is not None else None)
    raise ConstructionError(f"unknown recipe kind {kind!r}")


# -- assertion operations --------------------------------------------------
# Every runner takes the constructed action and the assertion's parameter
# object and returns a JSON-comparable measured value. Expected values that
# are objects match as subsets: only the listed keys are compared. Budgets
# and caps a check leaves out take the library function's own default.


def pick(params: dict, *keys: str) -> dict:
    """The entries of params under the given keys, for those present."""
    return {k: params[k] for k in keys if k in params}


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
    factors = composition_factors(act.group, **pick(p, "order_cap"))
    return [f.name for f in factors]


def _op_gamma_min_d(act: LabeledAction, p: dict):
    prof = gamma_profile(act.group, **pick(p, "d_max", "order_cap"))
    return prof["min_certified_d"]


def _op_in_gamma(act: LabeledAction, p: dict):
    return in_gamma(act.group, p["d"], **pick(p, "order_cap"))


def _op_base_size(act: LabeledAction, p: dict):
    w = base_size_exact(act.group, **pick(p, "max_b", "node_budget"))
    if w.status != "exact":
        raise ResourceLimit(f"base search stopped with status {w.status}")
    return {"size": w.size, "proof": w.proof_of_minimality}


def _op_base_upper(act: LabeledAction, p: dict):
    return greedy_base(act.group).size


def _op_dist_number(act: LabeledAction, p: dict):
    res = distinguishing_number(act.group, **pick(p, "elem_cap"))
    return res.number


def _op_dist_upper(act: LabeledAction, p: dict):
    return distinguishing_witness(act.group, p["r"], **pick(p, "tries")) is not None


def _op_stab_scan(act: LabeledAction, p: dict):
    rep = stabilizer_scan(act.group, p["c"], p["predicate"],
                          **pick(p, "node_budget"))
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


def _op_lemma22(act: LabeledAction, p: dict):
    return lemma22_check(act.group, p["d"]).verdict


def _op_thm13(act: LabeledAction, p: dict):
    rep = theorem13_check(act.group, p["c"], p["d"], Fraction(p["delta"]),
                          **pick(p, "order_cap"))
    return rep.verdict


def _op_formula(act: LabeledAction, p: dict):
    rep = formula_suite(p["name"], p["params"], measured=p.get("measured"))
    out = {"value": rep.bound_value}
    if rep.verdict is not None:
        out["verdict"] = rep.verdict
    return out


def _op_threshold_m(act: LabeledAction, p: dict):
    return m_epsilon(Fraction(p["eps"]))


def _op_threshold_n(act: LabeledAction, p: dict):
    return n_c_delta(p["c"], Fraction(p["delta"]))


def _op_matches(act: LabeledAction, p: dict):
    other = construct_recipe(p["other"])
    for name in p["compare"]:
        runner = OPS.get(name)
        if runner is None or name == "matches":
            raise ManifestError(f"cannot compare through op {name!r}")
        if runner(act, {}) != runner(other, {}):
            return False
    return True


def _op_roundtrip(act: LabeledAction, p: dict):
    G = act.group
    H = group_from_serialized(json.loads(json.dumps(serialize_group(G))))
    if H.degree != G.degree or H.order() != G.order():
        return False
    return all(G.contains(g) for g in H.gens)


OPS: dict[str, Callable] = {
    "order": _op_order,
    "degree": _op_degree,
    "transitive": _op_transitive,
    "primitive": _op_primitive,
    "solvable": _op_solvable,
    "orbit-sizes": _op_orbit_sizes,
    "suborbit-sizes": _op_suborbit_sizes,
    "comp-factors": _op_comp_factors,
    "gamma-min-d": _op_gamma_min_d,
    "in-gamma": _op_in_gamma,
    "base-size": _op_base_size,
    "base-upper": _op_base_upper,
    "dist-number": _op_dist_number,
    "dist-upper": _op_dist_upper,
    "stab-scan": _op_stab_scan,
    "reg-count": _op_reg_count,
    "lemma22": _op_lemma22,
    "thm13": _op_thm13,
    "formula": _op_formula,
    "threshold-m": _op_threshold_m,
    "threshold-n": _op_threshold_n,
    "matches": _op_matches,
    "roundtrip": _op_roundtrip,
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
        if "budget_ms" in chk and (not isinstance(chk["budget_ms"], int)
                                   or chk["budget_ms"] <= 0):
            raise ManifestError(f"{where} ({cid}): budget_ms must be a "
                                "positive integer")
    return checks


# -- execution -------------------------------------------------------------


@dataclass
class AssertionResult:
    op: str
    expected: Any
    measured: Any
    ok: bool | None          # None when the assertion was resource-skipped
    error: str | None = None

    def to_dict(self) -> dict:
        return {"op": self.op, "expected": self.expected,
                "measured": self.measured, "ok": self.ok, "error": self.error}


@dataclass
class CheckResult:
    id: str
    status: str              # pass | fail | skipped-resource
    elapsed_ms: int
    assertions: list[AssertionResult] = field(default_factory=list)
    error: str | None = None

    def to_dict(self) -> dict:
        return {"id": self.id, "status": self.status,
                "elapsed_ms": self.elapsed_ms,
                "assertions": [a.to_dict() for a in self.assertions],
                "error": self.error}


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
                "checks": [c.to_dict() for c in self.checks]}

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


def default_budget_ms() -> int | None:
    raw = os.environ.get("PERMRES_BUDGET_MS")
    if not raw:
        return None
    try:
        val = int(raw)
    except ValueError:
        raise ManifestError(f"PERMRES_BUDGET_MS must be an integer, "
                            f"got {raw!r}") from None
    return val if val > 0 else None


def describe_error(e: Exception) -> str:
    # bad input and exhausted budgets carry a sentence; any other exception,
    # such as KeyError's bare key ('d') or an AssertionError from a failed
    # re-check, needs its name to read.
    if isinstance(e, (ValueError, ResourceLimit)):
        return str(e)
    return f"{type(e).__name__}: {e}"


def run_check(chk: dict, budget_ms: int | None = None) -> CheckResult:
    """Build the check's recipe and evaluate its assertions in order.

    A ResourceLimit (budget or cap) skips the rest of the check; any other
    exception fails its assertion, or the whole check at construction, with
    a one-line cause, and never reaches the caller.
    """
    clock = _Clock(chk.get("budget_ms", budget_ms))
    cid = chk["id"]
    try:
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
            measured = OPS[op](act, params)
        except ResourceLimit as e:
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
    per-check default; PERMRES_BUDGET_MS supplies it when not given here,
    and a check's own budget_ms field overrides both.

    Each distinct recipe is built once per run, by the first check that
    needs it and inside that check's budget; later checks share the built
    group, its cached chain and factor list included, and only read it.
    """
    if isinstance(source, dict):
        doc = source
        try:
            text = json.dumps(doc, sort_keys=True)
        except (TypeError, ValueError):
            # not encodable as JSON; its bad recipes fail their own checks
            text = repr(doc)
        digest = hashlib.sha256(text.encode()).hexdigest()
    else:
        doc, digest = load_manifest(source)
    checks = validate_manifest(doc)
    if budget_ms is None:
        budget_ms = default_budget_ms()
    token = _BUILT.set({})
    try:
        results = [run_check(c, budget_ms) for c in checks]
    finally:
        _BUILT.reset(token)
    return RunReport(SCHEMA_VERSION, TOOL_VERSION, digest,
                     doc.get("name"), results)
