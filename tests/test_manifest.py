"""Recipe construction, manifest validation, check execution, reports."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permres import manifest, recipes
from permres.classical import classical_generators
from permres.constructions import ConstructionError, matrix_orbit_action
from permres.manifest import (
    ManifestError,
    OPS,
    _matches,
    bundled_corpus,
    construct_recipe,
    load_manifest,
    run_check,
    run_manifest,
    serialize_group,
    validate_manifest,
)
from permres.search import base_size_exact
from permres.stabchain import PermGroup, StabilizerChain


# -- recipes ---------------------------------------------------------------


def test_primitive_recipe_kinds():
    assert construct_recipe({"kind": "symmetric", "m": 5}).group.order() == 120
    assert construct_recipe({"kind": "alternating", "m": 5}).group.order() == 60
    assert construct_recipe({"kind": "cyclic", "m": 7}).group.order() == 7
    d = construct_recipe({"kind": "dihedral", "m": 6})
    assert d.group.order() == 12 and d.degree == 6


def test_perm_generators_recipe():
    act = construct_recipe({
        "kind": "perm-generators", "degree": 4,
        "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
    })
    assert act.group.order() == 24


def test_classical_vector_recipe():
    act = construct_recipe({"kind": "classical", "family": "Sp", "m": 6, "q": 2})
    assert act.degree == 63 and act.group.order() == 1451520


def test_classical_subspace_recipe():
    act = construct_recipe({"kind": "classical", "family": "GL", "m": 4, "q": 3,
                            "space": "subspace", "k": 1})
    assert act.degree == 40 and act.group.order() == 12130560


def test_matrix_generators_recipe():
    # the two matrices generate GL(2,2) acting on the 3 nonzero vectors
    act = construct_recipe({
        "kind": "matrix-generators", "m": 2, "q": 2,
        "matrices": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]],
    })
    assert act.degree == 3 and act.group.order() == 6


def test_affine_recipe():
    act = construct_recipe({"kind": "affine", "family": "SL", "m": 2, "q": 3})
    assert act.degree == 9 and act.group.order() == 9 * 24


def test_coset_recipe_embeds_matrix_subgroup():
    act = construct_recipe({
        "kind": "coset",
        "group": {"kind": "classical", "family": "Sp", "m": 6, "q": 2},
        "subgroup": {"kind": "classical", "family": "GO+", "m": 6, "q": 2},
    })
    assert act.degree == 36 and act.group.order() == 1451520


def test_coset_recipe_perm_subgroup():
    act = construct_recipe({
        "kind": "coset",
        "group": {"kind": "symmetric", "m": 4},
        "subgroup": {"kind": "dihedral", "m": 4},
    })
    assert act.degree == 3


def test_combinatorial_recipes():
    assert construct_recipe({"kind": "subsets", "m": 6, "k": 2}).degree == 15
    assert construct_recipe({"kind": "partitions", "m": 4, "k": 2}).degree == 3
    alt = construct_recipe({"kind": "subsets", "m": 5, "k": 2, "alt": True})
    assert alt.group.order() == 60


def test_wreath_recipes():
    imp = construct_recipe({"kind": "wreath",
                            "inner": {"kind": "symmetric", "m": 3},
                            "outer": {"kind": "symmetric", "m": 2},
                            "action": "imprimitive"})
    assert imp.degree == 6 and imp.group.order() == 72
    prod = construct_recipe({"kind": "wreath",
                             "inner": {"kind": "symmetric", "m": 3},
                             "outer": {"kind": "symmetric", "m": 2},
                             "action": "product"})
    assert prod.degree == 9 and prod.group.order() == 72


def test_diagonal_recipe():
    act = construct_recipe({"kind": "diagonal",
                            "factor": {"kind": "alternating", "m": 5},
                            "swap": True, "outer": [0, 1, 2, 4, 3]})
    assert act.degree == 60 and act.group.order() == 14400


def test_recipe_errors():
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "who-knows"})
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "symmetric"})  # missing m
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "cyclic", "m": 0})
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "wreath", "inner": {"kind": "cyclic", "m": 2},
                          "outer": {"kind": "cyclic", "m": 2}, "action": "odd"})
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "coset",
                          "group": {"kind": "symmetric", "m": 5},
                          "subgroup": {"kind": "symmetric", "m": 4}})
    with pytest.raises(ConstructionError):
        construct_recipe("not a dict")


@pytest.mark.parametrize("recipe", [
    {"kind": "classical", "family": "Sp", "m": 4, "q": 3, "seed": [1, 2]},
    {"kind": "classical", "family": "Sp", "m": 4, "q": 3, "seed": [1, 0, 0, 3]},
    {"kind": "classical", "family": "Sp", "m": 4, "q": 2, "space": "subspace",
     "seed": [[1, 0, 0, 0], [0, 1, 0]]},
    {"kind": "matrix-generators", "m": 2, "q": 2, "matrices": [[[0, 1], [1, 0]]],
     "seed": [1, 0, 1]},
], ids=["short", "entry-out-of-field", "short-subspace-row", "matrix-generators-long"])
def test_seed_of_wrong_shape_names_seed(recipe):
    # rejected before the orbit closes, not later as a bad permutation
    with pytest.raises(ConstructionError, match="seed must be"):
        construct_recipe(recipe)


def _corpus_recipes() -> dict:
    doc, _ = load_manifest(bundled_corpus())
    return {c["id"]: c["recipe"] for c in doc["checks"]}


# one recipe of every kind that carries an order bound, beside the corpus's;
# SU's affine group translates by (q^2)^m vectors, and SL(3,4) on points has
# a scalar kernel of order 3
BOUNDED_KINDS = [
    {"kind": "symmetric", "m": 6},
    {"kind": "alternating", "m": 6},
    {"kind": "cyclic", "m": 7},
    {"kind": "subsets", "m": 7, "k": 3, "alt": True},
    {"kind": "partitions", "m": 6, "k": 2},
    {"kind": "wreath", "inner": {"kind": "symmetric", "m": 3},
     "outer": {"kind": "cyclic", "m": 3}, "action": "imprimitive"},
    {"kind": "wreath", "inner": {"kind": "alternating", "m": 4},
     "outer": {"kind": "symmetric", "m": 2}, "action": "product"},
    {"kind": "classical", "family": "SU", "m": 3, "q": 2},
    {"kind": "classical", "family": "SL", "m": 3, "q": 4, "space": "subspace", "k": 1},
    {"kind": "classical", "family": "Sp", "m": 4, "q": 3, "space": "subspace",
     "k": 2, "filter": "totally-isotropic"},
    {"kind": "affine", "family": "SU", "m": 3, "q": 2},
    {"kind": "affine", "family": "GL", "m": 2, "q": 5},
    {"kind": "coset", "group": {"kind": "symmetric", "m": 5},
     "subgroup": {"kind": "alternating", "m": 5}},
    {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "swap": False},
]


def _bounded_recipes() -> list:
    by_text = {}
    for cid, r in _corpus_recipes().items():
        by_text.setdefault(json.dumps(r, sort_keys=True), pytest.param(r, id=cid))
    return list(by_text.values()) + [
        pytest.param(r, id=f"{r['kind']}-{i}") for i, r in enumerate(BOUNDED_KINDS)]


@pytest.mark.parametrize("recipe", _bounded_recipes())
def test_order_under_bound_matches_unbounded_chain(recipe):
    G = construct_recipe(recipe).group
    assert G.order_bound is not None
    full = StabilizerChain(G.degree, G.gens).order()
    assert G.order() == full <= G.order_bound


def test_generator_recipes_carry_no_bound():
    perm = construct_recipe({"kind": "perm-generators", "degree": 4,
                             "generators": [[1, 2, 3, 0]]})
    mats = construct_recipe({"kind": "matrix-generators", "m": 2, "q": 3,
                             "matrices": [[[1, 1], [0, 1]]], "space": "subspace",
                             "k": 1})
    assert perm.group.order_bound is None and mats.group.order_bound is None
    # a direct call on a classical group is bounded as its recipe is: the
    # abstract order, less the scalars on subspaces
    grp = classical_generators("GL", 3, 2)
    assert matrix_orbit_action(grp, kind="vector").group.order_bound == 168
    grp = classical_generators("SL", 3, 4)
    assert matrix_orbit_action(grp, kind="subspace", k=1).group.order_bound == 60480 // 3


@pytest.mark.parametrize("check_id", [
    "sp62-vector", "goplus62-vector", "linear-4-2-points", "deg36-subspace-route",
    "linear-4-3-points", "deg36-coset"])
def test_one_pass_generators_match_the_stored_action(check_id):
    recipe = _corpus_recipes()[check_id]
    act = construct_recipe(recipe)
    if recipe["kind"] == "coset":
        objs = construct_recipe(recipe["group"]).group.gens
    else:
        objs = recipes._matrix_group(recipe).matrices
    perms = [act.perm_of(obj) for obj in objs]
    assert act.group.gens == [p for p in perms if not p.is_identity()]
    assert act.labels == sorted(act.labels)


# -- serialization ---------------------------------------------------------


def test_group_serialization_roundtrip():
    G = construct_recipe({"kind": "subsets", "m": 5, "k": 2}).group
    doc = json.loads(json.dumps(serialize_group(G)))
    assert doc["kind"] == "perm-generators"
    H = construct_recipe(doc).group
    assert H.degree == G.degree and H.order() == G.order()
    assert all(G.contains(g) for g in H.gens)


def test_group_serialization_errors():
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "perm-generators", "degree": 3})
    with pytest.raises(ConstructionError):
        construct_recipe({"kind": "perm-generators", "degree": 3, "generators": [[0, 1]]})


# -- validation ------------------------------------------------------------


def _one_check(**over):
    chk = {"id": "a", "recipe": {"kind": "cyclic", "m": 3},
           "assertions": [{"op": "order", "expect": 3, "tag": "direct"}]}
    chk.update(over)
    return {"schema": 1, "checks": [chk]}


def test_validate_accepts_minimal_manifest():
    assert len(validate_manifest(_one_check())) == 1


@pytest.mark.parametrize("doc,msg", [
    ([], "root"),
    ({"schema": 2, "checks": []}, "schema"),
    ({"schema": 1}, "checks"),
    (_one_check(id=""), "id"),
    (_one_check(recipe=None), "recipe"),
    (_one_check(assertions=[]), "assertions"),
    (_one_check(assertions=[{"op": "nope", "expect": 1, "tag": "direct"}]), "op"),
    (_one_check(assertions=[{"op": "order", "expect": 1, "tag": "guessed"}]), "tag"),
    (_one_check(assertions=[{"op": "order", "tag": "direct"}]), "expect"),
    (_one_check(budget_ms=0), "budget"),
    (_one_check(budget_ms=True), "budget"),
    *[(_one_check(assertions=[{"op": op, "params": {key: bad}, "expect": 1, "tag": "direct"}]), key)
      for op, key in (("base-size", "node_budget"), ("dist-number", "elem_cap"))
      for bad in (0, -1, True, 1.5)],
])
def test_validate_rejects_bad_shapes(doc, msg):
    if msg in ("budget", "node_budget", "elem_cap"):
        # a budget is checked where it is read: the document is valid, and
        # the bad value fails its own check with an error naming the key
        validate_manifest(doc)
        [chk] = run_manifest(doc).checks
        error = chk.error or chk.assertions[0].error
        assert chk.status == "fail" and msg in error, error
        return
    with pytest.raises(ManifestError, match=msg):
        validate_manifest(doc)


def test_validate_rejects_duplicate_ids():
    doc = _one_check()
    doc["checks"].append(dict(doc["checks"][0]))
    with pytest.raises(ManifestError, match="duplicate"):
        validate_manifest(doc)


def test_unknown_check_keys_are_inert():
    doc = _one_check(note="free-form commentary survives validation")
    assert validate_manifest(doc)[0]["note"].startswith("free-form")


# -- comparison semantics --------------------------------------------------


def test_matches_subset_for_objects():
    assert _matches({"size": 6}, {"size": 6, "proof": "exhausted"})
    assert not _matches({"size": 6, "missing": 1}, {"size": 6})
    assert not _matches({"size": 5}, {"size": 6, "proof": "exhausted"})


def test_matches_lists_and_bools():
    assert _matches([1, 35], [1, 35])
    assert not _matches([35, 1], [1, 35])
    assert _matches(True, True)
    # JSON true must not match the number 1, nor 1 match true
    assert not _matches(True, 1)
    assert not _matches(1, True)


# -- execution -------------------------------------------------------------


def test_run_check_pass_and_fail():
    good = run_check({"id": "g", "recipe": {"kind": "symmetric", "m": 5},
                      "assertions": [{"op": "order", "expect": 120,
                                      "tag": "direct"}]})
    assert good.status == "pass" and good.assertions[0].ok is True

    bad = run_check({"id": "b", "recipe": {"kind": "symmetric", "m": 5},
                     "assertions": [{"op": "order", "expect": 121,
                                     "tag": "reported"}]})
    assert bad.status == "fail"
    assert bad.assertions[0].measured == 120
    assert bad.assertions[0].ok is False


def test_run_check_construction_failure():
    res = run_check({"id": "c", "recipe": {"kind": "cyclic", "m": -1},
                     "assertions": [{"op": "order", "expect": 1,
                                     "tag": "direct"}]})
    assert res.status == "fail" and "construction" in res.error


def test_run_check_refuses_a_k_that_is_not_the_seed_dimension():
    recipe = {"kind": "classical", "family": "Sp", "m": 4, "q": 2, "space": "subspace",
              "k": 3, "seed": [[1, 0, 0, 0]]}
    check = {"id": "k", "recipe": recipe,
             "assertions": [{"op": "order", "expect": 720, "tag": "direct"}]}
    res = run_check(check)
    assert res.status == "fail"
    assert res.error == ("construction: subspace k is 3, "
                         "but the seed spans dimension 1")
    assert run_check({**check, "recipe": {**recipe, "k": 1}}).status == "pass"


def test_ill_typed_checks_fail_alone():
    # a string where an int belongs and a missing op parameter each fail
    # their own check with a one-line cause; the next check still runs
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "typed", "recipe": {"kind": "symmetric", "m": "5"},
         "assertions": [{"op": "order", "expect": 120, "tag": "direct"}]},
        {"id": "no-d", "recipe": {"kind": "symmetric", "m": 5},
         "assertions": [{"op": "in-gamma", "expect": "yes", "tag": "direct"}]},
        {"id": "s5", "recipe": {"kind": "symmetric", "m": 5},
         "assertions": [{"op": "order", "expect": 120, "tag": "direct"}]},
    ]})
    typed, no_d, s5 = rep.checks
    assert [c.status for c in rep.checks] == ["fail", "fail", "pass"]
    assert typed.error == "construction: m must be an integer, not '5'"
    assert no_d.assertions[0].ok is False
    assert no_d.assertions[0].error == "KeyError: 'd'"
    assert s5.assertions[0].measured == 120


def test_ill_typed_recipes_fail_only_their_own_checks():
    # each recipe is rejected up front with a ConstructionError, not an
    # IndexError or AttributeError from deep inside, nor built as a
    # degenerate group; the well-typed check after them still passes
    bad = [
        {"kind": "matrix-generators", "m": 2, "q": 2, "matrices": [[[5, 0], [0, 1]]]},
        {"kind": "matrix-generators", "m": 2, "q": 3, "matrices": [[[1, 0, 0], [0, 1]]]},
        {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "outer": [0, 1]},
        {"kind": "coset", "group": {"kind": "symmetric", "m": 4}, "subgroup": [1]},
        {"kind": "symmetric", "m": -3},
        {"kind": "alternating", "m": 0},
        {"kind": "matrix-generators", "m": 0, "q": 3, "matrices": [[]]},
        {"kind": "partitions", "m": 6, "k": 0},
        {"kind": "matrix-generators", "m": 2, "q": 3, "matrices": 7},
        {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "outer": 5},
    ]
    checks = [{"id": f"bad-{i}", "recipe": recipe,
               "assertions": [{"op": "order", "expect": 1, "tag": "direct"}]}
              for i, recipe in enumerate(bad)]
    checks.append({"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
                   "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]})
    rep = run_manifest({"schema": 1, "checks": checks})
    assert [c.status for c in rep.checks] == ["fail"] * len(bad) + ["pass"]
    for c in rep.checks[:-1]:
        assert c.error.startswith("construction: ") and "\n" not in c.error
        assert "Error" not in c.error, c.error
    assert rep.exit_code == 1


def test_a_misspelt_recipe_key_fails_only_its_check():
    # "spaec" once built Sp(4,2) on vectors; the manifest itself is valid
    doc = {"schema": 1, "checks": [
        {"id": "typo", "recipe": {"kind": "classical", "family": "Sp", "m": 4,
                                  "q": 2, "spaec": "subspace", "k": 2},
         "assertions": [{"op": "order", "expect": 720, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]}]}
    assert len(validate_manifest(doc)) == 2
    typo, s4 = run_manifest(doc).checks
    assert [typo.status, s4.status] == ["fail", "pass"]
    assert typo.error == ("construction: unknown params key 'spaec' for recipe "
                          "kind 'classical', which reads family, filter, k, kind, "
                          "m, q, seed, space")


def test_a_bool_op_param_fails_only_its_check():
    # true was read as 1: each of these checks passed
    s4 = {"kind": "symmetric", "m": 4}
    doc = {"schema": 1, "checks": [
        {"id": "point", "recipe": s4,
         "assertions": [{"op": "suborbit-sizes", "params": {"point": True},
                         "expect": [6], "tag": "direct"}]},
        {"id": "threshold", "recipe": s4,
         "assertions": [{"op": "reg-count", "params": {"t": 3, "threshold": True},
                         "expect": {"reached": True}, "tag": "direct"}]},
        {"id": "measured", "recipe": {"kind": "cyclic", "m": 1},
         "assertions": [{"op": "formula", "params": {
             "name": "faw_bound", "params": {"order": 24, "n": 4}, "measured": True},
             "expect": {"verdict": "holds"}, "tag": "direct"}]},
        {"id": "s4", "recipe": s4,
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]}]}
    rep = run_manifest(doc)
    assert [c.status for c in rep.checks] == ["fail", "fail", "fail", "pass"]
    for c, key in zip(rep.checks, ("point", "threshold", "measured")):
        assert c.assertions[0].error == f"{key} must be an integer, not True"
    assert rep.exit_code == 1


def test_a_precision_ladder_overflow_is_skipped_not_failed():
    # the enclosure of M(1e-200) needs more digits than the ladder holds: a
    # limit of the tool, as the bounds verb's exit code 2 says
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "tiny-eps", "recipe": {"kind": "cyclic", "m": 1},
         "assertions": [{"op": "threshold-m", "params": {"eps": "1e-200"},
                         "expect": 1, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]},
    ]})
    assert [c.status for c in rep.checks] == ["skipped-resource", "pass"]
    tiny = rep.checks[0].assertions[0]
    assert tiny.ok is None and tiny.error.startswith("ArithmeticError: ")
    assert rep.exit_code == 2


def test_a_bad_budget_fails_only_its_own_check():
    # each budget is checked by the function that reads it, so a bad one
    # fails its check with an error naming the key, and the next check runs
    s5 = {"kind": "symmetric", "m": 5}
    order = {"op": "order", "expect": 120, "tag": "direct"}
    ops = {"node_budget": ("base-size", "stab-scan", "reg-count"),
           "elem_cap": ("dist-number",)}
    extra = {"stab-scan": {"c": 1, "predicate": "solvable"}, "reg-count": {"t": 2}}
    checks, keys = [], []
    for key, names in ops.items():
        for op in names:
            for bad in (0, True, "x", 1.5):
                checks.append({"id": f"{op}-{bad!r}", "recipe": s5, "assertions": [
                    {"op": op, "params": {key: bad, **extra.get(op, {})},
                     "expect": 1, "tag": "direct"}]})
                keys.append(key)
    for bad in (0, True):
        checks.append({"id": f"budget_ms-{bad!r}", "recipe": s5,
                       "budget_ms": bad, "assertions": [order]})
        keys.append("budget_ms")
    checks.append({"id": "s5", "recipe": s5, "assertions": [order]})
    rep = run_manifest({"schema": 1, "checks": checks})
    assert [c.status for c in rep.checks] == ["fail"] * len(keys) + ["pass"]
    for c, key in zip(rep.checks, keys):
        error = c.error or c.assertions[0].error
        assert f"{key} must be " in error, (c.id, error)
    assert rep.exit_code == 1


def test_a_stab_scan_cut_short_is_skipped_not_failed():
    # its budget stops the scan before every class is seen: no answer, as
    # base-size and reg-count report under the same budget
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "scan", "recipe": {"kind": "symmetric", "m": 6},
         "assertions": [{"op": "stab-scan",
                         "params": {"c": 2, "predicate": "solvable", "node_budget": 2},
                         "expect": {"verdict": "inconclusive"}, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]},
    ]})
    assert [c.status for c in rep.checks] == ["skipped-resource", "pass"]
    assert rep.checks[0].assertions[0].error.startswith("stabilizer scan stopped")
    assert rep.exit_code == 2

def test_deep_search_passes_beside_other_checks():
    # the rigid-coloring search colors 1200 points before its first rigid
    # coloring; both coloring searches walk explicit stacks, so the depth is
    # no interpreter limit and the check answers beside the next one
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "deep", "recipe": {"kind": "cyclic", "m": 1200},
         "assertions": [{"op": "dist-upper", "params": {"r": 2},
                         "expect": True, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]},
    ]})
    deep, s4 = rep.checks
    assert [deep.status, s4.status] == ["pass", "pass"]
    assert rep.exit_code == 0


def test_crashing_assertion_fails_only_its_check(monkeypatch):
    # an exception outside permres's own errors (here the AssertionError a
    # failed witness re-check raises) fails its assertion with a one-line
    # cause; later assertions and checks still run
    def boom(act, p):
        raise AssertionError("search returned a non-rigid coloring (0, 0)")

    monkeypatch.setitem(OPS, "dist-number", (boom, OPS["dist-number"][1]))
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]},
        {"id": "crash", "recipe": {"kind": "dihedral", "m": 4},
         "assertions": [{"op": "dist-number", "expect": 3, "tag": "derived"},
                        {"op": "order", "expect": 8, "tag": "direct"}]},
        {"id": "d5", "recipe": {"kind": "dihedral", "m": 5},
         "assertions": [{"op": "order", "expect": 10, "tag": "direct"}]},
    ]})
    crash = rep.checks[1]
    assert [c.status for c in rep.checks] == ["pass", "fail", "pass"]
    assert crash.assertions[0].ok is False
    assert crash.assertions[0].error == (
        "AssertionError: search returned a non-rigid coloring (0, 0)")
    assert crash.assertions[1].ok is True
    assert rep.exit_code == 1


def test_crashing_construction_fails_only_its_check(monkeypatch):
    def boom(m, k, alt=False):
        raise RuntimeError("no subsets today")

    monkeypatch.setattr(recipes, "subsets_action", boom)
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "subsets", "recipe": {"kind": "subsets", "m": 5, "k": 2},
         "assertions": [{"op": "order", "expect": 120, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]},
    ]})
    assert [c.status for c in rep.checks] == ["fail", "pass"]
    assert rep.checks[0].error == "construction: RuntimeError: no subsets today"


def test_ops_leave_absent_caps_to_the_library(monkeypatch):
    seen = []
    monkeypatch.setattr(manifest, "base_size_exact",
                        lambda G, **kw: seen.append(kw) or base_size_exact(G, **kw))
    for params in ({}, {"node_budget": 50}):
        OPS["base-size"][0](construct_recipe({"kind": "symmetric", "m": 4}), params)
    assert seen == [{}, {"node_budget": 50}]


def test_run_check_resource_skip_from_operation():
    # a node budget too small forces the base search to give up, not fail
    res = run_check({"id": "r", "recipe": {"kind": "symmetric", "m": 6},
                     "assertions": [
                         {"op": "base-size", "params": {"node_budget": 1},
                          "expect": {"size": 5}, "tag": "derived"},
                         {"op": "order", "expect": 720, "tag": "direct"}]})
    assert res.status == "skipped-resource"
    assert res.assertions[0].ok is None
    assert len(res.assertions) == 1  # later assertions never ran


def test_run_check_budget_exhaustion():
    res = run_check({"id": "slow", "budget_ms": 1,
                     "recipe": {"kind": "classical", "family": "GO-odd",
                                "m": 7, "q": 2, "space": "subspace", "k": 6,
                                "filter": "nondegenerate-plus"},
                     "assertions": [{"op": "order", "expect": 1451520,
                                     "tag": "direct"}]})
    assert res.status == "skipped-resource"


def test_run_check_skips_a_seed_past_the_enumeration_cap():
    # a cap hit while checking the seed's filter is a resource skip, not a
    # construction failure
    res = run_check({"id": "cap", "recipe": {"kind": "classical", "family": "GO-odd",
                                             "m": 7, "q": 7, "space": "subspace", "k": 6,
                                             "filter": "nondegenerate-plus"},
                     "assertions": [{"op": "primitive", "expect": True, "tag": "derived"}]})
    assert res.status == "skipped-resource"
    assert "enumeration cap" in res.error


def test_run_manifest_budget_default():
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "slow", "recipe": {"kind": "classical", "family": "GO-odd",
                                  "m": 7, "q": 2, "space": "subspace", "k": 6,
                                  "filter": "nondegenerate-plus"},
         "assertions": [{"op": "order", "expect": 1451520,
                         "tag": "direct"}]}]}, budget_ms=1)
    assert rep.checks[0].status == "skipped-resource"
    assert rep.exit_code == 2


@pytest.mark.parametrize("budget_ms", [0, -5, True, 1.5])
def test_run_manifest_rejects_a_non_positive_budget(budget_ms):
    # the rule a check's own budget_ms follows, not a budget that ran out
    with pytest.raises(ValueError, match="budget_ms"):
        run_manifest(_one_check(), budget_ms=budget_ms)


def test_counts_that_are_not_integers_fail_their_assertions():
    # each expect is what the op once measured for a count that is no integer
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "scan", "recipe": {"kind": "symmetric", "m": 5}, "assertions": [
            {"op": "stab-scan", "params": {"c": 1.5, "predicate": "solvable"},
             "expect": {"classes": 4}, "tag": "direct"},
            {"op": "reg-count", "params": {"t": 2.5}, "expect": {"t": 2.5},
             "tag": "direct"},
            {"op": "threshold-n", "params": {"c": 1.5, "delta": "1"},
             "expect": 53, "tag": "direct"},
            {"op": "lemma22", "params": {"d": 9.5}, "expect": "holds",
             "tag": "direct"},
            {"op": "formula", "params": {"name": "subsets_bound", "params": {"m": 6.5, "k": 2}},
             "expect": {"value": 6.0}, "tag": "direct"}]},
        {"id": "dihedral", "recipe": {"kind": "dihedral", "m": 5}, "assertions": [
            {"op": "dist-upper", "params": {"r": 2.5}, "expect": True,
             "tag": "direct"}]}]})
    assertions = rep.checks[0].assertions + rep.checks[1].assertions
    assert [c.status for c in rep.checks] == ["fail", "fail"] and len(assertions) == 6
    for a in assertions:
        assert a.ok is False and a.measured is None and "integer" in a.error


def test_a_params_key_no_op_reads_fails_only_its_assertion():
    # a misspelt budget or threshold once ran as if it were not there
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "s5", "recipe": {"kind": "symmetric", "m": 5}, "assertions": [
            {"op": "base-size", "params": {"node_budgett": 5}, "expect": {"size": 4},
             "tag": "direct"},
            {"op": "reg-count", "params": {"t": 2, "treshold": 10}, "expect": {"t": 2},
             "tag": "direct"},
            {"op": "order", "params": {"treshold": 10}, "expect": 120, "tag": "direct"},
            {"op": "order", "expect": 120, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4}, "assertions": [
            {"op": "reg-count", "params": {"t": 2, "threshold": 10}, "expect": {"t": 2},
             "tag": "direct"}]}]})
    s5, s4 = rep.checks
    assert [s5.status, s4.status] == ["fail", "pass"]
    assert [(a.ok, a.measured, a.error) for a in s5.assertions] == [
        (False, None, "unknown params key 'node_budgett' for op base-size, "
                      "which reads node_budget"),
        (False, None, "unknown params key 'treshold' for op reg-count, "
                      "which reads first_point, node_budget, t, threshold"),
        (False, None, "unknown params key 'treshold' for op order, which reads no params"),
        (True, 120, None)]


def test_run_manifest_empty_is_pass():
    rep = run_manifest({"schema": 1, "checks": []})
    assert rep.exit_code == 0 and rep.counts() == {
        "pass": 0, "fail": 0, "skipped-resource": 0}


def test_run_manifest_merges_in_manifest_order():
    doc = {"schema": 1, "checks": [
        {"id": f"c{i}", "recipe": {"kind": "cyclic", "m": i + 1},
         "assertions": [{"op": "order", "expect": i + 1, "tag": "direct"}]}
        for i in range(6)
    ]}
    rep = run_manifest(doc)
    assert [c.id for c in rep.checks] == [f"c{i}" for i in range(6)]
    assert rep.exit_code == 0


def test_reports_deterministic_across_threads():
    doc = {"schema": 1, "checks": [
        {"id": "s5", "recipe": {"kind": "symmetric", "m": 5},
         "assertions": [{"op": "base-size", "expect": {"size": 4},
                         "tag": "derived"}]},
        {"id": "wrong", "recipe": {"kind": "cyclic", "m": 4},
         "assertions": [{"op": "order", "expect": 5, "tag": "reported"}]},
        {"id": "d6", "recipe": {"kind": "dihedral", "m": 6},
         "assertions": [{"op": "dist-number", "expect": 2, "tag": "derived"}]},
    ]}
    one = run_manifest(doc).fingerprint()
    two = run_manifest(doc).fingerprint()
    assert one == two
    assert one["summary"] == {"pass": 2, "fail": 1, "skipped-resource": 0}


def test_report_shape_and_hash():
    rep = run_manifest(_one_check())
    doc = rep.to_dict()
    assert doc["schema_version"] == 1
    assert len(doc["manifest_sha256"]) == 64
    assert doc["tool_version"]
    assert doc["checks"][0]["status"] == "pass"


def test_load_manifest_reports_json_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"schema": 1,\n "checks": [}]}')
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(p)


def test_matches_op_compares_two_routes():
    res = run_check({
        "id": "m",
        "recipe": {"kind": "subsets", "m": 4, "k": 1},
        "assertions": [{
            "op": "matches",
            "params": {"other": {"kind": "symmetric", "m": 4},
                       "compare": ["degree", "order", "suborbit-sizes"]},
            "expect": True, "tag": "derived"}],
    })
    # singleton subsets carry the natural action under a different recipe
    assert res.status == "pass"


def test_importing_manifest_loads_no_hashlib():
    # hashlib loads OpenSSL; only the two digests import it
    script = ("import sys\n"
              "import permres.manifest\n"
              "assert not {'hashlib', '_hashlib'} & set(sys.modules)\n")
    src = str(Path(manifest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   capture_output=True)


def test_manifest_digests_are_sha256_of_the_input():
    path = bundled_corpus()
    doc, digest = load_manifest(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    small = {"schema": 1, "checks": [
        {"id": "c6", "recipe": {"kind": "cyclic", "m": 6},
         "assertions": [{"op": "order", "expect": 6, "tag": "direct"}]}]}
    text = json.dumps(small, sort_keys=True)
    assert run_manifest(small).manifest_sha256 == hashlib.sha256(text.encode()).hexdigest()


def test_bundled_corpus_validates():
    path = bundled_corpus()
    assert path.exists()
    doc, digest = load_manifest(path)
    checks = validate_manifest(doc)
    assert len(checks) >= 15 and len(digest) == 64


def test_threshold_ops_need_no_group():
    res = run_check({"id": "t", "recipe": {"kind": "cyclic", "m": 1},
                     "assertions": [
                         {"op": "threshold-m", "params": {"eps": "1"},
                          "expect": 21, "tag": "derived"},
                         {"op": "threshold-n", "params": {"c": 1, "delta": "1"},
                          "expect": 39, "tag": "derived"}]})
    assert res.status == "pass"


def test_ops_registry_is_total():
    act = construct_recipe({"kind": "cyclic", "m": 3})
    for name in ("order", "degree", "transitive", "primitive", "solvable",
                 "orbit-sizes", "suborbit-sizes"):
        assert OPS[name][0](act, {}) is not None


# -- one build per recipe and run ------------------------------------------

SP42 = {"kind": "classical", "family": "Sp", "m": 4, "q": 2}
SP42_ON_GO42 = {"kind": "coset", "group": SP42,
                "subgroup": {"kind": "classical", "family": "GO+", "m": 4, "q": 2}}


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(recipes, name)
    monkeypatch.setattr(recipes, name,
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_checks_on_one_recipe_share_one_build(monkeypatch):
    builds = count_calls(monkeypatch, "matrix_orbit_action")
    rep = run_manifest({"schema": 1, "checks": [
        {"id": f"sp42-{i}", "recipe": dict(SP42),
         "assertions": [{"op": "order", "expect": 720, "tag": "direct"}]}
        for i in range(3)]})
    assert rep.counts()["pass"] == 3
    assert len(builds) == 1


def test_coset_parent_and_matches_target_are_built_once(monkeypatch):
    builds = count_calls(monkeypatch, "matrix_orbit_action")
    cosets = count_calls(monkeypatch, "coset_action")
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "coset", "recipe": SP42_ON_GO42,
         "assertions": [{"op": "degree", "expect": 10, "tag": "direct"}]},
        {"id": "route", "recipe": {"kind": "partitions", "m": 6, "k": 3},
         "assertions": [{"op": "matches", "expect": True, "tag": "derived",
                         "params": {"other": SP42_ON_GO42,
                                    "compare": ["degree", "order",
                                                "suborbit-sizes"]}}]},
        {"id": "sp42", "recipe": SP42,
         "assertions": [{"op": "degree", "expect": 15, "tag": "direct"}]},
    ]})
    assert rep.counts()["pass"] == 3
    # the coset's parent is the vector action the last check names
    assert (len(builds), len(cosets)) == (1, 1)


def test_shared_failing_recipe_fails_each_check_alike(monkeypatch):
    # a failed build is not kept: the second check tries again and fails
    # with the same cause
    tries = count_calls(monkeypatch, "_build_recipe")
    rep = run_manifest({"schema": 1, "checks": [
        {"id": f"c{i}", "recipe": {"kind": "cyclic", "m": -1},
         "assertions": [{"op": "order", "expect": 1, "tag": "direct"}]}
        for i in range(2)]})
    first, second = rep.checks
    assert first.status == second.status == "fail"
    assert first.error == second.error == "construction: cyclic needs m >= 1"
    assert len(tries) == 2


def test_builds_are_fresh_outside_a_run():
    run_manifest({"schema": 1, "checks": [
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]}]})
    recipe = {"kind": "symmetric", "m": 4}
    assert construct_recipe(recipe) is not construct_recipe(recipe)


@pytest.mark.parametrize("recipe,cause", [
    ({"kind": "symmetric", "m": {1}}, "m must be an integer"),  # a set
    ({"kind": "symmetric", 5: "m"}, "recipe kind 'symmetric' needs m"),  # int and str keys
    ({"kind": "symmetric", "m": 4, 5: 1, "x": 2}, "unknown params key 'x', 5 for recipe kind"),
], ids=["set-field", "mixed-keys", "mixed-unread-keys"])
def test_recipe_json_cannot_encode_fails_only_its_check(recipe, cause):
    rep = run_manifest({"schema": 1, "checks": [
        {"id": "bad", "recipe": recipe,
         "assertions": [{"op": "order", "expect": 1, "tag": "direct"}]},
        {"id": "s4", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "order", "expect": 24, "tag": "direct"}]}]})
    bad, good = rep.checks
    assert bad.status == "fail"
    assert bad.error.startswith(f"construction: {cause}")
    assert good.status == "pass"
    assert len(rep.manifest_sha256) == 64


def test_corpus_report_is_the_same_in_any_check_order():
    doc, _ = load_manifest(bundled_corpus())
    checks = validate_manifest(doc)
    shuffled = list(checks)
    random.Random(2012).shuffle(shuffled)

    def by_id(order):
        rep = run_manifest({**doc, "checks": order})
        assert rep.counts()["pass"] == len(checks)
        return sorted(rep.fingerprint()["checks"], key=lambda c: c["id"])

    want = by_id(checks)
    assert by_id(checks[::-1]) == want
    assert by_id(shuffled) == want
