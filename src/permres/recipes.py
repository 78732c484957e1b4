"""Recipes: JSON descriptions of permutation groups, and the builder that
turns one into a labeled action.

A recipe is an object with a "kind" ("symmetric", "classical", "coset",
"wreath", ...) and the fields that kind needs; construct_recipe builds it.
The module also holds what every recipe consumer shares: serialize_group,
which writes a group as a perm-generators recipe, the input error
ManifestError, pick and describe_error.

The builder imports neither the searches, the structure layer nor the
manifest runner, and loads the classical-group code only for a recipe
that defines matrices, so a CLI verb that only builds a group stays cheap
to start.
"""

from __future__ import annotations

import json
import math
from contextvars import ContextVar
from typing import TYPE_CHECKING

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
from .fq import require_int, require_keys
from .perm import Perm
from .stabchain import PermGroup, ResourceLimit

if TYPE_CHECKING:
    from .classical import MatrixGroup


class ManifestError(ValueError):
    """Manifest cannot be parsed or fails structural validation."""


# -- group serialization ---------------------------------------------------


def serialize_group(G: PermGroup) -> dict:
    """G as a perm-generators recipe, which construct_recipe reads back."""
    return {
        "kind": "perm-generators",
        "degree": G.degree,
        "generators": [list(g.images) for g in G.gens],
        "label": G.label,
    }


# -- recipes ---------------------------------------------------------------


def _as_action(G: PermGroup) -> LabeledAction:
    pts = list(range(G.degree))
    return LabeledAction(G, pts, {i: i for i in pts})


def _bounded(act: LabeledAction, bound: int | None) -> LabeledAction:
    act.group.order_bound = bound
    return act


def _sym_order(m: int, alt: bool) -> int:
    # |S_m|, or |A_m| with alt
    n = math.factorial(m)
    return max(1, n // 2) if alt else n


# kind -> (keys it needs, keys it may also read); any other key is bad
# input. A matrix kind's action keys are read by matrix_orbit_action only.
_ACTION = ("space", "seed", "k", "filter")
KINDS = {
    "symmetric": (("m",), ()),
    "alternating": (("m",), ()),
    "cyclic": (("m",), ()),
    "dihedral": (("m",), ()),
    "perm-generators": (("degree", "generators"), ("label", "point-labels")),
    "classical": (("family", "m", "q"), _ACTION),
    "matrix-generators": (("m", "q", "matrices"), ("label",) + _ACTION),
    "affine": (("family", "m", "q"), ()),
    "coset": (("group", "subgroup"), ()),
    "subsets": (("m", "k"), ("alt",)),
    "partitions": (("m", "k"), ("alt",)),
    "wreath": (("inner", "outer", "action"), ()),
    "diagonal": (("factor",), ("swap", "outer")),
}
_MATRIX_KINDS = ("classical", "matrix-generators")


def _check_recipe(recipe, skip: tuple = ()) -> str:
    # the kind, once the keys match KINDS less skip, the counts are ints (a
    # bool is not one) and the flags are JSON booleans ("no" once meant yes)
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ConstructionError("recipe must be an object with a 'kind'")
    kind = recipe["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConstructionError(f"unknown recipe kind {kind!r}")
    need, may = KINDS[kind]
    missing = [k for k in need if k not in recipe]
    if missing:
        raise ConstructionError(f"recipe kind {kind!r} needs {', '.join(missing)}")
    require_keys(recipe, {"kind", *need, *may}.difference(skip),
                 f"recipe kind {kind!r}")
    for key in ("m", "k", "q", "degree"):
        if key in recipe:
            require_int(key, recipe[key])
            if key in ("m", "degree") and recipe[key] < 1:
                raise ConstructionError(f"{kind} needs {key} >= 1")
    for key in ("alt", "swap"):
        if not isinstance(recipe.get(key, False), bool):
            raise ConstructionError(f"{key} must be true or false, not {recipe[key]!r}")
    return kind


def _matrix_group(recipe: dict) -> MatrixGroup:
    # a checked classical, affine or matrix-generators recipe's matrices
    from .classical import MatrixGroup, classical_generators
    from .fq import FqField, FqMatrix

    m, q = recipe["m"], recipe["q"]
    if recipe["kind"] != "matrix-generators":
        return classical_generators(recipe["family"], m, q)
    fld, mats = FqField.of(q), recipe["matrices"]
    if not isinstance(mats, list) or not all(
            isinstance(rows, list) and len(rows) == m and all(
                isinstance(row, list) and len(row) == m
                and all(type(x) is int and 0 <= x < q for x in row)
                for row in rows)
            for rows in mats):
        raise ConstructionError(
            f"each matrix must be {m}x{m} with entries in 0..{q - 1}")
    return MatrixGroup(family=recipe.get("label", "custom"), m=m, q=q, field=fld,
                       matrices=[FqMatrix(fld, rows) for rows in mats],
                       form=None, abstract_order=0)


# recipe JSON text -> action built from it, kept only when the build
# succeeds; set only while manifest.run_manifest runs
_BUILT: ContextVar[dict | None] = ContextVar("_BUILT", default=None)


def construct_recipe(recipe: dict) -> LabeledAction:
    """Build the labeled permutation action a recipe describes.

    KINDS states the keys each kind needs and may also read; any other
    key, a count that is not an int and a flag that is not a bool raise
    ValueError. Matrix-flavored kinds accept "space": "vector" or
    "subspace", "seed", "filter", and "k" on subspaces. A coset recipe
    whose subgroup is also matrix-flavored over the same field embeds the
    subgroup's matrices, which take none of those keys, through the
    parent action instead of building a second, unrelated action.

    Every kind but perm-generators and matrix-generators sets the group's
    order_bound, which stops its first chain. The rule that keeps this
    sound: a bound is the order of a group known to contain every
    generator (S_m for an action of S_m, the classical group for its
    matrices, the parent for a coset action), never an estimate.

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
    kind, m = _check_recipe(recipe), recipe.get("m")
    if kind == "symmetric":
        return _bounded(_as_action(PermGroup.symmetric(m)), _sym_order(m, False))
    if kind == "alternating":
        return _bounded(_as_action(PermGroup.alternating(m)), _sym_order(m, True))
    if kind == "cyclic":
        g = Perm(list(range(1, m)) + [0])
        return _bounded(_as_action(PermGroup(m, [g], label=f"C{m}")), m)
    if kind == "dihedral":
        if m < 3:
            raise ConstructionError("dihedral needs m >= 3")
        rot = Perm(list(range(1, m)) + [0])
        ref = Perm([(m - i) % m for i in range(m)])
        return _bounded(_as_action(PermGroup(m, [rot, ref], label=f"D{m}")), 2 * m)
    if kind == "perm-generators":
        degree, gens = recipe["degree"], recipe["generators"]
        if not isinstance(gens, list) or not all(
                isinstance(images, list) and len(images) == degree for images in gens):
            raise ConstructionError(f"generators must be lists of {degree} images")
        for images in gens:
            for x in images:
                require_int("a generator image", x)
        return _as_action(PermGroup(degree, [Perm(images) for images in gens],
                                    label=recipe.get("label")))
    if kind in _MATRIX_KINDS:
        # the action bounds its order by the matrices'
        return matrix_orbit_action(_matrix_group(recipe), seed=recipe.get("seed"),
                                   kind=recipe.get("space", "vector"),
                                   flt=recipe.get("filter", "all"), k=recipe.get("k"))
    if kind == "affine":
        grp = _matrix_group(recipe)
        return _bounded(affine_action(grp), grp.field.q ** grp.m * grp.abstract_order)
    if kind == "coset":
        parent_recipe, sub_recipe = recipe["group"], recipe["subgroup"]
        parent = construct_recipe(parent_recipe)
        if (parent_recipe["kind"] in _MATRIX_KINDS and isinstance(sub_recipe, dict)
                and sub_recipe.get("kind") in _MATRIX_KINDS):
            # the subgroup's matrices act through the parent's action
            _check_recipe(sub_recipe, skip=_ACTION)
            sub_mats = _matrix_group(sub_recipe)
            H = PermGroup(parent.degree,
                          [parent.perm_of(M) for M in sub_mats.matrices],
                          label=sub_mats.label)
        else:
            H = construct_recipe(sub_recipe).group
            if H.degree != parent.degree:
                raise ConstructionError("subgroup degree does not match")
        # the action on cosets is an image of the parent
        return _bounded(coset_action(parent.group, H), parent.group.order_bound)
    if kind in ("subsets", "partitions"):
        alt = recipe.get("alt", False)
        build = subsets_action if kind == "subsets" else partitions_action
        return _bounded(build(m, recipe["k"], alt=alt), _sym_order(m, alt))
    if kind == "wreath":
        L = construct_recipe(recipe["inner"]).group
        P = construct_recipe(recipe["outer"]).group
        if recipe["action"] == "imprimitive":
            built = wreath_imprimitive(L, P)
        elif recipe["action"] == "product":
            built = wreath_product_action(L, P)
        else:
            raise ConstructionError(f"unknown wreath action {recipe['action']!r}")
        return _bounded(built, L.order() ** P.degree * P.order())
    # diagonal
    T = construct_recipe(recipe["factor"]).group
    swap, outer = recipe.get("swap", True), recipe.get("outer")
    if outer is not None and not isinstance(outer, list):
        raise ConstructionError(f"outer must be a list of images, not {outer!r}")
    outer = Perm(outer) if outer is not None else None
    built = diagonal_type_group(T, include_swap=swap, outer=outer)
    # T x T is normal; the swap and the outer map commute modulo it
    return _bounded(built, T.order() ** 2 * (2 if swap else 1)
                    * (outer.order() if outer is not None else 1))


# -- shared by the manifest runner and the CLI ------------------------------


def pick(params: dict, *keys: str) -> dict:
    """The entries of params under the given keys, for those present."""
    return {k: params[k] for k in keys if k in params}


def describe_error(e: Exception) -> str:
    # bad input and exhausted budgets carry a sentence; any other exception,
    # such as KeyError's bare key ('d') or an AssertionError from a failed
    # re-check, needs its name to read.
    if isinstance(e, (ValueError, ResourceLimit)):
        return str(e)
    return f"{type(e).__name__}: {e}"
