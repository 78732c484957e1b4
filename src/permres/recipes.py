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
from .fq import require_int
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


def _need(recipe: dict, *keys: str) -> list:
    missing = [k for k in keys if k not in recipe]
    if missing:
        raise ConstructionError(
            f"recipe kind {recipe.get('kind')!r} needs {', '.join(missing)}")
    return [recipe[k] for k in keys]


def _counts(recipe: dict, *keys: str) -> list:
    # counts (m, k, q, a degree) must be ints, and a bool is not one
    values = _need(recipe, *keys)
    for key, value in zip(keys, values):
        require_int(key, value)
    return values


def _flag(recipe: dict, key: str, default: bool) -> bool:
    # flags must be JSON booleans: read by truthiness, "no" meant yes
    value = recipe.get(key, default)
    if not isinstance(value, bool):
        raise ConstructionError(f"{key} must be true or false, not {value!r}")
    return value


def _matrix_group(recipe: dict) -> MatrixGroup:
    from .classical import FAMILIES, MatrixGroup, classical_generators
    from .fq import FqField, FqMatrix

    kind = recipe["kind"]
    if kind == "classical":
        (family,) = _need(recipe, "family")
        m, q = _counts(recipe, "m", "q")
        if family not in FAMILIES:
            raise ConstructionError(f"unknown family {family!r}")
        return classical_generators(family, m, q)
    if kind == "matrix-generators":
        m, q = _counts(recipe, "m", "q")
        (mats,) = _need(recipe, "matrices")
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
    from .classical import scalar_kernel_order

    grp = _matrix_group(recipe)
    space, seed = recipe.get("space", "vector"), recipe.get("seed")
    # matrix-generators know no order (abstract_order 0); scalars act
    # trivially on subspaces
    order = grp.abstract_order or None
    if space == "vector":
        return _bounded(matrix_orbit_action(grp, seed=seed, kind="vector"), order)
    if space == "subspace":
        if "k" in recipe:
            require_int("k", recipe["k"])
        act = matrix_orbit_action(grp, seed=seed,
                                  kind="subspace", k=recipe.get("k"),
                                  flt=recipe.get("filter", "all"))
        return _bounded(act, order and order // scalar_kernel_order(grp))
    raise ConstructionError(f"unknown space {space!r}")


# recipe JSON text -> action built from it, kept only when the build
# succeeds; set only while manifest.run_manifest runs
_BUILT: ContextVar[dict | None] = ContextVar("_BUILT", default=None)


def construct_recipe(recipe: dict) -> LabeledAction:
    """Build the labeled permutation action a recipe describes.

    Matrix-flavored kinds accept "space": "vector" or "subspace" (with "k"
    and "filter"). A coset recipe whose subgroup is also matrix-flavored
    over the same field embeds the subgroup's matrices through the parent
    action instead of building a second, unrelated action.

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
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ConstructionError("recipe must be an object with a 'kind'")
    kind = recipe["kind"]

    if kind in ("symmetric", "alternating", "cyclic"):
        (m,) = _counts(recipe, "m")
        if m < 1:
            raise ConstructionError(f"{kind} needs m >= 1")
    if kind == "symmetric":
        return _bounded(_as_action(PermGroup.symmetric(m)), _sym_order(m, False))
    if kind == "alternating":
        return _bounded(_as_action(PermGroup.alternating(m)), _sym_order(m, True))
    if kind == "cyclic":
        g = Perm(list(range(1, m)) + [0])
        return _bounded(_as_action(PermGroup(m, [g], label=f"C{m}")), m)
    if kind == "dihedral":
        (m,) = _counts(recipe, "m")
        if m < 3:
            raise ConstructionError("dihedral needs m >= 3")
        rot = Perm(list(range(1, m)) + [0])
        ref = Perm([(m - i) % m for i in range(m)])
        return _bounded(_as_action(PermGroup(m, [rot, ref], label=f"D{m}")), 2 * m)
    if kind == "perm-generators":
        (degree,) = _counts(recipe, "degree")
        if degree < 1:
            raise ConstructionError("perm-generators needs degree >= 1")
        (gens,) = _need(recipe, "generators")
        if not isinstance(gens, list) or not all(
                isinstance(images, list) and len(images) == degree for images in gens):
            raise ConstructionError(f"generators must be lists of {degree} images")
        for images in gens:
            for x in images:
                require_int("a generator image", x)
        return _as_action(PermGroup(degree, [Perm(images) for images in gens],
                                    label=recipe.get("label")))
    if kind in ("classical", "matrix-generators"):
        return _matrix_action(recipe)
    if kind == "affine":
        grp = _matrix_group(dict(recipe, kind="classical"))
        return _bounded(affine_action(grp), grp.field.q ** grp.m * grp.abstract_order)
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
        # the action on cosets is an image of the parent
        return _bounded(coset_action(parent.group, H), parent.group.order_bound)
    if kind in ("subsets", "partitions"):
        m, k = _counts(recipe, "m", "k")
        alt = _flag(recipe, "alt", False)
        build = subsets_action if kind == "subsets" else partitions_action
        return _bounded(build(m, k, alt=alt), _sym_order(m, alt))
    if kind == "wreath":
        inner, outer, act = _need(recipe, "inner", "outer", "action")
        L = construct_recipe(inner).group
        P = construct_recipe(outer).group
        if act == "imprimitive":
            built = wreath_imprimitive(L, P)
        elif act == "product":
            built = wreath_product_action(L, P)
        else:
            raise ConstructionError(f"unknown wreath action {act!r}")
        return _bounded(built, L.order() ** P.degree * P.order())
    if kind == "diagonal":
        (factor,) = _need(recipe, "factor")
        T = construct_recipe(factor).group
        swap, outer = _flag(recipe, "swap", True), recipe.get("outer")
        outer = Perm(list(outer)) if outer is not None else None
        built = diagonal_type_group(T, include_swap=swap, outer=outer)
        # T x T is normal; the swap and the outer map commute modulo it
        return _bounded(built, T.order() ** 2 * (2 if swap else 1)
                        * (outer.order() if outer is not None else 1))
    raise ConstructionError(f"unknown recipe kind {kind!r}")


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
