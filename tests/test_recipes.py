"""Fuzzing the recipe builder over the keys of recipes.KINDS."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from permres.classical import FAMILIES
from permres.recipes import KINDS, construct_recipe
from permres.stabchain import ResourceLimit

_SMALL = [{"kind": "symmetric", "m": 3}, {"kind": "cyclic", "m": 2},
          {"kind": "alternating", "m": 4},
          {"kind": "classical", "family": "GL", "m": 2, "q": 2},
          {"kind": "classical", "family": "Sp", "m": 2, "q": 3}]

# a value of the right type, often out of range, for each key
_VALUES = {
    "m": st.integers(-1, 4), "k": st.integers(-1, 4), "q": st.integers(0, 4),
    "degree": st.integers(-1, 4),
    "generators": st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=2),
    "family": st.sampled_from(FAMILIES + ("SO",)),
    "matrices": st.lists(st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=3),
                         max_size=2),
    "label": st.text(max_size=3),
    "point-labels": st.lists(st.text(max_size=2), max_size=3),
    "space": st.sampled_from(["vector", "subspace", "planes"]),
    "seed": st.one_of(st.lists(st.integers(0, 3), max_size=4),
                      st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=2)),
    "filter": st.sampled_from(["all", "nonsingular", "totally-isotropic",
                               "nondegenerate-plus", "nondegenerate-minus", "none"]),
    "action": st.sampled_from(["imprimitive", "product", "diagonal"]),
    "alt": st.booleans(), "swap": st.booleans(),
    # a recipe for wreath, a permutation for diagonal
    "outer": st.one_of(st.sampled_from(_SMALL), st.permutations(range(3)).map(list)),
    **{key: st.sampled_from(_SMALL) for key in ("group", "subgroup", "inner", "factor")},
}

_WRONG = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                   st.text(max_size=3), st.lists(st.integers(-2, 5), max_size=3),
                   st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _recipes(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    need, may = KINDS[kind]
    recipe = {"kind": kind}
    for key in need + tuple(k for k in may if draw(st.booleans())):
        if draw(st.integers(0, 9)):
            recipe[key] = draw(_VALUES[key])
        else:
            recipe[key] = draw(_WRONG)
    if recipe.get("family") == "SU" and recipe.get("q") == 4:
        # SU works over F_(q^2), and the 65536 vectors of F_16^4 take seconds
        recipe["q"] = 3
    if need and not draw(st.integers(0, 9)):
        del recipe[draw(st.sampled_from(need))]
    if not draw(st.integers(0, 4)):
        recipe[draw(st.sampled_from(["n", "spaec", 5] + sorted(_VALUES)))] = 1
    return recipe


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_recipes())
def test_a_recipe_builds_or_is_refused_as_bad_input(recipe):
    # a ValueError or ResourceLimit is the CLI's exit 3 or 2; any other
    # exception would reach the user as a traceback
    try:
        act = construct_recipe(recipe)
    except (ValueError, ResourceLimit):
        return
    assert act.degree == len(act.labels) >= 1, json.dumps(recipe, default=repr)
