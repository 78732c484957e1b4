"""Checks over the bundled simple-group table.

The table ships as generated data; these tests re-verify its arithmetic
invariants from scratch and pin the witnessed exact values that the rest
of the package relies on.
"""

import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from permres.classical import classical_generators
from permres.constructions import matrix_orbit_action
from permres import structure
from permres.structure import (
    alt_section_upper_bound,
    composition_factors,
    identify_simple,
    max_alternating_section,
)


@pytest.fixture(scope="module")
def table():
    path = resources.files("permres.data").joinpath("simple_groups.json")
    return json.loads(path.read_text())


def test_table_metadata(table):
    assert table["version"] == 2
    assert len(table["groups"]) > 400


def test_bracket_arithmetic_all_rows(table):
    for r in table["groups"]:
        # one bracket is the only alternating-section field
        assert set(r) == {"order", "name", "family", "m", "q",
                          "alt_lower", "alt_upper", "disambiguator"}
        lower, upper = r["alt_lower"], r["alt_upper"]
        assert 4 <= lower <= upper
        # the stored upper bound never exceeds the recomputed arithmetic one
        assert upper <= alt_section_upper_bound(r["order"])
        if lower > 4:
            # a witnessed A_m section forces m!/2 to divide the order
            assert r["order"] % (math.factorial(lower) // 2) == 0


def test_generator_reproduces_rows(table, tmp_path):
    # the generator's arithmetic pass (no --witness) emits the same rows in
    # the same order, with brackets that contain the committed ones; only
    # the rows that --witness tightens differ
    tool = Path(__file__).resolve().parents[1] / "tools" / "gen_simple_table.py"
    out = tmp_path / "simple_groups.json"
    subprocess.run([sys.executable, str(tool), "--out", str(out)],
                   check=True, capture_output=True)
    fresh = json.loads(out.read_text())["groups"]
    keys = ("order", "name", "family", "m", "q", "disambiguator")
    assert [[r[k] for k in keys] for r in fresh] == [[r[k] for k in keys] for r in table["groups"]]
    tightened = []
    for new, old in zip(fresh, table["groups"]):
        assert new["alt_lower"] <= old["alt_lower"] <= old["alt_upper"] <= new["alt_upper"]
        if (new["alt_lower"], new["alt_upper"]) != (old["alt_lower"], old["alt_upper"]):
            tightened.append(old["name"])
    assert sorted(tightened) == ["L3(4)", "L4(3)", "S6(2)", "U4(2)"]


def test_order_collisions_all_marked(table):
    by_order = {}
    for r in table["groups"]:
        by_order.setdefault(r["order"], []).append(r)
    for order, rows in by_order.items():
        if len(rows) == 1:
            continue
        assert len(rows) == 2
        for r in rows:
            assert r["disambiguator"] is not None, (order, [x["name"] for x in rows])


def test_witnessed_exact_values(table):
    byname = {r["name"]: r for r in table["groups"]}
    def bracket(name):
        return byname[name]["alt_lower"], byname[name]["alt_upper"]

    assert bracket("S6(2)") == (8, 8)
    assert bracket("U4(2)") == (6, 6)
    assert bracket("L4(3)") == (6, 6)
    assert bracket("L2(7)") == (4, 4)
    # open bracket kept honest: no fabricated exact value
    assert bracket("L3(4)") == (6, 7)


def test_identify_pins_table_rows(table):
    byname = {r["name"]: r for r in table["groups"]}
    assert identify_simple(1451520) == "S6(2)"
    assert identify_simple(25920) == "U4(2)"
    assert identify_simple(168) == "L2(7)"
    assert (byname["S6(2)"]["alt_lower"], byname["S6(2)"]["alt_upper"]) == (8, 8)
    assert (byname["U4(2)"]["alt_lower"], byname["U4(2)"]["alt_upper"]) == (6, 6)


def test_missing_table_raises(monkeypatch, tmp_path):
    # read as empty, a missing table would name L2(7) "?168"
    monkeypatch.setattr(structure.resources, "files", lambda package: tmp_path)
    structure._table.cache_clear()
    try:
        with pytest.raises(FileNotFoundError):
            identify_simple(168)
    finally:
        structure._table.cache_clear()
    monkeypatch.undo()
    assert identify_simple(168) == "L2(7)"


def test_identified_sp62_pipeline():
    # full pipeline: matrices -> permutation action -> composition factor
    # -> table row with its witnessed alternating-section value
    act = matrix_orbit_action(classical_generators("Sp", 6, 2), kind="vector")
    factors = composition_factors(act.group)
    assert len(factors) == 1
    f = factors[0]
    assert f.order == 1451520
    assert f.name == "S6(2)"
    assert max_alternating_section(f) == 8


def test_identified_l34_bracket_stays_open():
    act = matrix_orbit_action(classical_generators("SL", 3, 4),
                              kind="subspace", k=1)
    factors = composition_factors(act.group)
    assert len(factors) == 1
    f = factors[0]
    assert f.order == 20160
    assert f.name == "L3(4)"
    assert max_alternating_section(f) is None
    assert (f.alt_lower, f.alt_upper) == (6, 7)
