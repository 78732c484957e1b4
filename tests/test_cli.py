"""Command line verbs, output shapes, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permres import cli, search
from permres.cli import main
from permres.manifest import bundled_corpus

S5 = '{"kind": "symmetric", "m": 5}'
AFFINE = '{"kind": "affine", "family": "Sp", "m": 4, "q": 2}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_order_text_and_json(capsys):
    code, out, _ = run(capsys, "order", "--recipe", S5)
    assert code == 0 and "120" in out
    code, out, _ = run(capsys, "order", "--recipe", S5, "--json")
    assert code == 0 and json.loads(out)["order"] == 120


@pytest.mark.parametrize("m,extra", [
    (2, {"k": 5}), (3, {"k": 0}), (3, {"k": 3}), (3, {"k": -1}),
    (3, {"seed": [[0, 0, 0]]}), (2, {"seed": [[1, 0], [0, 1]]}),
], ids=["k-5-on-2", "k-0", "k-m", "k-negative", "seed-zero", "seed-everything"])
def test_subspace_recipe_outside_proper_dimensions_is_bad_input(capsys, m, extra):
    recipe = {"kind": "classical", "family": "GL", "m": m, "q": 3,
              "space": "subspace", **extra}
    code, out, err = run(capsys, "order", "--recipe", json.dumps(recipe))
    assert code == 3 and out == "" and "subspace" in err



def test_a_subspace_k_must_be_the_seed_dimension(capsys):
    # Sp(4,2) on lines and on 3-spaces both have order 720, so only the
    # exit code tells a refused k from one that was ignored
    line = {"kind": "classical", "family": "Sp", "m": 4, "q": 2,
            "space": "subspace", "seed": [[1, 0, 0, 0]]}
    code, out, err = run(capsys, "order", "--recipe", json.dumps({**line, "k": 3}))
    assert code == 3 and out == ""
    assert "subspace k is 3, but the seed spans dimension 1" in err
    plane3 = {**line, "seed": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "k": 3}
    for recipe in ({**line, "k": 1}, plane3):
        code, out, _ = run(capsys, "order", "--recipe", json.dumps(recipe), "--json")
        assert code == 0 and json.loads(out)["order"] == 720


def test_zero_vector_seed_is_bad_input(capsys):
    recipe = '{"kind": "classical", "family": "GL", "m": 2, "q": 3, "seed": [0, 0]}'
    code, out, err = run(capsys, "order", "--recipe", recipe)
    assert code == 3 and out == "" and "seed vector is zero" in err


@pytest.mark.parametrize("point", ["5", "-1"])
def test_first_point_out_of_range_is_bad_input(capsys, point):
    code, out, err = run(capsys, "reg-count", "--recipe", S5, "--t", "2",
                         "--first-point", point)
    assert code == 3 and out == "" and "out of range" in err

def test_describe_recomputes_profile(capsys):
    code, out, _ = run(capsys, "describe", "--recipe", AFFINE, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 11520
    assert doc["primitive"] is True
    assert doc["composition-factors"] == ["C2", "C2", "C2", "C2", "C2", "A6"]
    assert doc["min-certified-d"] == 7


def test_describe_s16_has_no_order_cap(capsys):
    # |S16| is about 2.1e13, above any cap on the order
    code, out, _ = run(capsys, "describe", "--recipe",
                       '{"kind": "symmetric", "m": 16}', "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["composition-factors"] == ["C2", "A16"]
    assert doc["min-certified-d"] == 17 and doc["profile-tight"] is True


def test_construct_roundtrips_through_file(capsys, tmp_path):
    dest = tmp_path / "group.json"
    code, out, _ = run(capsys, "construct", "--recipe",
                       '{"kind": "subsets", "m": 5, "k": 2}',
                       "--out", str(dest))
    assert code == 0 and str(dest) in out
    doc = json.loads(dest.read_text())
    assert doc["kind"] == "perm-generators" and len(doc["point-labels"]) == 10
    # the written file is a recipe the other verbs read
    code, out, _ = run(capsys, "order", "--recipe", f"@{dest}", "--json")
    assert code == 0 and json.loads(out)["order"] == 120


def test_construct_prints_coset_labels_as_tuples(capsys):
    # a coset label is the images of its coset's canonical representative,
    # kept as a tuple whatever a Perm stores them as
    recipe = ('{"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},'
              ' "swap": true, "outer": [0, 1, 2, 4, 3]}')
    code, out, _ = run(capsys, "construct", "--recipe", recipe)
    assert code == 0
    labels = json.loads(out)["point-labels"]
    assert labels[0] == "(0, 3, 1, 2, 4, 5, 6, 7, 8, 9)"
    assert not any(lbl.startswith("b") for lbl in labels)
    # the whole output, as printed before images were stored as bytes
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1d6e7533c27bd6a4a1f1cbdc01500994352b08ca337bc23a1dc9a231e8671d6a")


def test_recipe_from_file(capsys, tmp_path):
    p = tmp_path / "r.json"
    p.write_text(S5)
    code, out, _ = run(capsys, "order", "--recipe", f"@{p}", "--json")
    assert code == 0 and json.loads(out)["order"] == 120


def test_base_size_verb(capsys):
    code, out, _ = run(capsys, "base-size", "--recipe",
                       '{"kind": "dihedral", "m": 4}', "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 2 and doc["status"] == "exact"


def test_base_size_cut_short_prints_its_bracket(capsys):
    code, out, _ = run(capsys, "base-size", "--recipe",
                       '{"kind": "classical", "family": "Sp", "m": 6, "q": 2}',
                       "--node-budget", "5", "--json")
    doc = json.loads(out)
    assert code == 2 and doc["status"] == "partial" and doc["size"] is None
    assert (doc["lower-bound"], doc["upper-bound"]) == (5, 6)


def test_budget_flags_pass_only_when_given(capsys, monkeypatch):
    # unset budget flags leave the library signature's default in force
    seen = []
    real = search.base_size_exact
    monkeypatch.setattr(search, "base_size_exact",
                        lambda G, **kw: seen.append(kw) or real(G, **kw))
    run(capsys, "base-size", "--recipe", S5)
    run(capsys, "base-size", "--recipe", S5, "--node-budget", "50")
    assert seen == [{}, {"node_budget": 50}]


def test_base_size_s18_is_exact(capsys):
    # b(S18) = 17 needs depths up to degree - 1 and no other cap
    code, out, _ = run(capsys, "base-size", "--recipe",
                       '{"kind": "symmetric", "m": 18}', "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["status"], doc["size"], doc["proof"]) == ("exact", 17, "exhausted")


def test_dist_number_verb(capsys):
    code, out, _ = run(capsys, "dist-number", "--recipe",
                       '{"kind": "dihedral", "m": 4}', "--json")
    assert code == 0 and json.loads(out)["distinguishing-number"] == 3


def test_stab_scan_exit_codes(capsys):
    code, out, _ = run(capsys, "stab-scan", "--recipe", AFFINE,
                       "--c", "2", "--predicate", "solvable", "--json")
    assert code == 0 and json.loads(out)["verdict"] == "all-pass"
    # S8 has non-solvable two-point stabilizers
    code, out, _ = run(capsys, "stab-scan", "--recipe",
                       '{"kind": "symmetric", "m": 8}', "--c", "2", "--json")
    assert code == 1 and json.loads(out)["verdict"] == "fail"


def test_stab_scan_cut_short_exits_two(capsys):
    # a scan that its budget cut short is never all-pass
    code, out, _ = run(capsys, "stab-scan", "--recipe",
                       '{"kind": "symmetric", "m": 7}', "--c", "3",
                       "--node-budget", "3", "--json")
    assert code == 2
    assert json.loads(out) == {"verdict": "inconclusive", "classes": 0,
                               "exhaustive": False}


def test_reg_count_verb(capsys):
    code, out, _ = run(capsys, "reg-count", "--recipe",
                       '{"kind": "symmetric", "m": 3}', "--t", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 6 and doc["exact"] is True


def test_bounds_verbs(capsys):
    code, out, _ = run(capsys, "bounds", "--check", "threshold-m",
                       "--params", '{"eps": "1"}', "--json")
    assert code == 0 and json.loads(out)["M"] == 21

    code, out, _ = run(capsys, "bounds", "--check", "formula", "--params",
                       '{"name": "diag_bound", "params": {"k": 2, "t_order": 60}}',
                       "--json")
    assert code == 0 and json.loads(out)["bound"] == 4

    code, out, _ = run(capsys, "bounds", "--check", "lemma22",
                       "--recipe", S5, "--params", '{"d": 6}', "--json")
    assert code == 0 and json.loads(out)["verdict"] == "holds"


def test_bounds_rejects_a_params_key_it_does_not_read(capsys):
    # a misspelled delta must not leave delta at its default of 1
    code, out, err = run(capsys, "bounds", "--check", "thm13", "--recipe", S5,
                         "--params", '{"d": 30, "delat": 0.001}')
    assert code == 3 and out == ""
    assert "delat" in err and err.count("\n") == 1


def test_bounds_thm13_needs_every_key(capsys):
    # c and delta once defaulted to 0 and 1, so this checked delta = 1
    code, out, err = run(capsys, "bounds", "--check", "thm13", "--recipe", S5,
                         "--params", '{"d": 73}')
    assert code == 3 and out == ""
    assert err == "error: KeyError: 'c'\n"


def test_bounds_unknown_check_lists_the_checks(capsys):
    from permres.bounds import CHECKS

    code, out, err = run(capsys, "bounds", "--check", "thm-13")
    assert code == 3 and out == "" and err.count("\n") == 1
    assert all(name in err for name in CHECKS)


# check -> (params, the CLI document, the manifest op's value); both front
# ends reach the library through bounds.evaluate
_SAME_BOUNDS = {
    "lemma22": ({"d": 6}, {"verdict": "holds"}, "holds"),
    "thm13": ({"c": 0, "d": 73, "delta": 1}, {"verdict": "holds"}, "holds"),
    "formula": ({"name": "diag_bound", "params": {"k": 2, "t_order": 60}, "measured": 9},
                {"bound": 4, "verdict": "fails"}, {"value": 4, "verdict": "fails"}),
    "threshold-m": ({"eps": "1"}, {"M": 21}, 21),
    "threshold-n": ({"c": 1, "delta": "1"}, {"N": 39}, 39),
}


@pytest.mark.parametrize("name", _SAME_BOUNDS)
def test_bounds_verb_and_manifest_op_agree(capsys, monkeypatch, name):
    from permres import bounds, manifest

    params, doc, value = _SAME_BOUNDS[name]
    calls, evaluate = [], bounds.evaluate

    def spy(check, p, group=None):
        calls.append(check)
        return evaluate(check, p, group)

    monkeypatch.setattr(bounds, "evaluate", spy)
    monkeypatch.setattr(manifest, "evaluate", spy)
    _, out, _ = run(capsys, "bounds", "--check", name, "--recipe", S5,
                    "--params", json.dumps(params), "--json")
    assert json.loads(out).items() >= doc.items()
    op = manifest.OPS[name][0]
    assert op(manifest.construct_recipe(json.loads(S5)), params) == value
    assert calls == [name, name]


DEG36 = ('{"kind": "classical", "family": "GO-odd", "m": 7, "q": 2,'
         ' "space": "subspace", "k": 6, "filter": "nondegenerate-plus"}')


@pytest.mark.parametrize("recipe,d", [('{"kind": "cyclic", "m": 1}', 5), (S5, 6),
                                      (DEG36, 9)], ids=["C1", "S5", "deg36"])
def test_lemma22_reads_the_bound_as_formula_does(capsys, recipe, d):
    # the paper's bound is |G| <= d^(n-1); C1 meets it with equality
    _, out, _ = run(capsys, "describe", "--recipe", recipe, "--json")
    doc = json.loads(out)
    code, out, _ = run(capsys, "bounds", "--check", "lemma22", "--recipe", recipe,
                       "--params", json.dumps({"d": d}), "--json")
    lemma = json.loads(out)
    params = {"name": "bcp_order_bound", "params": {"d": d, "n": doc["degree"]},
              "measured": doc["order"]}
    fcode, out, _ = run(capsys, "bounds", "--check", "formula",
                        "--params", json.dumps(params), "--json")
    formula = json.loads(out)
    assert (code, lemma["bound"], lemma["verdict"]) == (fcode, formula["bound"], "holds")
    assert formula["verdict"] == "holds"


def test_bounds_rejects_a_c_that_is_not_an_integer(capsys):
    # the threshold once came out as 53 from a float power of 3/5
    code, out, err = run(capsys, "bounds", "--check", "threshold-n",
                         "--params", '{"c": 1.5, "delta": "1"}')
    assert code == 3 and out == "" and "integer" in err


def test_bounds_failing_comparison_exits_one(capsys):
    code, out, _ = run(capsys, "bounds", "--check", "formula", "--params",
                       '{"name": "diag_bound", "params": {"k": 2, "t_order": 60},'
                       ' "measured": 9}', "--json")
    assert code == 1 and json.loads(out)["verdict"] == "fails"


def test_verify_pass_and_fail(capsys, tmp_path):
    doc = {"schema": 1, "checks": [
        {"id": "ok", "recipe": {"kind": "cyclic", "m": 6},
         "assertions": [{"op": "order", "expect": 6, "tag": "direct"}]}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--manifest", str(p))
    assert code == 0 and "1 passed" in out

    doc["checks"][0]["assertions"][0]["expect"] = 7
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--manifest", str(p))
    assert code == 1 and "expected 7, measured 6" in out


def test_verify_json_report(capsys, tmp_path):
    doc = {"schema": 1, "checks": [
        {"id": "a", "recipe": {"kind": "symmetric", "m": 4},
         "assertions": [{"op": "base-size", "expect": {"size": 3},
                         "tag": "derived"}]}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--manifest", str(p), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["pass"] == 1
    assert rep["checks"][0]["assertions"][0]["measured"]["size"] == 3


def test_verify_resource_skip_exit_two(capsys, tmp_path):
    doc = {"schema": 1, "checks": [
        {"id": "slow", "budget_ms": 1,
         "recipe": {"kind": "classical", "family": "GO-odd", "m": 7, "q": 2,
                    "space": "subspace", "k": 6,
                    "filter": "nondegenerate-plus"},
         "assertions": [{"op": "order", "expect": 1451520,
                         "tag": "direct"}]}]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--manifest", str(p))
    assert code == 2 and "resource-skipped" in out


def test_unresolved_threshold_exits_two(capsys):
    # the enclosure of M(1e-200) needs more digits than the precision ladder
    code, out, err = run(capsys, "bounds", "--check", "threshold-m",
                         "--params", '{"eps": "1e-200"}')
    assert code == 2 and out == ""
    assert err.startswith("error: ArithmeticError: ") and err.count("\n") == 1


@pytest.mark.parametrize("check,params", [
    ("threshold-m", '{"eps": true}'),         # printed M = 21
    ("threshold-n", '{"c": 2, "delta": true}'),  # printed N = 39
    ("threshold-m", '{"eps": "1/0"}'),        # exited 2 on ZeroDivisionError
    ("threshold-m", '{"eps": "x"}'),
    ("threshold-m", '{"eps": null}'),
])
def test_a_bad_rational_exits_three(capsys, check, params):
    code, out, err = run(capsys, "bounds", "--check", check, "--params", params)
    key = "eps" if check == "threshold-m" else "delta"
    assert code == 3 and out == ""
    assert err.startswith(f"error: {key} must be a rational number, not ")


@pytest.mark.parametrize("d", ['"x"', "60.0", "true"], ids=["str", "float", "bool"])
def test_thm13_checks_d_before_comparing_it(capsys, d):
    # d was compared with the recursion threshold first: a string raised
    # TypeError, 60.0 reached the scan as gamma:60.0 and true read as 1
    code, out, err = run(capsys, "bounds", "--check", "thm13", "--recipe", S5,
                         "--params", f'{{"c": 1, "d": {d}, "delta": 1}}')
    assert code == 3 and out == "" and "d must be" in err


def test_rationals_read_as_ints_numbers_and_strings(capsys):
    for params in ('{"eps": 1}', '{"eps": 1.0}', '{"eps": "1"}', '{"eps": "2/2"}'):
        code, out, _ = run(capsys, "bounds", "--check", "threshold-m", "--params", params)
        assert code == 0 and "21" in out


def test_bad_inputs_exit_three(capsys, tmp_path):
    code, _, err = run(capsys, "order", "--recipe", "{broken")
    assert code == 3 and "JSON" in err
    code, _, err = run(capsys, "order", "--recipe", '{"kind": "nope"}')
    assert code == 3 and "unknown recipe kind" in err
    code, _, err = run(capsys, "verify", "--manifest",
                       str(tmp_path / "missing.json"))
    assert code == 3 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": 9, "checks": []}')
    code, _, err = run(capsys, "verify", "--manifest", str(bad))
    assert code == 3 and "schema" in err


def test_usage_errors_exit_three(capsys):
    for argv in (["order"],
                 ["verify", "--manifest", "corpus", "--bogus"],
                 ["verify", "--manifest", "corpus", "--threads", "2"],
                 # options the CLI does not have
                 ["describe", "--recipe", S5, "--order-cap", "100"],
                 ["base-size", "--recipe", S5, "--max-b", "6"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        assert "usage:" in capsys.readouterr().err
    # a budget of 0 or less is bad input, not a budget that ran out (exit 2);
    # the function that reads it refuses it by name
    for key, argv in (
            ("budget_ms", ["verify", "--manifest", "corpus", "--budget-ms", "-5"]),
            ("node_budget", ["base-size", "--recipe", S5, "--node-budget", "-1"]),
            ("node_budget", ["stab-scan", "--recipe", S5, "--c", "1", "--node-budget", "-3"]),
            ("node_budget", ["reg-count", "--recipe", S5, "--t", "2", "--node-budget", "0"]),
            ("elem_cap", ["dist-number", "--recipe", S5, "--elem-cap", "-1"])):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and f"{key} must be >= 1" in err


def test_an_unwritable_out_file_exits_three(capsys, tmp_path):
    dest = tmp_path / "no-such-dir" / "group.json"
    code, out, err = run(capsys, "construct", "--recipe", S5, "--out", str(dest))
    assert code == 3 and out == "" and err.startswith("error: cannot write --out file")


def test_a_malformed_predicate_is_named(capsys):
    code, out, err = run(capsys, "stab-scan", "--recipe", S5, "--c", "1",
                         "--predicate", "gamma:x")
    assert code == 3 and out == "" and err == "error: unknown predicate 'gamma:x'\n"


# each verb that takes --recipe: the argv it needs, then its value flags
_VERBS = {
    "construct": ([], ()),
    "describe": ([], ()),
    "order": ([], ()),
    "base-size": ([], ("--node-budget",)),
    "dist-number": ([], ("--elem-cap",)),
    "stab-scan": (["--c", "1"], ("--c", "--node-budget")),
    "reg-count": (["--t", "2"], ("--t", "--threshold", "--first-point", "--node-budget")),
    "bounds": (["--check", "lemma22", "--params", '{"d": 5}'], ("--params",)),
}


def _bad_argv(tmp_path):
    missing = tmp_path / "missing.json"
    for verb, (needs, flags) in _VERBS.items():
        yield [verb, "--recipe", f"@{missing}", *needs]
        for bad in ("x", "0", "-1", "true"):
            yield [verb, "--recipe", bad, *needs]
            for flag in flags:  # a flag given twice: argparse keeps the last
                yield [verb, "--recipe", S5, *needs, flag, bad]
    yield ["construct", "--recipe", S5, "--out", str(tmp_path / "no-such-dir" / "x.json")]
    yield ["verify", "--manifest", str(missing)]
    for bad in ("x", "0", "-1", "true"):
        yield ["verify", "--manifest", bad]
        yield ["verify", "--manifest", "corpus", "--budget-ms", bad]


def test_bad_values_exit_with_a_code_and_never_raise(capsys, tmp_path):
    for argv in _bad_argv(tmp_path):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:
            pytest.fail(f"{argv} raised {e!r}")
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv


def test_bundled_corpus_is_reachable():
    assert bundled_corpus().exists()


@pytest.mark.parametrize("recipe", [
    '{"kind": "symmetric", "m": "5"}',
    '{"kind": "matrix-generators", "m": 2, "q": 2, "matrices": [[[5, 0], [0, 1]]]}',
    '{"kind": "matrix-generators", "m": 2, "q": 3, "matrices": [[[1, 0, 0], [0, 1]]]}',
    '{"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "outer": [0, 1]}',
    '{"kind": "coset", "group": {"kind": "symmetric", "m": 4}, "subgroup": [1]}',
    '{"kind": "symmetric", "m": -3}',
    '{"kind": "alternating", "m": 0}',
    '{"kind": "matrix-generators", "m": 0, "q": 3, "matrices": [[]]}',
    '{"kind": "partitions", "m": 6, "k": 0}',
    # read as ints these built groups: 2.7 as 2 (order 3), true as 1
    '{"kind": "perm-generators", "degree": 3.9, "generators": [[1.0, 2.7, 0]]}',
    '{"kind": "perm-generators", "degree": "3", "generators": [[1, 2, 0]]}',
    '{"kind": "perm-generators", "degree": 3, "generators": [["1", 2, 0]]}',
    '{"kind": "symmetric", "m": true}',
    '{"kind": "subsets", "m": 5, "k": true}',
    '{"kind": "classical", "family": "GL", "m": 2, "q": 3.0}',
    # read by truthiness, "no" built the swap (order 7200) and A5
    '{"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "swap": "no"}',
    '{"kind": "subsets", "m": 5, "k": 2, "alt": "no"}',
    # built a group of that degree and printed it
    '{"kind": "perm-generators", "degree": -1, "generators": []}',
    '{"kind": "perm-generators", "degree": 0, "generators": []}',
    # a key the kind does not read was ignored: one per kind
    '{"kind": "symmetric", "m": 5, "n": 6}',
    '{"kind": "alternating", "m": 5, "label": "A5"}',
    '{"kind": "cyclic", "m": 5, "k": 2}',
    '{"kind": "dihedral", "m": 5, "swap": false}',
    '{"kind": "perm-generators", "degree": 3, "generators": [[1, 2, 0]], "labels": []}',
    '{"kind": "classical", "family": "Sp", "m": 4, "q": 2, "spaec": "subspace"}',
    '{"kind": "matrix-generators", "m": 2, "q": 2, "matrices": [[[0, 1], [1, 0]]],'
    ' "family": "GL"}',
    '{"kind": "affine", "family": "Sp", "m": 4, "q": 2, "space": "vector"}',
    '{"kind": "coset", "group": {"kind": "symmetric", "m": 4},'
    ' "subgroup": {"kind": "cyclic", "m": 4}, "action": "product"}',
    '{"kind": "subsets", "m": 5, "k": 2, "swap": true}',
    '{"kind": "partitions", "m": 6, "k": 2, "altt": true}',
    '{"kind": "wreath", "inner": {"kind": "symmetric", "m": 3},'
    ' "outer": {"kind": "symmetric", "m": 2}, "action": "imprimitive", "alt": true}',
    '{"kind": "diagonal", "factor": {"kind": "alternating", "m": 5}, "inner": []}',
    # built S5 (order 120), not A5
    '{"kind": "symmetric", "m": 5, "alt": true}',
    # the action keys of an embedded subgroup were dropped
    '{"kind": "coset", "group": {"kind": "classical", "family": "Sp", "m": 6, "q": 2},'
    ' "subgroup": {"kind": "classical", "family": "GO+", "m": 6, "q": 2,'
    ' "space": "subspace", "k": 2}}',
    '{"kind": ["symmetric"], "m": 5}',
    # the filter of a vector space was dropped: GO+(4,3)'s e_0 is singular,
    # and the seed [1, 0, 1, 0] is not isotropic
    '{"kind": "classical", "family": "GO+", "m": 4, "q": 3, "filter": "nonsingular"}',
    '{"kind": "classical", "family": "GO+", "m": 4, "q": 3, "seed": [1, 0, 1, 0],'
    ' "filter": "totally-isotropic"}',
    # true read as 1 inside a list: built 14400, 48 and 1
    '{"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},'
    ' "outer": [true, false, 2, 3, 4]}',
    '{"kind": "classical", "family": "GL", "m": 2, "q": 3, "seed": [true, false]}',
    '{"kind": "matrix-generators", "m": 2, "q": 2,'
    ' "matrices": [[[true, false], [false, true]]]}',
], ids=["string-m", "entry-out-of-field", "ragged-matrix", "outer-degree",
        "subgroup-not-object", "negative-m", "zero-m", "zero-matrix-m",
        "zero-block-size", "float-degree-and-images", "string-degree",
        "string-image", "bool-m", "bool-k", "float-q",
        "string-swap", "string-alt", "negative-degree", "zero-degree",
        "stray-symmetric", "stray-alternating", "stray-cyclic", "stray-dihedral",
        "stray-perm-generators", "stray-classical", "stray-matrix-generators",
        "stray-affine", "stray-coset", "stray-subsets", "stray-partitions",
        "stray-wreath", "stray-diagonal", "symmetric-alt",
        "coset-subgroup-space", "kind-list", "vector-filter-default-seed",
        "vector-filter-seed", "bool-outer", "bool-seed", "bool-matrix-entries"])
def test_ill_typed_recipe_exits_three(capsys, recipe):
    code, out, err = run(capsys, "describe", "--recipe", recipe, "--json")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_recipe_key_the_kind_does_not_read_is_named(capsys):
    code, out, err = run(capsys, "order", "--recipe",
                         '{"kind": "classical", "family": "Sp", "m": 4, "q": 2,'
                         ' "spaec": "subspace"}')
    assert code == 3 and out == ""
    assert err == ("error: unknown params key 'spaec' for recipe kind 'classical', which "
                   "reads family, filter, k, kind, m, q, seed, space\n")


def test_a_vector_recipe_applies_its_filter(capsys):
    # GO+(4,3) on the orbit of a nonsingular seed
    code, out, _ = run(capsys, "describe", "--recipe",
                       '{"kind": "classical", "family": "GO+", "m": 4, "q": 3,'
                       ' "seed": [1, 0, 1, 0], "filter": "nonsingular"}', "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["degree"] == 24 and doc["order"] == 1152


def test_a_seed_past_the_enumeration_cap_is_a_resource_limit(capsys):
    # GO-odd(7,7)'s plus-type 6-space is a valid seed; telling plus from
    # minus would list its 7^6 vectors, past the cap of 2^16
    code, out, err = run(capsys, "order", "--recipe",
                         '{"kind": "classical", "family": "GO-odd", "m": 7, "q": 7,'
                         ' "space": "subspace", "k": 6, "filter": "nondegenerate-plus"}')
    assert code == 2 and out == ""
    assert err.startswith("resource limit: ") and "enumeration cap" in err


def test_missing_parameter_names_the_exception(capsys):
    code, out, err = run(capsys, "bounds", "--check", "lemma22",
                         "--recipe", S5, "--params", "{}")
    assert code == 3 and out == ""
    assert err == "error: KeyError: 'd'\n"


def test_describe_loads_no_sympy():
    script = ("import sys\n"
              "from permres.cli import main\n"
              f"main(['describe', '--recipe', {AFFINE!r}])\n"
              "assert 'sympy' not in sys.modules\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   capture_output=True)


def test_imports_load_no_mpmath():
    script = ("import sys\n"
              "import permres.bounds, permres.cli, permres.manifest\n"
              "assert 'mpmath' not in sys.modules\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   capture_output=True)


# -- cold start: what each verb loads ----------------------------------------

_LOADED = ("import json, sys\n"
           "before = set(sys.modules)\n"
           "from permres.cli import main\n"
           "argv = json.loads(sys.argv[1])\n"
           "if argv is not None:\n"
           "    try:\n"
           "        main(argv)\n"
           "    except SystemExit:\n"
           "        pass\n"
           "print(json.dumps(sorted(set(sys.modules) - before)))\n")

_GROUP_LAYERS = {"perm", "stabchain", "structure", "search", "constructions",
                 "classical", "manifest"}

# verb -> (argv for main, or None for the import alone; permres modules it
# must not load besides permres.manifest, which only verify may load)
_VERB_IMPORTS = {
    "import-only": (None, "all"),
    "version": (["--version"], "all"),
    "bounds-threshold-m": (["bounds", "--check", "threshold-m",
                            "--params", '{"eps": "1"}'], _GROUP_LAYERS),
    "construct": (["construct", "--recipe", '{"kind": "subsets", "m": 5, "k": 2}'],
                  {"structure", "search", "bounds", "classical"}),
    "describe": (["describe", "--recipe", S5], {"search", "bounds", "classical"}),
    "order": (["order", "--recipe", S5], set()),
    "base-size": (["base-size", "--recipe", S5], set()),
    "stab-scan": (["stab-scan", "--recipe", S5, "--c", "2"], set()),
    "dist-number": (["dist-number", "--recipe", S5], set()),
    "reg-count": (["reg-count", "--recipe", S5, "--t", "4"], set()),
    "bounds-lemma22": (["bounds", "--check", "lemma22", "--recipe", S5,
                        "--params", '{"d": 6}'], set()),
    "verify": (["verify", "--manifest", "MANIFEST"], set()),
}


@pytest.mark.parametrize("verb", _VERB_IMPORTS)
def test_each_verb_loads_only_what_it_uses(verb, tmp_path):
    argv, banned = _VERB_IMPORTS[verb]
    if verb == "verify":
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"schema": 1, "checks": [
            {"id": "c6", "recipe": {"kind": "cyclic", "m": 6},
             "assertions": [{"op": "order", "expect": 6, "tag": "direct"}]}]}))
        argv = [str(manifest) if a == "MANIFEST" else a for a in argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                          check=True, env=env, capture_output=True, text=True)
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    layers = {m.split(".", 1)[1] for m in loaded if m.startswith("permres.")}
    assert "importlib.metadata" not in loaded
    assert ("manifest" in layers) == (verb == "verify")
    if banned == "all":
        assert layers == {"cli"}
    else:
        assert not layers & banned, sorted(layers & banned)


def test_version_matches_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")
    import permres

    root = Path(cli.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert permres.__version__ == version
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out == f"permres {version}\n"


def test_recipe_file_is_closed(tmp_path):
    p = tmp_path / "r.json"
    p.write_text('{"kind": "subsets", "m": 5, "k": 2}')
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-m",
                           "permres.cli", "construct", "--recipe", f"@{p}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["degree"] == 10
