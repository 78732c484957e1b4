"""The three workloads: seeded inputs, one pass over them, and the answer
every operation must give.

Each workload is a closed loop with one client: an operation starts only
after the previous one returned. The seed only reorders operations and
relabels points; every expected answer below is invariant under both, so
each operation is checked whatever the seed.
"""

from __future__ import annotations

import json
import random
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 2012

WORKLOADS = ("corpus", "search", "cli-cold")

# -- corpus ------------------------------------------------------------------

CORPUS_IDS = (
    "sp62-vector", "goplus62-vector", "deg36-coset", "deg36-subspace-route",
    "deg36-base", "deg36-two-point-stabilizers", "deg36-regular-six-tuples",
    "deg36-profile", "deg36-distinguishing", "affine-16", "diagonal-60",
    "linear-4-2-points", "linear-4-3-points", "dihedral-square",
    "threshold-m-grid", "threshold-n-grid", "serialization-roundtrip",
)


def corpus_setup(seed: str) -> dict:
    """The bundled manifest, loaded and validated, checks in seeded order."""
    from permres.manifest import bundled_corpus, load_manifest, validate_manifest

    doc, _ = load_manifest(bundled_corpus())
    checks = validate_manifest(doc)
    random.Random(seed).shuffle(checks)
    return {**doc, "checks": checks}


def corpus_pass(doc: dict) -> tuple[list[str], dict]:
    """Run the manifest at default settings; returns (failures, details)."""
    from permres.manifest import run_manifest

    report = run_manifest(doc)
    status = {c.id: c.status for c in report.checks}
    failures = [f"{cid}: {status.get(cid, 'missing')}"
                for cid in CORPUS_IDS if status.get(cid) != "pass"]
    failures += [f"{cid}: unexpected check" for cid in status if cid not in CORPUS_IDS]
    check_s = {c.id: c.elapsed_ms / 1000 for c in report.checks}
    return failures, {"check_s": check_s}


# -- search --------------------------------------------------------------------

DEG36 = {"kind": "classical", "family": "GO-odd", "m": 7, "q": 2,
         "space": "subspace", "k": 6, "filter": "nondegenerate-plus"}
SEARCH_GROUPS = {
    "deg36": DEG36,
    "sp62": {"kind": "classical", "family": "Sp", "m": 6, "q": 2},
    "pgl43": {"kind": "classical", "family": "GL", "m": 4, "q": 3,
              "space": "subspace", "k": 1},
    "diag60": {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},
               "swap": True, "outer": [0, 1, 2, 4, 3]},
    "affine16": {"kind": "affine", "family": "Sp", "m": 4, "q": 2},
    "s5wrs2": {"kind": "wreath", "inner": {"kind": "symmetric", "m": 5},
               "outer": {"kind": "symmetric", "m": 2}, "action": "imprimitive"},
    "a5wrs2": {"kind": "wreath", "inner": {"kind": "alternating", "m": 5},
               "outer": {"kind": "symmetric", "m": 2}, "action": "product"},
}
DEG36_ORDER = 1451520

# (operation, group, parameter) -> normalized answer. Base sizes, scan
# verdicts, classes and worst orders agree with tests/test_acceptance.py
# where it asserts them; the rest is the seed code's output.
SEARCH_EXPECT = {
    ("base", "deg36", None): {"size": 6, "status": "exact", "proof": "exhausted"},
    ("base", "sp62", None): {"size": 6, "status": "exact", "proof": "exhausted"},
    ("base", "pgl43", None): {"size": 5, "status": "exact", "proof": "order-bound"},
    ("base", "diag60", None): {"size": 4, "status": "exact", "proof": "exhausted"},
    ("base", "affine16", None): {"size": 5, "status": "exact", "proof": "exhausted"},
    ("scan", "deg36", 2): {"verdict": "all-pass", "classes": 1, "worst_order": 1152,
                           "exhaustive": True,
                           "worst_summary": "C2 * C2 * C2 * C2 * C2 * C2 * C2 * C3 * C3"},
    ("scan", "pgl43", 2): {"verdict": "all-pass", "classes": 1, "worst_order": 7776,
                           "exhaustive": True,
                           "worst_summary": "C2 * C2 * C2 * C2 * C2 * C3 * C3 * C3 * C3 * C3"},
    ("scan", "diag60", 2): {"verdict": "all-pass", "classes": 3, "worst_order": 16,
                            "exhaustive": True, "worst_summary": "C2 * C2 * C2 * C2"},
    ("scan", "affine16", 2): {"verdict": "all-pass", "classes": 1, "worst_order": 48,
                              "exhaustive": True, "worst_summary": "C2 * C2 * C2 * C2 * C3"},
    # with a threshold the count stops early, so only the certificate is fixed
    ("reg", "deg36", 6): {"reached": True, "exact": False, "at_least_threshold": True},
    ("reg", "pgl43", 5): {"value": 12130560, "reached": False, "exact": True},
    ("reg", "diag60", 4): {"value": 8812800, "reached": False, "exact": True},
    ("reg", "affine16", 5): {"value": 322560, "reached": False, "exact": True},
    ("dist", "s5wrs2", None): {"number": 6, "method": "exhausted"},
    ("dist", "affine16", None): {"number": 3, "method": "exhausted"},
    ("dist", "diag60", None): {"number": 2, "method": "exhausted"},
    ("dist", "a5wrs2", None): {"number": 2, "method": "exhausted"},
}


def relabel(gens, degree: int, rng: random.Random) -> list:
    """Conjugate generators by a random point permutation sigma: the image
    of sigma(x) is sigma(g(x))."""
    from permres.perm import Perm

    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        images = [0] * degree
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        out.append(Perm(images))
    return out


def search_setup(seed: str) -> tuple[dict, list]:
    """Relabeled groups (no chains built yet) and the seeded call order."""
    from permres.manifest import construct_recipe
    from permres.stabchain import PermGroup

    rng = random.Random(seed)
    groups = {}
    for key, recipe in SEARCH_GROUPS.items():
        G = construct_recipe(recipe).group
        groups[key] = PermGroup(G.degree, relabel(G.gens, G.degree, rng), label=key)
    calls = list(SEARCH_EXPECT)
    rng.shuffle(calls)
    return groups, calls


def search_call(op: str, G, param) -> dict:
    """One library call, its result reduced to relabeling-invariant fields."""
    from permres.search import (base_size_exact, count_regular_tuples,
                                distinguishing_number, stabilizer_scan)

    if op == "base":
        w = base_size_exact(G)
        return {"size": w.size, "status": w.status, "proof": w.proof_of_minimality}
    if op == "scan":
        r = stabilizer_scan(G, param, "solvable")
        return {"verdict": r.verdict, "classes": r.classes,
                "worst_order": r.worst_witness.order, "exhaustive": r.exhaustive,
                "worst_summary": r.worst_witness.summary}
    if op == "reg":
        if G.label == "deg36":
            r = count_regular_tuples(G, param, threshold=DEG36_ORDER)
            return {"reached": r.reached_threshold, "exact": r.exact,
                    "at_least_threshold": r.value >= DEG36_ORDER}
        r = count_regular_tuples(G, param)
        return {"value": r.value, "reached": r.reached_threshold, "exact": r.exact}
    if op == "dist":
        d = distinguishing_number(G)
        return {"number": d.number, "method": d.method}
    raise ValueError(f"unknown search operation {op!r}")


def search_pass(inputs) -> tuple[list[str], dict]:
    groups, calls = inputs
    failures = []
    answers = {}
    for op, key, param in calls:
        name = f"{op}/{key}" + (f"/{param}" if param is not None else "")
        try:
            got = search_call(op, groups[key], param)
        except Exception as exc:  # a raising call counts as a failed operation
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        answers[name] = got
        if got != SEARCH_EXPECT[(op, key, param)]:
            failures.append(f"{name}: got {got}")
    return failures, {"answers": answers}


# -- cli-cold ------------------------------------------------------------------

S5 = json.dumps({"kind": "symmetric", "m": 5})
AFFINE16 = json.dumps(SEARCH_GROUPS["affine16"])

# verb name -> (argv after `python -m permres.cli`, expected subset of --json)
CLI_VERBS = {
    "describe": (["describe", "--recipe", S5, "--json"],
                 {"order": 120, "composition-factors": ["C2", "A5"],
                  "primitive": True}),
    "order": (["order", "--recipe", json.dumps(SEARCH_GROUPS["sp62"]), "--json"],
              {"order": 1451520}),
    "base-size": (["base-size", "--recipe", AFFINE16, "--json"],
                  {"size": 5, "status": "exact", "proof": "exhausted"}),
    "stab-scan": (["stab-scan", "--recipe", json.dumps(SEARCH_GROUPS["diag60"]),
                   "--c", "2", "--json"],
                  {"verdict": "all-pass", "classes": 3, "worst-order": 16,
                   "exhaustive": True}),
    "dist-number": (["dist-number", "--recipe",
                     json.dumps({"kind": "dihedral", "m": 4}), "--json"],
                    {"distinguishing-number": 3, "method": "exhausted"}),
    "reg-count": (["reg-count", "--recipe", AFFINE16, "--t", "5", "--json"],
                  {"value": 322560, "exact": True}),
    "bounds-threshold-m": (["bounds", "--check", "threshold-m",
                            "--params", '{"eps": "1"}', "--json"],
                           {"M": 21}),
    "bounds-lemma22": (["bounds", "--check", "lemma22", "--recipe", S5,
                        "--params", '{"d": 6}', "--json"],
                       {"verdict": "holds"}),
    "construct": (["construct", "--recipe",
                   json.dumps({"kind": "subsets", "m": 5, "k": 2})],
                  {"degree": 10}),
    "version": (["--version"], None),
}


def cli_env() -> dict:
    import os

    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def cli_check(verb: str, returncode: int, stdout: str) -> str | None:
    """None if the verb's exit code and output are right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    expected = CLI_VERBS[verb][1]
    if expected is None:
        return None if stdout.startswith("permres ") else f"output {stdout[:60]!r}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"output is not JSON: {stdout[:60]!r}"
    wrong = {k: doc.get(k) for k, v in expected.items() if doc.get(k) != v}
    return f"wrong fields {wrong}" if wrong else None


def cli_setup(seed: str) -> list[str]:
    """A fresh interpreter's `import permres.cli`, then the seeded verb order."""
    import permres.cli  # noqa: F401  (timed as this workload's set-up)

    verbs = list(CLI_VERBS)
    random.Random(seed).shuffle(verbs)
    return verbs


def run_child(argv: list[str], timeout: float, env: dict | None = None):
    """Run one process to completion in a process group of its own; on
    timeout kill the whole group and wait for it. Returns (returncode,
    stdout, stderr)."""
    import os
    import signal

    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def cli_pass(verbs: list[str], child_prefix, deadline: float,
             on_result=None) -> tuple[list[str], dict]:
    """Each verb in a fresh process, one after another. child_prefix(verb)
    is the command that stands for `python -m permres.cli`."""
    env = cli_env()
    failures = []
    verb_s = {}
    for verb in verbs:
        t = time.perf_counter()
        code, out, err = run_child(child_prefix(verb) + CLI_VERBS[verb][0],
                                   deadline - time.monotonic(), env)
        verb_s[verb] = time.perf_counter() - t
        reason = cli_check(verb, code, out)
        if reason:
            failures.append(f"{verb}: {reason}; stderr {err[-200:]!r}")
        if on_result is not None:
            on_result(verb, err)
    return failures, {"verb_s": verb_s}
