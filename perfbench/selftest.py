"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Seed invariance: two seeds relabel the search groups differently and give
   identical answers, all of them the expected ones.
2. The answer checks reject a wrong answer.
3. Trace determinism: on every workload, two traced and counted passes with
   the same seed give identical work counts.

Takes about five minutes on a 2-core machine. Exit code 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# counts that must repeat exactly: (pass mode, key in the spans or counts)
DETERMINISTIC = [
    ("trace", "stabchain.StabilizerChain"),
    ("trace", "stabchain.StabilizerChain.extend"),
    ("trace", "stabchain.normal_closure"),
    ("trace", "structure.composition_factors"),
    ("trace", "search.base_nodes"),
    ("trace", "search.scan_classes"),
    ("count", "perm.compose_calls"),
    ("count", "perm.inv_calls"),
]


def seed_invariance(seeds=("1/0", "2/0")) -> list[str]:
    problems = []
    answers = []
    gens = []
    for seed in seeds:
        groups, calls = wl.search_setup(seed)
        failures, details = wl.search_pass((groups, calls))
        problems += [f"seed {seed}: {f}" for f in failures]
        answers.append(details["answers"])
        gens.append({k: [g.images for g in G.gens] for k, G in groups.items()})
    if gens[0] == gens[1]:
        problems.append("the two seeds gave the same relabeled generators")
    if answers[0] != answers[1]:
        problems.append(f"answers differ between seeds {seeds}")
    return problems


def rejects_wrong_answers() -> list[str]:
    """A wrong or raising operation must show up as a failure."""
    problems = []
    if wl.cli_check("order", 0, json.dumps({"order": 1451521})) is None:
        problems.append("cli check accepted a wrong order")
    if wl.cli_check("order", 1, json.dumps({"order": 1451520})) is None:
        problems.append("cli check accepted a non-zero exit code")
    if wl.cli_check("order", 0, json.dumps({"order": 1451520})) is not None:
        problems.append("cli check rejected the right answer")
    groups, _ = wl.search_setup("1/0")
    key = ("dist", "a5wrs2", None)
    right = wl.SEARCH_EXPECT[key]
    if wl.search_pass((groups, [key]))[0]:
        problems.append(f"{key}: the right answer was rejected")
    wl.SEARCH_EXPECT[key] = {**right, "number": right["number"] + 1}
    try:
        if not wl.search_pass((groups, [key]))[0]:
            problems.append(f"{key}: a wrong answer was accepted")
    finally:
        wl.SEARCH_EXPECT[key] = right
    if not wl.search_pass((groups, [("no-such-op", "a5wrs2", None)]))[0]:
        problems.append("a raising call was not counted as failed")
    return problems


def worker_pass(mode: str, workload: str, seed: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), mode, workload,
                          str(seed), "170"], capture_output=True, text=True,
                         check=True, cwd=wl.ROOT, timeout=180).stdout
    return json.loads(out.strip().splitlines()[-1])


def trace_determinism(seed: str = f"{wl.DEFAULT_SEED}/0") -> list[str]:
    problems = []
    for workload in wl.WORKLOADS:
        runs = []
        for _ in range(2):
            traced = worker_pass("trace", workload, seed)
            counted = worker_pass("count", workload, seed)
            row = {}
            for mode, key in DETERMINISTIC:
                doc = traced if mode == "trace" else counted
                spans = doc.get("spans", {})
                row[key] = spans[key]["calls"] if key in spans else doc["counts"].get(key, 0)
            runs.append(row)
        problems += [f"{workload} {k}: {runs[0][k]} then {runs[1][k]}"
                     for k in runs[0] if runs[0][k] != runs[1][k]]
    return problems


def main() -> int:
    ok = True
    for name, test in [("seed invariance on search", seed_invariance),
                       ("wrong answers are rejected", rejects_wrong_answers),
                       ("traced counts repeat exactly", trace_determinism)]:
        problems = test()
        ok = ok and not problems
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for p in problems:
            print(f"    {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
