"""Benchmark for permres: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload corpus|search|cli-cold
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it measures the permres under src/ there.
Every pass of a workload runs in a fresh worker process (worker.py), one
after another; pass i draws its inputs from the seed and i, so a run
averages over several relabelings. With --trace 0 this script repeats
timed passes for --seconds (at least one) and reports the end-to-end
metrics as medians over passes; with --trace 1 it makes one untraced, one
traced and one counting pass and reports the per-layer metrics. Metric
names and units come from BENCHMARK.json. The last line of standard output
is the result object; the exit code is 0 only if every operation gave the
expected answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
BUDGET_S = 170          # a run ends well inside the 180 s a run may take
SETUP_SAMPLES = 9       # set-up is timed at least this often per run
CLI_FLOOR_SAMPLES = 5   # bare interpreter starts timed in a traced cli-cold run


class BenchError(RuntimeError):
    pass


def run_worker(mode: str, workload: str, seed: str, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"out of time before the {mode} pass")
    # the worker's own deadline comes first, so it stops its verb processes itself
    argv = [sys.executable, str(WORKER), mode, workload, seed, f"{left - 5:.1f}"]
    try:
        code, out, err = wl.run_child(argv, left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not end in time") from None
    if code != 0 or not out.strip():
        raise BenchError(f"{mode} pass of {workload} exited {code}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def timed_run(args, deadline: float) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while not passes or time.monotonic() - start < args.seconds:
        if passes and time.monotonic() + 1.5 * longest > deadline:
            break
        t = time.monotonic()
        passes.append(run_worker("time", args.workload, f"{args.seed}/{len(passes)}", deadline))
        longest = max(longest, time.monotonic() - t)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": setup_median(args.workload, f"{args.seed}/0", passes, deadline),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def setup_median(workload: str, seed: str, passes: list[dict], deadline: float) -> float:
    """Median set-up time of the passes, topped up with set-up-only workers."""
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker("setup", workload, seed, deadline)["setup_s"])
    return statistics.median(setups)


def interpreter_floor_s(deadline: float) -> float:
    runs = []
    for _ in range(CLI_FLOOR_SAMPLES):
        t = time.perf_counter()
        code, _, err = wl.run_child([sys.executable, "-c", "pass"], deadline - time.monotonic())
        if code != 0:
            raise BenchError(f"bare interpreter exited {code}: {err}")
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


def traced_run(args, deadline: float) -> tuple[dict, list[dict]]:
    seed = f"{args.seed}/0"
    plain = run_worker("time", args.workload, seed, deadline)
    traced = run_worker("trace", args.workload, seed, deadline)
    counted = run_worker("count", args.workload, seed, deadline)
    spans, counts = traced["spans"], {**traced["counts"], **counted["counts"]}

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def layer_s(layer):
        return sum((v["self_s"] for n, v in spans.items() if n.split(".", 1)[0] == layer), 0.0)

    m = {
        "perm.compose_calls": counts.get("perm.compose_calls", 0),
        "perm.inv_calls": counts.get("perm.inv_calls", 0),
        **traced["perm_kernel_ns"],
        "stabchain.chains_built": calls("stabchain.StabilizerChain"),
        # every point stabilizer goes through pointwise_stabilizer
        "stabchain.point_stabilizer.calls": calls("stabchain.PermGroup.pointwise_stabilizer"),
        "stabchain.point_stabilizer.self_s": self_s("stabchain.PermGroup.point_stabilizer",
                                                    "stabchain.PermGroup.pointwise_stabilizer"),
        "stabchain.extend_calls": calls("stabchain.StabilizerChain.extend"),
        "stabchain.normal_closure.calls": calls("stabchain.normal_closure"),
        # derived_subgroup is the normal closure of the generator commutators
        "stabchain.normal_closure.self_s": self_s("stabchain.normal_closure",
                                                  "stabchain.derived_subgroup"),
        "stabchain.coloring_stabilizer.calls": calls("stabchain.coloring_stabilizer"),
        # setwise_stabilizer is a two-colour coloring_stabilizer
        "stabchain.coloring_stabilizer.self_s": self_s("stabchain.coloring_stabilizer",
                                                       "stabchain.PermGroup.setwise_stabilizer"),
        "stabchain.elements.self_s": self_s("stabchain.PermGroup.elements",
                                            "stabchain.StabilizerChain.elements"),
        "stabchain.self_s": layer_s("stabchain"),
        "structure.composition_factors.calls": calls("structure.composition_factors"),
        "structure.composition_factors.self_s": self_s("structure.composition_factors"),
        "structure.is_solvable.calls": calls("structure.is_solvable"),
        "structure.is_solvable.self_s": self_s("structure.is_solvable"),
        "structure.self_s": layer_s("structure"),
        "search.base_size_exact.self_s": self_s("search.base_size_exact"),
        "search.base_nodes": counts.get("search.base_nodes", 0),
        "search.stabilizer_scan.self_s": self_s("search.stabilizer_scan"),
        "search.scan_classes": counts.get("search.scan_classes", 0),
        "search.count_regular_tuples.self_s": self_s("search.count_regular_tuples"),
        "search.distinguishing.self_s": self_s("search.distinguishing_number",
                                               "search.distinguishing_witness"),
        "search.verify_distinguishing.self_s": self_s("search.verify_distinguishing"),
        "search.self_s": layer_s("search"),
        "bounds.thresholds.calls": calls("bounds.m_epsilon", "bounds.n_c_delta"),
        "bounds.thresholds.self_s": self_s("bounds.m_epsilon", "bounds.n_c_delta"),
        "bounds.self_s": layer_s("bounds"),
        "constructions.self_s": layer_s("constructions"),
        "classical.classical_generators.self_s": self_s("classical.classical_generators"),
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
        "trace.unattributed_s": traced["window_s"] - sum(v["self_s"] for v in spans.values()),
    }
    # layers a workload does not reach read 0
    check_s = plain.get("check_s", {})
    for cid in wl.CORPUS_IDS:
        m[f"manifest.check_s.{cid}"] = check_s.get(cid, 0.0)
    corpus = args.workload == "corpus"
    m["manifest.overhead_s"] = plain["wall_s"] - sum(check_s.values()) if corpus else 0.0
    m["manifest.cpu_over_wall"] = plain["cpu_s"] / plain["wall_s"] if corpus else 0.0
    cli = args.workload == "cli-cold"
    m["cli.interpreter_s"] = interpreter_floor_s(deadline) if cli else 0.0
    m["cli.import_s"] = setup_median(args.workload, seed, [plain], deadline) if cli else 0.0
    verb_s = plain.get("verb_s", {})
    for verb in wl.CLI_VERBS:
        m[f"cli.{verb}_s"] = verb_s.get(verb, 0.0)
    m["cli.verbs_loading_sympy"] = counted.get("verbs_loading_sympy", 0)
    return m, [plain, traced, counted]


def machine_facts(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "sympy": version("sympy"),
            "mpmath": version("mpmath"), "seed": args.seed,
            "default_seed": wl.DEFAULT_SEED, "corpus_threads": "default (--threads not passed)",
            "trace": args.trace}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "permres" / "manifest.py").is_file():
        print(f"error: no permres source under {wl.SRC}", file=sys.stderr)
        return 2
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, passes = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        print(f"error: metrics out of step with BENCHMARK.json: {sorted(mismatch)}",
              file=sys.stderr)
        return 3
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(json.dumps({"machine": machine_facts(args)}))
    for f in failures:
        print(f"FAILED {f}")
    print(f"workload {args.workload}: {len(passes)} passes, failed_frac "
          f"{len(failures) / attempted} ({len(failures)} of {attempted} operations)")
    for m in wanted:
        print(f"{m['name']:45s} {metrics[m['name']]!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
