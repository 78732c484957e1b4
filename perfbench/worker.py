"""One pass of one workload in a fresh process.

    python3 perfbench/worker.py <mode> <workload> <input-seed> <seconds-left>
    python3 perfbench/worker.py cli-child <trace|count> <out.json> <cli args...>

The input seed is any string; run.py passes "<seed>/<pass index>".
Modes: `time` times set-up and the pass with no instrumentation; `setup`
times set-up only; `trace` records spans over set-up and pass; `count`
counts Perm compositions and inversions. The last line of standard output
is one JSON object. `cli-child` stands in for `python -m permres.cli`
inside the traced and counted cli-cold passes and writes its trace or
counts to out.json.

Every pass runs in its own process because users pay the lazy imports
(sympy) and module-level caches once per process.
"""

import sys
import time

T0 = time.perf_counter()  # before anything the set-up might share

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def check_source() -> None:
    """Refuse to measure a permres that is not this checkout's."""
    import permres.perm

    where = Path(permres.perm.__file__).resolve()
    if wl.SRC not in where.parents:
        raise SystemExit(f"permres imported from {where}, not from {wl.SRC}")


def setup(workload: str, seed: str):
    if workload == "corpus":
        return wl.corpus_setup(seed)
    if workload == "search":
        return wl.search_setup(seed)
    return wl.cli_setup(seed)


def run_pass(workload: str, inputs, deadline: float, child_prefix=None, on_result=None):
    if workload == "corpus":
        return wl.corpus_pass(inputs)
    if workload == "search":
        return wl.search_pass(inputs)
    return wl.cli_pass(inputs, child_prefix, deadline, on_result)


def perm_kernel_ns(seed: str) -> dict:
    """Fixed micro-loops over the Perm kernel, nanoseconds per call."""
    import random
    import statistics
    import timeit

    from permres.perm import Perm

    rng = random.Random(seed)

    def rand_perm(n):
        images = list(range(n))
        rng.shuffle(images)
        return Perm(images)

    env = {"p36": rand_perm(36), "q36": rand_perm(36), "p360": rand_perm(360),
           "q360": rand_perm(360), "e36": Perm.identity(36)}
    loops = {"perm.compose_ns.deg36": ("p36 * q36", 20000),
             "perm.compose_ns.deg360": ("p360 * q360", 4000),
             "perm.inv_ns.deg36": ("p36.inv()", 20000),
             # the identity is the full-scan case, as for sift residues
             "perm.is_identity_ns.deg36": ("e36.is_identity()", 20000)}
    out = {}
    for name, (stmt, number) in loops.items():
        runs = timeit.Timer(stmt, globals=env).repeat(repeat=7, number=number)
        out[name] = statistics.median(runs) / number * 1e9
    return out


def cli_child(argv: list[str]) -> int:
    """Run the permres CLI in this process under a tracer or counter."""
    import json

    import tracer as tr

    kind, out_path, cli_args = argv[0], Path(argv[1]), argv[2:]
    if kind == "trace":
        tracer = tr.Tracer()
        tr.install_spans(tracer)
    else:
        counts = tr.Counter()
        tr.install_counters(counts)
    import permres.cli

    t = time.perf_counter()
    try:
        code = permres.cli.main(cli_args)
    finally:
        window = time.perf_counter() - t
        if kind == "trace":
            doc = {"window_s": window, "spans": tracer.aggregate(),
                   "counts": dict(tracer.counts)}
            tracer.dump(out_path.with_suffix(""))
        else:
            doc = {"counts": dict(counts)}
        out_path.write_text(json.dumps(doc))
    return code


def main(argv: list[str]) -> int:
    if argv[0] == "cli-child":
        return cli_child(argv[1:])
    mode, workload, seed, seconds_left = argv[0], argv[1], argv[2], float(argv[3])
    deadline = time.monotonic() + seconds_left
    import json

    doc: dict = {}
    if mode == "time":
        inputs = setup(workload, seed)
        doc["setup_s"] = time.perf_counter() - T0
        check_source()
        cpu = time.process_time()
        t = time.perf_counter()
        failures, details = run_pass(workload, inputs, deadline,
                                     lambda verb: [sys.executable, "-m", "permres.cli"])
        doc["wall_s"] = time.perf_counter() - t
        doc["cpu_s"] = time.process_time() - cpu
        doc["peak_rss_mb"] = peak_rss_mb(workload)
    elif mode == "setup":
        setup(workload, seed)
        doc["setup_s"] = time.perf_counter() - T0
        check_source()
        failures, details = [], {}
    elif mode == "trace":
        check_source()
        import tracer as tr

        doc["perm_kernel_ns"] = perm_kernel_ns(seed)
        tracer = tr.Tracer()
        tr.install_spans(tracer)
        t = time.perf_counter()
        inputs = setup(workload, seed)
        p = time.perf_counter()
        failures, details = run_pass(workload, inputs, deadline,
                                     *cli_child_hooks(workload, "trace", doc))
        end = time.perf_counter()
        doc["wall_s"] = end - p
        if workload == "cli-cold":
            doc["window_s"] = doc.pop("child_window_s")
        else:
            doc["window_s"] = end - t
            doc["spans"] = tracer.aggregate()
            doc["counts"] = dict(tracer.counts)
            tracer.dump(trace_dir() / workload)
    elif mode == "count":
        check_source()
        import tracer as tr

        counts = tr.Counter()
        tr.install_counters(counts)
        inputs = setup(workload, seed)
        failures, details = run_pass(workload, inputs, deadline,
                                     *cli_child_hooks(workload, "count", doc))
        if workload != "cli-cold":
            doc["counts"] = dict(counts)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    doc.update(details)
    doc["attempted"] = operations(workload)
    doc["failures"] = failures
    print(json.dumps(doc))
    return 0


def operations(workload: str) -> int:
    if workload == "corpus":
        return len(wl.CORPUS_IDS)
    if workload == "search":
        return len(wl.SEARCH_EXPECT)
    return len(wl.CLI_VERBS)


def trace_dir() -> Path:
    return wl.ROOT / ".perfbench" / "trace"


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process that did the work: this one, or
    for cli-cold the largest verb process (the only children waited for)."""
    import resource

    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def cli_child_hooks(workload: str, kind: str, doc: dict):
    """Child command and result callback for the traced or counted cli-cold
    pass; the callback merges each child's trace or counts into doc."""
    if workload != "cli-cold":
        return None, None
    import json

    out_dir = trace_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    flags = ["-X", "importtime"] if kind == "count" else []

    def prefix(verb: str) -> list[str]:
        return [sys.executable, *flags, str(Path(__file__).resolve()), "cli-child", kind,
                str(out_dir / f"cli-{verb}.json")]

    spans: dict = {}
    counts: dict = {}
    doc.update(spans=spans, counts=counts, child_window_s=0.0, verbs_loading_sympy=0)

    def on_result(verb: str, stderr: str) -> None:
        out = out_dir / f"cli-{verb}.json"
        child = json.loads(out.read_text())
        out.unlink()
        doc["child_window_s"] += child.get("window_s", 0.0)
        for name, agg in child.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "spans": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += agg[k]
        for name, n in child["counts"].items():
            counts[name] = counts.get(name, 0) + n
        if kind == "count" and any(line.rsplit("|", 1)[-1].strip() == "sympy"
                                   for line in stderr.splitlines()):
            doc["verbs_loading_sympy"] += 1

    return prefix, on_result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
