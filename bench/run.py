"""schubcalc benchmark: one workload, one seed, timed passes with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|smoke]

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src`` directory, and the run writes only to ``.bench_out``
at the checkout's root.  Workloads, metric names and units are those in
``BENCHMARK.json``; the workloads themselves are in ``workloads.py``.

``--trace 0`` runs timed passes for ``--seconds``.  Every package memo
is emptied before each pass, because every user process starts with
them empty, and each pass is checked after its timed region.  The
reported times are each step's best over the passes: ``wall_s`` sums
them and the item percentiles rank them.  Between passes, spread evenly
over the run, it sets up ``SETUP_PROBES`` times in fresh interpreters
(``import schubcalc`` plus input generation); their median is ``setup_s``.

``--trace 1`` alternates an untraced and a traced pass for ``--seconds``
and prints the per-layer metrics: calls and self time of each public
function (medians over the traced passes), memo statistics, import
times from ``-X importtime`` and the tracing overhead.  On ``cli-cold``
both passes replay the commands in-process through ``schubcalc.cli.main``.
The spans of the last traced pass are written to ``.bench_out``.

Every output check is one operation; ``attempted`` and ``failed`` in the
last line count them, and their ratio is the error rate.  The last line
of standard output is one JSON object; the lines before it are a
readable summary.  The run exits 2 without a result when the checkout
has no ``src/schubcalc``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11  # per run, spread over it
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke is a tiny size for the benchmark's self-test")
    return p.parse_args(argv)


def tail(latencies: list) -> tuple:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    With 10 samples or fewer (smoke sizes only) it is the largest one.
    """
    s = sorted(latencies)
    beyond = 10 if len(s) > 10 else 0
    return s[-1 - beyond], 100.0 * (len(s) - beyond) / len(s), beyond


def probe_setup(workloads, name: str, seed: int, size: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), size],
        env=workloads.child_env(SRC), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def parse_importtime(text: str) -> tuple:
    """(import schubcalc, third-party modules it pulls in), seconds, from ``-X importtime``.

    Lines come children first; walking them backwards yields every
    module after its ancestors, so a stack of ancestors' flags tells
    whether a third-party module is the outermost one inside schubcalc.
    """
    entries = []
    for line in text.splitlines():
        parts = line.split("|", 2)
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cumulative, name = parts[1].strip(), parts[2]
        if not cumulative.isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = third_party = 0
    stack: list = []  # (inside schubcalc, third party) of each ancestor
    for depth, cumulative, name in reversed(entries):
        del stack[depth:]
        root = name.partition(".")[0]
        if depth == 0 and name == "schubcalc":
            total = cumulative
        inside = root == "schubcalc" or any(s[0] for s in stack)
        foreign = root != "schubcalc" and root not in sys.stdlib_module_names
        if foreign and inside and not any(s[1] for s in stack):
            third_party += cumulative
        stack.append((inside, foreign))
    return total / 1e6, third_party / 1e6


def probe_imports(workloads) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import schubcalc"],
        env=workloads.child_env(SRC), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return parse_importtime(proc.stderr)


class Tally:
    """Operations attempted and failed over a run, with the first problems seen."""

    def __init__(self, workloads, golden: dict, size: str) -> None:
        self.workloads, self.golden, self.size = workloads, golden, size
        self.attempted = self.failed = 0
        self.problems: list = []

    def add(self, p) -> None:
        attempted, failed, problems = self.workloads.check(p, self.golden, self.size)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems[: max(0, 20 - len(self.problems))]


def fits(start: float, pass_s: float, seconds: float) -> bool:
    """Whether one more pass, as long as the shortest so far, ends within ``seconds``."""
    return perf_counter() - start + pass_s <= seconds


def fresh(memos: dict, tracer) -> None:
    """Empty every package memo and collect garbage before a pass."""
    tracer.clear_memos(memos)
    gc.collect()


def best_steps(passes: list) -> list:
    """Each step's shortest time over the passes.

    Host contention on a small shared machine slows whole stretches of
    seconds by a fifth or more; a pass-level median keeps that noise, the
    per-step best of several passes filters most of it.
    """
    if len({len(p.steps.seconds) for p in passes}) != 1:
        raise RuntimeError("passes of one workload differ in their steps")
    return [min(col) for col in zip(*(p.steps.seconds for p in passes))]


def timed_run(wl, args, workloads, tracer, memos, tally) -> tuple:
    def set_up() -> None:
        setups.append(probe_setup(workloads, args.workload, args.seed, args.size))

    # Set-ups are spread over the run, between passes, so that their
    # median does not hinge on one moment of a noisy host.
    setups: list = []
    passes = []
    start = perf_counter()
    probe_every = args.seconds / SETUP_PROBES

    def more() -> bool:
        """Whether one more pass and the set-ups still due fit in the run."""
        left = SETUP_PROBES - len(setups)
        return fits(start, min(p.wall_s for p in passes) + left * max(setups), args.seconds)

    while not passes or more():
        due = min(SETUP_PROBES, 1 + int((perf_counter() - start) / probe_every))
        while len(setups) < due:
            set_up()
        fresh(memos, tracer)
        p = wl.timed_pass()
        tally.add(p)
        p.records = None  # checked; keeping them would count in peak_rss_mb
        passes.append(p)
    while len(setups) < SETUP_PROBES:
        set_up()
    best = best_steps(passes)
    item_times = [best[i] for i in passes[0].steps.items]
    wall = sum(best)
    value, pct, beyond = tail(item_times)
    n = len(item_times)
    child_rss = [p.peak_rss_mb for p in passes if p.peak_rss_mb is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "items_per_s": passes[0].items / wall,
        "item_p50_ms": 1000 * statistics.median(item_times),
        "item_tail_ms": 1000 * value,
        "peak_rss_mb": max(child_rss) if child_rss
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    best_of = f"best of {len(passes)} passes per step"
    notes = {
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_items": passes[0].items,
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters",
        "wall_s": f"sum of {len(best)} steps, {best_of}",
        "item_p50_ms": f"median of {n} items, {best_of}",
        "item_tail_ms": f"p{pct:.1f} of {n} items ({beyond} beyond it), {best_of}",
        "peak_rss_mb": "largest child process" if child_rss else "benchmark process",
    }
    return values, notes


def traced_run(wl, args, workloads, tracer, memos, tally) -> tuple:
    start = perf_counter()
    imports = [probe_imports(workloads) for _ in range(IMPORT_PROBES)]
    tr = tracer.Tracer(tracer.public_functions())
    untraced, traced, layers = [], [], []
    while not traced or fits(start, min(map(sum, zip(untraced, traced))), args.seconds):
        fresh(memos, tracer)
        p = wl.replay_pass(clear=lambda: tracer.clear_memos(memos))
        tally.add(p)
        untraced.append(p.wall_s)

        stats = tracer.MemoStats(memos)
        fresh(memos, tracer)
        tr.reset()
        tr.install()
        try:
            p = wl.replay_pass(mark=tr.mark, clear=stats.clear)
        finally:
            tr.uninstall()
        stats.absorb()
        tally.add(p)
        traced.append(p.wall_s)
        layers.append({**tr.layer_metrics(), **stats.metrics()})
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.tsv.gz"
    tr.write(spans_path)
    values = {name: statistics.median_low(run[name] for run in layers) for name in layers[0]}
    values["cli.import_total_s"] = statistics.median(t for t, _ in imports)
    values["cli.import_third_party_s"] = statistics.median(t for _, t in imports)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = {
        "passes": len(traced),
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tr.fn),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "memos": sorted(memos),
    }
    return values, notes


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (SRC / "schubcalc" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'schubcalc'}; the benchmark runs "
              "inside a schubcalc checkout", file=sys.stderr)
        return 2
    if "SCHUBCALC_THREADS" in os.environ:
        print("error: SCHUBCALC_THREADS is set; the benchmark measures the "
              "single-threaded default, unset it", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schubcalc

    if Path(schubcalc.__file__).resolve().parent != SRC / "schubcalc":
        print(f"error: imported schubcalc from {schubcalc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer
    import workloads

    numpy = sys.modules.get("numpy")
    environment = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__ if numpy is not None else None,
        "SCHUBCALC_THREADS": None,
    }
    golden = json.loads(workloads.GOLDEN.read_text())
    memos = tracer.find_memos()
    wl = workloads.make(args.workload, args.size, args.seed, ROOT)
    tally = Tally(workloads, golden, args.size)
    run = traced_run if args.trace else timed_run
    values, notes = run(wl, args, workloads, tracer, memos, tally)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"warning: {m['name']} was not measured (its function or memo "
                  "is gone); reporting 0", file=sys.stderr)
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    error_rate = tally.failed / tally.attempted if tally.attempted else math.nan

    print(f"schubcalc benchmark: workload {args.workload}, seed {args.seed}, "
          f"size {args.size}, trace {args.trace}")
    print("environment: " + ", ".join(
        f"{k} {'unset' if v is None else v}" for k, v in environment.items()))
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']:<6}" + (f" {note}" if note else ""))
    print(f"  {'error_rate':<42} {error_rate:>14.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "environment": environment,
        "metrics": metrics, "all_values": values, "notes": notes,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": error_rate, "problems": tally.problems,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
