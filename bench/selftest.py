"""Self-test of the benchmark, at the tiny smoke size of every workload.

    python3 bench/selftest.py

Checks, for every workload of ``BENCHMARK.json``:

* with ``--trace 0`` and ``--trace 1``, the last line of output is the
  result object, every output check passed, and exactly the metrics of
  ``end_to_end`` (resp. ``per_layer``) are printed, each with its unit;
  end-to-end values are never 0;
* a corrupted golden digest turns into exactly one failed operation.

It also checks that the benchmark refuses to run, without a result,
in a directory holding only ``BENCHMARK.json`` and ``bench``.  Exits 1
when any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(workloads.GOLDEN.read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for name in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, name, trace)
            if proc.returncode != 0:
                expect(False, f"{name} --trace {trace} exits 0: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{name} --trace {trace}: result has exactly the four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {trace}: every output check passed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: every {kind} metric with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: no end-to-end metric is 0")

        p = workloads.make(name, "smoke", 7, ROOT).timed_pass()
        attempted, failed, _ = workloads.check(p, golden, "smoke")
        section, key = next((s, k) for s, k, _, _ in p.records if s is not None)
        corrupted = {**golden, section: {**golden[section], key: "0" * 16}}
        attempted_c, failed_c, _ = workloads.check(p, corrupted, "smoke")
        expect(failed == 0 and failed_c == 1 and attempted_c == attempted,
               f"{name}: a corrupted digest of {section} {key} is one failed operation")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and proc.stdout == "",
           "without the package: nonzero exit and no result")

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
