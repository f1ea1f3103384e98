"""Record the golden digests and counts that the benchmark checks outputs against.

    python3 bench/make_golden.py

Runs every workload once at every size (cli-cold: every command of its
catalogue) and writes ``bench/golden.json``.  Run it only on a commit
whose outputs are known good; a later change that alters any output
then shows up as failed operations.  It refuses to write when a result
states its own failure or the paper-size hypothesis counts differ from
the sizes of the claims' hypothesis spaces below.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# Sizes of the hypothesis spaces at paper size, known independently of
# this code: pairs of codimension sum <= n + 1 in interior G(k, n) with
# n <= 12 (thm-md), interior G(k, n) with n <= 18 (prop-comp), all
# G(k, n) with n <= 18 (egd, md-pairs), every basis pair with n <= 7 (oracle).
PAPER_COUNTS = {
    "thm_md_pairs": 30417,
    "prop_comp_hypotheses": 1321433,
    "egd_pairs": 665079,
    "md_pairs": 315,
    "oracle_pairs": 9027,
}


def main() -> int:
    golden: dict = {"counts": {}}
    for size in workloads.SIZES:
        counts = golden["counts"].setdefault(size, {})
        for name in workloads.WORKLOADS:
            if name == "cli-cold":
                wl = workloads.CliCold(size, 0, ROOT, commands=workloads.cli_catalogue())
            else:
                wl = workloads.make(name, size, 0, ROOT)
            p = wl.timed_pass()
            for section, key, payload, problem in p.records:
                if problem is not None:
                    print(f"error: {name} {key}: {problem}", file=sys.stderr)
                    return 1
                if section is not None:
                    golden.setdefault(section, {})[key] = workloads.digest(payload)
            counts.update(p.counts)
            print(f"{size} {name}: {len(p.records)} records, {p.counts}")
    wrong = {k: v for k, v in PAPER_COUNTS.items() if golden["counts"]["paper"].get(k) != v}
    if wrong:
        print(f"error: paper-size counts differ: {wrong}", file=sys.stderr)
        return 1
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
