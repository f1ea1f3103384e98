"""The benchmark's four workloads.

Each workload builds its inputs from a seed (set-up), runs timed passes
through the public API of ``schubcalc`` or its command line, and turns
every result into checked operations: a canonical-JSON digest compared
with ``golden.json``, the verdict the result itself states (``status``,
three-way agreement, exit code), and the exact hypothesis counts.

Library calls go through attributes of the ``schubcalc`` package
(``sc.md_pairs``), never through names bound here, so that the
tracer's wrappers see the benchmark's own calls too.

Why these four: ``thm-md-xval`` is many small LR products, one per
low-degree basis pair, next to the Bruhat test; ``claims-scan`` is the
pair scans and box-partition enumeration with no LR product at all;
``oracle-xcheck`` is the Schur oracle, whose monomial tables overflow
its memo, next to the LR product of every basis pair; ``cli-cold`` is
interpreter start, import and argument handling.  An optimisation of one
layer should move one of them and leave another unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import select
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from time import perf_counter

import schubcalc as sc
import schubcalc.cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Full sizes are what a timed run measures: small enough that one run
# repeats every step a few dozen times, so each step's best time is
# steady on a noisy host.  Paper sizes reproduce the hypothesis spaces of
# the claims; ``make_golden.py`` checks their counts and records their
# digests.  Smoke sizes exist for the benchmark's self-test only.
SIZES = {
    "full": {"thm_md_max_n": 9, "claims_max_n": 15, "oracle_max_n": 6, "oracle_sample": 4},
    "paper": {"thm_md_max_n": 12, "claims_max_n": 18, "oracle_max_n": 7, "oracle_sample": 40},
    "smoke": {"thm_md_max_n": 5, "claims_max_n": 6, "oracle_max_n": 4, "oracle_sample": 3},
}

# The n = max_n + 1 sample of oracle-xcheck is drawn from these k only: on
# G(4..6, 8), at paper size, one oracle product costs from 0.1 ms to over
# a second, so a random draw there would make the work depend on the seed.
# Even for these k one sampled product costs from 0.1 to 13 ms, so the
# sample is a few pairs per k and its products are not latency items:
# the item percentiles rank the exhaustive part only, which every seed
# shares.
ORACLE_SAMPLE_KS = (1, 2, 3)

# Commands per kind in one cli-cold pass.  Fixed counts per kind keep the
# cost of a pass independent of the seed, which only picks the arguments
# and the order.  Every command costs about the same, mostly interpreter
# start and import, and that cost swings by half with the host's load, so
# the mix is short enough for each command to run six times or more in a
# run: its best time is what the percentiles rank.
CLI_MIX = {
    "full": {
        "convert": 2, "render": 2, "product": 3, "vanishes": 3, "vanishes-xv": 2,
        "egd": 2, "mdpairs": 2, "mdpairs-xv": 1, "classify": 2, "classify-one": 1,
        "verify": 2, "usage-error": 2,
    },
    "smoke": {
        "convert": 1, "product": 1, "vanishes-xv": 1, "mdpairs": 1, "classify": 1,
        "verify": 1, "usage-error": 1,
    },
}
CLI_CONTEXTS = ((1, 4), (2, 5), (1, 6), (2, 6), (3, 7), (2, 8))
CLI_TIMEOUT_S = 60.0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


def label(k: int, n: int) -> str:
    return f"G({k},{n})"


def box(k: int, n: int) -> list:
    """Partitions in the (k+1) x (n-k) box, sorted by (weight, parts)."""
    out = [()]
    for _ in range(k + 1):
        out = [p + (v,) for p in out for v in range((p[-1] if p else n - k) + 1)]
    return sorted(out, key=lambda p: (sum(p), p))


def unordered_pairs(parts: list) -> list:
    return [(a, b) for i, a in enumerate(parts) for b in parts[i:]]


def interior(max_n: int) -> list:
    """Contexts with 1 <= k <= n-2, the hypothesis range of the claims."""
    return [(k, n) for n in range(3, max_n + 1) for k in range(1, n - 1)]


def every(max_n: int) -> list:
    return [(k, n) for n in range(1, max_n + 1) for k in range(n)]


def reduced(p) -> tuple:
    p = tuple(p)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _no_mark(label: str) -> None:
    pass


class Steps:
    """Times every call of a pass, in the same order on every pass.

    A pass is a sequence of steps that covers all of its work; the
    latency items are some of those steps.  Because the order is fixed,
    the benchmark can line up the steps of several passes.
    """

    def __init__(self) -> None:
        self.seconds: list = []
        self.items: list = []  # indices of the steps that are latency items

    def time(self, fn, *args, item: bool = False):
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a failed operation, counted by the check
            result = err
        self.seconds.append(perf_counter() - start)
        if item:
            self.items.append(len(self.seconds) - 1)
        return result


@dataclass
class Pass:
    """One timed pass: what the benchmark reports and what it checks."""

    wall_s: float
    items: int  # basis pairs or hypotheses checked, or commands run
    steps: Steps
    records: list  # (golden section or None, key, payload, problem or None)
    counts: dict = field(default_factory=dict)  # compared with golden counts
    peak_rss_mb: float | None = None  # children's peak (cli-cold only)


def _report_record(section: str, key: str, report) -> tuple:
    if isinstance(report, Exception):
        return (section, key, None, f"raised {report!r}")
    problem = None if report.status == "pass" else f"status {report.status}"
    return (section, key, report.to_json_dict(), problem)


class ThmMdXval:
    """verify_thm_md on every interior G(k, n): the Bruhat test and a full LR product per pair.

    The LR memo is shared across n for a fixed k, so contexts run by
    ascending n, as a sweep would; the seed orders the k within each n,
    which changes no memo hit, so every seed does the same work.
    """

    name = "thm-md-xval"

    def __init__(self, size: str, seed: int) -> None:
        rng = random.Random(seed)
        contexts = interior(SIZES[size]["thm_md_max_n"])
        self.contexts = []
        for n in sorted({n for _, n in contexts}):
            ks = [k for k, m in contexts if m == n]
            rng.shuffle(ks)
            self.contexts += [(k, n) for k in ks]

    def timed_pass(self, mark=_no_mark, clear=None) -> Pass:
        steps = Steps()
        reports = []
        start = perf_counter()
        for k, n in self.contexts:
            mark(f"thm-md {label(k, n)}")
            report = steps.time(sc.verify_thm_md, sc.GrassmannContext(k, n), item=True)
            reports.append((label(k, n), report))
        wall = perf_counter() - start
        records = [_report_record("thm-md", key, r) for key, r in reports]
        counts = {"thm_md_pairs": sum(getattr(r, "hypothesis_count", 0) for _, r in reports)}
        return Pass(wall, counts["thm_md_pairs"], steps, records, counts)

    replay_pass = timed_pass


class ClaimsScan:
    """verify_prop_comp, verify_egd, md_pairs and classify_table: scans, no LR product.

    Up to n = 15 at full size and n = 18, the claims' range, at paper size.
    """

    name = "claims-scan"

    def __init__(self, size: str, seed: int) -> None:
        rng = random.Random(seed)
        max_n = SIZES[size]["claims_max_n"]
        self.prop_contexts = interior(max_n)
        self.egd_contexts = every(max_n)
        self.md_contexts = every(max_n)
        self.table_ns = list(range(3, max_n + 1))
        for seq in (self.prop_contexts, self.egd_contexts, self.md_contexts, self.table_ns):
            rng.shuffle(seq)

    def timed_pass(self, mark=_no_mark, clear=None) -> Pass:
        steps = Steps()
        prop, egd, md, tables = [], [], [], []
        start = perf_counter()
        for claim, fn, contexts, out in (
            ("prop-comp", sc.verify_prop_comp, self.prop_contexts, prop),
            ("egd", sc.verify_egd, self.egd_contexts, egd),
        ):
            for k, n in contexts:
                mark(f"{claim} {label(k, n)}")
                out.append((label(k, n), steps.time(fn, sc.GrassmannContext(k, n), item=True)))
        for k, n in self.md_contexts:
            mark(f"md-pairs {label(k, n)}")
            md.append((label(k, n), steps.time(sc.md_pairs, sc.GrassmannContext(k, n))))
        for n in self.table_ns:
            mark(f"classify {n}")
            tables.append((str(n), steps.time(sc.classify_table, n)))
        wall = perf_counter() - start

        records = [_report_record("prop-comp", key, r) for key, r in prop]
        records += [_report_record("egd", key, r) for key, r in egd]
        md_total = 0
        for key, pairs in md:
            if isinstance(pairs, Exception):
                records.append(("md-pairs", key, None, f"raised {pairs!r}"))
            else:
                md_total += len(pairs)
                records.append(("md-pairs", key, [p.to_json_dict() for p in pairs], None))
        for key, table in tables:
            if isinstance(table, Exception):
                records.append(("classify", key, None, f"raised {table!r}"))
            else:
                grid = [[cell.to_json_dict() for cell in row] for row in table]
                records.append(("classify", key, grid, None))
        counts = {
            "prop_comp_hypotheses": sum(getattr(r, "hypothesis_count", 0) for _, r in prop),
            "egd_pairs": sum(getattr(r, "hypothesis_count", 0) for _, r in egd),
            "md_pairs": md_total,
        }
        items = counts["prop_comp_hypotheses"] + counts["egd_pairs"]
        return Pass(wall, items, steps, records, counts)

    replay_pass = timed_pass


def box_truncate(expansion: dict, k: int, n: int) -> dict:
    """Schur expansion mapped to the Chow ring of G(k, n): shapes outside the box vanish."""
    rows, cols = k + 1, n - k
    return {
        nu + (0,) * (rows - len(nu)): c
        for nu, c in expansion.items()
        if len(nu) <= rows and (not nu or nu[0] <= cols)
    }


def _chow_pair(ctx, a, b) -> tuple:
    """The two Chow-ring routes for one pair: Bruhat verdict and LR product terms."""
    vanishes = sc.pair_vanishes(ctx, a, b)
    return vanishes, sc.multiply(sc.schubert_class(ctx, a), sc.schubert_class(ctx, b)).terms


class OracleXcheck:
    """Three-way check per basis pair: pair_vanishes, multiply terms, box-truncated lr_oracle."""

    name = "oracle-xcheck"

    def __init__(self, size: str, seed: int) -> None:
        max_n = SIZES[size]["oracle_max_n"]
        rng = random.Random(seed)
        sample_n = max_n + 1
        contexts = [(k, n, unordered_pairs(box(k, n)), True) for k, n in every(max_n)]
        contexts += [
            (k, sample_n, rng.sample(unordered_pairs(box(k, sample_n)), SIZES[size]["oracle_sample"]), False)
            for k in ORACLE_SAMPLE_KS
        ]
        # (context label, k, n, [(a, b, oracle product)], has golden digest); the
        # oracle product is symmetric and blind to trailing zeros, so products
        # repeat across pairs and across n for a fixed k.
        self.contexts = [
            (label(k, n), k, n,
             [(a, b, (*sorted((reduced(a), reduced(b))), k + 1)) for a, b in pairs], golden)
            for k, n, pairs, golden in contexts
        ]

    def timed_pass(self, mark=_no_mark, clear=None) -> Pass:
        oracle: dict = {}
        steps = Steps()
        results = []
        start = perf_counter()
        for ctx_label, k, n, pairs, exhaustive in self.contexts:
            ctx = sc.GrassmannContext(k, n)
            rows = []
            for a, b, key in pairs:
                if key not in oracle:
                    mark(f"lr_oracle{key}")
                    oracle[key] = steps.time(sc.lr_oracle, *key, item=exhaustive)
                mark(ctx_label)
                checked = steps.time(_chow_pair, ctx, a, b)
                vanishes, terms = checked if isinstance(checked, tuple) else (checked, None)
                rows.append((a, b, vanishes, terms, oracle[key]))
            results.append(rows)
        wall = perf_counter() - start

        records = []
        exhaustive_pairs = 0
        for (ctx_label, k, n, _, golden), rows in zip(self.contexts, results):
            table, broken = [], False
            for a, b, vanishes, terms, expansion in rows:
                problem = None
                if isinstance(vanishes, Exception):
                    problem = f"raised {vanishes!r}"
                elif isinstance(expansion, Exception):
                    problem = f"lr_oracle raised {expansion!r}"
                elif terms != box_truncate(expansion, k, n):
                    problem = "multiply and lr_oracle disagree"
                elif vanishes != (not terms):
                    problem = "pair_vanishes and multiply disagree"
                broken = broken or problem is not None
                records.append((None, f"{ctx_label} {a} x {b}", None, problem))
                if problem is None:
                    table.append([a, b, vanishes, sorted(terms.items())])
            if golden:
                exhaustive_pairs += len(rows)
                records.append(("oracle", ctx_label, table, "pair check failed" if broken else None))
        products = {key for *_, pairs, golden in self.contexts if golden for *_, key in pairs}
        counts = {"oracle_pairs": exhaustive_pairs, "oracle_products": len(products)}
        return Pass(wall, sum(len(rows) for rows in results), steps, records, counts)

    replay_pass = timed_pass


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def cli_catalogue() -> list:
    """Every command cli-cold can draw, as (kind, argv); built without the package."""
    out = []
    for k, n in CLI_CONTEXTS:
        ctx = ["--k", str(k), "--n", str(n)]
        syms = list(combinations(range(1, n + 2), k + 1))
        parts = box(k, n)
        m, s = len(parts), len(syms)
        for sym in (syms[0], syms[s // 2], syms[-1]):
            out.append(("convert", ["convert", *ctx, "--symbol", _ints(sym)]))
        for p in (parts[m // 3], parts[2 * m // 3]):
            out.append(("convert", ["convert", *ctx, "--partition", _ints(p)]))
        out.append(("render", ["render", *ctx, "--partition", _ints(parts[m // 2])]))
        out.append(("render", ["render", *ctx, "--partition", _ints(parts[-1]),
                               "--overlay", _ints(parts[m // 4])]))
        for i, j in ((1, m // 2), (m // 3, m // 3), (m // 2, m - 2), (2, m // 4)):
            out.append(("product", ["product", *ctx, "--a", _ints(parts[i]), "--b", _ints(parts[j])]))
        for i, j in ((0, s - 1), (s // 3, s // 2), (s - 1, s - 1)):
            out.append(("vanishes", ["vanishes", *ctx, "--i", _ints(syms[i]), "--j", _ints(syms[j])]))
        for i, j in ((1, s // 2), (s // 4, s - 2)):
            out.append(("vanishes-xv", ["vanishes", *ctx, "--i", _ints(syms[i]),
                                        "--j", _ints(syms[j]), "--cross-validate"]))
        out.append(("egd", ["egd", *ctx]))
        out.append(("mdpairs", ["mdpairs", *ctx]))
        if n <= 6:
            out.append(("mdpairs-xv", ["mdpairs", *ctx, "--cross-validate"]))
    out += [("egd", ["egd", "--k", "3", "--n", "9"]), ("egd", ["egd", "--k", "4", "--n", "10"])]
    out += [("classify", ["classify", "--n", str(n)]) for n in range(3, 9)]
    out += [
        ("classify-one", ["classify", "--n", str(n), "--l", str(l), "--k", str(k)])
        for l, k, n in ((1, 1, 4), (1, 2, 4), (2, 3, 6), (2, 2, 5), (3, 3, 7), (1, 3, 6))
    ]
    out += [
        ("verify", ["verify", claim, *args])
        for claim, args in (
            ("thm-md", ["--k", "1", "--n", "5"]), ("thm-md", ["--k", "2", "--n", "6"]),
            ("thm-md", ["--max-n", "6"]), ("prop-comp", ["--k", "2", "--n", "7"]),
            ("prop-comp", ["--max-n", "8"]), ("egd-sweep", ["--max-n", "6"]),
        )
    ]
    out += [
        ("usage-error", argv)
        for argv in (
            ["egd", "--k", "2"],
            ["product", "--k", "1", "--n", "4", "--a", "4,0", "--b", "0"],
            ["convert", "--k", "5", "--n", "3", "--symbol", "1,2"],
            ["classify", "--n", "2"],
            ["vanishes", "--k", "1", "--n", "4", "--i", "1,x", "--j", "1,2"],
            ["render", "--k", "2", "--n", "5", "--partition", "1,2,0"],
            ["verify", "egd-sweep", "--k", "1", "--n", "4"],
            ["classify", "--n", "6", "--l", "2"],
        )
    ]
    return [(kind, [*argv, "--format", "json"]) for kind, argv in out]


def child_env(src: Path) -> dict:
    """Environment of every child interpreter: the checkout's sources, no thread fan-out."""
    env = {key: val for key, val in os.environ.items() if key != "SCHUBCALC_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv: list, env: dict, scratch: Path, timeout: float = CLI_TIMEOUT_S):
    """Run one child interpreter; return (seconds, exit code, stdout, stderr, peak RSS in MB).

    Spawned directly and reaped with ``wait4`` so that the child's own
    peak RSS is known; killed after ``timeout`` seconds.
    """
    out_path = scratch / f"child-{os.getpid()}.out"
    err_path = scratch / f"child-{os.getpid()}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
    ]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    seconds = perf_counter() - start
    out, err = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return seconds, os.waitstatus_to_exitcode(status), out, err, usage.ru_maxrss / 1024


def cli_record(kind: str, argv: list, code: int, out: str, err: str) -> tuple:
    key = " ".join(argv)
    if kind == "usage-error":
        ok = code == 2 and out == "" and err.startswith("error:")
        return ("cli", key, {"exit": code}, None if ok else f"exit {code}, stderr {err[:80]!r}")
    if code != 0:
        return ("cli", key, None, f"exit {code}, stderr {err[:80]!r}")
    try:
        payload = json.loads(out)
    except ValueError:
        return ("cli", key, None, "stdout is not JSON")
    payload.pop("elapsed_ms", None)  # mdpairs reports its own wall time
    return ("cli", key, payload, None)


class CliCold:
    """A seed-drawn mix of short commands, each a fresh ``python -m schubcalc`` process."""

    name = "cli-cold"

    def __init__(self, size: str, seed: int, root: Path, commands=None) -> None:
        self.src = root / "src"
        self.scratch = root / ".bench_out"
        if commands is None:
            rng = random.Random(seed)
            catalogue = cli_catalogue()
            commands = []
            for kind, count in CLI_MIX[size].items():
                commands += rng.sample([c for c in catalogue if c[0] == kind], count)
            rng.shuffle(commands)
        self.commands = commands

    def timed_pass(self, mark=_no_mark, clear=None) -> Pass:
        self.scratch.mkdir(exist_ok=True)
        env = child_env(self.src)
        steps, records, peak = Steps(), [], 0.0
        start = perf_counter()
        for kind, argv in self.commands:
            seconds, code, out, err, rss = run_child(
                [sys.executable, "-m", "schubcalc", *argv], env, self.scratch
            )
            steps.seconds.append(seconds)
            steps.items.append(len(steps.items))
            peak = max(peak, rss)
            records.append(cli_record(kind, argv, code, out, err))
        wall = perf_counter() - start
        return Pass(wall, len(self.commands), steps, records, peak_rss_mb=peak)

    def replay_pass(self, mark=_no_mark, clear=None) -> Pass:
        """The same commands through ``schubcalc.cli.main`` in this process.

        ``clear`` empties the package memos before each command, as a
        fresh process would start with them empty.
        """
        steps, records = Steps(), []
        start = perf_counter()
        for kind, argv in self.commands:
            if clear is not None:
                clear()
            mark(" ".join(argv))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = steps.time(schubcalc.cli.main, argv, item=True)
            if isinstance(code, Exception):
                records.append(("cli", " ".join(argv), None, f"raised {code!r}"))
            else:
                records.append(cli_record(kind, argv, code, out.getvalue(), err.getvalue()))
        wall = perf_counter() - start
        return Pass(wall, len(self.commands), steps, records)


def make(name: str, size: str, seed: int, root: Path):
    """Build a workload and its inputs; this is the set-up the benchmark times."""
    if name == "cli-cold":
        return CliCold(size, seed, root)
    cls = {w.name: w for w in (ThmMdXval, ClaimsScan, OracleXcheck)}[name]
    return cls(size, seed)


WORKLOADS = ("thm-md-xval", "claims-scan", "oracle-xcheck", "cli-cold")


def check(p: Pass, golden: dict, size: str) -> tuple:
    """Return (attempted, failed, problems) for one pass; every record and count is one op."""
    attempted = failed = 0
    problems = []
    for section, key, payload, problem in p.records:
        attempted += 1
        if problem is None and section is not None:
            want = golden.get(section, {}).get(key)
            if want is None:
                problem = "no golden digest"
            elif digest(payload) != want:
                problem = "digest differs from golden"
        if problem is not None:
            failed += 1
            problems.append(f"{section or 'pair'} {key}: {problem}")
    expected = golden.get("counts", {}).get(size, {})
    for name, value in p.counts.items():
        attempted += 1
        if expected.get(name) != value:
            failed += 1
            problems.append(f"count {name}: {value}, expected {expected.get(name)}")
    return attempted, failed, problems
