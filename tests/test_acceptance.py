"""Acceptance criteria, one test per criterion.

Each test scans its full stated hypothesis space at the stated (exact)
tolerance and prints a single ``ACCEPTANCE n: PASS [elapsed]`` line;
failures surface as ordinary assertion errors with context.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines and timings.

Tests are ordered so that later criteria reuse the product memo warmed
by earlier ones; each is still correct (just slower) in isolation.
"""

import random
import time

import schubcalc as sc
from schubcalc.chow import _reduced
from schubcalc.schur import lr_oracle


def interior_contexts(max_n):
    return [
        sc.GrassmannContext(k, n) for n in range(3, max_n + 1) for k in range(1, n - 1)
    ]


def all_contexts(max_n):
    return [sc.GrassmannContext(k, n) for n in range(1, max_n + 1) for k in range(n)]


def _report(num, label, t0):
    print(f"ACCEPTANCE {num} ({label}): PASS [{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_unique_vanishing_pair():
    """The only vanishing basis pair with codim sum <= n+1 is {[X_H], [X_p]}."""
    t0 = time.perf_counter()
    for ctx in interior_contexts(10):
        expected = ((1,) * ctx.rows, (ctx.cols,) + (0,) * ctx.k, ctx.n + 1)
        assert sc.enumerate_zero_pairs(ctx, ctx.n + 1) == [expected], ctx
    _report(1, "unique vanishing pair at codim sum <= n+1, n <= 10", t0)


def test_criterion_2_effective_good_divisibility():
    """compute_egd(G(k, n)) == n for every 0 <= k <= n-1, n <= 10."""
    t0 = time.perf_counter()
    for ctx in all_contexts(10):
        assert sc.compute_egd(ctx) == ctx.n, ctx
    _report(2, "egd(G(k,n)) = n, n <= 10", t0)


def test_criterion_3_comparability_dichotomy():
    """verify_prop_comp passes with exactly the two exceptional pairs, n <= 12."""
    t0 = time.perf_counter()
    for ctx in interior_contexts(12):
        report = sc.verify_prop_comp(ctx)
        assert report.passed, (ctx, report.counterexamples)
        rows, cols, k = ctx.rows, ctx.cols, ctx.k
        expected = tuple(
            sorted(
                [
                    ((cols,) + (0,) * k, (cols - 1,) * rows),
                    ((1,) * rows, (cols,) * k + (0,)),
                ]
            )
        )
        assert report.exceptional_pairs == expected, ctx
        assert report.hypothesis_count > 0
    _report(3, "comparability dichotomy with two exceptional pairs, n <= 12", t0)


def test_criterion_4_oracle_equivalence():
    """Across all basis pairs, n <= 8: fast test == LR vanishing; LR == Schur oracle.

    Pairs of total degree above dim G have no box shape of that degree
    at all, so the truncated comparison there reduces to the LR side
    being empty; the Schur oracle is consulted on every other pair.
    """
    t0 = time.perf_counter()
    oracle_memo = {}
    pair_count = oracle_count = 0
    for ctx in all_contexts(8):
        parts = sc.box_partitions(ctx)
        nvars = ctx.rows + 1
        for i in range(len(parts)):
            for j in range(i, len(parts)):
                a, b = parts[i], parts[j]
                pair_count += 1
                product = sc.multiply(sc.schubert_class(ctx, a), sc.schubert_class(ctx, b)).terms
                fast = sc.pair_vanishes(ctx, a, b)
                assert fast == (not product), (ctx, a, b)
                if sum(a) + sum(b) > ctx.dim:
                    assert not product, (ctx, a, b)
                    continue
                key = (_reduced(a), _reduced(b), nvars)
                if key not in oracle_memo:
                    oracle_memo[key] = lr_oracle(a, b, nvars)
                    oracle_count += 1
                truncated_oracle = {
                    nu + (0,) * (ctx.rows - len(nu)): c
                    for nu, c in oracle_memo[key].items()
                    if len(nu) <= ctx.rows and (not nu or nu[0] <= ctx.cols)
                }
                assert truncated_oracle == product, (ctx, a, b)
    print(f"  scanned {pair_count} basis pairs, {oracle_count} distinct oracle runs")
    _report(4, "fast == LR == Schur oracle on all basis pairs, n <= 8", t0)


def test_criterion_5_poincare_duality():
    """pairing(sigma_a, sigma_b) over complementary degrees is the duality matrix."""
    t0 = time.perf_counter()
    for ctx in all_contexts(8):
        parts = sc.box_partitions(ctx)
        duals = {a: sc.dual_partition(ctx, a) for a in parts}
        for i, a in enumerate(parts):
            for b in parts[i:]:
                if sum(a) + sum(b) != ctx.dim:
                    continue
                got = sc.poincare_pair(
                    sc.schubert_class(ctx, a), sc.schubert_class(ctx, b)
                )
                assert got == (1 if b == duals[a] else 0), (ctx, a, b)
    _report(5, "Poincare pairing is the duality matrix, n <= 8", t0)


def test_criterion_6_decision_table():
    """Isomorphism cells are exactly l in {k, n-k-1} inside the covered range, n <= 10."""
    t0 = time.perf_counter()
    for n in range(3, 11):
        table = sc.classify_table(n)
        for l in range(n):
            for k in range(n):
                cell = table[l][k]
                if l in (0, n - 1):
                    assert cell.verdict == sc.NOT_COVERED, (l, k, n)
                elif 1 <= k <= n - 2 and l in (k, n - k - 1):
                    assert cell.verdict == sc.NONCONSTANT_IMPLIES_ISOMORPHISM, (l, k, n)
                else:
                    assert cell.verdict == sc.MUST_BE_CONSTANT, (l, k, n)
                if l not in (0, n - 1) and 1 <= k <= n - 2:
                    # md-pair-driven branch vs direct type-set comparison
                    type_match = {l + 1, n - l} == {k + 1, n - k}
                    assert (cell.branch == "type-match") == type_match, (l, k, n)
    _report(6, "morphism decision table, n <= 10", t0)


def test_criterion_7_structural_suites():
    """Structural invariants: exhaustive for n <= 8 or >= 1000 random cases."""
    t0 = time.perf_counter()

    # duality involutions and weight complement, exhaustive n <= 8
    for ctx in all_contexts(8):
        for sym in sc.all_symbols(ctx):
            assert sc.dual_symbol(ctx, sc.dual_symbol(ctx, sym)) == sym
            assert sc.symbol_to_dim_partition(
                ctx, sc.dual_symbol(ctx, sym)
            ) == sc.dual_partition(ctx, sc.symbol_to_dim_partition(ctx, sym))
        for p in sc.box_partitions(ctx):
            assert sc.dual_partition(ctx, sc.dual_partition(ctx, p)) == p
            assert sum(p) + sum(sc.dual_partition(ctx, p)) == ctx.dim

    # round-trip conversions, exhaustive n <= 8
    for ctx in all_contexts(8):
        for sym in sc.all_symbols(ctx):
            assert sc.dim_partition_to_symbol(
                ctx, sc.symbol_to_dim_partition(ctx, sym)
            ) == sym
        for p in sc.box_partitions(ctx):
            assert sc.symbol_to_dim_partition(
                ctx, sc.dim_partition_to_symbol(ctx, p)
            ) == p

    # Bruhat partial order: reflexivity exhaustive, the rest on random triples
    rng = random.Random(42)
    contexts = all_contexts(8)
    for ctx in contexts:
        for sym in sc.all_symbols(ctx):
            assert sc.bruhat_leq(ctx, sym, sym)
    for _ in range(1500):
        ctx = rng.choice(contexts)
        syms = sc.all_symbols(ctx)
        a, b, c = (rng.choice(syms) for _ in range(3))
        if sc.bruhat_leq(ctx, a, b) and sc.bruhat_leq(ctx, b, a):
            assert a == b
        if sc.bruhat_leq(ctx, a, b) and sc.bruhat_leq(ctx, b, c):
            assert sc.bruhat_leq(ctx, a, c)

    # dual anti-monotonicity, exhaustive n <= 6, random beyond
    for ctx in all_contexts(6):
        syms = sc.all_symbols(ctx)
        for a in syms:
            for b in syms:
                assert sc.bruhat_leq(ctx, a, b) == sc.bruhat_leq(
                    ctx, sc.dual_symbol(ctx, b), sc.dual_symbol(ctx, a)
                )
    for _ in range(1200):
        ctx = rng.choice(contexts)
        syms = sc.all_symbols(ctx)
        a, b = rng.choice(syms), rng.choice(syms)
        assert sc.bruhat_leq(ctx, a, b) == sc.bruhat_leq(
            ctx, sc.dual_symbol(ctx, b), sc.dual_symbol(ctx, a)
        )

    # grading, commutativity, LR nonnegativity on >= 1000 random basis products
    for _ in range(1200):
        ctx = rng.choice(contexts)
        parts = sc.box_partitions(ctx)
        a, b = rng.choice(parts), rng.choice(parts)
        x = sc.schubert_class(ctx, a)
        y = sc.schubert_class(ctx, b)
        prod = sc.multiply(x, y)
        assert prod == sc.multiply(y, x)
        assert all(c > 0 for c in prod.terms.values())
        if sum(a) + sum(b) > ctx.dim:
            assert not prod
        for nu in prod.terms:
            assert sum(nu) == sum(a) + sum(b)
        same_weight = [p for p in parts if sum(p) == sum(a) + sum(b)]
        if same_weight:
            nu = rng.choice(same_weight)
            assert sc.lr_coefficient(a, b, nu) == sc.lr_coefficient(b, a, nu)

    # associativity on >= 1000 random triples, n <= 6
    small = all_contexts(6)
    for _ in range(1000):
        ctx = rng.choice(small)
        parts = sc.box_partitions(ctx)
        a, b, c = (sc.schubert_class(ctx, rng.choice(parts)) for _ in range(3))
        assert sc.multiply(sc.multiply(a, b), c) == sc.multiply(a, sc.multiply(b, c))

    _report(7, "structural property suites", t0)
