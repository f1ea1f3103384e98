"""Chow ring products, vanishing tests and the Poincare pairing."""

import copy
import pickle
import random
from itertools import combinations_with_replacement
from operator import add

import pytest

from schubcalc import (
    CycleClass,
    GrassmannContext,
    box_layer,
    box_partitions,
    dual_partition,
    format_class,
    fundamental_class,
    lr_coefficient,
    lr_oracle,
    multiply,
    pair_vanishes,
    poincare_pair,
    product_vanishes_fast,
    schubert_class,
    special_symbols,
    symbol_to_dim_partition,
)
from schubcalc.chow import _lr_vanishes, _lr_walk

C13 = GrassmannContext(1, 3)
C26 = GrassmannContext(2, 6)


def sigma(ctx, *parts):
    return schubert_class(ctx, parts)


class TestCycleClass:
    def test_basis_class_degree(self):
        assert sigma(C26, 1, 1, 1).degree() == 3
        assert sigma(C26, 4, 0, 0).degree() == 4
        assert sigma(C26, 0, 0, 0).degree() == 0

    def test_zero_coefficients_dropped(self):
        x = CycleClass(C26, {(1, 0, 0): 0, (2, 0, 0): 3})
        assert x.terms == {(2, 0, 0): 3}

    def test_mixed_degree_rejected_by_degree(self):
        x = CycleClass(C26, {(1, 0, 0): 1, (2, 0, 0): 1})
        assert not x.is_homogeneous()
        with pytest.raises(ValueError):
            x.degree()

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError):
            schubert_class(C26, (5, 0, 0))

    @pytest.mark.parametrize("parts,message", [
        ((1, 0), "partition (1, 0) has 2 parts, expected 3 for G(2,6)"),
        ([1, 2, 0], "partition (1, 2, 0) is not weakly decreasing"),
        ((5, 0, 0), "partition (5, 0, 0) does not fit the 3x4 box"),
        ((1.5, 0, 0), "partition (1.5, 0, 0) has a non-integer part 1.5"),
        ([[1], 0, 0], "partition ([1], 0, 0) has a non-integer part [1]"),
    ])
    def test_invalid_factor_messages(self, parts, message):
        with pytest.raises(ValueError) as err:
            schubert_class(C26, parts)
        assert str(err.value) == message

    def test_arithmetic_with_a_non_class_raises_type_error(self):
        x = sigma(C26, 1, 0, 0)
        for op in (lambda: x * 2, lambda: 2 * x, lambda: x + 0, lambda: 0 + x):
            with pytest.raises(TypeError):
                op()
        assert x.__mul__(2) is NotImplemented and x.__add__(0) is NotImplemented

    def test_json_sorted(self):
        x = CycleClass(C13, {(2, 0): 1, (1, 1): 2})
        assert x.to_json_dict() == {
            "k": 1,
            "n": 3,
            "terms": [
                {"partition": [1, 1], "coeff": 2},
                {"partition": [2, 0], "coeff": 1},
            ],
        }

    def test_format(self):
        x = CycleClass(C13, {(2, 0): 1, (1, 1): 2})
        assert format_class(x) == "σ(2) + 2*σ(1,1)"
        assert format_class(fundamental_class(C13)) == "σ(0)"
        assert format_class(CycleClass(C13, {})) == "0"

    def test_item_and_attribute_assignment_raise(self):
        x = schubert_class(C13, (1, 0))
        with pytest.raises(TypeError):
            x.terms[(1, 0)] = 7
        with pytest.raises(TypeError):
            x.terms[(9, 9)] = 1  # outside the 2x2 box
        for name, value in (("ctx", GrassmannContext(2, 5)), ("terms", {(9, 9): 1}), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        with pytest.raises(AttributeError):
            del x.ctx
        assert x.ctx == C13 and x.terms == {(1, 0): 1}

    def test_hash_is_stable(self):
        x = schubert_class(C13, (1, 0))
        seen, before = {x}, hash(x)
        with pytest.raises(TypeError):
            x.terms[(1, 0)] = 7
        assert hash(x) == before and x in seen
        assert hash(CycleClass(C13, {(1, 0): 1})) == before

    def test_pickle_and_copy_round_trip(self):
        x = CycleClass(C26, {(2, 0, 0): 3, (1, 1, 0): -1})
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert y == x and hash(y) == hash(x)
            assert format_class(y) == format_class(x)
            with pytest.raises(TypeError):
                y.terms[(2, 0, 0)] = 1


class TestLrCoefficient:
    def test_pieri_square(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1
        assert lr_coefficient((1,), (1,), (3,)) == 0

    def test_identity(self):
        for lam in [(3, 1), (2, 2, 1), ()]:
            assert lr_coefficient(lam, (), lam) == 1

    def test_single_filling(self):
        assert lr_coefficient((2, 2), (2, 2), (4, 4)) == 1

    def test_weight_mismatch_is_zero(self):
        assert lr_coefficient((2,), (1,), (2, 2)) == 0

    def test_non_containment_is_zero(self):
        assert lr_coefficient((3,), (1,), (2, 2)) == 0

    def test_trailing_zeros_ignored(self):
        assert lr_coefficient((1, 0, 0), (1, 0), (1, 1, 0)) == 1
        assert lr_coefficient((1,) + (0,) * 10**5, (1,), (1, 1)) == 1

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(300):
            lam = tuple(sorted((rng.randint(0, 4) for _ in range(3)), reverse=True))
            mu = tuple(sorted((rng.randint(0, 4) for _ in range(3)), reverse=True))
            nu = tuple(sorted((rng.randint(0, 8) for _ in range(4)), reverse=True))
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


class TestLrFillings:
    @staticmethod
    def _reading_word(filling):
        word = []
        for row in filling:
            word.extend(reversed(row))
        return word

    def test_fillings_are_lr_tableaux(self):
        import itertools

        from schubcalc import lr_fillings

        cases = [
            ((1,), (1,), (2,)),
            ((2, 2), (2, 2), (4, 4)),
            ((2,), (2, 1), (3, 2)),
            ((2, 1), (2, 1), (3, 2, 1)),
            ((), (3, 2, 1), (3, 2, 1)),
        ]
        for lam, mu, nu in cases:
            fillings = list(lr_fillings(lam, mu, nu))
            assert len(fillings) == lr_coefficient(lam, mu, nu)
            lam_p = lam + (0,) * (len(nu) - len(lam))
            for f in fillings:
                # rows weakly increase left to right
                for row in f:
                    assert all(a <= b for a, b in zip(row, row[1:]))
                # columns strictly increase top to bottom
                for r in range(1, len(nu)):
                    for c in range(lam_p[r], nu[r]):
                        if c >= lam_p[r - 1]:
                            assert f[r - 1][c - lam_p[r - 1]] < f[r][c - lam_p[r]]
                # content is mu
                flat = list(itertools.chain.from_iterable(f))
                assert tuple(
                    flat.count(v) for v in range(1, len(mu) + 1)
                ) == mu
                # reading word is a lattice word
                seen = [0] * (len(mu) + 1)
                for v in self._reading_word(f):
                    seen[v] += 1
                    assert v == 1 or seen[v] <= seen[v - 1]


class TestMultiply:
    def test_pieri_in_small_grassmannian(self):
        prod = multiply(sigma(C13, 1, 0), sigma(C13, 1, 0))
        assert prod.terms == {(2, 0): 1, (1, 1): 1}

    def test_hyperplane_times_point_vanishes(self):
        assert not multiply(sigma(C26, 1, 1, 1), sigma(C26, 4, 0, 0))

    def test_degree_overflow_vanishes(self):
        assert not multiply(sigma(C13, 2, 2), sigma(C13, 1, 0))

    def test_identity_element(self):
        for parts in box_partitions(C26):
            x = schubert_class(C26, parts)
            assert multiply(x, fundamental_class(C26)) == x

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            multiply(sigma(C13, 1, 0), sigma(C26, 1, 0, 0))

    def test_grading(self):
        rng = random.Random(11)
        contexts = [GrassmannContext(k, n) for n in range(2, 9) for k in range(n)]
        for _ in range(200):
            ctx = rng.choice(contexts)
            parts = box_partitions(ctx)
            a, b = rng.choice(parts), rng.choice(parts)
            prod = multiply(schubert_class(ctx, a), schubert_class(ctx, b))
            if sum(a) + sum(b) > ctx.dim:
                assert not prod
            for nu in prod.terms:
                assert sum(nu) == sum(a) + sum(b)

    def test_commutative(self):
        rng = random.Random(13)
        contexts = [GrassmannContext(k, n) for n in range(2, 9) for k in range(n)]
        for _ in range(200):
            ctx = rng.choice(contexts)
            parts = box_partitions(ctx)
            x = CycleClass(ctx, {rng.choice(parts): rng.randint(1, 3) for _ in range(2)})
            y = CycleClass(ctx, {rng.choice(parts): rng.randint(1, 3) for _ in range(2)})
            assert multiply(x, y) == multiply(y, x)

    def test_associative(self):
        rng = random.Random(17)
        contexts = [GrassmannContext(k, n) for n in range(2, 7) for k in range(n)]
        for _ in range(120):
            ctx = rng.choice(contexts)
            parts = box_partitions(ctx)
            a, b, c = (schubert_class(ctx, rng.choice(parts)) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_concurrent_multiply_is_deterministic(self):
        from concurrent.futures import ThreadPoolExecutor

        parts = box_partitions(C26)
        jobs = [(a, b) for a in parts[:20] for b in parts[:20]]
        expected = [multiply(sigma(C26, *a), sigma(C26, *b)) for a, b in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(
                pool.map(lambda ab: multiply(sigma(C26, *ab[0]), sigma(C26, *ab[1])), jobs)
            )
        assert got == expected

    def test_effectivity_closure(self):
        rng = random.Random(19)
        contexts = [GrassmannContext(k, n) for n in range(2, 9) for k in range(n)]
        for _ in range(200):
            ctx = rng.choice(contexts)
            parts = box_partitions(ctx)
            x = CycleClass(ctx, {rng.choice(parts): rng.randint(1, 5) for _ in range(2)})
            y = CycleClass(ctx, {rng.choice(parts): rng.randint(1, 5) for _ in range(2)})
            assert x.is_effective() and y.is_effective()
            assert all(c > 0 for c in multiply(x, y).terms.values())


class TestVanishingCriterion:
    def test_hyperplane_point_pair(self):
        i_h, i_p = special_symbols(C26)
        assert product_vanishes_fast(C26, i_h, i_p)

    def test_never_vanishes_against_fundamental_symbol(self):
        # the symbol of the fundamental class has the full box as diagram
        from schubcalc import all_symbols, dim_partition_to_symbol

        i_max = dim_partition_to_symbol(C26, (4, 4, 4))
        for sym in all_symbols(C26):
            assert not product_vanishes_fast(C26, sym, i_max)

    def test_self_dual_symbol(self):
        sym = (3, 4, 5)
        lam = symbol_to_dim_partition(C26, sym)
        a = dual_partition(C26, lam)
        expected_zero = not multiply(schubert_class(C26, a), schubert_class(C26, a))
        assert product_vanishes_fast(C26, sym, sym) == expected_zero

    @pytest.mark.parametrize(
        "si, sj, message",
        [
            ((1, 2), (1, 2, 3), "symbol (1, 2) has 2 indices, expected 3 for G(2,6)"),
            ((1, 2, 3), (3, 2, 1), "symbol (3, 2, 1) is not strictly increasing"),
            ((1, 2, 3), (1, 2, 8), "symbol (1, 2, 8) is out of range [1, 7] for G(2,6)"),
            ((0, 2, 3), (1, 2), "symbol (0, 2, 3) is out of range [1, 7] for G(2,6)"),
            ((1, 2, 3), (1.5, 2, 3), "symbol (1.5, 2, 3) has a non-integer part 1.5"),
        ],
    )
    def test_invalid_symbol_messages(self, si, sj, message):
        """Either symbol is checked, the first before the second."""
        with pytest.raises(ValueError) as err:
            product_vanishes_fast(C26, si, sj)
        assert str(err.value) == message

    def test_partition_form_matches_symbol_form(self):
        from schubcalc import all_symbols

        for ctx in [C13, C26, GrassmannContext(2, 5)]:
            for si in all_symbols(ctx):
                a = dual_partition(ctx, symbol_to_dim_partition(ctx, si))
                for sj in all_symbols(ctx):
                    b = dual_partition(ctx, symbol_to_dim_partition(ctx, sj))
                    assert product_vanishes_fast(ctx, si, sj) == pair_vanishes(ctx, a, b)


class TestLrVanishing:
    """The LR rule's vanishing verdict: one tableau inside the box, no product built."""

    def test_matches_product_and_bruhat_test_through_n7(self):
        for n in range(1, 8):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                for a, b in combinations_with_replacement(box_partitions(ctx), 2):
                    zero = not multiply(schubert_class(ctx, a), schubert_class(ctx, b))
                    assert _lr_vanishes(ctx, a, b) == _lr_vanishes(ctx, b, a) == zero, (ctx, a, b)
                    assert pair_vanishes(ctx, a, b) == zero, (ctx, a, b)

    def test_existence_stops_at_the_first_strip(self):
        # the one letter of b has 2**30 horizontal strips on the staircase a;
        # the first one, all 30 cells in the top row, already fits the box.
        # The walk itself is asked: _lr_vanishes answers this pair (rows
        # added, a_1 + b_1 = 60 = cols) without a walk.
        ctx = GrassmannContext(30, 90)
        a = tuple(range(30, -1, -1))
        b = (30,) + (0,) * 30
        chain = next(_lr_walk(a, b, (ctx.cols,) * ctx.rows))
        assert chain == (a, (60,) + a[1:])
        assert not _lr_vanishes(ctx, a, b)

    def test_existence_reaches_a_thousand_letter_column(self):
        # the content 1^1000 puts each letter one row below the last, so the
        # first chain is 1000 strips deep: far past the recursion limit, which
        # a walk on its own stack does not meet
        col = (1,) * 1000
        chain = next(_lr_walk((), col, col))
        assert chain == tuple(col[:i] + (0,) * (1000 - i) for i in range(1001))

    def test_deep_hook_pair_is_walked(self):
        # this hook pair of weight n+2 in G(1199, 1201) fits neither shortcut,
        # so the walk places 600 letters down 1200 rows to find it nonzero
        ctx = GrassmannContext(1199, 1201)
        a = (2,) + (1,) * 600 + (0,) * 599
        b = (2,) + (1,) * 599 + (0,) * 600
        assert a[0] + b[0] > ctx.cols and a.count(0) + b.count(0) < ctx.rows
        assert _lr_vanishes(ctx, a, b) is False
        assert pair_vanishes(ctx, a, b) is False

    def test_shortcut_witnesses_are_lr_tableaux_through_n8(self):
        # _lr_vanishes answers "nonzero" without a walk when a_1 + b_1 <= cols
        # (rows added) or l(a) + l(b) <= rows (rows merged); each witness nu
        # lies in the box and carries exactly one LR tableau.  Failing both, a
        # pair of weight n+1 in a box of at least two rows and two columns
        # is answered by nu = (n-k, 2, 1^(k-1)) unless a factor is 1^(k+1):
        # that nu lies in the box too, and carries at least one.
        admitted = hooks = 0
        for n in range(1, 9):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                full = (1,) * ctx.rows
                for a, b in combinations_with_replacement(box_partitions(ctx), 2):
                    witnesses = []
                    if a[0] + b[0] <= ctx.cols:
                        witnesses.append(tuple(map(add, a, b)))
                    if a.count(0) + b.count(0) >= ctx.rows:
                        merged = sorted(a + b, reverse=True)
                        assert not any(merged[ctx.rows:])
                        witnesses.append(tuple(merged[:ctx.rows]))
                    for nu in witnesses:
                        assert nu[0] <= ctx.cols and len(nu) == ctx.rows, (ctx, a, b, nu)
                        assert lr_coefficient(a, b, nu) == 1, (ctx, a, b, nu)
                    admitted += bool(witnesses)
                    if (not witnesses and ctx.rows > 1 and ctx.cols > 1
                            and sum(a) + sum(b) == n + 1 and full not in (a, b)):
                        nu = (ctx.cols, 2) + (1,) * (k - 1)
                        assert len(nu) == ctx.rows and nu[1] <= ctx.cols, (ctx, a, b, nu)
                        assert lr_coefficient(a, b, nu) >= 1, (ctx, a, b, nu)
                        hooks += 1
        assert admitted > 5000
        assert hooks > 100

    def test_hook_witness_is_an_lr_tableau(self):
        # every shell pair of an interior G(k, n), n <= 16, that fits neither
        # the rows-added nor the rows-merged witness has weight n+1; the
        # third witness nu = (n-k, 2, 1^(k-1)) carries an LR tableau of it
        # exactly when neither factor is the full column, and _lr_vanishes
        # calls the pair zero exactly for Theorem md's pair
        checked = 0
        for n in range(3, 17):
            for k in range(1, n - 1):
                ctx = GrassmannContext(k, n)
                full = (1,) * ctx.rows
                nu = (ctx.cols, 2) + (1,) * (k - 1)
                for w in range((n + 1) // 2 + 1):
                    layer = box_layer(ctx, n + 1 - w)
                    for a in box_layer(ctx, w):
                        for b in layer:
                            if 2 * w == n + 1 and b < a:
                                continue
                            if a[0] + b[0] <= ctx.cols or a.count(0) + b.count(0) >= ctx.rows:
                                continue
                            md = full in (a, b)
                            c = lr_coefficient(a, b, nu)
                            assert (c == 0) if md else (c >= 1), (ctx, a, b, c)
                            assert _lr_vanishes(ctx, a, b) is _lr_vanishes(ctx, b, a) is md
                            checked += 1
        assert checked == 1813

    def test_edge_boxes_vanish_at_weight_n_plus_1(self):
        # with one row or one column every pair of weight n+1 vanishes, so the
        # hook witness, whose nu needs two of each, must not answer there
        for n in range(1, 13):
            for k in {0, n - 1}:
                ctx = GrassmannContext(k, n)
                pairs = 0
                for w in range((n + 1) // 2 + 1):
                    for a in box_layer(ctx, w):
                        for b in box_layer(ctx, n + 1 - w):
                            assert _lr_vanishes(ctx, a, b) is True, (ctx, a, b)
                            assert _lr_vanishes(ctx, b, a) is True, (ctx, a, b)
                            assert pair_vanishes(ctx, a, b), (ctx, a, b)
                            pairs += 1
                assert pairs > 0, ctx

    def test_tableau_route_never_calls_the_containment_predicate(self, monkeypatch):
        import schubcalc.chow as chow
        import schubcalc.core as core

        # the expected values come from the Schur oracle and the Bruhat test,
        # computed before the containment predicate is broken
        cases = []
        for a, b in combinations_with_replacement(box_partitions(C26), 2):
            expansion = lr_oracle(a, b, C26.rows + 1)
            terms = {
                nu + (0,) * (C26.rows - len(nu)): c
                for nu, c in expansion.items()
                if len(nu) <= C26.rows and (not nu or nu[0] <= C26.cols)
            }
            coefficients = {nu: terms.get(nu, 0) for nu in box_layer(C26, sum(a) + sum(b))}
            cases.append((a, b, terms, coefficients, pair_vanishes(C26, a, b)))

        def broken(*args):
            raise AssertionError("the tableau route called _not_contained")

        monkeypatch.setattr(core, "_not_contained", broken)
        monkeypatch.setattr(chow, "_not_contained", broken)
        with pytest.raises(AssertionError):
            pair_vanishes(C26, (1, 1, 1), (4, 0, 0))
        for a, b, terms, coefficients, zero in cases:
            assert multiply(sigma(C26, *a), sigma(C26, *b)).terms == terms, (a, b)
            for nu, c in coefficients.items():
                assert lr_coefficient(a, b, nu) == c, (a, b, nu)
            assert _lr_vanishes(C26, a, b) == zero, (a, b)


class TestPoincarePairing:
    def test_dual_pairs(self):
        for ctx in [C13, C26, GrassmannContext(2, 5)]:
            for a in box_partitions(ctx):
                b = dual_partition(ctx, a)
                assert poincare_pair(schubert_class(ctx, a), schubert_class(ctx, b)) == 1

    def test_non_dual_complementary_pairs(self):
        for a in box_partitions(C13):
            for b in box_partitions(C13):
                if sum(a) + sum(b) != C13.dim:
                    continue
                expected = 1 if b == dual_partition(C13, a) else 0
                assert poincare_pair(schubert_class(C13, a), schubert_class(C13, b)) == expected

    def test_fundamental_vs_full_box(self):
        full = schubert_class(C26, (4, 4, 4))
        assert poincare_pair(fundamental_class(C26), full) == 1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poincare_pair(sigma(C26, 1, 0, 0), sigma(C26, 1, 0, 0))
