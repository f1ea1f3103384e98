"""Conversions, duality, Bruhat order and rendering."""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from schubcalc import (
    CycleClass,
    GrassmannContext,
    MorphismQuery,
    all_symbols,
    box_layer,
    box_partitions,
    bruhat_leq,
    check_partition,
    check_symbol,
    classify_table,
    dim_partition_to_symbol,
    dual_partition,
    dual_symbol,
    enumerate_zero_pairs,
    has_mdpair_of_type,
    lr_coefficient,
    lr_fillings,
    lr_oracle,
    normalize_partition,
    pair_vanishes,
    partition_contains,
    render_diagram,
    schubert_class,
    special_symbols,
    symbol_to_dim_partition,
)

C13 = GrassmannContext(1, 3)
C26 = GrassmannContext(2, 6)


def small_contexts(max_n):
    return [GrassmannContext(k, n) for n in range(1, max_n + 1) for k in range(n)]


class TestContext:
    def test_derived_quantities(self):
        assert (C26.rows, C26.cols, C26.dim) == (3, 4, 12)

    @pytest.mark.parametrize("k,n", [(-1, 4), (4, 4), (5, 4), (0, 0)])
    def test_invalid(self, k, n):
        with pytest.raises(ValueError):
            GrassmannContext(k, n)


class TestIntegerParts:
    """Parts must be integers: floats and strings are rejected, not truncated or parsed."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lr_coefficient((1.5,), (1,), (2,)),
            lambda: lr_coefficient((1,), ("1",), (2,)),
            lambda: list(lr_fillings((1,), (1,), (2.0,))),
            lambda: schubert_class(C13, (1.9, 0)),
            lambda: lr_oracle((2.7,), (1,), 2),
            lambda: lr_oracle(("2",), (1,), 2),
            lambda: pair_vanishes(C13, ("2", 0), (2.2, 0)),
            lambda: pair_vanishes(C13, (2, 0), (2.2, 0)),
            lambda: check_partition(C13, (1, 0.0)),
            lambda: normalize_partition(C13, ("1",)),
            lambda: check_symbol(C13, (1, 2.5)),
            lambda: dual_symbol(C13, ("1", "2")),
            lambda: has_mdpair_of_type(C13, (1.5, 2.5)),
            lambda: has_mdpair_of_type(C13, ("1", 3)),
            lambda: GrassmannContext(1.5, 3),
            lambda: GrassmannContext(1, "3"),
            lambda: MorphismQuery(1.5, 1, 4),
            lambda: MorphismQuery(1, 1, "4"),
            lambda: CycleClass(C13, {(1, 0): 1.5}),
            lambda: CycleClass(C13, {(1, 0): "2"}),
            lambda: lr_oracle((1,), (1,), 2.9),
            lambda: enumerate_zero_pairs(C13, 7.0),
            lambda: enumerate_zero_pairs(C13, "7"),
            lambda: classify_table(5.0),
            lambda: classify_table("5"),
            lambda: box_layer(GrassmannContext(2, 5), 2.5),
            lambda: box_layer(GrassmannContext(2, 5), "3"),
        ],
        ids=[
            "lr_coefficient-float", "lr_coefficient-str", "lr_fillings-float",
            "schubert_class-float", "lr_oracle-float", "lr_oracle-str",
            "pair_vanishes-str", "pair_vanishes-float", "check_partition-float",
            "normalize_partition-str", "check_symbol-float", "dual_symbol-str",
            "has_mdpair_of_type-float", "has_mdpair_of_type-str", "context-float",
            "context-str", "query-float", "query-str", "coefficient-float",
            "coefficient-str", "num_vars-float", "zero_pair_bound-float",
            "zero_pair_bound-str", "table_n-float", "table_n-str",
            "box_layer-float", "box_layer-str",
        ],
    )
    def test_non_integer_part_rejected(self, call):
        with pytest.raises(ValueError, match="non-integer part"):
            call()

    def test_message_names_the_value(self):
        with pytest.raises(ValueError, match=r"1\.9"):
            check_partition(C13, (1.9, 0))
        with pytest.raises(ValueError, match="'2'"):
            check_symbol(C13, ("2", 3))

    def test_integer_likes_still_accepted(self):
        assert check_partition(C13, [True, False]) == (1, 0)
        assert normalize_partition(C13, iter([2])) == (2, 0)
        assert lr_coefficient([1], (1, 0), (1, 1)) == 1


class TestConversions:
    @pytest.mark.parametrize(
        "symbol,parts",
        [
            ((4, 5, 6), (3, 3, 3)),
            ((1, 6, 7), (4, 4, 0)),
            ((1, 2, 3), (0, 0, 0)),
            ((5, 6, 7), (4, 4, 4)),
        ],
    )
    def test_symbol_to_dim_partition(self, symbol, parts):
        assert symbol_to_dim_partition(C26, symbol) == parts
        assert dim_partition_to_symbol(C26, parts) == symbol

    def test_smallest_symbol_is_point(self):
        assert sum(symbol_to_dim_partition(C26, (1, 2, 3))) == 0

    def test_largest_symbol_is_whole_space(self):
        assert sum(symbol_to_dim_partition(C26, (5, 6, 7))) == C26.dim

    def test_round_trip_everywhere(self):
        for ctx in small_contexts(10):
            for sym in all_symbols(ctx):
                assert dim_partition_to_symbol(ctx, symbol_to_dim_partition(ctx, sym)) == sym
            for p in box_partitions(ctx):
                assert symbol_to_dim_partition(ctx, dim_partition_to_symbol(ctx, p)) == p

    def test_rejects_bad_symbols(self):
        for bad in [(4, 4, 6), (0, 2, 3), (5, 6, 8), (4, 5), (6, 5, 4)]:
            with pytest.raises(ValueError):
                symbol_to_dim_partition(C26, bad)

    def test_rejects_bad_partitions(self):
        for bad in [(5, 0, 0), (1, 2, 3), (3, 3), (3, 3, -1)]:
            with pytest.raises(ValueError):
                dim_partition_to_symbol(C26, bad)

    def test_normalize_partition(self):
        assert normalize_partition(C26, (3,)) == (3, 0, 0)
        assert normalize_partition(C26, (3, 3, 3, 0, 0)) == (3, 3, 3)
        with pytest.raises(ValueError):
            normalize_partition(C26, (3, 3, 3, 1))


class TestDuality:
    def test_dual_symbol_values(self):
        # n+2-i applied to I_H and I_p; both stay inside [1, n+1]
        assert dual_symbol(C26, (4, 5, 6)) == (2, 3, 4)
        assert dual_symbol(C26, (1, 6, 7)) == (1, 2, 7)

    def test_dual_partition_values(self):
        assert dual_partition(C26, (3, 3, 3)) == (1, 1, 1)
        assert dual_partition(C26, (4, 4, 0)) == (4, 0, 0)
        assert dual_partition(C26, (0, 0, 0)) == (4, 4, 4)

    def test_involutions_and_weight(self):
        for ctx in small_contexts(10):
            for sym in all_symbols(ctx):
                assert dual_symbol(ctx, dual_symbol(ctx, sym)) == sym
            for p in box_partitions(ctx):
                assert dual_partition(ctx, dual_partition(ctx, p)) == p
                assert sum(p) + sum(dual_partition(ctx, p)) == ctx.dim

    def test_duality_coherence(self):
        # diagram of the dual symbol == dual of the diagram
        for ctx in small_contexts(10):
            for sym in all_symbols(ctx):
                assert symbol_to_dim_partition(ctx, dual_symbol(ctx, sym)) == dual_partition(
                    ctx, symbol_to_dim_partition(ctx, sym)
                )


class TestBruhat:
    def test_reflexive(self):
        assert bruhat_leq(C26, (4, 5, 6), (4, 5, 6))

    def test_known_incomparable(self):
        i_h, i_p = special_symbols(C26)
        assert not bruhat_leq(C26, dual_symbol(C26, i_h), i_p)
        assert not bruhat_leq(C26, dual_symbol(C26, i_p), i_h)
        assert not bruhat_leq(C26, (3, 4, 5), (1, 6, 7))

    def test_minimum_element(self):
        for sym in all_symbols(C26):
            assert bruhat_leq(C26, (1, 2, 3), sym)

    def test_matches_diagram_containment(self):
        for ctx in small_contexts(8):
            syms = all_symbols(ctx)
            diags = {s: symbol_to_dim_partition(ctx, s) for s in syms}
            for a in syms:
                for b in syms:
                    assert bruhat_leq(ctx, a, b) == partition_contains(diags[b], diags[a])

    def test_containment_of_a_longer_inner(self):
        assert not partition_contains((2, 1), (1, 1, 1))
        assert partition_contains((2, 1), (1, 1, 0, 0))

    def test_partial_order_laws(self):
        rng = random.Random(20260811)
        contexts = [c for c in small_contexts(8) if c.n >= 2]
        for _ in range(1500):
            ctx = rng.choice(contexts)
            syms = all_symbols(ctx)
            a, b, c = (rng.choice(syms) for _ in range(3))
            if bruhat_leq(ctx, a, b) and bruhat_leq(ctx, b, a):
                assert a == b
            if bruhat_leq(ctx, a, b) and bruhat_leq(ctx, b, c):
                assert bruhat_leq(ctx, a, c)

    def test_anti_monotone_duality(self):
        for ctx in small_contexts(8):
            syms = all_symbols(ctx)
            for a in syms:
                for b in syms:
                    assert bruhat_leq(ctx, a, b) == bruhat_leq(
                        ctx, dual_symbol(ctx, b), dual_symbol(ctx, a)
                    )

    def test_context_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bruhat_leq(C26, (1, 2), (4, 5, 6))
        with pytest.raises(ValueError):
            bruhat_leq(C26, (4, 5, 6), (5, 6, 8))


class TestSpecialSymbols:
    def test_known_contexts(self):
        assert special_symbols(C26) == ((4, 5, 6), (1, 6, 7))
        assert special_symbols(GrassmannContext(1, 3)) == ((2, 3), (1, 4))
        for n in range(1, 8):
            assert special_symbols(GrassmannContext(0, n)) == ((n,), (1,))

    def test_always_valid(self):
        for ctx in small_contexts(10):
            i_h, i_p = special_symbols(ctx)
            check_symbol(ctx, i_h)
            check_symbol(ctx, i_p)


class TestBoxPartitions:
    def test_counts(self):
        for ctx in small_contexts(10):
            parts = box_partitions(ctx)
            assert len(parts) == comb(ctx.n + 1, ctx.rows)
            assert len(set(parts)) == len(parts)
            assert list(parts) == sorted(parts, key=lambda p: (sum(p), p))
            for p in parts:
                check_partition(ctx, p)


class TestBoxLayer:
    @staticmethod
    def brute_box(ctx):
        """Every weakly decreasing (k+1)-tuple with entries in [0, n-k]."""
        return [
            tuple(sorted(c, reverse=True))
            for c in combinations_with_replacement(range(ctx.cols + 1), ctx.rows)
        ]

    @classmethod
    def brute_layers(cls, ctx, hi):
        """The brute-force box bucketed by weight 0, ..., hi, each bucket sorted."""
        layers = [[] for _ in range(hi + 1)]
        for p in cls.brute_box(ctx):
            if sum(p) <= hi:
                layers[sum(p)].append(p)
        return [tuple(sorted(layer)) for layer in layers]

    def test_walk_matches_brute_force_in_every_window(self):
        from schubcalc.core import _box_layers

        for ctx in small_contexts(9):
            top = ctx.dim + 2
            brute = self.brute_layers(ctx, top)
            for lo in range(top + 1):  # lo = hi, hi > dim and lo > dim included
                for hi in range(lo, top + 1):
                    assert _box_layers(ctx, lo, hi) == brute[lo:hi + 1], (ctx, lo, hi)

    @pytest.mark.parametrize("k", [0, 999])
    def test_walk_sizes_on_a_single_row_and_a_single_column(self, k):
        from schubcalc.core import _box_layers, _layer_sizes

        ctx = GrassmannContext(k, 1000)
        hi = ctx.dim + 2
        assert [len(layer) for layer in _box_layers(ctx, 0, hi)] == _layer_sizes(ctx, hi)

    def test_matches_weight_filter_of_full_box(self):
        for ctx in small_contexts(14):
            layers = self.brute_layers(ctx, ctx.dim)
            assert [box_layer(ctx, w) for w in range(ctx.dim + 1)] == layers, ctx

    def test_sizes_sum_to_binomial(self):
        for ctx in small_contexts(12):
            sizes = [len(box_layer(ctx, w)) for w in range(ctx.dim + 1)]
            assert sum(sizes) == comb(ctx.n + 1, ctx.rows)
            assert sizes == sizes[::-1]  # duality pairs weight w with dim - w

    def test_out_of_range_weights_are_empty(self):
        assert box_layer(C26, -1) == ()
        assert box_layer(C26, C26.dim + 1) == ()

    def test_tall_box_is_built_without_recursion(self):
        ctx = GrassmannContext(2999, 3000)  # 3000 rows, one column
        for w in (0, 1, 1500, 3000):
            assert box_layer(ctx, w) == ((1,) * w + (0,) * (3000 - w),)

    def test_layer_sizes_count_the_layers(self):
        from schubcalc.core import _layer_sizes

        for ctx in small_contexts(12):
            sizes = _layer_sizes(ctx, 2 * ctx.dim)
            assert sizes[:ctx.dim + 1] == [len(box_layer(ctx, w)) for w in range(ctx.dim + 1)]
            assert sizes[ctx.dim + 1:] == [0] * ctx.dim, ctx
            assert _layer_sizes(ctx, ctx.n + 1) == sizes[:ctx.n + 2], ctx

    def test_box_partitions_is_their_concatenation(self):
        for ctx in small_contexts(14):
            full = tuple(p for layer in self.brute_layers(ctx, ctx.dim) for p in layer)
            assert box_partitions(ctx) == full, ctx  # (weight, parts) order
            assert len(full) == comb(ctx.n + 1, ctx.rows)


class TestRender:
    def test_hyperplane_diagram(self):
        assert render_diagram(C26, (3, 3, 3)) == "# # # .\n# # # .\n# # # .\n"

    def test_empty_diagram(self):
        assert render_diagram(C26, (0, 0, 0)) == ". . . .\n. . . .\n. . . .\n"

    def test_overlay(self):
        out = render_diagram(C26, (4, 4, 0), overlay=(1, 1, 1))
        assert out == "* # # #\n* # # #\n* . . .\n"
        # an overlay longer than a nonzero row covers it and runs on into the empty cells
        out = render_diagram(C26, (2, 2, 0), overlay=(3, 1, 0))
        assert out == "* * * .\n* # . .\n. . . .\n"

    def test_no_trailing_whitespace(self):
        for parts in box_partitions(C26):
            for line in render_diagram(C26, parts).splitlines():
                assert line == line.rstrip()
                assert len(line) == 2 * C26.cols - 1

    def test_overlay_must_fit(self):
        with pytest.raises(ValueError):
            render_diagram(C26, (3, 3, 3), overlay=(5, 0, 0))

    def test_box_over_a_million_cells_refused(self):
        with pytest.raises(ValueError, match="over the size limit of 1000000"):
            render_diagram(GrassmannContext(0, 1_000_001), (1,))
        line = render_diagram(GrassmannContext(0, 1_000_000), (1,))
        assert line.startswith("# . .") and len(line) == 2 * 1_000_000
