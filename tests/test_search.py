"""Zero-pair enumeration, effective good divisibility and claim verification."""

from itertools import combinations_with_replacement

import pytest

from schubcalc import (
    GrassmannContext,
    box_partitions,
    compute_egd,
    dual_partition,
    enumerate_zero_pairs,
    has_mdpair_of_type,
    md_pairs,
    multiply,
    partition_contains,
    schubert_class,
    search_report,
    special_symbols,
    symbol_to_dim_partition,
    verify_egd,
    verify_prop_comp,
    verify_thm_md,
)

C13 = GrassmannContext(1, 3)
C26 = GrassmannContext(2, 6)


def brute_zero_pairs(ctx, max_sum):
    """Reference scan through full LR multiplication."""
    found = []
    for a, b in combinations_with_replacement(box_partitions(ctx), 2):
        s = sum(a) + sum(b)
        if s <= max_sum and not multiply(schubert_class(ctx, a), schubert_class(ctx, b)):
            found.append((a, b, s) if a <= b else (b, a, s))
    found.sort(key=lambda t: (t[2], t[0], t[1]))
    return found


class TestEnumerateZeroPairs:
    def test_unique_pair_at_critical_codim(self):
        assert enumerate_zero_pairs(C26, 7) == [((1, 1, 1), (4, 0, 0), 7)]

    def test_low_codim_empty(self):
        assert enumerate_zero_pairs(C26, 2) == []

    def test_matches_brute_force(self):
        for ctx, max_sum in [(C13, 4), (C13, 5), (C13, 8), (C26, 8)]:
            assert enumerate_zero_pairs(ctx, max_sum) == brute_zero_pairs(ctx, max_sum)

    def test_cross_validate_agrees(self):
        assert enumerate_zero_pairs(C26, 7, cross_validate=True) == enumerate_zero_pairs(C26, 7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_zero_pairs(C26, 2 * C26.dim + 1)


class TestEgd:
    @pytest.mark.parametrize("k,n", [(2, 6), (0, 4), (1, 4), (3, 4), (0, 1)])
    def test_equals_ambient_dimension(self, k, n):
        assert compute_egd(GrassmannContext(k, n)) == n

    def test_matches_brute_force_definition(self):
        ctx = GrassmannContext(1, 4)
        zero_sums = [s for _, _, s in brute_zero_pairs(ctx, 2 * ctx.dim)]
        assert compute_egd(ctx) == min(zero_sums) - 1


class TestMdPairs:
    def test_interior_grassmannians(self):
        pairs = md_pairs(C26)
        assert [(p.a, p.b) for p in pairs] == [((1, 1, 1), (4, 0, 0))]
        assert pairs[0].pair_type == (3, 4)
        pairs = md_pairs(GrassmannContext(1, 6))
        assert [(p.a, p.b) for p in pairs] == [((1, 1), (5, 0))]
        assert pairs[0].pair_type == (2, 5)

    def test_matches_special_schubert_classes(self):
        for n in range(3, 11):
            for k in range(1, n - 1):
                ctx = GrassmannContext(k, n)
                i_h, i_p = special_symbols(ctx)
                expected = tuple(
                    sorted(
                        [
                            dual_partition(ctx, symbol_to_dim_partition(ctx, i_h)),
                            dual_partition(ctx, symbol_to_dim_partition(ctx, i_p)),
                        ]
                    )
                )
                pairs = md_pairs(ctx)
                assert len(pairs) == 1
                assert (pairs[0].a, pairs[0].b) == expected
                assert pairs[0].pair_type == tuple(sorted((k + 1, n - k)))

    def test_projective_space_has_many(self):
        # in P^3 every complementary-ish pair at codim sum 4 is disjoint
        pairs = md_pairs(GrassmannContext(0, 3))
        assert [(p.a, p.b) for p in pairs] == [((1,), (3,)), ((2,), (2,))]

    def test_duality_symmetry_of_types(self):
        for n in range(3, 9):
            for k in range(1, n - 1):
                t1 = {p.pair_type for p in md_pairs(GrassmannContext(k, n))}
                t2 = {p.pair_type for p in md_pairs(GrassmannContext(n - k - 1, n))}
                assert t1 == t2


class TestHasMdPairOfType:
    def test_examples(self):
        assert not has_mdpair_of_type(GrassmannContext(1, 6), (3, 4))
        assert has_mdpair_of_type(C26, (3, 4))
        assert has_mdpair_of_type(C26, (4, 3))
        assert not has_mdpair_of_type(C26, (1, 2))  # 1+2 != egd+1


class TestSearchReport:
    def test_json_schema(self):
        report = search_report(C26)
        data = report.to_json_dict()
        assert set(data) == {"k", "n", "scanned", "egd", "zero_pairs", "md_pairs", "elapsed_ms"}
        assert data["egd"] == 6
        assert data["zero_pairs"] == [{"a": [1, 1, 1], "b": [4, 0, 0], "codim_sum": 7}]
        assert data["md_pairs"][0]["type"] == [3, 4]
        assert data["scanned"] > 0

    def test_deterministic_modulo_elapsed(self):
        a = search_report(C26).to_json_dict()
        b = search_report(C26).to_json_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b


class TestMdSearchAgainstBruteForce:
    """egd, md-pairs and the search report rebuilt from the whole box by containment."""

    def test_every_context_up_to_n9(self):
        for n in range(1, 10):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                pairs = [
                    (a, b, sum(a) + sum(b))
                    for a, b in combinations_with_replacement(box_partitions(ctx), 2)
                ]
                zero = sorted(
                    ((a, b, s) if a <= b else (b, a, s)
                     for a, b, s in pairs
                     if not partition_contains(dual_partition(ctx, b), a)),
                    key=lambda t: (t[2], t[0], t[1]),
                )
                egd = zero[0][2] - 1
                md = [(a, b) for a, b, s in zero if s == egd + 1]
                report = search_report(ctx)
                assert compute_egd(ctx) == report.computed_egd == egd, ctx
                assert [(p.a, p.b) for p in md_pairs(ctx)] == md, ctx
                assert [(p.a, p.b) for p in report.md_pairs] == md, ctx
                assert list(report.zero_pairs) == [t for t in zero if t[2] <= egd + 1], ctx
                assert report.scanned_pair_count == sum(1 for t in pairs if t[2] <= egd + 1), ctx


class TestCrossValidatedReport:
    def test_checks_every_scanned_pair_through_lr(self, monkeypatch):
        import schubcalc.search as search

        calls = [0]
        real_multiply = search.multiply

        def counting_multiply(*args):
            calls[0] += 1
            return real_multiply(*args)

        monkeypatch.setattr(search, "multiply", counting_multiply)
        for n in range(1, 7):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                calls[0] = 0
                plain = search_report(ctx)
                assert calls[0] == 0, ctx
                checked = search_report(ctx, cross_validate=True)
                assert calls[0] == checked.scanned_pair_count, ctx
                a, b = plain.to_json_dict(), checked.to_json_dict()
                a.pop("elapsed_ms")
                b.pop("elapsed_ms")
                assert a == b, ctx


class TestVerifyThmMd:
    @pytest.mark.parametrize("k,n", [(2, 6), (2, 5), (1, 3), (3, 8)])
    def test_passes(self, k, n):
        report = verify_thm_md(GrassmannContext(k, n))
        assert report.passed
        assert report.counterexamples == ()
        assert report.hypothesis_count > 0

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            verify_thm_md(GrassmannContext(0, 4))
        with pytest.raises(ValueError):
            verify_thm_md(GrassmannContext(3, 4))


class TestVerifyPropComp:
    def test_exceptional_pairs_in_g26(self):
        report = verify_prop_comp(C26)
        assert report.passed
        assert report.exceptional_pairs == (
            ((1, 1, 1), (4, 4, 0)),
            ((4, 0, 0), (3, 3, 3)),
        )

    def test_small_box(self):
        report = verify_prop_comp(C13)
        assert report.passed
        assert set(report.exceptional_pairs) == {((2, 0), (1, 1)), ((1, 1), (2, 0))}

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            verify_prop_comp(GrassmannContext(3, 4))

    def test_unexpected_incomparability_reported(self, monkeypatch):
        import schubcalc.search as search

        monkeypatch.setattr(search, "_not_contained", lambda *args: True)
        report = verify_prop_comp(C13)
        assert not report.passed
        kinds = {c["kind"] for c in report.counterexamples}
        assert kinds == {"incomparable-but-unexpected"}
        # every hypothesis but the two expected ones is a counterexample
        assert len(report.counterexamples) == report.hypothesis_count - 2
        assert len(report.exceptional_pairs) == report.hypothesis_count

    def test_missing_expected_pairs_reported_once(self, monkeypatch):
        import schubcalc.search as search

        monkeypatch.setattr(search, "_not_contained", lambda *args: False)
        report = verify_prop_comp(C13)
        assert not report.passed
        assert report.exceptional_pairs == ()
        assert report.counterexamples == (
            {"kind": "expected-pair-not-found", "lambda": [1, 1], "mu": [2, 0]},
            {"kind": "expected-pair-not-found", "lambda": [2, 0], "mu": [1, 1]},
        )

    def test_json_schema(self):
        data = verify_prop_comp(C13).to_json_dict()
        assert set(data) == {
            "claim",
            "k",
            "n",
            "status",
            "counterexamples",
            "hypothesis_count",
            "exceptional_pairs",
        }
        assert data["status"] == "pass"


class TestClaimCountsAgainstBruteForce:
    """Hypothesis spaces rebuilt from the whole box, without the scan kernel."""

    def test_interior_contexts_up_to_n9(self):
        for n in range(3, 10):
            for k in range(1, n - 1):
                ctx = GrassmannContext(k, n)
                parts = box_partitions(ctx)
                ordered = [
                    (lam, mu)
                    for lam in parts
                    for mu in parts
                    if sum(lam) + ctx.dim - sum(mu) <= n + 1
                ]
                incomparable = sorted(
                    (lam, mu) for lam, mu in ordered if not partition_contains(mu, lam)
                )
                unordered = sum(
                    1
                    for a, b in combinations_with_replacement(parts, 2)
                    if sum(a) + sum(b) <= n + 1
                )
                report = verify_prop_comp(ctx)
                assert report.hypothesis_count == len(ordered), ctx
                assert list(report.exceptional_pairs) == incomparable, ctx
                assert verify_thm_md(ctx).hypothesis_count == unordered, ctx


class TestVerifyEgd:
    def test_reports_certificate_space(self):
        report = verify_egd(GrassmannContext(0, 4))
        assert report.passed
        assert report.hypothesis_count > 0

    @pytest.mark.parametrize("k,n", [(0, 4), (1, 5), (2, 6), (3, 7)])
    def test_count_matches_search_report(self, k, n):
        ctx = GrassmannContext(k, n)
        assert verify_egd(ctx).hypothesis_count == search_report(ctx).scanned_pair_count


class TestShellOnly:
    """The searches read weight layers only; none builds the whole box."""

    @pytest.mark.parametrize("k,n", [(3, 9), (7, 15)])
    def test_no_search_calls_box_partitions(self, monkeypatch, k, n):
        import schubcalc.core as core
        import schubcalc.search as search

        def refuse(ctx):
            raise AssertionError(f"box_partitions({ctx}) called by a search")

        weights_read = set()

        def recording_layer(ctx, w):
            weights_read.add(w)
            return core.box_layer(ctx, w)

        monkeypatch.setattr(core, "box_partitions", refuse)
        monkeypatch.setattr(search, "box_partitions", refuse, raising=False)
        monkeypatch.setattr(search, "box_layer", recording_layer)
        md_pairs.cache_clear()
        ctx = GrassmannContext(k, n)
        expected = ((1,) * ctx.rows, (ctx.cols,) + (0,) * ctx.k)
        assert compute_egd(ctx) == n
        assert [(p.a, p.b) for p in md_pairs(ctx)] == [expected]
        assert enumerate_zero_pairs(ctx, n + 1) == [expected + (n + 1,)]
        assert verify_egd(ctx).passed
        assert verify_prop_comp(ctx).passed
        assert verify_thm_md(ctx).passed
        assert max(weights_read) == n + 1  # the shell, far below dim
