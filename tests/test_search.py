"""Zero-pair enumeration, effective good divisibility and claim verification."""

import re
import sys
from bisect import bisect_right
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from schubcalc import (
    GrassmannContext,
    box_partitions,
    classify_table,
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
        real_lr_vanishes = search._lr_vanishes

        def counting_lr_vanishes(*args):
            calls[0] += 1
            return real_lr_vanishes(*args)

        monkeypatch.setattr(search, "_lr_vanishes", counting_lr_vanishes)
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
                if 1 <= k <= n - 2:  # thm-md checks each pair of its shell once
                    calls[0] = 0
                    report = verify_thm_md(ctx)
                    assert calls[0] == report.hypothesis_count, ctx


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

    @pytest.mark.parametrize("k,n,hooks", [(2, 6, 6), (3, 8, 10), (9, 20, 55)])
    def test_walks_only_the_hook_pairs(self, monkeypatch, k, n, hooks):
        # the shell pairs that fit neither the rows-added nor the rows-merged
        # tableau are ``hooks`` hook pairs of weight n+1; the tableau of shape
        # (n-k, 2, 1^(k-1)) answers all of them but Theorem md's own pair,
        # which is the one pair walked
        import schubcalc.chow as chow
        import schubcalc.search as search

        ctx = GrassmannContext(k, n)
        asked, walked = [], []
        real_vanishes, real_walk = search._lr_vanishes, chow._lr_walk

        def recording_vanishes(ctx, a, b):
            if a[0] + b[0] > ctx.cols and a.count(0) + b.count(0) < ctx.rows:
                asked.append((a, b))
            return real_vanishes(ctx, a, b)

        def counting_walk(lam, mu, outer):
            walked.append((lam, mu))
            return real_walk(lam, mu, outer)

        monkeypatch.setattr(search, "_lr_vanishes", recording_vanishes)
        monkeypatch.setattr(chow, "_lr_walk", counting_walk)
        assert verify_thm_md(ctx).passed
        assert len(asked) == hooks
        assert len(walked) == 1
        for lam, mu in asked + walked:  # two hooks of total weight n+1
            assert sum(lam) + sum(mu) == n + 1
            for p in (lam, mu):
                assert sum(p) == p[0] + len(p) - p.count(0) - 1, p
        assert tuple(sorted(walked[0])) == search._md_pair(ctx)

    def test_lr_route_fault_is_reported_as_mismatches_only(self, monkeypatch):
        import schubcalc.search as search

        monkeypatch.setattr(search, "_lr_vanishes", lambda ctx, a, b: True)
        report = verify_thm_md(C13)
        assert not report.passed
        # the Bruhat test finds the one true zero pair; the LR stub calls every pair zero
        assert report.counterexamples
        assert {c["kind"] for c in report.counterexamples} == {"fast-vs-lr-mismatch"}
        assert len(report.counterexamples) == report.hypothesis_count - 1

    def test_bruhat_fault_adds_the_unexpected_shell_zeros(self, monkeypatch):
        import schubcalc.search as search

        TestVerifyPropComp.bypass_shell_memo(monkeypatch, search)
        monkeypatch.setattr(search, "_not_contained", lambda *args: True)
        report = verify_thm_md(C13)
        assert not report.passed
        kinds = Counter(c["kind"] for c in report.counterexamples)
        assert kinds == {
            "fast-vs-lr-mismatch": report.hypothesis_count - 1,
            "unexpected-zero-pair": report.hypothesis_count - 1,
        }
        unexpected = [
            (tuple(c["a"]), tuple(c["b"]))
            for c in report.counterexamples
            if c["kind"] == "unexpected-zero-pair"
        ]
        shell = [(a, b) for a, b, _ in search._shell_zeros(C13)]
        assert unexpected == [p for p in shell if p != search._md_pair(C13)]


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

    @staticmethod
    def bypass_shell_memo(monkeypatch, search):
        """Scan through the stubbed predicate without reading or filling ``_shell_zeros``."""
        monkeypatch.setattr(search, "_shell_zeros", search._shell_zeros.__wrapped__)

    def test_unexpected_incomparability_reported(self, monkeypatch):
        import schubcalc.search as search

        self.bypass_shell_memo(monkeypatch, search)
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

        self.bypass_shell_memo(monkeypatch, search)
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

        def recording_layers(ctx, lo, hi):
            weights_read.update(range(lo, hi + 1))
            return core._box_layers(ctx, lo, hi)

        monkeypatch.setattr(core, "box_partitions", refuse)
        monkeypatch.setattr(search, "box_partitions", refuse, raising=False)
        monkeypatch.setattr(search, "_box_layers", recording_layers)
        search._shell_zeros.cache_clear()
        ctx = GrassmannContext(k, n)
        expected = ((1,) * ctx.rows, (ctx.cols,) + (0,) * ctx.k)
        assert compute_egd(ctx) == n
        assert [(p.a, p.b) for p in md_pairs(ctx)] == [expected]
        assert enumerate_zero_pairs(ctx, n + 1) == [expected + (n + 1,)]
        assert verify_egd(ctx).passed
        assert verify_prop_comp(ctx).passed
        assert verify_thm_md(ctx).passed
        assert max(weights_read) == n + 1  # the shell, far below dim


class TestOneShellScan:
    """Every reader of the shell shares one memoized scan; counts need no layer."""

    def test_pair_count_of_whole_box_builds_no_layer(self, monkeypatch):
        import schubcalc.core as core
        import schubcalc.search as search

        def refuse(ctx, lo, hi):
            raise AssertionError(f"_box_layers({ctx}, {lo}, {hi}) built to count pairs")

        monkeypatch.setattr(core, "_box_layers", refuse)
        monkeypatch.setattr(search, "_box_layers", refuse)
        for n in range(1, 13):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                size = comb(n + 1, k + 1)
                assert search._pair_count(ctx, 2 * ctx.dim) == size * (size + 1) // 2, ctx

    def test_pair_count_matches_built_layers_at_every_bound(self):
        import schubcalc.search as search

        for n in range(1, 10):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                weights = sorted(sum(p) for p in box_partitions(ctx))
                for hi in range(2 * ctx.dim + 1):
                    # pairs i <= j of the weight-sorted box with weights[i] + weights[j] <= hi
                    built = sum(
                        max(0, bisect_right(weights, hi - w) - i) for i, w in enumerate(weights)
                    )
                    assert search._pair_count(ctx, hi) == built, (ctx, hi)

    def test_claims_on_one_context_make_one_scan(self, monkeypatch):
        import schubcalc.search as search

        scans = Counter()
        real_scan = search._scan

        def counting_scan(ctx, hi):
            scans[ctx] += 1
            return real_scan(ctx, hi)

        monkeypatch.setattr(search, "_scan", counting_scan)
        search._shell_zeros.cache_clear()
        ctx = GrassmannContext(2, 5)
        assert verify_prop_comp(ctx).passed
        assert verify_egd(ctx).passed
        assert len(md_pairs(ctx)) == 1
        assert compute_egd(ctx) == 5
        assert has_mdpair_of_type(ctx, (3, 3))
        assert search_report(ctx).computed_egd == 5
        classify_table(5)  # asks the domains G(1,5), G(2,5) and G(3,5)
        assert scans == {GrassmannContext(l, 5): 1 for l in (1, 2, 3)}
        # thm-md adds one scan of its own, which asks both routes of every pair
        assert verify_thm_md(ctx).passed
        assert scans == {GrassmannContext(1, 5): 1, ctx: 2, GrassmannContext(3, 5): 1}


class TestOneCrossCheckScan:
    """thm-md and the cross-validated report read both routes off one scan of the shell."""

    @staticmethod
    def count_calls(monkeypatch, search):
        """Wrap ``search._scan`` and ``search._lr_vanishes``; count scans per context and LR calls."""
        scans, lr_calls = Counter(), [0]
        real_scan, real_lr_vanishes = search._scan, search._lr_vanishes

        def counting_scan(ctx, hi):
            scans[ctx] += 1
            return real_scan(ctx, hi)

        def counting_lr_vanishes(*args):
            lr_calls[0] += 1
            return real_lr_vanishes(*args)

        monkeypatch.setattr(search, "_scan", counting_scan)
        monkeypatch.setattr(search, "_lr_vanishes", counting_lr_vanishes)
        return scans, lr_calls

    def test_thm_md_scans_once_per_context(self, monkeypatch):
        import schubcalc.search as search

        scans, lr_calls = self.count_calls(monkeypatch, search)
        for warm in (False, True):
            search._shell_zeros.cache_clear()
            for n in range(3, 9):
                for k in range(1, n - 1):
                    ctx = GrassmannContext(k, n)
                    if warm:
                        search._shell_zeros(ctx)
                    scans.clear()
                    lr_calls[0] = 0
                    report = verify_thm_md(ctx)
                    assert report.passed, ctx
                    assert scans == {ctx: 1}, ctx
                    assert lr_calls[0] == report.hypothesis_count == search._pair_count(ctx, n + 1)

    def test_cross_validated_report_scans_once_per_context(self, monkeypatch):
        import schubcalc.search as search

        scans, lr_calls = self.count_calls(monkeypatch, search)
        for n in range(1, 9):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                search._shell_zeros.cache_clear()
                scans.clear()
                lr_calls[0] = 0
                report = search_report(ctx, cross_validate=True)
                assert scans == {ctx: 1}, ctx
                assert lr_calls[0] == search._pair_count(ctx, n + 1), ctx
                assert report.md_pairs == md_pairs(ctx), ctx

    def test_report_raises_at_the_first_disagreement(self, monkeypatch):
        import schubcalc.search as search

        asked = []

        def lr_says_zero_from_the_third_pair(ctx, a, b):
            asked.append((a, b))
            return len(asked) >= 3

        monkeypatch.setattr(search, "_lr_vanishes", lr_says_zero_from_the_third_pair)
        with pytest.raises(RuntimeError, match=r"\(0, 0, 0\) x \(1, 1, 0\) in G\(2,6\): fast=False"):
            search_report(C26, cross_validate=True)
        assert len(asked) == 3  # the scan stops at the first disagreement


class TestScanLimit:
    def test_every_context_up_to_n36_is_accepted(self):
        import schubcalc.search as search

        for n in range(1, 37):
            for k in range(n):
                assert search._pair_count(GrassmannContext(k, n), n + 1) <= search.MAX_SCAN_PAIRS
        assert search._pair_count(GrassmannContext(14, 30), 31) == 1_455_537

    def test_closed_form_refusal_is_a_lower_bound(self, monkeypatch):
        import schubcalc.search as search

        # with no pair allowed, every check refuses by the closed-form bound
        monkeypatch.setattr(search, "MAX_SCAN_PAIRS", 0)
        for n in range(1, 30):
            for k in range(n):
                ctx = GrassmannContext(k, n)
                for hi in sorted({0, 1, n, n + 1, 2 * ctx.dim}):
                    with pytest.raises(ValueError, match="has at least") as err:
                        search._check_scan_size(ctx, hi)
                    bound = int(re.search(r"at least (\d+)", str(err.value)).group(1))
                    assert bound <= search._pair_count(ctx, hi), (ctx, hi)

    def test_oversized_scan_is_refused_by_name(self):
        import schubcalc.search as search

        ctx = GrassmannContext(18, 37)
        with pytest.raises(ValueError, match=r"G\(18,37\) has 10948109 basis pairs .* 10000000"):
            compute_egd(ctx)
        with pytest.raises(ValueError, match="over the scan limit"):
            verify_thm_md(ctx)


class TestLrLimit:
    """The LR cross-check (thm-md, a cross-validated report) has no limit but the scan's."""

    def test_every_interior_context_up_to_n24_is_accepted(self):
        import schubcalc.search as search

        for n in range(3, 25):
            for k in range(1, n - 1):
                search._check_scan_size(GrassmannContext(k, n), n + 1)
        assert search._pair_count(GrassmannContext(12, 24), 25) == 215_387

    @pytest.mark.parametrize("k,n", [(12, 25), (15, 30), (18, 36)])
    def test_contexts_within_the_scan_limit_are_accepted(self, monkeypatch, k, n):
        import schubcalc.search as search

        class Scanning(Exception):
            pass

        def scanning(ctx, lo, hi):
            raise Scanning  # past every size check: the scan builds its layers

        monkeypatch.setattr(search, "_box_layers", scanning)
        ctx = GrassmannContext(k, n)
        with pytest.raises(Scanning):
            verify_thm_md(ctx)
        with pytest.raises(Scanning):
            search_report(ctx, cross_validate=True)

    def test_larger_context_is_refused_before_a_layer_is_built(self, monkeypatch):
        import schubcalc.search as search

        def refuse(ctx, lo, hi):
            raise AssertionError(f"_box_layers({ctx}, {lo}, {hi}) built for an oversized LR check")

        monkeypatch.setattr(search, "_box_layers", refuse)
        ctx = GrassmannContext(18, 37)
        limit = rf"G\(18,37\) has 10948109 basis pairs .* scan limit of {search.MAX_SCAN_PAIRS}$"
        with pytest.raises(ValueError, match=limit):
            verify_thm_md(ctx)
        with pytest.raises(ValueError, match=limit):
            search_report(ctx, cross_validate=True)


class TestMemoInventory:
    """The package memos, found by introspection, are the ones the README names."""

    @staticmethod
    def package_memos():
        import schubcalc.cli  # noqa: F401  every module loaded

        return {
            f"{name.rpartition('.')[2]}.{attr}"
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "schubcalc" or name.startswith("schubcalc."))
            for attr, obj in vars(mod).items()
            if callable(getattr(obj, "cache_info", None))
            and getattr(obj, "__module__", None) == mod.__name__
        }

    def test_memos_are_the_documented_two(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("The only shared state is"):].split("\n\n")[0]
        documented = set(re.findall(r"`(\w+\.\w+)`", paragraph))
        assert self.package_memos() == documented == {
            "search._shell_zeros", "schur._kostka_row"
        }

    def test_memo_values_are_hashable(self):
        """Each memo hands out a tuple, so no caller can change what it holds."""
        import schubcalc.search as search
        from schubcalc.schur import _kostka_row

        values = {
            "search._shell_zeros": search._shell_zeros(C26),
            "schur._kostka_row": _kostka_row((2, 1), 3),
        }
        assert set(values) == self.package_memos()
        for name, value in values.items():
            hash(value)
            assert value, name
