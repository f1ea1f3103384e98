"""The Schur-polynomial oracle against hand values, a naive reference, and the LR route."""

import os
import subprocess
import sys
from collections import Counter
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import schubcalc
import schubcalc.schur as schur
from schubcalc import (
    GrassmannContext,
    box_partitions,
    lr_coefficient,
    lr_oracle,
    multiply,
    schubert_class,
)


def naive_ssyt_weights(shape, nvars):
    """Monomials of s_shape by listing semistandard tableaux one at a time."""
    if not shape:
        return {(0,) * nvars: 1}
    grid = [[0] * r for r in shape]
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    out = {}

    def rec(t):
        if t == len(cells):
            w = [0] * nvars
            for row in grid:
                for v in row:
                    w[v - 1] += 1
            key = tuple(w)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[t]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            rec(t + 1)

    rec(0)
    return out


def naive_schur_expand(lam, mu, nvars):
    """Full-dictionary convolution and elimination, no shortcuts anywhere."""
    left = naive_ssyt_weights(lam, nvars)
    right = naive_ssyt_weights(mu, nvars)
    prod = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            key = tuple(a + b for a, b in zip(w1, w2))
            prod[key] = prod.get(key, 0) + c1 * c2
    out = {}
    while True:
        prod = {k: v for k, v in prod.items() if v}
        if not prod:
            return out
        lead = max(prod)
        assert all(lead[i] >= lead[i + 1] for i in range(len(lead) - 1))
        c = prod[lead]
        red = lead
        while red and red[-1] == 0:
            red = red[:-1]
        out[red] = c
        for w, cnt in naive_ssyt_weights(red, nvars).items():
            prod[w] = prod.get(w, 0) - c * cnt


class TestKnownExpansions:
    def test_square_of_s1(self):
        # (x1+x2)^2 = (x1^2 + x1 x2 + x2^2) + (x1 x2)
        assert lr_oracle((1,), (1,), 2) == {(2,): 1, (1, 1): 1}

    def test_identity(self):
        for lam in [(3, 1), (2, 2), ()]:
            assert lr_oracle(lam, (), 3) == {lam: 1}
            assert lr_oracle((), lam, 3) == {lam: 1}

    def test_s21_times_s1(self):
        assert lr_oracle((2, 1), (1,), 3) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}

    def test_wide_shapes(self):
        # Exponents past 255: the expansion is exact at any width.
        assert lr_oracle((300,), (1,), 2) == {(301,): 1, (300, 1): 1}

    def test_more_variables_than_the_recursion_limit(self):
        # One exponent per variable on an explicit stack, so 1100 variables need no deep call chain.
        column = (1,) * 1099
        assert lr_oracle(column, (1,), 1100) == {(1,) * 1100: 1, (2,) + (1,) * 1098: 1}

    def test_insufficient_variables_rejected(self):
        with pytest.raises(ValueError):
            lr_oracle((2, 1, 1), (1,), 2)
        with pytest.raises(ValueError):
            lr_oracle((1,), (1,), 0)

    def test_nonnegative_coefficients(self):
        for lam in [(2, 1), (3, 2, 1), (2, 2)]:
            for mu in [(1, 1), (2, 1), (3,)]:
                assert all(c > 0 for c in lr_oracle(lam, mu, 4).values())


class TestAgainstNaiveReference:
    def test_small_boxes(self):
        shapes = [(), (1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]
        for lam in shapes:
            for mu in shapes:
                for nvars in (3, 4):
                    assert lr_oracle(lam, mu, nvars) == naive_schur_expand(
                        lam, mu, nvars
                    ), (lam, mu, nvars)

    def test_three_row_shapes(self):
        shapes = [(2, 1, 1), (2, 2, 1), (1, 1, 1), (3, 1, 1)]
        for lam in shapes:
            for mu in [(1,), (1, 1), (2, 1)]:
                assert lr_oracle(lam, mu, 4) == naive_schur_expand(lam, mu, 4)

    def test_four_row_shapes(self):
        # Five variables and four-row shapes: terms of opposite sign cancel in the signed sum.
        shapes = [(1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1), (3, 2, 1, 1)]
        for lam in shapes:
            for mu in [(1,), (1, 1), (2, 1), (1, 1, 1, 1)]:
                assert lr_oracle(lam, mu, 5) == naive_schur_expand(lam, mu, 5), (lam, mu)


def shapes_up_to(cells):
    """Every partition with at most ``cells`` cells, as a reduced tuple."""
    def rec(left, cap):
        yield ()
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest

    return list(rec(cells, cells))


class TestMonomialCount:
    def test_hook_content_count_matches_kostka_rows(self):
        # Every weight of a Kostka row stands for each of its distinct rearrangements.
        for shape in shapes_up_to(8):
            for nvars in range(1, 7):
                brute = sum(
                    kostka * factorial(nvars) // prod(map(factorial, Counter(weight).values()))
                    for weight, kostka in schur._kostka_row(shape, nvars)
                )
                assert schur._monomials(shape, nvars) == brute, (shape, nvars)
                if len(shape) > nvars:
                    assert brute == 0


class TestFactorChoice:
    @staticmethod
    def expanded(monkeypatch, *args):
        """The shapes whose Kostka rows ``lr_oracle(*args)`` asks for."""
        asked = []
        row = schur._kostka_row

        def recording(shape, nvars):
            asked.append(shape)
            return row(shape, nvars)

        monkeypatch.setattr(schur, "_kostka_row", recording)
        result = lr_oracle(*args)
        monkeypatch.undo()
        return asked, result

    def test_fewer_monomials_wins_over_lighter_weight(self, monkeypatch):
        # s_1111 is the single monomial x1 x2 x3 x4; s_3 has 20 in four variables.
        asked, result = self.expanded(monkeypatch, (3,), (1, 1, 1, 1), 4)
        assert asked == [(1, 1, 1, 1)]
        assert result == {(4, 1, 1, 1): 1}

    def test_tie_expands_the_lighter_factor(self, monkeypatch):
        # Both factors have 1100 monomials in 1100 variables; (1,) is the lighter.
        asked, _ = self.expanded(monkeypatch, (1,) * 1099, (1,), 1100)
        assert asked == [(1,)]

    def test_either_order_matches_naive_reference(self):
        shapes = shapes_up_to(5)
        disagreeing = 0
        for nvars in (3, 4, 5):
            fit = [s for s in shapes if len(s) <= nvars]
            for i, lam in enumerate(fit):
                for mu in fit[i:]:
                    by_count = (schur._monomials(lam, nvars), sum(lam)) < (
                        schur._monomials(mu, nvars), sum(mu))
                    disagreeing += by_count != (sum(lam) < sum(mu))
                    expected = naive_schur_expand(lam, mu, nvars)
                    assert lr_oracle(lam, mu, nvars) == expected, (lam, mu, nvars)
                    assert lr_oracle(mu, lam, nvars) == expected, (mu, lam, nvars)
        # the range holds keys where the weight rule would expand the other factor
        assert disagreeing


@st.composite
def small_shape_pairs(draw):
    """Two shapes of at most 3 rows and parts at most 3, and enough variables for both."""
    shape = st.lists(st.integers(1, 3), max_size=3).map(lambda p: tuple(sorted(p, reverse=True)))
    lam, mu = draw(shape), draw(shape)
    return lam, mu, draw(st.integers(max(1, len(lam), len(mu)), 4))


@given(small_shape_pairs())
def test_drawn_shapes_match_naive_reference(case):
    lam, mu, nvars = case
    assert lr_oracle(lam, mu, nvars) == naive_schur_expand(lam, mu, nvars)


def test_import_loads_no_numpy():
    src = str(Path(schubcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, schubcalc; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_oracle_takes_nothing_from_the_tableau_module():
    import schubcalc.schur as schur

    for name, obj in vars(schur).items():
        assert obj is not schubcalc.chow, name
        assert getattr(obj, "__module__", None) != "schubcalc.chow", name


class TestAgainstTableauRoute:
    def test_every_pair_in_small_grassmannians(self):
        for k, n in [(1, 4), (1, 5), (2, 5), (2, 6), (3, 6)]:
            ctx = GrassmannContext(k, n)
            parts = box_partitions(ctx)
            nvars = ctx.rows + 1
            # nvars rows and room for lam_1 + mu_1 columns, so multiply cuts nothing
            wide = GrassmannContext(nvars - 1, nvars - 1 + 2 * ctx.cols)
            for i in range(len(parts)):
                for j in range(i, len(parts)):
                    if sum(parts[i]) + sum(parts[j]) > ctx.dim:
                        continue
                    expansion = lr_oracle(parts[i], parts[j], nvars)
                    for nu, c in expansion.items():
                        if len(nu) <= nvars:
                            assert lr_coefficient(parts[i], parts[j], nu) == c
                    # and the tableau route finds nothing the oracle missed
                    a, b = (schubert_class(wide, p + (0,)) for p in (parts[i], parts[j]))
                    lr = {nu[:len(nu) - nu.count(0)]: c for nu, c in multiply(a, b).terms.items()}
                    assert lr == expansion
