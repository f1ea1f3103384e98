"""Differential property tests on random Grassmannians up to n = 12.

The exhaustive checks elsewhere stop at n = 8; these draw contexts and
basis pairs beyond that range and compare the LR tableau walk with the
Schur oracle, with its own fillings, with itself under swapped factors
and regrouped triples, and with the Pieri rule, and the LR rule's
vanishing verdict with the product and the Bruhat test.  The
symbol/partition/dual conversions, checked exhaustively up to n = 10,
are drawn up to n = 16.
"""

from hypothesis import given
from hypothesis import strategies as st

from schubcalc import (
    GrassmannContext,
    box_layer,
    dim_partition_to_symbol,
    dual_partition,
    dual_symbol,
    lr_coefficient,
    lr_fillings,
    lr_oracle,
    multiply,
    pair_vanishes,
    schubert_class,
    symbol_to_dim_partition,
)
from schubcalc.chow import _lr_vanishes


@st.composite
def contexts(draw):
    """G(k, n) with 5 <= n <= 12; on one draw in four, an edge box: k = 0 or k = n-1."""
    n = draw(st.integers(5, 12))
    edge = draw(st.integers(0, 3)) == 0
    k = draw(st.sampled_from((0, n - 1)) if edge else st.integers(0, n - 1))
    return GrassmannContext(k, n)


def partitions_inside(outer):
    """Partitions inside the weakly decreasing ``outer``, at its length."""
    return st.lists(
        st.integers(0, outer[0]), min_size=len(outer), max_size=len(outer)
    ).map(lambda parts: tuple(sorted(map(min, parts, outer), reverse=True)))


@st.composite
def basis_pairs(draw):
    """A context and two box partitions; on drawn flags, b fits inside dual(a) or |a| + |b| = n+1.

    Pairs with b inside dual(a) have a nonzero product; pairs of weight
    n+1, drawn whenever such a b fits, are where Theorem md's vanishing
    pair lies and where ``_lr_vanishes`` answers without a walk, and in
    an edge box they all vanish.  A uniform draw at n > 8 rarely gives
    either: most uniform pairs there exceed the top degree.
    """
    ctx = draw(contexts())
    box = (ctx.cols,) * ctx.rows
    a = draw(partitions_inside(box))
    if draw(st.booleans()):
        box = tuple(ctx.cols - x for x in reversed(a))
    elif draw(st.booleans()):
        layer = box_layer(ctx, ctx.n + 1 - sum(a))  # empty when no such b fits
        if layer:
            return ctx, a, draw(st.sampled_from(layer))
    return ctx, a, draw(partitions_inside(box))


def product(ctx, a, b):
    return multiply(schubert_class(ctx, a), schubert_class(ctx, b)).terms


@given(basis_pairs())
def test_multiply_matches_box_truncated_oracle(pair):
    ctx, a, b = pair
    terms = product(ctx, a, b)
    if sum(a) + sum(b) > ctx.dim:  # no box shape has this degree
        assert not terms
        return
    expansion = lr_oracle(a, b, ctx.rows + 1)
    assert terms == {
        nu + (0,) * (ctx.rows - len(nu)): c
        for nu, c in expansion.items()
        if len(nu) <= ctx.rows and (not nu or nu[0] <= ctx.cols)
    }


@given(basis_pairs())
def test_coefficients_count_fillings(pair):
    ctx, a, b = pair
    for nu, c in product(ctx, a, b).items():
        assert lr_coefficient(a, b, nu) == c
        assert len(list(lr_fillings(a, b, nu))) == c


@given(basis_pairs())
def test_multiply_is_commutative(pair):
    ctx, a, b = pair
    terms = product(ctx, a, b)
    assert product(ctx, b, a) == terms
    # the memo shares one entry for both orders; the walk itself must agree too
    for nu, c in terms.items():
        assert lr_coefficient(b, a, nu) == c


def grown(ctx, p):
    """The box partitions made by adding one cell to ``p``."""
    return [
        p[:r] + (p[r] + 1,) + p[r + 1:]
        for r in range(ctx.rows)
        if p[r] < (p[r - 1] if r else ctx.cols)
    ]


@given(basis_pairs())
def test_lr_vanishing_matches_product_and_bruhat_test(pair):
    ctx, a, b = pair
    zero = not product(ctx, a, b)
    assert _lr_vanishes(ctx, a, b) == _lr_vanishes(ctx, b, a) == zero
    assert pair_vanishes(ctx, a, b) == zero
    # one cell more on either side: when b fits inside dual(a), these
    # include the vanishing pairs nearest the boundary
    for x, y in [(a, c) for c in grown(ctx, b)] + [(c, b) for c in grown(ctx, a)]:
        assert _lr_vanishes(ctx, x, y) == pair_vanishes(ctx, x, y), (ctx, x, y)


@st.composite
def basis_triples(draw):
    """A basis pair plus a third box partition c; on a drawn flag, c fits inside dual(nu).

    nu is a term of sigma_a * sigma_b, so the triple product is then
    nonzero, which a uniform draw at n > 8 rarely gives.
    """
    ctx, a, b = draw(basis_pairs())
    box = (ctx.cols,) * ctx.rows
    terms = sorted(product(ctx, a, b))
    if terms and draw(st.booleans()):
        nu = draw(st.sampled_from(terms))
        box = tuple(ctx.cols - x for x in reversed(nu))
    return ctx, a, b, draw(partitions_inside(box))


@given(basis_triples())
def test_multiply_is_associative(triple):
    ctx, a, b, c = triple
    x, y, z = (schubert_class(ctx, p) for p in (a, b, c))
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@st.composite
def pieri_cases(draw):
    ctx = draw(contexts())
    return ctx, draw(partitions_inside((ctx.cols,) * ctx.rows)), draw(st.integers(0, ctx.cols))


@given(pieri_cases())
def test_one_row_factor_follows_pieri(case):
    ctx, a, p = case
    # sigma_a * sigma_p: one term for each nu that adds a horizontal strip of p cells
    expected = {
        nu: 1
        for nu in box_layer(ctx, sum(a) + p)
        if all(a[r] <= nu[r] <= (a[r - 1] if r else ctx.cols) for r in range(ctx.rows))
    }
    assert product(ctx, a, (p,) + (0,) * ctx.k) == expected


@st.composite
def symbols_and_partitions(draw):
    """A context with n <= 16, one of its Schubert symbols and one box partition."""
    n = draw(st.integers(1, 16))
    ctx = GrassmannContext(draw(st.integers(0, n - 1)), n)
    indices = st.integers(1, n + 1)
    symbol = tuple(sorted(draw(st.lists(indices, min_size=ctx.rows, max_size=ctx.rows, unique=True))))
    return ctx, symbol, draw(partitions_inside((ctx.cols,) * ctx.rows))


@given(symbols_and_partitions())
def test_symbol_partition_dual_round_trips(case):
    ctx, symbol, p = case
    lam = symbol_to_dim_partition(ctx, symbol)
    assert dim_partition_to_symbol(ctx, lam) == symbol
    assert symbol_to_dim_partition(ctx, dim_partition_to_symbol(ctx, p)) == p
    assert dual_symbol(ctx, dual_symbol(ctx, symbol)) == symbol
    assert dual_partition(ctx, dual_partition(ctx, p)) == p
    assert sum(p) + sum(dual_partition(ctx, p)) == ctx.dim
    # the diagram of the dual symbol is the dual of the diagram
    assert symbol_to_dim_partition(ctx, dual_symbol(ctx, symbol)) == dual_partition(ctx, lam)
