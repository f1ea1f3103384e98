"""Partitions, Schubert symbols and the Bruhat order on a Grassmannian.

Throughout, ``G(k, n)`` is the Grassmannian of projective k-planes in
``P^n``, identified with (k+1)-dimensional linear subspaces of an
(n+1)-dimensional vector space.  A Schubert variety is indexed by a
*Schubert symbol* ``I = (i_1 < ... < i_{k+1})`` with ``1 <= i_j <= n+1``,
or equivalently by a Young diagram inside a ``(k+1) x (n-k)`` box: walk
the box boundary from the lower-left to the upper-right corner in n+1
steps, stepping vertically at step i exactly when ``i in I``; the diagram
is the region above-left of the path, i.e. the partition with

    lambda_j = i_{k+2-j} - (k+2-j),        j = 1, ..., k+1.

Two partition conventions coexist deliberately:

* the *dimension* convention ``symbol_to_dim_partition(ctx, I)``, whose
  weight is dim X_I (used throughout this module);
* the *codimension* convention, its box complement, whose weight is
  codim X_I and which is the canonical key of Chow classes in
  :mod:`schubcalc.chow`.

The conversion between the two is a single call to
:func:`dual_partition`; forcing one convention everywhere invites
off-by-complement bugs.

Box partitions are enumerated by weight.  One depth-first walk of the
box, ``_box_layers(ctx, lo, hi)``, builds the layers of every weight in
[lo, hi] at once: :func:`box_layer` is its window [w, w] and
:func:`box_partitions`, all C(n+1, k+1) of them, the concatenation of
its window [0, dim].  Nothing is memoized; each call builds what it
returns.  A search that needs only low weights walks only up to them,
and ``_layer_sizes`` counts the layers (Gaussian binomial coefficients)
without building any.

Partitions are plain ``tuple[int, ...]`` of fixed length k+1 with
explicit trailing zeros; symbols are plain 1-based tuples.  Parts, and
the k and n of a context, are converted with ``operator.index``, so a
float or a string is rejected by name, never truncated.  All functions are pure and all values
immutable, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations
from operator import gt, index

Partition = tuple[int, ...]
SchubertSymbol = tuple[int, ...]

FILLED = "#"
EMPTY = "."
OVERLAY = "*"

# The most box cells ``render`` draws, or parts the CLI pads a partition to.
MAX_RENDER_CELLS = 1_000_000


class GrassmannContext(namedtuple("GrassmannContext", "k n")):
    """The ambient Grassmannian G(k, n) of projective k-planes in P^n."""

    __slots__ = ()

    def __new__(cls, k: int, n: int) -> GrassmannContext:
        k, n = _integers("Grassmannian (k, n) =", (k, n))
        if n < 1 or not 0 <= k <= n - 1:
            raise ValueError(f"invalid Grassmannian G({k},{n}): need n >= 1 and 0 <= k <= n-1")
        return super().__new__(cls, k, n)

    # ``_replace`` builds through ``_make``: send both through the checks above.
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def rows(self) -> int:
        """Number of rows of the ambient box, k+1."""
        return self.k + 1

    @property
    def cols(self) -> int:
        """Number of columns of the ambient box, n-k."""
        return self.n - self.k

    @property
    def dim(self) -> int:
        """dim G(k, n) = (k+1)(n-k)."""
        return (self.k + 1) * (self.n - self.k)

    def __str__(self) -> str:
        return f"G({self.k},{self.n})"


def _integers(what: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a part that is not an integer is a ``ValueError``.

    Parts are converted with ``operator.index``, so ``1.9`` or ``"2"`` is
    rejected by name instead of being truncated or parsed.
    """
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise ValueError(f"{what} {values!r} has a non-integer part {bad!r}") from None


def check_partition(ctx: GrassmannContext, parts) -> Partition:
    """Validate ``parts`` as a box partition for ``ctx`` and return it as a tuple.

    A valid partition has exactly k+1 integer entries (trailing zeros
    explicit), is weakly decreasing, and fits the box:
    ``cols >= p_1 >= ... >= p_{k+1} >= 0``.
    """
    p = _integers("partition", parts)
    if len(p) != ctx.rows:
        raise ValueError(
            f"partition {p} has {len(p)} parts, expected {ctx.rows} for {ctx}"
        )
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition {p} is not weakly decreasing")
    if p and (p[0] > ctx.cols or p[-1] < 0):
        raise ValueError(f"partition {p} does not fit the {ctx.rows}x{ctx.cols} box")
    return p


def _reduced(parts) -> tuple[int, ...]:
    """Strip trailing zeros; validate integer parts, weak decrease and nonnegativity."""
    p = _integers("partition", parts)
    if any(a < b for a, b in zip(p, p[1:])) or (p and p[-1] < 0):
        raise ValueError(f"{p} is not a partition")
    return p[:len(p) - p.count(0)]  # weakly decreasing and nonnegative: the zeros trail


def normalize_partition(ctx: GrassmannContext, parts) -> Partition:
    """Pad or strip trailing zeros to length k+1, then validate."""
    p = list(_integers("partition", parts))
    while len(p) > ctx.rows and p and p[-1] == 0:
        p.pop()
    p.extend([0] * (ctx.rows - len(p)))
    return check_partition(ctx, p)


def check_symbol(ctx: GrassmannContext, indices) -> SchubertSymbol:
    """Validate a Schubert symbol: integer, strictly increasing, within [1, n+1]."""
    s = _integers("symbol", indices)
    if len(s) != ctx.rows:
        raise ValueError(
            f"symbol {s} has {len(s)} indices, expected {ctx.rows} for {ctx}"
        )
    if any(a >= b for a, b in zip(s, s[1:])):
        raise ValueError(f"symbol {s} is not strictly increasing")
    if s[0] < 1 or s[-1] > ctx.n + 1:
        raise ValueError(f"symbol {s} is out of range [1, {ctx.n + 1}] for {ctx}")
    return s


def symbol_to_dim_partition(ctx: GrassmannContext, symbol) -> Partition:
    """Young diagram of a Schubert symbol, dimension convention.

    ``lambda_j = i_{k+2-j} - (k+2-j)``; the weight of the result is the
    dimension of the Schubert variety X_I.
    """
    s = check_symbol(ctx, symbol)
    k = ctx.k
    return tuple(s[k - t] - (k + 1 - t) for t in range(k + 1))


def dim_partition_to_symbol(ctx: GrassmannContext, parts) -> SchubertSymbol:
    """Inverse of :func:`symbol_to_dim_partition`."""
    p = check_partition(ctx, parts)
    k = ctx.k
    return tuple(p[k - t] + (t + 1) for t in range(k + 1))


def dual_symbol(ctx: GrassmannContext, symbol) -> SchubertSymbol:
    """The dual symbol ``(n+2-i_{k+1}, ..., n+2-i_1)``; an involution."""
    s = check_symbol(ctx, symbol)
    return tuple(ctx.n + 2 - i for i in reversed(s))


def dual_partition(ctx: GrassmannContext, parts) -> Partition:
    """Box complement rotated by 180 degrees: ``dual_j = n-k - p_{k+2-j}``.

    Swaps the dimension and codimension conventions; the weights of a
    partition and its dual always add up to dim G(k, n).
    """
    p = check_partition(ctx, parts)
    return tuple(ctx.cols - x for x in reversed(p))


def partition_contains(outer, inner) -> bool:
    """Componentwise Young-diagram containment ``inner <= outer``.

    Accepts tuples of any lengths; missing entries count as zero.
    """
    outer = tuple(outer)
    inner = tuple(inner)
    if len(inner) > len(outer) and any(x > 0 for x in inner[len(outer):]):
        return False
    return all(i <= o for o, i in zip(outer, inner))


def _not_contained(inner: Partition, outer: Partition) -> bool:
    """True when the diagram ``inner`` has a cell outside ``outer`` (equal lengths).

    The one vanishing predicate: ``sigma_a * sigma_b`` vanishes exactly
    when ``a`` does not fit inside ``dual(b)``, i.e. when
    ``a_j + b_{k+2-j} > n-k`` for some j; the comparability dichotomy
    asks the same of (lam, mu).
    """
    return any(map(gt, inner, outer))


def bruhat_leq(ctx: GrassmannContext, symbol_a, symbol_b) -> bool:
    """Bruhat order on symbols: ``I <= L`` iff ``i_j <= l_j`` for every j.

    Equivalent to containment of the associated Young diagrams (this is
    exercised as a test invariant, not recomputed here).  Both symbols
    must be valid for ``ctx``; mixing contexts is rejected as far as the
    plain-tuple representation allows (wrong length or range).
    """
    a = check_symbol(ctx, symbol_a)
    b = check_symbol(ctx, symbol_b)
    return all(i <= j for i, j in zip(a, b))


def special_symbols(ctx: GrassmannContext) -> tuple[SchubertSymbol, SchubertSymbol]:
    """The symbols (I_H, I_p) of the two distinguished Schubert varieties.

    X_H parametrizes k-planes contained in a fixed hyperplane,
    I_H = (n-k, ..., n); X_p parametrizes k-planes through a fixed
    point, I_p = (1, n-k+2, ..., n+1).
    """
    n, k = ctx.n, ctx.k
    i_h = tuple(range(n - k, n + 1))
    i_p = (1,) + tuple(range(n - k + 2, n + 2))
    return i_h, i_p


def _box_layers(ctx: GrassmannContext, lo: int, hi: int) -> list[tuple[Partition, ...]]:
    """The box partitions of each weight lo, ..., hi, one ascending tuple per weight.

    Entry ``i`` is the layer of weight ``lo + i``; weights outside
    [0, dim] have empty layers.  One depth-first walk from a stack, not
    by recursion, builds them all: an entry is (parts, cap, weight so
    far), and the next part runs from the smallest value with which the
    remaining rows can still reach ``lo`` up to the largest the row
    above and ``hi`` allow.  An entry that has reached ``lo`` first
    completes itself with zeros, and the last row puts each of its values
    into that value's layer.  The smallest part is popped first, so every
    layer comes out sorted.  Not memoized: each call builds what it
    returns.
    """
    layers = [[] for _ in range(hi - lo + 1)]
    top = min(hi, ctx.dim)
    rows, stack = ctx.rows, [((), ctx.cols, 0)] if max(lo, 0) <= top else []
    while stack:
        parts, cap, w = stack.pop()
        r = rows - len(parts)
        if r == 1:  # conditional expressions: cheaper than min and max per leaf
            v = lo - w if lo > w else 0
            end = top - w if top - w < cap else cap
            while v <= end:
                layers[w + v - lo].append(parts + (v,))
                v += 1
            continue
        if w >= lo:
            layers[w - lo].append(parts + (0,) * r)
            if w == top:
                continue
            least = 1
        else:
            least = -((w - lo) // r)  # ceil((lo - w) / r)
        stack += [(parts + (v,), v, w + v) for v in range(min(cap, top - w), least - 1, -1)]
    return list(map(tuple, layers))


def box_layer(ctx: GrassmannContext, w: int) -> tuple[Partition, ...]:
    """The partitions in the (k+1) x (n-k) box of weight exactly ``w``, ascending.

    Empty unless ``0 <= w <= dim``; a ``w`` that is not an integer is a
    ``ValueError``.  The window [w, w] of ``_box_layers``; not memoized.
    """
    (w,) = _integers("weight", (w,))
    if not 0 <= w <= ctx.dim:
        return ()
    return _box_layers(ctx, w, w)[0]


def _layer_sizes(ctx: GrassmannContext, hi: int) -> list[int]:
    """``len(box_layer(ctx, w))`` for w = 0, ..., hi, counted without building a layer.

    The sizes are the coefficients of the Gaussian binomial
    [n+1 choose k+1]_q = prod_{i=1..r} (1 - q^(c+i)) / (1 - q^i)
    (Andrews, *The Theory of Partitions*, ch. 3), computed as a power
    series cut after q^hi; they are 0 beyond dim.  It is symmetric in
    the box sides, so r is the shorter side and c the longer, and a
    factor with i > hi is 1 below q^(hi+1): min(rows, cols, hi) factors.
    """
    short, long = sorted((ctx.rows, ctx.cols))
    sizes = [1] + [0] * hi
    for i in range(1, min(short, hi) + 1):
        for w in range(hi, long + i - 1, -1):  # times (1 - q^(long+i))
            sizes[w] -= sizes[w - long - i]
        for w in range(i, hi + 1):  # divided by (1 - q^i)
            sizes[w] += sizes[w - i]
    return sizes


def box_partitions(ctx: GrassmannContext) -> tuple[Partition, ...]:
    """All partitions in the (k+1) x (n-k) box, sorted by (weight, parts).

    There are C(n+1, k+1) of them: the concatenation of the layers of
    one ``_box_layers`` walk of [0, dim], rebuilt on each call.
    """
    return tuple(chain.from_iterable(_box_layers(ctx, 0, ctx.dim)))


def all_symbols(ctx: GrassmannContext) -> tuple[SchubertSymbol, ...]:
    """All C(n+1, k+1) Schubert symbols for ``ctx``, lexicographically."""
    return tuple(combinations(range(1, ctx.n + 2), ctx.rows))


def _check_render_size(ctx: GrassmannContext, parts_only: bool = False) -> None:
    """Raise ``ValueError`` if a request on ``ctx`` builds over ``MAX_RENDER_CELLS`` items.

    A render builds every box cell; ``parts_only`` counts only the k+1
    parts a partition is padded to (``convert --partition``, ``product``).
    O(1): callers check it before they build any list of box length.
    """
    size, what = (ctx.rows, "partition parts") if parts_only else (ctx.dim, "box cells")
    if size > MAX_RENDER_CELLS:
        raise ValueError(f"{ctx} has {size} {what}, over the size limit of {MAX_RENDER_CELLS}")


def render_diagram(ctx: GrassmannContext, parts, overlay=None) -> str:
    """Fixed-width ASCII rendering of a Young diagram in its box.

    Each cell is two characters: ``"# "`` for a cell of the partition,
    ``". "`` for an empty box cell, ``"* "`` for an overlay cell
    (overlay wins over fill).  Trailing whitespace is stripped from each
    row and every row, including the last, ends with a newline.  A box
    of more than ``MAX_RENDER_CELLS`` cells is a ``ValueError``, raised
    before the partition is read.
    """
    _check_render_size(ctx)
    p = check_partition(ctx, parts)
    o = check_partition(ctx, overlay) if overlay is not None else (0,) * ctx.rows
    return "".join(
        " ".join([OVERLAY] * v + [FILLED] * max(u - v, 0) + [EMPTY] * (ctx.cols - max(u, v)))
        + "\n"
        for u, v in zip(p, o)
    )
