"""The Chow ring of G(k, n) in the Schubert basis.

Classes are stored in the codimension convention: the basis class
``sigma_a`` for a box partition ``a`` has degree |a| = codim of the
corresponding Schubert variety.  Products are computed by the
Littlewood-Richardson rule,

    sigma_lam * sigma_mu = sum_nu c^nu_{lam,mu} sigma_nu,

where ``c^nu_{lam,mu}`` counts skew tableaux of shape nu/lam and content
mu that are semistandard (rows weakly increase left to right, columns
strictly increase top to bottom) and whose right-to-left, top-to-bottom
reading word is a lattice word.  The sum is truncated to the box, which
is exactly the quotient presentation of the Chow ring.

One walk, ``_lr_walk``, enumerates these tableaux: one depth-first loop
over an explicit stack adds the content to lam one letter at a time,
each letter's cells a horizontal strip placed row by row, with the
lattice-word condition kept as one running count.  ``multiply``
counts the shapes it ends in for each pair of terms, ``lr_coefficient``
counts its tableaux inside a fixed nu, and ``lr_fillings`` reads their
rows off the same chains of shapes.  ``_lr_vanishes`` asks only whether
the box-truncated product is zero, which one tableau inside the box
answers; three are known with no walk (the factors' rows added or
merged, and one shape for the hook pairs of weight n+1), so it walks,
up to the first chain, only Theorem md's pair, the pairs heavier than
n+1 and the pairs of a box with one row or one column.  The claims' LR
cross-check runs through it.

The module also provides the O(k) vanishing test: ``[X_I]*[X_J]`` is
nonzero if and only if the dual symbol of I is Bruhat-below J, i.e.
when the codimension partition of one fits inside the box dual of the
other.  Both routes (the tableau walk and the containment test) are
implemented independently and cross-validated by the test suite: the
walk keeps its own containment guard and never calls the test's
predicate ``core._not_contained``.

Everything is pure, holds no shared state and is safe for concurrent
use.
"""

from __future__ import annotations

from operator import gt
from types import MappingProxyType

from schubcalc.core import (
    GrassmannContext,
    Partition,
    _integers,
    _not_contained,
    _reduced,
    bruhat_leq,
    check_partition,
    dual_partition,
    dual_symbol,
)


class CycleClass:
    """An element of the Chow ring in the Schubert basis.

    ``terms`` maps box partitions (codimension convention, fixed length
    k+1) to nonzero integer coefficients.  Mixed-degree classes are
    representable; grading-sensitive operations reject them.  A class is
    immutable, so it keeps its hash and its checked terms: ``terms`` is a
    read-only mapping, and setting or deleting an attribute raises
    ``AttributeError``.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GrassmannContext, terms) -> None:
        clean: dict[Partition, int] = {}
        terms = dict(terms)
        for part, c in zip(terms, _integers("cycle class with coefficients", terms.values())):
            if c != 0:
                clean[check_partition(ctx, part)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError(f"CycleClass is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CycleClass is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (CycleClass, (self.ctx, dict(self.terms)))

    def degree(self) -> int:
        """Common weight of all terms; rejects zero or mixed-degree classes."""
        degs = {sum(p) for p in self.terms}
        if len(degs) != 1:
            raise ValueError(f"class is not homogeneous of a single degree: {self!r}")
        return degs.pop()

    def is_homogeneous(self) -> bool:
        return len({sum(p) for p in self.terms}) <= 1

    def is_effective(self) -> bool:
        """True when every coefficient is positive (or the class is zero)."""
        return all(c > 0 for c in self.terms.values())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleClass)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ctx, frozenset(self.terms.items())))

    def __add__(self, other: "CycleClass") -> "CycleClass":
        if not isinstance(other, CycleClass):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0) + c
        return CycleClass(self.ctx, acc)

    def __mul__(self, other: "CycleClass") -> "CycleClass":
        return multiply(self, other) if isinstance(other, CycleClass) else NotImplemented

    def __repr__(self) -> str:
        return f"CycleClass({self.ctx}: {format_class(self)})"

    def to_json_dict(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "terms": [
                {"partition": list(p), "coeff": self.terms[p]}
                for p in sorted(self.terms)
            ],
        }


def format_class(x: CycleClass) -> str:
    """Human-readable Schubert-basis expansion.

    Terms are ordered lexicographically descending on the partition;
    ``sigma`` is printed as a Greek letter and the empty partition as
    ``0`` inside the parentheses.
    """
    if not x.terms:
        return "0"
    bits = []
    for p in sorted(x.terms, reverse=True):
        red = p[:len(p) - p.count(0)]
        name = "σ(" + (",".join(str(v) for v in red) if red else "0") + ")"
        c = x.terms[p]
        bits.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(bits)


def schubert_class(ctx: GrassmannContext, parts) -> CycleClass:
    """The basis class ``sigma_a`` (codimension convention), coefficient 1."""
    return CycleClass(ctx, {_integers("partition", parts): 1})


def fundamental_class(ctx: GrassmannContext) -> CycleClass:
    """The ring identity ``sigma_0``."""
    return schubert_class(ctx, (0,) * ctx.rows)


def zero_class(ctx: GrassmannContext) -> CycleClass:
    return CycleClass(ctx, {})


def _lr_walk(lam, mu, outer):
    """Yield every LR tableau of shape nu/lam and content mu with nu inside ``outer``.

    Each tableau is yielded as its chain of shapes ``(lam, ..., nu)``:
    the cells holding letter i are the horizontal strip between the
    i-th and (i+1)-th shapes.  One depth-first loop over an explicit
    stack adds the letters in turn and places each strip row by row,
    upper rows first.  A stack entry is one partial strip: its chain,
    letter, row, cells left, new row lengths, lattice count and
    ``room``.  Shares are pushed smallest first, so each row's largest
    share and each letter's first strip are taken first, and a caller
    that stops at the first chain builds no other strip.  The depth of
    a walk is bounded by memory, not by the recursion limit.
    Row r of a strip grows to at most ``outer[r]`` and, so that no two
    new cells share a column, to at most the old length of row r-1;
    ``room`` prunes a share that leaves more cells than the rows below
    can take.  The lattice-word condition on the reading word (right to
    left, top to bottom) is one running count, ``lattice``: the (i-1)'s
    in the rows above, less the i's placed so far, which caps each
    row's share.  ``outer`` is a weakly decreasing tuple whose length
    caps the number of rows; ``lam`` may carry trailing zeros up to
    ``len(outer)``, and trailing zero letters of ``mu`` are ignored.
    This is the strip-by-strip scheme of Buch's lrcalc for the rule of
    Fulton, *Young Tableaux*, section 5.
    """
    rows = len(outer)
    if len(lam) > rows:
        return
    start = lam + (0,) * (rows - len(lam))
    if any(map(gt, start, outer)):  # its own guard, not the Bruhat route's predicate
        return
    last = len(mu) - mu.count(0)
    mu = mu[:last] + (0,)  # letter ``last`` is the end of the chain
    stack = [((start,), 0, 0, mu[0], (), mu[0], None)]  # the first letter has no lattice bound
    while stack:
        chain, i, r, left, new, lattice, room = stack.pop()
        shape = chain[-1]
        if i == last:
            yield chain
        elif not left:  # the strip is placed: start the next letter
            stack.append((chain + (new + shape[r:],), i + 1, 0, mu[i + 1], (), 0, None))
        else:
            if not r:  # room[s]: cells the strip can still take in rows >= s
                room = [0] * (rows + 1)
                for s in range(rows - 1, -1, -1):
                    room[s] = room[s + 1] + min(outer[s], shape[s - 1] if s else outer[0]) - shape[s]
            prev = chain[-2] if i else shape
            stack += [(chain, i, r + 1, left - x, new + (shape[r] + x,),
                       lattice - x + shape[r] - prev[r], room)
                      for x in range(max(0, left - room[r + 1]),
                                     min(left, lattice, room[r] - room[r + 1]) + 1)]


def lr_fillings(lam, mu, nu):
    """Yield the LR fillings counted by :func:`lr_coefficient`, one per tableau.

    Each filling is a list of rows of the skew shape nu/lam (row r holds
    the values of cells lam_r+1 .. nu_r, left to right), read off a
    chain of :func:`_lr_walk`.  Fillings come in ascending order of
    their reading words.  Useful for inspection and for testing the
    tableau invariants directly.
    """
    lam, mu, nu = _reduced(lam), _reduced(mu), _reduced(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return
    fillings = [
        [
            [v for v in range(1, len(chain)) for _ in range(chain[v][r] - chain[v - 1][r])]
            for r in range(len(nu))
        ]
        for chain in _lr_walk(lam, mu, nu)
    ]
    fillings.sort(key=lambda f: [v for row in f for v in reversed(row)])
    yield from fillings


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient ``c^nu_{lam,mu}``.

    Context-free: partitions may have any length, trailing zeros are
    ignored.  Returns 0 whenever the weights do not match or lam is not
    contained in nu.
    """
    lam, mu, nu = _reduced(lam), _reduced(mu), _reduced(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    return sum(1 for _ in _lr_walk(lam, mu, nu))


def _lr_vanishes(ctx: GrassmannContext, a: Partition, b: Partition) -> bool:
    """Whether the box-truncated product ``sigma_a * sigma_b`` is zero, by the LR rule.

    Nonzero exactly when some LR tableau of shape nu/a and content b has
    nu inside the box.  Three are known.  Two come from Fulton, *Young
    Tableaux*, section 5: c^{a+b}_{a,b} = 1, rows added, is inside when
    a_1 + b_1 <= n-k, and c^{a u b}_{a,b} = 1, rows merged, when
    l(a) + l(b) <= k+1, l counting nonzero parts.  A pair that fits
    neither weighs at least (a_1 + l(a) - 1) + (b_1 + l(b) - 1) >= n+1,
    equality only for two hooks a = (a_1, 1^p), b = (b_1, 1^q) with
    a_1 + b_1 = n-k+1 and p + q = k.

    The third is nu = (n-k, 2, 1^(k-1)), of weight n+1, inside the box
    when k+1 >= 2 and n-k >= 2: c^nu_{a,b} >= 1 for every such hook
    pair in which neither factor is the full column 1^(k+1).  The
    tableau, with a and b swapped if p = 0 (then q = k >= 1; the
    coefficient is symmetric), so that a's cell (2,1) lies inside nu:

    * row 1, columns a_1+1 .. n-k: b_1 - 1 ones;
    * cell (2,2): 1 if a_1 >= 2, else 2.  When a_1 = 1, a is a column
      shorter than k+1, so q >= 1 and b has a letter 2; b_1 = n-k >= 2,
      so a 1 lies right above it;
    * column 1, rows p+2 .. k+1 (q cells): the letters of b not yet
      placed, in increasing order, which are 2 .. q+1 if a_1 >= 2 and
      1, 3 .. q+1 otherwise.

    Its reading word is 1^(b_1 - 1), then 1 or 2, then those letters,
    and every prefix holds at least as many j's as (j+1)'s: a lattice
    word.  Each column strictly increases down from a's cells, since
    (1,2) is a's when a_1 >= 2 and a 1 otherwise.

    Three kinds of pair are walked, to the first chain of
    :func:`_lr_walk`, the factor of fewer nonzero parts as the content:
    Theorem md's pair (1^(k+1)) x (n-k), whose product is zero; the
    pairs heavier than n+1; and, in a box with one row or one column,
    the hook pairs of weight n+1, which all vanish there.  ``a`` and
    ``b`` are box partitions of ``ctx``.
    """
    if a[0] + b[0] <= ctx.cols or a.count(0) + b.count(0) >= ctx.rows:
        return False
    rows = ctx.rows
    if rows > 1 and ctx.cols > 1 and sum(a) + sum(b) == ctx.n + 1 and (1,) * rows not in (a, b):
        return False  # a hook pair, not Theorem md's: nu = (n-k, 2, 1^(k-1))
    lam, mu = (b, a) if a.count(0) > b.count(0) else (a, b)
    return next(_lr_walk(lam, mu, (ctx.cols,) * ctx.rows), None) is None


def multiply(x: CycleClass, y: CycleClass) -> CycleClass:
    """Product in the Chow ring: bilinear LR expansion, box-truncated.

    Each pair of terms is walked on its k+1 rows to width lam_1 + mu_1,
    the lexicographically larger factor as the content, and the shapes
    wider than the box are cut.
    """
    if x.ctx != y.ctx:
        raise ValueError(f"context mismatch: {x.ctx} vs {y.ctx}")
    cols = x.ctx.cols
    acc: dict[Partition, int] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            lam, mu = (b, a) if (a, b) > (b, a) else (a, b)
            for chain in _lr_walk(lam, mu, (lam[0] + mu[0],) * len(lam)):
                nu = chain[-1]
                if nu[0] <= cols:
                    acc[nu] = acc.get(nu, 0) + ca * cb
    return CycleClass(x.ctx, acc)


def pair_vanishes(ctx: GrassmannContext, a, b) -> bool:
    """Fast vanishing test on codimension partitions: sigma_a*sigma_b == 0?

    Nonvanishing is equivalent to ``a`` fitting inside the dual of
    ``b``, i.e. ``a_j + b_{k+2-j} <= n-k`` for every j.  O(k), no
    tableaux.
    """
    return _not_contained(check_partition(ctx, a), dual_partition(ctx, b))


def product_vanishes_fast(ctx: GrassmannContext, symbol_i, symbol_j) -> bool:
    """Fast vanishing test on symbols: [X_I]*[X_J] == 0?

    The product is nonzero exactly when dual(I) is Bruhat-below J.
    """
    return not bruhat_leq(ctx, dual_symbol(ctx, symbol_i), symbol_j)


def poincare_pair(x: CycleClass, y: CycleClass) -> int:
    """Coefficient of the full-box class in x*y.

    Both classes must be homogeneous with degrees summing to
    dim G(k, n); on basis classes this is 1 exactly on dual pairs.
    """
    if x.ctx != y.ctx:
        raise ValueError(f"context mismatch: {x.ctx} vs {y.ctx}")
    ctx = x.ctx
    if x.degree() + y.degree() != ctx.dim:
        raise ValueError(
            f"degrees {x.degree()} + {y.degree()} do not sum to dim {ctx} = {ctx.dim}"
        )
    full = (ctx.cols,) * ctx.rows
    return multiply(x, y).terms.get(full, 0)
