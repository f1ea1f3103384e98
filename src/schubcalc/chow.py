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

The module also provides the O(k) vanishing test: ``[X_I]*[X_J]`` is
nonzero if and only if the dual symbol of I is Bruhat-below J.  Both
routes (tableau counting and the Bruhat test) are implemented
independently and cross-validated by the test suite.

Everything is pure and safe for concurrent use; the only shared state
is an internal memo of basis products, which is deterministic and
handed out as read-only mappings.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from types import MappingProxyType

from schubcalc.core import (
    GrassmannContext,
    Partition,
    bruhat_leq,
    check_partition,
    check_symbol,
    dual_symbol,
    partition_contains,
)


def _reduced(parts) -> tuple[int, ...]:
    """Strip trailing zeros; validate weak decrease and nonnegativity."""
    p = tuple(int(x) for x in parts)
    if any(a < b for a, b in zip(p, p[1:])) or (p and p[-1] < 0):
        raise ValueError(f"{p} is not a partition")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


class CycleClass:
    """An element of the Chow ring in the Schubert basis.

    ``terms`` maps box partitions (codimension convention, fixed length
    k+1) to nonzero integer coefficients.  Mixed-degree classes are
    representable; grading-sensitive operations reject them.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GrassmannContext, terms) -> None:
        self.ctx = ctx
        clean: dict[Partition, int] = {}
        for part, coeff in dict(terms).items():
            c = int(coeff)
            if c != 0:
                clean[check_partition(ctx, part)] = c
        self.terms = clean

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
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0) + c
        return CycleClass(self.ctx, acc)

    def __mul__(self, other: "CycleClass") -> "CycleClass":
        return multiply(self, other)

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
        red = _reduced(p)
        name = "σ(" + (",".join(str(v) for v in red) if red else "0") + ")"
        c = x.terms[p]
        bits.append(name if c == 1 else f"{c}*{name}")
    return " + ".join(bits)


def schubert_class(ctx: GrassmannContext, parts) -> CycleClass:
    """The basis class ``sigma_a`` (codimension convention), coefficient 1."""
    return CycleClass(ctx, {check_partition(ctx, parts): 1})


def fundamental_class(ctx: GrassmannContext) -> CycleClass:
    """The ring identity ``sigma_0``."""
    return schubert_class(ctx, (0,) * ctx.rows)


def zero_class(ctx: GrassmannContext) -> CycleClass:
    return CycleClass(ctx, {})


def _lr_count(lam_p: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Backtracking count of LR fillings of nu/lam with content mu.

    Cells are visited in reading order (rows top to bottom, right to
    left within a row) so the lattice-word condition can be enforced
    incrementally: value v may be placed only while its running count
    stays strictly below the count of v-1.  ``lam_p`` must be padded to
    ``len(nu)``.
    """
    nmu = len(mu)
    grid = [[0] * r for r in nu]
    cells = []
    for r in range(len(nu)):
        for c in range(nu[r] - 1, lam_p[r] - 1, -1):
            cells.append((r, c))
    total = len(cells)
    counts = [0] * (nmu + 1)

    def place(t: int) -> int:
        if t == total:
            return 1
        r, c = cells[t]
        row = grid[r]
        hi = row[c + 1] if c + 1 < nu[r] else nmu
        if r + 1 < hi:
            hi = r + 1  # entries in row r are at most r+1 (1-based row index)
        if r > 0 and c >= lam_p[r - 1]:
            lo = grid[r - 1][c] + 1
        else:
            lo = 1
        found = 0
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            row[c] = v
            found += place(t + 1)
            counts[v] -= 1
        return found

    return place(0)


def lr_fillings(lam, mu, nu):
    """Yield the LR fillings counted by :func:`lr_coefficient`, one per tableau.

    Each filling is a list of rows of the skew shape nu/lam (row r holds
    the values of cells lam_r+1 .. nu_r, left to right).  Useful for
    inspection and for testing the tableau invariants directly; the
    counting routine is the optimized twin of this generator.
    """
    lam, mu, nu = _reduced(lam), _reduced(mu), _reduced(nu)
    if sum(nu) != sum(lam) + sum(mu) or not partition_contains(nu, lam):
        return
    lam_p = lam + (0,) * (len(nu) - len(lam))
    if not mu:
        yield [[] for _ in nu]
        return
    nmu = len(mu)
    grid = [[0] * r for r in nu]
    cells = []
    for r in range(len(nu)):
        for c in range(nu[r] - 1, lam_p[r] - 1, -1):
            cells.append((r, c))
    counts = [0] * (nmu + 1)

    def place(t):
        if t == len(cells):
            yield [row[lam_p[r]:] for r, row in enumerate(grid)]
            return
        r, c = cells[t]
        row = grid[r]
        hi = min(row[c + 1] if c + 1 < nu[r] else nmu, r + 1)
        lo = grid[r - 1][c] + 1 if r > 0 and c >= lam_p[r - 1] else 1
        for v in range(lo, hi + 1):
            if counts[v] >= mu[v - 1] or (v > 1 and counts[v] >= counts[v - 1]):
                continue
            counts[v] += 1
            row[c] = v
            yield from place(t + 1)
            counts[v] -= 1

    yield from place(0)


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient ``c^nu_{lam,mu}``.

    Context-free: partitions may have any length, trailing zeros are
    ignored.  Returns 0 whenever the weights do not match or lam is not
    contained in nu.
    """
    lam, mu, nu = _reduced(lam), _reduced(mu), _reduced(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not partition_contains(nu, lam) or not partition_contains(nu, mu):
        return 0
    if not mu:
        return 1
    lam_p = lam + (0,) * (len(nu) - len(lam))
    # row 1 of nu/lam is forced to be all 1's, so it holds at most mu_1 cells
    if nu[0] - lam_p[0] > mu[0]:
        return 0
    # every column of nu/lam has at most len(mu) cells
    nmu = len(mu)
    for r in range(nmu, len(nu)):
        if nu[r] > lam_p[r - nmu]:
            return 0
    return _lr_count(lam_p, mu, nu)


def _product_candidates(
    lam: tuple[int, ...], mu: tuple[int, ...], max_rows: int
) -> list[tuple[int, ...]]:
    """Shapes that can support a nonzero coefficient in sigma_lam*sigma_mu.

    Enumerates partitions nu with lam inside nu, |nu| = |lam| + |mu|,
    at most ``max_rows`` rows, first part at most lam_1 + mu_1, and the
    per-column bound len(column of nu/lam) <= len(mu).
    """
    total = sum(lam) + sum(mu)
    lam_p = lam + (0,) * (max_rows - len(lam))
    cap0 = (lam[0] if lam else 0) + (mu[0] if mu else 0)
    nmu = len(mu)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], row: int, left: int) -> None:
        if row == max_rows:
            if left == 0:
                p = list(prefix)
                while p and p[-1] == 0:
                    p.pop()
                out.append(tuple(p))
            return
        hi = prefix[row - 1] if row else cap0
        if nmu and row >= nmu:
            hi = min(hi, lam_p[row - nmu])
        lo = lam_p[row]
        if hi * (max_rows - row) < left:
            return
        for v in range(min(hi, left), lo - 1, -1):
            prefix.append(v)
            rec(prefix, row + 1, left - v)
            prefix.pop()

    rec([], 0, total)
    return out


def _read_only_views(memo):
    """Hand out each mapping memoized by ``memo`` as a read-only view.

    The memo keeps plain dicts, which the garbage collector stops
    tracking (their keys and values are ints and tuples of ints).  A
    view stored in the memo would stay tracked as long as the memo
    holds it, and with a full memo that lengthened every collector
    pause; so a view is made per call instead.  ``cache_info`` and
    ``cache_clear`` pass through.
    """

    @wraps(memo)
    def views(*args):
        return MappingProxyType(memo(*args))

    views.cache_info, views.cache_clear = memo.cache_info, memo.cache_clear
    return views


@_read_only_views
@lru_cache(maxsize=131072)
def _basis_product(
    lam: tuple[int, ...], mu: tuple[int, ...], max_rows: int
) -> dict[tuple[int, ...], int]:
    """LR expansion of sigma_lam*sigma_mu truncated to ``max_rows`` rows.

    Keys are reduced partitions (no trailing zeros); columns are not
    truncated here, so the memo is shared across all ambient boxes with
    the same number of rows.  Callers get a read-only view, so they
    cannot change what later products see.
    """
    if (lam, mu) > (mu, lam):
        lam, mu = mu, lam
    out: dict[tuple[int, ...], int] = {}
    for nu in _product_candidates(lam, mu, max_rows):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def multiply(x: CycleClass, y: CycleClass) -> CycleClass:
    """Product in the Chow ring: bilinear LR expansion, box-truncated."""
    if x.ctx != y.ctx:
        raise ValueError(f"context mismatch: {x.ctx} vs {y.ctx}")
    ctx = x.ctx
    rows, cols = ctx.rows, ctx.cols
    acc: dict[Partition, int] = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            for nu, c in _basis_product(_reduced(a), _reduced(b), rows).items():
                if nu and nu[0] > cols:
                    continue
                key = nu + (0,) * (rows - len(nu))
                acc[key] = acc.get(key, 0) + ca * cb * c
    return CycleClass(ctx, acc)


def pair_vanishes(ctx: GrassmannContext, a, b) -> bool:
    """Fast vanishing test on codimension partitions: sigma_a*sigma_b == 0?

    Nonvanishing is equivalent to ``a`` fitting inside the dual of
    ``b``, i.e. ``a_j + b_{k+2-j} <= n-k`` for every j.  O(k), no
    tableaux.
    """
    a = check_partition(ctx, a)
    b = check_partition(ctx, b)
    return _pair_vanishes_unchecked(a, b, ctx.k, ctx.cols)


def _pair_vanishes_unchecked(a, b, k: int, cols: int) -> bool:
    for t in range(k + 1):
        if a[t] + b[k - t] > cols:
            return True
    return False


def product_vanishes_fast(ctx: GrassmannContext, symbol_i, symbol_j) -> bool:
    """Fast vanishing test on symbols: [X_I]*[X_J] == 0?

    The product is nonzero exactly when dual(I) is Bruhat-below J.
    """
    i = check_symbol(ctx, symbol_i)
    j = check_symbol(ctx, symbol_j)
    return not bruhat_leq(ctx, dual_symbol(ctx, i), j)


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
