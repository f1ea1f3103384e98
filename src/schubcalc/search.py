"""Exhaustive zero-divisor searches over Schubert basis pairs.

The effective cone of each codimension in G(k, n) is generated by the
Schubert classes of that codimension, and products of Schubert classes
have nonnegative coefficients, so a product of nonzero effective cycles
vanishes only if some pair of basis classes multiplies to zero.  The
searches here therefore range over unordered pairs of box partitions
(codimension convention, self-pairs included):

* :func:`enumerate_zero_pairs` lists vanishing pairs up to a codimension
  bound;
* :func:`md_pairs` lists maximal disjoint pairs, the vanishing pairs of
  minimal total codimension; it is the one memoized search result;
* :func:`compute_egd` reads the effective good divisibility off them,
  one less than that minimal total codimension, and
  :func:`search_report` reads its zero pairs off them too, since
  nothing below that codimension vanishes;
* :func:`verify_thm_md` and :func:`verify_prop_comp` are mechanical
  checks of the two classification claims this engine is built around,
  scanning their full hypothesis spaces and reporting counterexamples
  (expected: none).

Every pair scan runs through one kernel, ``_scan``, which reads only
the weight layers (:func:`schubcalc.core.box_layer`) up to its
codimension bound, n+1 for the claims, and never the whole box.  It
tests each pair with the O(k) vanishing criterion as a containment
check, ``b`` not inside ``dual(a)``, through the single predicate
``_not_contained`` of :mod:`schubcalc.core`, which
:func:`schubcalc.chow.pair_vanishes` uses as well.
``verify_prop_comp`` is the ordered reading of the same scan: lam is
not inside mu exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so
each unordered pair {a, b} is the two hypotheses (a, dual(b)) and
(b, dual(a)); it reads no layer itself.
``cross_validate`` recomputes every product through the
Littlewood-Richardson route as well.  Pair enumeration is
deterministic: partitions are ordered by (weight, parts) and unordered
pairs are canonicalized with the smaller partition first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from schubcalc.chow import multiply, schubert_class
from schubcalc.core import (
    GrassmannContext, Partition, _integers, _not_contained, box_layer, dual_partition
)

ZeroPair = tuple[Partition, Partition, int]


@dataclass(frozen=True)
class MdPair:
    """A maximal disjoint pair: basis classes with zero product at codim egd+1."""

    ctx: GrassmannContext
    a: Partition
    b: Partition

    @property
    def codims(self) -> tuple[int, int]:
        return (sum(self.a), sum(self.b))

    @property
    def pair_type(self) -> tuple[int, int]:
        """Unordered pair of codimensions, sorted ascending."""
        return tuple(sorted(self.codims))

    def to_json_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "codims": list(self.codims),
            "type": list(self.pair_type),
        }


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a full md-pair search on one Grassmannian."""

    ctx: GrassmannContext
    scanned_pair_count: int
    zero_pairs: tuple[ZeroPair, ...]
    computed_egd: int
    md_pairs: tuple[MdPair, ...]
    elapsed_ms: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "scanned": self.scanned_pair_count,
            "egd": self.computed_egd,
            "zero_pairs": [
                {"a": list(a), "b": list(b), "codim_sum": s}
                for a, b, s in self.zero_pairs
            ],
            "md_pairs": [p.to_json_dict() for p in self.md_pairs],
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Result of mechanically checking one claim on one Grassmannian."""

    claim: str
    k: int
    n: int
    status: str  # "pass" | "fail"
    counterexamples: tuple = ()
    hypothesis_count: int = 0
    exceptional_pairs: tuple = field(default=None)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "k": self.k,
            "n": self.n,
            "status": self.status,
            "counterexamples": [dict(c) for c in self.counterexamples],
            "hypothesis_count": self.hypothesis_count,
        }
        if self.exceptional_pairs is not None:
            out["exceptional_pairs"] = [
                {"lambda": list(a), "mu": list(b)} for a, b in self.exceptional_pairs
            ]
        return out


def _scan(ctx: GrassmannContext, lo: int, hi: int):
    """Yield ``(a, b, vanishes)`` for every unordered basis pair with lo <= |a|+|b| <= hi.

    The scan kernel of every pair search.  It reads only the layers of
    weight <= hi; ``a`` runs through them in (weight, parts) order and
    ``b`` from ``a`` onward in the same order (self-pairs included).
    The product is symmetric, so each pair is tested as ``b`` not
    contained in ``dual(a)``, with ``dual(a)`` computed once per ``a``.
    """
    not_contained = _not_contained
    cols = ctx.cols
    layers = [box_layer(ctx, w) for w in range(hi + 1)]
    for wa in range(hi // 2 + 1):
        for i, a in enumerate(layers[wa]):
            dual_a = tuple([cols - x for x in reversed(a)])
            for wb in range(max(wa, lo - wa), hi - wa + 1):
                for b in layers[wb][i if wb == wa else 0:]:
                    yield a, b, not_contained(b, dual_a)


def enumerate_zero_pairs(
    ctx: GrassmannContext, max_codim_sum: int, cross_validate: bool = False
) -> list[ZeroPair]:
    """All unordered basis pairs {a, b} with |a|+|b| <= bound and zero product.

    Returns triples ``(a, b, codim_sum)`` with a <= b, sorted by
    (codim_sum, a, b).  ``cross_validate`` recomputes every scanned
    product via the LR rule and raises if the two routes ever disagree.
    """
    (max_codim_sum,) = _integers("max_codim_sum", (max_codim_sum,))
    if not 0 <= max_codim_sum <= 2 * ctx.dim:
        raise ValueError(f"max_codim_sum {max_codim_sum} out of range for {ctx}")
    found: list[ZeroPair] = []
    for a, b, vanishes in _scan(ctx, 0, max_codim_sum):
        if cross_validate:
            lr_zero = not multiply(schubert_class(ctx, a), schubert_class(ctx, b))
            if lr_zero != vanishes:
                raise RuntimeError(
                    f"vanishing criterion disagrees with LR product on "
                    f"{a} x {b} in {ctx}: fast={vanishes}, lr={lr_zero}"
                )
        if vanishes:
            s = sum(a) + sum(b)
            found.append((a, b, s) if a <= b else (b, a, s))
    found.sort(key=lambda t: (t[2], t[0], t[1]))
    return found


@lru_cache(maxsize=None)
def md_pairs(ctx: GrassmannContext) -> tuple[MdPair, ...]:
    """All maximal disjoint basis pairs of ``ctx``, deterministically ordered.

    Scans the pairs one total codimension s = 0, 1, ... at a time and
    returns the vanishing pairs of the first s that has any, sorted with
    the smaller partition first.  The one memoized search result:
    :func:`compute_egd` and :func:`search_report` read it.
    """
    for s in range(2 * ctx.dim + 1):
        pairs = sorted((a, b) if a <= b else (b, a) for a, b, v in _scan(ctx, s, s) if v)
        if pairs:
            return tuple(MdPair(ctx, a, b) for a, b in pairs)
    raise RuntimeError(f"no vanishing pair found in {ctx}")  # unreachable: full box squares to zero


def compute_egd(ctx: GrassmannContext) -> int:
    """Effective good divisibility: minimal vanishing codim-sum minus one.

    Read off the md-pairs, which sit at that minimal codim-sum.  Equals
    n for every Grassmannian; that equality is what the test suite
    verifies, it is not assumed here.
    """
    return sum(md_pairs(ctx)[0].codims) - 1


def has_mdpair_of_type(ctx: GrassmannContext, pair_type) -> bool:
    """True when some md-pair of ``ctx`` has the given unordered type {i, j}."""
    t = tuple(sorted(_integers("pair type", pair_type)))
    if len(t) != 2:
        raise ValueError(f"pair type must have two entries, got {pair_type}")
    return any(p.pair_type == t for p in md_pairs(ctx))


def _pair_count(ctx: GrassmannContext, max_codim_sum: int) -> int:
    """Number of unordered basis pairs (self-pairs included) with codim sum <= bound."""
    cnt = [len(box_layer(ctx, w)) for w in range(max_codim_sum + 1)]
    scanned = 0
    for wa in range(max_codim_sum // 2 + 1):
        scanned += cnt[wa] * (cnt[wa] + 1) // 2
        scanned += cnt[wa] * sum(cnt[wa + 1:max_codim_sum - wa + 1])
    return scanned


def search_report(ctx: GrassmannContext, cross_validate: bool = False) -> SearchReport:
    """Full md-pair search: egd, zero pairs at the critical codimension, timing.

    Nothing below egd + 1 vanishes, so the zero pairs are the md-pairs.
    ``cross_validate`` first rescans every pair up to egd + 1 through
    :func:`enumerate_zero_pairs`, which raises if the LR route disagrees.
    """
    start = time.perf_counter()
    pairs = md_pairs(ctx)
    egd = compute_egd(ctx)
    limit = egd + 1
    if cross_validate:
        enumerate_zero_pairs(ctx, limit, cross_validate=True)
    scanned = _pair_count(ctx, limit)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return SearchReport(
        ctx=ctx,
        scanned_pair_count=scanned,
        zero_pairs=tuple((p.a, p.b, limit) for p in pairs),
        computed_egd=egd,
        md_pairs=pairs,
        elapsed_ms=elapsed_ms,
    )


def _require_interior(ctx: GrassmannContext) -> None:
    if not 1 <= ctx.k <= ctx.n - 2:
        raise ValueError(f"claim requires 1 <= k <= n-2, got {ctx}")


def verify_thm_md(ctx: GrassmannContext) -> VerificationReport:
    """Check: the only vanishing basis pair with codim-sum <= n+1 is {[X_H], [X_p]}.

    Scans every unordered basis pair in range, computing the product
    with BOTH the Bruhat test and the LR rule; any disagreement or any
    unexpected (missing) zero pair is a counterexample.
    """
    _require_interior(ctx)
    cols, limit = ctx.cols, ctx.n + 1
    counterexamples: list[dict] = []
    zero_found: list[tuple[Partition, Partition]] = []
    scanned = 0
    for a, b, fast in _scan(ctx, 0, limit):
        scanned += 1
        lr_zero = not multiply(schubert_class(ctx, a), schubert_class(ctx, b))
        if fast != lr_zero:
            counterexamples.append(
                {"kind": "fast-vs-lr-mismatch", "a": list(a), "b": list(b)}
            )
        if lr_zero:
            zero_found.append((a, b) if a <= b else (b, a))
    expected = tuple(
        sorted([(1,) * ctx.rows, (cols,) + (0,) * (ctx.rows - 1)])
    )
    for a, b in zero_found:
        if (a, b) != expected:
            counterexamples.append(
                {"kind": "unexpected-zero-pair", "a": list(a), "b": list(b)}
            )
    if expected not in zero_found:
        counterexamples.append(
            {
                "kind": "missing-expected-pair",
                "a": list(expected[0]),
                "b": list(expected[1]),
            }
        )
    return VerificationReport(
        claim="thm-md",
        k=ctx.k,
        n=ctx.n,
        status="pass" if not counterexamples else "fail",
        counterexamples=tuple(counterexamples),
        hypothesis_count=scanned,
    )


def verify_prop_comp(ctx: GrassmannContext) -> VerificationReport:
    """Check the comparability dichotomy for box partition pairs.

    Over all ordered pairs (lam, mu) of box partitions satisfying
    ``|lam| <= |mu| - k(n-k) + (k+1)``, incomparability ``lam <= mu``
    fails exactly for the two pairs
    ((n-k, 0, ..., 0), (n-k-1, ..., n-k-1)) and
    ((1, ..., 1), (n-k, ..., n-k, 0)).

    The bound is ``|lam| + |dual(mu)| <= n+1`` and lam is not inside mu
    exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so this is the
    ordered reading of ``_scan(ctx, 0, n+1)``: each unordered pair
    {a, b} stands for the hypotheses (a, dual(b)) and (b, dual(a)), a
    self-pair for one, and the two exceptional pairs are the two
    orderings of Theorem md's pair {[X_H], [X_p]}.
    """
    _require_interior(ctx)
    rows, cols = ctx.rows, ctx.cols
    expected = {
        ((cols,) + (0,) * (rows - 1), (cols - 1,) * rows),
        ((1,) * rows, (cols,) * (rows - 1) + (0,)),
    }
    exceptional: list[tuple[Partition, Partition]] = []
    hypothesis_count = 0
    for a, b, incomparable in _scan(ctx, 0, ctx.n + 1):
        hypothesis_count += 1 if a == b else 2
        if incomparable:
            exceptional.append((a, dual_partition(ctx, b)))
            if a != b:
                exceptional.append((b, dual_partition(ctx, a)))
    counterexamples = [
        {"kind": "incomparable-but-unexpected", "lambda": list(lam), "mu": list(mu)}
        for lam, mu in exceptional
        if (lam, mu) not in expected
    ]
    counterexamples += [
        {"kind": "expected-pair-not-found", "lambda": list(lam), "mu": list(mu)}
        for lam, mu in sorted(expected)
        if (lam, mu) not in exceptional
    ]
    return VerificationReport(
        claim="prop-comp",
        k=ctx.k,
        n=ctx.n,
        status="pass" if not counterexamples else "fail",
        counterexamples=tuple(counterexamples),
        hypothesis_count=hypothesis_count,
        exceptional_pairs=tuple(sorted(exceptional)),
    )


def verify_egd(ctx: GrassmannContext) -> VerificationReport:
    """Check compute_egd(ctx) == n, reporting the scanned certificate space."""
    egd = compute_egd(ctx)
    counterexamples: tuple = ()
    if egd != ctx.n:
        counterexamples = (
            {"kind": "egd-mismatch", "egd": egd, "expected": ctx.n},
        )
    return VerificationReport(
        claim="egd",
        k=ctx.k,
        n=ctx.n,
        status="pass" if not counterexamples else "fail",
        counterexamples=counterexamples,
        hypothesis_count=_pair_count(ctx, egd + 1),
    )
