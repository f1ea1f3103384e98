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
  minimal total codimension;
* :func:`compute_egd` reads the effective good divisibility off them,
  one less than that minimal total codimension, and
  :func:`search_report` reads its zero pairs off them too, since
  nothing below that codimension vanishes;
* :func:`verify_thm_md` and :func:`verify_prop_comp` are mechanical
  checks of the two classification claims this engine is built around,
  over their full hypothesis spaces, reporting counterexamples
  (expected: none).

The md-pairs, egd and both claims all come from one set of pairs, the
*shell zeros*: the vanishing pairs with codimension sum <= n+1.  The
pair {(1, ..., 1), (n-k, 0, ..., 0)} vanishes at n+1 in every G(k, n),
so the md-pairs always lie in that shell; the bound does not assume
egd = n, and a pair vanishing lower would be reported.
``_shell_zeros`` is the one memoized search result, a few pairs per
context.  thm-md and ``search_report(cross_validate=True)`` take the
shell zeros off one scan of their own, ``_lr_cross_check``, which also
asks every pair the Littlewood-Richardson route, ``chow._lr_vanishes``:
in a box of at least two rows and two columns, three tableaux known to
fit answer every shell pair but Theorem md's own, the one pair walked.

Every pair scan runs through one kernel, ``_scan``, which builds the
weight layers up to its codimension bound in one walk of the box,
``core._box_layers``, and keeps them, unmemoized, only while it runs.
Before that, ``_check_scan_size`` refuses more than ``MAX_SCAN_PAIRS``
pairs with a ``ValueError``, from a closed-form lower bound or from the
layer sizes ``core._layer_sizes``, never from a layer;
``_checked_contexts`` runs it on every context of a sweep or a
classification table before the first is checked.  Each pair is tested
as ``b`` not inside ``dual(a)`` through the single predicate
``_not_contained`` of :mod:`schubcalc.core`, which
:func:`schubcalc.chow.pair_vanishes` uses as well.
``verify_prop_comp`` is the ordered reading of the shell zeros: lam is
not inside mu exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so
each unordered pair {a, b} is the two hypotheses (a, dual(b)) and
(b, dual(a)).  Pair enumeration is deterministic:
partitions are ordered by (weight, parts) and unordered pairs are
canonicalized with the smaller partition first.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from schubcalc.chow import _lr_vanishes
from schubcalc.core import (
    GrassmannContext, Partition, _box_layers, _integers, _layer_sizes, _not_contained,
    dual_partition,
)

ZeroPair = tuple[Partition, Partition, int]

# The most unordered basis pairs one scan may test.  It admits every
# G(k, n) with n <= 36 at the claims' bound n+1, G(14, 30) (1,455,537
# pairs, a few seconds) included; a larger request is a usage error
# before any layer is built, not an out-of-memory crash or a hang.
MAX_SCAN_PAIRS = 10_000_000


class MdPair(namedtuple("MdPair", "ctx a b")):
    """A maximal disjoint pair: basis classes with zero product at codim egd+1."""

    __slots__ = ()

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


class SearchReport(namedtuple(
    "SearchReport", "ctx scanned_pair_count zero_pairs computed_egd md_pairs elapsed_ms"
)):
    """Outcome of a full md-pair search on one Grassmannian."""

    __slots__ = ()

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


class VerificationReport(namedtuple(
    "VerificationReport",
    "claim k n status counterexamples hypothesis_count exceptional_pairs",
    defaults=((), 0, None),
)):
    """Result of checking one claim on one Grassmannian; ``status`` is "pass" or "fail"."""

    __slots__ = ()

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


def _check_scan_size(ctx: GrassmannContext, hi: int) -> None:
    """Raise ``ValueError`` if ``ctx`` has more than ``MAX_SCAN_PAIRS`` pairs up to ``hi``.

    ``_scan`` calls it before it scans, and ``_checked_contexts`` on
    every context of a sweep.

    A request far over the limit is refused in O(1), before any list of
    length ``hi`` is built, by a lower bound: with t the smaller of
    hi // 2 and the longer side of the box, the partitions of weight
    <= t with at most two parts (or, transposed, two columns) number
    t + 1 when the shorter side is 1 and (t + 2)**2 // 4 otherwise, and
    any two of them pair within ``hi``.  Otherwise the exact count is
    taken from the layer sizes, without building a layer.
    """
    short, long = sorted((ctx.rows, ctx.cols))
    t = min(hi // 2, long)
    few = t + 1 if short == 1 else (t + 2) ** 2 // 4
    count = few * (few + 1) // 2
    if count > MAX_SCAN_PAIRS:
        count = f"at least {count}"
    else:
        count = _pair_count(ctx, hi)
        if count <= MAX_SCAN_PAIRS:
            return
    raise ValueError(
        f"{ctx} has {count} basis pairs with codim sum <= {hi}, "
        f"over the scan limit of {MAX_SCAN_PAIRS}"
    )


def _checked_contexts(contexts) -> list[GrassmannContext]:
    """``contexts`` as a list, each first passed through ``_check_scan_size`` at n+1.

    The pre-check of a sweep and of a classification table: an
    oversized context is refused before any context is checked, and no
    context after it is drawn from ``contexts``.
    """
    checked = []
    for ctx in contexts:
        _check_scan_size(ctx, ctx.n + 1)
        checked.append(ctx)
    return checked


def _scan(ctx: GrassmannContext, hi: int):
    """Yield ``(a, b, vanishes)`` for every unordered basis pair with |a|+|b| <= hi.

    The scan kernel of every pair search.  It first refuses an oversized
    scan (``_check_scan_size``); then one ``_box_layers`` walk builds
    the layers of weight <= hi, which live as long as the scan.  ``a``
    runs through them in (weight, parts) order and ``b`` from ``a``
    onward in the same order (self-pairs included).  The product is
    symmetric, so each pair is tested as ``b`` not contained in
    ``dual(a)``, with ``dual(a)`` computed once per ``a``.
    """
    _check_scan_size(ctx, hi)
    not_contained = _not_contained
    cols = ctx.cols
    layers = _box_layers(ctx, 0, hi)
    for wa in range(hi // 2 + 1):
        for i, a in enumerate(layers[wa]):
            dual_a = tuple([cols - x for x in reversed(a)])
            for wb in range(wa, hi - wa + 1):
                for b in layers[wb][i if wb == wa else 0:]:
                    yield a, b, not_contained(b, dual_a)


def _lr_cross_check(ctx: GrassmannContext, zeros: list):
    """Yield ``(a, b, fast)``, in scan order, for each shell pair whose LR verdict disagrees.

    One ``_scan`` up to n+1 asks every pair both routes: ``fast`` is the
    Bruhat verdict, the other is ``chow._lr_vanishes``.  Each Bruhat zero
    is appended to ``zeros`` as ``(a, b)``, so a caller that runs the
    generator out has the shell zeros too, for ``_sorted_zeros``.
    """
    for a, b, fast in _scan(ctx, ctx.n + 1):
        if fast:
            zeros.append((a, b))
        if _lr_vanishes(ctx, a, b) != fast:
            yield a, b, fast


def _sorted_zeros(pairs) -> list[ZeroPair]:
    """Vanishing pairs (a, b) as (a, b, codim_sum) with a <= b, sorted by (codim_sum, a, b)."""
    found = [(a, b, sum(a) + sum(b)) if a <= b else (b, a, sum(a) + sum(b)) for a, b in pairs]
    return sorted(found, key=lambda t: (t[2], t[0], t[1]))


def enumerate_zero_pairs(ctx: GrassmannContext, max_codim_sum: int) -> list[ZeroPair]:
    """All unordered basis pairs {a, b} with |a|+|b| <= bound and zero product.

    Returns triples ``(a, b, codim_sum)`` with a <= b, sorted by
    (codim_sum, a, b).  Decided by the Bruhat vanishing test alone.
    """
    (max_codim_sum,) = _integers("max_codim_sum", (max_codim_sum,))
    if not 0 <= max_codim_sum <= 2 * ctx.dim:
        raise ValueError(f"max_codim_sum {max_codim_sum} out of range for {ctx}")
    return _sorted_zeros((a, b) for a, b, vanishes in _scan(ctx, max_codim_sum) if vanishes)


@lru_cache(maxsize=None)
def _shell_zeros(ctx: GrassmannContext) -> tuple[ZeroPair, ...]:
    """The vanishing basis pairs with codim sum <= n+1: the one memoized search result."""
    return tuple(enumerate_zero_pairs(ctx, ctx.n + 1))


def md_pairs(ctx: GrassmannContext) -> tuple[MdPair, ...]:
    """All maximal disjoint basis pairs of ``ctx``, deterministically ordered.

    The shell zeros of the smallest codimension sum, the smaller
    partition of each pair first.  The shell always holds a zero, since
    {[X_H], [X_p]} vanishes at n+1; if it holds none, the vanishing
    predicate is broken and this raises ``RuntimeError``.
    """
    return _md_pairs_of(ctx, _shell_zeros(ctx))


def _md_pairs_of(ctx: GrassmannContext, zeros) -> tuple[MdPair, ...]:
    """The md-pairs read off ``ctx``'s shell zeros, sorted as ``_sorted_zeros`` leaves them."""
    if not zeros:
        raise RuntimeError(f"no vanishing pair with codim sum <= {ctx.n + 1} in {ctx}")
    return tuple(MdPair(ctx, a, b) for a, b, s in zeros if s == zeros[0][2])


def compute_egd(ctx: GrassmannContext) -> int:
    """Effective good divisibility: minimal vanishing codim-sum minus one.

    Read off the md-pairs, which sit at that minimal codim-sum in the
    shell of codim sum <= n+1.  Equals n for every Grassmannian; that
    equality is what the test suite verifies, it is not assumed here.
    """
    return sum(md_pairs(ctx)[0].codims) - 1


def has_mdpair_of_type(ctx: GrassmannContext, pair_type) -> bool:
    """True when some md-pair of ``ctx`` has the given unordered type {i, j}."""
    t = tuple(sorted(_integers("pair type", pair_type)))
    if len(t) != 2:
        raise ValueError(f"pair type must have two entries, got {pair_type}")
    return any(p.pair_type == t for p in md_pairs(ctx))


def _pair_count(ctx: GrassmannContext, max_codim_sum: int) -> int:
    """Number of unordered basis pairs (self-pairs included) with codim sum <= bound.

    Counted in one pass from the layer sizes, without building a layer:
    the ordered pairs plus the self-pairs, halved.
    """
    size = _layer_sizes(ctx, max_codim_sum)
    upto = list(accumulate(size))
    ordered = sum(c * upto[max_codim_sum - w] for w, c in enumerate(size))
    return (ordered + upto[max_codim_sum // 2]) // 2


def search_report(ctx: GrassmannContext, cross_validate: bool = False) -> SearchReport:
    """Full md-pair search: egd, zero pairs at the critical codimension, timing.

    Nothing below egd + 1 vanishes, so the zero pairs are the md-pairs.
    ``cross_validate`` reads them off the zeros of ``_lr_cross_check``,
    which asks the LR rule of every pair of the shell too, and raises
    ``RuntimeError`` at the first pair where it disagrees with the Bruhat test.
    """
    start = time.perf_counter()
    if cross_validate:
        zeros = []
        for a, b, fast in _lr_cross_check(ctx, zeros):
            raise RuntimeError(
                f"vanishing criterion disagrees with LR product on "
                f"{a} x {b} in {ctx}: fast={fast}, lr={not fast}"
            )
        pairs = _md_pairs_of(ctx, _sorted_zeros(zeros))
    else:
        pairs = md_pairs(ctx)
    limit = sum(pairs[0].codims)
    scanned = _pair_count(ctx, limit)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return SearchReport(
        ctx=ctx,
        scanned_pair_count=scanned,
        zero_pairs=tuple((p.a, p.b, limit) for p in pairs),
        computed_egd=limit - 1,
        md_pairs=pairs,
        elapsed_ms=elapsed_ms,
    )


def _require_interior(ctx: GrassmannContext) -> None:
    if not 1 <= ctx.k <= ctx.n - 2:
        raise ValueError(f"claim requires 1 <= k <= n-2, got {ctx}")


def _md_pair(ctx: GrassmannContext) -> tuple[Partition, Partition]:
    """Theorem md's pair {[X_H], [X_p]}: ((1, ..., 1), (n-k, 0, ..., 0)).

    Smaller partition first in every interior G(k, n), where n-k >= 2.
    """
    return (1,) * ctx.rows, (ctx.cols,) + (0,) * (ctx.rows - 1)


def _orderings(ctx: GrassmannContext, a: Partition, b: Partition) -> tuple:
    """The ordered prop-comp hypotheses of the unordered pair {a, b}.

    (a, dual(b)), and (b, dual(a)) too unless the pair is a self-pair.
    """
    if a == b:
        return ((a, dual_partition(ctx, b)),)
    return (a, dual_partition(ctx, b)), (b, dual_partition(ctx, a))


def _report(
    claim: str, ctx: GrassmannContext, counterexamples, hypothesis_count: int,
    exceptional_pairs=None,
) -> VerificationReport:
    """The report of one claim on ``ctx``: it passes exactly when no counterexample is found."""
    return VerificationReport(
        claim=claim,
        k=ctx.k,
        n=ctx.n,
        status="fail" if counterexamples else "pass",
        counterexamples=tuple(counterexamples),
        hypothesis_count=hypothesis_count,
        exceptional_pairs=exceptional_pairs,
    )


def verify_thm_md(ctx: GrassmannContext) -> VerificationReport:
    """Check: the only vanishing basis pair with codim-sum <= n+1 is {[X_H], [X_p]}.

    One scan of the shell, ``_lr_cross_check``, asks every pair the
    Bruhat test and the LR rule, which looks for one tableau inside the
    box rather than multiplying.  Each pair where the two disagree is a
    ``fast-vs-lr-mismatch``, in scan order; of the same scan's Bruhat
    zeros, sorted, each one other than Theorem md's pair is an
    ``unexpected-zero-pair``, and that pair's absence a
    ``missing-expected-pair``.  When the routes agree on every pair their
    zero sets are equal, so a pass means both find only that pair.
    """
    _require_interior(ctx)
    expected = _md_pair(ctx)
    found = []
    counterexamples = [
        {"kind": "fast-vs-lr-mismatch", "a": list(a), "b": list(b)}
        for a, b, _ in _lr_cross_check(ctx, found)
    ]
    zeros = [(a, b) for a, b, _ in _sorted_zeros(found)]
    counterexamples += [
        {"kind": "unexpected-zero-pair", "a": list(a), "b": list(b)}
        for a, b in zeros
        if (a, b) != expected
    ]
    if expected not in zeros:
        counterexamples.append(
            {"kind": "missing-expected-pair", "a": list(expected[0]), "b": list(expected[1])}
        )
    return _report("thm-md", ctx, counterexamples, _pair_count(ctx, ctx.n + 1))


def verify_prop_comp(ctx: GrassmannContext) -> VerificationReport:
    """Check the comparability dichotomy for box partition pairs.

    Over all ordered pairs (lam, mu) of box partitions satisfying
    ``|lam| <= |mu| - k(n-k) + (k+1)``, incomparability ``lam <= mu``
    fails exactly for the two pairs
    ((n-k, 0, ..., 0), (n-k-1, ..., n-k-1)) and
    ((1, ..., 1), (n-k, ..., n-k, 0)).

    The bound is ``|lam| + |dual(mu)| <= n+1`` and lam is not inside mu
    exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so this is the
    ordered reading of the shell of codim sum <= n+1: each unordered
    pair {a, b} stands for the hypotheses ``_orderings(ctx, a, b)``.
    The hypotheses are counted from the layer sizes, the exceptional
    pairs are the orderings of the shell zeros, and the two expected
    ones are the orderings of Theorem md's pair {[X_H], [X_p]}.  Runs
    no scan of its own.
    """
    _require_interior(ctx)
    limit = ctx.n + 1
    expected = _orderings(ctx, *_md_pair(ctx))
    exceptional = [p for a, b, _ in _shell_zeros(ctx) for p in _orderings(ctx, a, b)]
    hypothesis_count = 2 * _pair_count(ctx, limit) - sum(_layer_sizes(ctx, limit // 2))
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
    return _report("prop-comp", ctx, counterexamples, hypothesis_count,
                   exceptional_pairs=tuple(sorted(exceptional)))


def verify_egd(ctx: GrassmannContext) -> VerificationReport:
    """Check compute_egd(ctx) == n, reporting the scanned certificate space."""
    egd = compute_egd(ctx)
    counterexamples = (
        [{"kind": "egd-mismatch", "egd": egd, "expected": ctx.n}] if egd != ctx.n else []
    )
    return _report("egd", ctx, counterexamples, _pair_count(ctx, egd + 1))
