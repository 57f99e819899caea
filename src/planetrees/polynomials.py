"""Exact polynomial statistics of the tree families, and the identities
they satisfy.

Weights.  A labeled plane tree with a improper and b proper edges
contributes x^a y^b.  In the root-1 family the edges at vertex 1 (always
proper) are marked t instead of y, so a tree contributes x^impr y^(prop-d)
t^d where d is the degree of vertex 1.  An increasing tree contributes
t^(root degree).  Summing over a whole family gives, per n:

* ``edge_status_polynomial``   over all labeled plane trees,
* ``rooted_edge_status_polynomial``  over the root-1 trees,
* ``root_degree_polynomial``   over the increasing trees.

Enumeration.  These sums count every object exactly and build no tree:
they read the shapes from ``counting`` and never load the tree layer.
The edge-status sums take each shape's histograms by improper edge count
from one sum over the sets of its vertices: handing out the labels in
increasing order, the improper edges the next label adds depend only on
the vertices labeled so far and on the one it goes to, so 2^(n+1) sets
stand in for the (n+1)! labelings.  The sum for the empty set is the
labeled histogram and the sum for the root alone the root-1 one; P_n at
x = y = 1 counts the labelings summed.  The root-degree sum takes each
shape's increasing labelings from a like sum over the sets of its vertices
that hold the root, and weights them by t^(root degree).  Each n's subset
sums run once per process.

Closed forms.  The first sum collapses to (2n-1)!! (x+y)^n and the second
to sum_r S[n,r] t^r (x+y)^(n-r), where S[n,r] counts increasing trees with
n edges and root degree r; :func:`verify_closed_forms` checks both against
the enumerated sums, taking S from the enumerated third sum.
:func:`root_degree_counts` gives S[n,r] past the enumeration bound by
Lagrange inversion of 1/(1 - t + t sqrt(1-2q)):
S[n,r] = r (n-1)! C(2n-r-1, n-r) / 2^(n-r) for n >= 1.

Generating functions.  The exponential generating functions
A(q) = sum_n A_n q^n/n! satisfy, written multiplicatively so that no series
inverse is ever needed (the natural denominators have non-invertible
constant terms such as x+y), one identity A(q) ((c-s) + s sqrt(1-2uq)) = c:

* (sum_n P_n q^n/n!) * sqrt(1-2(x+y)q)              = 1
* (sum_n O_n q^n/n!) * (x+y-t + t sqrt(1-2(x+y)q))  = x+y
* (sum_n S_n q^n/n!) * (1-t  + t sqrt(1-2q))        = 1

that is (c, s, u) = (1, 1, x+y), (x+y, t, x+y) and (1, t, 1).  As
m! [q^m] sqrt(1-2uq) = -(2m-3)!! u^m for m >= 1, the q^N/N! coefficient of
the product is a binomial convolution with integer weights: the identity
holds through q^order when A_0 = 1 and, for 1 <= N <= order,

    c A_N = s * sum_{m=1..N} C(N, m) (2m-3)!! u^m A_{N-m},   (-1)!! = 1.

:func:`verify_egf_identities` checks all three through a requested order,
drawing coefficients from enumeration, from the closed forms, or from both.

Everything here is exact integer arithmetic on polynomials in x, y and t,
with no series and no rationals (:class:`Polynomial` takes int scalars
only).  This is deliberately not a general computer-algebra layer; three
fixed variables and evaluation at scalars is all the identities need.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from .counting import (
    MAX_INCREASING_EDGES,
    MAX_LABELED_EDGES,
    _require_bound,
    odd_double_factorial,
    plane_shapes,
)

MAX_SERIES_ORDER = 10


class Polynomial:
    """Sparse exact polynomial in x, y and t.

    Terms live in a read-only mapping keyed by exponent triples;
    coefficients are ints, the only scalars arithmetic accepts, and zero
    coefficients are never stored.  Instances are immutable, so a sum the
    module memoizes is handed out as it is: no caller can change it under
    the next one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        object.__setattr__(self, "coeffs", MappingProxyType(
            {k: v for k, v in (coeffs or {}).items() if v}))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({(0, 0, 0): value})

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0) + val
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({k: v * other for k, v in self.coeffs.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict = defaultdict(int)
        for (a1, b1, c1), v1 in self.coeffs.items():
            for (a2, b2, c2), v2 in other.coeffs.items():
                out[(a1 + a2, b1 + b2, c1 + c2)] += v1 * v2
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, power: int):
        if power < 0:
            raise ValueError("negative powers are not defined here")
        result = Polynomial.constant(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    def eval(self, x, y, t):
        return sum(v * x ** a * y ** b * t ** c
                   for (a, b, c), v in self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        # canonical order: descending on (t exponent, x exponent, y exponent)
        keys = sorted(self.coeffs, key=lambda k: (k[2], k[0], k[1]),
                      reverse=True)
        parts = []
        for a, b, c in keys:
            coeff = self.coeffs[(a, b, c)]
            names = ""
            for name, e in (("t", c), ("x", a), ("y", b)):
                if e == 1:
                    names += name
                elif e > 1:
                    names += f"{name}^{e}"
            if not names:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(names)
            elif coeff == -1:
                parts.append("-" + names)
            else:
                parts.append(f"{coeff}{names}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, int):
        return Polynomial.constant(value)
    return NotImplemented


X = Polynomial({(1, 0, 0): 1})
Y = Polynomial({(0, 1, 0): 1})
T = Polynomial({(0, 0, 1): 1})


# ---- enumerated statistics ----

def _shape_histograms(parents):
    """(root degree, labeled, root-first) of the shape with these preorder
    parents: entry a of each histogram counts the labelings, all or those
    giving the root label 1, with a improper edges.

    Labels 1, 2, ... are handed out in increasing order.  The edge into a
    child c of v is improper exactly when the first vertex of
    A_c = {v} + [c, end(v)) to get a label lies in c's subtree [c, end(c)),
    so the next label, given to w once the set S is labeled, adds the
    number of vertices c on the path from w up to the root (root excluded)
    with A_c disjoint from S.  f[S], the histogram over the orders in which
    the rest get their labels, sums f[S + w] shifted by that number over
    the w outside S; f[{}] is the labeled histogram and f[{root}] the
    root-first one.  A histogram is one int with a digit of ``width`` bits
    per improper count: no entry exceeds count!, so no digit carries.
    """
    count = len(parents)
    full = (1 << count) - 1
    width = math.factorial(count).bit_length()
    end = list(range(1, count + 1))  # one past the last vertex of each subtree
    for v in range(count - 1, 0, -1):
        end[parents[v]] = max(end[parents[v]], end[v])
    up = [0] * count  # each vertex and its ancestors below the root, as bits
    closes = [0] * count  # the c whose A_c holds each vertex, as bits
    for c in range(1, count):
        p = parents[c]
        up[c] = up[p] | 1 << c
        for u in (p, *range(c, end[p])):
            closes[u] |= 1 << c
    disjoint = [full - 1]  # per set S, the c with A_c disjoint from S
    for s in range(1, full + 1):
        low = s & -s
        disjoint.append(disjoint[s ^ low] & ~closes[low.bit_length() - 1])
    moves = [(1 << w, up[w]) for w in range(count)]
    f = [0] * full + [1]
    for s in range(full - 1, -1, -1):
        open_ = disjoint[s]
        total = 0
        for bit, path in moves:
            if not s & bit:
                total += f[s | bit] << width * (open_ & path).bit_count()
        f[s] = total
    digit = (1 << width) - 1
    labeled, root_first = ([h >> width * a & digit for a in range(count)]
                           for h in (f[0], f[1]))
    return parents.count(0), labeled, root_first


def _increasing_labelings(parents):
    """Increasing labelings of the shape with these preorder parents.

    Labels 1, 2, ... are handed out in increasing order, the root first,
    each to an unlabeled vertex w whose parent has one.  h[S], for the sets
    S that hold the root (the odd ones), counts the orders in which the
    labels reach S and adds to h[S + w]; h[all] is the count.  free[S] holds
    the vertices S can add, so free[S + w] is free[S] without w and with w's
    children.  A set never reached keeps h = 0 and is skipped.
    """
    full = (1 << len(parents)) - 1
    kids = {1 << v: 0 for v in range(len(parents))}  # by vertex bit, as bits
    for w in range(1, len(parents)):
        kids[1 << parents[w]] |= 1 << w
    h = [0] * (full + 1)
    free = [0] * (full + 1)
    h[1] = 1
    free[1] = kids[1]
    for s in range(1, full, 2):
        ways = h[s]
        if ways:
            open_ = rest = free[s]
            while rest:
                bit = rest & -rest
                rest ^= bit
                t = s | bit
                h[t] += ways
                free[t] = open_ ^ bit | kids[bit]
    return h[full]


def edge_status_polynomial(n: int, *, force: bool = False) -> Polynomial:
    """Sum of x^impr y^prop over all labeled plane trees with n edges."""
    _require_bound(n, MAX_LABELED_EDGES, force, "labeled trees")
    return _edge_status_sums(n)[0]


def rooted_edge_status_polynomial(n: int, *,
                                  force: bool = False) -> Polynomial:
    """Sum of x^impr y^(prop-d) t^d over root-1 trees, d the root degree."""
    _require_bound(n, MAX_LABELED_EDGES, force, "root-1 trees")
    return _edge_status_sums(n)[1]


def root_degree_polynomial(n: int, *, force: bool = False) -> Polynomial:
    """Sum of t^(root degree) over all increasing plane trees with n edges."""
    _require_bound(n, MAX_INCREASING_EDGES, force, "increasing trees")
    return _root_degree_sum(n)


@cache
def _edge_status_sums(n: int) -> tuple[Polynomial, Polynomial]:
    """(P_n, O_n) from every shape's subset sums, once per n per process."""
    labeled = [0] * (n + 1)
    rooted: dict = defaultdict(int)
    for shape in plane_shapes(n):
        deg, hist, root_first = _shape_histograms(shape)
        for a, cnt in enumerate(hist):
            labeled[a] += cnt
            rooted[(a, n - a - deg, deg)] += root_first[a]
    return (Polynomial({(a, n - a, 0): c for a, c in enumerate(labeled)}),
            Polynomial(rooted))


@cache
def _root_degree_sum(n: int) -> Polynomial:
    """S_n as each shape's increasing labelings, from their subset sum,
    times t^(root degree), once per n per process."""
    degrees: dict = defaultdict(int)
    for shape in plane_shapes(n):
        degrees[shape.count(0)] += _increasing_labelings(shape)
    return Polynomial({(0, 0, r): c for r, c in degrees.items()})


# ---- closed forms ----

def edge_status_closed_form(n: int) -> Polynomial:
    return odd_double_factorial(n) * (X + Y) ** n


def root_degree_counts(n: int) -> dict[int, int]:
    """Increasing trees with n edges by root degree, by Lagrange inversion
    of their generating function; no enumeration, so any n is fine."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return {0: 1}
    # S[n, r] = r (n-1)! C(2n-r-1, n-r) / 2^(n-r), an exact division
    scale = math.factorial(n - 1)
    return {r: (r * scale * math.comb(2 * n - r - 1, n - r)) >> (n - r)
            for r in range(1, n + 1)}


def root_degree_closed_form(n: int) -> Polynomial:
    return Polynomial({(0, 0, r): c for r, c in root_degree_counts(n).items()})


def _rooted_from_degrees(n: int, counts: dict[int, int]) -> Polynomial:
    """sum_r c_r t^r (x+y)^(n-r) for root-degree counts {r: c_r}."""
    xy = X + Y
    return sum((c * T ** r * xy ** (n - r) for r, c in counts.items()),
               Polynomial())


def rooted_closed_form(n: int) -> Polynomial:
    return _rooted_from_degrees(n, root_degree_counts(n))


# ---- verification ----

class ClosedFormReport(NamedTuple):
    n: int
    labeled: Polynomial
    rooted: Polynomial
    labeled_ok: bool
    rooted_ok: bool

    @property
    def passed(self) -> bool:
        return self.labeled_ok and self.rooted_ok


def verify_closed_forms(n: int, *, force: bool = False) -> ClosedFormReport:
    """Check both enumerated statistics against their closed forms.

    The rooted comparison takes its root-degree coefficients from the
    enumerated increasing-tree polynomial, keeping the two routes
    independent.
    """
    labeled = edge_status_polynomial(n, force=force)
    rooted = rooted_edge_status_polynomial(n, force=force)
    degrees = root_degree_polynomial(n, force=force)
    expected_rooted = _rooted_from_degrees(
        n, {r: c for (_, _, r), c in degrees.coeffs.items()})
    return ClosedFormReport(
        n=n,
        labeled=labeled,
        rooted=rooted,
        labeled_ok=labeled == edge_status_closed_form(n),
        rooted_ok=rooted == expected_rooted,
    )


class EgfReport(NamedTuple):
    order: int
    source: str
    labeled_ok: bool
    rooted_ok: bool
    degree_ok: bool

    @property
    def passed(self) -> bool:
        return self.labeled_ok and self.rooted_ok and self.degree_ok


def _coefficient_table(n: int, source: str):
    if source == "enumerated" or (source == "auto" and n <= MAX_LABELED_EDGES):
        return (edge_status_polynomial(n),
                rooted_edge_status_polynomial(n),
                root_degree_polynomial(n))
    return (edge_status_closed_form(n),
            rooted_closed_form(n),
            root_degree_closed_form(n))


def _egf_holds(coeffs: list[Polynomial], c, s, u) -> bool:
    """Whether A(q) ((c-s) + s sqrt(1-2uq)) = c through q^order, with
    A_N = ``coeffs[N]`` and order = len(coeffs) - 1, by the integer
    convolutions of the module docstring."""
    if coeffs[0] != 1:
        return False
    powers = [Polynomial.constant(1)]  # u^m
    for n in range(1, len(coeffs)):
        powers.append(powers[-1] * u)
        tail = sum((math.comb(n, m) * odd_double_factorial(m - 1)
                    * powers[m] * coeffs[n - m] for m in range(1, n + 1)),
                   Polynomial())
        if c * coeffs[n] != s * tail:
            return False
    return True


def verify_egf_identities(order: int, *, source: str = "auto",
                          force: bool = False) -> EgfReport:
    """Check the three generating-function identities through q^order.

    ``source`` picks where the per-n coefficients come from: "enumerated"
    (order capped by the enumeration bound), "closed", or "auto"
    (enumerated up to the bound, closed forms beyond it).
    """
    if source not in ("auto", "enumerated", "closed"):
        raise ValueError(f"unknown source {source!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_SERIES_ORDER and not force:
        raise ValueError(
            f"order={order} exceeds the default bound {MAX_SERIES_ORDER}; "
            f"force to run anyway (--force)")
    if source == "enumerated" and order > MAX_LABELED_EDGES:
        raise ValueError(
            f"enumerated coefficients stop at order {MAX_LABELED_EDGES}")

    tables = [_coefficient_table(n, source) for n in range(order + 1)]
    xy = X + Y
    return EgfReport(
        order=order,
        source=source,
        labeled_ok=_egf_holds([t[0] for t in tables], 1, 1, xy),
        rooted_ok=_egf_holds([t[1] for t in tables], xy, T, xy),
        degree_ok=_egf_holds([t[2] for t in tables], 1, T, 1),
    )
