"""Exact adjacency-matrix algebra for stereotype graphs.

Everything here is arbitrary-precision integer arithmetic; the stability
criteria in this module are exact equalities, so no floating point is
allowed anywhere. The characteristic polynomial of a matrix comes from
Berkowitz's division-free recurrence, integer matrix-vector products
over the leading principal blocks, O(n^4) for the whole polynomial. For
a stereotype graph it is reduced to the n x n Seidel matrix of its
pattern first. The stability criteria need only c3, so the
characteristic and chromatically-bipartite criteria,
coefficient_identities and the stability report read c0..c3 from
_leading_shifted_seidel_coefficients: the same recurrence on the first
four coefficients, where every entry of S - I is -1 or +1, so each step
reduces to popcounts of the graph's own pattern rows, O(n^2) word
operations in all, uncached.
stereotype_characteristic_polynomial, the whole polynomial (CLI
charpoly), takes the matrix from the switching class's normalised
pattern, so the cached matrix polynomial is computed once per switching
class. The matrix and strongly-regular criteria check their identity
A^2 + aA = iI + jJ entry by entry on neighbour bitmasks, since
(A^2)_uv = popcount(masks[u] & masks[v]); no dense product is formed.
Every criterion answers from one pair on: K2 satisfies A^2 + A = J and
has c3 = 0, so it reads stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import DomainError, InternalInvariant
from .graphs import Graph
from .model import StereotypeGraph, _normalised_rows
from .polynomials import IntPolynomial

IntMatrix = tuple[tuple[int, ...], ...]


def adjacency_matrix(graph: Graph | StereotypeGraph) -> IntMatrix:
    """Symmetric 0/1 adjacency matrix in canonical vertex-id order."""
    if isinstance(graph, StereotypeGraph):
        graph = graph.graph
    n = graph.vertex_count
    return tuple(tuple(mask >> w & 1 for w in range(n)) for mask in graph.masks)


def bareiss_determinant(matrix: IntMatrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    _require_int_entries(matrix)
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def characteristic_polynomial(matrix: IntMatrix) -> IntPolynomial:
    """Exact coefficients of det(xI - matrix), monic of degree dim.

    Entries must be of type int (bool and float are rejected), checked
    before the cache is read, since equal tuples share one cache key.
    """
    dim = len(matrix)
    if any(len(row) != dim for row in matrix):
        raise DomainError("matrix must be square")
    _require_int_entries(matrix)
    return _characteristic_polynomial_cached(matrix)


@lru_cache(maxsize=8192)
def _characteristic_polynomial_cached(matrix: IntMatrix) -> IntPolynomial:
    dim = len(matrix)
    result = IntPolynomial(tuple(_berkowitz(matrix)))
    if result.degree != dim or result.coefficient(0) != 1:
        raise InternalInvariant("characteristic polynomial is not monic of full degree")
    return result


characteristic_polynomial.cache_info = _characteristic_polynomial_cached.cache_info
characteristic_polynomial.cache_clear = _characteristic_polynomial_cached.cache_clear


def _berkowitz(matrix: IntMatrix) -> list[int]:
    """The coefficients of det(xI - matrix), degree-descending.

    Berkowitz's recurrence: with A the leading r x r block, R the row
    matrix[r][:r] and C the column matrix[:r][r], the polynomial of the
    leading (r+1) x (r+1) block is the lower-triangular Toeplitz matrix
    with first column 1, -matrix[r][r], -RC, -RAC, ..., -RA^(r-1)C times
    that of A. Step r makes r - 1 matrix-vector products, O(n^4) in
    all, with only integer products and sums, no divisions. The column
    has length r, and map stops at the shorter argument, so full rows of
    matrix stand in for the leading block.
    """
    dim = len(matrix)
    if dim == 0:
        return [1]
    poly = [1, -matrix[0][0]]
    for r in range(1, dim):
        row = matrix[r]
        block = matrix[:r]
        column = [line[r] for line in block]
        toeplitz = [1, -row[r], -sum(map(mul, row, column))]
        for _ in range(r - 1):
            column = [sum(map(mul, line, column)) for line in block]
            toeplitz.append(-sum(map(mul, row, column)))
        # reverse[r + 1 - i:] pairs poly[j] with toeplitz[i - j], j <= i.
        reverse = toeplitz[::-1]
        poly = [sum(map(mul, poly, reverse[r + 1 - i :])) for i in range(r + 2)]
    return poly


def _leading_shifted_seidel_coefficients(rows: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The first four coefficients of det(xI - (S - I)) for pattern rows,
    0 past the degree, from popcounts of the rows.

    Berkowitz's recurrence read on four coefficients: step r multiplies
    them by the Toeplitz column 1, -m_rr, -RC, -RAC of the leading
    (r+1) x (r+1) block (see _berkowitz). In M = S - I every diagonal
    entry is -1 and every other entry s_ij = 1 - 2 bit(i, j), a sign, so
    -m_rr = 1, RC = sum_k s_rk^2 = r, and
    RAC = sum_(k<r) s_rk (-s_kr + sum_(l<r, l!=k) s_kl s_lr) = -r + acc.
    The pattern is symmetric, so s_kl s_lr = 1 - 2 (bit l of
    rows[k] ^ rows[r]), and acc sums s_rk (r - 1 - 2 off_k) with off_k
    the popcount of rows[k] ^ rows[r] below bit r, bit k left out. The
    column is then (1, 1, -r, r - acc): r popcounts and no matrix per
    step. Past the block's degree the recurrence gives 0 by
    Cayley-Hamilton, so the four are exact from one pair on.
    """
    p0, p1, p2, p3 = 1, 1, 0, 0
    for r in range(1, len(rows)):
        row, below = rows[r], (1 << r) - 1
        acc, bit = 0, 1
        for other in rows[:r]:
            off = ((other ^ row) & (below ^ bit)).bit_count()
            acc += 2 * off - r + 1 if row & bit else r - 1 - 2 * off
            bit <<= 1
        p0, p1, p2, p3 = p0, p1 + p0, p2 + p1 - r * p0, p3 + p2 - r * p1 + (r - acc) * p0
    return p0, p1, p2, p3


def _shifted_seidel_matrix(rows: tuple[int, ...]) -> IntMatrix:
    """S - I for pattern rows: S has 0 on the diagonal, +1 for parallel
    and -1 for crossed pairs of pairs."""
    n = len(rows)
    return tuple(
        tuple(-1 if i == j else 1 - 2 * (row >> j & 1) for j in range(n))
        for i, row in enumerate(rows)
    )


def _times_x_minus_n(coefficients: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of (x - n) p(x) from those of p, degree-descending."""
    return tuple(a - n * b for a, b in zip(coefficients + (0,), (0,) + coefficients))


def stereotype_characteristic_polynomial(g: StereotypeGraph) -> IntPolynomial:
    """Exact det(xI - A) of a stereotype graph from its n x n Seidel matrix.

    S has 0 on the diagonal, +1 for parallel and -1 for crossed pairs of
    pairs. On the sums u1^i + u2^i A acts as the all-ones n x n matrix J,
    on the differences u1^i - u2^i as S - I, so
    charpoly(A) = x^(n-1) (x - n) charpoly(S - I).

    Switching pairs conjugates S by a diagonal sign matrix D, and DSD has
    the same characteristic polynomial, so S is read from the rows of
    switching_representative(g), without building that graph: every
    pattern of a switching class gives the same matrix and hits the cache
    of characteristic_polynomial.
    """
    shifted = _shifted_seidel_matrix(_normalised_rows(g))
    core = characteristic_polynomial(shifted).coefficients
    return IntPolynomial(_times_x_minus_n(core, g.n) + (0,) * (g.n - 1))


def leading_characteristic_coefficients(g: StereotypeGraph) -> tuple[int, int, int, int]:
    """c0..c3 of det(xI - A), the coefficients of x^(2n)..x^(2n-3).

    The same lift as stereotype_characteristic_polynomial, x^(n-1) (x - n)
    charpoly(S - I), read on its first four coefficients: they need only
    the first four of charpoly(S - I), which
    _leading_shifted_seidel_coefficients computes in O(n^2) popcounts of
    the pattern rows, with no matrix. Those coefficients are switching
    invariants, so g's own rows serve and nothing is cached. For n = 1,
    where A has degree 2, c3 is 0.
    """
    core = _leading_shifted_seidel_coefficients(g.rows)
    head = _times_x_minus_n(core, g.n)[:4]
    if head[0] != 1:
        raise InternalInvariant("characteristic polynomial is not monic")
    return head


@dataclass(frozen=True)
class CoefficientIdentityReport:
    """Observed leading characteristic coefficients and their expected laws."""

    n: int
    c0: int
    c1: int
    c2: int
    c3: int
    triangle_count: int

    @property
    def c0_is_one(self) -> bool:
        return self.c0 == 1

    @property
    def c1_is_zero(self) -> bool:
        return self.c1 == 0

    @property
    def c2_is_minus_n_squared(self) -> bool:
        return self.c2 == -self.n * self.n

    @property
    def c3_nonpositive(self) -> bool:
        return self.c3 <= 0

    @property
    def c3_divisible_by_four(self) -> bool:
        return self.c3 % 4 == 0

    @property
    def c3_counts_triangles(self) -> bool:
        return self.c3 == -2 * self.triangle_count

    @property
    def all_hold(self) -> bool:
        return (
            self.c0_is_one
            and self.c1_is_zero
            and self.c2_is_minus_n_squared
            and self.c3_nonpositive
            and self.c3_divisible_by_four
            and self.c3_counts_triangles
        )


def coefficient_identities(g: StereotypeGraph) -> CoefficientIdentityReport:
    """Check the leading coefficient laws of the characteristic polynomial,
    on any number of pairs; for one pair c0..c3 = (1, 0, -1, 0)."""
    c0, c1, c2, c3 = leading_characteristic_coefficients(g)
    return CoefficientIdentityReport(
        n=g.n, c0=c0, c1=c1, c2=c2, c3=c3, triangle_count=g.graph.triangle_count()
    )


def matrix_criterion(g: StereotypeGraph) -> bool:
    """Stability via the identity A^2 + nA = nJ, checked entrywise; K2
    satisfies it as A^2 + A = J."""
    return _quadratic_identity_holds(g.graph, g.n, 0, g.n)


def characteristic_criterion(g: StereotypeGraph) -> bool:
    """Stability via a vanishing third characteristic coefficient c3, which
    is 0 for K2."""
    return leading_characteristic_coefficients(g)[3] == 0


def minor_criterion(g: StereotypeGraph) -> bool:
    """Stability via the absence of the 3x3 all-off-diagonal-ones principal
    submatrix, i.e. the absence of a triangle; the search stops at the
    first triangle."""
    return not g.graph.has_triangle()


def srg_check(g: StereotypeGraph) -> tuple[int, int, int, int] | None:
    """Strongly-regular parameters (2n, n, 0, n) when every adjacent vertex
    pair shares 0 neighbors and every non-adjacent pair shares exactly n;
    None otherwise. When parameters are found, the quadratic identity
    A^2 + (q-p)A = (k-q)I + qJ is verified as an internal check; the
    parameters come from neighbour-set intersections, a different route
    from the identity's popcounts."""
    graph = g.graph
    n = g.n
    neighbours = [graph.neighbors(v) for v in range(graph.vertex_count)]
    for u, v in itertools.combinations(range(graph.vertex_count), 2):
        common = len(neighbours[u] & neighbours[v])
        if v in neighbours[u]:
            if common != 0:
                return None
        elif common != n:
            return None
    params = (2 * n, n, 0, n)
    _, k, p, q = params
    if not _quadratic_identity_holds(graph, q - p, k - q, q):
        raise InternalInvariant(f"srg identity failed for parameters {params}")
    return params


def _quadratic_identity_holds(graph: Graph, a: int, i: int, j: int) -> bool:
    """Whether A^2 + aA = iI + jJ holds on every entry (u, v) of the
    adjacency matrix A, diagonal and non-adjacent entries included, with
    (A^2)_uv = popcount(masks[u] & masks[v])."""
    masks = graph.masks
    for u, row in enumerate(masks):
        for v, col in enumerate(masks):
            lhs = (row & col).bit_count() + a * (row >> v & 1)
            if lhs != j + (i if u == v else 0):
                return False
    return True


def _require_int_entries(matrix: IntMatrix) -> None:
    if any(type(x) is not int for row in matrix for x in row):
        raise DomainError("matrix entries must be of type int")


__all__ = [
    "CoefficientIdentityReport",
    "IntMatrix",
    "adjacency_matrix",
    "bareiss_determinant",
    "characteristic_criterion",
    "characteristic_polynomial",
    "coefficient_identities",
    "leading_characteristic_coefficients",
    "matrix_criterion",
    "minor_criterion",
    "srg_check",
    "stereotype_characteristic_polynomial",
]
