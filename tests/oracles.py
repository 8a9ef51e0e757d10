"""Independent oracles used by the test suite.

Everything here is deliberately written from first principles, without
touching the library's own code paths: breadth-first reduced words, the
Bruhat order on S_N by sorted prefixes, the Durfee square and Frobenius
coordinates counted cell by cell, explicit tableau enumeration, the
hook-content formula, the Hilbert function of the symmetric determinantal
ring as a sum over the GL_n-components of Sym(Sym^2), its GL_n character
at a random torus point through Schur bialternants mod a prime, two
formulations of Bott's sorting algorithm (the rho-shift sort
`bott_by_rho`, and the exchange loop `bott_by_exchange`, which swaps one
adjacent ascent at a time), the enlarged-base Betti table summand by
summand through `bott_by_rho`, Gaussian elimination over Q that rescans
every reduced row, Gauss-Jordan inversion in Fraction arithmetic, pattern
containment by an exhaustive scan of subsequences, and a mod-p
Koszul-homology computation of graded Betti numbers.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from fractions import Fraction
from math import comb
from typing import Iterator

import numpy as np

PRIME = 46337  # PRIME**2 fits comfortably in int64


# -- Coxeter lengths by breadth-first search --------------------------------

def reduced_word_lengths(n: int) -> dict[tuple[int, ...], int]:
    """Distance from the identity in the Cayley graph of adjacent swaps."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        word = queue.popleft()
        for i in range(n - 1):
            nxt = list(word)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[word] + 1
                queue.append(nxt)
    return dist


# -- Bruhat order by sorted prefixes ------------------------------------------

def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    """The transposition (i j) of S_n, values 1-based."""
    word = list(range(1, n + 1))
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return tuple(word)


def bruhat_leq_grassmannian(u, v) -> bool:
    """Grassmannian Bruhat order: componentwise comparison of the ascending
    sorts of two index sequences of equal length.

    >>> bruhat_leq_grassmannian((1, 2), (3, 4))
    True
    >>> bruhat_leq_grassmannian((2, 3), (1, 4))
    False
    """
    if len(u) != len(v):
        raise ValueError("sequences must have equal length")
    return all(a <= b for a, b in zip(sorted(u), sorted(v)))


def bruhat_leq(u, v) -> bool:
    """Full Bruhat order on S_N via sorted-prefix domination at every cut
    (the tableau criterion)."""
    u, v = tuple(u), tuple(v)
    for word in (u, v):
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word}")
    if len(u) != len(v):
        raise ValueError("permutations must have equal size")
    return all(bruhat_leq_grassmannian(u[:cut], v[:cut]) for cut in range(1, len(u)))


def avoids_patterns_by_scan(word, patterns) -> bool:
    """True iff no subsequence of word is order-isomorphic to any pattern:
    an exhaustive scan of all C(len(word), len(pattern)) subsequences.

    >>> avoids_patterns_by_scan((1, 2, 3, 4), [(4, 2, 3, 1)])
    True
    >>> avoids_patterns_by_scan((4, 2, 3, 1), [(4, 2, 3, 1)])
    False
    """
    # distinct letters are order-isomorphic when they sort in the same order
    orders: dict[int, set] = {}
    for pattern in patterns:
        orders.setdefault(len(pattern), set()).add(
            tuple(sorted(range(len(pattern)), key=pattern.__getitem__)))
    return not any(tuple(sorted(range(size), key=sub.__getitem__)) in found
                   for size, found in orders.items()
                   for sub in itertools.combinations(word, size))


# -- Partitions, part by part -------------------------------------------------

def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield all partitions of n with parts bounded by max_part."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


# -- Frobenius coordinates, cell by cell --------------------------------------

def _cells(lam) -> set[tuple[int, int]]:
    """The cells (row, column) of the Young diagram, 0-based."""
    return {(i, j) for i, part in enumerate(lam) for j in range(part)}


def durfee_rank(lam) -> int:
    """Side of the largest square of cells in the corner of the diagram.

    >>> durfee_rank(()), durfee_rank((3, 2, 2)), durfee_rank((3, 3, 3))
    (0, 2, 3)
    """
    cells = _cells(lam)
    side = 0
    while all((i, j) in cells for i in range(side + 1) for j in range(side + 1)):
        side += 1
    return side


def frobenius_hooks(lam) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Frobenius coordinates (arms, legs): for each diagonal cell (i, i), the
    cells of the diagram right of it in row i and below it in column i.

    >>> frobenius_hooks((2, 2)), frobenius_hooks((3, 2, 1))
    (((1, 0), (1, 0)), ((2, 0), (2, 0)))
    """
    cells = _cells(lam)
    diagonal = range(durfee_rank(lam))
    arms = tuple(sum(1 for r, c in cells if r == i and c > i) for i in diagonal)
    legs = tuple(sum(1 for r, c in cells if c == i and r > i) for i in diagonal)
    return arms, legs


# -- Semistandard tableaux ---------------------------------------------------

def count_ssyt(shape: tuple[int, ...], e: int) -> int:
    """Count column-strict, row-weak fillings with entries in 1..e."""
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    filling: dict[tuple[int, int], int] = {}

    def extend(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        total = 0
        for value in range(lo, e + 1):
            filling[(r, c)] = value
            total += extend(pos + 1)
        filling.pop((r, c), None)
        return total

    return extend(0)


# -- Hook-content formula ----------------------------------------------------

def conjugate(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the Young diagram, counted cell by cell."""
    width = shape[0] if shape else 0
    return tuple(sum(1 for row in shape if row > c) for c in range(width))


def hook_content_dim(shape: tuple[int, ...], e: int) -> int:
    """Dimension of the Schur module S_shape of an e-dimensional space: the
    product of (e + content) over the product of hook lengths, box by box."""
    cols = conjugate(shape)
    num = den = 1
    for r, row in enumerate(shape):
        for c in range(row):
            num *= e + c - r
            den *= (row - c - 1) + (cols[c] - r - 1) + 1
    assert num % den == 0
    return num // den


def sym2_quotient_hilbert(n: int, k: int, d: int) -> int:
    """dim_d of the coordinate ring of the symmetric n-by-n matrices of rank
    at most k. Sym(Sym^2 E) is the sum of the S_{2mu} E over all partitions
    mu, and the ideal of (k+1)-minors is the sum of those with more than k
    parts (S. Abeasis, 1980), so the quotient keeps the mu of d with at most
    k parts, each with its hook-content dimension."""
    return sum(
        hook_content_dim(tuple(2 * part for part in mu), n)
        for mu in partitions_of(d)
        if len(mu) <= k
    )


# -- GL_n characters at a torus point, mod a prime ----------------------------

CHARACTER_PRIME = 2 ** 61 - 1  # a Mersenne prime: a false agreement has odds ~ degree / p


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p by Gaussian elimination with inverses mod p."""
    m = [row[:] for row in rows]
    det = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inverse = pow(m[c][c], p - 2, p)
        for r in range(c + 1, len(m)):
            factor = m[r][c] * inverse % p
            m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def schur_at(shape: tuple[int, ...], x: list[int], p: int = CHARACTER_PRIME) -> int:
    """The Schur polynomial s_shape(x_1..x_n) mod p as the bialternant
    det(x_j^(shape_i + n - i)) / det(x_j^(n - i)); zero past n rows. The x_j
    must be distinct mod p."""
    n = len(x)
    if len(shape) > n:
        return 0
    rows = list(shape) + [0] * (n - len(shape))
    alternant = _det_mod([[pow(v, rows[i] + n - 1 - i, p) for v in x] for i in range(n)], p)
    vandermonde = _det_mod([[pow(v, n - 1 - i, p) for v in x] for i in range(n)], p)
    return alternant * pow(vandermonde, p - 2, p) % p


def complete_homogeneous(values: list[int], top: int, p: int = CHARACTER_PRIME) -> list[int]:
    """h_0..h_top of the values mod p: the coefficients of prod 1/(1 - v z)."""
    h = [1] + [0] * top
    for v in values:
        for d in range(1, top + 1):
            h[d] = (h[d] + v * h[d - 1]) % p
    return h


def resolution_character_mismatches(n: int, k: int, labels, top: int, seed: int) -> list[int]:
    """The degrees d <= top at which a GL_n-equivariant resolution of the
    symmetric rank <= k locus, given as (i, t, shape) triples (one per Schur
    summand S_shape E of F_i in degree t), fails its character identity at a
    seeded random torus point x, mod CHARACTER_PRIME:

        sum (-1)^i s_shape(x) h_{d-t}(x_a x_b : a <= b)
            = sum over mu |- d with at most k parts of s_{2mu}(x).

    The left side is the character of the degree-d piece of the complex over
    Sym(Sym^2 E), the right side that of the coordinate ring (Abeasis 1980).
    The dimension check of the Hilbert function sees only dim S_shape; this
    one sees which shape each summand is."""
    p = CHARACTER_PRIME
    x = random.Random(seed).sample(range(2, p), n)
    h = complete_homogeneous([x[a] * x[b] % p for a in range(n) for b in range(a, n)], top, p)
    complex_side = [0] * (top + 1)
    for i, t, shape in labels:
        value = (-1) ** i * schur_at(shape, x, p)
        for d in range(t, top + 1):
            complex_side[d] = (complex_side[d] + value * h[d - t]) % p
    ring_side = [
        sum(schur_at(tuple(2 * part for part in conjugate(nu)), x, p)
            for nu in partitions_of(d, k)) % p
        for d in range(top + 1)
    ]
    return [d for d in range(top + 1) if complex_side[d] != ring_side[d]]


# -- rho-shift form of the sorting algorithm ---------------------------------

def bott_by_rho(entries: tuple[int, ...], m: int):
    """Returns None for vanishing cohomology, else (degree, label)."""
    lam = entries[m:] + entries[:m]
    n = len(lam)
    shifted = [lam[i] + (n - 1 - i) for i in range(n)]
    if len(set(shifted)) < n:
        return None
    inversions = sum(
        1
        for a in range(n)
        for b in range(a + 1, n)
        if shifted[a] < shifted[b]
    )
    ordered = sorted(shifted, reverse=True)
    label = tuple(ordered[i] - (n - 1 - i) for i in range(n))
    return inversions, label


# -- exchange form of the sorting algorithm ----------------------------------

def exchange(alpha: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The shifted swap at position i (1-based):
    (.., a_{i-1}, a_{i+1}-1, a_i+1, a_{i+2}, ..).

    >>> exchange((0, 2), 1)
    (1, 1)
    >>> exchange((3, 0, 0), 2)
    (3, -1, 1)
    """
    if not 1 <= i <= len(alpha) - 1:
        raise ValueError(f"exchange position {i} out of range")
    out = list(alpha)
    out[i - 1], out[i] = alpha[i] - 1, alpha[i - 1] + 1
    return tuple(out)


def bott_by_exchange(entries: tuple[int, ...], m: int):
    """Returns None for vanishing cohomology, else (degree, label): swap the
    blocks, then exchange at the first ascent, rescanning from the left,
    until none is left (one exchange per degree) or an exchange would fix
    the sequence (no cohomology)."""
    seq = entries[m:] + entries[:m]
    steps = 0
    while (i := next((i + 1 for i in range(len(seq) - 1) if seq[i] < seq[i + 1]), None)):
        if seq[i] == seq[i - 1] + 1:
            return None
        seq = exchange(seq, i)
        steps += 1
        assert steps <= len(seq) * (len(seq) - 1) // 2, "exchange loop ran away"
    return steps, seq


def line_bundle_cohomology(d: int) -> dict[int, int]:
    """Dimensions of the cohomology of the degree-d line bundle on the
    projective line."""
    if d >= 0:
        return {0: d + 1}
    if d == -1:
        return {}
    return {1: -d - 1}


# -- the enlarged-base table, summand by summand ------------------------------

def rows_from_frobenius(arms, legs) -> tuple[int, ...]:
    """Rows of the partition with Frobenius coordinates (arms | legs): the
    Durfee rows are a_i + i, and each row below counts the diagonal columns,
    of lengths b_j + j, that reach it (i and j from 1)."""
    s = len(arms)
    columns = [b + j for j, b in enumerate(legs, start=1)]
    below = [sum(1 for c in columns if c >= i) for i in range(s + 1, max(columns, default=0) + 1)]
    return tuple(a + i for i, a in enumerate(arms, start=1)) + tuple(below)


def enlarged_by_bott(n: int, k: int, max_t: int | None = None):
    """Entries and provenance of the Betti table over the enlarged base, for
    even k, the long way. The t-th exterior power of Sym^2 of the rank-m
    quotient (m = n - k/2) has the partitions of 2t with arm = leg + 1 and
    legs below m as its summands; each weight (mu, 0^(n-m)) with cut m goes
    through `bott_by_rho`, vanishing ones included, and a class in degree j
    adds the hook-content dimension of its label at (t - j, t)."""
    m = n - k // 2
    entries, provenance = {}, {}
    for s in range(m + 1):
        for legs in itertools.combinations(range(m - 1, -1, -1), s):
            t = sum(legs) + s
            if max_t is not None and t > max_t:
                continue
            mu = rows_from_frobenius([b + 1 for b in legs], legs)
            found = bott_by_rho(mu + (0,) * (n - len(mu)), m)
            if found is None:
                continue
            j, label = found
            dim = hook_content_dim(tuple(x for x in label if x), n)
            entries[(t - j, t)] = entries.get((t - j, t), 0) + dim
            provenance.setdefault((t - j, t), []).append((label, dim))
    return entries, provenance


# -- mod-p graded Betti numbers via Koszul homology --------------------------

def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + nvars - 1 - prev - 1)
        out.append(tuple(exps))
    return sorted(out)


def symmetric_minor_polys(n: int, size: int) -> list[dict[tuple[int, ...], int]]:
    """All size-by-size minors of the generic symmetric n-by-n matrix as
    exponent-dict polynomials, via the permutation-sum determinant."""
    var_index = {}
    for i in range(n):
        for j in range(i, n):
            var_index[(i, j)] = len(var_index)
    nvars = len(var_index)

    def entry(i, j):
        return var_index[(min(i, j), max(i, j))]

    polys = []
    seen = set()
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.combinations(range(n), size):
            terms: dict[tuple[int, ...], int] = {}
            for perm in itertools.permutations(range(size)):
                sign = _perm_sign(perm)
                exps = [0] * nvars
                for a, b in enumerate(perm):
                    exps[entry(rows[a], cols[b])] += 1
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + sign
            terms = {k: v for k, v in terms.items() if v}
            canon = tuple(sorted(terms.items()))
            neg = tuple(sorted({k: -v for k, v in terms.items()}.items()))
            if canon not in seen and neg not in seen and terms:
                seen.add(canon)
                polys.append(terms)
    return polys


def span_rank_by_scan(polys: list[dict]) -> tuple[int, list[int]]:
    """Rank of the span of {monomial: coefficient} polynomials, and the
    indices of the inputs independent of those before them. Sparse Gaussian
    elimination over Q that rescans every reduced row, by its largest
    monomial, until none applies."""
    reduced: list[dict] = []
    kept: list[int] = []
    for index, poly in enumerate(polys):
        p = {m: Fraction(c) for m, c in poly.items() if c}
        changed = True
        while changed and p:
            changed = False
            for q in reduced:
                lead = max(q)
                if lead in p:
                    factor = p[lead] / q[lead]
                    for m, c in q.items():
                        p[m] = p.get(m, 0) - factor * c
                    p = {m: c for m, c in p.items() if c}
                    changed = True
        if p:
            reduced.append(p)
            kept.append(index)
    return len(reduced), kept


def symplectic_form(n: int) -> list[list[int]]:
    """F = [[0, J], [-J, 0]] of size 2n, J the antidiagonal of ones."""
    return [[(1 if i < n else -1) * int(i + j == 2 * n - 1) for j in range(2 * n)]
            for i in range(2 * n)]


def fraction_inverse(m: list[list]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse in Fraction arithmetic, every entry a Fraction;
    raises ValueError on singular input."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = 1 / work[col][col]
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _rref_mod_p(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    m = mat % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


class QuotientRing:
    """Graded pieces of R/I with normal-form reduction, coefficients mod p."""

    def __init__(self, gens: list[dict[tuple[int, ...], int]], nvars: int,
                 max_degree: int, p: int = PRIME):
        self.nvars = nvars
        self.p = p
        self.gen_degree = {sum(next(iter(g))) for g in gens}
        if len(self.gen_degree) != 1:
            raise ValueError("generators must share one degree")
        gdeg = next(iter(self.gen_degree))
        self.basis: dict[int, list[tuple[int, ...]]] = {}
        self.index: dict[int, dict[tuple[int, ...], int]] = {}
        self.normal: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
        for d in range(max_degree + 1):
            monos = monomials(nvars, d)
            col = {mono: c for c, mono in enumerate(monos)}
            if d < gdeg:
                rref, pivots = np.zeros((0, len(monos)), dtype=np.int64), []
            else:
                rows = []
                for mult in monomials(nvars, d - gdeg):
                    for g in gens:
                        vec = np.zeros(len(monos), dtype=np.int64)
                        for exps, coeff in g.items():
                            prod = tuple(a + b for a, b in zip(exps, mult))
                            vec[col[prod]] = coeff % p
                        rows.append(vec)
                mat = np.array(rows, dtype=np.int64) if rows else np.zeros((0, len(monos)), dtype=np.int64)
                rref, pivots = _rref_mod_p(mat, p)
            pivot_set = set(pivots)
            basis = [mono for mono in monos if col[mono] not in pivot_set]
            basis_col = {mono: c for c, mono in enumerate(basis)}
            normal: dict[tuple[int, ...], np.ndarray] = {}
            free_cols = [col[mono] for mono in basis]
            for mono in monos:
                vec = np.zeros(len(basis), dtype=np.int64)
                c = col[mono]
                if c in pivot_set:
                    row = rref[pivots.index(c)]
                    vec = (-row[free_cols]) % p
                else:
                    vec[basis_col[mono]] = 1
                normal[mono] = vec
            self.basis[d] = basis
            self.index[d] = basis_col
            self.normal[d] = normal

    def dim(self, d: int) -> int:
        return len(self.basis[d])


def koszul_betti(gens, nvars: int, max_i: int, max_j: int,
                 p: int = PRIME) -> dict[tuple[int, int], int]:
    """Graded Betti numbers of R/I over the polynomial ring, from the
    homology of the Koszul complex on all the variables tensored with R/I.
    Computed on the window i <= max_i, j <= max_j."""
    ring = QuotientRing(list(gens), nvars, max_j, p)

    subsets = {i: list(itertools.combinations(range(nvars), i)) for i in range(max_i + 2)}

    def diff_matrix(i: int, j: int) -> np.ndarray:
        """K_{i,j} -> K_{i-1,j}: columns index e_S (x) b."""
        d_src = j - i
        if d_src < 0 or i == 0:
            return np.zeros((0, 0), dtype=np.int64)
        src_sets = subsets[i]
        tgt_sets = subsets[i - 1]
        tgt_index = {S: t for t, S in enumerate(tgt_sets)}
        src_basis = ring.basis[d_src]
        tgt_dim = len(tgt_sets) * ring.dim(d_src + 1)
        cols = []
        for S in src_sets:
            for b in src_basis:
                vec = np.zeros(tgt_dim, dtype=np.int64)
                for pos, s in enumerate(S):
                    rest = S[:pos] + S[pos + 1:]
                    sign = 1 if pos % 2 == 0 else p - 1
                    prod = list(b)
                    prod[s] += 1
                    reduced = ring.normal[d_src + 1][tuple(prod)]
                    base = tgt_index[rest] * ring.dim(d_src + 1)
                    vec[base:base + len(reduced)] = (vec[base:base + len(reduced)] + sign * reduced) % p
                cols.append(vec)
        if not cols:
            return np.zeros((tgt_dim, 0), dtype=np.int64)
        return np.stack(cols, axis=1)

    def rank(mat: np.ndarray) -> int:
        if mat.size == 0:
            return 0
        _, pivots = _rref_mod_p(mat.copy(), p)
        return len(pivots)

    betti: dict[tuple[int, int], int] = {}
    for j in range(max_j + 1):
        rank_cache: dict[int, int] = {}
        for i in range(max_i + 1):
            if not (0 <= j - i <= max_j):
                continue
            dim_k = comb(nvars, i) * ring.dim(j - i) if j - i >= 0 else 0
            if dim_k == 0:
                continue
            if i not in rank_cache:
                rank_cache[i] = rank(diff_matrix(i, j))
            if i + 1 not in rank_cache:
                rank_cache[i + 1] = rank(diff_matrix(i + 1, j))
            value = dim_k - rank_cache[i] - rank_cache[i + 1]
            if value:
                betti[(i, j)] = value
    return betti


def socle_free_through(gens, nvars: int, max_degree: int, p: int = PRIME) -> bool:
    """True if no nonzero element of R/I in degrees <= max_degree is killed
    by every variable."""
    ring = QuotientRing(list(gens), nvars, max_degree + 1, p)
    for d in range(max_degree + 1):
        dim_d = ring.dim(d)
        if dim_d == 0:
            continue
        blocks = []
        for s in range(nvars):
            cols = []
            for mono in ring.basis[d]:
                prod = list(mono)
                prod[s] += 1
                cols.append(ring.normal[d + 1][tuple(prod)])
            blocks.append(np.stack(cols, axis=1))
        stacked = np.concatenate(blocks, axis=0)
        _, pivots = _rref_mod_p(stacked.copy(), p)
        if len(pivots) != dim_d:
            return False
    return True


def ideal_quotient_dims(gens, nvars: int, max_degree: int, p: int = PRIME) -> list[int]:
    """Dimensions of the graded pieces of R/I, straight from ranks of the
    multiplied-out generator spans."""
    ring = QuotientRing(list(gens), nvars, max_degree, p)
    return [ring.dim(d) for d in range(max_degree + 1)]
