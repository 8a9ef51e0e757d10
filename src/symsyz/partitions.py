"""Integer partition calculus: conjugates, Frobenius hooks, the hook
families with arm = leg + offset (one enumerator serves every table),
Schur module dimensions as Weyl products, and the exterior powers of Sym^2.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the zero partition. All arithmetic is exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from typing import Iterator, NamedTuple


class NonIntegralDimension(ArithmeticError):
    """A Weyl dimension quotient left a remainder."""


class FrobeniusHooks(NamedTuple):
    """Arm/leg coordinates of the diagonal boxes of a partition."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]


def is_partition(parts) -> bool:
    """
    >>> is_partition((3, 1)), is_partition((1, 3)), is_partition(())
    (True, False, True)
    """
    parts = tuple(parts)
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate((3, 2, 1))
    (3, 2, 1)
    """
    parts = check_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def durfee_rank(parts: tuple[int, ...]) -> int:
    """Side of the largest square inside the diagram: max{i : parts[i-1] >= i}."""
    parts = check_partition(parts)
    rank = 0
    for i, p in enumerate(parts, start=1):
        if p >= i:
            rank = i
        else:
            break
    return rank


def to_hooks(parts: tuple[int, ...]) -> FrobeniusHooks:
    """Frobenius coordinates: arm a_i = parts[i-1] - i, leg b_i = parts'[i-1] - i.

    >>> to_hooks((2, 2))
    FrobeniusHooks(arms=(1, 0), legs=(1, 0))
    >>> to_hooks((3, 2, 1))
    FrobeniusHooks(arms=(2, 0), legs=(2, 0))
    """
    parts = check_partition(parts)
    conj = conjugate(parts)
    s = durfee_rank(parts)
    arms = tuple(parts[i] - (i + 1) for i in range(s))
    legs = tuple(conj[i] - (i + 1) for i in range(s))
    return FrobeniusHooks(arms, legs)


def from_hooks(hooks: FrobeniusHooks) -> tuple[int, ...]:
    """Inverse of :func:`to_hooks`.

    >>> from_hooks(FrobeniusHooks((1, 0), (1, 0)))
    (2, 2)
    """
    arms, legs = hooks.arms, hooks.legs
    s = len(arms)
    if len(legs) != s:
        raise ValueError("arm and leg counts differ")
    if any(arms[i] <= arms[i + 1] for i in range(s - 1)) or any(
        legs[i] <= legs[i + 1] for i in range(s - 1)
    ):
        raise ValueError("arms and legs must be strictly decreasing")
    if s and (arms[-1] < 0 or legs[-1] < 0):
        raise ValueError("arms and legs must be nonnegative")
    result = _rows_from_hooks(arms, legs)
    if not is_partition(result) or to_hooks(result) != FrobeniusHooks(arms, legs):
        raise ValueError(f"inconsistent hook data {hooks}")
    return result


def _rows_from_hooks(arms, legs) -> tuple[int, ...]:
    """Rows of the partition with the given strictly decreasing, nonnegative
    Frobenius coordinates: row i <= s is arms[i-1] + i, and a row below the
    Durfee square counts the diagonal columns (of lengths legs[j] + j + 1)
    that reach it."""
    rows = [a + i for i, a in enumerate(arms, start=1)]
    columns = [b + j for j, b in enumerate(legs, start=1)]
    width = len(columns)
    for i in range(width + 1, (columns[0] if columns else 0) + 1):
        while columns[width - 1] < i:
            width -= 1
        rows.append(width)
    return tuple(rows)


def hook_family(
    offset: int, max_leg: int, max_size: int | None = None
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Every partition whose Frobenius arms exceed its legs by `offset`,
    whose legs are at most `max_leg` and whose size is at most `max_size`
    (no bound when None), as (legs, Durfee rank, size).

    Walks the tree of strictly decreasing leg tuples in [0, max_leg] in
    preorder, larger legs first: the empty tuple (the zero partition) is the
    root, and a member's children append a leg below its smallest one. So a
    member's parent, its legs without the last, is the latest member yielded
    one rank lower, and within a rank the members come in decreasing order
    of their legs. A member of rank s has size 2 * sum(legs) + s * (offset + 1)
    and at most max_leg + 1 rows. A child, or a sibling with a larger last
    leg, is bigger, so the walk never visits a member above `max_size`.

    >>> list(hook_family(1, 1))
    [((), 0, 0), ((1,), 1, 4), ((1, 0), 2, 6), ((0,), 1, 2)]
    >>> list(hook_family(1, 1, max_size=4))
    [((), 0, 0), ((1,), 1, 4), ((0,), 1, 2)]
    """
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    step = offset + 1  # a child with last leg b is larger by step + 2b
    # (legs, size) still to visit; the top of the stack is visited next
    stack = [((), 0)] if max_size is None or max_size >= 0 else []
    while stack:
        legs, size = stack.pop()
        yield legs, len(legs), size
        top = legs[-1] - 1 if legs else max_leg
        if max_size is not None:
            top = min(top, (max_size - size - step) // 2)
        for b in range(top + 1):  # the largest last leg is pushed last, so visited first
            stack.append((legs + (b,), size + step + 2 * b))


@lru_cache(maxsize=None)
def enumerate_Q(k_minus_1: int, weight: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of `weight` whose hooks satisfy arm = leg + k_minus_1,
    in decreasing order.

    `weight` must be even. A member's legs are at most
    (weight - k_minus_1 - 1) / 2, the leg of a single hook of that weight, so
    the walk, which visits no member above `weight`, covers 2 ** (weight / 2)
    leg tuples at most.

    >>> enumerate_Q(0, 4)
    ((2, 2),)
    >>> enumerate_Q(0, 2)
    ()
    >>> enumerate_Q(1, 2)
    ((2,),)
    """
    if k_minus_1 < 0:
        raise ValueError("offset must be nonnegative")
    if weight <= 0 or weight % 2:
        raise ValueError(f"weight must be even and positive, got {weight}")
    max_leg = (weight - k_minus_1 - 1) // 2
    found = (_rows_from_hooks([b + k_minus_1 for b in legs], legs)
             for legs, _, size in hook_family(k_minus_1, max_leg, weight) if size == weight)
    return tuple(sorted(found, reverse=True))


def schur_dim(parts: tuple[int, ...], e: int) -> int:
    """Dimension of the Schur module S_parts of an e-dimensional space: the
    Weyl dimension of the partition padded with zeros to length e, and zero
    when the partition has more than e rows.

    >>> schur_dim((2,), 2), schur_dim((1, 1), 3), schur_dim((2, 2), 3)
    (3, 3, 6)
    """
    parts = check_partition(parts)
    if e <= 0:
        raise ValueError("space dimension must be positive")
    if len(parts) > e:
        return 0
    return weyl_dim(parts + (0,) * (e - len(parts)))


def weyl_dim(weight: tuple[int, ...]) -> int:
    """Dimension of the irreducible GL representation with the given
    weakly decreasing integer highest weight (entries may be negative): the
    Weyl product of the (w_i - w_j + j - i), i < j, over that of the (j - i)."""
    if sorted(weight, reverse=True) != list(weight):
        raise ValueError(f"weight must be weakly decreasing: {weight}")
    shifted = [w - i for i, w in enumerate(weight)]
    num = 1
    for i, a in enumerate(shifted):
        for b in shifted[i + 1:]:
            num *= a - b
    den = _weyl_denominator(len(weight))
    value, remainder = divmod(num, den)
    if remainder:
        raise NonIntegralDimension(f"dimension of {weight} is not an integer: {num}/{den}")
    return value


@lru_cache(maxsize=None)
def _weyl_denominator(n: int) -> int:
    """The product of (j - i) over 0 <= i < j < n: 0! 1! ... (n-1)!."""
    return prod(factorial(d) for d in range(n))


# Orientation note: the labels returned are the ones carried by the exterior
# power of Sym^2 E itself; any dualisation happens at the call site.


def exterior_of_sym2(t: int, e: int) -> list[tuple[tuple[int, ...], int]]:
    """Summands of the t-th exterior power of Sym^2 of an e-dimensional space.

    These are the partitions of 2t with every arm exceeding its leg by one,
    each with multiplicity one, in decreasing order; summands with more than
    e rows vanish, so only legs below e, and sizes up to 2t, are walked.

    >>> exterior_of_sym2(1, 4)
    [((2,), 1)]
    >>> exterior_of_sym2(0, 3)
    [((), 1)]
    """
    if t < 0:
        raise ValueError("exterior degree must be nonnegative")
    found = (_rows_from_hooks([b + 1 for b in legs], legs)
             for legs, _, size in hook_family(1, e - 1, 2 * t) if size == 2 * t)
    return [(lam, 1) for lam in sorted(found, reverse=True)]
