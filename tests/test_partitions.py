import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from symsyz.partitions import (
    FrobeniusHooks,
    conjugate,
    durfee_rank,
    enumerate_Q,
    exterior_of_sym2,
    from_hooks,
    hook_family,
    is_partition,
    schur_dim,
    to_hooks,
    weyl_dim,
)

from oracles import count_ssyt, hook_content_dim, partitions_of

partition_st = st.integers(0, 14).flatmap(
    lambda n: st.sampled_from(sorted(partitions_of(n))) if n else st.just(())
)


def test_conjugate_examples():
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((3, 2, 1)) == (3, 2, 1)


def test_durfee_examples():
    assert durfee_rank(()) == 0
    assert durfee_rank((2, 2)) == 2
    assert durfee_rank((3, 2, 2)) == 2


def test_hooks_examples():
    assert to_hooks((2, 2)) == FrobeniusHooks((1, 0), (1, 0))
    assert to_hooks((1,)) == FrobeniusHooks((0,), (0,))
    assert to_hooks((3, 2, 1)) == FrobeniusHooks((2, 0), (2, 0))
    assert from_hooks(FrobeniusHooks((2, 0), (2, 0))) == (3, 2, 1)


def test_hooks_roundtrip_exhaustive():
    for n in range(21):
        for lam in partitions_of(n):
            if lam:
                assert from_hooks(to_hooks(lam)) == lam


@given(partition_st)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert durfee_rank(lam) == durfee_rank(conjugate(lam))


def test_enumerate_Q_examples():
    assert enumerate_Q(0, 4) == ((2, 2),)
    assert enumerate_Q(0, 2) == ()
    assert enumerate_Q(1, 2) == ((2,),)
    with pytest.raises(ValueError):
        enumerate_Q(0, 3)


def test_enumerate_Q_against_filter():
    # oracle: filter every partition of the weight through its hooks
    for offset in range(3):
        for weight in range(2, 17, 2):
            expected = tuple(
                sorted(
                    (
                        lam
                        for lam in partitions_of(weight)
                        if all(
                            a == b + offset
                            for a, b in zip(*to_hooks(lam))
                        )
                    ),
                    reverse=True,
                )
            )
            assert enumerate_Q(offset, weight) == expected


def test_hook_family_against_filter():
    # oracle: every partition inside the (max_leg + 1) x (max_leg + offset + 1)
    # box (a hook family member's first leg and arm bound its rows and
    # columns), filtered through its hooks; each yielded leg tuple is turned
    # into its partition through the validating from_hooks
    for offset in range(3):
        for max_leg in range(5):
            width = max_leg + offset + 1
            expected = sorted(
                (lam, durfee_rank(lam), size)
                for size in range((max_leg + 1) * width + 1)
                for lam in partitions_of(size, max_part=width)
                if len(lam) <= max_leg + 1
                and all(a == b + offset for a, b in zip(*to_hooks(lam)))
            )
            walked = []
            for legs, rank, size in hook_family(offset, max_leg):
                arms = tuple(b + offset for b in legs)
                lam = from_hooks(FrobeniusHooks(arms, legs)) if legs else ()
                assert rank == len(legs) and size == sum(lam)
                walked.append((lam, rank, size))
            assert sorted(walked) == expected, (offset, max_leg)
            assert len(expected) == 2 ** (max_leg + 1)


def test_hook_family_is_the_combinations_filter_in_preorder():
    # the same members as every leg tuple of itertools.combinations cut at
    # max_size, in preorder: a tuple before its extensions, larger legs
    # first, so each member's parent is the latest member one rank lower
    for offset in range(3):
        for max_leg in range(6):
            everything = [(legs, s, 2 * sum(legs) + s * (offset + 1))
                          for s in range(max_leg + 2)
                          for legs in itertools.combinations(range(max_leg, -1, -1), s)]
            largest = max(size for _, _, size in everything)
            for max_size in (None, -1, *range(largest + 2)):
                expected = sorted((m for m in everything if max_size is None or m[2] <= max_size),
                                  key=lambda m: [-b for b in m[0]])
                walked = list(hook_family(offset, max_leg, max_size))
                assert walked == expected, (offset, max_leg, max_size)
                latest = {}
                for legs, s, _ in walked:
                    assert s == 0 or latest[s - 1] == legs[:-1], (offset, max_leg, legs)
                    latest[s] = legs
                # within a rank, the order of itertools.combinations
                assert [legs for legs, _, _ in sorted(walked, key=lambda m: m[1])] == [
                    legs for legs, _, size in everything if max_size is None or size <= max_size]


def test_schur_dim_examples():
    assert schur_dim((2,), 2) == 3
    assert schur_dim((1, 1), 3) == 3
    assert schur_dim((2, 2), 3) == 6
    assert schur_dim((1, 1, 1), 2) == 0


def test_schur_dim_matches_tableau_count():
    for size in range(11):
        for lam in partitions_of(size):
            for e in range(1, 7):
                assert schur_dim(lam, e) == count_ssyt(lam, e), (lam, e)


@given(partition_st, st.integers(1, 6))
def test_weyl_dim_agrees_with_hook_content(lam, e):
    if len(lam) <= e:
        padded = tuple(lam) + (0,) * (e - len(lam))
        assert weyl_dim(padded) == hook_content_dim(lam, e)


def test_exterior_of_sym2_basics():
    assert exterior_of_sym2(0, 5) == [((), 1)]
    assert exterior_of_sym2(1, 5) == [((2,), 1)]
    assert exterior_of_sym2(2, 2) == [((3, 1), 1)]
    assert exterior_of_sym2(0, 2) == [((), 1)]
    dims = sum(schur_dim(lam, 2) for lam, _ in exterior_of_sym2(2, 2))
    assert dims == comb(3, 2)


def test_exterior_of_sym2_dimension_counts():
    for e in range(1, 6):
        for t in range(7):
            total = sum(schur_dim(lam, e) * m for lam, m in exterior_of_sym2(t, e))
            assert total == comb(e * (e + 1) // 2, t), (e, t)


def test_is_partition():
    assert is_partition(())
    assert is_partition((5, 5, 2))
    assert not is_partition((2, 3))
    assert not is_partition((1, 0))
