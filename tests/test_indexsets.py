import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qrea.indexsets import (Bijection, IndexSet, PositionOutOfRange,
                            SizeMismatch, check_comb_lemma, index_sets,
                            inversions, pair_dom_strictly_less,
                            pair_lex_less, sweep_comb_lemma)


def S(*xs):
    return IndexSet(xs)


def test_lex_examples():
    assert S(1, 3).lex_cmp(S(2, 3)) < 0
    assert S(1, 4).lex_cmp(S(1, 4)) == 0
    assert S(1, 4).lex_cmp(S(2, 3)) < 0


def test_lex_size_mismatch():
    with pytest.raises(SizeMismatch):
        S(1).lex_cmp(S(1, 2))


def test_dom_examples():
    assert S(1, 2).dom_cmp(S(2, 3)) == "less-eq"
    assert S(1, 4).dom_cmp(S(2, 3)) == "incomparable"
    assert S(2, 4).dom_cmp(S(2, 4)) == "equal"


def test_subselect_examples():
    assert S(2, 5, 7).subselect(S(1, 3)) == (S(2, 7), S(5))
    assert S(2, 5, 7).subselect(S(1, 2, 3)) == (S(2, 5, 7), S())
    assert S(1, 2, 3, 4).subselect(S(2, 4)) == (S(2, 4), S(1, 3))
    with pytest.raises(PositionOutOfRange):
        S(1, 2).subselect(S(3))


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((2, 1, 3)) == 1
    assert inversions((4, 3, 2, 1)) == 6


def test_bijection():
    b = Bijection(S(1, 2, 3), S(2, 5, 7), (5, 2, 7))
    assert b.inversions() == 1
    with pytest.raises(ValueError):
        Bijection(S(1, 2), S(3, 4), (3, 3))


def test_dominance_refines_lex_exhaustive():
    for k in range(1, 7):
        for I in index_sets(6, k):
            for J in index_sets(6, k):
                if I.dominated_by(J):
                    assert I.lex_cmp(J) <= 0


def test_weight_split():
    for k in range(0, 7):
        for I in index_sets(6, k):
            for l in range(0, k + 1):
                for K in combinations(range(1, k + 1), l):
                    IK, IKc = I.subselect(IndexSet(K))
                    assert IK.weight() + IKc.weight() == I.weight()


def test_pair_orders():
    a = (S(1), S(2))
    b = (S(2), S(1))
    assert pair_lex_less(a, b) and not pair_lex_less(b, a)
    assert pair_dom_strictly_less((S(1, 2), S(1, 2)), (S(1, 3), S(1, 2)))
    # same first component: second decides
    assert pair_dom_strictly_less((S(1, 2), S(1, 2)), (S(1, 2), S(1, 3)))
    assert not pair_dom_strictly_less((S(1, 4), S(1)), (S(2, 3), S(1)))


def test_comb_lemma_small_example():
    rep = check_comb_lemma(S(2), S(1))
    assert rep.ok and rep.witness == S(1) and len(rep.admissible) == 1


def test_comb_lemma_equal_sets():
    rep = check_comb_lemma(S(1, 3), S(1, 3))
    assert rep.ok and rep.witness is not None


def test_comb_lemma_sweep_6():
    count, bad = sweep_comb_lemma(6)
    assert count == 64 * 64
    assert bad == []


def test_inversion_parity_multiplicative():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = list(range(1, n + 1))
        b = list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        comp = [a[b[i] - 1] for i in range(n)]
        assert inversions(comp) % 2 == (inversions(a) + inversions(b)) % 2


def test_set_algebra():
    assert S(1, 2, 4).symdiff(S(2, 3)) == S(1, 3, 4)
    assert S(1, 2, 4).intersect(S(2, 3)) == S(2)
    assert S(1, 2, 4).union(S(2, 3)) == S(1, 2, 3, 4)
    assert S(1, 2, 4).minus(S(2)) == S(1, 4)


def test_json():
    assert S(2, 4).to_json() == [2, 4]


# -- order properties ------------------------------------------------------------

def _sets(k):
    return st.sets(st.integers(1, 4), min_size=k, max_size=k).map(IndexSet)


# three subsets of 1..4 of one size, and three (J, I) pairs of one pair of
# sizes; a small ground set makes comparable triples common
_triples = st.integers(0, 3).flatmap(lambda k: st.tuples(*[_sets(k)] * 3))
_pair_triples = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda kl: st.tuples(*[st.tuples(_sets(kl[0]), _sets(kl[1]))] * 3))


@settings(max_examples=100, deadline=None)
@given(_triples)
def test_lex_cmp_is_a_total_order(abc):
    a, b, c = abc
    assert a.lex_cmp(a) == 0
    assert a.lex_cmp(b) == -b.lex_cmp(a)
    assert (a.lex_cmp(b) == 0) == (a == b)
    if a.lex_cmp(b) <= 0 and b.lex_cmp(c) <= 0:
        assert a.lex_cmp(c) <= 0


@settings(max_examples=100, deadline=None)
@given(_triples)
def test_dom_cmp_is_a_partial_order_refined_by_lex(abc):
    a, b, c = abc
    assert a.dom_cmp(a) == "equal"
    flipped = {"equal": "equal", "less-eq": "greater-eq",
               "greater-eq": "less-eq", "incomparable": "incomparable"}
    assert b.dom_cmp(a) == flipped[a.dom_cmp(b)]
    if a.dominated_by(b) and b.dominated_by(a):
        assert a == b
    if a.dominated_by(b) and b.dominated_by(c):
        assert a.dominated_by(c)
    if a.dominated_by(b):
        assert a.lex_cmp(b) <= 0


@settings(max_examples=100, deadline=None)
@given(_pair_triples)
def test_pair_dom_strictly_less_is_a_strict_order(xyz):
    x, y, z = xyz
    assert not pair_dom_strictly_less(x, x)
    if pair_dom_strictly_less(x, y) and pair_dom_strictly_less(y, z):
        assert pair_dom_strictly_less(x, z)
