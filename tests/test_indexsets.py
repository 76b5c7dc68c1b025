import random

import pytest
from hypothesis import given, settings, strategies as st

from qrea import indexsets
from qrea.indexsets import (check_comb_lemma, dominated, inversions, merge,
                            pair_dom_strictly_less, rest, select, subsets,
                            sweep_comb_lemma)
from test_suite_mutations import row_test


def test_dom_examples():
    assert dominated((1, 2), (2, 3)) and not dominated((2, 3), (1, 2))
    assert not dominated((1, 4), (2, 3)) and not dominated((2, 3), (1, 4))
    assert dominated((2, 4), (2, 4))


def test_subselect_examples():
    def split(I, K):
        return select(I, K), rest(I, K)
    assert split((2, 5, 7), (1, 3)) == ((2, 7), (5,))
    assert split((2, 5, 7), (1, 2, 3)) == ((2, 5, 7), ())
    assert split((1, 2, 3, 4), (2, 4)) == ((2, 4), (1, 3))


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((2, 1, 3)) == 1
    assert inversions((4, 3, 2, 1)) == 6


def test_dominance_refines_lex_exhaustive():
    for k in range(1, 7):
        for I in subsets(6, k):
            for J in subsets(6, k):
                if dominated(I, J):
                    assert I <= J


def test_weight_split():
    for k in range(0, 7):
        for I in subsets(6, k):
            for l in range(0, k + 1):
                for K in subsets(k, l):
                    assert sum(select(I, K)) + sum(rest(I, K)) == sum(I)


def test_pair_orders():
    a = ((1,), (2,))
    b = ((2,), (1,))
    assert a < b and not b < a
    assert pair_dom_strictly_less(((1, 2), (1, 2)), ((1, 3), (1, 2)))
    # same first component: second decides
    assert pair_dom_strictly_less(((1, 2), (1, 2)), ((1, 2), (1, 3)))
    assert not pair_dom_strictly_less(((1, 4), (1,)), ((2, 3), (1,)))


def test_comb_lemma_small_example():
    witness, counterexamples = check_comb_lemma((2,), (1,))
    assert witness == (1,) and counterexamples == []


def test_comb_lemma_equal_sets():
    witness, counterexamples = check_comb_lemma((1, 3), (1, 3))
    assert witness is not None and counterexamples == []


def test_comb_lemma_sweep_6():
    count, bad = sweep_comb_lemma(6)
    assert count == 64 * 64
    assert bad == []


def _merging_comb_lemma(I, J):
    """check_comb_lemma with S merged into both sides of every comparison:
    the reference enumeration."""
    S = tuple(sorted(set(I) & set(J)))
    T = tuple(sorted(set(I) ^ set(J)))
    witness, counterexamples = None, []
    for P in subsets(len(T), len(J) - len(S)):
        left = merge(S, indexsets.select(T, P))
        right = merge(S, indexsets.rest(T, P))
        if J <= left and I <= right:
            if left == J and right == I:
                witness = P
            else:
                counterexamples.append(P)
    return witness, counterexamples


def _all_pairs(n):
    sets = [I for k in range(n + 1) for I in subsets(n, k)]
    return [(I, J) for I in sets for J in sets]


@pytest.mark.parametrize("n", range(7))
def test_sweep_matches_the_merging_enumeration(n):
    pairs = _all_pairs(n)
    for I, J in pairs:
        assert check_comb_lemma(I, J) == _merging_comb_lemma(I, J), (I, J)
    bad = [(I, J, c) for I, J in pairs if (c := _merging_comb_lemma(I, J)[1])]
    assert sweep_comb_lemma(n) == (len(pairs), bad)


def test_sweep_enumerates_each_difference_pair_once(monkeypatch):
    # at n = 6, 4,096 pairs (I, J) have 3^6 = 729 distinct (I \ J, J \ I):
    # one enumeration each, 3,989 selections in all, against 13,236 with
    # one enumeration per pair
    calls = {"select": 0, "check": 0}

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(indexsets, "select",
                        counted("select", indexsets.select))
    monkeypatch.setattr(indexsets, "check_comb_lemma",
                        counted("check", indexsets.check_comb_lemma))
    assert sweep_comb_lemma(6) == (4096, [])
    assert calls == {"select": 3989, "check": 729}


@pytest.mark.parametrize("fake", [
    lambda T, P: T[len(T) - len(P):],                    # the top |P| of T
    lambda T, P: tuple(sorted(T[len(T) - p] for p in P)),  # mirrored P
], ids=["top", "mirrored"])
def test_comb_lemma_matches_the_merging_enumeration_on_a_broken_select(
        monkeypatch, fake):
    # a wrong T_P makes counterexamples; both enumerations find the same
    monkeypatch.setattr(indexsets, "select", fake)
    found = 0
    for I, J in _all_pairs(4):
        got = check_comb_lemma(I, J)
        assert got == _merging_comb_lemma(I, J), (I, J)
        found += bool(got[1])
    assert found


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


# -- failure witnesses of the combinatorics suites: rows of the mutation table

test_combinatorics_witness_names_first_failure = row_test(
    "combinatorics.dominance-refines-lex", "combinatorics.weight-split",
    "combinatorics.dominance-lemma", "combinatorics.inversion-parity", ids=[
        "combinatorics.dominance-refines-lex-dominated-<lambda>-<lambda>",
        "combinatorics.weight-split-select-<lambda>-<lambda>",
        "combinatorics.dominance-lemma-select-<lambda>-<lambda>",
        "combinatorics.inversion-parity-inversions-_record_inversions-"
        "<lambda>"])


# -- order properties ------------------------------------------------------------

def _sets(k):
    return st.sets(st.integers(1, 4), min_size=k, max_size=k).map(
        lambda s: tuple(sorted(s)))


# three subsets of 1..4 of one size, and three (J, I) pairs of one pair of
# sizes; a small ground set makes comparable triples common
_triples = st.integers(0, 3).flatmap(lambda k: st.tuples(*[_sets(k)] * 3))
_pair_triples = st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
    lambda kl: st.tuples(*[st.tuples(_sets(kl[0]), _sets(kl[1]))] * 3))


@settings(max_examples=100, deadline=None)
@given(_triples)
def test_dominance_is_a_partial_order_refined_by_lex(abc):
    a, b, c = abc
    assert dominated(a, a)
    if dominated(a, b) and dominated(b, a):
        assert a == b
    if dominated(a, b) and dominated(b, c):
        assert dominated(a, c)
    if dominated(a, b):
        assert a <= b


@settings(max_examples=100, deadline=None)
@given(_pair_triples)
def test_pair_dom_strictly_less_is_a_strict_order(xyz):
    x, y, z = xyz
    assert not pair_dom_strictly_less(x, x)
    if pair_dom_strictly_less(x, y) and pair_dom_strictly_less(y, z):
        assert pair_dom_strictly_less(x, z)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(1, 8), max_size=6).flatmap(
    lambda s: st.tuples(st.just(tuple(sorted(s))),
                        st.sets(st.integers(1, len(s)) if s else st.nothing())
                        .map(lambda K: tuple(sorted(K))))))
def test_select_rest_split_a_set(IK):
    I, K = IK
    picked, left = select(I, K), rest(I, K)
    assert len(picked) == len(K) and not set(picked) & set(left)
    assert merge(picked, left) == I
