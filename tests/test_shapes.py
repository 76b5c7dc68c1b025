from itertools import combinations

import pytest

from qrea.shapes import (MalformedShape, QuantumShape, build_shape_ideal,
                         enumerate_shapes, shape_qcomm_certificate)
from test_suite_mutations import row_test


def test_family_counts_n3():
    fams = enumerate_shapes(3)
    by_rank = {}
    for s in fams:
        by_rank.setdefault(s.rank, []).append(s)
    assert len(by_rank[3]) == 4
    assert len(by_rank[2]) == 6
    assert len(by_rank[1]) == 3
    assert len(by_rank[0]) == 1


def test_family_counts_n1():
    fams = enumerate_shapes(1)
    assert len(fams) == 2
    assert {s.rank for s in fams} == {0, 1}
    assert fams[0].u == ("s1",)


def test_rank3_family_table():
    fams = [s for s in enumerate_shapes(3) if s.rank == 3]
    expected = [
        ((1, 2, 3), ("s1", "s2", "s3"),
         [((1,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2, 3))]),
        ((2, 1, 3), ("y", "ybar", "s1"),
         [((2,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2, 3))]),
        ((3, 2, 1), ("y", "s1", "ybar"),
         [((3,), (1,)), ((1, 3), (1, 3)), ((1, 2, 3), (1, 2, 3))]),
        ((1, 3, 2), ("s1", "y", "ybar"),
         [((3,), (2,)), ((2, 3), (2, 3)), ((1, 2, 3), (1, 2, 3))]),
    ]
    for s, (tau, u, labels) in zip(fams, expected):
        assert s.tau == tau
        assert s.u == u
        assert s.minor_labels() == labels


def test_rank2_family_table():
    fams = [s for s in enumerate_shapes(3) if s.rank == 2]
    expected_first = [((1,), (1,)), ((1,), (1,)), ((2,), (2,)),
                      ((2,), (1,)), ((3,), (1,)), ((3,), (2,))]
    expected_second = [((1, 2), (1, 2)), ((1, 3), (1, 3)), ((2, 3), (2, 3)),
                       ((1, 2), (1, 2)), ((1, 3), (1, 3)), ((2, 3), (2, 3))]
    assert [s.minor_labels()[0] for s in fams] == expected_first
    assert [s.minor_labels()[1] for s in fams] == expected_second


def test_rank1_family_table():
    fams = [s for s in enumerate_shapes(3) if s.rank == 1]
    assert [s.minor_labels()[0] for s in fams] == \
        [((1,), (1,)), ((2,), (2,)), ((3,), (3,))]


def test_all_families_self_adjoint():
    # the constructor raises MalformedShape unless every two-cycle holds a
    # conjugate phase pair, so each family must rebuild from its own data
    for N in range(1, 6):
        for s in enumerate_shapes(N):
            assert QuantumShape(s.tau, s.u) == s
            assert QuantumShape.from_json(s.to_json()) == s


def test_malformed_shapes():
    with pytest.raises(MalformedShape):
        QuantumShape((2, 1), ("0", "0"))          # zero slot on a 2-cycle
    with pytest.raises(MalformedShape):
        QuantumShape((1, 2), ("y", "ybar"))       # phase pair on fixed points
    with pytest.raises(MalformedShape):
        QuantumShape((2, 1), ("y", "y"))          # not conjugate
    with pytest.raises(MalformedShape):
        QuantumShape((2, 2), ("s1", "s2"))        # not a permutation
    with pytest.raises(MalformedShape):
        QuantumShape((2, 1), ("s1", "s1"))        # sign slots on a 2-cycle
    with pytest.raises(MalformedShape):
        QuantumShape.from_json({"tau": [2, 1], "u": [5, "5bar"]})  # int slot
    with pytest.raises(MalformedShape):
        QuantumShape((2, 1), (5, "5bar"))         # int slot, no JSON
    with pytest.raises(MalformedShape):
        QuantumShape(("2", 1), ("y", "ybar"))     # string tau entry


def test_shape_json_roundtrip():
    s = QuantumShape((2, 1, 3), ("y", "ybar", "0"))
    assert QuantumShape.from_json(s.to_json()) == s


def test_identity_rank2_ideal_empty_n2():
    s = QuantumShape((1, 2), ("s1", "s2"))
    assert build_shape_ideal(s, "dom") == frozenset()
    assert build_shape_ideal(s, "lex") == frozenset()


def test_lex_ideal_example_2c():
    # tau = id, u = (0, s1, s2): level-1 chain label is the (2,2) slot
    s = QuantumShape((1, 2, 3), ("0", "s1", "s2"))
    assert s.minor_labels()[0] == ((2,), (2,))
    ideal = build_shape_ideal(s, "lex")
    assert isinstance(ideal, frozenset)
    k1 = sorted((I, J) for (I, J) in ideal if len(I) == 1)
    # raw pattern: all Z_{i,j} with (j, i) lex-below ({2},{2}); adjoints added
    assert k1 == [((1,), (1,)), ((1,), (2,)), ((1,), (3,)),
                  ((2,), (1,)), ((3,), (1,))]
    # the rank is 2: the one 3-minor lies in the ideal, and no label is larger
    assert [(I, J) for (I, J) in ideal if len(I) > 2] == [((1, 2, 3),
                                                          (1, 2, 3))]


def test_ideal_adjoint_closure_and_flavor_inclusion():
    for s in enumerate_shapes(3):
        dom = build_shape_ideal(s, "dom")
        lex = build_shape_ideal(s, "lex")
        assert dom <= lex
        assert all((J, I) in dom for (I, J) in dom)
        assert all((J, I) in lex for (I, J) in lex)


def test_qcomm_identity_shape_level1(ctx3):
    s = QuantumShape((1, 2, 3), ("s1", "s2", "s3"))
    cert = shape_qcomm_certificate(ctx3, s, 1, (2,), (2,))
    assert cert.status == "pass"
    assert cert.instance["exponent"] == 0


def test_qcomm_symmetric_label(ctx3):
    s = QuantumShape((1, 2, 3), ("s1", "s2", "s3"))
    # I = chain level, J = its involution image: symmetric label, exponent
    # cancels to zero
    cert = shape_qcomm_certificate(ctx3, s, 2, (1, 2), (1, 2))
    assert cert.status == "pass"
    assert cert.instance["exponent"] == 0


def test_qcomm_transposition_family_exponents(ctx3):
    s = QuantumShape((2, 1, 3), ("y", "ybar", "0"))
    assert s.minor_labels()[0] == ((2,), (1,))
    A, B = (1,), (2,)
    for I in combinations((1, 2, 3), 1):
        for J in combinations((1, 2, 3), 1):
            cert = shape_qcomm_certificate(ctx3, s, 1, I, J)
            assert cert.status == "pass"
            e = (len(set(I) & set(A)) + len(set(I) & set(B))
                 - len(set(J) & set(A)) - len(set(J) & set(B)))
            assert cert.instance["exponent"] == e


# -- witnesses of the shape suites: rows of the mutation table --------------

test_shape_families_witness_names_counts_and_first_wrong_family = row_test(
    "rea.shape-families")
test_shape_ideals_witness_names_family_and_broken_condition = row_test(
    "rea.shape-ideals", "rea.shape-ideals dom-closure",
    "rea.shape-ideals lex-closure", ids=[
        "lex-dom inside lex", "dom-dom adjoint-closed",
        "lex-lex adjoint-closed"])
