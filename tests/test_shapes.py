from itertools import combinations

import pytest

from qrea import checks, shapes
from qrea.shapes import (MalformedShape, QuantumShape, ShapeIdeal,
                         build_shape_ideal, enumerate_shapes,
                         shape_qcomm_certificate)


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
    assert build_shape_ideal(s, "dom").generators == []
    assert build_shape_ideal(s, "lex").generators == []


def test_lex_ideal_example_2c():
    # tau = id, u = (0, s1, s2): level-1 chain label is the (2,2) slot
    s = QuantumShape((1, 2, 3), ("0", "s1", "s2"))
    assert s.minor_labels()[0] == ((2,), (2,))
    ideal = build_shape_ideal(s, "lex")
    k1 = sorted((I, J) for (I, J) in ideal.generators if len(I) == 1)
    # raw pattern: all Z_{i,j} with (j, i) lex-below ({2},{2}); adjoints added
    assert k1 == [((1,), (1,)), ((1,), (2,)), ((1,), (3,)),
                  ((2,), (1,)), ((3,), (1,))]
    assert ideal.contains_label((1, 2, 3), (1, 2, 3))  # oversized


def test_ideal_adjoint_closure_and_flavor_inclusion():
    for s in enumerate_shapes(3):
        dom = build_shape_ideal(s, "dom")
        lex = build_shape_ideal(s, "lex")
        dom_set = set(dom.generators)
        lex_set = set(lex.generators)
        assert dom_set <= lex_set
        assert all((J, I) in dom_set for (I, J) in dom_set)
        assert all((J, I) in lex_set for (I, J) in lex_set)


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


def test_shape_families_witness_names_counts_and_first_wrong_family(monkeypatch):
    """With one rank-1 family lost and two rank-3 families swapped, the
    suite fails with the counts by rank and the first rank-3 family whose
    tau and labels differ from the published table."""
    fams = enumerate_shapes(3)
    rank1 = [s for s in fams if s.rank == 1]
    rank3 = [s for s in fams if s.rank == 3]
    swapped = [rank3[0], rank3[2], rank3[1], rank3[3]]
    broken = [s for s in fams if s.rank not in (1, 3)] + rank1[1:] + swapped
    monkeypatch.setattr(shapes, "enumerate_shapes", lambda N: broken)
    (cert,) = checks.check_shape_families(3, 0)
    assert cert.status == "fail"
    w = cert.witness
    assert w["counts"] == {"0": 1, "1": 2, "2": 6, "3": 4}
    assert w["expected_counts"] == {"1": 3, "2": 6, "3": 4}
    tau, labels = checks.SHAPE_RANK3_N3[1]
    assert w["first"] == {"family": rank3[2].to_json(),
                          "labels": rank3[2].minor_labels(),
                          "expected_tau": tau, "expected_labels": labels}


@pytest.mark.parametrize("flavor, condition", [
    ("lex", "dom inside lex"), ("dom", "dom adjoint-closed"),
    ("lex", "lex adjoint-closed")])
def test_shape_ideals_witness_names_family_and_broken_condition(
        monkeypatch, flavor, condition):
    """One label dropped from (or, for lex closure, added to) one ideal of
    one family breaks one condition; the witness names that family, the
    condition and the least offending label."""
    build = shapes.build_shape_ideal
    target = next(s for s in enumerate_shapes(3)
                  if any(I != J for I, J in build(s, "dom").generators))
    dom = build(target, "dom").generators
    if condition == "dom inside lex":
        dropped, added = min(dom), None   # lex keeps (J, I): closure holds
        offending = dropped
    elif condition == "dom adjoint-closed":
        dropped, added = min((I, J) for I, J in dom if I != J), None
        offending = dropped[::-1]
    else:
        dropped, added = None, ((1,), (2, 3))   # its adjoint is absent
        offending = added

    def broken(shape, fl="dom"):
        ideal = build(shape, fl)
        if shape == target and fl == flavor:
            gens = [g for g in ideal.generators if g != dropped]
            ideal = ShapeIdeal(shape=shape, flavor=fl,
                               generators=gens + [added] * (added is not None))
        return ideal
    monkeypatch.setattr(shapes, "build_shape_ideal", broken)
    (cert,) = checks.check_shape_ideals(3, 0)
    assert cert.status == "fail"
    assert cert.witness == {"family": target.to_json(), "condition": condition,
                            "label": offending}
