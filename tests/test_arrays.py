"""Orthogonal arrays, hard instances, and the uniform-projection property."""

import itertools
import json
import time

import numpy as np
import pytest

from lgcomplexity import arrays as ar
from lgcomplexity import structures as st
from lgcomplexity.errors import CapacityError, ParameterError, StructuralError


class TestSumArray:
    def test_smallest_examples(self):
        assert ar.sum_array(3, 2).rows == ((0, 0), (1, 2), (2, 1))
        assert ar.sum_array(5, 1).rows == ((0,),)

    def test_parity_rows(self):
        array = ar.sum_array(2, 3)
        assert len(array) == 4
        assert all(sum(row) % 2 == 0 for row in array.rows)

    def test_size_is_q_to_k_minus_one(self):
        for q, k in [(2, 2), (3, 3), (8, 2), (5, 3)]:
            assert len(ar.sum_array(q, k)) == q ** (k - 1)

    def test_all_small_sum_arrays_verify(self):
        for q in range(2, 17):
            for k in range(1, 4):
                assert ar.verify_orthogonal_array(ar.sum_array(q, k)).ok


class TestVerifyOrthogonalArray:
    def test_full_cube(self):
        rows = tuple(itertools.product(range(3), repeat=2))
        check = ar.verify_orthogonal_array(ar.OrthogonalArray(3, 2, rows))
        assert check.ok and check.completions == 3.0

    def test_planted_violation(self):
        check = ar.verify_orthogonal_array(ar.OrthogonalArray(3, 2, ((0, 0), (1, 1))))
        assert not check.ok
        assert check.note is not None and "not divisible" in check.note
        cx = check.counterexample
        assert cx is not None
        # deterministic scan order: completion coordinate 1, partial (0,)
        assert (cx.coordinate, cx.partial, cx.count) == (1, (0,), 1)
        assert cx.expected == pytest.approx(2 / 3)

    def test_uneven_but_divisible(self):
        # size 3 = q^(k-1) but one partial assignment has two completions
        check = ar.verify_orthogonal_array(
            ar.OrthogonalArray(3, 2, ((0, 0), (0, 1), (1, 2)))
        )
        assert not check.ok
        assert check.note is None
        assert check.counterexample.count != check.completions

    def test_equality_array_is_orthogonal(self):
        rows = tuple((c, c) for c in range(4))
        assert ar.verify_orthogonal_array(ar.OrthogonalArray(4, 2, rows)).ok

    def test_row_validation(self):
        with pytest.raises(StructuralError):
            ar.OrthogonalArray(3, 2, ((0, 3),))
        with pytest.raises(StructuralError):
            ar.OrthogonalArray(3, 2, ((0, 0, 0),))
        with pytest.raises(ParameterError):
            ar.OrthogonalArray(3, 2, ())

    def test_type_validation(self):
        assert ar.OrthogonalArray(3, 2, [[0, 1.0], [np.int64(2), 0]]).rows == ((0, 1), (2, 0))
        for q, k, rows in [("x", 2, ((0, 0),)), (3.0, 2, ((0, 0),)), (3, True, ((0,),)),
                           (3, 2, 5), (3, 2, ("ab",)), (3, 2, ((0, "a"),)),
                           (3, 2, ((0, 0.5),)), (3, 2, ((0, True),))]:
            with pytest.raises(ParameterError):
                ar.OrthogonalArray(q, k, rows)


@pytest.fixture(scope="module")
def bounded_instance():
    return ar.build_bounded_instance(st.ksubset_structure(3, 2), 8)


class TestBoundedInstance:
    def test_positive_set_sizes(self, bounded_instance):
        assert [bounded_instance.x_size(m) for m in range(3)] == [64, 64, 64]

    def test_negative_set_size_and_union_bound(self, bounded_instance):
        y = bounded_instance.y_size()
        assert y == 342
        assert y >= 8 ** 3 - 3 * 8 ** 2  # union bound
        assert y >= 8 ** 3 / 2
        total_x = sum(bounded_instance.x_size(m) for m in range(3))
        assert total_x + y >= 8 ** 3

    def test_negative_size_cross_checked_by_inclusion_exclusion(self, bounded_instance):
        # independent oracle: count the union of the positive sets by
        # inclusion-exclusion over per-certificate membership predicates
        q, n = 8, 3
        digits = np.array(list(itertools.product(range(q), repeat=n)))
        members = []
        for m, certificate in enumerate(bounded_instance.cert.certificates):
            cols = [j - 1 for j in st.mask_members(certificate.minimal_sets[0])]
            members.append(digits[:, cols].sum(axis=1) % q == 0)
        union = 0
        for r in range(1, 4):
            for combo in itertools.combinations(range(3), r):
                inter = np.ones(len(digits), dtype=bool)
                for m in combo:
                    inter &= members[m]
                union += (-1) ** (r + 1) * int(inter.sum())
        assert q ** n - union == 342 == bounded_instance.y_size()

    def test_requires_large_alphabet(self):
        with pytest.raises(ParameterError) as err:
            ar.build_bounded_instance(st.ksubset_structure(3, 2), 4)
        assert "q >= 2 * |C|" in str(err.value)

    def test_requires_bounded_generation(self):
        with pytest.raises(StructuralError):
            ar.build_bounded_instance(st.hidden_shift_structure(2), 8)

    def test_over_cap_refused_before_building(self):
        # q^n = 16^8 = 2^32: refused before any array is built or verified
        started = time.perf_counter()
        with pytest.raises(CapacityError, match="exceeds the enumeration cap"):
            ar.build_bounded_instance(st.ksubset_structure(8, 1), 16)
        assert time.perf_counter() - started < 0.1

    def test_array_size_checked(self):
        bad = ar.OrthogonalArray(8, 2, tuple((a, a) for a in range(8)))
        cert = st.ksubset_structure(3, 2)
        base = [ar.sum_array(8, 2)] * 2 + [bad]
        inst = ar.build_bounded_instance(cert, 8, base)
        assert inst.x_size(2) == 64  # equality array also has q^(k-1) rows
        short = ar.OrthogonalArray(8, 2, (((0, 0)),))
        with pytest.raises(ParameterError):
            ar.build_bounded_instance(cert, 8, [ar.sum_array(8, 2)] * 2 + [short])


class TestOrthogonalityProperty:
    def test_bounded_instance_uniform(self, bounded_instance):
        for m in range(3):
            assert ar.verify_orthogonality_property(bounded_instance, m).ok

    def test_empty_subset_trivial(self, bounded_instance):
        # the empty projection has a single bucket holding all of X_M
        check = ar.verify_orthogonality_property(bounded_instance, 0)
        assert check.ok

    def test_overlapping_generators_fail_at_1_3(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        inst = ar.build_instance(cert, 4, [[eq, eq]])
        check = ar.verify_orthogonality_property(inst, 0)
        assert not check.ok
        assert check.subset == (1, 3)

    def test_bounded_instance_claims(self, bounded_instance):
        claims = ar.bounded_instance_claims(bounded_instance)
        assert len(claims.orthogonality) == 3 and claims.orthogonal
        assert (claims.y_size, claims.y_bound) == (342, 256.0)
        assert claims.y_bounded and claims.ok

    def test_claims_fail_on_overlapping_generators(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        claims = ar.bounded_instance_claims(ar.build_instance(cert, 4, [[eq, eq]]))
        assert not claims.orthogonal and not claims.ok


class TestEvaluateF:
    def test_total_promise_for_bounded(self, bounded_instance):
        values = set()
        for x in itertools.product(range(8), repeat=3):
            values.add(ar.evaluate_f(bounded_instance, x))
        assert values == {ar.FValue.ONE, ar.FValue.ZERO}

    def test_all_zeros_is_positive(self, bounded_instance):
        assert ar.evaluate_f(bounded_instance, (0, 0, 0)) is ar.FValue.ONE

    def test_arithmetic_example(self, bounded_instance):
        # sums 3, 5, 6 all miss 0 mod 8
        assert ar.evaluate_f(bounded_instance, (1, 2, 4)) is ar.FValue.ZERO

    def test_outside_promise_possible_when_not_bounded(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        inst = ar.build_instance(cert, 4, [[eq, eq]])
        assert ar.evaluate_f(inst, (1, 1, 2)) is ar.FValue.OUTSIDE_PROMISE
        assert ar.evaluate_f(inst, (1, 1, 1)) is ar.FValue.ONE

    def test_positive_sets_partition_consistency(self, bounded_instance):
        # every enumerated positive input evaluates to ONE, negatives to ZERO
        for m in range(3):
            for code in bounded_instance.x_sets[m][:10]:
                digits = ar.decode([code], 8, 3)[0]
                assert ar.evaluate_f(bounded_instance, digits) is ar.FValue.ONE
        for code in bounded_instance.y_codes[:10]:
            digits = ar.decode([code], 8, 3)[0]
            assert ar.evaluate_f(bounded_instance, digits) is ar.FValue.ZERO

    def test_certificate_semantics_fixing_a_member_set(self, bounded_instance):
        """Fixing a positive input on a member subset forces every extension positive."""
        cert = bounded_instance.cert
        q, n = 8, 3
        x0 = (3, 5, 1)  # 3 + 5 = 0 mod 8: in X for the {1,2} certificate
        m = next(
            i for i, c in enumerate(cert.certificates)
            if c.minimal_members == ((1, 2),)
        )
        assert bounded_instance.in_x(m, x0)
        member_set = (1, 2)
        for rest in range(q):
            x = (x0[0], x0[1], rest)
            assert ar.evaluate_f(bounded_instance, x) is ar.FValue.ONE

    def test_rejects_bad_inputs(self, bounded_instance):
        with pytest.raises(StructuralError):
            ar.evaluate_f(bounded_instance, (0, 0))
        with pytest.raises(StructuralError):
            ar.evaluate_f(bounded_instance, (0, 0, 9))
        with pytest.raises(StructuralError):
            bounded_instance.in_x(0, (0, -1, 0))

    @pytest.mark.parametrize("which", ["ksubset-3-2-q8", "overlapping-arrays"])
    def test_lookups_match_array_hits_on_every_input(self, bounded_instance, which):
        if which == "overlapping-arrays":
            cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
            eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
            inst = ar.build_instance(cert, 4, [[eq, eq]])
        else:
            inst = bounded_instance
        seen = set()
        for x in itertools.product(range(inst.q), repeat=inst.n):
            hits = [[tuple(x[j - 1] for j in st.mask_members(g)) in set(array.rows)
                     for g, array in zip(c.minimal_sets, inst.arrays[m])]
                    for m, c in enumerate(inst.cert.certificates)]
            for m, row in enumerate(hits):
                assert inst.in_x(m, x) is all(row)
            expected = (ar.FValue.ONE if any(all(row) for row in hits)
                        else ar.FValue.OUTSIDE_PROMISE if any(map(any, hits))
                        else ar.FValue.ZERO)
            assert ar.evaluate_f(inst, x) is expected
            seen.add(expected)
        assert ar.FValue.ONE in seen and ar.FValue.ZERO in seen

    def test_unsorted_codes_refused(self, bounded_instance):
        with pytest.raises(StructuralError, match="strictly ascending"):
            ar.HardInstance(cert=bounded_instance.cert, q=8, arrays=bounded_instance.arrays,
                            x_sets=bounded_instance.x_sets,
                            y_codes=bounded_instance.y_codes[::-1])


class TestSerialization:
    def test_summary_document(self, bounded_instance):
        doc = bounded_instance.to_summary_dict()
        assert doc["q"] == 8 and doc["n"] == 3
        assert doc["x_sizes"] == [64, 64, 64]
        assert doc["y_size"] == 342
        assert doc["arrays"][0][0]["size"] == 8
        assert len(doc["arrays"][0][0]["rows"]) == 8
        json.dumps(doc)  # serializable

    def test_row_elision(self, bounded_instance):
        doc = bounded_instance.to_summary_dict(row_elision=4)
        assert doc["arrays"][0][0]["rows"] is None

    def test_hash_depends_on_arrays(self, bounded_instance):
        other = ar.build_bounded_instance(
            st.ksubset_structure(3, 2), 8,
            [ar.OrthogonalArray(8, 2, tuple((a, a) for a in range(8)))] * 3,
        )
        assert bounded_instance.instance_hash() != other.instance_hash()
        again = ar.build_bounded_instance(st.ksubset_structure(3, 2), 8)
        assert bounded_instance.instance_hash() == again.instance_hash()
