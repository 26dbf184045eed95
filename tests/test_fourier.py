"""Character sums, low-bias sets, overlaps, and the product-alphabet gap."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lgcomplexity import adversary as adv
from lgcomplexity import arrays as ar
from lgcomplexity import fourier as fo
from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.errors import CapacityError, ParameterError
from lgcomplexity.indexing import all_inputs, check_enumerable, decode


class TestFourierBias:
    def test_full_group_exactly_zero(self):
        for p in (5, 12, 1009):
            assert fo.fourier_bias(range(p), p) == 0.0

    def test_singleton_exactly_one_over_p(self):
        for p in (5, 12, 1009):
            assert fo.fourier_bias([0], p) == 1.0 / p
            assert fo.fourier_bias([3 % p], p) == 1.0 / p

    def test_two_element_set_p5(self):
        # oracle: direct character sums over a in {1..4}
        p = 5
        direct = max(
            abs(sum(np.exp(2j * np.pi * a * u / p) for u in (0, 1)))
            for a in range(1, p)
        ) / p
        assert direct == pytest.approx(2 * math.cos(math.pi / 5) / 5)
        assert fo.fourier_bias([0, 1], p) == pytest.approx(direct, abs=1e-12)

    def test_bias_at_most_density(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = int(rng.integers(3, 60))
            size = int(rng.integers(1, p))
            elements = rng.choice(p, size=size, replace=False)
            assert fo.fourier_bias(elements, p) <= size / p + 1e-12

    def test_rejects_elements_outside_group(self):
        with pytest.raises(ParameterError):
            fo.fourier_bias([5], 5)

    def test_transform_is_unitary(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(257)
        transformed = np.fft.fft(x, norm="ortho")
        assert np.linalg.norm(transformed) == pytest.approx(
            np.linalg.norm(x), abs=1e-10
        )


class TestRandomLowBiasSet:
    def test_size_is_rounded_density(self):
        biased = fo.random_low_bias_set(1009, 0.5, seed=0)
        assert len(biased) == 505  # floor(504.5 + 0.5)
        assert biased.bias <= 0.15

    def test_full_density_gives_zero_bias(self):
        biased = fo.random_low_bias_set(17, 0.999, seed=0)
        assert len(biased) == 17
        assert biased.bias == 0.0

    def test_deterministic_given_seed(self):
        a = fo.random_low_bias_set(101, 0.3, seed=5)
        b = fo.random_low_bias_set(101, 0.3, seed=5)
        assert a.elements == b.elements and a.bias == b.bias

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            fo.random_low_bias_set(3, 0.1, seed=0)

    def test_empirical_concentration(self):
        biased = fo.random_low_bias_set(1009, 0.5, seed=0)
        assert biased.bias <= 4 * math.sqrt(math.log(1009) / 1009)


class TestShift:
    def test_zero_shift_is_identity(self):
        assert fo.shift((1, 2, 3), (1, 3), 0, 5) == (1, 2, 3)

    def test_worked_example(self):
        assert fo.shift((1, 2, 3), (1, 3), 2, 5) == (3, 2, 0)

    def test_inverse(self):
        w = (4, 1, 0, 2)
        assert fo.shift(fo.shift(w, (2, 4), 3, 5), (2, 4), -3, 5) == w

    @given(
        c1=hst.integers(min_value=0, max_value=6),
        c2=hst.integers(min_value=0, max_value=6),
        w=hst.tuples(*[hst.integers(min_value=0, max_value=6)] * 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_group_action(self, c1, c2, w):
        subset = (1, 2)
        once = fo.shift(fo.shift(w, subset, c1, 7), subset, c2, 7)
        assert once == fo.shift(w, subset, (c1 + c2) % 7, 7)


@pytest.fixture(scope="module")
def overlap_instance():
    cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2)]),))
    return fo.GeneralInstance(
        cert=cert, p=7, ell=1, biased_set=fo.random_low_bias_set(7, 2 / 7, seed=3)
    )


class TestCharacterOverlap:
    def test_equal_vectors_give_density(self, overlap_instance):
        rng = np.random.default_rng(2)
        for _ in range(30):
            w = tuple(rng.integers(0, 7, 3).tolist())
            for method in ("fast", "brute"):
                value = fo.character_overlap(w, w, 0, 1, overlap_instance, method)
                assert value == pytest.approx(overlap_instance.delta, abs=1e-12)

    def test_non_shift_related_vanish(self, overlap_instance):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 30:
            w = tuple(rng.integers(0, 7, 3).tolist())
            w2 = tuple(rng.integers(0, 7, 3).tolist())
            if fo.shift(w, (1, 2), -w[0], 7) == fo.shift(w2, (1, 2), -w2[0], 7):
                continue
            for method in ("fast", "brute"):
                assert abs(fo.character_overlap(w, w2, 0, 1, overlap_instance, method)) <= 1e-12
            checked += 1

    def test_shift_related_bounded_by_bias(self, overlap_instance):
        rng = np.random.default_rng(4)
        for _ in range(100):
            w = tuple(rng.integers(0, 7, 3).tolist())
            c = int(rng.integers(1, 7))
            w2 = fo.shift(w, (1, 2), c, 7)
            value = fo.character_overlap(w, w2, 0, 1, overlap_instance, "fast")
            assert abs(value) <= overlap_instance.biased_set.bias + 1e-12

    def test_brute_fast_agreement(self, overlap_instance):
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = tuple(rng.integers(0, 7, 3).tolist())
            w2 = tuple(rng.integers(0, 7, 3).tolist())
            brute = fo.character_overlap(w, w2, 0, 1, overlap_instance, "brute")
            fast = fo.character_overlap(w, w2, 0, 1, overlap_instance, "fast")
            assert abs(brute - fast) <= 1e-10

    def test_component_beyond_minimal_count_needs_equality(self):
        cert = st.hidden_shift_structure(2)
        witnessless = st.CertificateStructure(
            cert.n,
            (st.Certificate.from_sets([(1, 3)]), cert.certificates[1]),
        )
        inst = fo.GeneralInstance(
            cert=witnessless, p=5, ell=2,
            biased_set=fo.random_low_bias_set(5, 0.2, seed=0),
        )
        w = (1, 2, 3, 4)
        assert fo.character_overlap(w, w, 0, 2, inst) == 1.0
        assert fo.character_overlap(w, (1, 2, 3, 0), 0, 2, inst) == 0.0

    def test_brute_capacity(self, overlap_instance):
        big = fo.GeneralInstance(
            cert=st.CertificateStructure(
                12, (st.Certificate.from_sets([(1, 2)]),)
            ),
            p=64, ell=1, biased_set=fo.random_low_bias_set(64, 0.125, seed=0),
        )
        with pytest.raises(CapacityError):
            fo.character_overlap((0,) * 12, (0,) * 12, 0, 1, big, "brute")


class TestGeneralInstance:
    def test_hidden_shift_2_parameters(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 16, seed=0)
        assert inst.ell == 2 and len(inst.cert) == 2
        assert len(inst.biased_set) == 2   # round(16/8)
        assert inst.delta == pytest.approx(1 / 8)
        assert inst.q == 256               # alphabet is p^ell

    def test_component_sizes(self):
        # each of the two components keeps |U| p^(n-1) of the p^n vectors
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        for m in range(2):
            assert inst.x_size(m) == (len(inst.biased_set) * 8 ** 3) ** 2

    def test_component_arrays_are_orthogonal(self):
        # component i's array over Z_p^ell keeps the rows whose i-th components sum into U
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        hard = inst.to_hard_instance()
        for m in range(2):
            for rows in hard.arrays[m]:
                assert len(rows) == len(inst.biased_set) * inst.q ** rows.k // inst.p
                assert ar.verify_orthogonal_array(rows).ok

    def test_product_factorization_at_p4(self):
        # the positive set over the product alphabet is exactly the product of
        # its component positive sets, checked by enumeration
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        hard = inst.to_hard_instance()
        for m in range(2):
            assert hard.x_size(m) == inst.x_size(m)
            digits = ar.decode(hard.x_sets[m], inst.q, inst.n)
            for i in (1, 2):
                # component i (big-endian) of every symbol, summed over the i-th minimal set
                w = digits // inst.p ** (inst.ell - i) % inst.p
                members = [j - 1 for j in st.mask_members(inst.generator_mask(m, i))]
                assert inst.biased_set.indicator()[w[:, members].sum(axis=1) % inst.p].all()

    def test_orthogonality_exhaustive_at_p4(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        hard = inst.to_hard_instance()
        for m in range(2):
            assert ar.verify_orthogonality_property(hard, m).ok

    def test_negative_set_bound_with_target_density(self):
        cert = st.hidden_shift_structure(2)
        for p in (8, 16, 32):
            inst = fo.build_general_instance(cert, p, seed=0)
            assert inst.y_size() >= inst.q ** inst.n / 2

    def test_negative_set_matches_enumeration_at_p4(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        assert inst.y_size() == inst.to_hard_instance().y_size()

    def test_too_small_modulus(self):
        with pytest.raises(ParameterError):
            fo.build_general_instance(st.hidden_shift_structure(2), 3, seed=0)

    def test_first_draw_is_the_random_set(self):
        # the 8 draws come from one seeded stream; at p = 4 every draw is one
        # element with bias 1/4, so the first is kept
        inst = fo.build_general_instance(st.hidden_shift_structure(2), 4, seed=3)
        assert inst.biased_set == fo.random_low_bias_set(4, 1 / 8, seed=3)

    def test_keeps_the_lowest_bias_draw(self):
        inst = fo.build_general_instance(st.hidden_shift_structure(2), 64, seed=6)
        rng = np.random.default_rng(6)
        biases = [fo.fourier_bias(rng.choice(64, size=8, replace=False), 64) for _ in range(8)]
        assert inst.biased_set.bias == min(biases)

    def test_modulus_ladder_strictly_decreasing_at_seeds_0_to_199(self):
        # verify-all's general/gap-decreasing-m0/-m1 on the default ladder; with
        # one draw per modulus 30 of these seeds tie or increase
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        failing = []
        for seed in range(200):
            instances = [fo.build_general_instance(cert, p, seed) for p in (16, 32, 64)]
            for m in range(len(cert)):
                gaps = [fo.restriction_gap(inst, witness, 1, m) for inst in instances]
                if not gaps[0] > gaps[1] > gaps[2]:
                    failing.append((seed, m, gaps))
        assert failing == []


class TestEquivalenceClasses:
    def test_single_component_classes_at_most_n(self):
        # one minimal set of size 2 on three variables: class size <= 3
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2)]),))
        inst = fo.GeneralInstance(
            cert=cert, p=5, ell=1, biased_set=fo.random_low_bias_set(5, 0.2, seed=0)
        )
        witness = lg.DualWitness(3, np.where(
            st.membership_table(cert), 0.0,
            np.maximum(2.0 - st.subset_sizes(3).astype(float), 0.0)[None, :],
        ))
        beta = adv.difference_coefficients(witness, 3)
        classes = fo.equivalence_classes(inst, 0, beta)
        assert classes
        for cls in classes:
            assert 1 <= len(cls) <= 3
            assert cls.representative in cls.members

    def test_zero_coefficient_vectors_excluded(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        witness = wt.hidden_shift_witness(2)
        beta = adv.difference_coefficients(witness, 1)
        classes = fo.equivalence_classes(inst, 0, beta)
        for cls in classes:
            for member in cls.members:
                assert beta[0][fo._vector_support_mask(member)] != 0

    def test_classes_partition(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        beta = adv.difference_coefficients(wt.hidden_shift_witness(2), 2)
        classes = fo.equivalence_classes(inst, 1, beta)
        seen = [member for cls in classes for member in cls.members]
        assert len(seen) == len(set(seen))
        bound = inst.n ** inst.ell
        assert all(len(cls) <= bound for cls in classes)


class TestRestrictionGap:
    def test_diagonal_entries_match_exactly(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        witness = wt.hidden_shift_witness(2)
        beta = adv.difference_coefficients(witness, 1)
        classes = fo.equivalence_classes(inst, 0, beta, cap=1 << 24)
        for cls in classes[:40]:
            for r, member in enumerate(cls.members):
                support = fo._vector_support_mask(member)
                scale = inst.delta ** (-inst.minimal_count(0))
                # product of equal-vector overlaps per constrained component
                diag = scale * beta[0][support] ** 2 * inst.delta ** inst.minimal_count(0)
                assert diag == pytest.approx(beta[0][support] ** 2, rel=1e-12)
                block = fo._class_gap_matrix(inst, 0, beta[0], cls)
                assert block[r, r] == 0.0

    def test_offdiagonal_bound(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        witness = wt.hidden_shift_witness(2)
        beta = adv.difference_coefficients(witness, 1)
        ratio = inst.biased_set.bias / inst.delta
        classes = fo.equivalence_classes(inst, 0, beta)
        assert classes
        for cls in classes:
            block = fo._class_gap_matrix(inst, 0, beta[0], cls)
            for r, vr in enumerate(cls.members):
                for s, vs in enumerate(cls.members):
                    if r == s:
                        continue
                    br = abs(beta[0][fo._vector_support_mask(vr)])
                    bs = abs(beta[0][fo._vector_support_mask(vs)])
                    assert abs(block[r, s]) <= ratio * br * bs + 1e-12

    def test_gap_ladder_decreasing_and_bounded(self):
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        beta = adv.difference_coefficients(witness, 1)
        gaps = {m: [] for m in range(2)}
        for p in (16, 32, 64):
            inst = fo.build_general_instance(cert, p, seed=0)
            for m in range(2):
                gap = fo.restriction_gap(inst, witness, 1, m)
                assert gap <= fo.restriction_gap_bound(inst, beta, m)
                gaps[m].append(gap)
        for m in range(2):
            assert gaps[m][0] > gaps[m][1] > gaps[m][2]

    def test_block_entries_brute_verified_at_p8(self):
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        beta = adv.difference_coefficients(witness, 1)
        for m in range(2):
            classes = fo.equivalence_classes(inst, m, beta, cap=1 << 24)
            pair_classes = [cls for cls in classes if len(cls) > 1][:20]
            assert pair_classes
            for cls in pair_classes:
                block = fo._class_gap_matrix(inst, m, beta[m], cls)
                for r, vr in enumerate(cls.members):
                    for s, vs in enumerate(cls.members):
                        if r == s:
                            continue
                        prod = 1.0 + 0.0j
                        for i in range(1, inst.ell + 1):
                            wr = tuple(sym[i - 1] for sym in vr)
                            ws = tuple(sym[i - 1] for sym in vs)
                            prod *= fo.character_overlap(wr, ws, m, i, inst, "brute")
                        expected = (
                            inst.delta ** (-inst.minimal_count(m))
                            * beta[m][fo._vector_support_mask(vr)]
                            * beta[m][fo._vector_support_mask(vs)]
                            * prod
                        )
                        assert abs(block[r, s] - expected) <= 1e-10

    def test_big_support_over_cap_refused(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 64, seed=0)
        alpha = np.maximum(3.0 - st.subset_sizes(4).astype(float), 0.0)
        witness = lg.DualWitness(4, np.where(
            st.membership_table(cert), 0.0, alpha[None, :]
        ))
        with pytest.raises(CapacityError):
            fo.restriction_gap(inst, witness, 1, 0)

    def test_big_support_within_class_cap_measured(self):
        # q^n = 2^24, but only 7680 classes carry a nonzero coefficient
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        witness = _two_set_witness(cert)
        beta = adv.difference_coefficients(witness, 1)
        for m in (0, 1):
            gap = fo.restriction_gap(inst, witness, 1, m)
            assert 0.0 < gap <= fo.restriction_gap_bound(inst, beta, m)


def _full_scan_grid(instance, beta_rows):
    """The q^n digit rows in code order whose support some beta row weights nonzero, with
    each kept row's support mask; decoded 2^20 codes at a time."""
    weighted = np.any(np.asarray(beta_rows) != 0, axis=0)
    total = check_enumerable(instance.q, instance.n, 1 << 24)
    kept = []
    for start in range(0, total, 1 << 20):
        digits = decode(np.arange(start, min(start + (1 << 20), total)), instance.q, instance.n)
        support_masks = np.zeros(len(digits), dtype=np.int64)
        for j in range(instance.n):
            support_masks |= (digits[:, j] != 0).astype(np.int64) << j
        keep = weighted[support_masks]
        kept.append((digits[keep], support_masks[keep]))
    digits, support_masks = zip(*kept)
    return np.concatenate(digits), np.concatenate(support_masks)


def _classes_by_full_scan(instance, m, beta, grid=None):
    """Oracle: decode all q^n inputs, keep the nonzero-coefficient ones in code order."""
    q = instance.q
    beta_row = np.asarray(beta)[m]

    def support_ok(mask):
        return beta_row[mask] != 0

    digits, support_masks = grid if grid is not None else _full_scan_grid(instance, [beta_row])
    keep = beta_row[support_masks] != 0
    symbols = [tuple(decode([c], instance.p, instance.ell)[0].tolist()) for c in range(q)]
    classes = []
    done = set()
    for code in np.flatnonzero(keep):
        v = tuple(symbols[d] for d in digits[code])
        if v in done:
            continue
        cls = fo._class_of(instance, m, v, support_ok)
        done.update(cls.members)
        classes.append(cls)
    return classes


def _two_set_witness(cert):
    """Witness of test_big_support_over_cap_refused: supported on |S| <= 2."""
    alpha = np.maximum(3.0 - st.subset_sizes(4).astype(float), 0.0)
    return lg.DualWitness(4, np.where(st.membership_table(cert), 0.0, alpha[None, :]))


def _enumerated_count(instance, beta_row):
    return sum((instance.q - 1) ** int(s).bit_count() for s in np.flatnonzero(beta_row))


class TestSupportEnumeration:
    @pytest.mark.parametrize("p", [4, 8])
    def test_matches_full_scan_on_hidden_shift(self, p):
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        inst = fo.build_general_instance(cert, p, seed=0)
        betas = [adv.difference_coefficients(witness, j) for j in (1, 2)]
        grid = _full_scan_grid(inst, np.concatenate(betas))
        for beta in betas:
            for m in (0, 1):
                assert fo.equivalence_classes(inst, m, beta) == \
                    _classes_by_full_scan(inst, m, beta, grid)

    def test_matches_full_scan_on_single_component(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2)]),))
        inst = fo.GeneralInstance(
            cert=cert, p=5, ell=1, biased_set=fo.random_low_bias_set(5, 0.2, seed=0)
        )
        witness = lg.DualWitness(3, np.where(
            st.membership_table(cert), 0.0,
            np.maximum(2.0 - st.subset_sizes(3).astype(float), 0.0)[None, :],
        ))
        beta = adv.difference_coefficients(witness, 3)
        assert fo.equivalence_classes(inst, 0, beta) == _classes_by_full_scan(inst, 0, beta)

    def test_matches_full_scan_on_two_set_supports(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 4, seed=0)
        beta = adv.difference_coefficients(_two_set_witness(cert), 1)
        classes = fo.equivalence_classes(inst, 0, beta)
        assert classes == _classes_by_full_scan(inst, 0, beta)
        assert sum(len(cls) for cls in classes) == _enumerated_count(inst, beta[0])

    def test_partition_beyond_int64_codes(self):
        # q^n = 4096^6 = 2^72: digit codes would wrap in int64
        cert = st.hidden_shift_structure(3)
        inst = fo.build_general_instance(cert, 16, seed=0)
        assert inst.q ** inst.n > 2 ** 63
        beta = adv.difference_coefficients(wt.hidden_shift_witness(3), 2)
        classes = fo.equivalence_classes(inst, 0, beta)
        members = [member for cls in classes for member in cls.members]
        assert len(members) == _enumerated_count(inst, beta[0]) == 20476
        assert len(set(members)) == len(members)
        assert all(beta[0][fo._vector_support_mask(v)] != 0 for v in members)
        representatives = [cls.representative for cls in classes]
        assert representatives == sorted(representatives)

    def test_cap_counts_enumerated_vectors(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 64, seed=0)
        beta = adv.difference_coefficients(_two_set_witness(cert), 1)
        assert _enumerated_count(inst, beta[0]) == 33550336
        started = time.perf_counter()
        with pytest.raises(CapacityError):
            fo.equivalence_classes(inst, 0, beta)
        assert time.perf_counter() - started < 0.1

    def test_small_supports_accepted_beyond_q_to_the_n(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 16, seed=0)
        assert inst.q ** inst.n > fo._BRUTE_CAP
        beta = adv.difference_coefficients(wt.hidden_shift_witness(2), 1)
        classes = fo.equivalence_classes(inst, 0, beta)
        assert sum(len(cls) for cls in classes) == _enumerated_count(inst, beta[0])

    @pytest.mark.parametrize("p", [4, 16, 32, 64])
    def test_closed_form_matches_exhaustive_gap(self, p):
        cert = st.hidden_shift_structure(2)
        witness = wt.hidden_shift_witness(2)
        inst = fo.build_general_instance(cert, p, seed=0)
        beta = adv.difference_coefficients(witness, 1)
        for m in (0, 1):
            exhaustive = max(
                float(np.linalg.norm(fo._class_gap_matrix(inst, m, beta[m], cls), 2))
                for cls in fo.equivalence_classes(inst, m, beta) if len(cls) > 1
            )
            closed = fo.restriction_gap(inst, witness, 1, m)
            assert closed == pytest.approx(exhaustive, abs=1e-12)


def _class_by_loop(instance, m, v, support_ok):
    """Oracle: one candidate shift at a time, with a scalar support gate."""
    p, ell = instance.p, instance.ell
    lm = instance.minimal_count(m)
    candidate_lists = []
    for i in range(1, ell + 1):
        if i > lm:
            candidate_lists.append((0,))
            continue
        members = st.mask_members(instance.generator_mask(m, i))
        candidate_lists.append(tuple(sorted({(-v[j - 1][i - 1]) % p for j in members})))
    seen = {}
    for combo in itertools.product(*candidate_lists):
        shifted = []
        for j in range(instance.n):
            symbol = list(v[j])
            for i in range(1, lm + 1):
                if (instance.generator_mask(m, i) >> j) & 1:
                    symbol[i - 1] = (symbol[i - 1] + combo[i - 1]) % p
            shifted.append(tuple(symbol))
        shifted = tuple(shifted)
        if support_ok(fo._vector_support_mask(shifted)) and shifted not in seen:
            seen[shifted] = combo
    members = tuple(sorted(seen))
    return fo.EquivalenceClass(representative=v, members=members,
                               shifts=tuple(seen[member] for member in members))


class TestCachedCharacterData:
    def test_transform_computed_once_and_read_only(self):
        biased = fo.random_low_bias_set(11, 0.4, seed=2)
        sums = biased.character_sums()
        assert sums is biased.character_sums()
        assert not sums.flags.writeable
        with pytest.raises(ValueError):
            sums[1] = 0.0
        direct = np.conj(np.fft.fft(biased.indicator().astype(float))) / 11
        assert np.array_equal(sums, direct)

    def test_component_rows_computed_once_and_read_only(self, overlap_instance):
        mask = overlap_instance.generator_mask(0, 1)
        rows = overlap_instance.component_rows(mask)
        assert rows is overlap_instance.component_rows(mask)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        grid = all_inputs(7, 3)
        keep = overlap_instance.biased_set.indicator()[grid[:, [0, 1]].sum(axis=1) % 7]
        assert np.array_equal(rows, grid[keep])

    def test_equality_and_hashing_ignore_the_caches(self):
        cert = st.hidden_shift_structure(2)
        cached = fo.build_general_instance(cert, 8, seed=1)
        fresh = fo.build_general_instance(cert, 8, seed=1)
        cached.biased_set.character_sums()
        cached.component_rows(cached.generator_mask(0, 1))
        fo.equivalence_classes(cached, 0, adv.difference_coefficients(
            wt.hidden_shift_witness(2), 1))
        assert cached == fresh and hash(cached) == hash(fresh)
        assert cached.biased_set == fresh.biased_set
        assert hash(cached.biased_set) == hash(fresh.biased_set)
        assert cached != fo.build_general_instance(cert, 8, seed=2)

    def test_brute_matches_fast_for_every_w_prime_in_z5_cubed(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 3)]),))
        inst = fo.GeneralInstance(
            cert=cert, p=5, ell=1, biased_set=fo.random_low_bias_set(5, 0.4, seed=4)
        )
        grid = [tuple(row) for row in all_inputs(5, 3).tolist()]
        for w in ((0, 0, 0), (1, 2, 3), (4, 0, 2), (3, 3, 1), (2, 4, 4)):
            for w_prime in grid:
                brute = fo.character_overlap(w, w_prime, 0, 1, inst, "brute")
                fast = fo.character_overlap(w, w_prime, 0, 1, inst, "fast")
                assert abs(brute - fast) <= 1e-12

    def test_brute_is_the_exhaustive_sum_bit_for_bit(self):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=3)
        grid = all_inputs(8, 4)
        rng = np.random.default_rng(9)
        for m, i in ((0, 1), (0, 2), (1, 1), (1, 2)):
            members = [j - 1 for j in st.mask_members(inst.generator_mask(m, i))]
            keep = inst.biased_set.indicator()[grid[:, members].sum(axis=1) % 8]
            for _ in range(10):
                w, w_prime = rng.integers(0, 8, 4), rng.integers(0, 8, 4)
                phases = (grid[keep] @ (w_prime - w)) % 8
                direct = complex(np.exp(2j * np.pi * phases / 8).sum() / 8 ** 4)
                assert fo.character_overlap(w, w_prime, m, i, inst, "brute") == direct

    def test_bias_and_elements_from_arrays(self):
        elements = np.random.default_rng(6).choice(10007, size=5003, replace=False)
        biased = fo.BiasedSet.from_elements(elements, 10007)
        assert biased.elements == tuple(sorted(set(elements.tolist())))
        indicator = np.zeros(10007)
        indicator[elements] = 1.0
        assert biased.bias == float(np.abs(np.fft.fft(indicator)[1:]).max() / 10007)
        assert fo.BiasedSet.from_elements([3, 1, 3], 5).elements == (1, 3)
        with pytest.raises(ParameterError, match="element -1 outside Z_5"):
            fo.fourier_bias(iter([2, -1, 7]), 5)
        with pytest.raises(ParameterError):
            fo.BiasedSet(p=5, elements=(1, 5), bias=0.1)


class TestBroadcastClasses:
    @pytest.mark.parametrize("j", [1, 2])
    def test_classes_equal_the_loop_on_hidden_shift_2_at_p8(self, j):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        beta = adv.difference_coefficients(wt.hidden_shift_witness(2), j)
        for m in range(len(cert)):
            classes = fo.equivalence_classes(inst, m, beta)
            assert classes == [_class_by_loop(inst, m, cls.representative,
                                              lambda mask: beta[m][mask] != 0)
                               for cls in classes]

    def test_class_of_equals_the_loop_on_a_three_set(self):
        # a three-element minimal set repeats candidate shifts whenever two of its
        # coordinates agree; every vector of Z_9^4 is a representative here
        cert = st.CertificateStructure(
            4, (st.Certificate.from_sets([(1, 2, 3), (2, 4)]),)
        )
        inst = fo.GeneralInstance(cert=cert, p=3, ell=2,
                                  biased_set=fo.random_low_bias_set(3, 0.4, seed=0))
        beta_row = np.random.default_rng(8).integers(0, 2, 16).astype(float)
        beta_row[0] = 1.0
        symbols = [tuple(s) for s in decode(np.arange(9), 3, 2).tolist()]
        for row in all_inputs(9, 4).tolist():
            v = tuple(symbols[d] for d in row)
            assert fo._class_of(inst, 0, v, lambda mask: beta_row[mask] != 0) == \
                _class_by_loop(inst, 0, v, lambda mask: beta_row[mask] != 0)

    def test_chunk_boundaries_do_not_move_classes(self, monkeypatch):
        cert = st.hidden_shift_structure(2)
        inst = fo.build_general_instance(cert, 8, seed=0)
        beta = adv.difference_coefficients(wt.hidden_shift_witness(2), 1)
        whole = fo.equivalence_classes(inst, 0, beta)
        monkeypatch.setattr(fo, "_CLASS_CHUNK", 7)
        assert fo.equivalence_classes(inst, 0, beta) == whole
