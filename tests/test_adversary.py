"""Projector algebra, block operators, masked norms, and the ratio pipeline."""

import math
import time
from functools import reduce

import numpy as np
import pytest

from lgcomplexity import adversary as adv
from lgcomplexity import arrays as ar
from lgcomplexity import lgsolver as lg
from lgcomplexity import structures as st
from lgcomplexity import witnesses as wt
from lgcomplexity.errors import (
    CapacityError,
    ConsistencyError,
    InvariantViolation,
    ParameterError,
    StructuralError,
)
from lattice_helpers import witness_from_entries


FLAVORS = ("real_householder", "fourier")


def _unit_basis(q, flavor):
    """An orthonormal basis of C^q (columns) whose first vector is the normalized all-ones.

    E_0 and E_1 do not depend on the completion, so the test oracle builds
    them in two: a real Householder reflection and the characters of Z_q.
    """
    if flavor == "fourier":
        a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="xy")
        return np.exp(2j * np.pi * a * b / q) / math.sqrt(q)
    v = np.eye(q)[0] - np.full(q, 1 / math.sqrt(q))
    v /= np.linalg.norm(v)
    return np.eye(q) - 2.0 * np.outer(v, v)


class TestBasis:
    def test_complement_projector_entries_q2(self):
        assert np.allclose(adv.complement_projector(2),
                           [[0.5, -0.5], [-0.5, 0.5]])

    def test_ones_projector_entries(self):
        for q in (2, 3, 5):
            assert np.allclose(adv.ones_projector(q), np.full((q, q), 1 / q))

    def test_completeness(self):
        for q in (2, 4):
            total = adv.ones_projector(q) + adv.complement_projector(q)
            assert np.allclose(total, np.eye(q))

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_orthonormal_with_uniform_first_vector(self, flavor):
        for q in (2, 3, 5, 8):
            basis = _unit_basis(q, flavor)
            gram = basis.conj().T @ basis
            assert np.allclose(gram, np.eye(q), atol=1e-12)
            assert np.allclose(basis[:, 0], np.full(q, q ** -0.5))

    def test_fourier_characters(self):
        q = 5
        basis = _unit_basis(q, "fourier")
        for a in range(q):
            for b in range(q):
                assert basis[b, a] == pytest.approx(
                    np.exp(2j * np.pi * a * b / q) / math.sqrt(q)
                )


class TestPatternProjectors:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (5, 2), (5, 3)])
    def test_resolution_of_identity(self, q, n):
        total = sum(adv.pattern_projector(q, n, s) for s in range(1 << n))
        assert np.allclose(total, np.eye(q ** n), atol=1e-10)

    @pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2)])
    def test_pairwise_orthogonal_idempotent(self, q, n):
        projectors = [adv.pattern_projector(q, n, s) for s in range(1 << n)]
        for s, ps in enumerate(projectors):
            assert np.allclose(ps @ ps, ps, atol=1e-10)
            for t, pt in enumerate(projectors):
                if s != t:
                    assert np.allclose(ps @ pt, 0, atol=1e-10)

    def test_projector_norm_is_one(self):
        norm = np.linalg.norm(adv.pattern_projector(3, 2, 0b10), 2)
        assert norm == pytest.approx(1.0, abs=1e-12)


class TestDifferenceCoefficients:
    def test_zero_inside_members_and_direction(self):
        cert = st.ksubset_structure(3, 2)
        witness = wt.ksubset_witness(3, 2)
        beta = adv.difference_coefficients(witness, 2)
        member = st.membership_table(cert)
        masks = np.arange(1 << 3)
        has_j = (masks >> 1) & 1 == 1
        assert not beta[:, has_j].any()
        assert not beta[member].any()

    def test_constant_direction_vanishes(self):
        n = 2
        alpha = np.ones((1, 4))  # constant in every direction
        witness = lg.DualWitness(n, alpha)
        assert not adv.difference_coefficients(witness, 1).any()

    def test_ksubset_3_1_direction_1(self):
        witness = wt.ksubset_witness(3, 1)
        cert = st.ksubset_structure(3, 1)
        beta = adv.difference_coefficients(witness, 1)
        m1 = next(i for i, c in enumerate(cert.certificates)
                  if c.minimal_members == ((1,),))
        # the singleton {1} is already in that certificate, so the step from
        # the empty set drops all the way from alpha_empty
        assert beta[m1, 0] == pytest.approx(witness.alpha[m1, 0])

    def test_load_bound_for_feasible_witness(self):
        cert = st.ksubset_structure(3, 2)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        for j in (1, 2, 3):
            beta = adv.difference_coefficients(witness, j)
            assert float((beta ** 2).sum(axis=0).max()) <= 1.0 + 1e-12


class TestAssemble:
    def test_rank_one_block_for_empty_only_witness(self):
        witness = witness_from_entries(2, 1, {((), 0): 1.0})
        dense = adv.assemble(witness, q=3).dense()
        assert np.linalg.matrix_rank(dense) == 1
        assert np.linalg.norm(dense, 2) == pytest.approx(1.0)
        assert np.allclose(dense, adv.pattern_projector(3, 2, 0))

    def test_gram_identity_for_difference_operator(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        beta = adv.difference_coefficients(witness, 1)
        dense = adv.assemble(beta, q=3).dense()
        lhs = dense.T @ dense
        rhs = sum(
            float((beta[:, s] ** 2).sum()) * adv.pattern_projector(3, 2, s)
            for s in range(4)
        )
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_difference_operator_norm_at_most_one(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        for j in (1, 2):
            beta = adv.difference_coefficients(witness, j)
            assert adv.spectral_norm(adv.assemble(beta, q=3)).norm <= 1 + 1e-9

    def test_restricted_columns_are_a_submatrix(self):
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, 8)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        beta = adv.difference_coefficients(witness, 1)
        hat = adv.assemble(beta, inst, restrict_columns=False).dense()
        prime = adv.assemble(beta, inst, restrict_columns=True).dense()
        assert np.allclose(prime, hat[:, inst.y_codes])

    def test_shape_mismatch_errors(self):
        witness = wt.ksubset_witness(3, 2)
        inst = ar.build_bounded_instance(st.ksubset_structure(3, 2), 8)
        with pytest.raises(StructuralError):
            adv.assemble(wt.ksubset_witness(4, 2), inst)
        with pytest.raises(StructuralError):
            adv.assemble(witness, inst, q=9)
        with pytest.raises(ParameterError):
            adv.assemble(witness)

    def test_width_not_a_power_of_two(self):
        coeffs = np.ones((2, 6))
        with pytest.raises(StructuralError):
            adv.assemble(coeffs, q=3)
        with pytest.raises(StructuralError):
            adv.difference_coefficients(coeffs, 1)

    def test_scaling_keeps_sign_pattern(self):
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, 8)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        full = adv.assemble(witness, q=8).dense()
        restricted = adv.assemble(witness, inst).dense()
        offset = 0
        for m in range(len(cert)):
            rows = inst.x_sets[m]
            block_full = full[m * 512 + rows][:, inst.y_codes]
            block_cut = restricted[offset:offset + len(rows)]
            offset += len(rows)
            assert np.array_equal(np.sign(block_full), np.sign(block_cut))


class TestSpectralNorm:
    def test_lanczos_matches_dense_on_random_operator(self):
        rng = np.random.default_rng(0)
        op = adv.BlockOperator(rng.standard_normal((2, 8)), 3, 3,
                               row_sets=[rng.choice(27, 25, replace=False) for _ in range(2)],
                               row_scales=rng.uniform(0.5, 2.0, 2),
                               col_codes=rng.choice(27, 15, replace=False))
        report = adv.spectral_norm(op)
        assert report.method == "lanczos"
        assert report.norm == pytest.approx(np.linalg.norm(op.dense(), 2), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_iterations_count_every_application(self, monkeypatch, seed):
        # iterations is computed from the loop, two applications per step and two for the
        # returned triple; here the operator counts its own applications
        op = _random_operator(np.random.default_rng(seed), 3, 3)
        applied = []
        for name in ("matvec", "rmatvec"):
            apply = getattr(op, name)
            monkeypatch.setattr(op, name, lambda x, apply=apply: applied.append(x) or apply(x))
        report = adv.spectral_norm(op)
        assert report.iterations == len(applied) > 2

    def test_block_operator_matvec_consistent_with_dense(self):
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, 8)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        op = adv.assemble(witness, inst)
        dense = op.dense()
        rng = np.random.default_rng(1)
        v = rng.standard_normal(dense.shape[1])
        u = rng.standard_normal(dense.shape[0])
        assert np.allclose(op.matvec(v), dense @ v, atol=1e-9)
        assert np.allclose(op.rmatvec(u), dense.T @ u, atol=1e-9)

    def test_stacked_norm_square_is_max_column_load(self):
        # all blocks share the projector eigenbasis, so the stacked norm
        # squared is the largest per-subset coefficient load
        witness = wt.ksubset_witness(2, 1)
        op = adv.assemble(witness, q=3)
        dense = op.dense()
        loads = (witness.alpha ** 2).sum(axis=0)
        assert np.linalg.norm(dense, 2) ** 2 == pytest.approx(loads.max(), abs=1e-9)

    def test_single_block_norm_is_max_coefficient(self):
        witness = witness_from_entries(
            2, 1, {((), 0): 0.3, ((1,), 0): -0.9, ((1, 2), 0): 0.4}
        )
        dense = adv.assemble(witness, q=4).dense()
        assert np.linalg.norm(dense, 2) == pytest.approx(0.9, abs=1e-12)

    def test_lanczos_path_above_dense_cap(self):
        # q^n = 5^7 = 78125 is past the dense oracle's cap
        witness = witness_from_entries(7, 1, {((), 0): 1.0})
        op = adv.assemble(witness, q=5)
        report = adv.spectral_norm(op)
        assert report.method == "lanczos"
        assert report.norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_flavors_assemble_identical_operators(self, flavor):
        # any orthonormal completion of the uniform vector gives the same
        # projector combination as the basis-free operator
        witness = witness_from_entries(
            2, 1, {((), 0): 0.7, ((2,), 0): -0.2, ((1, 2), 0): 0.5}
        )
        dense = adv.assemble(witness, q=3).dense()
        reference = (
            0.7 * _basis_projector(3, 2, 0b00, flavor)
            - 0.2 * _basis_projector(3, 2, 0b10, flavor)
            + 0.5 * _basis_projector(3, 2, 0b11, flavor)
        )
        assert np.allclose(dense, reference, atol=1e-10)


def _basis_projector(q, n, subset_mask, flavor):
    """Dense E_S from a unit basis: e_0 e_0^H on coordinates outside S, the rest on S."""
    basis = _unit_basis(q, flavor)
    e0 = np.outer(basis[:, 0], basis[:, 0].conj())
    e1 = basis[:, 1:] @ basis[:, 1:].conj().T
    return reduce(np.kron, [e1 if (subset_mask >> (j - 1)) & 1 else e0 for j in range(1, n + 1)])


def _projector_sums(coeffs, q, n, flavor):
    """Oracle blocks sum_S coeffs[m, S] E_S, the projectors built in the flavor's basis."""
    projectors = [_basis_projector(q, n, s, flavor) for s in range(1 << n)]
    return [sum(c[s] * projectors[s] for s in range(1 << n)) for c in coeffs]


_SMALL_ALPHABETS = [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)]


class TestDenseKernels:
    """The gathered blocks and the Gram-eigenvalue norm against direct oracles."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("q,n", _SMALL_ALPHABETS)
    def test_block_dense_matches_projector_sum(self, q, n, flavor):
        rng = np.random.default_rng(10 * q + n)
        side = q ** n
        coeffs = rng.standard_normal((2, 1 << n))
        full = _projector_sums(coeffs, q, n, flavor)
        every = np.arange(side)
        rows = [rng.choice(side, size=max(1, side // 2), replace=False) for _ in range(2)]
        scales = rng.uniform(0.5, 2.0, size=2)
        cols = rng.permutation(side)[:max(1, side - 1)]
        cases = [
            (adv.assemble(coeffs, q=q), [every] * 2, [1.0] * 2, every),
            (adv.BlockOperator(coeffs, q, n, row_sets=rows,
                               row_scales=scales, col_codes=cols), rows, scales, cols),
        ]
        for op, row_sets, row_scales, col_codes in cases:
            for m in range(2):
                block = op.block_dense(m)
                assert block.dtype == np.float64
                expected = full[m][np.ix_(row_sets[m], col_codes)] * row_scales[m]
                assert np.allclose(block, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("q,n", _SMALL_ALPHABETS)
    def test_block_dense_on_bounded_instance(self, q, n, flavor):
        cert = st.ksubset_structure(n, n)
        inst = ar.build_bounded_instance(cert, q)
        rng = np.random.default_rng(10 * q + n)
        coeffs = rng.standard_normal((len(cert), 1 << n))
        full = _projector_sums(coeffs, q, n, flavor)
        for restrict in (True, False):
            op = adv.assemble(coeffs, inst, restrict_columns=restrict)
            cols = inst.y_codes if restrict else np.arange(q ** n)
            for m, rows in enumerate(inst.x_sets):
                scale = math.sqrt(q ** n / len(rows))
                expected = full[m][np.ix_(rows, cols)] * scale
                assert np.allclose(op.block_dense(m), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dense", [np.eye(2), adv.LabeledMatrix(
        np.eye(2), 2, 1, np.arange(2), np.arange(2))])
    def test_spectral_norm_takes_block_operators_only(self, dense):
        with pytest.raises(ParameterError, match="BlockOperator"):
            adv.spectral_norm(dense)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_restricted_operator_norm_matches_svd_of_oracle(self, flavor):
        q, n = 3, 3
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((2, 1 << n))
        full = _projector_sums(coeffs, q, n, flavor)
        rows = [rng.choice(q ** n, size=10, replace=False) for _ in range(2)]
        scales = [1.5, 0.7]
        cols = rng.choice(q ** n, size=20, replace=False)
        op = adv.BlockOperator(coeffs, q, n, row_sets=rows,
                               row_scales=scales, col_codes=cols)
        oracle = np.vstack([full[m][np.ix_(rows[m], cols)] * scales[m] for m in range(2)])
        report = adv.spectral_norm(op)
        assert report.method == "lanczos"
        assert report.norm == pytest.approx(np.linalg.norm(oracle, 2), rel=1e-12, abs=0)


class TestHadamardMask:
    def test_norm_at_most_doubled_on_seeded_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mat = rng.standard_normal((40, 40))
            rows = rng.integers(0, 81, size=40)
            cols = rng.integers(0, 81, size=40)
            lm = adv.LabeledMatrix(mat, 3, 4, rows, cols)
            j = int(rng.integers(1, 5))
            masked = adv.hadamard_mask(lm, j)
            assert (np.linalg.norm(masked.matrix, 2)
                    <= 2 * np.linalg.norm(mat, 2) + 1e-9)

    def test_constant_matrix_zeroes_agreeing_blocks(self):
        q, n = 2, 2
        codes = np.arange(q ** n)
        lm = adv.LabeledMatrix(np.ones((4, 4)), q, n, codes, codes)
        masked = adv.hadamard_mask(lm, 1)
        digit = codes // 2
        for r in range(4):
            for c in range(4):
                expected = 0.0 if digit[r] == digit[c] else 1.0
                assert masked.matrix[r, c] == expected

    def test_masked_restriction_agrees_with_masked_difference(self):
        # masking the full operator or its one-step difference operator gives
        # the same entries: the two coincide wherever labels differ at j
        q, n = 3, 2
        cert = st.ksubset_structure(2, 1)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        j = 1
        beta = adv.difference_coefficients(witness, j)
        gamma = adv.assemble(witness, q=q).labeled()
        gamma_prime = adv.assemble(beta, q=q).labeled()
        left = adv.hadamard_mask(gamma, j).matrix
        right = adv.hadamard_mask(gamma_prime, j).matrix
        assert np.allclose(left, right, atol=1e-12)

    def test_rejects_bad_direction(self):
        lm = adv.LabeledMatrix(np.ones((2, 2)), 2, 1, np.arange(2), np.arange(2))
        with pytest.raises(ParameterError):
            adv.hadamard_mask(lm, 2)

    def test_implicit_masked_operator_matches_dense(self):
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, 8)
        witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
        op = adv.assemble(witness, inst)
        for j in (1, 3):
            lm = adv.hadamard_mask(op.labeled(), j)
            dense_norm = np.linalg.norm(lm.matrix, 2)
            implicit = adv.hadamard_mask(op, j)
            report = adv.spectral_norm(implicit)
            assert report.method == "lanczos"
            assert report.norm == pytest.approx(dense_norm, abs=1e-7)
            rng = np.random.default_rng(j)
            v = rng.standard_normal(op.shape[1])
            assert np.allclose(implicit.matvec(v), lm.matrix @ v, atol=1e-9)
            u = rng.standard_normal(op.shape[0])
            assert np.allclose(implicit.rmatvec(u), lm.matrix.T @ u, atol=1e-9)


def _random_operator(rng, q, n, certificates=2):
    """Random non-symmetric coefficients with random row sets, row scales and columns."""
    side = q ** n
    return adv.BlockOperator(
        rng.standard_normal((certificates, 1 << n)), q, n,
        row_sets=[rng.choice(side, size=int(rng.integers(1, side + 1)), replace=False)
                  for _ in range(certificates)],
        row_scales=rng.uniform(0.5, 2.0, certificates),
        col_codes=rng.choice(side, size=int(rng.integers(1, side + 1)), replace=False),
    )


def _assert_matches_oracle(op, oracle, rng):
    """matvec, rmatvec and the norm of a BlockOperator against its dense oracle, to 1e-12."""
    a = oracle.matrix
    assert op.shape == a.shape
    v = rng.standard_normal(a.shape[1])
    u = rng.standard_normal(a.shape[0])
    assert np.allclose(op.matvec(v), a @ v, rtol=0, atol=1e-12)
    assert np.allclose(op.rmatvec(u), a.T @ u, rtol=0, atol=1e-12)
    report = adv.spectral_norm(op)
    assert report.method == "lanczos"
    assert report.norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-12, abs=1e-12)
    assert report.residual <= 1e-9


class TestImplicitOperator:
    """The one implicit path: blocks and coordinate masks applied without a basis."""

    @pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (2, 3)])
    def test_operator_and_masks_match_dense_oracle(self, q, n):
        rng = np.random.default_rng(100 * q + n)
        for op in (adv.BlockOperator(rng.standard_normal((2, 1 << n)), q, n),
                   _random_operator(rng, q, n)):
            _assert_matches_oracle(op, op.labeled(), rng)
            for j in range(1, n + 1):
                masked = adv.hadamard_mask(op, j)
                assert isinstance(masked, adv.BlockOperator)
                _assert_matches_oracle(masked, adv.hadamard_mask(op.labeled(), j), rng)

    @pytest.mark.parametrize("rows,cols", [(1, 9), (9, 1), (1, 1)])
    def test_single_row_or_column_is_exact(self, rows, cols):
        rng = np.random.default_rng(rows + 10 * cols)
        q, n = 3, 2
        op = adv.BlockOperator(rng.standard_normal((1, 1 << n)), q, n,
                               row_sets=[rng.choice(q ** n, rows, replace=False)],
                               row_scales=[1.3], col_codes=rng.choice(q ** n, cols, replace=False))
        for target in [op] + [adv.hadamard_mask(op, j) for j in (1, 2)]:
            report = adv.spectral_norm(target)
            assert (report.method, report.iterations) == ("lanczos", 1)
            expected = np.linalg.norm(target.dense(), 2)
            assert report.norm == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_empty_side_and_zero_coefficients(self):
        q, n = 3, 2
        coeffs = np.random.default_rng(3).standard_normal((2, 1 << n))
        empty_rows = adv.BlockOperator(coeffs, q, n, row_sets=[np.arange(0), np.arange(0)],
                                       row_scales=[1.0, 1.0])
        empty_cols = adv.BlockOperator(coeffs, q, n, col_codes=np.arange(0))
        zero = adv.BlockOperator(np.zeros((2, 1 << n)), q, n)
        for op, shape in ((empty_rows, (0, 9)), (empty_cols, (18, 0)), (zero, (18, 9))):
            assert op.shape == shape
            report = adv.spectral_norm(op)
            assert (report.norm, report.iterations, report.method) == (0.0, 0, "lanczos")
        assert not zero.matvec(np.ones(9)).any()
        assert empty_cols.matvec(np.zeros(0)).shape == (18,)
        assert empty_rows.rmatvec(np.zeros(0)).shape == (9,)

    def test_mask_rejects_bad_direction(self):
        op = adv.BlockOperator(np.ones((1, 4)), 3, 2)
        for j in (0, 3):
            with pytest.raises(ParameterError):
                adv.hadamard_mask(op, j)

    def test_capacity_checked_before_allocating(self):
        # q^n = 64^5 = 2^30 inputs would be 8 GB of int64 codes
        witness = lg.normalize_witness(wt.ksubset_witness(5, 2), st.ksubset_structure(5, 2))
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            adv.assemble(witness, q=64)
        # q^n = 2^20 is inside the cap, but one application's (q+1)^n = 3^20 layout is not
        with pytest.raises(CapacityError):
            adv.BlockOperator(np.ones((1, 1 << 20)), 2, 20)
        assert time.perf_counter() - start < 0.1


@pytest.fixture
def two_steps(monkeypatch):
    """Set the Lanczos byte cap so that a basis of the given side holds exactly 2 vectors."""
    def fit(side):
        monkeypatch.setattr(adv, "LANCZOS_BYTE_CAP", 2 * 8 * side)
    return fit


class TestNonConvergence:
    """A norm that Lanczos cannot converge within its byte cap raises instead of
    returning an estimate."""

    def test_spectral_norm_raises(self, two_steps):
        two_steps(9)
        op = adv.BlockOperator(np.random.default_rng(0).standard_normal((2, 4)), 3, 2)
        with pytest.raises(ConsistencyError, match=r"Lanczos did not converge on the 18 x 9"):
            adv.spectral_norm(op)

    def test_message_names_last_residual(self, two_steps):
        two_steps(9)
        op = adv.BlockOperator(np.random.default_rng(0).standard_normal((2, 4)), 3, 2)
        with pytest.raises(ConsistencyError, match=r"after 4 applications \(last residual \d"):
            adv.spectral_norm(op)

    def test_suite_records_plumbing_failure(self, two_steps):
        from lgcomplexity.reporting import run_suite, validate_config

        two_steps(192)  # gamma's rows at q = 8, the first norm the pipeline takes
        config, errors = validate_config({"suite": "adversary"})
        assert not errors
        records = {r.check_id: r for r in run_suite(config).records}
        pipeline = records["adversary/pipeline"]
        assert pipeline.claim.startswith("plumbing: ConsistencyError")
        assert not pipeline.passed
        assert records["adversary/hadamard-mask"].passed

    def test_cli_exits_2(self, two_steps, capsys):
        from lgcomplexity.cli import main

        two_steps(192)
        code = main(["adversary", "report", "--kind", "ksubset", "--params", "3", "2",
                     "--q", "8"])
        assert code == 2
        assert "Lanczos did not converge" in capsys.readouterr().err

    def test_basis_refused_before_any_application(self, monkeypatch):
        op = adv.BlockOperator(np.random.default_rng(0).standard_normal((2, 4)), 3, 2)
        applied = []
        monkeypatch.setattr(op, "matvec", lambda v: applied.append(v))
        monkeypatch.setattr(op, "rmatvec", lambda u: applied.append(u))
        monkeypatch.setattr(adv, "LANCZOS_BYTE_CAP", 2 * 8 * 9 - 1)
        with pytest.raises(CapacityError, match=r"2 vectors of length 9 needs 144 bytes"):
            adv.spectral_norm(op)
        assert not applied


class TestGeneratorPartition:
    def test_single_part_for_singletons(self):
        cert = st.ksubset_structure(3, 1)
        part = adv.generator_partition(cert)
        member = st.membership_table(cert)
        assert set(np.unique(part)) <= {0, 1}
        assert np.array_equal(part == 0, member)

    def test_two_subset_partition_enumeration(self):
        cert = st.ksubset_structure(3, 2)
        part = adv.generator_partition(cert)
        m = next(i for i, c in enumerate(cert.certificates)
                 if c.minimal_members == ((1, 2),))
        by_part = {i: {int(s) for s in np.flatnonzero(part[m] == i)} for i in (1, 2)}
        # subsets missing variable 1 go to part 1; the rest missing 2 to part 2
        assert by_part[1] == {0b000, 0b010, 0b100, 0b110}
        assert by_part[2] == {0b001, 0b101}
        assert len(by_part[1] | by_part[2]) == 6  # all of 2^[3] minus 2 members

    def test_part_covers_non_members_and_omits_anchor(self):
        cert = st.ksubset_structure(4, 2)
        part = adv.generator_partition(cert)
        member = st.membership_table(cert)
        for m, certificate in enumerate(cert.certificates):
            anchors = st.mask_members(certificate.minimal_sets[0])
            for mask in range(1 << 4):
                i = part[m, mask]
                if member[m, mask]:
                    assert i == 0
                else:
                    assert i >= 1
                    assert not (mask >> (anchors[i - 1] - 1)) & 1

    def test_requires_bounded_generation(self):
        with pytest.raises(StructuralError):
            adv.generator_partition(st.hidden_shift_structure(2))

    def test_part_restricted_gram_identity(self):
        # rows restricted to the positive set: same-part projector columns
        # keep a 1/q-scaled gram, distinct subsets in a part are annihilated
        q = 8
        cert = st.ksubset_structure(3, 2)
        inst = ar.build_bounded_instance(cert, q)
        part = adv.generator_partition(cert)
        m = 0
        rows = inst.x_sets[m]
        for i in (1, 2):
            subsets = [int(s) for s in np.flatnonzero(part[m] == i)]
            for s1 in subsets:
                e1 = adv.pattern_projector(q, 3, s1)[rows, :]
                for s2 in subsets:
                    e2 = adv.pattern_projector(q, 3, s2)[rows, :]
                    product = e1.T @ e2
                    if s1 == s2:
                        expected = adv.pattern_projector(q, 3, s1) / q
                    else:
                        expected = np.zeros_like(product)
                    assert np.allclose(product, expected, atol=1e-10)


@pytest.fixture(scope="module")
def pipeline_parts():
    cert = st.ksubset_structure(3, 2)
    inst = ar.build_bounded_instance(cert, 8)
    witness = lg.normalize_witness(wt.ksubset_witness(3, 2), cert)
    return cert, inst, witness


class TestAdversaryRatio:
    def test_rayleigh_identity_exact(self, pipeline_parts):
        _, inst, witness = pipeline_parts
        rep = adv.adversary_ratio(inst, witness)
        assert rep.rayleigh_identity == pytest.approx(rep.rayleigh_predicted, abs=1e-9)

    def test_norm_dominates_rayleigh(self, pipeline_parts):
        _, inst, witness = pipeline_parts
        rep = adv.adversary_ratio(inst, witness)
        lower = math.sqrt(inst.y_size() / inst.input_count) * rep.witness_objective
        assert rep.gamma_norm >= lower - 1e-12

    def test_one_subset_q4_ratio(self):
        cert = st.ksubset_structure(2, 1)
        inst = ar.build_bounded_instance(cert, 4)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        rep = adv.adversary_ratio(inst, witness)
        assert rep.ratio >= 0.25 * math.sqrt(2)

    def test_zero_witness_rejected(self, pipeline_parts):
        _, inst, _ = pipeline_parts
        with pytest.raises(InvariantViolation):
            adv.adversary_ratio(inst, lg.DualWitness.zeros(3, 3))

    def test_infeasible_witness_rejected(self, pipeline_parts):
        cert, inst, witness = pipeline_parts
        inflated = lg.DualWitness(3, 3.0 * witness.alpha)
        with pytest.raises(InvariantViolation):
            adv.adversary_ratio(inst, inflated)

    def test_alphabet_relabeling_invariance(self, pipeline_parts):
        cert, inst, witness = pipeline_parts
        rep = adv.adversary_ratio(inst, witness)
        perm = np.array([3, 6, 1, 0, 7, 2, 5, 4])
        relabeled_arrays = []
        for per_cert in inst.arrays:
            rows = np.array(per_cert[0].rows)
            relabeled_arrays.append(ar.OrthogonalArray(
                8, per_cert[0].k, tuple(map(tuple, perm[rows].tolist()))
            ))
        inst2 = ar.build_bounded_instance(cert, 8, relabeled_arrays)
        rep2 = adv.adversary_ratio(inst2, witness)
        assert rep2.ratio == pytest.approx(rep.ratio, abs=1e-9)
        assert rep2.gamma_norm == pytest.approx(rep.gamma_norm, abs=1e-9)

    def test_orthogonality_precondition_enforced(self):
        # a feasible witness on positive sets that do not project uniformly
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        inst = ar.build_instance(cert, 4, [[eq, eq]])
        witness = witness_from_entries(3, 1, {((), 0): 1.0})
        assert lg.dual_feasibility_margin(cert, witness) <= 1.0
        with pytest.raises(InvariantViolation, match="uniform-projection"):
            adv.adversary_ratio(inst, witness)
        with pytest.raises(InvariantViolation, match="uniform-projection"):
            adv.bounded_norm_certificates(inst, witness, 1)

    def test_parallel_is_keyword_only(self, pipeline_parts):
        # the function takes two arguments; a stale third one (a tolerance, or the
        # retired parallel flag) must fail loudly
        _, inst, witness = pipeline_parts
        with pytest.raises(TypeError):
            adv.adversary_ratio(inst, witness, 1e-6)


class TestBoundedNormCertificates:
    def test_acceptance_scale_bounds(self, pipeline_parts):
        _, inst, witness = pipeline_parts
        report = adv.bounded_norm_certificates(inst, witness, 1)
        assert report.k == 2
        assert all(x <= 1 + 1e-6 for x in report.hat_part_norms)
        assert report.hat_norm <= report.k + 1e-6
        assert report.prime_norm <= report.hat_norm + 1e-9
        assert max(report.masked_norms) <= 2 * report.k + 1e-6

    def test_k1_instance_prime_norm_at_most_one(self):
        cert = st.ksubset_structure(2, 1)
        inst = ar.build_bounded_instance(cert, 4)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        report = adv.bounded_norm_certificates(inst, witness, 1)
        assert report.k == 1
        assert report.prime_norm <= 1 + 1e-6

    def test_infeasible_witness_rejected(self, pipeline_parts):
        _, inst, witness = pipeline_parts
        inflated = lg.DualWitness(3, 3.0 * witness.alpha)
        with pytest.raises(InvariantViolation):
            adv.bounded_norm_certificates(inst, inflated, 1)

    def test_suite_records_match_bound_checks(self, pipeline_parts):
        from lgcomplexity.reporting import run_suite, validate_config

        _, inst, witness = pipeline_parts
        config, errors = validate_config({"suite": "adversary"})
        assert not errors and config["instance"]["q"] == inst.q
        records = {r.check_id: r for r in run_suite(config).records}
        part, _, _, masked = adv.bounded_norm_certificates(inst, witness, 1).bound_checks()
        for check_id, check in (("adversary/part-norms", part),
                                ("adversary/masked-norms", masked)):
            record = records[check_id]
            assert (record.measured, record.bound, record.passed) == (
                check["measured"], check["bound"], check["passed"])


def _ksubset_pair(q):
    cert = st.ksubset_structure(3, 2)
    return ar.build_bounded_instance(cert, q), lg.normalize_witness(wt.ksubset_witness(3, 2), cert)


# ksubset(3,2) reports: gamma, the masked norm (every j), ratio, part norms, hat and prime
_KSUBSET_REPORTS = {
    8: (1.6552028818887272, 0.8084551705385612, 2.0473650762677362,
        (1.0, 0.5619590824849952), 1.1470823904094152, 0.884349823581666),
    12: (1.7764775057123132, 0.9099454640356921, 1.9522900832248469,
         (0.9999999999999999, 0.5619590824849952), 1.147082390409415, 0.965713598419867),
    16: (1.8377247671506844, 0.9651672366685415, 1.9040480212464954,
         (0.9999999999999998, 0.5619590824849952), 1.1470823904094152, 1.0090278929559204),
}


def _direct_masked_norms(inst, witness):
    gamma = adv.assemble(witness, inst)
    return [adv.spectral_norm(adv.hadamard_mask(gamma, j)).norm for j in range(1, inst.n + 1)]


@pytest.fixture
def norm_calls(monkeypatch):
    """A list that grows by the SpectralReport of each adv.spectral_norm call."""
    calls = []
    spectral_norm = adv.spectral_norm

    def counted(op, *args, **kwargs):
        calls.append(spectral_norm(op, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(adv, "spectral_norm", counted)
    return calls


class TestMaskedNormReuse:
    """Each distinct norm of a report is computed once, and a reused norm is exact."""

    def test_report_takes_at_most_six_norms(self, norm_calls):
        inst, witness = _ksubset_pair(8)
        adv.adversary_ratio(inst, witness)
        adv.bounded_norm_certificates(inst, witness, 1)
        # gamma, one masked norm, two parts, hat and prime
        assert len(norm_calls) <= 6

    def test_report_takes_at_most_130_applications(self, norm_calls):
        inst, witness = _ksubset_pair(8)
        adv.adversary_ratio(inst, witness)
        adv.bounded_norm_certificates(inst, witness, 1)
        assert sum(report.iterations for report in norm_calls) <= 130

    @pytest.mark.parametrize("q", [8, 12])
    def test_every_chain_norm_matches_the_dense_oracle(self, q):
        inst, witness = _ksubset_pair(q)
        gamma = adv.assemble(witness, inst)
        beta = adv.difference_coefficients(witness, 1)
        part = adv.generator_partition(inst.cert)
        chain = ([gamma] + [adv.hadamard_mask(gamma, j) for j in range(1, inst.n + 1)]
                 + [adv.assemble(np.where(part == i, beta, 0.0), inst, restrict_columns=False)
                    for i in range(1, part.max() + 1)]
                 + [adv.assemble(beta, inst, restrict_columns=False), adv.assemble(beta, inst)])
        for op in chain:
            report = adv.spectral_norm(op)
            assert report.norm == pytest.approx(np.linalg.norm(op.dense(), 2), rel=1e-12, abs=0)
            assert report.residual <= 1e-12

    @pytest.mark.parametrize("q", [8, 12, 16])
    def test_reused_norms_match_direct(self, q):
        inst, witness = _ksubset_pair(q)
        rep = adv.adversary_ratio(inst, witness)
        bn = adv.bounded_norm_certificates(inst, witness, 1)
        direct = _direct_masked_norms(inst, witness)
        for norms in (rep.per_j_norms, bn.masked_norms):
            assert norms == pytest.approx(direct, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q", [8, 12, 16])
    def test_report_matches_pinned_values(self, q):
        inst, witness = _ksubset_pair(q)
        rep = adv.adversary_ratio(inst, witness)
        bn = adv.bounded_norm_certificates(inst, witness, 1)
        gamma, masked, ratio, parts, hat, prime = _KSUBSET_REPORTS[q]
        assert rep.gamma_norm == pytest.approx(gamma, rel=1e-12, abs=0)
        assert rep.per_j_norms == pytest.approx((masked,) * 3, rel=1e-12, abs=0)
        assert bn.masked_norms == rep.per_j_norms
        assert rep.ratio == pytest.approx(ratio, rel=1e-12, abs=0)
        assert bn.hat_part_norms == pytest.approx(parts, rel=1e-12, abs=0)
        assert bn.hat_norm == pytest.approx(hat, rel=1e-12, abs=0)
        assert bn.prime_norm == pytest.approx(prime, rel=1e-12, abs=0)

    def test_both_declared_generators_are_kept_on_ksubset(self):
        # the swap of variables 1 and 2 and the 3-cycle, which generate S_3
        inst, witness = _ksubset_pair(8)
        generators = st.structure_symmetry(inst.cert).generators
        assert len(generators) == 2
        assert adv._instance_generators(inst, witness) == list(generators)
        assert st.variable_orbits(inst.n, generators).tolist() == [0, 0, 0]

    def test_asymmetric_alpha_computes_every_norm(self, norm_calls):
        # certificate {1, 2} weights subset {1} above {2}; normalizing keeps it feasible
        inst, witness = _ksubset_pair(8)
        alpha = witness.alpha.copy()
        alpha[0, 0b001] *= 1.25
        skewed = lg.normalize_witness(lg.DualWitness(3, alpha), inst.cert)
        rep = adv.adversary_ratio(inst, skewed)
        assert len(norm_calls) == 1 + inst.n
        direct = _direct_masked_norms(inst, skewed)
        assert rep.per_j_norms == pytest.approx(direct, rel=1e-12, abs=0)
        assert len({round(x, 6) for x in direct}) == inst.n

    def test_asymmetric_y_computes_every_norm(self, norm_calls):
        inst, witness = _ksubset_pair(8)
        digits = adv.decode(inst.y_codes, inst.q, inst.n)
        skewed = ar.HardInstance(cert=inst.cert, q=inst.q, arrays=inst.arrays,
                                 x_sets=inst.x_sets,
                                 y_codes=inst.y_codes[digits[:, 0] >= digits[:, 1]])
        rep = adv.adversary_ratio(skewed, witness)
        assert len(norm_calls) == 1 + inst.n
        direct = _direct_masked_norms(skewed, witness)
        assert rep.per_j_norms == pytest.approx(direct, rel=1e-12, abs=0)
        assert len({round(x, 6) for x in direct}) == inst.n

    def test_planted_asymmetric_x_drops_the_generators_it_breaks(self, norm_calls):
        inst, witness = _ksubset_pair(8)
        swap, _ = st.structure_symmetry(inst.cert).generators  # and the 3-cycle

        def with_x_sets(x_sets):
            return ar.HardInstance(cert=inst.cert, q=inst.q, arrays=inst.arrays,
                                   x_sets=x_sets, y_codes=inst.y_codes)

        # X_{1,3} and X_{2,3} each lose one input, the swap of 1 and 2 of the other:
        # the swap still maps the instance onto itself, the cycle does not
        code = int(inst.x_sets[1][0])
        digits = adv.decode([code], inst.q, inst.n)
        twin = int(adv.encode(digits[:, [1, 0, 2]], inst.q)[0])
        assert twin in inst.x_sets[2]
        swapped = with_x_sets((inst.x_sets[0], inst.x_sets[1][inst.x_sets[1] != code],
                               inst.x_sets[2][inst.x_sets[2] != twin]))
        assert adv._instance_generators(swapped, witness) == [swap]
        norms = adv._masked_norms(adv.assemble(witness, swapped), swapped, witness)
        assert len(norm_calls) == 2  # variables 1 and 2 share an orbit
        direct = _direct_masked_norms(swapped, witness)
        assert norms == pytest.approx(direct, rel=1e-12, abs=0)
        # X_{1,2} loses an input that the swap moves: both generators break
        del norm_calls[:]
        digits = adv.decode(inst.x_sets[0], inst.q, inst.n)
        moved = np.flatnonzero(digits[:, 0] != digits[:, 1])[0]
        skewed = with_x_sets((np.delete(inst.x_sets[0], moved),) + inst.x_sets[1:])
        assert adv._instance_generators(skewed, witness) == []
        norms = adv._masked_norms(adv.assemble(witness, skewed), skewed, witness)
        assert len(norm_calls) == inst.n
        assert norms == pytest.approx(_direct_masked_norms(skewed, witness), rel=1e-12, abs=0)

    @pytest.mark.parametrize("count", [2, 3])
    def test_structure_of_no_named_kind_computes_every_norm(self, norm_calls, count):
        # a kind-less structure has the trivial group, even where a swap would be a symmetry
        inst, witness = _ksubset_pair(8)
        cert = st.CertificateStructure(3, inst.cert.certificates[:count])
        plain = ar.build_bounded_instance(cert, 8)
        part = lg.DualWitness(3, witness.alpha[:count])
        assert adv._instance_generators(plain, part) == []
        rep = adv.adversary_ratio(plain, part)
        assert len(norm_calls) == 1 + inst.n
        assert rep.per_j_norms == pytest.approx(_direct_masked_norms(plain, part),
                                                rel=1e-12, abs=0)

    def test_named_structure_breaking_its_group_is_refused(self):
        # labelled ksubset(3, 2), but holding two of its three certificates
        inst, witness = _ksubset_pair(8)
        cert = st.CertificateStructure(3, inst.cert.certificates[:2], "ksubset", (3, 2))
        pair = ar.build_bounded_instance(cert, 8)
        with pytest.raises(StructuralError, match="maps certificate"):
            adv.adversary_ratio(pair, lg.DualWitness(3, witness.alpha[:2]))

    def test_triangle_four_takes_one_masked_norm(self, norm_calls):
        # S_4 on the vertices moves every edge variable onto every other
        cert = st.triangle_structure(4)
        inst = ar.build_instance(cert, 4, [[ar.sum_array(4, 3)]] * len(cert))
        witness = lg.normalize_witness(wt.triangle_witness(4), cert)
        rep = adv.adversary_ratio(inst, witness)
        assert len(norm_calls) == 2
        assert rep.per_j_norms == pytest.approx(_direct_masked_norms(inst, witness),
                                                rel=1e-12, abs=0)

    def test_memo_misses_on_another_instance(self):
        inst8, witness = _ksubset_pair(8)
        inst12, _ = _ksubset_pair(12)
        adv.adversary_ratio(inst8, witness)
        bn = adv.bounded_norm_certificates(inst12, witness, 1)
        assert bn.masked_norms == pytest.approx(_direct_masked_norms(inst12, witness),
                                                rel=1e-12, abs=0)

    def test_memo_hits_only_the_same_objects(self, norm_calls):
        inst, witness = _ksubset_pair(8)
        rep = adv.adversary_ratio(inst, witness)
        gamma = adv.assemble(witness, inst)
        del norm_calls[:]
        assert adv._masked_norms(gamma, inst, witness) is rep.per_j_norms
        assert not norm_calls
        twin = lg.DualWitness(witness.n, witness.alpha.copy())
        assert adv._masked_norms(gamma, inst, twin) == pytest.approx(rep.per_j_norms,
                                                                     rel=1e-12, abs=0)
        assert len(norm_calls) == 1
