"""Projector algebra, block operators, masked norms, and the ratio pipeline."""

import math
import time
from functools import reduce

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

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

    @pytest.mark.parametrize("flavor", ["real_householder", "fourier"])
    def test_orthonormal_with_uniform_first_vector(self, flavor):
        for q in (2, 3, 5, 8):
            basis = adv.build_basis(q, flavor)
            gram = basis.matrix.conj().T @ basis.matrix
            assert np.allclose(gram, np.eye(q), atol=1e-12)
            assert np.allclose(basis.matrix[:, 0], np.full(q, q ** -0.5))

    def test_fourier_characters(self):
        q = 5
        basis = adv.build_basis(q, "fourier")
        for a in range(q):
            for b in range(q):
                assert basis.matrix[b, a] == pytest.approx(
                    np.exp(2j * np.pi * a * b / q) / math.sqrt(q)
                )

    def test_unknown_flavor(self):
        with pytest.raises(ParameterError):
            adv.build_basis(3, "hadamard")


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
        report = adv.spectral_norm(adv.pattern_projector(3, 2, 0b10))
        assert report.norm == pytest.approx(1.0, abs=1e-12)
        assert report.method == "dense_eigen"


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
        witness = lg.DualWitness.from_entries(2, 1, {((), 0): 1.0})
        dense = adv.assemble(witness, q=3).dense()
        assert np.linalg.matrix_rank(dense) == 1
        assert np.linalg.norm(dense, 2) == pytest.approx(1.0)
        assert np.allclose(dense, adv.pattern_projector(3, 2, 0))

    def test_gram_identity_for_difference_operator(self):
        cert = st.ksubset_structure(2, 1)
        witness = lg.normalize_witness(wt.ksubset_witness(2, 1), cert)
        beta = adv.difference_coefficients(witness, 1)
        dense = adv.assemble(beta, q=3, n=2).dense()
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
            assert adv.spectral_norm(adv.assemble(beta, q=3, n=2)).norm <= 1 + 1e-9

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

    def test_orthogonality_precondition_enforced(self):
        cert = st.CertificateStructure(3, (st.Certificate.from_sets([(1, 2), (2, 3)]),))
        eq = ar.OrthogonalArray(4, 2, tuple((c, c) for c in range(4)))
        inst = ar.build_instance(cert, 4, [[eq, eq]])
        witness = lg.DualWitness.from_entries(3, 1, {((), 0): 1.0})
        with pytest.raises(InvariantViolation):
            adv.assemble(witness, inst)

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
    def test_arpack_matches_dense_on_random_operator(self):
        rng = np.random.default_rng(0)
        op = adv.BlockOperator(rng.standard_normal((2, 8)), 3, 3,
                               row_sets=[rng.choice(27, 25, replace=False) for _ in range(2)],
                               row_scales=rng.uniform(0.5, 2.0, 2),
                               col_codes=rng.choice(27, 15, replace=False))
        report = adv.spectral_norm(op, tolerance=1e-12)
        assert report.method == "arpack"
        assert report.norm == pytest.approx(np.linalg.norm(op.dense(), 2), abs=1e-8)

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
        witness = lg.DualWitness.from_entries(
            2, 1, {((), 0): 0.3, ((1,), 0): -0.9, ((1, 2), 0): 0.4}
        )
        dense = adv.assemble(witness, q=4).dense()
        assert np.linalg.norm(dense, 2) == pytest.approx(0.9, abs=1e-12)

    def test_arpack_path_above_dense_cap(self):
        # q^n = 5^7 = 78125 is past the dense oracle's cap
        witness = lg.DualWitness.from_entries(7, 1, {((), 0): 1.0})
        op = adv.assemble(witness, q=5)
        report = adv.spectral_norm(op, tolerance=1e-10)
        assert report.method == "arpack"
        assert report.norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("flavor", ["real_householder", "fourier"])
    def test_flavors_assemble_identical_operators(self, flavor):
        # any orthonormal completion of the uniform vector gives the same
        # projector combination as the basis-free operator
        witness = lg.DualWitness.from_entries(
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
    basis = adv.build_basis(q, flavor).matrix
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

    @pytest.mark.parametrize("flavor", adv.BASIS_FLAVORS)
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
            (adv.assemble(coeffs, q=q, n=n), [every] * 2, [1.0] * 2, every),
            (adv.BlockOperator(coeffs, q, n, row_sets=rows,
                               row_scales=scales, col_codes=cols), rows, scales, cols),
        ]
        for op, row_sets, row_scales, col_codes in cases:
            for m in range(2):
                block = op.block_dense(m)
                assert block.dtype == np.float64
                expected = full[m][np.ix_(row_sets[m], col_codes)] * row_scales[m]
                assert np.allclose(block, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("flavor", adv.BASIS_FLAVORS)
    @pytest.mark.parametrize("q,n", _SMALL_ALPHABETS)
    def test_block_dense_on_bounded_instance(self, q, n, flavor):
        cert = st.ksubset_structure(n, n)
        inst = ar.build_bounded_instance(cert, q)
        rng = np.random.default_rng(10 * q + n)
        coeffs = rng.standard_normal((len(cert), 1 << n))
        full = _projector_sums(coeffs, q, n, flavor)
        for restrict in (True, False):
            op = adv.assemble(coeffs, inst, n=n, restrict_columns=restrict)
            cols = inst.y_codes if restrict else np.arange(q ** n)
            for m, rows in enumerate(inst.x_sets):
                scale = math.sqrt(q ** n / len(rows))
                expected = full[m][np.ix_(rows, cols)] * scale
                assert np.allclose(op.block_dense(m), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (25, 25)])
    def test_dense_norm_matches_svd(self, shape):
        rng = np.random.default_rng(sum(shape))
        real = rng.standard_normal(shape)
        cases = [
            real,
            real + 1j * rng.standard_normal(shape),
            np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1])),
            np.zeros(shape),
            np.zeros((0, shape[1])),
        ]
        for a in cases:
            report = adv.spectral_norm(a)
            assert (report.method, report.iterations, report.residual) == ("dense_eigen", 0, 0.0)
            assert report.norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("flavor", adv.BASIS_FLAVORS)
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
        assert report.method == "arpack"
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
        gamma_prime = adv.assemble(beta, q=q, n=n).labeled()
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
            dense_norm = adv.spectral_norm(lm).norm
            implicit = adv.hadamard_mask(op, j)
            report = adv.spectral_norm(implicit, tolerance=1e-12)
            assert report.method == "arpack"
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
    assert report.method == "arpack"
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
            assert (report.method, report.iterations) == ("arpack", 1)
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
            assert (report.norm, report.iterations, report.method) == (0.0, 0, "arpack")
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


def _raise_no_convergence(*args, **kwargs):
    raise ArpackNoConvergence("No convergence", np.empty(0), np.empty((0, 0)))


class TestNonConvergence:
    """A norm that ARPACK cannot converge raises instead of returning an estimate."""

    def test_spectral_norm_raises(self, monkeypatch):
        monkeypatch.setattr(adv, "eigsh", _raise_no_convergence)
        op = adv.BlockOperator(np.random.default_rng(0).standard_normal((2, 4)), 3, 2)
        with pytest.raises(ConsistencyError, match=r"18 x 9 operator after 0 applications"):
            adv.spectral_norm(op)

    def test_message_names_last_residual(self, monkeypatch):
        def stop_after_some_steps(linear, **kwargs):
            x = kwargs["v0"]
            for _ in range(5):
                x = linear.matvec(x)
                x = x / np.linalg.norm(x)
            _raise_no_convergence()

        monkeypatch.setattr(adv, "eigsh", stop_after_some_steps)
        op = adv.BlockOperator(np.random.default_rng(0).standard_normal((2, 4)), 3, 2)
        with pytest.raises(ConsistencyError, match=r"after 10 applications \(last residual \d"):
            adv.spectral_norm(op)

    def test_suite_records_plumbing_failure(self, monkeypatch):
        from lgcomplexity.reporting import run_suite, validate_config

        monkeypatch.setattr(adv, "eigsh", _raise_no_convergence)
        config, errors = validate_config({"suite": "adversary"})
        assert not errors
        records = {r.check_id: r for r in run_suite(config).records}
        pipeline = records["adversary/pipeline"]
        assert pipeline.claim.startswith("plumbing: ConsistencyError")
        assert not pipeline.passed
        assert records["adversary/hadamard-mask"].passed

    def test_cli_exits_2(self, monkeypatch, capsys):
        from lgcomplexity.cli import main

        monkeypatch.setattr(adv, "eigsh", _raise_no_convergence)
        code = main(["adversary", "report", "--kind", "ksubset", "--params", "3", "2",
                     "--q", "8"])
        assert code == 2
        assert "ARPACK did not converge" in capsys.readouterr().err


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

    def test_parallel_matches_sequential(self, pipeline_parts):
        _, inst, witness = pipeline_parts
        seq = adv.adversary_ratio(inst, witness)
        par = adv.adversary_ratio(inst, witness, parallel=True)
        assert par.per_j_norms == pytest.approx(seq.per_j_norms)


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
