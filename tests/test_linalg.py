import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import complex_square_matrices, hermitian_matrices
from one_row import abs_sq, matrix_function
from qbattery import linalg
from qbattery.errors import ConvergenceError, DimensionError, DomainError, ValidationError
from qbattery.dynamics import DensityMatrix, JumpChannel, LindbladModel, propagate
from qbattery.linalg import (HermitianMatrix, _round_robin, as_square_matrix, dagger, hermitian_eig,
                             hermitian_eig_chain, hermitian_eigs, max_abs)
from qbattery.tolerances import DEFAULT_TOLERANCES

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |1><0|
H2 = np.diag([0.0, 1.0]).astype(complex)


def reconstruct(spec):
    """U diag(lambda) U^dag of a spectrum."""
    return (spec.eigenvectors * spec.eigenvalues) @ dagger(spec.eigenvectors)


class TestAbsSq:
    def test_raising_operator_projects_on_excited(self):
        got = abs_sq(SIGMA_PLUS)
        assert np.array_equal(got, np.diag([0.0, 1.0]).astype(complex))

    def test_zero(self):
        assert max_abs(abs_sq(np.zeros((3, 3)))) == 0.0

    def test_against_loop_oracle(self, rng):
        a = oracles.random_ginibre(rng, 3)
        got = abs_sq(a)
        want = oracles.abs_sq_loops(a)
        assert max_abs(got - want) <= 1e-12

    @given(complex_square_matrices(2, 5))
    def test_psd_within_slack(self, a):
        h = abs_sq(a)
        floor = -1e-10 * max(1.0, max_abs(h))
        assert np.linalg.eigvalsh(h).min() >= floor


class TestHermitianMatrix:
    def test_symmetrizes_a_small_defect(self):
        m = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]], dtype=complex)
        h = HermitianMatrix(m)
        assert max_abs(h.matrix - oracles.dag(h.matrix)) == 0.0
        assert same_bits(h.matrix, 0.5 * m + oracles.dag(0.5 * m))
        assert h.matrix[0, 1] != m[0, 1]

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(ValidationError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_defect_tolerance_scales_with_magnitude(self):
        # 1e-10 absolute asymmetry is fine on a matrix of norm ~1e3 (bound
        # 1e-12 * 1e3), and beyond the bound 1e-12 on a matrix of norm ~1
        m = np.array([[1e3, 1e3 + 1e-10j], [1e3, 1e3]], dtype=complex)
        h = HermitianMatrix(m)
        assert same_bits(h.matrix, 0.5 * m + oracles.dag(0.5 * m))
        with pytest.raises(ValidationError, match="hermiticity defect 1.000e-10 exceeds"):
            HermitianMatrix(np.array([[1.0, 1.0 + 1e-10j], [1.0, 1.0]], dtype=complex))

    def test_stored_array_is_frozen(self):
        h = HermitianMatrix(H2)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            as_square_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_is_the_one_matrix_case_of_the_stack(self, rng):
        # matrices near and beyond the defect bound, at several scales: from
        # every start, the stack's bits and first failure are those of
        # constructing its matrices one by one
        ms = [s * (oracles.random_hermitian(rng, 3) + e * oracles.random_ginibre(rng, 3))
              for s in (1e-3, 1.0, 1e5) for e in (0.0, 1e-13, 1e-11)]
        for start in range(len(ms)):
            rows = linalg._Rows(len(ms) - start)
            sym = linalg._hermitian(rows, np.array(ms[start:]), DEFAULT_TOLERANCES)
            for i in range(rows.n):
                assert same_bits(HermitianMatrix(ms[start + i]).matrix, sym[i])
            if rows.error is not None:
                with pytest.raises(ValidationError) as single:
                    HermitianMatrix(ms[start + rows.n])
                assert str(single.value) == str(rows.error)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entry_modulus_beyond_the_float_range_is_rejected(self):
        # finite parts whose modulus overflows: ||M||_max, and every norm the
        # solver takes of M, is infinite
        a = 1.3e308
        with pytest.raises(ValidationError, match="hermitian matrix: an entry's modulus is "
                                                  "beyond the float range"):
            HermitianMatrix(np.array([[a, a + 1j * a], [a - 1j * a, 0.0]]))
        with pytest.raises(ValidationError, match="hermitian matrix: non-finite entries"):
            HermitianMatrix(np.array([[a, np.inf], [np.inf, 0.0]]))


class TestHermitianEig:
    def test_diagonal_gets_sorted_with_permutation_vectors(self):
        spec = hermitian_eig(HermitianMatrix(np.diag([5.0, 2.0])))
        assert np.array_equal(spec.eigenvalues, np.array([2.0, 5.0]))
        assert np.array_equal(spec.eigenvectors,
                              np.array([[0, 1], [1, 0]], dtype=complex))

    def test_identity_keeps_original_order(self):
        spec = hermitian_eig(HermitianMatrix(np.eye(3)))
        assert np.array_equal(spec.eigenvectors, np.eye(3, dtype=complex))

    def test_sigma_x_by_hand(self):
        spec = hermitian_eig(HermitianMatrix(SIGMA_X))
        assert spec.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-14)
        r = 1.0 / math.sqrt(2.0)
        assert max_abs(spec.eigenvectors[:, 0] - np.array([r, -r])) <= 1e-14
        assert max_abs(spec.eigenvectors[:, 1] - np.array([r, r])) <= 1e-14

    def test_sigma_y_phase_convention(self):
        # first component of each eigenvector is made real positive
        spec = hermitian_eig(HermitianMatrix(SIGMA_Y))
        r = 1.0 / math.sqrt(2.0)
        assert max_abs(spec.eigenvectors[:, 0] - np.array([r, -1j * r])) <= 1e-14
        assert max_abs(spec.eigenvectors[:, 1] - np.array([r, 1j * r])) <= 1e-14

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rotations_raise(self):
        # near the float limit the rotations overflow to nan, which the
        # unitarity and residual guards, comparing nan, would let through
        h = HermitianMatrix(1.7e308 * np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]]))
        with pytest.raises(ValidationError, match="eigendecomposition has non-finite entries"):
            hermitian_eig(h)
        rows = linalg._Rows(1)
        values, vectors = hermitian_eigs(rows, h.matrix[None])
        assert values.shape == (0, 2) and vectors.shape == (0, 2, 2)
        assert rows.n == 0 and isinstance(rows.error, ValidationError)
        assert str(rows.error) == "eigendecomposition has non-finite entries"

    def test_reconstruction_unitarity_8x8(self, rng):
        m = oracles.random_hermitian(rng, 8, scale=3.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        scale = max(1.0, max_abs(h.matrix))
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(8)) <= 1e-10

    def test_matches_numpy_up_to_dim_12(self, rng):
        # d = 16, 24 and 32 ride along: the sizes where rounds hold many pairs
        for d in [*range(2, 13), 16, 24, 32]:
            m = oracles.random_hermitian(rng, d, scale=10.0 / 3.0)
            spec = hermitian_eig(HermitianMatrix(m))
            want = np.linalg.eigvalsh(m)
            scale = max(1.0, max_abs(m))
            assert max_abs(spec.eigenvalues - want) <= 1e-10 * scale

    def test_deterministic(self, rng):
        m = oracles.random_hermitian(rng, 6)
        a = hermitian_eig(HermitianMatrix(m))
        b = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_block_diagonal_with_exact_zero_pairs(self, rng):
        # blocks {0, 3}, {1, 4, 5} and {2}: most pairs have a_pq == 0 exactly,
        # so rounds mix skipped and live pairs and some rounds skip entirely
        blocks = ([0, 3], [1, 4, 5], [2])
        m = np.zeros((6, 6), dtype=complex)
        for idx in blocks:
            m[np.ix_(idx, idx)] = oracles.random_hermitian(rng, len(idx), scale=2.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert max_abs(spec.eigenvalues - np.linalg.eigvalsh(m)) <= 1e-12
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(6)) <= 1e-12
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-12
        # rotations never leave a block: every eigenvector lives on one block
        for j in range(6):
            support = {int(i) for i in np.flatnonzero(u[:, j])}
            assert any(support <= set(idx) for idx in blocks)
        again = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)
        assert np.array_equal(again.eigenvectors, spec.eigenvectors)

    def test_degenerate_non_diagonal(self, rng):
        u0 = oracles.random_unitary(rng, 4)
        m = (u0 * np.array([1.0, 1.0, 2.0, 2.0])) @ oracles.dag(u0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert max_abs(spec.eigenvalues - np.array([1.0, 1.0, 2.0, 2.0])) <= 1e-12
        u = spec.eigenvectors
        assert max_abs(oracles.dag(u) @ u - np.eye(4)) <= 1e-12
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-12
        # the basis inside each eigenspace is the solver's choice; the
        # eigenspace itself is not
        for cols in ([0, 1], [2, 3]):
            want = u0[:, cols] @ oracles.dag(u0[:, cols])
            assert max_abs(u[:, cols] @ oracles.dag(u[:, cols]) - want) <= 1e-12
        for j in range(4):
            pivot = u[np.argmax(np.abs(u[:, j])), j]
            assert abs(pivot.imag) <= 1e-15 and pivot.real > 0.0
        again = hermitian_eig(HermitianMatrix(m))
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)
        assert np.array_equal(again.eigenvectors, spec.eigenvectors)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_magnitudes(self, scale):
        # unscaled, ||M||_F overflows to inf (no sweep runs) or underflows to 0
        # (the unrotated diagonal passes for the spectrum)
        base = np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]])
        spec = hermitian_eig(HermitianMatrix(scale * base))
        want = np.linalg.eigvalsh(base) * scale
        assert np.all(np.abs(spec.eigenvalues - want) <= 1e-12 * np.abs(want))

    def test_convergence_budget_exhaustion(self):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=0)
        with pytest.raises(ConvergenceError) as exc:
            hermitian_eig(HermitianMatrix(SIGMA_X), tol=tol)
        residual = re.search(r"off-diagonal norm (\S+) above target", str(exc.value)).group(1)
        assert float(residual) > 0.0

    @given(hermitian_matrices(2, 5))
    @settings(max_examples=40)
    def test_spectrum_invariants_random(self, m):
        h = HermitianMatrix(m)
        spec = hermitian_eig(h)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        d = h.dim
        u = spec.eigenvectors
        scale = max(1.0, max_abs(h.matrix))
        assert max_abs(oracles.dag(u) @ u - np.eye(d)) <= 1e-10
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale


def stack_cases(rng, d):
    """Matrices that take different paths through a Jacobi solve at dimension d."""
    dense = oracles.random_hermitian(rng, d, scale=2.0)
    # block-diagonal: most pairs are exactly zero and some rounds have no live pair
    block = np.zeros((d, d), dtype=complex)
    blocks = ([0, 3], [1, 4, 5], [2]) if d == 6 else (list(range(0, d, 2)), list(range(1, d, 2)))
    for idx in blocks:
        block[np.ix_(idx, idx)] = oracles.random_hermitian(rng, len(idx))
    u = oracles.random_unitary(rng, d)
    degenerate = (u * np.resize([1.0, 1.0, 2.0, 2.0], d)) @ oracles.dag(u)
    # -0.0 everywhere but one live pair: the signs of zeros survive the solve
    signed_zeros = np.full((d, d), -0.0, dtype=complex)
    signed_zeros[np.diag_indices(d)] = np.resize([1.0, -0.0, -2.0], d)
    signed_zeros[0, d - 1], signed_zeros[d - 1, 0] = -0.2 - 0.5j, -0.2 + 0.5j
    return [dense, np.diag(rng.standard_normal(d)).astype(complex), block, degenerate,
            1e-200 * dense, 1e160 * oracles.random_hermitian(rng, d), signed_zeros,
            oracles.random_hermitian(rng, d), np.zeros((d, d), dtype=complex)]


def same_bits(a, b) -> bool:
    """Equal arrays, signs of zeros included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_cuts_as_single_solves(hs, tol) -> int:
    """From every start offset, hermitian_eigs of hs[start:] cuts at the first
    matrix whose single solve raises, with the same type and message (which
    names the residual), and every spectrum before the cut has the bits of the
    single solve.  So each failing matrix is checked as the first failure of
    its own suffix.  Returns how many of hs fail."""
    failed = 0
    for start in range(len(hs)):
        rows = linalg._Rows(len(hs) - start)
        values, vectors = hermitian_eigs(rows, np.array([h.matrix for h in hs[start:]]), tol=tol)
        assert len(values) == len(vectors) == rows.n
        for h, got_values, got_vectors in zip(hs[start:], values, vectors):
            want = hermitian_eig(h, tol=tol)
            assert same_bits(got_values, want.eigenvalues)
            assert same_bits(got_vectors, want.eigenvectors)
        if rows.error is None:
            assert rows.n == len(hs) - start
            continue
        failed += rows.n == 0
        with pytest.raises((ConvergenceError, ValidationError)) as single:
            hermitian_eig(hs[start + rows.n], tol=tol)
        assert type(rows.error) is type(single.value)
        assert str(rows.error) == str(single.value)
    return failed


class TestHermitianEigs:
    # from d = 17 numpy's default sort is not stable on the exact ties of signed_zeros
    @pytest.mark.parametrize("d", [*range(2, 10), 17])
    def test_stack_is_bit_identical_to_single_solves(self, rng, d, monkeypatch):
        hs = [HermitianMatrix(m) for m in stack_cases(rng, d)]
        # solved singly, the cases need different sweep counts (one schedule
        # fetch per sweep), so the stack parks them after different sweeps
        fetches = []
        schedule = linalg._round_robin
        monkeypatch.setattr(linalg, "_round_robin", lambda n: fetches.append(n) or schedule(n))
        singles, sweeps = [], []
        for h in hs:
            fetched = len(fetches)
            singles.append(hermitian_eig(h))
            sweeps.append(len(fetches) - fetched)
        assert len(set(sweeps)) > 1
        rows = linalg._Rows(len(hs))
        values, vectors = hermitian_eigs(rows, np.array([h.matrix for h in hs]))
        assert rows.error is None and len(values) == len(vectors) == len(hs)
        assert not values.flags.writeable and not vectors.flags.writeable
        for want, got_values, got_vectors in zip(singles, values, vectors):
            assert same_bits(got_values, want.eigenvalues)
            assert same_bits(got_vectors, want.eigenvectors)

    @pytest.mark.parametrize("sweeps", [0, 1, 2, 3])
    def test_failures_are_held_per_matrix(self, rng, sweeps):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=sweeps)
        hs = [HermitianMatrix(m) for m in stack_cases(rng, 5)]
        assert 0 < assert_cuts_as_single_solves(hs, tol) < len(hs)

    # a diagonal or zero matrix has exactly unitary permutation eigenvectors and
    # reconstructs exactly; rotations of a matrix near the float limit overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_guard_failures_are_held_per_matrix(self, rng):
        for guards, scale in [({"unitarity": 0.0}, 1.0), ({"reconstruction": 0.0}, 1.0),
                              ({"unitarity": 0.0, "reconstruction": 0.0}, 1.0), ({}, 1.7e308)]:
            tol = DEFAULT_TOLERANCES.replace(**guards)
            huge = scale * np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]])
            hs = [HermitianMatrix(m) for m in [huge, *stack_cases(rng, 2)]]
            assert 0 < assert_cuts_as_single_solves(hs, tol) < len(hs), guards

    # a guard failure (rotations that overflow, on the 2 x 2 block of the
    # 1.7e308 matrix) and a budget failure (a dense matrix, two sweeps) in one
    # stack, in both orders: the cut is at the first of them
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixed_failures_cut_as_single_solves(self, rng):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=2)
        huge = np.zeros((4, 4), dtype=complex)
        huge[:2, :2] = 1.7e308 * np.array([[1.0, 0.5 + 0.2j], [0.5 - 0.2j, -0.3]])
        huge, slow = HermitianMatrix(huge), HermitianMatrix(oracles.random_hermitian(rng, 4))
        with pytest.raises(ValidationError, match="eigendecomposition has non-finite entries"):
            hermitian_eig(huge, tol=tol)
        with pytest.raises(ConvergenceError):
            hermitian_eig(slow, tol=tol)
        blocks = np.zeros((4, 4), dtype=complex)  # one rotation per block: one sweep
        blocks[:2, :2], blocks[2:, 2:] = 0.5 * SIGMA_X, [[0.2, 0.1j], [-0.1j, 0.4]]
        fine = [HermitianMatrix(m) for m in (np.diag([0.3, -0.2, 0.1, 0.0]), blocks)]
        for first, second in [(huge, slow), (slow, huge)]:
            hs = [fine[0], first, fine[1], second, fine[0]]
            assert assert_cuts_as_single_solves(hs, tol) == 2

    def test_a_round_with_no_live_pair_rotates_nothing(self):
        # d = 3's first round holds only the pair (0, 1), whose entry is zero here
        # in the one matrix of the stack: the round is skipped, the solve goes on
        p, q, _ = linalg._round_robin(3)[0]
        assert (p.tolist(), q.tolist()) == ([0], [1])
        m = np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.3j], [0.5, -0.3j, 3.0]])
        assert assert_cuts_as_single_solves([HermitianMatrix(m)], DEFAULT_TOLERANCES) == 0

    def test_no_matrices_give_no_results(self):
        values, vectors = hermitian_eigs(linalg._Rows(0), np.zeros((0, 3, 3), dtype=complex))
        assert values.shape == (0, 3) and vectors.shape == (0, 3, 3)

    # a NaN matrix past the cut would fail its guards if it were solved
    @pytest.mark.parametrize("chain", [False, True], ids=["stack", "chain"])
    def test_only_the_rows_before_the_cut_are_solved(self, rng, chain):
        hs = [HermitianMatrix(oracles.random_hermitian(rng, 3)) for _ in range(2)]
        matrices = np.array([h.matrix for h in hs] + [np.full((3, 3), np.nan)] * 2)
        rows, earlier = linalg._Rows(len(matrices)), ValidationError("an earlier check")
        rows.cut(2, earlier)
        if chain:
            got, want = hermitian_eig_chain(rows, matrices, None), looped(matrices[:2], None)
        else:
            got, want = hermitian_eigs(rows, matrices), [hermitian_eig(h) for h in hs]
        assert rows.n == 2 and rows.error is earlier and len(got[1]) == 2
        for vectors, expected in zip(got[1], want):
            assert same_bits(vectors, expected.eigenvectors)


def trajectory_block(rng, d=4, steps=12):
    """The matrices of `steps` consecutive RK4 states of a seeded d-level model,
    and the eigenvectors of the state before them."""
    model = LindbladModel(
        HermitianMatrix(oracles.random_hermitian(rng, d)),
        tuple(JumpChannel(0.5, 0.5 * oracles.random_ginibre(rng, d)) for _ in range(2)))
    states = [s for s, _ in propagate(model, DensityMatrix(oracles.random_density(rng, d)),
                                      np.linspace(0.0, steps * 1e-2, steps + 1))]
    return np.array([s.matrix for s in states[1:]]), states[0].spectrum.eigenvectors


def looped(matrices, basis, tol=DEFAULT_TOLERANCES):
    """hermitian_eig of each matrix, warm-started from the result before, up to
    the first error, which ends the list in its place."""
    out = []
    for m in matrices:
        try:
            out.append(hermitian_eig(HermitianMatrix(m), basis=basis, tol=tol))
        except (ConvergenceError, ValidationError) as exc:
            return out + [exc]
        basis = out[-1].eigenvectors
    return out


class TestHermitianEigChain:
    def test_chain_is_bit_identical_to_a_loop_of_single_solves(self, rng):
        matrices, basis = trajectory_block(rng)
        rows = linalg._Rows(len(matrices))
        values, vectors = hermitian_eig_chain(rows, matrices, basis)
        assert rows.error is None and len(values) == len(vectors) == len(matrices)
        assert not values.flags.writeable and not vectors.flags.writeable
        for got_values, got_vectors, want in zip(values, vectors, looped(matrices, basis)):
            assert same_bits(got_values, want.eigenvalues)
            assert same_bits(got_vectors, want.eigenvectors)

    # two diagonal matrices pass with the identity as eigenvectors and no sweep;
    # the dense one after them needs several sweeps and rotations, and fails
    @pytest.mark.parametrize("guard, error", [({"jacobi_max_sweeps": 1}, ConvergenceError),
                                              ({"unitarity": 1e-300}, ValidationError)])
    def test_a_middle_failure_ends_the_chain_as_the_loop_ends(self, rng, guard, error):
        tol = DEFAULT_TOLERANCES.replace(**guard)
        d = 4
        dense = oracles.random_hermitian(rng, d)
        matrices = np.array([np.diag([0.1, 0.2, 0.3, 0.4]), np.diag([0.4, 0.3, 0.2, 0.1]),
                             dense, dense + 1e-3 * np.eye(d)]).astype(complex)
        rows = linalg._Rows(len(matrices))
        values, vectors = hermitian_eig_chain(rows, matrices, None, tol=tol)
        want = looped(matrices, None, tol)
        assert len(values) == len(vectors) == rows.n == 2 and len(want) == 3
        assert isinstance(rows.error, error) and type(rows.error) is type(want[2])
        assert str(rows.error) == str(want[2])
        for got, expected in zip(vectors, want[:2]):
            assert same_bits(got, expected.eigenvectors)

    def test_no_matrices_give_no_results(self):
        values, vectors = hermitian_eig_chain(linalg._Rows(0), np.zeros((0, 3, 3), dtype=complex),
                                              None)
        assert values.shape == (0, 3) and vectors.shape == (0, 3, 3)

    # the diagonal rows are finished in one stacked pass, the dense ones in the
    # loop: rows 2 and 4 warm-start from a row that took the stacked pass
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_diagonal_and_dense_rows_interleaved_match_the_loop(self, rng, start, monkeypatch):
        d = 4
        dense = oracles.random_hermitian(rng, d)
        matrices = np.array([dense, np.diag([0.3, 0.1, 0.3, 0.2]), dense + 1e-3 * np.eye(d),
                             np.diag([0.4, 0.3, 0.2, 0.1]),
                             dense + 1e-3 * oracles.random_hermitian(rng, d)]).astype(complex)
        basis = oracles.random_unitary(rng, d) if start == "warm" else None
        want = looped(matrices, basis)
        swept = []
        jacobi = linalg._jacobi
        monkeypatch.setattr(linalg, "_jacobi", lambda m, *a: swept.append(m.copy()) or jacobi(m, *a))
        rows = linalg._Rows(len(matrices))
        values, vectors = hermitian_eig_chain(rows, matrices, basis)
        assert rows.error is None and len(values) == len(matrices)
        assert len(swept) == 3 and all(map(np.array_equal, swept, matrices[[0, 2, 4]]))
        for got_values, got_vectors, expected in zip(values, vectors, want):
            assert same_bits(got_values, expected.eigenvalues)
            assert same_bits(got_vectors, expected.eigenvectors)

    # row 1 is within its target (off-diagonal 1e-15) but its residual, 1e-15,
    # fails a 1e-16 reconstruction bound; row 2, dense, runs out of sweeps
    def test_a_guard_on_a_diagonal_row_cuts_before_a_later_sweep_failure(self, rng):
        tol = DEFAULT_TOLERANCES.replace(jacobi_max_sweeps=1, reconstruction=1e-16)
        near = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        near[0, 1], near[1, 0] = 1e-15, 1e-15
        matrices = np.array([np.diag([0.4, 0.1, 0.3, 0.2]), near,
                             oracles.random_hermitian(rng, 4)]).astype(complex)
        rows = linalg._Rows(len(matrices))
        values, vectors = hermitian_eig_chain(rows, matrices, None, tol=tol)
        want = looped(matrices, None, tol)
        assert rows.n == len(values) == len(vectors) == 1 and len(want) == 2
        assert type(rows.error) is type(want[1]) is ValidationError
        assert str(rows.error) == str(want[1])
        assert "residual" in str(rows.error)
        with pytest.raises(ConvergenceError):
            hermitian_eig(HermitianMatrix(matrices[2]), tol=tol)
        assert same_bits(vectors[0], want[0].eigenvectors)


class TestSortedPhased:
    # ties (stable order), a tie in magnitude inside a column (lowest index
    # pivots) and random phases; the rows form takes one shared v as well
    def test_rows_form_has_the_bits_of_the_one_matrix_form(self, rng):
        d = 4
        values = np.array([[0.3, 0.1, 0.3, 0.2], [0.5, 0.5, 0.5, 0.5], rng.standard_normal(d)])
        v = np.array([oracles.random_unitary(rng, d), np.eye(d) * np.exp(1j * rng.uniform(0, 6, d)),
                      np.array([[1, 1, 0, 0], [1j, -1j, 0, 0], [0, 0, 1, 1], [0, 0, -1, 1]])
                      / np.sqrt(2.0)])
        for shared in (False, True):
            stack = v[:1] if shared else v
            got_values, got_vectors = linalg._sorted_phased_rows(values, stack)
            for k in range(len(values)):
                want_values, want_vectors = oracles.sorted_phased(
                    values[k], stack[0 if shared else k])
                assert same_bits(got_values[k], want_values)
                assert same_bits(got_vectors[k], want_vectors)


def rotation(rng, d, angle):
    """exp(i angle K) for a random Hermitian K with entries of order one."""
    w, u = np.linalg.eigh(oracles.random_hermitian(rng, d))
    return (u * np.exp(1j * angle * w)) @ oracles.dag(u)


class TestWarmStart:
    def test_perturbed_basis_matches_cold_up_to_dim_12(self, rng):
        for d in [*range(2, 13), 32]:
            m = oracles.random_hermitian(rng, d, scale=10.0 / 3.0)
            h = HermitianMatrix(m)
            cold = hermitian_eig(h)
            warm = hermitian_eig(h, basis=cold.eigenvectors @ rotation(rng, d, 1e-3))
            want = np.linalg.eigvalsh(m)
            scale = max(1.0, max_abs(m))
            for spec in (cold, warm):
                assert max_abs(spec.eigenvalues - want) <= 1e-10 * scale
                assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale
                u = spec.eigenvectors
                assert max_abs(oracles.dag(u) @ u - np.eye(d)) <= 1e-10
            assert max_abs(warm.eigenvalues - cold.eigenvalues) <= 1e-10 * scale

    def test_far_basis_still_converges(self, rng):
        m = oracles.random_hermitian(rng, 8, scale=2.0)
        h = HermitianMatrix(m)
        spec = hermitian_eig(h, basis=oracles.random_unitary(rng, 8))
        scale = max(1.0, max_abs(m))
        assert max_abs(spec.eigenvalues - np.linalg.eigvalsh(m)) <= 1e-10 * scale
        assert max_abs(reconstruct(spec) - h.matrix) <= 1e-10 * scale

    def test_diagonal_input_ignores_the_basis(self, rng):
        h = HermitianMatrix(np.diag([0.5, -1.0, 0.5, 2.0, 0.0]))
        cold = hermitian_eig(h)
        warm = hermitian_eig(h, basis=oracles.random_unitary(rng, 5))
        assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
        assert np.array_equal(warm.eigenvectors, cold.eigenvectors)

    def test_ties_follow_the_start_basis(self):
        # a Hadamard basis is unitary in floating point, so B^dag M B is
        # exactly diag(1, 1, 2, 2) and both pairs tie exactly
        had = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                              [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex)
        h = HermitianMatrix((had * np.array([1.0, 1.0, 2.0, 2.0])) @ had.T)
        for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
            spec = hermitian_eig(h, basis=had[:, order])
            assert np.array_equal(spec.eigenvalues, np.array([1.0, 1.0, 2.0, 2.0]))
            # columns come back in the start order, phased to a positive first entry
            assert np.array_equal(spec.eigenvectors, had[:, order] * had[0, order] * 2.0)

    def test_long_chain_of_warm_starts_stays_unitary(self, rng):
        # each call starts from the eigenvectors of the previous one, as along
        # a trajectory; without re-projecting the start basis onto the unitary
        # group, the round-off of every call would accumulate in it
        d = 8
        lam = np.linspace(0.05, 0.2, d)
        u0 = oracles.random_unitary(rng, d)
        w, k = np.linalg.eigh(oracles.random_hermitian(rng, d))
        basis = None
        worst = 0.0
        for step in range(2000):
            u = (k * np.exp(1e-3j * step * w)) @ oracles.dag(k) @ u0
            spec = hermitian_eig(HermitianMatrix((u * lam) @ oracles.dag(u)), basis=basis)
            basis = spec.eigenvectors
            worst = max(worst, max_abs(oracles.dag(basis) @ basis - np.eye(d)))
        assert worst <= 1e-13


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_every_pair_exactly_once_per_sweep(self, d):
        rounds = _round_robin(d)
        assert len(rounds) == d - 1 + d % 2
        seen = []
        for p, q, idx in rounds:
            assert np.all(p < q) and np.all(q < d)
            touched = np.concatenate((p, q))
            assert np.unique(touched).size == touched.size   # disjoint pairs
            assert p.size == d // 2   # odd d: the dummy's pair is dropped
            rows, cols = np.unravel_index(idx, (d, d))
            assert np.array_equal(rows, np.concatenate((p, p, q, q)))
            assert np.array_equal(cols, np.concatenate((p, q, p, q)))
            seen.extend(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]

    def test_small_dims_keep_the_cyclic_order(self):
        for d, want in ((2, [(0, 1)]), (3, [(0, 1), (0, 2), (1, 2)])):
            got = [(int(p[0]), int(q[0])) for p, q, _ in _round_robin(d)]
            assert got == want

    def test_schedule_is_computed_once_per_dim(self):
        assert _round_robin(7) is _round_robin(7)


class TestAccuracyNearRankThreshold:
    """Eigenvalues of ill-conditioned density matrices against 50 digits."""

    @staticmethod
    def check(lam_min, warm):
        mp = pytest.importorskip("mpmath")
        d = 8
        eps = np.finfo(float).eps
        rng = np.random.default_rng(int(round(-math.log10(lam_min))))
        for _ in range(3):
            tail = np.exp(rng.uniform(math.log(1e-3), 0.0, size=d - 1))
            lam = np.concatenate(([lam_min], tail))
            lam = lam / lam.sum()
            u = oracles.random_unitary(rng, d)
            h = HermitianMatrix((u * lam) @ oracles.dag(u))
            # warm: start from the eigenvectors of a state one small step away
            basis = u @ rotation(rng, d, 1e-3) if warm else None
            with mp.workdps(50):
                exact = mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in h.matrix])
                ref = sorted(mp.eighe(exact, eigvals_only=True))
                norm2 = float(ref[-1])
                got = hermitian_eig(h, basis=basis).eigenvalues
                errors = [float(abs(mp.mpf(float(g)) - r)) for g, r in zip(got, ref)]
            assert max(errors) <= 8 * d * eps * norm2

    @pytest.mark.parametrize("lam_min", [1e-12, 1e-9, 1e-6, 1e-2])
    def test_within_backward_stable_bound(self, lam_min):
        self.check(lam_min, warm=False)

    @pytest.mark.parametrize("lam_min", [1e-12, 1e-9, 1e-6, 1e-2])
    def test_warm_start_within_backward_stable_bound(self, lam_min):
        self.check(lam_min, warm=True)


class TestMatrixFunction:
    def test_identity_function(self, rng):
        m = oracles.random_hermitian(rng, 4)
        h = HermitianMatrix(m)
        got = matrix_function(hermitian_eig(h), lambda x: x)
        assert max_abs(got - h.matrix) <= 1e-10 * max(1.0, max_abs(m))

    def test_scalar_log(self):
        h = HermitianMatrix(np.diag([0.5, 0.5]))
        got = matrix_function(hermitian_eig(h), math.log)
        assert max_abs(got - np.diag([-math.log(2)] * 2)) <= 1e-14

    def test_exp_log_roundtrip(self, rng):
        rho = oracles.random_density(rng, 4)
        h = HermitianMatrix(rho)
        log_h = matrix_function(hermitian_eig(h), math.log)
        back = matrix_function(hermitian_eig(HermitianMatrix(log_h)), math.exp)
        assert max_abs(back - h.matrix) <= 1e-9

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_value_is_a_domain_error(self, value):
        spectrum = hermitian_eig(HermitianMatrix(np.diag([0.0, 1.0])))
        with pytest.raises(DomainError) as exc:
            matrix_function(spectrum, lambda x: value)
        assert str(exc.value) == f"f(0.0) = {value!r} is not finite"

    def test_log_of_singular_matrix(self):
        with pytest.raises(DomainError) as exc:
            matrix_function(hermitian_eig(HermitianMatrix(np.diag([0.0, 1.0]))), math.log)
        eigenvalue = re.fullmatch(r"f\((.+)\) undefined: .*", str(exc.value)).group(1)
        assert abs(float(eigenvalue)) <= 1e-12

    @given(hermitian_matrices(2, 4), st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=40)
    def test_shift_consistency(self, m, c):
        h = HermitianMatrix(m)
        got = matrix_function(hermitian_eig(h), lambda x: x + c)
        want = h.matrix + c * np.eye(h.dim)
        assert max_abs(got - want) <= 1e-10 * max(1.0, max_abs(want))
