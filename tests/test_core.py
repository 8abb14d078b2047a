import numpy as np
import pytest

from portopt import core
from portopt.core import (
    PSD_TOL,
    SYM_TOL,
    Allocation,
    AssetStats,
    DataError,
    DimensionError,
    ModelConfig,
    PriceMatrix,
    ReturnMatrix,
    SolveReport,
    SolveStatus,
    validate_allocation,
)
from portopt.qp_solver import QpProblem


class TestValidateAllocation:
    def test_single_asset_identity(self):
        assert validate_allocation([1.0], cap=1.0).ok

    def test_cap_violation_reports_index(self):
        verdict = validate_allocation([0.6, 0.4], cap=0.5)
        assert not verdict.ok
        assert "index 0" in verdict.reason

    def test_cap_boundary_accepted(self):
        assert validate_allocation([0.5, 0.5], cap=0.5).ok

    def test_budget_violation(self):
        verdict = validate_allocation([0.5, 0.4], cap=1.0)
        assert not verdict.ok
        assert "budget" in verdict.reason

    def test_negative_weight(self):
        verdict = validate_allocation([1.1, -0.1], cap=1.0)
        assert not verdict.ok
        assert "negative" in verdict.reason

    def test_never_raises_on_nan(self):
        assert not validate_allocation([np.nan, 1.0], cap=1.0).ok

    def test_tolerances(self):
        # budget tolerance 1e-8, box tolerance 1e-9
        assert validate_allocation([1.0 + 5e-10], cap=1.0).ok
        assert validate_allocation([0.5 + 5e-10, 0.5], cap=0.5).ok
        assert not validate_allocation([1.0 + 5e-8], cap=1.0).ok


class TestTypes:
    def test_price_matrix_rejects_nonpositive(self):
        with pytest.raises(DataError):
            PriceMatrix(("A",), ("2020-01-01", "2020-01-02"), [[100.0, 0.0]])

    def test_price_matrix_rejects_unsorted_dates(self):
        with pytest.raises(DataError):
            PriceMatrix(("A",), ("2020-01-02", "2020-01-01"), [[1.0, 2.0]])

    def test_price_matrix_shape_check(self):
        with pytest.raises(DimensionError):
            PriceMatrix(("A", "B"), ("2020-01-01",), [[1.0]])

    def test_return_matrix_bounds(self):
        with pytest.raises(DataError):
            ReturnMatrix(("A",), ("d1",), [[-1.0]])

    def test_asset_stats_requires_symmetry(self):
        with pytest.raises(DataError):
            AssetStats([0.0, 0.0], [[1e-4, 1e-5], [3e-5, 1e-4]])

    @pytest.mark.parametrize("build, message", [
        (lambda q: AssetStats([0.0, 0.0], q), "covariance not symmetric within 1e-12"),
        (lambda q: QpProblem(q=q, c=[0.0, 0.0]), "Q not symmetric within 1e-12")],
        ids=["asset_stats", "qp_problem"])
    def test_symmetry_within_sym_tol(self, build, message):
        # off the exact-equality pass, max |m - mᵀ| against SYM_TOL decides
        def skewed(by):
            q = np.array([[1e-4, 1e-5], [1e-5, 1e-4]])
            q[1, 0] += by
            assert 0.9 * by < q[1, 0] - q[0, 1] < 1.1 * by
            return q

        build(skewed(SYM_TOL / 2))
        with pytest.raises(DataError, match=f"^{message}$"):
            build(skewed(2 * SYM_TOL))

    def test_asset_stats_requires_psd(self):
        with pytest.raises(DataError):
            AssetStats([0.0, 0.0], [[1e-4, -2e-4], [-2e-4, 1e-4]])

    def test_allocation_validates(self):
        with pytest.raises(DataError):
            Allocation([0.7, 0.7])
        alloc = Allocation([0.25, 0.75])
        assert alloc.n_positions == 2

    def test_types_are_immutable(self):
        alloc = Allocation([1.0])
        with pytest.raises((ValueError, AttributeError)):
            alloc.weights[0] = 0.5

    def test_matrices_store_read_only_c_order(self):
        values = np.asfortranarray([[1.0, 1.1, 1.2], [2.0, 2.2, 2.1]])
        for matrix in (PriceMatrix(("A", "B"), ("d1", "d2", "d3"), values).prices,
                       ReturnMatrix(("A", "B"), ("d1", "d2", "d3"), values - 1.0).returns):
            assert matrix.flags.c_contiguous and not matrix.flags.writeable
        assert np.array_equal(matrix, values - 1.0)

    def test_model_config_invariants(self):
        with pytest.raises(DataError):
            ModelConfig(sigma0=-0.1)
        with pytest.raises(DataError):
            ModelConfig(lam=-1.0)
        for bad in (dict(cap=0.0), dict(cap=1.5), dict(min_alloc=0.0), dict(min_alloc=1.5),
                    dict(lam=np.nan), dict(lam=np.inf), dict(mu_l1=np.nan),
                    dict(mu_l1=np.inf), dict(mu_l1=-1.0)):
            with pytest.raises(DataError):
                ModelConfig(**bad)
        # an infinite ceiling is no ceiling (the reverse model's top vertex)
        assert ModelConfig(sigma0=np.inf).sigma0 == np.inf
        # each range is checked alone; md_milp checks min_alloc against its
        # resolved cap (test_models::test_min_alloc_above_cap_rejected)
        assert ModelConfig(min_alloc=0.6, cap=0.5).cap == 0.5
        cfg = ModelConfig()
        assert cfg.resolved_cap(0.5) == 0.5
        assert ModelConfig(cap=0.3).resolved_cap(0.5) == 0.3
        with pytest.raises(DataError):
            cfg.require_rho()

    def test_solve_report_allocation_iff_optimal(self):
        with pytest.raises(DataError):
            SolveReport("md", SolveStatus.INFEASIBLE, None, Allocation([1.0]), 0.0, 0)
        with pytest.raises(DataError):
            SolveReport("md", SolveStatus.OPTIMAL, 1.0, None, 0.0, 0)


def is_psd_with_identity_shift(matrix) -> bool:
    """The reference PSD verdict: a Cholesky of sigma + PSD_TOL * np.eye(n),
    else the least eigenvalue against -PSD_TOL."""
    try:
        np.linalg.cholesky(matrix + PSD_TOL * np.eye(matrix.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(matrix).min() >= -PSD_TOL)


class TestIsPsd:
    @pytest.mark.parametrize("matrix", [
        [[1e-4, -0.0], [-0.0, 2e-4]],
        [[0.0, -0.0], [-0.0, 0.0]],
        [[1e-4, -0.0, 2e-5], [-0.0, -1e-4, -0.0], [2e-5, -0.0, 3e-4]],
        [[1.0, 1.0], [1.0, 1.0]]], ids=["pd", "zero", "indefinite", "singular"])
    def test_negative_zeros_keep_the_verdict(self, matrix):
        matrix = np.array(matrix)
        assert core._is_psd(matrix) == is_psd_with_identity_shift(matrix)

    @pytest.mark.parametrize("lowest, verdict", [(-PSD_TOL, True), (-2 * PSD_TOL, False)])
    def test_a_failed_cholesky_falls_back_to_the_eigenvalues(self, lowest, verdict,
                                                              monkeypatch):
        # the shift leaves a zero or negative last pivot, so eigvalsh,
        # exact on a diagonal matrix, decides
        matrix = np.diag([1e-4, lowest])
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        assert core._is_psd(matrix) is verdict
        assert len(calls) == 1
        assert is_psd_with_identity_shift(matrix) is verdict
        matrix.setflags(write=False)  # the shift goes on a copy
        assert core._is_psd(matrix) is verdict
