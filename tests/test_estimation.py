import hashlib

import numpy as np
import pytest

from portopt.core import AssetStats, DataError, DimensionError, PriceMatrix
from portopt.estimation import (
    PerturbationConfig,
    asset_stats,
    compute_simple_returns,
    covariance,
    covariance_change,
    mean_returns,
    _philox_keys,
    perturb_returns,
)

from conftest import make_returns
from oracles import perturb_returns_per_asset, two_pass_mean_cov


def prices_from(rows, dates=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    dates = dates or tuple(f"2020-01-{d + 1:02d}" for d in range(rows.shape[1]))
    tickers = tuple(f"P{i}" for i in range(rows.shape[0]))
    return PriceMatrix(tickers, dates, rows)


class TestSimpleReturns:
    def test_constant_prices_zero_returns(self):
        out = compute_simple_returns(prices_from([100.0, 100.0, 100.0]))
        assert np.allclose(out.returns, 0.0)
        assert out.n_days == 2

    def test_ten_percent_step(self):
        out = compute_simple_returns(prices_from([100.0, 110.0]))
        assert np.allclose(out.returns, [[0.10]])

    def test_up_then_down(self):
        out = compute_simple_returns(prices_from([100.0, 110.0, 99.0]))
        assert np.allclose(out.returns, [[0.10, -0.10]])

    def test_needs_two_dates(self):
        with pytest.raises(DimensionError):
            compute_simple_returns(prices_from([100.0]))

    def test_drops_first_date_label(self):
        prices = prices_from([100.0, 101.0, 102.0])
        out = compute_simple_returns(prices)
        assert out.dates == prices.dates[1:]


class TestMoments:
    def test_mean_symmetric(self):
        assert np.allclose(mean_returns(make_returns(np.array([[0.1, -0.1]]))), [0.0])

    def test_mean_single_day(self):
        assert np.allclose(mean_returns(make_returns(np.array([[0.02]]))), [0.02])

    def test_mean_two_assets(self):
        r = make_returns(np.array([[0.1, 0.3], [0.0, 0.2]]))
        assert np.allclose(mean_returns(r), [0.2, 0.1])

    def test_covariance_constant_series_zero(self):
        r = make_returns(np.full((1, 5), 0.01))
        assert np.allclose(covariance(r), [[0.0]])

    def test_covariance_duplicated_asset(self):
        row = np.array([0.05, -0.02, 0.01, 0.03])
        r = make_returns(np.vstack([row, row]))
        cov = covariance(r)
        assert cov[0, 0] == pytest.approx(cov[0, 1])
        assert cov[0, 0] == pytest.approx(cov[1, 1])

    def test_covariance_hand_example(self):
        r = make_returns(np.array([[0.1, -0.1], [-0.1, 0.1]]))
        expected = np.array([[0.01, -0.01], [-0.01, 0.01]])
        assert np.allclose(covariance(r), expected)

    def test_population_divisor(self):
        # divide by T, not T - 1
        r = make_returns(np.array([[0.0, 0.2]]))
        assert covariance(r)[0, 0] == pytest.approx(0.01)

    def test_errors(self):
        with pytest.raises(DimensionError):
            covariance(make_returns(np.array([[0.1]])))

    def test_date_permutation_invariance(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0.001, 0.02, (4, 30))
        perm = rng.permutation(30)
        assert np.allclose(covariance(make_returns(base)),
                           covariance(make_returns(base[:, perm])), atol=1e-15)

    def test_two_pass_oracle_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            t_days = int(rng.integers(2, 20))
            data = rng.normal(0.001, 0.02, (n, t_days))
            r = make_returns(data)
            ref_mean, ref_cov = two_pass_mean_cov(data)
            assert np.max(np.abs(mean_returns(r) - ref_mean)) < 1e-12
            assert np.max(np.abs(covariance(r) - ref_cov)) < 1e-12


class TestPerturbation:
    def test_huge_c_is_identity_limit(self):
        rng = np.random.default_rng(1)
        r = make_returns(rng.normal(0.0, 0.02, (5, 40)))
        out = perturb_returns(r, PerturbationConfig(c=1e15, seed=3))
        assert np.max(np.abs(out.returns - r.returns)) < 1e-12

    def test_constant_asset_untouched(self):
        data = np.vstack([np.full(30, 0.01), np.random.default_rng(2).normal(0, 0.02, 30)])
        r = make_returns(data)
        out = perturb_returns(r, PerturbationConfig(seed=9))
        assert np.array_equal(out.returns[0], r.returns[0])
        assert not np.array_equal(out.returns[1], r.returns[1])

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(3)
        r = make_returns(rng.normal(0.001, 0.03, (6, 25)))
        cfg = PerturbationConfig(c=1000.0, seed=77)
        a = perturb_returns(r, cfg)
        b = perturb_returns(r, cfg)
        assert np.array_equal(a.returns, b.returns)
        c = perturb_returns(r, PerturbationConfig(c=1000.0, seed=78))
        assert not np.array_equal(a.returns, c.returns)

    def test_noise_scales_with_asset_std(self):
        rng = np.random.default_rng(4)
        quiet = 0.001 * rng.standard_normal(500)
        loud = 0.05 * rng.standard_normal(500)
        r = make_returns(np.vstack([quiet, loud])[:, :500])
        out = perturb_returns(r, PerturbationConfig(seed=5))
        delta = out.returns - r.returns
        assert np.std(delta[1]) > 10 * np.std(delta[0])

    def test_perturbed_covariance_stays_psd(self):
        rng = np.random.default_rng(6)
        r = make_returns(rng.normal(0.001, 0.025, (8, 15)))
        shaken = perturb_returns(r, PerturbationConfig(seed=11))
        stats = asset_stats(shaken)  # constructor enforces the PSD invariant
        assert isinstance(stats, AssetStats)

    @pytest.mark.parametrize("seed", [1.5, "3", None, np.float64(2.0)])
    def test_non_integral_seed_refused(self, seed):
        with pytest.raises(DataError, match="perturbation seed must be an integer"):
            PerturbationConfig(seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_accepted(self, seed):
        r = make_returns(np.random.default_rng(8).normal(0.001, 0.02, (3, 6)))
        out = perturb_returns(r, PerturbationConfig(seed=seed))
        ref = perturb_returns_per_asset(r, PerturbationConfig(seed=seed))
        assert out.returns.tobytes() == ref.returns.tobytes()


SEEDS = [0, 1, 7, 32, 2**32 - 1, 2**32, 2**64 + 5, 2**99 + 12345]


class TestPerAssetStreams:
    """`perturb_returns` reproduces, bit for bit, the stream of one
    SeedSequence(entropy=seed, spawn_key=(s,)) per asset."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_asset_reference(self, seed):
        rng = np.random.default_rng(12)
        for n in (1, 2, 390, 1000):
            for t_days in (1, 2, 62):
                r = make_returns(rng.normal(0.001, 0.02, (n, t_days)))
                cfg = PerturbationConfig(c=10.0, seed=seed)
                out = perturb_returns(r, cfg).returns
                assert out.tobytes() == perturb_returns_per_asset(r, cfg).returns.tobytes()

    @pytest.mark.parametrize("seed", SEEDS + [2**128, 2**200 + 17])
    def test_keys_match_seed_sequence(self, seed):
        # T = 1 leaves sigma at 0, so the keys are checked on their own
        keys = _philox_keys(seed, 1000)
        ref = [np.random.SeedSequence(entropy=seed, spawn_key=(s,)).generate_state(2, np.uint64)
               for s in range(1000)]
        assert keys.dtype == np.uint64
        assert keys.tobytes() == np.array(ref).tobytes()

    def test_fixture_train_window_digest(self, fixture_train):
        out = perturb_returns(fixture_train, PerturbationConfig(c=1000.0, seed=32))
        assert hashlib.sha256(out.returns.tobytes()).hexdigest() == (
            "0c9b4f91bbf16d685339bccb3fb2ee4b54e1ca25fdcea3e93cf1ac23f67376b2")


class TestCovarianceChange:
    def test_identity(self):
        cov = np.array([[1e-4, 0.0], [0.0, 2e-4]])
        assert covariance_change(cov, cov) == (0.0, 0.0)

    def test_one_by_one(self):
        diff, rel = covariance_change(np.array([[2.0]]), np.array([[3.0]]))
        assert diff == pytest.approx(1.0)
        assert rel == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            covariance_change(np.eye(2), np.eye(3))
