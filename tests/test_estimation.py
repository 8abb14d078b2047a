import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from portopt import core
from portopt.core import (PSD_TOL, AssetStats, DataError, DimensionError, PriceMatrix,
                          gram_psd_bound)
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
from portopt.philox import buffer_words, standard_normals

from conftest import FIXTURE_PATH, make_returns
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
        stats = asset_stats(shaken)  # from_centered certifies the PSD invariant
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


# numpy's ziggurat (numpy/random/src/distributions/ziggurat_constants.h):
# ki_double[0] and the tail's start r. A draw whose word has layer 0 and
# rabs = (word >> 9) & (2**52 - 1) >= KI0 runs the tail loop, and only that
# loop returns a normal of magnitude r or more.
ZIGGURAT_KI0, ZIGGURAT_R = 0x000EF33D8025EF6A, 3.6541528853610088


def philox_at(key) -> np.random.Philox:
    bitgen = np.random.Philox(0)
    state = bitgen.state
    state["state"]["key"] = key
    bitgen.state = state
    return bitgen


def words_drawn(key, t_days: int) -> tuple[np.ndarray, int]:
    """The raw words of `key`'s stream that numpy's `standard_normal(t_days)`
    reads, and how many it reads: the next word `random_raw` gives after the
    draw is found in a fresh copy of the stream."""
    bitgen = philox_at(key)
    np.random.Generator(bitgen).standard_normal(t_days)
    after = bitgen.random_raw()
    raw = philox_at(key).random_raw(2 * t_days + 64)
    used = int(np.flatnonzero(raw == after)[0])
    return raw[:used], used


class TestRarePaths:
    """Streams that reach the ziggurat's rare branches: wedge rejections,
    layer-0 tail draws, and a row whose first buffer of words runs out."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_long_streams_reach_the_tail(self, seed):
        n, t_days = 4, 20_000
        r = make_returns(np.random.default_rng(5).normal(0.001, 0.02, (n, t_days)))
        cfg = PerturbationConfig(c=10.0, seed=seed)
        out = perturb_returns(r, cfg)
        assert out.returns.tobytes() == perturb_returns_per_asset(r, cfg).returns.tobytes()
        keys = _philox_keys(seed, n)
        tails = 0
        for s in range(n):
            raw, used = words_drawn(keys[s], t_days)
            assert used > t_days + 100  # wedge and tail draws read extra words
            candidates = ((raw & 0xFF) == 0) & ((raw >> 9) & (2**52 - 1) >= ZIGGURAT_KI0)
            z = np.random.Generator(philox_at(keys[s])).standard_normal(t_days)
            tails += int((np.abs(z) >= ZIGGURAT_R).sum())
            assert candidates.sum() >= (np.abs(z) >= ZIGGURAT_R).sum()
        assert tails >= 3

    def test_a_row_that_overruns_its_first_buffer_is_drawn_again(self):
        n, t_days, seed = 1000, 62, 1
        keys = _philox_keys(seed, n)
        over = [s for s in range(n) if words_drawn(keys[s], t_days)[1] > buffer_words(t_days)]
        assert over  # rows whose t_days normals need more words than first drawn
        r = make_returns(np.random.default_rng(6).normal(0.001, 0.02, (n, t_days)))
        cfg = PerturbationConfig(c=10.0, seed=seed)
        assert (perturb_returns(r, cfg).returns.tobytes()
                == perturb_returns_per_asset(r, cfg).returns.tobytes())

    @pytest.mark.parametrize("t_days", [1, 3, 62, 250])
    def test_rows_regrow_from_a_one_block_buffer(self, t_days):
        # every row outgrows 4 words, most several times over, and rejected
        # draws fall at the end of a buffer, where their words run out
        keys = _philox_keys(7, 50)
        ref = [np.random.Generator(philox_at(key)).standard_normal(t_days) for key in keys]
        assert standard_normals(keys, t_days, 4).tobytes() == np.array(ref).tobytes()

    def test_a_tail_draw_that_outruns_its_buffer_is_drawn_again(self):
        # in these rows of seed 0 the third normal is a tail draw that starts
        # at word 2, so its two uniforms, words 3 and 4, outrun one block
        keys = _philox_keys(0, 20_000)[[2520, 3849, 12805, 17542, 18424, 18862]]
        ref = []
        for key in keys:
            raw, used = words_drawn(key, 3)
            assert used == 5
            assert raw[2] & 0xFF == 0 and (raw[2] >> 9) & (2**52 - 1) >= ZIGGURAT_KI0
            ref.append(np.random.Generator(philox_at(key)).standard_normal(3))
        assert (np.abs(np.array(ref)[:, 2]) >= ZIGGURAT_R).all()
        assert standard_normals(keys, 3, 4).tobytes() == np.array(ref).tobytes()


def test_sensitivity_never_imports_numpy_random(tmp_path):
    """The perturbation computes its stream without numpy.random: neither
    `import portopt` nor a `sensitivity` run loads it, and `import portopt`
    leaves out the stream's module until a perturbation needs it."""
    script = (
        "import sys\n"
        "import portopt\n"
        "loaded = ['portopt.philox' in sys.modules, 'numpy.random' in sys.modules]\n"
        "from portopt.cli_io import main\n"
        f"code = main(['sensitivity', {str(FIXTURE_PATH)!r}, '--models', 'mad,md,md-milp',\n"
        f"             '--rho', '0.001', '--c', '1000', '--output-dir', {str(tmp_path)!r}])\n"
        "loaded.append('numpy.random' in sys.modules)\n"
        "print(code, *loaded)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # exit code 0; after `import portopt`, `philox` (loaded at the first
    # perturbation) and numpy.random; numpy.random after the run
    assert done.stdout.split()[-4:] == ["0", "False", "False", "False"]
    assert (tmp_path / "covariance_change.csv").exists()


def count_psd_checks(monkeypatch) -> list:
    """Make the estimator's Cholesky check record each matrix it checks."""
    calls = []
    is_psd = core._is_psd

    def counted(matrix):
        calls.append(matrix.shape)
        return is_psd(matrix)

    monkeypatch.setattr(core, "_is_psd", counted)
    return calls


def centered(returns):
    r = returns.returns
    return r - r.mean(axis=1, keepdims=True)


class TestCertifiedEstimates:
    """`asset_stats` computes the covariance from the centered block and
    proves it PSD by the rounding bound δ of `gram_psd_bound`."""

    @staticmethod
    def assert_certified(returns):
        stats = asset_stats(returns)
        assert stats.mean_returns.tobytes() == mean_returns(returns).tobytes()
        assert stats.covariance.tobytes() == covariance(returns).tobytes()
        assert stats.covariance.flags.c_contiguous and not stats.covariance.flags.writeable
        assert not stats.mean_returns.flags.writeable
        delta = gram_psd_bound(centered(returns))
        assert delta <= PSD_TOL
        assert np.linalg.eigvalsh(stats.covariance).min() >= -delta

    def test_fixture_windows_are_certified(self, fixture_returns, fixture_split, monkeypatch):
        calls = count_psd_checks(monkeypatch)
        for window in (*fixture_split, fixture_returns):
            self.assert_certified(window)
        assert calls == []

    @pytest.mark.parametrize("wide", [True, False], ids=["n>T", "n<T"])
    def test_random_panels_are_certified(self, wide, monkeypatch):
        calls = count_psd_checks(monkeypatch)
        rng = np.random.default_rng(41 if wide else 42)
        for _ in range(50):
            n = int(rng.integers(3, 80))
            t = int(rng.integers(2, n)) if wide else n + int(rng.integers(1, 80))
            scale = 10.0 ** rng.uniform(-4, -1)
            panel = rng.normal(0.0005, scale, (n, t))
            panel[1] = panel[0]  # a duplicated asset: Σ is singular
            self.assert_certified(make_returns(panel))
        assert calls == []

    def test_loose_bound_falls_back_to_the_cholesky_check(self, monkeypatch):
        calls = count_psd_checks(monkeypatch)
        r = make_returns(np.random.default_rng(5).uniform(0.0, 1e3, (30, 40)))
        assert gram_psd_bound(centered(r)) > PSD_TOL
        stats = asset_stats(r)
        assert calls == [(30, 30)]
        assert stats.covariance.tobytes() == covariance(r).tobytes()
        monkeypatch.setattr(core, "_is_psd", lambda matrix: False)
        with pytest.raises(DataError, match="positive semi-definite"):
            asset_stats(r)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_overflowing_product_raises_as_the_constructor_does(self):
        r = make_returns(np.array([[1e200, 3e200, 2e200], [0.0, 0.01, 0.02]]))
        with pytest.raises(DataError, match="must be finite") as parent:
            AssetStats(mean_returns(r), covariance(r))
        with pytest.raises(DataError, match="must be finite") as certified:
            asset_stats(r)
        assert str(certified.value) == str(parent.value)

    def test_from_centered_checks_shapes(self):
        with pytest.raises(DimensionError):
            AssetStats.from_centered(np.zeros(2), np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            AssetStats.from_centered(np.zeros(2), np.zeros((2, 0)))
        with pytest.raises(DimensionError):
            AssetStats.from_centered(np.zeros((2, 1)), np.zeros((2, 4)))
        with pytest.raises(DataError, match="must be finite"):
            AssetStats.from_centered(np.array([np.nan, 0.0]), np.zeros((2, 4)))


class TestCovarianceChange:
    """`covariance_change` streams the two windows' Gram products in blocks
    of T rows; its figures are the dense covariances' within rounding."""

    @staticmethod
    def dense(before, after):
        cov0, cov1 = covariance(before), covariance(after)
        diff = float(np.mean(np.abs(cov1 - cov0)))
        return diff, diff / float(np.mean(np.abs(cov0)))

    @staticmethod
    def windows(rng, n, t, shifted):
        # `shifted`: the second window is the first plus small symmetric
        # noise, as a perturbation makes it; otherwise an unrelated window
        # on another scale.
        c = rng.normal(0.0, 0.02, (n, t))
        other = (c + rng.normal(0.0, 2e-5, c.shape) if shifted
                 else rng.normal(0.0, rng.uniform(0.001, 0.05), (n, t)))
        return c, other

    def test_identity(self):
        r = make_returns(np.random.default_rng(3).normal(0.0, 0.01, (5, 4)))
        assert covariance_change(r, r) == (0.0, 0.0)

    def test_one_by_one(self):
        before = make_returns(np.array([[0.01, -0.01]]))
        after = make_returns(np.array([[0.02, -0.02]]))
        diff, rel = covariance_change(before, after)
        assert diff == pytest.approx(3e-4)
        assert rel == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(DimensionError):
            covariance_change(make_returns(rng.normal(0.0, 0.01, (2, 5))),
                              make_returns(rng.normal(0.0, 0.01, (3, 5))))
        with pytest.raises(DimensionError):
            covariance_change(make_returns(rng.normal(0.0, 0.01, (2, 5))),
                              make_returns(rng.normal(0.0, 0.01, (2, 6))))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowing_product_raises_as_asset_stats_does(self):
        # A product that overflows, and a mean that does, in either window.
        calm = make_returns(np.array([[0.01, 0.03, 0.02], [0.0, 0.01, 0.02]]))
        for huge in (1e200, 1.7e308):
            r = make_returns(np.array([[huge, 1.0, huge], [0.0, 0.01, 0.02]]))
            with pytest.raises(DataError, match="must be finite") as stats:
                asset_stats(r)
            for before, after in ((r, calm), (calm, r)):
                with pytest.raises(DataError, match="must be finite") as change:
                    covariance_change(before, after)
                assert str(change.value) == str(stats.value)

    @pytest.mark.parametrize("n, t", [(1, 2), (1, 41), (7, 3), (7, 7), (7, 47), (130, 40),
                                      (130, 130), (130, 170), (301, 40), (301, 301),
                                      (301, 341)])
    def test_matches_the_dense_covariances(self, n, t):
        # T below n streams several blocks, the last one partial where T
        # does not divide n (7 = 2·3 + 1, 130 = 3·40 + 10, 301 = 7·40 + 21).
        rng = np.random.default_rng(n + t)
        for shifted in (True, False):
            before, after = (make_returns(w) for w in self.windows(rng, n, t, shifted))
            kept = before.returns.copy(), after.returns.copy()
            got = covariance_change(before, after)
            for value, want in zip(got, self.dense(before, after)):
                assert abs(value - want) <= 1e-13 * abs(want)
            assert before.returns.tobytes() == kept[0].tobytes()
            assert after.returns.tobytes() == kept[1].tobytes()

    @pytest.mark.parametrize("n", [1, 7, 130, 301])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_temporaries_bit_for_bit(self, n, symmetric, order):
        # Where T >= n, one block holds the whole Gram product, which numpy
        # forms symmetric, so the change is the bits of the two-temporary
        # formulas on the dense covariances: the in-place sums round as the
        # temporaries do. The windows are cut from arrays of either layout,
        # after small symmetric noise or from an unrelated panel, and are
        # left unchanged.
        rng = np.random.default_rng(n)
        for _ in range(5):
            panels = self.windows(rng, n, n + 40, symmetric)
            before, after = (make_returns(np.asarray(w, order=order)) for w in panels)
            kept = before.returns.copy(), after.returns.copy()
            assert covariance_change(before, after) == self.dense(before, after)
            assert before.returns.tobytes() == kept[0].tobytes()
            assert after.returns.tobytes() == kept[1].tobytes()
