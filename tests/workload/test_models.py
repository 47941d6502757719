"""Statistical property tests for the workload generators.

Every test runs at a fixed seed, so the checks are deterministic — but
the tolerances are still chosen as honest statistical bounds (3-4 sigma
or a named critical value), not tuned-to-pass magic: a generator bug that
shifts the distribution fails them, a re-seeded run would pass them with
overwhelming probability.
"""

import itertools
import math

import pytest

from repro.sim.rng import SeededRNG
from repro.workload import (
    FlashCrowdArrivals,
    PoissonArrivals,
    ScanPopularity,
    SpikeWindow,
    ZipfPopularity,
    make_catalog,
)


def take_until(process, rng, horizon_s):
    """All arrival times strictly inside [0, horizon_s)."""
    return list(itertools.takewhile(lambda t: t < horizon_s, process.times(rng)))


def take_n(process, rng, n):
    return list(itertools.islice(process.times(rng), n))


# ------------------------------------------------------------------ popularity


class TestZipfStatistics:
    def test_chi_square_matches_the_analytic_distribution(self):
        """Empirical Zipf(1.0) frequencies over a 50-name catalog pass a
        chi-square goodness-of-fit test at the ~4-sigma critical value."""
        catalog_size, draws = 50, 30_000
        model = ZipfPopularity(alpha=1.0, catalog=make_catalog(catalog_size))
        rng = SeededRNG(1001)
        counts = dict.fromkeys(model.catalog, 0)
        for _ in range(draws):
            counts[model.next_name(rng)] += 1
        weights = [(k + 1) ** -1.0 for k in range(catalog_size)]
        total_weight = sum(weights)
        chi2 = 0.0
        for k, name in enumerate(model.catalog):
            expected = draws * weights[k] / total_weight
            chi2 += (counts[name] - expected) ** 2 / expected
        df = catalog_size - 1
        # Normal approximation to the chi-square upper tail at ~4 sigma:
        # mean df, variance 2*df.  For df=49 this is ~88.6.
        critical = df + 4.0 * math.sqrt(2.0 * df)
        assert chi2 < critical, f"chi2={chi2:.1f} >= critical {critical:.1f}"

    @pytest.mark.parametrize("alpha", [0.8, 1.2])
    def test_log_log_slope_recovers_alpha(self, alpha):
        """A log-log regression of frequency against rank over the head of
        the catalog recovers the configured exponent within 0.1."""
        catalog_size, draws, head = 100, 60_000, 30
        model = ZipfPopularity(alpha=alpha, catalog=make_catalog(catalog_size))
        rng = SeededRNG(2002)
        counts = dict.fromkeys(model.catalog, 0)
        for _ in range(draws):
            counts[model.next_name(rng)] += 1
        xs = [math.log(k + 1) for k in range(head)]
        ys = [math.log(counts[model.catalog[k]]) for k in range(head)]
        mean_x, mean_y = sum(xs) / head, sum(ys) / head
        slope = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        ) / sum((x - mean_x) ** 2 for x in xs)
        assert slope == pytest.approx(-alpha, abs=0.1), (
            f"fitted exponent {-slope:.3f} vs configured {alpha}"
        )

    def test_rank_order_is_popularity_order(self):
        model = ZipfPopularity(alpha=1.2, catalog=make_catalog(20))
        rng = SeededRNG(3003)
        counts = dict.fromkeys(model.catalog, 0)
        for _ in range(20_000):
            counts[model.next_name(rng)] += 1
        # The head dominates and the top rank is the most frequent.
        assert counts[model.catalog[0]] == max(counts.values())
        head_share = sum(counts[name] for name in model.catalog[:5]) / 20_000
        assert head_share > 0.5

    def test_alpha_zero_is_uniform(self):
        model = ZipfPopularity(alpha=0.0, catalog=make_catalog(10))
        rng = SeededRNG(4004)
        counts = dict.fromkeys(model.catalog, 0)
        draws = 20_000
        for _ in range(draws):
            counts[model.next_name(rng)] += 1
        expected = draws / 10
        for name, count in counts.items():
            # 4 sigma on a binomial(n, 1/10) count.
            assert abs(count - expected) < 4.0 * math.sqrt(expected * 0.9), name


class TestOtherPopularityModels:
    def test_scan_never_repeats_and_consumes_no_entropy(self):
        model = ScanPopularity(tenants=["/a", "/b"])
        rng = SeededRNG(6006)
        probe_before = SeededRNG(6006).uniform(0, 1)
        names = [model.next_name(rng) for _ in range(1000)]
        assert len(set(names)) == 1000
        # The scan drew nothing: the rng's default stream is untouched.
        assert rng.uniform(0, 1) == probe_before

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ZipfPopularity(alpha=-0.1)
        with pytest.raises(ValueError):
            ZipfPopularity(alpha=1.0, catalog=[])
        with pytest.raises(ValueError):
            make_catalog(0)


# -------------------------------------------------------------------- arrivals


class TestPoissonArrivals:
    def test_inter_arrival_gaps_pass_a_ks_test_against_exponential(self):
        """Kolmogorov-Smirnov against Exp(rate), alpha = 0.001."""
        rate, n = 40.0, 5000
        times = take_n(PoissonArrivals(rate), SeededRNG(111), n)
        gaps = sorted(
            t - prev for prev, t in zip([0.0] + times[:-1], times)
        )
        d_stat = 0.0
        for i, gap in enumerate(gaps):
            cdf = 1.0 - math.exp(-rate * gap)
            d_stat = max(d_stat, abs(cdf - i / n), abs(cdf - (i + 1) / n))
        critical = 1.95 / math.sqrt(n)  # K-S critical value at alpha=0.001
        assert d_stat < critical, f"KS D={d_stat:.4f} >= {critical:.4f}"

    def test_mean_rate_is_respected(self):
        rate, horizon = 100.0, 50.0
        count = len(take_until(PoissonArrivals(rate), SeededRNG(222), horizon))
        expected = rate * horizon
        assert abs(count - expected) < 4.0 * math.sqrt(expected)

    def test_times_are_strictly_increasing(self):
        times = take_n(PoissonArrivals(10.0), SeededRNG(333), 500)
        assert all(a < b for a, b in zip(times, times[1:]))


class TestFlashCrowdArrivals:
    def test_spikes_land_where_scheduled(self):
        base, mult = 50.0, 10.0
        spike = SpikeWindow(start_s=10.0, duration_s=2.0, multiplier=mult)
        process = FlashCrowdArrivals(base, [spike])
        times = take_until(process, SeededRNG(777), 30.0)
        in_spike = [t for t in times if spike.covers(t)]
        outside = [t for t in times if not spike.covers(t)]
        # Rates: spike window expects base*mult*duration = 1000 arrivals,
        # the remaining 28s expect base*28 = 1400.  4-sigma tolerances.
        assert abs(len(in_spike) - 1000) < 4.0 * math.sqrt(1000)
        assert abs(len(outside) - 1400) < 4.0 * math.sqrt(1400)
        # The spike engages promptly: an arrival within its first 1% —
        # P(no arrival in 20ms at 500/s) = e^-10.
        assert min(in_spike) < spike.start_s + 0.02
        assert max(in_spike) < spike.end_s

    def test_overlapping_spikes_take_the_max_multiplier(self):
        process = FlashCrowdArrivals(
            10.0,
            [SpikeWindow(0.0, 10.0, 3.0), SpikeWindow(5.0, 10.0, 6.0)],
        )
        assert process.rate(7.0) == 60.0
        assert process.rate(2.0) == 30.0
        assert process.rate(12.0) == 60.0
        assert process.rate(20.0) == 10.0


class TestArrivalValidation:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            SpikeWindow(0.0, 1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            FlashCrowdArrivals(10.0, [])


#: Constructors given one nan or inf.  Each was accepted before: a nan
#: flash-crowd rate made ``times()`` spin forever (thinning accepts no
#: candidate), a nan Poisson rate yielded nan times and an infinite one
#: yielded 0.0 forever.
NON_FINITE = {
    "poisson-nan": lambda: PoissonArrivals(math.nan),
    "poisson-inf": lambda: PoissonArrivals(math.inf),
    "flash-crowd-nan": lambda: FlashCrowdArrivals(math.nan, [SpikeWindow(1.0, 1.0, 2.0)]),
    "flash-crowd-inf": lambda: FlashCrowdArrivals(math.inf, [SpikeWindow(1.0, 1.0, 2.0)]),
    "spike-start-nan": lambda: SpikeWindow(math.nan, 1.0, 2.0),
    "spike-duration-inf": lambda: SpikeWindow(0.0, math.inf, 2.0),
    "spike-multiplier-nan": lambda: SpikeWindow(0.0, 1.0, math.nan),
    "spike-multiplier-inf": lambda: SpikeWindow(0.0, 1.0, math.inf),
    "zipf-alpha-nan": lambda: ZipfPopularity(alpha=math.nan),
    "zipf-alpha-inf": lambda: ZipfPopularity(alpha=math.inf),
}


@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_parameters_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()
