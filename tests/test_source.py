"""PDC source: Schmidt spectra, EPR covariance matrices, squeezing report."""

import math

import numpy as np
import pytest

from mmcvqkd import fock, source
from mmcvqkd.source import (
    MAX_K_MAX,
    SourceParams,
    SupermodeSpectrum,
    epr_cm,
    make_spectrum,
    squeezing_db,
)


class TestMakeSpectrum:
    def test_single_mode(self):
        spectrum = make_spectrum("single", 5)
        assert spectrum.lambdas == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_uniform(self):
        spectrum = make_spectrum("uniform", 5)
        np.testing.assert_allclose(spectrum.lambdas, [1 / math.sqrt(5)] * 5, atol=1e-15)

    def test_exp_decay_normalization(self):
        spectrum = make_spectrum("exp", 5, decay=2.0)
        raw = np.exp(-np.arange(5) / 2.0)
        expected = raw / np.sqrt((raw**2).sum())
        np.testing.assert_allclose(spectrum.lambdas, expected, atol=1e-15)
        assert sum(v**2 for v in spectrum.lambdas) == pytest.approx(1.0, abs=1e-12)

    def test_exp_decay_strictly_decreasing(self):
        for decay in (0.5, 1.0, 2.0, 3.0):
            spectrum = make_spectrum("exp", 6, decay)
            assert all(x > y for x, y in zip(spectrum.lambdas, spectrum.lambdas[1:]))

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError, match="empty spectrum"):
            make_spectrum("uniform", 0)

    @pytest.mark.parametrize("scenario", ["single", "uniform", "exp"])
    @pytest.mark.parametrize("k_max", [MAX_K_MAX + 1, 10**9])
    def test_k_max_ceiling(self, monkeypatch, scenario, k_max):
        def refuse(*shape, **kwargs):
            raise AssertionError(f"make_spectrum allocated {shape}")
        for name in ("zeros", "full", "arange"):
            monkeypatch.setattr(source.np, name, refuse)
        with pytest.raises(ValueError, match=f"k_max = {k_max} exceeds MAX_K_MAX = 10000"):
            make_spectrum(scenario, k_max)

    def test_largest_k_max_builds(self):
        assert make_spectrum("exp", MAX_K_MAX).k_max == MAX_K_MAX

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            SupermodeSpectrum((0.9, 0.1))
        with pytest.raises(ValueError, match="lambda"):
            SupermodeSpectrum((float("nan"), 0.1))
        with pytest.raises(ValueError, match="decay"):
            make_spectrum("exp", 5, float("nan"))

    def test_subnormal_decay_is_named(self):
        # -arange(k_max) / decay would overflow: a numpy warning, then all weight on mode 1.
        with pytest.raises(ValueError, match="decay"):
            make_spectrum("exp", 5, 1e-320)
        assert make_spectrum("exp", 1, 1e-320).lambdas == (1.0,)

    def test_increasing_coefficients_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            SupermodeSpectrum((0.1, np.sqrt(1 - 0.01)))


class TestEprCM:
    def test_vacuum_at_zero_squeezing(self):
        cm = epr_cm(0.0)
        assert (cm.a, cm.b, cm.c) == (1.0, 1.0, 0.0)

    def test_variance_twenty_correlation(self):
        # a = 20 with unit determinant forces c = sqrt(20^2 - 1)
        r = math.acosh(20.0) / 2.0
        cm = epr_cm(r)
        assert cm.a == pytest.approx(20.0, abs=1e-12)
        assert cm.c == pytest.approx(math.sqrt(20.0**2 - 1.0), abs=1e-9)
        assert cm.a * cm.b - cm.c**2 == pytest.approx(1.0, abs=1e-9)

    def test_matches_fock_oracle(self):
        oracle = fock.extract_cm(fock.build_tmsv(1.2))
        closed = epr_cm(1.2)
        assert oracle.a == pytest.approx(closed.a, abs=1e-8)
        assert oracle.b == pytest.approx(closed.b, abs=1e-8)
        assert oracle.c == pytest.approx(closed.c, abs=1e-8)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError, match="negative squeezing"):
            epr_cm(-0.1)

    def test_pipeline_cms_pure_for_all_scenarios(self):
        for scenario in ("single", "exp", "uniform"):
            spectrum = make_spectrum(scenario, 5)
            for gain in (0.0, 0.7, 2.0):
                source = SourceParams(gain, spectrum)
                for r in source.squeezings():
                    cm = epr_cm(r)
                    assert cm.a * cm.b - cm.c**2 == pytest.approx(1.0, abs=1e-9)

    def test_single_mode_source_has_vacuum_tail(self):
        source = SourceParams(1.5, make_spectrum("single", 5))
        squeezings = source.squeezings()
        assert squeezings[0] == pytest.approx(1.5)
        assert all(r == 0.0 for r in squeezings[1:])


class TestSqueezingDb:
    def test_zero(self):
        assert squeezing_db(0.0) == 0.0

    def test_variance_twenty_is_about_16db(self):
        r = math.acosh(20.0) / 2.0
        assert squeezing_db(r) == pytest.approx(16.0, abs=0.3)

    def test_direct_formula_at_one(self):
        assert squeezing_db(1.0) == pytest.approx(20.0 / math.log(10.0), abs=1e-12)

    def test_monotone(self):
        values = [squeezing_db(r) for r in np.linspace(0, 2.5, 30)]
        assert all(x < y for x, y in zip(values, values[1:]))
