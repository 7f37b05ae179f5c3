"""Covariance-matrix primitives: symplectic spectra, entropy, conditioning."""

import math

import numpy as np
import pytest

from mmcvqkd.gaussian import (
    GeneralCM,
    TwoModeCM,
    UnphysicalStateError,
    entropy_g,
    homodyne_condition,
    symplectic_eigenvalues,
    symplectic_form,
)
from mmcvqkd.channel import ChannelParams, DetectorParams, build_pipeline
from mmcvqkd.source import epr_cm

from conftest import complex_symplectic_eigenvalues


class TestSymplecticEigenvalues:
    def test_vacuum_spectrum_is_unity(self):
        for n in (1, 2, 3, 5):
            values = symplectic_eigenvalues(GeneralCM(np.eye(2 * n)))
            np.testing.assert_allclose(values, np.ones(n), atol=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5])
    def test_epr_state_is_pure(self, r):
        values = symplectic_eigenvalues(epr_cm(r))
        np.testing.assert_allclose(values, [1.0, 1.0], atol=1e-9)

    def test_closed_form_matches_generic_route(self):
        cm = TwoModeCM(a=3.0, b=3.0, c=2.0)
        closed = np.sort(cm.symplectic_eigenvalues())
        generic = np.sort(symplectic_eigenvalues(cm))
        # Delta = 10, det block = 5 -> doubly degenerate sqrt(5).
        np.testing.assert_allclose(closed, [np.sqrt(5.0)] * 2, atol=1e-12)
        np.testing.assert_allclose(closed, generic, atol=1e-10)

    def test_closed_form_matches_complex_route_random(self, rng):
        for _ in range(50):
            r = rng.uniform(0.0, 2.0)
            cm = epr_cm(r)
            noisy = TwoModeCM(cm.a + rng.uniform(0, 0.5), cm.b + rng.uniform(0, 0.5), cm.c)
            generic = np.sort(symplectic_eigenvalues(noisy))
            reference = np.sort(complex_symplectic_eigenvalues(noisy.matrix()))
            np.testing.assert_allclose(generic, reference, atol=1e-10)

    def test_rejects_non_symmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            symplectic_eigenvalues(bad)

    def test_rejects_non_positive_definite(self):
        bad = np.diag([1.0, 1.0, -0.5, 1.0])
        with pytest.raises(UnphysicalStateError) as excinfo:
            symplectic_eigenvalues(bad)
        assert excinfo.value.min_eigenvalue == pytest.approx(-0.5)

    def test_two_mode_constructor_rejects_below_vacuum(self):
        with pytest.raises(UnphysicalStateError):
            TwoModeCM(a=0.5, b=1.0, c=0.0)
        with pytest.raises(UnphysicalStateError):
            TwoModeCM(a=2.0, b=2.0, c=2.5)  # breaks the uncertainty bound


    def test_symplectic_form_is_built_once_and_read_only(self):
        omega = symplectic_form(2)
        np.testing.assert_array_equal(
            omega, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        )
        assert symplectic_form(2) is omega
        with pytest.raises(ValueError, match="read-only"):
            omega[0, 1] = 2.0

    @pytest.mark.parametrize("c", [1.5, -1.5, 0.0])
    def test_two_mode_matrix_is_the_block_form(self, c):
        cm = TwoModeCM(a=3.0, b=2.0, c=c)
        i2, z2 = np.eye(2), np.diag([1.0, -1.0])
        reference = np.block([[cm.a * i2, cm.c * z2], [cm.c * z2, cm.b * i2]])
        # bit for bit, the signs of the zeros included
        assert cm.matrix().tobytes() == reference.tobytes()


class TestEntropyG:
    def test_pure_state_has_zero_entropy(self):
        assert entropy_g(1.0) == 0.0

    def test_exact_value_at_three(self):
        # ((3+1)/2) log2(2) - ((3-1)/2) log2(1) = 2
        assert entropy_g(3.0) == pytest.approx(2.0, abs=1e-14)

    def test_value_at_1p5_matches_high_precision_reference(self):
        # 1.25*log2(1.25) + 0.5, evaluated independently to full precision
        assert entropy_g(1.5) == pytest.approx(0.9024101186092029, abs=1e-15)

    def test_clamps_rounding_noise_below_one(self):
        assert entropy_g(1.0 - 1e-10) == 0.0

    def test_rejects_unphysical_argument(self):
        with pytest.raises(UnphysicalStateError):
            entropy_g(0.9)

    def test_nan_passes_through_but_hides_no_unphysical_value(self):
        assert math.isnan(entropy_g(math.nan))
        values = entropy_g(np.array([math.nan, 1.0 - 1e-10, 3.0]))
        assert math.isnan(values[0]) and values[1] == 0.0
        with pytest.raises(UnphysicalStateError):
            entropy_g(np.array([math.nan, 0.9]))

    def test_monotone_increasing(self):
        grid = np.linspace(1.001, 20.0, 100)
        values = entropy_g(grid)
        assert np.all(np.diff(values) > 0.0)

    def test_array_input(self):
        values = entropy_g(np.array([1.0, 3.0]))
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-12)


class TestHomodyneCondition:
    def test_product_state_unchanged(self):
        block = np.diag([2.0, 2.0, 3.0, 3.0, 1.5, 1.5])
        conditioned = homodyne_condition(GeneralCM(block), measured_mode=2, quadrature="x")
        np.testing.assert_allclose(conditioned.entries, block[:4, :4], atol=1e-14)

    def test_epr_conditional_variance_is_schur_complement(self):
        r = 1.0
        cm = epr_cm(r)
        conditioned = homodyne_condition(cm.to_general(), measured_mode=1, quadrature="x")
        # a - c^2/b = 1/cosh(2r) for a pure EPR pair
        assert conditioned.entries[0, 0] == pytest.approx(1.0 / np.cosh(2 * r), abs=1e-12)
        assert conditioned.entries[1, 1] == pytest.approx(np.cosh(2 * r), abs=1e-12)

    def test_quadrature_symmetry_on_pipeline_states(self, rng):
        for _ in range(25):
            cm = epr_cm(rng.uniform(0.1, 2.0))
            ch = ChannelParams(eta_e=rng.uniform(0.01, 1.0), epsilon=rng.uniform(0.0, 0.3))
            det = DetectorParams(eta_d=rng.uniform(0.3, 1.0), nu=rng.uniform(1.0, 1.3))
            pre = build_pipeline(cm, ch, det).pre_measurement
            spec_x = symplectic_eigenvalues(homodyne_condition(pre, 3, "x"))
            spec_p = symplectic_eigenvalues(homodyne_condition(pre, 3, "p"))
            np.testing.assert_allclose(spec_x, spec_p, atol=1e-9)

    def test_conditional_output_stays_physical(self, rng):
        for _ in range(25):
            cm = epr_cm(rng.uniform(0.0, 2.4))
            ch = ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5))
            det = DetectorParams(eta_d=rng.uniform(0.2, 1.0), nu=rng.uniform(1.0, 1.5))
            conditional = build_pipeline(cm, ch, det).conditional
            assert symplectic_eigenvalues(conditional).min() >= 1.0 - 1e-6

    def test_degenerate_variance_rejected(self):
        degenerate = np.zeros((4, 4))
        degenerate[0, 0] = degenerate[1, 1] = 1.0
        with pytest.raises(ValueError, match="degenerate measurement variance"):
            homodyne_condition(GeneralCM(degenerate), measured_mode=1, quadrature="x")

    def test_invalid_quadrature_rejected(self):
        with pytest.raises(ValueError, match="quadrature"):
            homodyne_condition(epr_cm(1.0).to_general(), 1, "y")
