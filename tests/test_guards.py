"""Input guards in ``src/`` that no end-to-end path reaches: each input is
refused with the error and message its guard names."""

import math

import numpy as np
import pytest

from mmcvqkd.channel import PipelineCMs
from mmcvqkd.fock import FockState, extract_cm
from mmcvqkd.gaussian import GeneralCM, TwoModeCM, homodyne_condition, symplectic_eigenvalues
from mmcvqkd.keyrate import mutual_information
from mmcvqkd.operations import NonGaussianOpSpec, OpKind, OpOutcome, apply_op
from mmcvqkd.source import SupermodeSpectrum, squeezing_db

# (|0,1> + |1,0>)/sqrt(2): zero first moments, but <a^dag b> = 1/2 couples the
# modes outside the (a*I, b*I, c*Z) blocks.
ONE_SHARED_PHOTON = np.array([[0.0, 1.0], [1.0, 0.0]]) / math.sqrt(2.0)
# Positive definite, with eigenvalues from about 1e-12 to 1e12: the moduli of
# Omega @ S lose their +-i*nu pairing to rounding.
ILL_CONDITIONED = np.array([[1e-6, 0, 0, 0], [0, 1, 1e6, 0], [0, 0, 1, 1e6], [0, 0, 0, 1]])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: FockState(np.zeros(3)), ValueError,
                 "amplitudes must be a 2-d array", id="fock-amplitudes-1d"),
    pytest.param(lambda: extract_cm(FockState(ONE_SHARED_PHOTON)), ValueError,
                 r"state lacks the expected block structure \(dev 1\.000e\+00\)", id="fock-structure"),
    pytest.param(lambda: GeneralCM(np.eye(3)), ValueError,
                 r"must be square and even-sized, got \(3, 3\)", id="gaussian-odd-size"),
    pytest.param(lambda: symplectic_eigenvalues(ILL_CONDITIONED @ ILL_CONDITIONED.T), ArithmeticError,
                 "failed to pair the", id="gaussian-pairing"),
    pytest.param(lambda: homodyne_condition(GeneralCM(np.eye(4)), 2), ValueError,
                 "measured mode 2 out of range for 2 modes", id="gaussian-measured-mode"),
    pytest.param(lambda: mutual_information(PipelineCMs(
        TwoModeCM(1.0, 1.0, 0.0), GeneralCM(np.eye(8)), GeneralCM(np.diag([0.0, 1, 1, 1, 1, 1])),
    )), ValueError, "unphysical pipeline: conditional variance 0.0", id="keyrate-conditional-variance"),
    pytest.param(lambda: OpOutcome(TwoModeCM(1.0, 1.0, 0.0), 1.5), ValueError,
                 r"probability 1.5 outside \[0, 1\]", id="operations-probability"),
    pytest.param(lambda: apply_op(NonGaussianOpSpec(OpKind.PS1, 0.5), -0.1), ValueError,
                 "negative squeezing -0.1", id="operations-squeezing"),
    pytest.param(lambda: SupermodeSpectrum(()), ValueError, "empty spectrum", id="source-empty"),
    pytest.param(lambda: SupermodeSpectrum((1.0, -0.1)), ValueError,
                 "Schmidt coefficients must be nonnegative", id="source-negative"),
    pytest.param(lambda: squeezing_db(-1.0), ValueError, "negative squeezing -1.0", id="source-squeezing-db"),
])
def test_guard_names_its_input(call, error, message):
    with pytest.raises(error, match=message):
        call()
