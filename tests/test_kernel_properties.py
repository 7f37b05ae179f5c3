"""Property test: the n=1 batch kernel against the dense pipeline oracle.

Hypothesis draws points from the box the benchmark's oracle workload samples,
and every active operation is checked at each of them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcvqkd.channel import ChannelParams, DetectorParams, build_pipeline
from mmcvqkd.gaussian import TwoModeCM
from mmcvqkd.keyrate import RateParams, holevo_bound, mutual_information, subchannel_rates_batch
from mmcvqkd.operations import heralded_entries
from mmcvqkd.verification import ACTIVE_KINDS, DEFAULT_CM_TOL, DEFAULT_MI_TOL

RATE_TOL = 1e-10


@pytest.mark.parametrize("kind", ACTIVE_KINDS, ids=[kind.value for kind in ACTIVE_KINDS])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    r=st.floats(0.05, 2.0),
    t=st.floats(0.05, 0.95),
    loss_db=st.floats(0.0, 30.0),
    epsilon=st.floats(0.0, 0.2),
    eta_d=st.floats(0.5, 1.0),
    nu=st.floats(1.0, 1.5),
)
def test_kernel_matches_dense_oracle(kind, r, t, loss_db, epsilon, eta_d, nu):
    a, b, c, _ = heralded_entries(kind, math.tanh(r) ** 2, t)
    cm = TwoModeCM(float(a), float(b), float(c))
    ch = ChannelParams.from_loss_db(loss_db, epsilon=epsilon)
    det = DetectorParams(eta_d=eta_d, nu=nu)
    rate = RateParams()
    pipeline = build_pipeline(cm, ch, det)
    info, chi = mutual_information(pipeline), holevo_bound(pipeline)

    outputs = subchannel_rates_batch(
        np.array([cm.a]), np.array([cm.b]), np.array([cm.c]), ch, det, rate
    )
    assert all(np.isfinite(values).all() for values in outputs)
    batch_rate, batch_info, batch_chi = (float(values[0]) for values in outputs)
    assert abs(batch_info - info) <= DEFAULT_MI_TOL
    assert abs(batch_chi - chi) <= DEFAULT_CM_TOL
    assert abs(batch_rate - (rate.eta_r * info - chi)) <= RATE_TOL
