"""Property tests of the batch kernel.

The n=1 kernel is checked against the dense pipeline oracle at points from the
box the benchmark's oracle workload samples, for every active operation. The
clamped total is checked to never rise with loss over a wide parameter box.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcvqkd.channel import (
    MAX_DETECTOR_NOISE,
    MAX_EXCESS_NOISE,
    MIN_DETECTION_EFFICIENCY,
    ChannelParams,
    DetectorParams,
    build_pipeline,
)
from mmcvqkd.gaussian import TwoModeCM
from mmcvqkd.keyrate import (
    MIN_RECONCILIATION_EFFICIENCY,
    RateParams,
    holevo_bound,
    mutual_information,
    subchannel_rates_batch,
    total_rate_batch,
)
from mmcvqkd.operations import OpKind, heralded_entries
from mmcvqkd.optimize import G_MIN, MAX_SUPERMODE_SQUEEZING, T_MAX, T_MIN
from mmcvqkd.source import make_spectrum
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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    scenario=st.sampled_from(["exp", "uniform", "single"]),
    kind=st.sampled_from(list(OpKind)),
    k_sel=st.integers(1, 3),
    memory=st.booleans(),
    g_fraction=st.floats(0.0, 1.0),
    ts=st.lists(st.floats(T_MIN, T_MAX), min_size=3, max_size=3),
    losses_db=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=2),
    epsilon=st.floats(0.0, MAX_EXCESS_NOISE),
    nu=st.floats(1.0, MAX_DETECTOR_NOISE),
    eta_d=st.floats(MIN_DETECTION_EFFICIENCY, 1.0),
    eta_r=st.floats(MIN_RECONCILIATION_EFFICIENCY, 1.0),
)
def test_clamped_total_never_rises_with_loss(
    scenario, kind, k_sel, memory, g_fraction, ts, losses_db, epsilon, nu, eta_d, eta_r
):
    """At a fixed (G, T), the clamped total never rises with loss.

    The box: every spectrum and op, G up to the gain cap, each T over
    [T_MIN, T_MAX], 0-40 dB, excess and detector noise up to their ceilings,
    and eta_d and eta_r from their floors, MIN_DETECTION_EFFICIENCY and
    MIN_RECONCILIATION_EFFICIENCY, to 1. Only the clamped total
    (f(R) = max(R, 0)) has the property: without the clamp, a negative
    sub-channel rate climbs toward 0 as loss grows, so the literal sum can
    rise. Far below the floors, eta_r * I and chi can be so small and so
    close that chi's rounding error (a difference of entropies of several
    bits) decides the sign of a rate, and the clamped total rises with loss.
    At eta_d = 1e-12 (exp, NONE at the gain cap, eps = 1, nu = 7, eta_r = 1,
    no memory) it reads 6.7e-14 at 0 dB and 1.7e-13 at 1 dB; at
    eta_r = 0.0117 (single, 1-PC at G_MIN, T = 0.375, eps = 0, nu = 38,
    eta_d = 0.125, no memory) it reads 0 at 2 dB and 1.2e-13 at 24 dB.
    """
    spectrum = make_spectrum(scenario)
    if kind is OpKind.NONE:
        k_sel = 0
    elif scenario == "single":
        k_sel = 1
    gain = G_MIN + g_fraction * (MAX_SUPERMODE_SQUEEZING / max(spectrum.lambdas) - G_MIN)
    det = DetectorParams(eta_d=eta_d, nu=nu)
    rate = RateParams(eta_r=eta_r, memory=memory)
    totals = [
        float(total_rate_batch(
            spectrum.lambdas, kind, np.array([gain]), tuple(np.array([t]) for t in ts[:k_sel]),
            ChannelParams.from_loss_db(loss_db, epsilon=epsilon), det, rate,
        )[0])
        for loss_db in sorted(losses_db)
    ]
    assert totals[1] <= totals[0]
