"""Property tests of the batch kernel.

``test_kernel_matches_dense_oracle`` is the suite's one comparison of the n=1
kernel with the dense pipeline at random points: the mutual information, the
Holevo bound (and that the dense one is not negative), and the rate against
``subchannel_rate`` on ``apply_op``'s outcome. Its box is what the optimizer
can ask of one supermode: every ``OpKind``, NONE included, r from 0 to
MAX_SUPERMODE_SQUEEZING and T over [T_MIN, T_MAX]; 0-30 dB, up to criterion
8's loss; noise around the defaults (excess noise up to 0.5, eta_d from 0.3,
nu up to 1.5); and eta_r over its whole range, from
MIN_RECONCILIATION_EFFICIENCY to 1, since the rate scales the information by
it. The corners of the noise box, up to MAX_EXCESS_NOISE and
MAX_DETECTOR_NOISE, where the dense path is itself less accurate (ROADMAP
item 11), are ``test_keyrate.py``'s
``test_batch_matches_scalar_at_the_noise_limits``.

The clamped total is checked to never rise with loss over a wide parameter
box.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmcvqkd.channel import (
    DEFAULT_DETECTOR_EFFICIENCY,
    DEFAULT_DETECTOR_NOISE,
    DEFAULT_EXCESS_NOISE,
    MAX_DETECTOR_NOISE,
    MAX_EXCESS_NOISE,
    MIN_DETECTION_EFFICIENCY,
    ChannelParams,
    DetectorParams,
    build_pipeline,
)
from mmcvqkd.keyrate import (
    DEFAULT_RECONCILIATION_EFFICIENCY,
    MIN_RECONCILIATION_EFFICIENCY,
    RateParams,
    holevo_bound,
    mutual_information,
    subchannel_rate,
    subchannel_rates_batch,
    total_rate_batch,
)
from mmcvqkd.operations import NonGaussianOpSpec, OpKind, apply_op
from mmcvqkd.optimize import G_MIN, MAX_SUPERMODE_SQUEEZING, T_MAX, T_MIN
from mmcvqkd.source import make_spectrum
from mmcvqkd.verification import DEFAULT_CM_TOL, DEFAULT_MI_TOL

RATE_TOL = 1e-10


@pytest.mark.parametrize("kind", list(OpKind), ids=[kind.value for kind in OpKind])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    r=st.floats(0.0, MAX_SUPERMODE_SQUEEZING),
    t=st.floats(T_MIN, T_MAX),
    loss_db=st.floats(0.0, 30.0),
    epsilon=st.floats(0.0, 0.5),
    eta_d=st.floats(0.3, 1.0),
    nu=st.floats(1.0, 1.5),
    eta_r=st.floats(MIN_RECONCILIATION_EFFICIENCY, 1.0),
)
# The default point: r = 1 through 10 dB to the default detector.
@example(
    r=1.0, t=T_MAX, loss_db=10.0, epsilon=DEFAULT_EXCESS_NOISE, eta_d=DEFAULT_DETECTOR_EFFICIENCY,
    nu=DEFAULT_DETECTOR_NOISE, eta_r=DEFAULT_RECONCILIATION_EFFICIENCY,
)
def test_kernel_matches_dense_oracle(kind, r, t, loss_db, epsilon, eta_d, nu, eta_r):
    outcome = apply_op(NonGaussianOpSpec(kind, t), r)
    cm = outcome.cm
    ch = ChannelParams.from_loss_db(loss_db, epsilon=epsilon)
    det = DetectorParams(eta_d=eta_d, nu=nu)
    rate = RateParams(eta_r=eta_r)
    pipeline = build_pipeline(cm, ch, det)
    info, chi = mutual_information(pipeline), holevo_bound(pipeline)
    assert chi >= 0.0

    outputs = subchannel_rates_batch(
        np.array([cm.a]), np.array([cm.b]), np.array([cm.c]), ch, det, rate
    )
    assert all(np.isfinite(values).all() for values in outputs)
    batch_rate, batch_info, batch_chi = (float(values[0]) for values in outputs)
    assert abs(batch_info - info) <= DEFAULT_MI_TOL
    assert abs(batch_chi - chi) <= DEFAULT_CM_TOL
    assert abs(batch_rate - subchannel_rate(outcome, ch, det, rate)) <= RATE_TOL


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
