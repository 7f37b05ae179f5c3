"""End-to-end acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 5-7 compare optimizer outputs; "within the band" means
x <= y + 1e-3*|y| + 1e-9, absorbing optimizer resolution. They are exercised
under both totals conventions (discarding loss-making supermodes and the
literal sum) and must agree qualitatively under both. Criterion 8 uses the
same band on both sides, |x - y| <= 1e-3*|y| + 1e-9, to hold the batch
kernel and the optimizer to predictions from the dense scalar path.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from mmcvqkd import cli, verification
from mmcvqkd.channel import ChannelParams, DetectorParams, build_pipeline
from mmcvqkd.gaussian import TwoModeCM, entropy_g, symplectic_eigenvalues
from mmcvqkd.keyrate import RateParams, subchannel_rate, total_rate, total_rate_batch
from mmcvqkd.operations import (
    NonGaussianOpSpec,
    OpKind,
    OpOutcome,
    apply_to_supermodes,
    heralded_entries,
)
from mmcvqkd.optimize import T_MAX, T_MIN, OptimizationProblem, optimize
from mmcvqkd.source import SourceParams, epr_cm, make_spectrum

ACTIVE_OPS = ("1ps", "1pa", "1pc", "0pc")
LOSS_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)
DET = DetectorParams()
RATE = RateParams()


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")


def _upper_band(value: float) -> float:
    return value + 1e-3 * abs(value) + 1e-9


def _within_band(value: float, reference: float) -> bool:
    return abs(value - reference) <= 1e-3 * abs(reference) + 1e-9


@lru_cache(maxsize=None)
def _optimized(scenario: str, decay: float, op: str, k_sel: int, loss_db: float, clamp: bool):
    problem = OptimizationProblem(
        spectrum=make_spectrum(scenario, 5, decay),
        op_kind=OpKind(op),
        k_sel=k_sel,
        channel=ChannelParams.from_loss_db(loss_db),
        detector=DET,
        rate=RATE,
        clamp=clamp,
    )
    result = optimize(problem)
    return result.best_rate, result.best_g, result.best_t


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    results = verification.check_heralded_ops()
    elapsed = time.monotonic() - started
    # The worst deviation of each kind, for the report; np.max keeps a NaN.
    worst_cm, worst_prob = (
        float(np.max([r.max_deviation for r in results if r.name.startswith(prefix)]))
        for prefix in ("heralded-cm-", "heralded-prob-")
    )
    failures = [result.report_line() for result in results if not result.passed]
    passed = not failures and elapsed < 60.0
    _report(1, passed, f"CM dev {worst_cm:.2e} (tol {verification.DEFAULT_CM_TOL:.0e}), "
                       f"prob dev {worst_prob:.2e} (tol {verification.DEFAULT_PROB_TOL:.0e}), "
                       f"runtime {elapsed:.1f}s (< 60s)")
    assert not failures
    assert elapsed < 60.0


def test_criterion_02_zero_catalysis_noiseless():
    r_grid = np.linspace(1.5 / 20, 1.5, 20)
    t_grid = np.linspace(0.05, 0.95, 20)
    deviations = []
    for r in r_grid:
        a, b, c, _ = heralded_entries(OpKind.PC0, math.tanh(r) ** 2, t_grid)
        deviations.append(np.abs((a * b - c**2) ** 2 - 1.0))
    worst = float(np.max(deviations))  # np.max keeps a NaN, which fails the bound
    passed = worst <= 1e-10
    _report(2, passed, f"max |det - 1| = {worst:.2e} on 20x20 grid (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_03_dual_path_mutual_information():
    result = verification.check_mutual_information(mi_tol=1e-12, draws=1000)
    _report(3, result.passed, f"max deviation {result.max_deviation:.2e} over 1000 draws (tol 1e-12)")
    assert result.passed


def test_criterion_04_physicality_suite():
    # Each worst case is a numpy reduction, which keeps a NaN (Python's
    # max/min can drop one); a NaN then fails its bound.
    # pure EPR states have unit symplectic spectrum
    worst_purity = float(np.max([
        np.abs(symplectic_eigenvalues(epr_cm(r)) - 1.0) for r in np.linspace(0.0, 2.5, 26)
    ]))

    # every pipeline CM stays physical; chi never dips below -1e-9 pre-clamp
    rng = np.random.default_rng(4242)
    nus = []
    chis = []
    for _ in range(200):
        kind = OpKind(rng.choice([k.value for k in OpKind]))
        a, b, c, _ = heralded_entries(
            kind, math.tanh(rng.uniform(0.0, 2.4)) ** 2, rng.uniform(0.05, 0.95)
        )
        ch = ChannelParams(eta_e=rng.uniform(0.001, 1.0), epsilon=rng.uniform(0.0, 0.5))
        det = DetectorParams(eta_d=rng.uniform(0.2, 1.0), nu=rng.uniform(1.0, 1.5))
        pipeline = build_pipeline(TwoModeCM(float(a), float(b), float(c)), ch, det)
        for cm in (pipeline.pre_measurement, pipeline.conditional):
            nus.append(symplectic_eigenvalues(cm).min())
        chis.append(
            np.sum(entropy_g(symplectic_eigenvalues(pipeline.after_channel)))
            - np.sum(entropy_g(symplectic_eigenvalues(pipeline.conditional)))
        )
    worst_nu = float(np.min(nus))
    worst_chi = float(np.min(chis))

    ideal = build_pipeline(
        epr_cm(1.0), ChannelParams(eta_e=1.0, epsilon=0.0), DetectorParams(eta_d=1.0, nu=1.0)
    )
    lossless_chi = float(
        np.sum(entropy_g(symplectic_eigenvalues(ideal.after_channel)))
        - np.sum(entropy_g(symplectic_eigenvalues(ideal.conditional)))
    )

    passed = (
        worst_purity <= 1e-9
        and worst_nu >= 1.0 - 1e-6
        and worst_chi >= -1e-9
        and abs(lossless_chi) <= 1e-9
    )
    _report(4, passed, f"EPR purity dev {worst_purity:.1e} (tol 1e-9); min nu {worst_nu:.12f} "
                       f"(>= 1-1e-6); min raw chi {worst_chi:.2e} (>= -1e-9); "
                       f"lossless chi {lossless_chi:.2e} (tol 1e-9)")
    assert worst_purity <= 1e-9
    assert worst_nu >= 1.0 - 1e-6
    assert worst_chi >= -1e-9
    assert abs(lossless_chi) <= 1e-9


def test_criterion_05_single_mode_no_gain():
    failures = []
    for clamp in (True, False):
        for loss in LOSS_GRID_DB:
            none_rate = _optimized("single", 2.0, "none", 0, loss, clamp)[0]
            for op in ACTIVE_OPS:
                op_rate = _optimized("single", 2.0, op, 1, loss, clamp)[0]
                if op_rate > _upper_band(none_rate):
                    failures.append((clamp, loss, op, op_rate, none_rate))
    _report(5, not failures,
            f"no operation beats the no-op optimum on the single-mode source over "
            f"{len(LOSS_GRID_DB)} loss points x 4 ops x both totals conventions"
            + (f"; violations: {failures}" if failures else ""))
    assert not failures


def test_criterion_06_multimode_gain():
    failures = []
    improvements = []
    for clamp in (True, False):
        for decay in (1.0, 2.0, 3.0):
            none_rate = _optimized("exp", decay, "none", 0, 30.0, clamp)[0]
            for k_sel in (1, 2, 3):
                pc0 = _optimized("exp", decay, "0pc", k_sel, 30.0, clamp)[0]
                ps1 = _optimized("exp", decay, "1ps", k_sel, 30.0, clamp)[0]
                pa1 = _optimized("exp", decay, "1pa", k_sel, 30.0, clamp)[0]
                if not pc0 > none_rate:
                    failures.append(("0pc>none", clamp, decay, k_sel, pc0, none_rate))
                if pc0 < ps1 - 1e-3 * abs(ps1) - 1e-9:
                    failures.append(("0pc>=1ps", clamp, decay, k_sel, pc0, ps1))
                if ps1 < pa1 - 1e-3 * abs(pa1) - 1e-9:
                    failures.append(("1ps>=1pa", clamp, decay, k_sel, ps1, pa1))
                if clamp:
                    improvements.append(pc0 / none_rate if none_rate > 0 else math.inf)
    detail = (f"0-PC beats no-op at 30 dB for decay in (1,2,3), k_sel in (1,2,3), both "
              f"conventions; 0-PC >= 1-PS >= 1-PA throughout; "
              f"0-PC/no-op gain {min(improvements):.2f}x..{max(improvements):.2f}x")
    _report(6, not failures, detail + (f"; violations: {failures}" if failures else ""))
    assert not failures


def test_criterion_07_uniform_spectrum_null_result():
    failures = []
    for clamp in (True, False):
        for loss in LOSS_GRID_DB:
            none_rate = _optimized("uniform", 2.0, "none", 0, loss, clamp)[0]
            for op in ACTIVE_OPS:
                op_rate = _optimized("uniform", 2.0, op, 1, loss, clamp)[0]
                if op_rate > _upper_band(none_rate):
                    failures.append((clamp, loss, op, op_rate, none_rate))
    _report(7, not failures,
            "no operation improves the uniform-spectrum optimum beyond the 1e-3 band"
            + (f"; violations: {failures}" if failures else ""))
    assert not failures


def _dense_rate_scan(ch: ChannelParams, r_max: float, step: float = 1e-3):
    """Untouched-EPR sub-channel rates on an r grid, from the dense scalar path."""
    r_grid = np.arange(0.0, r_max + 0.5 * step, step)
    rates = np.array([
        subchannel_rate(OpOutcome(cm=epr_cm(float(r)), probability=1.0), ch, DET, RATE)
        for r in r_grid
    ])
    return r_grid, rates


def test_criterion_08_order_of_magnitude_vs_single_mode():
    """Multi-mode advantage over an equal-budget single-mode source at 30 dB.

    The single-mode source is pinned to the gain the multi-mode optimum
    spends (equal total squeezing budget, G^2 = sum of r_k^2) and may tune
    any one operation's transmissivity. The ratio of the two optima can
    never exceed k_max: the clamped total with memory is a sum of
    max(R_k, 0) over independent sub-channels, no operation beats the
    Gaussian per-channel optimum R* on a single mode (criterion 5), and 0-PC
    maps tanh r to sqrt(T) tanh r while keeping the state pure (criterion 2),
    so the pinned single-mode source reaches R* exactly. Asserted, with
    R*(x) the best dense-path rate of an untouched EPR pair at r <= x:

    (a) the single-mode optimum equals R*(G) within the band;
    (b) the multi-mode optimum, which must be 0-PC, equals the per-mode
        prediction sum_{k<=k_sel} max(R*(G lam_k), 0) + sum_{k>k_sel}
        max(R(G lam_k), 0) within the band;
    (c) 1 < ratio <= k_max (1 + 1e-3): multi-mode wins, under the ceiling.
    """
    best = None
    for op in ACTIVE_OPS:
        for k_sel in (1, 2, 3):
            rate, gain, ts = _optimized("exp", 2.0, op, k_sel, 30.0, True)
            if best is None or rate > best[0]:
                best = (rate, op, k_sel, gain)
    multi_rate, multi_op, multi_ksel, pinned_gain = best

    ch = ChannelParams.from_loss_db(30.0)
    single = make_spectrum("single", 5)
    t_grid = 1.0 - np.geomspace(1.0 - T_MAX, 1.0 - T_MIN, 4001)
    gains = np.full_like(t_grid, pinned_gain)
    single_best = -math.inf
    single_best_op = None
    for op in ACTIVE_OPS:
        totals = total_rate_batch(
            single.lambdas, OpKind(op), gains, t_grid[:, None], ch, DET, RATE, clamp=True
        )
        top = float(totals.max())
        if top > single_best:
            single_best, single_best_op = top, op
    ratio = math.inf if single_best <= 0.0 else multi_rate / single_best

    spectrum = make_spectrum("exp", 5, 2.0)
    r_grid, scan = _dense_rate_scan(ch, pinned_gain)
    best_single_channel = max(float(scan.max()), 0.0)
    per_mode = []
    for k, lam in enumerate(spectrum.lambdas):
        r_k = pinned_gain * lam
        if k < multi_ksel:
            per_mode.append(max(float(scan[r_grid <= r_k].max()), 0.0))
        else:
            outcome = OpOutcome(cm=epr_cm(r_k), probability=1.0)
            per_mode.append(max(subchannel_rate(outcome, ch, DET, RATE), 0.0))
    predicted = sum(per_mode)

    single_ok = _within_band(single_best, best_single_channel)
    multi_ok = multi_op == "0pc" and _within_band(multi_rate, predicted)
    ratio_ok = 1.0 < ratio <= spectrum.k_max * (1.0 + 1e-3)
    _report(8, single_ok and multi_ok and ratio_ok,
            f"measured ratio {ratio:.3f} (assert 1 < ratio <= k_max = {spectrum.k_max}): multi-mode "
            f"best {multi_rate:.4e} bits/pulse ({multi_op}, k_sel={multi_ksel}, "
            f"G={pinned_gain:.3f}) vs per-mode prediction {predicted:.4e} "
            f"({', '.join(f'{x:.3e}' for x in per_mode)}); single-mode best "
            f"{single_best:.4e} ({single_best_op} at equal budget G) vs dense R* "
            f"{best_single_channel:.4e}")
    assert single_ok, f"single-mode optimum {single_best} != dense R* {best_single_channel}"
    assert multi_op == "0pc", f"winner is {multi_op}, not 0pc; the per-mode prediction is for 0pc"
    assert multi_ok, f"multi-mode optimum {multi_rate} != per-mode prediction {predicted}"
    assert ratio_ok, f"ratio {ratio} outside (1, {spectrum.k_max}]"


def test_criterion_09_no_memory_ordering():
    violations = []
    for op, k_sel in (("none", 0), ("1ps", 2)):
        for loss in LOSS_GRID_DB:
            _, gain, ts = _optimized("exp", 2.0, op, k_sel, loss, True)
            source = SourceParams(gain, make_spectrum("exp", 5, 2.0))
            specs = [NonGaussianOpSpec(OpKind(op), t) for t in ts]
            outcomes = apply_to_supermodes(specs, source)
            ch = ChannelParams.from_loss_db(loss)
            with_memory = total_rate(outcomes, ch, DET, RateParams(memory=True)).total
            without = total_rate(outcomes, ch, DET, RateParams(memory=False)).total
            prob = math.prod(o.probability for o in outcomes)
            if without > with_memory + 1e-12:
                violations.append(("order", op, loss, without, with_memory))
            equal = abs(without - with_memory) <= 1e-12
            # equality <=> unit success probability (vacuously when the sum is 0)
            if abs(with_memory) > 1e-12 and equal != (abs(prob - 1.0) <= 1e-12):
                violations.append(("iff", op, loss, prob, with_memory, without))
    _report(9, not violations,
            "no-memory total <= memory total at every sweep point, equality exactly "
            "at unit heralding probability" + (f"; violations: {violations}" if violations else ""))
    assert not violations


def test_criterion_10_sweep_determinism(tmp_path):
    args = ["sweep", "--scenario", "exp", "--op", "0pc", "--ksel", "1",
            "--loss-db", "0:10:5"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(10, identical, "two identical sweep invocations produced byte-identical CSV")
    assert identical
