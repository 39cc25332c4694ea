import math
import warnings

import numpy as np
import pytest

from asynclab.sampling import (DELAY_GUARD, ChannelSchedule, ErrorModel,
                               ScheduleError,
                               apply_additive_error,
                               apply_multiplicative_error, channel_rng,
                               event_trigger_check, generate_schedule,
                               log_quantize, saturation_scale,
                               validate_schedule)


def test_periodic_schedule():
    # The running sum of the instants makes some gaps exceed h by half a unit
    # in the last place of the later instant; past 1 s nearly every seed has one.
    for h, horizon in [(0.01, 1.0), (0.001, 30.0), (0.002, 60.0), (0.025, 4000.0),
                       (0.01, 600.0)]:
        for seed in range(5):
            s = generate_schedule(h, h, 0.0, horizon, seed=seed, channel_id=0)
            gaps = np.diff(s.sample_instants)
            assert np.allclose(gaps, h)
            assert np.all(s.delays == 0.0)
            validate_schedule(s, h, 0.0)


def test_schedule_admissibility_random():
    # Every generated schedule passes the independent checker.
    for seed in range(20):
        for ch in range(3):
            s = generate_schedule(0.005, 0.012, 0.005, 10.0, seed, ch)
            validate_schedule(s, 0.012, 0.005)


def test_schedule_determinism():
    a = generate_schedule(0.005, 0.012, 0.004, 5.0, seed=3, channel_id=1)
    b = generate_schedule(0.005, 0.012, 0.004, 5.0, seed=3, channel_id=1)
    assert np.array_equal(a.sample_instants, b.sample_instants)
    assert np.array_equal(a.delays, b.delays)
    c = generate_schedule(0.005, 0.012, 0.004, 5.0, seed=3, channel_id=2)
    assert not np.array_equal(a.sample_instants, c.sample_instants)


def _loop_schedule(h_min, h_max, tau_max, horizon, seed, channel_id):
    """Reference: one gap drawn and added at a time."""
    rng = channel_rng(seed, channel_id)
    instants = [float(rng.uniform(0.0, h_min))]
    while instants[-1] < horizon:
        instants.append(instants[-1] + float(rng.uniform(h_min, h_max)))
    instants = np.array(instants)
    gaps = np.diff(instants, append=instants[-1] + h_min)
    caps = np.minimum(tau_max, gaps * (1.0 - DELAY_GUARD))
    return instants, rng.uniform(0.0, 1.0, size=len(instants)) * caps


@pytest.mark.parametrize("params", [
    (0.005, 0.012, 0.005, 60.0), (0.025, 0.025, 0.02, 40.0),
    (0.02, 0.05, 0.019, 30.0), (0.001, 1.0, 0.0005, 50.0),
    (0.05, 0.15, 0.04, 0.01), (0.3, 0.7, 0.0, 2.0)])
def test_block_drawn_schedule_matches_one_at_a_time_reference(params):
    for seed, ch in ((0, 0), (1, 3), (7, 1)):
        instants, delays = _loop_schedule(*params, seed, ch)
        s = generate_schedule(*params, seed, ch)
        assert np.array_equal(s.sample_instants, instants)
        assert np.array_equal(s.delays, delays)


def _masked_quantize(x, level):
    """Reference: the quantizer as whole-array numpy over the nonzero
    entries, with each power from Python's level ** e."""
    nz = x != 0.0
    logs = np.log(np.abs(x[nz])) / np.log(level)
    snapped = np.round(logs)
    exps = np.where(np.abs(logs - snapped) < 1e-9, snapped, np.floor(logs))
    expected = np.zeros_like(x)
    expected[nz] = np.sign(x[nz]) * np.array([level ** int(e) for e in exps])
    return expected


def test_log_quantize_matches_masked_reference():
    # Bit for bit, on vectors of the lengths the engine passes (1-3):
    # random magnitudes, zeros, exact powers of the level with their
    # neighbours one ulp away (where the snap rule and the power decide),
    # and magnitudes near 1e-300 and 1e300.
    rng = np.random.default_rng(5)
    for level in (1.1, 2.0, 1.0001, 1.5, 3.0, 10.0, 1.01, 1.003, 1.3, 7.0):
        x = rng.standard_normal(4000) * 10.0 ** rng.uniform(-8, 8, 4000)
        x[::7] = 0.0
        x[1::11] = level ** rng.integers(-20, 20, len(x[1::11]))
        powers = level ** np.arange(-300.0, 301.0)
        extremes = 10.0 ** np.concatenate([rng.uniform(295, 300, 500),
                                           rng.uniform(-300, -295, 500)])
        x = np.concatenate([x, powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf), -powers,
                            extremes * rng.choice([-1.0, 1.0], len(extremes))])
        expected = _masked_quantize(x, level)
        cuts = np.cumsum(np.resize([1, 2, 3], len(x)))
        cuts = cuts[cuts < len(x)]
        for chunk, want in zip(np.split(x, cuts), np.split(expected, cuts)):
            assert log_quantize(chunk, level).tobytes() == want.tobytes()


def test_log_quantize_keeps_the_top_of_the_float_range_finite():
    # log2 of the largest float rounds to exactly 1024, so the snap rule
    # picks 2**1024, which overflows; the next power down is taken instead,
    # without a warning
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for level in (2.0, np.float64(2.0)):
            q = log_quantize([top, -top, np.nextafter(top, 0.0)], level)
            assert q.tolist() == [2.0**1023, -2.0**1023, 2.0**1023]
        for level in (1.0001, 1.1, 3.0, 10.0):
            # the largest power of the level that is a float
            p = float(log_quantize([top], level)[0])
            assert 0.0 < p <= top and p * level == math.inf


def test_log_quantize_edge_inputs():
    # infinities and NaN map to themselves, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q = log_quantize([np.inf, -np.inf, np.nan], 1.1)
    assert q[0] == np.inf and q[1] == -np.inf and np.isnan(q[2])
    # zeros (either sign) give +0.0, and subnormals quantize as any other value
    x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, 1e-320])
    for level in (1.1, 2.0):
        assert log_quantize(x, level).tobytes() == _masked_quantize(x, level).tobytes()
    assert log_quantize([5e-324], 2.0)[0] == 5e-324     # 2**-1074, an exact power
    # the shape of the input is kept: 0-d, 2-D and empty
    q = log_quantize(np.float64(-3.0), 2.0)
    assert q.shape == () and q == -2.0
    grid = x[2:].reshape(2, 2)
    assert log_quantize(grid, 1.1).tobytes() == _masked_quantize(grid.ravel(), 1.1).tobytes()
    assert log_quantize(grid, 1.1).shape == (2, 2)
    assert log_quantize(np.empty((0, 3)), 2.0).shape == (0, 3)
    for level in (1.0, 0.5, 0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            log_quantize([1.0], level)


def test_schedule_parameter_errors():
    with pytest.raises(ScheduleError):
        generate_schedule(0.0, 0.01, 0.0, 1.0, 0, 0)
    with pytest.raises(ScheduleError):
        generate_schedule(0.02, 0.01, 0.0, 1.0, 0, 0)
    with pytest.raises(ScheduleError):
        generate_schedule(0.01, 0.02, 0.011, 1.0, 0, 0)   # tau_max > h_min
    with pytest.raises(ScheduleError):
        generate_schedule(0.01, 0.02, 0.0, 0.0, 0, 0)


def test_validate_schedule_catches_violations():
    good = ChannelSchedule(0, np.array([0.0, 0.01, 0.02]),
                           np.array([0.0, 0.0, 0.0]))
    validate_schedule(good, 0.01, 0.0)
    with pytest.raises(ScheduleError):   # gap too large
        validate_schedule(good, 0.005, 0.0)
    with pytest.raises(ScheduleError):   # delay >= next gap
        validate_schedule(ChannelSchedule(0, np.array([0.0, 0.01]),
                                          np.array([0.01, 0.0])), 0.01, 0.02)
    with pytest.raises(ScheduleError):   # delay over tau
        validate_schedule(ChannelSchedule(0, np.array([0.0, 0.01]),
                                          np.array([0.005, 0.0])), 0.01, 0.001)
    with pytest.raises(ScheduleError):   # non-increasing instants
        validate_schedule(ChannelSchedule(0, np.array([0.0, 0.0]),
                                          np.array([0.0, 0.0])), 0.01, 0.0)
    with pytest.raises(ScheduleError, match="t = 0"):   # an instant before t = 0
        validate_schedule(ChannelSchedule(0, np.array([-0.5, 0.1, 0.2]),
                                          np.zeros(3)), 1.0, 0.0)


def test_channel_rng_streams_independent():
    a = channel_rng(1, 0, stream=0).uniform(size=5)
    b = channel_rng(1, 0, stream=1).uniform(size=5)
    c = channel_rng(1, 0, stream=0).uniform(size=5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_multiplicative_error_zero_omega():
    rng = channel_rng(0, 0)
    measured, err = apply_multiplicative_error([1.0, -2.0], 0.0, rng)
    assert np.array_equal(measured, [1.0, -2.0])
    assert np.all(err == 0.0)


def test_multiplicative_error_assumption_bound():
    # e^T e <= omega * measured^T measured for every draw (Assumption form
    # relative to the errored value), checked on many samples.
    rng = channel_rng(5, 0)
    for omega in (0.01, 0.25, 1.0):
        for _ in range(2000):
            v = rng.normal(size=3)
            measured, err = apply_multiplicative_error(v, omega, rng)
            assert np.allclose(v - err, measured)
            assert err @ err <= omega * (measured @ measured) * (1 + 1e-9)


def test_multiplicative_error_adversarial():
    rng = channel_rng(0, 0)
    v = np.array([1.0, 0.0])
    measured, err = apply_multiplicative_error(v, 1.0, rng, adversarial=True)
    # bound = sqrt(1)/(1+1) * 1 = 1/2
    assert np.linalg.norm(err) == pytest.approx(0.5)
    assert err @ err == pytest.approx(1.0 * (measured @ measured))


def test_additive_error_bound():
    rng = channel_rng(2, 0)
    for _ in range(500):
        v = rng.normal(size=4)
        measured, err = apply_additive_error(v, 0.3, rng)
        assert np.linalg.norm(err) <= 0.3 + 1e-12
        assert np.allclose(v - err, measured)
    _, err = apply_additive_error(v, 0.3, rng, adversarial=True)
    assert np.linalg.norm(err) == pytest.approx(0.3)


def test_log_quantize_hand_values():
    assert log_quantize([0.0], 2.0)[0] == 0.0
    assert log_quantize([5.0], 2.0)[0] == pytest.approx(4.0)
    assert log_quantize([-5.0], 2.0)[0] == pytest.approx(-4.0)
    assert log_quantize([1.0], 1.1)[0] == pytest.approx(1.0)
    # exact powers are fixed points (half-ulp snap)
    assert log_quantize([1.1 ** 7], 1.1)[0] == pytest.approx(1.1 ** 7)
    with pytest.raises(ValueError):
        log_quantize([1.0], 1.0)


def test_log_quantizer_relative_error_law():
    rng = np.random.default_rng(11)
    for level in (1.05, 1.1, 2.0):
        x = rng.uniform(-100.0, 100.0, size=100000)
        x = x[x != 0.0]
        q = log_quantize(x, level)
        assert np.all(np.abs(x - q) <= (level - 1.0) * np.abs(q) * (1 + 1e-9))


def test_event_trigger_check_forms():
    assert not event_trigger_check([1.0], [1.0], 0.09)
    assert event_trigger_check([1.4], [1.0], 0.09)          # 0.16 >= 0.09
    # capped form is strict: below the cap it does not fire
    assert not event_trigger_check([1.07], [1.0], 0.09, cap=0.08)
    assert event_trigger_check([1.09], [1.0], 0.09, cap=0.08)
    # the cap lowers the threshold for large held values
    assert event_trigger_check([10.5], [10.0], 0.09, cap=0.08)


def _norm_trigger_check(current, held, omega, cap=None):
    """event_trigger_check as it was written with np.linalg.norm."""
    current = np.asarray(current, dtype=float)
    held = np.asarray(held, dtype=float)
    dev = float(np.linalg.norm(current - held))
    threshold = math.sqrt(omega) * float(np.linalg.norm(held))
    if cap is not None:
        threshold = min(threshold, cap)
    return dev >= threshold if cap is None else dev > threshold


def test_event_trigger_check_matches_linalg_norm():
    rng = np.random.default_rng(8)
    fired = 0
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        held = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        current = held + rng.normal(size=n) * 10.0 ** rng.uniform(-4, 1)
        omega = float(rng.uniform(0.0, 0.2))
        for v in (held, current - held):
            assert math.sqrt(v.dot(v)) == np.linalg.norm(v)
        for kw in ({}, {"cap": float(rng.uniform(0.01, 1.0))}):
            got = event_trigger_check(current, held, omega, **kw)
            assert got == _norm_trigger_check(current, held, omega, **kw)
            fired += got
    assert 1000 < fired < 5000       # both outcomes are exercised


def test_saturation_scale():
    rho, scaled = saturation_scale(np.zeros(3), 1.0)
    assert rho == 1.0
    rho, scaled = saturation_scale([0.5, -0.2], 1.0)
    assert rho == 1.0
    rho, scaled = saturation_scale([2.3, 0.0], 1.0)
    assert rho == pytest.approx(1.0 / 3.0)
    assert np.abs(scaled).max() == pytest.approx(2.3 / 3.0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=3) * 10.0
        rho, scaled = saturation_scale(v, 0.7)
        assert 0.0 < rho <= 1.0
        assert np.abs(scaled).max() <= 0.7 + 1e-12


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind="bogus")
    with pytest.raises(ValueError):
        ErrorModel.log_quantizer(1.0)
    with pytest.raises(ValueError):
        ErrorModel.event_trigger(0.09, dwell=0.0)
    with pytest.raises(ValueError):
        ErrorModel.event_trigger(0.09, dwell=0.01, cap=-1.0)
    nan = float("nan")
    for bad in (lambda: ErrorModel.additive(-0.1), lambda: ErrorModel.additive(nan),
                lambda: ErrorModel.multiplicative(nan), lambda: ErrorModel.multiplicative(-0.1),
                lambda: ErrorModel.event_trigger(nan, dwell=0.01),
                lambda: ErrorModel.event_trigger(0.09, dwell=nan),
                lambda: ErrorModel.event_trigger(0.09, dwell=0.01, cap=nan),
                lambda: ErrorModel.log_quantizer(nan)):
        with pytest.raises(ValueError):
            bad()
    assert ErrorModel.additive(0.0).delta_e == 0.0
    assert ErrorModel.none().kind == "none"
