import math

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
    s = generate_schedule(0.01, 0.01, 0.0, 1.0, seed=0, channel_id=0)
    gaps = np.diff(s.sample_instants)
    assert np.allclose(gaps, 0.01)
    assert np.all(s.delays == 0.0)
    validate_schedule(s, 0.01, 0.0)


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


def test_log_quantize_matches_masked_reference():
    rng = np.random.default_rng(5)
    for level in (1.1, 2.0, 1.0001):
        x = rng.standard_normal(4000) * 10.0 ** rng.uniform(-8, 8, 4000)
        x[::7] = 0.0
        x[1::11] = level ** rng.integers(-20, 20, len(x[1::11]))
        nz = x != 0.0
        logs = np.log(np.abs(x[nz])) / np.log(level)
        snapped = np.round(logs)
        exps = np.where(np.abs(logs - snapped) < 1e-9, snapped, np.floor(logs))
        expected = np.zeros_like(x)
        expected[nz] = np.sign(x[nz]) * level**exps
        for chunk in np.array_split(x, 400):     # small vectors, as the engine passes
            got = log_quantize(chunk, level)
            assert np.array_equal(got, expected[:len(chunk)])
            expected = expected[len(chunk):]


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
    assert ErrorModel.none().kind == "none"
