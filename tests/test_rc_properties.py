"""Algebraic invariants of the transient core, checked over random inputs."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatflex import (
    ComfortBand,
    CopCurve,
    Direction,
    RcDwelling,
    cop_at,
    flexibility_magnitude,
    service_duration,
)

from conftest import euler_time_to_limit

BAND = ComfortBand()
CURVE = CopCurve.default()

resistances = st.floats(min_value=0.001, max_value=0.05)
capacitances = st.floats(min_value=1e6, max_value=1e8)
indoor_temps = st.floats(min_value=14.0, max_value=24.0)
outdoor_temps = st.floats(min_value=-10.0, max_value=15.0)
hp_sizes = st.floats(min_value=500.0, max_value=20000.0)


@st.composite
def dwellings(draw):
    return RcDwelling(
        resistance=draw(resistances),
        capacitance=draw(capacitances),
        hp_max_thermal=draw(hp_sizes),
    )


@given(dwellings(), indoor_temps, outdoor_temps)
def test_capacity_conservation(dwelling, indoor, outdoor):
    # positive minus negative magnitude is the full capacity over COP,
    # independent of the operating point
    pos = flexibility_magnitude(dwelling, indoor, outdoor, CURVE, Direction.POSITIVE)
    neg = flexibility_magnitude(dwelling, indoor, outdoor, CURVE, Direction.NEGATIVE)
    expected = dwelling.hp_max_thermal / cop_at(CURVE, outdoor)
    assert pos - neg == pytest.approx(expected, rel=1e-12)
    assert pos >= 0.0
    assert neg <= 0.0


@given(dwellings(), indoor_temps, outdoor_temps,
       st.floats(min_value=0.1, max_value=10.0),
       st.sampled_from(list(Direction)))
def test_duration_scales_linearly_with_capacitance(dwelling, indoor, outdoor, alpha, direction):
    scaled = RcDwelling(
        resistance=dwelling.resistance,
        capacitance=dwelling.capacitance * alpha,
        hp_max_thermal=dwelling.hp_max_thermal,
    )
    power = dwelling.hp_max_thermal if direction is Direction.POSITIVE else 0.0
    base = service_duration(dwelling, indoor, outdoor, power, BAND, direction)
    test = service_duration(scaled, indoor, outdoor, power, BAND, direction)
    assert base.kind == test.kind
    if base.is_finite:
        assert test.seconds == pytest.approx(base.seconds * alpha, rel=1e-9)
    # magnitudes never involve the capacitance
    for d in Direction:
        assert flexibility_magnitude(scaled, indoor, outdoor, CURVE, d) == \
            flexibility_magnitude(dwelling, indoor, outdoor, CURVE, d)


@given(dwellings(),
       st.floats(min_value=18.0, max_value=24.0),
       st.floats(min_value=18.0, max_value=24.0),
       st.floats(min_value=-10.0, max_value=15.0))
def test_negative_duration_monotone_in_indoor_temp(dwelling, t_a, t_b, outdoor):
    lo, hi = sorted((t_a, t_b))
    d_lo = service_duration(dwelling, lo, outdoor, 0.0, BAND, Direction.NEGATIVE)
    d_hi = service_duration(dwelling, hi, outdoor, 0.0, BAND, Direction.NEGATIVE)
    assert _rank(d_hi) >= _rank(d_lo)
    if d_lo.is_finite and d_hi.is_finite:
        assert d_hi.seconds >= d_lo.seconds


@given(dwellings(),
       st.floats(min_value=18.5, max_value=24.0),
       st.floats(min_value=-10.0, max_value=15.0),
       st.floats(min_value=-10.0, max_value=15.0))
def test_negative_duration_monotone_in_outdoor_temp(dwelling, indoor, o_a, o_b):
    lo, hi = sorted((o_a, o_b))
    d_lo = service_duration(dwelling, indoor, lo, 0.0, BAND, Direction.NEGATIVE)
    d_hi = service_duration(dwelling, indoor, hi, 0.0, BAND, Direction.NEGATIVE)
    assert _rank(d_hi) >= _rank(d_lo)
    if d_lo.is_finite and d_hi.is_finite:
        assert d_hi.seconds >= d_lo.seconds


def _rank(duration):
    # zero < any finite < unbounded; finite ranks by seconds
    if duration.is_zero:
        return (-1, 0.0)
    if duration.is_finite:
        return (0, duration.seconds)
    return (1, 0.0)


@settings(max_examples=60, deadline=None)
@given(dwellings(), indoor_temps, outdoor_temps,
       st.sampled_from(list(Direction)))
# a start one ulp below the upper limit: the log of a ratio within 1e-15 of 1
# lost the leading digits (2.7756e-11 s and 1.8041e-10 s against the exact
# 2.6712e-11 s and 1.7764e-10 s)
@example(RcDwelling(resistance=0.03125, capacitance=1e6, hp_max_thermal=901.0),
         23.999999999999996, 0.0, Direction.POSITIVE)
@example(RcDwelling(resistance=0.03125, capacitance=1e6, hp_max_thermal=500.0),
         23.999999999999996, 9.0, Direction.POSITIVE)
def test_closed_form_matches_euler_oracle(dwelling, indoor, outdoor, direction):
    power = dwelling.hp_max_thermal if direction is Direction.POSITIVE else 0.0
    limit = BAND.high if direction is Direction.POSITIVE else BAND.low
    rising = direction is Direction.POSITIVE

    got = service_duration(dwelling, indoor, outdoor, power, BAND, direction)
    kind, seconds = euler_time_to_limit(
        dwelling.resistance, dwelling.capacitance, indoor, outdoor, power, limit, rising
    )
    assert got.kind.value == kind
    if kind == "finite":
        assert got.seconds == pytest.approx(seconds, rel=0.01)
