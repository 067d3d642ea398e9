"""Single-node RC transient model of a dwelling and its heat pump.

The dwelling is a lumped thermal network with one resistance R [C/W] to
outdoors and one capacitance C [J/C]. With a constant heating output P [W]
and constant outdoor temperature, the indoor temperature obeys

    C * dT/dt = P - (T - T_outdoor) / R

whose solution relaxes exponentially toward the steady state
T_ss = T_outdoor + P * R with time constant tau = R * C seconds.

Two demand response services are quantified for a dwelling:

  positive flexibility: the heat pump ramps from its current output to
    maximum, increasing electrical demand until the indoor temperature
    reaches the upper comfort limit;
  negative flexibility: the heat pump switches off, reducing electrical
    demand until the indoor temperature falls to the lower comfort limit.

Electrical magnitudes are the thermal swings divided by the heat pump COP
at the prevailing outdoor temperature. Durations are exact time-to-threshold
solutions of the balance equation; a unit-timestep discrete variant is kept
alongside for fidelity checks (see service_duration_discrete).

All temperatures are C, powers W, resistances C/W, capacitances J/C,
durations seconds. Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DomainError
from .thermal import ThermalParams

# Sanity bounds on the initial indoor temperature; values beyond these are
# taken as unit mistakes rather than climates.
INDOOR_TEMP_MIN = -50.0
INDOOR_TEMP_MAX = 60.0


class Direction(Enum):
    POSITIVE = "positive"  # demand increase, heat pumps to maximum
    NEGATIVE = "negative"  # demand reduction, heat pumps off


@dataclass(frozen=True)
class RcDwelling:
    """Thermal network parameters of one dwelling in SI units."""

    resistance: float  # C/W, inverse of the heat loss in W/C
    capacitance: float  # J/C
    hp_max_thermal: float  # W, maximum thermal output of the heat pump

    def __post_init__(self) -> None:
        if self.resistance <= 0 or self.capacitance <= 0 or self.hp_max_thermal <= 0:
            raise DomainError(
                f"RcDwelling parameters must be positive: R={self.resistance}, "
                f"C={self.capacitance}, max={self.hp_max_thermal}"
            )

    @property
    def tau(self) -> float:
        """Time constant R*C in seconds."""
        return self.resistance * self.capacitance

    @classmethod
    def from_params(cls, params: ThermalParams) -> "RcDwelling":
        # kW/C -> C/W, kJ/K -> J/K, kW -> W, as run_scenario, _failure and rollup do inline
        return cls(
            resistance=1.0 / (params.heat_loss * 1000.0),
            capacitance=params.capacitance * 1000.0,
            hp_max_thermal=params.hp_size_thermal * 1000.0,
        )


@dataclass(frozen=True)
class CopCurve:
    """Piecewise-linear COP of an air source heat pump vs outdoor temperature."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigError("COP curve has no points")
        if not all(math.isfinite(v) for point in self.points for v in point):
            raise ConfigError(f"COP curve points must be finite, got {self.points}")
        temps = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ConfigError("COP curve temperatures must be strictly increasing")
        if any(cop <= 1.0 for _, cop in self.points):
            raise ConfigError("every COP must exceed 1")

    @classmethod
    def default(cls) -> "CopCurve":
        # average COP of installed air source heat pumps at four reference
        # outdoor temperatures
        return cls(points=((-5.0, 2.0), (0.0, 2.3), (5.0, 2.4), (10.0, 2.6)))


def cop_at(curve: CopCurve, outdoor: float) -> float:
    """Table value at the knots, linear in between, clamped beyond the ends."""
    pts = curve.points
    if outdoor <= pts[0][0]:
        return pts[0][1]
    if outdoor >= pts[-1][0]:
        return pts[-1][1]
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        if t0 <= outdoor <= t1:
            return c0 + (c1 - c0) * (outdoor - t0) / (t1 - t0)
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ComfortBand:
    """Allowable indoor temperature range bounding service durations."""

    low: float = 18.0
    high: float = 24.0

    def __post_init__(self) -> None:
        if not -math.inf < self.low < self.high < math.inf:
            raise ConfigError(f"comfort band ({self.low}, {self.high}) needs finite low < high")


class DurationKind(Enum):
    ZERO = "zero"
    FINITE = "finite"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Duration:
    kind: DurationKind
    seconds: float | None = None

    @classmethod
    def zero(cls) -> "Duration":
        return cls(DurationKind.ZERO)

    @classmethod
    def finite(cls, seconds: float) -> "Duration":
        return cls(DurationKind.FINITE, seconds)

    @classmethod
    def unbounded(cls) -> "Duration":
        return cls(DurationKind.UNBOUNDED)

    @property
    def is_zero(self) -> bool:
        return self.kind is DurationKind.ZERO

    @property
    def is_finite(self) -> bool:
        return self.kind is DurationKind.FINITE

    @property
    def is_unbounded(self) -> bool:
        return self.kind is DurationKind.UNBOUNDED


@dataclass(frozen=True)
class FlexOutcome:
    """Result of one service evaluation for one dwelling.

    magnitude_electric is signed: positive for a demand increase, negative
    for a demand reduction. A zero duration means the service is unavailable
    and forces the magnitude to 0.
    """

    magnitude_electric: float  # W electrical, signed
    duration: Duration


def initial_heat_output(
    dwelling: RcDwelling, indoor: float, outdoor: float, clamp: bool = True
) -> float:
    """Thermal output holding the indoor temperature constant, W.

    The raw balance value (indoor - outdoor) / R can exceed the installed
    capacity in weather colder than the design point, or go negative when it
    is warmer inside than the heat pump ever needs to counteract; physical
    units can do neither, so the default clamps to [0, hp_max_thermal].
    Pass clamp=False for the raw diagnostic value.
    """
    raw = (indoor - outdoor) / dwelling.resistance
    if not clamp:
        return raw
    return min(max(raw, 0.0), dwelling.hp_max_thermal)


def flexibility_magnitude(
    dwelling: RcDwelling,
    indoor: float,
    outdoor: float,
    curve: CopCurve,
    direction: Direction,
) -> float:
    """Signed electrical magnitude of the service, W.

    Positive service: spare thermal headroom (max - current) over COP, >= 0.
    Negative service: the current thermal output over COP, negated, <= 0.
    """
    iq = initial_heat_output(dwelling, indoor, outdoor)
    cop = cop_at(curve, outdoor)
    if direction is Direction.POSITIVE:
        return (dwelling.hp_max_thermal - iq) / cop
    return -iq / cop


def steady_state_temp(dwelling: RcDwelling, outdoor: float, power_thermal: float) -> float:
    """Asymptotic indoor temperature under a constant output, C."""
    return outdoor + power_thermal * dwelling.resistance


def _check_indoor(indoor: float) -> None:
    if not INDOOR_TEMP_MIN <= indoor <= INDOOR_TEMP_MAX:
        raise DomainError(
            f"indoor temperature {indoor} C outside plausible range "
            f"[{INDOOR_TEMP_MIN}, {INDOOR_TEMP_MAX}]"
        )


def service_duration(
    dwelling: RcDwelling,
    indoor: float,
    outdoor: float,
    power_thermal: float,
    band: ComfortBand,
    direction: Direction,
) -> Duration:
    """How long the service output can be held before a comfort limit is hit.

    Positive service runs at power_thermal = hp_max_thermal toward band.high;
    negative service runs at 0 W toward band.low. The outdoor temperature is
    taken as constant for the whole service. Three cases:

      zero      the start temperature is already at or beyond the limit;
      unbounded the steady state never reaches the limit;
      finite    tau * ln((indoor - T_ss) / (limit - T_ss)), the exact
                time-to-threshold of the balance equation, computed as
                tau * log1p((indoor - limit) / (limit - T_ss)): the same
                quantity without the cancellation of a log near 1 when
                indoor is a few ulps from the limit.
    """
    _check_indoor(indoor)
    t_ss = steady_state_temp(dwelling, outdoor, power_thermal)
    if direction is Direction.POSITIVE:
        limit = band.high
        if indoor >= limit:
            return Duration.zero()
        if t_ss <= limit:
            return Duration.unbounded()
    else:
        limit = band.low
        if indoor <= limit:
            return Duration.zero()
        if t_ss >= limit:
            return Duration.unbounded()
    return Duration.finite(dwelling.tau * math.log1p((indoor - limit) / (limit - t_ss)))


def service_duration_discrete(
    dwelling: RcDwelling,
    indoor: float,
    outdoor: float,
    power_thermal: float,
    limit: float,
) -> float:
    """Finite duration from the unit-timestep recurrence, seconds.

    Kept as a fidelity cross-check of the closed form. The recurrence
    T[k+1] = A + B*T[k] with A = T_outdoor/(R*C) + P/C and B = 1 - 1/(R*C)
    advances one second per step; its fixed point A/(1-B) equals the
    continuous steady state T_outdoor + P*R. The two log arguments are
    combined into one ratio so the expression stays defined for services in
    either direction. Only valid when the limit is actually reached; callers
    must rule out the zero/unbounded cases first.
    """
    rc = dwelling.resistance * dwelling.capacitance
    if rc <= 1.0:
        raise DomainError(f"unit-step recurrence needs R*C > 1 s, got {rc}")
    a = outdoor / rc + power_thermal / dwelling.capacitance
    b = 1.0 - 1.0 / rc
    fixed_point = a / (1.0 - b)
    ratio = (limit - fixed_point) / (indoor - fixed_point)
    if ratio <= 0 or ratio >= 1:
        raise DomainError("limit not reachable from this start; no finite duration")
    return math.log(ratio) / math.log(b)


def evaluate(
    dwelling: RcDwelling,
    indoor: float,
    outdoor: float,
    curve: CopCurve,
    band: ComfortBand,
    direction: Direction,
) -> FlexOutcome:
    """Magnitude plus duration for one dwelling and one service direction.

    A dwelling already at or beyond the relevant comfort limit cannot provide
    the service at all: the duration is zero and the magnitude is reported
    as 0 regardless of the nominal headroom.
    """
    power = dwelling.hp_max_thermal if direction is Direction.POSITIVE else 0.0
    duration = service_duration(dwelling, indoor, outdoor, power, band, direction)
    if duration.is_zero:
        return FlexOutcome(magnitude_electric=0.0, duration=duration)
    magnitude = flexibility_magnitude(dwelling, indoor, outdoor, curve, direction)
    return FlexOutcome(magnitude_electric=magnitude, duration=duration)
