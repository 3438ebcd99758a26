"""Unit-safe conversion helpers.

The library keeps a small set of canonical internal units and converts at the
boundary:

========== ==================== =========================
Quantity   Canonical unit        Common alternates
========== ==================== =========================
power      watt (W)              kW, MW
energy     joule (J)             Wh, kWh, MWh, kW·h
time       second (s)            minute, hour, day, month
emissions  gram CO₂e (g)         kg, tonne
intensity  gCO₂e per kWh         kg/MWh (numerically equal)
========== ==================== =========================

Functions are deliberately tiny and total: they accept floats or numpy arrays
and return the same type (numpy broadcasting applies). Negative values are
rejected for physically non-negative quantities via :func:`ensure_nonnegative`
at construction sites, not inside every converter, so the converters stay
vectorisation-friendly.
"""

from __future__ import annotations

import math
from typing import TypeVar

import numpy as np

from .errors import UnitError

__all__ = [
    "SECONDS_PER_MINUTE",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "SECONDS_PER_WEEK",
    "SECONDS_PER_MONTH",
    "SECONDS_PER_YEAR",
    "JOULES_PER_KWH",
    "kw_to_w",
    "w_to_kw",
    "mw_to_w",
    "w_to_mw",
    "kwh_to_j",
    "j_to_kwh",
    "mwh_to_j",
    "j_to_mwh",
    "wh_to_j",
    "j_to_wh",
    "hours_to_s",
    "s_to_hours",
    "days_to_s",
    "s_to_days",
    "minutes_to_s",
    "months_to_s",
    "years_to_s",
    "g_to_kg",
    "kg_to_g",
    "g_to_tonnes",
    "tonnes_to_g",
    "kg_to_tonnes",
    "energy_j",
    "emissions_g",
    "node_hours",
    "ensure_nonnegative",
    "ensure_positive",
    "ensure_fraction",
]

_T = TypeVar("_T", float, np.ndarray)

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86_400.0
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
#: Mean Gregorian month (365.2425 / 12 days) — used for coarse campaign spans.
SECONDS_PER_MONTH = 365.2425 / 12.0 * SECONDS_PER_DAY
SECONDS_PER_YEAR = 365.2425 * SECONDS_PER_DAY

JOULES_PER_KWH = 3.6e6


# --- power ---------------------------------------------------------------

def kw_to_w(value_kw: _T) -> _T:
    """Convert kilowatts to watts."""
    return value_kw * 1e3


def w_to_kw(value_w: _T) -> _T:
    """Convert watts to kilowatts."""
    return value_w / 1e3


def mw_to_w(value_mw: _T) -> _T:
    """Convert megawatts to watts."""
    return value_mw * 1e6


def w_to_mw(value_w: _T) -> _T:
    """Convert watts to megawatts."""
    return value_w / 1e6


# --- energy --------------------------------------------------------------

def kwh_to_j(value_kwh: _T) -> _T:
    """Convert kilowatt-hours to joules."""
    return value_kwh * JOULES_PER_KWH


def j_to_kwh(value_j: _T) -> _T:
    """Convert joules to kilowatt-hours."""
    return value_j / JOULES_PER_KWH


def mwh_to_j(value_mwh: _T) -> _T:
    """Convert megawatt-hours to joules."""
    return value_mwh * (JOULES_PER_KWH * 1e3)


def j_to_mwh(value_j: _T) -> _T:
    """Convert joules to megawatt-hours."""
    return value_j / (JOULES_PER_KWH * 1e3)


def wh_to_j(value_wh: _T) -> _T:
    """Convert watt-hours to joules."""
    return value_wh * 3600.0


def j_to_wh(value_j: _T) -> _T:
    """Convert joules to watt-hours."""
    return value_j / 3600.0


# --- time ----------------------------------------------------------------

def hours_to_s(hours: _T) -> _T:
    """Convert hours to seconds."""
    return hours * SECONDS_PER_HOUR


def s_to_hours(seconds: _T) -> _T:
    """Convert seconds to hours."""
    return seconds / SECONDS_PER_HOUR


def days_to_s(days: _T) -> _T:
    """Convert days to seconds."""
    return days * SECONDS_PER_DAY


def s_to_days(seconds: _T) -> _T:
    """Convert seconds to days."""
    return seconds / SECONDS_PER_DAY


def minutes_to_s(minutes: _T) -> _T:
    """Convert minutes to seconds."""
    return minutes * SECONDS_PER_MINUTE


def months_to_s(months: _T) -> _T:
    """Convert mean Gregorian months to seconds."""
    return months * SECONDS_PER_MONTH


def years_to_s(years: _T) -> _T:
    """Convert mean Gregorian years to seconds."""
    return years * SECONDS_PER_YEAR


# --- emissions -----------------------------------------------------------

def g_to_kg(grams: _T) -> _T:
    """Convert grams to kilograms."""
    return grams / 1e3


def kg_to_g(kilograms: _T) -> _T:
    """Convert kilograms to grams."""
    return kilograms * 1e3


def g_to_tonnes(grams: _T) -> _T:
    """Convert grams to metric tonnes."""
    return grams / 1e6


def tonnes_to_g(tonnes: _T) -> _T:
    """Convert metric tonnes to grams."""
    return tonnes * 1e6


def kg_to_tonnes(kilograms: _T) -> _T:
    """Convert kilograms to metric tonnes."""
    return kilograms / 1e3


# --- derived quantities ---------------------------------------------------

def energy_j(power_w: _T, duration_s: _T) -> _T:
    """Energy in joules for a constant power draw over a duration."""
    return power_w * duration_s


def emissions_g(energy_j_: _T, intensity_gco2_per_kwh: _T) -> _T:
    """Operational (scope 2) emissions in grams CO₂e.

    Parameters
    ----------
    energy_j_:
        Electrical energy consumed, in joules.
    intensity_gco2_per_kwh:
        Grid carbon intensity, in gCO₂e per kWh.
    """
    return j_to_kwh(energy_j_) * intensity_gco2_per_kwh


def node_hours(n_nodes: _T, duration_s: _T) -> _T:
    """Node-hours consumed by ``n_nodes`` over ``duration_s`` seconds."""
    return n_nodes * s_to_hours(duration_s)


# --- validation -----------------------------------------------------------

def ensure_nonnegative(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` if negative or NaN."""
    if not math.isfinite(value) or value < 0:
        raise UnitError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` unless strictly positive."""
    if not math.isfinite(value) or value <= 0:
        raise UnitError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def ensure_fraction(value: float, name: str) -> float:
    """Return ``value`` unchanged, raising :class:`UnitError` unless in [0, 1]."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise UnitError(f"{name} must be within [0, 1], got {value!r}")
    return float(value)
