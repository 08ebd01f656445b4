"""Unit conversions between dB/dBm and the linear (mW) and natural-log scales."""

from __future__ import annotations

import math

LN10_OVER_10 = math.log(10.0) / 10.0


def db_to_linear(db: float) -> float:
    """Convert a dB ratio to a linear power ratio."""
    return 10.0 ** (db / 10.0)


def dbm_to_mw(dbm: float) -> float:
    """Convert a dBm power level to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def db_to_neper(db: float) -> float:
    """Spread of a power ratio in dB to the natural-log exponent scale.

    A lognormal power factor exp(y) measured in dB is 10*log10(e)*y, so the
    dB spread divides by 10/ln(10).
    """
    return db * LN10_OVER_10
