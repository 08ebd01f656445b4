"""Unit-conversion sanity checks."""

import math

import pytest

from oracles import linear_to_db
from csmafade.units import db_to_linear, db_to_neper, dbm_to_mw


def test_db_round_trip():
    for x in (-31.4, -3.0, 0.0, 0.1, 12.0):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)


def test_dbm_reference_points():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3)
    assert dbm_to_mw(20.0) == pytest.approx(100.0)


def test_neper_conversion_power_convention():
    # power shadowing: exp(y) = 10^(X_dB/10), so sigma_neper = sigma_dB * ln10/10
    assert db_to_neper(10.0 / math.log(10.0)) == pytest.approx(1.0, abs=1e-12)
    assert db_to_neper(8.686) == pytest.approx(8.686 * math.log(10.0) / 10.0)
    assert db_to_neper(8.686) == pytest.approx(2.0, abs=1e-3)
    assert db_to_neper(10.0) == pytest.approx(math.log(10.0), abs=1e-12)
