"""Identity ladder table: shape, thresholds, and the pass verdict."""

import numpy as np
import pytest

from thermistor.conformable import _stencil_derivative
from thermistor.identities import (
    CSV_COLUMNS,
    DEFAULT_ALPHAS,
    DEFAULT_SIZES,
    identity_table,
    table_passes,
)


def test_default_lattice_passes():
    rows = identity_table()
    assert len(rows) == len(DEFAULT_ALPHAS) * len(DEFAULT_SIZES)
    assert table_passes(rows)


def test_row_schema_and_order_cells():
    rows = identity_table((0.5,), (51, 101))
    assert set(CSV_COLUMNS) <= set(rows[0].keys())
    # first rung of a ladder has no order estimate
    assert rows[0]["roundtrip_order"] == ""
    assert rows[0]["linear_residual_order"] == ""
    assert isinstance(rows[1]["roundtrip_order"], float)
    assert rows[1]["roundtrip_order"] >= 1.8
    assert rows[1]["linear_residual_order"] >= 1.8


def test_classical_column_only_at_alpha_one():
    rows = identity_table((0.5, 1.0), (51, 101))
    by_alpha = {}
    for row in rows:
        by_alpha.setdefault(row["alpha"], []).append(row)
    assert all(r["classical_match_error"] == "" for r in by_alpha[0.5])
    assert all(r["classical_match_error"] == 0.0 for r in by_alpha[1.0])


def test_classical_limit_fails_on_a_changed_stencil(monkeypatch):
    # the same central difference rounded another way, swapped into the
    # stencil's own code so that every caller of it sees the change
    def rounded_otherwise(values, h):
        d = np.empty_like(values)
        d[1:-1] = (values[2:] - values[:-2]) * (0.5 / h)
        d[0] = (4.0 * (values[1] - values[0]) - (values[2] - values[0])) / (2.0 * h)
        d[-1] = (4.0 * (values[-1] - values[-2]) - (values[-1] - values[-3])) / (2.0 * h)
        return d

    monkeypatch.setattr(_stencil_derivative, "__code__", rounded_otherwise.__code__)
    rows = identity_table((1.0,), (101, 201, 401))
    assert all(row["classical_match_error"] > 0.0 for row in rows)
    assert not table_passes(rows)


def test_constant_rule_exact_on_every_row():
    rows = identity_table((0.3, 1.0), (51, 101))
    assert all(row["constant_rule_error"] == 0.0 for row in rows)


def test_thresholds_reject_doctored_rows():
    rows = identity_table((0.5,), (51, 101))
    bad = [dict(r) for r in rows]
    bad[0]["constant_rule_error"] = 1e-6
    assert not table_passes(bad)
    bad = [dict(r) for r in rows]
    bad[1]["roundtrip_order"] = 1.2
    assert not table_passes(bad)
    bad = [dict(r) for r in rows]
    bad[1]["classical_match_error"] = 1e-14
    assert not table_passes(bad)


def test_needs_two_sizes():
    with pytest.raises(ValueError):
        identity_table((0.5,), (101,))
