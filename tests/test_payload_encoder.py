"""Columnar payload encoder: byte-identical to ``json.dumps``.

``repro.serve.payloads.dumps`` formats :class:`ColumnTable` rows from one
template instead of running ``json.dumps(indent=2, sort_keys=True)`` over
a list of row dicts.  The CLI/serve byte-identity promise and the sweep
body checksums rest on the two giving the same bytes, so these tests
compare them byte for byte: over drawn payloads (tables at several
depths, int/bool/float columns with non-finite and extreme values,
zero- and one-row tables, non-ASCII strings), and over every grid shape
the serve benchmark requests, against the former dict-rows path.  Part
of the CI equivalence gate (fail-if-skipped).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.batch import (
    DEFAULT_OBJECTIVES,
    RESULT_COLUMNS,
    BatchSweepResult,
    DesignGrid,
)
from repro.cnn.zoo import alexnet
from repro.core.config import ChainConfig
from repro.engine import create_engine
from repro.serve import payloads
from repro.serve.payloads import ColumnTable

SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
                  math.nan, math.inf, -math.inf)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
FINITE = st.one_of(st.sampled_from(SPECIAL_FLOATS[:7]),
                   st.floats(allow_nan=False, allow_infinity=False))
TEXT = st.text(max_size=6)  # unrestricted code points: non-ASCII, quotes, %

#: column kind -> (element strategy, dtype); only int64 and finite float64
#: columns take the template path, the rest must fall back to json.dumps
COLUMN_KINDS = {
    "int64": (st.integers(-2**63, 2**63 - 1), np.int64),
    "float64": (FLOATS, np.float64),
    "finite": (FINITE, np.float64),
    "bool": (st.booleans(), np.bool_),
    "int32": (st.integers(-2**31, 2**31 - 1), np.int32),
}


def reference_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


@st.composite
def tables(draw):
    """A ``(ColumnTable, equivalent list of row dicts)`` pair."""
    n_rows = draw(st.integers(0, 4))
    # half the tables are template-eligible by construction
    kinds = draw(st.sampled_from([("finite", "int64"), sorted(COLUMN_KINDS)]))
    columns = {}
    for name in draw(st.lists(TEXT, min_size=1, max_size=4, unique=True)):
        elements, dtype = COLUMN_KINDS[draw(st.sampled_from(kinds))]
        values = draw(st.lists(elements, min_size=n_rows, max_size=n_rows))
        columns[name] = np.array(values, dtype=dtype)
    rows = [{name: column[i].item() for name, column in columns.items()}
            for i in range(n_rows)]
    return ColumnTable(columns), rows


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=3).map(
            lambda items: ([a for a, _ in items], [b for _, b in items])),
        st.dictionaries(TEXT, children, max_size=3).map(
            lambda items: ({key: a for key, (a, _) in items.items()},
                           {key: b for key, (_, b) in items.items()})),
    )


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT).map(
    lambda value: (value, value))
#: ``(payload, reference)`` pairs: the reference has every table as rows
PAYLOADS = st.recursive(st.one_of(LEAVES, tables()), _containers, max_leaves=10)


def old_rows(result: BatchSweepResult):
    """The former per-index report-row arithmetic, kept as the oracle."""
    return [
        {
            "PEs": int(result.grid.num_pes[i]),
            "Freq (MHz)": float(result.grid.frequency_hz[i]) / 1e6,
            "batch": int(result.grid.batch[i]),
            "bits": int(result.grid.word_bits[i]),
            "Peak GOPS": float(result.peak_gops[i]),
            "Achieved GOPS": float(result.achieved_gops[i]),
            "fps": float(result.fps[i]),
            "Time/batch (ms)": float(result.total_time_per_batch_s[i]) * 1e3,
            "Power (W)": float(result.power_w[i]),
            "GOPS/W": float(result.gops_per_watt[i]),
            "worst-case util.": float(result.worst_case_utilization[i]),
            "Gates (k)": float(result.total_gates[i]) / 1e3,
        }
        for i in range(result.n_points)
    ]


def bits(rows):
    """Rows with every value reduced to (type, exact bit pattern)."""
    return [[(name, type(value).__name__,
              value.hex() if isinstance(value, float) else value)
             for name, value in row.items()] for row in rows]


# --------------------------------------------------------------------- #
# one row formula
# --------------------------------------------------------------------- #
class TestReportRows:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 12), data=st.data())
    def test_rows_are_bit_identical_to_per_index_arithmetic(self, n, data):
        grid = DesignGrid(
            num_pes=np.array(data.draw(st.lists(st.integers(1, 4096),
                                                min_size=n, max_size=n)), dtype=np.int64),
            frequency_hz=np.array(data.draw(st.lists(
                st.floats(1.0, 5e9), min_size=n, max_size=n)), dtype=np.float64),
            batch=np.array(data.draw(st.lists(st.integers(1, 1024),
                                              min_size=n, max_size=n)), dtype=np.int64),
            word_bits=np.array(data.draw(st.lists(st.sampled_from([8, 16, 24, 32]),
                                                  min_size=n, max_size=n)), dtype=np.int64),
        )
        result = BatchSweepResult(grid=grid, **{
            name: np.array(data.draw(st.lists(FLOATS, min_size=n, max_size=n)),
                           dtype=np.float64)
            for name in RESULT_COLUMNS})
        assert bits(result.rows()) == bits(old_rows(result))
        indices = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
        assert bits(result.rows(indices)) == bits([old_rows(result)[i] for i in indices])
        if n:
            assert bits([result.row(n - 1)]) == bits(old_rows(result)[-1:])

    def test_evaluated_rows_match_per_index_arithmetic(self):
        grid = DesignGrid.parse("pe=128:1152:64,freq=200:1000:100,bits=8:16:8")
        result = create_engine("analytical-batch").evaluate_batch(alexnet(), grid)
        assert bits(result.rows()) == bits(old_rows(result))
        assert list(result.rows()[0]) == list(old_rows(result)[0])  # report order


# --------------------------------------------------------------------- #
# byte identity: drawn payloads
# --------------------------------------------------------------------- #
class TestDumpsMatchesJson:
    @settings(max_examples=200, deadline=None)
    @given(PAYLOADS)
    def test_drawn_payloads(self, pair):
        payload, reference = pair
        assert payloads.dumps(payload) == reference_dumps(reference)

    @settings(max_examples=100, deadline=None)
    @given(tables(), st.integers(0, 4), TEXT)
    def test_table_at_every_depth(self, pair, depth, key):
        payload, reference = pair
        for level in range(depth):
            if level % 2:
                payload, reference = [1, payload], [1, reference]
            else:
                payload = {key: payload, "été": "日本"}
                reference = {key: reference, "été": "日本"}
        assert payloads.dumps(payload) == reference_dumps(reference)

    def test_template_eligibility_is_per_column_dtype(self):
        finite = {"a": np.array([1, 2]), "b": np.array([0.5, -0.0])}
        assert ColumnTable(finite).templated
        assert not ColumnTable({**finite, "c": np.array([True, False])}).templated
        assert not ColumnTable({**finite, "c": np.array([1.0, math.nan])}).templated
        assert not ColumnTable({**finite, "c": np.array([1, 2], np.int32)}).templated

    def test_non_finite_floats_fall_back(self):
        table = ColumnTable({"x": np.array([math.nan, math.inf, -math.inf, 1e16])})
        text = payloads.dumps({"points": table})
        assert '"x": NaN' in text and '"x": Infinity' in text
        assert '"x": -Infinity' in text and '"x": 1e+16' in text
        assert text == reference_dumps({"points": table.rows()})

    def test_placeholder_collision_falls_back(self):
        table = ColumnTable({"x": np.array([1.5, 2.5])})
        for clash in ("\x00table0\x00", "\x00table1\x00"):
            payload = {"a": table, "b": clash, "c": [table]}
            reference = {"a": table.rows(), "b": clash, "c": [table.rows()]}
            assert payloads.dumps(payload) == reference_dumps(reference)

    def test_top_level_table_and_plain_payloads(self):
        table = ColumnTable({"k%s": np.array([3]), "v": np.array([1e-7])})
        assert payloads.dumps(table) == reference_dumps(table.rows())
        plain = {"error": "naïve — input", "n": [1, 2.5, None, True]}
        assert payloads.dumps(plain) == reference_dumps(plain)

    @pytest.mark.parametrize("columns", [{}, {"a": np.zeros(2), "b": np.zeros(3)},
                                         {"a": np.zeros((2, 2))}])
    def test_malformed_tables_rejected(self, columns):
        with pytest.raises(ValueError):
            ColumnTable(columns)


# --------------------------------------------------------------------- #
# byte identity: every serve-benchmark sweep shape vs the dict-rows path
# --------------------------------------------------------------------- #
SWEEP_STARTS = range(128, 256, 8)


@pytest.mark.parametrize("k", [1, 4, 16, 64, 256])
def test_benchmark_sweep_grids_match_dict_rows(k):
    """``pe=S:S+8(k-1):8,freq=200:1000:200`` Pareto bodies, 16 starts each."""
    engine, network, base = create_engine("analytical-batch"), alexnet(), ChainConfig()
    for start in SWEEP_STARTS:
        spec = f"pe={start}:{start + 8 * (k - 1)}:8,freq=200:1000:200"
        grid = DesignGrid.parse(spec, base=base, default_batch=16)
        result = engine.evaluate_batch(network, grid, base=base)
        pareto, top = payloads.reduce_grid_result(
            result, DEFAULT_OBJECTIVES, "gops_per_watt", None, True)
        payload = payloads.grid_payload(spec, "analytical-batch", "alexnet", result,
                                        pareto, top, DEFAULT_OBJECTIVES, "gops_per_watt")
        assert payload["pareto"]["points"].templated, spec
        reference = {"grid": spec, "engine": "analytical-batch", "network": "alexnet",
                     "n_points": result.n_points,
                     "pareto": {"objectives": list(DEFAULT_OBJECTIVES),
                                "points": old_rows(pareto)}}
        assert payloads.dumps(payload) == reference_dumps(reference), spec


def test_pareto_and_top_tables_in_one_payload():
    result = create_engine("analytical-batch").evaluate_batch(
        alexnet(), DesignGrid.parse("pe=128:1152:32,freq=200:1000:50"))
    pareto, top = payloads.reduce_grid_result(
        result, DEFAULT_OBJECTIVES, "fps", 7, True)
    payload = payloads.grid_payload("g", "analytical-batch", "alexnet", result,
                                    pareto, top, DEFAULT_OBJECTIVES, "fps")
    reference = dict(payload, pareto={"objectives": list(DEFAULT_OBJECTIVES),
                                      "points": old_rows(pareto)},
                     top={"metric": "fps", "points": old_rows(top)})
    assert payloads.dumps(payload) == reference_dumps(reference)
