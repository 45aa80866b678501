"""JSON response payloads shared by the CLI and the evaluation server.

The service promises byte-identical responses to the equivalent
``repro <command> --json`` invocation.  Rather than asserting that with
tests alone, the payload construction itself is shared: the CLI handlers
and the server routes both call these builders, so the two surfaces
cannot drift.  Everything here is synchronous and asyncio-free.

Sweep frontiers dominate the response bytes, and ``json.dumps`` with
``indent`` runs CPython's pure-Python encoder one value at a time.  So
:func:`grid_payload` hands its point lists over as :class:`ColumnTable`
columns, and :func:`dumps` formats every row of such a table from one
precomputed template.  Everything else still goes through ``json.dumps``,
and the bytes are identical to dumping the equivalent list of row dicts.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.analysis.batch import HIGHER_IS_BETTER

__all__ = [
    "ColumnTable",
    "GRID_ENGINE_UPGRADES",
    "dumps",
    "grid_payload",
    "map_payload",
    "reduce_grid_result",
    "run_payload",
    "upgrade_grid_engine",
    "verify_payload",
]

#: the columnar engines are numerically identical to their scalar
#: counterparts; dense grids dispatch to them in either fidelity mode
GRID_ENGINE_UPGRADES = {
    "analytical": "analytical-batch",
    "analytical-detailed": "analytical-batch-detailed",
}


def upgrade_grid_engine(name: str) -> str:
    """Engine actually used for a dense-grid sweep."""
    return GRID_ENGINE_UPGRADES.get(name, name)


#: column dtypes whose ``tolist()`` values ``%r`` formats exactly as
#: ``json.dumps`` does (finite floats only; bool is not int64)
_TEMPLATE_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


class ColumnTable:
    """A list of flat rows held as one Python list per column.

    JSON-encodes exactly like the list of row dicts :meth:`rows` returns.
    Whether :func:`dumps` may format it from a row template is decided
    once per column, from the NumPy dtype and a whole-column finiteness
    check.
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        arrays = {name: np.asarray(column) for name, column in columns.items()}
        lengths = {array.shape for array in arrays.values()}
        if len(lengths) != 1 or len(next(iter(lengths))) != 1:
            raise ValueError(
                f"table columns must be 1D and equally long, got shapes {sorted(lengths)}")
        self.names: Tuple[str, ...] = tuple(sorted(arrays))
        self.columns: List[list] = [arrays[name].tolist() for name in self.names]
        self.templated = all(
            array.dtype in _TEMPLATE_DTYPES
            and (array.dtype.kind != "f" or bool(np.isfinite(array).all()))
            for array in arrays.values())

    def rows(self) -> List[Dict[str, Any]]:
        """The table as row dicts (keys in sorted order)."""
        return [dict(zip(self.names, values)) for values in zip(*self.columns)]

    def encode(self, level: int) -> str:
        """The text ``json.dumps(self.rows(), indent=2, sort_keys=True)``
        produces for this table nested ``level`` containers deep."""
        if not self.columns[0]:
            return "[]"
        row_indent = "\n" + "  " * (level + 1)
        key_indent = row_indent + "  "
        template = "{" + ",".join(
            key_indent + json.dumps(name).replace("%", "%%") + ": %r"
            for name in self.names) + row_indent + "}"
        rows = ("," + row_indent).join([template % values
                                        for values in zip(*self.columns)])
        return "[" + row_indent + rows + "\n" + "  " * level + "]"


def _stub_tables(payload: Any,
                 tables: Optional[List[Tuple[str, ColumnTable]]]) -> Any:
    """Copy of ``payload`` with each templated table swapped for a unique
    placeholder string (collected into ``tables``) and every other table
    for its row dicts (all of them when ``tables`` is None)."""
    if isinstance(payload, ColumnTable):
        if tables is None or not payload.templated:
            return payload.rows()
        placeholder = f"\x00table{len(tables)}\x00"
        tables.append((json.dumps(placeholder), payload))
        return placeholder
    if isinstance(payload, dict):
        return {key: _stub_tables(value, tables) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_stub_tables(value, tables) for value in payload]
    return payload


def _encode(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def dumps(payload: Any) -> str:
    """The one JSON serialisation both surfaces print/transmit:
    ``json.dumps(payload, indent=2, sort_keys=True)``, reading every
    :class:`ColumnTable` as its list of row dicts."""
    tables: List[Tuple[str, ColumnTable]] = []
    text = _encode(_stub_tables(payload, tables))
    for placeholder, table in tables:
        if text.count(placeholder) != 1:
            # some payload string equals a placeholder: no templating
            return _encode(_stub_tables(payload, None))
        start = text.index(placeholder)
        # the placeholder's line indent is the table's nesting level
        line = text[text.rfind("\n", 0, start) + 1:start]
        level = (len(line) - len(line.lstrip(" "))) // 2
        text = text[:start] + table.encode(level) + text[start + len(placeholder):]
    return text


def reduce_grid_result(result, objectives: Tuple[str, ...], metric: str,
                       top: Optional[int], pareto: bool):
    """Frontier/top-K reduction of a grid sweep → ``(pareto, top)`` results.

    Higher-is-better columns are negated for the frontier and ranked
    descending for top-K, so "best" always means best; with no reducer
    requested, the best points by the default metric are reported.
    """
    maximized = tuple(name for name in objectives if name in HIGHER_IS_BETTER)
    pareto_result = (result.pareto(objectives=objectives, maximize=maximized)
                     if pareto else None)
    rank_descending = metric in HIGHER_IS_BETTER
    top_result = (result.top_k(metric, top, maximize=rank_descending)
                  if top else None)
    if pareto_result is None and top_result is None:
        top_result = result.top_k(metric, min(10, result.n_points),
                                  maximize=rank_descending)
    return pareto_result, top_result


def grid_payload(grid_spec: str, engine: str, network: str, result,
                 pareto, top, objectives: Tuple[str, ...],
                 metric: str) -> Dict[str, Any]:
    """``sweep --grid --json`` response body."""
    payload: Dict[str, Any] = {
        "grid": grid_spec,
        "engine": engine,
        "network": network,
        "n_points": result.n_points,
    }
    if pareto is not None:
        payload["pareto"] = {"objectives": list(objectives),
                             "points": ColumnTable(pareto.report_columns())}
    if top is not None:
        payload["top"] = {"metric": metric,
                          "points": ColumnTable(top.report_columns())}
    return payload


def run_payload(record, traffic=None) -> Dict[str, Any]:
    """``run --json`` response body."""
    payload = record.to_json_dict()
    if traffic is not None:
        payload["traffic_mb"] = traffic.table()
    return payload


def map_payload(schedule, algorithm_mode: str,
                verification=None) -> Dict[str, Any]:
    """``map --json`` response body."""
    payload = schedule.to_json_dict()
    payload["algorithm_mode"] = algorithm_mode
    # flattened per-layer choice table: what the search actually picked,
    # in a shape that is directly inspectable and diffable in CI (the
    # nested layers/baseline records carry the full metric vectors)
    payload["chosen"] = {
        entry.layer_name: {
            "algorithm": entry.candidate.algorithm,
            "primitives": entry.candidate.primitives,
            "stripe_height": entry.candidate.stripe_height,
            "chunk": entry.candidate.chunk,
            "interleave": entry.candidate.interleave,
        }
        for entry in schedule.layers
    }
    if verification is not None:
        payload["verification"] = {
            "passed": verification.passed,
            "max_abs_error": verification.max_abs_error,
            "tolerance": 0.0,
            "layers": [
                {
                    "layer": entry.layer_name,
                    "algorithm": entry.candidate.algorithm,
                    "max_abs_error": entry.max_abs_error,
                    "bit_identical": entry.bit_identical,
                    "covers": list(entry.covers),
                    "tolerance": 0.0,
                }
                for entry in verification.layers
            ],
        }
    return payload


def verify_payload(result) -> Dict[str, Any]:
    """``verify`` response body (the CLI prints the text report; the
    service also ships the structured stage table)."""
    return {
        "network": result.network,
        "backend": result.backend,
        "seed": result.seed,
        "passed": result.passed,
        "max_abs_error": result.max_abs_error,
        "tolerance": 0.0,
        "chain_cycles_estimate": result.chain_cycles_estimate,
        "stats": dataclasses.asdict(result.stats),
        "stages": [stage_event(stage) for stage in result.stages],
        "report": result.describe(),
    }


def stage_event(stage) -> Dict[str, Any]:
    """One verification stage as a progress-stream event body."""
    return {
        "stage": stage.name,
        "kind": stage.kind,
        "out_shape": list(stage.out_shape),
        "max_abs_error": stage.max_abs_error,
        "windows_kept": stage.windows_kept,
        "algorithm": stage.algorithm,
    }
