"""Evaluation-as-a-service layer: ``repro serve`` / ``repro request``.

The batch evaluator scores millions of design points per second, but the
CLI feeds it one invocation at a time.  This package turns the same stack
into a long-running service:

* :mod:`repro.serve.server` — stdlib-``asyncio`` HTTP/1.1 JSON server
  accepting concurrent ``run``/``sweep``/``map``/``verify`` requests;
* :mod:`repro.serve.coalesce` — zero-wait micro-batcher: a sweep on an
  idle key is scored at once, and compatible sweeps that queue behind a
  busy one merge into its next columnar ``evaluate_batch`` call, with
  per-request slices scattered back (float-bit-identical to evaluating
  each request alone);
* :mod:`repro.serve.payloads` — response builders shared with the CLI,
  so a coalesced response is byte-identical to ``repro <cmd> --json``;
* :mod:`repro.serve.protocol` — request schemas with CLI-matching
  defaults, plus the minimal HTTP framing;
* :mod:`repro.serve.client` — blocking and asyncio clients
  (``repro request`` uses the blocking one).

Attributes resolve lazily (see :mod:`repro._lazy`), so importing the
package (e.g. for the CLI's payload builders) does not drag in the server
module.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Coalescer": "repro.serve.coalesce",
    "DEFAULT_PORT": "repro.options",
    "EvalServer": "repro.serve.server",
    "ProtocolError": "repro.serve.protocol",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "merge_grids": "repro.serve.coalesce",
    "request_json": "repro.serve.client",
    "scatter_result": "repro.serve.coalesce",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
