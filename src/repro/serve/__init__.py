"""`repro.serve` — the JSON-lines request dispatcher and its stdio loop.

A :class:`ServeDispatcher` keeps one single-threaded
:class:`~repro.api.Session` (and therefore one warm query cache) alive
across many requests. ``repro serve --stdio`` drives one in-process
via :func:`serve_stdio`; ``repro serve --workers N`` runs one in each
:mod:`repro.cluster` worker process. See :mod:`repro.serve.server` for
the protocol.
"""

from repro.serve.server import (
    REQUEST_DISPATCH,
    ServeDispatcher,
    encode_response,
    serve_stdio,
)

__all__ = [
    "REQUEST_DISPATCH",
    "ServeDispatcher",
    "encode_response",
    "serve_stdio",
]
