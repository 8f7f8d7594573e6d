"""Prediction-as-a-service: the sessionized predictor facade and server.

This package turns the offline evaluation machinery into a long-running
service:

* :mod:`repro.serve.session` — :class:`PredictorSession`, the stateful
  facade over the offline evaluation path of :mod:`repro.eval.runner`
  (``session.feed(events)`` returns per-load predictions,
  ``session.finish()`` returns the metrics).
* :mod:`repro.serve.protocol` — the length-prefixed JSON/binary wire
  format shared by server and clients.
* :mod:`repro.serve.server` — the asyncio server behind
  ``python -m repro serve`` (micro-batching, backpressure, graceful
  drain).
* :mod:`repro.serve.sharding` — sticky session routing across worker
  processes, reusing the engine's job machinery.

Only the session facade is imported eagerly; the asyncio server and
sharding layers load on demand from the CLI.  Offline evaluation never
imports this package.
"""

from .session import PredictorSession, SessionConfig

__all__ = ["PredictorSession", "SessionConfig"]
