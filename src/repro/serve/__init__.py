"""repro.serve — the long-lived edit-serving daemon.

The paper frames EEL as a *library* many tools link against (qpt,
EELsie, SFI); the CLI re-imports the toolchain, re-opens the analysis
cache, and re-reads the image on every invocation.  This package turns
the library into a service: ``repro serve`` keeps analyzed executables
and their cached summaries warm in one process and answers
edit/instrument/disasm/run/verify requests over a local socket using a
line-delimited JSON protocol (one request object per line, one
response object per line).

Layers:

* :mod:`repro.serve.config`   — ``ServeConfig``: knobs from CLI flags
  and defensively parsed ``REPRO_SERVE_*`` environment variables;
* :mod:`repro.serve.protocol` — wire format: framing, error codes,
  request/response builders;
* :mod:`repro.serve.ops`      — request handlers (tool dispatch by
  name, warm-analysis coalescing);
* :mod:`repro.serve.server`   — the server skeleton both servers
  share: listener, per-connection framing, trace tagging, admission
  with in-flight accounting, per-request timeouts, graceful SIGTERM
  drain, and the foreground ``main``;
* :mod:`repro.serve.daemon`   — ``EditServer``, the skeleton's
  worker-pool backend: bounded admission queue with backpressure,
  bounded retry-with-backoff, and degraded serial fallback when the
  pool is unhealthy (:mod:`repro.fleet`'s gateway is the other
  backend);
* :mod:`repro.serve.client`   — ``ServeClient`` plus the ``repro
  client`` command.

Failure semantics (the contract the tests pin):

* queue full        -> ``overloaded`` error with ``retry_after``; the
  admission queue is bounded, it never grows without limit;
* request too slow  -> ``timeout`` error; the worker's result, if it
  ever arrives, is dropped;
* transient faults  -> retried inside the daemon with exponential
  backoff, at most ``retries`` times (cache races, worker death);
* worker death      -> the worker is restarted from a bounded restart
  budget; with no live workers left the daemon *degrades* to serial
  in-process execution instead of going dark;
* SIGTERM           -> drain: finish in-flight requests, reject new
  ones with ``draining``, flush ``serve.*`` counters/spans through
  :mod:`repro.obs`, exit 0.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.daemon import EditServer, serve_main

__all__ = ["EditServer", "ServeClient", "ServeConfig", "ServeError",
           "serve_main"]
