"""Traced serve-stream server: ``repro serve --shards 1`` with the ledger.

Installs the per-layer ledger at import, then runs the same server the
untraced runs start with ``python -m repro serve --shards 1 --port 0
--admin-port 0``.  The shard worker is a spawned process, and spawn re-runs
this file in the worker as ``__mp_main__``, so the worker installs the
ledger too.  Each process writes its spans to ``$PERFBENCH_SPANS`` when it
exits: the manager after its drain, the worker at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
from pathlib import Path

import ledger

LEDGER = ledger.Ledger()
ledger.install(LEDGER)


def _dump(role: str) -> None:
    out = Path(os.environ["PERFBENCH_SPANS"])
    LEDGER.dump(out / f"{role}-{os.getpid()}.json")


def main() -> None:
    import asyncio

    from repro.serve.server import ServeConfig, serve

    asyncio.run(serve(ServeConfig(port=0, shards=1, admin_port=0)))
    _dump("manager")


if __name__ == "__main__":
    main()
elif __name__ == "__mp_main__":
    atexit.register(_dump, "worker")
