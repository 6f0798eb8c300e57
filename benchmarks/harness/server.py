"""The HTTP server of the ``serve_http_rw`` workload.

Runs ``QueryService`` with its default configuration behind ``HttpFrontend``
on a loopback port, in its own process.  Protocol on standard output:

* ``PORT <n>`` once the frontend listens;
* ``RESET`` after each ``SIGUSR1``, which (with ``--trace 1``) zeroes the
  layer table so that it covers only the timed phase;
* on ``SIGTERM`` the server drains, then prints one JSON line with its peak
  RSS and, when traced, its layer table, and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import sys
from contextlib import nullcontext

from repro.service import QueryService
from repro.service.http import HttpFrontend

from layers import LayerTracer


async def serve(trace: bool) -> None:
    with LayerTracer() if trace else nullcontext() as tracer:
        frontend = await HttpFrontend(QueryService()).start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def reset() -> None:
            if tracer is not None:
                tracer.reset()
            print("RESET", flush=True)

        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGUSR1, reset)
        print(f"PORT {frontend.port}", flush=True)
        await stop.wait()
        await frontend.stop()
        table = tracer.table() if tracer is not None else None
    print(json.dumps({
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": table}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    asyncio.run(serve(bool(parser.parse_args().trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
