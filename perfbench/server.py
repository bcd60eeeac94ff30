"""Server entry point of the served workloads.

Builds (or builds, saves and reloads) the workload's index from its
seed, serves it with :class:`repro.serve.QueryServer` on a unix socket,
and drains on SIGTERM.  The process exits 0 only after a graceful drain.

``--trace FILE`` installs the span recorder of :mod:`tracing` before the
server starts and writes the spans (and, for ``vec-shard-mmap``, the
query rows of every engine call) to ``FILE`` after the drain.

    python3 perfbench/server.py --workload dict-approx --seed 1 \\
        --socket .perfbench/dict-approx.sock
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

import common

common.bootstrap()

import workloads  # noqa: E402


def build_index(name: str, seed: int):
    """The workload's served index, ready to answer (workers spawned)."""
    if name == workloads.DICT.name:
        return workloads.dict_index(workloads.dict_database())
    if name == workloads.VEC.name:
        database, pool = workloads.vec_data(seed)
        common.WORK.mkdir(exist_ok=True)
        path = common.WORK / f"{name}.v3"
        # Written aside and renamed into place, so a server launched
        # while another one serves leaves the other's mapped file intact.
        staged = path.with_name(f"{path.name}.{os.getpid()}")
        workloads.vec_write_payload(database, staged)
        os.replace(staged, path)
        index = workloads.vec_load(path, database, resident=True)
        # Spawn and load the resident workers now: set-up, not traffic.
        index.knn_approx_batch_arrays(pool[:1], 1, budget=1)
        index.reset_stats()
        return index
    raise SystemExit(f"server: unknown served workload {name!r}")


async def serve(args) -> None:
    from repro.serve import QueryServer

    index = build_index(args.workload, args.seed)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder(keep_windows=args.workload == workloads.VEC.name)
    server = QueryServer(index, unix_path=args.socket)
    if recorder is not None:
        tracing.install_server(recorder, server)
    await server.start()
    server.install_signal_handlers()
    await server.serve_until_drained()
    if recorder is not None:
        recorder.write(args.trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
