"""Command-line interface: ``tydi-serve``.

The daemon face of the compile service (:mod:`repro.server`):

.. code-block:: console

    $ tydi-serve serve --port 4780 --jobs 4 --cache-dir .tydi-cache &
    tydi-serve: listening on 127.0.0.1:4780 (jobs=4)

    $ tydi-serve request open_design --port 4780 \\
          --param design=adder --file adder.td
    $ tydi-serve request get_ir --port 4780 --param design=adder
    $ tydi-serve shutdown --port 4780

``serve`` runs one :class:`~repro.server.service.CompileService` over one
shared :class:`~repro.workspace.Workspace` until a client sends
``shutdown`` (or the process receives SIGINT/SIGTERM).  ``request`` sends
one request and prints the raw response envelope as JSON -- the scripting
primitive the CI smoke test builds on; ``--param key=value`` values parse
as JSON when they can (so ``--param replace=true`` is a boolean) and fall
back to plain strings, ``--file path.td`` attaches source files to an
``open_design``.  ``shutdown`` is sugar for ``request shutdown``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import signal
import sys
from typing import Any


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tydi-serve",
        description="Run or talk to the Tydi-lang compile service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the compile daemon until shutdown")
    _add_endpoint_args(serve)
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="compile thread-pool width (default: CPU count, capped at 8)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="fork N compile worker processes and shard designs across them "
        "by stable name hash (0, the default: compile in-process on the "
        "--jobs thread pool)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed compilation cache directory shared with tydi-compile",
    )
    serve.add_argument(
        "--max-cache-mb",
        type=float,
        default=None,
        metavar="MB",
        help="bound the on-disk cache to this many megabytes (requires --cache-dir)",
    )
    serve.add_argument(
        "--remote-cache",
        default=None,
        metavar="HOST:PORT",
        help="shared remote L2 cache endpoint (a tydi-serve cache daemon); "
        "consulted after memory and disk miss, with write-behind upload; "
        "pool workers each dial the same endpoint",
    )
    serve.add_argument(
        "--profile-stages",
        action="store_true",
        help="record per-stage wall/CPU timings in this daemon (and its "
        "pool workers); exposed under the stats endpoint's "
        "workspace.profiling block",
    )

    cache = sub.add_parser(
        "cache", help="run the shared remote cache daemon until SIGINT"
    )
    cache.add_argument("--host", default="127.0.0.1", help="bind address")
    cache.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (default: 4781; 0 for an ephemeral port)",
    )
    cache.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="in-memory store budget in megabytes (LRU-evicted; default: 512)",
    )

    request = sub.add_parser("request", help="send one request, print the JSON envelope")
    request.add_argument("method", help="request method (e.g. ping, get_ir, stats)")
    _add_endpoint_args(request)
    request.add_argument(
        "--param",
        action="append",
        dest="params",
        default=None,
        metavar="KEY=VALUE",
        help="one request parameter; VALUE parses as JSON when it can "
        "(--param replace=true), else as a plain string; repeatable",
    )
    request.add_argument(
        "--json",
        dest="params_json",
        default=None,
        metavar="PARAMS",
        help="the whole params object as one JSON document (merged under --param)",
    )
    request.add_argument(
        "--file",
        action="append",
        dest="files",
        default=None,
        metavar="PATH",
        help="attach a source file as files[PATH] (for open_design); repeatable",
    )
    request.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="request timeout (default: 60)",
    )
    for command in (request,):
        command.add_argument(
            "--retry-for",
            type=float,
            default=5.0,
            metavar="SECONDS",
            help="keep retrying a refused connection for this long -- covers "
            "the race against a daemon still binding (default: 5)",
        )

    shutdown = sub.add_parser("shutdown", help="ask a running daemon to stop")
    _add_endpoint_args(shutdown)
    shutdown.add_argument(
        "--retry-for",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="connect retry window (default: 0 -- a dead daemon fails fast)",
    )
    return parser


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind/connect address")
    parser.add_argument(
        "--port",
        type=int,
        default=4780,
        help="TCP port (default: 4780; serve accepts 0 for an ephemeral port)",
    )


def _run_serve(args: argparse.Namespace) -> int:
    from repro.errors import TydiError
    from repro.server.service import CompileService
    from repro.server.transport import serve

    if args.profile_stages:
        import os

        from repro.tracing import ENV_VAR, STAGES

        # The env var (read at import time) makes forked/spawned pool
        # workers profile too; STAGES.enable() covers this process.
        os.environ[ENV_VAR] = "1"
        STAGES.enable()

    try:
        service = CompileService(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            max_cache_mb=args.max_cache_mb,
            remote_cache=args.remote_cache,
            workers=args.workers,
        )
    except (TydiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def announce(server) -> None:
        host, port = server.address
        mode = f"workers={args.workers}" if args.workers else f"jobs={service.jobs}"
        print(f"tydi-serve: listening on {host}:{port} ({mode})", flush=True)

    async def main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.shutdown_requested.set)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-Unix loop, or not the main thread (tests): Ctrl-C
                # still lands as KeyboardInterrupt.
                pass
        await serve(service, host=args.host, port=args.port, on_ready=announce)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    print("tydi-serve: stopped", flush=True)
    return 0


def _parse_param_value(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _collect_params(args: argparse.Namespace) -> dict[str, Any]:
    params: dict[str, Any] = {}
    if args.params_json:
        try:
            document = json.loads(args.params_json)
        except ValueError as exc:
            raise SystemExit(f"error: --json is not valid JSON: {exc}")
        if not isinstance(document, dict):
            raise SystemExit("error: --json must be a JSON object")
        params.update(document)
    for spec in args.params or ():
        key, sep, value = spec.partition("=")
        if not sep or not key:
            raise SystemExit(f"error: --param expects KEY=VALUE, got {spec!r}")
        params[key] = _parse_param_value(value)
    if args.files:
        files = dict(params.get("files") or {})
        for path_text in args.files:
            path = pathlib.Path(path_text)
            try:
                files[str(path)] = path.read_text()
            except OSError as exc:
                raise SystemExit(f"error: cannot read {path}: {exc.strerror or exc}")
        params["files"] = files
    return params


def _run_request(args: argparse.Namespace, method: str, params: dict[str, Any]) -> int:
    from repro.errors import TydiServerError
    from repro.server.client import CompileClient

    timeout = getattr(args, "timeout", 60.0)
    retry_for = getattr(args, "retry_for", 0.0)
    try:
        with CompileClient(
            args.host, args.port, timeout=timeout, connect_retry_for=retry_for
        ) as client:
            envelope = client.request_envelope(method, params)
    except TydiServerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(envelope, indent=2, sort_keys=True))
    return 0 if envelope.get("ok") else 1


def _run_cache(args: argparse.Namespace) -> int:
    from repro.server.cachesvc import main as cachesvc_main

    forwarded = ["--host", args.host]
    if args.port is not None:
        forwarded += ["--port", str(args.port)]
    if args.max_mb is not None:
        forwarded += ["--max-mb", str(args.max_mb)]
    return cachesvc_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "shutdown":
        return _run_request(args, "shutdown", {})
    return _run_request(args, args.method, _collect_params(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
