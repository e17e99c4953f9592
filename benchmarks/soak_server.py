#!/usr/bin/env python
"""Soak a real multi-worker ``tydi-serve`` daemon and prove the pool's ops story.

The CI replacement for the old single-request server smoke job.  It:

1. spawns ``tydi-serve serve --workers N`` as a **subprocess** (the real
   CLI, the real fork path, a real TCP port),
2. drives it with ``--clients`` concurrent client threads for
   ``--duration`` seconds of interleaved load -- TPC-H query designs
   re-opened and recompiled, synthetic designs under continuous
   fuzzed edits (``update_file`` + ``get_ir`` round trips, with
   ``get_diagnostics`` / ``get_outputs`` mixed in), plus a simulable
   pipeline per client driven through ``simulate_design`` under fuzzed
   plans and occasional edits (the ``sim:`` tier under concurrency),
3. runs an IR round-trip smoke against the still-warm daemon: a design's
   emitted Tydi-IR document is re-opened via ``open_ir_design`` and both
   designs must produce byte-identical outputs over the wire,
4. then runs the same load against a ``--baseline-workers`` daemon and
   compares aggregate warm request throughput; both daemons share a fresh
   ``--cache-dir`` among their workers, under a ``--max-cache-mb`` budget
   small enough that the disk tier evicts during the load,
5. then (unless ``--no-remote``) runs a third phase against a daemon
   wired to a real ``tydi-cachesvc`` subprocess via ``--remote-cache``,
   and **kills the cache server halfway through the load** -- proving the
   remote L2 tier degrades to local-only without a single failed request,
6. asserts the ops invariants: **zero worker restarts** under healthy
   load, **no protocol-level failures** (compile errors from fuzzed edits
   are expected and counted separately) *including through the mid-soak
   cache kill*, the **IR round trip holding in every phase**, the
   daemon's ``requests`` count equal to the request lines sent to it (one
   per client is not JSON, and counts too), a **clean
   drain** on shutdown (``drained: true`` and exit code 0), a shared disk
   tier that **evicts without a single disk error**, and -- with
   ``--assert-floor`` -- the multi-worker daemon serving >= ``--floor`` x
   the baseline's requests/s,
7. writes one JSON artifact (``--output``) that CI uploads.

``--assert-floor`` is passed only in CI (4-vCPU runners); locally on small
machines the soak still proves correctness and the clean drain, and the
throughput ratio is recorded without being asserted.

Usage::

    PYTHONPATH=src python benchmarks/soak_server.py \\
        --workers 4 --clients 6 --duration 20 --assert-floor
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import re
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import TydiServerError  # noqa: E402
from repro.server import CompileClient, RemoteCompileError  # noqa: E402
from repro.testing import build_random_design, mutate_design  # noqa: E402

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")

#: The disk budget of the multi-worker and baseline phases: small enough
#: that the workers' shared disk tier evicts within a few seconds of load.
DISK_BUDGET_MB = 0.25

#: The per-worker ``stage_cache`` disk counters each phase records (summed).
DISK_COUNTERS = ("disk_stores", "disk_hits", "disk_errors", "disk_evictions")


def _spawn_announced(argv: list[str]) -> tuple[subprocess.Popen, str, int]:
    """Spawn a subprocess and parse its ``listening on host:port`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 60
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = _LISTENING.search(line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.kill()
    raise RuntimeError(
        f"{argv[2]}: subprocess did not announce a port (exit={proc.poll()})"
    )


class Daemon:
    """One ``tydi-serve`` subprocess bound to an ephemeral port."""

    def __init__(
        self,
        workers: int,
        *,
        remote_cache: str | None = None,
        cache_dir: str | None = None,
        profile_stages: bool = False,
    ) -> None:
        argv = [
            sys.executable, "-m", "repro.server.cli", "serve",
            "--port", "0", "--workers", str(workers),
        ]
        if cache_dir:
            argv += ["--cache-dir", cache_dir, "--max-cache-mb", str(DISK_BUDGET_MB)]
        if remote_cache:
            argv += ["--remote-cache", remote_cache]
        if profile_stages:
            argv += ["--profile-stages"]
        self.proc, self.host, self.port = _spawn_announced(argv)

    def shutdown(self) -> tuple[dict, int]:
        """Request a drain-shutdown; returns (reply, exit_code)."""
        with CompileClient(self.host, self.port, connect_retry_for=5) as client:
            reply = client.shutdown()
        exit_code = self.proc.wait(timeout=60)
        return reply, exit_code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


class CacheDaemon:
    """One ``tydi-cachesvc`` subprocess bound to an ephemeral port.

    The remote-phase victim: the soak SIGKILLs it halfway through the
    load to prove every worker degrades to local-only caching instead of
    failing requests.
    """

    def __init__(self) -> None:
        self.proc, self.host, self.port = _spawn_announced(
            [sys.executable, "-m", "repro.server.cachesvc", "--port", "0"]
        )

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def ir_roundtrip_smoke(host: str, port: int) -> dict:
    """One IR round trip through the live daemon.

    Opens a language design, re-opens its emitted Tydi-IR document via
    ``open_ir_design``, and requires the outputs of both designs to be
    byte-identical -- the interchange correctness spine
    ``emit(ingest(emit(P))) == emit(P)``, exercised over a real TCP
    connection against the pool that just survived the soak load.
    """
    sources = build_random_design(random.Random(99))
    targets = ("vhdl", "tydi-ir")
    with CompileClient(host, port, connect_retry_for=10) as client:
        client.open_design("smoke_lang", files={f: t for t, f in sources})
        document = next(iter(client.get_outputs("smoke_lang", "tydi-ir").values()))
        client.open_ir_design("smoke_ir", document)
        identical = all([
            client.get_outputs("smoke_lang", target)
            == client.get_outputs("smoke_ir", target)
            for target in targets
        ])
    return {"ok": identical, "document_bytes": len(document),
            "requests": 3 + 2 * len(targets)}


def send_malformed(host: str, port: int) -> bool:
    """One request line that is not JSON, on its own connection; whether it
    was answered with a server-stage error envelope."""
    with socket.create_connection((host, port), timeout=30) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"{not json\n")
        handle.flush()
        envelope = json.loads(handle.readline())
    return not envelope["ok"] and envelope["error"]["stage"] == "server"


def tpch_jobs() -> list:
    from repro.queries import QUERIES

    return [QUERIES[name].compile_job() for name in sorted(QUERIES)]


def sim_pipeline(constant: int) -> str:
    """A simulable add-constant/accumulate pipeline (stdlib primitives)."""
    return (
        "type num = Stream(Bit(32), d=1);\n"
        "streamlet top_s { values: num in, total: num out, }\n"
        "impl top_i of top_s {\n"
        f"    instance k(const_int_generator_i<type num, {constant}>),\n"
        "    instance add(adder_i<type num, type num>),\n"
        "    instance acc(sum_i<type num, type num>),\n"
        "    values => add.lhs,\n"
        "    k.output => add.rhs,\n"
        "    add.output => acc.input,\n"
        "    acc.output => total,\n"
        "}\n"
        "top top_i;\n"
    )


class ClientStats:
    __slots__ = ("requests", "compile_errors", "failures", "simulations")

    def __init__(self) -> None:
        self.requests = 0
        self.compile_errors = 0
        self.failures: list[str] = []
        self.simulations = 0


def run_load(
    host: str, port: int, *, clients: int, duration: float, seed: int
) -> dict:
    """Drive the soak workload; returns aggregate counters."""
    jobs = tpch_jobs()
    stop = threading.Event()
    stats = [ClientStats() for _ in range(clients)]

    def one_client(index: int) -> None:
        rng = random.Random(seed * 1000 + index)
        record = stats[index]
        job = jobs[index % len(jobs)]
        tpch_name = f"soak_tpch_{index}"
        fuzz_name = f"soak_fuzz_{index}"
        sim_name = f"soak_sim_{index}"
        sim_constant = 10 + index
        tpch_files = {filename: text for text, filename in job.sources}
        fuzz_sources = build_random_design(rng)
        # A small pool of plans per client: repeats exercise the sim: cache
        # tier, fresh ones exercise the simulator, all under concurrency.
        sim_plans = [
            {
                "stimuli": {"values": [rng.randint(0, 99)
                                       for _ in range(rng.randint(1, 8))]},
                "channel_capacity": rng.choice([1, 2, 4]),
            }
            for _ in range(3)
        ]
        try:
            record.requests += 1
            if not send_malformed(host, port):
                record.failures.append(f"client {index}: a non-JSON line was not refused")
            with CompileClient(host, port, connect_retry_for=10) as client:
                def call(method, *args, **kwargs):
                    record.requests += 1
                    try:
                        return getattr(client, method)(*args, **kwargs)
                    except RemoteCompileError:
                        record.compile_errors += 1
                        return None

                call("open_design", fuzz_name,
                     files={f: t for t, f in fuzz_sources})
                call("open_design", sim_name,
                     files={"sim.td": sim_pipeline(sim_constant)})
                while not stop.is_set():
                    roll = rng.random()
                    if roll < 0.15:
                        # A TPC-H compile: open (replace) + full query.
                        call("open_design", tpch_name, files=tpch_files,
                             options={"top": job.options.top,
                                      "sugaring": job.options.sugaring})
                        call("get_ir", tpch_name)
                    elif roll < 0.30:
                        # A plan-driven simulation; sometimes edit the
                        # design first so the sim: tier sees invalidation
                        # races, not just warm repeats.
                        if rng.random() < 0.3:
                            sim_constant += 1
                            call("update_file", sim_name, "sim.td",
                                 sim_pipeline(sim_constant))
                        if call("simulate_design", sim_name,
                                rng.choice(sim_plans)) is not None:
                            record.simulations += 1
                    elif roll < 0.85:
                        # A fuzzed edit round trip on the synthetic design.
                        before = dict((f, t) for t, f in fuzz_sources)
                        fuzz_sources, _ = mutate_design(rng, fuzz_sources)
                        after = dict((f, t) for t, f in fuzz_sources)
                        for filename in set(before) | set(after):
                            if before.get(filename) != after.get(filename):
                                if filename not in after:
                                    call("remove_file", fuzz_name, filename)
                                else:
                                    call("update_file", fuzz_name, filename,
                                         after[filename])
                        call("get_ir", fuzz_name)
                    elif roll < 0.95:
                        call("get_diagnostics", fuzz_name)
                    else:
                        call("get_outputs", fuzz_name, "ir")
        except (TydiServerError, OSError) as exc:
            record.failures.append(f"client {index}: {exc}")
        except Exception as exc:
            # A crashed client would otherwise just shrink the load.
            record.failures.append(f"client {index} crashed: {exc!r}")

    threads = [threading.Thread(target=one_client, args=(i,)) for i in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.monotonic() - start

    total_requests = sum(record.requests for record in stats)
    return {
        "clients": clients,
        "duration_s": round(elapsed, 2),
        "requests": total_requests,
        "requests_per_s": round(total_requests / elapsed, 2) if elapsed else 0.0,
        "compile_errors": sum(record.compile_errors for record in stats),
        "simulate_requests": sum(record.simulations for record in stats),
        "failures": [msg for record in stats for msg in record.failures],
    }


def soak(
    workers: int,
    *,
    clients: int,
    duration: float,
    seed: int,
    remote_cache: str | None = None,
    cache_dir: str | None = None,
    profile_stages: bool = False,
) -> dict:
    """One full soak phase: spawn daemon, load it, collect stats, drain."""
    daemon = Daemon(workers, remote_cache=remote_cache, cache_dir=cache_dir,
                    profile_stages=profile_stages)
    try:
        load = run_load(daemon.host, daemon.port, clients=clients,
                        duration=duration, seed=seed)
        roundtrip = ir_roundtrip_smoke(daemon.host, daemon.port)
        with CompileClient(daemon.host, daemon.port, connect_retry_for=5) as client:
            server_stats = client.stats()
        reply, exit_code = daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise
    pool_stats = server_stats.get("pool") or {}
    phase = {
        "workers": workers,
        **load,
        # Every request line sent before the stats call, the non-JSON ones
        # included; the stats reply does not count itself.
        "requests_sent": load["requests"] + roundtrip["requests"],
        "server_requests": server_stats["server"]["requests"],
        "read_memo": server_stats["server"]["read_memo"],
        "ir_roundtrip": roundtrip,
        "worker_restarts": pool_stats.get("restarts", 0),
        "shutdown": reply,
        "exit_code": exit_code,
    }
    if remote_cache is not None:
        phase["remote_cache"] = _aggregate_remote_counters(server_stats)
    if cache_dir is not None:
        # Pool mode sums the workers' stage_cache counters already.
        stage = (server_stats.get("workspace") or {}).get("stage_cache") or {}
        phase["disk_cache"] = {name: stage.get(name, 0) for name in DISK_COUNTERS}
    if profile_stages:
        phase["profiling"] = (server_stats.get("workspace") or {}).get("profiling")
    return phase


def _aggregate_remote_counters(server_stats: dict) -> dict[str, int]:
    """Sum the remote-tier client counters across every pool worker."""
    totals: dict[str, int] = {}
    pool_stats = server_stats.get("pool") or {}
    workspaces = [
        entry.get("workspace")
        for entry in pool_stats.get("per_worker", ())
    ] or [server_stats.get("workspace")]
    for workspace in workspaces:
        remote = ((workspace or {}).get("cache") or {}).get("remote") or {}
        for key, value in remote.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return totals


def disk_soak(workers: int, **kwargs) -> dict:
    """One soak phase whose workers share a fresh, budgeted cache dir."""
    cache_dir = tempfile.mkdtemp(prefix="soak-cache-")
    try:
        return soak(workers, cache_dir=cache_dir, **kwargs)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def remote_soak(workers: int, *, clients: int, duration: float, seed: int) -> dict:
    """The remote-cache phase: soak through a live L2, kill it mid-run.

    Spawns a real ``tydi-cachesvc`` subprocess, points the daemon at it,
    and SIGKILLs the cache server at half the load duration.  The
    invariants checked by ``main`` are the same as for the other phases --
    in particular **zero protocol failures and zero worker restarts**:
    losing the remote tier mid-compile must degrade to local-only caching,
    never fail a request.
    """
    cache = CacheDaemon()
    kill_after = duration / 2
    killer = threading.Timer(kill_after, cache.kill)
    try:
        killer.start()
        phase = soak(workers, clients=clients, duration=duration, seed=seed,
                     remote_cache=cache.endpoint)
    finally:
        killer.cancel()
        cache.kill()
    phase["cache_endpoint"] = cache.endpoint
    phase["cache_killed_after_s"] = round(kill_after, 2)
    phase["cache_exit_code"] = cache.proc.poll()
    return phase


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--baseline-workers", type=int, default=1)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--duration", type=float, default=20.0,
                        help="seconds of load per phase (default: 20)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--floor", type=float, default=2.0,
                        help="required multi/baseline req/s ratio (default: 2.0)")
    parser.add_argument("--assert-floor", action="store_true",
                        help="fail when the throughput ratio is below --floor "
                        "(CI only; needs >= --workers CPUs to be meaningful)")
    parser.add_argument("--no-remote", action="store_true",
                        help="skip the remote-cache kill phase")
    parser.add_argument("--profile-stages", action="store_true",
                        help="run the daemons with per-stage profiling enabled "
                        "and assert stage timings surface in the stats reply")
    parser.add_argument("--output", type=pathlib.Path,
                        default=pathlib.Path("benchmark-artifacts/soak.json"))
    args = parser.parse_args(argv)

    print(f"soak: {args.workers} workers, {args.clients} clients, "
          f"{args.duration:.0f}s per phase", flush=True)
    multi = disk_soak(args.workers, clients=args.clients, duration=args.duration,
                      seed=args.seed, profile_stages=args.profile_stages)
    print(f"soak: multi-worker phase: {multi['requests']} requests "
          f"({multi['requests_per_s']}/s), {multi['compile_errors']} compile "
          f"errors, {multi['simulate_requests']} simulations, "
          f"restarts={multi['worker_restarts']}, disk {multi['disk_cache']}", flush=True)
    baseline = disk_soak(args.baseline_workers, clients=args.clients,
                         duration=args.duration, seed=args.seed)
    print(f"soak: baseline ({args.baseline_workers} worker): "
          f"{baseline['requests']} requests ({baseline['requests_per_s']}/s), "
          f"disk {baseline['disk_cache']}", flush=True)
    remote = None
    if not args.no_remote:
        remote = remote_soak(args.workers, clients=args.clients,
                             duration=args.duration, seed=args.seed)
        counters = remote["remote_cache"]
        print(f"soak: remote-cache phase (L2 killed at "
              f"{remote['cache_killed_after_s']:.0f}s): {remote['requests']} "
              f"requests, {len(remote['failures'])} failures, "
              f"restarts={remote['worker_restarts']}, remote gets="
              f"{counters.get('gets', 0)} errors={counters.get('errors', 0)} "
              f"skips={counters.get('skips', 0)}", flush=True)

    ratio = (multi["requests_per_s"] / baseline["requests_per_s"]
             if baseline["requests_per_s"] else float("inf"))
    payload = {
        "cpu_count": os.cpu_count(),
        "multi": multi,
        "baseline": baseline,
        "remote": remote,
        "throughput_ratio": round(ratio, 2),
        "floor": args.floor,
        "floor_asserted": bool(args.assert_floor),
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2))
    print(f"soak: throughput ratio {ratio:.2f}x "
          f"(artifact: {args.output})", flush=True)

    problems = []
    phases = [(multi, f"{multi['workers']}-worker phase"),
              (baseline, f"{baseline['workers']}-worker phase")]
    if remote is not None:
        phases.append((remote, "remote-cache phase"))
        counters = remote["remote_cache"]
        if not counters.get("gets") and not counters.get("puts"):
            problems.append(
                "remote-cache phase: workers recorded no remote traffic at "
                "all (endpoint never wired through?)"
            )
        if remote["cache_exit_code"] is None:
            problems.append("remote-cache phase: cache server outlived its kill")
    for phase, tag in phases:
        if phase["failures"]:
            problems.append(f"{tag}: protocol failures: {phase['failures'][:3]}")
        if phase["worker_restarts"]:
            problems.append(f"{tag}: {phase['worker_restarts']} worker restart(s) "
                            f"under healthy load")
        if not (phase["shutdown"].get("stopping") and phase["shutdown"].get("drained")):
            problems.append(f"{tag}: unclean drain: {phase['shutdown']}")
        if phase["exit_code"] != 0:
            problems.append(f"{tag}: daemon exit code {phase['exit_code']}")
        if phase["server_requests"] != phase["requests_sent"]:
            problems.append(f"{tag}: the daemon counted {phase['server_requests']} "
                            f"requests of the {phase['requests_sent']} sent")
        if phase["requests"] < args.clients * 2:
            problems.append(f"{tag}: implausibly few requests ({phase['requests']})")
        if not phase.get("simulate_requests"):
            problems.append(f"{tag}: no simulate_design traffic")
        disk = phase.get("disk_cache")
        if disk is not None and disk["disk_errors"]:
            problems.append(f"{tag}: {disk['disk_errors']} disk error(s) in the shared cache dir")
        if disk is not None and not disk["disk_evictions"]:
            problems.append(f"{tag}: the {DISK_BUDGET_MB} MB disk budget never evicted")
        if not phase.get("ir_roundtrip", {}).get("ok"):
            problems.append(
                f"{tag}: IR round-trip smoke failed "
                f"(open_ir_design outputs diverged from the source design)"
            )
    if args.assert_floor and ratio < args.floor:
        problems.append(
            f"throughput ratio {ratio:.2f}x below the {args.floor}x floor"
        )
    if args.profile_stages:
        # The stats reply of a --profile-stages daemon must carry summed
        # per-stage timings from the pool workers (parse ran thousands of
        # times under this load; a zero count means the wiring is broken).
        profiling = multi.get("profiling") or {}
        parse_count = ((profiling.get("stages") or {}).get("parse") or {}).get("count", 0)
        if not profiling.get("enabled") or parse_count <= 0:
            problems.append(
                f"--profile-stages: no parse stage timings in the multi-worker "
                f"stats reply (profiling block: {profiling!r:.200})"
            )
        else:
            print(f"soak: profiling: parse ran {parse_count} times "
                  f"({profiling['stages']['parse']['wall_ms']:.0f} ms wall)",
                  flush=True)

    for problem in problems:
        print(f"soak: FAIL: {problem}", flush=True)
    if not problems:
        print("soak: all invariants held", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
