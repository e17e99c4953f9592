"""The compile service's read memo, checked read by read against a model.

``tests/test_server_stress.py`` compares only each design's final answers,
so a read that was stale for a while passes it.  Here a hypothesis state
machine drives one served session from two clients: it opens designs
(Tydi-lang and Tydi-IR), edits them (valid and breaking edits), removes
files and designs, reads every method and target, and pipelines
``[read, mutation, read]`` batches.  Every read sent after the previous
response must equal a fresh, uncached compile of the model's sources:
the same IR, outputs and diagnostics, or the same error type and stage.
A read pipelined with a mutation may show either state (in the thread
pool); the reads sent once the batch has answered may not.

The machine runs against ``workers=0`` and ``workers=2``.  The pool runs
each shard's requests in the order they were sent, so there a pipelined
read must show exactly the requests sent before it.  The thread pool keeps
no order; its session's workspace is slow where threads race (what a
thread preempted at that point does), so reads and mutations overtake
each other.  ``--hypothesis-profile=soak`` (``tests/conftest.py``) runs
the machine longer.

The unit tests below pin what the memo must never do: hand out its own
containers, answer for an out-of-service shard or a draining service,
keep error envelopes or simulation reports, or grow past its byte bound.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import time
from dataclasses import dataclass
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro.backends import available_backends
from repro.errors import TydiError
from repro.interchange.emit import emit_document
from repro.interchange.pipeline import compile_ir_document
from repro.lang.compile import compile_sources
from repro.server import CompileClient, CompileService, ServerThread
from repro.server import memo as memo_module
from repro.server.memo import ReadMemo
from repro.server.pool import fork_available
from repro.testing import build_random_design, mutate_design
from repro.workspace import Workspace

TARGETS = tuple(available_backends())
#: Every read, as ``(method, target)``.
READS = (("get_ir", None), ("get_diagnostics", None)) + tuple(
    ("get_outputs", target) for target in TARGETS
)
MUTATIONS = (
    "open_design",
    "open_ir_design",
    "update_file",
    "break_file",
    "remove_file",
    "remove_design",
)
#: Appended to a file, it fails the parse (or the ingest of a document).
BREAKING_EDIT = "@@@ (\n"
#: Design names per example: few, so reads and mutations meet often.
NAMES = 2
#: How long the ``workers=0`` session's calls linger (see LaggingWorkspace).
LAG_S = 0.002

#: Tier-1's run; a loaded ``soak`` profile replaces it.
TIER1 = settings(
    max_examples=10,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_examples = itertools.count()


@dataclass(frozen=True)
class Failed:
    """A read that raised: its error's type and stage."""

    type: str
    stage: str


MISSING = Failed("TydiWorkspaceError", "workspace")


@lru_cache(maxsize=256)
def fresh(kind: str, files: tuple[tuple[str, str], ...]) -> "dict | Failed":
    """Every read's answer for one design state, from an uncached compile."""
    try:
        if kind == "lang":
            result = compile_sources(
                [(text, filename) for filename, text in files], targets=TARGETS, cache=None
            )
        elif not files:
            return MISSING  # an IR design whose document was removed
        else:
            filename, text = files[0]
            result = compile_ir_document(text, {"targets": TARGETS}, filename=filename)
    except TydiError as exc:
        return Failed(type(exc).__name__, exc.stage)
    answers: dict = {("get_outputs", target): result.outputs[target] for target in TARGETS}
    answers["get_ir", None] = result.ir_text()
    answers["get_diagnostics", None] = [
        {
            "severity": diag.severity,
            "stage": diag.stage,
            "message": diag.message,
            "span": str(diag.span) if diag.span is not None else None,
        }
        for diag in result.diagnostics
    ]
    return answers


@lru_cache(maxsize=64)
def ir_document(seed: int) -> str:
    """A valid Tydi-IR document: one random design, emitted."""
    sources = build_random_design(random.Random(seed), min_files=1, max_files=3)
    return emit_document(compile_sources(sources, cache=None).project)


def lang_files(seed: int) -> dict[str, str]:
    sources = build_random_design(random.Random(seed), min_files=1, max_files=3)
    return {filename: text for text, filename in sources}


def read_request(name: str, read) -> tuple[str, dict]:
    method, target = read
    params = {"design": name}
    if target is not None:
        params["target"] = target
    return method, params


def answer_of(read, envelope: dict):
    """A read's envelope as the model's answer: the payload or a :class:`Failed`."""
    if not envelope["ok"]:
        return Failed(envelope["error"]["type"], envelope["error"]["stage"])
    result = envelope["result"]
    method = read[0]
    if method == "get_ir":
        return result["ir"]
    if method == "get_diagnostics":
        return result["diagnostics"]
    return result["files"]


class MemoModel(RuleBasedStateMachine):
    """Two clients against one served session, checked read by read."""

    def __init__(self, clients: list[CompileClient], *, fifo: bool) -> None:
        super().__init__()
        self.clients = clients
        #: Whether a design's requests run in the order they were sent (a
        #: pool shard's FIFO queue), so a pipelined read shows the state of
        #: the requests sent before it.
        self.fifo = fifo
        example = next(_examples)
        self.names = [f"m{example}-{index}" for index in range(NAMES)]
        #: The model: design name -> (kind, files in the workspace's order).
        self.designs: dict[str, tuple[str, dict[str, str]]] = {}

    def expect(self, name: str, read):
        design = self.designs.get(name)
        if design is None:
            return MISSING
        kind, files = design
        answers = fresh(kind, tuple(files.items()))
        return answers if isinstance(answers, Failed) else answers[read]

    def read(self, client: int, name: str, read):
        (envelope,) = self.clients[client].request_batch([read_request(name, read)])
        return answer_of(read, envelope)

    def mutation(self, data, kind: str, seed: int):
        """One mutation on a drawn design: ``(name, request, apply to the model)``."""
        existing = sorted(self.designs)
        with_files = [name for name in existing if self.designs[name][1]]
        if (kind in ("update_file", "break_file", "remove_file") and not with_files) or (
            kind == "remove_design" and not existing
        ):
            kind = "open_design"
        if kind in ("open_design", "open_ir_design"):
            name = data.draw(st.sampled_from(self.names))
            if kind == "open_design":
                files = lang_files(seed)
                request = ("open_design", {"design": name, "files": files})
                state = ("lang", files)
            else:
                text = ir_document(seed)
                request = ("open_ir_design", {"design": name, "text": text})
                state = ("ir", {f"{name}.tir": text})
            return name, request, lambda: self.designs.__setitem__(name, state)
        if kind == "remove_design":
            name = data.draw(st.sampled_from(existing))
            return name, ("remove_design", {"design": name}), lambda: self.designs.pop(name)
        name = data.draw(st.sampled_from(with_files))
        design_kind, files = self.designs[name]
        filename = data.draw(st.sampled_from(sorted(files)))
        if kind == "remove_file":
            return (
                name,
                ("remove_file", {"design": name, "filename": filename}),
                lambda: files.pop(filename),
            )
        if kind == "break_file":
            text = files[filename] + BREAKING_EDIT
        elif design_kind == "ir":
            text = ir_document(seed)
        else:
            ((text, _),), _ = mutate_design(random.Random(seed), [(files[filename], filename)])
        request = ("update_file", {"design": name, "filename": filename, "text": text})
        return name, request, lambda: files.__setitem__(filename, text)

    @rule(
        client=st.integers(0, 1),
        data=st.data(),
        kind=st.sampled_from(MUTATIONS),
        seed=st.integers(0, 2**16),
        read=st.sampled_from(READS),
    )
    def mutate(self, client, data, kind, seed, read):
        name, (method, params), apply = self.mutation(data, kind, seed)
        # Read first, so the memo holds an answer the mutation must drop.
        assert self.read(1 - client, name, read) == self.expect(name, read), (name, read)
        (envelope,) = self.clients[client].request_batch([(method, params)])
        assert envelope["ok"], envelope
        apply()
        assert self.read(1 - client, name, read) == self.expect(name, read), (name, read)

    @rule(client=st.integers(0, 1), index=st.integers(0, NAMES - 1))
    def read_everything(self, client, index):
        name = self.names[index]
        for read in READS:
            assert self.read(client, name, read) == self.expect(name, read), (name, read)

    @rule(
        client=st.integers(0, 1),
        data=st.data(),
        first=st.sampled_from(READS),
        second=st.sampled_from(READS),
        kind=st.sampled_from(MUTATIONS),
        seed=st.integers(0, 2**16),
    )
    def pipelined(self, client, data, first, second, kind, seed):
        name, mutation, apply = self.mutation(data, kind, seed)
        before = {read: self.expect(name, read) for read in (first, second)}
        batch = [read_request(name, first), mutation, read_request(name, second)]
        envelopes = self.clients[client].request_batch(batch)
        assert envelopes[1]["ok"], envelopes[1]
        apply()
        after = {read: self.expect(name, read) for read in (first, second)}
        for read, envelope, in_order in ((first, envelopes[0], before), (second, envelopes[2], after)):
            states = (in_order[read],) if self.fifo else (before[read], after[read])
            assert answer_of(read, envelope) in states, (name, read)
        # Sent after every answer of the batch, from either client: only
        # the new state will do.
        for read in (first, second):
            for reader in (client, 1 - client):
                assert self.read(reader, name, read) == self.expect(name, read), (name, read)

    def teardown(self) -> None:
        for name in self.designs:
            self.clients[0].remove_design(name)


def lag_before(method):
    def lagged(self, *args, **kwargs):
        time.sleep(LAG_S)
        return method(self, *args, **kwargs)

    return lagged


def lag_after(method):
    def lagged(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        time.sleep(LAG_S)
        return result

    return lagged


class LaggingWorkspace(Workspace):
    """A workspace that is slow where the compile threads race.

    A mutation waits before it applies, and a read after it releases the
    design lock.  So in the thread pool a read sent after a mutation can
    overtake it, and a mutation can overtake a read that saw the old
    sources.  Neither may leave a stale answer in the memo.
    """

    add_design = lag_before(Workspace.add_design)
    add_ir_design = lag_before(Workspace.add_ir_design)
    update_file = lag_before(Workspace.update_file)
    remove_file = lag_before(Workspace.remove_file)
    remove_design = lag_before(Workspace.remove_design)
    outputs = lag_after(Workspace.outputs)
    diagnostics = lag_after(Workspace.diagnostics)


def machine_settings() -> settings:
    """Tier-1's short run, unless ``--hypothesis-profile=soak`` is loaded."""
    if settings.default is settings.get_profile("soak"):
        return settings.default
    return TIER1


@pytest.mark.parametrize("workers", [0, 2])
def test_every_read_matches_a_fresh_compile(workers):
    if workers and not fork_available():  # pragma: no cover - non-fork platforms
        pytest.skip("worker pool requires the fork start method")
    if workers:
        service = CompileService(workers=workers)
    else:
        service = CompileService(workspace=LaggingWorkspace(), jobs=4)
    with service, ServerThread(service) as server:
        clients = [CompileClient(*server.address, connect_retry_for=5) for _ in range(2)]
        try:
            run_state_machine_as_test(
                lambda: MemoModel(clients, fifo=bool(workers)), settings=machine_settings()
            )
            memo = clients[0].stats()["server"]["read_memo"]
        finally:
            for client in clients:
                client.close()
    assert memo["hits"] > 0 and memo["misses"] > 0, memo


# -- what the memo must never do ------------------------------------------------

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""


def call(service: CompileService, method: str, **params) -> dict:
    return service.handle_sync({"id": 1, "method": method, "params": params})


def test_a_hit_hands_out_a_copy_never_the_stored_result():
    with CompileService() as service:
        call(service, "open_design", design="echo", files={"echo.td": SOURCE})
        miss = call(service, "get_outputs", design="echo", target="vhdl")["result"]
        pristine = {name: text for name, text in miss["files"].items()}
        miss["files"].clear()
        hit = call(service, "get_outputs", design="echo", target="vhdl")["result"]
        assert hit["files"] == pristine
        hit["files"]["extra.vhd"] = "--"
        diagnostics = call(service, "get_diagnostics", design="echo")["result"]["diagnostics"]
        diagnostics.append({"severity": "error"})
        assert call(service, "get_outputs", design="echo", target="vhdl")["result"]["files"] == pristine
        assert call(service, "get_diagnostics", design="echo")["result"]["diagnostics"] == []
        memo = call(service, "stats")["result"]["server"]["read_memo"]
        assert (memo["hits"], memo["misses"], memo["entries"]) == (3, 2, 2)
        assert memo["bytes"] > sum(len(text) for text in pristine.values())


def test_errors_and_simulations_are_never_memoised():
    with CompileService() as service:
        call(service, "open_design", design="bad", files={"bad.td": "type ?! = Stream(;\n"})
        for _ in range(2):
            assert not call(service, "get_ir", design="bad")["ok"]
        call(service, "open_design", design="echo", files={"echo.td": SOURCE})
        for _ in range(2):
            assert call(service, "simulate_design", design="echo")["ok"]
        memo = call(service, "stats")["result"]["server"]["read_memo"]
        assert (memo["hits"], memo["misses"], memo["entries"]) == (0, 2, 0)


def test_a_draining_service_rejects_reads_the_memo_holds():
    with CompileService() as service:
        call(service, "open_design", design="echo", files={"echo.td": SOURCE})
        assert call(service, "get_ir", design="echo")["ok"]
        service.draining.set()
        rejected = call(service, "get_ir", design="echo")
        assert rejected["error"]["type"] == "TydiDrainingError"


@pytest.mark.skipif(not fork_available(), reason="worker pool requires fork")
def test_an_out_of_service_shard_answers_errors_even_for_memoised_reads():
    with CompileService(workers=1, restart_budget=0) as service:
        call(service, "open_design", design="echo", files={"echo.td": SOURCE})
        assert call(service, "get_ir", design="echo")["ok"]
        os.kill(service.pool.workers[0].proc.pid, signal.SIGKILL)
        # This read is not memoised: it reaches the corpse, and the shard,
        # out of restarts, goes out of service.
        assert "restart budget" in call(service, "get_diagnostics", design="echo")["error"]["message"]
        dead = call(service, "get_ir", design="echo")
        assert "restart budget" in dead["error"]["message"]


def as_json(result: dict) -> bytes:
    """A read result as the memo stores it: the JSON bytes it was sent as."""
    return json.dumps(result, separators=(",", ":")).encode()


def test_the_memo_evicts_least_recently_used_entries_by_bytes(monkeypatch):
    monkeypatch.setattr(memo_module, "READ_MEMO_BYTES", 100)
    memo = ReadMemo()
    for name in ("a", "b", "c"):
        memo.invalidate(name)
    memo.store(("a", "get_ir", None), memo.generation("a"), as_json({"ir": "x" * 40}))
    memo.store(("b", "get_ir", None), memo.generation("b"), as_json({"ir": "y" * 40}))
    assert memo.lookup(("a", "get_ir", None)) == as_json({"ir": "x" * 40})
    memo.store(("c", "get_ir", None), memo.generation("c"), as_json({"ir": "z" * 40}))
    assert memo.lookup(("b", "get_ir", None)) is None  # least recently used
    assert memo.lookup(("a", "get_ir", None)) is not None
    stats = memo.stats()
    assert (stats["entries"], stats["evictions"]) == (2, 1)
    assert stats["bytes"] <= 100
    memo.store(("a", "get_outputs", "vhdl"), memo.generation("a"), as_json({"files": {"a.vhd": "w" * 200}}))
    assert memo.lookup(("a", "get_outputs", "vhdl")) is None  # larger than the whole bound


def test_a_read_is_stored_only_if_its_design_did_not_move():
    memo = ReadMemo()
    generation = memo.generation("a")
    memo.invalidate("a")  # a mutation submitted while the read was in flight
    memo.store(("a", "get_ir", None), generation, as_json({"ir": "old"}))
    assert memo.lookup(("a", "get_ir", None)) is None
    generation = memo.generation("a")
    memo.store(("a", "get_ir", None), generation, as_json({"ir": "new"}))
    memo.invalidate_where(lambda design: design == "a")  # the shard's worker respawned
    assert memo.lookup(("a", "get_ir", None)) is None


def test_forgetting_generations_never_revives_an_old_one(monkeypatch):
    monkeypatch.setattr(memo_module, "MAX_TRACKED_DESIGNS", 2)
    memo = ReadMemo()
    generation = memo.generation("a")  # untracked so far
    memo.invalidate("a")  # a mutation submitted while the read is in flight
    memo.invalidate("b")
    memo.invalidate("c")  # past the bound: every generation is forgotten
    memo.store(("a", "get_ir", None), generation, as_json({"ir": "old"}))
    assert memo.lookup(("a", "get_ir", None)) is None
    memo.store(("a", "get_ir", None), memo.generation("a"), as_json({"ir": "new"}))
    assert memo.lookup(("a", "get_ir", None)) == as_json({"ir": "new"})
