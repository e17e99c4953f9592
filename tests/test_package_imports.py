"""Importing a small part of the package must not load the compiler.

Importing a submodule runs every parent package's ``__init__`` first, so
``repro``, ``repro.server`` and ``repro.pipeline`` resolve their
re-exported names on first access (:mod:`repro._lazy`).  The remote cache
service and the client need only sockets and framing; each check starts a
fresh interpreter, since this one has imported everything already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules the light entry points must not load (nor any of their submodules).
HEAVY = ("repro.lang", "repro.workspace", "asyncio", "sqlite3")


def run_fresh(code: str) -> str:
    source_root = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize(
    "statement", ["import repro.server.cachesvc", "from repro.server import CompileClient"]
)
def test_light_entry_points_do_not_load_the_compiler(statement):
    loaded = json.loads(run_fresh(f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))
    heavy = [name for name in loaded if name in HEAVY or name.startswith(tuple(f"{h}." for h in HEAVY))]
    assert heavy == []


def test_every_exported_name_resolves():
    code = (
        "import repro, repro.pipeline, repro.server\n"
        "for package in (repro, repro.pipeline, repro.server):\n"
        "    for name in package.__all__:\n"
        "        getattr(package, name)\n"
        "    assert set(package.__all__) <= set(dir(package))\n"
        "from repro.server import *\n"
        "from repro.pipeline import *\n"
        "print(CompileService.__module__, TieredStore.__module__)\n"
    )
    assert run_fresh(code).split() == ["repro.server.service", "repro.pipeline.store"]


def test_sqlite3_loads_only_when_a_disk_tier_opens(tmp_path):
    """Compiles without a cache dir (the fleet and TPC-H workloads) and
    lookups in a dir with no database never load ``sqlite3``; the first
    disk write does."""
    cache_dir = str(tmp_path / "cache")
    code = (
        "import sys\n"
        "from repro.lang import compile_sources\n"
        "from repro.queries import ALL_QUERIES\n"
        "from repro.pipeline import TieredStore\n"
        "compile_sources(['type t = Stream(Bit(8), d=1);'], targets=('vhdl', 'verilog'))\n"
        "ALL_QUERIES[0].compile()\n"
        f"store = TieredStore('ast', 1, cache_dir={cache_dir!r})\n"
        "store.get('k')\n"
        "print('sqlite3' in sys.modules)\n"
        "store.put('k', 'v')\n"
        "print('sqlite3' in sys.modules, store.stats.disk_stores)\n"
    )
    assert run_fresh(code).split() == ["False", "True", "1"]
