"""The HDL emitters' netlists, checked against the IR rather than trusted.

Three properties of the ``vhdl`` and ``verilog`` backends:

* **Linear emission.** Emitting a structural implementation resolves each
  connection's source port once and expands each port's physical signals
  once, so the number of ``Project.resolve_port`` and ``expand_stream``
  calls grows with the design, not with instances x connections.  Call
  counts are deterministic, so this holds on any machine.
* **Each connection wired once.** Over a whole compile to both HDLs the
  frontend and the emitters resolve each connection end a fixed number of
  times, build no ``PortRef`` to key a map, and copy no port signals into
  the nets: ``resolve_port``, ``PortRef`` and ``VhdlPortSignal`` counts
  per connection stay under fixed bounds.
* **Cross-backend connectivity.** Reading the nets back out of the VHDL
  port maps and the Verilog instantiations (plus each structural body's
  self-port assignments) yields exactly the IR connection graph: every
  ``valid`` wire runs from the connection's source to its sink, every
  ``ready`` wire the other way, and exactly one endpoint drives each
  wire.  The oracle takes signal directions from the emitted
  entity/component/module declarations, not from the emitter's code.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.backends import get_backend
from repro.ir.model import PortRef, Project
from repro.lang.compile import compile_sources
from repro.queries import ALL_QUERIES
from repro.testing import build_random_design
from repro.vhdl import signals
from repro.vhdl.signals import VhdlPortSignal, vhdl_identifier

# -- designs -------------------------------------------------------------------


def _fleet_sources(width: int, files: int = 16) -> list[tuple[str, str]]:
    """``files - 1`` chains of ``width`` instances plus a top wiring them in series."""
    sources = []
    for index in range(files - 1):
        text = f"""
type link{index}_t = Stream(Bit(8), d=1);
streamlet step{index}_s {{ i: link{index}_t in, o: link{index}_t out, }}
external impl step{index}_i of step{index}_s;
streamlet wide{index}_s {{ feed: link{index}_t in, result: link{index}_t out, }}
impl wide{index}_i of wide{index}_s {{
    instance pu(step{index}_i) [{width}],
    feed => pu[0].i,
    for i in 0->{width - 1} {{
        pu[i].o => pu[i+1].i,
    }}
    pu[{width - 1}].o => result,
}}
"""
        sources.append((text, f"wide{index}.td"))
    last = files - 2
    top = [f"streamlet top_s {{ feed: link0_t in, result: link{last}_t out, }}", "impl top_i of top_s {"]
    top += [f"    instance w{index}(wide{index}_i)," for index in range(files - 1)]
    top.append("    feed => w0.feed,")
    top += [f"    w{index}.result => w{index + 1}.feed," for index in range(last)]
    top += [f"    w{last}.result => result,", "}", "top top_i;"]
    sources.append(("\n".join(top) + "\n", "top.td"))
    return sources


def _fleet(width: int, files: int = 16) -> Project:
    return compile_sources(_fleet_sources(width, files)).project


def _fuzzed(seed: int) -> Project:
    return compile_sources(build_random_design(random.Random(3000 + seed))).project


# -- linear emission -----------------------------------------------------------


def _emission_calls(monkeypatch, project: Project, backend: str) -> dict[str, int]:
    counts = {"resolve_port": 0, "expand_stream": 0}
    resolve_port = Project.resolve_port
    expand_stream = signals.expand_stream

    def counting_resolve_port(self, implementation, ref):
        counts["resolve_port"] += 1
        return resolve_port(self, implementation, ref)

    def counting_expand_stream(stream):
        counts["expand_stream"] += 1
        return expand_stream(stream)

    with monkeypatch.context() as patch:
        patch.setattr(Project, "resolve_port", counting_resolve_port)
        patch.setattr(signals, "expand_stream", counting_expand_stream)
        get_backend(backend).emit(project)
    return counts


@pytest.mark.parametrize("backend", ["vhdl", "verilog"])
def test_emission_work_grows_linearly_with_the_fleet(monkeypatch, backend):
    small = _emission_calls(monkeypatch, _fleet(40), backend)
    large = _emission_calls(monkeypatch, _fleet(80), backend)
    for name in ("resolve_port", "expand_stream"):
        assert small[name] > 0, name
        growth = large[name] / small[name]
        assert growth <= 2.1, f"{backend}: {name} grew {growth:.2f}x ({small[name]} -> {large[name]})"


# -- wiring work per connection ------------------------------------------------

#: Upper bounds per connection for one compile of the fleet to both HDLs:
#: ``resolve_port`` runs twice in IR validation, twice in the DRC and once
#: per HDL net map; evaluate builds the two ``PortRef``s of a connection
#: and sugaring one per source endpoint; ``VhdlPortSignal``s are only the
#: ports' own signals, expanded once per emitter.  Before each connection
#: was wired once, the counts were 9, 9 and 9.5.
WIRING_BOUNDS = {"resolve_port": 6, "PortRef": 3, "VhdlPortSignal": 2}


def test_each_connection_is_wired_once(monkeypatch):
    sources = _fleet_sources(40)
    counts = dict.fromkeys(WIRING_BOUNDS, 0)

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Project, "resolve_port", counting("resolve_port", Project.resolve_port))
        patch.setattr(PortRef, "__init__", counting("PortRef", PortRef.__init__))
        patch.setattr(
            VhdlPortSignal, "__init__", counting("VhdlPortSignal", VhdlPortSignal.__init__)
        )
        result = compile_sources(sources, targets=("vhdl", "verilog"))
    connections = result.project.statistics()["connections"]
    assert connections == 15 * 41 + 16
    assert set(result.outputs) >= {"vhdl", "verilog"}
    for name, bound in WIRING_BOUNDS.items():
        assert 0 < counts[name] <= bound * connections, (
            f"{name}: {counts[name] / connections:.2f} per connection (bound {bound})"
        )


# -- reading the netlists back -------------------------------------------------

_VHDL_DECLARATION = re.compile(r"^\s+(\w+) : (in|out) ", re.MULTILINE)
_VHDL_COMPONENT = re.compile(r"^  component (\w+) is\n(.*?)^  end component;", re.MULTILINE | re.DOTALL)
_VHDL_INSTANCE = re.compile(r"^  (\w+) : (\w+)\n    port map \(\n(.*?)^    \);", re.MULTILINE | re.DOTALL)
_VHDL_MAPPING = re.compile(r"^      (\w+) => (.+?),?$", re.MULTILINE)
_VHDL_ASSIGN = re.compile(r"^  (\w+) <= (\w+);$", re.MULTILINE)

_VERILOG_MODULE = re.compile(r"^module (\w+) \(\n(.*?)^\);", re.MULTILINE | re.DOTALL)
_VERILOG_DECLARATION = re.compile(r"^\s+(input|output)\s+wire\s+(?:\[\d+:\d+\]\s+)?(\w+)", re.MULTILINE)
_VERILOG_INSTANCE = re.compile(r"^  (\w+) (\w+) \(\n(.*?)^  \);", re.MULTILINE | re.DOTALL)
_VERILOG_MAPPING = re.compile(r"^    \.(\w+)\(([^)]*)\),?$", re.MULTILINE)
_VERILOG_ASSIGN = re.compile(r"^  assign (\w+) = (\w+);$", re.MULTILINE)

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
_CLOCKING = ("clk", "rst")


def _endpoint(signal: str, instance: str | None = None) -> tuple[str, str]:
    """(endpoint, origin) of a port signal name ``<port>_<origin>``."""
    port, origin = signal.rsplit("_", 1)
    return (f"{instance}.{port}" if instance else port), origin


def _is_wire(actual: str) -> bool:
    return bool(_IDENTIFIER.match(actual)) and actual != "open"


def _wires(self_modes, assigns, instances, modes) -> dict[str, list[tuple[str, str, bool]]]:
    """Wire -> [(endpoint, origin, drives)] of one structural body.

    ``assigns`` are ``(target, source)`` pairs between the body's own port
    signals and wires; ``instances`` are ``(instance, component, [(formal,
    actual)])``; ``modes`` maps each component to its signals' ``in``/``out``.
    """
    wires: dict[str, list[tuple[str, str, bool]]] = {}
    for target, source in assigns:
        assert (target in self_modes) != (source in self_modes), (target, source)
        own, wire = (source, target) if source in self_modes else (target, source)
        wires.setdefault(wire, []).append((*_endpoint(own), own == source))
    for instance, component, mappings in instances:
        for formal, actual in mappings:
            if formal in _CLOCKING or not _is_wire(actual):
                continue
            wires.setdefault(actual, []).append(
                (*_endpoint(formal, instance), modes[component][formal] == "out")
            )
    return wires


def _vhdl_wires(text: str) -> dict[str, list[tuple[str, str, bool]]]:
    entity, architecture = text.split("\narchitecture structural of ", 1)
    modes = {
        name: dict(_VHDL_DECLARATION.findall(body)) for name, body in _VHDL_COMPONENT.findall(architecture)
    }
    body = architecture.split("\nbegin\n", 1)[1]
    instances = [
        (instance, component, _VHDL_MAPPING.findall(mappings))
        for instance, component, mappings in _VHDL_INSTANCE.findall(body)
    ]
    return _wires(dict(_VHDL_DECLARATION.findall(entity)), _VHDL_ASSIGN.findall(body), instances, modes)


def _verilog_modes(files: dict[str, str]) -> dict[str, dict[str, str]]:
    modes = {}
    for text in files.values():
        for name, header in _VERILOG_MODULE.findall(text):
            modes[name] = {
                signal: "out" if direction == "output" else "in"
                for direction, signal in _VERILOG_DECLARATION.findall(header)
            }
    return modes


def _verilog_wires(text: str, modes) -> dict[str, list[tuple[str, str, bool]]]:
    ((module, _),) = _VERILOG_MODULE.findall(text)
    body = text.split("\n);\n", 1)[1]
    instances = [
        (instance, component, _VERILOG_MAPPING.findall(mappings))
        for component, instance, mappings in _VERILOG_INSTANCE.findall(body)
    ]
    return _wires(modes[module], _VERILOG_ASSIGN.findall(body), instances, modes)


def _hdl_edges(wires) -> set[tuple[str, str]]:
    """Directed (source, sink) endpoint pairs the wires implement.

    Each wire carries one physical signal and exactly one endpoint drives it.
    ``valid`` wires run source -> sink and ``ready`` wires sink -> source;
    both must name the same pairs, and every other wire must lie along one
    of them.
    """
    valid, ready, other = set(), set(), set()
    for wire, ends in wires.items():
        origins = {origin for _, origin, _ in ends}
        assert len(origins) == 1, (wire, ends)
        driving = [endpoint for endpoint, _, drives in ends if drives]
        loads = [endpoint for endpoint, _, drives in ends if not drives]
        assert len(driving) == 1, (wire, ends)
        (origin,) = origins
        for load in loads:
            if origin == "valid":
                valid.add((driving[0], load))
            elif origin == "ready":
                ready.add((load, driving[0]))
            else:
                other.add((driving[0], load))
    assert valid == ready
    assert other <= valid
    return valid


def _ir_edges(implementation) -> set[tuple[str, str]]:
    def endpoint(ref):
        port = vhdl_identifier(ref.port)
        return f"{ref.instance}.{port}" if ref.instance else port

    return {(endpoint(c.source), endpoint(c.sink)) for c in implementation.connections}


def _assert_netlists_match_ir(project: Project) -> int:
    vhdl = get_backend("vhdl").emit(project)
    verilog = get_backend("verilog").emit(project)
    modes = _verilog_modes(verilog)
    checked = 0
    for implementation in project.implementations.values():
        if implementation.external:
            continue
        expected = _ir_edges(implementation)
        assert _hdl_edges(_vhdl_wires(vhdl[f"{implementation.name}.vhd"])) == expected, (
            f"vhdl {implementation.name}"
        )
        assert _hdl_edges(_verilog_wires(verilog[f"{implementation.name}.v"], modes)) == expected, (
            f"verilog {implementation.name}"
        )
        checked += len(expected)
    return checked


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_netlists_match_the_connection_graph(seed):
    assert _assert_netlists_match_ir(_fuzzed(seed)) > 0


@pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda query: query.name)
def test_tpch_netlists_match_the_connection_graph(query):
    assert _assert_netlists_match_ir(query.compile().project) > 0


def test_fleet_netlists_match_the_connection_graph():
    width, files = 20, 16
    assert _assert_netlists_match_ir(_fleet(width, files)) == (files - 1) * (width + 1) + files


def test_oracle_catches_a_miswired_port_map():
    """A port map pointing at the wrong net fails the oracle."""
    project = _fleet(4, files=3)
    implementation = project.implementations["wide0_i"]
    text = get_backend("vhdl").emit(project)["wide0_i.vhd"]
    # pu_1 reads pu_2's output net instead of pu_0's.
    miswired = text.replace("      i_valid => net_1_pu_0_o_valid", "      i_valid => net_2_pu_1_o_valid", 1)
    assert miswired != text
    assert _hdl_edges(_vhdl_wires(text)) == _ir_edges(implementation)
    with pytest.raises(AssertionError):
        assert _hdl_edges(_vhdl_wires(miswired)) == _ir_edges(implementation)
