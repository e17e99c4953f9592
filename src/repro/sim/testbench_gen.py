"""Testbench generation from simulation traces (Section V-C).

"The mechanism to generate testbench can be briefly described as an
'input - current state - output' testing system."  We take the simpler,
robust route the paper also describes: record the transfers observed on the
top-level ports of a simulation run (the *prediction*), and package them as a
Tydi-IR testbench whose drive vectors replay the inputs and whose expect
vectors assert the outputs.  The VHDL lowering lives in
:mod:`repro.vhdl.testbench`.
"""

from __future__ import annotations

from repro.ir.testbench import Testbench
from repro.sim.engine import SimulationTrace, Simulator
from repro.sim.packets import Packet


def _encode_value(value: object) -> int:
    """Encode a Python packet value as an integer for the testbench vector."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # Fixed-point with two fractional digits, like the SQL decimal columns.
        return int(round(value * 100))
    if isinstance(value, str):
        number = 0
        for ch in value.encode("utf-8"):
            number = (number << 8) | ch
        return number
    if isinstance(value, tuple):
        number = 0
        for item in value:
            number = (number << 16) ^ (_encode_value(item) & 0xFFFF)
        return number
    if isinstance(value, dict):
        return _encode_value(tuple(value.values()))
    return abs(hash(value)) & 0xFFFFFFFF


def testbench_from_trace(
    simulator: Simulator,
    trace: SimulationTrace,
    *,
    name: str | None = None,
    clock_period_ns: float = 10.0,
) -> Testbench:
    """Build a Tydi-IR testbench replaying one simulation run."""
    testbench = Testbench(
        implementation=simulator.top_name,
        clock_period_ns=clock_period_ns,
        name=name,
    )
    for port, events in trace.inputs.items():
        for time, packet in events:
            testbench.drive(time, port, [_encode_value(packet.value)], packet.last)
    for port, events in trace.outputs.items():
        for time, packet in events:
            testbench.expect(time, port, [_encode_value(packet.value)], packet.last)
    return testbench


def coverage_of(trace: SimulationTrace) -> dict[str, object]:
    """Simple coverage metrics of a run: states seen and ports exercised.

    The paper stresses that "the coverage of input data in the simulation
    stage is important because uncovered input results in uncovered state
    transformation"; this helper lets tests assert that a stimulus actually
    exercised the states it was meant to.  Unhashable state values (the
    lists and dicts accumulators keep) are told apart by their ``str``.
    """
    states: dict[str, set[object]] = {}
    for path, log in trace.state_logs.items():
        for _, state_name, value in log:
            seen = states.setdefault(f"{path}.{state_name}", set())
            try:
                seen.add(value)
            except TypeError:
                seen.add(str(value))
    return {
        "ports_driven": sorted(trace.inputs),
        "ports_observed": sorted(trace.outputs),
        "states_visited": {key: sorted(map(str, values)) for key, values in states.items()},
        "events_processed": trace.events_processed,
        "end_time": trace.end_time,
    }
