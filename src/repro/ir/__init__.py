"""Tydi-IR: the intermediate representation emitted by the Tydi-lang frontend.

The IR mirrors the hardware elements of Table I in the paper:

* :class:`~repro.ir.model.Port` -- named, directed, typed port.
* :class:`~repro.ir.model.Streamlet` -- the port map of a component
  (VHDL ``entity`` analogue).
* :class:`~repro.ir.model.Implementation` -- instances + connections
  (VHDL ``architecture`` analogue), or ``external``.
* :class:`~repro.ir.model.Instance` -- a nested implementation instance.
* :class:`~repro.ir.model.Connection` -- a typed link between two ports.
* :class:`~repro.ir.model.Project` -- a closed set of streamlets and
  implementations with a designated top level.

:mod:`repro.ir.emit` renders the sections of the textual Tydi-IR syntax
(the ``ir`` backend joins them into one file) and
:mod:`repro.ir.testbench` models the prediction-style testbenches that the
simulator generates.
"""

from repro.ir.model import (
    ClockDomain,
    Connection,
    Implementation,
    Instance,
    Port,
    PortDirection,
    PortRef,
    Project,
    Streamlet,
)
from repro.ir.emit import emit_streamlet, emit_implementation
from repro.ir.testbench import Testbench, TestbenchEvent, TestbenchVector

__all__ = [
    "ClockDomain",
    "Connection",
    "Implementation",
    "Instance",
    "Port",
    "PortDirection",
    "PortRef",
    "Project",
    "Streamlet",
    "emit_streamlet",
    "emit_implementation",
    "Testbench",
    "TestbenchEvent",
    "TestbenchVector",
]
