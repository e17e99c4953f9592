"""Textual Tydi-IR emission.

The Rust toolchain serialises the IR to a textual format that the IR-to-VHDL
tool consumes.  We emit an equivalent text so that the intermediate artifact
of the pipeline (Figure 1: "Tydi source code -> frontend -> Tydi IR ->
backend -> VHDL") is inspectable, countable (LoC) and diffable in tests.
The section renderers below are composed into one ``<project>.tir`` file
by the registered ``ir`` backend (:mod:`repro.backends.ir_text`).
"""

from __future__ import annotations

from repro.errors import TydiBackendError
from repro.ir.model import Implementation, Port, Project, Streamlet
from repro.spec.logical_types import Group, LogicalType, Stream, Union
from repro.utils.text import indent_block


def named_type_declarations(project: Project) -> dict[str, LogicalType]:
    """Collect named Group/Union declarations used anywhere in the project.

    Two *structurally identical* occurrences of a name collapse into one
    declaration; two structurally distinct types sharing a name are an
    error -- emitting only the first (the old ``setdefault`` behaviour)
    would silently misdeclare every use of the second.
    """
    named: dict[str, LogicalType] = {}

    def visit(t: LogicalType) -> None:
        for sub in t.walk():
            name = getattr(sub, "name", None)
            if name and isinstance(sub, (Group, Union)):
                existing = named.get(name)
                if existing is None:
                    named[name] = sub
                elif existing != sub:
                    raise TydiBackendError(
                        f"conflicting declarations of type {name!r}: "
                        f"{existing.to_tydi()} vs {sub.to_tydi()}"
                    )

    for streamlet in project.streamlets.values():
        for port in streamlet.ports:
            visit(port.logical_type)
    return named


def _type_ref(t: LogicalType) -> str:
    """Render a type reference, using the declared name when available."""
    name = getattr(t, "name", None)
    if name and isinstance(t, (Group, Union)):
        return name
    if isinstance(t, Stream):
        inner = _type_ref(t.element)
        args = [inner]
        if t.dimension:
            args.append(f"d={t.dimension}")
        if float(t.throughput) != 1.0:
            args.append(f"t={t.throughput}")
        if t.complexity.major != 1 or len(t.complexity.levels) > 1:
            args.append(f"c={t.complexity}")
        return f"Stream({', '.join(args)})"
    return t.to_tydi()


def emit_type_declaration(t: LogicalType) -> str:
    """Emit a named Group/Union declaration."""
    if isinstance(t, Group):
        fields = "\n".join(f"  {n}: {_type_ref(ft)};" for n, ft in t.fields)
        return f"Group {t.name} {{\n{fields}\n}}"
    if isinstance(t, Union):
        variants = "\n".join(f"  {n}: {_type_ref(vt)};" for n, vt in t.variants)
        return f"Union {t.name} {{\n{variants}\n}}"
    return f"type {getattr(t, 'name', 'anonymous')} = {t.to_tydi()};"


def emit_port(port: Port) -> str:
    clock = f" @{port.clock_domain}" if port.clock_domain.name != "default" else ""
    return f"{port.name}: {_type_ref(port.logical_type)} {port.direction}{clock};"


def emit_streamlet(streamlet: Streamlet) -> str:
    doc = f"// {streamlet.documentation}\n" if streamlet.documentation else ""
    ports = "\n".join(emit_port(p) for p in streamlet.ports)
    return f"{doc}streamlet {streamlet.name} {{\n{indent_block(ports, 2)}\n}}"


def emit_implementation(implementation: Implementation) -> str:
    doc = f"// {implementation.documentation}\n" if implementation.documentation else ""
    header = f"impl {implementation.name} of {implementation.streamlet}"
    if implementation.external:
        return f"{doc}external {header};"
    body_lines: list[str] = []
    for inst in implementation.instances:
        body_lines.append(f"instance {inst.name}({inst.implementation});")
    for conn in implementation.connections:
        suffix = " // auto-inserted" if conn.synthesized else ""
        body_lines.append(f"{conn.source} => {conn.sink};{suffix}")
    body = "\n".join(body_lines)
    return f"{doc}{header} {{\n{indent_block(body, 2)}\n}}"
