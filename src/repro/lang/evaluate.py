"""Evaluation and expansion: from parsed Tydi-lang to a flat Tydi-IR design.

This module implements the "code expansion & evaluation" stage of Figure 3 in
the paper.  Its responsibilities are:

* resolving (immutable) constants and named logical types,
* evaluating type expressions to :class:`repro.spec.LogicalType` objects,
* instantiating streamlet and implementation *templates* for each distinct
  set of template arguments (name mangling keeps instances distinct),
* unrolling the generative ``for`` / ``if`` syntax into plain instances and
  connections, and checking ``assert`` statements,
* expanding port arrays and instance arrays into individually named ports
  and instances.

The result is an :class:`repro.ir.Project` whose implementations contain only
concrete instances and connections -- exactly what Tydi-IR can express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    DiagnosticSink,
    TydiAssertionError,
    TydiEvaluationError,
    TydiNameError,
    TydiTypeError,
)
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
from repro.lang import ast
from repro.lang.expr import evaluate_expr
from repro.lang.values import (
    PARAM_KIND_CHECKS,
    ClockDomainValue,
    ImplValue,
    Scope,
    StreamletValue,
    TypeValue,
    describe_value,
)
from repro.spec.logical_types import Bit, Group, LogicalType, Null, Stream, Union
from repro.utils.names import mangle


@dataclass
class Program:
    """All declarations of a compilation, indexed by name."""

    constants: dict[str, ast.ConstDecl] = field(default_factory=dict)
    types: dict[str, ast.Declaration] = field(default_factory=dict)
    streamlets: dict[str, ast.StreamletDecl] = field(default_factory=dict)
    implementations: dict[str, ast.ImplDecl] = field(default_factory=dict)
    tops: list[ast.TopDecl] = field(default_factory=list)
    packages: list[str] = field(default_factory=list)

    @classmethod
    def from_units(cls, units: list[ast.SourceUnit]) -> "Program":
        program = cls()
        for unit in units:
            program.packages.append(unit.package)
            for decl in unit.declarations:
                program._add(decl)
        return program

    def _add(self, decl: ast.Declaration) -> None:
        if isinstance(decl, (ast.PackageDecl, ast.UseDecl)):
            return
        if isinstance(decl, ast.ConstDecl):
            self._check_duplicate(decl.name, decl)
            self.constants[decl.name] = decl
        elif isinstance(decl, (ast.TypeAliasDecl, ast.GroupDecl, ast.UnionDecl)):
            self._check_duplicate(decl.name, decl)
            self.types[decl.name] = decl
        elif isinstance(decl, ast.StreamletDecl):
            self._check_duplicate(decl.name, decl)
            self.streamlets[decl.name] = decl
        elif isinstance(decl, ast.ImplDecl):
            self._check_duplicate(decl.name, decl)
            self.implementations[decl.name] = decl
        elif isinstance(decl, ast.TopDecl):
            self.tops.append(decl)
        else:
            raise TydiEvaluationError(
                f"unsupported top-level declaration {type(decl).__name__}", decl.span
            )

    def _check_duplicate(self, name: str, decl: ast.Declaration) -> None:
        for table in (self.constants, self.types, self.streamlets, self.implementations):
            if name in table:
                raise TydiEvaluationError(f"duplicate declaration of {name!r}", decl.span)


def _indexed(base: str, index_expr: Optional[ast.Expr], scope: Scope, span: object) -> str:
    """``base`` or, for an indexed port/instance array reference, ``base_<index>``."""
    if index_expr is None:
        return base
    index = evaluate_expr(index_expr, scope)
    if isinstance(index, bool) or not isinstance(index, int):
        raise TydiEvaluationError(
            f"index of {base!r} must be an integer, got {describe_value(index)}", span
        )
    return f"{base}_{index}"


class Evaluator:
    """Evaluates a :class:`Program` into an :class:`repro.ir.Project`."""

    def __init__(
        self,
        program: Program,
        diagnostics: Optional[DiagnosticSink] = None,
        project_name: str = "design",
    ) -> None:
        self.program = program
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticSink()
        self.project = Project(name=project_name)
        self.global_scope = Scope(name="<global>")
        self._type_cache: dict[str, LogicalType] = {}
        self._types_in_progress: set[str] = set()
        self._streamlet_cache: dict[str, Streamlet] = {}
        self._impl_cache: dict[str, Implementation] = {}
        self._impl_in_progress: set[str] = set()

    # -- constants and named types --------------------------------------------

    def resolve_constants(self) -> None:
        """Evaluate all global ``const`` declarations (forward references ok)."""
        pending = dict(self.program.constants)
        while pending:
            progressed = False
            errors: dict[str, Exception] = {}
            for name, decl in list(pending.items()):
                try:
                    value = evaluate_expr(decl.value, self.global_scope)
                except TydiNameError as exc:
                    errors[name] = exc
                    continue
                self.global_scope.define(name, value, kind="const", span=decl.span)
                del pending[name]
                progressed = True
            if not progressed:
                name, error = next(iter(errors.items()))
                raise TydiEvaluationError(
                    f"cannot resolve constant {name!r}: {error.message}",
                    self.program.constants[name].span,
                )

    def resolve_named_type(self, name: str, span: object | None = None) -> LogicalType:
        """Resolve a globally declared type by name (memoized, cycle-checked)."""
        if name in self._type_cache:
            return self._type_cache[name]
        decl = self.program.types.get(name)
        if decl is None:
            raise TydiNameError(f"undefined type {name!r}", span)
        if name in self._types_in_progress:
            raise TydiTypeError(f"cyclic type definition involving {name!r}", span)
        self._types_in_progress.add(name)
        try:
            if isinstance(decl, ast.TypeAliasDecl):
                logical = self.evaluate_type_expr(decl.type_expr, self.global_scope)
            elif isinstance(decl, ast.GroupDecl):
                fields = tuple(
                    (field_name, self.evaluate_type_expr(t, self.global_scope))
                    for field_name, t in decl.fields
                )
                logical = Group(fields=fields, name=decl.name)
            elif isinstance(decl, ast.UnionDecl):
                variants = tuple(
                    (variant_name, self.evaluate_type_expr(t, self.global_scope))
                    for variant_name, t in decl.variants
                )
                logical = Union(variants=variants, name=decl.name)
            else:  # pragma: no cover - Program only stores the three kinds
                raise TydiTypeError(f"{name!r} is not a type declaration", span)
        finally:
            self._types_in_progress.discard(name)
        self._type_cache[name] = logical
        return logical

    def evaluate_type_expr(self, type_expr: ast.TypeExpr, scope: Scope) -> LogicalType:
        """Evaluate a type expression in ``scope`` to a logical type."""
        if isinstance(type_expr, ast.NullTypeExpr):
            return Null()
        if isinstance(type_expr, ast.BitTypeExpr):
            width = evaluate_expr(type_expr.width, scope)
            if isinstance(width, bool) or not isinstance(width, int):
                raise TydiTypeError(
                    f"Bit width must evaluate to an integer, got {describe_value(width)}",
                    type_expr.span,
                )
            return Bit(width)
        if isinstance(type_expr, ast.NamedTypeExpr):
            binding = scope.find(type_expr.name)
            if binding is not None:
                value = binding.value
                if isinstance(value, TypeValue):
                    return value.logical_type
                raise TydiTypeError(
                    f"{type_expr.name!r} is a {describe_value(value)}, not a type", type_expr.span
                )
            return self.resolve_named_type(type_expr.name, type_expr.span)
        if isinstance(type_expr, ast.StreamTypeExpr):
            element = self.evaluate_type_expr(type_expr.element, scope)
            kwargs: dict[str, object] = {}
            for key, value_expr in type_expr.arguments:
                value = evaluate_expr(value_expr, scope)
                key_lower = key.lower()
                if key_lower in ("d", "dimension"):
                    kwargs["dimension"] = value
                elif key_lower in ("t", "throughput"):
                    kwargs["throughput"] = value
                elif key_lower in ("c", "complexity"):
                    kwargs["complexity"] = value
                elif key_lower in ("dir", "direction"):
                    kwargs["direction"] = str(value)
                elif key_lower in ("sync", "synchronicity"):
                    kwargs["synchronicity"] = str(value)
                elif key_lower == "keep":
                    kwargs["keep"] = bool(value)
                else:
                    raise TydiTypeError(f"unknown Stream argument {key!r}", type_expr.span)
            try:
                return Stream.new(element, **kwargs)  # type: ignore[arg-type]
            except (TydiTypeError, ValueError) as exc:
                raise TydiTypeError(f"invalid Stream type: {exc}", type_expr.span) from exc
        raise TydiTypeError(
            f"cannot evaluate type expression {type(type_expr).__name__}", type_expr.span
        )

    # -- template arguments ----------------------------------------------------

    def evaluate_template_arg(self, arg: ast.TemplateArg, scope: Scope) -> object:
        if isinstance(arg, ast.TypeArg):
            return TypeValue(self.evaluate_type_expr(arg.type_expr, scope))
        if isinstance(arg, ast.ImplArg):
            binding = scope.find(arg.name)
            if binding is not None and isinstance(binding.value, ImplValue):
                base = binding.value
            else:
                decl = self.program.implementations.get(arg.name)
                if decl is None:
                    raise TydiNameError(f"undefined implementation {arg.name!r}", arg.span)
                base = ImplValue(name=arg.name, declaration=decl)
            if arg.arguments:
                bound = tuple(self.evaluate_template_arg(a, scope) for a in arg.arguments)
                return ImplValue(
                    name=base.name, declaration=base.declaration, bound_arguments=bound
                )
            return base
        if isinstance(arg, ast.ExprArg):
            # An identifier naming a type or impl may also appear without the
            # `type` / `impl` keyword; resolve it helpfully.
            if isinstance(arg.expr, ast.Identifier):
                name = arg.expr.name
                binding = scope.find(name)
                if binding is not None and isinstance(binding.value, (TypeValue, ImplValue)):
                    return binding.value
                if binding is None:
                    if name in self.program.types:
                        return TypeValue(self.resolve_named_type(name, arg.span))
                    if name in self.program.implementations:
                        return ImplValue(
                            name=name, declaration=self.program.implementations[name]
                        )
            return evaluate_expr(arg.expr, scope)
        raise TydiEvaluationError(f"unsupported template argument {type(arg).__name__}", arg.span)

    def _check_param_kinds(
        self,
        params: tuple[ast.TemplateParam, ...],
        args: tuple[object, ...],
        what: str,
        span: object,
    ) -> None:
        if len(params) != len(args):
            raise TydiEvaluationError(
                f"{what} expects {len(params)} template argument(s), got {len(args)}", span
            )
        for param, value in zip(params, args):
            check = PARAM_KIND_CHECKS.get(param.kind)
            if check is None:
                raise TydiEvaluationError(f"unknown parameter kind {param.kind!r}", span)
            if not check(value):
                raise TydiTypeError(
                    f"template argument {param.name!r} of {what} must be a {param.kind}, "
                    f"got {describe_value(value)}",
                    span,
                )
            if param.kind == "impl" and param.of_streamlet is not None:
                impl_value = value  # type: ignore[assignment]
                assert isinstance(impl_value, ImplValue)
                derived_from = impl_value.declaration.streamlet
                if derived_from != param.of_streamlet:
                    raise TydiTypeError(
                        f"implementation {impl_value.name!r} passed for parameter "
                        f"{param.name!r} must be derived from streamlet "
                        f"{param.of_streamlet!r}, but it is derived from {derived_from!r}",
                        span,
                    )

    def _bind_params(
        self,
        scope: Scope,
        params: tuple[ast.TemplateParam, ...],
        args: tuple[object, ...],
    ) -> None:
        for param, value in zip(params, args):
            scope.define(param.name, value, kind="param", span=param.span)

    # -- streamlet instantiation -------------------------------------------------

    def instantiate_streamlet(
        self,
        decl: ast.StreamletDecl,
        args: tuple[object, ...] = (),
        span: object | None = None,
    ) -> Streamlet:
        """Instantiate a streamlet (template), returning the concrete Streamlet."""
        self._check_param_kinds(decl.params, args, f"streamlet {decl.name!r}", span or decl.span)
        concrete_name = decl.name if not decl.params else mangle(decl.name, args)
        if concrete_name in self._streamlet_cache:
            return self._streamlet_cache[concrete_name]

        scope = self.global_scope.child(f"streamlet {concrete_name}")
        self._bind_params(scope, decl.params, args)

        streamlet = Streamlet(name=concrete_name, documentation=decl.documentation)
        for port_decl in decl.ports:
            logical = self.evaluate_type_expr(port_decl.type_expr, scope)
            direction = PortDirection.IN if port_decl.direction == "in" else PortDirection.OUT
            clock = ClockDomain(port_decl.clock_domain) if port_decl.clock_domain else ClockDomain()
            if port_decl.array_size is not None:
                count = evaluate_expr(port_decl.array_size, scope)
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise TydiEvaluationError(
                        f"port array size of {port_decl.name!r} must be a non-negative integer, "
                        f"got {describe_value(count)}",
                        port_decl.span,
                    )
                for index in range(count):
                    streamlet.add_port(
                        Port(
                            name=f"{port_decl.name}_{index}",
                            logical_type=logical,
                            direction=direction,
                            clock_domain=clock,
                        )
                    )
            else:
                streamlet.add_port(
                    Port(
                        name=port_decl.name,
                        logical_type=logical,
                        direction=direction,
                        clock_domain=clock,
                    )
                )
        self._streamlet_cache[concrete_name] = streamlet
        self.project.add_streamlet(streamlet)
        return streamlet

    # -- implementation instantiation ---------------------------------------------

    def instantiate_impl(
        self,
        decl: ast.ImplDecl,
        args: tuple[object, ...] = (),
        span: object | None = None,
    ) -> Implementation:
        """Instantiate an implementation (template), recursively expanding its body."""
        self._check_param_kinds(decl.params, args, f"impl {decl.name!r}", span or decl.span)
        concrete_name = decl.name if not decl.params else mangle(decl.name, args)
        if concrete_name in self._impl_in_progress:
            raise TydiEvaluationError(
                f"recursive instantiation of implementation {decl.name!r}", span or decl.span
            )
        if concrete_name in self._impl_cache:
            return self._impl_cache[concrete_name]
        self._impl_in_progress.add(concrete_name)
        try:
            scope = self.global_scope.child(f"impl {concrete_name}")
            self._bind_params(scope, decl.params, args)

            streamlet_decl = self.program.streamlets.get(decl.streamlet)
            if streamlet_decl is None:
                raise TydiNameError(
                    f"implementation {decl.name!r} references undefined streamlet "
                    f"{decl.streamlet!r}",
                    decl.span,
                )
            streamlet_args = tuple(
                self.evaluate_template_arg(a, scope) for a in decl.streamlet_args
            )
            streamlet = self.instantiate_streamlet(streamlet_decl, streamlet_args, decl.span)

            implementation = Implementation(
                name=concrete_name,
                streamlet=streamlet.name,
                external=decl.external,
                documentation=decl.documentation,
                simulation=decl.simulation,
                metadata={
                    "template": decl.name,
                    "streamlet_template": decl.streamlet,
                    "arguments": args,
                },
            )
            self.project.add_streamlet(streamlet)
            # Register the (possibly still-empty) implementation before
            # walking the body so that statistics and diagnostics can refer
            # to it; the body is filled in place.
            self.project.add_implementation(implementation)
            self._impl_cache[concrete_name] = implementation

            if not decl.external:
                self._expand_items(decl.body, scope, implementation, streamlet)
            elif decl.body:
                raise TydiEvaluationError(
                    f"external implementation {decl.name!r} may not contain instances or "
                    "connections",
                    decl.span,
                )
            return implementation
        finally:
            self._impl_in_progress.discard(concrete_name)

    def _instantiate_impl_by_name(
        self,
        name: str,
        args: tuple[object, ...],
        scope: Scope,
        span: object,
    ) -> Implementation:
        """Resolve an instance target: template param, or global implementation."""
        binding = scope.find(name)
        if binding is not None and isinstance(binding.value, ImplValue):
            impl_value = binding.value
            use_args = args if args else impl_value.bound_arguments
            return self.instantiate_impl(impl_value.declaration, use_args, span)
        decl = self.program.implementations.get(name)
        if decl is None:
            raise TydiNameError(f"undefined implementation {name!r}", span)
        return self.instantiate_impl(decl, args, span)

    # -- implementation body expansion -----------------------------------------------

    def _expand_items(
        self,
        items: tuple[ast.ImplItem, ...],
        scope: Scope,
        implementation: Implementation,
        streamlet: Streamlet,
        loop_suffix: str = "",
    ) -> None:
        for item in items:
            self._expand_item(item, scope, implementation, streamlet, loop_suffix)

    def _expand_item(
        self,
        item: ast.ImplItem,
        scope: Scope,
        implementation: Implementation,
        streamlet: Streamlet,
        loop_suffix: str = "",
    ) -> None:
        if isinstance(item, ast.LocalConstDecl):
            value = evaluate_expr(item.value, scope)
            scope.define(item.name, value, kind="const", span=item.span)
            return

        if isinstance(item, ast.AssertStmt):
            condition = evaluate_expr(item.condition, scope)
            if not isinstance(condition, bool):
                raise TydiTypeError(
                    f"assert() condition must be a boolean, got {describe_value(condition)}",
                    item.span,
                )
            if not condition:
                message = ""
                if item.message is not None:
                    message = f": {evaluate_expr(item.message, scope)}"
                raise TydiAssertionError(
                    f"assertion failed in implementation {implementation.name!r}{message}",
                    item.span,
                )
            return

        if isinstance(item, ast.IfStmt):
            condition = evaluate_expr(item.condition, scope)
            if not isinstance(condition, bool):
                raise TydiTypeError(
                    f"if condition must be a boolean, got {describe_value(condition)}", item.span
                )
            body = item.then_body if condition else item.else_body
            # Items expanded from an if-scope land in the surrounding scope
            # (the paper: "expanded to the external scope"), but constants
            # declared inside shadow within a child scope.
            inner = scope.child("if")
            self._expand_items(body, inner, implementation, streamlet, loop_suffix)
            return

        if isinstance(item, ast.ForStmt):
            iterable = evaluate_expr(item.iterable, scope)
            if not isinstance(iterable, (list, tuple)):
                raise TydiTypeError(
                    f"for loop iterable must be an array or range, got {describe_value(iterable)}",
                    item.span,
                )
            for value in iterable:
                inner = scope.child(f"for {item.variable}")
                inner.define(item.variable, value, kind="loop", span=item.span)
                # Instances declared inside a loop iteration get a unique name
                # suffix derived from the loop value ("comparator" declared in
                # `for i in 0->4` becomes comparator_0 .. comparator_3, which
                # is also how `comparator[i]` references resolve).
                from repro.utils.names import render_argument

                suffix = f"{loop_suffix}_{render_argument(value)}" if loop_suffix else f"_{render_argument(value)}"
                self._expand_items(item.body, inner, implementation, streamlet, suffix)
            return

        if isinstance(item, ast.InstanceDecl):
            self._expand_instance(item, scope, implementation, loop_suffix)
            return

        if isinstance(item, ast.ConnectionStmt):
            self._expand_connection(item, scope, implementation, streamlet, loop_suffix)
            return

        raise TydiEvaluationError(
            f"unsupported implementation item {type(item).__name__}", item.span
        )

    def _expand_instance(
        self,
        item: ast.InstanceDecl,
        scope: Scope,
        implementation: Implementation,
        loop_suffix: str = "",
    ) -> None:
        args = tuple(self.evaluate_template_arg(a, scope) for a in item.arguments)
        target = self._instantiate_impl_by_name(item.target, args, scope, item.span)
        item = ast.InstanceDecl(
            span=item.span,
            name=f"{item.name}{loop_suffix}",
            target=item.target,
            arguments=item.arguments,
            array_size=item.array_size,
        )
        if item.array_size is not None:
            count = evaluate_expr(item.array_size, scope)
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise TydiEvaluationError(
                    f"instance array size of {item.name!r} must be a non-negative integer, "
                    f"got {describe_value(count)}",
                    item.span,
                )
            for index in range(count):
                implementation.add_instance(
                    Instance(
                        name=f"{item.name}_{index}",
                        implementation=target.name,
                        metadata={"array": item.name, "index": index},
                    )
                )
        else:
            implementation.add_instance(Instance(name=item.name, implementation=target.name))

    def _resolve_port_ref(
        self,
        ref: ast.PortRefExpr,
        scope: Scope,
        implementation: Implementation,
        streamlet: Streamlet,
        loop_suffix: str = "",
    ) -> tuple[PortRef, Port]:
        """The IR reference of one connection end, and the port it names."""
        if ref.owner is None:
            port_name = _indexed(ref.port, ref.port_index, scope, ref.span)
            port = streamlet.get_port(port_name)
            if port is None:
                raise TydiNameError(
                    f"implementation {implementation.name!r} has no port {port_name!r} "
                    f"on its streamlet {streamlet.name!r}",
                    ref.span,
                )
            return PortRef(port=port_name), port

        instance_name = _indexed(ref.owner, ref.owner_index, scope, ref.span)
        instance = implementation.get_instance(instance_name)
        if instance is None and loop_suffix and ref.owner_index is None:
            # Inside (possibly nested) for loops, a plain reference to an
            # instance declared in an enclosing iteration resolves to its
            # suffixed name; try the longest suffix first so the innermost
            # declaration wins.
            parts = loop_suffix.split("_")[1:]  # leading "" from the first "_"
            for depth in range(len(parts), 0, -1):
                candidate = instance_name + "_" + "_".join(parts[:depth])
                instance = implementation.get_instance(candidate)
                if instance is not None:
                    instance_name = candidate
                    break
        if instance is None:
            raise TydiNameError(
                f"implementation {implementation.name!r} has no instance {instance_name!r}",
                ref.span,
            )
        inner_impl = self.project.implementation(instance.implementation)
        inner_streamlet = self.project.streamlet(inner_impl.streamlet)
        port_name = _indexed(ref.port, ref.port_index, scope, ref.span)
        port = inner_streamlet.get_port(port_name)
        if port is None:
            raise TydiNameError(
                f"instance {instance_name!r} ({inner_impl.name}) has no port {port_name!r}",
                ref.span,
            )
        return PortRef(port=port_name, instance=instance_name), port

    def _expand_connection(
        self,
        item: ast.ConnectionStmt,
        scope: Scope,
        implementation: Implementation,
        streamlet: Streamlet,
        loop_suffix: str = "",
    ) -> None:
        source, source_port = self._resolve_port_ref(
            item.source, scope, implementation, streamlet, loop_suffix
        )
        sink, _ = self._resolve_port_ref(item.sink, scope, implementation, streamlet, loop_suffix)
        implementation.add_connection(
            Connection(
                source=source,
                sink=sink,
                logical_type=source_port.logical_type,
                structural="structural" in item.attributes,
            )
        )

    # -- driver ------------------------------------------------------------------

    def evaluate(self, top: Optional[str] = None, top_args: tuple[object, ...] = ()) -> Project:
        """Run the evaluation.

        ``top`` selects the top-level implementation; when omitted, the
        program's ``top`` declaration is used if present, otherwise every
        non-template implementation is instantiated.
        """
        self.resolve_constants()

        if top is not None:
            decl = self.program.implementations.get(top)
            if decl is None:
                raise TydiNameError(f"top implementation {top!r} is not declared")
            implementation = self.instantiate_impl(decl, top_args)
            self.project.top = implementation.name
        elif self.program.tops:
            top_decl = self.program.tops[-1]
            decl = self.program.implementations.get(top_decl.name)
            if decl is None:
                raise TydiNameError(
                    f"top implementation {top_decl.name!r} is not declared", top_decl.span
                )
            args = tuple(
                self.evaluate_template_arg(a, self.global_scope) for a in top_decl.arguments
            )
            implementation = self.instantiate_impl(decl, args, top_decl.span)
            self.project.top = implementation.name
        else:
            for decl in self.program.implementations.values():
                if not decl.is_template():
                    self.instantiate_impl(decl)

        self.project.validate()
        return self.project
