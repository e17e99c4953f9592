"""Recursive-descent parser for Tydi-lang.

The grammar accepted here follows the constructs used throughout the paper
(Sections IV and V); a compact summary:

.. code-block:: text

    file          := (package | use | const | type | group | union
                      | streamlet | impl | top)*
    package       := "package" IDENT ";"
    use           := "use" IDENT ";"
    const         := "const" IDENT "=" expr ";"
    type          := "type" IDENT "=" type_expr ";"
    group         := "Group" IDENT "{" (IDENT ":" type_expr ","?)* "}"
    union         := "Union" IDENT "{" (IDENT ":" type_expr ","?)* "}"
    streamlet     := "streamlet" IDENT params? "{" port* "}"
    port          := IDENT ":" type_expr ("in"|"out") ("[" expr "]")?
                     ("@" IDENT)? ","?
    impl          := "external"? "impl" IDENT params? "of" IDENT args?
                     ("{" impl_item* "}" | ";")
    impl_item     := instance | connection | for | if | assert | const
                     | simulation
    instance      := "instance" IDENT "(" IDENT args? ")" ("[" expr "]")? ","?
    connection    := port_ref "=>" port_ref ("@" IDENT)* ","?
    for           := "for" IDENT "in" expr "{" impl_item* "}"
    if            := "if" "(" expr ")" "{" impl_item* "}"
                     ("else" "{" impl_item* "}")?
    assert        := "assert" "(" expr ("," expr)? ")" ";"?
    params        := "<" IDENT ":" kind ("," IDENT ":" kind)* ">"
    kind          := "int"|"float"|"string"|"bool"|"clockdomain"|"type"
                     | "impl" "of" IDENT
    args          := "<" arg ("," arg)* ">"
    arg           := "type" type_expr | "impl" IDENT args? | expr
    type_expr     := "Null" | "Bit" "(" expr ")" | IDENT
                     | "Stream" "(" type_expr ("," IDENT "=" expr)* ")"
    expr          := standard precedence-climbing expression grammar with
                     ``|| && == != < <= > >= + - * / % ^ unary- !`` plus
                     calls, arrays, indexing and ``a -> b`` ranges
    simulation    := "simulation" "{" (state | handler)* "}"
    state         := "state" IDENT "=" expr ";"
    handler       := "on" event "{" sim_stmt* "}"
    event         := "receive" "(" IDENT ")" (("&&"|"||") event)*
    sim_stmt      := "send" "(" IDENT "," expr ")" ";" | "ack" "(" IDENT ")" ";"
                     | "delay" expr ";" | "state" IDENT "=" expr ";"
                     | "if" "(" expr ")" "{" sim_stmt* "}" ("else" ...)?
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TydiSyntaxError
from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.utils.source import SourceSpan

_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT


class Parser:
    """Token-stream parser producing a :class:`repro.lang.ast.SourceUnit`."""

    def __init__(self, tokens: list[Token], filename: str = "<string>") -> None:
        self.tokens = tokens
        self.filename = filename
        self.position = 0
        # ``advance`` stops at the closing EOF token, so ``position`` never
        # passes it; only a lookahead ``offset`` needs clamping.
        self._eof = len(tokens) - 1

    # -- token-stream helpers ------------------------------------------------
    #
    # The helpers below read ``self.tokens[self.position]`` directly instead
    # of calling ``peek``: they run several times per token.

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.position + offset, self._eof)]
        return self.tokens[self.position]

    def at(self, kind: TokenKind, text: Optional[str] = None, offset: int = 0) -> bool:
        token = self.peek(offset) if offset else self.tokens[self.position]
        if token.kind is not kind:
            return False
        return text is None or token.text == text

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        return self.at(_IDENT, word, offset)

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not _EOF:
            self.position += 1
        return token

    def expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        token = self.tokens[self.position]
        if token.kind is not kind or (text is not None and token.text != text):
            expected = text if text is not None else kind.value
            raise TydiSyntaxError(
                f"expected {expected!r} but found {token.text or token.kind.value!r}", token.span
            )
        if kind is not _EOF:
            self.position += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        return self.expect(_IDENT, word)

    def expect_identifier(self) -> Token:
        token = self.tokens[self.position]
        if token.kind is not _IDENT:
            raise TydiSyntaxError(
                f"expected an identifier but found {token.text or token.kind.value!r}", token.span
            )
        self.position += 1
        return token

    def optional(self, kind: TokenKind, text: Optional[str] = None) -> Optional[Token]:
        token = self.tokens[self.position]
        if token.kind is not kind or (text is not None and token.text != text):
            return None
        if kind is not _EOF:
            self.position += 1
        return token

    def span_from(self, start: Token) -> SourceSpan:
        """The span from ``start`` to the last consumed token."""
        return start.span.merge(self.tokens[self.position - 1].span)

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.SourceUnit:
        unit = ast.SourceUnit(package="main", filename=self.filename)
        while not self.at(TokenKind.EOF):
            declaration = self.parse_declaration()
            if isinstance(declaration, ast.PackageDecl):
                unit.package = declaration.name
            elif isinstance(declaration, ast.UseDecl):
                unit.uses.append(declaration.name)
            unit.declarations.append(declaration)
        return unit

    def parse_declaration(self) -> ast.Declaration:
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            raise TydiSyntaxError(
                f"expected a declaration but found {token.text or token.kind.value!r}", token.span
            )
        word = token.text
        if word == "package":
            return self.parse_package()
        if word == "use":
            return self.parse_use()
        if word == "const":
            return self.parse_const()
        if word == "type":
            return self.parse_type_alias()
        if word == "Group":
            return self.parse_group()
        if word == "Union":
            return self.parse_union()
        if word == "streamlet":
            return self.parse_streamlet()
        if word in ("impl", "external"):
            return self.parse_impl()
        if word == "top":
            return self.parse_top()
        raise TydiSyntaxError(f"unexpected declaration keyword {word!r}", token.span)

    def parse_package(self) -> ast.PackageDecl:
        start = self.expect_keyword("package")
        name = self.expect_identifier().text
        self.expect(TokenKind.SEMICOLON)
        return ast.PackageDecl(span=self.span_from(start), name=name)

    def parse_use(self) -> ast.UseDecl:
        start = self.expect_keyword("use")
        name = self.expect_identifier().text
        self.expect(TokenKind.SEMICOLON)
        return ast.UseDecl(span=self.span_from(start), name=name)

    def parse_const(self) -> ast.ConstDecl:
        start = self.expect_keyword("const")
        name = self.expect_identifier().text
        self.expect(TokenKind.ASSIGN)
        value = self.parse_expression()
        self.expect(TokenKind.SEMICOLON)
        return ast.ConstDecl(span=self.span_from(start), name=name, value=value)

    def parse_type_alias(self) -> ast.TypeAliasDecl:
        start = self.expect_keyword("type")
        name = self.expect_identifier().text
        self.expect(TokenKind.ASSIGN)
        type_expr = self.parse_type_expr()
        self.expect(TokenKind.SEMICOLON)
        return ast.TypeAliasDecl(span=self.span_from(start), name=name, type_expr=type_expr)

    def _parse_field_list(self) -> tuple[tuple[str, ast.TypeExpr], ...]:
        fields: list[tuple[str, ast.TypeExpr]] = []
        self.expect(TokenKind.LBRACE)
        while not self.at(TokenKind.RBRACE):
            field_name = self.expect_identifier().text
            self.expect(TokenKind.COLON)
            field_type = self.parse_type_expr()
            fields.append((field_name, field_type))
            if not self.optional(TokenKind.COMMA):
                break
        self.expect(TokenKind.RBRACE)
        return tuple(fields)

    def parse_group(self) -> ast.GroupDecl:
        start = self.expect_keyword("Group")
        name = self.expect_identifier().text
        fields = self._parse_field_list()
        return ast.GroupDecl(span=self.span_from(start), name=name, fields=fields)

    def parse_union(self) -> ast.UnionDecl:
        start = self.expect_keyword("Union")
        name = self.expect_identifier().text
        variants = self._parse_field_list()
        return ast.UnionDecl(span=self.span_from(start), name=name, variants=variants)

    def parse_top(self) -> ast.TopDecl:
        start = self.expect_keyword("top")
        name = self.expect_identifier().text
        arguments = self.parse_template_args() if self.at(TokenKind.LANGLE) else ()
        self.expect(TokenKind.SEMICOLON)
        return ast.TopDecl(span=self.span_from(start), name=name, arguments=arguments)

    # -- template parameters and arguments ------------------------------------

    def parse_template_params(self) -> tuple[ast.TemplateParam, ...]:
        params: list[ast.TemplateParam] = []
        self.expect(TokenKind.LANGLE)
        while not self.at(TokenKind.RANGLE):
            start = self.expect_identifier()
            self.expect(TokenKind.COLON)
            kind_token = self.expect_identifier()
            kind = kind_token.text
            of_streamlet: Optional[str] = None
            if kind == "impl":
                self.expect_keyword("of")
                of_streamlet = self.expect_identifier().text
            elif kind not in ("int", "float", "string", "bool", "clockdomain", "type"):
                raise TydiSyntaxError(f"unknown template parameter kind {kind!r}", kind_token.span)
            params.append(
                ast.TemplateParam(
                    span=self.span_from(start), name=start.text, kind=kind, of_streamlet=of_streamlet
                )
            )
            if not self.optional(TokenKind.COMMA):
                break
        self.expect(TokenKind.RANGLE)
        return tuple(params)

    def parse_template_args(self) -> tuple[ast.TemplateArg, ...]:
        args: list[ast.TemplateArg] = []
        self.expect(TokenKind.LANGLE)
        while not self.at(TokenKind.RANGLE):
            args.append(self.parse_template_arg())
            if not self.optional(TokenKind.COMMA):
                break
        self.expect(TokenKind.RANGLE)
        return tuple(args)

    def parse_template_arg(self) -> ast.TemplateArg:
        token = self.peek()
        if token.is_keyword("type"):
            start = self.advance()
            type_expr = self.parse_type_expr()
            return ast.TypeArg(span=self.span_from(start), type_expr=type_expr)
        if token.is_keyword("impl"):
            start = self.advance()
            name = self.expect_identifier().text
            inner_args: tuple[ast.TemplateArg, ...] = ()
            if self.at(TokenKind.LANGLE):
                inner_args = self.parse_template_args()
            return ast.ImplArg(span=self.span_from(start), name=name, arguments=inner_args)
        start = token
        expr = self.parse_expression(inside_template_args=True)
        return ast.ExprArg(span=self.span_from(start), expr=expr)

    # -- streamlets ------------------------------------------------------------

    def parse_streamlet(self) -> ast.StreamletDecl:
        start = self.expect_keyword("streamlet")
        name = self.expect_identifier().text
        params = self.parse_template_params() if self.at(TokenKind.LANGLE) else ()
        ports: list[ast.PortDecl] = []
        self.expect(TokenKind.LBRACE)
        while not self.at(TokenKind.RBRACE):
            ports.append(self.parse_port())
            if not self.optional(TokenKind.COMMA):
                self.optional(TokenKind.SEMICOLON)
        self.expect(TokenKind.RBRACE)
        return ast.StreamletDecl(
            span=self.span_from(start), name=name, params=params, ports=tuple(ports)
        )

    def parse_port(self) -> ast.PortDecl:
        start = self.expect_identifier()
        self.expect(TokenKind.COLON)
        type_expr = self.parse_type_expr()
        direction_token = self.expect_identifier()
        if direction_token.text not in ("in", "out"):
            raise TydiSyntaxError(
                f"port direction must be 'in' or 'out', got {direction_token.text!r}",
                direction_token.span,
            )
        array_size: Optional[ast.Expr] = None
        if self.optional(TokenKind.LBRACKET):
            array_size = self.parse_expression()
            self.expect(TokenKind.RBRACKET)
        clock_domain: Optional[str] = None
        if self.optional(TokenKind.AT):
            clock_domain = self.expect_identifier().text
        return ast.PortDecl(
            span=self.span_from(start),
            name=start.text,
            type_expr=type_expr,
            direction=direction_token.text,
            array_size=array_size,
            clock_domain=clock_domain,
        )

    # -- implementations -------------------------------------------------------

    def parse_impl(self) -> ast.ImplDecl:
        start = self.peek()
        external = False
        if self.at_keyword("external"):
            external = True
            self.advance()
        self.expect_keyword("impl")
        name = self.expect_identifier().text
        params = self.parse_template_params() if self.at(TokenKind.LANGLE) else ()
        self.expect_keyword("of")
        streamlet = self.expect_identifier().text
        streamlet_args = self.parse_template_args() if self.at(TokenKind.LANGLE) else ()

        body: tuple[ast.ImplItem, ...] = ()
        simulation: Optional[ast.SimulationBlock] = None
        if self.optional(TokenKind.SEMICOLON):
            pass  # external impl with no body
        else:
            body, simulation = self.parse_impl_body()
        return ast.ImplDecl(
            span=self.span_from(start),
            name=name,
            params=params,
            streamlet=streamlet,
            streamlet_args=streamlet_args,
            body=body,
            external=external,
            simulation=simulation,
        )

    def parse_impl_body(self) -> tuple[tuple[ast.ImplItem, ...], Optional[ast.SimulationBlock]]:
        self.expect(TokenKind.LBRACE)
        items: list[ast.ImplItem] = []
        simulation: Optional[ast.SimulationBlock] = None
        while not self.at(TokenKind.RBRACE):
            if self.at_keyword("simulation"):
                if simulation is not None:
                    raise TydiSyntaxError(
                        "an implementation may contain at most one simulation block",
                        self.peek().span,
                    )
                simulation = self.parse_simulation_block()
                continue
            items.append(self.parse_impl_item())
        self.expect(TokenKind.RBRACE)
        return tuple(items), simulation

    def parse_impl_items_block(self) -> tuple[ast.ImplItem, ...]:
        self.expect(TokenKind.LBRACE)
        items: list[ast.ImplItem] = []
        while not self.at(TokenKind.RBRACE):
            items.append(self.parse_impl_item())
        self.expect(TokenKind.RBRACE)
        return tuple(items)

    def parse_impl_item(self) -> ast.ImplItem:
        token = self.peek()
        if token.is_keyword("instance"):
            return self.parse_instance()
        if token.is_keyword("for"):
            return self.parse_for()
        if token.is_keyword("if"):
            return self.parse_if()
        if token.is_keyword("assert"):
            return self.parse_assert()
        if token.is_keyword("const"):
            start = self.advance()
            name = self.expect_identifier().text
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expression()
            self._end_statement()
            return ast.LocalConstDecl(span=self.span_from(start), name=name, value=value)
        return self.parse_connection()

    def _end_statement(self) -> None:
        """Consume a statement terminator: ``,`` or ``;`` (either accepted)."""
        if not (self.optional(TokenKind.COMMA) or self.optional(TokenKind.SEMICOLON)):
            # Allow the last statement before '}' to omit its terminator.
            if not self.at(TokenKind.RBRACE):
                token = self.peek()
                raise TydiSyntaxError(
                    f"expected ',' or ';' after statement, found {token.text or token.kind.value!r}",
                    token.span,
                )

    def parse_instance(self) -> ast.InstanceDecl:
        start = self.expect_keyword("instance")
        name = self.expect_identifier().text
        self.expect(TokenKind.LPAREN)
        target = self.expect_identifier().text
        arguments = self.parse_template_args() if self.at(TokenKind.LANGLE) else ()
        self.expect(TokenKind.RPAREN)
        array_size: Optional[ast.Expr] = None
        if self.optional(TokenKind.LBRACKET):
            array_size = self.parse_expression()
            self.expect(TokenKind.RBRACKET)
        self._end_statement()
        return ast.InstanceDecl(
            span=self.span_from(start),
            name=name,
            target=target,
            arguments=arguments,
            array_size=array_size,
        )

    def parse_port_ref(self) -> ast.PortRefExpr:
        start = self.expect_identifier()
        first = start.text
        first_index: Optional[ast.Expr] = None
        if self.optional(TokenKind.LBRACKET):
            first_index = self.parse_expression()
            self.expect(TokenKind.RBRACKET)
        if self.optional(TokenKind.DOT):
            port = self.expect_identifier().text
            port_index: Optional[ast.Expr] = None
            if self.optional(TokenKind.LBRACKET):
                port_index = self.parse_expression()
                self.expect(TokenKind.RBRACKET)
            return ast.PortRefExpr(
                span=self.span_from(start),
                port=port,
                owner=first,
                owner_index=first_index,
                port_index=port_index,
            )
        return ast.PortRefExpr(
            span=self.span_from(start), port=first, owner=None, owner_index=None, port_index=first_index
        )

    def parse_connection(self) -> ast.ConnectionStmt:
        start = self.peek()
        source = self.parse_port_ref()
        self.expect(TokenKind.ARROW)
        sink = self.parse_port_ref()
        attributes: list[str] = []
        while self.optional(TokenKind.AT):
            attributes.append(self.expect_identifier().text)
        self._end_statement()
        return ast.ConnectionStmt(
            span=self.span_from(start), source=source, sink=sink, attributes=tuple(attributes)
        )

    def parse_for(self) -> ast.ForStmt:
        start = self.expect_keyword("for")
        variable = self.expect_identifier().text
        self.expect_keyword("in")
        iterable = self.parse_expression()
        body = self.parse_impl_items_block()
        self.optional(TokenKind.COMMA) or self.optional(TokenKind.SEMICOLON)
        return ast.ForStmt(span=self.span_from(start), variable=variable, iterable=iterable, body=body)

    def parse_if(self) -> ast.IfStmt:
        start = self.expect_keyword("if")
        self.expect(TokenKind.LPAREN)
        condition = self.parse_expression()
        self.expect(TokenKind.RPAREN)
        then_body = self.parse_impl_items_block()
        else_body: tuple[ast.ImplItem, ...] = ()
        if self.at_keyword("else"):
            self.advance()
            if self.at_keyword("if"):
                else_body = (self.parse_if(),)
            else:
                else_body = self.parse_impl_items_block()
        self.optional(TokenKind.COMMA) or self.optional(TokenKind.SEMICOLON)
        return ast.IfStmt(
            span=self.span_from(start), condition=condition, then_body=then_body, else_body=else_body
        )

    def parse_assert(self) -> ast.AssertStmt:
        start = self.expect_keyword("assert")
        self.expect(TokenKind.LPAREN)
        condition = self.parse_expression()
        message: Optional[ast.Expr] = None
        if self.optional(TokenKind.COMMA):
            message = self.parse_expression()
        self.expect(TokenKind.RPAREN)
        self._end_statement()
        return ast.AssertStmt(span=self.span_from(start), condition=condition, message=message)

    # -- simulation blocks -----------------------------------------------------

    def parse_simulation_block(self) -> ast.SimulationBlock:
        self.expect_keyword("simulation")
        self.expect(TokenKind.LBRACE)
        states: list[ast.StateDecl] = []
        handlers: list[ast.EventHandler] = []
        while not self.at(TokenKind.RBRACE):
            if self.at_keyword("state"):
                start = self.advance()
                name = self.expect_identifier().text
                self.expect(TokenKind.ASSIGN)
                initial = self.parse_expression()
                self.expect(TokenKind.SEMICOLON)
                states.append(ast.StateDecl(span=self.span_from(start), name=name, initial=initial))
            elif self.at_keyword("on"):
                handlers.append(self.parse_event_handler())
            else:
                token = self.peek()
                raise TydiSyntaxError(
                    f"expected 'state' or 'on' in simulation block, found {token.text!r}", token.span
                )
        self.expect(TokenKind.RBRACE)
        # Use the block's closing brace span as the block span.
        span = self.tokens[self.position - 1].span
        return ast.SimulationBlock(span=span, states=tuple(states), handlers=tuple(handlers))

    def parse_event_handler(self) -> ast.EventHandler:
        start = self.expect_keyword("on")
        event = self.parse_event_expr()
        body = self.parse_sim_body()
        return ast.EventHandler(span=self.span_from(start), event=event, body=body)

    def parse_event_expr(self) -> ast.EventExpr:
        left = self.parse_event_atom()
        while self.at(TokenKind.AND) or self.at(TokenKind.OR):
            op_token = self.advance()
            right = self.parse_event_atom()
            left = ast.CombinedEvent(
                span=left.span.merge(right.span),
                op="&&" if op_token.kind is TokenKind.AND else "||",
                left=left,
                right=right,
            )
        return left

    def parse_event_atom(self) -> ast.EventExpr:
        if self.optional(TokenKind.LPAREN):
            event = self.parse_event_expr()
            self.expect(TokenKind.RPAREN)
            return event
        start = self.expect_keyword("receive")
        self.expect(TokenKind.LPAREN)
        port = self.expect_identifier().text
        self.expect(TokenKind.RPAREN)
        return ast.ReceiveEvent(span=self.span_from(start), port=port)

    def parse_sim_body(self) -> tuple[ast.SimStmt, ...]:
        self.expect(TokenKind.LBRACE)
        statements: list[ast.SimStmt] = []
        while not self.at(TokenKind.RBRACE):
            statements.append(self.parse_sim_stmt())
        self.expect(TokenKind.RBRACE)
        return tuple(statements)

    def parse_sim_stmt(self) -> ast.SimStmt:
        token = self.peek()
        if token.is_keyword("send"):
            start = self.advance()
            self.expect(TokenKind.LPAREN)
            port = self.expect_identifier().text
            self.expect(TokenKind.COMMA)
            value = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            self.expect(TokenKind.SEMICOLON)
            return ast.SendStmt(span=self.span_from(start), port=port, value=value)
        if token.is_keyword("ack"):
            start = self.advance()
            self.expect(TokenKind.LPAREN)
            port = self.expect_identifier().text
            self.expect(TokenKind.RPAREN)
            self.expect(TokenKind.SEMICOLON)
            return ast.AckStmt(span=self.span_from(start), port=port)
        if token.is_keyword("delay"):
            start = self.advance()
            cycles = self.parse_expression()
            self.expect(TokenKind.SEMICOLON)
            return ast.DelayStmt(span=self.span_from(start), cycles=cycles)
        if token.is_keyword("state"):
            start = self.advance()
            name = self.expect_identifier().text
            self.expect(TokenKind.ASSIGN)
            value = self.parse_expression()
            self.expect(TokenKind.SEMICOLON)
            return ast.SetStateStmt(span=self.span_from(start), name=name, value=value)
        if token.is_keyword("if"):
            start = self.advance()
            self.expect(TokenKind.LPAREN)
            condition = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            then_body = self.parse_sim_body()
            else_body: tuple[ast.SimStmt, ...] = ()
            if self.at_keyword("else"):
                self.advance()
                else_body = self.parse_sim_body()
            return ast.SimIfStmt(
                span=self.span_from(start), condition=condition, then_body=then_body, else_body=else_body
            )
        raise TydiSyntaxError(
            f"expected a simulation statement, found {token.text or token.kind.value!r}", token.span
        )

    # -- type expressions --------------------------------------------------------

    def parse_type_expr(self) -> ast.TypeExpr:
        token = self.peek()
        if token.is_keyword("Null"):
            start = self.advance()
            return ast.NullTypeExpr(span=self.span_from(start))
        if token.is_keyword("Bit"):
            start = self.advance()
            self.expect(TokenKind.LPAREN)
            width = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            return ast.BitTypeExpr(span=self.span_from(start), width=width)
        if token.is_keyword("Stream"):
            start = self.advance()
            self.expect(TokenKind.LPAREN)
            element = self.parse_type_expr()
            arguments: list[tuple[str, ast.Expr]] = []
            while self.optional(TokenKind.COMMA):
                if self.at(TokenKind.RPAREN):
                    break
                key = self.expect_identifier().text
                self.expect(TokenKind.ASSIGN)
                value = self.parse_expression()
                arguments.append((key, value))
            self.expect(TokenKind.RPAREN)
            return ast.StreamTypeExpr(
                span=self.span_from(start), element=element, arguments=tuple(arguments)
            )
        if token.kind is TokenKind.IDENT:
            start = self.advance()
            return ast.NamedTypeExpr(span=self.span_from(start), name=start.text)
        raise TydiSyntaxError(
            f"expected a type expression, found {token.text or token.kind.value!r}", token.span
        )

    # -- expressions ---------------------------------------------------------------

    def parse_expression(self, inside_template_args: bool = False) -> ast.Expr:
        return self._parse_range(inside_template_args)

    def _parse_range(self, ita: bool) -> ast.Expr:
        left = self._parse_or(ita)
        if self.at(TokenKind.RANGE):
            self.advance()
            right = self._parse_or(ita)
            return ast.RangeExpr(span=left.span.merge(right.span), start=left, end=right)
        return left

    def _parse_or(self, ita: bool) -> ast.Expr:
        left = self._parse_and(ita)
        while self.at(TokenKind.OR):
            self.advance()
            right = self._parse_and(ita)
            left = ast.BinaryOp(span=left.span.merge(right.span), op="||", left=left, right=right)
        return left

    def _parse_and(self, ita: bool) -> ast.Expr:
        left = self._parse_comparison(ita)
        while self.at(TokenKind.AND):
            self.advance()
            right = self._parse_comparison(ita)
            left = ast.BinaryOp(span=left.span.merge(right.span), op="&&", left=left, right=right)
        return left

    def _parse_comparison(self, ita: bool) -> ast.Expr:
        left = self._parse_additive(ita)
        while True:
            op: Optional[str] = None
            if self.at(TokenKind.EQ):
                op = "=="
            elif self.at(TokenKind.NEQ):
                op = "!="
            elif self.at(TokenKind.LE):
                op = "<="
            elif self.at(TokenKind.GE):
                op = ">="
            elif self.at(TokenKind.LANGLE) and not ita:
                op = "<"
            elif self.at(TokenKind.RANGLE) and not ita:
                op = ">"
            if op is None:
                return left
            self.advance()
            right = self._parse_additive(ita)
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)

    def _parse_additive(self, ita: bool) -> ast.Expr:
        left = self._parse_multiplicative(ita)
        while self.at(TokenKind.PLUS) or self.at(TokenKind.MINUS):
            op = "+" if self.at(TokenKind.PLUS) else "-"
            self.advance()
            right = self._parse_multiplicative(ita)
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)
        return left

    def _parse_multiplicative(self, ita: bool) -> ast.Expr:
        left = self._parse_power(ita)
        while self.at(TokenKind.STAR) or self.at(TokenKind.SLASH) or self.at(TokenKind.PERCENT):
            if self.at(TokenKind.STAR):
                op = "*"
            elif self.at(TokenKind.SLASH):
                op = "/"
            else:
                op = "%"
            self.advance()
            right = self._parse_power(ita)
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)
        return left

    def _parse_power(self, ita: bool) -> ast.Expr:
        base = self._parse_unary(ita)
        if self.at(TokenKind.CARET):
            self.advance()
            exponent = self._parse_power(ita)  # right-associative
            return ast.BinaryOp(span=base.span.merge(exponent.span), op="^", left=base, right=exponent)
        return base

    def _parse_unary(self, ita: bool) -> ast.Expr:
        if self.at(TokenKind.MINUS):
            start = self.advance()
            operand = self._parse_unary(ita)
            return ast.UnaryOp(span=start.span.merge(operand.span), op="-", operand=operand)
        if self.at(TokenKind.NOT):
            start = self.advance()
            operand = self._parse_unary(ita)
            return ast.UnaryOp(span=start.span.merge(operand.span), op="!", operand=operand)
        return self._parse_postfix(ita)

    def _parse_postfix(self, ita: bool) -> ast.Expr:
        expr = self._parse_primary(ita)
        while self.at(TokenKind.LBRACKET):
            self.advance()
            index = self.parse_expression()
            self.expect(TokenKind.RBRACKET)
            expr = ast.IndexExpr(span=expr.span, base=expr, index=index)
        return expr

    def _parse_primary(self, ita: bool) -> ast.Expr:
        token = self.peek()
        if token.kind is TokenKind.INT or token.kind is TokenKind.FLOAT:
            self.advance()
            return ast.Literal(span=token.span, value=token.value)
        if token.kind is TokenKind.STRING:
            self.advance()
            return ast.Literal(span=token.span, value=token.value)
        if token.is_keyword("true"):
            self.advance()
            return ast.Literal(span=token.span, value=True)
        if token.is_keyword("false"):
            self.advance()
            return ast.Literal(span=token.span, value=False)
        if token.kind is TokenKind.LPAREN:
            self.advance()
            expr = self.parse_expression()
            self.expect(TokenKind.RPAREN)
            return expr
        if token.kind is TokenKind.LBRACKET:
            start = self.advance()
            items: list[ast.Expr] = []
            while not self.at(TokenKind.RBRACKET):
                items.append(self.parse_expression())
                if not self.optional(TokenKind.COMMA):
                    break
            self.expect(TokenKind.RBRACKET)
            return ast.ArrayLiteral(span=self.span_from(start), items=tuple(items))
        if token.kind is TokenKind.IDENT:
            self.advance()
            if self.at(TokenKind.LPAREN):
                self.advance()
                arguments: list[ast.Expr] = []
                while not self.at(TokenKind.RPAREN):
                    arguments.append(self.parse_expression())
                    if not self.optional(TokenKind.COMMA):
                        break
                self.expect(TokenKind.RPAREN)
                return ast.Call(span=token.span, function=token.text, arguments=tuple(arguments))
            return ast.Identifier(span=token.span, name=token.text)
        raise TydiSyntaxError(
            f"expected an expression, found {token.text or token.kind.value!r}", token.span
        )


def parse_source(text: str, filename: str = "<string>") -> ast.SourceUnit:
    """Tokenize and parse one Tydi-lang source file."""
    tokens = tokenize(text, filename)
    return Parser(tokens, filename).parse_unit()
