"""Recursive-descent parser for the Vault surface language.

The grammar is C-like (paper §2.1).  The classic declaration-versus-
expression ambiguity (``FILE input;`` vs. ``input;``) is resolved by
speculative parsing with backtracking: at statement level we first try
to parse ``type IDENT`` and fall back to an expression statement.

Vault-specific syntax handled here:

* guarded types            ``K:FILE``, ``K@open:FILE``,
                           ``(IRQL @ (level<=APC_LEVEL)):T``
* tracked types            ``tracked(K) T``, ``tracked(K@st) T``,
                           ``tracked(@raw) T``, ``tracked T``
* effect clauses           ``[K@a->b]``, ``[-K@a]``, ``[+K@b]``,
                           ``[new K@b]``, ``[IRQL@(l<=DISPATCH)->DISPATCH]``
* variants with keys       ``variant opt_key<key K> ['NoKey | 'SomeKey{K}];``
* constructor application  ``'SomeKey{F}``, ``'Cons(rgn, 'Nil)``
* switch pattern matching  ``case 'Error(code): ...``
* statesets / global keys  ``stateset L = [a < b]; key IRQL @ L;``
* allocation               ``new tracked point {x=3; y=4;}``,
                           ``new(rgn) point {...}``
* nested function defs     (Figure 7's ``RegainIrp``)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..diagnostics import ParseError, Pos, Span
from ..obs.trace import current_tracer
from . import ast
from .lexer import tokenize
from .tokens import BASE_TYPE_TOKENS, T, Token


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<input>"):
        self.toks = tokens
        self.pos = 0
        self.filename = filename
        self._last = len(tokens) - 1   # index of the EOF sentinel

    # -- token helpers ------------------------------------------------------

    # ``self.pos <= self._last`` is an invariant: the cursor only moves
    # past non-EOF tokens, so ``self.toks[self.pos]`` is always valid
    # and the zero-lookahead helpers need no clamping.

    def _peek(self, ahead: int = 0) -> Token:
        if ahead:
            i = self.pos + ahead
            return self.toks[i if i < self._last else self._last]
        return self.toks[self.pos]

    def _at(self, kind: T, ahead: int = 0) -> bool:
        if ahead:
            i = self.pos + ahead
            return self.toks[i if i < self._last else self._last].kind is kind
        return self.toks[self.pos].kind is kind

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind is not T.EOF:
            self.pos += 1
        return tok

    def _accept(self, kind: T) -> Optional[Token]:
        tok = self.toks[self.pos]
        if tok.kind is kind:
            if kind is not T.EOF:
                self.pos += 1
            return tok
        return None

    def _expect(self, kind: T, what: str = "") -> Token:
        tok = self.toks[self.pos]
        if tok.kind is kind:
            if kind is not T.EOF:
                self.pos += 1
            return tok
        wanted = what or kind.value
        raise ParseError(f"expected {wanted}, found {tok.kind.value} {tok.text!r}",
                         tok.span)

    def _span_from(self, start: Span) -> Span:
        # The last consumed token always ends at or after ``start`` (a
        # construct consumes its first token before widening), so the
        # covering span is just (start.start, last end).  The end
        # ``Pos`` is built from the token's scalar fields: most closing
        # tokens (``;``, ``}``, ``)``) never need a ``Span`` of their own.
        last = self.toks[self.pos - 1 if self.pos else 0]
        s = start.start
        line = last.line
        if line < s.line or (line == s.line and last.end_col < s.col):
            return start.merge(last.span)
        return Span(s, Pos(line, last.end_col), self.filename)

    # -- entry points ---------------------------------------------------------

    #: Set by :func:`parse_program` when it lexed the text itself: the
    #: parser then owns ``toks`` and releases each top-level
    #: declaration's tokens once it is parsed.  A caller's list is
    #: never mutated.
    _owns_tokens = False

    def parse_program(self) -> ast.Program:
        toks = self.toks
        start = toks[self.pos].span
        decls: List[ast.Decl] = []
        done = 0
        while toks[self.pos].kind is not T.EOF:
            decls.append(self.parse_topdecl())
            if self._owns_tokens:
                # Backtracking never crosses a top-level declaration,
                # so its tokens are dead.  The last one stays: the
                # next ``_span_from`` may read it.
                last = self.pos - 1
                toks[done:last] = [None] * (last - done)
                done = last
        return ast.Program(self._span_from(start), decls, self.filename)

    # -- top-level declarations ----------------------------------------------

    def parse_topdecl(self) -> ast.Decl:
        if self._at(T.KW_INTERFACE):
            return self.parse_interface()
        if self._at(T.KW_EXTERN) or self._at(T.KW_MODULE):
            return self.parse_module()
        if self._at(T.KW_TYPE):
            return self.parse_type_decl()
        if self._at(T.KW_VARIANT):
            return self.parse_variant_decl()
        if self._at(T.KW_STRUCT):
            return self.parse_struct_decl()
        if self._at(T.KW_STATESET):
            return self.parse_stateset_decl()
        if self._at(T.KW_KEY):
            return self.parse_key_decl()
        return self.parse_fun(allow_body=True)

    def parse_interface(self) -> ast.InterfaceDecl:
        start = self._expect(T.KW_INTERFACE).span
        name = self._expect(T.IDENT).text
        self._expect(T.LBRACE)
        decls: List[ast.Decl] = []
        while not self._at(T.RBRACE):
            if self._at(T.KW_TYPE):
                decls.append(self.parse_type_decl())
            elif self._at(T.KW_VARIANT):
                decls.append(self.parse_variant_decl())
            elif self._at(T.KW_STRUCT):
                decls.append(self.parse_struct_decl())
            elif self._at(T.KW_STATESET):
                decls.append(self.parse_stateset_decl())
            elif self._at(T.KW_KEY):
                decls.append(self.parse_key_decl())
            else:
                decls.append(self.parse_fun(allow_body=False))
        self._expect(T.RBRACE)
        return ast.InterfaceDecl(self._span_from(start), name, decls)

    def parse_module(self) -> ast.ModuleDecl:
        start = self._peek().span
        is_extern = bool(self._accept(T.KW_EXTERN))
        self._expect(T.KW_MODULE)
        name = self._expect(T.IDENT).text
        iface = None
        if self._accept(T.COLON):
            iface = self._expect(T.IDENT).text
        decls: List[ast.Decl] = []
        if is_extern:
            self._expect(T.SEMI)
        else:
            self._expect(T.LBRACE)
            while not self._at(T.RBRACE):
                decls.append(self.parse_topdecl())
            self._expect(T.RBRACE)
        return ast.ModuleDecl(self._span_from(start), name, iface, decls, is_extern)

    def parse_type_decl(self) -> ast.TypeAliasDecl:
        start = self._expect(T.KW_TYPE).span
        name = self._expect(T.IDENT).text
        params = self.parse_type_params()
        rhs: Optional[ast.Type] = None
        if self._accept(T.ASSIGN):
            rhs = self.parse_type()
            # Function-type alias: ``= rettype Name(params) [effect]``
            if self._at(T.IDENT) and self._at(T.LPAREN, 1):
                fname = self._advance().text
                params_list = self.parse_params()
                effect = self.parse_effect_opt()
                rhs = ast.FunType(self._span_from(start), rhs, params_list,
                                  effect, fname)
        self._expect(T.SEMI)
        return ast.TypeAliasDecl(self._span_from(start), name, params, rhs)

    def parse_variant_decl(self) -> ast.VariantDecl:
        start = self._expect(T.KW_VARIANT).span
        name = self._expect(T.IDENT).text
        params = self.parse_type_params()
        self._expect(T.LBRACKET)
        ctors = [self.parse_ctor_decl()]
        while self._accept(T.PIPE):
            ctors.append(self.parse_ctor_decl())
        self._expect(T.RBRACKET)
        self._expect(T.SEMI)
        return ast.VariantDecl(self._span_from(start), name, params, ctors)

    def parse_ctor_decl(self) -> ast.CtorDecl:
        tok = self._expect(T.CTOR, "constructor name")
        args: List[ast.Type] = []
        keys: List[Tuple[str, Optional[ast.StateExpr]]] = []
        if self._accept(T.LPAREN):
            if not self._at(T.RPAREN):
                args.append(self.parse_type())
                while self._accept(T.COMMA):
                    args.append(self.parse_type())
            self._expect(T.RPAREN)
        if self._accept(T.LBRACE):
            while not self._at(T.RBRACE):
                kname = self._expect(T.IDENT).text
                kstate = None
                if self._accept(T.AT):
                    kstate = self.parse_state_expr()
                keys.append((kname, kstate))
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RBRACE)
        return ast.CtorDecl(tok.span, tok.text, args, keys)

    def parse_struct_decl(self) -> ast.StructDecl:
        start = self._expect(T.KW_STRUCT).span
        name = self._expect(T.IDENT).text
        params = self.parse_type_params()
        self._expect(T.LBRACE)
        fields: List[ast.StructField] = []
        while not self._at(T.RBRACE):
            fstart = self._peek().span
            ftype = self.parse_type()
            fname = self._expect(T.IDENT).text
            self._expect(T.SEMI)
            fields.append(ast.StructField(self._span_from(fstart), ftype, fname))
        self._expect(T.RBRACE)
        self._accept(T.SEMI)
        return ast.StructDecl(self._span_from(start), name, params, fields)

    def parse_stateset_decl(self) -> ast.StateSetDecl:
        start = self._expect(T.KW_STATESET).span
        name = self._expect(T.IDENT).text
        self._expect(T.ASSIGN)
        self._expect(T.LBRACKET)
        states: List[str] = []
        order: List[Tuple[str, str]] = []

        def parse_chain() -> None:
            prev = self._expect(T.IDENT).text
            if prev not in states:
                states.append(prev)
            while self._accept(T.LT):
                nxt = self._expect(T.IDENT).text
                if nxt not in states:
                    states.append(nxt)
                order.append((prev, nxt))
                prev = nxt

        parse_chain()
        while self._accept(T.COMMA):
            parse_chain()
        self._expect(T.RBRACKET)
        self._expect(T.SEMI)
        return ast.StateSetDecl(self._span_from(start), name, states, order)

    def parse_key_decl(self) -> ast.KeyDecl:
        start = self._expect(T.KW_KEY).span
        name = self._expect(T.IDENT).text
        stateset = None
        initial = None
        if self._accept(T.AT):
            stateset = self._expect(T.IDENT).text
        if self._accept(T.ASSIGN):
            initial = self._expect(T.IDENT).text
        self._expect(T.SEMI)
        return ast.KeyDecl(self._span_from(start), name, stateset, initial)

    # -- functions -------------------------------------------------------------

    def parse_type_params(self) -> List[ast.TypeParam]:
        params: List[ast.TypeParam] = []
        if not self._at(T.LT):
            return params
        self._advance()
        while True:
            tok = self._peek()
            if tok.kind is T.KW_TYPE:
                self._advance()
                name = self._expect(T.IDENT).text
                params.append(ast.TypeParam(tok.span, "type", name))
            elif tok.kind is T.KW_KEY:
                self._advance()
                name = self._expect(T.IDENT).text
                params.append(ast.TypeParam(tok.span, "key", name))
            elif tok.kind is T.KW_STATE:
                self._advance()
                name = self._expect(T.IDENT).text
                params.append(ast.TypeParam(tok.span, "state", name))
            else:
                raise ParseError("expected 'type', 'key' or 'state' parameter",
                                 tok.span)
            if not self._accept(T.COMMA):
                break
        self._expect(T.GT)
        return params

    def parse_params(self) -> List[ast.Param]:
        self._expect(T.LPAREN)
        params: List[ast.Param] = []
        if not self._at(T.RPAREN):
            params.append(self.parse_param())
            while self._accept(T.COMMA):
                params.append(self.parse_param())
        self._expect(T.RPAREN)
        return params

    def parse_param(self) -> ast.Param:
        start = self._peek().span
        ptype = self.parse_type()
        name = None
        if self._at(T.IDENT):
            name = self._advance().text
        return ast.Param(self._span_from(start), ptype, name)

    def parse_fun(self, allow_body: bool) -> ast.Decl:
        decl = self.parse_fun_header()
        if self._accept(T.SEMI):
            return decl
        if not allow_body:
            self._expect(T.SEMI)
        body = self.parse_block()
        return ast.FunDef(self._span_from(decl.span), decl, body)

    def parse_fun_header(self) -> ast.FunDecl:
        """Return type, name, type parameters, parameters and effect
        clause: everything before a definition's body."""
        start = self._peek().span
        ret = self.parse_type()
        name = self._expect(T.IDENT, "function name").text
        type_params = self.parse_type_params()
        params = self.parse_params()
        effect = self.parse_effect_opt()
        return ast.FunDecl(self._span_from(start), ret, name, params, effect,
                           type_params)

    # -- effect clauses ----------------------------------------------------------

    def parse_effect_opt(self) -> Optional[ast.EffectClause]:
        if not self._at(T.LBRACKET):
            return None
        start = self._advance().span
        items: List[ast.EffectItem] = []
        if not self._at(T.RBRACKET):
            items.append(self.parse_effect_item())
            while self._accept(T.COMMA):
                items.append(self.parse_effect_item())
        self._expect(T.RBRACKET)
        return ast.EffectClause(self._span_from(start), items)

    def parse_effect_item(self) -> ast.EffectItem:
        start = self._peek().span
        if self._accept(T.MINUS):
            key = self._expect(T.IDENT).text
            pre = self.parse_state_expr() if self._accept(T.AT) else None
            return ast.EffectItem(self._span_from(start), "consume", key, pre, None)
        if self._accept(T.PLUS):
            key = self._expect(T.IDENT).text
            post = self.parse_state_expr() if self._accept(T.AT) else None
            return ast.EffectItem(self._span_from(start), "produce", key, None, post)
        if self._accept(T.KW_NEW):
            key = self._expect(T.IDENT).text
            post = self.parse_state_expr() if self._accept(T.AT) else None
            return ast.EffectItem(self._span_from(start), "fresh", key, None, post)
        key = self._expect(T.IDENT).text
        pre = None
        post = None
        if self._accept(T.AT):
            pre = self.parse_state_expr()
            if self._accept(T.ARROW):
                post = self.parse_state_expr()
        return ast.EffectItem(self._span_from(start), "keep", key, pre, post)

    def parse_state_expr(self) -> ast.StateExpr:
        if self._at(T.LPAREN):
            start = self._advance().span
            var = self._expect(T.IDENT).text
            self._expect(T.LE)
            bound = self._expect(T.IDENT).text
            self._expect(T.RPAREN)
            return ast.StateBound(self._span_from(start), var, bound)
        tok = self._expect(T.IDENT, "state name")
        return ast.StateRef(tok.span, tok.text)

    # -- types ---------------------------------------------------------------------

    def parse_type(self) -> ast.Type:
        start = self._peek().span
        if self._at(T.KW_TRACKED):
            self._advance()
            key = None
            state = None
            if self._accept(T.LPAREN):
                if self._accept(T.AT):
                    state = self.parse_state_expr()
                else:
                    key = self._expect(T.IDENT).text
                    if self._accept(T.AT):
                        state = self.parse_state_expr()
                self._expect(T.RPAREN)
            inner = self.parse_type()
            return ast.TrackedType(self._span_from(start), key, inner, state)

        # Parenthesised guard: (IRQL @ (level<=APC_LEVEL)) : T
        if (self._at(T.LPAREN) and self._at(T.IDENT, 1) and self._at(T.AT, 2)):
            self._advance()
            key = self._expect(T.IDENT).text
            self._expect(T.AT)
            state = self.parse_state_expr()
            self._expect(T.RPAREN)
            self._expect(T.COLON)
            inner = self.parse_type()
            return ast.GuardedType(self._span_from(start), key, state, inner)

        base = self.parse_base_type()

        # Guard prefix: ``K : T`` or ``K@st : T`` (base must be a bare name).
        if isinstance(base, ast.NamedType) and not base.args:
            if self._at(T.COLON):
                self._advance()
                inner = self.parse_type()
                return ast.GuardedType(self._span_from(start), base.name,
                                       None, inner)
            if self._at(T.AT):
                save = self.pos
                self._advance()
                try:
                    state = self.parse_state_expr()
                except ParseError:
                    self.pos = save
                else:
                    if self._accept(T.COLON):
                        inner = self.parse_type()
                        return ast.GuardedType(self._span_from(start),
                                               base.name, state, inner)
                    self.pos = save

        # Array suffixes.
        while self._at(T.LBRACKET) and self._at(T.RBRACKET, 1):
            self._advance()
            self._advance()
            base = ast.ArrayType(self._span_from(start), base)
        return base

    def parse_base_type(self) -> ast.Type:
        tok = self._peek()
        if tok.kind in BASE_TYPE_TOKENS:
            self._advance()
            return ast.BaseType(tok.span, tok.text)
        if tok.kind is T.IDENT:
            self._advance()
            args = self.parse_type_args() if self._at(T.LT) else []
            return ast.NamedType(tok.span, tok.text, args)
        raise ParseError(f"expected a type, found {tok.kind.value} {tok.text!r}",
                         tok.span)

    def parse_type_args(self) -> List[ast.TypeArg]:
        self._expect(T.LT)
        args = [self.parse_type_arg()]
        while self._accept(T.COMMA):
            args.append(self.parse_type_arg())
        self._expect(T.GT)
        return args

    def parse_type_arg(self) -> ast.TypeArg:
        start = self._peek().span
        ty = self.parse_type()
        name = ty.name if isinstance(ty, ast.NamedType) and not ty.args else None
        return ast.TypeArg(self._span_from(start), ty, name)

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self._expect(T.LBRACE).span
        stmts: List[ast.Stmt] = []
        toks = self.toks
        parse_stmt = self.parse_stmt
        while toks[self.pos].kind is not T.RBRACE:
            stmts.append(parse_stmt())
        self._expect(T.RBRACE)
        return ast.Block(self._span_from(start), stmts)

    def parse_stmt(self) -> ast.Stmt:
        tok = self.toks[self.pos]
        if tok.kind is T.LBRACE:
            return self.parse_block()
        if tok.kind is T.KW_IF:
            return self.parse_if()
        if tok.kind is T.KW_WHILE:
            return self.parse_while()
        if tok.kind is T.KW_SWITCH:
            return self.parse_switch()
        if tok.kind is T.KW_RETURN:
            self._advance()
            value = None if self._at(T.SEMI) else self.parse_expr()
            self._expect(T.SEMI)
            return ast.Return(self._span_from(tok.span), value)
        if tok.kind is T.KW_FREE:
            self._advance()
            self._expect(T.LPAREN)
            target = self.parse_expr()
            self._expect(T.RPAREN)
            self._expect(T.SEMI)
            return ast.Free(self._span_from(tok.span), target)
        if tok.kind is T.KW_BREAK:
            self._advance()
            self._expect(T.SEMI)
            return ast.Break(tok.span)
        if tok.kind is T.KW_CONTINUE:
            self._advance()
            self._expect(T.SEMI)
            return ast.Continue(tok.span)

        # Try a declaration (variable or nested function); fall back to
        # an expression statement.  Fast path for the dominant forms:
        # when the two-token prefix cannot start a declaration, the
        # speculative attempt below provably fails (and restores the
        # cursor), so skip straight to the expression parse and save
        # the raise/backtrack round trip per call/assignment statement.
        kind = tok.kind
        if kind in self._NEVER_DECL_START:
            return self.parse_expr_stmt()
        if kind is T.IDENT:
            toks = self.toks
            last = self._last
            i = self.pos + 1
            k1 = toks[i if i < last else last].kind
            if k1 in self._EXPR_AFTER_IDENT or (
                    k1 is T.LBRACKET
                    and toks[i + 1 if i + 1 < last else last].kind
                    is not T.RBRACKET):
                return self.parse_expr_stmt()
        decl = self._try_parse_decl_stmt()
        if decl is not None:
            return decl
        return self.parse_expr_stmt()

    #: statement-leading tokens that can never begin a declaration
    #: (``parse_type`` rejects them outright).
    _NEVER_DECL_START = frozenset({
        T.INT, T.FLOAT, T.STRING, T.CHAR, T.CTOR, T.KW_TRUE, T.KW_FALSE,
        T.KW_NULL, T.KW_NEW, T.MINUS, T.BANG, T.LBRACKET,
    })

    #: second tokens after a leading IDENT that rule out a declaration:
    #: ``parse_type`` yields the bare name and the declarator name is
    #: then missing.  ``<`` (type arguments), ``@``/``:`` (guards) and
    #: ``[`` (array suffix, handled separately) stay speculative.
    _EXPR_AFTER_IDENT = frozenset({
        T.ASSIGN, T.DOT, T.LPAREN, T.SEMI, T.PLUSEQ, T.MINUSEQ,
        T.PLUSPLUS, T.MINUSMINUS, T.PLUS, T.MINUS, T.STAR, T.SLASH,
        T.PERCENT, T.EQ, T.NE, T.GT, T.LE, T.GE, T.AMPAMP, T.PIPEPIPE,
    })

    def _try_parse_decl_stmt(self) -> Optional[ast.Stmt]:
        save = self.pos
        start = self._peek().span
        try:
            dtype = self.parse_type()
            name_tok = self._expect(T.IDENT)
        except ParseError:
            self.pos = save
            return None
        if self._at(T.LPAREN):
            # Nested function definition (Figure 7).
            try:
                params = self.parse_params()
                effect = self.parse_effect_opt()
                body = self.parse_block()
            except ParseError:
                self.pos = save
                return None
            decl = ast.FunDecl(self._span_from(start), dtype, name_tok.text,
                               params, effect, [])
            return ast.LocalFun(self._span_from(start),
                                ast.FunDef(self._span_from(start), decl, body))
        if self._accept(T.ASSIGN):
            init = self.parse_expr()
            self._expect(T.SEMI)
            return ast.VarDecl(self._span_from(start), dtype, name_tok.text, init)
        if self._accept(T.SEMI):
            return ast.VarDecl(self._span_from(start), dtype, name_tok.text, None)
        self.pos = save
        return None

    def parse_expr_stmt(self) -> ast.Stmt:
        toks = self.toks
        start = toks[self.pos].span
        expr = self.parse_expr()
        tok = toks[self.pos]
        kind = tok.kind
        if kind is T.ASSIGN or kind is T.PLUSEQ or kind is T.MINUSEQ:
            self.pos += 1
            value = self.parse_expr()
            if toks[self.pos].kind is T.SEMI:
                self.pos += 1
            else:
                self._expect(T.SEMI)
            return ast.Assign(self._span_from(start), expr, tok.text, value)
        if kind is T.PLUSPLUS or kind is T.MINUSMINUS:
            self.pos += 1
            if toks[self.pos].kind is T.SEMI:
                self.pos += 1
            else:
                self._expect(T.SEMI)
            return ast.IncDec(self._span_from(start), expr, tok.text)
        if kind is T.SEMI:
            self.pos += 1
        else:
            self._expect(T.SEMI)
        return ast.ExprStmt(self._span_from(start), expr)

    def parse_if(self) -> ast.If:
        start = self._expect(T.KW_IF).span
        self._expect(T.LPAREN)
        cond = self.parse_expr()
        self._expect(T.RPAREN)
        then = self.parse_stmt()
        orelse = None
        if self._accept(T.KW_ELSE):
            orelse = self.parse_stmt()
        return ast.If(self._span_from(start), cond, then, orelse)

    def parse_while(self) -> ast.While:
        start = self._expect(T.KW_WHILE).span
        self._expect(T.LPAREN)
        cond = self.parse_expr()
        self._expect(T.RPAREN)
        body = self.parse_stmt()
        return ast.While(self._span_from(start), cond, body)

    def parse_switch(self) -> ast.Switch:
        start = self._expect(T.KW_SWITCH).span
        self._expect(T.LPAREN)
        scrutinee = self.parse_expr()
        self._expect(T.RPAREN)
        self._expect(T.LBRACE)
        cases: List[ast.Case] = []
        while not self._at(T.RBRACE):
            cases.append(self.parse_case())
        self._expect(T.RBRACE)
        return ast.Switch(self._span_from(start), scrutinee, cases)

    def parse_case(self) -> ast.Case:
        start = self._peek().span
        if self._accept(T.KW_DEFAULT):
            self._expect(T.COLON)
            pattern = ast.Pattern(start, None, [])
        else:
            self._expect(T.KW_CASE)
            ctor = self._expect(T.CTOR, "constructor pattern").text
            binders: List[Optional[str]] = []
            if self._accept(T.LPAREN):
                while not self._at(T.RPAREN):
                    if self._accept(T.UNDERSCORE):
                        binders.append(None)
                    else:
                        binders.append(self._expect(T.IDENT).text)
                    if not self._accept(T.COMMA):
                        break
                self._expect(T.RPAREN)
            self._expect(T.COLON)
            pattern = ast.Pattern(self._span_from(start), ctor, binders)
        body: List[ast.Stmt] = []
        while not (self._at(T.KW_CASE) or self._at(T.KW_DEFAULT)
                   or self._at(T.RBRACE)):
            body.append(self.parse_stmt())
        return ast.Case(self._span_from(start), pattern, body)

    # -- expressions -------------------------------------------------------------

    #: binary operator precedence (all left-associative), replacing the
    #: or/and/equality/relational/additive/multiplicative cascade: the
    #: cascade cost six nested calls per operand even for plain
    #: identifiers, a measurable slice of whole-check time.
    _BIN_PREC = {
        T.PIPEPIPE: 1, T.AMPAMP: 2, T.EQ: 3, T.NE: 3,
        T.LT: 4, T.GT: 4, T.LE: 4, T.GE: 4,
        T.PLUS: 5, T.MINUS: 5, T.STAR: 6, T.SLASH: 6, T.PERCENT: 6,
    }

    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(self.parse_unary(), 1)

    def _parse_binary(self, left: ast.Expr, min_prec: int) -> ast.Expr:
        """Precedence climbing over :data:`_BIN_PREC`."""
        prec_of = self._BIN_PREC.get
        toks = self.toks
        filename = self.filename
        while True:
            tok = toks[self.pos]
            prec = prec_of(tok.kind)
            if prec is None or prec < min_prec:
                return left
            self.pos += 1
            right = self.parse_unary()
            while True:
                nxt = prec_of(toks[self.pos].kind)
                if nxt is None or nxt <= prec:
                    break
                right = self._parse_binary(right, prec + 1)
            left = ast.Binary(Span(left.span.start, right.span.end,
                                   filename), tok.text, left, right)

    def parse_unary(self) -> ast.Expr:
        tok = self.toks[self.pos]
        kind = tok.kind
        if kind is T.BANG or kind is T.MINUS:
            self.pos += 1
            operand = self.parse_unary()
            return ast.Unary(Span(tok.span.start, operand.span.end,
                                  self.filename), tok.text, operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        toks = self.toks
        # The dominant atoms — a name or an integer literal — are
        # recognised inline; everything else goes through the full
        # ``parse_primary`` dispatch.
        tok = toks[self.pos]
        kind = tok.kind
        if kind is T.IDENT:
            self.pos += 1
            expr = ast.Name(tok.span, tok.text)
        elif kind is T.INT:
            self.pos += 1
            expr = ast.IntLit(tok.span, int(tok.text, 0))
        else:
            expr = self.parse_primary()
        while True:
            kind = toks[self.pos].kind
            if kind is T.DOT:
                self.pos += 1
                ftok = toks[self.pos]
                if ftok.kind is T.IDENT:
                    self.pos += 1
                else:
                    ftok = self._expect(T.IDENT)
                expr = ast.FieldAccess(self._span_from(expr.span), expr,
                                       ftok.text)
            elif kind is T.LPAREN:
                self.pos += 1
                args: List[ast.Expr] = []
                if toks[self.pos].kind is not T.RPAREN:
                    args.append(self.parse_expr())
                    while toks[self.pos].kind is T.COMMA:
                        self.pos += 1
                        args.append(self.parse_expr())
                if toks[self.pos].kind is T.RPAREN:
                    self.pos += 1
                else:
                    self._expect(T.RPAREN)
                expr = ast.Call(self._span_from(expr.span), expr, args)
            elif kind is T.LBRACKET:
                self.pos += 1
                idx = self.parse_expr()
                self._expect(T.RBRACKET)
                expr = ast.Index(self._span_from(expr.span), expr, idx)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is T.INT:
            self._advance()
            return ast.IntLit(tok.span, int(tok.text, 0))
        if tok.kind is T.FLOAT:
            self._advance()
            return ast.FloatLit(tok.span, float(tok.text))
        if tok.kind is T.STRING:
            self._advance()
            return ast.StringLit(tok.span, tok.text)
        if tok.kind is T.CHAR:
            self._advance()
            return ast.CharLit(tok.span, tok.text)
        if tok.kind is T.KW_TRUE:
            self._advance()
            return ast.BoolLit(tok.span, True)
        if tok.kind is T.KW_FALSE:
            self._advance()
            return ast.BoolLit(tok.span, False)
        if tok.kind is T.KW_NULL:
            self._advance()
            return ast.NullLit(tok.span)
        if tok.kind is T.IDENT:
            self._advance()
            return ast.Name(tok.span, tok.text)
        if tok.kind is T.CTOR:
            return self.parse_ctor_app()
        if tok.kind is T.KW_NEW:
            return self.parse_new()
        if tok.kind is T.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(T.RPAREN)
            return inner
        if tok.kind is T.LBRACKET:
            self._advance()
            elems: List[ast.Expr] = []
            if not self._at(T.RBRACKET):
                elems.append(self.parse_expr())
                while self._accept(T.COMMA):
                    elems.append(self.parse_expr())
            close = self._expect(T.RBRACKET)
            return ast.ArrayLit(Span(tok.span.start, close.span.end,
                                     self.filename), elems)
        raise ParseError(
            f"expected an expression, found {tok.kind.value} {tok.text!r}",
            tok.span)

    def parse_ctor_app(self) -> ast.CtorApp:
        tok = self._expect(T.CTOR)
        args: List[ast.Expr] = []
        keys: List[str] = []
        if self._at(T.LPAREN):
            self._advance()
            if not self._at(T.RPAREN):
                args.append(self.parse_expr())
                while self._accept(T.COMMA):
                    args.append(self.parse_expr())
            self._expect(T.RPAREN)
        if self._at(T.LBRACE):
            self._advance()
            while not self._at(T.RBRACE):
                keys.append(self._expect(T.IDENT).text)
                if not self._accept(T.COMMA):
                    break
            self._expect(T.RBRACE)
        return ast.CtorApp(self._span_from(tok.span), tok.text, args, keys)

    def parse_new(self) -> ast.New:
        start = self._expect(T.KW_NEW).span
        region: Optional[ast.Expr] = None
        tracked = False
        if self._accept(T.LPAREN):
            region = self.parse_expr()
            self._expect(T.RPAREN)
        elif self._accept(T.KW_TRACKED):
            tracked = True
        ntype = self.parse_base_type()
        inits: List[ast.FieldInit] = []
        if self._accept(T.LBRACE):
            while not self._at(T.RBRACE):
                istart = self._peek().span
                fname = self._expect(T.IDENT).text
                self._expect(T.ASSIGN)
                value = self.parse_expr()
                self._expect(T.SEMI)
                inits.append(ast.FieldInit(self._span_from(istart), fname, value))
            self._expect(T.RBRACE)
        return ast.New(self._span_from(start), ntype, inits, tracked, region)


def parse_program(source: str, filename: str = "<input>",
                  first_line: int = 1, first_col: int = 1,
                  tokens: Optional[List[Token]] = None) -> ast.Program:
    """Parse a Vault compilation unit from source text.

    ``first_line``/``first_col`` place the text inside a larger unit,
    so that spans match a whole-unit parse; the incremental pipeline
    uses this to parse single declaration chunks in place.  ``tokens``
    supplies a pre-lexed stream for ``source`` (the session lexes each
    chunk itself to take its interface digest from the tokens) and
    skips lexing entirely; it must equal
    ``tokenize(source, filename, first_line, first_col)`` and is left
    unchanged.  Without ``tokens``, each top-level
    declaration's tokens are released once it is parsed, so the token
    stream and the finished AST are never both held in full.
    """
    tracer = current_tracer()
    owns = tokens is None
    if owns:
        with tracer.span("lex", filename=filename):
            tokens = tokenize(source, filename, first_line=first_line,
                              first_col=first_col)
    parser = Parser(tokens, filename)
    parser._owns_tokens = owns
    with tracer.span("parse", filename=filename):
        return parser.parse_program()


def parse_fun_header(tokens: List[Token],
                     filename: str = "<input>") -> ast.FunDecl:
    """Parse exactly one function header from its tokens: the text of
    a definition before its body's ``{``.  Raises :class:`ParseError`
    on anything else."""
    parser = Parser(tokens, filename)
    decl = parser.parse_fun_header()
    parser._expect(T.EOF)
    return decl


def parse_fun_body(tokens: List[Token],
                   filename: str = "<input>") -> ast.Block:
    """Parse exactly one function body, a ``{ ... }`` block, from its
    tokens.  Raises :class:`ParseError` on anything else."""
    parser = Parser(tokens, filename)
    body = parser.parse_block()
    parser._expect(T.EOF)
    return body


def parse_type(source: str, filename: str = "<type>") -> ast.Type:
    """Parse a single type (used by tests and the elaborator's tooling)."""
    parser = Parser(tokenize(source, filename), filename)
    ty = parser.parse_type()
    parser._expect(T.EOF)
    return ty


def parse_expr(source: str, filename: str = "<expr>") -> ast.Expr:
    """Parse a single expression."""
    parser = Parser(tokenize(source, filename), filename)
    expr = parser.parse_expr()
    parser._expect(T.EOF)
    return expr
