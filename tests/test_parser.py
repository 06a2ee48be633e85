"""Parser unit tests: declarations, types, effects, statements,
expressions — including every Vault-specific construct the paper uses."""

import tracemalloc

import pytest

from repro.analysis import synthesize_program
from repro.diagnostics import ParseError
from repro.syntax import ast, parse_expr, parse_program, parse_type, tokenize


def decl(source):
    program = parse_program(source)
    assert len(program.decls) == 1
    return program.decls[0]


class TestTypes:
    def test_base_type(self):
        assert isinstance(parse_type("int"), ast.BaseType)

    def test_array_type(self):
        t = parse_type("byte[]")
        assert isinstance(t, ast.ArrayType)
        assert isinstance(t.elem, ast.BaseType)

    def test_nested_array(self):
        t = parse_type("int[][]")
        assert isinstance(t.elem, ast.ArrayType)

    def test_named_type_with_args(self):
        t = parse_type("opt_key<K>")
        assert isinstance(t, ast.NamedType)
        assert t.name == "opt_key"
        assert t.args[0].name == "K"

    def test_tracked_named_key(self):
        t = parse_type("tracked(R) region")
        assert isinstance(t, ast.TrackedType)
        assert t.key == "R"

    def test_tracked_anonymous(self):
        t = parse_type("tracked region")
        assert isinstance(t, ast.TrackedType)
        assert t.key is None

    def test_tracked_with_state(self):
        t = parse_type("tracked(@raw) sock")
        assert t.key is None
        assert isinstance(t.state, ast.StateRef)
        assert t.state.name == "raw"

    def test_tracked_key_and_state(self):
        t = parse_type("tracked(K@open) FILE")
        assert t.key == "K"
        assert t.state.name == "open"

    def test_guarded_type(self):
        t = parse_type("K:FILE")
        assert isinstance(t, ast.GuardedType)
        assert t.key == "K"
        assert t.state is None

    def test_guarded_type_with_state(self):
        t = parse_type("K@open:FILE")
        assert t.state.name == "open"

    def test_parenthesised_bounded_guard(self):
        t = parse_type("(IRQL @ (level <= APC_LEVEL)) : config")
        assert isinstance(t, ast.GuardedType)
        assert t.key == "IRQL"
        assert isinstance(t.state, ast.StateBound)
        assert t.state.var == "level"
        assert t.state.bound == "APC_LEVEL"

    def test_generic_type_argument_is_a_type(self):
        t = parse_type("array2d<float>")
        assert isinstance(t.args[0].type, ast.BaseType)


class TestDeclarations:
    def test_interface(self):
        d = decl("interface REGION { type region; "
                 "tracked(R) region create() [new R]; }")
        assert isinstance(d, ast.InterfaceDecl)
        assert d.name == "REGION"
        assert len(d.decls) == 2

    def test_extern_module(self):
        d = decl("extern module Region : REGION;")
        assert isinstance(d, ast.ModuleDecl)
        assert d.is_extern
        assert d.interface == "REGION"

    def test_module_with_body(self):
        d = decl("module M : I { int f() { return 1; } }")
        assert not d.is_extern
        assert len(d.decls) == 1

    def test_abstract_type(self):
        d = decl("type FILE;")
        assert isinstance(d, ast.TypeAliasDecl)
        assert d.rhs is None

    def test_type_alias(self):
        d = decl("type guarded_int<key K> = K:int;")
        assert d.params[0].kind == "key"
        assert isinstance(d.rhs, ast.GuardedType)

    def test_funtype_alias(self):
        d = decl("type CR<key K> = tracked RESULT<K> "
                 "Routine(DEVICE_OBJECT dev, tracked(K) IRP irp) [-K];")
        assert isinstance(d.rhs, ast.FunType)
        assert d.rhs.name == "Routine"
        assert len(d.rhs.params) == 2

    def test_variant_plain(self):
        d = decl("variant opt_int [ 'NoInt | 'SomeInt(int) ];")
        assert isinstance(d, ast.VariantDecl)
        assert [c.name for c in d.ctors] == ["NoInt", "SomeInt"]
        assert len(d.ctors[1].args) == 1

    def test_variant_with_keys(self):
        d = decl("variant status<key K> [ 'Ok {K@named} "
                 "| 'Error(int) {K@raw} ];")
        ok, err = d.ctors
        assert ok.keys[0][0] == "K"
        assert ok.keys[0][1].name == "named"
        assert err.args and err.keys[0][1].name == "raw"

    def test_struct(self):
        d = decl("struct point { int x; int y; }")
        assert isinstance(d, ast.StructDecl)
        assert [f.name for f in d.fields] == ["x", "y"]

    def test_struct_with_key_param(self):
        d = decl("struct fdo<key SK> { KSPIN_LOCK<SK> lock; }")
        assert d.params[0].kind == "key"

    def test_stateset_chain(self):
        d = decl("stateset L = [ a < b < c ];")
        assert d.states == ["a", "b", "c"]
        assert d.order == [("a", "b"), ("b", "c")]

    def test_stateset_multiple_chains(self):
        d = decl("stateset L = [ a < b, a < c ];")
        assert set(d.order) == {("a", "b"), ("a", "c")}

    def test_global_key(self):
        d = decl("key IRQL @ IRQ_LEVEL;")
        assert isinstance(d, ast.KeyDecl)
        assert d.stateset == "IRQ_LEVEL"

    def test_fun_decl_prototype(self):
        d = decl("void fclose(tracked(F) FILE f) [-F];")
        assert isinstance(d, ast.FunDecl)
        assert d.effect.items[0].mode == "consume"

    def test_fun_def(self):
        d = decl("int f(int x) { return x + 1; }")
        assert isinstance(d, ast.FunDef)

    def test_fun_with_explicit_type_params(self):
        d = decl("KEVENT<K> KeInitializeEvent<type T>(tracked(K) T obj) [K];")
        assert d.type_params[0].kind == "type"


class TestEffects:
    def parse_effect(self, text):
        return decl(f"void f() {text};").effect

    def test_keep_shorthand(self):
        eff = self.parse_effect("[K]")
        assert eff.items[0].mode == "keep"
        assert eff.items[0].pre is None

    def test_keep_with_states(self):
        eff = self.parse_effect("[S@raw->named]")
        item = eff.items[0]
        assert item.pre.name == "raw"
        assert item.post.name == "named"

    def test_consume(self):
        eff = self.parse_effect("[-K@a]")
        assert eff.items[0].mode == "consume"
        assert eff.items[0].pre.name == "a"

    def test_produce(self):
        eff = self.parse_effect("[+K@b]")
        assert eff.items[0].mode == "produce"
        assert eff.items[0].post.name == "b"

    def test_fresh(self):
        eff = self.parse_effect("[new N@ready]")
        assert eff.items[0].mode == "fresh"

    def test_multiple_items(self):
        eff = self.parse_effect("[S@listening, new N@ready]")
        assert len(eff.items) == 2

    def test_bounded_state(self):
        eff = self.parse_effect("[IRQL @ (level <= DISPATCH_LEVEL) "
                                "-> DISPATCH_LEVEL]")
        item = eff.items[0]
        assert isinstance(item.pre, ast.StateBound)
        assert item.pre.var == "level"
        assert item.post.name == "DISPATCH_LEVEL"

    def test_empty_effect(self):
        eff = self.parse_effect("[]")
        assert eff is not None
        assert eff.items == []


class TestStatements:
    def body(self, text):
        d = decl("void f() { %s }" % text)
        return d.body.stmts

    def test_var_decl(self):
        (s,) = self.body("int x = 1;")
        assert isinstance(s, ast.VarDecl)

    def test_var_decl_no_init(self):
        (s,) = self.body("tracked opt_key<F> flag;")
        assert s.init is None

    def test_expression_statement_is_not_a_decl(self):
        (s,) = self.body("f(x);")
        assert isinstance(s, ast.ExprStmt)

    def test_assignment(self):
        (s,) = self.body("x = y + 1;")
        assert isinstance(s, ast.Assign)
        assert s.op == "="

    def test_compound_assignment(self):
        (s,) = self.body("x += 2;")
        assert s.op == "+="

    def test_incdec(self):
        (s,) = self.body("pt.x++;")
        assert isinstance(s, ast.IncDec)
        assert isinstance(s.target, ast.FieldAccess)

    def test_if_else(self):
        (s,) = self.body("if (a) { x = 1; } else { x = 2; }")
        assert isinstance(s, ast.If)
        assert s.orelse is not None

    def test_while(self):
        (s,) = self.body("while (i < n) { i++; }")
        assert isinstance(s, ast.While)

    def test_return_value(self):
        (s,) = self.body("return 1 + 2;")
        assert isinstance(s, ast.Return)

    def test_free(self):
        (s,) = self.body("free(p);")
        assert isinstance(s, ast.Free)

    def test_break_continue(self):
        stmts = self.body("while (b) { break; } while (b) { continue; }")
        assert isinstance(stmts[0].body.stmts[0], ast.Break)
        assert isinstance(stmts[1].body.stmts[0], ast.Continue)

    def test_switch_with_patterns(self):
        (s,) = self.body(
            "switch (v) { case 'Ok: x = 1; case 'Error(code): x = code; }")
        assert isinstance(s, ast.Switch)
        assert s.cases[0].pattern.ctor == "Ok"
        assert s.cases[1].pattern.binders == ["code"]

    def test_switch_default(self):
        (s,) = self.body("switch (v) { case 'A: x = 1; default: x = 2; }")
        assert s.cases[1].pattern.ctor is None

    def test_switch_wildcard_binder(self):
        (s,) = self.body("switch (v) { case 'Cons(a, _): x = 1; }")
        assert s.cases[0].pattern.binders == ["a", None]

    def test_nested_function(self):
        (s,) = self.body(
            "tracked RES<I> Regain(DEVICE_OBJECT d, tracked(I) IRP i) [-I] "
            "{ return 'MoreProcessingRequired; }")
        assert isinstance(s, ast.LocalFun)
        assert s.fundef.decl.name == "Regain"

    def test_guarded_local_decl(self):
        (s,) = self.body("R:point pt = new(rgn) point {x=1; y=2;};")
        assert isinstance(s, ast.VarDecl)
        assert isinstance(s.type, ast.GuardedType)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, ast.Binary)
        assert e.op == "+"
        assert e.right.op == "*"

    def test_precedence_comparison_over_and(self):
        e = parse_expr("a < b && c > d")
        assert e.op == "&&"

    def test_unary(self):
        e = parse_expr("!done")
        assert isinstance(e, ast.Unary)

    def test_call_chain(self):
        e = parse_expr("Region.create()")
        assert isinstance(e, ast.Call)
        assert isinstance(e.fn, ast.FieldAccess)

    def test_index(self):
        e = parse_expr("buf[i + 1]")
        assert isinstance(e, ast.Index)

    def test_ctor_app_plain(self):
        e = parse_expr("'NoKey")
        assert isinstance(e, ast.CtorApp)
        assert e.args == [] and e.keys == []

    def test_ctor_app_with_keys(self):
        e = parse_expr("'SomeKey{F}")
        assert e.keys == ["F"]

    def test_ctor_app_args_and_keys(self):
        e = parse_expr("'Error(code){K}")
        assert len(e.args) == 1 and e.keys == ["K"]

    def test_ctor_nested(self):
        e = parse_expr("'Cons(rgn, 'Nil)")
        assert isinstance(e.args[1], ast.CtorApp)

    def test_new_tracked(self):
        e = parse_expr("new tracked point {x=3; y=4;}")
        assert isinstance(e, ast.New)
        assert e.tracked
        assert [i.name for i in e.inits] == ["x", "y"]

    def test_new_in_region(self):
        e = parse_expr("new(rgn) point {x=1; y=2;}")
        assert e.region is not None
        assert not e.tracked

    def test_new_with_type_args(self):
        e = parse_expr("new tracked fdo_data<SK> {}")
        assert e.type.args[0].name == "SK"

    def test_array_literal(self):
        e = parse_expr("[1, 2, 3]")
        assert isinstance(e, ast.ArrayLit)
        assert len(e.elems) == 3

    def test_empty_array_literal(self):
        e = parse_expr("[]")
        assert e.elems == []

    def test_parenthesised(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*"

    def test_relational_not_confused_with_generics(self):
        e = parse_expr("a < b")
        assert isinstance(e, ast.Binary)


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("int f() { return 1 }")

    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse_program("void f() {")

    def test_bad_effect(self):
        with pytest.raises(ParseError):
            parse_program("void f() [K@@] { }")

    def test_garbage_toplevel(self):
        with pytest.raises(ParseError):
            parse_program(";;;")

    def test_case_requires_ctor(self):
        with pytest.raises(ParseError):
            parse_program("void f() { switch (x) { case 1: y = 2; } }")


class TestTokenRelease:
    """``parse_program`` releases each top-level declaration's tokens
    once it is parsed when it lexed the text itself, and never touches
    a token list its caller supplied."""

    def test_parse_peak_stays_near_retained_ast(self):
        source = synthesize_program(160, seed=42)
        parse_program(source)   # warm any lazily built module state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            program = parse_program(source)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        retained = current - base
        assert len(program.decls) > 160
        # Holding the whole token stream next to the finished AST
        # peaks at about 1.6x what the parse retains.
        assert peak - base <= 1.25 * retained, \
            f"parse peak {peak - base} B vs retained {retained} B"

    def test_caller_token_list_is_not_mutated(self):
        source = synthesize_program(8, seed=42)
        tokens = tokenize(source)
        before = list(tokens)
        program = parse_program(source, tokens=tokens)
        assert len(tokens) == len(before)
        assert all(a is b for a, b in zip(tokens, before))
        assert program == parse_program(source)
