"""The Vault protocol checker — flow-sensitive key/guard analysis (§3).

For each function definition the checker:

1. skolemises the signature's key/state variables and builds the entry
   held-key set from the effect clause's precondition (plus all global
   keys and the keys of tracked parameters);
2. walks the body in control-flow order, threading a :class:`FlowState`
   (held-key set + variable environment) through every statement —
   splitting at ``if``/``switch``, joining with the α-renaming
   abstraction of §3, and iterating loop bodies until the key set
   stabilises ("loop invariants inferred in a fixed number of
   iterations");
3. checks every access against its type guards, every call against its
   effect clause's precondition, and every exit against the declared
   postcondition — reporting dangling accesses (``KEY_NOT_HELD``),
   wrong states, duplications (double-free/double-acquire), leaks
   (``KEY_LEAKED``) and join mismatches exactly as the paper's Figures
   2, 4 and 5 describe.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..diagnostics import Code, Note, Reporter, Span
from ..syntax import ast
from .capability import CapabilityError, HeldKeys, KeyInfo
from .effects import CoreEffect, CoreEffectItem, Signature, SigParam
from .elaborate import Elaborator, Scope
from .keys import (DEFAULT_STATE, Key, State, StateVar, fresh_key,
                   state_display, states_equal)
from .program import (CtorInfo, ProgramContext, StructInfo, VariantInfo,
                      signatures_alpha_equal)
from .subst import Subst
from .types import (ANY_STATE, AnyState, AtMostState, BOOL, CArg, CArray,
                    CBase, CFun, CGuarded, CNamed, CPacked, CTracked, CType,
                    CTypeVar, ExactState, INT, ExactState, KeyRef, KeyVarRef,
                    StateReq, StateVarRef, VOID, is_void, strip_guards)

MAX_LOOP_ITERATIONS = 4

NUMERIC_NAMES = {"int", "byte", "float"}


class VarInfo:
    """One variable in the flow-sensitive environment."""

    def __init__(self, ctype: CType, initialized: bool = True,
                 is_param: bool = False, declared: Optional[CType] = None):
        self.ctype = ctype
        self.initialized = initialized
        self.is_param = is_param
        self.declared = declared  # declared (guarded) type, if any

    def clone(self) -> "VarInfo":
        return VarInfo(self.ctype, self.initialized, self.is_param,
                       self.declared)


class FlowState:
    """Held-key set + variable environment at one program point."""

    def __init__(self, held: Optional[HeldKeys] = None,
                 variables: Optional[Dict[str, VarInfo]] = None,
                 reachable: bool = True):
        self.held = held if held is not None else HeldKeys()
        self.vars: Dict[str, VarInfo] = variables if variables is not None else {}
        self.reachable = reachable

    def clone(self) -> "FlowState":
        # VarInfo entries are replaced, never mutated, once stored in
        # ``vars`` (the checker builds fresh VarInfo objects on every
        # update), so clones share them and cloning is two dict copies.
        return FlowState(self.held.clone(), dict(self.vars),
                         self.reachable)


class _Renamer(Subst):
    """Applies a concrete key→key renaming over types (join abstraction)."""

    def __init__(self, mapping: Dict[Key, Key]):
        super().__init__()
        self.mapping = mapping

    def key(self, ref: KeyRef) -> KeyRef:
        if isinstance(ref, Key):
            return self.mapping.get(ref, ref)
        return super().key(ref)


def match_signatures(want: Signature, have: Signature,
                     subst: Subst) -> Optional[str]:
    """Unify two polymorphic function signatures.

    Used when a function value is passed where a function type is
    expected (completion routines §4.3, dispatch registration).  The
    ``want`` side may still contain unbound type variables (e.g. the
    extension type ``C`` of ``DRIVER_DISPATCH<C>``), which are bound
    into ``subst``.  Key/state variables of both sides are matched up
    to consistent renaming; concrete keys must match by identity.
    Returns ``None`` on success, else a description of the mismatch.
    """
    if len(want.params) != len(have.params):
        return "different arity"
    key_map: Dict[object, object] = {}
    state_map: Dict[object, object] = {}

    def match_key(wk, hk) -> bool:
        if isinstance(wk, Key) or isinstance(hk, Key):
            if isinstance(wk, Key) and isinstance(hk, Key):
                return wk is hk
            # One side concrete, the other a variable: map the variable.
            var, conc = (wk, hk) if isinstance(hk, Key) else (hk, wk)
            name = var.name if isinstance(var, KeyVarRef) else var
            prev = key_map.get(("v", name))
            if prev is None:
                key_map[("v", name)] = conc
                return True
            return prev is conc
        wn = wk.name if isinstance(wk, KeyVarRef) else wk
        hn = hk.name if isinstance(hk, KeyVarRef) else hk
        prev = key_map.get(("w", wn))
        if prev is None:
            key_map[("w", wn)] = hn
            return True
        return prev == hn

    def match_state_value(wv, hv) -> bool:
        w_var = isinstance(wv, (StateVarRef, StateVar))
        h_var = isinstance(hv, (StateVarRef, StateVar))
        if w_var or h_var:
            wn = getattr(wv, "name", wv)
            hn = getattr(hv, "name", hv)
            prev = state_map.get(("w", wn))
            if prev is None:
                state_map[("w", wn)] = hn
                return True
            return prev == hn
        return wv == hv

    def match_req(wr: StateReq, hr: StateReq) -> bool:
        if isinstance(wr, AnyState) and isinstance(hr, AnyState):
            return True
        if isinstance(wr, ExactState) and isinstance(hr, ExactState):
            return match_state_value(wr.state, hr.state)
        if isinstance(wr, AtMostState) and isinstance(hr, AtMostState):
            return wr.bound == hr.bound
        return False

    def match_type(wt: CType, ht: CType) -> bool:
        if wt is ht:
            # Interned declaration types collapse structural equality
            # to identity when neither side binds variables.
            return True
        if isinstance(wt, CTypeVar):
            return subst.bind_type(wt.name, ht)
        if isinstance(wt, CBase) and isinstance(ht, CBase):
            return wt.name == ht.name
        if isinstance(wt, CArray) and isinstance(ht, CArray):
            return match_type(wt.elem, ht.elem)
        if isinstance(wt, CTracked) and isinstance(ht, CTracked):
            return match_key(wt.key, ht.key) and \
                match_type(wt.inner, ht.inner)
        if isinstance(wt, CPacked) and isinstance(ht, CPacked):
            return match_req(wt.state, ht.state) and \
                match_type(wt.inner, ht.inner)
        if isinstance(wt, CGuarded) and isinstance(ht, CGuarded):
            if len(wt.guards) != len(ht.guards):
                return False
            for (wk, wr), (hk, hr) in zip(wt.guards, ht.guards):
                if not match_key(wk, hk) or not match_req(wr, hr):
                    return False
            return match_type(wt.inner, ht.inner)
        if isinstance(wt, CNamed) and isinstance(ht, CNamed):
            if wt.name != ht.name or len(wt.args) != len(ht.args):
                return False
            for wa, ha in zip(wt.args, ht.args):
                if wa.kind != ha.kind:
                    return False
                if wa.kind == "type" and not match_type(wa.type, ha.type):
                    return False
                if wa.kind == "key" and not match_key(wa.key, ha.key):
                    return False
                if wa.kind == "state" and \
                        not match_state_value(wa.state, ha.state):
                    return False
            return True
        if isinstance(wt, CFun) and isinstance(ht, CFun):
            return match_signatures(wt.sig, ht.sig, subst) is None
        return wt == ht

    for index, (wp, hp) in enumerate(zip(want.params, have.params)):
        if not match_type(subst.ctype(wp.type), hp.type):
            return f"parameter {index + 1} differs"
    if not match_type(subst.ctype(want.ret), have.ret):
        return "result type differs"

    if len(want.effect.items) != len(have.effect.items):
        return "effect clauses differ"
    for wi, hi in zip(want.effect.items, have.effect.items):
        if wi.mode != hi.mode:
            return "effect clauses differ"
        if not match_key(wi.key, hi.key):
            return f"effect key '{wi.key}' differs"
        if not match_req(wi.pre, hi.pre):
            return "effect precondition differs"
        wpost = wi.post if wi.post is not None else wi.pre
        hpost = hi.post if hi.post is not None else hi.pre
        if not match_req(wpost, hpost):
            return "effect postcondition differs"
    return None


def check_program(ctx: ProgramContext, reporter: Reporter,
                  join_abstraction: bool = True,
                  max_loop_iterations: int = MAX_LOOP_ITERATIONS) -> Reporter:
    """Check every function definition in the program.

    ``join_abstraction`` and ``max_loop_iterations`` exist for ablation
    experiments: disabling the α-renaming at joins (§3) or reducing the
    loop-invariant iteration budget makes the checker reject programs
    it otherwise accepts.
    """
    checker = Checker(ctx, reporter, join_abstraction=join_abstraction,
                      max_loop_iterations=max_loop_iterations)
    for qual, fundef in ctx.defined_functions():
        checker.check_function(qual, fundef)
    return reporter


def check_function_diagnostics(ctx: ProgramContext, qual: str,
                               fundef: ast.FunDef) -> list:
    """Diagnostics from flow-checking one function, in emission order.

    The unit of work of the incremental pipeline
    (:mod:`repro.pipeline`): equivalent to one iteration of
    :func:`check_program`'s loop, but collecting into a private
    reporter so results can be cached and merged deterministically.
    """
    reporter = Reporter()
    Checker(ctx, reporter).check_function(qual, fundef)
    return reporter.diagnostics


class Checker:
    def __init__(self, ctx: ProgramContext, reporter: Reporter,
                 join_abstraction: bool = True,
                 max_loop_iterations: int = MAX_LOOP_ITERATIONS):
        self.ctx = ctx
        self.reporter = reporter
        self.elab = Elaborator(ctx, reporter)
        self.join_abstraction = join_abstraction
        self.max_loop_iterations = max_loop_iterations

    def check_function(self, qual: str, fundef: ast.FunDef) -> None:
        sig = self.ctx.functions.get(qual)
        if sig is None:
            return
        FnChecker(self, sig, fundef).run()


def satisfies(state: State, req: StateReq, statespace, subst: Subst) -> bool:
    """Does a key's current state meet a (substituted) requirement?

    Binds bounded-state variables in ``subst`` on success (§4.4's
    ``(level <= DISPATCH_LEVEL)`` captures the call-site level).
    """
    req = subst.state_req(req)
    if isinstance(req, AnyState):
        return True
    if isinstance(req, AtMostState):
        ok = statespace.leq(state, req.bound)
        if ok:
            subst.bind_state(req.var, state)
        return ok
    assert isinstance(req, ExactState)
    want = req.state
    if isinstance(want, StateVarRef):
        resolved = subst.states.get(want.name)
        if resolved is None:
            subst.bind_state(want.name, state)
            return True
        want = resolved
    return states_equal(state, want)


def req_state(req: StateReq, subst: Subst) -> State:
    """The state a post-requirement puts a key into."""
    req = subst.state_req(req)
    if isinstance(req, ExactState):
        want = req.state
        if isinstance(want, StateVarRef):
            resolved = subst.states.get(want.name)
            if resolved is not None:
                return resolved
            return StateVar(want.name)
        return want
    if isinstance(req, AtMostState):
        return StateVar(req.var, req.bound)
    # AnyState: nothing is known statically — a fresh symbolic state.
    return StateVar("s")


class FnChecker:
    """Checks one function definition."""

    def __init__(self, checker: Checker, sig: Signature, fundef: ast.FunDef,
                 outer: Optional["FnChecker"] = None):
        self.checker = checker
        self.ctx = checker.ctx
        self.reporter = checker.reporter
        self.elab = checker.elab
        self.sig = sig
        self.fundef = fundef
        self.outer = outer

        # Lexical bindings of key and state names to skolems/locals.
        parent_scope = outer.body_scope if outer else None
        self.body_scope = Scope(parent=parent_scope)
        self.body_scope.state_binders_ok = False

        self.state = FlowState()
        self.skolems: Dict[str, Key] = {}
        self.entry_subst = Subst()
        self.expected_exit: Dict[Key, object] = {}
        self.fresh_effect_keys: Dict[str, CoreEffectItem] = {}
        self.ret_type: CType = VOID
        self.entry_global_states: Dict[Key, State] = {}

    # ------------------------------------------------------------------
    # Entry / exit
    # ------------------------------------------------------------------

    def run(self) -> None:
        self._build_entry()
        self._check_block(self.fundef.body)
        if self.state.reachable:
            if not is_void(strip_guards(self.ret_type)):
                self.reporter.error(
                    Code.MISSING_RETURN,
                    f"function '{self.sig.name}' can fall off the end "
                    f"without returning a value", self.fundef.span)
            self._check_exit(self.state, self.fundef.span)

    def _build_entry(self) -> None:
        sig = self.sig
        subst = self.entry_subst

        # ``new K`` keys have no skolem: they are bound per return site
        # to the key of the returned value.
        fresh_vars = {item.key for item in sig.effect.items
                      if item.mode == "fresh" and isinstance(item.key, str)}
        for kv in sig.key_vars:
            if kv in fresh_vars:
                continue
            skol = fresh_key(kv, origin="param")
            self.skolems[kv] = skol
            subst.keys[kv] = skol
            self.body_scope.keys[kv] = skol

        for sv in sig.state_vars:
            var = StateVar(sv)
            subst.states.setdefault(sv, var)
            self.body_scope.states[sv] = StateVarRef(sv)

        effect = sig.effect

        # Global keys enter the held set with their effect pre-state (or
        # a fresh symbolic state when unmentioned).
        for gname, ginfo in self.ctx.global_keys.items():
            item = effect.item_for(gname)
            if item is not None and item.mode == "produce":
                self.expected_exit[ginfo.key] = req_state(item.post, subst)
                continue
            if item is not None and item.mode in ("keep", "consume"):
                state = self._pre_state(item.pre, subst, gname)
            else:
                state = StateVar(gname.lower())
            self.state.held.add(ginfo.key, state)
            self.entry_global_states[ginfo.key] = state
            if item is None or item.mode == "keep":
                post = (req_state(item.post, subst)
                        if item is not None and item.post is not None
                        else state)
                self.expected_exit[ginfo.key] = post
            else:  # consume
                self.expected_exit[ginfo.key] = None

        # Keys of tracked parameters / effect-mentioned key variables.
        held_vars: Dict[str, State] = {}
        for kv in sig.key_vars:
            item = effect.item_for(kv)
            if item is None:
                continue
            if item.mode == "fresh":
                self.fresh_effect_keys[kv] = item
                continue
            if item.mode == "produce":
                self.expected_exit[self.skolems[kv]] = req_state(
                    item.post, subst)
                continue
            state = self._pre_state(item.pre, subst, kv)
            held_vars[kv] = state
            if item.mode == "keep":
                post = (req_state(item.post, subst)
                        if item.post is not None else state)
                self.expected_exit[self.skolems[kv]] = post
            else:
                self.expected_exit[self.skolems[kv]] = None

        # Effect items over concrete keys closed over from an enclosing
        # function (nested functions, Figure 7's RegainIrp).
        for item in effect.items:
            if not isinstance(item.key, Key) or item.key.origin == "global":
                continue
            key = item.key
            if item.mode == "fresh":
                self.reporter.error(
                    Code.KEY_ESCAPES_SCOPE,
                    f"'new {key.display()}' cannot name an enclosing "
                    f"function's key", self.fundef.span)
                continue
            if item.mode == "produce":
                self.expected_exit[key] = req_state(item.post, subst)
                continue
            state = self._pre_state(item.pre, subst, key.name)
            if key not in self.state.held:
                self.state.held.add(key, state)
            if item.mode == "keep":
                post = (req_state(item.post, subst)
                        if item.post is not None else state)
                self.expected_exit[key] = post
            else:
                self.expected_exit[key] = None

        # Parameters: instantiate types with skolems, bind names, and
        # hold the keys of tracked parameters (implicitly kept when the
        # effect does not mention them).
        for param in sig.params:
            ptype = subst.ctype(param.type)
            ptype = self._enter_param(ptype, param, held_vars)
            if param.name:
                self.state.vars[param.name] = VarInfo(
                    ptype, initialized=True, is_param=True, declared=ptype)

        for kv, state in held_vars.items():
            skol = self.skolems[kv]
            if skol not in self.state.held:
                self.state.held.add(skol, state)

        self.ret_type = subst.ctype(sig.ret)

        # A return type may only name keys that come from parameters,
        # from 'new K' effect items, or from global declarations —
        # anything else would smuggle an unaccounted key to the caller.
        param_keys = self._key_vars_in_params(sig)
        for kv in self._key_vars_in_type(sig.ret):
            if kv in self.fresh_effect_keys or kv in param_keys:
                continue
            if sig.effect.item_for(kv) is not None:
                continue
            self.reporter.error(
                Code.KEY_ESCAPES_SCOPE,
                f"return type of '{sig.name}' names key '{kv}', which is "
                f"neither a parameter key nor introduced by a "
                f"'new {kv}' effect item", self.fundef.span)

    @staticmethod
    def _key_vars_in_params(sig: Signature) -> set:
        found = set()
        for param in sig.params:
            found |= FnChecker._key_vars_in_type(param.type)
        return found

    @staticmethod
    def _key_vars_in_type(ctype: CType) -> set:
        found = set()

        def walk(t: CType) -> None:
            if isinstance(t, CTracked):
                if isinstance(t.key, KeyVarRef):
                    found.add(t.key.name)
                walk(t.inner)
            elif isinstance(t, CPacked):
                walk(t.inner)
            elif isinstance(t, CGuarded):
                for k, _ in t.guards:
                    if isinstance(k, KeyVarRef):
                        found.add(k.name)
                walk(t.inner)
            elif isinstance(t, CArray):
                walk(t.elem)
            elif isinstance(t, CNamed):
                for arg in t.args:
                    if arg.kind == "key" and isinstance(arg.key, KeyVarRef):
                        found.add(arg.key.name)
                    elif arg.kind == "type" and arg.type is not None:
                        walk(arg.type)

        walk(ctype)
        return found

    def _enter_param(self, ptype: CType, param: SigParam,
                     held_vars: Dict[str, State]) -> CType:
        if isinstance(ptype, CTracked) and isinstance(ptype.key, Key):
            skol = ptype.key
            name = skol.name
            if skol not in self.state.held and name not in held_vars:
                # Implicit keep: held at entry and at exit, unchanged.
                state = StateVar(name)
                self.state.held.add(skol, state, payload=ptype.inner)
                self.expected_exit.setdefault(skol, state)
            elif name in held_vars:
                if skol not in self.state.held:
                    self.state.held.add(skol, held_vars[name],
                                        payload=ptype.inner)
                del held_vars[name]
            return ptype
        if isinstance(ptype, CPacked):
            # Anonymous tracked parameter: unpack on entry (§3.3); the
            # callee owns the key and must consume it before exit.
            key = fresh_key(param.name or "anon", origin="unpack")
            state = req_state(ptype.state, self.entry_subst)
            self.state.held.add(key, state, payload=ptype.inner)
            self.expected_exit[key] = None
            return CTracked(key, ptype.inner)
        return ptype

    def _pre_state(self, req: StateReq, subst: Subst, name: str) -> State:
        if isinstance(req, ExactState):
            value = subst.state_value(req.state) \
                if isinstance(req.state, StateVarRef) else req.state
            if isinstance(value, StateVarRef):
                return StateVar(value.name)
            return value
        if isinstance(req, AtMostState):
            var = StateVar(req.var, req.bound)
            subst.states[req.var] = var
            return var
        return StateVar(name.lower())

    def _check_exit(self, state: FlowState, span: Span) -> None:
        """Compare the held-key set at an exit against the declared
        postcondition; extra keys are leaks (Figure 2's ``leaky``)."""
        expected = self.expected_exit
        for key, info in list(state.held.items()):
            want = expected.get(key, "absent")
            if want == "absent":
                notes = []
                if key.span is not None:
                    notes.append(Note("the resource was created at", key.span))
                self.reporter.error(
                    Code.KEY_LEAKED,
                    f"key {key.display()} is still in the held-key set at "
                    f"the end of '{self.sig.name}' but its effect clause "
                    f"{self.sig.effect.show() or '[]'} does not allow it "
                    f"(resource leak)", span, notes=notes)
            elif want is None:
                self.reporter.error(
                    Code.POSTCONDITION_MISMATCH,
                    f"key {key.display()} should have been consumed by "
                    f"'{self.sig.name}' but is still held at exit", span)
            elif not states_equal(info.state, want):
                self.reporter.error(
                    Code.POSTCONDITION_MISMATCH,
                    f"key {key.display()} is in state "
                    f"{state_display(info.state)} at exit of "
                    f"'{self.sig.name}', but the effect clause promises "
                    f"{state_display(want)}", span)
        for key, want in expected.items():
            if want not in (None, "absent") and key not in state.held:
                self.reporter.error(
                    Code.POSTCONDITION_MISMATCH,
                    f"key {key.display()} must be in the held-key set when "
                    f"'{self.sig.name}' returns, but it is not", span)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _check_block(self, block: ast.Block) -> None:
        declared: List[str] = []
        saved_keys = dict(self.body_scope.keys)
        saved_states = dict(self.body_scope.states)
        for stmt in block.stmts:
            if not self.state.reachable:
                break
            self._check_stmt(stmt, declared)
        for name in declared:
            self.state.vars.pop(name, None)
        self.body_scope.keys = saved_keys
        self.body_scope.states = saved_states

    def _check_stmt(self, stmt: ast.Stmt, declared: List[str]) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt, declared)
        elif isinstance(stmt, ast.LocalFun):
            self._check_local_fun(stmt, declared)
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.IncDec):
            target = self.check_expr(stmt.target)
            self._require_numeric(target, stmt.target.span)
            self._require_lvalue(stmt.target)
        elif isinstance(stmt, ast.If):
            self._check_if(stmt)
        elif isinstance(stmt, ast.While):
            self._check_while(stmt)
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, ast.Free):
            self._check_free(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            self._loop_exit(stmt)
        else:
            raise TypeError(f"unknown stmt {type(stmt).__name__}")

    # -- declarations ---------------------------------------------------------

    def _elab_local_type(self, ty: ast.Type) -> Tuple[CType, List[str], List[str]]:
        """Elaborate a local declaration's type; returns the core type
        plus the key / state names this declaration *binds* (e.g. ``R``
        in ``tracked(R) region rgn = Region.create()``)."""
        scope = Scope(parent=self.body_scope, implicit_keys=True)
        scope.state_binders_ok = True
        ctype = self.elab.elab_type(ty, scope)
        return ctype, list(scope.new_key_vars), list(scope.new_state_vars)

    def _check_var_decl(self, stmt: ast.VarDecl, declared: List[str]) -> None:
        if stmt.name in self.state.vars:
            self.reporter.error(Code.DUPLICATE_NAME,
                                f"variable '{stmt.name}' is already declared",
                                stmt.span)
        dtype, key_binders, state_binders = self._elab_local_type(stmt.type)

        if stmt.init is None:
            if key_binders:
                self.reporter.error(
                    Code.UNDEFINED_KEY,
                    f"declaration of '{stmt.name}' binds key(s) "
                    f"{', '.join(key_binders)} but has no initializer",
                    stmt.span)
            self.state.vars[stmt.name] = VarInfo(
                dtype, initialized=False, declared=dtype)
            declared.append(stmt.name)
            return

        expected = dtype if not (key_binders or state_binders) else None
        actual = self.check_expr(stmt.init, expected=expected)
        subst = Subst()
        var_type = self._match_declared(dtype, actual, subst, stmt.span)
        # Newly-bound key/state names become visible in this scope.
        for name in key_binders:
            key = subst.keys.get(name)
            if key is not None:
                self.body_scope.keys[name] = key
            else:
                self.reporter.error(
                    Code.UNDEFINED_KEY,
                    f"could not bind key '{name}' from the initializer of "
                    f"'{stmt.name}'", stmt.span)
        for name in state_binders:
            value = subst.states.get(name)
            if value is not None:
                self.body_scope.states[name] = value
        # Keep the *surface* declared type (with its binder variables):
        # re-assignment re-matches against it, so a ``tracked region``
        # variable may be re-bound to a fresh resource.
        self.state.vars[stmt.name] = VarInfo(
            var_type, initialized=True, declared=dtype)
        declared.append(stmt.name)

    def _match_declared(self, declared: CType, actual: CType, subst: Subst,
                        span: Span) -> CType:
        """Match a declared local type against its initializer's type,
        binding declaration-bound keys/states.  Returns the variable's
        flow type."""
        if isinstance(declared, CTracked):
            actual_s = strip_guards(actual)
            if not isinstance(actual_s, CTracked):
                self._mismatch(declared, actual, span)
                return declared
            if isinstance(declared.key, KeyVarRef):
                subst.bind_key(declared.key.name, actual_s.key)
            elif isinstance(declared.key, Key) and declared.key is not actual_s.key:
                self.reporter.error(
                    Code.TYPE_MISMATCH,
                    f"initializer is tracked by key "
                    f"{actual_s.key.display()}, not "
                    f"{declared.key.display()}", span)
            self._match_shape(declared.inner, actual_s.inner, subst, span)
            return actual_s
        if isinstance(declared, CPacked):
            actual_s = strip_guards(actual)
            if isinstance(actual_s, CTracked):
                self._match_shape(declared.inner, actual_s.inner, subst, span)
                return actual_s
            if isinstance(actual_s, CNamed):
                # A keyed-variant value (already wrapped by check_expr
                # for key-capturing variants) — compare directly.
                self._match_shape(declared.inner, actual_s, subst, span)
                return actual_s
            self._mismatch(declared, actual, span)
            return declared
        if isinstance(declared, CGuarded):
            # Bind declaration-bound guard keys: from a guarded
            # initializer positionally, or from a tracked initializer's
            # own key (``K:counters view = shared;`` — the guard *is*
            # the object's key).
            actual_s2 = strip_guards(actual)
            for (dk, _dreq) in declared.guards:
                if not isinstance(dk, KeyVarRef):
                    continue
                if isinstance(actual, CGuarded):
                    for (ak, _areq) in actual.guards:
                        if isinstance(ak, Key):
                            subst.bind_key(dk.name, ak)
                            break
                elif isinstance(actual_s2, CTracked) and \
                        isinstance(actual_s2.key, Key):
                    subst.bind_key(dk.name, actual_s2.key)
            inner = strip_guards(declared)
            actual_inner = actual_s2.inner \
                if isinstance(actual_s2, CTracked) and \
                not isinstance(inner, CTracked) else actual_s2
            self._match_shape(inner, actual_inner, subst, span)
            return subst.ctype(declared)
        self._match_shape(declared, strip_guards(actual), subst, span)
        return Subst(subst.keys, subst.states, subst.types).ctype(declared)

    def _match_shape(self, declared: CType, actual: CType, subst: Subst,
                     span: Span) -> None:
        """Structural matching for local declarations (keys/states bind)."""
        if declared is actual and not isinstance(declared, CTypeVar):
            # Hash-consed types: one object <=> structurally equal,
            # and with nothing to bind the match is trivially clean.
            return
        if isinstance(declared, CTypeVar):
            subst.bind_type(declared.name, actual)
            return
        if isinstance(declared, CBase) and isinstance(actual, CBase):
            if declared.name == actual.name:
                return
            if declared.name in NUMERIC_NAMES and actual.name in NUMERIC_NAMES:
                return
            self._mismatch(declared, actual, span)
            return
        if isinstance(declared, CArray) and isinstance(actual, CArray):
            self._match_shape(declared.elem, actual.elem, subst, span)
            return
        if isinstance(declared, CNamed) and isinstance(actual, CNamed):
            if declared.name != actual.name or \
                    len(declared.args) != len(actual.args):
                self._mismatch(declared, actual, span)
                return
            for da, aa in zip(declared.args, actual.args):
                if da.kind != aa.kind:
                    self._mismatch(declared, actual, span)
                    return
                if da.kind == "type":
                    self._match_shape(da.type, aa.type, subst, span)
                elif da.kind == "key":
                    if isinstance(da.key, KeyVarRef):
                        subst.bind_key(da.key.name, aa.key)
                    elif da.key is not aa.key:
                        self._mismatch(declared, actual, span)
                else:
                    if isinstance(da.state, StateVarRef):
                        subst.bind_state(da.state.name, aa.state)
                    elif not states_equal(da.state, aa.state) \
                            if not isinstance(aa.state, StateVarRef) \
                            else False:
                        self._mismatch(declared, actual, span)
            return
        if isinstance(declared, CTracked) and isinstance(actual, CTracked):
            if isinstance(declared.key, KeyVarRef):
                subst.bind_key(declared.key.name, actual.key)
            self._match_shape(declared.inner, actual.inner, subst, span)
            return
        if isinstance(declared, CPacked) and isinstance(actual, CTracked):
            self._match_shape(declared.inner, actual.inner, subst, span)
            return
        if isinstance(declared, CFun) and isinstance(actual, CFun):
            want = subst.signature(declared.sig)
            if match_signatures(want, actual.sig, subst) is not None:
                self._mismatch(declared, actual, span)
            return
        if isinstance(actual, CBase) and actual.name == "null":
            return
        if declared != actual:
            self._mismatch(declared, actual, span)

    def _mismatch(self, declared: CType, actual: CType, span: Span) -> None:
        self.reporter.error(
            Code.TYPE_MISMATCH,
            f"expected type {declared.show()}, found {actual.show()}", span)

    # -- nested functions --------------------------------------------------------

    def _check_local_fun(self, stmt: ast.LocalFun, declared: List[str]) -> None:
        fundef = stmt.fundef
        sig = self.elab.elab_signature(
            fundef.decl, module=None, is_extern=False, outer=self.body_scope)
        nested = FnChecker(self.checker, sig, fundef, outer=self)
        # The nested function may capture enclosing variables, but only
        # non-linear ones: values whose types carry no capabilities.
        nested.captured_env = {
            name: info for name, info in self.state.vars.items()
            if info.initialized and self._capturable(info.ctype)}
        nested.run()
        self.state.vars[fundef.decl.name] = VarInfo(
            CFun(sig), initialized=True)
        declared.append(fundef.decl.name)

    @staticmethod
    def _capturable(ctype: CType) -> bool:
        return not isinstance(ctype, (CTracked, CPacked, CGuarded))

    # -- assignment ---------------------------------------------------------------

    def _check_assign(self, stmt: ast.Assign) -> None:
        if stmt.op in ("+=", "-="):
            target = self.check_expr(stmt.target)
            self._require_numeric(target, stmt.target.span)
            value = self.check_expr(stmt.value)
            self._require_numeric(value, stmt.value.span)
            self._require_lvalue(stmt.target)
            return

        # Plain assignment.  Assigning to a simple name may re-bind a
        # tracked variable to a new key.
        if isinstance(stmt.target, ast.Name):
            info = self.state.vars.get(stmt.target.ident)
            if info is None:
                if self._capture_lookup(stmt.target.ident) is not None:
                    self.reporter.error(
                        Code.NOT_ASSIGNABLE,
                        f"cannot assign to captured variable "
                        f"'{stmt.target.ident}' from a nested function",
                        stmt.span)
                    self.check_expr(stmt.value)
                    return
                self.reporter.error(Code.UNDEFINED_NAME,
                                    f"undefined variable '{stmt.target.ident}'",
                                    stmt.span)
                self.check_expr(stmt.value)
                return
            expected = info.declared if info.declared is not None else None
            if isinstance(expected, CGuarded):
                # Writing through a guarded variable is an access.
                for gkey, greq in expected.guards:
                    self._check_guard(gkey, greq, stmt.span,
                                      f"'{stmt.target.ident}'")
            value = self.check_expr(stmt.value, expected=expected)
            if expected is not None:
                subst = Subst()
                new_type = self._match_declared(expected, value, subst,
                                                stmt.span)
            else:
                new_type = value
            # VarInfo entries are shared between flow-state clones;
            # replace instead of mutating.
            self.state.vars[stmt.target.ident] = VarInfo(
                new_type, True, info.is_param, info.declared)
            return

        # Field / index assignment.
        target = self._check_lvalue_slot(stmt.target)
        value = self.check_expr(stmt.value, expected=target)
        if target is not None:
            if isinstance(target, CPacked):
                # Packing a tracked value into an anonymous slot
                # consumes its key (§2.4's anonymisation).
                actual = strip_guards(value)
                if isinstance(actual, CTracked):
                    self._consume_key(actual.key, target.state, stmt.span)
                else:
                    self._mismatch(target, value, stmt.span)
            else:
                self._match_shape(strip_guards(target), strip_guards(value),
                                  Subst(), stmt.span)

    def _check_lvalue_slot(self, target: ast.Expr) -> Optional[CType]:
        """Type of a field/index assignment slot (access checks included)."""
        if isinstance(target, ast.FieldAccess):
            return self._field_type(target, writing=True)
        if isinstance(target, ast.Index):
            obj = self.check_expr(target.obj)
            idx = self.check_expr(target.index)
            self._require_numeric(idx, target.index.span)
            stripped = strip_guards(obj)
            if isinstance(stripped, CTracked):
                stripped = stripped.inner
            if isinstance(stripped, CArray):
                return stripped.elem
            self.reporter.error(Code.TYPE_MISMATCH,
                                f"cannot index a value of type {obj.show()}",
                                target.span)
            return None
        self.reporter.error(Code.NOT_ASSIGNABLE,
                            "this expression is not assignable", target.span)
        self.check_expr(target)
        return None

    def _require_lvalue(self, target: ast.Expr) -> None:
        if not isinstance(target, (ast.Name, ast.FieldAccess, ast.Index)):
            self.reporter.error(Code.NOT_ASSIGNABLE,
                                "this expression is not assignable",
                                target.span)

    # -- control flow -----------------------------------------------------------

    def _check_if(self, stmt: ast.If) -> None:
        cond = self.check_expr(stmt.cond)
        self._require_bool(cond, stmt.cond.span)
        before = self.state.clone()
        self._check_stmt_scoped(stmt.then)
        then_state = self.state
        self.state = before
        if stmt.orelse is not None:
            self._check_stmt_scoped(stmt.orelse)
        else_state = self.state
        self.state = self._join(then_state, else_state, stmt.span)

    def _check_stmt_scoped(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        else:
            declared: List[str] = []
            self._check_stmt(stmt, declared)
            for name in declared:
                self.state.vars.pop(name, None)

    def _check_while(self, stmt: ast.While) -> None:
        saved_loop = getattr(self, "_loop_states", None)
        entry = self.state
        for _ in range(self.checker.max_loop_iterations):
            self._loop_states = {"break": [], "continue": []}
            head = entry.clone()
            self.state = head
            cond = self.check_expr(stmt.cond)
            self._require_bool(cond, stmt.cond.span)
            after_cond = self.state.clone()
            self._check_stmt_scoped(stmt.body)
            back = self.state
            self._last_join_mismatch = False
            for cont in self._loop_states["continue"]:
                back = self._join(back, cont, stmt.span, quiet=True)
            new_entry = self._join(entry.clone(), back, stmt.span, quiet=True)
            if self._last_join_mismatch:
                # The held-key set at the back edge cannot be reconciled
                # with the loop entry: no invariant exists.
                self.reporter.error(
                    Code.LOOP_NO_INVARIANT,
                    "the held-key set changes across iterations of this "
                    "loop (a key is created or consumed in the body "
                    "without being balanced)", stmt.span)
                self.state = after_cond
                self._loop_states = saved_loop
                return
            if self._states_compatible(entry, new_entry):
                exit_state = after_cond
                for brk in self._loop_states["break"]:
                    exit_state = self._join(exit_state, brk, stmt.span)
                self.state = exit_state
                self._loop_states = saved_loop
                return
            entry = new_entry
        self.reporter.error(
            Code.LOOP_NO_INVARIANT,
            "the held-key set does not stabilise around this loop "
            "(a key is created or consumed on each iteration)", stmt.span)
        self.state = entry
        self._loop_states = saved_loop

    def _loop_exit(self, stmt: ast.Stmt) -> None:
        loop = getattr(self, "_loop_states", None)
        if loop is None:
            self.reporter.error(
                Code.PARSE_ERROR,
                f"'{'break' if isinstance(stmt, ast.Break) else 'continue'}' "
                f"outside a loop", stmt.span)
            return
        kind = "break" if isinstance(stmt, ast.Break) else "continue"
        loop[kind].append(self.state.clone())
        self.state.reachable = False

    def _states_compatible(self, a: FlowState, b: FlowState) -> bool:
        """Loop-convergence test: are two states equal up to renaming
        of keys related through variable bindings (the §3 abstraction)?"""
        if not a.reachable or not b.reachable:
            return True
        if len(a.held) != len(b.held):
            return False
        mapping: Dict[Key, Key] = {}
        for name, info in a.vars.items():
            other = b.vars.get(name)
            if other is None or info.initialized != other.initialized:
                return False
            ta, tb = info.ctype, other.ctype
            if isinstance(ta, CTracked) and isinstance(tb, CTracked) and \
                    isinstance(ta.key, Key) and isinstance(tb.key, Key):
                bound = mapping.get(ta.key)
                if bound is not None and bound is not tb.key:
                    return False
                mapping[ta.key] = tb.key
        for key, info in a.held.items():
            other_key = mapping.get(key, key)
            other_info = b.held.get(other_key)
            if other_info is None:
                return False
            sa, sb = info.state, other_info.state
            if isinstance(sa, StateVar) and isinstance(sb, StateVar):
                continue   # both symbolic: compatible for convergence
            if not states_equal(sa, sb):
                return False
        return True

    # -- joins --------------------------------------------------------------------

    def _join(self, a: FlowState, b: FlowState, span: Span,
              quiet: bool = False) -> FlowState:
        if not a.reachable:
            return b
        if not b.reachable:
            return a
        # α-abstraction over local key names (§3): keys that differ
        # between the branches but are bound to the same variable are
        # renamed to a common fresh key.
        mapping_b: Dict[Key, Key] = {}
        mapping_a: Dict[Key, Key] = {}
        if not self.checker.join_abstraction:
            a_vars = {}
        else:
            a_vars = a.vars
        for name, info_a in a_vars.items():
            info_b = b.vars.get(name)
            if info_b is None:
                continue
            ta, tb = info_a.ctype, info_b.ctype
            if isinstance(ta, CTracked) and isinstance(tb, CTracked):
                if ta.key is not tb.key:
                    if ta.key in a.held and tb.key in b.held:
                        sa = a.held.get(ta.key)
                        sb = b.held.get(tb.key)
                        if states_equal(sa.state, sb.state):
                            joined = fresh_key(ta.key.name, origin="join")
                            mapping_a[ta.key] = joined
                            mapping_b[tb.key] = joined
        if mapping_a:
            a = self._apply_renaming(a, mapping_a)
        if mapping_b:
            b = self._apply_renaming(b, mapping_b)

        if not a.held.same_shape(b.held):
            self._last_join_mismatch = True
            if not quiet:
                self.reporter.error(
                    Code.JOIN_MISMATCH,
                    "held-key sets disagree at this control-flow join: "
                    + a.held.diff_summary(b.held),
                    span,
                    notes=[f"one path holds {a.held.show()}",
                           f"the other holds {b.held.show()}"])
            # Recovery: keep the intersection so checking continues.
            merged = HeldKeys()
            for key, info in a.held.items():
                other = b.held.get(key)
                if other is not None and states_equal(info.state, other.state):
                    merged.add(key, info.state, info.payload)
            result = FlowState(merged, {}, True)
        else:
            result = FlowState(a.held.clone(), {}, True)

        for name, info_a in a.vars.items():
            info_b = b.vars.get(name)
            if info_b is None:
                continue
            merged_info = info_a.clone()
            merged_info.initialized = info_a.initialized and info_b.initialized
            result.vars[name] = merged_info
        return result

    @staticmethod
    def _apply_renaming(state: FlowState, mapping: Dict[Key, Key]) -> FlowState:
        renamer = _Renamer(mapping)
        new = FlowState(state.held.rename(mapping), {}, state.reachable)
        for name, info in state.vars.items():
            clone = info.clone()
            clone.ctype = renamer.ctype(clone.ctype)
            if clone.declared is not None:
                clone.declared = renamer.ctype(clone.declared)
            new.vars[name] = clone
        return new

    # -- switch -------------------------------------------------------------------

    def _check_switch(self, stmt: ast.Switch) -> None:
        scrut = self.check_expr(stmt.scrutinee)
        stripped = strip_guards(scrut)

        variant_type: Optional[CNamed] = None
        if isinstance(stripped, CTracked):
            inner = stripped.inner
            if isinstance(inner, CNamed) and self.ctx.variant(inner.name):
                variant_type = inner
                # Switching on a tracked variant consumes its key; the
                # constructors' captured keys come back per-case.
                self._consume_key(stripped.key, ANY_STATE, stmt.span)
                if isinstance(stmt.scrutinee, ast.Name):
                    info = self.state.vars.get(stmt.scrutinee.ident)
                    if info is not None:
                        self.state.vars[stmt.scrutinee.ident] = VarInfo(
                            info.ctype, False, info.is_param, info.declared)
        elif isinstance(stripped, CNamed) and self.ctx.variant(stripped.name):
            variant_type = stripped

        if variant_type is None:
            self.reporter.error(
                Code.NOT_A_VARIANT,
                f"switch scrutinee has type {scrut.show()}, which is not a "
                f"variant", stmt.scrutinee.span)
            for case in stmt.cases:
                saved = self.state.clone()
                for s in case.body:
                    self._check_stmt_scoped(s)
                self.state = saved
            return

        vinfo = self.ctx.variant(variant_type.name)
        subst = self._variant_subst(vinfo, variant_type)

        before = self.state
        results: List[FlowState] = []
        covered: List[str] = []
        has_default = False
        for case in stmt.cases:
            self.state = before.clone()
            if case.pattern.ctor is None:
                has_default = True
                remaining = [c for c in vinfo.ctors if c.name not in covered]
                for c in remaining:
                    if c.key_attach or any(isinstance(t, (CPacked, CTracked))
                                           for t in c.arg_types):
                        self.reporter.error(
                            Code.BAD_PATTERN,
                            f"'default' cannot stand in for constructor "
                            f"'{c.name}', which captures keys", case.span)
            else:
                cinfo = vinfo.ctor(case.pattern.ctor)
                if cinfo is None:
                    self.reporter.error(
                        Code.UNDEFINED_CONSTRUCTOR,
                        f"variant '{vinfo.name}' has no constructor "
                        f"'{case.pattern.ctor}'", case.span)
                    continue
                covered.append(cinfo.name)
                self._enter_case(cinfo, case, subst)
            declared: List[str] = []
            for s in case.body:
                if not self.state.reachable:
                    break
                self._check_stmt(s, declared)
            for name in declared:
                self.state.vars.pop(name, None)
            if case.pattern.ctor is not None:
                for b in case.pattern.binders:
                    if b is not None:
                        self.state.vars.pop(b, None)
            results.append(self.state)

        if not has_default:
            missing = [c.name for c in vinfo.ctors if c.name not in covered]
            if missing:
                self.reporter.error(
                    Code.NONEXHAUSTIVE_SWITCH,
                    f"switch does not cover constructor(s) "
                    f"{', '.join(repr(m) for m in missing)} of variant "
                    f"'{vinfo.name}'", stmt.span)

        if not results:
            return
        joined = results[0]
        for other in results[1:]:
            joined = self._join(joined, other, stmt.span)
        self.state = joined

    def _variant_subst(self, vinfo: VariantInfo, vtype: CNamed) -> Subst:
        subst = Subst()
        for (kind, pname), arg in zip(vinfo.params, vtype.args):
            if kind == "key" and isinstance(arg.key, Key):
                subst.keys[pname] = arg.key
            elif kind == "state":
                subst.states[pname] = arg.state
            elif kind == "type" and arg.type is not None:
                subst.types[pname] = arg.type
        return subst

    def _enter_case(self, cinfo: CtorInfo, case: ast.Case,
                    subst: Subst) -> None:
        # Restore the constructor's captured keys (pattern matching
        # recovers static knowledge from the dynamic value, §2.1).
        for kname, req in cinfo.key_attach:
            key = subst.keys.get(kname)
            if not isinstance(key, Key):
                self.reporter.error(
                    Code.ANONYMOUS_KEY,
                    f"cannot recover key parameter '{kname}' of constructor "
                    f"'{cinfo.name}' — it is not instantiated with a named "
                    f"key here", case.span)
                continue
            state = req_state(req, subst)
            try:
                self.state.held.add(key, state)
            except CapabilityError:
                self.reporter.error(
                    Code.KEY_DUPLICATED,
                    f"matching '{cinfo.name}' would introduce key "
                    f"{key.display()} twice", case.span)

        binders = case.pattern.binders
        if binders and len(binders) != len(cinfo.arg_types):
            self.reporter.error(
                Code.BAD_PATTERN,
                f"constructor '{cinfo.name}' has {len(cinfo.arg_types)} "
                f"argument(s), pattern binds {len(binders)}", case.span)
        for binder, arg_t in zip(binders, cinfo.arg_types):
            inst = subst.ctype(arg_t)
            if binder is None:
                # Discarding an anonymous tracked component would lose
                # its key irrecoverably; flag it as a leak-by-pattern.
                if isinstance(inst, (CPacked, CTracked)):
                    self.reporter.error(
                        Code.KEY_LEAKED,
                        f"pattern discards a tracked component of "
                        f"'{cinfo.name}' (its key would be lost)", case.span)
                continue
            if isinstance(inst, CPacked):
                key = fresh_key(binder, origin="unpack", span=case.span)
                state = req_state(inst.state, subst)
                self.state.held.add(key, state, payload=inst.inner)
                inst = CTracked(key, inst.inner)
            self.state.vars[binder] = VarInfo(inst, initialized=True)

    # -- return / free -------------------------------------------------------------

    def _check_return(self, stmt: ast.Return) -> None:
        declared_ret = self.ret_type
        if stmt.value is None:
            if not is_void(strip_guards(declared_ret)):
                self.reporter.error(
                    Code.TYPE_MISMATCH,
                    f"'{self.sig.name}' must return a value of type "
                    f"{declared_ret.show()}", stmt.span)
            state = self.state
            self._check_exit(state, stmt.span)
            self.state.reachable = False
            return

        value = self.check_expr(stmt.value, expected=declared_ret)
        self._coerce_return(declared_ret, value, stmt.span)
        self._check_exit(self.state, stmt.span)
        self.state.reachable = False

    def _coerce_return(self, declared: CType, actual: CType,
                       span: Span) -> None:
        actual_s = strip_guards(actual)
        if isinstance(declared, CTracked) and \
                isinstance(declared.key, KeyVarRef):
            kv = declared.key.name
            item = self.fresh_effect_keys.get(kv)
            if item is None:
                self.reporter.error(
                    Code.KEY_ESCAPES_SCOPE,
                    f"return type mentions key '{kv}' but the effect clause "
                    f"has no 'new {kv}' item", span)
                return
            if not isinstance(actual_s, CTracked):
                self._mismatch(declared, actual, span)
                return
            subst = Subst()
            info = self.state.held.get(actual_s.key)
            if info is None:
                self.reporter.error(
                    Code.KEY_NOT_HELD,
                    f"cannot return {actual_s.key.display()}: its key is "
                    f"not in the held-key set", span)
                return
            if item.post is not None and not satisfies(
                    info.state, item.post, self.ctx.statespace, subst):
                self.reporter.error(
                    Code.KEY_WRONG_STATE,
                    f"returned key {actual_s.key.display()} is in state "
                    f"{state_display(info.state)}, the effect promises "
                    f"{item.post!r}", span)
            self.state.held.remove(actual_s.key)
            self._match_shape(declared.inner, actual_s.inner, Subst(), span)
            return
        if isinstance(declared, CPacked):
            if not isinstance(actual_s, CTracked):
                self._mismatch(declared, actual, span)
                return
            info = self.state.held.get(actual_s.key)
            if info is None:
                self.reporter.error(
                    Code.KEY_NOT_HELD,
                    f"cannot pack {actual_s.key.display()} into the return "
                    f"value: its key is not held", span)
                return
            subst = Subst()
            if not satisfies(info.state, declared.state,
                             self.ctx.statespace, subst):
                self.reporter.error(
                    Code.KEY_WRONG_STATE,
                    f"returned key is in state {state_display(info.state)}, "
                    f"the return type requires {declared.state!r}", span)
            self.state.held.remove(actual_s.key)
            self._match_shape(declared.inner, actual_s.inner, Subst(), span)
            return
        self._match_shape(strip_guards(declared), actual_s, Subst(), span)

    def _check_free(self, stmt: ast.Free) -> None:
        target = self.check_expr(stmt.target)
        stripped = strip_guards(target)
        if not isinstance(stripped, CTracked):
            self.reporter.error(
                Code.BAD_FREE,
                f"free requires a tracked value, found {target.show()}",
                stmt.target.span)
            return
        inner = stripped.inner
        if isinstance(inner, CNamed):
            decl = self.ctx.type_decl(inner.name)
            if decl is not None and decl.is_abstract:
                self.reporter.error(
                    Code.ABSTRACT_TYPE_USE,
                    f"cannot free a value of abstract type '{inner.name}' "
                    f"(its module must provide a release operation)",
                    stmt.span)
                return
            vinfo = self.ctx.variant(inner.name)
            if vinfo is not None and vinfo.captures_keys:
                self.reporter.error(
                    Code.BAD_FREE,
                    f"cannot free a value of variant type '{inner.name}' "
                    f"which may capture keys (switch on it instead)",
                    stmt.span)
                return
        # The key removal is the whole story: any later use of the
        # variable fails the KEY_NOT_HELD check (it still *names* the
        # freed object, exactly as in the paper's aliasing model).
        self._consume_key(stripped.key, ANY_STATE, stmt.span)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def check_expr(self, expr: ast.Expr,
                   expected: Optional[CType] = None,
                   as_reference: bool = False) -> CType:
        """Type an expression, enforcing guards.

        With ``as_reference`` the *resulting* value's own guards are not
        checked here: the expression is being passed somewhere that
        declares the guarded type itself (a guarded parameter), so the
        guard obligation travels with it instead of being discharged at
        this program point.  Dereferences along the way are still
        checked.
        """
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return CBase("float")
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.StringLit):
            return CBase("string")
        if isinstance(expr, ast.CharLit):
            return CBase("char")
        if isinstance(expr, ast.NullLit):
            return CBase("null")
        if isinstance(expr, ast.Name):
            return self._check_name(expr, as_reference)
        if isinstance(expr, ast.FieldAccess):
            result = self._field_type(expr, writing=False,
                                      as_reference=as_reference)
            return result if result is not None else INT
        if isinstance(expr, ast.Index):
            return self._check_index(expr)
        if isinstance(expr, ast.Call):
            return self._check_call(expr)
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr)
        if isinstance(expr, ast.CtorApp):
            return self._check_ctor_app(expr, expected)
        if isinstance(expr, ast.New):
            return self._check_new(expr)
        if isinstance(expr, ast.ArrayLit):
            return self._check_array_lit(expr)
        raise TypeError(f"unknown expr {type(expr).__name__}")

    def _capture_lookup(self, name: str) -> Optional[VarInfo]:
        captured = getattr(self, "captured_env", None)
        if captured is not None and name in captured:
            return captured[name]
        return None

    def _check_name(self, expr: ast.Name,
                    as_reference: bool = False) -> CType:
        info = self.state.vars.get(expr.ident)
        if info is None:
            info = self._capture_lookup(expr.ident)
        if info is None:
            # A top-level function used as a value (e.g. registering a
            # dispatch routine).
            sig = self.ctx.function(expr.ident)
            if sig is not None:
                return CFun(sig)
            self.reporter.error(Code.UNDEFINED_NAME,
                                f"undefined variable '{expr.ident}'",
                                expr.span)
            return INT
        if not info.initialized:
            self.reporter.error(
                Code.UNDEFINED_NAME,
                f"variable '{expr.ident}' may be used before it is "
                f"assigned (or after its value was consumed)", expr.span)
            return info.ctype
        if not as_reference:
            self._check_access(info.ctype, expr.span, what=f"'{expr.ident}'")
        return info.ctype

    def _check_access(self, ctype: CType, span: Span, what: str) -> None:
        """Enforce type guards: every guard key must be held in a
        satisfying state, and a tracked value's own key must be held."""
        if isinstance(ctype, CGuarded):
            for key, req in ctype.guards:
                self._check_guard(key, req, span, what)
            self._check_access(ctype.inner, span, what)
            return
        if isinstance(ctype, CTracked):
            if isinstance(ctype.key, Key) and ctype.key not in self.state.held:
                self.reporter.error(
                    Code.KEY_NOT_HELD,
                    f"cannot access {what}: its key "
                    f"{ctype.key.display()} is not in the held-key set "
                    f"(the resource may have been released or its ownership "
                    f"transferred)", span)

    def _check_guard(self, key: KeyRef, req: StateReq, span: Span,
                     what: str) -> None:
        if not isinstance(key, Key):
            self.reporter.error(
                Code.KEY_NOT_HELD,
                f"cannot access {what}: guard key '{key!r}' is not "
                f"resolvable here", span)
            return
        info = self.state.held.get(key)
        if info is None:
            self.reporter.error(
                Code.KEY_NOT_HELD,
                f"cannot access {what}: guard key {key.display()} is not "
                f"in the held-key set", span)
            return
        subst = Subst()
        if not satisfies(info.state, req, self.ctx.statespace, subst):
            self.reporter.error(
                Code.KEY_WRONG_STATE,
                f"cannot access {what}: guard key {key.display()} is in "
                f"state {state_display(info.state)}, which does not satisfy "
                f"{req!r}", span)

    def _field_type(self, expr: ast.FieldAccess, writing: bool,
                    as_reference: bool = False) -> Optional[CType]:
        obj = self.check_expr(expr.obj)
        stripped = strip_guards(obj)
        if isinstance(stripped, CTracked):
            stripped = stripped.inner
        if not isinstance(stripped, CNamed):
            self.reporter.error(
                Code.NOT_A_STRUCT,
                f"cannot access field '{expr.field}' of a value of type "
                f"{obj.show()}", expr.span)
            return None
        sinfo = self.ctx.struct(stripped.name)
        if sinfo is None:
            self.reporter.error(
                Code.NOT_A_STRUCT,
                f"type '{stripped.name}' is not a struct", expr.span)
            return None
        ftype = sinfo.field_type(expr.field)
        if ftype is None:
            self.reporter.error(
                Code.NO_SUCH_FIELD,
                f"struct '{stripped.name}' has no field '{expr.field}'",
                expr.span)
            return None
        subst = Subst()
        for (kind, pname), arg in zip(sinfo.params, stripped.args):
            if kind == "type" and arg.type is not None:
                subst.types[pname] = arg.type
            elif kind == "key" and isinstance(arg.key, Key):
                subst.keys[pname] = arg.key
            elif kind == "state":
                subst.states[pname] = arg.state
        inst = subst.ctype(ftype)
        if isinstance(inst, CPacked) and not writing:
            self.reporter.error(
                Code.TRACKED_COPY,
                f"cannot read anonymous tracked field '{expr.field}' "
                f"(reading would duplicate its key — store a keyed variant "
                f"instead)", expr.span)
            return inst.inner
        if not writing:
            if not as_reference:
                self._check_access(inst, expr.span,
                                   what=f"field '{expr.field}'")
        else:
            if isinstance(inst, CGuarded):
                for key, req in inst.guards:
                    self._check_guard(key, req, expr.span,
                                      f"field '{expr.field}'")
        return inst

    def _check_index(self, expr: ast.Index) -> CType:
        obj = self.check_expr(expr.obj)
        idx = self.check_expr(expr.index)
        self._require_numeric(idx, expr.index.span)
        stripped = strip_guards(obj)
        if isinstance(stripped, CTracked):
            stripped = stripped.inner
        if isinstance(stripped, CArray):
            return stripped.elem
        if isinstance(stripped, CBase) and stripped.name == "string":
            return CBase("char")
        self.reporter.error(Code.TYPE_MISMATCH,
                            f"cannot index a value of type {obj.show()}",
                            expr.span)
        return INT

    def _check_unary(self, expr: ast.Unary) -> CType:
        operand = self.check_expr(expr.operand)
        if expr.op == "!":
            self._require_bool(operand, expr.operand.span)
            return BOOL
        self._require_numeric(operand, expr.operand.span)
        return strip_guards(operand)

    def _check_binary(self, expr: ast.Binary) -> CType:
        left = strip_guards(self.check_expr(expr.left))
        right = strip_guards(self.check_expr(expr.right))
        op = expr.op
        if op in ("&&", "||"):
            self._require_bool(left, expr.left.span)
            self._require_bool(right, expr.right.span)
            return BOOL
        if op in ("==", "!="):
            return BOOL
        if op in ("<", ">", "<=", ">="):
            self._require_comparable(left, expr.left.span)
            self._require_comparable(right, expr.right.span)
            return BOOL
        # Arithmetic; ``+`` also concatenates strings.
        if op == "+" and isinstance(left, CBase) and left.name == "string":
            return CBase("string")
        self._require_numeric(left, expr.left.span)
        self._require_numeric(right, expr.right.span)
        if (isinstance(left, CBase) and left.name == "float") or \
                (isinstance(right, CBase) and right.name == "float"):
            return CBase("float")
        return INT

    def _require_numeric(self, ctype: CType, span: Span) -> None:
        stripped = strip_guards(ctype)
        if not (isinstance(stripped, CBase)
                and stripped.name in NUMERIC_NAMES):
            self.reporter.error(Code.TYPE_MISMATCH,
                                f"expected a numeric value, found "
                                f"{ctype.show()}", span)

    def _require_comparable(self, ctype: CType, span: Span) -> None:
        stripped = strip_guards(ctype)
        if not (isinstance(stripped, CBase)
                and (stripped.name in NUMERIC_NAMES
                     or stripped.name in ("char", "string"))):
            self.reporter.error(Code.TYPE_MISMATCH,
                                f"expected an ordered value, found "
                                f"{ctype.show()}", span)

    def _require_bool(self, ctype: CType, span: Span) -> None:
        stripped = strip_guards(ctype)
        if not (isinstance(stripped, CBase) and stripped.name == "bool"):
            self.reporter.error(Code.TYPE_MISMATCH,
                                f"expected a bool, found {ctype.show()}",
                                span)

    # -- calls -------------------------------------------------------------------

    def _resolve_callee(self, fn: ast.Expr) -> Optional[Signature]:
        if isinstance(fn, ast.Name):
            info = self.state.vars.get(fn.ident) or \
                self._capture_lookup(fn.ident)
            if info is not None:
                stripped = strip_guards(info.ctype)
                if isinstance(stripped, CFun):
                    return stripped.sig
                self.reporter.error(
                    Code.NOT_A_FUNCTION,
                    f"'{fn.ident}' is not a function", fn.span)
                return None
            sig = self.ctx.function(fn.ident)
            if sig is not None:
                return sig
            self.reporter.error(Code.UNDEFINED_NAME,
                                f"undefined function '{fn.ident}'", fn.span)
            return None
        if isinstance(fn, ast.FieldAccess) and isinstance(fn.obj, ast.Name):
            mod = fn.obj.ident
            if mod in self.ctx.modules:
                sig = self.ctx.function(fn.field, module=mod)
                if sig is not None:
                    return sig
                self.reporter.error(
                    Code.UNDEFINED_NAME,
                    f"module '{mod}' has no function '{fn.field}'", fn.span)
                return None
        self.reporter.error(Code.NOT_A_FUNCTION,
                            "this expression cannot be called", fn.span)
        return None

    def _check_call(self, expr: ast.Call) -> CType:
        sig = self._resolve_callee(expr.fn)
        if sig is None:
            for arg in expr.args:
                self.check_expr(arg)
            return INT
        if len(expr.args) != len(sig.params):
            self.reporter.error(
                Code.ARITY_MISMATCH,
                f"'{sig.qualified_name}' expects {len(sig.params)} "
                f"argument(s), got {len(expr.args)}", expr.span)
            for arg in expr.args:
                self.check_expr(arg)
            return strip_guards(sig.ret) if isinstance(sig.ret, CBase) else INT

        subst = Subst()
        consumed: List[Tuple[Key, Span]] = []
        for param, arg in zip(sig.params, expr.args):
            arg_t = self.check_expr(
                arg, expected=self._concrete_or_none(subst.ctype(param.type)),
                as_reference=True)
            self._match_param(param.type, arg_t, subst, arg.span, consumed)

        # Anonymous tracked arguments transfer ownership: consume now.
        for key, span in consumed:
            self._consume_key(key, ANY_STATE, span)

        # Tracked parameters the effect clause does not mention are
        # implicitly kept: their keys must be held across the call.
        self._check_implicit_keeps(sig, subst, expr.span)
        self._apply_effect(sig, subst, expr.span)
        ret = subst.ctype(sig.ret)
        return self._materialise_result(ret, expr.span)

    @staticmethod
    def _concrete_or_none(ctype: CType) -> Optional[CType]:
        """Only propagate fully-instantiated expected types."""
        def concrete(t: CType) -> bool:
            if isinstance(t, (CTypeVar,)):
                return False
            if isinstance(t, CTracked):
                return isinstance(t.key, Key) and concrete(t.inner)
            if isinstance(t, CPacked):
                return concrete(t.inner)
            if isinstance(t, CGuarded):
                return all(isinstance(k, Key) for k, _ in t.guards) \
                    and concrete(t.inner)
            if isinstance(t, CNamed):
                for a in t.args:
                    if a.kind == "type" and not concrete(a.type):
                        return False
                    if a.kind == "key" and not isinstance(a.key, Key):
                        return False
                return True
            if isinstance(t, CArray):
                return concrete(t.elem)
            return True
        return ctype if concrete(ctype) else None

    def _match_param(self, declared: CType, actual: CType, subst: Subst,
                     span: Span, consumed: List[Tuple[Key, Span]]) -> None:
        """Match one argument against a declared parameter type,
        instantiating the signature's variables."""
        actual_s = strip_guards(actual)
        declared = subst.ctype(declared)
        # A guarded value crossing into an unguarded context is an
        # access: discharge its guards here.  (Into a guarded parameter
        # the obligation travels instead.)
        if isinstance(actual, CGuarded) and \
                not isinstance(declared, (CGuarded, CTypeVar)):
            for gkey, greq in actual.guards:
                self._check_guard(gkey, greq, span, "this argument")
        if isinstance(declared, CTracked):
            if not isinstance(actual_s, CTracked):
                self._mismatch(declared, actual, span)
                return
            if isinstance(declared.key, KeyVarRef) and \
                    not isinstance(actual_s.key, Key):
                # Error recovery: the argument's key never resolved.
                self._match_param(declared.inner, actual_s.inner, subst,
                                  span, consumed)
                return
            if isinstance(declared.key, KeyVarRef):
                if not subst.bind_key(declared.key.name, actual_s.key):
                    self.reporter.error(
                        Code.TYPE_MISMATCH,
                        f"key parameter '{declared.key.name}' is already "
                        f"bound to "
                        f"{subst.keys[declared.key.name].display()}, but "
                        f"this argument is tracked by "
                        f"{actual_s.key.display()}", span)
            elif isinstance(declared.key, Key):
                if declared.key is not actual_s.key:
                    self.reporter.error(
                        Code.TYPE_MISMATCH,
                        f"argument must be tracked by key "
                        f"{declared.key.display()}, found "
                        f"{actual_s.key.display()}", span)
            self._match_param(declared.inner, actual_s.inner, subst, span,
                              consumed)
            return
        if isinstance(declared, CPacked):
            if not isinstance(actual_s, CTracked):
                self._mismatch(declared, actual, span)
                return
            info = self.state.held.get(actual_s.key)
            if info is not None and not isinstance(declared.state, AnyState):
                if not satisfies(info.state, declared.state,
                                 self.ctx.statespace, subst):
                    self.reporter.error(
                        Code.KEY_WRONG_STATE,
                        f"argument key {actual_s.key.display()} is in state "
                        f"{state_display(info.state)}, the parameter "
                        f"requires {declared.state!r}", span)
            self._match_param(declared.inner, actual_s.inner, subst, span,
                              consumed)
            consumed.append((actual_s.key, span))
            return
        if isinstance(declared, CGuarded):
            for (dk, dreq) in declared.guards:
                if not isinstance(dk, KeyVarRef):
                    continue
                if isinstance(actual, CGuarded):
                    for (ak, _areq) in actual.guards:
                        if isinstance(ak, Key):
                            subst.bind_key(dk.name, ak)
                            break
                elif isinstance(actual_s, CTracked) and \
                        isinstance(actual_s.key, Key):
                    # A tracked value may flow into a guarded view: the
                    # guard becomes its own key.
                    subst.bind_key(dk.name, actual_s.key)
            inner_actual = actual_s.inner \
                if isinstance(actual_s, CTracked) and \
                not isinstance(strip_guards(declared.inner), CTracked) \
                else actual_s
            self._match_param(declared.inner, inner_actual, subst, span,
                              consumed)
            return
        if isinstance(declared, CTypeVar):
            subst.bind_type(declared.name, actual_s)
            return
        if isinstance(declared, CNamed):
            if not isinstance(actual_s, CNamed) or \
                    declared.name != actual_s.name or \
                    len(declared.args) != len(actual_s.args):
                if isinstance(actual_s, CBase) and actual_s.name == "null":
                    return
                self._mismatch(declared, actual, span)
                return
            for da, aa in zip(declared.args, actual_s.args):
                if da.kind == "key":
                    if isinstance(da.key, KeyVarRef) and \
                            isinstance(aa.key, Key):
                        subst.bind_key(da.key.name, aa.key)
                    elif isinstance(da.key, Key) and da.key is not aa.key:
                        self._mismatch(declared, actual, span)
                elif da.kind == "state":
                    if isinstance(da.state, StateVarRef):
                        subst.bind_state(da.state.name, aa.state)
                    elif isinstance(aa.state, StateVarRef):
                        pass
                    elif not states_equal(da.state, aa.state):
                        self._mismatch(declared, actual, span)
                else:
                    self._match_param(da.type, aa.type, subst, span, consumed)
            return
        if isinstance(declared, CArray):
            if isinstance(actual_s, CArray):
                self._match_param(declared.elem, actual_s.elem, subst, span,
                                  consumed)
            elif isinstance(actual_s, CBase) and actual_s.name == "null":
                pass
            else:
                self._mismatch(declared, actual, span)
            return
        if isinstance(declared, CFun):
            if not isinstance(actual_s, CFun):
                self._mismatch(declared, actual, span)
                return
            want = subst.signature(declared.sig)
            problem = match_signatures(want, actual_s.sig, subst)
            if problem is not None:
                self.reporter.error(
                    Code.TYPE_MISMATCH,
                    f"function argument has signature {actual_s.sig.show()}, "
                    f"expected {want.show()} ({problem})", span)
            return
        if isinstance(declared, CBase):
            if isinstance(actual_s, CBase):
                if declared.name == actual_s.name:
                    return
                if declared.name in NUMERIC_NAMES and \
                        actual_s.name in NUMERIC_NAMES:
                    return
                if actual_s.name == "null":
                    return
            self._mismatch(declared, actual, span)
            return
        self._mismatch(declared, actual, span)

    def _check_implicit_keeps(self, sig: Signature, subst: Subst,
                              span: Span) -> None:
        for param in sig.params:
            ptype = strip_guards(param.type)
            if not isinstance(ptype, CTracked):
                continue
            if isinstance(ptype.key, Key):
                key: Optional[Key] = ptype.key
                name: object = ptype.key
            else:
                name = ptype.key.name
                key = subst.keys.get(ptype.key.name)
            if sig.effect.item_for(name) is not None:
                continue
            if key is not None and key not in self.state.held:
                self.reporter.error(
                    Code.KEY_NOT_HELD,
                    f"cannot call '{sig.qualified_name}': key "
                    f"{key.display()} of its tracked parameter "
                    f"'{param.name or '?'}' is not in the held-key set",
                    span)

    def _apply_effect(self, sig: Signature, subst: Subst, span: Span) -> None:
        for item in sig.effect.items:
            if isinstance(item.key, Key):
                key: Optional[Key] = item.key
            else:
                key = subst.keys.get(item.key)
                if key is None:
                    ginfo = self.ctx.global_key(item.key)
                    if ginfo is not None:
                        key = ginfo.key
            if key is None and item.mode == "fresh":
                key = fresh_key(item.key, origin="local", span=span)
                subst.keys[item.key] = key
                state = req_state(item.post, subst) \
                    if item.post is not None else DEFAULT_STATE
                try:
                    self.state.held.add(key, state)
                except CapabilityError:
                    pass
                continue
            if key is None:
                self.reporter.error(
                    Code.UNDEFINED_KEY,
                    f"cannot determine which key '{item.key}' of "
                    f"'{sig.qualified_name}' refers to at this call", span)
                continue

            if not isinstance(key, Key):
                continue   # unresolved after earlier errors

            if item.mode in ("keep", "consume"):
                info = self.state.held.get(key)
                if info is None:
                    self.reporter.error(
                        Code.KEY_CONSUMED_MISSING,
                        f"cannot call '{sig.qualified_name}': key "
                        f"{key.display()} is not in the held-key set "
                        f"(precondition {sig.effect.show()})", span)
                    continue
                if not satisfies(info.state, item.pre, self.ctx.statespace,
                                 subst):
                    self.reporter.error(
                        Code.KEY_WRONG_STATE,
                        f"cannot call '{sig.qualified_name}': key "
                        f"{key.display()} is in state "
                        f"{state_display(info.state)}, which does not "
                        f"satisfy the precondition {item.pre!r}", span)
                    # Continue with the transition anyway (error recovery).
                if item.mode == "consume":
                    self.state.held.remove(key)
                elif item.post is not None:
                    self.state.held.set_state(key, req_state(item.post,
                                                             subst))
            elif item.mode == "produce":
                state = req_state(item.post, subst) \
                    if item.post is not None else DEFAULT_STATE
                try:
                    self.state.held.add(key, state)
                except CapabilityError:
                    self.reporter.error(
                        Code.KEY_DUPLICATED,
                        f"calling '{sig.qualified_name}' would introduce "
                        f"key {key.display()} twice into the held-key set "
                        f"(already held — e.g. acquiring a lock twice)",
                        span)
            elif item.mode == "fresh":
                state = req_state(item.post, subst) \
                    if item.post is not None else DEFAULT_STATE
                try:
                    self.state.held.add(key, state)
                except CapabilityError:
                    self.reporter.error(
                        Code.KEY_DUPLICATED,
                        f"fresh key {key.display()} already held", span)

    def _materialise_result(self, ret: CType, span: Span) -> CType:
        """Post-process a call's result type: record payloads for fresh
        tracked results and unpack anonymous tracked results."""
        if isinstance(ret, CTracked) and isinstance(ret.key, Key):
            info = self.state.held.get(ret.key)
            if info is not None and info.payload is None:
                self.state.held.set_payload(ret.key, ret.inner)
            return ret
        if isinstance(ret, CPacked):
            key = fresh_key("r", origin="unpack", span=span)
            state = req_state(ret.state, Subst())
            self.state.held.add(key, state, payload=ret.inner)
            return CTracked(key, ret.inner)
        if isinstance(ret, CTracked) and isinstance(ret.key, KeyVarRef):
            self.reporter.error(
                Code.UNDEFINED_KEY,
                f"could not instantiate result key '{ret.key.name}'", span)
            return ret.inner
        return ret

    # -- constructors and allocation ---------------------------------------------

    def _check_ctor_app(self, expr: ast.CtorApp,
                        expected: Optional[CType]) -> CType:
        cinfo = self.ctx.ctor(expr.name)
        if cinfo is None:
            self.reporter.error(Code.UNDEFINED_CONSTRUCTOR,
                                f"unknown constructor '{expr.name}'",
                                expr.span)
            for a in expr.args:
                self.check_expr(a)
            return INT
        vinfo = self.ctx.variant(cinfo.variant)
        subst = Subst()

        # Instantiate from the expected type, if we have one.
        expected_s = strip_guards(expected) if expected is not None else None
        if isinstance(expected_s, (CTracked, CPacked)):
            expected_s = expected_s.inner if isinstance(expected_s, CTracked) \
                else expected_s.inner
        if isinstance(expected_s, CNamed) and expected_s.name == vinfo.name:
            for (kind, pname), arg in zip(vinfo.params, expected_s.args):
                if kind == "key" and isinstance(arg.key, Key):
                    subst.keys.setdefault(pname, arg.key)
                elif kind == "state":
                    subst.states.setdefault(pname, arg.state)
                elif kind == "type" and arg.type is not None:
                    subst.types.setdefault(pname, arg.type)

        # Explicit key arguments: ``'SomeKey{F}`` — positional against
        # the constructor's key attachments.
        if expr.keys:
            if len(expr.keys) != len(cinfo.key_attach):
                self.reporter.error(
                    Code.ARITY_MISMATCH,
                    f"constructor '{cinfo.name}' attaches "
                    f"{len(cinfo.key_attach)} key(s), got {len(expr.keys)}",
                    expr.span)
            for kname, (pname, _req) in zip(expr.keys, cinfo.key_attach):
                resolved = self.body_scope.lookup_key(kname)
                if resolved is None:
                    gk = self.ctx.global_key(kname)
                    resolved = gk.key if gk else None
                if not isinstance(resolved, Key):
                    self.reporter.error(Code.UNDEFINED_KEY,
                                        f"unknown key '{kname}'", expr.span)
                    continue
                subst.keys[pname] = resolved

        # Arguments.
        if len(expr.args) != len(cinfo.arg_types):
            self.reporter.error(
                Code.ARITY_MISMATCH,
                f"constructor '{cinfo.name}' takes {len(cinfo.arg_types)} "
                f"argument(s), got {len(expr.args)}", expr.span)
        consumed: List[Tuple[Key, Span]] = []
        for decl_t, arg in zip(cinfo.arg_types, expr.args):
            arg_t = self.check_expr(
                arg, expected=self._concrete_or_none(subst.ctype(decl_t)),
                as_reference=True)
            self._match_param(decl_t, arg_t, subst, arg.span, consumed)
        for key, kspan in consumed:
            self._consume_key(key, ANY_STATE, kspan)

        # Capture the attached keys: they leave the held-key set and
        # travel with the value (§2.1's keyed variants).
        for (pname, req) in cinfo.key_attach:
            key = subst.keys.get(pname)
            if not isinstance(key, Key):
                self.reporter.error(
                    Code.UNDEFINED_KEY,
                    f"constructor '{cinfo.name}' needs key parameter "
                    f"'{pname}' — write '{cinfo.name}{{K}}' or provide an "
                    f"expected type", expr.span)
                continue
            info = self.state.held.get(key)
            if info is None:
                self.reporter.error(
                    Code.KEY_NOT_HELD,
                    f"constructor '{cinfo.name}' captures key "
                    f"{key.display()}, which is not in the held-key set",
                    expr.span)
                continue
            if not satisfies(info.state, req, self.ctx.statespace, subst):
                self.reporter.error(
                    Code.KEY_WRONG_STATE,
                    f"constructor '{cinfo.name}' captures key "
                    f"{key.display()} at state {req!r}, but it is in state "
                    f"{state_display(info.state)}", expr.span)
            self.state.held.remove(key)

        # Build the resulting variant type.
        cargs: List[CArg] = []
        complete = True
        for (kind, pname) in vinfo.params:
            if kind == "key":
                key = subst.keys.get(pname)
                if key is None:
                    complete = False
                    key = KeyVarRef(pname)
                cargs.append(CArg("key", key=key))
            elif kind == "state":
                state = subst.states.get(pname)
                if state is None:
                    complete = False
                    state = StateVarRef(pname)
                cargs.append(CArg("state", state=state))
            else:
                t = subst.types.get(pname)
                if t is None:
                    complete = False
                    t = CTypeVar(pname)
                cargs.append(CArg("type", type=t))
        if not complete:
            self.reporter.error(
                Code.BAD_TYPE_ARGUMENT,
                f"cannot infer all parameters of variant '{vinfo.name}' for "
                f"constructor '{cinfo.name}' (add an expected type)",
                expr.span)
        result = CNamed(vinfo.name, tuple(cargs))

        if vinfo.captures_keys:
            # Values of key-capturing variants are linear: wrap them in
            # a fresh tracked key so duplication is impossible.
            key = fresh_key(expr.name.lower(), origin="local", span=expr.span)
            self.state.held.add(key, DEFAULT_STATE, payload=result)
            return CTracked(key, result)
        return result

    def _check_new(self, expr: ast.New) -> CType:
        if not isinstance(expr.type, ast.NamedType):
            self.reporter.error(Code.TYPE_MISMATCH,
                                "allocation requires a struct type",
                                expr.span)
            return INT
        sinfo = self.ctx.struct(expr.type.name)
        if sinfo is None:
            self.reporter.error(
                Code.NOT_A_STRUCT,
                f"cannot allocate unknown struct '{expr.type.name}'",
                expr.span)
            for i in expr.inits:
                self.check_expr(i.value)
            return INT

        # Instantiate the struct's parameters from explicit type
        # arguments (``new tracked fdo_data<SK> {...}``).
        subst = Subst()
        struct_args: Tuple[CArg, ...] = ()
        if expr.type.args:
            scope = Scope(parent=self.body_scope)
            declared = self.elab.elab_type(expr.type, scope)
            if isinstance(declared, CNamed):
                struct_args = declared.args
                for (kind, pname), arg in zip(sinfo.params, declared.args):
                    if kind == "key" and isinstance(arg.key, Key):
                        subst.keys[pname] = arg.key
                    elif kind == "state":
                        subst.states[pname] = arg.state
                    elif kind == "type" and arg.type is not None:
                        subst.types[pname] = arg.type
        elif sinfo.params:
            self.reporter.error(
                Code.ARITY_MISMATCH,
                f"struct '{sinfo.name}' takes {len(sinfo.params)} "
                f"parameter(s); write 'new {sinfo.name}<...>'", expr.span)

        seen = set()
        for init in expr.inits:
            ftype = sinfo.field_type(init.name)
            if ftype is not None:
                ftype = subst.ctype(ftype)
            if ftype is None:
                self.reporter.error(
                    Code.NO_SUCH_FIELD,
                    f"struct '{sinfo.name}' has no field '{init.name}'",
                    init.span)
                self.check_expr(init.value)
                continue
            seen.add(init.name)
            value_t = self.check_expr(init.value)
            consumed: List[Tuple[Key, Span]] = []
            self._match_param(ftype, value_t, subst, init.span, consumed)
            for key, kspan in consumed:
                self._consume_key(key, ANY_STATE, kspan)
        missing = [name for name, _ in sinfo.fields if name not in seen]
        if missing:
            self.reporter.error(
                Code.TYPE_MISMATCH,
                f"allocation of '{sinfo.name}' does not initialise "
                f"field(s) {', '.join(missing)}", expr.span)

        struct_t = CNamed(sinfo.name, struct_args)
        if expr.tracked:
            key = fresh_key(sinfo.name[0].upper(), origin="local",
                            span=expr.span)
            self.state.held.add(key, DEFAULT_STATE, payload=struct_t)
            return CTracked(key, struct_t)
        if expr.region is not None:
            rgn = self.check_expr(expr.region)
            rgn_s = strip_guards(rgn)
            if isinstance(rgn_s, CTracked):
                return CGuarded(((rgn_s.key, ANY_STATE),), struct_t)
            if isinstance(rgn_s, CNamed):
                # An untracked arena (e.g. after erasure): the object is
                # allocated but carries no guard — a plain-C arena API.
                return struct_t
            self.reporter.error(
                Code.NOT_TRACKED,
                f"region allocation requires a region, found {rgn.show()}",
                expr.region.span)
            return struct_t
        return struct_t

    def _check_array_lit(self, expr: ast.ArrayLit) -> CType:
        elem_t: CType = INT
        for i, elem in enumerate(expr.elems):
            t = strip_guards(self.check_expr(elem))
            if i == 0:
                elem_t = t
        return CArray(elem_t)

    # -- key plumbing -------------------------------------------------------------

    def _consume_key(self, key: KeyRef, req: StateReq, span: Span) -> None:
        if not isinstance(key, Key):
            self.reporter.error(Code.UNDEFINED_KEY,
                                f"cannot resolve key {key!r}", span)
            return
        info = self.state.held.get(key)
        if info is None:
            self.reporter.error(
                Code.KEY_NOT_HELD,
                f"key {key.display()} is not in the held-key set", span)
            return
        subst = Subst()
        if not satisfies(info.state, req, self.ctx.statespace, subst):
            self.reporter.error(
                Code.KEY_WRONG_STATE,
                f"key {key.display()} is in state "
                f"{state_display(info.state)}, which does not satisfy "
                f"{req!r}", span)
        self.state.held.remove(key)
