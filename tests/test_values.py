"""The hand-written record classes of the check path: the syntax nodes
of ``syntax.ast`` and the checker's immutable values (``core.keys``,
``core.types``, ``core.effects``).

Each class names its fields in ``_fields``.  Equality, hashing,
``repr`` and the name-scan test's AST walk all read that tuple, so it
must list every ``__init__`` parameter, in order.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cache import decode_blob, encode_blob
from repro.core import effects, types
from repro.core.effects import CoreEffect, CoreEffectItem, SigParam, Signature
from repro.core.keys import StateVar, Value
from repro.core.types import (ANY_STATE, INT, VOID, AnyState, AtMostState,
                              CArg, CArray, CBase, CFun, CGuarded, CNamed,
                              CPacked, CTracked, CType, CTypeVar, ExactState,
                              KeyVarRef, StateVarRef, TypeVarRef)
from repro.diagnostics import Code, Diagnostic, Note, Severity, Span
from repro.diagnostics.span import Pos
from repro.syntax import ast


def subclasses(base: type) -> list:
    """``base`` and every class derived from it, directly or not."""
    found, stack = [], [base]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def init_parameters(cls: type) -> list:
    if cls.__init__ is object.__init__:
        return []
    return list(inspect.signature(cls.__init__).parameters)[1:]


def sig(name: str = "f") -> Signature:
    return Signature(name, (SigParam(CNamed("FILE"), "f"),), VOID,
                     CoreEffect((CoreEffectItem("consume", "F",
                                                ExactState("open")),)),
                     key_vars=("F",))


#: one instance of every concrete immutable value class
SAMPLES = [
    StateVar("level", "DISPATCH_LEVEL"),
    KeyVarRef("F"), StateVarRef("level", "APC_LEVEL"), TypeVarRef("T"),
    AnyState(), ExactState("open"), AtMostState("level", "APC_LEVEL"),
    CBase("int"), CArray(INT), CArg("key", key=KeyVarRef("F")),
    CNamed("opt_key", (CArg("key", key=KeyVarRef("F")),)), CTypeVar("T"),
    CTracked(KeyVarRef("F"), CNamed("FILE")), CPacked(INT),
    CGuarded(((KeyVarRef("R"), ANY_STATE),), INT), CFun(sig()),
    CoreEffectItem("keep", "F", ExactState("open"), ExactState("closed")),
    CoreEffect(), SigParam(INT, "x"), sig(),
]


def test_fields_match_init_parameters():
    mismatched = [
        (cls.__qualname__, cls._fields, init_parameters(cls))
        for cls in subclasses(ast.Node) + subclasses(Value)
        if list(cls._fields) != init_parameters(cls)
        and cls not in (Value, CType)]
    assert mismatched == []


def test_every_class_of_the_type_modules_is_a_value():
    for module in (types, effects):
        classes = {obj for obj in vars(module).values()
                   if isinstance(obj, type)
                   and obj.__module__ == module.__name__}
        assert classes <= set(subclasses(Value)), module.__name__


def test_samples_cover_every_value_class():
    assert {type(v) for v in SAMPLES} == \
        set(subclasses(Value)) - {Value, CType}


@pytest.mark.parametrize("value", SAMPLES,
                         ids=lambda v: type(v).__qualname__)
def test_values_are_frozen(value):
    field = value._fields[0] if value._fields else "anything"
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("build", [
    lambda: CNamed("opt_key", (CArg("key", key=KeyVarRef("F")),)),
    lambda: CGuarded(((KeyVarRef("I"), AtMostState("lvl", "APC")),),
                     CArray(CBase("byte"))),
    lambda: CTracked(KeyVarRef("F"), CPacked(INT, ExactState("raw"))),
    lambda: sig(),
    lambda: CoreEffectItem("fresh", "N", ANY_STATE, ExactState("ready")),
    lambda: CoreEffect((CoreEffectItem("produce", "K", ANY_STATE,
                                       ExactState("held")),)),
], ids=["CNamed", "CGuarded", "CTracked", "Signature", "CoreEffectItem",
        "CoreEffect"])
def test_equal_fields_are_equal_and_hash_alike(build):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)


def test_equality_reads_fields_only():
    a, b = sig(), sig()
    object.__setattr__(a, "_pl_show", a.show())    # a fingerprint memo
    assert a == b and hash(a) == hash(b)
    assert sig("f") != sig("g")
    # Same field values, different class: never equal.
    assert CBase("T") != CTypeVar("T")
    assert TypeVarRef("T") != KeyVarRef("T")


def test_fresh_state_vars_are_distinct():
    a, b = StateVar("s"), StateVar("s")
    assert a.uid != b.uid
    assert a != b
    assert a == a and {a: 1}[a] == 1


def test_diagnostic_round_trips_through_the_store():
    # A ``-s`` blob: one function's diagnostics, position-free (lines
    # from the function's first line, no file name), notes included.
    span = Span(Pos(3, 5), Pos(3, 9), "")
    note = Note("the resource was created at", Span(Pos(1, 9), Pos(1, 15), ""))
    diags = (Diagnostic(Code.KEY_LEAKED, "key R leaked", span,
                        notes=[note, "R was created here"]),
             Diagnostic(Code.JOIN_MISMATCH, "sets differ", Span.unknown(),
                        Severity.WARNING))
    back = decode_blob(encode_blob(diags))
    assert back == diags
    assert [d.render() for d in back] == [d.render() for d in diags]
    assert back[0].notes == [note, "R was created here"]
    assert back[0].notes[0] != Note("the resource was created at",
                                    Span(Pos(2, 9), Pos(2, 15), ""))
    assert back[0].render().endswith(
        "\n  note: the resource was created at :1:9"
        "\n  note: R was created here")
