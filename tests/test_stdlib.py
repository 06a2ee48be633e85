"""Stdlib integrity tests: every unit parses, elaborates, and every
extern function has a host implementation."""

import pytest

from repro import load_context
from repro.stdlib import STDLIB_UNITS, available_units, stdlib_source
from repro.stdlib.hostimpl import create_host
from repro.syntax import parse_program


class TestUnits:
    def test_all_declared_units_exist(self):
        available = available_units()
        for unit in STDLIB_UNITS:
            assert unit in available

    @pytest.mark.parametrize("unit", list(STDLIB_UNITS))
    def test_unit_parses(self, unit):
        program = parse_program(stdlib_source(unit))
        assert program.decls

    @pytest.mark.parametrize("unit", list(STDLIB_UNITS))
    def test_unit_elaborates_alone(self, unit):
        # ntkernel + others are self-contained per unit.
        ctx, reporter = load_context("void nothing() { }", units=[unit])
        assert reporter.ok, reporter.render()

    def test_units_compose(self):
        ctx, reporter = load_context("void nothing() { }")
        assert reporter.ok, reporter.render()

    def test_default_units_are_resolved_once(self, monkeypatch):
        # Every check without ``units`` asks for the default units; a
        # warm call looks at no file.
        from repro.stdlib import loader, stdlib_context, stdlib_programs
        base = stdlib_context()
        programs = stdlib_programs()
        looked = []
        monkeypatch.setattr(loader.os.path, "exists",
                            lambda path: looked.append(path) or True)
        assert stdlib_context() is base
        assert stdlib_programs() == programs
        assert looked == []


class TestHostCoverage:
    def test_every_stdlib_extern_has_a_host_implementation(self):
        ctx, reporter = load_context("void nothing() { }")
        assert reporter.ok
        host = create_host()
        missing = []
        for qual, sig in ctx.functions.items():
            if not sig.is_extern:
                continue
            if host.env.lookup(qual) is None:
                missing.append(qual)
        assert not missing, f"extern functions without host impl: {missing}"

    def test_hosts_are_isolated(self):
        a = create_host()
        b = create_host()
        a.regions.create("only-in-a")
        assert a.regions.audit() == ["only-in-a"]
        assert b.regions.audit() == []

    def test_driver_ioctls_registered_by_harness(self):
        from repro.drivers import FloppyHarness
        harness = FloppyHarness(check=False)
        for name in ("IOCTL_MOTOR_ON", "IOCTL_EJECT", "IOCTL_READ_STATS"):
            assert harness.host.env.lookup(name) is not None


class TestInterfaceShapes:
    @pytest.fixture(scope="class")
    def ctx(self):
        ctx, reporter = load_context("void nothing() { }")
        assert reporter.ok
        return ctx

    def test_socket_states_flow(self, ctx):
        bind = ctx.function("bind", module="Socket")
        listen = ctx.function("listen", module="Socket")
        from repro.core import ExactState
        assert bind.effect.items[0].pre == ExactState("raw")
        assert bind.effect.items[0].post == ExactState("named")
        assert listen.effect.items[0].pre == ExactState("named")

    def test_irp_service_calls_consume(self, ctx):
        for name in ("IoCompleteRequest", "IoCallDriver", "IoFreeIrp"):
            sig = ctx.function(name)
            assert sig.effect.items[0].mode == "consume", name

    def test_mark_pending_keeps(self, ctx):
        sig = ctx.function("IoMarkIrpPending")
        assert sig.effect.items[0].mode == "keep"

    def test_event_effects(self, ctx):
        assert ctx.function("KeSignalEvent").effect.items[0].mode == \
            "consume"
        assert ctx.function("KeWaitForEvent").effect.items[0].mode == \
            "produce"

    def test_spinlock_effects_touch_irql(self, ctx):
        acquire = ctx.function("KeAcquireSpinLock")
        modes = {i.key: i.mode for i in acquire.effect.items
                 if isinstance(i.key, str)}
        assert modes.get("K") == "produce"
        assert modes.get("IRQL") == "keep"

    def test_transaction_lifecycle_effects(self, ctx):
        begin = ctx.function("begin", module="Tx")
        commit = ctx.function("commit", module="Tx")
        from repro.core import CPacked, ExactState
        assert isinstance(begin.ret, CPacked)
        assert begin.ret.state == ExactState("active")
        assert commit.effect.items[0].mode == "consume"

    def test_irql_stateset_complete(self, ctx):
        sset = ctx.statespace.sets["IRQ_LEVEL"]
        assert sset.states == ("PASSIVE_LEVEL", "APC_LEVEL",
                               "DISPATCH_LEVEL", "DIRQL")
        assert sset.bottom() == "PASSIVE_LEVEL"
