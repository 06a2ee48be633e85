"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check_source, load_context, parse
from repro.analysis import synthesize_program
from repro.core import HeldKeys, StateSet, fresh_key
from repro.diagnostics import LexError, ParseError, VaultError
from repro.lower import compile_to_python, erase_program, load_compiled
from repro.stdlib.hostimpl import create_host, make_interpreter
from repro.syntax import parse_program, pretty, tokenize

SLOW = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


# ---------------------------------------------------------------------------
# Lexer totality: printable input either tokenizes or raises LexError.
# ---------------------------------------------------------------------------

@given(st.text(alphabet=string.printable, max_size=200))
@SLOW
def test_lexer_never_crashes(source):
    try:
        tokens = tokenize(source)
    except LexError:
        return
    assert tokens[-1].kind.name == "EOF"


@given(st.text(alphabet=string.printable, max_size=120))
@SLOW
def test_parser_never_crashes(source):
    try:
        parse_program(source)
    except (LexError, ParseError):
        pass


# ---------------------------------------------------------------------------
# Held-key set laws.
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from(["add", "remove", "set"]), max_size=30),
       st.integers(0, 5))
@SLOW
def test_heldkeys_linearity(ops, n_keys):
    from repro.core import CapabilityError
    keys = [fresh_key(f"K{i}") for i in range(max(n_keys, 1))]
    held = HeldKeys()
    model = {}
    for i, op in enumerate(ops):
        key = keys[i % len(keys)]
        if op == "add":
            if key in model:
                try:
                    held.add(key, "s")
                    assert False, "duplicate add must raise"
                except CapabilityError:
                    pass
            else:
                held.add(key, "s")
                model[key] = "s"
        elif op == "remove":
            if key in model:
                held.remove(key)
                del model[key]
            else:
                try:
                    held.remove(key)
                    assert False, "missing remove must raise"
                except CapabilityError:
                    pass
        else:
            if key in model:
                held.set_state(key, f"s{i}")
                model[key] = f"s{i}"
    assert set(held) == set(model)
    for key, state in model.items():
        assert held.state_of(key) == state


@given(st.integers(2, 8))
@SLOW
def test_stateset_chain_is_total_order(length):
    states = tuple(f"s{i}" for i in range(length))
    edges = tuple((states[i], states[i + 1]) for i in range(length - 1))
    sset = StateSet("chain", states, edges)
    for i in range(length):
        for j in range(length):
            assert sset.leq(states[i], states[j]) == (i <= j)
    assert sset.bottom() == states[0]


# ---------------------------------------------------------------------------
# Synthetic programs: the checker accepts all clean ones, rejects all
# fully-buggy ones, and never crashes on either.
# ---------------------------------------------------------------------------

@given(st.integers(1, 6), st.integers(0, 1000))
@SLOW
def test_clean_synthetic_programs_check(n, seed):
    source = synthesize_program(n, seed=seed)
    report = check_source(source, units=["region"])
    assert report.ok, report.render()


@given(st.integers(1, 5), st.integers(0, 1000))
@SLOW
def test_buggy_synthetic_programs_rejected(n, seed):
    source = synthesize_program(n, seed=seed, error_rate=1.0)
    report = check_source(source, units=["region"])
    assert not report.ok


@given(st.integers(1, 5), st.integers(0, 500))
@SLOW
def test_synthetic_parse_pretty_fixpoint(n, seed):
    source = synthesize_program(n, seed=seed)
    text = pretty(parse_program(source))
    assert pretty(parse_program(text)) == text


@given(st.integers(1, 4), st.integers(0, 500))
@SLOW
def test_erasure_is_idempotent(n, seed):
    source = synthesize_program(n, seed=seed)
    once = erase_program(parse_program(source))
    twice = erase_program(parse_program(pretty(once)))
    assert pretty(twice) == pretty(once)


@given(st.integers(1, 3), st.integers(0, 300))
@SLOW
def test_interpreter_and_compiler_agree(n, seed):
    source = synthesize_program(n, seed=seed)
    ctx, reporter = load_context(source)
    assert reporter.ok
    interp = make_interpreter(ctx, create_host())
    module = load_compiled(compile_to_python(parse(source)), create_host())
    for i in range(n):
        name = f"worker_{i}"
        assert interp.call(name, [seed % 17]) == module[name](seed % 17)


# ---------------------------------------------------------------------------
# Arithmetic expression semantics: interpreter matches Python.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Robustness: the checker never crashes on any mutant of any corpus
# program, and detection implies a protocol-relevant diagnostic.
# ---------------------------------------------------------------------------

from repro.analysis import CORPUS
from repro.analysis.mutation import generate_mutants

_ALL_MUTANTS = [
    mutant
    for program in CORPUS.values()
    for mutant in generate_mutants(program.source)
]


@given(st.integers(0, max(len(_ALL_MUTANTS) - 1, 0)))
@SLOW
def test_checker_total_on_mutants(index):
    mutant = _ALL_MUTANTS[index]
    report = check_source(mutant.source)   # must not raise
    for diag in report.errors:
        assert diag.code.value.startswith("V0")


@given(st.integers(0, max(len(_ALL_MUTANTS) - 1, 0)))
@SLOW
def test_erasure_total_on_mutants(index):
    from repro.analysis.plaincheck import plain_check
    mutant = _ALL_MUTANTS[index]
    plain_check(mutant.source)   # must not raise


_expr = st.deferred(lambda: st.one_of(
    st.integers(0, 50).map(str),
    st.tuples(_expr, st.sampled_from(["+", "-", "*"]), _expr)
    .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
))


@given(_expr)
@SLOW
def test_arithmetic_matches_python(expr_text):
    source = f"int main() {{ return {expr_text}; }}"
    ctx, reporter = load_context(source, stdlib=False)
    assert reporter.ok
    interp = make_interpreter(ctx, create_host())
    assert interp.call("main") == eval(expr_text)


# ---------------------------------------------------------------------------
# Daemon transparency: for any synthetic program, checking through a
# live daemon produces exactly the in-process result, and a daemon
# that dies without answering falls back cleanly (no orphan sockets,
# no fd leaks).
# ---------------------------------------------------------------------------

import os
import socket as socket_mod
import threading

import pytest

from repro.server import CheckServer, check_detailed

from conftest import open_fds as _open_fds

_daemon_lock = threading.Lock()
_daemon_state = {}


@pytest.fixture(scope="module")
def property_daemon(tmp_path_factory):
    """One warm daemon for the whole module (hypothesis re-enters the
    test many times; a per-example daemon would dominate runtime)."""
    if not hasattr(socket_mod, "AF_UNIX"):
        pytest.skip("needs AF_UNIX sockets")
    sock = str(tmp_path_factory.mktemp("prop-daemon") / "d.sock")
    server = CheckServer(socket_path=sock)
    server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield sock
    finally:
        server.request_stop()
        thread.join(10)
        server.close()


@given(st.integers(1, 5), st.integers(0, 500),
       st.sampled_from([0.0, 1.0]))
@SLOW
def test_daemon_check_identical_to_in_process(property_daemon, n, seed,
                                              error_rate):
    source = synthesize_program(n, seed=seed, error_rate=error_rate)
    local = check_source(source, filename="prop.vlt", units=["region"])
    outcome = check_detailed(source, "prop.vlt", {"units": ["region"]},
                             socket_path=property_daemon)
    assert outcome.via_daemon is True, "daemon should have answered"
    assert outcome.ok == local.ok
    assert outcome.render == local.render()
    assert outcome.errors == len(local.errors)


class _NeverRepliesServer:
    """Accepts, reads the request, then hangs up without a reply —
    the observable shape of a daemon killed mid-request."""

    def __init__(self):
        self.listener = None
        self.path = None
        self._thread = None
        self._stop = False

    def __enter__(self):
        import tempfile
        directory = tempfile.mkdtemp(prefix="vaultc-dead-daemon-")
        self.path = os.path.join(directory, "d.sock")
        self.listener = socket_mod.socket(socket_mod.AF_UNIX,
                                          socket_mod.SOCK_STREAM)
        self.listener.bind(self.path)
        self.listener.listen(8)
        self.listener.settimeout(0.2)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop:
            try:
                conn, _ = self.listener.accept()
            except socket_mod.timeout:
                continue
            except OSError:
                return
            try:
                conn.settimeout(5.0)
                conn.recv(1 << 16)           # let the client commit
            except OSError:
                pass
            conn.close()                     # ...then die on them

    def __exit__(self, *exc_info):
        self._stop = True
        self._thread.join(5)
        self.listener.close()
        try:
            os.unlink(self.path)
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass


@pytest.mark.slow
@pytest.mark.daemon
@given(st.integers(1, 3), st.integers(0, 200))
@settings(max_examples=10,
          suppress_health_check=[HealthCheck.too_slow],
          deadline=None)
def test_dead_daemon_falls_back_without_leaking(n, seed):
    if not hasattr(socket_mod, "AF_UNIX"):
        pytest.skip("needs AF_UNIX sockets")
    source = synthesize_program(n, seed=seed)
    local = check_source(source, filename="dead.vlt", units=["region"])
    fds_before = _open_fds()
    with _NeverRepliesServer() as dead:
        outcome = check_detailed(source, "dead.vlt", {"units": ["region"]},
                                 socket_path=dead.path)
    assert outcome.via_daemon is False, "must have fallen back in-process"
    assert outcome.ok == local.ok
    assert outcome.render == local.render()
    if fds_before is not None:
        assert _open_fds() == fds_before, "fallback leaked fds"


# ---------------------------------------------------------------------------
# Adversarial generator determinism (repro.testing.generate).
# ---------------------------------------------------------------------------

@given(st.integers(0, 2**31 - 1))
@SLOW
def test_generator_is_deterministic_and_always_parses(seed):
    from repro.testing import generate_program
    program = generate_program(seed)
    again = generate_program(seed)
    assert program.source == again.source, \
        "same seed must reproduce byte-identical program text"
    assert program.intents == again.intents
    # Every generated program is a valid unit: it parses, resolves and
    # type-checks — only *protocol* (V03xx) diagnostics are allowed.
    report = check_source(program.source, filename=f"gen-{seed}.vlt")
    offending = [c.value for c in report.codes()
                 if not c.value.startswith("V03")]
    assert not offending, (
        f"seed {seed} produced non-protocol diagnostics {offending}:\n"
        f"{report.render()}")


@given(st.integers(0, 2**31 - 1), st.integers(0, 10_000))
@SLOW
def test_derived_seeds_replay_exactly(seed, index):
    from repro.testing import derive_seed, generate_program
    program_seed = derive_seed(seed, index)
    assert derive_seed(seed, index) == program_seed
    assert (generate_program(program_seed).source
            == generate_program(program_seed).source)
