"""Golden-diagnostics corpus: the checker's output, pinned byte-for-byte.

Every ``.vlt`` file shipped in the repository — the examples, the
stdlib interface sources, and the driver case studies — has its exact
``vaultc check`` stdout pinned under ``tests/golden/``.  Every checking
path must reproduce those bytes exactly:

* **serial** — plain ``repro.check_source``;
* **cached** — a warm session replay, plus a cold cross-process replay
  from an on-disk summary cache;
* **daemon** — a live ``CheckServer`` answering over its socket;
* **shared store** — a cold session replaying another session's
  results out of a content-addressed store (both the on-disk CAS tier
  and the remote tier served by a live daemon).

Regenerate after an intentional diagnostics change with::

    pytest tests/test_golden.py --update-golden
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import check_source
from repro.pipeline import CheckSession
from repro.server import DaemonClient

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: repo-relative paths of the whole shipped corpus.
CORPUS = sorted(
    path.relative_to(REPO).as_posix()
    for pattern_root, pattern in (
        (REPO / "examples", "*.vlt"),
        (REPO / "src" / "repro" / "stdlib" / "vault", "*.vlt"),
        (REPO / "src" / "repro" / "drivers" / "vault", "*.vlt"),
    )
    for path in pattern_root.glob(pattern))


def golden_path(rel: str) -> Path:
    return GOLDEN_DIR / (rel.replace("/", "__") + ".golden")


def read_source(rel: str) -> str:
    return (REPO / rel).read_text(encoding="utf-8")


def cli_stdout(ok: bool, render: str, errors: int, rel: str) -> str:
    """Exactly what ``vaultc check <rel>`` writes to stdout."""
    if ok:
        return f"{rel}: OK (protocols verified)\n"
    return f"{render}\n{rel}: {errors} error(s)\n"


def report_stdout(report, rel: str) -> str:
    return cli_stdout(report.ok, report.render(), len(report.errors), rel)


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


def assert_matches_golden(actual: str, rel: str, update: bool,
                          path_label: str) -> None:
    path = golden_path(rel)
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        return
    assert path.exists(), (
        f"no golden file for {rel}; run pytest tests/test_golden.py "
        f"--update-golden")
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, (
        f"{path_label} output for {rel} diverged from the pinned bytes "
        f"in {path.name}")


# ---------------------------------------------------------------------------
# Serial (this is also the path --update-golden regenerates from)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rel", CORPUS)
def test_serial_output_matches_golden(rel, update_golden):
    report = check_source(read_source(rel), filename=rel)
    assert_matches_golden(report_stdout(report, rel), rel, update_golden,
                          "serial")


def test_corpus_is_nonempty_and_golden_dir_has_no_strays(update_golden):
    assert len(CORPUS) >= 9
    if update_golden:
        return
    expected = {golden_path(rel).name for rel in CORPUS}
    actual = {p.name for p in GOLDEN_DIR.glob("*.golden")}
    assert actual == expected


def test_update_golden_on_unchanged_tree_is_a_noop(tmp_path, update_golden):
    """Regenerating the corpus from an unchanged tree must reproduce
    ``tests/golden/`` exactly: same file set, same bytes.  Guards the
    ``--update-golden`` round trip itself, not just each file."""
    if update_golden:
        pytest.skip("regeneration run")
    for rel in CORPUS:
        report = check_source(read_source(rel), filename=rel)
        (tmp_path / golden_path(rel).name).write_text(
            report_stdout(report, rel), encoding="utf-8")
    regenerated = {p.name: p.read_text(encoding="utf-8")
                   for p in tmp_path.glob("*.golden")}
    pinned = {p.name: p.read_text(encoding="utf-8")
              for p in GOLDEN_DIR.glob("*.golden")}
    assert regenerated == pinned


# ---------------------------------------------------------------------------
# Cached: warm in-session replay and cold on-disk replay
# ---------------------------------------------------------------------------

def test_cached_output_matches_golden(tmp_path, update_golden):
    cache = str(tmp_path / "cache")
    with CheckSession(cache_dir=cache) as warm:
        for rel in CORPUS:
            warm.check(read_source(rel), filename=rel)
        for rel in CORPUS:                       # warm replay
            report = warm.check(read_source(rel), filename=rel)
            assert_matches_golden(report_stdout(report, rel), rel,
                                  update_golden, "cached (warm replay)")
    with CheckSession(cache_dir=cache) as cold:  # cross-process replay
        for rel in CORPUS:
            report = cold.check(read_source(rel), filename=rel)
            assert_matches_golden(report_stdout(report, rel), rel,
                                  update_golden, "cached (disk replay)")
        assert cold.stats.functions_checked == 0, \
            "disk cache replay should not re-check anything"


# ---------------------------------------------------------------------------
# Daemon: over the wire (the in-thread daemon fixture lives in conftest)
# ---------------------------------------------------------------------------

@pytest.mark.daemon
@pytest.mark.parametrize("rel", CORPUS)
def test_daemon_output_matches_golden(rel, daemon_socket, update_golden):
    with DaemonClient(daemon_socket) as client:
        reply = client.check(read_source(rel), filename=rel)
    assert reply["ok"] is True
    actual = cli_stdout(reply["check_ok"], reply["render"],
                        reply["errors"], rel)
    assert_matches_golden(actual, rel, update_golden, "daemon")


# ---------------------------------------------------------------------------
# Shared store: a cold session replaying another session's results
# ---------------------------------------------------------------------------

def test_shared_cas_output_matches_golden(tmp_path, update_golden):
    from repro.cache import open_store

    root = str(tmp_path / "cas")
    writer_store = open_store(root)
    try:
        with CheckSession(shared_store=writer_store) as writer:
            for rel in CORPUS:
                writer.check(read_source(rel), filename=rel)
        assert writer.stats.shared_puts > 0
    finally:
        writer_store.close()

    # A brand-new session over a brand-new store handle: everything it
    # knows comes off the CAS directory the writer populated.
    reader_store = open_store(root)
    try:
        with CheckSession(shared_store=reader_store) as reader:
            for rel in CORPUS:
                report = reader.check(read_source(rel), filename=rel)
                assert_matches_golden(report_stdout(report, rel), rel,
                                      update_golden, "shared store (CAS)")
        assert reader.stats.functions_checked == 0, \
            "a shared-store replay should not re-check anything"
        assert reader.stats.shared_unit_hits == len(CORPUS)
    finally:
        reader_store.close()


@pytest.mark.daemon
def test_shared_remote_output_matches_golden(daemon_socket, update_golden):
    from repro.cache import open_store

    writer_store = open_store("daemon:" + daemon_socket)
    try:
        with CheckSession(shared_store=writer_store) as writer:
            for rel in CORPUS:
                writer.check(read_source(rel), filename=rel)
    finally:
        writer_store.close()

    reader_store = open_store("daemon:" + daemon_socket)
    try:
        with CheckSession(shared_store=reader_store) as reader:
            for rel in CORPUS:
                report = reader.check(read_source(rel), filename=rel)
                assert_matches_golden(report_stdout(report, rel), rel,
                                      update_golden, "shared store (remote)")
        assert reader.stats.functions_checked == 0, \
            "a remote-tier replay should not re-check anything"
    finally:
        reader_store.close()
