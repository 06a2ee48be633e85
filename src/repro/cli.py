"""``vaultc`` — the command-line front end.

Subcommands::

    vaultc check   file.vlt            # parse + protocol-check
    vaultc run     file.vlt [--entry main]   # check then interpret
    vaultc compile file.vlt [-o out.py]      # check then emit Python
    vaultc erase   file.vlt                  # print the key-erased source
    vaultc stats   file.vlt                  # size/annotation metrics
    vaultc mutate  file.vlt [--limit N]      # seeded-fault study
    vaultc fuzz    [--count N --seed S]      # differential path fuzzing
    vaultc serve   [--socket PATH]           # persistent check daemon
    vaultc top     [SOCKET] [--once --json]  # live daemon dashboard
    vaultc watch   DIR                       # re-check changed .vlt files
    vaultc cache   stats|gc                  # on-disk result store ops
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from typing import List, Optional

# Only what ``check`` needs is imported here; every other subcommand
# imports its own modules inside its ``cmd_*`` function, so a
# ``vaultc check`` process never loads them.
from .api import check_source, load_context
from .core import check_program
from .diagnostics import RuntimeProtocolError, VaultError
from .syntax import parse_program, pretty


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_jobs(value: str) -> "int | str":
    """``check --jobs`` accepts an explicit count or ``auto``; both
    are ignored (functions are checked serially), but a malformed
    value is still a usage error."""
    text = value.strip().lower()
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --jobs value {value!r} (expected a count or 'auto')")


def _fault_plan(spec: "str | None"):
    """Parse ``--inject-faults`` / ``VAULTC_FAULTS`` (test use only)."""
    if not spec:
        return None
    from .pipeline.faults import FaultError, FaultPlan
    try:
        return FaultPlan.parse(spec)
    except FaultError as exc:
        raise VaultError(f"bad fault spec: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    source = _read(args.file)
    instrumented = args.trace or args.metrics
    faults = args.inject_faults or os.environ.get("VAULTC_FAULTS")
    # The daemon path only carries what the wire protocol can express;
    # introspection flags (--trace/--metrics/--profile) and the chaos
    # harness are inherently local, so they check in-process as before.
    if args.daemon is not None and not args.profile and not instrumented \
            and not faults:
        from .server.client import check_via_daemon
        outcome = check_via_daemon(source, args.file,
                                   {"cache_dir": args.cache}, args.daemon)
        if outcome is not None:
            if outcome.ok:
                print(f"{args.file}: OK (protocols verified)")
                return 0
            print(outcome.render)
            print(f"{args.file}: {outcome.errors} error(s)")
            return 1
        # No reachable daemon: transparent fallback to the identical
        # in-process pipeline below.
    if args.cache or args.profile or instrumented or faults:
        from .obs import Telemetry
        from .pipeline import CheckSession
        telemetry = Telemetry(trace=bool(args.trace))
        with CheckSession(cache_dir=args.cache, telemetry=telemetry,
                          fault_plan=_fault_plan(faults)) as session:
            try:
                report = session.check(source, filename=args.file)
            finally:
                # The trace is most valuable for the run that failed:
                # write whatever was recorded even on a crash.
                if args.trace:
                    telemetry.tracer.export(args.trace)
            if args.profile:
                _print_profile(session, file=sys.stderr)
            if args.metrics:
                _write_metrics(telemetry, args.metrics)
    else:
        report = check_source(source, filename=args.file)
    if report.ok:
        print(f"{args.file}: OK (protocols verified)")
        return 0
    print(report.render())
    print(f"{args.file}: {len(report.errors)} error(s)")
    return 1


def _write_metrics(telemetry, destination: str) -> None:
    """``--metrics -`` renders a table to stderr; any other value is
    a path that receives the snapshot as JSON."""
    if destination == "-":
        print("metrics:", file=sys.stderr)
        print(telemetry.metrics.render(), file=sys.stderr)
        return
    import json
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(telemetry.metrics.snapshot(), handle, indent=2)
        handle.write("\n")


def _print_profile(session, file) -> int:
    profile = session.last_profile
    stats = session.stats
    print("profile:", file=file)
    for key in ("context_seconds", "check_seconds"):
        if key in profile:
            label = key.replace("_seconds", "")
            print(f"  {label:<22} {profile[key] * 1000:8.1f} ms", file=file)
    plan = [profile["plan"]] if "plan" in profile else []
    if "context" in profile:
        plan.append(f"context {profile['context']}")
    if plan:
        print(f"  {'plan':<22} {'; '.join(plan)}", file=file)
    print(f"  {'functions checked':<22} {stats.functions_checked:8d}",
          file=file)
    print(f"  {'functions replayed':<22} {stats.functions_replayed:8d}",
          file=file)
    metrics = session.telemetry.metrics.snapshot()

    def count(name: str) -> int:
        return metrics.get(name, {}).get("value", 0)
    snapshot = metrics.get("check.function_seconds")
    if snapshot and snapshot.get("count"):
        from .obs import bucket_quantile
        bounds = snapshot["bounds"]
        counts = snapshot["bucket_counts"]
        quants = " / ".join(
            f"p{int(q * 100)} "
            f"{bucket_quantile(bounds, counts, q) * 1000:.1f} ms"
            for q in (0.5, 0.95, 0.99))
        print(f"  {'function latency':<22} {quants}", file=file)
    chunk_hits = count("cache.chunk_ast.hits")
    if stats.chunk_parses or chunk_hits:
        print(f"  {'chunks':<22} parsed {stats.chunk_parses} / "
              f"reused {chunk_hits}", file=file)
    if "bodies" in profile:
        parsed, functions = profile["bodies"]
        print(f"  {'bodies':<22} parsed {parsed} of {functions} functions",
              file=file)
    if count("cache.fingerprint_memo.hits"):
        print(f"  {'fingerprints memoized':<22} "
              f"{count('cache.fingerprint_memo.hits'):8d}", file=file)
    if stats.shared_unit_hits:
        print(f"  {'file record replays':<22} "
              f"{stats.shared_unit_hits:8d}", file=file)
    if count("resilience.cache_quarantines"):
        print(f"  {'cache quarantines':<22} "
              f"{count('resilience.cache_quarantines'):8d}", file=file)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .stdlib.hostimpl import create_host, make_interpreter
    source = _read(args.file)
    ctx, report = load_context(source, filename=args.file)
    if report.ok and not args.unchecked:
        check_program(ctx, report)
    if not report.ok:
        print(report.render())
        return 1
    if args.monitor:
        from .runtime.monitor import make_monitored
        interp = make_monitored(ctx)
        host = interp.vault_host
    else:
        host = create_host()
        interp = make_interpreter(ctx, host)
    try:
        result = interp.call(args.entry)
    except RuntimeProtocolError as err:
        print(f"runtime protocol violation: {err}")
        return 2
    print(f"{args.entry}() -> {result!r}")
    leaks = host.audit()
    if args.monitor:
        leaks = leaks + interp.monitor.audit()
    if leaks:
        print("leaked resources:", "; ".join(leaks))
        return 3
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .lower import compile_to_python
    source = _read(args.file)
    report = check_source(source, filename=args.file)
    if not report.ok:
        print(report.render())
        return 1
    code = compile_to_python(parse_program(source, args.file))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(code)
        print(f"wrote {args.output}")
    else:
        print(code)
    return 0


def cmd_erase(args: argparse.Namespace) -> int:
    from .lower import erase_program
    source = _read(args.file)
    program = parse_program(source, args.file)
    print(pretty(erase_program(program)), end="")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .analysis.metrics import compare_sizes, format_table
    source = _read(args.file)
    cmp = compare_sizes(source)
    rows = [[metric, str(v), str(e), f"{o:+.1%}"]
            for metric, v, e, o in cmp.rows()]
    print(format_table(["metric", "vault", "erased", "overhead"], rows))

    from .core import program_cfgs
    cfgs = program_cfgs(parse_program(source, args.file))
    if cfgs:
        print()
        cfg_rows = []
        for name, cfg in sorted(cfgs.items()):
            stats = cfg.stats()
            cfg_rows.append([name, str(stats["blocks"]),
                             str(stats["edges"]), str(stats["loops"]),
                             str(stats["unreachable"])])
        print(format_table(
            ["function", "blocks", "edges", "loops", "unreachable"],
            cfg_rows))

    # One cold check of the same file: the session's metrics (cache
    # traffic, diagnostic code counts) as one more stats table.
    from .pipeline import CheckSession
    with CheckSession() as session:
        session.check(source, filename=args.file)
    metric_rows = [[name, value] for name, value
                   in session.telemetry.metrics.render_rows()]
    if metric_rows:
        print()
        print("checker metrics (one cold check):")
        print(format_table(["metric", "value"], metric_rows))
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    source = _read(args.file)
    formatted = pretty(parse_program(source, args.file))
    if args.in_place:
        with open(args.file, "w", encoding="utf-8") as handle:
            handle.write(formatted)
        print(f"formatted {args.file}")
    else:
        print(formatted, end="")
    return 0


def cmd_cfg(args: argparse.Namespace) -> int:
    from .core import program_cfgs
    source = _read(args.file)
    cfgs = program_cfgs(parse_program(source, args.file))
    if args.function:
        cfg = cfgs.get(args.function)
        if cfg is None:
            print(f"no function '{args.function}' in {args.file}",
                  file=sys.stderr)
            return 1
        print(cfg.render())
        return 0
    for name in sorted(cfgs):
        print(cfgs[name].render())
        print()
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    from .analysis.metrics import format_table
    from .analysis.mutation import run_study
    source = _read(args.file)
    summary = run_study(source, limit=args.limit)
    rows = [[name, str(n), f"{rate:.0%}"] for name, n, rate in summary.rows()]
    rows.append(["(benign / undetected)", str(summary.benign), ""])
    print(f"{summary.total} mutants")
    print(format_table(["oracle", "detected", "rate"], rows))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import derive_seed, generate_program, run_fuzz

    if args.emit is not None:
        sys.stdout.write(generate_program(args.emit).source)
        return 0

    def progress(index: int, program_seed: int, verdict: str) -> None:
        if verdict == "DIVERGED":
            print(f"[{index + 1}/{args.count}] seed {program_seed}: "
                  f"DIVERGED", flush=True)
        elif not args.quiet and (index + 1) % 25 == 0:
            print(f"[{index + 1}/{args.count}] ...", flush=True)

    report = run_fuzz(args.count, seed=args.seed,
                      use_daemon=not args.no_daemon, on_program=progress)

    print(f"fuzz: seed {report.seed}, {report.count} programs via "
          f"{'/'.join(report.paths)}"
          + (f" (skipped: {'/'.join(report.skipped_paths)})"
             if report.skipped_paths else ""))
    print(f"  {report.programs_ok} checked clean, "
          f"{report.programs_rejected} rejected")
    if report.diagnostics:
        tally = ", ".join(f"{code}x{n}" for code, n
                          in sorted(report.diagnostics.items()))
        print(f"  diagnostics: {tally}")

    if args.out:
        import json
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")

    if report.divergences:
        os.makedirs(args.repro_dir, exist_ok=True)
        for record in report.divergences:
            path = os.path.join(args.repro_dir,
                                f"repro-{record.program_seed}.vlt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(record.shrunk)
            print(f"  DIVERGENCE seed {record.program_seed} "
                  f"(paths {', '.join(record.paths)}): shrunk "
                  f"reproducer written to {path}")
            print(f"    replay: vaultc fuzz --emit {record.program_seed}")
        print(f"fuzz: {len(report.divergences)} divergence(s) — the "
              f"checking paths are NOT byte-identical")
        return 1
    print("fuzz: all paths byte-identical on every program")
    return 0


def _serve_child_args(args: argparse.Namespace) -> list:
    """Rebuild the ``serve`` argv for a supervised child — this very
    invocation minus ``--supervise``."""
    argv = [sys.executable, "-m", "repro.cli", "serve"]
    if args.socket:
        argv += ["--socket", args.socket]
    if args.idle_timeout is not None:
        argv += ["--idle-timeout", str(args.idle_timeout)]
    argv += ["--sample-interval", str(args.sample_interval)]
    if args.prom_file:
        argv += ["--prom-file", args.prom_file]
    if args.slow_ms is not None:
        argv += ["--slow-ms", str(args.slow_ms)]
    if args.trace_dir:
        argv += ["--trace-dir", args.trace_dir]
    if args.event_log:
        argv += ["--event-log", args.event_log]
    argv += ["--max-queue", str(args.max_queue),
             "--io-timeout", str(args.io_timeout)]
    return argv


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs import Telemetry, open_event_log
    from .server import serve
    if args.supervise:
        from .server import Supervisor
        telemetry = Telemetry()
        writer = open_event_log(args.event_log and args.event_log
                                + ".supervisor", telemetry.events)
        try:
            return Supervisor(_serve_child_args(args),
                              telemetry=telemetry).run()
        finally:
            if writer is not None:
                writer.close()
    telemetry = Telemetry()
    # Subscribe the audit sink before serve() so server_start itself
    # lands in the log.
    writer = open_event_log(args.event_log, telemetry.events)
    try:
        return serve(socket_path=args.socket,
                     idle_timeout=args.idle_timeout,
                     telemetry=telemetry,
                     ready_out=sys.stderr,
                     sample_interval=args.sample_interval,
                     prom_file=args.prom_file,
                     slow_ms=args.slow_ms,
                     trace_dir=args.trace_dir,
                     max_queue=args.max_queue,
                     io_timeout=args.io_timeout or None)
    finally:
        if writer is not None:
            writer.close()


def cmd_top(args: argparse.Namespace) -> int:
    from .server.top import run_top
    return run_top(socket_path=args.socket, interval=args.interval,
                   once=args.once or args.json, as_json=args.json)


def cmd_cache(args: argparse.Namespace) -> int:
    import json
    if args.dir is not None and not os.path.isdir(args.dir):
        # A mistyped DIR must not read as an empty store.
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1
    if args.cache_cmd == "stats":
        if args.dir:
            from .cache import RecordStore
            print(json.dumps(RecordStore(args.dir).stats_snapshot(),
                             indent=2, sort_keys=True))
            return 0
        from .server.client import DaemonClient, DaemonUnavailable
        try:
            # Short read timeout: a wedged daemon is an rc-1 error,
            # not a hung CLI.
            with DaemonClient(args.daemon, read_timeout=10.0) as client:
                reply = client.stats()
        except DaemonUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = reply.get("stats") if reply.get("ok") else None
        if not isinstance(stats, dict):
            print("error: daemon returned no stats", file=sys.stderr)
            return 1
        block = stats.get("shared_cache")
        if block is None:
            print("error: daemon predates the shared cache "
                  "(no shared_cache stats block)", file=sys.stderr)
            return 1
        if not block:
            print("error: no daemon session has a cache directory "
                  "(check through it with --cache DIR)",
                  file=sys.stderr)
            return 1
        print(json.dumps(block, indent=2, sort_keys=True))
        return 0
    if args.cache_cmd == "gc":
        from .cache import DEFAULT_MAX_BYTES, RecordStore
        max_bytes = DEFAULT_MAX_BYTES if args.max_bytes is None \
            else args.max_bytes
        report = RecordStore(args.dir, max_bytes=max_bytes).gc(force=True)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    raise VaultError(f"unknown cache subcommand {args.cache_cmd!r}")


def cmd_watch(args: argparse.Namespace) -> int:
    from .server.watch import run_watch
    try:
        return run_watch(args.dir, interval=args.interval,
                         cycles=args.cycles, socket_path=args.daemon,
                         options={"cache_dir": args.cache})
    except NotADirectoryError:
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaultc",
        description="Vault protocol checker/compiler "
                    "(PLDI 2001 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and protocol-check a file")
    p.add_argument("file")
    p.add_argument("--jobs", "-j", type=_parse_jobs, default=1,
                   metavar="N|auto",
                   help="accepted and ignored, for scripts written "
                        "when functions could be checked by a worker "
                        "pool (every check is serial)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="keep one checksummed record per file in the "
                        "crash-safe on-disk store DIR: an unchanged "
                        "file replays its diagnostics without parsing, "
                        "and an edited one re-checks only the "
                        "functions the edit touched")
    p.add_argument("--profile", action="store_true",
                   help="print phase timings and cache counters to "
                        "stderr")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record a span trace of the check and write "
                        "Chrome trace-event JSON to FILE (load it in "
                        "chrome://tracing or ui.perfetto.dev)")
    p.add_argument("--metrics", default=None, metavar="FILE|-",
                   help="write the pipeline metrics (cache hit rates, "
                        "diagnostic-code counts); '-' prints a table "
                        "to stderr, anything else is a path that "
                        "receives JSON")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic chaos harness (TEST USE ONLY): "
                        "flip a byte of the file record after writing "
                        "it, e.g. 'flip-cache,seed=7' (with --cache); "
                        "also read from $VAULTC_FAULTS")
    p.add_argument("--daemon", nargs="?", const="auto", default=None,
                   metavar="auto|SOCKET",
                   help="route the check through a running 'vaultc "
                        "serve' daemon ('auto' or no value uses the "
                        "default socket); falls back to an in-process "
                        "check, with byte-identical diagnostics, when "
                        "no daemon is reachable")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="check then interpret a file")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--unchecked", action="store_true",
                   help="skip static checking (testing baseline)")
    p.add_argument("--monitor", action="store_true",
                   help="enforce effect clauses dynamically at run time")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compile", help="check then emit Python")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("erase", help="print the key-erased source")
    p.add_argument("file")
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("stats", help="annotation-overhead metrics")
    p.add_argument("file")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("fmt", help="pretty-print (normalise) a file")
    p.add_argument("file")
    p.add_argument("-i", "--in-place", action="store_true")
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("cfg", help="print control-flow graphs")
    p.add_argument("file")
    p.add_argument("--function", "-f", default=None)
    p.set_defaults(fn=cmd_cfg)

    p = sub.add_parser("mutate", help="seeded-fault detection study")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated protocol programs must "
             "check byte-identically through every execution path "
             "(see docs/PROTOCOLS.md)")
    p.add_argument("--count", "-n", type=int, default=50, metavar="N",
                   help="number of programs to generate (default 50)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="master seed; the same seed and count replay "
                        "exactly the same programs (default 0)")
    p.add_argument("--no-daemon", action="store_true",
                   help="skip the check-daemon path")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="write the full machine-readable report here")
    p.add_argument("--repro-dir", default=".", metavar="DIR",
                   help="where shrunk reproducers are written on "
                        "divergence (default: current directory)")
    p.add_argument("--emit", type=int, default=None, metavar="SEED",
                   help="print the program for one *program* seed "
                        "(as reported in a divergence) and exit")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="no periodic progress lines")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the persistent check daemon (warm caches, "
             "Unix-socket protocol; see docs/SERVER.md)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix socket to listen on (default: "
                        "$VAULTC_SOCKET or a per-user runtime path)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after this long with no requests "
                        "(default: run until SIGTERM/Ctrl-C)")
    p.add_argument("--sample-interval", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds between time-series samples of the "
                        "daemon's metrics (default 5; the 'telemetry' "
                        "op and 'vaultc top' read the sampled window)")
    p.add_argument("--prom-file", default=None, metavar="PATH",
                   help="atomically rewrite PATH with Prometheus text "
                        "exposition on every sample tick (point a "
                        "textfile collector at it)")
    p.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                   help="capture a Chrome-trace span tree for every "
                        "request slower than MS milliseconds into a "
                        "bounded on-disk ring (see --trace-dir)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="directory for slow-request traces (default: "
                        "'traces' beside the socket; newest 32 kept)")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="append every daemon event to a size-rotated "
                        "JSONL audit log at PATH")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="pending check requests buffered before the "
                        "daemon load-sheds with busy replies "
                        "(default 64)")
    p.add_argument("--io-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="reap connections that stall mid-frame for "
                        "this long (slow-loris guard; default 30, "
                        "0 disables)")
    p.add_argument("--supervise", action="store_true",
                   help="run the daemon in a child process and "
                        "respawn it on crash (crash-loop backoff, "
                        "rate-limited; clean exits end supervision)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live dashboard over a running daemon's telemetry op "
             "(throughput, latency quantiles, cache hit rates, "
             "sessions, slow traces)")
    p.add_argument("socket", nargs="?", default="auto",
                   metavar="SOCKET",
                   help="daemon socket to poll (default 'auto')")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS", help="refresh interval")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print the raw telemetry reply as JSON "
                        "(implies --once)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "cache",
        help="inspect or collect an on-disk result store "
             "(see check --cache)")
    cache_sub = p.add_subparsers(dest="cache_cmd", required=True)
    pc = cache_sub.add_parser(
        "stats", help="a result store's hit/miss/occupancy counters")
    pc.add_argument("--dir", default=None, metavar="DIR",
                    help="inspect an on-disk CAS directory instead of "
                         "a live daemon")
    pc.add_argument("--daemon", nargs="?", const="auto", default="auto",
                    metavar="auto|SOCKET",
                    help="daemon socket to query (default 'auto')")
    pc.set_defaults(fn=cmd_cache)
    pc = cache_sub.add_parser(
        "gc", help="collect an on-disk CAS down to its size budget")
    pc.add_argument("dir", metavar="DIR")
    pc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="size budget to collect toward (default "
                         "512 MiB); oldest objects are deleted first")
    pc.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "watch",
        help="re-check .vlt files under DIR whenever they change "
             "(through the daemon when one is reachable)")
    p.add_argument("dir")
    p.add_argument("--interval", type=float, default=0.5,
                   metavar="SECONDS", help="mtime poll interval")
    p.add_argument("--cycles", type=int, default=0, metavar="N",
                   help="stop after N polls (0 = run until Ctrl-C)")
    p.add_argument("--daemon", nargs="?", const="auto", default="auto",
                   metavar="auto|SOCKET",
                   help="daemon socket to check through (default "
                        "'auto'; checks fall back in-process when no "
                        "daemon is reachable)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="file-record store directory for the checks "
                        "(see check --cache)")
    p.set_defaults(fn=cmd_watch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VaultError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """The ``vaultc`` process: run the command in ``sys.argv``, exit.

    A ``check`` owns a short-lived process whose heap is almost all
    long-lived AST and context, so it runs with the cyclic GC off and,
    once its output is flushed and the exit handlers have run, leaves
    through ``os._exit``: no final collection, no heap teardown.
    Every other subcommand keeps the default GC and a normal exit.

    A reader that goes away early (``vaultc check big.vlt | head -1``)
    exits 1 without a traceback, as the ``signal`` module docs
    recommend for ``SIGPIPE``.
    """
    one_shot = sys.argv[1:2] == ["check"]
    if one_shot:
        gc.disable()
    try:
        code = main()
        if one_shot:
            atexit._run_exitfuncs()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so
        # that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if not one_shot:
        sys.exit(code)
    # Runs the exit handlers only if the pipe broke before they ran:
    # the registry is empty after the first call.
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    run()
