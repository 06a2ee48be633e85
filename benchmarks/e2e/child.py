"""The traced child: one fresh-process check, replayed as timed calls.

``python child.py phases FILE`` does what ``vaultc check FILE`` does
through ``check_source``, one public call at a time::

    import repro.cli -> stdlib_context -> tokenize -> parse_program
    -> build_context -> check_program -> Reporter.render

``python child.py session FILE [--jobs J] [--cache DIR] [--metrics]
[--edit FILE2 ...] [--ref]`` does what ``vaultc check --jobs J --cache
DIR FILE`` does through ``CheckSession``, then checks each ``FILE2``
under ``FILE``'s name in the same session, as an editor's next saves
would.  ``--ref`` first runs the host reference job's work
(``hostref.main``) in this process, as the span ``bench.host_ref``.

Stdout is exactly the CLI's stdout for ``FILE`` (the benchmark checks
it like any other answer) and the exit code is the CLI's.  The last
line of stderr is JSON: ``spans`` as ``[layer, start, end]`` on the
shared ``time.monotonic`` clock, so the parent can place them next to
its own spans, plus counts.  A call that no longer exists makes its
layer absent, with the reason, instead of failing the replay.
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

spans = []
counts = {}
absent = {}


def timed(layer, call, *args, **kwargs):
    start = time.monotonic()
    result = call(*args, **kwargs)
    spans.append([layer, start, time.monotonic()])
    return result


def stdout_for(ok, render, errors, filename):
    if ok:
        return f"{filename}: OK (protocols verified)\n"
    return f"{render}\n{filename}: {errors} error(s)\n"


def phases(args):
    timed("import.cli", __import__, "repro.cli")
    counts["import.repro_modules"] = sum(
        1 for name in sys.modules if name == "repro" or name.startswith("repro."))
    from repro.core import build_context, check_program
    from repro.diagnostics import Reporter
    from repro.stdlib import stdlib_context
    from repro.syntax import parse_program
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    base, base_diags = timed("stdlib.base", stdlib_context)
    try:
        from repro.syntax import tokenize
        tokens = timed("syntax.lex", tokenize, source, args.file)
        counts["syntax.tokens"] = len(tokens)
        program = timed("syntax.parse", parse_program, source, args.file,
                        tokens=tokens)
    except (ImportError, TypeError) as exc:
        absent["syntax.lex_ms"] = absent["syntax.tokens"] = \
            f"no separate lex call: {exc}"
        program = timed("syntax.parse", parse_program, source, args.file)
    reporter = Reporter(source, args.file)
    reporter.diagnostics.extend(base_diags)
    ctx = timed("core.elaborate", build_context, [program], reporter,
                base=base)
    if reporter.ok:
        timed("core.check", check_program, ctx, reporter)
    render = timed("diagnostics.render", reporter.render)
    return reporter.ok, render, len(reporter.errors)


def session(args):
    if args.ref:
        import hostref
        timed("bench.host_ref", hostref.main)
    timed("import.cli", __import__, "repro.cli")
    from repro.obs import Telemetry
    from repro.pipeline import CheckSession
    jobs = args.jobs if args.jobs == "auto" else int(args.jobs)
    telemetry = Telemetry(metrics=True) if args.metrics else Telemetry()
    with open(args.file, encoding="utf-8") as handle:
        source = handle.read()
    checker = timed("pipeline.session_open", CheckSession, jobs=jobs,
                    cache_dir=args.cache, telemetry=telemetry)
    try:
        report = timed("pipeline.check", checker.check, source, args.file)
        render = timed("diagnostics.render", report.render)
        for path in args.edit:
            with open(path, encoding="utf-8") as handle:
                edited = handle.read()
            start = time.monotonic()
            checker.check(edited, args.file).render()
            spans.append(["pipeline.edit", start, time.monotonic()])
    finally:
        timed("pipeline.close", checker.close)
    return report.ok, render, len(report.errors)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("phases", "session"))
    parser.add_argument("file")
    parser.add_argument("--jobs", default="1")
    parser.add_argument("--cache", default=None)
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--edit", action="append", default=[])
    parser.add_argument("--ref", action="store_true")
    args = parser.parse_args()
    ok, render, errors = (phases if args.mode == "phases" else session)(args)
    sys.stdout.write(stdout_for(ok, render, errors, args.file))
    sys.stdout.flush()
    spans.append(["output", spans[-1][2], time.monotonic()])
    print(json.dumps({"main": T_MAIN, "spans": spans, "counts": counts,
                      "absent": absent}), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
