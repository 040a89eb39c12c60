"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``check FILE...``   — type check RTR modules; prints each definition's
  type or the first error (exit 1 on any failure, with the offending
  file's path on stderr).
* ``run FILE...``     — type check, then evaluate; prints top-level
  results (exit 1 on static failure, 2 on runtime failure).
* ``eval 'EXPR'``     — check and evaluate a single expression.
* ``study [--scale S]`` — run the §5 case study and print Figure 9 and
  the §5.1 breakdown.
* ``fuzz``            — differential fuzzing: generate well-typed
  programs + ill-typed mutants, run the soundness oracles over shards,
  shrink any counterexamples (exit 1 if any oracle fired).
* ``profile``         — cProfile + engine stage timers over the pinned
  fuzz corpus; writes a top-frames JSON artifact with ``--json``.
* ``serve``           — run the persistent checking daemon (one warm
  engine, per-connection sessions; see ``docs/SERVER.md``).
* ``client``          — script the daemon: ``check`` / ``check-text``
  / ``eval`` / ``stats`` / ``ping`` / ``reset`` / ``shutdown``.
* ``chaos``           — seeded fault-injection campaign against an
  in-process daemon (kill lanes, tear shards, hang theory goals);
  exit 1 if any scenario fails to recover.

Every failure path prints the offending program's path and returns a
nonzero exit status, so batch invocations (CI, fuzz jobs) fail loudly.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checker.check import Checker
from .checker.errors import CheckError
from .interp.eval import run_program
from .interp.values import RacketError, UnsafeMemoryError, value_repr
from .syntax.parser import ParseError, parse_program

__all__ = ["main"]

#: exit codes: static (parse/check) vs dynamic (evaluation) failure
EXIT_STATIC = 1
EXIT_DYNAMIC = 2


def _count(minimum: int):
    """An argparse ``type`` for an integer option that must be ≥ ``minimum``.

    A bad value becomes a usage error naming the option, not a traceback
    (or a silent no-op) deep in the command.
    """

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _positive_finite(text: str) -> float:
    """An argparse ``type`` for a float option that must be finite and > 0."""
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _print_engine_stats(checker: Checker) -> None:
    from .study.report import engine_stats_table

    print()
    print(engine_stats_table(checker.logic.stats))


def _cmd_check(args: argparse.Namespace) -> int:
    from .batch import check_many
    from .batch.pipeline import effective_jobs
    from .study.report import engine_stats_table

    jobs = max(1, args.jobs)
    checker = Checker()  # jobs=1 threads the process-wide shared engine
    checker.logic.stats.reset()
    try:
        report = check_many(
            args.files,
            jobs=jobs,
            cache_dir=args.cache_dir,
            logic=checker.logic if jobs == 1 else None,
        )
    except OSError as exc:
        print(f"cache directory unusable: {exc}", file=sys.stderr)
        return EXIT_STATIC
    if report.jobs_degraded:
        # the core-count clamp, or an in-process run (one file, no
        # fork, or a worker died)
        clamped = report.jobs == effective_jobs(report.jobs_requested)
        print(
            f"note: --jobs {report.jobs_requested} degraded to "
            f"{report.jobs} ({'cpu count' if clamped else 'in-process'})",
            file=sys.stderr,
        )
    status = 0
    for verdict in report.verdicts:
        if not verdict.ok:
            print(f"{verdict.path}: FAILED\n{verdict.error}\n", file=sys.stderr)
            status = EXIT_STATIC
            continue
        print(f"{verdict.path}: OK")
        if args.verbose:
            for name, pretty in verdict.types.items():
                print(f"  {name} : {pretty}")
    if args.stats:
        print()
        print(engine_stats_table(report.stats))
    return status


def _run_one(checker: Checker, filename: str, unchecked: bool) -> int:
    """Check + evaluate one module; prints path-prefixed diagnostics."""
    try:
        source = Path(filename).read_text()
    except OSError as exc:
        print(f"{filename}: error: cannot read: {exc}", file=sys.stderr)
        return EXIT_STATIC
    try:
        program = parse_program(source)
        if not unchecked:
            checker.check_program(program)
    except (ParseError, CheckError) as exc:
        print(f"{filename}: error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    try:
        _defs, results = run_program(program)
    except (RacketError, UnsafeMemoryError) as exc:
        print(f"{filename}: runtime error: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    for value in results:
        print(value_repr(value))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    checker = Checker()
    checker.logic.stats.reset()
    status = 0
    for filename in args.files:
        status = max(status, _run_one(checker, filename, args.unchecked))
    if args.stats:
        _print_engine_stats(checker)
    return status


def _cmd_eval(args: argparse.Namespace) -> int:
    checker = Checker()
    checker.logic.stats.reset()
    try:
        program = parse_program(args.expr)
        if not args.unchecked:
            checker.check_program(program)
    except (ParseError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATIC
    try:
        _defs, results = run_program(program)
    except (RacketError, UnsafeMemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    for value in results:
        print(value_repr(value))
    if args.stats:
        _print_engine_stats(checker)
    return 0


def _stage_table(stage_ns) -> str:
    """Render an ``EngineStats.stage_ns`` breakdown, hottest first."""
    lines = ["engine stage breakdown (outermost brackets only):"]
    for stage, elapsed in sorted(stage_ns.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {stage:<10} {elapsed / 1e6:>10.1f} ms")
    if len(lines) == 1:
        lines.append("  (no stage timings recorded)")
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile + stage timers over the pinned fuzz corpus."""
    import cProfile
    import json
    import pstats
    import time

    from .fuzz.gen import generate_program
    from .logic.prove import Logic

    specs = [generate_program(args.seed, index) for index in range(args.count)]
    logic = Logic()
    logic.enable_stage_timers()
    checker = Checker(logic=logic)

    def drive():
        accepted = rejected = 0
        for spec in specs:
            try:
                checker.check_program(parse_program(spec.source))
                accepted += 1
            except (ParseError, CheckError):
                rejected += 1
        return accepted, rejected

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    accepted, rejected = drive()
    profiler.disable()
    wall = time.perf_counter() - started

    src_root = str(Path(__file__).resolve().parent.parent)
    rows = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        filename, lineno, name = func
        if filename.startswith(src_root):
            filename = filename[len(src_root) + 1:]
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
        )
    rows.sort(key=lambda row: row["tottime"], reverse=True)

    artifact = {
        "seed": args.seed,
        "count": args.count,
        "accepted": accepted,
        "rejected": rejected,
        "wall_seconds": round(wall, 3),
        "programs_per_second": round(args.count / wall, 2) if wall > 0 else 0.0,
        "stage_ns": dict(logic.stats.stage_ns),
        "top_functions": rows[: args.top],
    }
    print(
        f"profiled {args.count} corpus programs (seed {args.seed}): "
        f"{artifact['programs_per_second']} programs/sec, "
        f"{accepted} accepted / {rejected} rejected"
    )
    print()
    print(_stage_table(artifact["stage_ns"]))
    print()
    print(f"top {min(args.top, len(rows))} functions by self time:")
    for row in artifact["top_functions"]:
        print(
            f"  {row['tottime']:>9.4f}s  {row['ncalls']:>9}  {row['function']}"
        )
    if args.json is not None:
        rendered = json.dumps(artifact, indent=2, sort_keys=True)
        if args.json == "-":
            print(rendered)
        else:
            Path(args.json).write_text(rendered + "\n")
            print(f"\nprofile artifact written to {args.json}")
    return 0


def _write_campaign_json(summary, path: str) -> None:
    import json

    rendered = json.dumps(summary, indent=2, sort_keys=True)
    if path == "-":
        print(rendered)
    else:
        Path(path).write_text(rendered + "\n")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import SCENARIOS, ChaosConfig, run_chaos

    if args.list:
        for name in SCENARIOS:
            print(name)
        return 0
    config = ChaosConfig(
        seed=args.seed,
        scenarios=args.scenario or None,
        workload_count=args.workload,
    )
    try:
        config.scenario_names()
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return EXIT_STATIC
    report = run_chaos(config, progress=print)
    print()
    print(
        f"chaos campaign: {report.passed} passed / {report.failed} failed "
        f"in {report.duration_seconds:.1f}s  (seed {config.seed}, "
        f"digest {report.digest()})"
    )
    if args.json is not None:
        _write_campaign_json(report.as_dict(), args.json)
    if not report.ok:
        for result in report.results:
            if not result.ok:
                print(f"  FAIL {result.name}: {result.error}", file=sys.stderr)
        return EXIT_DYNAMIC
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.farm:
        return _cmd_fuzz_farm(args)
    from .fuzz import FuzzConfig, run_fuzz
    from .study.bugs import triage
    from .study.report import fuzz_table

    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        shards=args.shards,
        checker="blind" if args.inject_bug else args.checker,
        mutants=not args.no_mutants,
        max_mutants=args.max_mutants,
        shrink_failures=not args.no_shrink,
        max_shrinks=args.max_shrinks,
        cache_dir=args.cache_dir,
        solver_oracle=args.solver_oracle,
        coverage=args.coverage,
        guided=args.guided,
        profile=args.profile,
    )
    try:
        report = run_fuzz(config)
    except OSError as exc:
        print(f"cache directory unusable: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    print(fuzz_table(report))
    if report.stage_ns is not None:
        print()
        print(_stage_table(report.stage_ns))
    if args.json is not None:
        summary = report.as_dict()
        if report.violations:
            summary["triage"] = [
                bug.as_dict() for bug in triage(report.violations)
            ]
        _write_campaign_json(summary, args.json)
    if report.violations:
        print()
        print(f"{len(report.violations)} violation(s):", file=sys.stderr)
        for violation in report.violations:
            print(file=sys.stderr)
            print(violation.describe(), file=sys.stderr)
            if violation.shrunk:
                print("  shrunk counterexample:", file=sys.stderr)
                for line in violation.shrunk.rstrip().splitlines():
                    print(f"    {line}", file=sys.stderr)
        return EXIT_STATIC
    return 0


def _cmd_fuzz_farm(args: argparse.Namespace) -> int:
    from .fuzz.farm import FarmConfig, run_farm
    from .study.bugs import triage

    config = FarmConfig(
        seed=args.seed,
        count=args.count,
        budget_seconds=args.budget_seconds,
        checker=args.checker,
        mutants=not args.no_mutants,
        max_mutants=args.max_mutants,
        connect_socket=args.connect,
        guided=args.guided,
    )
    try:
        report = run_farm(config)
    except (RuntimeError, OSError) as exc:
        print(f"farm: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    where = "spawned daemon" if report.spawned else f"daemon at {args.connect}"
    print("Fuzz farm campaign")
    print(f"  target: {where}")
    print(f"  programs / wire checks  {report.programs} / {report.checks}")
    print(f"  daemon accept / reject  "
          f"{report.daemon_accepted} / {report.daemon_rejected}")
    print(f"  divergences             {len(report.divergences)}")
    if report.coverage:
        print(f"  coverage points         {report.coverage['points']}")
        print(f"  coverage digest         {report.coverage['digest']}")
    print(f"  duration                {report.duration_seconds:.1f}s")
    print(f"  digest                  {report.digest()}")
    if args.json is not None:
        summary = report.as_dict()
        if report.divergences:
            summary["triage"] = [
                bug.as_dict() for bug in triage(report.divergences)
            ]
        _write_campaign_json(summary, args.json)
    if report.divergences:
        print()
        print(f"{len(report.divergences)} divergence(s):", file=sys.stderr)
        for violation in report.divergences:
            print(file=sys.stderr)
            print(violation.describe(), file=sys.stderr)
        return EXIT_STATIC
    return 0


def _cmd_bugs(args: argparse.Namespace) -> int:
    from .study.bugs import BUG_CATALOG
    from .study.report import bug_study_table

    if args.json:
        import json

        print(json.dumps([r.as_dict() for r in BUG_CATALOG], indent=2))
    else:
        print(bug_study_table())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import CheckingServer, ServerConfig

    if args.socket is None and args.port is None:
        print("serve: pass --socket PATH or --port N", file=sys.stderr)
        return EXIT_STATIC
    config = ServerConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port or 0,
        lanes=max(1, args.lanes),
        cache_dir=args.cache_dir,
        max_queue_depth=max(0, args.max_queue_depth),
        default_deadline_ms=args.default_deadline_ms,
        hang_seconds=max(0.0, args.hang_seconds),
    )
    try:
        server = CheckingServer(config)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_STATIC
    try:
        kind, where = server.start()
    except OSError as exc:
        print(f"serve: cannot bind: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    if kind == "unix":
        print(f"listening on unix socket {where}  (lanes={config.lanes})")
    else:
        host, port = where
        print(f"listening on {host}:{port}  (lanes={config.lanes})")
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _client_connect(args):
    from .server import Client

    if args.socket is None and args.port is None:
        raise ValueError("pass --socket PATH or --port N")
    settings = dict(
        timeout=args.timeout,
        retries=max(0, args.retries),
        affinity=getattr(args, "affinity", None),
    )
    if args.socket is not None:
        return Client(socket_path=args.socket, **settings)
    return Client(host=args.host, port=args.port, **settings)


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from .server import ServerError
    from .server.protocol import ProtocolError

    try:
        client = _client_connect(args)
    except (ValueError, OSError) as exc:
        print(f"client: cannot connect: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC
    try:
        with client:
            return _run_client_request(client, args)
    except ServerError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return EXIT_STATIC
    except (ProtocolError, OSError) as exc:
        print(f"client: connection failed: {exc}", file=sys.stderr)
        return EXIT_DYNAMIC


def _run_client_request(client, args: argparse.Namespace) -> int:
    import json

    request = args.request
    needed = {"check": 1, "check-text": 2, "eval": 1}.get(request, 0)
    if len(args.args) < needed:
        print(f"client: {request} needs at least {needed} argument(s)",
              file=sys.stderr)
        return EXIT_STATIC
    deadline_ms = args.deadline_ms
    if request == "check":
        response = client.try_check(args.args, deadline_ms=deadline_ms)
        if args.json:
            print(json.dumps(response, indent=2))
            return 0 if response["ok"] else EXIT_STATIC
        status = 0
        for verdict in response["verdicts"]:
            if verdict["ok"]:
                print(f"{verdict['path']}: OK")
            else:
                print(
                    f"{verdict['path']}: FAILED\n{verdict['error']}\n",
                    file=sys.stderr,
                )
                status = EXIT_STATIC
        return status
    if request == "check-text":
        name, source_path = args.args[0], args.args[1]
        text = sys.stdin.read() if source_path == "-" else Path(source_path).read_text()
        response = client.check_text(name, text, deadline_ms=deadline_ms)
        if args.json:
            print(json.dumps(response, indent=2))
            return 0 if response["ok"] else EXIT_STATIC
        if not response["ok"]:
            print(f"{name}: FAILED\n{response['error']}", file=sys.stderr)
            return EXIT_STATIC
        cached = " (cached)" if response.get("cached") else ""
        print(f"{name}: OK{cached}")
        for defn, pretty in response.get("types", {}).items():
            print(f"  {defn} : {pretty}")
        return 0
    if request == "eval":
        for rendered in client.eval(" ".join(args.args), deadline_ms=deadline_ms):
            print(rendered)
        return 0
    if request == "stats":
        print(json.dumps(client.stats(), indent=2))
        return 0
    if request == "ping":
        print(json.dumps(client.ping(), indent=2))
        return 0
    if request == "reset":
        print(json.dumps(client.reset()))
        return 0
    if request == "shutdown":
        print(json.dumps(client.shutdown()))
        return 0
    print(f"client: unknown request {request!r}", file=sys.stderr)
    return EXIT_STATIC


def _cmd_repl(args: argparse.Namespace) -> int:
    from .repl import repl

    repl()
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from .study.casestudy import run_case_study
    from .study.report import (
        corpus_table,
        figure9_table,
        headline,
        math_categories_table,
    )

    result = run_case_study(scale=args.scale)
    print(figure9_table(result))
    print()
    print(corpus_table(result))
    print()
    print(math_categories_table(result))
    print()
    print(headline(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Refinement Typed Racket (λRTR) — PLDI 2016 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type check RTR modules")
    check.add_argument("files", nargs="+")
    check.add_argument("-v", "--verbose", action="store_true",
                       help="print each definition's type")
    check.add_argument("--stats", action="store_true",
                       help="print proof-engine cache/theory statistics")
    check.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (forked); verdicts are "
                            "identical to sequential checking")
    check.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent proof-cache directory shared "
                            "across workers and runs")
    check.set_defaults(fn=_cmd_check)

    run = sub.add_parser("run", help="check and evaluate modules")
    run.add_argument("files", nargs="+")
    run.add_argument("--unchecked", action="store_true",
                     help="skip the type checker (dangerous)")
    run.add_argument("--stats", action="store_true",
                     help="print proof-engine cache/theory statistics")
    run.set_defaults(fn=_cmd_run)

    ev = sub.add_parser("eval", help="check and evaluate an expression")
    ev.add_argument("expr")
    ev.add_argument("--unchecked", action="store_true")
    ev.add_argument("--stats", action="store_true",
                    help="print proof-engine cache/theory statistics")
    ev.set_defaults(fn=_cmd_eval)

    study = sub.add_parser("study", help="run the §5 case study")
    study.add_argument("--scale", type=_positive_finite, default=0.1,
                       help="corpus scale (1.0 = the paper's 1085 ops)")
    study.set_defaults(fn=_cmd_study)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing of the checker (soundness oracles)"
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed; fully determines every program")
    fuzz.add_argument("--count", type=_count(0), default=200,
                      help="number of programs to generate")
    fuzz.add_argument("--shards", type=_count(1), default=1,
                      help="worker shards (forked processes when available)")
    fuzz.add_argument("--checker", choices=["fresh", "shared"], default="fresh",
                      help="fresh Logic per shard, or the process-shared one")
    fuzz.add_argument("--inject-bug", action="store_true",
                      help="demo: fuzz a deliberately unsound checker "
                           "(refinement-blind) and watch the oracles fire")
    fuzz.add_argument("--no-mutants", action="store_true",
                      help="skip the ill-typed mutant (rejection) oracle")
    fuzz.add_argument("--max-mutants", type=int, default=4,
                      help="mutants checked per program")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="do not minimise failing programs")
    fuzz.add_argument("--max-shrinks", type=int, default=5,
                      help="failing programs to minimise")
    fuzz.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="persistent proof-cache directory; campaigns "
                           "stop re-proving identical queries across "
                           "shards and runs")
    fuzz.add_argument("--solver-oracle", action="store_true",
                      help="differential solver oracle: check every "
                           "generated program under both the fast and "
                           "legacy solver backends and report verdict "
                           "divergences")
    fuzz.add_argument("--coverage", action="store_true",
                      help="collect per-program engine coverage vectors "
                           "and the coverage-novel seed corpus")
    fuzz.add_argument("--profile", action="store_true",
                      help="enable the engine's per-stage wall-clock "
                           "timers and print the summed breakdown")
    fuzz.add_argument("--guided", action="store_true",
                      help="coverage-guided scheduling: bias generator "
                           "family weights toward families still "
                           "reaching new engine coverage (implies "
                           "--coverage)")
    fuzz.add_argument("--json", default=None, metavar="PATH",
                      help="write the campaign summary (with triaged "
                           "violation groups) as JSON; - for stdout")
    fuzz.add_argument("--farm", action="store_true",
                      help="farm mode: run programs against a live "
                           "'repro serve' daemon (spawned unless "
                           "--connect) and diff its verdicts against a "
                           "local reference checker")
    fuzz.add_argument("--connect", default=None, metavar="SOCKET",
                      help="farm: unix socket of an already-running "
                           "daemon instead of spawning one")
    fuzz.add_argument("--budget-seconds", type=float, default=None,
                      help="farm: wall-clock budget (stops early even "
                           "if --count programs remain)")
    fuzz.set_defaults(fn=_cmd_fuzz)

    profile = sub.add_parser(
        "profile",
        help="profile the checker over the pinned fuzz corpus "
             "(cProfile + engine stage timers)",
    )
    profile.add_argument("--seed", type=int, default=0,
                         help="corpus seed (same generator as fuzz)")
    profile.add_argument("--count", type=_count(1), default=60,
                         help="corpus programs to check under the profiler")
    profile.add_argument("--top", type=int, default=25,
                         help="functions reported, by self time")
    profile.add_argument("--json", default=None, metavar="PATH",
                         help="write the profile artifact as JSON; "
                              "- for stdout")
    profile.set_defaults(fn=_cmd_profile)

    bugs = sub.add_parser(
        "bugs", help="print the fuzz-farm bug catalog (study/bugs.py)"
    )
    bugs.add_argument("--json", action="store_true",
                      help="print the catalog as JSON")
    bugs.set_defaults(fn=_cmd_bugs)

    serve = sub.add_parser(
        "serve", help="run the persistent checking daemon (docs/SERVER.md)"
    )
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="listen on a unix-domain socket")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind host (with --port)")
    serve.add_argument("--port", type=int, default=None,
                       help="listen on TCP (0 = ephemeral port)")
    serve.add_argument("--lanes", type=int, default=1,
                       help="engine lanes; each lane is a process forked "
                            "from the daemon's engine with a bounded queue, "
                            "and connections stick to one lane (optionally "
                            "pinned by an affinity key)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent proof-cache directory")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="bounded request queue; requests past the "
                            "cap are shed immediately with a retryable "
                            "'overloaded' error (0 = unbounded)")
    serve.add_argument("--default-deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline applied to engine requests that "
                            "carry no deadline_ms of their own")
    serve.add_argument("--hang-seconds", type=float, default=30.0,
                       help="hung-request watchdog: cancel any request "
                            "running longer than this (0 = disabled)")
    serve.set_defaults(fn=_cmd_serve)

    client = sub.add_parser(
        "client", help="send one request to a running daemon"
    )
    client.add_argument("--socket", default=None, metavar="PATH",
                        help="daemon unix-domain socket")
    client.add_argument("--host", default="127.0.0.1",
                        help="daemon TCP host (with --port)")
    client.add_argument("--port", type=int, default=None,
                        help="daemon TCP port")
    client.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout in seconds")
    client.add_argument("--retries", type=int, default=0,
                        help="reissue retryable failures (overloaded, "
                             "deadline_exceeded) up to N times with "
                             "exponential backoff")
    client.add_argument("--affinity", default=None, metavar="KEY",
                        help="lane-affinity key: requests with the same "
                             "key always land on the same warm engine "
                             "lane of a multi-lane daemon")
    client.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="per-request deadline for check / "
                             "check-text / eval")
    client.add_argument("--json", action="store_true",
                        help="print the raw JSON response")
    client.add_argument("request",
                        choices=["check", "check-text", "eval", "stats",
                                 "ping", "reset", "shutdown"],
                        help="operation to perform")
    client.add_argument("args", nargs="*",
                        help="check: FILE...; check-text: NAME FILE|-; "
                             "eval: EXPR")
    client.set_defaults(fn=_cmd_client)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign against an in-process daemon",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed: workload, fault order and "
                            "report digest are all functions of it")
    chaos.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="run only this scenario (repeatable, in "
                            "order); default: all of them")
    chaos.add_argument("--list", action="store_true",
                       help="list scenario names and exit")
    chaos.add_argument("--workload", type=_count(1), default=6,
                       help="generated programs in the verification "
                            "workload")
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="write the campaign report as JSON; - for "
                            "stdout")
    chaos.set_defaults(fn=_cmd_chaos)

    repl_cmd = sub.add_parser("repl", help="interactive read-check-eval loop")
    repl_cmd.set_defaults(fn=_cmd_repl)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
