"""Command-line interface: ``python -m repro <command>``.

Every command is a thin shell over :mod:`repro.api`: it builds a
schema-versioned request, hands it to a :class:`~repro.api.Session`,
and prints the report — either rendered (the report's own ``render``)
or as the serialized JSON artifact (``--json``), which ``repro
report`` can later pretty-print or diff. Choice lists come from the
registries, so new variants/models show up here without CLI edits.

Commands:

* ``analyze FILE``     — run the fence-placement pipeline on a mini-C file
* ``check FILE``       — exhaustively model-check SC vs a weak model
  (``--model x86-tso|pso|arm|power``), unfenced and with each
  variant's fences
* ``simulate FILE``    — run the timed TSO simulator and report cycles
* ``lint PROGRAM...``  — static DRF race detection plus fence-hygiene
  lint passes, each race candidate audited against the SC explorer
  (``--fail-on`` severity gates the exit code)
* ``experiments``      — regenerate the paper's tables and figures
* ``batch``            — analyze a {program × variant × model} matrix in
  parallel on the batch engine
* ``fuzz``             — differential fence-validation fuzzing: generate
  seeded programs, model-check every detection variant's placement
  against SC, and shrink any soundness counterexample
* ``models``           — list the memory-model registry (key, display,
  checkable, arch backend)
* ``report FILE``      — pretty-print or diff any serialized report
* ``serve``            — long-lived JSON-lines analysis service: a
  sharded cluster of ``--workers N`` (N >= 1) analysis processes
  (consistent-hash routing, shared query store, backpressure +
  deadlines), or with ``--stdio`` a one-client in-process loop — both
  answering byte-identical reports
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from repro.api import (
    AnalyzeRequest,
    BatchRequest,
    CheckRequest,
    FuzzRequest,
    LintRequest,
    ProgramSpec,
    SchemaError,
    Session,
    SimulateRequest,
    diff_payloads,
    load_report,
)
from repro.arch import backend_keys, get_backend
from repro.frontend import LexError, LoweringError, ParseError
from repro.ir.verifier import VerificationError
from repro.memmodel.interpreter import ExecutionError
from repro.registry import (
    MODELS,
    model_keys,
    pipeline_variant_keys,
    weak_model_keys,
)


def _resolve_model(args: argparse.Namespace, fallback: str = "x86-tso") -> str:
    """``--model`` if given; else the ``--arch`` backend's native model
    (``--arch power`` alone analyzes under the POWER model); else the
    historical default."""
    if args.model is not None:
        return args.model
    if getattr(args, "arch", None) is not None:
        return get_backend(args.arch).model_key
    return fallback


#: Errors in a mini-C source file. Frontend messages start with
#: ``line N:`` (lexing, parsing, and lowering: undefined or duplicate
#: names, arrays of size 0, a call with the wrong number of arguments,
#: a global initializer naming an undeclared global); IR verification
#: messages (no functions, an unknown thread entry or callee, a thread
#: arity mismatch) name the function or thread. The commands report
#: them as ``FILE: message`` and exit 2, like any other bad input.
_SOURCE_ERRORS = (LexError, ParseError, LoweringError, VerificationError)

#: Errors reading an input file: missing, a directory, not UTF-8 text.
_READ_ERRORS = (OSError, UnicodeDecodeError)


def _file_error(path: str, exc: Exception) -> int:
    """Report a bad input file as one ``FILE: message`` line; exit 2.
    Also used for :class:`ExecutionError` — a program that fails at
    run time (a runaway loop past the step bound, a division by zero)
    when ``check`` explores, ``simulate`` runs or ``lint`` confirms
    it. An ``OSError`` names the file it failed on, which is then
    reported instead."""
    if isinstance(exc, OSError) and exc.filename is not None:
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
    else:
        print(f"{path}: {exc}", file=sys.stderr)
    return 2


def _positive_int(text: str) -> int:
    """An integer >= 1 (state, trace and action bounds, seed counts,
    worker counts and queue limits)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@contextlib.contextmanager
def _tracing(path: str | None):
    """Span-trace the wrapped command and write a Chrome ``trace_event``
    file (viewable in ``chrome://tracing`` / Perfetto) on the way out.
    No-op when ``path`` is None — the disabled fast path costs one
    global read per span site."""
    if path is None:
        yield
        return
    from repro.obs import trace as obs_trace

    tracer = obs_trace.enable()
    try:
        with obs_trace.request_scope():
            yield
    finally:
        obs_trace.disable()
        obs_trace.export_chrome(path, tracer.events())
        print(f"trace written to {path}", file=sys.stderr)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with _tracing(args.trace):
            report = Session().analyze(
                AnalyzeRequest(
                    program=ProgramSpec.file(args.file),
                    variant=args.variant,
                    model=_resolve_model(args),
                    interprocedural=args.interprocedural,
                    annotations=args.annotations,
                    emit_ir=args.emit_ir,
                    arch=args.arch,
                    synthesis=args.synthesis,
                )
            )
    except (*_SOURCE_ERRORS, *_READ_ERRORS) as exc:
        return _file_error(args.file, exc)
    print(report.to_json() if args.json else report.render())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    # The request is the wire artifact: it carries the full
    # configuration, so the session stays at defaults.
    try:
        with _tracing(args.trace):
            report = Session().check(
                CheckRequest(
                    program=ProgramSpec.file(args.file),
                    model=_resolve_model(args),
                    max_states=args.max_states,
                    arch=args.arch,
                    synthesis=args.synthesis,
                )
            )
    except (*_SOURCE_ERRORS, *_READ_ERRORS, ExecutionError) as exc:
        return _file_error(args.file, exc)
    except ValueError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        report = Session().simulate(
            SimulateRequest(
                program=ProgramSpec.file(args.file),
                placement=args.variant,
                model=_resolve_model(args),
                observe_globals=tuple(args.globals),
                arch=args.arch,
                synthesis=args.synthesis,
            )
        )
    except (*_SOURCE_ERRORS, *_READ_ERRORS, ExecutionError) as exc:
        return _file_error(args.file, exc)
    print(report.to_json() if args.json else report.render())
    return 0


def _lint_spec(token: str, manual_fences: bool) -> ProgramSpec:
    """Resolve a lint target: an existing file path, a corpus program
    name, or a litmus test name — in that order."""
    import dataclasses

    from repro.memmodel.litmus import LITMUS_TESTS
    from repro.programs.registry import all_programs

    if Path(token).is_file():
        spec = ProgramSpec.file(token)
    elif token in all_programs():
        spec = ProgramSpec.corpus(token)
    elif token in LITMUS_TESTS:
        spec = ProgramSpec.litmus(token)
    else:
        known = ", ".join(sorted(set(all_programs()) | set(LITMUS_TESTS)))
        raise KeyError(
            f"{token!r} is neither a file, a corpus program, nor a litmus "
            f"test; known programs: {known}"
        )
    if manual_fences:
        spec = dataclasses.replace(spec, manual_fences=True)
    return spec


def cmd_lint(args: argparse.Namespace) -> int:
    import json

    session = Session()
    reports = []
    exit_code = 0
    try:
        for token in args.programs:
            spec = _lint_spec(token, args.manual_fences)
            report = session.lint(
                LintRequest(
                    program=spec,
                    variant=args.variant,
                    model=_resolve_model(args),
                    arch=args.arch,
                    passes=tuple(args.passes),
                    confirm=not args.no_confirm,
                    max_traces=args.max_traces,
                    max_actions=args.max_actions,
                    fail_on=args.fail_on,
                    stats=args.stats,
                )
            )
            reports.append(report)
            exit_code = max(exit_code, report.exit_code)
    except (*_SOURCE_ERRORS, *_READ_ERRORS, ExecutionError) as exc:
        return _file_error(token, exc)
    except (KeyError, ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    if args.json:
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print(json.dumps(
                [r.to_payload() for r in reports], indent=2, sort_keys=True
            ))
    else:
        print("\n\n".join(r.render() for r in reports))
    return exit_code


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import run_all
    from repro.programs import all_programs

    programs = all_programs()
    if args.quick:
        keep = ("fft", "water-nsquared", "raytrace", "matrix")
        programs = {k: programs[k] for k in keep}
    print(
        run_all(
            programs, max_workers=args.jobs, parallel=not args.serial
        ).render()
    )
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    session = Session(
        jobs=args.jobs, parallel=not args.serial, cache_dir=args.cache_dir
    )
    programs = () if args.programs == ["all"] else tuple(args.programs)
    variants = (
        tuple(sorted(pipeline_variant_keys()))
        if args.variants == ["all"]
        else tuple(args.variants)
    )
    models = (
        tuple(sorted(model_keys()))
        if args.models == ["all"]
        else tuple(args.models)
    )
    try:
        with _tracing(args.trace):
            report = session.batch(
                BatchRequest(programs=programs, variants=variants,
                             models=models, stats=args.stats, arch=args.arch,
                             synthesis=args.synthesis)
            )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(report.to_json() if args.json else report.render())
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """List the memory-model registry, so backend-registered models are
    discoverable without reading source."""
    from repro.util.text import format_table

    rows = []
    for key, entry in MODELS.items():
        rows.append(
            [
                key,
                entry.display,
                "yes" if entry.checkable else
                ("reference" if entry.is_reference else "no"),
                entry.arch or "-",
                entry.description,
            ]
        )
    parts = [
        format_table(
            ["key", "display", "checkable", "arch", "description"],
            rows,
            title=f"{len(rows)} registered memory models",
        )
    ]
    for arch_key in sorted(backend_keys()):
        backend = get_backend(arch_key)
        flavor_rows = [
            [
                flavor.name,
                flavor.cost,
                "/".join(kind.value for kind in sorted(
                    flavor.kills, key=lambda k: k.value
                )),
                flavor.description,
            ]
            for flavor in backend.flavors
        ]
        parts.append(
            format_table(
                ["flavor", "cost", "kills", "description"],
                flavor_rows,
                title=f"{backend.display} ({arch_key}) fence flavors",
            )
        )
    print("\n\n".join(parts))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.registry import detection_variant_keys

    session = Session(jobs=args.jobs, parallel=not args.serial)
    shapes = () if args.shapes == ["all"] else tuple(args.shapes)
    if args.variants == ["trusted"]:
        variants: tuple[str, ...] = ()
    elif args.variants == ["all"]:
        variants = detection_variant_keys()
    else:
        variants = tuple(args.variants)
    try:
        report = session.fuzz(
            FuzzRequest(
                seeds=args.seeds,
                shapes=shapes,
                variants=variants,
                models=tuple(args.models),
                budget=args.budget,
                shrink=not args.no_shrink,
                max_states=args.max_states,
            )
        )
    except KeyError as exc:
        print(exc.args[0])
        return 2

    print(report.to_json() if args.json else report.render())

    # Broken or unfinished cases must never read as "no violations":
    # a fuzzer whose every case errors out or blows the state bound
    # would otherwise green-light the CI soundness gate vacuously.
    problems = report.problem_count
    if problems:
        print(
            f"{problems} case(s) errored or exceeded --max-states; "
            "soundness not established for them",
            file=sys.stderr,
        )
    found = len(report.violations)
    if args.expect_violations:
        if found == 0:
            print("expected at least one violation; found none", file=sys.stderr)
            return 1
        return 0 if problems == 0 else 1
    return 0 if found == 0 and problems == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import os

    from repro.cluster import ClusterConfig, ClusterServer

    session_config = {
        "jobs": args.jobs,
        "parallel": not args.serial,
        "max_states": args.max_states,
        "cache_dir": args.cache_dir,
        "query_cache_dir": args.query_cache_dir,
    }
    if args.slow_query is not None:
        from repro.obs import trace as obs_trace

        obs_trace.SLOW_QUERIES.threshold = args.slow_query
    if args.stdio:
        from repro.serve import serve_stdio

        with _tracing(args.trace):
            return serve_stdio(Session(**session_config))

    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    config = ClusterConfig(
        workers=workers,
        queue_limit=args.queue_limit,
        request_timeout=args.request_timeout or None,
        drain_timeout=args.drain_timeout,
        session=session_config,
        trace=args.trace is not None,
        slow_query=args.slow_query,
    )
    cluster = ClusterServer(host=args.host, port=args.port, config=config)

    def announce(server) -> None:
        # The announcement is itself a protocol line, so scripted
        # clients read the ephemeral port without parsing prose.
        print(
            json.dumps(
                {
                    "ok": True,
                    "serving": {
                        "host": server.host,
                        "port": server.port,
                        "workers": workers,
                    },
                },
                sort_keys=True,
            ),
            flush=True,
        )

    with _tracing(args.trace):
        try:
            return asyncio.run(cluster.run(on_ready=announce, install_signals=True))
        except KeyboardInterrupt:  # pragma: no cover - signal race
            return 0


def _worker_count(text: str) -> int:
    """``serve --workers``: a cluster size, at least one process."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}; "
            "use --stdio to serve in-process"
        )
    return count


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import top as obs_top

    if args.obs_command == "top":
        return obs_top.run_top(
            args.host, args.port, interval=args.interval, once=args.once
        )
    return obs_top.run_metrics(args.host, args.port, as_json=args.json)


def _read_report(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text(
        encoding="utf-8"
    )
    return load_report(text)


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    for path in [args.file, args.diff] if args.diff else [args.file]:
        try:
            reports.append(_read_report(path))
        except (SchemaError, KeyError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        except _READ_ERRORS as exc:
            return _file_error(path, exc)
    report = reports[0]
    other = reports[1] if args.diff else None
    if other is None:
        print(report.to_json() if args.json else report.render())
        return 0
    if type(other) is not type(report):
        print(
            f"cannot diff {report.KIND} against {other.KIND}", file=sys.stderr
        )
        return 2
    lines = diff_payloads(report.to_payload(), other.to_payload())
    if not lines:
        print("reports are identical")
        return 0
    print("\n".join(lines))
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fence placement for legacy DRF programs (PPoPP'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the fence-placement pipeline")
    p.add_argument("file")
    p.add_argument("--variant", choices=sorted(pipeline_variant_keys()),
                   default="control")
    p.add_argument("--model", choices=sorted(model_keys()), default=None,
                   help="memory model (default: x86-tso, or the --arch "
                        "backend's native model)")
    p.add_argument("--arch", choices=sorted(backend_keys()), default=None,
                   help="arch backend for flavored fence lowering "
                        "(adds per-flavor counts and cycle cost)")
    p.add_argument("--synthesis", choices=["greedy", "optimal"],
                   default="greedy",
                   help="fence synthesis strategy: the paper's greedy "
                        "count-minimizer or min-cost optimal (needs "
                        "--arch to differ)")
    p.add_argument("--interprocedural", action="store_true",
                   help="use the whole-program acquire fixpoint")
    p.add_argument("--annotations", action="store_true",
                   help="also print C11-style annotation suggestions")
    p.add_argument("--emit-ir", action="store_true",
                   help="insert the fences and dump the final IR")
    p.add_argument("--json", action="store_true",
                   help="emit the serialized report instead of the table")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="span-trace this run and write a Chrome "
                        "trace_event JSON file (chrome://tracing, Perfetto)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="model-check SC vs a weak memory model")
    p.add_argument("file")
    p.add_argument("--model", choices=sorted(weak_model_keys()),
                   default=None,
                   help="weak model to difference against SC (default: "
                        "x86-tso, or the --arch backend's native model); "
                        "non-checkable models (sc, rmo) are excluded")
    p.add_argument("--arch", choices=sorted(backend_keys()), default=None,
                   help="arch backend lowering each variant's placement "
                        "before exploration (default: the model's own)")
    p.add_argument("--synthesis", choices=["greedy", "optimal"],
                   default="greedy",
                   help="fence synthesis strategy the checked placements "
                        "use (optimal differs only on flavored backends)")
    p.add_argument("--max-states", type=_positive_int, default=1_000_000,
                   help="per-exploration state bound, at least 1")
    p.add_argument("--json", action="store_true",
                   help="emit the serialized report instead of text")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="span-trace this run and write a Chrome "
                        "trace_event JSON file (chrome://tracing, Perfetto)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run the timed TSO simulator")
    p.add_argument("file")
    p.add_argument(
        "--variant",
        choices=sorted(pipeline_variant_keys()) + ["manual"],
        default="control",
    )
    p.add_argument("--model", choices=sorted(model_keys()), default=None,
                   help="memory model driving fence placement "
                        "(the timed machine itself is TSO; default: "
                        "x86-tso, or the --arch backend's native model)")
    p.add_argument("--arch", choices=sorted(backend_keys()), default=None,
                   help="arch backend: placements lower to its flavors "
                        "and fences are priced with its cost model")
    p.add_argument("--synthesis", choices=["greedy", "optimal"],
                   default="greedy",
                   help="fence synthesis strategy for the simulated "
                        "placement")
    p.add_argument("--globals", nargs="*", default=[],
                   help="global variables to print after the run")
    p.add_argument("--json", action="store_true",
                   help="emit the serialized report instead of text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "lint",
        help="static DRF race detection and lint passes, explorer-audited",
    )
    p.add_argument("programs", nargs="+", metavar="PROGRAM",
                   help="mini-C file path, corpus program name, or litmus "
                        "test name (any mix; each is linted separately)")
    p.add_argument("--variant", default="address+control",
                   help="detection variant whose sync reads refine the "
                        "race candidates (default: address+control)")
    p.add_argument("--model", choices=sorted(model_keys()), default=None,
                   help="memory model for the fence-hygiene passes "
                        "(default: x86-tso, or the --arch backend's "
                        "native model)")
    p.add_argument("--arch", choices=sorted(backend_keys()), default=None,
                   help="arch backend resolving fence flavors "
                        "(enables the weak-flavor pass)")
    p.add_argument("--passes", nargs="+", default=[],
                   help="lint passes to run (default: all registered)")
    p.add_argument("--fail-on", choices=["note", "warning", "error", "never"],
                   default="error",
                   help="lowest severity that fails the exit code "
                        "(default: error)")
    p.add_argument("--no-confirm", action="store_true",
                   help="skip the explorer audit of race candidates")
    p.add_argument("--max-traces", type=_positive_int, default=400,
                   help="SC interleavings to search for witnesses")
    p.add_argument("--max-actions", type=_positive_int, default=400,
                   help="memory actions per searched interleaving")
    p.add_argument("--manual-fences", action="store_true",
                   help="keep the programs' manual fences (lint them too)")
    p.add_argument("--stats", action="store_true",
                   help="include analysis-cache hit/miss counters")
    p.add_argument("--json", action="store_true",
                   help="emit serialized report(s) instead of text")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("experiments", help="regenerate the paper's evaluation")
    p.add_argument("--quick", action="store_true",
                   help="4-program subset instead of all 17")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="run the sweep serially (deterministic fallback)")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "batch", help="analyze a program × variant × model matrix in parallel"
    )
    p.add_argument("--programs", nargs="+", default=["all"],
                   help="registry program names, or 'all' (default)")
    p.add_argument("--variants", nargs="+", default=["all"],
                   help="pipeline variants "
                        f"({', '.join(sorted(pipeline_variant_keys()))}), "
                        "or 'all' (default)")
    p.add_argument("--models", nargs="+", default=["x86-tso"],
                   help=f"memory models ({', '.join(sorted(model_keys()))}), "
                        "or 'all'")
    p.add_argument("--arch", choices=sorted(backend_keys()), default=None,
                   help="arch backend overriding each model's default "
                        "for flavored-lowering costs")
    p.add_argument("--synthesis", choices=["greedy", "optimal"],
                   default="greedy",
                   help="strategy whose cost fills each cell's fence_cost "
                        "(greedy and optimal costs are both reported)")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="run serially (deterministic fallback)")
    p.add_argument("--json", action="store_true",
                   help="emit the serialized report instead of a table")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the content-keyed result cache")
    p.add_argument("--stats", action="store_true",
                   help="include aggregated analysis-cache hit/miss "
                        "counters in the report")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="span-trace this run and write a Chrome "
                        "trace_event JSON file (chrome://tracing, Perfetto)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "fuzz",
        help="differential fence-validation fuzzing (soundness oracle)",
    )
    p.add_argument("--seeds", type=_positive_int, default=16,
                   help="number of seeds per shape (default 16)")
    p.add_argument("--budget", type=float, default=None,
                   help="wall-clock budget in seconds; stops dispatching "
                        "new cases once exceeded")
    p.add_argument("--shapes", nargs="+", default=["all"],
                   help="scaffold shapes, or 'all' (default)")
    p.add_argument("--variants", nargs="+", default=["trusted"],
                   help="detection variants to validate: 'trusted' "
                        "(address+control, pensieve — the default), 'all', "
                        "or an explicit list incl. the deliberately-weak "
                        "'vanilla' and 'control'")
    p.add_argument("--models", nargs="+", default=["x86-tso"],
                   choices=sorted(weak_model_keys()),
                   help="weak machine models to explore "
                        f"({', '.join(sorted(weak_model_keys()))}); "
                        "non-checkable models (sc, rmo) are excluded")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes (default: CPU count)")
    p.add_argument("--serial", action="store_true",
                   help="run serially (deterministic fallback)")
    p.add_argument("--max-states", type=_positive_int, default=1_000_000,
                   help="per-exploration state bound")
    p.add_argument("--no-shrink", action="store_true",
                   help="report violations without minimizing them")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report")
    p.add_argument("--expect-violations", action="store_true",
                   help="invert the exit code: succeed only if at least "
                        "one violation is found (CI oracle self-test)")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="long-lived JSON-lines analysis daemon (socket or stdio)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port; 0 (default) picks an ephemeral port, "
                        "announced as the first stdout line")
    p.add_argument("--stdio", action="store_true",
                   help="serve a single client over stdin/stdout instead "
                        "of a socket (for subprocess embedding)")
    p.add_argument("--workers", type=_worker_count, default=None,
                   help="analysis worker processes in the sharded cluster, "
                        "at least 1 (default: the CPU count); --stdio "
                        "serves in-process instead")
    p.add_argument("--queue-limit", type=_positive_int, default=64,
                   help="max outstanding requests per worker before new "
                        "ones are refused with an 'overloaded' error")
    p.add_argument("--request-timeout", type=float, default=300.0,
                   help="per-request deadline in seconds; 0 disables")
    p.add_argument("--drain-timeout", type=float, default=10.0,
                   help="how long graceful shutdown waits for in-flight "
                        "requests before force-closing")
    p.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes for batch/fuzz requests")
    p.add_argument("--serial", action="store_true",
                   help="run batch/fuzz requests serially")
    p.add_argument("--max-states", type=_positive_int, default=1_000_000,
                   help="default per-exploration state bound")
    p.add_argument("--cache-dir", default=None,
                   help="directory for the batch result cache")
    p.add_argument("--query-cache-dir", default=None,
                   help="directory for the persistent query cache "
                        "(fact results keyed by content fingerprint)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="span-trace the daemon (workers included on the "
                        "cluster path) and write a Chrome trace_event "
                        "JSON file at shutdown")
    p.add_argument("--slow-query", type=float, default=None, metavar="SECONDS",
                   help="log query evaluations at or over this many "
                        "seconds (query, key, input fingerprint); the log "
                        "tail is served by the 'metrics' op")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "models", help="list the memory-model registry"
    )
    p.set_defaults(func=cmd_models)

    p = sub.add_parser(
        "obs",
        help="observability views over a running serve daemon or cluster",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p_top = obs_sub.add_parser(
        "top", help="live per-op latency / per-worker / slow-query view"
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, required=True)
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="refresh period in seconds (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="render one frame and exit (for scripting)")
    p_top.set_defaults(func=cmd_obs)
    p_metrics = obs_sub.add_parser(
        "metrics", help="dump one metrics exposition and exit"
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, required=True)
    p_metrics.add_argument("--json", action="store_true",
                           help="emit the JSON payload instead of the "
                                "Prometheus text format")
    p_metrics.set_defaults(func=cmd_obs)

    p = sub.add_parser(
        "report", help="pretty-print or diff a serialized report"
    )
    p.add_argument("file", help="report JSON file, or '-' for stdin")
    p.add_argument("--diff", default=None,
                   help="second report to diff against (exit 1 on drift)")
    p.add_argument("--json", action="store_true",
                   help="re-emit normalized JSON instead of rendering")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
