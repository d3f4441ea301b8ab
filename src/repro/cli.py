"""Command-line front end (``pyetrify``).

Six sub-commands mirror the workflow of the original tool plus the
service and symbolic tiers grown on top of it:

* ``info FILE.g``  — size, consistency and CSC statistics of an STG;
* ``solve FILE.g`` — insert state signals until CSC holds, report the
  inserted signals and the logic estimate, optionally write the encoded
  specification back as a ``.g`` file;
* ``census``       — symbolic (BDD) state-space census: the exact number
  of reachable states without enumerating any of them
  (``pyetrify census --benchmark pipe16 --table table1``);
* ``check-csc``    — symbolic CSC verdict: USC/CSC conflict pair counts
  and witness cubes via the code-equality relation, again without
  enumeration;
* ``bench NAME``   — run a named benchmark from the built-in library
  (relaxed rows with ``allow_input_delay``, like the library tests);
* ``serve``        — run the encoding service front: a durable job
  queue, a content-addressed result store and the versioned ``/v1``
  JSON HTTP API over the batch engine
  (``pyetrify serve --port 8080 --jobs 4 --store service.db``);
* ``worker``       — attach an independent worker process to a service
  backend and drain its queue (``pyetrify worker --store service.db
  --jobs 2``); run N of them against one store to scale out;
* ``admin``        — manage the service's tenants/API keys
  (``pyetrify admin create-key alice --store service.db``).

``bench --all`` runs the whole library as a batch through the encoding
engine: ``--jobs N`` encodes N benchmarks concurrently in worker
processes (results are byte-identical to a serial run), ``--smallest K``
keeps only the K smallest STGs, and ``--json FILE`` writes the
machine-readable batch record.  In ``--all`` mode each case runs with its
own library settings (frontier width 16, relaxed cases with
``allow_input_delay``), matching the library tests and ``perfbench``.
``--engine symbolic`` (or ``auto``) routes the run through the symbolic
tier, which also admits the very large Table-1 rows the explicit engine
must skip.

Importing this module loads only the argument parser's needs: each
command imports the layers it runs (the API, the batch engine, the
solver and through them numpy) when it starts, so a command pays only
for its own imports.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from repro.stg.parser import read_g_file


def _solver_settings(args: argparse.Namespace):
    from repro.core.search import SearchSettings
    from repro.core.solver import SolverSettings

    return SolverSettings(
        search=SearchSettings(
            frontier_width=args.frontier_width if args.frontier_width is not None else 8,
            brick_mode=args.bricks if args.bricks is not None else "regions",
            enlarge_concurrency=args.enlarge_concurrency,
        ),
        max_signals=args.max_signals if args.max_signals is not None else 32,
        verbose=args.verbose,
        kernel=getattr(args, "kernel", None) or "auto",
    )


def _load_stg(args: argparse.Namespace):
    """The STG a census/check-csc invocation refers to (file or benchmark)."""
    if (args.file is None) == (args.benchmark is None):
        print("error: provide a .g file or --benchmark NAME (not both)", file=sys.stderr)
        return None
    if args.file is not None:
        return read_g_file(args.file)
    from repro.bench_stg.library import load_benchmark

    return load_benchmark(args.benchmark, table=args.table)


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.symbolic import symbolic_census

    stg = _load_stg(args)
    if stg is None:
        return 2
    census = symbolic_census(stg, reorder=args.reorder)
    row = census.as_dict()
    cache = row.pop("cache")
    row["cache_hit_rate"] = cache.get("hit_rate")
    width = max(len(key) for key in row)
    for key, value in row.items():
        print(f"{key:<{width}} : {value}")
    return 0


def _cmd_check_csc(args: argparse.Namespace) -> int:
    from repro.symbolic import symbolic_check_csc

    stg = _load_stg(args)
    if stg is None:
        return 2
    report = symbolic_check_csc(stg, witness_limit=args.witnesses, reorder=args.reorder)
    row = report.as_dict()
    witnesses = row.pop("witnesses")
    width = max(len(key) for key in row)
    for key, value in row.items():
        print(f"{key:<{width}} : {value}")
    for index, witness in enumerate(witnesses):
        print(f"witness {index + 1}: code={witness['code']}")
        print(f"  first  : {', '.join(witness['first_marking'])}")
        print(f"  second : {', '.join(witness['second_marking'])}")
    return 0 if report.csc_holds else 2


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.api import analyze_stg

    stg = read_g_file(args.file)
    info = analyze_stg(stg, max_states=args.max_states)
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key:<{width}} : {value}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.api import encode_stg
    from repro.stg.writer import write_g

    stg = read_g_file(args.file)
    if args.trace is not None:
        from repro.obs import start_trace

        start_trace()
    report = encode_stg(
        stg,
        settings=_solver_settings(args),
        estimate_logic=not args.no_logic,
        resynthesize=args.output is not None,
        max_states=args.max_states,
    )
    row = report.table_row()
    for key, value in row.items():
        print(f"{key:<12} : {value}")
    if report.inserted_signals:
        print(f"{'new signals':<12} : {', '.join(report.inserted_signals)}")
    if report.circuit is not None and args.equations:
        print("next-state functions:")
        for signal, implementation in report.circuit.implementations.items():
            print(f"  [{signal}] = {implementation.expression()}")
    if args.trace is not None:
        from repro.obs import export_chrome_trace

        count = export_chrome_trace(args.trace, cleanup=True)
        print(f"trace with {count} events written to {args.trace}")
    if args.output is not None:
        if report.encoded_stg is not None:
            write_g(report.encoded_stg, args.output)
            print(f"encoded STG written to {args.output}")
        else:
            print(
                "warning: could not re-synthesise an STG "
                f"({report.resynthesis_error or 'CSC not solved'})",
                file=sys.stderr,
            )
            return 1
    return 0 if report.solved else 2


def _cmd_synth(args: argparse.Namespace) -> int:
    """Synthesize verified logic from an STG (``pyetrify synth``).

    Runs the full paper pipeline: solve CSC, derive and minimise the
    next-state function of every non-input signal, build the gate
    network (optionally decomposed into 2-input gates under the bounded
    speed-independence check), verify it against the SG token game, and
    write equations / Verilog / BLIF.
    """
    import pathlib

    from repro.api import encode_stg
    from repro.synth import synthesize

    stg = _load_stg(args)
    if stg is None:
        return 2
    report = encode_stg(
        stg,
        settings=_solver_settings(args),
        estimate_logic=False,
        max_states=args.max_states,
    )
    if not report.solved:
        print(
            f"error: CSC not solved for {stg.name!r} "
            f"({report.result.conflicts_remaining} conflicts remain); nothing to synthesize",
            file=sys.stderr,
        )
        return 2
    result = synthesize(
        report.result.final_sg,
        name=stg.name,
        decompose=args.decompose,
        verify=not args.no_verify,
    )
    summary = result.summary()
    for key in ("name", "signals", "literals", "cubes", "gates", "wires", "verified", "decomposed"):
        print(f"{key:<12} : {summary[key]}")
    if result.decomposition.get("fallback"):
        print(
            f"{'fallback':<12} : decomposition rejected "
            f"({result.decomposition['fallback']}); complex gates emitted"
        )
    if report.inserted_signals:
        print(f"{'new signals':<12} : {', '.join(report.inserted_signals)}")
    texts = {"eqn": result.equations, "v": result.verilog, "blif": result.blif}
    wanted = {"eqn": ["eqn"], "verilog": ["v"], "blif": ["blif"]}.get(
        args.fmt, ["eqn", "v", "blif"]
    )
    if args.out is not None:
        directory = pathlib.Path(args.out)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for extension in wanted:
                path = directory / f"{stg.name}.{extension}"
                path.write_text(texts[extension], encoding="utf-8")
                print(f"written {path}")
        except OSError as error:
            print(f"error: cannot write netlists to {args.out}: {error}", file=sys.stderr)
            return 2
    else:
        for extension in wanted:
            print()
            print(texts[extension], end="")
    if not args.no_verify and not result.verified:
        print("error: gate-level verification failed", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.api import encode_stg
    from repro.bench_stg.library import benchmark_names, get_case

    if args.list:
        for name in benchmark_names(None if args.table == "all" else args.table):
            print(name)
        return 0
    if args.all:
        return _cmd_bench_all(args)
    if args.table == "all":
        print("error: --table all requires --all or --list", file=sys.stderr)
        return 2
    case = get_case(args.name, table=args.table)
    stg = case.build()
    settings = _solver_settings(args)
    settings.search.allow_input_delay = case.solver_settings().search.allow_input_delay
    if args.engine != "explicit":
        from repro.engine.batch import encode_many

        batch = encode_many(
            [stg],
            settings=[settings],
            max_states=args.max_states,
            engine=args.engine,
        )
        item = batch.items[0]
        if item.error is not None:
            print(f"error: {item.error}", file=sys.stderr)
            return 2
        for key, value in item.table_row.items():
            print(f"{key:<12} : {value}")
        return 0 if item.solved else 2
    report = encode_stg(stg, settings=settings, max_states=args.max_states)
    for key, value in report.table_row().items():
        print(f"{key:<12} : {value}")
    return 0 if report.solved else 2


def _cmd_bench_all(args: argparse.Namespace) -> int:
    """Batch-encode the benchmark library (``bench --all``).

    Per-case library settings are the baseline (frontier width 16,
    relaxed cases with ``allow_input_delay``); explicitly supplied CLI
    tuning flags overlay them.
    """
    from repro.engine.batch import run_benchmark_suite

    result = run_benchmark_suite(
        table=args.table,
        jobs=args.jobs,
        smallest=args.smallest,
        frontier_width=args.frontier_width if args.frontier_width is not None else 16,
        brick_mode=args.bricks,
        max_signals=args.max_signals,
        enlarge_concurrency=args.enlarge_concurrency,
        verbose=args.verbose,
        max_states=args.max_states,
        timeout=args.timeout,
        engine=args.engine,
        kernel=getattr(args, "kernel", None),
    )
    name_width = max((len(item.name) for item in result.items), default=4)
    for item in result.items:
        if item.status == "timeout":
            print(f"{item.name:<{name_width}}  TIMEOUT after {item.seconds:.2f}s")
            continue
        if item.error is not None:
            print(f"{item.name:<{name_width}}  ERROR: {item.error}")
            continue
        row = item.table_row
        print(
            f"{item.name:<{name_width}}  states={row.get('states'):<6} "
            f"inserted={row.get('inserted'):<2} solved={str(item.solved):<5} "
            f"cpu={item.seconds:.2f}s"
        )
    print(
        f"-- {result.solved_count}/{len(result.items)} solved, "
        f"jobs={result.jobs}, wall {result.wall_seconds:.2f}s"
    )
    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"error: cannot write batch record to {args.json}: {error}", file=sys.stderr)
            return 2
        print(f"batch record written to {args.json}")
    # "Unsolved" is a legitimate benchmark outcome (some strict-mode cases
    # have no input-preserving solution), and so is a requested timeout;
    # only per-item crashes fail the run.
    return 0 if all(item.status != "error" for item in result.items) else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the encoding service front (``pyetrify serve``).

    Boots :class:`repro.service.EncodingService` on the backend at
    ``--store`` (jobs and results survive restarts) and serves the
    versioned ``/v1`` JSON HTTP API of :mod:`repro.service.asgi` until
    interrupted.  With ``--no-workers`` the front only accepts and
    serves jobs; start ``pyetrify worker`` processes against the same
    store to drain the queue (front first — it recovers interrupted
    jobs at boot).
    """
    # SIGTERM (service managers, ``kill``) takes the SIGINT path, so the
    # pool and its forkserver are closed rather than left running.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # Imports the whole encode stack (the API, the solver and numpy)
    # before the front prints "listening on", so no request pays for it.
    from repro.api import serve as bind_server
    from repro.service import EncodingService

    service = EncodingService(
        args.store,
        jobs=args.jobs,
        timeout=args.timeout,
        max_entries=args.max_entries,
        max_backlog=args.max_backlog,
        autostart=not args.no_workers,
    )
    try:
        server = bind_server(
            service,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            cors_origins=args.cors_origin,
        )
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        service.close()
        return 2
    try:
        host, port = server.server_address[:2]
        print(f"pyetrify service listening on http://{host}:{port} (store: {args.store})")
        print(
            "endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events, "
            "GET /v1/results/{fp}, GET /v1/healthz, GET /v1/stats"
        )
        if args.no_workers:
            print("workers: none in-process; attach `pyetrify worker --store ...` processes")
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Attach a worker process to a service backend (``pyetrify worker``).

    Opens its own connections to the shared store/queue (content-addressed
    fingerprints make results location-independent, so any worker can run
    any job) and drains the queue until interrupted.  Deliberately does
    *not* recover ``running`` jobs at startup — that is the front's
    boot-time action; a late-joining worker must not steal jobs that
    sibling processes are still executing.
    """
    import time as _time

    signal.signal(signal.SIGTERM, signal.default_int_handler)  # as in ``serve``
    # The whole encode stack loads before the worker reports ready, as
    # in ``serve``, so no job pays for the imports.
    import repro.api  # noqa: F401
    from repro.service import EncodingService

    service = EncodingService(
        args.store,
        jobs=args.jobs,
        timeout=args.timeout,
        recover=False,
    )
    try:
        print(
            f"pyetrify worker {service.pool.name} draining {args.store} "
            f"(jobs={args.jobs})"
        )
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nworker stopping")
    finally:
        service.close()
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    """Manage the service's tenants and API keys (``pyetrify admin``).

    Works directly on the backend file, so the very first (admin) key of
    a deployment can be provisioned without any key to authenticate with
    — filesystem access to the store is the root credential.
    """
    from repro.service import open_backend

    registry = open_backend(args.store).open_tenants()
    try:
        if args.admin_command == "create-key":
            try:
                created = registry.provision(
                    args.name,
                    admin=args.admin,
                    quota_active_jobs=args.quota,
                    rate_per_second=args.rate,
                    burst=args.burst,
                )
            except KeyError as error:
                print(f"error: {error.args[0]}", file=sys.stderr)
                return 2
            tenant = created["tenant"]
            print(f"tenant   : {tenant['name']} (admin={tenant['admin']})")
            print(f"quota    : {tenant['quota_active_jobs']}")
            print(f"rate     : {tenant['rate_per_second']} (burst {tenant['burst']})")
            print(f"api key  : {created['api_key']}")
            print("store this key now — it is shown once and only its hash is kept")
            return 0
        if args.admin_command == "list-keys":
            tenants = registry.list_tenants()
            if not tenants:
                print("no tenants provisioned (service runs in open mode)")
                return 0
            for tenant in tenants:
                flags = " admin" if tenant["admin"] else ""
                print(
                    f"{tenant['name']}{flags} quota={tenant['quota_active_jobs']} "
                    f"rate={tenant['rate_per_second']}"
                )
            return 0
        if args.admin_command == "revoke-key":
            if registry.revoke(args.name):
                print(f"revoked {args.name}")
                return 0
            print(f"error: no tenant named {args.name!r}", file=sys.stderr)
            return 2
        print("error: unknown admin command", file=sys.stderr)
        return 2
    finally:
        registry.close()


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="pyetrify",
        description="Region-based state encoding for asynchronous circuits (DAC'96 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        # Tuning flags default to None so `bench --all` can tell "not
        # given" (use the per-case library settings) from an explicit
        # value (overlay it); single-STG commands resolve None to the
        # documented defaults in _solver_settings.
        sub.add_argument("--frontier-width", type=int, default=None, help="FW parameter of the heuristic search (default 8; 16 in --all mode)")
        sub.add_argument("--bricks", choices=["regions", "excitation", "states"], default=None, help="granularity of the insertion search space (default regions)")
        sub.add_argument("--max-signals", type=int, default=None, help="maximum number of inserted state signals (default 32)")
        sub.add_argument("--max-states", type=int, default=200000, help="bound on explicit state-graph size; with a symbolic engine, on the conflicted graph materialized for the solver (a larger one gets the detection-only verdict)")
        sub.add_argument("--enlarge-concurrency", action="store_true", help="greedily increase concurrency of inserted signals")
        sub.add_argument("--kernel", choices=["auto", "bigint", "planes"], default=None, help="block-evaluation kernel: bit-plane batches (planes), the big-integer oracle (bigint), or planes when numpy is importable (auto, the default); results are byte-identical either way")
        sub.add_argument("--verbose", action="store_true", help="log per-insertion solver progress (debug level)")
        sub.add_argument("-q", "--quiet", action="store_true", help="log errors only")

    info = subparsers.add_parser("info", help="report STG statistics and CSC conflicts")
    info.add_argument("file", help="input .g file")
    info.add_argument("--max-states", type=int, default=200000)
    info.set_defaults(handler=_cmd_info)

    def add_symbolic_input(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("file", nargs="?", help="input .g file")
        sub.add_argument("--benchmark", metavar="NAME", help="use a built-in benchmark instead of a file")
        sub.add_argument("--table", choices=["table1", "table2"], default="table2", help="library table of --benchmark")
        sub.add_argument("--reorder", action="store_true", help="enable dynamic BDD variable reordering (sifting); verdicts are unchanged, only node-table shape and wall-clock")

    census = subparsers.add_parser(
        "census", help="symbolic (BDD) state-space census — exact state count without enumeration"
    )
    add_symbolic_input(census)
    census.set_defaults(handler=_cmd_census)

    check = subparsers.add_parser(
        "check-csc", help="symbolic CSC verdict — conflict pair counts and witnesses without enumeration"
    )
    add_symbolic_input(check)
    check.add_argument("--witnesses", type=int, default=4, metavar="N", help="conflict witness cubes to decode (default 4)")
    check.set_defaults(handler=_cmd_check_csc)

    solve = subparsers.add_parser("solve", help="insert state signals until CSC holds")
    solve.add_argument("file", help="input .g file")
    solve.add_argument("-o", "--output", help="write the encoded STG to this .g file")
    solve.add_argument("--equations", action="store_true", help="print minimised next-state functions")
    solve.add_argument("--no-logic", action="store_true", help="skip logic estimation")
    solve.add_argument("--trace", default=None, metavar="FILE", help="write a Chrome trace-event JSON of the solve (load in Perfetto or chrome://tracing)")
    add_common(solve)
    solve.set_defaults(handler=_cmd_solve)

    bench = subparsers.add_parser("bench", help="run a benchmark from the built-in library")
    bench.add_argument("name", nargs="?", default="vme2int")
    bench.add_argument("--table", choices=["table1", "table2", "all"], default="table2")
    bench.add_argument("--list", action="store_true", help="list available benchmarks")
    bench.add_argument("--all", action="store_true", help="batch-encode every solvable benchmark of the table")
    bench.add_argument("--jobs", type=int, default=1, help="worker processes for --all (results identical to serial)")
    bench.add_argument("--smallest", type=int, default=None, metavar="K", help="with --all: keep only the K smallest STGs")
    bench.add_argument("--json", default=None, metavar="FILE", help="with --all: write the batch record as JSON")
    bench.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="with --all: per-benchmark wall-clock bound (timed-out cases report status=timeout)")
    bench.add_argument("--engine", choices=["explicit", "symbolic", "auto"], default="explicit", help="pipeline to run: explicit enumeration, the symbolic (BDD) tier, or auto (symbolic census first)")
    add_common(bench)
    bench.set_defaults(handler=_cmd_bench)

    synth = subparsers.add_parser(
        "synth", help="synthesize a verified gate netlist from a CSC-solved encoding"
    )
    synth.add_argument("file", nargs="?", help="input .g file")
    synth.add_argument("--benchmark", default=None, metavar="NAME", help="use a library benchmark instead of a file")
    synth.add_argument("--table", choices=["table1", "table2"], default="table2")
    synth.add_argument("-o", "--out", default=None, metavar="DIR", help="write netlist files into DIR (default: print to stdout)")
    synth.add_argument("--fmt", choices=["eqn", "verilog", "blif", "all"], default="all", help="output format(s) to emit (default all)")
    synth.add_argument("--decompose", action="store_true", help="decompose into 2-input gates when the bounded speed-independence check passes")
    synth.add_argument("--no-verify", action="store_true", help="skip gate-level verification against the state graph")
    add_common(synth)
    synth.set_defaults(handler=_cmd_synth)

    serve = subparsers.add_parser("serve", help="run the encoding service (job queue + result store + HTTP API)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="TCP port (0 = ephemeral)")
    serve.add_argument("--jobs", type=int, default=1, help="worker-pool width (process workers per batch)")
    serve.add_argument("--store", default="pyetrify-service.db", metavar="PATH", help="sqlite file holding jobs and results (survives restarts)")
    serve.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="per-job wall-clock bound")
    serve.add_argument("--max-entries", type=int, default=None, metavar="N", help="LRU bound on the result store (default unbounded)")
    serve.add_argument("--max-backlog", type=int, default=None, metavar="N", help="reject submissions with 503 when N jobs are already pending (default unbounded)")
    serve.add_argument("--no-workers", action="store_true", help="serve the API only; drain the queue with separate `pyetrify worker` processes")
    serve.add_argument("--cors-origin", action="append", default=None, metavar="ORIGIN", help="allow cross-origin browser requests from ORIGIN (repeatable; '*' allows any)")
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request (structured access log at info level)")
    serve.add_argument("-q", "--quiet", action="store_true", help="log errors only")
    serve.set_defaults(handler=_cmd_serve)

    worker = subparsers.add_parser("worker", help="attach a worker process to a service backend and drain its queue")
    worker.add_argument("--store", default="pyetrify-service.db", metavar="PATH", help="backend shared with the serving front")
    worker.add_argument("--jobs", type=int, default=1, help="concurrent encodings in this worker process")
    worker.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="per-job wall-clock bound")
    worker.add_argument("--verbose", action="store_true", help="debug-level logging")
    worker.add_argument("-q", "--quiet", action="store_true", help="log errors only")
    worker.set_defaults(handler=_cmd_worker)

    admin = subparsers.add_parser("admin", help="manage service tenants and API keys (direct backend access)")
    admin.add_argument("--store", default="pyetrify-service.db", metavar="PATH", help="service backend to administer")
    admin_sub = admin.add_subparsers(dest="admin_command", required=True)
    create_key = admin_sub.add_parser("create-key", help="provision a tenant; prints its one-time API key")
    create_key.add_argument("name", help="tenant name (unique)")
    create_key.add_argument("--admin", action="store_true", help="grant access to /v1/admin endpoints")
    create_key.add_argument("--quota", type=int, default=None, metavar="N", help="max concurrently active (pending+running) jobs")
    create_key.add_argument("--rate", type=float, default=None, metavar="R", help="sustained submissions per second (token bucket)")
    create_key.add_argument("--burst", type=int, default=None, metavar="N", help="token-bucket burst capacity (default: one second's worth)")
    list_keys = admin_sub.add_parser("list-keys", help="list provisioned tenants (never shows keys)")
    revoke = admin_sub.add_parser("revoke-key", help="delete a tenant's key")
    revoke.add_argument("name")
    # accept --store after the subcommand too (`admin create-key x --store db`);
    # SUPPRESS keeps the subcommand from clobbering a value parsed by the parent
    for sub in (create_key, list_keys, revoke):
        sub.add_argument("--store", default=argparse.SUPPRESS, metavar="PATH", help=argparse.SUPPRESS)
    admin.set_defaults(handler=_cmd_admin)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one global threshold (repro.obs.log): -q wins over --verbose;
    # the default "info" keeps operational warnings visible
    if getattr(args, "quiet", False):
        from repro.obs import configure_logging

        configure_logging("error")
    elif getattr(args, "verbose", False):
        from repro.obs import configure_logging

        configure_logging("debug")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
