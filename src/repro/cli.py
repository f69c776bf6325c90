"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sweep``     load-latency sweep of one algorithm/pattern (Figure 6 style)
``stencil``   27-point stencil run per algorithm (Figure 8 style)
``figure``    regenerate a paper figure/table by name
``faults``    mid-run fault-injection transient (see docs/FAULTS.md)
``trace``     flit/packet lifecycle tracing + time series (docs/OBSERVABILITY.md)
``check``     runtime-sanitizer self-test + differential oracles (docs/TESTING.md)
``bench``     time the simulator microbenchmark probes and print one table
``serve``     sweep-farm HTTP experiment service (docs/SERVICE.md)
``list``      available algorithms, patterns, figures, and scales

Every subcommand reports bad flag combinations (and unreadable input
files) through the argparse error path: a usage line plus the message on
stderr, exit code 2 — never a raw traceback.

Examples::

    python -m repro sweep --algorithm DimWAR --pattern URBy --rates 0.1 0.3 0.5
    python -m repro stencil --algorithms DOR OmniWAR --mode halo
    python -m repro figure fig6g --scale smoke
    python -m repro figure table1
    python -m repro faults --fail-links 3 --algorithms DimWAR OmniWAR
    python -m repro faults --schedule myfaults.json --scale small
    python -m repro faults --compare --fault-counts 0 1 2 4 --widths 8 8
    python -m repro sweep --algorithm OmniWAR --check
    python -m repro sweep --algorithm OmniWAR --widths 8 8 8 --shards 4
    python -m repro trace --algorithm OmniWAR --rate 0.3 --window 200 --heatmap vc
    python -m repro trace --golden DimWAR --jsonl /tmp/dimwar.jsonl
    python -m repro check
    python -m repro bench --only test_perf_simulation_cycles_loaded
    python -m repro serve --port 8035 --workers 4
"""

from __future__ import annotations

import argparse
import sys

from .analysis.parallel import PointSpec
from .analysis.report import format_table
from .analysis.sweep import sweep_load
from .core.registry import PAPER_ALGORITHMS, algorithm_names
from .experiments import (
    faults as faults_experiment,
    fig1_paths,
    fig2_scalability,
    fig3_cost,
    fig4_topologies,
    fig5_vcusage,
    fig6_synthetic,
    fig7_model,
    fig8_stencil,
    irregular,
    table1_comparison,
    table_area,
    transient,
)
from .experiments.common import SCALES, get_scale, resolve_workers
from .topology.hyperx import HyperX

# Each entry takes (scale, workers); only the sweep-grid figures can use
# the worker pool, the rest ignore it.
FIGURES = {
    "fig1": lambda scale, workers: fig1_paths.render(fig1_paths.run()),
    "fig2": lambda scale, workers: fig2_scalability.render(fig2_scalability.run()),
    "fig3": lambda scale, workers: fig3_cost.render(fig3_cost.run()),
    "fig4": lambda scale, workers: fig4_topologies.render(fig4_topologies.run(scale)),
    "fig5": lambda scale, workers: fig5_vcusage.render(fig5_vcusage.run()),
    "fig6g": lambda scale, workers: fig6_synthetic.render_throughput_chart(
        fig6_synthetic.run_throughput_chart(scale=scale, workers=workers)
    ),
    "fig7": lambda scale, workers: fig7_model.run(),
    "fig8": lambda scale, workers: fig8_stencil.render(fig8_stencil.run(scale=scale)),
    "table1": lambda scale, workers: table1_comparison.render(table1_comparison.run()),
    "irregular": lambda scale, workers: irregular.render(irregular.run(scale=scale)),
    "table_area": lambda scale, workers: table_area.render(table_area.run()),
    "transient": lambda scale, workers: transient.render(transient.run(scale=scale)),
    "faults": lambda scale, workers: faults_experiment.render(
        faults_experiment.run(scale=scale)
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Practical and Efficient Incremental "
        "Adaptive Routing for HyperX Networks' (SC '19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="load-latency sweep (Figure 6 style)")
    p.add_argument("--algorithm", default="DimWAR", choices=algorithm_names())
    p.add_argument("--pattern", default="UR",
                   choices=["UR", "BC", "URBx", "URBy", "URBz", "S2", "DCR"])
    p.add_argument("--widths", type=int, nargs="+", default=[3, 3, 3])
    p.add_argument("--terminals", type=int, default=2)
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.1, 0.2, 0.3, 0.4, 0.5])
    p.add_argument("--cycles", type=int, default=2500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workers", type=int, default=None,
                   help="fan load points over N worker processes "
                   "(0 = all cores; default: serial)")
    p.add_argument("--shards", type=int, default=0,
                   help="split each point across N shard processes "
                   "(repro.network.shard; default: 0 = single process)")
    p.add_argument("--check", action="store_true",
                   help="attach the runtime sanitizer to every point "
                   "(invariant audits; see docs/TESTING.md)")

    p = sub.add_parser("stencil", help="27-point stencil run (Figure 8 style)")
    p.add_argument("--algorithms", nargs="+", default=list(PAPER_ALGORITHMS),
                   choices=algorithm_names())
    p.add_argument("--mode", default="full",
                   choices=["full", "halo", "collective"])
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    p.add_argument("--seed", type=int, default=5)

    p = sub.add_parser("figure", help="regenerate a paper figure/table")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes for sweep-grid figures "
                   "(0 = all cores; default: serial)")

    p = sub.add_parser(
        "faults", help="mid-run fault-injection transient (docs/FAULTS.md)"
    )
    p.add_argument("--algorithms", nargs="+", default=None,
                   choices=algorithm_names(),
                   help="fault-capable algorithms to run (default: "
                   "DOR DimWAR OmniWAR; with --compare also FTHX VCFree)")
    p.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    p.add_argument("--rate", type=float, default=0.2,
                   help="offered load in flits/cycle/terminal")
    p.add_argument("--fail-links", type=int, default=2,
                   help="random link failures injected mid-run")
    p.add_argument("--fail-routers", type=int, default=0,
                   help="random router failures injected mid-run")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="seed for the connectivity-preserving fault sample")
    p.add_argument("--schedule", default=None, metavar="FILE",
                   help="JSON fault-schedule file (overrides the random "
                   "--fail-links/--fail-routers sample)")
    p.add_argument("--seed", type=int, default=4, help="traffic seed")
    p.add_argument("--check", action="store_true",
                   help="attach the runtime sanitizer for the whole "
                   "transient, fault event and drain included")
    p.add_argument("--compare", action="store_true",
                   help="head-to-head grid: every algorithm through the "
                   "same fault samples at each --fault-counts value "
                   "(delivered fraction, settling, saturation throughput)")
    p.add_argument("--fault-counts", type=int, nargs="+", default=[0, 1, 2, 4],
                   metavar="K", help="link-failure counts of the --compare "
                   "grid (default: 0 1 2 4)")
    p.add_argument("--widths", type=int, nargs="+", default=None,
                   help="override the scale's topology widths "
                   "(e.g. --widths 8 8 for the docs' 8x8 grid)")
    p.add_argument("--terminals", type=int, default=None,
                   help="terminals per router for --widths (default: "
                   "the scale's)")
    p.add_argument("--no-saturation", action="store_true",
                   help="--compare: skip the saturation sweeps (transient "
                   "grid only; the CI smoke step uses this)")
    p.add_argument("--granularity", type=float, default=None,
                   help="--compare: saturation sweep step (default: the "
                   "scale's)")
    p.add_argument("--max-rate", type=float, default=0.7,
                   help="--compare: highest offered load probed by the "
                   "saturation sweeps")
    p.add_argument("--workers", type=int, default=None,
                   help="--compare: fan saturation sweep points over N "
                   "worker processes (0 = all cores; default: serial)")

    p = sub.add_parser(
        "trace",
        help="record a flit/packet lifecycle trace (docs/OBSERVABILITY.md)",
    )
    p.add_argument("--algorithm", default="DimWAR", choices=algorithm_names())
    p.add_argument("--pattern", default="UR",
                   choices=["UR", "BC", "URBx", "URBy", "URBz", "S2", "DCR"])
    p.add_argument("--widths", type=int, nargs="+", default=[4, 4])
    p.add_argument("--terminals", type=int, default=1)
    p.add_argument("--rate", type=float, default=0.3,
                   help="offered load in flits/cycle/terminal")
    p.add_argument("--cycles", type=int, default=400)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sample-every", type=int, default=1, metavar="N",
                   help="trace every Nth injected packet (default: all)")
    p.add_argument("--start", type=int, default=0,
                   help="first cycle to record events in")
    p.add_argument("--end", type=int, default=None,
                   help="record events before this cycle only")
    p.add_argument("--capacity", type=int, default=1 << 16,
                   help="ring-buffer capacity (oldest events drop beyond it)")
    p.add_argument("--window", type=int, default=0, metavar="CYCLES",
                   help="also sample windowed time series at this window size")
    p.add_argument("--jsonl", default=None, metavar="FILE",
                   help="write the event stream as JSON lines")
    p.add_argument("--chrome", default=None, metavar="FILE",
                   help="write Chrome trace-event JSON "
                   "(chrome://tracing / ui.perfetto.dev)")
    p.add_argument("--heatmap", default=None, choices=["router", "vc"],
                   help="print an ASCII occupancy heatmap (needs --window)")
    p.add_argument("--profile", action="store_true",
                   help="attribute wall-clock time to simulator phases")
    p.add_argument("--golden", default=None, metavar="ALGO",
                   help="run the pinned golden-trace scenario for ALGO "
                   "instead of the flags above (tests/golden corpus)")

    p = sub.add_parser(
        "check",
        help="run the repro.check self-test: sanitized reference runs, "
        "differential oracles, and the mutation canaries",
    )
    p.add_argument("--quick", action="store_true",
                   help="skip the (slower) differential oracles")

    p = sub.add_parser(
        "bench",
        help="time the simulator microbenchmark probes and print one table "
        "(reports only; the perf gate is benchmarks/e2e, docs/PERFORMANCE.md)",
    )
    p.add_argument("--only", nargs="+", default=None, metavar="NAME",
                   help="run a subset of the benchmarks by name")
    p.add_argument("--xl", action="store_true",
                   help="also run the target-scale 16x16x16 scenarios "
                   "(tens of seconds and gigabytes of state each)")

    p = sub.add_parser(
        "serve",
        help="run the sweep-farm HTTP experiment service (docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8035,
                   help="TCP port (0 = ephemeral; default: 8035)")
    p.add_argument("--workers", type=int, default=None,
                   help="ProcessPool workers per sweep job "
                   "(0 = all cores; default: serial)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="max queued jobs before submissions get 503")
    p.add_argument("--rate-limit", type=float, default=20.0,
                   help="requests/second/client before 429 (0 = unlimited)")
    p.add_argument("--burst", type=int, default=40,
                   help="per-client token-bucket burst capacity")
    p.add_argument("--memo-root", default="benchmarks/output/memo",
                   metavar="DIR",
                   help="shared content-addressed result cache directory")
    p.add_argument("--job-log", default="benchmarks/output/service_jobs.jsonl",
                   metavar="FILE",
                   help="JSONL job journal (replayed on restart)")

    sub.add_parser("list", help="list algorithms, patterns, figures, scales")
    return parser


def _scenario(args) -> tuple:
    """Live ``(topology, algorithm, pattern)`` for the sweep/trace flags
    (the rate plays no part in construction)."""
    return PointSpec(
        tuple(args.widths), args.terminals, args.algorithm, args.pattern, rate=0.0
    ).build()


def _cmd_sweep(args) -> str:
    if args.shards < 0:
        raise ValueError("--shards must be >= 0")
    sweep = sweep_load(
        *_scenario(args), args.rates, total_cycles=args.cycles,
        seed=args.seed, workers=resolve_workers(args.workers),
        check=args.check, shards=args.shards,
    )
    rows = [
        [
            f"{p.offered_rate:.2f}",
            f"{p.accepted_rate:.3f}",
            f"{p.mean_latency:.1f}" if p.stable else "saturated",
            f"{p.mean_hops:.2f}",
            f"{p.mean_deroutes:.3f}",
        ]
        for p in sweep.points
    ]
    return format_table(
        ["offered", "accepted", "latency", "hops", "deroutes"],
        rows,
        title=f"{args.algorithm} on {args.pattern}, HyperX {tuple(args.widths)} "
        f"T={args.terminals} (max stable: {sweep.saturation_rate:.3f})",
    )


def _cmd_stencil(args) -> str:
    result = fig8_stencil.run(
        algorithms=tuple(args.algorithms),
        modes=(args.mode,),
        iteration_counts=(args.iterations,),
        scale=args.scale,
        seed=args.seed,
    )
    return fig8_stencil.render(result, algorithms=tuple(args.algorithms))


def _cmd_faults(args) -> str:
    from .experiments import fault_compare

    topology = None
    if args.widths is not None:
        tpr = (
            args.terminals if args.terminals is not None
            else get_scale(args.scale).terminals_per_router
        )
        topology = HyperX(tuple(args.widths), tpr)
    elif args.terminals is not None:
        raise ValueError("--terminals needs --widths")
    if args.compare:
        if args.schedule is not None:
            raise ValueError(
                "--schedule pins one fault set; --compare sweeps fault "
                "counts — pick one"
            )
        if any(k < 0 for k in args.fault_counts):
            raise ValueError("--fault-counts values must be >= 0")
        algorithms = tuple(
            args.algorithms if args.algorithms is not None
            else fault_compare.COMPARE_ALGORITHMS
        )
        fault_compare.validate_fault_capable(algorithms)
        result = fault_compare.run_fault_comparison(
            algorithms=algorithms,
            fault_counts=tuple(args.fault_counts),
            scale=args.scale,
            topology=topology,
            rate=args.rate,
            fault_seed=args.fault_seed,
            seed=args.seed,
            saturation=not args.no_saturation,
            granularity=args.granularity,
            max_rate=args.max_rate,
            workers=resolve_workers(args.workers),
            check=args.check,
        )
        return fault_compare.render(result)
    algorithms = tuple(
        args.algorithms if args.algorithms is not None
        else ("DOR", "DimWAR", "OmniWAR")
    )
    # Reject non-fault-capable names before any run burns simulation
    # time (and instead of a mid-sequence NoRouteError traceback).
    fault_compare.validate_fault_capable(algorithms)
    schedule = None
    if args.schedule is not None:
        from .faults.model import FaultSchedule

        schedule = FaultSchedule.load(args.schedule)
    results = faults_experiment.run(
        algorithms=algorithms,
        scale=args.scale,
        rate=args.rate,
        fail_links=args.fail_links,
        fail_routers=args.fail_routers,
        fault_seed=args.fault_seed,
        seed=args.seed,
        schedule=schedule,
        topology=topology,
        check=args.check,
    )
    return faults_experiment.render(results)


def _cmd_trace(args) -> str:
    from .obs import (
        PhaseProfiler,
        TimeSeriesSampler,
        TraceOptions,
        Tracer,
        occupancy_heatmap,
        write_chrome_trace,
        write_jsonl,
    )

    prof = None
    if args.golden is not None:
        if args.profile:
            raise ValueError("--profile does not apply to --golden runs")
        if args.window or args.heatmap:
            raise ValueError(
                "--window/--heatmap do not apply to --golden runs (the "
                "pinned scenario records lifecycle events only)"
            )
        from .obs.golden import golden_tracer

        tracer = golden_tracer(args.golden)
        sampler = None
        label = f"golden scenario {args.golden} (see repro.obs.golden)"
    else:
        if args.heatmap and not args.window:
            raise ValueError("--heatmap needs the time-series sampler (--window N)")
        from .analysis.sweep import frozen_build
        from .config import default_config
        from .network.network import Network
        from .network.simulator import Simulator
        from .traffic.injection import SyntheticTraffic

        opts = TraceOptions(
            sample_every=args.sample_every, start=args.start, end=args.end,
            capacity=args.capacity, window=args.window,
        )
        topo, algo, pattern = _scenario(args)
        with frozen_build(lambda: Network(topo, algo, default_config())) as net:
            sim = Simulator(net)
            sim.add_process(SyntheticTraffic(net, pattern, args.rate, seed=args.seed))
            tracer = Tracer(sim, opts).attach()
            sampler = (
                TimeSeriesSampler(sim, window=args.window).attach()
                if args.window else None
            )
            if args.profile:
                prof = PhaseProfiler(sim)
                prof.run(args.cycles)
            else:
                sim.run(args.cycles)
            if sampler is not None:
                sampler.finalize(sim.cycle)
                sampler.detach()
            tracer.detach()
        label = (
            f"{args.algorithm} on {args.pattern}, HyperX {tuple(args.widths)} "
            f"T={args.terminals} rate={args.rate} over {args.cycles} cycles"
        )
    ring = tracer.ring
    counts = ring.counts()
    out = [
        f"trace: {label}",
        f"events: recorded={ring.recorded} retained={len(ring)} "
        f"dropped={ring.dropped} packets_sampled={tracer.packets_sampled}",
        "  " + "  ".join(f"{t}={n}" for t, n in counts.items()),
    ]
    if args.jsonl:
        out.append(f"wrote {write_jsonl(tracer.events(), args.jsonl)}")
    if args.chrome:
        path = write_chrome_trace(
            tracer.events(), args.chrome,
            sampler.samples if sampler is not None else None,
        )
        out.append(f"wrote {path} (open in chrome://tracing or ui.perfetto.dev)")
    if sampler is not None:
        out.append("")
        out.append(sampler.format_table())
        if args.heatmap:
            out.append("")
            out.append(occupancy_heatmap(sampler.samples, args.heatmap))
    if prof is not None:
        out.append("")
        out.append(prof.format_report())
    return "\n".join(out)


def _cmd_bench(args) -> str:
    from .analysis.bench import format_summary, run_benchmarks

    return format_summary(run_benchmarks(args.only, xl=args.xl))


def _cmd_serve(args) -> int:
    """Run the experiment service until SIGINT/SIGTERM, then exit cleanly.

    Flag validation errors raise ValueError into the shared argparse
    error path (exit code 2); a clean interrupt exits 0 so supervised
    shutdowns (the CI smoke job sends SIGTERM) read as success.
    """
    import signal

    from .service import ExperimentService

    if not 0 <= args.port <= 65535:
        raise ValueError("port must be in [0, 65535]")
    if args.queue_depth < 1:
        raise ValueError("queue-depth must be >= 1")
    if args.rate_limit < 0:
        raise ValueError("rate-limit must be >= 0 (0 = unlimited)")
    if args.rate_limit > 0 and args.burst < 1:
        raise ValueError("burst must be >= 1")
    service = ExperimentService(
        host=args.host, port=args.port,
        workers=resolve_workers(args.workers),
        memo_root=args.memo_root, job_log=args.job_log,
        max_depth=args.queue_depth,
        rate_limit=args.rate_limit, burst=args.burst,
    )

    def _interrupt(signum, frame):  # pragma: no cover - signal plumbing
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    print(f"repro service listening on {service.url} "
          f"(memo: {args.memo_root}, job log: {args.job_log})", flush=True)
    try:
        service.serve_forever()  # pragma: no cover - blocks until signal
    except KeyboardInterrupt:
        pass
    finally:
        service.shutdown()
        print("repro service: clean shutdown", flush=True)
    return 0


def _cmd_list() -> str:
    lines = [
        "algorithms : " + ", ".join(algorithm_names()),
        "patterns   : UR, BC, URBx, URBy, URBz, S2, DCR",
        "figures    : " + ", ".join(sorted(FIGURES)),
        "scales     : " + ", ".join(sorted(SCALES)),
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            print(_cmd_sweep(args))
        elif args.command == "stencil":
            print(_cmd_stencil(args))
        elif args.command == "figure":
            print(FIGURES[args.name](get_scale(args.scale),
                                     resolve_workers(args.workers)))
        elif args.command == "faults":
            print(_cmd_faults(args))
        elif args.command == "trace":
            print(_cmd_trace(args))
        elif args.command == "check":
            from .check.selftest import run_selftest

            return 0 if run_selftest(oracles=not args.quick) else 1
        elif args.command == "bench":
            print(_cmd_bench(args))
        elif args.command == "serve":
            return _cmd_serve(args)
        elif args.command == "list":
            print(_cmd_list())
    except (ValueError, OSError) as e:
        # One error path for every subcommand: bad flag combinations and
        # unreadable input files become argparse usage errors (message on
        # stderr, exit code 2), never raw tracebacks.
        parser.error(f"{args.command}: {e}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
