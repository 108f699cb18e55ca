"""Command-line interface.

::

    python -m repro run --method fedat --dataset cifar10 --scale tiny
    python -m repro run --method fedat --dataset cifar10 --scenario churn
    python -m repro compare --dataset sentiment140 --methods fedat,fedavg
    python -m repro sweep --methods fedat,tifl --scenarios static,churn,drift \
        --seeds 2 --smoke
    python -m repro sweep --config examples/sweep_paper.json
    python -m repro figures --from-checkpoint sweeps/<key> --out-dir figures
    python -m repro codecs --size 20000
    python -m repro worker --connect 127.0.0.1:7070
    python -m repro list

``run`` executes one experiment and prints the history summary (optionally
saving the full series as JSON). ``compare`` runs several methods on the
identical federation and prints a side-by-side table. ``sweep`` executes a
resumable (method × scenario × seed) grid, one stored run per cell,
and prints an aggregate comparison table (``--config`` loads the grid from
a committed JSON sweep config). ``figures`` renders method×scenario SVG
comparison figures from a sweep's directory. ``codecs`` reports
compression ratios on synthetic weights. ``worker`` starts one
distributed-execution worker that dials a scheduler started by a
``run --executor dist --workers HOST:PORT`` elsewhere.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.exec.base import EXECUTORS, ExecConfig
from repro.experiments.config import ALGORITHMS, knobs_read_by, methods_taking
from repro.experiments.runner import RunSpec
from repro.metrics.report import format_table, time_to_accuracy
from repro.utils.serialization import save_json

__all__ = ["main", "build_parser"]


def _read_by(knob: str) -> str:
    return f"; read by {', '.join(methods_taking(knob))}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FedAT (SC 2021) reproduction — run federated-learning "
        "experiments on the discrete-event simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # How the runs of run, compare and sweep execute (unset: ExecConfig's defaults).
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--executor", default=None, choices=EXECUTORS,
                           help="client-execution backend (default: serial)")
    execution.add_argument("--num-workers", type=int, default=None,
                           help="workers (= chunks) per cohort; 0 = a worker "
                           "per CPU, and 4 chunks")

    # Flags run and compare share; compare runs every method under them,
    # passing a method knob only to the methods that read it.
    shared = argparse.ArgumentParser(add_help=False, parents=[execution])
    shared.add_argument("--dataset", required=True)
    shared.add_argument("--scale", default="tiny", choices=["tiny", "bench", "paper"])
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--classes-per-client", type=int, default=None,
                        help="k-class non-IID level (omit for dataset default)")
    shared.add_argument("--scenario", default=None,
                        help='dynamic-world scenario, e.g. "static", "churn", '
                        '"drift:0.5", "burst", "chaos", "bwheal:4", a "+"-'
                        'composition like "churn:0.2+bwdrift:2", or a trace '
                        'replay "trace:<csv-or-json-path>"')
    shared.add_argument("--retier-interval", type=int, default=None,
                        help="rounds between online re-tiers (0 = static "
                        "tiers" + _read_by("retier_interval") + ")")

    run_p = sub.add_parser("run", parents=[shared], help="run one (method, dataset) experiment")
    run_p.add_argument("--method", required=True, choices=sorted(ALGORITHMS))
    run_p.add_argument("--clients", type=int, default=None, dest="num_clients",
                       metavar="CLIENTS")
    run_p.add_argument("--population", type=int, default=None,
                       help="run on a VirtualPopulation of N lazily derived "
                       "clients (memory stays O(active cohort); overrides "
                       "--clients)")
    run_p.add_argument("--eval-clients", type=int, default=None,
                       help="evaluate on a fixed random subset of N clients "
                       "(default for --population runs: min(N, 200))")
    run_p.add_argument("--staleness", default=None,
                       help='staleness policy, "constant", "poly[:a]" or '
                       '"hinge[:a[:b]]" (default: no staleness weighting'
                       + _read_by("staleness") + ")")
    run_p.add_argument("--rounds", type=int, default=None, dest="max_rounds",
                       metavar="ROUNDS")
    run_p.add_argument("--max-time", type=float, default=None)
    run_p.add_argument("--lam", type=float, default=None,
                       help="proximal constraint λ (default: 0.4"
                       + _read_by("lam") + ")")
    run_p.add_argument("--compression", default="default",
                       help='"polyline:P" (precision P, default 4) or "none" (raw float32)')
    run_p.add_argument("--workers", default=None, metavar="HOST:PORT", dest="dist_bind",
                       help="scheduler bind address for --executor dist; "
                       "an explicit port waits for external `repro worker "
                       "--connect HOST:PORT` processes, port 0 (default) "
                       "self-spawns local workers")
    run_p.add_argument("--heartbeat-interval", type=float, default=None,
                       help="worker heartbeat cadence in seconds "
                       "(default: 0.2)")
    run_p.add_argument("--heartbeat-timeout", type=float, default=None,
                       help="seconds of silence before a worker is "
                       "declared dead and its lease requeued (default: 2)")
    run_p.add_argument("--worker-grace", type=float, default=None,
                       help="seconds a dispatch tolerates an empty "
                       "worker roster before degrading (default: 30)")
    run_p.add_argument("--dtype", default=None, choices=["float64", "float32"],
                       help="model parameter dtype (float32 halves memory "
                       "bandwidth; float64 keeps bit-identical histories)")
    run_p.add_argument("--faults", default=None,
                       help='deterministic chaos injection into the executor '
                       'workers, e.g. "crash:0.2", "hang:0.1", "corrupt:0.1", '
                       '"drop:0.2" (severed connection), "delay:0.3" '
                       '(stalled result), or a "+"-composition '
                       '("crash:0.2+corrupt:0.1"); requires --executor '
                       "dist")
    run_p.add_argument("--chunk-timeout", type=float, default=None,
                       help="per-chunk wall-clock deadline (s) before its "
                       "lease is requeued (required for hang faults)")
    run_p.add_argument("--chunk-retries", type=int, default=None,
                       help="redispatch budget per chunk (default: 3)")
    run_p.add_argument("--no-fault-degrade", action="store_false", default=None,
                       dest="fault_degrade",
                       help="raise ExecutorFaultError after the retry budget "
                       "instead of degrading the chunk to in-process serial "
                       "execution")
    run_p.add_argument("--guard", default=None,
                       help='update quarantine before every aggregation: '
                       '"reject[:max_norm]", "clip[:max_norm]" or '
                       '"abort[:max_norm]" (max_norm defaults to 1e6)')
    run_p.add_argument("--checkpoint-dir", default=None,
                       help="enable round-granular in-run checkpointing "
                       "(atomic writes; a killed run resumes bit-identically "
                       "with --resume)")
    run_p.add_argument("--checkpoint-every", type=int, default=None,
                       help="global updates between checkpoints (default: 1)")
    run_p.add_argument("--resume", action="store_true",
                       help="resume from the checkpoint in --checkpoint-dir "
                       "(fresh start when none exists)")
    run_p.add_argument("--out", default=None, help="write history JSON here")

    cmp_p = sub.add_parser("compare", parents=[shared], help="run several methods side by side")
    cmp_p.add_argument("--methods", default="fedat,fedavg,fedasync",
                       help="comma-separated method names")
    cmp_p.add_argument("--target-fraction", type=float, default=0.9,
                       help="time-to-target threshold as a fraction of the "
                       "first method's best accuracy")

    sweep_p = sub.add_parser(
        "sweep",
        parents=[execution],
        help="resumable (method x scenario x seed) grid, one stored run per cell",
    )
    sweep_p.add_argument("--config", default=None,
                         help="JSON sweep config (see examples/sweep_*.json); "
                         "replaces the grid flags (--methods/--scenarios/"
                         "--seeds/--populations/--dataset/--scale/--classes-per-client/"
                         "--retier-interval/--smoke); --out-dir, --max-runs, "
                         "--executor and --num-workers still apply")
    sweep_p.add_argument("--methods", default="fedat,tifl,fedavg",
                         help="comma-separated method names")
    sweep_p.add_argument("--scenarios", default="static,churn,drift",
                         help="comma-separated scenario specs (compositions "
                         'like "churn:0.2+bwdrift:2" and "trace:<path>" '
                         "replays are specs too)")
    sweep_p.add_argument("--seeds", default="1",
                         help='"N" for seeds 0..N-1, or an explicit list "0,3,7"')
    sweep_p.add_argument("--populations", default=None,
                         help='comma-separated population axis; "none" = the '
                         'eager federation, ints = VirtualPopulation sizes '
                         '(e.g. "none,50000")')
    sweep_p.add_argument("--dataset", default="sentiment140")
    sweep_p.add_argument("--scale", default="bench", choices=["tiny", "bench", "paper"])
    sweep_p.add_argument("--classes-per-client", type=int, default=None)
    sweep_p.add_argument("--smoke", action="store_true",
                         help="tiny scale + short budgets (CI-sized grid)")
    sweep_p.add_argument("--out-dir", default=None,
                         help="run store directory (default: sweeps/<spec key>)")
    sweep_p.add_argument("--retier-interval", type=int, default=None,
                         help="online re-tier cadence under dynamic scenarios "
                         "(default: auto — 20, or 3 with --smoke"
                         + _read_by("retier_interval") + ")")
    sweep_p.add_argument("--max-runs", type=int, default=None,
                         help="stop after N new cells (sweep stays resumable)")

    fig_p = sub.add_parser(
        "figures",
        help="emit method x scenario figures from sweep checkpoints",
    )
    fig_p.add_argument("--from-checkpoint", required=True, dest="from_checkpoint",
                       help="sweep checkpoint directory (or a JSON file in it)")
    fig_p.add_argument("--out-dir", default="figures",
                       help="where the SVG/JSON figures land (default: figures/)")

    codec_p = sub.add_parser("codecs", help="compression ratios on synthetic weights")
    codec_p.add_argument("--size", type=int, default=20_000)
    codec_p.add_argument("--std", type=float, default=0.1)

    worker_p = sub.add_parser(
        "worker",
        help="run one distributed-execution worker (dials a dist scheduler)",
    )
    worker_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                          help="scheduler address (the run side's --workers)")
    worker_p.add_argument("--id", default=None, dest="worker_id",
                          help="worker id (default: hostname-pid)")
    worker_p.add_argument("--reconnect-window", type=float, default=30.0,
                          help="seconds to keep retrying an unreachable "
                          "scheduler before giving up (default: 30)")
    worker_p.add_argument("--quiet", action="store_true",
                          help="suppress per-event logging")

    sub.add_parser("list", help="list available methods and datasets")
    return parser


def _run_spec(args: argparse.Namespace, method: str) -> tuple[RunSpec, dict]:
    """The run a ``run`` / ``compare`` command line describes for ``method``:
    every flag set, less the command's own (an unset flag keeps the preset).
    A method knob reaches only the methods that read it under ``compare``."""
    own = ("command", "method", "methods", "dataset", "target_fraction", "out")
    flat = {k: v for k, v in vars(args).items() if v is not None and k not in own}
    compression = flat.pop("compression", "default")
    if compression != "default":
        flat["compression"] = None if compression == "none" else compression
    if args.command == "compare":
        flat = knobs_read_by(method, flat)
    return RunSpec.of(method, args.dataset, **flat)


def _parse_seeds(text: str) -> tuple[int, ...]:
    """``"3"`` -> (0, 1, 2); ``"0,4,9"`` -> (0, 4, 9)."""
    text = text.strip()
    if "," in text:
        return tuple(int(s) for s in text.split(",") if s.strip())
    count = int(text)
    if count < 1:
        raise ValueError("--seeds must name at least one seed")
    return tuple(range(count))


def _parse_populations(text: str) -> tuple[int | None, ...]:
    """``"none,50000"`` -> (None, 50000)."""
    out: list[int | None] = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        out.append(None if part in ("none", "null") else int(part))
    if not out:
        raise ValueError("--populations must name at least one population")
    return tuple(out)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint_dir is None:
        print("--resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        spec, execution = _run_spec(args, args.method)
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    history = spec.run(**execution)
    print(f"method         : {history.method}")
    print(f"dataset        : {history.dataset}")
    print(f"global updates : {history.rounds()[-1]}")
    print(f"virtual time   : {history.times()[-1]:.0f} s")
    print(f"best accuracy  : {history.best_accuracy():.4f}")
    print(f"final accuracy : {history.final_accuracy():.4f}")
    print(f"acc variance   : {history.mean_accuracy_variance():.5f}")
    print(f"total transfer : {history.total_bytes()[-1] / 1e6:.2f} MB")
    phases = history.meta.get("phase_seconds") or {}
    if phases:
        total = sum(phases.values())
        breakdown = "  ".join(f"{k}={v:.2f}s" for k, v in phases.items())
        print(f"wall clock     : {breakdown}  (phases total {total:.2f}s)")
    if args.out:
        save_json(args.out, history.to_dict())
        print(f"history saved  : {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        runs = {m: _run_spec(args, m) for m in methods}
    except ValueError as exc:
        print(f"repro compare: {exc}", file=sys.stderr)
        return 2
    histories = {m: spec.run(**execution) for m, (spec, execution) in runs.items()}
    target = args.target_fraction * histories[methods[0]].best_accuracy()
    rows = []
    for m, h in histories.items():
        t = time_to_accuracy(h, target)
        rows.append(
            [
                m,
                f"{h.best_accuracy():.4f}",
                f"{h.mean_accuracy_variance():.5f}",
                "-" if t is None else f"{t:.0f}s",
                f"{h.total_bytes()[-1] / 1e6:.2f}",
                h.rounds()[-1],
            ]
        )
    print(f"dataset={args.dataset} scale={args.scale} seed={args.seed} "
          f"target={target:.3f}\n")
    print(format_table(
        ["method", "best acc", "acc var", "t-to-target", "MB", "updates"], rows
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import SweepRunner, SweepSpec

    try:
        if args.config is not None:
            spec = SweepSpec.from_file(args.config)
        else:
            spec = SweepSpec(
                methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
                scenarios=tuple(s.strip() for s in args.scenarios.split(",") if s.strip()),
                seeds=_parse_seeds(args.seeds),
                populations=_parse_populations(args.populations or "none"),
                dataset=args.dataset,
                scale=args.scale,
                classes_per_client=(
                    "default" if args.classes_per_client is None else args.classes_per_client
                ),
                retier_interval=args.retier_interval,
                smoke=args.smoke,
            )
        execution = {"executor": args.executor, "num_workers": args.num_workers}
        execution = {k: v for k, v in execution.items() if v is not None}
        ExecConfig(**execution)  # refuses a bad setting before any cell runs
    except (ValueError, OSError, TypeError) as exc:
        print(f"bad sweep spec: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir or f"sweeps/{spec.key()}"
    runner = SweepRunner(spec, out_dir)
    summary = runner.run(max_runs=args.max_runs, log=print, **execution)
    print()
    print(runner.format_summary(summary))
    print(f"\nrun store : {out_dir}")
    if not summary["complete"]:
        print("sweep interrupted — rerun the same command to resume")
        return 3
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import write_scenario_figures

    try:
        written = write_scenario_figures(args.from_checkpoint, args.out_dir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cannot build figures: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    from repro.compression.codec import PolylineCodec, compression_ratio

    rng = np.random.default_rng(0)
    w = rng.normal(0, args.std, size=args.size)
    rows = []
    for codec in (PolylineCodec(3), PolylineCodec(4), PolylineCodec(5)):
        decoded, payload = codec.roundtrip(w)
        err = float(np.sqrt(np.mean((decoded - w) ** 2)))
        rows.append(
            [
                payload.codec,
                f"{payload.bytes_per_weight:.2f}",
                f"{compression_ratio(payload):.2f}x",
                f"{compression_ratio(payload, reference_bytes=8):.2f}x",
                f"{err:.2e}",
            ]
        )
    print(format_table(
        ["codec", "B/weight", "vs float32", "vs float64", "rms error"], rows
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exec.dist.worker import parse_address, run_worker

    try:
        host, port = parse_address(args.connect)
    except ValueError as exc:
        print(f"bad --connect address: {exc}", file=sys.stderr)
        return 2
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr, flush=True))
    return run_worker(
        host,
        port,
        worker_id=args.worker_id,
        reconnect_window=args.reconnect_window,
        log=log,
    )


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.data.datasets import DATASETS
    from repro.scenario import scenario_names

    print("methods  :", ", ".join(sorted(ALGORITHMS)))
    print("datasets :", ", ".join(sorted(DATASETS)))
    print("scenarios:", ", ".join(scenario_names()),
          '(composable with "+", plus "trace:<path>" replays)')
    print("scales   : tiny, bench, paper (REPRO_SCALE also honoured by benches)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "figures": _cmd_figures,
        "codecs": _cmd_codecs,
        "worker": _cmd_worker,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
