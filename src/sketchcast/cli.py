"""Command-line front end: simulate, stream, and bench verbs.

Every invocation is deterministic for a fixed seed: stdout and any files
written contain no timing or host-dependent fields.  Exit status is 0 on
completion, 2 when --check finds a success rate below the acceptance
floor, and 1 on I/O failures, invalid values, sketches over the size cap
and counter overflows, which print one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .engine import CODECS, CounterOverflowError
from .entropy import entropy_to_bits
from .fp_low import LOGCOSINE_MODES
from .harness import (
    CHECK_THRESHOLDS,
    ExperimentSpec,
    check_summary,
    comm_scaling,
    run_experiment,
    write_csv,
    write_summary,
)


def _add_common(parser: argparse.ArgumentParser, *, dist: str, eps: float) -> None:
    parser.add_argument("--topology", default="star",
                        help="line | star | tree | grid[:RxC] | random[:p] | file:PATH")
    parser.add_argument("--m", type=int, default=16, help="number of players")
    parser.add_argument("--n", type=int, default=1000, help="coordinate count")
    parser.add_argument("--dist", default=dist, help="data distribution spec")
    parser.add_argument("--eps", type=float, default=eps, help="accuracy target")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tokens", type=int, default=5000,
                        help="tokens per player for zipf data")
    parser.add_argument("--codec", default="rounding", choices=CODECS)
    parser.add_argument("--out", help="write per-trial CSV here")
    parser.add_argument("--summary", help="write summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 2 unless the acceptance success floor is met")


def _add_stream_common(parser: argparse.ArgumentParser, *, eps: float) -> None:
    parser.add_argument("--updates", default="zipf:1.3:100000",
                        help="zipf:s:COUNT | file:PATH with 'index delta' lines")
    parser.add_argument("--n", type=int, default=1000, help="coordinate count")
    parser.add_argument("--eps", type=float, default=eps, help="accuracy target")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write per-trial CSV here")
    parser.add_argument("--summary", help="write summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 2 unless the acceptance success floor is met")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchcast",
        description="Deterministic simulator for sketch-based distributed estimation.")
    top = parser.add_subparsers(dest="command", required=True)

    simulate = top.add_parser("simulate", help="run a distributed protocol")
    sim = simulate.add_subparsers(dest="protocol", required=True)

    fp = sim.add_parser("fp", help="frequency moment F_p, p in (0,1) or (1,2]")
    fp.add_argument("--p", type=float, required=True)
    _add_common(fp, dist="zipf:1.1", eps=0.1)

    hh = sim.add_parser("hh", help="count-sketch point estimates and heavy hitters")
    _add_common(hh, dist="planted:1000:1", eps=0.25)

    ent = sim.add_parser("entropy", help="Shannon entropy of the aggregate")
    _add_common(ent, dist="uniform:100", eps=0.2)
    ent.add_argument("--bits", action="store_true", help="print entropy errors in bits")

    amp = sim.add_parser("amp", help="approximate matrix product")
    amp.add_argument("--t1", type=int, default=4)
    amp.add_argument("--t2", type=int, default=4)
    _add_common(amp, dist="sparse:0.1", eps=0.25)

    stream = top.add_parser("stream", help="run a single-machine streaming estimator")
    stm = stream.add_subparsers(dest="protocol", required=True)

    sfp = stm.add_parser("fp", help="log-cosine F_p norm estimate, p in (0,1)")
    sfp.add_argument("--p", type=float, required=True)
    sfp.add_argument("--mode", default="exact-y", choices=LOGCOSINE_MODES)
    _add_stream_common(sfp, eps=0.15)

    sent = stm.add_parser("entropy", help="streaming entropy estimate")
    sent.add_argument("--bits", action="store_true", help="print entropy errors in bits")
    _add_stream_common(sent, eps=0.2)

    bench = top.add_parser("bench", help="measurement utilities")
    bsub = bench.add_subparsers(dest="target", required=True)

    comms = bsub.add_parser("comms", help="max-communication scaling on line graphs")
    comms.add_argument("--depths", default="4,16,64,256")
    comms.add_argument("--eps", type=float, default=0.25)
    comms.add_argument("--p", type=float, default=1.5)
    comms.add_argument("--n", type=int, default=200)
    comms.add_argument("--trials", type=int, default=8)
    comms.add_argument("--seed", type=int, default=0)
    comms.add_argument("--summary", help="write scaling JSON here")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    protocol = args.protocol if args.command == "simulate" else f"stream-{args.protocol}"
    kw = dict(protocol=protocol, n=args.n, eps=args.eps, trials=args.trials,
              seed=args.seed)
    if args.command == "simulate":
        kw.update(topology=args.topology, m=args.m, dist=args.dist, tokens=args.tokens,
                  codec=args.codec)
        if protocol == "fp":
            kw.update(p=args.p)
        if protocol == "amp":
            kw.update(t1=args.t1, t2=args.t2)
    else:
        kw.update(dist=args.updates)
        if protocol == "stream-fp":
            kw.update(p=args.p, mode=args.mode)
    return ExperimentSpec(**kw)


def _print_summary(summary: dict, in_bits: bool = False) -> None:
    unit = ""
    p50, p90 = summary["error_p50"], summary["error_p90"]
    if in_bits:
        p50, p90 = entropy_to_bits(p50), entropy_to_bits(p90)
        unit = " unit=bits"
    print(f"protocol={summary['protocol']} trials={summary['spec']['trials']} "
          f"success_rate={summary['success_rate']:.4f} "
          f"error_p50={p50:.6g} error_p90={p90:.6g} "
          f"max_edge_bits={summary['max_edge_bits_max']} "
          f"rounds={summary['rounds_max']}{unit}")


def _run_experiment_command(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    reports, summary = run_experiment(spec)
    _print_summary(summary, in_bits=getattr(args, "bits", False))
    if args.out:
        write_csv(args.out, reports)
    if args.summary:
        write_summary(args.summary, summary)
    if args.check and not check_summary(spec, summary):
        floor = CHECK_THRESHOLDS[spec.protocol]
        print(f"check failed: success_rate {summary['success_rate']:.4f} "
              f"below floor {floor:.4f}", file=sys.stderr)
        return 2
    return 0


def _run_bench_command(args: argparse.Namespace) -> int:
    depths = tuple(int(d) for d in args.depths.split(","))
    result = comm_scaling(depths=depths, eps=args.eps, p=args.p, n=args.n,
                          trials=args.trials, seed=args.seed)
    for row in result["rows"]:
        print(f"d={row['d']} bits_per_row={row['bits_per_row']:.3f} "
              f"baseline_ratio={row['baseline_ratio']:.2f}")
    fit = result["fit"]
    print(f"fit: slope={fit['slope']:.4f} intercept={fit['intercept']:.4f} "
          f"max_rel_residual={fit['max_rel_residual']:.4f}")
    if args.summary:
        write_summary(args.summary, result)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "bench":
            return _run_bench_command(args)
        return _run_experiment_command(args)
    except (OSError, ValueError, MemoryError, CounterOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
