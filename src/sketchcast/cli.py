"""Command-line front end: simulate, stream, and bench verbs.

Each simulate and stream verb runs the ExperimentSpec its flags name
(``_spec_from_args``).  A flag left out takes the value its spec field
takes for that protocol (``harness.spec_defaults``), and ``bench comms``
takes its flags and their defaults from ``comm_scaling``'s signature, so
no spec or ``comm_scaling`` default is written here.

Every invocation is deterministic for a fixed seed: stdout and any files
written contain no timing or host-dependent fields.  Exit status is 0 on
completion, 2 when --check finds a success rate below the acceptance
floor, and 1 on I/O failures, invalid values (a sketch lane that is not
finite among them) and sketches over the size cap, which print one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .engine import CODECS
from .entropy import entropy_to_bits
from .fp_low import LOGCOSINE_MODES
from .harness import (
    CHECK_THRESHOLDS,
    ExperimentSpec,
    check_summary,
    comm_scaling,
    run_experiment,
    spec_defaults,
    write_csv,
    write_summary,
)


def _add_common(parser: argparse.ArgumentParser, protocol: str) -> dict:
    """Add an experiment verb's common flags; returns the protocol's spec defaults."""
    d = spec_defaults(protocol)
    if protocol.startswith("stream-"):
        parser.add_argument("--updates", default=d["dist"],
                            help="zipf:s:COUNT | file:PATH with 'index delta' lines")
    else:
        parser.add_argument("--topology", default=d["topology"],
                            help="line | star | tree | grid[:RxC] | random[:p] | file:PATH")
        parser.add_argument("--m", type=int, default=d["m"], help="number of players")
        parser.add_argument("--dist", default=d["dist"], help="data distribution spec")
        parser.add_argument("--tokens", type=int, default=d["tokens"],
                            help="tokens per player for zipf data")
        parser.add_argument("--codec", default=d["codec"], choices=CODECS)
    parser.add_argument("--n", type=int, default=d["n"], help="coordinate count")
    parser.add_argument("--eps", type=float, default=d["eps"], help="accuracy target")
    parser.add_argument("--trials", type=int, default=d["trials"])
    parser.add_argument("--seed", type=int, default=d["seed"])
    parser.add_argument("--out", help="write per-trial CSV here")
    parser.add_argument("--summary", help="write summary JSON here")
    parser.add_argument("--check", action="store_true",
                        help="exit 2 unless the acceptance success floor is met")
    return d


def int_list(text: str) -> tuple[int, ...]:
    """The ints of a comma-separated list such as ``4,16,64``."""
    return tuple(int(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchcast",
        description="Deterministic simulator for sketch-based distributed estimation.")
    top = parser.add_subparsers(dest="command", required=True)

    simulate = top.add_parser("simulate", help="run a distributed protocol")
    sim = simulate.add_subparsers(dest="protocol", required=True)

    fp = sim.add_parser("fp", help="frequency moment F_p, p in [0.1,2]")
    fp.add_argument("--p", type=float, required=True)
    _add_common(fp, "fp")

    hh = sim.add_parser("hh", help="count-sketch point estimates and heavy hitters")
    _add_common(hh, "hh")

    ent = sim.add_parser("entropy", help="Shannon entropy of the aggregate")
    _add_common(ent, "entropy")
    ent.add_argument("--bits", action="store_true", help="print entropy errors in bits")

    amp = sim.add_parser("amp", help="approximate matrix product")
    d = _add_common(amp, "amp")
    amp.add_argument("--t1", type=int, default=d["t1"])
    amp.add_argument("--t2", type=int, default=d["t2"])

    stream = top.add_parser("stream", help="run a single-machine streaming estimator")
    stm = stream.add_subparsers(dest="protocol", required=True)

    sfp = stm.add_parser("fp", help="log-cosine F_p norm estimate, p in (0,1)")
    sfp.add_argument("--p", type=float, required=True)
    d = _add_common(sfp, "stream-fp")
    sfp.add_argument("--mode", default=d["mode"], choices=LOGCOSINE_MODES)

    sent = stm.add_parser("entropy", help="streaming entropy estimate")
    sent.add_argument("--bits", action="store_true", help="print entropy errors in bits")
    _add_common(sent, "stream-entropy")

    bench = top.add_parser("bench", help="measurement utilities")
    bsub = bench.add_subparsers(dest="target", required=True)

    comms = bsub.add_parser("comms", help="max-communication scaling on line graphs")
    for name, param in inspect.signature(comm_scaling).parameters.items():
        kind = int_list if name == "depths" else type(param.default)
        comms.add_argument(f"--{name}", type=kind, default=param.default)
    comms.add_argument("--summary", help="write scaling JSON here")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The spec an experiment verb's flags name; a stream verb's --updates is its dist."""
    protocol = args.protocol if args.command == "simulate" else f"stream-{args.protocol}"
    flags = {"dist": getattr(args, "updates", None), **vars(args)}
    return ExperimentSpec(protocol, **{name: value for name, value in flags.items()
                                       if name in spec_defaults(protocol)})


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
    params = inspect.signature(comm_scaling).parameters
    result = comm_scaling(**{name: getattr(args, name) for name in params})
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
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
