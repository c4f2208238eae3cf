"""Experiment orchestration: data generation, trial loops, reports.

An ExperimentSpec names a protocol, a topology, a data distribution, and
accuracy/trial parameters; run_experiment executes the trials in trial
order, scores each one against the exact oracles, and emits a CSV row per
trial plus a JSON summary.  Outputs contain no timestamps or wall-clock
fields, so a (spec, seed) pair reproduces byte-identical files; per-trial
wall time lives only on the in-memory TrialReport.

Distribution specs:
    zipf:s            per-player multinomial over exact zipf(s) weights
    zipfagg:s:TOTAL   one TOTAL-token multinomial aggregate, then split
    uniform:v         aggregate v at every coordinate
    sparse:density    Bernoulli support, uniform values in [1, 10]
    planted:v:c       c coordinates of value v, the rest ones
    delta:v           single coordinate of value v
    pair:a:b          two coordinates a and b
    file:PATH         aggregate counts, one integer per line

Stream specs for the stream protocols: zipf:s:COUNT draws a fresh
COUNT-token multinomial per trial; file:PATH replays "index delta" lines.
Aggregates are split across players deterministically: player v gets
floor(x/m) plus one unit when v < x mod m, coordinate-wise.  amp's
matrices reach the players by the same rule as their nonzero cells
(``split_cells``), never as a dense (m, n, t) array.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import oracles
from .engine import CODECS, CommStats
from .entropy import EntropyConfig, estimate_entropy, stream_entropy
from .fp_high import FpHighConfig, estimate_fp_high, stream_counts
from .fp_low import (LOGCOSINE_MODES, NETWORK_MIN_P, FpLowConfig, estimate_fp_low,
                     stream_fp_logcosine)
from .heavy_hitters import Cells, CountSketchSpec, heavy_hitters, point_estimate_all
from .matrix_product import AmpConfig, amp_estimate
from .streams import DOMAIN_DATA, DOMAIN_TOPOLOGY, DOMAIN_TRIAL, generator, substream
from .topology import SpanningTree, center, from_spec, parse_spec, spanning_tree

SCHEMA_VERSION = 1

CSV_COLUMNS = ("schema_version", "trial", "estimate", "exact", "error",
               "success", "recovered", "max_edge_bits", "total_bits", "rounds")

# Each protocol's default dist and eps, and amp's t1 and t2 (1 for the
# others); every other field's default is ExperimentSpec's own.
PROTOCOL_DEFAULTS = {
    "fp": dict(dist="zipf:1.1", eps=0.1),
    "hh": dict(dist="planted:1000:1", eps=0.25),
    "entropy": dict(dist="uniform:100", eps=0.2),
    "amp": dict(dist="sparse:0.1", eps=0.25, t1=4, t2=4),
    "stream-fp": dict(dist="zipf:1.3:100000", eps=0.15),
    "stream-entropy": dict(dist="zipf:1.3:100000", eps=0.2),
}
PROTOCOLS = tuple(PROTOCOL_DEFAULTS)

# The dist kinds each generator accepts (see the module docstring), each
# with how many of its ':' fields are required and the type of each field
# it takes.  file:PATH takes the rest of the spec as its path.  zipf's
# third field, the token count, is a stream spec's only.
AGGREGATE_DISTS = {
    "zipfagg": (1, float, int),
    "uniform": (0, int),
    "sparse": (0, float),
    "planted": (1, int, int),
    "delta": (0, int),
    "pair": (2, int, int),
    "file": None,
}
PLAYER_DISTS = {"zipf": (1, float), **AGGREGATE_DISTS}
MATRIX_DISTS = {kind: PLAYER_DISTS[kind] for kind in ("sparse", "zipf", "uniform")}
STREAM_DISTS = {"zipf": (1, float, int), "file": None}

# acceptance success-rate floors enforced under --check
CHECK_THRESHOLDS = {
    "fp": 0.70,
    "hh": 0.95,
    "entropy": 0.70,
    "amp": 0.70,
    "stream-fp": 2.0 / 3.0,
    "stream-entropy": 0.70,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a protocol, its network and data, and its trials.

    ``dist``, ``eps``, ``t1`` and ``t2`` left unset (None) take the
    protocol's default from ``PROTOCOL_DEFAULTS``; every other field's
    default is written below.  The CLI verbs' flags default to the same
    values, so a spec built with a command's flags runs that command's
    experiment.  A bad field raises ValueError when the spec is built.
    """

    protocol: str
    topology: str = "star"
    n: int = 1000
    m: int = 16
    dist: str | None = None
    eps: float | None = None
    trials: int = 100
    seed: int = 0
    p: float | None = None
    t1: int | None = None
    t2: int | None = None
    tokens: int = 5000
    mode: str = "exact-y"
    codec: str = "rounding"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        for name, value in spec_defaults(self.protocol).items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n, m >= 1, got n={self.n} m={self.m}")
        if self.protocol in ("fp", "stream-fp") and self.p is None:
            raise ValueError(f"protocol {self.protocol} requires p")
        if self.protocol == "stream-fp" and not 0.0 < self.p < 1.0:
            raise ValueError(f"stream-fp needs p in (0,1), got {self.p}")
        if self.protocol == "fp" and self.p < NETWORK_MIN_P:
            raise ValueError(f"fp needs p >= {NETWORK_MIN_P}, got {self.p}: below it the "
                             f"sketch's draws overflow float64")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.tokens < 0:
            raise ValueError(f"tokens must be non-negative, got {self.tokens}")
        if self.codec not in CODECS:
            raise ValueError(f"unknown codec {self.codec!r}")
        if self.mode not in LOGCOSINE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        parse_spec(self.topology, self.m)
        if self.protocol.startswith("stream-"):
            _dist_args(self.dist, STREAM_DISTS, "stream spec")
        else:
            kind, args = _dist_args(self.dist, MATRIX_DISTS if self.protocol == "amp"
                                    else PLAYER_DISTS, "distribution")
            # the leading coordinates that planted and pair specs write
            need = _planted_count(args) if kind == "planted" else 2 if kind == "pair" else 1
            if need > self.n:
                raise ValueError(f"distribution {self.dist!r} sets {need} coordinates, "
                                 f"spec says n={self.n}")
        if self.protocol == "hh":  # an eps or n out of range fails here, not in a trial
            CountSketchSpec.shape(self.n, self.eps)
        else:
            self.config()
        # every network protocol sends value vectors; the stream verbs send nothing
        if self.codec != "rounding" and self.protocol.startswith("stream-"):
            raise ValueError(f"codec {self.codec!r} applies only to the network "
                             f"protocols, not to {self.protocol}")

    def config(self) -> FpHighConfig | FpLowConfig | EntropyConfig | AmpConfig:
        """The protocol's accuracy config; hh has none: ``CountSketchSpec`` sizes its table."""
        if self.protocol == "amp":
            return AmpConfig(t1=self.t1, t2=self.t2, eps=self.eps)
        if self.protocol in ("entropy", "stream-entropy"):
            return EntropyConfig(eps=self.eps)
        if self.p > 1.0:
            return FpHighConfig(p=self.p, eps=self.eps)
        return FpLowConfig(p=self.p, eps=self.eps)


def spec_defaults(protocol: str) -> dict:
    """The value each ExperimentSpec field takes for ``protocol`` when left unset."""
    unset = {f.name: f.default for f in fields(ExperimentSpec) if f.name != "protocol"}
    return {**unset, "t1": 1, "t2": 1, **PROTOCOL_DEFAULTS[protocol]}


@dataclass
class TrialReport:
    trial: int
    estimate: float
    exact: float
    error: float
    success: bool
    max_edge_bits: int
    total_bits: int
    rounds: int
    wall_time: float
    recovered: bool | None = None


def split_units(x: np.ndarray, m: int) -> np.ndarray:
    """(m, n) player slices of integer aggregate x; slices sum to x."""
    x = np.asarray(x)
    base, rem = np.divmod(x.astype(np.int64), m)
    out = np.empty((m,) + x.shape)
    out[...] = base
    idx = np.arange(m).reshape((m,) + (1,) * x.ndim)
    out += idx < rem
    return out


def split_cells(x: np.ndarray, m: int) -> Cells:
    """The nonzero cells of ``split_units(x, m)`` for an (n, t) integer aggregate x.

    No (m, n, t) array is built.  A cell of value a goes to every player
    when a >= m, and otherwise to players 0 .. a-1: player v gets
    floor(a/m) plus one unit when v < a mod m.
    """
    n, t = x.shape
    flat = x.ravel()
    at = np.flatnonzero(flat)  # q * t + c
    base, rem = np.divmod(flat[at].astype(np.int64), m)
    shares = np.where(base > 0, m, rem)
    # (cell, player) pairs cell by cell, each cell's players 0 .. shares-1,
    # then stably sorted by player into (player, coordinate, column) order;
    # numpy sorts keys of at most 16 bits by radix, so the key is the
    # smallest unsigned type that holds m - 1
    cell = np.repeat(np.arange(at.size), shares)
    player = np.arange(cell.size) - np.repeat(np.cumsum(shares) - shares, shares)
    order = np.argsort(player.astype(np.min_scalar_type(m - 1)), kind="stable")
    cell, player = cell[order], player[order]
    coord, column = np.divmod(at[cell], t)
    value = base[cell] + (player < rem[cell])
    return Cells((m, n, t), player, coord, column, value.astype(np.float64))


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Exact zipf(s) probabilities over coordinates 1..n."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -s
    return w / w.sum()


def _dist_args(spec: str, kinds: dict[str, tuple | None], what: str) -> tuple[str, list]:
    """(kind, typed fields) of a dist spec; ValueError naming ``spec`` if malformed."""
    kind, *fields = spec.split(":")
    if kind not in kinds:
        raise ValueError(f"unknown {what} {spec!r}; kinds: {', '.join(kinds)}")
    if kind == "file":
        return kind, [":".join(fields)]
    required, *types = kinds[kind]
    if not required <= len(fields) <= len(types):
        count = required if required == len(types) else f"{required} to {len(types)}"
        raise ValueError(f"{what} {spec!r}: {kind} takes {count} field(s)")
    try:
        args = [t(f) for t, f in zip(types, fields)]
    except ValueError:
        names = ", ".join(t.__name__ for t in types)
        raise ValueError(f"{what} {spec!r}: {kind} takes fields of types {names}") from None
    if any(a < 0 for t, a in zip(types, args) if t is int):
        raise ValueError(f"{what} {spec!r}: {kind} takes non-negative counts")
    if not all(map(math.isfinite, args)):
        raise ValueError(f"{what} {spec!r}: {kind} takes finite numbers")
    if kind == "sparse" and args and not 0.0 <= args[0] <= 1.0:
        raise ValueError(f"{what} {spec!r}: sparse takes a density in [0, 1]")
    return kind, args


def _planted_count(args: list) -> int:
    """c of a planted:v[:c] spec's fields."""
    return args[1] if len(args) > 1 else 1


def generate_players(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    """(m, n) per-player counts for one trial."""
    kind, args = _dist_args(spec.dist, PLAYER_DISTS, "distribution")
    n, m = spec.n, spec.m
    if kind == "zipf":
        w = zipf_weights(n, args[0])
        return rng.multinomial(spec.tokens, w, size=m).astype(np.float64)
    return split_units(generate_aggregate(spec, rng), m)


def generate_aggregate(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    """Aggregate count vector for distributions defined on the total."""
    kind, args = _dist_args(spec.dist, AGGREGATE_DISTS, "distribution")
    n = spec.n
    if kind == "zipfagg":
        total = args[1] if len(args) > 1 else spec.tokens * spec.m
        return rng.multinomial(total, zipf_weights(n, args[0])).astype(np.int64)
    if kind in ("uniform", "sparse"):
        return _draw_cells(kind, args, n, rng)
    if kind == "planted":
        x = np.ones(n, dtype=np.int64)
        x[:_planted_count(args)] = args[0]
        return x
    if kind == "delta":
        x = np.zeros(n, dtype=np.int64)
        x[0] = args[0] if args else 1
        return x
    if kind == "pair":
        x = np.zeros(n, dtype=np.int64)
        x[0], x[1] = args
        return x
    path = Path(args[0])  # file:PATH
    try:
        x = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except OSError as exc:
        raise OSError(f"cannot read counts file {path}: {exc}") from exc
    if x.size != n:
        raise ValueError(f"counts file {path} has {x.size} rows, spec says n={n}")
    if (x < 0).any():
        raise ValueError(f"counts file {path} has a negative count on row "
                         f"{np.argmax(x < 0) + 1}")
    return x


def _draw_cells(kind: str, args: list, shape, rng: np.random.Generator) -> np.ndarray:
    """int64 cells of ``shape`` for a uniform:v or sparse:density spec's fields."""
    if kind == "uniform":
        return np.full(shape, args[0] if args else 1, dtype=np.int64)
    support = rng.random(shape) < (args[0] if args else 0.1)
    return np.where(support, rng.integers(1, 11, shape), 0)


def generate_matrix(spec: ExperimentSpec, t: int, rng: np.random.Generator) -> np.ndarray:
    """(n, t) non-negative aggregate matrix for the amp protocol."""
    kind, args = _dist_args(spec.dist, MATRIX_DISTS, "distribution")
    if kind == "zipf":
        cols = rng.multinomial(spec.tokens, zipf_weights(spec.n, args[0]), size=t)
        return cols.T.astype(np.float64)
    return _draw_cells(kind, args, (spec.n, t), rng).astype(np.float64)


def generate_stream(spec: ExperimentSpec, rng: np.random.Generator) -> np.ndarray:
    """Insertion-only update stream for one trial: (updates, 2) int64 rows of
    (index, delta)."""
    kind, args = _dist_args(spec.dist, STREAM_DISTS, "stream spec")
    if kind == "zipf":
        count = args[1] if len(args) > 1 else 10**5
        counts = rng.multinomial(count, zipf_weights(spec.n, args[0]))
        idx = np.flatnonzero(counts)
        return np.column_stack([idx, counts[idx]]).astype(np.int64)
    path = Path(args[0])  # file:PATH
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=2)
    except OSError as exc:
        raise OSError(f"cannot read stream file {path}: {exc}") from exc


def _planted_ids(dist: str) -> list[int]:
    kind, args = _dist_args(dist, PLAYER_DISTS, "distribution")
    return list(range(_planted_count(args))) if kind == "planted" else []


def _build_tree(topology: str, m: int, seed: int) -> SpanningTree:
    """Spanning tree, rooted at a center, of an experiment's topology at seed ``seed``."""
    topo = from_spec(topology, m, substream(seed, DOMAIN_TOPOLOGY))
    return spanning_tree(topo, center(topo))


# The topology seed does not depend on the trial, and only random
# topologies draw from it.  So every trial of an experiment, and every
# experiment on the same (topology, m), and the same seed if random, runs
# on one tree.  Runs in which every vertex sends share the layer schedule
# cached on it; a run with silent vertices builds its own.  SpanningTree
# is frozen with tuple fields, so sharing it is safe.
_shared_tree = functools.lru_cache(maxsize=1)(_build_tree)


def _tree(spec: ExperimentSpec) -> SpanningTree:
    """The tree ``spec``'s network trials run on."""
    kind = spec.topology.partition(":")[0]
    if kind == "file":  # a topology file can change between experiments
        return _build_tree(spec.topology, spec.m, spec.seed)
    return _shared_tree(spec.topology, spec.m, spec.seed if kind == "random" else 0)


def _ratio(num: float, den: float) -> float:
    """num / den for num >= 0, with 0 / 0 = 0 and num / 0 = inf otherwise."""
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _rel_error(estimate: float, exact: float) -> float:
    return _ratio(abs(estimate - exact), abs(exact))


def run_trial(spec: ExperimentSpec, trial: int) -> TrialReport:
    """One protocol execution scored against the exact oracle."""
    start = time.perf_counter()
    data_rng = generator(spec.seed, DOMAIN_DATA, trial)
    pseed = substream(spec.seed, DOMAIN_TRIAL, trial)
    recovered = None

    if spec.protocol.startswith("stream-"):
        stream = generate_stream(spec, data_rng)
        x = stream_counts(stream, spec.n)
        if spec.protocol == "stream-fp":
            est = stream_fp_logcosine(stream, spec.p, spec.eps, mode=spec.mode,
                                      seed=pseed, n=spec.n)
            exact = oracles.lp_norm(x, spec.p)
            error = _rel_error(est, exact)
        else:
            est = stream_entropy(stream, spec.config(), seed=pseed, n=spec.n)
            exact = oracles.entropy_nats(x)
            error = abs(est - exact)
        success = error <= spec.eps
        comm = CommStats(per_edge_bits={}, rounds=0)
    else:
        tree = _tree(spec)
        if spec.protocol == "amp":
            xmat = generate_matrix(spec, spec.t1, data_rng)
            ymat = generate_matrix(spec, spec.t2, data_rng)
            r, comm = amp_estimate(split_cells(xmat, spec.m), split_cells(ymat, spec.m),
                                   tree, spec.config(), pseed, codec=spec.codec)
            exact_mat = oracles.matrix_product(xmat, ymat)
            est = float(np.linalg.norm(r - exact_mat))
            exact = float(np.linalg.norm(xmat) * np.linalg.norm(ymat))
            error = _ratio(est, exact)
            success = error <= spec.eps
        else:
            players = generate_players(spec, data_rng)
            x = players.sum(axis=0)
            if spec.protocol == "fp":
                if spec.p > 1.0:
                    _, est, comm = estimate_fp_high(players, tree, spec.config(), pseed,
                                                    codec=spec.codec)
                else:
                    est, comm = estimate_fp_low(players, tree, spec.config(), pseed,
                                                codec=spec.codec)
                exact = oracles.frequency_moment(x, spec.p)
                error = _rel_error(est, exact)
                success = error <= spec.eps
            elif spec.protocol == "hh":
                cs = CountSketchSpec.build(spec.n, spec.eps, pseed)
                x_tilde, comm, f2_est = point_estimate_all(players, tree, cs, spec.eps,
                                                           pseed, codec=spec.codec)
                est = float(np.max(np.abs(x_tilde - x)))
                tail = oracles.tail_l2(x, math.ceil(1.0 / spec.eps**2))
                exact = spec.eps * tail
                error = _ratio(est, exact)
                hits = heavy_hitters(x_tilde, spec.eps, f2_est)
                recovered = all(q in hits for q in _planted_ids(spec.dist))
                success = error <= 1.0 and recovered
            elif spec.protocol == "entropy":
                h, stats = estimate_entropy(players, tree, spec.config(), pseed,
                                            codec=spec.codec)
                comm = stats.comm
                est = h
                exact = oracles.entropy_nats(x)
                error = abs(est - exact)
                success = error <= spec.eps
            else:  # pragma: no cover
                raise AssertionError(spec.protocol)

    return TrialReport(
        trial=trial,
        estimate=float(est),
        exact=float(exact),
        error=float(error),
        success=bool(success),
        max_edge_bits=comm.max_edge_bits,
        total_bits=comm.total_bits,
        rounds=comm.rounds,
        wall_time=time.perf_counter() - start,
        recovered=recovered,
    )


def run_experiment(spec: ExperimentSpec) -> tuple[list[TrialReport], dict]:
    """All trials plus a summary dict; deterministic given (spec, seed)."""
    reports = [run_trial(spec, t) for t in range(spec.trials)]
    return reports, summarize(spec, reports)


def summarize(spec: ExperimentSpec, reports: list[TrialReport]) -> dict:
    errors = np.array([r.error for r in reports])
    finite = errors[np.isfinite(errors)]

    def quantile(q: float) -> float:
        return float(np.quantile(finite, q)) if finite.size else math.inf

    summary = {
        "schema_version": SCHEMA_VERSION,
        "protocol": spec.protocol,
        "spec": {f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "protocol"},
        "success_rate": sum(r.success for r in reports) / len(reports),
        "error_p50": quantile(0.5),
        "error_p90": quantile(0.9),
        "error_max": float(errors.max()) if errors.size else 0.0,
        "max_edge_bits_mean": float(np.mean([r.max_edge_bits for r in reports])),
        "max_edge_bits_max": int(max(r.max_edge_bits for r in reports)),
        "total_bits_mean": float(np.mean([r.total_bits for r in reports])),
        "rounds_max": int(max(r.rounds for r in reports)),
    }
    if spec.protocol == "hh":
        done = [r.recovered for r in reports if r.recovered is not None]
        summary["recovery_rate"] = sum(done) / len(done) if done else 1.0
    return summary


def check_summary(spec: ExperimentSpec, summary: dict) -> bool:
    """Acceptance-threshold gate used by the CLI --check flag."""
    floor = CHECK_THRESHOLDS[spec.protocol]
    ok = summary["success_rate"] >= floor
    if spec.protocol == "hh":
        ok = ok and summary.get("recovery_rate", 0.0) >= 1.0
    return ok


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, reports: list[TrialReport]) -> None:
    """One row per trial; wall time is deliberately not a column."""
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        row = (SCHEMA_VERSION, r.trial, r.estimate, r.exact, r.error, r.success,
               r.recovered, r.max_edge_bits, r.total_bits, r.rounds)
        lines.append(",".join(_csv_cell(v) for v in row))
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def write_summary(path, summary: dict) -> None:
    try:
        Path(path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                              encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write summary {path}: {exc}") from exc


def comm_scaling(depths=(4, 16, 64, 256), eps: float = 0.25, p: float = 1.5,
                 n: int = 200, trials: int = 8, seed: int = 0) -> dict:
    """Max-communication growth of the fp convergecast on line graphs.

    Runs line topologies of the given diameters on zipf:1.1 players of
    1000 tokens each, averages max_edge_bits per sketch row (k from the
    spec's config, which differs between p <= 1 and p > 1), and fits
    bits = a + b*log2(d).  Returns per-depth rows plus the
    fit and the saving factor over the 64-bit baseline.
    Raises ValueError for a depth below 1 (a one-vertex line sends
    nothing), fewer than two distinct depths (no line to fit), or a p no
    fp protocol takes.
    """
    if min(depths, default=0) < 1 or len(set(depths)) < 2:
        raise ValueError(f"depths must be >= 1 with at least two distinct values, "
                         f"got {list(depths)}")
    rows = []
    for d in depths:
        m = d + 1
        spec = ExperimentSpec(protocol="fp", topology="line", n=n, m=m, dist="zipf:1.1",
                              eps=eps, trials=trials, seed=seed, p=p, tokens=1000)
        k = spec.config().k
        reports, _ = run_experiment(spec)
        per_row = float(np.mean([r.max_edge_bits for r in reports])) / k
        rows.append({"d": d, "m": m, "bits_per_row": per_row,
                     "baseline_ratio": 64.0 / per_row})
    x = np.array([math.log2(r["d"]) for r in rows])
    y = np.array([r["bits_per_row"] for r in rows])
    coeffs = np.polyfit(x, y, 1)
    fitted = np.polyval(coeffs, x)
    resid = np.abs(y - fitted) / fitted
    return {
        "schema_version": SCHEMA_VERSION,
        "eps": eps, "p": p, "n": n, "k": k, "trials": trials, "seed": seed,
        "rows": rows,
        "fit": {"slope": float(coeffs[0]), "intercept": float(coeffs[1]),
                "max_rel_residual": float(resid.max())},
    }

