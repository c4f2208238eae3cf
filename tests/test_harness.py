"""Trial harness: data generation, scoring, summaries, file outputs."""

import dataclasses
import importlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_topology
from sketchcast import (
    engine,
    entropy,
    fp_high,
    fp_low,
    harness,
    matrix_product,
    morris,
)
from sketchcast.harness import (
    CSV_COLUMNS,
    ExperimentSpec,
    TrialReport,
    _planted_ids,
    _rel_error,
    check_summary,
    comm_scaling,
    generate_aggregate,
    generate_matrix,
    generate_players,
    generate_stream,
    run_experiment,
    run_trial,
    split_units,
    summarize,
    write_csv,
    write_summary,
    zipf_weights,
)
from sketchcast.heavy_hitters import CountSketchSpec
from sketchcast.stable import StableSketch
from sketchcast.topology import Topology, line, star


def rng_for(seed=0):
    return np.random.default_rng(seed)


def test_spec_validation():
    ExperimentSpec(protocol="fp", p=1.5)
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="median")
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="hh", trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="hh", n=0)
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="fp")  # p is mandatory for moments
    with pytest.raises(ValueError):
        ExperimentSpec(protocol="stream-fp")
    with pytest.raises(ValueError, match="stream-fp needs p in"):
        ExperimentSpec(protocol="stream-fp", p=1.5)
    ExperimentSpec(protocol="fp", p=1.0)
    ExperimentSpec(protocol="fp", p=0.1)
    for p in (0.0, 2.5):  # fp runs p in [0.1,1] or (1,2]
        with pytest.raises(ValueError):
            ExperimentSpec(protocol="fp", p=p)
    ExperimentSpec(protocol="stream-fp", p=0.05)  # the stream verb keeps (0,1)
    # eps outside the protocol config's range fails here, not in the first trial
    for kw in (dict(protocol="fp", p=1.5, eps=0.6), dict(protocol="entropy", eps=1.5),
               dict(protocol="amp", eps=0), dict(protocol="hh", eps=2.0),
               dict(protocol="stream-fp", p=0.5, eps=1.2)):
        with pytest.raises(ValueError, match="eps"):
            ExperimentSpec(**kw)
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(protocol="fp", p=1.5, seed=-1)
    # hh's range is its count-sketch's, 0 < eps < 1, wider than an F_2 run's eps < 1/2
    ExperimentSpec(protocol="hh", eps=0.5)
    ExperimentSpec(protocol="hh", eps=0.9)


@pytest.mark.parametrize("kw, match", [
    (dict(protocol="fp", p=1.5, codec="bogus"), "unknown codec 'bogus'"),
    (dict(protocol="stream-fp", p=0.5, mode="bogus"), "unknown mode 'bogus'"),
    (dict(protocol="fp", p=1.5, dist="bogus:1"), "unknown distribution 'bogus:1'"),
    (dict(protocol="fp", p=1.5, topology="bogus"), "unknown topology spec 'bogus'"),
    (dict(protocol="amp", dist="planted:5:1"), "unknown distribution 'planted:5:1'"),
    (dict(protocol="stream-fp", p=0.5, dist="uniform:3"), "unknown stream spec 'uniform:3'"),
    (dict(protocol="hh", n=1), "need n >= 2 coordinates, got 1"),
    # the count sketch needs two coordinates whatever the codec
    (dict(protocol="hh", n=1, codec="exact"), "need n >= 2 coordinates, got 1"),
    (dict(protocol="fp", p=1.5, topology="grid:4x4", m=9),
     "topology spec 'grid:4x4' has 16 vertices, spec says m=9"),
    (dict(protocol="fp", p=1.5, topology="grid:3by3", m=9), "topology spec 'grid:3by3'"),
    (dict(protocol="fp", p=1.5, topology="random:x"), "topology spec 'random:x'"),
    (dict(protocol="fp", p=1.5, topology="line:5"), "topology spec 'line:5'"),
    (dict(protocol="fp", p=1.5, dist="zipf:abc"), "distribution 'zipf:abc'"),
    (dict(protocol="fp", p=1.5, dist="zipf"), "distribution 'zipf'"),
    (dict(protocol="hh", dist="planted:5:x"), "distribution 'planted:5:x'"),
    (dict(protocol="hh", n=100, dist="planted:5:2000"),
     "distribution 'planted:5:2000' sets 2000 coordinates, spec says n=100"),
    (dict(protocol="fp", p=1.5, n=1, dist="pair:1:2"), "distribution 'pair:1:2' sets 2"),
    (dict(protocol="amp", dist="sparse:0.1:2"), "distribution 'sparse:0.1:2'"),
    (dict(protocol="stream-fp", p=0.5, dist="zipf:1.3:many"), "stream spec 'zipf:1.3:many'"),
    # zipf's token-count field is a stream spec's only
    (dict(protocol="fp", p=1.5, dist="zipf:1.1:7"), "distribution 'zipf:1.1:7'"),
    (dict(protocol="amp", dist="zipf:1.1:7"), "distribution 'zipf:1.1:7'"),
    # every network protocol sends value vectors, which is what a codec
    # encodes; the stream verbs send nothing, in either mode
    (dict(protocol="stream-fp", p=0.5, mode="morris-y", codec="exact"),
     "codec 'exact' applies only"),
    (dict(protocol="stream-entropy", n=50, codec="exact"), "codec 'exact' applies only"),
    (dict(protocol="stream-fp", p=0.5, codec="exact"), "codec 'exact' applies only"),
    (dict(protocol="stream-entropy", codec="exact"), "codec 'exact' applies only"),
    # a density outside [0, 1] would run on wrong data, and a negative count
    # or token total or a non-finite exponent would fail inside a trial
    (dict(protocol="amp", dist="sparse:-1"), "distribution 'sparse:-1': sparse takes a density"),
    (dict(protocol="amp", dist="sparse:1.5"), "distribution 'sparse:1.5': sparse takes a density"),
    (dict(protocol="fp", p=1.5, tokens=-1), "tokens must be non-negative, got -1"),
    (dict(protocol="hh", dist="zipfagg:1.1:-3"), "distribution 'zipfagg:1.1:-3': zipfagg takes non"),
    (dict(protocol="stream-fp", p=0.5, dist="zipf:1.3:-10"), "stream spec 'zipf:1.3:-10'"),
    (dict(protocol="hh", dist="uniform:-2"), "distribution 'uniform:-2': uniform takes non"),
    (dict(protocol="hh", dist="planted:-5:1"), "distribution 'planted:-5:1': planted takes non"),
    (dict(protocol="hh", dist="planted:5:-1"), "distribution 'planted:5:-1': planted takes non"),
    (dict(protocol="hh", dist="delta:-3"), "distribution 'delta:-3': delta takes non"),
    (dict(protocol="hh", dist="pair:4:-2"), "distribution 'pair:4:-2': pair takes non"),
    (dict(protocol="fp", p=1.5, dist="zipf:nan"), "distribution 'zipf:nan': zipf takes finite"),
    (dict(protocol="stream-fp", p=0.5, dist="zipf:inf:10"), "stream spec 'zipf:inf:10'"),
    # below p = 0.05 the network sketch's draws overflow float64
    (dict(protocol="fp", p=0.04), "fp needs p >= 0.05, got 0.04"),
])
def test_spec_rejects_unknown_kinds_when_built(kw, match):
    # each of these used to fail only inside the first trial
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(**kw)


def test_spec_checks_a_topology_file_against_m(tmp_path):
    path = tmp_path / "t.txt"
    write_topology(line(4), path)
    ExperimentSpec(protocol="fp", p=1.5, topology=f"file:{path}", m=4)
    with pytest.raises(ValueError, match=f"topology spec 'file:{path}' has 4 vertices"):
        ExperimentSpec(protocol="fp", p=1.5, topology=f"file:{path}", m=5)


def test_configs_hold_only_the_values_callers_set():
    # accuracy constants are ClassVars: readable on a config, not settable
    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(fp_high.FpHighConfig) == ("p", "eps")
    assert fields(fp_low.FpLowConfig) == ("p", "eps")
    assert fields(entropy.EntropyConfig) == ("eps",)
    assert fields(matrix_product.AmpConfig) == ("t1", "t2", "eps")
    assert fields(StableSketch) == ("k", "n", "eta", "seed", "p", "skewed")
    assert fields(Topology) == ("m", "edges")
    # the rounding grid is sized inside the engine, from values, not a callable
    params = inspect.signature(engine.sum_convergecast).parameters
    assert list(params) == ["codec", "payloads", "tree", "seed", "eps", "delta", "n", "M"]
    assert list(inspect.signature(CountSketchSpec.build).parameters) == ["n", "eps", "seed"]
    assert list(inspect.signature(morris.counter_base_offset).parameters) == [
        "eps", "delta", "n", "p"]


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_split_units_conserves_and_balances(values, m):
    x = np.array(values, dtype=np.int64)
    out = split_units(x, m)
    assert out.shape == (m, x.size)
    assert np.array_equal(out.sum(axis=0), x)
    assert out.min() >= 0
    assert (out.max(axis=0) - out.min(axis=0)).max() <= 1


def test_zipf_weights():
    w = zipf_weights(100, 1.5)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-12)
    assert np.all(np.diff(w) < 0)
    assert math.isclose(w[0] / w[1], 2.0**1.5, rel_tol=1e-12)


def test_generate_aggregate_zipfagg_and_uniform():
    spec = ExperimentSpec(protocol="hh", n=50, dist="zipfagg:1.2:500")
    x = generate_aggregate(spec, rng_for())
    assert x.sum() == 500 and x.size == 50
    spec = ExperimentSpec(protocol="hh", n=8, dist="uniform:7")
    assert np.array_equal(generate_aggregate(spec, rng_for()), np.full(8, 7))
    spec = ExperimentSpec(protocol="hh", n=8, dist="uniform")
    assert np.array_equal(generate_aggregate(spec, rng_for()), np.full(8, 1))


def test_generate_aggregate_sparse_planted_delta_pair():
    spec = ExperimentSpec(protocol="hh", n=1000, dist="sparse:0.5")
    x = generate_aggregate(spec, rng_for(1))
    assert set(np.unique(x)) <= set(range(11))
    assert 300 < np.count_nonzero(x) < 700

    spec = ExperimentSpec(protocol="hh", n=10, dist="planted:1000:2")
    x = generate_aggregate(spec, rng_for())
    assert list(x[:2]) == [1000, 1000] and set(x[2:]) == {1}
    with pytest.raises(ValueError):
        generate_aggregate(ExperimentSpec(protocol="hh", n=3, dist="planted:9:4"),
                           rng_for())

    spec = ExperimentSpec(protocol="hh", n=4, dist="delta:5")
    assert list(generate_aggregate(spec, rng_for())) == [5, 0, 0, 0]
    spec = ExperimentSpec(protocol="hh", n=4, dist="pair:9000:1000")
    assert list(generate_aggregate(spec, rng_for())) == [9000, 1000, 0, 0]


def test_generate_aggregate_file_round_trip(tmp_path):
    path = tmp_path / "counts.txt"
    np.savetxt(path, np.array([3, 1, 4, 1]), fmt="%d")
    spec = ExperimentSpec(protocol="hh", n=4, dist=f"file:{path}")
    assert list(generate_aggregate(spec, rng_for())) == [3, 1, 4, 1]
    with pytest.raises(ValueError):
        generate_aggregate(dataclasses.replace(spec, n=5), rng_for())
    np.savetxt(path, np.array([3, 1, -4, 1]), fmt="%d")
    with pytest.raises(ValueError, match=f"counts file {path} has a negative count on row 3"):
        generate_aggregate(spec, rng_for())
    missing = ExperimentSpec(protocol="hh", n=4, dist=f"file:{tmp_path}/no.txt")
    with pytest.raises(OSError):
        generate_aggregate(missing, rng_for())
    with pytest.raises(ValueError):
        generate_aggregate(ExperimentSpec(protocol="hh", dist="cantor"), rng_for())


def test_generate_players_zipf_rows_sum_to_tokens():
    spec = ExperimentSpec(protocol="fp", p=1.5, n=40, m=6, dist="zipf:1.1",
                          tokens=500)
    players = generate_players(spec, rng_for(3))
    assert players.shape == (6, 40)
    assert np.array_equal(players.sum(axis=1), np.full(6, 500.0))


def test_generate_players_split_distributions_conserve():
    spec = ExperimentSpec(protocol="fp", p=1.5, n=10, m=4, dist="planted:100:1")
    players = generate_players(spec, rng_for())
    total = players.sum(axis=0)
    assert total[0] == 100.0 and set(total[1:]) == {1.0}


def test_generate_matrix_forms():
    spec = ExperimentSpec(protocol="amp", n=30, dist="sparse:0.3")
    mat = generate_matrix(spec, 4, rng_for(2))
    assert mat.shape == (30, 4) and mat.min() >= 0
    spec = ExperimentSpec(protocol="amp", n=30, dist="zipf:1.5", tokens=200)
    mat = generate_matrix(spec, 3, rng_for(2))
    assert np.array_equal(mat.sum(axis=0), np.full(3, 200.0))
    spec = ExperimentSpec(protocol="amp", n=5, dist="uniform:2")
    assert np.array_equal(generate_matrix(spec, 2, rng_for()), np.full((5, 2), 2.0))
    with pytest.raises(ValueError):
        generate_matrix(ExperimentSpec(protocol="amp", dist="pair:1:1"), 2, rng_for())


def test_generate_stream_forms(tmp_path):
    spec = ExperimentSpec(protocol="stream-fp", p=0.5, n=20, dist="zipf:1.3:400")
    stream = generate_stream(spec, rng_for(4))
    assert stream.dtype == np.int64 and stream.shape[1] == 2
    assert stream[:, 1].sum() == 400
    assert np.all((0 <= stream[:, 0]) & (stream[:, 0] < 20) & (stream[:, 1] > 0))

    path = tmp_path / "s.txt"
    path.write_text("0 5\n3 2\n", encoding="ascii")
    spec = ExperimentSpec(protocol="stream-fp", p=0.5, n=4, dist=f"file:{path}")
    got = generate_stream(spec, rng_for())
    assert got.dtype == np.int64 and np.array_equal(got, [[0, 5], [3, 2]])
    with pytest.raises(ValueError):
        generate_stream(ExperimentSpec(protocol="stream-fp", p=0.5, dist="delta:1"),
                        rng_for())


@pytest.mark.parametrize("protocol", ["stream-fp", "stream-entropy"])
@pytest.mark.parametrize("line, index", [("12 2", 12), ("-1 2", -1)])
def test_file_stream_index_outside_n_is_rejected(tmp_path, protocol, line, index):
    # 12 once raised IndexError in the trial loop, and -1 was added to x[-1]
    path = tmp_path / "s.txt"
    path.write_text(f"0 5\n{line}\n", encoding="ascii")
    spec = ExperimentSpec(protocol=protocol, p=0.5, n=10, dist=f"file:{path}", trials=1)
    with pytest.raises(ValueError, match=rf"index {index} outside \[0, 10\)"):
        run_trial(spec, 0)


def test_planted_ids():
    assert _planted_ids("planted:1000:3") == [0, 1, 2]
    assert _planted_ids("planted:7") == [0]
    assert _planted_ids("zipf:1.1") == []


def test_rel_error_handles_zero_exact():
    assert _rel_error(0.0, 0.0) == 0.0
    assert _rel_error(1.0, 0.0) == math.inf
    assert _rel_error(11.0, 10.0) == pytest.approx(0.1)


def test_run_trial_is_deterministic_up_to_wall_time():
    spec = ExperimentSpec(protocol="fp", p=1.5, n=50, m=4, dist="zipf:1.1",
                          eps=0.25, trials=1, seed=9, tokens=200)
    a = run_trial(spec, 0)
    b = run_trial(spec, 0)
    a_dict, b_dict = dataclasses.asdict(a), dataclasses.asdict(b)
    a_dict.pop("wall_time"), b_dict.pop("wall_time")
    assert a_dict == b_dict
    assert run_trial(spec, 1).estimate != a.estimate


def test_all_zero_inputs_count_as_success():
    zero_specs = [
        ExperimentSpec(protocol="fp", p=1.5, n=8, m=3, dist="delta:0", trials=1),
        ExperimentSpec(protocol="fp", p=0.5, n=8, m=3, dist="delta:0", trials=1),
        ExperimentSpec(protocol="hh", n=8, m=3, dist="delta:0", trials=1, eps=0.25),
        ExperimentSpec(protocol="amp", n=8, m=3, dist="uniform:0", trials=1, eps=0.25),
    ]
    for spec in zero_specs:
        report = run_trial(spec, 0)
        assert report.success, spec.protocol
        assert report.estimate == 0.0 and report.error == 0.0


def test_zero_stream_norm_counts_as_success(tmp_path):
    path = tmp_path / "z.txt"
    path.write_text("0 0\n1 0\n", encoding="ascii")
    spec = ExperimentSpec(protocol="stream-fp", p=0.5, n=4, dist=f"file:{path}",
                          trials=1)
    assert run_trial(spec, 0).success


def test_entropy_rejects_all_zero_aggregate():
    # entropy of the zero vector is undefined, so this is a domain error
    # rather than a vacuous success
    spec = ExperimentSpec(protocol="entropy", n=8, m=3, dist="delta:0", trials=1)
    with pytest.raises(ValueError):
        run_trial(spec, 0)


def fake_report(trial, error, success, recovered=None):
    return TrialReport(trial=trial, estimate=1.0, exact=1.0, error=error,
                       success=success, max_edge_bits=100 + trial, total_bits=500,
                       rounds=2, wall_time=0.01, recovered=recovered)


def test_summarize_fields():
    spec = ExperimentSpec(protocol="fp", p=1.5, trials=4)
    reports = [fake_report(0, 0.1, True), fake_report(1, 0.2, True),
               fake_report(2, math.inf, False), fake_report(3, 0.4, True)]
    s = summarize(spec, reports)
    assert s["success_rate"] == 0.75
    assert s["error_p50"] == pytest.approx(0.2)
    assert s["error_max"] == math.inf
    assert s["max_edge_bits_max"] == 103
    assert s["rounds_max"] == 2
    assert s["spec"]["n"] == spec.n and s["protocol"] == "fp"
    assert "recovery_rate" not in s


def test_summarize_recovery_rate():
    spec = ExperimentSpec(protocol="hh", trials=2)
    reports = [fake_report(0, 0.1, True, recovered=True),
               fake_report(1, 0.2, False, recovered=False)]
    assert summarize(spec, reports)["recovery_rate"] == 0.5


def test_check_summary_thresholds():
    spec = ExperimentSpec(protocol="fp", p=1.5)
    assert check_summary(spec, {"success_rate": 0.70})
    assert not check_summary(spec, {"success_rate": 0.69})
    hh = ExperimentSpec(protocol="hh")
    assert check_summary(hh, {"success_rate": 0.95, "recovery_rate": 1.0})
    assert not check_summary(hh, {"success_rate": 0.95, "recovery_rate": 0.99})


def test_write_csv_golden_bytes(tmp_path):
    reports = [fake_report(0, 0.125, True, recovered=None),
               fake_report(1, math.inf, False, recovered=True)]
    path = tmp_path / "out.csv"
    write_csv(path, reports)
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "1,0,1.0,1.0,0.125,1,,100,500,2"
    assert lines[2] == "1,1,1.0,1.0,inf,0,1,101,500,2"
    write_csv(tmp_path / "again.csv", reports)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_write_summary_json(tmp_path):
    path = tmp_path / "sum.json"
    write_summary(path, {"b": 1, "a": {"z": 2}})
    loaded = json.loads(path.read_text(encoding="ascii"))
    assert loaded == {"b": 1, "a": {"z": 2}}
    assert path.read_text(encoding="ascii").index('"a"') < \
        path.read_text(encoding="ascii").index('"b"')


def test_run_experiment_matches_manual_trials():
    spec = ExperimentSpec(protocol="fp", p=1.5, n=40, m=4, dist="zipf:1.1",
                          eps=0.25, trials=3, seed=2, tokens=100)
    reports, summary = run_experiment(spec)
    assert [r.trial for r in reports] == [0, 1, 2]
    assert summary["success_rate"] == sum(r.success for r in reports) / 3
    want = run_trial(spec, 1)
    assert reports[1].estimate == want.estimate


@pytest.mark.parametrize("protocol,p,builds", [
    ("fp", 1.5, 1), ("fp", 0.5, 1), ("hh", None, 1), ("entropy", None, 1),
    ("amp", None, 1), ("stream-fp", 0.5, 0), ("stream-entropy", None, 0),
])
def test_run_trial_builds_one_tree_per_network_trial(monkeypatch, protocol, p, builds):
    # and runs one convergecast on it: hh takes its F_2 from the count-sketch table
    calls = {"center": 0, "spanning_tree": 0, "run_convergecast": 0}
    for module, name in ((harness, "center"), (harness, "spanning_tree"),
                         (engine, "run_convergecast")):
        def counted(*args, name=name, fn=getattr(module, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    dist = "zipf:1.3:1000" if protocol.startswith("stream-") else "zipf:1.1"
    spec = ExperimentSpec(protocol=protocol, p=p, topology="grid", n=64, m=6, dist=dist,
                          eps=0.25, trials=1, tokens=200)
    harness._shared_tree.cache_clear()  # an earlier test may have built this tree
    run_trial(spec, 0)
    assert calls == {"center": builds, "spanning_tree": builds, "run_convergecast": builds}


def _count_trees(monkeypatch) -> list:
    """Record every tree ``run_trial`` builds, starting from an empty tree cache."""
    trees = []

    def counted(topo, root, fn=harness.spanning_tree):
        trees.append(fn(topo, root))
        return trees[-1]

    monkeypatch.setattr(harness, "spanning_tree", counted)
    harness._shared_tree.cache_clear()
    return trees


def test_experiments_on_one_network_share_its_tree(monkeypatch):
    trees = _count_trees(monkeypatch)
    base = dict(topology="random", n=40, m=8, eps=0.25, trials=2, tokens=100)
    fp, _ = run_experiment(ExperimentSpec("fp", p=1.5, **base))
    run_experiment(ExperimentSpec("entropy", **base))
    assert len(trees) == 1
    run_experiment(ExperimentSpec("entropy", seed=1, **base))
    assert len(trees) == 2
    # the cached tree gives the trials they gave when each built its own
    harness._shared_tree.cache_clear()
    again, _ = run_experiment(ExperimentSpec("fp", p=1.5, **base))
    assert [dataclasses.replace(r, wall_time=0.0) for r in again] == \
        [dataclasses.replace(r, wall_time=0.0) for r in fp]


def test_a_rewritten_topology_file_is_read_again(monkeypatch, tmp_path):
    trees = _count_trees(monkeypatch)
    path = tmp_path / "t.txt"
    write_topology(line(4), path)
    spec = ExperimentSpec(protocol="fp", p=1.5, topology=f"file:{path}", n=40, m=4,
                          eps=0.25, trials=2, tokens=100)
    run_experiment(spec)
    write_topology(star(4), path)
    reports, _ = run_experiment(spec)
    assert [t.depth for t in trees] == [2, 2, 1, 1]
    assert [r.rounds for r in reports] == [1, 1]


def test_protocols_take_the_tree_not_a_topology():
    # By module path: the package rebinds the name heavy_hitters to its function.
    for protocol in ("fp_high", "fp_low", "entropy", "heavy_hitters", "matrix_product"):
        module = importlib.import_module(f"sketchcast.{protocol}")
        assert inspect.ismodule(module)
        for name in ("Topology", "center", "spanning_tree"):
            assert not hasattr(module, name), (module.__name__, name)


def test_comm_scaling_smoke():
    out = comm_scaling(depths=(2, 4), eps=0.25, n=30, trials=2)
    assert [r["d"] for r in out["rows"]] == [2, 4]
    for row in out["rows"]:
        assert row["bits_per_row"] > 0
        assert row["baseline_ratio"] == 64.0 / row["bits_per_row"]
    assert set(out["fit"]) == {"slope", "intercept", "max_rel_residual"}


def test_comm_scaling_bits_grow_at_most_a_bit_and_a_half_per_doubling_of_depth():
    # a small-scale copy of the log d law: the rounded wire's bits per row
    # on lines of depth 4, 16 and 64, at p = 1.5 (slope 1.27, 19.2 bits at
    # d = 64) and p = 0.5 (slope 1.27; 15.3, 17.6 and 20.3 bits, where a
    # row once sent as two Morris states in fixed fields took at least 122)
    for p in (1.5, 0.5):
        out = comm_scaling(depths=(4, 16, 64), p=p, trials=3, seed=0)
        assert out["fit"]["slope"] <= 1.6, p
        assert all(row["bits_per_row"] <= 24 for row in out["rows"]), p
    assert out["k"] == fp_low.FpLowConfig(0.5, 0.25).k


def test_comm_scaling_counter_bits_stay_under_the_old_fixed_field():
    # At p < 1 each sketch row once travelled as an insertion and a
    # deletion Morris state in a fixed field of 2 * (bit length of the
    # state bound + 1) bits: at least 122/136/152 bits at depths 4/16/64
    # (M = 1, its smallest).  The rounded rows cost 15.3, 17.6 and 20.3.
    # The state bound after ``total`` updates at base offset ``bm1`` was
    # min(total, 8 * (log_b(1 + total * bm1) + 64)).
    out = comm_scaling(depths=(4, 16, 64), p=0.5, trials=3, seed=0)
    cfg = fp_low.FpLowConfig(p=0.5, eps=0.25)
    assert out["k"] == cfg.k
    n, bm1 = out["n"], cfg.base_minus_one(out["n"])
    for row in out["rows"]:
        total = row["m"] * n * (n * row["m"]) ** 3 / cfg.eta
        worst = min(total, 8.0 * (math.log1p(total * bm1) / math.log1p(bm1) + 64.0))
        fixed = 2 * max(1, int(worst).bit_length() + 1)
        assert row["bits_per_row"] < fixed
