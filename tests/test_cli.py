"""CLI verbs: argument wiring, outputs, exit codes, rerun determinism."""

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sketchcast
from sketchcast import harness
from sketchcast.cli import _spec_from_args, build_parser, main
from sketchcast.harness import ExperimentSpec, run_experiment, write_summary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _modules_after_cli_import() -> set[str]:
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import sketchcast, sketchcast.cli; "
             "print('\\n'.join(sorted(sys.modules)))")
    src = Path(sketchcast.__file__).parent.parent
    return set(subprocess.run([sys.executable, "-c", probe, str(src)], capture_output=True,
                              text=True, check=True, timeout=60).stdout.split())


def test_cli_import_loads_every_package_module():
    # a module the command line never imports is one that only tests call
    package = Path(sketchcast.__file__).parent
    modules = {f"sketchcast.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__"}
    assert modules <= _modules_after_cli_import()


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy 2.x loads numpy.random on first use; loading it at import time
    # would add its load time to every run's setup
    assert "numpy.random" not in _modules_after_cli_import()


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "fp"])  # --p is mandatory


def test_simulate_help_names_the_fp_p_floor(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--help"])
    assert "p in [0.05,2]" in capsys.readouterr().out


def test_simulate_fp_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    summary = tmp_path / "summary.json"
    code, stdout, _ = run_cli(
        capsys, "simulate", "fp", "--p", "1.5", "--topology", "star", "--m", "4",
        "--n", "40", "--dist", "zipf:1.1", "--eps", "0.25", "--trials", "3",
        "--seed", "7", "--tokens", "200", "--out", str(out),
        "--summary", str(summary))
    assert code == 0
    assert stdout.startswith("protocol=fp trials=3 ")
    rows = out.read_text(encoding="ascii").splitlines()
    assert len(rows) == 4 and rows[0].startswith("schema_version,trial,")
    loaded = json.loads(summary.read_text(encoding="ascii"))
    assert loaded["protocol"] == "fp" and loaded["spec"]["seed"] == 7


def test_rerun_is_byte_identical(tmp_path, capsys):
    args = ("simulate", "fp", "--p", "0.5", "--m", "3", "--n", "30",
            "--dist", "zipf:1.2", "--eps", "0.25", "--trials", "2",
            "--seed", "3", "--tokens", "100")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sa, sb = tmp_path / "a.json", tmp_path / "b.json"
    code, out1, _ = run_cli(capsys, *args, "--out", str(a), "--summary", str(sa))
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--out", str(b), "--summary", str(sb))
    assert code == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()
    assert sa.read_bytes() == sb.read_bytes()


def test_stream_fp_smoke(capsys):
    code, stdout, _ = run_cli(
        capsys, "stream", "fp", "--p", "0.5", "--updates", "zipf:1.3:2000",
        "--n", "50", "--eps", "0.2", "--trials", "3", "--seed", "1")
    assert code == 0
    assert stdout.startswith("protocol=stream-fp trials=3 ")
    assert "max_edge_bits=0" in stdout


def test_stream_entropy_bits_flag(capsys):
    code, stdout, _ = run_cli(
        capsys, "stream", "entropy", "--updates", "zipf:1.3:2000", "--n", "50",
        "--eps", "0.2", "--trials", "2", "--seed", "1", "--bits")
    assert code == 0
    assert "unit=bits" in stdout


def test_stream_verbs_share_flag_defaults():
    common = dict(command="stream", updates="zipf:1.3:100000", n=1000, trials=100,
                  seed=0, out=None, summary=None, check=False)
    fp = vars(build_parser().parse_args(["stream", "fp", "--p", "0.5"]))
    assert fp == dict(common, protocol="fp", p=0.5, mode="exact-y", eps=0.15)
    ent = vars(build_parser().parse_args(["stream", "entropy"]))
    assert ent == dict(common, protocol="entropy", bits=False, eps=0.2)


@pytest.mark.parametrize("argv, kw", [
    (("simulate", "fp", "--p", "1.5"), dict(p=1.5)),
    (("simulate", "hh"), {}),
    (("simulate", "entropy"), {}),
    (("simulate", "amp"), {}),
    (("stream", "fp", "--p", "0.5"), dict(p=0.5)),
    (("stream", "entropy"), {}),
], ids=["fp", "hh", "entropy", "amp", "stream-fp", "stream-entropy"])
def test_bare_command_builds_the_protocols_default_spec(argv, kw):
    protocol = argv[1] if argv[0] == "simulate" else f"stream-{argv[1]}"
    spec = _spec_from_args(build_parser().parse_args(argv))
    assert spec == ExperimentSpec(protocol, **kw)


def test_spec_with_a_commands_flags_reproduces_its_summary(tmp_path, capsys):
    flags = dict(topology="grid:8x8", m=64, n=200, tokens=200, dist="zipf:1.1", trials=20)
    cli_json, spec_json = tmp_path / "cli.json", tmp_path / "spec.json"
    argv = [arg for name, value in flags.items() for arg in (f"--{name}", str(value))]
    assert run_cli(capsys, "simulate", "amp", *argv, "--summary", str(cli_json))[0] == 0
    write_summary(spec_json, run_experiment(ExperimentSpec("amp", **flags))[1])
    assert spec_json.read_bytes() == cli_json.read_bytes()


def test_bare_bench_comms_runs_comm_scaling_with_its_defaults(capsys, monkeypatch):
    calls = []

    # the CLI reads its bench flags from this signature, which wraps keeps
    @functools.wraps(harness.comm_scaling)
    def record(**kw):
        calls.append(kw)
        return {"rows": [], "fit": dict(slope=0.0, intercept=0.0, max_rel_residual=0.0)}

    monkeypatch.setattr(sketchcast.cli, "comm_scaling", record)
    assert run_cli(capsys, "bench", "comms")[0] == 0
    params = inspect.signature(harness.comm_scaling).parameters
    assert calls == [{name: param.default for name, param in params.items()}]


def test_simulate_entropy_smoke(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "entropy", "--m", "3", "--n", "20",
        "--dist", "uniform:50", "--eps", "0.2", "--trials", "2", "--seed", "2")
    assert code == 0
    assert stdout.startswith("protocol=entropy ")


def test_simulate_amp_smoke(capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "amp", "--t1", "2", "--t2", "2", "--m", "4",
        "--n", "50", "--dist", "sparse:0.2", "--eps", "0.25", "--trials", "2",
        "--seed", "5")
    assert code == 0
    assert stdout.startswith("protocol=amp ")


@pytest.mark.parametrize("argv", [
    ("fp", "--p", "1.5"),
    ("amp", "--dist", "uniform:1"),
])
def test_one_player_one_coordinate_sends_nothing(capsys, argv):
    # log2(n*m) is 0 here, and the rounding grid must not divide by it
    code, stdout, _ = run_cli(capsys, "simulate", *argv, "--m", "1", "--n", "1",
                              "--trials", "1")
    assert code == 0
    assert "max_edge_bits=0" in stdout


def test_check_flag_fails_when_no_heavy_hitter_exists(capsys):
    # uniform ones leave nothing above the threshold, so the planted
    # coordinate is never "recovered" and --check must exit 2
    code, _, stderr = run_cli(
        capsys, "simulate", "hh", "--dist", "planted:1:1", "--m", "3", "--n", "200",
        "--eps", "0.25", "--trials", "2", "--seed", "0", "--check")
    assert code == 2
    assert "check failed" in stderr


def test_check_flag_passes_on_easy_instance(capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "fp", "--p", "1.5", "--m", "3", "--n", "30",
        "--dist", "uniform:10", "--eps", "0.25", "--trials", "5", "--seed", "0",
        "--tokens", "100", "--check")
    assert code == 0 and stderr == ""


def test_missing_topology_file_exits_one(capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "fp", "--p", "1.5", "--topology", "file:/nonexistent/t.txt",
        "--m", "3", "--n", "20", "--trials", "1")
    assert code == 1
    assert stderr.startswith("error:")


def test_missing_counts_file_exits_one(capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "fp", "--p", "1.5", "--dist", "file:/nonexistent/c.txt",
        "--m", "3", "--n", "20", "--trials", "1")
    assert code == 1
    assert stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("simulate", "fp", "--p", "0"),
    ("simulate", "fp", "--p", "1.5", "--eps", "0.6"),
    ("stream", "fp", "--p", "1.5"),
    ("simulate", "fp", "--p", "1.5", "--seed", "-1"),
    # the p>1 sketch, 1200 x 1e5 cells, is over the sketch cap (MemoryError)
    ("simulate", "fp", "--p", "1.5", "--eps", "0.1", "--n", "100000"),
    # the network verb takes p = 1, the stream verb does not
    ("stream", "fp", "--p", "1.0"),
    # a one-vertex line sends nothing; one distinct depth fits no slope
    ("bench", "comms", "--depths", "0"),
    ("bench", "comms", "--depths", "16"),
    ("bench", "comms", "--depths", "16,16"),
    # no fp protocol takes p > 2
    ("bench", "comms", "--p", "2.5"),
    # a negative density would run on all-zero data and report success
    ("simulate", "amp", "--dist", "sparse:-1"),
    # below p = 0.05 the network fp sketch's draws overflow float64
    ("simulate", "fp", "--p", "0.04"),
    ("bench", "comms", "--p", "0.04"),
])
def test_invalid_value_exits_one_with_one_error_line(argv):
    src = Path(sketchcast.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "sketchcast.cli", *argv, "--trials", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_bench_comms_smoke(tmp_path, capsys):
    summary = tmp_path / "scaling.json"
    code, stdout, _ = run_cli(
        capsys, "bench", "comms", "--depths", "2,4", "--n", "30", "--trials", "1",
        "--summary", str(summary))
    assert code == 0
    assert stdout.count("baseline_ratio=") == 2
    assert "fit: slope=" in stdout
    loaded = json.loads(summary.read_text(encoding="ascii"))
    assert [r["d"] for r in loaded["rows"]] == [2, 4]


def test_bench_comms_runs_the_counter_protocol_below_p_one(capsys):
    code, stdout, _ = run_cli(capsys, "bench", "comms", "--p", "0.5", "--depths", "2,4",
                              "--n", "30", "--trials", "1")
    assert code == 0
    assert stdout.count("baseline_ratio=") == 2
