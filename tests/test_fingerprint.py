"""Behaviour fingerprint: sha256 of the CSV and summary bytes of small specs.

A change that keeps every hash keeps every random draw, estimate and
metered bit of these runs.  A change that moves draws on purpose must
re-pin the hashes in the same commit and say so.  The hashes depend on
numpy's floating-point kernels, so a different numpy build may move
them without any change to sketchcast.  They were pinned with numpy's
AVX-512 kernels off (see ``conftest.py``), so that the host's CPU does not
move them.
"""

import hashlib

import pytest

from sketchcast.harness import ExperimentSpec, run_experiment, write_csv, write_summary

SPECS = {
    "fp-p1.5-star": dict(protocol="fp", p=1.5, topology="star", m=6, n=60,
                         eps=0.25, tokens=200),
    "fp-p0.5-line": dict(protocol="fp", p=0.5, topology="line", m=5, n=60,
                         eps=0.25, tokens=200),
    "entropy-star": dict(protocol="entropy", topology="star", m=6, n=40, eps=0.3,
                         dist="uniform:20"),
    "hh-line": dict(protocol="hh", topology="line", m=4, n=60, eps=0.3,
                    dist="planted:500:1"),
    "amp-star": dict(protocol="amp", topology="star", m=4, n=40, eps=0.3,
                     dist="sparse:0.2", t1=2, t2=2),
    "stream-fp-exact-y": dict(protocol="stream-fp", p=0.5, n=80, eps=0.3,
                              dist="zipf:1.3:2000", mode="exact-y"),
    "stream-fp-morris-y": dict(protocol="stream-fp", p=0.5, n=80, eps=0.3,
                               dist="zipf:1.3:2000", mode="morris-y"),
    "stream-entropy": dict(protocol="stream-entropy", n=80, eps=0.3,
                           dist="zipf:1.3:2000"),
    "fp-p1.5-grid-exact-codec": dict(protocol="fp", p=1.5, topology="grid", m=9, n=60,
                                     eps=0.25, tokens=200, codec="exact"),
    # players at id 10 and up hold nothing, so 54 of amp's 64 payload rows
    # and most hh table cells come from all-zero data
    "amp-grid-sparse": dict(protocol="amp", topology="grid:8x8", m=64, n=40, eps=0.3,
                            dist="sparse:0.2", t1=2, t2=2),
    "hh-grid": dict(protocol="hh", topology="grid:8x8", m=64, n=60, eps=0.3,
                    dist="planted:500:1"),
}

# (sha256 of the CSV, sha256 of the summary JSON) per spec
PINNED = {
    "fp-p1.5-star": (
        "e540423840e1490d87e44e20ff035b52f490e0829ac2d017e28df5302bfbbba0",
        "b678cfa1848267bf3bb5b5e6653e8528d4196d270490b5710c52173ad92a009f",
    ),
    "fp-p0.5-line": (
        "260761471d8337c96578e42c45738958613a2abc046e9a68d9982c82bfe67939",
        "bbfa6f84d1c8c095d318caa04cbf3f8ff9f7adb6e991a905d25139d79690d3eb",
    ),
    "entropy-star": (
        "78e0eba21b1174727f058b1db24aed4512b0c7dd648441bf4c787d427e13b5a2",
        "31653c61d17e181b0e6aac0e0cd41d5dfc8c503d2bae554a41f37530b250ac4b",
    ),
    "hh-line": (
        "fea4dc09079c594e5e0388bf2617deb8b9ce38f94eec7fd9dc598c917e611d2b",
        "3ec5e0ce467dc1dde21ac0ed3e4e869021ad1d728d6d95ba25e45befe51ab7be",
    ),
    "amp-star": (
        "7885b3b21e1c1179f3d60245a48e88c8c82e1e7bf3cc844802bc1a3622a8e198",
        "cd8de03bdfc430a664c7faaa6176e7c3db2785a063875c777a262fcd625bb553",
    ),
    "stream-fp-exact-y": (
        "467c658cd6a4781f270422dad2887edff8a495e7f61b014491393f24e301c22f",
        "a2e76294239a7e628b70c5b16c929271ce59f368fd4110aeae4c760c1fcf432f",
    ),
    "stream-fp-morris-y": (
        "dfc74c8e5ec279f049b1b352ab9408f70d24654c486fcbf309228f8ed5493afe",
        "e246a68b315d956a001a22592e97eccd08378d02a5ecdf335dbe3f409504c90b",
    ),
    "stream-entropy": (
        "c711fcd3cc17377c122ad263a340a4cc6ec182f1813260730e34cba8b5b9fc3a",
        "69f5173776347266744dced39e0ba142629594837173d44b48aa22d10f11efd4",
    ),
    "fp-p1.5-grid-exact-codec": (
        "b4aeff3f1d080c501c47bbb88e45e3729e0e116f0b2b70edf00dc00c3164b600",
        "1b314af5fd6267740982c41a562de20474fe6081fac7b6c2f414545ce4f5922f",
    ),
    "amp-grid-sparse": (
        "05ffc7ef2758e9a1ba4ff2d94bdd7c2f1e09922d1debc53c05b9e5139a2c4f18",
        "977d75b65f7221cf3d7552db36a2dcd6db324850a081aa5acd2c445a3fafeb5a",
    ),
    "hh-grid": (
        "6eadd0b61e168d4110f74739f03ff7941a2d06110d276d35b78d2878ed109dc3",
        "ff4496c1dc308517e542b9b087847b51d37d3d51c4ae65e1bafe75894e7fcaa1",
    ),
}


def run_spec(name, tmp_path):
    spec = ExperimentSpec(trials=3, seed=7, **SPECS[name])
    reports, summary = run_experiment(spec)
    csv, js = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    write_csv(csv, reports)
    write_summary(js, summary)
    return (hashlib.sha256(csv.read_bytes()).hexdigest(),
            hashlib.sha256(js.read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_outputs_match_pinned_hashes(name, tmp_path):
    assert run_spec(name, tmp_path) == PINNED[name]
