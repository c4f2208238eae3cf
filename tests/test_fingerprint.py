"""Behaviour fingerprint: sha256 of the CSV and summary bytes of small specs.

A change that keeps every hash keeps every random draw, estimate and
metered bit of these runs.  A change that moves draws on purpose must
re-pin the hashes in the same commit and say so.  The hashes depend on
numpy's floating-point kernels, so a different numpy build may move
them without any change to sketchcast.
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
}

# (sha256 of the CSV, sha256 of the summary JSON) per spec
PINNED = {
    "fp-p1.5-star": (
        "b0b3f5f7b8a3e55feb03ac977744bd5a68d0c7edf0696d4e3b34ece8c7958c9e",
        "f1208c102ca785de61a9cdb77ad656355f07a0a78c23feb888aec111b3a2aec5",
    ),
    "fp-p0.5-line": (
        "9e84b4c3af7cb9dfdb98c5becbf85b49c20dcde223c5e29e8d140bd0691aa9cf",
        "d3cb3666d90a243c881fb6340a3f2e9a48f6f152a50151ee71b8465bc2dc873e",
    ),
    "entropy-star": (
        "5d89377364a1c569517846f2b2e3464f06dc2b1caa2f71f452f433aed75a45a2",
        "958dac8e7e11f88251f112db0711af289a5023d91610157b8b66aada05a9b9fe",
    ),
    "hh-line": (
        "ba03e30c2e8f91f01965c4aa1031f8e6e080d1ddbcfd217fa1a66a88fd9a8fec",
        "ff11f08eaaf2c723f7657ff27641a9f7cf797fb983d8f78a2ae7b8d84f133936",
    ),
    "amp-star": (
        "680b83349786d2b9e18062e7603f76a65aac1aa333611424ef5535090865e89e",
        "ea940689345562fbd364e95810427dfb2d85275524925f12dcdb1900a124e05b",
    ),
    "stream-fp-exact-y": (
        "286ae4411bf6171f0e7b7d952d6e5eaf458f3ac33a1a7bb6b425a151989038a1",
        "204f913d0fcfd3578c6d9fa98717112da8d9f4a8fc6821813d1587c735370f58",
    ),
    "stream-fp-morris-y": (
        "1d27a9ae1b66324e0c3379d3b644748462cf7efd8d14d9573f5618ae57cae912",
        "64bf549730c4ea86b88e49ef584e17bc1da507e83f2c90602c2f69cbaad9c46d",
    ),
    "stream-entropy": (
        "c711fcd3cc17377c122ad263a340a4cc6ec182f1813260730e34cba8b5b9fc3a",
        "69f5173776347266744dced39e0ba142629594837173d44b48aa22d10f11efd4",
    ),
    "fp-p1.5-grid-exact-codec": (
        "c02ade761d1f264d1bdb087c151121b8abfac47fb40afc3c41e8262416e4ddf8",
        "63de6850c05a13b733d7abf1f7b0a5d81d3e51b5825e968f4382932c0dd774af",
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
