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
        "b544dc1796cc6b62776af052058ee68468e4942899d469c5f5140ed4d1235c86",
        "fccaf6dafc9b19dc4f2a43ea8407499b605c90af3dce985a0fef1c71b374651e",
    ),
    "fp-p0.5-line": (
        "019144895844aa7c725f6890568b241187d70b3ed5d96239d4fb1d7506bf1dfd",
        "b7ec8c343cdf058c3a3479e0e5bfa55597f2244159c32d1663a4bd742ad85dbc",
    ),
    "entropy-star": (
        "86229447296faa0d4a296d0881c9fc6465baf09acf674862540cd576196d2be6",
        "3442286857b5201f8d6282bfa74daa8d067fa6358d656224193e6be4579bb7bc",
    ),
    "hh-line": (
        "2046e3734fa3324b09af1206653b655e1128efe57fa84260a3998b15565ddeec",
        "0c0f76cf3e44f1667e9030129e5738d7a119ed274cb8769a67b15004052abca2",
    ),
    "amp-star": (
        "7495ec771412843a934535768a24067a53d8085877d88970b335a65f1d8abd14",
        "69500bf2c1d5b2194ea4d70edb13c4fd4ce481d816cefdf7da14ec7a57bc2bdf",
    ),
    "stream-fp-exact-y": (
        "467c658cd6a4781f270422dad2887edff8a495e7f61b014491393f24e301c22f",
        "a2e76294239a7e628b70c5b16c929271ce59f368fd4110aeae4c760c1fcf432f",
    ),
    "stream-fp-morris-y": (
        "6b505830c7ceceee70beb6ba6c7204f1d50b5fb27eed114072777de6ee429e8a",
        "19d18ce9b9925ca8a113c4a8e93a648767621954effa7755e2398692c31e897c",
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
        "e49f020f91416174e7c4a7279e009ec263f6fb866c8c3063afa176a0896f5ae4",
        "9ec03f33ff1152f345bd30c9fa52191d49bc06445b42365405b42982c62cb54c",
    ),
    "hh-grid": (
        "dbd99d54f18a6e6eb5849aa5994b95dc44cfe3e021db55ea44126d6bfdf2283d",
        "f19b2c1886f5784b112bfc084e3ad710ae89c8d6932eab9a8da506a75fb6c327",
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
