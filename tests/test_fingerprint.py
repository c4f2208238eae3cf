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
        "f6f22471136fe6a7f90925e5b23b9b52bd278a25a569a809fcb743db9e04661a",
        "629b95b42da13684ff62ac91db52031eb4d81680506ef6be3e5f8631ef5e32e6",
    ),
    "fp-p0.5-line": (
        "fc4258f49cc8c3b210b632a8d03051f12003a60da420f67c412156738ab9aa24",
        "2f7bbc5e5a1bb2bee1cc2208fdfc245f6afb3b94e5cf444463d93dd25946662b",
    ),
    "entropy-star": (
        "7609261cd9a3e8de9ffa305ad34fd8e706a6c6d9d590b28fd763962132e301d7",
        "366076946f17257ada4e25fa95e3e2da703c6afac4d02ac6a82208f436c5ee73",
    ),
    "hh-line": (
        "8ff699a6d0f71257512d6386ab7aa41620f825b54375427762d52f1683ca8e93",
        "f744771ccb9562a106912092e4dd5135e691e8a2a40a4fca2566539bfc5d433d",
    ),
    "amp-star": (
        "d17077e8a652216b139f8a8b46a362ff955b868ef0ffa1f57f372c9c1eda6b37",
        "ffc22a2174eb31f3d067ab0551daef42092513ac7445a06d4629d55ce18842c9",
    ),
    "stream-fp-exact-y": (
        "baef98e6c9f9a3d53123cfa3aeb6da1bcf3ba00d3574986f69b9d572cb5a0473",
        "e1eadb83bf62b71ed710603384a9d6f22ac69b3e7f2020b052faf41544f14e5b",
    ),
    "stream-fp-morris-y": (
        "99d6da50448b3f04b7f1b898cf88592d13186222c101150f0142c0248e56e1d1",
        "21da53612c7a15e26809b4bfacfd5728bdca6b368208ca95c26a50fb47f31cf1",
    ),
    "stream-entropy": (
        "dfa12eaba6259bb50ca1c22fd2897009b23e91a9e2c6c3f2b2a3d9d0402f5b39",
        "4b374227e7f2f8ddaad21b1c1c629feedb7574b2bcbf79454d5141be8f9d0a77",
    ),
    "fp-p1.5-grid-exact-codec": (
        "f377e88fdc6284642aa644a7468c9344278d2ccbc4b82a441979f482610894f7",
        "52004b7625c5ec3e741fd1918a9a5e2b9500aaa5e84863229023d0e6525d4161",
    ),
    "amp-grid-sparse": (
        "5e7013ce57916dd70705713f7450d7fe22dec50b3e827838bb9e5d0fe59b6392",
        "8ea7cbb068b99760606b29ee1c4354449d05705d9b2e318ab1eb52d0cdcc275a",
    ),
    "hh-grid": (
        "d9c3eb55b1ad669e5c73f2a895d4d35f8c5101dcbbcfa9a758ed504f8f0d042a",
        "073eb01a87467b5a2f878550848f553938ae76256767ccf85f5429152cf85814",
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
