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
        "7a4ac59b3a8b8f7e4fb859e3a9cb40fc2cd757b800732e0216cf1d9800b5abd1",
        "af4fc5a9bfbc6348eb685227d3a6d788dfb4a3835c9b283f4cc9e2f492cd52c8",
    ),
    "fp-p0.5-line": (
        "11ecdef5ebfcf157f7c7212e4067110261a7b92a7f8c4a67dabedc57243324e8",
        "e91600482d4be521e4d3bad9182346f064ded97a5b310fd257e569c8ddc42444",
    ),
    "entropy-star": (
        "71c1f61f0059800dce8e6f5a323a536e01b5dbf172553d69c5454a118414776f",
        "af2011a99c64bef8d5237abc7897370a80225059e97b26e371e906c1b480f0ae",
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
        "712f5850b157893e64779cb9aa3461f82c1b167de2f847436d6f7ca3b0e5057c",
        "5dbc94e1e2ec1b777760703d00d7f3aa68f9af3dc37b89aa36d7a08286c50401",
    ),
    "stream-fp-morris-y": (
        "029fc461e91e56a592df76f947a0640b48b18f3209e9707906076f4c9e589c87",
        "aa5ea4ef44843f130944697520cd2eb2148628ff520241b5ddc5a8ee3abb4286",
    ),
    "stream-entropy": (
        "b075faf8e957a4d2d2e13212d432fbe61fae2481ca25aefe4f4102e9c32d5dff",
        "5fafdab2466a76d30e22d27413b66c520ab85ff526522bf37d26ee4f9a5614fb",
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
