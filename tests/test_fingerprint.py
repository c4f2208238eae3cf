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
    # players at id 10 and up hold nothing, so 5 of amp's 6 player groups
    # and most hh table cells come from all-zero data
    "amp-grid-sparse": dict(protocol="amp", topology="grid:8x8", m=64, n=40, eps=0.3,
                            dist="sparse:0.2", t1=2, t2=2),
    "hh-grid": dict(protocol="hh", topology="grid:8x8", m=64, n=60, eps=0.3,
                    dist="planted:500:1"),
}

# (sha256 of the CSV, sha256 of the summary JSON) per spec
PINNED = {
    "fp-p1.5-star": (
        "ad6797e0ebe1d4fa4bb9312ff3b9e6e0f9ea1f4327b32d1f9a886dccdabe4e45",
        "de35200456665d7b4066622200425ecb77c4c6a93c6ad27bd444fc8ac5222be7",
    ),
    "fp-p0.5-line": (
        "68e73cc40e729e097e6c5af513aa960965f70b9666761bc7dec4f62af736c2f5",
        "09135e4ce7c6a6ba4f659d25b8ddd89610f5b24bc139a2cfcae8c96e42d8eb67",
    ),
    "entropy-star": (
        "002384c2e6cf5de2f35b6e4c277c21ecc73616cfddf2206e4e5cc98f840bef40",
        "eb393efa24d8413c17301cdcc161153c51b3cdfbcb8120673b505a9011a8cd1d",
    ),
    "hh-line": (
        "6aa91d4586c0d3ea62fda06f02c9d40cb473a470e884f318fbcf5e2e6c8e0014",
        "4de2cfe811ebaef4d7de382d2648e34ad37db09c675ac62e2a21cdaac25b11a2",
    ),
    "amp-star": (
        "0f0c68668ff39ea55a95ad00207cbae8fe6512e41100dc43fe865623e514de2a",
        "0d6a8390feb50b35cbdc3e523b31932b5974be951f20ec159b566fcd3113504c",
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
        "471be333a91a9dd977ebddc6dd442a8f414a80de61fb16fa2b838acb4b1c5ebd",
        "d5da8ba41c4677c3d04499e848e18c539f77fa6849efb44689169a9fe488ee31",
    ),
    "hh-grid": (
        "f3017947eea18f51bb931fec587b50a54928868d13e24a82a3334f600420010e",
        "25651417912c66783915b905eaacdb8b7d0c7fff50ab266fb888b51e430ef80f",
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
