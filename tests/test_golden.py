"""Golden SHA-256 digests of the canonical artifacts.

Identical flags and seed must give byte-identical graph, trace, record and
evidence files.  The digests below pin that contract on a fixed grid, so a
refactor that keeps this file green changes none of those bytes.  A change
that moves a digest on purpose must say so in CHANGES.md and update the
literal in the same commit.

The search pins below hold the solver to the same standard: the greedy
colorings, and the status, bounds, node counts and colorings of the
budgeted searches, so a change to the search must explore the same tree.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from strongedge import (
    ConstructionFailedError,
    build_counterexample,
    certify_graph,
    choose_n,
    conflict_graph,
    conjecture2_sweep,
    exact_chi_s,
    find_coloring,
    generate,
    girth,
    greedy_color,
    min_last_color_usage,
    serialize_dimacs,
)
from strongedge.pipeline import canonical_json
from _helpers import cycle_graph, heawood_graph


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (k, g, n, seed, force) -> (DIMACS graph digest, trace digest)
GENERATE = {
    (2, 5, 5, 0, False): (
        "2edf20748b4a298d6cdecc6e374924bffb8218b74f9d67e514727cbd5f8ad086",
        "2aad34267536d20725e79076f06a5613e16edc2da4b3220cacb0e231d7849ad8",
    ),
    (2, 5, 5, 1, False): (
        "2edf20748b4a298d6cdecc6e374924bffb8218b74f9d67e514727cbd5f8ad086",
        "8748f6e1f6234d050fa13c40bf7d9b4187689d6cc411498004b7bc42adf20b60",
    ),
    (2, 5, 5, 2, False): (
        "2edf20748b4a298d6cdecc6e374924bffb8218b74f9d67e514727cbd5f8ad086",
        "70d16ae5d3885ae5d269e476ab7de42ec38859d3495f90cc3d25deb6b66950d7",
    ),
    (3, 5, 48, 0, False): (
        "fbbe46fcd9bc6e41a067ae14be2b437487d8c5986a35d3f178480874fe5799b7",
        "203b802bd59b1b67f98444eba02c48931c22d15e2a8596fd06284983a884939c",
    ),
    (3, 5, 48, 1, False): (
        "65b58e402a833d3271501ef2a84f40c12f0ca4d54ca1fd46f03d836921f424fc",
        "f537d28bc3d2bd9731d37db64cd52572024803dbe0f660483f6ead61b2d0c726",
    ),
    (3, 5, 48, 2, False): (
        "a64ae66a8935ec83d511aa890cbb124979f4e650dcfa8ad97e8e8585a6d3c0bb",
        "53eeab06ad36b4c0b2a46e9cfd9e75dc7296384b9d7880b222b0216171760130",
    ),
    (3, 6, 96, 0, False): (
        "dbab3abdde0e66d0e2f6103719ea55926ed3253207d97713134231bdad78db46",
        "64ece5127565ab97f981d678ced8049ed52fcbad8aa377ab5aa13f93b7f20cc1",
    ),
    (3, 6, 96, 1, False): (
        "e39eee23ee39ba73a4949719afcb4646727e9592543f750991ab049140973275",
        "fc6bb21f7c5656c2f13eec3cca1ed6798f14d9bcd2c562ff192821dd563919fb",
    ),
    (3, 6, 96, 2, False): (
        "91a84f4e29c0c66cd3c28815216ae803854e8510b23aa43badba0297f1b513b6",
        "fb3b8d1146f192b4c80e0311e8187f2d767d91a8ee37dc5fc6b99cd08fd62c1c",
    ),
    (3, 7, 192, 0, False): (
        "bdf8fde82a1baaddfa5ce5dd637e884ac7cb7e1dc00b05d55515e92c68d81d5e",
        "a74782eb69f3767c9c5a378e030bbe54dc0b111ff404d0e32beb773ed0b53b2d",
    ),
    (3, 7, 192, 1, False): (
        "8384fdffe9409291864a38705ad8f43961f4454467dc1fc53377244a65115d64",
        "052d739b8fe2d5dd4e1dbb8249a7d4428120c2bb5b58220e3f1b42494b091fcf",
    ),
    (3, 7, 192, 2, False): (
        "92dddf28e1159dd82bee452b59ae4d854a967cf28885155cde21a9754627ea5d",
        "18d7d40ff1d5942ab5439c45b98c13da408e18c6c4969614114e8a6093e04de5",
    ),
    # the only builds whose shuffles cross the 512 and 1024 length bands
    (3, 9, 768, 1, False): (
        "8270eef9e35213a60fa44f7efac607a8073587105752fe3ce959292ffa93a9ea",
        "ad77e679ee0faa274ef81be7c20fb6980bb3e6696018bc4060c44287fc42ca55",
    ),
    (3, 10, 1536, 1, False): (
        "7896a6fd9d07aaff577cd5b4fa4c88f9899ee9224124398977ed320505511793",
        "a09f40b240d8d953961a35d13521eb5bfe5eeabdecc2ae6961dada2a39cd42c9",
    ),
    (4, 5, 122, 0, False): (
        "8de052e386902d01ff3db86e6c2960f3f0275c7121ceb7f937fcc3de2690db24",
        "a5da6e9f4eecc8d31c38f12e50f7e393ec49636d483a9d37479c7543913a9df5",
    ),
    (4, 5, 122, 1, False): (
        "7a815a783f71dcb7f82401f898d80826cd41c45614ce07ac3367d2c7a81a8c6d",
        "38e96094369f670b1eaeb4c73ed6acbafc1f2ab3ee369cffe12e2c78e3a905b7",
    ),
    (4, 5, 122, 2, False): (
        "d3e03fc6e66c77f56c536f18e9215b16529a2f8b5a55d293dcfca04d95dbdd80",
        "46e3bc9138624eebc7381d80d80115025f310b441841d79d22a302baa0a0c945",
    ),
    (4, 7, 200, 0, True): (
        "a40f1d5c042aac93bb459b3ff9b8d5668f665cb7d2d27b774784d0949b2efa47",
        "079bc96f7024796ac00fae0f304907f4072f4bd47cbfc45696b1908565058b05",
    ),
    (4, 7, 200, 1, True): (
        "2462369f48c20ddca653dea4722313bd19b41905266f72d513db35a345b7070f",
        "2585c45683d3576211e6dd053647bd3c3c1760f75580c93e649959b4996b7d51",
    ),
    (4, 7, 200, 2, True): (
        "4c42158b53013c0596889d72613d488fab0593a2182744e7f6851dd43e9d13d5",
        "e9023d7a224c6d88b556fbfbdee3c3171dfe2aa9db2428a3f45e70b85ac264a2",
    ),
}

# girth target -> digest of the k=3, seed=1 record written with no graph path
RECORD = {
    5: "437283049f96195aa3cf1c016312a080b1738466b83c25ca446ec27d7154256f",
    6: "32e928c8e0972c277658d7fb4e5f56b8249cf1d4501a8a1c3765a13d3afade63",
}

# (k, girth target, with upper bound) -> digest of the seed-1 record whose
# graph went to the relative path "g.dimacs"
RECORD_WITH_PATH = {
    (3, 5, False): "e64ce71913d84d78b56cd0f94c525e8952eda649e204f15a6fa660b7c8868a5d",
    (4, 5, True): "f584b95bcc19c47486b2be742d7cf698197943756dca909a7fcea6fbafe7f34b",
}

# girth target -> digest of certify_graph's k=3 record on the seed-1 graph,
# read from the relative path "g.dimacs"
CERTIFY = {
    5: "851a3c9b093bc8abd5b5ca3d1512e6d8a62f50a3ab3aa283aab966ce2a7a67f0",
    6: "7cb18a67234bc446b24a74d56460d0c7661d8e4467f831159252294cc5c35710",
}

# first side size (None = floor) -> digest of conjecture2_sweep(3, 4, 4,
# node_budget=5000) evidence
SWEEP = {
    None: "d03b59b68d1d6dce3384deb1cda4bc4828045638453ec75d273fefededdfb1e0",
    10: "b116ea00211489c6028c8f9d6335406d3ae86f5eac21b80526687650177b16cf",
}


# girth target -> digest of greedy_color's colors on the k=3, seed=1 graph
GREEDY = {
    5: "8d0065505911515d7a8d8e4defca87741b61c16d22ded725461ac093de38efde",
    6: "8c3b1c75d12ddc77b77fdfe57bb5e7820ba5b47d71aea5ec21f5de6619be94e7",
    7: "8ef52de994a48a4c98e23d57ce4fba1d51fd562ea324a942b354f5a77eafc41e",
    8: "b501038fecfd61dc3142d0200322dd3dd9373e0bd57406b55f35d6ee32ead795",
    9: "9c37bf870d0466a101f6f535eea00226a7285fd0e85878d8333bb1f9b7441879",
    10: "e7af7f7e4630d9d2d65b2dfaa83f9824902fe0dfe4bdd07dc46471b68cc80251",
    11: "4b7f2a86aad91610e79d7b593fbe9be86e37abacdc0f2937eafa5acf97980c4a",
}

# girth target -> exact girth of the k=3, seed=1 graph; the builds
# overshoot odd targets by one, since bipartite cycles are even
GIRTH = {5: 6, 6: 6, 7: 8, 8: 8, 9: 10, 10: 10}

# girth target -> (status, chi_s, lower, upper, nodes) of exact_chi_s with a
# 5000-node budget on the k=3, seed=1 graph, and the digest of its coloring
EXACT = {
    5: (("upper-bound-only", None, 6, 8, 5001),
        "8d0065505911515d7a8d8e4defca87741b61c16d22ded725461ac093de38efde"),
    6: (("upper-bound-only", None, 5, 8, 5001),
        "8c3b1c75d12ddc77b77fdfe57bb5e7820ba5b47d71aea5ec21f5de6619be94e7"),
    7: (("upper-bound-only", None, 5, 8, 5001),
        "8ef52de994a48a4c98e23d57ce4fba1d51fd562ea324a942b354f5a77eafc41e"),
}

# the same for the Heawood graph, whose 7-coloring the search finds after
# refuting 5 and 6 colors
EXACT_HEAWOOD = (
    ("exact", 7, 7, 7, 261),
    "a5a5b0347bc223af4752849b618b5461578e6b3672dce2a0f2f6ecb3afdaaf99",
)

# cycle length n -> (status, usage, nodes) of min_last_color_usage(C_n, 2)
USAGE = {
    6: ("exact", 0, 6), 7: ("exact", 1, 14), 8: ("exact", 2, 58),
    9: ("exact", 0, 9), 10: ("exact", 1, 20), 11: ("exact", 2, 97),
    12: ("exact", 0, 12), 13: ("exact", 1, 26), 14: ("exact", 2, 145),
    15: ("exact", 0, 15), 16: ("exact", 1, 32), 17: ("exact", 2, 202),
    18: ("exact", 0, 18), 19: ("exact", 1, 38), 20: ("exact", 2, 268),
}


def colors_digest(colors: list[int]) -> str:
    return sha256(json.dumps(colors, separators=(",", ":")))


def k3_conflict_graph(g: int, seed: int):
    graph, _ = generate(3, g, choose_n(3, g), seed)
    return conflict_graph(graph)


def test_unforced_sizes_are_choose_n():
    for k, g, n, _seed, force in GENERATE:
        assert force or choose_n(k, g) == n


@pytest.mark.parametrize("case", sorted(GENERATE), ids=lambda c: "k{}-g{}-n{}-s{}".format(*c))
def test_generate_graph_and_trace(case):
    k, g, n, seed, force = case
    graph, trace = generate(k, g, n, seed, force=force)
    assert (sha256(serialize_dimacs(graph)), sha256(trace.to_text())) == GENERATE[case]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_build_below_floor_fails(seed):
    with pytest.raises(ConstructionFailedError):
        generate(4, 7, 130, seed, force=True)


@pytest.mark.parametrize("g", sorted(RECORD))
def test_counterexample_record(g):
    record = build_counterexample(g, 3, 1)
    assert record.graph_path is None
    assert sha256(canonical_json(record.to_json_dict())) == RECORD[g]


@pytest.mark.parametrize("case", sorted(RECORD_WITH_PATH), ids=lambda c: "k{}-g{}-ub{}".format(*c))
def test_counterexample_record_with_graph_path(case, tmp_path, monkeypatch):
    k, g, with_upper_bound = case
    monkeypatch.chdir(tmp_path)
    record = build_counterexample(
        g, k, 1, graph_out="g.dimacs", with_upper_bound=with_upper_bound
    )
    assert record.graph_path == "g.dimacs"
    assert sha256(canonical_json(record.to_json_dict())) == RECORD_WITH_PATH[case]


@pytest.mark.parametrize("g", sorted(CERTIFY))
def test_certify_record(g, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph, _ = generate(3, g, choose_n(3, g), 1)
    (tmp_path / "g.dimacs").write_text(serialize_dimacs(graph))
    record = certify_graph("g.dimacs", 3)
    assert sha256(canonical_json(record.to_json_dict())) == CERTIFY[g]


@pytest.mark.parametrize("n_start", [None, 10], ids=["floor", "forced-n10"])
def test_sweep_evidence(n_start):
    evidence = conjecture2_sweep(
        3, 4, 4, node_budget=5000, n_start=n_start, force=n_start is not None
    )
    assert sha256(canonical_json(evidence.to_json_dict())) == SWEEP[n_start]


@pytest.mark.parametrize("g", sorted(GREEDY))
def test_greedy_coloring(g):
    assert colors_digest(greedy_color(k3_conflict_graph(g, 1)).colors) == GREEDY[g]


@pytest.mark.parametrize("g", sorted(GIRTH))
def test_exact_girth(g):
    assert girth(generate(3, g, choose_n(3, g), 1)[0]) == GIRTH[g]


def exact_pin(out) -> tuple:
    fields = (out.status, out.chi_s, out.lower_bound, out.upper_bound, out.nodes)
    return fields, colors_digest(out.coloring.colors)


@pytest.mark.parametrize("g", sorted(EXACT))
def test_exact_search(g):
    assert exact_pin(exact_chi_s(k3_conflict_graph(g, 1), node_budget=5000)) == EXACT[g]


def test_exact_search_on_heawood():
    assert exact_pin(exact_chi_s(conflict_graph(heawood_graph()))) == EXACT_HEAWOOD


def test_find_coloring_runs_to_its_budget():
    res = find_coloring(k3_conflict_graph(8, 8), 7, node_budget=2000)
    assert (res.status, res.nodes) == ("timeout", 2001)


@pytest.mark.parametrize("n", sorted(USAGE))
def test_last_color_usage_on_cycles(n):
    res = min_last_color_usage(conflict_graph(cycle_graph(n)), 2)
    assert (res.status, res.usage, res.nodes) == USAGE[n]
