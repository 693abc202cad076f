"""Golden SHA-256 digests of the canonical artifacts.

Identical flags and seed must give byte-identical graph, trace, record and
evidence files.  The digests below pin that contract on a fixed grid, so a
refactor that keeps this file green changes none of those bytes.  A change
that moves a digest on purpose must say so in CHANGES.md and update the
literal in the same commit.

The search pins below hold the solver to the same standard: the greedy
colorings, and the status, bounds, node counts and colorings of the
budgeted searches, so a change to the search must explore the same tree.

The ``LEGACY_`` tables pin the builds made with the generator's earlier
draws, a library shuffle of every sequence tried and a library choice for
each pick.  They are checked against ``legacy_generate``, the reference
build with those draws, which stands in for ``generate`` in the pipeline
for the record, certify and sweep cases.  The plain tables pin the package,
whose draws take each item only when it is tried; they were computed from
the reference build with those draws before the package took them up.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from strongedge import (
    ConstructionFailedError,
    VerificationError,
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
    load_dimacs,
    min_last_color_usage,
    serialize_dimacs,
    verify,
)
from strongedge import pipeline
from strongedge.pipeline import canonical_json
from _helpers import cycle_graph, heawood_graph, legacy_generate


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
        "ca55f5a5e6a54702faa0151f5ff2fe57ab25e521436131f872ad84d8c166d4a4",
        "ff258f489c2feb1f0b781e71ea9f9727d1985e4e166ce14bd0ef3a4fcb58cca6",
    ),
    (3, 5, 48, 1, False): (
        "93a54137bdbbbe2540b73edbff35bb303f54ca2f3f7f8a37fbaf151941665aa3",
        "6634139bf9cef1b5a2104429cff8705d56bdbf50e284087aef77a19d6a5fc701",
    ),
    (3, 5, 48, 2, False): (
        "bdb6d648c5d4cbfcbf8ef4563e5633961484fba3cf39228322d73e639700ad2f",
        "ebaf60bcc5d7608103e9d67fb550f2b5ac2ca7be5b923aa9325afd82b5410934",
    ),
    (3, 6, 96, 0, False): (
        "3f77143a9e355ef3e08e123431d998ca0eefa80dc79911c3789f452479badd60",
        "8c295d14f307d0e009847693d02efd6d3774a6de1ccf9b86a77163184d7ce5a5",
    ),
    (3, 6, 96, 1, False): (
        "a22d89883ba36e404e23a97b0197ac31ff04ca3ac3b6d4a1cb31fcf92e22a984",
        "350ace7579a7946f93432faacd08f88d96237c7f23fedca546a1547c09f64113",
    ),
    (3, 6, 96, 2, False): (
        "49cbcee8d97e7219d79fd6ecc78e0ecbc870734aa1de93a4c1d10b13f81e189c",
        "438c3f1c9190b478b409f84e0ba351c0f5c429ba03342209dff854d59fe21193",
    ),
    (3, 7, 192, 0, False): (
        "16b2aa5390e3b0e0e826d304f50fbceca7fb3a30966b2548e4f901f2c22575e7",
        "74f7c520f40d0ee60a58981bb98a026bbfa2054d3e7d278154fbe729c411fea6",
    ),
    (3, 7, 192, 1, False): (
        "1cfd8f52c92bcbce12a6a7d6cdd742b3ed7b1aac370e401f4c230b685fff6edb",
        "4be97f9314cc789d7079ef0d1bdcd2b1e0e88d7f06ca0c14405d729a1956e9a3",
    ),
    (3, 7, 192, 2, False): (
        "80fa9fa073bcb88c991404ac2e7bacc35a5b7bad3bf141c95cec74eb06fc6119",
        "1da81de12f7a65fdd8f5e4c52c9ef323a0e3d8b94a545a7c0c6a4ecaf27dc293",
    ),
    # the ladder's g = 8 build, on masks over a 2-hop ball of lefts
    (3, 8, 384, 1, False): (
        "dd708e7aa9f074c07c17a56d7096dd5d5b2982b5dd604368f898f137a2b697b2",
        "217c1fec0ac2e4e595b1b275d88446d57aff8277cd9dbe82a8434731f2e9e18c",
    ),
    # the longest draws: 768 and 1536 low xs at a level's start
    (3, 9, 768, 1, False): (
        "1c0722df86c3fe89d6dd9ccac74656800f3897ac8d0d1b72911d3964511328e3",
        "5000db694f020b1d9f38fcc5eebaa8a72e98e1610acc5cb3173cb14bf77590cb",
    ),
    (3, 10, 1536, 1, False): (
        "d85b64eb214ddeb8ae0da53ef49b8b348ccbdaeee829e25a5eb4407213c26720",
        "2d0e54bd8da3dc84571a1b6b16aba71ca9dce62707224a490eff1736da2f064f",
    ),
    (4, 5, 122, 0, False): (
        "c923499b39d108fbab8f71b8676d869371269074f9a53c33d759fd6fcc19fe16",
        "88dd2ce5096a9f6c5d6716b4a3dd335cf5d7f1427eacb8ea8a10509df5e3fa4c",
    ),
    (4, 5, 122, 1, False): (
        "c71de5d2b7e8c41956d147270c26bd6d7af99f415601de698e78abc9dd0b1109",
        "9ee8f0d909852d3df63cfc8f047a82d571266a8c0408ce6bd52aef82333e9cf6",
    ),
    (4, 5, 122, 2, False): (
        "b2be853ca4cca2b7b2aec8354232018f49c5d407047e1ed0a6002067e04d0d8c",
        "7c44450ff4e6345cf4ba896d5fe383581f68e358ddfcb4171ac0a60924e6604f",
    ),
    # degree 4 at g = 6, on the plain walk over a 2-hop ball of lefts
    (4, 6, 365, 1, False): (
        "7390a6371c0dc94834c19a84104fc9b33238cc808f962e45204327ca118c3f1d",
        "f23246fd75243cd028bf9975d2c0d4f973535625b0b001243194eccb6e9bb0f7",
    ),
    (4, 7, 200, 0, True): (
        "1c406569d8b765aef2aeab583d0417720125b2253912660aea03e90c25e235ae",
        "a8b8c30f2ecb62446f8311eb5340c8f042b17aa67dee9998a22637cd4a5bca5b",
    ),
    (4, 7, 200, 1, True): (
        "3b3e61a56d87090de28d5295305eac2c86bd3745a188b64b317fbdcee7f3e5cc",
        "2f48faae6691da8faa0b77b9daffd9f47abaa558b85765fceba50852c35ab341",
    ),
    (4, 7, 200, 2, True): (
        "c2b98b2a1a6d2146ea04d0681aa1bd1dfc81a8e0046c27677ccb0a7728b094e9",
        "ef7522e38b8b6b668bbbc223a8ce93663934abfa6f094117047f4d36a9551bb3",
    ),
}

# girth target -> digest of the k=3, seed=1 record written with no graph path
RECORD = {
    5: "53a26142e228e202e2bf1c135bc35748fd322c70b44e7fddc6be0ae9279f3528",
    6: "c2bc7b55462a3e35452771000543285298f194c2bb7cfc59088b83775f8c0b0e",
}

# (k, girth target, with upper bound) -> digest of the seed-1 record whose
# graph went to the relative path "g.dimacs"
RECORD_WITH_PATH = {
    (3, 5, False): "ebc4827af882f14fa993ac138381613752b3b4e8c31d17604203bb6363270cad",
    (4, 5, True): "aaab9416abf5138439d01b828c39cabe634f0031273d41a553d2b20d717dea98",
}

# girth target -> digest of certify_graph's k=3 record on the seed-1 graph,
# read from the relative path "g.dimacs"
CERTIFY = {
    5: "a1ba8ba9d2de9d9e8a260f29570bc0eed9edf8ffbf9da517fa05e8e8cf1a4c8c",
    6: "cd500bde354ae58b5af514b68980636c5bd00d14cd8d1f969bb2544be9f368d2",
}

# first side size (None = floor) -> digest of conjecture2_sweep(3, 4, 4,
# node_budget=5000) evidence
SWEEP = {
    None: "d03b59b68d1d6dce3384deb1cda4bc4828045638453ec75d273fefededdfb1e0",
    10: "e35be7d0c33030a43e3e39bc331d6347fa10e73e23a164153bb2af72f8cf57e0",
}

# girth target -> digest of greedy_color's colors on the k=3, seed=1 graph
GREEDY = {
    5: "a3a45649c474fc2a28e867de156ad8c450887c47fb4b51694bc65ffb477f108e",
    6: "1548e276f875d060ef4b90799d1c895bed8096dee7c23d9684d1cfcca7394f35",
    7: "61a16354944d5c7ab08488200902a0d4387e949dd25e2efd58c5713fcde28ae3",
    8: "993d453291526d7756d7d2cb1310120ab735a048845e5b69ea0910a5abb6f482",
    9: "3e9d65c054d057d5149725e310f2aafc84e2f0ec3ccff1654a1dfa9f2adee138",
    10: "fd5376b5e44929b5e4c8c0ee2f3a378878c228457bd0f5ad1a36022ce1a41344",
    11: "740a97f06a818cec4f50fa5276a17e56d3e953a2182aee731a592fae51ad020b",
}

# girth target -> exact girth of the k=3, seed=1 graph, with either draws;
# the builds overshoot odd targets by one, since bipartite cycles are even
GIRTH = {5: 6, 6: 6, 7: 8, 8: 8, 9: 10, 10: 10}

# girth target -> (status, chi_s, lower, upper, nodes) of exact_chi_s with a
# 5000-node budget on the k=3, seed=1 graph, and the digest of its coloring
EXACT = {
    5: (('upper-bound-only', None, 6, 8, 5001),
        "a3a45649c474fc2a28e867de156ad8c450887c47fb4b51694bc65ffb477f108e"),
    6: (('upper-bound-only', None, 6, 8, 5001),
        "1548e276f875d060ef4b90799d1c895bed8096dee7c23d9684d1cfcca7394f35"),
    7: (('upper-bound-only', None, 5, 9, 5001),
        "61a16354944d5c7ab08488200902a0d4387e949dd25e2efd58c5713fcde28ae3"),
}


# (k, g, n, seed, force) -> (DIMACS graph digest, trace digest)
LEGACY_GENERATE = {
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
    # the only builds whose shuffles crossed the 512 and 1024 length bands
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
LEGACY_RECORD = {
    5: "437283049f96195aa3cf1c016312a080b1738466b83c25ca446ec27d7154256f",
    6: "32e928c8e0972c277658d7fb4e5f56b8249cf1d4501a8a1c3765a13d3afade63",
}

# (k, girth target, with upper bound) -> digest of the seed-1 record whose
# graph went to the relative path "g.dimacs"
LEGACY_RECORD_WITH_PATH = {
    (3, 5, False): "e64ce71913d84d78b56cd0f94c525e8952eda649e204f15a6fa660b7c8868a5d",
    (4, 5, True): "f584b95bcc19c47486b2be742d7cf698197943756dca909a7fcea6fbafe7f34b",
}

# girth target -> digest of certify_graph's k=3 record on the seed-1 graph,
# read from the relative path "g.dimacs"
LEGACY_CERTIFY = {
    5: "851a3c9b093bc8abd5b5ca3d1512e6d8a62f50a3ab3aa283aab966ce2a7a67f0",
    6: "7cb18a67234bc446b24a74d56460d0c7661d8e4467f831159252294cc5c35710",
}

# first side size (None = floor) -> digest of conjecture2_sweep(3, 4, 4,
# node_budget=5000) evidence
LEGACY_SWEEP = {
    None: "d03b59b68d1d6dce3384deb1cda4bc4828045638453ec75d273fefededdfb1e0",
    10: "b116ea00211489c6028c8f9d6335406d3ae86f5eac21b80526687650177b16cf",
}

# girth target -> digest of greedy_color's colors on the k=3, seed=1 graph
LEGACY_GREEDY = {
    5: "8d0065505911515d7a8d8e4defca87741b61c16d22ded725461ac093de38efde",
    6: "8c3b1c75d12ddc77b77fdfe57bb5e7820ba5b47d71aea5ec21f5de6619be94e7",
    7: "8ef52de994a48a4c98e23d57ce4fba1d51fd562ea324a942b354f5a77eafc41e",
    8: "b501038fecfd61dc3142d0200322dd3dd9373e0bd57406b55f35d6ee32ead795",
    9: "9c37bf870d0466a101f6f535eea00226a7285fd0e85878d8333bb1f9b7441879",
    10: "e7af7f7e4630d9d2d65b2dfaa83f9824902fe0dfe4bdd07dc46471b68cc80251",
    11: "4b7f2a86aad91610e79d7b593fbe9be86e37abacdc0f2937eafa5acf97980c4a",
}

# girth target -> (status, chi_s, lower, upper, nodes) of exact_chi_s with a
# 5000-node budget on the k=3, seed=1 graph, and the digest of its coloring
LEGACY_EXACT = {
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

# (n, seed) -> (status, usage, nodes) of min_last_color_usage(cg, 3) with a
# 5000-node budget on the forced k=3, g=4 builds, and the digest of its
# coloring (None without one); the search workload's first sweep instance.
# Two of them settle well inside the budget.
USAGE_FORCED = {
    (10, 16): (("best-found", 4, 5001),
               "c59aee3f073524763868871f2b920272c940d6f43f593d2a11974eace66fb94f"),
    (11, 17): (("infeasible", None, 965), None),
    (12, 18): (("infeasible", None, 2985), None),
    (13, 19): (("best-found", None, 5001), None),
}

# girth target -> (status, nodes) of find_coloring(cg, 7) with a 2000-node
# budget on the k=3, seed=1 graph, and the digest of its coloring; both
# searches find one before the budget runs out
FIND_SEVEN = {
    5: (("found", 182), "ddcddc143d76b1b826bbcbb7ff37dddb0173959385597bd5c772de87f99fe487"),
    6: (("found", 305), "d798c7f78695f455c9e57fd59035dacc1e28eae9e20bcb63d11c55aa62a81104"),
}



def colors_digest(colors: list[int]) -> str:
    return sha256(json.dumps(colors, separators=(",", ":")))


def k3_conflict_graph(g: int, seed: int, build=generate):
    graph, _ = build(3, g, choose_n(3, g), seed)
    return conflict_graph(graph)


@pytest.fixture
def legacy(monkeypatch):
    """Let the pipeline build its graphs with the earlier draws.  The sweep
    calls ``generate``; the counterexample calls the build part, which has
    the same return shape."""
    monkeypatch.setattr("strongedge.pipeline.generate", legacy_generate)
    monkeypatch.setattr("strongedge.pipeline._build", legacy_generate)


def generate_pin(build, case) -> tuple[str, str]:
    k, g, n, seed, force = case
    graph, trace = build(k, g, n, seed, force=force)
    return sha256(serialize_dimacs(graph)), sha256(trace.to_text())


def test_unforced_sizes_are_choose_n():
    for k, g, n, _seed, force in GENERATE.keys() | LEGACY_GENERATE.keys():
        assert force or choose_n(k, g) == n


def test_degree_two_needs_no_draws():
    # the base cycle is the whole build, so the draws cannot move it
    for case in GENERATE:
        if case[0] == 2:
            assert GENERATE[case] == LEGACY_GENERATE[case]


@pytest.mark.parametrize("case", sorted(GENERATE), ids=lambda c: "k{}-g{}-n{}-s{}".format(*c))
def test_generate_graph_and_trace(case):
    assert generate_pin(generate, case) == GENERATE[case]


@pytest.mark.parametrize("case", sorted(LEGACY_GENERATE), ids=lambda c: "k{}-g{}-n{}-s{}".format(*c))
def test_legacy_generate_graph_and_trace(case):
    assert generate_pin(legacy_generate, case) == LEGACY_GENERATE[case]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_build_below_floor_fails(seed):
    with pytest.raises(ConstructionFailedError):
        generate(4, 7, 130, seed, force=True)
    with pytest.raises(ConstructionFailedError):
        legacy_generate(4, 7, 130, seed, force=True)


def record_pin(g: int) -> str:
    record = build_counterexample(g, 3, 1)
    assert record.graph_path is None
    return sha256(canonical_json(record.to_json_dict()))


@pytest.mark.parametrize("g", sorted(RECORD))
def test_counterexample_record(g):
    assert record_pin(g) == RECORD[g]


@pytest.mark.parametrize("g", sorted(LEGACY_RECORD))
def test_legacy_counterexample_record(g, legacy):
    assert record_pin(g) == LEGACY_RECORD[g]


def record_with_path_pin(case, tmp_path, monkeypatch) -> str:
    k, g, with_upper_bound = case
    monkeypatch.chdir(tmp_path)
    record = build_counterexample(
        g, k, 1, graph_out="g.dimacs", with_upper_bound=with_upper_bound
    )
    assert record.graph_path == "g.dimacs"
    return sha256(canonical_json(record.to_json_dict()))


@pytest.mark.parametrize("case", sorted(RECORD_WITH_PATH), ids=lambda c: "k{}-g{}-ub{}".format(*c))
def test_counterexample_record_with_graph_path(case, tmp_path, monkeypatch):
    assert record_with_path_pin(case, tmp_path, monkeypatch) == RECORD_WITH_PATH[case]


@pytest.mark.parametrize("case", sorted(LEGACY_RECORD_WITH_PATH), ids=lambda c: "k{}-g{}-ub{}".format(*c))
def test_legacy_counterexample_record_with_graph_path(case, tmp_path, monkeypatch, legacy):
    assert record_with_path_pin(case, tmp_path, monkeypatch) == LEGACY_RECORD_WITH_PATH[case]


def certify_pin(build, g: int, tmp_path, monkeypatch) -> str:
    monkeypatch.chdir(tmp_path)
    graph, _ = build(3, g, choose_n(3, g), 1)
    (tmp_path / "g.dimacs").write_text(serialize_dimacs(graph))
    record = certify_graph("g.dimacs", 3)
    return sha256(canonical_json(record.to_json_dict()))


@pytest.mark.parametrize("g", sorted(CERTIFY))
def test_certify_record(g, tmp_path, monkeypatch):
    assert certify_pin(generate, g, tmp_path, monkeypatch) == CERTIFY[g]


@pytest.mark.parametrize("g", sorted(LEGACY_CERTIFY))
def test_legacy_certify_record(g, tmp_path, monkeypatch):
    assert certify_pin(legacy_generate, g, tmp_path, monkeypatch) == LEGACY_CERTIFY[g]


def sweep_pin(n_start) -> str:
    evidence = conjecture2_sweep(
        3, 4, 4, node_budget=5000, n_start=n_start, force=n_start is not None
    )
    return sha256(canonical_json(evidence.to_json_dict()))


@pytest.mark.parametrize("n_start", [None, 10], ids=["floor", "forced-n10"])
def test_sweep_evidence(n_start):
    assert sweep_pin(n_start) == SWEEP[n_start]


@pytest.mark.parametrize("n_start", [None, 10], ids=["floor", "forced-n10"])
def test_legacy_sweep_evidence(n_start, legacy):
    assert sweep_pin(n_start) == LEGACY_SWEEP[n_start]


@pytest.mark.parametrize("g", sorted(GREEDY))
def test_greedy_coloring(g):
    assert colors_digest(greedy_color(k3_conflict_graph(g, 1)).colors) == GREEDY[g]


@pytest.mark.parametrize("g", sorted(LEGACY_GREEDY))
def test_legacy_greedy_coloring(g):
    cg = k3_conflict_graph(g, 1, legacy_generate)
    assert colors_digest(greedy_color(cg).colors) == LEGACY_GREEDY[g]


@pytest.mark.parametrize("g", sorted(GIRTH))
def test_exact_girth(g):
    assert girth(generate(3, g, choose_n(3, g), 1)[0]) == GIRTH[g]
    assert girth(legacy_generate(3, g, choose_n(3, g), 1)[0]) == GIRTH[g]


def exact_pin(out) -> tuple:
    fields = (out.status, out.chi_s, out.lower_bound, out.upper_bound, out.nodes)
    return fields, colors_digest(out.coloring.colors)


@pytest.mark.parametrize("g", sorted(EXACT))
def test_exact_search(g):
    assert exact_pin(exact_chi_s(k3_conflict_graph(g, 1), node_budget=5000)) == EXACT[g]


@pytest.mark.parametrize("g", sorted(LEGACY_EXACT))
def test_legacy_exact_search(g):
    cg = k3_conflict_graph(g, 1, legacy_generate)
    assert exact_pin(exact_chi_s(cg, node_budget=5000)) == LEGACY_EXACT[g]


def test_exact_search_on_heawood():
    assert exact_pin(exact_chi_s(conflict_graph(heawood_graph()))) == EXACT_HEAWOOD


def test_find_coloring_runs_to_its_budget():
    res = find_coloring(k3_conflict_graph(8, 8), 7, node_budget=2000)
    assert (res.status, res.nodes) == ("timeout", 2001)


def test_legacy_find_coloring_runs_to_its_budget():
    res = find_coloring(k3_conflict_graph(8, 8, legacy_generate), 7, node_budget=2000)
    assert (res.status, res.nodes) == ("timeout", 2001)


@pytest.mark.parametrize("g", sorted(FIND_SEVEN))
def test_find_coloring_settles_below_its_budget(g):
    res = find_coloring(k3_conflict_graph(g, 1), 7, node_budget=2000)
    assert ((res.status, res.nodes), colors_digest(res.coloring.colors)) == FIND_SEVEN[g]


@pytest.mark.parametrize("n, seed", sorted(USAGE_FORCED))
def test_last_color_usage_on_forced_builds(n, seed):
    cg = conflict_graph(generate(3, 4, n, seed, force=True)[0])
    res = min_last_color_usage(cg, 3, node_budget=5000)
    digest = res.coloring and colors_digest(res.coloring.colors)
    assert ((res.status, res.usage, res.nodes), digest) == USAGE_FORCED[n, seed]


@pytest.mark.parametrize("n", sorted(USAGE))
def test_last_color_usage_on_cycles(n):
    res = min_last_color_usage(conflict_graph(cycle_graph(n)), 2)
    assert (res.status, res.usage, res.nodes) == USAGE[n]


# generate --k 3 --g 6 --n 15 --seed 0 --force: a flagged usage row at
# girth 6, exact usage 5 against cap 0, with its graph file committed
FLAGGED_G6 = Path(__file__).parent / "data" / "k3-g6-n15-seed0.dimacs"
FLAGGED_G6_SHA = "b2e6af2557da4861d5e238e47d77af82f761ddd3899f4db8f10bcc6fba3d7e36"
FLAGGED_G6_COLORS = "3fc81525c69afee2a0e0dc5cec9e3fec1772ff4ca80d2a92e2ee940c3c641bc1"


def test_flagged_girth_six_usage_row(monkeypatch):
    graph, _ = generate(3, 6, 15, 0, force=True)
    text = serialize_dimacs(graph)
    assert text == FLAGGED_G6.read_text()
    assert sha256(text) == FLAGGED_G6_SHA
    searches = []

    def recorded(*args, **kwargs):
        searches.append(min_last_color_usage(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(pipeline, "min_last_color_usage", recorded)
    evidence = conjecture2_sweep(3, 6, 1, n_start=15, force=True, node_budget=1_000_000)
    (row,), (res,) = evidence.rows, searches
    assert (row.n, row.m, row.cap, row.status, row.usage, res.nodes) == (15, 45, 0, "exact", 5, 515141)
    assert row.flagged and evidence.flagged_rows() == [row]
    assert verify(conflict_graph(graph), res.coloring) and res.coloring.usage(6) == 5
    assert colors_digest(res.coloring.colors) == FLAGGED_G6_COLORS


def test_flagged_girth_six_graph_has_strong_index_six():
    # m = 45 is divisible by the window 5, so the counting certificate
    # proves nothing here, yet the search refutes 5 colors and finds 6.
    with pytest.raises(VerificationError) as exc:
        certify_graph(FLAGGED_G6, 3)
    assert exc.value.check == "divisibility"
    cg = conflict_graph(load_dimacs(FLAGGED_G6))
    assert cg.n_nodes == 45
    res = find_coloring(cg, 5)
    assert (res.status, res.nodes) == ("none", 60)
    res = find_coloring(cg, 6)
    assert (res.status, res.nodes) == ("found", 8117)
    assert verify(cg, res.coloring) and res.coloring.n_colors == 6
