"""The pinned outputs, in one place.

``GOLDEN`` lists every command whose full stdout ``test_cli.TestGoldenOutputs``
pins by SHA-256, with the digest, in the order of that test's ids.
``PERFBENCH`` lists the commands behind ``perfbench/workloads.DIGESTS``, by
digest name; those digests cover stdout after its first line, the ``# seed=``
header. ``golden_diff.py`` runs both lists in two source trees and reports
what moved.
"""

FIVE_POOLS = ["--powers", "0.25", "0.15", "0.10", "0.035", "0.02"]
BLOCK_RATIO = ["detect", "--mode", "block-ratio"]
BLOCK_RATIO_DIGEST = "40c5cfb076cfbffbeae60cfd94639bc4327d6884e4ff9d4d14b07a7133152d37"

#: (arguments, SHA-256 of the full stdout)
GOLDEN = [

    (["reproduce-table", "1"],
     "51ec99d6147f4c9150d284d43678fecdef7e8eb5aa50684b942cd412f7ab5504"),
    (["reproduce-table", "3"],
     "f6864f8067a3d17c94fb7c459c9be8c02b9c482e12861966d94d3deb20c53d3e"),
    (["npool", *FIVE_POOLS, "--attack", "faw"],
     "53f40aca25f345c964807c6f4385199789e11cd5383a8f55291af0c975eddb96"),
    (["npool", *FIVE_POOLS, "--attack", "bwh"],
     "b2e340c070c6440e10719e72c2bbfd8a635a84d26989668446f2fe7b5ba5dac4"),
    # both the reused and the fresh family-1 cap of the audit's fallback
    (["audit-ipbwh", "--cells", "30"],
     "3133056ecba6b71dc25636b206bf083e362f05677c2176762ef7606d7b8f78d1"),
    (["sweep", "--attack", "faw", "--cells", "20"],
     "b6bb9ebd884775e4b124d102c8e83cfb470646f11de1d3e4bf8842df70cd6311"),
    (["sweep", "--attack", "bwh", "--cells", "20"],
     "1fcc03cb07798d225b6f372b9399c300af4876a626533c06df4381541746d94f"),
    # the only run that prices a BWH pool against a FAW pool
    (["delta-bound", "--alpha", "0.25", "0.15", "--k", "0.5"],
     "f10a8de5be5a75153d7bcbbc44f81f276f813163cd0fddbb8c56c9bd6d8ff9f9"),
    # FAW retaliation, then the BWH fallback
    (["retaliate", "--alpha", "0.25", "0.15", "--opp-attack", "0", "0.05"],
     "9b0f43f63559fc06c3200073c70a13ea7f5dd8825d6852e01240e12a52ec4eaa"),
    (["retaliate", "--alpha", "0.15", "0.25", "--opp-attack", "0.1", "0"],
     "5a3307c1badfc3a43b2251a8be79cf970425586a6dc8ef7f6ebcf51cf6ee1cba"),
    (["stage-nash", "--alpha", "0.25", "0.15"],
     "6f2155d4f8120a6aa1534aadfe332146ed2816be885a4e14b75aea600cf68e28"),
    (["sweep", "--attack", "faw", "--fixed-alpha1", "0.2", "--cells", "20"],
     "193b1b3eeb1c8e72385d4703222f036141817f3e6ff39b44a94746be1af26b0e"),
    # the benchmark's sweep-faw command, and the BWH ratio sweep
    (["sweep", "--attack", "faw", "--cells", "60"],
     "a0cdb812547ac5191ea79a2fc138788d093b071a8258fd95f4c4c7d5c09878a4"),
    (["sweep", "--attack", "bwh", "--fixed-alpha1", "0.2", "--cells", "20"],
     "e18118e908068a30e2ff9464aa8a5d2c03e9acfd7e244d02639b27451b32e605"),
    (["sweep", "--attack", "bwh", "--cells", "60"],
     "340e8e6ced8d99d6b4eee9f8717e442e7b0fd827460fd0109d0d5eae27adf85e"),
    (["detect", "--mode", "variance"],
     "ac15da6517712fff90da5fd8b96a43b48c7a0571b79acaf13adb9b00860de7ef"),
    # 358 of the 720 periods price an attacker above half the network
    (["detect", "--mode", "variance", "--alpha", "0.5"],
     "1a9b7ccc27ce7abcd73994092c7018a46020b83c5a9a0a8d058e4feca9350b20"),
    # the only command that imports scipy; recorded while scipy.stats was
    # still imported with the package
    (BLOCK_RATIO, BLOCK_RATIO_DIGEST),
    (["detect", "--mode", "block-ratio", "--beta", "0.2", "--infiltration", "0.01",
      "--blocks", "500"],
     "8bd04df8a080361d86fb8ad6831d88b21dca7d609c7dcf95d30c2ba4f4b778c1"),
    # Monte-Carlo: one FAW flag and a BWH detachment, the five-pool Table 3
    # runs, and a five-pool one-shot FAW run
    (["simulate", "--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0.02",
      "--rounds", "200000", "--seed", "3"],
     "a39f8031c3077618868273cc514db5d88b8968e135f235c708e072256f772b1f"),
    (["reproduce-table", "3", "--rounds", "500000", "--seed", "1"],
     "28ec4465cc02528d0c0116f4f87c8709b58b18101e1f5dad42865538c0c276ac"),
    (["npool", *FIVE_POOLS, "--attack", "faw", "--rounds", "200000", "--seed", "2"],
     "abd0ec7de82b9105006e20305654bce998818838ac67d35ea4a5c1d2e7ebada6"),
    # flat FAW candidate tests (k = 0 and k near 0) and retaliations at the
    # end of a half-network pool's grid, recorded before the retaliation
    # grids were windowed
    (["sweep", "--attack", "faw", "--cells", "60", "--k", "0"],
     "c3e963c3a74219eef97e68084a758a958f14fcfd26621b25ff3d5a7120335b78"),
    (["sweep", "--attack", "faw", "--cells", "30", "--k", "0.001"],
     "32d63a7b5a5e155994de60dcc988ecab23fd305278139295edea36fac8df43a1"),
    (["sweep", "--attack", "bwh", "--fixed-alpha1", "0.5", "--cells", "20", "--k", "0.5"],
     "b8f11dd327ca06c6ab6b3c8f1c97945fd673c9fae1eb7adabd52007954030201"),
    (["delta-bound", "--alpha", "0.25", "0.15", "--k", "0"],
     "9bc31b55b573194b28707d31abebb7f26386263feb47d29c37fd0bbf39cdcef7"),
]

#: the benchmark's exact commands at seed 1 (``perfbench/workloads.py``)
PERFBENCH = {
    "sweep-faw": ["sweep", "--attack", "faw", "--cells", "60", "--seed", "1"],
    "audit-ipbwh": ["audit-ipbwh", "--cells", "30", "--seed", "1"],
    "table3-exact": ["reproduce-table", "3", "--seed", "1"],
    "payoff-exact": ["payoff", "--alpha", "0.2", "0.2", "--a1", "0.05", "0", "--a2", "0", "0.02",
                     "--seed", "1"],
}
