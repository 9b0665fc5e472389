"""Every candidate score over the benchmark sweep's 38 shapes, pinned bitwise.

The shapes are the sweep workload's fixed list: the 4 Table III rows, the
13 VGG-16 conv layers and one design block over the Figs. 7-9 space.  Each
row holds the candidate count and a SHA-256 over every candidate's
:func:`score_candidate` estimate (plan name and each factor as
``float.hex``), in enumeration order.  The table was captured from the
estimator that simulated every kernel iteration count, so it pins the
closed-form kernel timing and the shared ``PerformanceModel`` path to the
same bits.
"""

import hashlib
import json

import pytest

from repro.core.params import ConvParams
from repro.core.zoo import vgg16
from repro.experiments.table3 import PAPER_ROWS
from repro.tune.space import enumerate_candidates
from repro.tune.tuner import score_candidate

FIG_CHANNELS = tuple(range(64, 385, 16))
FIG_OUTPUTS = tuple(range(16, 65, 8))
FIG_KERNELS = (1, 3, 5)


def sweep_shapes():
    """Table III, VGG-16's convs, then one Figs. 7-9 design block."""
    shapes = [
        ConvParams.from_output(ni=ni, no=no, ro=64, co=64, kr=3, kc=3, b=128)
        for _, _, _, ni, no, *_ in PAPER_ROWS
    ]
    shapes += [layer.conv for layer in vgg16() if layer.kind == "conv"]
    cells = [(out, k) for out in FIG_OUTPUTS for k in FIG_KERNELS]
    n = len(FIG_CHANNELS)
    shapes += [
        ConvParams.from_output(
            ni=FIG_CHANNELS[i], no=FIG_CHANNELS[n - 1 - i], ro=out, co=out, kr=k, kc=k, b=128
        )
        for i, (out, k) in enumerate(cells)
    ]
    return shapes


def score_digest(params):
    """``(candidate count, SHA-256 of every score)`` for one shape."""
    rows = []
    candidates = enumerate_candidates(params, algorithms="all")
    for cand in candidates:
        est = score_candidate(cand, params)
        rows.append(
            [est.plan]
            + [
                getattr(est, f).hex()
                for f in ("peak_flops", "execution_efficiency", "rbw_mem", "mbw_mem", "rbw_reg", "mbw_reg")
            ]
        )
    return len(candidates), hashlib.sha256(json.dumps(rows).encode()).hexdigest()


PINNED = [
    # (shape, candidates, sha256 of the scores)
    ("Conv(Ni=128, No=128, in=66x66, out=64x64, filter=3x3, B=128)", 2337, "7c50d7e68bf320fcf220780810099f9d1227408878d10a01ef483ebb97fa1395"),
    ("Conv(Ni=128, No=256, in=66x66, out=64x64, filter=3x3, B=128)", 2032, "792db7bef309e14a38e2e4c434e37a628934d6be4f7206b1cf6c8891119d5eb1"),
    ("Conv(Ni=256, No=256, in=66x66, out=64x64, filter=3x3, B=128)", 2247, "1943f9297c0958d2ad2605eb8e078b226c25a2fb2549c21d02ffb15c8c7fa642"),
    ("Conv(Ni=128, No=384, in=66x66, out=64x64, filter=3x3, B=128)", 1852, "c939a6c320f80d5a595418a6b6071d571b5f74f4e23d24417627a96f8876e758"),
    ("Conv(Ni=3, No=64, in=226x226, out=224x224, filter=3x3, B=32)", 452, "9daf1a21446f5a22dd7af7383a8fbe1ccec66cc70809f24fbab71b6fc88f53d2"),
    ("Conv(Ni=64, No=64, in=226x226, out=224x224, filter=3x3, B=32)", 1732, "704a22e818300aabbec6ed2710d0a50d3ab61884d8295b26419dde55d32791a0"),
    ("Conv(Ni=64, No=128, in=114x114, out=112x112, filter=3x3, B=32)", 1692, "1c7d25449a036aab24272e24fe66903169a4fe996f7015262741bec9d2dfa123"),
    ("Conv(Ni=128, No=128, in=114x114, out=112x112, filter=3x3, B=32)", 2067, "a7db38fee11637f525f456bf79affa4c4dc934a1e4b905a1fdcd0f3df01d68db"),
    ("Conv(Ni=128, No=256, in=58x58, out=56x56, filter=3x3, B=32)", 1737, "70a4d0e4d2d6d832642f598565601557e9b7d58028a31dc0d092db4868408b42"),
    ("Conv(Ni=256, No=256, in=58x58, out=56x56, filter=3x3, B=32)", 1957, "fa908479acb4773835cfd486df3f8909775681c273466297a7f23d743646b877"),
    ("Conv(Ni=256, No=256, in=58x58, out=56x56, filter=3x3, B=32)", 1957, "fa908479acb4773835cfd486df3f8909775681c273466297a7f23d743646b877"),
    ("Conv(Ni=256, No=512, in=30x30, out=28x28, filter=3x3, B=32)", 1447, "0bf6b07694031724c4437f3e8e2e93e0db1fcc6d322fb240445799e1202672c7"),
    ("Conv(Ni=512, No=512, in=30x30, out=28x28, filter=3x3, B=32)", 1447, "26a5ecc3f9bda986f2b52748a50ff195dae2324384616d7eb59eea48fbc63e7e"),
    ("Conv(Ni=512, No=512, in=30x30, out=28x28, filter=3x3, B=32)", 1447, "26a5ecc3f9bda986f2b52748a50ff195dae2324384616d7eb59eea48fbc63e7e"),
    ("Conv(Ni=512, No=512, in=16x16, out=14x14, filter=3x3, B=32)", 1222, "f4cb52bd4d47a88a77a9e9208b98ba69e54cd95555fc8101f3fcadafbca08b6f"),
    ("Conv(Ni=512, No=512, in=16x16, out=14x14, filter=3x3, B=32)", 1222, "f4cb52bd4d47a88a77a9e9208b98ba69e54cd95555fc8101f3fcadafbca08b6f"),
    ("Conv(Ni=512, No=512, in=16x16, out=14x14, filter=3x3, B=32)", 1222, "f4cb52bd4d47a88a77a9e9208b98ba69e54cd95555fc8101f3fcadafbca08b6f"),
    ("Conv(Ni=64, No=384, in=16x16, out=16x16, filter=1x1, B=128)", 1246, "3b69a3c078222ebded4e67c0546b2525e6387e39bfce4d07160225280f0dc225"),
    ("Conv(Ni=80, No=368, in=18x18, out=16x16, filter=3x3, B=128)", 1227, "7f844a70c1e79b8f710e2482e050a2c3c39a520d9192c0371ea1ff5936f3e904"),
    ("Conv(Ni=96, No=352, in=20x20, out=16x16, filter=5x5, B=128)", 1171, "d9f819f6d9ae07489b4909b2518eb3eda4eecf5f221fa3e6b69475b4c25ce768"),
    ("Conv(Ni=112, No=336, in=24x24, out=24x24, filter=1x1, B=128)", 1486, "91708d37c1c5fc04ebcebb4050b2bf700314147478e79c24b086fd0cac4d8656"),
    ("Conv(Ni=128, No=320, in=26x26, out=24x24, filter=3x3, B=128)", 1807, "4ec502a418850ccf7ad3d36c58e3282f90af275017c8fc20ad95e6e555760c1a"),
    ("Conv(Ni=144, No=304, in=28x28, out=24x24, filter=5x5, B=128)", 1701, "e50a82305f2e36286c8176107fda1e4897100ab3425274b01afb5a3f08a74902"),
    ("Conv(Ni=160, No=288, in=32x32, out=32x32, filter=1x1, B=128)", 1846, "161248ad20c4c162dcdf6c2074c1545ac41385e1a7f4cd8333e2534caae0a21a"),
    ("Conv(Ni=176, No=272, in=34x34, out=32x32, filter=3x3, B=128)", 1767, "5b6044a4fb0a769199d44d5ee05bbdbadd1348a0a63bc3f815ffc8b7bff1072c"),
    ("Conv(Ni=192, No=256, in=36x36, out=32x32, filter=5x5, B=128)", 1631, "c5da787bb0e37aeb6cd016209094a2f48321991cf44ae5fb72127a3f5989e963"),
    ("Conv(Ni=208, No=240, in=40x40, out=40x40, filter=1x1, B=128)", 2126, "6c87d6b244b880e0f3d2427045b96de982e2847b1e77e076c80fcdd0ad6d9b48"),
    ("Conv(Ni=224, No=224, in=42x42, out=40x40, filter=3x3, B=128)", 2032, "b2e7dd27a4338ed85c3c2418bd741e04707ddbbae94917aa444ec65802f6ffaa"),
    ("Conv(Ni=240, No=208, in=44x44, out=40x40, filter=5x5, B=128)", 1896, "5196755a59e7aa6d1feca1bfac8e9f52b5578f553360e6df65c4d77fbf7dc0c3"),
    ("Conv(Ni=256, No=192, in=48x48, out=48x48, filter=1x1, B=128)", 2656, "e9f6c1ea63f400ca2710957e56d361d2f12f6c3da933dfa01bd3c0ad4394796a"),
    ("Conv(Ni=272, No=176, in=50x50, out=48x48, filter=3x3, B=128)", 2552, "40f7c8b4f05a8024ca0a8f4488d6dbd98425a347012736bee4b49ba346256bb5"),
    ("Conv(Ni=288, No=160, in=52x52, out=48x48, filter=5x5, B=128)", 2436, "96b14f812a3955dfc9a564eee760938e057524882dfe168a7329f23ad94d95d6"),
    ("Conv(Ni=304, No=144, in=56x56, out=56x56, filter=1x1, B=128)", 2686, "5db1b847d2ccd7bfbd1189873c0760130e5a76b8488623d1495e603ebbeaea47"),
    ("Conv(Ni=320, No=128, in=58x58, out=56x56, filter=3x3, B=128)", 2582, "df16fec4c815c78c5177e70e15400075bb29f8c15b337f870bbed7bb70dfcce9"),
    ("Conv(Ni=336, No=112, in=60x60, out=56x56, filter=5x5, B=128)", 2566, "5c895b64d5b259d6cf8ddc233f5b1a404ccf381b53b78c41b433d269ffa717d0"),
    ("Conv(Ni=352, No=96, in=64x64, out=64x64, filter=1x1, B=128)", 2776, "a21ba74350447e494a0fabf368a269400424fca697aebc92a974b78af6d6ae86"),
    ("Conv(Ni=368, No=80, in=66x66, out=64x64, filter=3x3, B=128)", 2687, "68f15a858cee56f61f4f57aa59301751b5d1eb9ccf1084379c96ad41ca02f54c"),
    ("Conv(Ni=384, No=64, in=68x68, out=64x64, filter=5x5, B=128)", 2686, "5a10fa32a078ff925537bd17b7bc929767a3daa9cd1151f8f02103e12cb6039f"),
]


def test_table_covers_the_sweep():
    assert [row[0] for row in PINNED] == [p.describe() for p in sweep_shapes()]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_scores_bitwise_equal_to_pinned(index):
    params = sweep_shapes()[index]
    assert score_digest(params) == PINNED[index][1:]
