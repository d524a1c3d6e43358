"""Golden byte-identity of ``emitterforge simulate``.

A small dose-ladder run with every detector imperfection switched on
(background, efficiency, jitter, dead time, dark counts) and sites holding
0 to 3 centres, so the emitter merge, the background merge, the dead-time
filter and the arm merge all act on the written bytes. The digests pin the
output of the exact sampler and detection chain under a fixed seed: a
rewrite of the detection or merge layers must leave every byte unchanged.

A deliberate change of the random draw order (for example an exact
two-level sampler that replaces the geometric/gamma draws) changes these
bytes by design. Such a change must regenerate the digests below and
record the change of outputs in CHANGES.md.

The digests were taken with numpy 2.4.6. numpy does not promise that its
``Generator`` draws (gamma, exponential, normal, binomial) stay the same
across versions, so under another numpy a mismatch may come from numpy
rather than from this package; the failure message names both versions.
"""
import hashlib

import numpy as np

from emitterforge.cli import main

# the numpy version the digests below were taken with
GOLDEN_NUMPY = "2.4.6"

GOLDEN_INI = """\
[pattern]
kind = fib_grid
pitch = 10 um
rows = 1

[creation]
p_success = 0.5
atoms_per_center = 2

[emitter]
lifetime = 50 ns
sat_power = 150 uW
sat_rate = 2 Mcps

[background]
rate = 5 kcps

[detectors]
efficiency = 0.6
jitter = 80 ps
dead_time = 300 ns
dark_rate = 2 kcps

[run]
seed = 23
duration = 0.004 s
power = 300 uW
"""

GOLDEN_SHA256 = {
    "A1.ttg": "3a91f34b444a91ba6b1f913c944c05c60519900746e4685579597d13004c08f2",
    "B1.ttg": "ce9784b9558c1cb41457b434706c88220e19bf766fa6b252154d3cead5997771",
    "C1.ttg": "d070ad922eb1c690c4d874acb118c030330acd5f72de3e61993394b12366201a",
    "D1.ttg": "6bf81b586cab59da01e354c0224b378cd4cffeee366e24a04c10311b0a5ce439",
    "E1.ttg": "6941f4573f1156b4b6a2637bf603c83969f56bf1eb2bc7703c2e4017afdf69d6",
    "F1.ttg": "7bfca42f95217fd1b7312eed4a02272dbf7bd63c6b907ca2217ddcb8debc96c0",
    "G1.ttg": "ca8cd68e158f4183f212cd1ded3b063b2092595d6b614ce3557f396cca1b6b5b",
    "H1.ttg": "ac224da3613d39479fec0d71e3998b89f277d24e8b0b05a5e414d18999158c9e",
    "I1.ttg": "1868880114b0854013888a53ead663f4af8889647dc839d4606537315259bc9d",
    "J1.ttg": "216389f87fe70d0407abf3dc14f8ff844f3e778cc0dec6a2585bb7be982814a2",
    "K1.ttg": "9bc075a49a8e452563b5991af0343334aefaf7657c66d44f20bf4ee3f499000a",
    "L1.ttg": "e534db0b54ba4fc93db430964f1a2890326bb53c23a92d6745f296dafae4f24b",
    "M1.ttg": "ef6196b7a7a4e9e519085126567e568c0ce6578f49b60b09437ac760ed95fcff",
    "N1.ttg": "42ee216ddca538b791118454fc4ec3b3dee3da75998034a4945847e097fa66a5",
    "O1.ttg": "6e8de1c4a119903f290f0727b3cdcd9f2610b2b95794d580d02b3e15cac051bd",
    "P1.ttg": "ccef38ae9ede6d2b403e64c361ebeb4e375ef0c4cc398658d4a610c0ad3dfcc1",
    "manifest.csv": "7a879588fc59c25bd35ee611d41a1bd3c4b41acd4c2eb7d3d6f09d4bcdb7d356",
}


def test_simulate_output_matches_golden_digests(tmp_path):
    ini = tmp_path / "golden.ini"
    ini.write_text(GOLDEN_INI)
    out = tmp_path / "run"
    assert main(["simulate", str(ini), str(out)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
    }
    assert sorted(digests) == sorted(GOLDEN_SHA256)
    changed = sorted(name for name in digests if digests[name] != GOLDEN_SHA256[name])
    assert not changed, (
        f"output bytes changed in {changed} (digests taken with numpy "
        f"{GOLDEN_NUMPY}, running numpy {np.__version__})"
    )
