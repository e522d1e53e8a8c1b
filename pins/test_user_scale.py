"""User-scale output pins: the relation ideal, S and the conjugation
reports at genus 11 to 13.

Tier-1 pins builds up to g = 11 and S up to g = 10; these outputs lie
past that and take about half a minute, so they live outside tier-1's
``testpaths`` and run in a CI job of their own.  From the repository
root:

    PYTHONPATH=src python -m pytest pins -q

Each pin is a sha256: of the ideal's ``to_json``; of S's canonical form
(the scale, then the columns sorted by monomial, as in
``test_s_map_pinned_beyond_series_oracle``); and of the compact
sorted-key JSON of the report entries of ``CONJUGATIONS``, in order.
"""

import hashlib
import json

import pytest

from helpers import by_monomial
from tautjac.fourier import FourierMap
from tautjac.ideal import RelationIdeal
from tautjac.poly import mono_str
from test_ideal import PINNED_BUILDS

# the conjugations of the benchmark's verify_suite (perfbench/workloads.py),
# copied so that the pins do not import the harness: field members with
# 2 <= m + n <= 3, density members with m + n <= 3
CONJUGATIONS = (
    ("field", 0, 2), ("field", 1, 1), ("field", 2, 0),
    ("field", 0, 3), ("field", 1, 2), ("field", 2, 1), ("field", 3, 0),
    ("density", 0, 0), ("density", 0, 1), ("density", 1, 0),
    ("density", 0, 2), ("density", 1, 1), ("density", 2, 0),
    ("density", 0, 3), ("density", 1, 2), ("density", 2, 1), ("density", 3, 0),
)

PINS = {
    11: {
        "build": "e4136395cbdb7ce755e8167212e5237ca93ec5011bd392369871694422540269",
        "s_map": "bf2ed204b158ce275624e2da8d0d7a902b116fabeabf58a181374cef6d201cc0",
        "conjugations": "16d0dc53e63712ebf323c60d6e058574b5f613f30881bb43a32f4ecc7588a9d6",
    },
    12: {
        "build": "6701b61813a0cb6d0b6a01108d3a869265144a55bfc226676d61b75c8c20c85c",
        "s_map": "6f96f0f20c0944131224738442f49e30bee284097b0489ba8bee91fb1adc2a35",
        "conjugations": "b7b429f4cd5d69e1c1fe50bea9991b2ade5c840624c374ddf0af75e23cd9395f",
    },
    13: {
        "build": "f114a72ae9ffd857b6b53f1d80ceecfe505241625dbc4bcef42cf993d0c2e625",
        "s_map": "7484e65707d17710df27a521d27d31bb99794e1371bf008b083f3e4e55b921ad",
    },
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def s_map_canonical(fmap):
    scale, cols = by_monomial(fmap, fmap._s_map)
    canon = [scale] + [
        [mono_str(m)] + [[mono_str(d), c] for d, c in sorted(cols[m].items())] for m in sorted(cols)
    ]
    return json.dumps(canon, separators=(",", ":"))


def test_genus_11_build_pin_is_tier1s():
    assert PINNED_BUILDS[11] == PINS[11]["build"]


@pytest.mark.parametrize("genus", sorted(PINS))
def test_user_scale_outputs(genus):
    # one build per genus; S and the conjugations are read from it
    ideal = RelationIdeal.build(genus)
    fmap = FourierMap(ideal)
    got = {"build": sha256(ideal.to_json()), "s_map": sha256(s_map_canonical(fmap))}
    if "conjugations" in PINS[genus]:
        entries = [entry for family, m, n in CONJUGATIONS
                   for entry in fmap.verify_conjugation(m, n, family)]
        assert [entry["status"] for entry in entries] == ["ok"] * len(CONJUGATIONS)
        got["conjugations"] = sha256(json.dumps(entries, sort_keys=True, separators=(",", ":")))
    assert got == PINS[genus]
