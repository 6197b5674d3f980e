"""Golden quick tables: absolute digests of every experiment's render.

Each digest is the sha256 of one experiment's quick ``render()`` text.
Both routes the engine can take must reproduce it exactly:

* ``get_spec(id).run(quick)`` — every cell measured whole by
  ``run_cell`` (the monolithic oracle);
* one ``execute_campaign`` over the whole catalog — divisible cells
  split and folded, metrics runs on the round-batched delivery engine.

A table that moves on either route is a changed result, not a changed
route: update a digest only together with the change to the experiment
that moved it.  This is the start of a conformance corpus — the tables
are pinned as values, not only as agreement between two code paths.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import ALL_EXPERIMENTS, RunProfile, get_spec
from repro.runner import execute_campaign

QUICK = RunProfile(preset="quick")

GOLDEN_SHA256 = {
    "E1": "ed257bd765e4f994b899455c5cd56f8478c4168bc6b15f2839f1aac7c7ac1e59",
    "E2": "727acdde5a41dd3b26d25f2d56a253ab9a69ba60ccb612b0675cccedf58af0b4",
    "E3": "b9e235436c2fd16773bdb689d711e5cfaa3bbe25ccd1f1e3b862dd8b6a930d88",
    "E4": "8ec256a5e1ff984d0863b87fb90226fce3cef6fb83eca8784cce5d2e85ef4db4",
    "E5": "d87e90469ef3b23365c9983de3ddd5f0e9b887fa649ce2efbc426ef754f9ae1a",
    "E6": "7f1c1db9b0c0ab0303be214484e2ee6e0a69fa688e2ce46da2782a56cd0034d3",
    "E7": "7ff5ef3a2ad8363cf76878c422f980124f298ac956c39511998e91e8a380c8fa",
    "E8": "779a4b5d1d56952d683bc5df199d38202c70ca0f921608bf9379ef88f99c0410",
    "E9": "8d842d52033c966b7928e7bd035d37a540051fb0b6a6cb529ed8edd443462475",
    "E10": "9fe35f16183222b3635eab2b61d375b0d6838490cbdac56e9b01c0016d555613",
    "E11": "af04b6881e7e90c33df60f6ee119860a27456376ff18a2fb95734cf75f894ac0",
    "E12": "37ed54271b4654e84c4866c13e64f1ddcd92e72a7517ddfc224348cb8c5e0b12",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_the_catalog():
    assert tuple(GOLDEN_SHA256) == tuple(ALL_EXPERIMENTS)


@pytest.mark.parametrize("exp_id", ALL_EXPERIMENTS)
def test_monolithic_run_matches_golden(exp_id):
    assert _digest(get_spec(exp_id).run(QUICK).render()) == GOLDEN_SHA256[exp_id]


def test_campaign_matches_golden():
    campaign = execute_campaign(
        [get_spec(exp_id) for exp_id in ALL_EXPERIMENTS], QUICK, jobs=1
    )
    # The divided route was taken, not only the monolithic one.
    assert campaign.subtasks_run > 0
    rendered = {
        exp_id: _digest(campaign.executions[exp_id].result.render())
        for exp_id in ALL_EXPERIMENTS
    }
    assert rendered == GOLDEN_SHA256
