"""The bundled configs write the same bytes they always have.

Digests cover the run files that do not depend on the output path. When an
intended output change alters one, rerun the config, inspect the new files
and update the digest in the same change.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from slotnoise.harness import RunConfig, run_experiment

from conftest import ROOT

DIGESTS = {
    "mock_single.json": {
        "prompts.jsonl": "a13032236d52c17a937c13673cfe13e6f41576555d48008068bdfae54cc6e3f9",
        "responses.jsonl": "8103e5313f398214778d0a7af13d32509af32a542b90c38e76cf7a301954be47",
        "predictions.jsonl": "25df381c9b40f1613e6261156b3b3c175f85049495924bb3672728c698c94dfb",
        "gold.jsonl": "0ee930bfafcba58196bb68c269fe4eeb801f82306e316b4ae77f3b86f780864d",
        "groups.tsv": "ede2263e3404ff05d213a1b4967550c264f9e3c715569390a744e02a645f619f",
        "report.tsv": "8e68ecbcd53f2061008e4bec162fa452eacb06af7437d6817b6f5c03fbdfbe5a",
    },
    "mock_mixed.json": {
        "prompts.jsonl": "54a46f1f3716bcf26dfd123e364684715e78c50bcbf8d05883712aadd1861971",
        "responses.jsonl": "da28fb4c29e3b2273b9354f8c40e47e0ba0e07080c742e8350a55e24c7983371",
        "predictions.jsonl": "5f1e392b1076f5cde9816434e7e3e6dae06631a344bc8f3c053ab9d8e5f2b825",
        "gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
        "groups.tsv": "7d3660c382be423a8d26aa54846e633f721613a8fa2aa68a291faf0ffa165050",
        "report.tsv": "451659c6230704a3da5d77d1c8ddc814b6576978fdcd37d10a9b86414bb861ba",
    },
}


@pytest.mark.parametrize("config", sorted(DIGESTS))
def test_bundled_config_outputs_match_recorded_digests(tmp_path, config):
    cfg = RunConfig.from_json(ROOT / "configs" / config)
    run_experiment(replace(cfg, out_dir=str(tmp_path / "run")))
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in DIGESTS[config]
    }
    assert digests == DIGESTS[config]
