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
        "report.tsv": "8e68ecbcd53f2061008e4bec162fa452eacb06af7437d6817b6f5c03fbdfbe5a",
    },
    "mock_mixed.json": {
        "prompts.jsonl": "54a46f1f3716bcf26dfd123e364684715e78c50bcbf8d05883712aadd1861971",
        "responses.jsonl": "da28fb4c29e3b2273b9354f8c40e47e0ba0e07080c742e8350a55e24c7983371",
        "predictions.jsonl": "5f1e392b1076f5cde9816434e7e3e6dae06631a344bc8f3c053ab9d8e5f2b825",
        "gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
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


# The retrieved-demonstration variants that scripts/run_mock_eval.py runs.
RETRIEVE_VARIANTS = {
    "retrieve_instance": (
        "mock_single.json",
        {"demo_strategy": "retrieve", "demo_pool": "mixed"},
        {
            "prompts.jsonl": "5043831977dbcb22afa07d802b309c33ae3e6656b97c33b52ac993895c0ee83f",
            "responses.jsonl": "1135b3310608f7c3b953555faaec438573852a390539df9972522c858119dfa4",
            "predictions.jsonl": "25df381c9b40f1613e6261156b3b3c175f85049495924bb3672728c698c94dfb",
            "gold.jsonl": "0ee930bfafcba58196bb68c269fe4eeb801f82306e316b4ae77f3b86f780864d",
            "report.tsv": "c66e04bce66ea72116fb2ae4d3b9f26caabe7a0a8103c35c955303649294b8b3",
        },
    ),
    "retrieve_entity": (
        "mock_mixed.json",
        {"demo_strategy": "retrieve"},
        {
            "prompts.jsonl": "6cf7c8c3a2ed4d8d5fc68f763f00fcf721943975b05f6f1389e78be7c3fbb136",
            "responses.jsonl": "4f6763717c7cd8ee2aee2f2669294248b430064d871580087a78a28dd77f3f69",
            "predictions.jsonl": "a8c82d6e1e694e5d5a2206d6f8d12c728b15c01b82fad030779fea1dade70bd0",
            "gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
            "report.tsv": "0502ab086a5759d064d0a2b5695053130e87adff500a060cf23ee49d0fc21827",
        },
    ),
}


@pytest.mark.parametrize("variant", sorted(RETRIEVE_VARIANTS))
def test_retrieve_variant_outputs_match_recorded_digests(tmp_path, variant):
    config, changes, expected = RETRIEVE_VARIANTS[variant]
    cfg = RunConfig.from_json(ROOT / "configs" / config)
    run_experiment(replace(cfg, name=variant, out_dir=str(tmp_path / "run"), **changes))
    digests = {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert digests == expected
