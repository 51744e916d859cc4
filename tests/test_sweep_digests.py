"""Sweeps and template comparisons write the same bytes they always have.

These are the demonstration-count sweep and the template comparison that
scripts/run_mock_eval.py runs. Digests cover the files that do not depend on
the output path (config.json and result.json hold it). When an intended output
change alters one, rerun the script, inspect the new files and update the
digest in the same change.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

from slotnoise.harness import RunConfig, compare_templates, sweep_demo_count

from conftest import ROOT

SWEEP_DIGESTS = {
    "k0/prompts.jsonl": "088a92a45bef79a9536330d8d5b6dc282cef252e83c2353de07410fce9389ff1",
    "k0/responses.jsonl": "7cf18e1aa1a7988f2543c2cd71639f3366659080cb3c8f27ded9c9a922d17b41",
    "k0/predictions.jsonl": "1f53bda0712d65c0d565734d0d9dd99952baa8b61685a05938d56ea66cd9a7c1",
    "k0/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "k0/report.tsv": "aba3126864fd1c2617642bd678b69ee1acb92b90fdef8765f0022229603dd929",
    "k0/report.txt": "4d266d6e5b89d534d5276985eba3e3596e854ecf1a52cc023d60774486a8d0d8",
    "k1/prompts.jsonl": "8fe9ddbb79b46f3c857d337d004725c7c15d77477762cdf912bd079d0db5f3a0",
    "k1/responses.jsonl": "9ef06b743e4be910abf49e87135ea837c16b50d9ca4cdd02909cf77261327eb2",
    "k1/predictions.jsonl": "c1c493e4be7e231fd44b4363544aa0e531d37bef5eeac53ce16950cbad9bac4b",
    "k1/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "k1/report.tsv": "359f340c91b7e141605c013781b3ee2dbfbd86e1d96323866d1f9a2d30bfa6dd",
    "k1/report.txt": "07ed5a10c9b24e9dba19ab77b0b5345df1dc090941bec790cffd5df085129523",
    "k5/prompts.jsonl": "f64b838280176230f084cd318d06f4116da4ec6858d0a710df46f109dc7316e8",
    "k5/responses.jsonl": "3f023d73c520da0f95ce50c3a822bf5e524c063d9a93ed7b6126d8998074b14a",
    "k5/predictions.jsonl": "e663755d79658c7fc0b578942cbc42cd5349f1fa401ce428c024c5eabfe615d2",
    "k5/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "k5/report.tsv": "fe9bc5f177e7a089d19c3c391fec6eff80c452e0d8ccff56086124809eff5b46",
    "k5/report.txt": "dd6b6ccf1b6fedfa0bf6f34163a017b094af4785ecad61651edcd2aef1f51d3f",
    "k10/prompts.jsonl": "94e47595808c9d8cf765dbb72c12f61cc40902fdee8e1f7ce555bdd3f13c4b82",
    "k10/responses.jsonl": "593aa26802b06b25a943c3eb20fc1fc4e9cf601e3ab800f2d9a89c12a4a88eb0",
    "k10/predictions.jsonl": "c77c02c9510b8c57a21db6723f7e45312df29ce7f5c82f37f4aca0c88b0ad9ce",
    "k10/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "k10/report.tsv": "5bb11728ae614daac74000e95574a89c7885ccbbbf6cad0a18472c9482386bdf",
    "k10/report.txt": "0df261f250291133cef8252363d5f516dc24a207785bb7ade3730d7e07215fb5",
    "sweep.tsv": "9b45bd79bbe6505b8ec9ba394b40af2d8b905570abf625f01c8bad91d19765c5",
}

TEMPLATE_DIGESTS = {
    "tmpl_t1_english/prompts.jsonl": "54a46f1f3716bcf26dfd123e364684715e78c50bcbf8d05883712aadd1861971",
    "tmpl_t1_english/responses.jsonl": "da28fb4c29e3b2273b9354f8c40e47e0ba0e07080c742e8350a55e24c7983371",
    "tmpl_t1_english/predictions.jsonl": "5f1e392b1076f5cde9816434e7e3e6dae06631a344bc8f3c053ab9d8e5f2b825",
    "tmpl_t1_english/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "tmpl_t1_english/report.tsv": "b1e9fcf7e1d759dd93e01e4ff907216ca215535a22219ae9f545050392f4cfa1",
    "tmpl_t1_english/report.txt": "07941bbf70d7b22c38f90e37db8b88fdfbead2752249c613f0435a5d55a31f89",
    "tmpl_t2_concise/prompts.jsonl": "073dfc4e1606f3c481d3028495bb96ef9e191b118bade5a203caf9f949e52ec9",
    "tmpl_t2_concise/responses.jsonl": "b2e449207b6a12f84e4cd1775ba428527cbbdf303dc77406135f157561a69da4",
    "tmpl_t2_concise/predictions.jsonl": "f629548b81077b0b0cab8dd49dfb9ad98e86df1ad5d22ed69afa00a9580e0c23",
    "tmpl_t2_concise/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "tmpl_t2_concise/report.tsv": "deaa0f9371b264343d18a14b90c03c790a2207b1cc85bce94c94b2456e9c9496",
    "tmpl_t2_concise/report.txt": "d91191b937af35fafc3ca7529af40937bc7eda1131ae5577043db91e021ed7f1",
    "tmpl_t3_chinese/prompts.jsonl": "580582a4d82cf14c9788a9c268ef879b511e76b6677307b1cdfaf1a5bdb7489b",
    "tmpl_t3_chinese/responses.jsonl": "0eba15c980be315f09034e327495cb0d6a21cb45432816bb2c49ffe40235a568",
    "tmpl_t3_chinese/predictions.jsonl": "69efddd1fa974e0ed88e5a1781072aea27b0926264c1ca7a92a5a34050b5d44b",
    "tmpl_t3_chinese/gold.jsonl": "d8782568c0972fd38999a214082b1406a2eccfd5fefe0c831d0ef575000bf461",
    "tmpl_t3_chinese/report.tsv": "d9e30cd42257a916a97559863a92a85f81255c3a38ac4173031e7c4b9850dfd9",
    "tmpl_t3_chinese/report.txt": "1da95ce26f2bf88d7bc30abdb76821b93d1e4f5a3cdd5fd046cf362e5d189c67",
    "report.tsv": "4ead405e2f93349e86d47a04b27f7508dc9bfb4a8f95782a9db98f85d3c50ad1",
    "report.txt": "c62b0cf04c57199032c46e894b51c21e46a56146e401b393151306b0f1980f76",
}


def digests(root: Path, expected: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in expected}


def mixed_config() -> RunConfig:
    return RunConfig.from_json(ROOT / "configs" / "mock_mixed.json")


def test_sweep_outputs_match_recorded_digests(tmp_path):
    out = tmp_path / "sweep"
    cfg = replace(mixed_config(), name="sweep", demo_mode="instance", out_dir=str(out))
    sweep_demo_count(cfg, [0, 1, 5, 10])
    assert digests(out, SWEEP_DIGESTS) == SWEEP_DIGESTS


def test_template_comparison_outputs_match_recorded_digests(tmp_path):
    out = tmp_path / "templates"
    cfg = replace(mixed_config(), name="templates", out_dir=str(out))
    compare_templates(cfg, ["t1_english", "t2_concise", "t3_chinese"])
    assert digests(out, TEMPLATE_DIGESTS) == TEMPLATE_DIGESTS
