#!/usr/bin/env python3
"""Run the bundled desk-scale experiments end to end with mock clients.

Executes the single- and mixed-perturbation configs, both again with
similarity-retrieved demonstrations (instance and entity mode), a
demonstration-count sweep, and a template comparison, then prints every
report table. Everything
is offline and deterministic; rerunning reuses the response caches.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from slotnoise.harness import (
    RunConfig,
    compare_templates,
    render_report,
    run_experiment,
    sweep_demo_count,
)


def main() -> None:
    single = RunConfig.from_json(ROOT / "configs" / "mock_single.json")
    mixed = RunConfig.from_json(ROOT / "configs" / "mock_mixed.json")

    print("== single perturbation (echo_gold oracle) ==")
    result = run_experiment(single)
    print(render_report({single.name: result}))

    print("== mixed perturbation (noisy_oracle, e=0.3) ==")
    result = run_experiment(mixed)
    print(render_report({mixed.name: result}))

    print("== retrieved instance demonstrations, mixed pool (echo_gold oracle) ==")
    retrieve_instance = replace(
        single,
        name="retrieve_instance",
        demo_strategy="retrieve",
        demo_pool="mixed",
        out_dir=str(ROOT / "runs" / "retrieve_instance"),
    )
    result = run_experiment(retrieve_instance)
    print(render_report({retrieve_instance.name: result}))

    print("== retrieved entity demonstrations (noisy_oracle, e=0.3) ==")
    retrieve_entity = replace(
        mixed,
        name="retrieve_entity",
        demo_strategy="retrieve",
        out_dir=str(ROOT / "runs" / "retrieve_entity"),
    )
    result = run_experiment(retrieve_entity)
    print(render_report({retrieve_entity.name: result}))

    print("== demonstration-count sweep (noisy_oracle) ==")
    sweep_cfg = replace(
        mixed,
        name="sweep",
        demo_mode="instance",
        out_dir=str(ROOT / "runs" / "sweep"),
    )
    sweep_demo_count(sweep_cfg, [0, 1, 5, 10])
    print((ROOT / "runs" / "sweep" / "sweep.tsv").read_text(), end="")

    print("\n== template comparison (noisy_oracle) ==")
    cmp_cfg = replace(mixed, name="templates", out_dir=str(ROOT / "runs" / "templates"))
    results = compare_templates(cmp_cfg, ["t1_english", "t2_concise", "t3_chinese"])
    print(render_report(results, baseline="t1_english"))


if __name__ == "__main__":
    main()
