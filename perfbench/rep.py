"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/rep.py CONFIG_JSON [--trace]

Imports slotnoise from ``src/`` of the checkout it runs in, times one
``run_experiment`` call (wall and process CPU time) and prints one JSON line
with the timings, peak RSS, per-group F1 and, with --trace, the per-layer
totals from benchmark-side spans.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def main(argv: list[str]) -> int:
    import numpy
    import requests

    import slotnoise.harness

    tracer = None
    if "--trace" in argv[1:]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    data = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    cfg = slotnoise.harness.RunConfig.from_dict(data)
    out: dict = {
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "requests": requests.__version__,
        },
        "error": None,
    }
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = slotnoise.harness.run_experiment(cfg)
    except Exception:
        result = None
        out["error"] = traceback.format_exc(limit=3)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if result is not None:
        out["group_f1"] = {g: s.f1 for g, s in result.per_group.items()}
        out["micro_f1"] = result.overall.micro_f1
    if tracer is not None:
        out["trace"] = spans.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
