"""slotnoise benchmark: time run_experiment end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (timed as ``setup_s``, median of SETUP_REPEATS) synthesizes the
inputs from the seed, starts the fake chat server for the remote workload
and, for the warm workload, makes the priming cold run. Then each timed
repetition runs ``run_experiment`` in a fresh interpreter (perfbench/rep.py)
with a fresh run directory; repetitions continue until ``--seconds`` is
spent. Every repetition's outputs are checked. With ``--trace 1`` untraced
and traced repetitions alternate and the per-layer metrics are reported
instead of the end-to-end ones. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import fakeserver
import synth

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

# Set-up is repeated at least SETUP_REPEATS times, and cheap set-ups until
# SETUP_MIN_S is spent (at most SETUP_MAX_REPEATS), so the median is steady.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 20
MIN_REPS = 3  # per kind of repetition, even if --seconds is spent
REP_TIMEOUT_S = 60
REMOTE_LATENCY_S = 0.020


@dataclass(frozen=True)
class Workload:
    n: int  # test utterances; the demo pool has 3n candidates
    strategy: str
    remote: bool = False
    warm: bool = False


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "retrieve-cold": Workload(400, "retrieve"),
    "random-cold": Workload(1000, "random"),
    "random-warm": Workload(1000, "random", warm=True),
    "remote-latency": Workload(200, "random", remote=True),
}


def cores() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def run_config(wl: Workload, inputs: synth.Inputs, run_dir: Path, seed: int, endpoint: str) -> dict:
    if wl.remote:
        model = {
            "kind": "remote",
            "model": "fake-chat",
            "endpoint": endpoint,
            "max_in_flight": cores(),
            "timeout": 30.0,
        }
    else:
        model = {"kind": "echo_gold"}
    return {
        "name": "bench",
        "test_splits": inputs.splits,
        "out_dir": str(run_dir),
        "pool_clean": inputs.pool,
        "pool_specs": [
            {"kind": "char_typos", "p": 0.3, "seed": 11},
            {"kind": "word_homophone", "p": 0.5, "seed": 22},
        ],
        "demo_mode": "instance",
        "demo_strategy": wl.strategy,
        "demo_pool": "mixed",
        "demo_k": 5,
        "template_id": "t1_english",
        "model": model,
        "scoring_mode": "text_match",
        "seed": seed,
    }


def child_env() -> dict:
    # The fake server is on loopback; a proxy from the environment must not see it.
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_rep(config_path: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), str(config_path)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=REP_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def cache_entries(run_dir: Path) -> dict[str, int]:
    """Cache file name -> modification time (ns)."""
    cache = run_dir / "cache"
    if not cache.is_dir():
        return {}
    return {e.name: e.stat().st_mtime_ns for e in os.scandir(cache)}


def same_outputs(run_dir: Path, ref_dir: Path) -> list[str]:
    """Differences between run_dir (without cache/) and the reference copy."""
    problems = []
    names = sorted(p.name for p in run_dir.iterdir() if p.name != "cache")
    ref_names = sorted(p.name for p in ref_dir.iterdir())
    if names != ref_names:
        problems.append(f"run files {names} differ from priming run files {ref_names}")
    for name in set(names) & set(ref_names):
        if not filecmp.cmp(run_dir / name, ref_dir / name, shallow=False):
            problems.append(f"{name} differs from the priming run")
    return problems


@dataclass
class Bench:
    """What set-up leaves for the timed repetitions."""

    wl: Workload
    run_dir: Path
    config_path: Path
    server: fakeserver.FakeChatServer | None = None
    ref_dir: Path | None = None  # warm, once primed: the priming run's outputs without cache/

    def prepare(self) -> tuple[dict[str, int], int]:
        """Give the next repetition a fresh run directory (warm: keep the cache)."""
        if self.wl.warm:
            for entry in self.run_dir.iterdir():
                if entry.name != "cache":
                    shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        else:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        served = self.server.counts()[0] if self.server else 0
        return cache_entries(self.run_dir), served

    def check(self, rep: dict, cache_before: dict[str, int], served_before: int) -> tuple[list[str], int]:
        """Output problems of one repetition and its failed-example count."""
        n = self.wl.n
        if self.server:
            served, unknown = self.server.counts()
            rep["server_requests"] = served - served_before
        if rep.get("error"):
            return [f"run failed: {rep['error']}"], n
        problems = []
        failed = 0
        errors_file = self.run_dir / "errors.jsonl"
        if errors_file.exists():
            failed = len(errors_file.read_text(encoding="utf-8").splitlines())
            problems.append(f"errors.jsonl lists {failed} failed examples")
        bad = {g: f for g, f in rep["group_f1"].items() if round(f, 2) != 100.0}
        if bad or round(rep["micro_f1"], 2) != 100.0:
            problems.append(f"F1 below 100.00: groups {bad}, micro {rep['micro_f1']:.2f}")
        if set(rep["group_f1"]) != {g for g, _ in synth.GROUPS}:
            problems.append(f"unexpected groups {sorted(rep['group_f1'])}")
        with (self.run_dir / "prompts.jsonl").open(encoding="utf-8") as fh:
            shas = [json.loads(line)["prompt_sha"] for line in fh]
        if len(shas) != n or len(set(shas)) != n:
            problems.append(f"{len(set(shas))} distinct prompts in {len(shas)} records, expected {n}")
        cache_after = cache_entries(self.run_dir)
        if self.ref_dir is not None:
            if cache_after != cache_before:
                problems.append("warm run added or rewrote cache entries")
            problems.extend(same_outputs(self.run_dir, self.ref_dir))
        elif len(cache_after) != n:
            problems.append(f"cold run left {len(cache_after)} cache entries, expected {n}")
        if self.server and (rep["server_requests"] != n or unknown):
            problems.append(
                f"server saw {rep['server_requests']} requests, expected {n} "
                f"({unknown} with an unknown input line so far)"
            )
        return problems, failed


def setup(wl: Workload, seed: int, base: Path, stack: ExitStack) -> tuple[Bench, list[str]]:
    """Synthesize inputs, start the server, prime the cache."""
    inputs = synth.synthesize(ROOT / "data", base / "inputs", wl.n, seed)
    bench = Bench(wl, base / "run", base / "config.json")
    endpoint = ""
    if wl.remote:
        bench.server = stack.enter_context(
            fakeserver.FakeChatServer(inputs.answers, REMOTE_LATENCY_S)
        )
        endpoint = bench.server.endpoint
    bench.config_path.write_text(
        json.dumps(run_config(wl, inputs, bench.run_dir, seed, endpoint)), encoding="utf-8"
    )
    if not wl.warm:
        return bench, []
    rep = run_rep(bench.config_path, traced=False)
    problems, _ = bench.check(rep, {}, 0)  # checked as a cold run: ref_dir is not set yet
    bench.ref_dir = base / "ref"
    shutil.copytree(bench.run_dir, bench.ref_dir, ignore=shutil.ignore_patterns("cache"))
    return bench, problems


@dataclass
class Measurement:
    reps: dict[bool, list[dict]] = field(default_factory=lambda: {False: [], True: []})
    attempted: int = 0
    failed: int = 0


def measure(bench: Bench, seconds: float, traced_too: bool, problems: list[str]) -> Measurement:
    """Repeat the run until the time is spent; check every repetition."""
    kinds = [False, True] if traced_too else [False]
    m = Measurement()
    started = time.perf_counter()
    last_cost = 0.0
    while not problems:
        count = sum(len(v) for v in m.reps.values())
        enough = min(len(m.reps[k]) for k in kinds) >= MIN_REPS
        if enough and time.perf_counter() - started + last_cost > seconds:
            break
        traced = kinds[count % len(kinds)]
        cache_before, served_before = bench.prepare()
        t0 = time.perf_counter()
        rep = run_rep(bench.config_path, traced)
        last_cost = time.perf_counter() - t0
        rep_problems, rep_failed = bench.check(rep, cache_before, served_before)
        m.attempted += bench.wl.n
        m.failed += rep_failed
        problems.extend(rep_problems)
        m.reps[traced].append(rep)
        if not rep.get("error"):
            print(
                f"rep {count + 1}{' traced' if traced else ''}: "
                f"wall {rep['wall_s']:.4f} s, cpu {rep['cpu_s']:.4f} s"
            )
    return m


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) - 1e-9) - 1)]


def trace_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over traced repetitions, plus request percentiles."""
    samples: dict[str, list[float]] = {}
    for rep in traced:
        layer = rep["trace"]["metrics"]
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
        requests = rep.get("server_requests", 0)
        samples.setdefault("client.server_requests", []).append(requests)
        samples.setdefault("client.retries", []).append(
            max(0, requests - layer["client.backend_calls"])
        )
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    request_ms = [ms for rep in traced for ms in rep["trace"]["request_ms"]]
    metrics["client.request_ms_p50"] = nearest_rank(request_ms, 0.50)
    metrics["client.request_ms_p99"] = nearest_rank(request_ms, 0.99)
    if untraced and traced:
        plain = statistics.median(r["wall_s"] for r in untraced)
        with_spans = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_pct"] = (with_spans / plain - 1) * 100
    missing = sorted({m for rep in traced for m in rep["trace"]["missing"]})
    if missing:
        print(f"missing trace hooks: {', '.join(missing)}")
    return metrics, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    missing = [p for p in ("src/slotnoise/harness.py", "data/clean.jsonl") if not (ROOT / p).exists()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    problems: list[str] = []
    setup_times: list[float] = []
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, WORK_DIR, True)
        setup_stack = None
        while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS
        ):
            if setup_stack is not None:  # only the last set-up is kept
                setup_stack.close()
                shutil.rmtree(base)
            base = WORK_DIR / f"setup{len(setup_times)}"
            setup_stack = stack.enter_context(ExitStack())
            t0 = time.perf_counter()
            bench, setup_problems = setup(wl, args.seed, base, setup_stack)
            setup_times.append(time.perf_counter() - t0)
            problems.extend(setup_problems)
        m = measure(bench, args.seconds, bool(args.trace), problems)

    ok = [r for r in m.reps[False] if not r.get("error")]
    traced_ok = [r for r in m.reps[True] if not r.get("error")]
    versions = (ok or traced_ok or [{}])[0].get("versions", {})
    print(
        f"workload {args.workload} (n={wl.n}, seed={args.seed}): {why}\n"
        f"python {versions.get('python')} numpy {versions.get('numpy')} "
        f"requests {versions.get('requests')} nproc {cores()}"
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not ok or (args.trace and not traced_ok):
        problems.append("no repetition completed")
    if args.trace:
        metrics, samples = trace_metrics(ok, traced_ok)
    else:
        samples = {
            "examples_per_s": [wl.n / r["wall_s"] for r in ok],
            "cpu_ms_per_example": [r["cpu_s"] * 1000 / wl.n for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
            "setup_s": setup_times,
        }
        metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    for name, unit in units.items():
        values = samples.get(name) or [metrics.get(name, 0.0)]
        q1, q3 = quartiles(values)
        print(
            f"{name:32s} {metrics.get(name, 0.0):12.4f} {unit:6s} "
            f"median of {len(values)} (q1 {q1:.4f}, q3 {q3:.4f})"
        )
    result = {
        "correct": not problems and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
