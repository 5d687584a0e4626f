"""meshsum benchmark: run one workload through ``meshsum.cli.main``.

    python3 perfbench/run.py --workload grow --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads and metrics are listed in
BENCHMARK.json and explained in perfbench/README.md.  Each pass of a
workload runs in a fresh worker process (one client, closed loop: the
next call starts when the previous one returns); a run makes as many
passes as fit in ``--seconds`` at the pass length expected on a 2-core
machine, and at least one.  With ``--trace 1`` the run makes
one untraced and one traced pass and reports the per-layer metrics.

Every output is checked: exit codes, ``all_match``/``all_pass``, vertex
counts against the census model, identical bytes across passes, and the
sha256 recorded in perfbench/golden.json for every call listed there.
The second-to-last stdout line is a JSON detail record (environment,
workload-specific metrics, failure categories); the last line is the
result.  ``--record`` rewrites the golden digests of a workload instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import per_layer_value  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    GROW_EXTRA_LAYERS,
    PASS_SECONDS,
    VERIFY_RNG_SEEDS,
    WORK_DIR,
    WORKLOADS,
    call_key,
    generate,
)

GOLDEN = os.path.join(HERE, "golden.json")
SETUP_PROBES = 9
DEADLINE_S = 170.0
# Seeds whose calls --record covers; together they give every argv that
# grow, verify and render can generate, and predict's default seed.
RECORD_SEEDS = {
    "grow": range(GROW_EXTRA_LAYERS),
    "verify": range(VERIFY_RNG_SEEDS),
    "predict": [DEFAULT_SEED],
    "render": range(32),
}


class WorkerError(RuntimeError):
    pass


def digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def child_env() -> dict:
    """The parent's environment without settings that change meshsum's output."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MESHSUM_")}


def run_worker(job: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker, time its set-up, hand it the job; returns (setup_s, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise WorkerError("worker did not start")
        out, _ = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run_pass(calls: list[dict], deadline: float, trace: bool = False, spans_path=None):
    render_dir = os.path.join(ROOT, WORK_DIR, "render")
    os.makedirs(render_dir, exist_ok=True)
    try:
        return run_worker({"calls": calls, "trace": trace, "spans_path": spans_path}, deadline)
    finally:
        shutil.rmtree(render_dir, ignore_errors=True)


def category(res: dict) -> str:
    code = res["exit"]
    if code == 2 and "Exceeds the limit" in res["stderr"]:
        return "int-max-str-digits"
    if code == 2:
        return "input-error"
    if code == 1:
        return "check-failed"
    return str(code)


def check(calls: list[dict], passes: list[dict], golden: dict) -> dict:
    """Check every call of every pass; count failures by kind."""
    problems: list[str] = []
    unexpected = known = 0
    categories: dict[str, int] = {}
    for p in passes:
        for call, res in zip(calls, p["calls"]):
            expect, code, key = call["expect"], res["exit"], call_key(call["argv"])
            recorded = golden.get(key)
            if code != 0:
                categories[category(res)] = categories.get(category(res), 0) + 1
                if code == 2 and expect.get("digit_limit"):
                    known += 1
                else:
                    unexpected += 1
                    problems.append(f"{key}: exit {code}: {res['stderr'].strip()[-300:]}")
                continue
            facts = res["report"]
            if expect["kind"] != "svg" and facts.get("kind") != expect["kind"]:
                problems.append(f"{key}: report kind {facts.get('kind')!r}")
            for flag in ("all_match", "all_pass"):
                if facts.get(flag) is False:
                    problems.append(f"{key}: {flag} is false")
            if expect["kind"] == "growth-report":
                if facts.get("vertices") != expect["vertices"]:
                    problems.append(f"{key}: built {facts.get('vertices')} vertices, "
                                    f"expected {expect['vertices']}")
                if facts.get("truncated_at_budget") != expect["truncated"]:
                    problems.append(
                        f"{key}: truncated_at_budget is {facts.get('truncated_at_budget')}"
                    )
            for path, digest in res["files"].items():
                if digest is None:
                    problems.append(f"{key}: {path} was not written")
            if recorded is not None and recorded["exit"] == 0:
                if res["stdout_sha256"] != recorded["stdout_sha256"]:
                    problems.append(f"{key}: stdout differs from the recorded bytes")
                if res["files"] != recorded["files"]:
                    problems.append(f"{key}: output files differ from the recorded bytes")
    for i, call in enumerate(calls):
        seen = {
            (p["calls"][i]["exit"], p["calls"][i]["stdout_sha256"],
             json.dumps(p["calls"][i]["files"], sort_keys=True))
            for p in passes
        }
        if len(seen) > 1:
            problems.append(f"{call_key(call['argv'])}: output differs between passes")
    return {"problems": problems, "unexpected": unexpected, "known": known,
            "categories": categories}


def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return None
    k = n - 11
    return {"value": ordered[k], "percentile": round(100 * (k + 1) / n, 1), "samples": n}


def pass_figures(calls: list[dict], p: dict) -> dict:
    wall = sum(r["latency_s"] for r in p["calls"])
    ok = [(c, r) for c, r in zip(calls, p["calls"]) if r["exit"] == 0]
    vertices = sum(c["expect"].get("vertices", 0) for c, _ in ok)
    checks = sum(r["report"].get("checks", 0) for _, r in ok)
    digits = sum(r["stdout_digits"] for c, r in ok if c["expect"]["kind"] != "svg")
    return {"wall_s": wall, "vertices": vertices, "checks": checks, "digits": digits,
            "peak_rss_mb": p["maxrss_kb"] / 1024}


def environment(p: dict) -> dict:
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        revision = proc.stdout.strip() or None
    src = hashlib.sha256()
    package = os.path.join(ROOT, "src", "meshsum")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            src.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                src.update(fh.read())
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {
        "python": p["python"],
        "numpy": p["numpy"],
        "int_max_str_digits": p["int_max_str_digits"],
        "nproc": nproc,
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
    }


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def record(workload: str) -> int:
    """Run every call the recorded seeds generate and store their digests."""
    calls = {}
    for seed in RECORD_SEEDS[workload]:
        for call in generate(workload, seed, digit_limit()):
            calls.setdefault(call_key(call["argv"]), call)
    calls = list(calls.values())
    _, p = run_pass(calls, time.perf_counter() + 3600)
    verdict = check(calls, [p], {})
    if verdict["problems"] or verdict["unexpected"]:
        print("\n".join(verdict["problems"]), file=sys.stderr)
        return 1
    golden = load_golden() if os.path.exists(GOLDEN) else {"calls": {}}
    golden["recorded_with"] = environment(p)
    for call, res in zip(calls, p["calls"]):
        golden["calls"][call_key(call["argv"])] = {
            "exit": res["exit"],
            "stdout_sha256": res["stdout_sha256"],
            "files": res["files"],
        }
    golden["calls"] = dict(sorted(golden["calls"].items()))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(calls)} {workload} calls")
    return 0


def measure(args, spec: dict) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    golden = load_golden()["calls"]
    calls = generate(args.workload, args.seed, digit_limit())

    # Some set-up probes run before the passes and the rest after, so the
    # median samples the machine over the whole run.
    setups = [run_worker({}, deadline)[0] for _ in range(SETUP_PROBES // 2)]
    passes = []
    if args.trace:
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        for traced in (False, True):
            setup, p = run_pass(calls, deadline, traced, spans_path if traced else None)
            setups.append(setup)
            passes.append(p)
    else:
        for _ in range(max(1, args.seconds // PASS_SECONDS[args.workload])):
            setup, p = run_pass(calls, deadline)
            setups.append(setup)
            passes.append(p)

    setups += [run_worker({}, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    verdict = check(calls, passes, golden)
    figures = [pass_figures(calls, p) for p in passes]
    latencies = [r["latency_s"] for p in passes for r in p["calls"]]
    attempted = len(latencies)
    failed_all = verdict["unexpected"] + verdict["known"]

    def per_wall(key):
        return statistics.median(f[key] / f["wall_s"] for f in figures)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "environment": environment(passes[0]),
        "problems": verdict["problems"][:20],
        "workload_metrics": {
            "vertices_per_s": {"value": per_wall("vertices"), "unit": "1/s"},
            "checks_per_s": {"value": per_wall("checks"), "unit": "1/s"},
            "digits_per_s": {"value": per_wall("digits"), "unit": "1/s"},
            "call_tail_s": dict(tail_latency(latencies) or {"value": None}, unit="s"),
            "ops_failed_ratio": {
                "value": failed_all / attempted,
                "unit": "ratio",
                "failed": failed_all,
                "attempted": attempted,
                "categories": verdict["categories"],
            },
        },
    }
    if args.trace:
        traced = passes[1]
        summary = traced["trace"]
        detail["trace"] = {"spans": traced.get("spans"), "functions": summary}
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "cli.output.bytes":
                value = sum(r["stdout_bytes"] for r in traced["calls"])
            elif m["name"] == "trace.overhead_s":
                value = figures[1]["wall_s"] - figures[0]["wall_s"]
            else:
                value = per_layer_value(m["name"], summary)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        values = {
            "wall_s": statistics.median(f["wall_s"] for f in figures),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in figures),
            "call_p50_s": statistics.median(latencies),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    detail["run_s"] = time.perf_counter() - started
    return {
        "detail": detail,
        "result": {
            "correct": not verdict["problems"],
            "attempted": attempted,
            "failed": verdict["unexpected"],
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the golden digests of this workload and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "meshsum", "cli.py")):
        print("error: no meshsum sources under src/meshsum; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    if args.record:
        return record(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        out = measure(args, spec)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail, result = out["detail"], out["result"]
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    for name, m in detail["workload_metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<44} {value} {m['unit']}")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
