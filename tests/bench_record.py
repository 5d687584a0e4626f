"""Append one benchmark run to the trajectory file ``BENCH_<workload>.json``.

    python3 tests/bench_record.py --workload grow [--seed 0] [--trace 0]
        [--checkout DIR] [--note TEXT]

It runs ``python3 perfbench/run.py --workload W --seed S --seconds 20
--trace T``, unchanged, at the root of the git checkout DIR (this one by
default; a ``git clone`` for another revision), and keeps the two JSON lines that run.py prints last: the detail
record (``{"workload": ...``, with ``environment`` and, under ``--trace 1``,
the per-layer metrics) and the result (``{"correct": ...``, with the
end-to-end metrics).  To them it adds what run.py cannot know:

- ``rev``: ``git rev-parse HEAD`` of the checkout, which run.py reads
  as null in a copy without git history;
- ``src_differs``: whether ``src/`` differs from that revision (``git
  status``);
- ``pycache_before``: whether ``src/meshsum/__pycache__`` existed before
  the run.  ``setup_s`` depends on it: a fresh worker without it compiles
  every module it imports.

The entry goes at the end of ``BENCH_<workload>.json`` at the root of this
repository, a JSON list: it is written before the closing bracket, so no
earlier entry is ever rewritten.  A run that fails writes nothing.  This is
not a test, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grow", "verify", "predict", "render")
CLOSE = "\n]\n"


def _git(checkout: Path, *args: str) -> str | None:
    result = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def run_entry(workload: str, seed: int, trace: int, checkout: Path, note: str | None) -> dict:
    """Run the benchmark once in ``checkout`` and return the trajectory entry."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout:
        raise SystemExit(f"error: {checkout} is not the root of a git checkout")
    rev = _git(checkout, "rev-parse", "HEAD")
    differs = bool(_git(checkout, "status", "--porcelain", "--", "src"))
    pycache = (checkout / "src" / "meshsum" / "__pycache__").is_dir()
    argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "20",
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: run.py exited {proc.returncode}:\n{proc.stderr}")
    detail, result = map(json.loads, proc.stdout.splitlines()[-2:])
    if "workload" not in detail or "correct" not in result:
        raise SystemExit("error: run.py's last two lines are not its detail and result")
    return {
        "command": " ".join(["python3", *argv]),
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "rev": rev,
        "src_differs": differs,
        "pycache_before": pycache,
        "note": note,
        "detail": detail,
        "result": result,
    }


def append_entry(path: Path, entry: dict) -> None:
    """Add ``entry`` at the end of the JSON list in ``path``, made if missing,
    leaving every byte before its closing bracket as it was."""
    text = json.dumps(entry, indent=2, sort_keys=True)
    if not path.exists():
        path.write_text("[\n" + text + CLOSE, encoding="utf-8")
        return
    old = path.read_text(encoding="utf-8")
    if not (old.endswith(CLOSE) and isinstance(json.loads(old), list)):
        raise SystemExit(f"error: {path.name} is not a list this script wrote")
    path.write_text(old[: -len(CLOSE)] + ",\n" + text + CLOSE, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the git checkout to benchmark (default: this one)")
    parser.add_argument("--note", help="a line on what was run, kept in the entry")
    args = parser.parse_args(argv)
    entry = run_entry(args.workload, args.seed, args.trace, args.checkout.resolve(), args.note)
    append_entry(ROOT / f"BENCH_{args.workload}.json", entry)
    result = entry["result"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"BENCH_{args.workload}.json: correct={result['correct']} failed={result['failed']}",
          json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
