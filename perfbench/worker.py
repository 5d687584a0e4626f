"""One measured process: import meshsum, then run a pass of CLI calls.

Started by ``run.py`` with the checkout root as working directory.  It
imports ``meshsum.cli`` from ``src/``, prints ``ready`` (the parent times
set-up up to that line), reads a job from stdin and runs every call in
order through ``meshsum.cli.main``, one at a time.  The program's stdout
goes to a sink that hashes and counts bytes without keeping them, so a
large report costs no extra memory here.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEEP_TEXT = 1 << 20
_CHUNK = 1 << 20
_DIGITS = b"0123456789"


class HashSink(io.TextIOBase):
    """Text stream that keeps a sha256, byte and digit counts, and a head."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.bytes = 0
        self.digits = 0
        self._head: list[str] = []
        self._head_len = 0

    def writable(self):
        return True

    def write(self, text):
        if self._head_len < KEEP_TEXT:
            piece = text[: KEEP_TEXT - self._head_len]
            self._head.append(piece)
            self._head_len += len(piece)
        for i in range(0, len(text), _CHUNK):
            data = text[i : i + _CHUNK].encode("utf-8")
            self._hash.update(data)
            self.bytes += len(data)
            self.digits += len(data) - len(data.translate(None, _DIGITS))
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def head(self) -> str:
        return "".join(self._head)


def file_digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256()
            for block in iter(lambda: fh.read(_CHUNK), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def report_facts(sink: HashSink) -> dict:
    """The fields the checks read from a report, if it fits the kept head."""
    head = sink.head()
    kind = re.search(r'"kind": "([a-z-]+)"', head)
    facts = {"kind": kind.group(1) if kind else None}
    if sink.bytes > KEEP_TEXT:
        return facts
    try:
        report = json.loads(head)
    except json.JSONDecodeError:
        return facts
    for key in ("all_match", "all_pass", "truncated_at_budget"):
        if key in report:
            facts[key] = report[key]
    if report.get("kind") == "growth-report":
        built = [rec["explicit"] for rec in report["layers"] if rec["explicit"] is not None]
        facts["vertices"] = int(built[-1]["v"])
    if report.get("kind") == "verify-report":
        facts["checks"] = sum(c["pass"] + c["fail"] for c in report["checks"].values())
    return facts


def run_call(main, call: dict) -> dict:
    out, err = HashSink(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = main(call["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the call failed; record it and go on
        code = f"exception:{type(exc).__name__}"
        err.write(traceback.format_exc())
    finally:
        latency = time.perf_counter() - start
        sys.stdout, sys.stderr = saved
    return {
        "exit": code,
        "latency_s": latency,
        "stdout_sha256": out.hexdigest(),
        "stdout_bytes": out.bytes,
        "stdout_digits": out.digits,
        "stderr": err.getvalue()[-2000:],
        "report": report_facts(out) if code == 0 and out.bytes else {},
        "files": {path: file_digest(path) for path in call["expect"].get("files", ())},
    }


def main() -> int:
    protocol = sys.stdout
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import meshsum
    import meshsum.cli

    if not os.path.abspath(meshsum.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"meshsum imported from {meshsum.__file__}, not src/", file=sys.stderr)
        return 2
    protocol.write("ready\n")
    protocol.flush()

    job = json.loads(sys.stdin.read() or "{}")
    calls = job.get("calls", [])
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        results = [run_call(meshsum.cli.main, call) for call in calls]
    finally:
        if tracer is not None:
            tracer.uninstall()

    import numpy

    result = {
        "calls": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            result["spans"] = tracer.write_spans(job["spans_path"])
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
