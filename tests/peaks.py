"""Memory peaks of ``mesh.expand`` and ``mesh.count_explicit`` on the largest layers.

It is not a test, and pytest does not collect it:

    python3 tests/peaks.py [R [SEED]]

First it runs ``mesh.measured_layers(R, SEED, ...)`` (r = 10 and the face
seed by default) under the default vertex budget, and prints VmHWM and
VmRSS in MB, read from ``/proc/self/status`` (so Linux only), before and
after each ``expand`` and ``count_explicit`` call.  Then, with
``tracemalloc`` on, it prints the traced peak per slot of the result of
``expand`` into the largest r = 7 and r = 10 face layers under the budget,
and of ``count_explicit`` on each of them, measured first (its boundary
degrees not yet cached), as ``measured_layers`` measures it.  Beside each
peak it prints the call's median time per slot over 5 more runs, in ns:
the baseline for a change to either.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from meshsum import mesh  # noqa: E402


def status_mb() -> str:
    """VmHWM and VmRSS of this process, in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        fields = dict(line.split(":", 1) for line in status)
    kib = {key: int(fields[key].split()[0]) for key in ("VmHWM", "VmRSS")}
    return "  ".join(f"{key} {value / 1024:7.1f}" for key, value in kib.items())


def rss_run(r: int, seed: str) -> None:
    """One measured_layers run with VmHWM and VmRSS around each expand and count_explicit."""
    def watched(name, call):
        def run(disk, *args):
            before = status_mb()
            result = call(disk, *args)
            layer = disk.layer_index + (call is expand)
            print(f"layer {layer:>2}  {name:<14} before {before}   after {status_mb()}")
            return result
        return run

    expand, count = mesh.expand, mesh.count_explicit
    mesh.expand, mesh.count_explicit = watched("expand", expand), watched("count_explicit", count)
    try:
        for _ in mesh.measured_layers(r, seed, 10**9):
            pass
    finally:
        mesh.expand, mesh.count_explicit = expand, count


def traced_peak(call, disk) -> tuple[int, object]:
    tracemalloc.start()
    try:
        result = call(disk)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def median_ns(call, disk) -> float:
    """The median time of 5 calls, in ns."""
    times = []
    for _ in range(5):
        start = time.perf_counter_ns()
        call(disk)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def largest_layers(r: int) -> None:
    """Bytes and ns per slot of expand into, and count_explicit on, the largest face layer at r."""
    prev, disk = None, mesh.seed_face(r)
    while True:
        try:
            prev, disk = disk, mesh.expand(disk)
        except mesh.BudgetExceededError:
            break
    del disk
    peak, disk = traced_peak(mesh.expand, prev)
    slots = disk.graph.neighbors.size
    print(f"r = {r:>2} face layer {disk.layer_index} ({disk.graph.vertex_count:,} vertices, "
          f"{slots:,} slots)")
    ns = median_ns(mesh.expand, prev)
    print(f"  expand          {peak / slots:6.2f} B/slot of its result   {ns / slots:6.1f} ns/slot")
    del prev
    peak, _ = traced_peak(mesh.count_explicit, disk)
    ns = median_ns(mesh.count_explicit, disk)
    print(f"  count_explicit  {peak / slots:6.2f} B/slot, measured first  {ns / slots:6.1f} ns/slot")


def main(argv: list[str]) -> None:
    r = int(argv[0]) if argv else 10
    seed = argv[1] if len(argv) > 1 else "face"
    print(f"measured_layers(r = {r}, seed = {seed}), MB:")
    rss_run(r, seed)
    print("tracemalloc peaks, and median times of 5 more runs:")
    for degree in (7, 10):
        largest_layers(degree)


if __name__ == "__main__":
    main(sys.argv[1:])
