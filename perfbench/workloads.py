"""Seeded workload generators and the expectation model the checks use.

A workload is a list of calls.  Each call is the argv handed to
``meshsum.cli.main`` plus what the benchmark expects of it.  The same
(workload, seed) always gives the same list; nothing here imports
meshsum, so the expectations are derived independently of the program:
vertex counts come from the census recursion on boundary profiles, and
whether a ``predict`` report crosses the interpreter's integer-to-string
digit limit comes from computing the largest count exactly.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("grow", "verify", "predict", "render")
DEFAULT_SEED = 0
VERTEX_BUDGET = 1_000_000
WORK_DIR = ".perfbench_work"

# Render pairs at about 1e5 vertices: (r, seed kind, layers).  The seed
# draws the given number of entries from each stratum; entries in a
# stratum have nearly the same vertex count and cost, so every seed asks
# for about the same amount of drawing and the same peak memory.
RENDER_STRATA = (
    (2, ((7, "face", 10), (8, "vertex", 8), (12, "face", 5))),
    (1, ((17, "face", 4), (13, "vertex", 5))),
    (1, ((20, "vertex", 4), (10, "vertex", 6))),
)
# Rough seconds per pass on a 2-core machine; a run makes
# max(1, seconds // PASS_SECONDS) passes, so the number of passes depends
# only on --seconds and never on how fast a particular pass happened to be.
PASS_SECONDS = {"grow": 22, "verify": 30, "predict": 8, "render": 9}
VERIFY_RNG_SEEDS = 4
GROW_EXTRA_LAYERS = 3


def layer_sizes(r: int, kind: str, budget: int = VERTEX_BUDGET) -> list[int]:
    """Vertex count of every layer of a canonical seed that fits the budget.

    Layer k+1 adds a + b vertices, where (a, b) = (t(r-2) - d, t) for the
    boundary profile (t, d) of layer k, and the new profile is
    (a + b, 3a + 4b).
    """
    if kind == "face":
        sizes, t, d = [3], 3, 6
    else:
        sizes, t, d = [1, r + 1], r, 3 * r
        if r + 1 > budget:
            return [1]
    while True:
        a, b = t * (r - 2) - d, t
        if sizes[-1] + a + b > budget:
            return sizes
        sizes.append(sizes[-1] + a + b)
        t, d = a + b, 3 * a + 4 * b


def grown_profile(r: int, kind: str, layer: int) -> tuple[int, int]:
    """Boundary profile (t, d) of a canonical seed after ``layer`` expansions."""
    if kind == "face":
        t, d, k = 3, 6, 0
    else:
        t, d, k = r, 3 * r, 1
    while k < layer:
        a, b = t * (r - 2) - d, t
        t, d, k = a + b, 3 * a + 4 * b, k + 1
    return t, d


def crosses_digit_limit(r: int, t: int, d: int, n: int, limit: int) -> bool:
    """Whether a predict report for seed (t, d), layers 1..n, has a count
    with more than ``limit`` decimal digits (limit 0 means no limit).

    Every count grows with the layer, so the last layer holds the largest
    values: the census (a, b), the increments and the cumulative counts.
    """
    if limit <= 0:
        return False
    ceiling = 10**limit
    v = (t * r - 2 * t - d - 6) // (r - 6)
    e = (2 * t * r - 3 * d - 3 * r) // (r - 6)
    a, b = t * (r - 2) - d, t
    for _ in range(n):
        v, e = v + a + b, e + 2 * a + 3 * b
        if e >= ceiling:
            return True
        a, b = (r - 5) * a + (r - 6) * b, a + b
    return False


def _call(argv, **expect) -> dict:
    return {"argv": argv, "expect": expect}


def grow_calls(seed: int) -> list[dict]:
    """The acceptance sweep: r = 7..12, both seeds, past the vertex budget.

    The order is the sweep's own; the seed asks for 1 to 3 layers past the
    budget.
    """
    calls = []
    for r in range(7, 13):
        for kind in ("face", "vertex"):
            sizes = layer_sizes(r, kind)
            layers = len(sizes) + seed % GROW_EXTRA_LAYERS
            calls.append(
                _call(
                    ["grow", "-r", str(r), "--seed", kind, "-n", str(layers), "--json"],
                    kind="growth-report",
                    vertices=sizes[-1],
                    truncated=True,
                )
            )
    return calls


def verify_calls(seed: int) -> list[dict]:
    """ROADMAP's two verify runs; the seed picks the randomized-check seed."""
    rng_seed = str(seed % VERIFY_RNG_SEEDS)
    calls = []
    for degrees, layers in (((7, 12), 6), ((1000, 1000), 2)):
        vertices = 0
        for r in range(degrees[0], degrees[1] + 1):
            for kind in ("face", "vertex"):
                vertices += layer_sizes(r, kind)[: layers + 1][-1]
        spec = str(degrees[0]) if degrees[0] == degrees[1] else f"{degrees[0]}:{degrees[1]}"
        calls.append(
            _call(
                ["verify", "-r", spec, "-n", str(layers), "--rng-seed", rng_seed, "--json"],
                kind="verify-report",
                vertices=vertices,
            )
        )
    return calls


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _log_stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One log-uniform draw from each of k equal slices of [lo, hi]."""
    span = math.log(hi) - math.log(lo)
    return [round(lo * math.exp(span * (i + rng.random()) / k)) for i in range(k)]


def digits_per_layer(r: int) -> float:
    """log10 of the census growth ratio: decimal digits a count gains per layer."""
    g = r - 4
    return math.log10((g + math.sqrt(g * g - 4)) / 2)


def layers_for_cost(r: int, units: float) -> int:
    """Smallest n whose predict report costs at least ``units``.

    Each layer has a fixed cost, plus writing its counts in decimal, which
    grows with the square of their digit count; summed over n layers,
    about n + 3.6e-7 * n^3 * digits_per_layer(r)^2 in units of one layer's
    fixed cost (fitted to measured predict times at r = 7..300).
    """
    alpha2 = digits_per_layer(r) ** 2
    lo, hi = 1, 10_000
    while lo < hi:
        n = (lo + hi) // 2
        if n + 3.6e-7 * n**3 * alpha2 < units:
            lo = n + 1
        else:
            hi = n
    return lo


def _seed_text(rng: random.Random, r: int, profiles: bool = True) -> tuple[str, int, int]:
    """A README-valid seed: vertex, face, or a grown disk's t:d profile."""
    choice = rng.choice(("face", "vertex", "profile") if profiles else ("face", "vertex"))
    if choice == "face":
        return "face", 3, 6
    if choice == "vertex":
        return "vertex", r, 3 * r
    kind = rng.choice(("face", "vertex"))
    t, d = grown_profile(r, kind, rng.randint(1, 2))
    return f"{t}:{d}", t, d


def predict_calls(rng: random.Random, limit: int) -> list[dict]:
    """Analytic-only calls, weighted toward large n.

    Strata: two reports that cross the digit limit (``predict -r 1000
    -n 1440`` and one at r = 90..110 past its limit), six heavy reports at
    r = 7..12, twenty medium reports at r = 7..300, six light reports with
    n <= 300, and four ``sum`` calls.  Degrees are drawn one per slice of
    their range and heavy and medium reports get the n that makes each
    cost about the same, so a pass costs nearly the same for every seed;
    as many calls are faster than the medium ones as are slower, so the
    median call is a middling medium one.
    """
    specs = [(1000, "face", 3, 6, 1440)]
    r = rng.randint(90, 110)
    first_over = math.ceil(limit / digits_per_layer(r)) if limit > 0 else 10_000
    specs.append((r, "face", 3, 6, min(10_000, first_over + rng.randint(50, 500))))
    for r in rng.sample(range(7, 13), 6):
        text, t, d = _seed_text(rng, r, profiles=False)
        specs.append((r, text, t, d, layers_for_cost(r, 4000 * rng.uniform(0.95, 1.05))))
    for r in _log_stratified(rng, 7, 300, 20):
        text, t, d = _seed_text(rng, r, profiles=False)
        specs.append((r, text, t, d, layers_for_cost(r, 1300 * rng.uniform(0.95, 1.05))))
    for r in _log_stratified(rng, 7, 1000, 6):
        text, t, d = _seed_text(rng, r)
        specs.append((r, text, t, d, _log_uniform(rng, 1, 300)))

    calls = []
    for r, text, t, d, n in specs:
        calls.append(
            _call(
                ["predict", "-r", str(r), "--seed", text, "-n", str(n), "--json"],
                kind="prediction-report",
                digit_limit=crosses_digit_limit(r, t, d, n, limit),
            )
        )
    for _ in range(2):
        lo = rng.randint(7, 50)
        hi = rng.randint(lo, 1000)
        calls.append(_call(["sum", "-r", f"{lo}:{hi}", "--json"], kind="invariants-report"))
    for _ in range(2):
        r = rng.randint(7, 1000)
        text, _, _ = _seed_text(rng, r)
        calls.append(
            _call(["sum", "-r", str(r), "--seed", text, "--json"], kind="invariants-report")
        )
    rng.shuffle(calls)
    return calls


def render_calls(rng: random.Random) -> list[dict]:
    """grow --emit-disk at about 1e5 vertices, then render each disk."""
    picks = [entry for count, stratum in RENDER_STRATA for entry in rng.sample(stratum, count)]
    calls = []
    for r, kind, layers in picks:
        stem = f"{WORK_DIR}/render/disk-r{r}-{kind}-n{layers}"
        calls.append(
            _call(
                ["grow", "-r", str(r), "--seed", kind, "-n", str(layers),
                 "--emit-disk", f"{stem}.json", "--json"],
                kind="growth-report",
                vertices=layer_sizes(r, kind)[layers],
                truncated=False,
                files=[f"{stem}.json"],
            )
        )
        calls.append(
            _call(
                ["render", f"{stem}.json", "-o", f"{stem}.svg"], kind="svg", files=[f"{stem}.svg"]
            )
        )
    return calls


def generate(workload: str, seed: int, digit_limit: int) -> list[dict]:
    """The call list of one pass of ``workload`` for ``seed``.

    ``digit_limit`` is the interpreter's ``sys.get_int_max_str_digits()``;
    it only decides which predict calls are expected to hit the limit.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "grow":
        return grow_calls(seed)
    if workload == "verify":
        return verify_calls(seed)
    if workload == "predict":
        return predict_calls(rng, digit_limit)
    if workload == "render":
        return render_calls(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def call_key(argv: list[str]) -> str:
    """The key under which a call's recorded digests are stored."""
    return " ".join(argv)
