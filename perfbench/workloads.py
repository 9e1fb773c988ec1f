"""The four benchmark workloads: seeded inputs, timed loops and correctness gates.

Every workload drives only ifsim's public API (or its CLI), from one process
and one closed-loop caller: the next operation starts when the previous one
has returned.  A timed loop runs whole groups of work (an audit pass, one
sample under every measure, one bulk round, one cycle of the CLI mix) until
the time budget is spent, so every run does the same mix of operations.

On a shared host, speed swings by up to 1.6x from one second to the next
(measured on a 2-core Xeon VM whose cores other tenants share), and a slow
stretch can last longer than a run, so no median of wall times over a run
is steady.  Every timed operation therefore runs between two runs of a
fixed reference snippet that does the same kind of work without ifsim
(`paced`).  The operation's cost is its wall
time over the mean wall time of the two references beside it: a slow stretch
slows both alike, and it cancels.  The gated `op_cost_p50` is the median
over units of their cost, in multiples of the reference.  Wall times are
still measured and reported under each workload's own names.

Each `time_*` function returns an Outcome whose `metrics` hold the
workload's own names plus `setup_s` and `op_cost_p50`, which every workload
reports (`SUMMARY_METRICS`, with `peak_rss_mb` added by run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ifsim

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "cli_golden.json"

# ---------------------------------------------------------------------------
# sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Size:
    """How much work one run does; FULL is the benchmark, TINY the tests."""

    audit: dict = field(default_factory=dict)  # AuditConfig overrides
    patterns: int = 200
    samples: int = 200
    bulk_elements: int = 25_000
    repeats: int = 4  # set-ups on each side of the timed loop; child-process probes
    trace_samples: int = 25  # classify samples in the traced run


FULL = Size()
TINY = Size(
    audit={"grid_step": 0.05, "random_pairs": 2000, "random_triples": 2000, "chain_samples": 200},
    patterns=20, samples=20, bulk_elements=500, repeats=2, trace_samples=3,
)


@dataclass
class Outcome:
    """Named measurements plus the correctness tally of one run."""

    metrics: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def gate(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# the end-to-end names every workload reports, with units
SUMMARY_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_cost_p50": "ref",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """One child interpreter; `subprocess.run` waits for it to end."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=timeout)


def child_import_s() -> float:
    """Wall time of `import ifsim` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import ifsim; print(time.perf_counter() - t)"
    proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"import ifsim failed in a child process: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


class Setup:
    """Set-up time: the median of `import ifsim` in a child process plus the
    median of input generation.  `sample` is called before the timed loop and
    again after it, so the medians see two moments of the host's speed,
    which drifts over seconds."""

    def __init__(self, make_inputs, size: Size):
        self.make_inputs = make_inputs
        self.repeats = size.repeats
        self.imports, self.gens = [], []

    def sample(self):
        """Set up `repeats` times; returns the inputs made last."""
        self.imports += [child_import_s() for _ in range(self.repeats)]
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            inputs = self.make_inputs()
            self.gens.append(time.perf_counter() - t0)
        return inputs

    def metric(self) -> tuple:
        return statistics.median(self.imports) + statistics.median(self.gens), "s", len(self.gens)


def simplex_point(rng: random.Random) -> tuple[float, float]:
    """A uniform point of the triangle mu, nu >= 0, mu + nu <= 1."""
    mu, nu = rng.random(), rng.random()
    if mu + nu > 1.0:
        mu, nu = 1.0 - mu, 1.0 - nu
    return mu, nu


# ---------------------------------------------------------------------------
# pacing against a reference
# ---------------------------------------------------------------------------


def wall_s(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def paced(unit, reference, seconds: float, group: int = 1) -> tuple[list, list]:
    """Run `unit(i)` for i = 0, 1, ... in whole groups of `group` units until
    `seconds` have passed, with `reference()` run before the first unit and
    after each one.  `unit` returns the seconds it spent on the program, so
    its gates and bookkeeping stay out.  Returns every unit's wall time and
    its cost: the wall time over the mean time of the two references beside
    it."""
    before = wall_s(reference)
    walls, costs = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or i % group or time.perf_counter() < deadline:
        wall = unit(i)
        after = wall_s(reference)
        walls.append(wall)
        costs.append(2.0 * wall / (before + after))
        before = after
        i += 1
    return walls, costs


def grouped(values: list, group: int) -> list:
    """Sums of consecutive whole groups."""
    return [math.fsum(values[i:i + group]) for i in range(0, len(values) - group + 1, group)]


def reference_calls():
    """Many numpy calls on 8-element arrays from Python, like classify."""
    a = np.linspace(0.0, 1.0, 8)
    acc, seen = 0.0, {}
    for i in range(300):
        b = np.abs(a - i * 1e-3)
        acc += float(np.sum(b * b))
        seen[i % 7] = acc
    return acc


def make_reference_arrays():
    """JSON text to arrays and back over 10,000 pairs, like a bulk round."""
    rng = random.Random("reference-arrays")
    text = json.dumps([[rng.random(), rng.random()] for _ in range(10_000)])

    def reference():
        a = np.asarray(json.loads(text), dtype=float)
        json.dumps(np.sqrt(a).tolist())
    return reference


def make_reference_blocks():
    """Elementwise kernels over 10 MB blocks, like the audit kernels."""
    x = np.random.default_rng(0).random(1_250_000)
    y = x[::-1].copy()

    def reference():
        for _ in range(4):
            np.sqrt(np.abs(x - y) * 0.5 + np.minimum(x, y))
    return reference


def reference_process():
    """A child interpreter that imports numpy, like a CLI invocation.  Bare
    interpreter start is no reference: process creation keeps its speed
    while imports and computing slow by up to 1.5x."""
    proc = run_child(["-c", "import numpy"])
    if proc.returncode != 0:
        raise RuntimeError(f"the reference child failed: {proc.stderr.strip()}")


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

AUDIT_MEASURES = (("wu", {}), ("xiao", {}), ("yc", {}), ("jgamma", {"gamma": 1.0}))

# axioms each audit must report as failing, and no others
EXPECTED_FAILS = {
    "wu": frozenset(),
    "xiao": frozenset({"S4", "S4'", "S5"}),
    "yc": frozenset({"S4", "S4'", "S5"}),
    "jgamma": frozenset({"S4", "S4'", "S5", "D-triangle"}),
    "entropy": frozenset(),
}


def audit_inputs(seed: int, size: Size):
    config = ifsim.AuditConfig(seed=seed, **size.audit)
    return config, [(name, ifsim.get_measure(name, **params)) for name, params in AUDIT_MEASURES]


def audit_gate(out: Outcome, name: str, report) -> None:
    fails = frozenset(c.axiom for c in report.checks if c.verdict == "fail")
    want = EXPECTED_FAILS[name]
    out.gate(fails == want, f"audit {name}: failing axioms {sorted(fails)}, expected {sorted(want)}")


def no_span(name: str):
    return nullcontext()


def audit_one(config, name: str, md, out: Outcome) -> float:
    """One audit (the entropy's when `md` is None), gated; returns its wall time."""
    t0 = time.perf_counter()
    report = ifsim.audit_entropy(config) if md is None else ifsim.audit_distance(md, config)
    wall = time.perf_counter() - t0
    audit_gate(out, name, report)
    return wall


def audit_pass(config, measures, out: Outcome, span=no_span) -> dict:
    """One audit of every measure, then of the entropy; returns wall times.
    `span(name)` encloses each audit (the traced run records spans there)."""
    times = {}
    for name, md in [*measures, ("entropy", None)]:
        with span(f"audit.{name}"):
            times[name] = audit_one(config, name, md, out)
    return times


def time_audit(seed: int, seconds: float, size: Size) -> Outcome:
    out = Outcome()
    setup = Setup(lambda: audit_inputs(seed, size), size)
    config, measures = setup.sample()
    audits = [*measures, ("entropy", None)]
    audit_one(config, *audits[0], Outcome())  # the first audit pays for first-touch memory
    walls, costs = paced(lambda i: audit_one(config, *audits[i % len(audits)], out),
                         make_reference_blocks(), seconds, group=len(audits))
    setup.sample()
    passes = grouped(walls, len(audits))
    suite = statistics.median(passes)
    wu = walls[::len(audits)]
    out.metrics.update({
        "setup_s": setup.metric(),
        "audit_suite_s": (suite, "s", len(passes)),
        "audit_wu_s": (statistics.median(wu), "s", len(wu)),
        "audits_per_s": (len(audits) / suite, "1/s", len(passes)),
        "op_cost_p50": (statistics.median(grouped(costs, len(audits))), "ref", len(passes)),
    })
    return out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

PATTERN_ELEMENTS = 8
SHRINK = 1e-3


@dataclass(frozen=True)
class ClassifyInputs:
    library: object
    samples: tuple  # (source pattern name, sample IFS)
    measures: tuple  # (name, MeasureDescriptor)


def classify_inputs(seed: int, size: Size) -> ClassifyInputs:
    """A library of random patterns; each sample is one pattern shrunk
    elementwise by at most SHRINK in both degrees."""
    rng = random.Random(f"classify-{seed}")
    universe = tuple(f"x{j + 1}" for j in range(PATTERN_ELEMENTS))
    raw = [[simplex_point(rng) for _ in universe] for _ in range(size.patterns)]
    names = [f"P{i:03d}" for i in range(size.patterns)]
    patterns = tuple((n, ifsim.IFS.from_pairs(p, universe)) for n, p in zip(names, raw))
    library = ifsim.PatternLibrary(patterns, ifsim.uniform_weights(PATTERN_ELEMENTS))
    samples = []
    for _ in range(size.samples):
        src = rng.randrange(size.patterns)
        pairs = [(max(0.0, mu - SHRINK * rng.random()), max(0.0, nu - SHRINK * rng.random()))
                 for mu, nu in raw[src]]
        samples.append((names[src], ifsim.IFS.from_pairs(pairs, universe)))
    measures = tuple((name, ifsim.get_measure(name, **params)) for name, params in AUDIT_MEASURES)
    return ClassifyInputs(library, tuple(samples), measures)


def classify_gate(out: Outcome, measure: str, source: str, result) -> None:
    out.gate(result.winner == source and not result.undecided,
             f"classify {measure}: winner {result.winner!r} (undecided={result.undecided}), "
             f"source {source!r}")


def classify_sample(inp: ClassifyInputs, source: str, sample, out: Outcome, measures=None) -> list:
    """Classify one sample under every measure; returns per-call seconds."""
    calls = []
    for name, md in measures or inp.measures:
        t0 = time.perf_counter()
        result = ifsim.classify(inp.library, sample, md)
        calls.append(time.perf_counter() - t0)
        classify_gate(out, name, source, result)
    return calls


def time_classify(seed: int, seconds: float, size: Size) -> Outcome:
    out = Outcome()
    setup = Setup(lambda: classify_inputs(seed, size), size)
    inp = setup.sample()
    classify_sample(inp, *inp.samples[0], Outcome())  # warm caches
    calls = []

    def unit(i: int) -> float:
        c = classify_sample(inp, *inp.samples[i % len(inp.samples)], out)
        calls.extend(c)
        return math.fsum(c)

    per_sample, costs = paced(unit, reference_calls, seconds)
    setup.sample()
    ms = [c * 1e3 for c in calls]
    sample_s = statistics.median(per_sample)
    out.metrics.update({
        "setup_s": setup.metric(),
        "classify_ms_p50": (statistics.median(ms), "ms", len(ms)),
        "classify_ms_p95": (statistics.quantiles(ms, n=20, method="inclusive")[18], "ms", len(ms)),
        "classify_per_s": (1.0 / sample_s, "1/s", len(per_sample)),
        "op_cost_p50": (statistics.median(costs), "ref", len(costs)),
    })
    return out


# ---------------------------------------------------------------------------
# bulk
# ---------------------------------------------------------------------------

BULK_SET_NAMES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class BulkInputs:
    text: str  # dataset JSON written with the stdlib, not with ifsim
    loaded: dict  # name -> the (mu, nu) pairs the text holds
    universe: tuple
    fresh: dict  # name -> (mu, nu) pairs for IFS.from_pairs

    @property
    def elements(self) -> int:
        return len(self.universe) * len(self.fresh)


def bulk_inputs(seed: int, size: Size) -> BulkInputs:
    rng = random.Random(f"bulk-{seed}")
    n = size.bulk_elements
    universe = tuple(f"e{j}" for j in range(n))
    loaded = {s: [simplex_point(rng) for _ in range(n)] for s in BULK_SET_NAMES}
    raw_w = [0.5 + rng.random() for _ in range(n)]
    total = sum(raw_w)
    weights = [w / total for w in raw_w]
    text = json.dumps({"universe": list(universe),
                       "sets": {s: [list(p) for p in pairs] for s, pairs in loaded.items()},
                       "weights": weights})
    fresh = {s: [simplex_point(rng) for _ in range(n)] for s in BULK_SET_NAMES}
    return BulkInputs(text, loaded, universe, fresh)


BULK_STEPS = 5


def bulk_steps(inp: BulkInputs):
    """Load, build, score and save, as a generator that pauses after each of
    its BULK_STEPS steps; it returns everything the gate checks."""
    loaded, weights = ifsim.parse_dataset(inp.text)
    yield
    sets = {s: ifsim.IFS.from_pairs(pairs, inp.universe) for s, pairs in inp.fresh.items()}
    yield
    scores = {}
    for a, x in sets.items():
        for b, y in sets.items():
            scores[(a, b)] = (ifsim.dist_wu(x, y, weights), ifsim.dist_xiao(x, y), ifsim.dist_yc(x, y))
    yield
    entropies = {s: ifsim.entropy_ifs(x, weights) for s, x in sets.items()}
    yield
    dumped = ifsim.dumps_dataset(sets, weights)
    return loaded, weights, sets, scores, entropies, dumped


def step(steps):
    """Run one step; the round's result after its last step, else None."""
    try:
        next(steps)
    except StopIteration as stop:
        return stop.value
    return None


def bulk_round(inp: BulkInputs):
    """One whole round of bulk_steps."""
    steps = bulk_steps(inp)
    while (result := step(steps)) is None:
        pass
    return result


def bulk_gate(out: Outcome, inp: BulkInputs, result) -> None:
    loaded, weights, sets, scores, entropies, dumped = result
    for s, pairs in inp.loaded.items():
        got = loaded.get(s)
        out.gate(got is not None and [(v.mu, v.nu) for v in got.values] == pairs,
                 f"bulk: parsed set {s} differs from the text")
    again, again_w = ifsim.parse_dataset(dumped)
    out.gate(again == sets and again_w == weights, "bulk: re-parsed dump differs from the saved sets")
    for (a, b), ds in scores.items():
        ok = all(0.0 <= d <= 1.0 for d in ds) and ds == scores[(b, a)]
        out.gate(ok and (a != b or ds == (0.0, 0.0, 0.0)),
                 f"bulk: (wu, xiao, yc) distances {ds} of ({a}, {b}) are out of [0, 1], "
                 "asymmetric, or non-zero on equal sets")
    for s, e in entropies.items():
        out.gate(0.0 <= e <= 1.0, f"bulk: entropy({s}) = {e!r} outside [0, 1]")


def time_bulk(seed: int, seconds: float, size: Size) -> Outcome:
    out = Outcome()
    setup = Setup(lambda: bulk_inputs(seed, size), size)
    inp = setup.sample()
    bulk_round(inp)  # the first round pays for first-touch memory
    current = {}

    def unit(i: int) -> float:
        """One step of a round: a round is long enough for the host's
        speed to change within it."""
        if i % BULK_STEPS == 0:
            current["steps"] = bulk_steps(inp)
        t0 = time.perf_counter()
        result = step(current["steps"])
        wall = time.perf_counter() - t0
        if result is not None:
            bulk_gate(out, inp, result)
        return wall

    walls, costs = paced(unit, make_reference_arrays(), seconds, group=BULK_STEPS)
    setup.sample()
    rounds = grouped(walls, BULK_STEPS)
    median_round = statistics.median(rounds)
    out.metrics.update({
        "setup_s": setup.metric(),
        "bulk_round_ms": (median_round * 1e3, "ms", len(rounds)),
        "bulk_elems_per_s": (inp.elements / median_round, "1/s", len(rounds)),
        "op_cost_p50": (statistics.median(grouped(costs, BULK_STEPS)), "ref", len(rounds)),
    })
    return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# the fixed mix, one child process per entry; keys name the cli.main.* metrics
CLI_MIX = {
    "repro": ["repro", "--scenario", "all"],
    "curve-fig10": ["curve", "--family", "fig10"],
    "curve-entropy-surface": ["curve", "--family", "entropy-surface"],
    "classify": ["classify", "--measure", "wu", "--data", "tableIII", "--sample", "S1"],
    "dist": ["dist", "--measure", "wu", "--data", "tableI_case1", "--left", "A", "--right", "B"],
    "sim": ["sim", "--measure", "wu-lambda", "--lambda", "0.3333333333", "--data", "tableIII",
            "--left", "P3", "--right", "S1"],
    "entropy": ["entropy", "--data", "tableIII", "--set", "P1"],
    "audit-entropy": ["audit", "--measure", "entropy"],
}
REPRO_EXPECTED_FAILING = ("tab2-distances",)
REL_TOL = 1e-9
ABS_TOL = 1e-12  # printed residuals of closed-form identities sit below this

_TIMING = re.compile(r"\(\s*\d+(?:\.\d+)?\s*m?s\)")
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
GOLDEN_SAMPLES = 400


def output_fingerprint(text: str) -> dict:
    """The numbers of a CLI output and its text with the numbers blanked;
    wall-time annotations such as "(1.2 ms)" are dropped first."""
    text = _TIMING.sub("(time)", text)
    numbers = [float(x) for x in _NUMBER.findall(text)]
    skeleton = _NUMBER.sub("#", text)
    return {"numbers": numbers, "skeleton": skeleton}


def golden_entry(exit_code: int, text: str) -> dict:
    """What cli_golden.json keeps of one command: its exit code, the digest
    of its text with numbers blanked, every number of a short output, and an
    evenly strided sample plus sums of a long one."""
    fp = output_fingerprint(text)
    nums = fp["numbers"]
    stride = max(1, math.ceil(len(nums) / GOLDEN_SAMPLES))
    return {
        "exit": exit_code,
        "count": len(nums),
        "stride": stride,
        "sample": nums[::stride],
        "sum": math.fsum(nums),
        "abs_sum": math.fsum(abs(x) for x in nums),
        "skeleton_sha256": hashlib.sha256(fp["skeleton"].encode()).hexdigest(),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def repro_failing(text: str) -> tuple[str, ...]:
    """Ids of the scenarios whose block in `repro` output ends in FAIL."""
    failing, current = [], None
    for line in text.splitlines():
        if line.startswith("scenario: "):
            current = line.removeprefix("scenario: ").strip()
        elif line.startswith("result: FAIL"):
            failing.append(current)
    return tuple(failing)


def cli_check(key: str, exit_code: int, text: str, golden: dict) -> list[str]:
    """Problems with one CLI output against its golden entry ([] if none)."""
    want = golden[key]
    problems = []
    if key == "repro":
        failing = repro_failing(text)
        if exit_code != 1 or failing != REPRO_EXPECTED_FAILING:
            problems.append(f"repro: exit {exit_code}, failing scenarios {failing}")
    elif exit_code != 0:
        problems.append(f"{key}: exit {exit_code}")
    got = golden_entry(exit_code, text)
    if got["count"] != want["count"]:
        return problems + [f"{key}: {got['count']} numbers, expected {want['count']}"]
    if got["skeleton_sha256"] != want["skeleton_sha256"]:
        problems.append(f"{key}: output text differs from the recorded output")
    bad = [i for i, (a, b) in enumerate(zip(got["sample"], want["sample"])) if not _close(a, b)]
    if bad:
        problems.append(f"{key}: sampled values differ at positions {bad[:5]}")
    if not (_close(got["sum"], want["sum"]) and _close(got["abs_sum"], want["abs_sum"])):
        problems.append(f"{key}: sums of all values differ")
    return problems


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def cli_inputs(seed: int) -> tuple[dict, list]:
    """The recorded outputs and the seeded command order of every cycle."""
    golden = load_golden()
    missing = sorted(set(CLI_MIX) - set(golden))
    if missing:
        raise RuntimeError(f"{GOLDEN_PATH.name} lacks {missing}")
    order = list(CLI_MIX)
    random.Random(f"cli-{seed}").shuffle(order)
    return golden, order


def run_cli(key: str) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    proc = run_child(["-m", "ifsim.cli", *CLI_MIX[key]])
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def time_cli(seed: int, seconds: float, size: Size) -> Outcome:
    out = Outcome()
    setup = Setup(lambda: cli_inputs(seed), size)
    golden, order = setup.sample()
    run_cli(order[0])  # warm the file cache
    calls = []

    def unit(i: int) -> float:
        """Two invocations: with a reference after each one, a run would
        make too few invocations for a steady `cli_ms_p75`."""
        wall = 0.0
        for j in (2 * i, 2 * i + 1):
            key = order[j % len(order)]
            code, text, call = run_cli(key)
            problems = cli_check(key, code, text, golden)
            out.gate(not problems, "; ".join(problems))
            calls.append(call)
            wall += call
        return wall

    pairs = len(order) // 2
    _, costs = paced(unit, reference_process, seconds, group=pairs)
    setup.sample()
    cycles = grouped(calls, len(order))
    ms = [c * 1e3 for c in calls]
    cycle_s = statistics.median(cycles)
    out.metrics.update({
        "setup_s": setup.metric(),
        "cli_ms_p50": (statistics.median(ms), "ms", len(ms)),
        "cli_ms_p75": (statistics.quantiles(ms, n=4, method="inclusive")[2], "ms", len(ms)),
        "cli_per_s": (len(order) / cycle_s, "1/s", len(cycles)),
        "op_cost_p50": (statistics.median(grouped(costs, pairs)), "ref", len(cycles)),
    })
    return out


TIMED = {"audit": time_audit, "classify": time_classify, "bulk": time_bulk, "cli": time_cli}
