"""The traced run: per-layer metrics for every ifsim module.

One traced run measures every layer, whichever workload it is started for:
it runs a fixed amount of each workload's traffic with spans around the
public functions that workload calls, and takes each metric from the
workload that the table in perfbench/README.md assigns it to.  The amounts
are fixed rather than timed, so the exact counts (`*.pairs`,
`*.kernel_pairs`, `*.kernel_calls`, `*.evaluator_calls`,
`*.computed_bytes`) repeat exactly from run to run.

Each workload's operation also runs untraced, warm, just before its traced
part; `trace.<workload>.overhead_ms` is the traced minus the untraced time.
"""

from __future__ import annotations

import dataclasses
import io
import statistics
import time
from contextlib import redirect_stdout

import ifsim
import ifsim.cli
from ifsim import baselines, core, datasets, measures, recognition, scenarios
from tracer import Tracer

import workloads as wl

PAIR_KERNELS = (
    (measures, "js_norm_batch"),
    (baselines, "xiao_elem_batch"),
    (baselines, "yc_elem_batch"),
    (baselines, "j_gamma_batch"),
)
BYTES_PER_PAIR = 40  # four float64 inputs and one float64 output, as computed

AUDIT_KINDS = [name for name, _ in wl.AUDIT_MEASURES]
CURVE_KEYS = [k for k in wl.CLI_MIX if k.startswith("curve-")]

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("measures.js_norm_batch.ns_per_pair", "ns"),
    ("measures.js_norm_batch.pairs", "count"),
    ("measures.js_norm_batch.computed_bytes", "B"),
    ("baselines.xiao_elem_batch.ns_per_pair", "ns"),
    ("baselines.yc_elem_batch.ns_per_pair", "ns"),
    ("baselines.j_gamma_batch.ns_per_pair", "ns"),
    *[(f"audit.{m}.{k}", u) for m in AUDIT_KINDS
      for k, u in (("wall_s", "s"), ("kernel_s", "s"), ("self_s", "s"),
                   ("kernel_pairs", "count"), ("kernel_calls", "count"))],
    ("audit.entropy.wall_s", "s"),
    ("recognition.classify.self_us", "us"),
    ("recognition.classify.evaluator_calls", "count"),
    *[(f"registry.evaluator.{m}.us_per_call", "us") for m in AUDIT_KINDS],
    ("measures.dist_wu.us_per_call", "us"),
    ("baselines.dist_xiao.us_per_call", "us"),
    ("baselines.dist_yc.us_per_call", "us"),
    ("measures.dist_wu.ms", "ms"),
    ("baselines.dist_xiao.ms", "ms"),
    ("baselines.dist_yc.ms", "ms"),
    ("measures.entropy_ifs.ms", "ms"),
    ("core.from_pairs.us_per_elem", "us"),
    ("datasets.parse_dataset.us_per_elem", "us"),
    ("datasets.dumps_dataset.us_per_elem", "us"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    *[(f"cli.main.{k}.ms", "ms") for k in wl.CLI_MIX],
    ("scenarios.run_scenario.ms", "ms"),
    *[(f"scenarios.sweep_curve.{k.removeprefix('curve-')}.ms", "ms") for k in CURVE_KEYS],
    *[(f"trace.{w}.{k}", "ms") for w in wl.TIMED for k in ("untraced_ms", "overhead_ms")],
]


def _span_name(target) -> str:
    module, attr = target
    return f"{module.__name__.removeprefix('ifsim.')}.{attr}"


def module_targets():
    """The public functions the workloads reach, wrapped wherever bound."""
    return [
        *[(mod, attr, _span_name((mod, attr)), {"count_pairs": True}) for mod, attr in PAIR_KERNELS],
        (measures, "dist_wu", "measures.dist_wu", {}),
        (measures, "entropy_ifs", "measures.entropy_ifs", {}),
        (baselines, "dist_xiao", "baselines.dist_xiao", {}),
        (baselines, "dist_yc", "baselines.dist_yc", {}),
        (recognition, "classify", "recognition.classify", {}),
        (datasets, "parse_dataset", "datasets.parse_dataset", {}),
        (datasets, "dumps_dataset", "datasets.dumps_dataset", {}),
        (core.IFS, "from_pairs", "core.from_pairs", {"count_elems": True}),
        (scenarios, "run_scenario", "scenarios.run_scenario", {}),
        (scenarios, "sweep_curve", "scenarios.sweep_curve", {}),
    ]


def _per(total_ns: int, count: int, scale: float = 1.0) -> float:
    """total_ns / count in the metric's unit; 0 when the work no longer
    reaches the function (count == 0)."""
    return total_ns / count * scale if count else 0.0


def _per_call(stats, scale: float) -> float:
    return _per(stats.total_ns, stats.calls, scale)


def trace_audit(seed: int, size: wl.Size, out: wl.Outcome) -> dict:
    config, plain = wl.audit_inputs(seed, size)

    def untraced_wu() -> float:
        t0 = time.perf_counter()
        wl.audit_gate(out, "wu", ifsim.audit_distance(dict(plain)["wu"], config))
        return time.perf_counter() - t0

    untraced_wu()  # the first audit in a process pays for first-touch memory
    untraced = untraced_wu()
    tr = Tracer()
    with tr.patched(module_targets()):
        traced = []
        for name, params in wl.AUDIT_MEASURES:
            md = ifsim.get_measure(name, **params)  # built while patched: kernels are wrapped
            traced.append((name, dataclasses.replace(
                md,
                evaluator=tr.wrap(f"audit.{name}.evaluator", md.evaluator),
                pair_batch=tr.wrap(f"audit.{name}.kernel", md.pair_batch, count_pairs=True),
            )))
        wl.audit_pass(config, traced, out, span=tr.span)

    m = {}
    for kernel in map(_span_name, PAIR_KERNELS):
        s = tr.get(kernel)
        m[f"{kernel}.ns_per_pair"] = _per(s.total_ns, s.pairs)
    pairs = tr.get("measures.js_norm_batch").pairs
    m["measures.js_norm_batch.pairs"] = pairs
    m["measures.js_norm_batch.computed_bytes"] = BYTES_PER_PAIR * pairs
    for name in AUDIT_KINDS:
        wall, kernel = tr.get(f"audit.{name}"), tr.get(f"audit.{name}.kernel")
        m[f"audit.{name}.wall_s"] = wall.total_s
        m[f"audit.{name}.kernel_s"] = kernel.total_s
        m[f"audit.{name}.self_s"] = wall.self_s  # children: kernel and evaluator spans
        m[f"audit.{name}.kernel_pairs"] = kernel.pairs
        m[f"audit.{name}.kernel_calls"] = kernel.calls
    m["audit.entropy.wall_s"] = tr.get("audit.entropy").total_s
    m["trace.audit.untraced_ms"] = untraced * 1e3
    m["trace.audit.overhead_ms"] = (tr.get("audit.wu").total_s - untraced) * 1e3
    return m


def trace_classify(seed: int, size: wl.Size, out: wl.Outcome) -> dict:
    inp = wl.classify_inputs(seed, size)
    samples = inp.samples[: size.trace_samples]
    untraced = [c for src, s in samples for c in wl.classify_sample(inp, src, s, out)]

    tr = Tracer()
    with tr.patched(module_targets()):
        traced_measures = tuple(
            (name, dataclasses.replace(md, evaluator=tr.wrap(f"registry.evaluator.{name}", md.evaluator)))
            for name, md in inp.measures)
        traced = [c for src, s in samples
                  for c in wl.classify_sample(inp, src, s, out, traced_measures)]

    cls = tr.get("recognition.classify")
    m = {
        "recognition.classify.self_us": _per(cls.self_ns, cls.calls, 1e-3),
        "recognition.classify.evaluator_calls": sum(
            tr.get(f"registry.evaluator.{name}").calls for name in AUDIT_KINDS),
        "measures.dist_wu.us_per_call": _per_call(tr.get("measures.dist_wu"), 1e-3),
        "baselines.dist_xiao.us_per_call": _per_call(tr.get("baselines.dist_xiao"), 1e-3),
        "baselines.dist_yc.us_per_call": _per_call(tr.get("baselines.dist_yc"), 1e-3),
    }
    for name in AUDIT_KINDS:
        m[f"registry.evaluator.{name}.us_per_call"] = _per_call(tr.get(f"registry.evaluator.{name}"), 1e-3)
    m["trace.classify.untraced_ms"] = statistics.median(untraced) * 1e3
    m["trace.classify.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3
    return m


def trace_bulk(seed: int, size: wl.Size, out: wl.Outcome) -> dict:
    inp = wl.bulk_inputs(seed, size)

    def timed_round():
        t0 = time.perf_counter()
        result = wl.bulk_round(inp)
        return time.perf_counter() - t0, result

    def gated(timed) -> float:
        wall, result = timed
        wl.bulk_gate(out, inp, result)  # untraced: its parse is not a span
        return wall

    gated(timed_round())  # the first round in a process pays for first-touch memory
    untraced = gated(timed_round())
    tr = Tracer()
    with tr.patched(module_targets()):
        timed = timed_round()
    traced = gated(timed)

    built = tr.get("core.from_pairs")
    return {
        "measures.dist_wu.ms": _per_call(tr.get("measures.dist_wu"), 1e-6),
        "baselines.dist_xiao.ms": _per_call(tr.get("baselines.dist_xiao"), 1e-6),
        "baselines.dist_yc.ms": _per_call(tr.get("baselines.dist_yc"), 1e-6),
        "measures.entropy_ifs.ms": _per_call(tr.get("measures.entropy_ifs"), 1e-6),
        "core.from_pairs.us_per_elem": _per(built.total_ns, built.elems, 1e-3),
        "datasets.parse_dataset.us_per_elem": _per(tr.get("datasets.parse_dataset").total_ns, inp.elements, 1e-3),
        "datasets.dumps_dataset.us_per_elem": _per(tr.get("datasets.dumps_dataset").total_ns, inp.elements, 1e-3),
        "trace.bulk.untraced_ms": untraced * 1e3,
        "trace.bulk.overhead_ms": (traced - untraced) * 1e3,
    }


def _main_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = ifsim.cli.main(argv)
    return code, buf.getvalue()


def trace_cli(seed: int, size: wl.Size, out: wl.Outcome) -> dict:
    golden, order = wl.cli_inputs(seed)

    def wall_ms(args):
        t0 = time.perf_counter()
        proc = wl.run_child(args)
        wall = (time.perf_counter() - t0) * 1e3
        out.gate(proc.returncode == 0, f"python {' '.join(args)}: exit {proc.returncode}")
        return wall

    interpreter = statistics.median(wall_ms(["-c", "pass"]) for _ in range(size.repeats))
    imported = statistics.median(wall_ms(["-c", "import ifsim.cli"]) for _ in range(size.repeats))
    m = {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter}

    untraced = traced = 0.0
    for key in order:
        _main_in_process(wl.CLI_MIX[key])  # the first call in a process warms caches
        t0 = time.perf_counter()
        _main_in_process(wl.CLI_MIX[key])
        untraced += time.perf_counter() - t0
        tr = Tracer()
        with tr.patched(module_targets()):
            with tr.span("cli.main") as main:
                code, text = _main_in_process(wl.CLI_MIX[key])
        traced += main.total_s
        problems = wl.cli_check(key, code, text, golden)
        out.gate(not problems, "; ".join(problems))
        m[f"cli.main.{key}.ms"] = main.total_s * 1e3
        if key == "repro":
            m["scenarios.run_scenario.ms"] = tr.get("scenarios.run_scenario").total_s * 1e3
        if key in CURVE_KEYS:
            family = key.removeprefix("curve-")
            m[f"scenarios.sweep_curve.{family}.ms"] = tr.get("scenarios.sweep_curve").total_s * 1e3
    m["trace.cli.untraced_ms"] = untraced * 1e3
    m["trace.cli.overhead_ms"] = (traced - untraced) * 1e3
    return m


PHASES = {"audit": trace_audit, "classify": trace_classify, "bulk": trace_bulk, "cli": trace_cli}


def traced_run(seed: int, size: wl.Size) -> wl.Outcome:
    """Every phase at the same seed; the metrics are LAYER_METRICS."""
    out = wl.Outcome()
    for phase in PHASES.values():
        out.metrics.update(phase(seed, size, out))
    return out
