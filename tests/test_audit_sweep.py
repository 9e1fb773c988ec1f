"""The grid x grid sweep: golden reports and a brute-force reference.

The sweep evaluates only the unordered pairs i <= j and relies on every
batch kernel being bitwise symmetric.  Two golden sets hold reports minus
their final timing line, so any witness, sup pair or statistic that moves
shows up as a byte difference:

* ``golden/audit_<name>.txt``: the default audits of wu, xiao, yc, jgamma
  (gamma 1) and the entropy, recorded from the implementation that evaluated
  the full ordered matrix;
* ``golden/coarse_audits.txt``: all seven built-in distance configurations
  plus the entropy at ``COARSE``, whose 0.3 grid misses both endpoints, so it
  pins E1's crisp-endpoint check and S5's family probe without the endpoint
  exemption.

A built-in measure's sweep blocks come from per-channel term tables, not
from ``pair_batch``; every such block is compared with ``pair_batch`` bit
for bit below.

Re-record both sets in one command (only when a kernel change is meant to
move the numbers) with ``PYTHONPATH=src python tests/test_audit_sweep.py``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from test_kernel_digest import CONFIGS

from ifsim import AuditConfig, audit_distance, audit_entropy, get_measure, grid_points
from ifsim import audit, measures
from ifsim.registry import MeasureDescriptor

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "wu": ("wu", {}),
    "xiao": ("xiao", {}),
    "yc": ("yc", {}),
    "jgamma": ("jgamma", {"gamma": 1.0}),
}
BUILTIN_DISTANCES = [
    ("wu", {}), ("wu-lambda", {"lambda": 0.5}), ("wu-lambda", {"lambda": 2.0}),
    ("xiao", {}), ("yc", {}), ("jgamma", {"gamma": 1.0}), ("jgamma", {"gamma": 2.0}),
]
COARSE = AuditConfig(grid_step=0.3, random_pairs=2000, random_triples=2000,
                     chain_samples=200, seed=5)
TOL = 1e-12


def _untimed(report) -> str:
    return report.to_text().rsplit("\n", 1)[0] + "\n"  # drop the timing line


def _report_text(name: str) -> str:
    if name == "entropy":
        return _untimed(audit_entropy(AuditConfig()))
    measure, params = GOLDEN_CASES[name]
    return _untimed(audit_distance(get_measure(measure, **params), AuditConfig()))


def _coarse_text() -> str:
    reports = [audit_distance(get_measure(n, **p), COARSE) for n, p in BUILTIN_DISTANCES]
    return "\n".join(map(_untimed, [*reports, audit_entropy(COARSE)]))


@pytest.mark.parametrize("name", [*GOLDEN_CASES, "entropy"])
def test_default_report_matches_golden(name):
    golden = (GOLDEN / f"audit_{name}.txt").read_bytes()
    assert _report_text(name).encode() == golden


def test_coarse_reports_match_golden():
    assert _coarse_text().encode() == (GOLDEN / "coarse_audits.txt").read_bytes()


# ---------------------------------------------------------------------------
# brute-force reference: the full ordered matrix, scanned in row-major order
# ---------------------------------------------------------------------------

def _first(mask: np.ndarray, grid: np.ndarray, d: np.ndarray) -> dict | None:
    hits = np.argwhere(mask)  # row-major order
    if not len(hits):
        return None
    i, j = hits[0]
    return {"a": audit._fmt_ifv(*grid[i]), "b": audit._fmt_ifv(*grid[j]), "d": f"{d[i, j]:.17g}"}


def _reference_sweep(m: MeasureDescriptor, grid: np.ndarray, tol: float) -> dict:
    mu, nu = grid[:, 0], grid[:, 1]
    d = np.asarray(m.pair_batch(mu[:, None], nu[:, None], mu[None, :], nu[None, :]), dtype=float)
    off = ~np.eye(len(grid), dtype=bool)
    exempt = np.zeros_like(off)
    ends = [int(np.flatnonzero((mu == e[0]) & (nu == e[1]))[0])
            for e in audit._ENDPOINTS if ((mu == e[0]) & (nu == e[1])).any()]
    if len(ends) == 2:
        exempt[ends[0], ends[1]] = exempt[ends[1], ends[0]] = True
    eligible = np.where(off & ~exempt, d, -np.inf)
    i, j = np.unravel_index(int(np.argmax(eligible)), d.shape)
    return {
        "min": float(d.min()), "max": float(d.max()),
        "min_off_diagonal": float(d[off].min()),
        "sup": float(eligible[i, j]), "sup_pair": (grid[i], grid[j]),
        "range_witness": _first((d < 0.0) | (d > 1.0), grid, d),
        "positivity_witness": _first(off & (d <= 0.0), grid, d),
        "near_one_witness": _first(eligible >= 1.0 - tol, grid, d),
    }


def _canonical(sweep: dict) -> str:
    """repr of the sweep with arrays as tuples; repr keeps the sign of zero."""
    out = dict(sweep)
    out["sup_pair"] = tuple(tuple(float(x) for x in p) for p in sweep["sup_pair"])
    return repr(out)


def _symmetric_kernel(f):
    """A deliberately defective but exactly symmetric distance."""
    return MeasureDescriptor("defective", "distance", {}, lambda a, b, w: 0.0, f)


def _l1(ma, na, mb, nb):
    return 0.5 * (np.abs(ma - mb) + np.abs(na - nb))


def _both_above_half(ma, mb):
    return (ma >= 0.5) & (mb >= 0.5)


# each defect sits only among points with mu >= 0.5, so its first witness is
# in a late row, away from the first block
DEFECTIVE = {
    "negative": _symmetric_kernel(
        lambda ma, na, mb, nb: _l1(ma, na, mb, nb) - 0.2 * _both_above_half(ma, mb)),
    "nu-blind": _symmetric_kernel(
        lambda ma, na, mb, nb: np.where(_both_above_half(ma, mb), 0.5 * np.abs(ma - mb),
                                        _l1(ma, na, mb, nb))),
    "one-inside": _symmetric_kernel(
        lambda ma, na, mb, nb: np.where(_both_above_half(ma, mb) & (ma != mb), 1.0,
                                        _l1(ma, na, mb, nb))),
}


@pytest.mark.parametrize("step", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("block_cells", [None, 97])
@pytest.mark.parametrize("name,params", BUILTIN_DISTANCES + [(k, None) for k in DEFECTIVE])
def test_sweep_equals_full_matrix_reference(monkeypatch, step, block_cells, name, params):
    if block_cells is not None:  # many small blocks, each with a diagonal tile
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    m = DEFECTIVE[name] if params is None else get_measure(name, **params)
    grid = grid_points(step)
    assert _canonical(audit._grid_matrix_sweep(m, grid, TOL)) == _canonical(
        _reference_sweep(m, grid, TOL))


@pytest.mark.parametrize("name,key", [
    ("negative", "range_witness"), ("negative", "positivity_witness"),
    ("nu-blind", "positivity_witness"), ("one-inside", "near_one_witness"),
])
def test_defective_kernels_witness_late_rows(name, key):
    grid = grid_points(0.05)
    witness = _reference_sweep(DEFECTIVE[name], grid, TOL)[key]
    assert witness is not None and witness["a"].startswith("<0.5")


def test_sweep_never_writes_into_kernel_output():
    # the sweep masks each block in place, so a kernel that hands out
    # read-only memory must still work and keep its values
    outputs = []

    def read_only_l1(ma, na, mb, nb):
        d = _l1(ma, na, mb, nb)
        d.flags.writeable = False
        outputs.append((d, d.copy()))
        return d

    m = _symmetric_kernel(read_only_l1)
    grid = grid_points(0.05)
    assert _canonical(audit._grid_matrix_sweep(m, grid, TOL)) == _canonical(
        _reference_sweep(m, grid, TOL))
    assert all(np.array_equal(d, before) for d, before in outputs)


@pytest.mark.parametrize("step", [0.05, 0.3])
@pytest.mark.parametrize("name,params", BUILTIN_DISTANCES)
def test_builtin_kernels_bitwise_symmetric_on_grid(step, name, params):
    grid = grid_points(step)
    mu, nu = grid[:, 0], grid[:, 1]
    d = get_measure(name, **params).pair_batch(mu[:, None], nu[:, None], mu[None, :], nu[None, :])
    assert np.array_equal(d, d.T)


# ---------------------------------------------------------------------------
# the table-built sweep against the kernel
# ---------------------------------------------------------------------------

# at 0.05 and 0.07 the pi channel holds more distinct floats than the grid
# has axis values, since 1 - (mu + nu) rounds apart for equal exact sums
@pytest.mark.parametrize("block_cells", [None, 97])
@pytest.mark.parametrize("step", [0.05, 0.3, 0.07])
@pytest.mark.parametrize("config", list(CONFIGS))
def test_table_blocks_bitwise_equal_pair_batch(monkeypatch, config, step, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    measure, params = CONFIGS[config]
    m = get_measure(measure, **params)
    assert m.split is not None
    grid = grid_points(step)
    rows = 0
    for lo, a, b, block in audit._sweep_blocks(m, grid):
        want = audit._eval_pairs(m.pair_batch, a, b)
        assert block.dtype == want.dtype and block.shape == want.shape == (len(block), len(grid) - lo)
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
        assert lo == rows
        rows += len(block)
    assert rows == len(grid)


def _counting(f, counts: list):
    def wrapper(*args):
        out = f(*args)
        counts.append(np.size(out))
        return out
    return wrapper


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_replaced_kernel_and_evaluator_keep_the_split(name):
    # perfbench's traced run wraps both callables with dataclasses.replace
    measure, params = GOLDEN_CASES[name]
    md = get_measure(measure, **params)
    kernel_cells, evaluator_calls = [], []
    traced = dataclasses.replace(md, pair_batch=_counting(md.pair_batch, kernel_cells),
                                 evaluator=_counting(md.evaluator, evaluator_calls))
    assert traced.split is md.split
    report = audit_distance(traced, AuditConfig())
    assert _untimed(report).encode() == (GOLDEN / f"audit_{name}.txt").read_bytes()
    sweep_cells = sum(b.size for *_, b in audit._sweep_blocks(md, grid_points(0.01)))
    assert 0 < sum(kernel_cells) < sweep_cells  # the grid's cells skip pair_batch


def test_descriptor_without_split_is_swept_through_pair_batch():
    wu = get_measure("wu")
    cells = []
    plain = MeasureDescriptor("wu", "distance", {}, wu.evaluator, _counting(wu.pair_batch, cells))
    assert plain.split is None
    grid = grid_points(0.05)
    sweep = audit._grid_matrix_sweep(plain, grid, TOL)
    assert sum(cells) == sum(b.size for *_, b in audit._sweep_blocks(wu, grid))
    assert _canonical(sweep) == _canonical(audit._grid_matrix_sweep(wu, grid, TOL))


if __name__ == "__main__":
    for case in [*GOLDEN_CASES, "entropy"]:
        (GOLDEN / f"audit_{case}.txt").write_text(_report_text(case))
    (GOLDEN / "coarse_audits.txt").write_text(_coarse_text())
