"""The grid x grid sweep: golden reports and a brute-force reference.

The sweep evaluates only the unordered pairs i <= j and relies on every
batch kernel being bitwise symmetric; where a split's tables show its sums
keep their bits when mu and nu swap in both points, it also sweeps only
the rows mu <= nu, against the columns their mirrors need.  Two golden
sets hold reports minus their final timing line, so any witness, sup pair
or statistic that moves shows up as a byte difference:

* ``golden/audit_<name>.txt``: the default audits of wu, xiao, yc, jgamma
  (gamma 1) and the entropy, recorded from the implementation that evaluated
  the full ordered matrix;
* ``golden/coarse_audits.txt``: all seven built-in distance configurations
  plus the entropy at ``COARSE``, whose 0.3 grid misses both endpoints, so it
  pins E1's crisp-endpoint check and S5's family probe without the endpoint
  exemption.

The sweep's blocks are channel sums from the split's per-channel term
tables, not ``pair_batch`` values; every block of a built-in measure,
finished, is compared with ``pair_batch`` bit for bit below, and each
block's rows and columns with the layout its split should take.  Each
custom kernel, mirrored or not, is swept twice against the full matrix,
its finish declared non-decreasing (finished after the reductions) and
not (finished first).

Re-record both sets in one command (only when a kernel change is meant to
move the numbers) with ``PYTHONPATH=src python tests/test_audit_sweep.py``,
which prints each line it moves (old -> new) before it writes.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_kernel_digest import CONFIGS, DECLARED, MIRRORED

from ifsim import AuditConfig, audit_distance, audit_entropy, get_measure, grid_points
from ifsim import audit, baselines, measures
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
    """The sweep's statistics by numpy's nan rule: a nan makes a reduction
    over it nan, is the argmax where it comes first, and fails every
    witness scan, each the negation of what must hold."""
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
        "range_witness": _first(~((d >= 0.0) & (d <= 1.0)), grid, d),
        "positivity_witness": _first(off & ~(d > 0.0), grid, d),
        "near_one_witness": _first(~(eligible < 1.0 - tol), grid, d),
    }


def _canonical(sweep: dict) -> str:
    """repr of the sweep with arrays as tuples; repr keeps the sign of zero."""
    out = dict(sweep)
    out["sup_pair"] = tuple(tuple(float(x) for x in p) for p in sweep["sup_pair"])
    return repr(out)


def _symmetric_kernel(f, finish=lambda total: total):
    """A deliberately defective but exactly symmetric distance, the kernel
    finish(f(mu_a, nu_a, mu_b, nu_b)) as a split with a term per channel:
    one channel packs each point into mu + 1j*nu, whose term unpacks both
    points into f, and a zero channel beside it adds f(<0,0>, <0,0>) = 0 by
    the same term; the finish is the identity unless given.
    The packed channel's table holds g**2 cells for a grid of g points, so
    it suits steps of 0.05 or more."""
    def channels(mu, nu):
        z = mu + 1j * nu
        return z, np.zeros_like(z)

    def term(x, y):
        return f(np.real(x), np.imag(x), np.real(y), np.imag(y))

    split = measures.KernelSplit(channels, (term, term), finish)
    return MeasureDescriptor("defective", {}, lambda a, b, w: 0.0, split, split)


def _declared(m: MeasureDescriptor, declared: bool, sizes: list | None = None) -> MeasureDescriptor:
    """m with its finish in a new function, declared non-decreasing
    (measures._non_decreasing) or not, so the sweep finishes every cell
    first, or reduces the sums and finishes only what its checks read; the
    size of each array finished is appended to sizes, when given."""
    finish = m.split.finish

    def wrapped(total):
        if sizes is not None:
            sizes.append(total.size)
        return finish(total)

    split = m.split._replace(finish=measures._non_decreasing(wrapped) if declared else wrapped)
    return dataclasses.replace(m, pair_batch=split, split=split)


def _l1(ma, na, mb, nb):
    return 0.5 * (np.abs(ma - mb) + np.abs(na - nb))


def _both_above_half(ma, mb):
    return (ma >= 0.5) & (mb >= 0.5)


# each defect sits only among points with mu >= 0.5, so its first witness is
# in a late row, away from the first block
DEFECTIVE_KERNELS = {
    "negative":
        lambda ma, na, mb, nb: _l1(ma, na, mb, nb) - 0.2 * _both_above_half(ma, mb),
    "nu-blind":
        lambda ma, na, mb, nb: np.where(_both_above_half(ma, mb), 0.5 * np.abs(ma - mb),
                                        _l1(ma, na, mb, nb)),
    "one-inside":
        lambda ma, na, mb, nb: np.where(_both_above_half(ma, mb) & (ma != mb), 1.0,
                                        _l1(ma, na, mb, nb)),
    "nan-inside":
        lambda ma, na, mb, nb: np.where(_both_above_half(ma, mb) & (ma == mb) & (na != nb),
                                        np.nan, _l1(ma, na, mb, nb)),
}
DEFECTIVE = {k: _symmetric_kernel(f) for k, f in DEFECTIVE_KERNELS.items()}
# a split whose finish returns the channel sum as is (values in [0, 2]): each
# block the sweep masks is then the buffer it reuses for the next block; a
# kernel whose sup 0.3 is reached in many blocks and cells, so the first
# block and its first cell must win; one whose sup is a zero, -0.0 in the
# first cell, whose sign the sup keeps whatever sign a block's max() gives;
# one whose sums rise block by block while its non-decreasing finish
# floors them all to 0.3 (and returns a new array), so the sup must be
# decided on finished values, where the first block ties every later one;
# and one finished by sqrt whose diagonal rises to the grid's last point, so
# that a grid of 97-cell blocks ends in a 1x1 tile that the sweep checks,
# whose maximum is the -inf of its masked cell, which sqrt must never get
CUSTOM = {**DEFECTIVE, "z-score": MeasureDescriptor(
    "z-score", {}, lambda a, b, w: 0.0, measures.z_score_batch, measures.z_score_batch),
    "plateau": _symmetric_kernel(lambda ma, na, mb, nb: np.minimum(_l1(ma, na, mb, nb), 0.3)),
    "signed-zero": _symmetric_kernel(lambda ma, na, mb, nb: np.where(ma + mb > 0.5, 0.0, -0.0)),
    "floor-tie": _symmetric_kernel(
        lambda ma, na, mb, nb: np.where(ma + mb > 0.0, 0.3 + 0.09 * np.minimum(ma, mb), 0.0),
        lambda total: np.floor(10.0 * total) / 10.0),
    "rising-diagonal": _symmetric_kernel(
        lambda ma, na, mb, nb: _l1(ma, na, mb, nb) + 0.1 * ma * mb, np.sqrt)}


def _mirrored_kernel(term, channels=baselines._triple, finish=lambda total: total):
    """A deliberately defective split that the sweep mirrors: channels
    (mu, nu, ...) whose first two share one term, symmetric in its two
    arguments, and whose later ones are symmetric in mu and nu, as pi is;
    swapping mu and nu in both points then swaps the first two channel
    terms and keeps the sum.  The finish is the identity unless given."""
    split = measures.KernelSplit(channels, term, finish)
    return MeasureDescriptor("mirrored", {}, lambda a, b, w: 0.0, split, split)


def _degrees(mu, nu):
    return mu, nu


def _degrees_and_min(mu, nu):
    return mu, nu, np.minimum(mu, nu)


def _gap(x, y):
    return 0.5 * np.abs(x - y)


def _zero(x, y):
    return 0.0 * (x + y)


# the defects of DEFECTIVE and the ties and signed zero of CUSTOM, each
# carried by a term that the mu and nu channels share, so what the mu
# channel gives in the late rows, the nu channel gives in the early ones.
# The floor tie reads min(mu, nu), which rises with the rows the mirrored
# sweep takes, those with mu <= nu
MIRRORED_DEFECTIVE = {
    "mirrored-nan-inside": _mirrored_kernel(
        lambda x, y: np.where(_both_above_half(x, y) & (x != y), np.nan, _gap(x, y)), _degrees),
    "mirrored-negative": _mirrored_kernel(
        lambda x, y: _gap(x, y) - 0.1 * _both_above_half(x, y), _degrees),
    "mirrored-one-inside": _mirrored_kernel(
        lambda x, y: np.where(_both_above_half(x, y) & (x != y), 1.0, _gap(x, y)), _degrees),
    "mirrored-plateau": _mirrored_kernel(lambda x, y: np.minimum(_gap(x, y), 0.1)),
    "mirrored-signed-zero": _mirrored_kernel(
        lambda x, y: np.where(x + y > 0.5, 0.0, -0.0), _degrees),
    "mirrored-floor-tie": _mirrored_kernel(
        (_zero, _zero,
         lambda x, y: np.where(x + y > 0.0, 0.3 + 0.09 * np.minimum(x, y), 0.0)),
        _degrees_and_min, lambda total: np.floor(10.0 * total) / 10.0),
}
CUSTOM.update(MIRRORED_DEFECTIVE)
# two channels whose tables differ only in the sign of the zeros on their
# diagonal: equal under ==, so only a check of the bytes sweeps every row
CUSTOM["zero-sign-tables"] = _mirrored_kernel(
    (_gap, lambda x, y: np.where(x == y, -0.0, _gap(x, y))), _degrees)


@pytest.mark.parametrize("step", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("block_cells", [None, 97])
@pytest.mark.parametrize("name,params", BUILTIN_DISTANCES + [(k, None) for k in CUSTOM])
def test_sweep_equals_full_matrix_reference(monkeypatch, step, block_cells, name, params):
    if block_cells is not None:  # many small blocks, each with a diagonal tile
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    grid = grid_points(step)
    if params is None:  # every custom finish is non-decreasing: sweep both ways
        sweeps = [_declared(CUSTOM[name], declared) for declared in (False, True)]
    else:
        sweeps = [get_measure(name, **params)]
    want = _canonical(_reference_sweep(sweeps[0], grid, TOL))
    for m in sweeps:
        assert _canonical(audit._grid_matrix_sweep(m, grid, TOL)) == want


def test_floor_tie_sums_rise_across_blocks():
    # what makes a floor tie a test of the tie rule: a later block's largest
    # sum beats the first block's, and the finish maps both to one value; a
    # 1x1 block holds only a masked diagonal cell, so it has no top
    for name in "floor-tie", "mirrored-floor-tie":
        m, grid = CUSTOM[name], grid_points(0.05)
        tops = []
        for _, _, sums in audit._sweep_blocks(m, grid):
            np.fill_diagonal(sums, -np.inf)
            tops.append(sums.max())
        tops = [t for t in tops if t > -np.inf]
        assert max(tops) > tops[0]
        assert m.split.finish(np.array(tops)).tolist() == [0.3] * len(tops)


@pytest.mark.parametrize("config", DECLARED)
def test_sweep_reads_the_declaration(config):
    # a declared finish runs on a few whole blocks (a new sup or a witness)
    # and on 0-d statistics; the same finish undeclared runs on every block,
    # a mirrored sweep's 1x1 block of <0.5, 0.5> included, and on nothing
    # else; the two sweeps agree
    measure, params = CONFIGS[config]
    m, grid = get_measure(measure, **params), grid_points(0.01)
    blocks = [block.size for *_, block in audit._sweep_blocks(m, grid)]
    sizes = {False: [], True: []}
    sweeps = [_canonical(audit._grid_matrix_sweep(_declared(m, d, sizes[d]), grid, TOL))
              for d in (False, True)]
    assert sweeps[0] == sweeps[1]
    assert sizes[False] == blocks
    whole = [n for n in sizes[True] if n > 1]
    assert 0 < len(whole) < len(blocks) / 10


@pytest.mark.parametrize("block_cells", [None, 97])
def test_plateau_sup_is_reached_in_many_blocks(monkeypatch, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    for name in "plateau", "mirrored-plateau":
        tops = [block.max() for *_, block in audit._sweep_blocks(CUSTOM[name], grid_points(0.05))]
        assert tops.count(max(tops)) > 1


@pytest.mark.parametrize("name,key", [
    ("negative", "range_witness"), ("negative", "positivity_witness"),
    ("nu-blind", "positivity_witness"), ("one-inside", "near_one_witness"),
    ("nan-inside", "range_witness"),
])
def test_defective_kernels_witness_late_rows(name, key):
    grid = grid_points(0.05)
    witness = _reference_sweep(DEFECTIVE[name], grid, TOL)[key]
    assert witness is not None and witness["a"].startswith("<0.5")


def _nan_off_grid(ma, na, mb, nb):
    # nan only where both mu lie in (0.6, 0.9), which the 0.5 grid misses
    inside = (ma > 0.6) & (ma < 0.9) & (mb > 0.6) & (mb < 0.9)
    return np.where(inside, np.nan, _l1(ma, na, mb, nb))


@pytest.mark.parametrize("step,kernel,sampled", [
    (0.05, DEFECTIVE_KERNELS["nan-inside"], False),  # the sweep's witness
    (0.5, _nan_off_grid, True),  # the random pairs' witness
])
def test_audit_fails_s1_on_the_first_nan(step, kernel, sampled):
    m = _symmetric_kernel(kernel)
    config = dataclasses.replace(COARSE, grid_step=step)
    s1 = audit_distance(m, config).entry("S1")
    assert s1.verdict == "fail" and s1.detail == "value outside [0, 1]"
    assert s1.witness["d"] == "nan"
    on_grid = _reference_sweep(m, grid_points(step), TOL)["range_witness"]
    if sampled:
        pairs = audit._uniform(config, 0, 2, config.random_pairs)
        d = kernel(pairs[:, 0, 0], pairs[:, 0, 1], pairs[:, 1, 0], pairs[:, 1, 1])
        first = int(np.flatnonzero(np.isnan(d))[0])
        assert on_grid is None and s1.witness["a"] == audit._fmt_ifv(*pairs[first, 0])
    else:
        assert s1.witness == on_grid


# nan on the 0.05 grid only, and in the 0.5 grid's samples only
NAN_CASES = {"nan-inside": (0.05, DEFECTIVE["nan-inside"]),
             "nan-off-grid": (0.5, _symmetric_kernel(_nan_off_grid))}


@pytest.mark.parametrize("case,axiom,column", [
    ("nan-inside", "S2", "d"), ("nan-inside", "S5", "d"),  # the sweep's witnesses
    ("nan-off-grid", "S4", "margin"), ("nan-off-grid", "S4'", "margin"),
    ("nan-off-grid", "D-triangle", "excess"),
])
def test_audit_fails_every_check_on_a_nan(case, axiom, column):
    step, m = NAN_CASES[case]
    entry = audit_distance(m, dataclasses.replace(COARSE, grid_step=step)).entry(axiom)
    assert entry.verdict == "fail" and entry.witness[column] == "nan"


def test_sweep_allocates_its_buffers_once(monkeypatch):
    # measured between one block's arrival and the next's: the finish and
    # the sweep's reductions work in the two per-sweep buffers, so no block
    # allocates an array of a block's size, and the peak is those buffers
    # and the term tables, whatever the number of blocks; for wu, whose
    # sweep takes every row, and for xiao, whose sweep is mirrored
    blocks, grid = audit._sweep_blocks, grid_points(0.01)
    block_bytes = max(measures._BLOCK_CELLS, len(grid)) * 8
    for m in get_measure("wu"), get_measure("xiao"):
        table_bytes = sum(np.unique(x).size ** 2 * 8
                          for x in m.split.channels(grid[:, 0], grid[:, 1]))
        peaks, rises = [], []

        def watched(m, grid):
            base = None
            for item in blocks(m, grid):
                current, peak = tracemalloc.get_traced_memory()
                peaks.append(peak)
                if base is not None:
                    rises.append(peak - base)
                tracemalloc.reset_peak()
                base = current
                yield item

        monkeypatch.setattr(audit, "_sweep_blocks", watched)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            audit._grid_matrix_sweep(m, grid, TOL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(rises) > 100
        assert max(rises) < block_bytes
        assert max(peaks) - start < 4 * block_bytes + table_bytes


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

def _mirror_index(grid: np.ndarray) -> np.ndarray:
    """Each grid point's index of its mirror <nu, mu>, found by value."""
    where = {p: i for i, p in enumerate(map(tuple, grid.tolist()))}
    return np.array([where[nu, mu] for mu, nu in grid.tolist()])


def _sigma(grid: np.ndarray, mirrored: bool) -> np.ndarray:
    """The grid permutation the sweep should take: the mirror, or the identity."""
    return _mirror_index(grid) if mirrored else np.arange(len(grid))


def _checked_blocks(m: MeasureDescriptor, grid: np.ndarray, mirrored: bool):
    """The sweep's (lo, cols, block), each checked against its one layout as
    it comes: the rows i with i <= sigma i, each block against the columns
    j >= lo with sigma j >= lo, a sorted index array, for sigma the mirror
    or, unmirrored, the identity (every row against the columns lo..).  The
    rows are checked once all are swept."""
    g, sigma = len(grid), _sigma(grid, mirrored)
    rows = []
    for lo, cols, block in audit._sweep_blocks(m, grid):
        want = np.flatnonzero((np.arange(g) >= lo) & (sigma >= lo))
        assert cols.dtype == want.dtype and np.array_equal(cols, want)
        rows.extend(range(lo, lo + len(block)))
        yield lo, cols, block
    assert rows == np.flatnonzero(np.arange(g) <= sigma).tolist()


@pytest.mark.parametrize("block_cells", [None, 97])
@pytest.mark.parametrize("step", [0.05, 0.07, 0.3])
@pytest.mark.parametrize("config", ["wu", "wu-lambda(2)", "xiao", "yc", "jgamma(1)"])
def test_sweep_covers_every_orbit(monkeypatch, config, step, block_cells):
    # the coverage rule the sweep's statistics rest on: each ordered pair
    # (i, j) has the value of every cell of its orbit {(i, j), (j, i),
    # (sigma i, sigma j), (sigma j, sigma i)}, by the kernel's symmetry and
    # sigma's; the sweep visits a cell once at most, one cell or more of
    # every orbit, and always the orbit's row-major first cell, the one a
    # row-major scan of the full matrix meets first
    if block_cells is not None:
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    measure, params = CONFIGS[config]
    grid = grid_points(step)
    g, sigma = len(grid), _sigma(grid, config in MIRRORED)
    visits = np.zeros((g, g), dtype=int)
    for lo, cols, block in audit._sweep_blocks(get_measure(measure, **params), grid):
        assert (np.diff(cols) > 0).all()
        visits[lo:lo + len(block), cols] += 1
    assert visits.max() == 1
    i, j = np.indices((g, g))
    orbits = np.stack([i * g + j, j * g + i, sigma[i] * g + sigma[j], sigma[j] * g + sigma[i]])
    swept = visits.reshape(-1) == 1
    assert swept[orbits].any(axis=0).all()
    assert swept[orbits.min(axis=0)].all()


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
    grid = grid_points(step)
    for lo, cols, sums in _checked_blocks(m, grid, config in MIRRORED):
        block = m.split.finish(sums.T).T  # blocks are channel sums
        want = audit._eval_pairs(m.pair_batch, grid[lo:lo + len(block), None], grid[None, cols])
        assert block.dtype == want.dtype and block.shape == want.shape
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("step", [0.05, 0.3, 0.5])
@pytest.mark.parametrize("name", [*MIRRORED_DEFECTIVE, "zero-sign-tables"])
def test_mirror_symmetric_splits_are_mirrored(step, name):
    for _ in _checked_blocks(CUSTOM[name], grid_points(step), name in MIRRORED_DEFECTIVE):
        pass


@pytest.mark.parametrize("block_cells", [None, 97])
@pytest.mark.parametrize("step", [0.05, 0.3])
def test_table_blocks_keep_the_term_orientation(monkeypatch, step, block_cells):
    # asymmetric terms: a block gathered from t[:, k] in place of t[k, :]
    # would hold term(b, a) where the kernel gives term(a, b); and with a
    # different term per channel, a sweep that tabulated every channel with
    # the first term would not give the kernel's values.  One term shared
    # by (mu, nu) is mirror-symmetric, though not symmetric
    if block_cells is not None:
        monkeypatch.setattr(measures, "_BLOCK_CELLS", block_cells)
    grid = grid_points(step)
    for terms, mirrored in [((lambda x, y: x - 0.5 * y,) * 2, True),
                            ((lambda x, y: x - 0.5 * y, lambda x, y: y - 0.25 * x), False)]:
        split = measures.KernelSplit(lambda mu, nu: (mu, nu), terms, lambda total: total)
        m = MeasureDescriptor("asymmetric", {}, lambda a, b, w: 0.0, split, split)
        d = audit._eval_pairs(split, grid[:, None], grid[None, :])
        assert not np.array_equal(d, d.T)
        for lo, cols, block in _checked_blocks(m, grid, mirrored):
            want = audit._eval_pairs(split, grid[lo:lo + len(block), None], grid[None, cols])
            assert np.array_equal(block.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ["wu", "xiao"])  # two channels and three
def test_sweep_adds_each_block_by_channel_sum(monkeypatch, name):
    monkeypatch.setattr(measures, "_BLOCK_CELLS", 97)
    m, grid = get_measure(name), grid_points(0.05)
    blocks = sum(1 for _ in audit._sweep_blocks(m, grid))
    calls, channel_sum = [], measures.channel_sum

    def counted(terms, out=None):
        calls.append(out is not None)  # the sum's buffer, reused
        return channel_sum(terms, out)

    monkeypatch.setattr(measures, "channel_sum", counted)
    assert audit._grid_matrix_sweep(m, grid, TOL) is not None
    assert blocks > 1 and calls == [True] * blocks


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


if __name__ == "__main__":
    from rerecord import write_golden

    for case in [*GOLDEN_CASES, "entropy"]:
        write_golden(GOLDEN / f"audit_{case}.txt", _report_text(case))
    write_golden(GOLDEN / "coarse_audits.txt", _coarse_text())
