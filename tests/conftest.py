"""Shared hypothesis strategies for IFVs and small IFSs."""

import hypothesis.strategies as st

from ifsim import IFS, IFV

_degrees = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# an int beyond the interpreter's 4,300-digit limit for str(), and the text
# that error messages quote it as
LONG_INT = -10**5000
LONG_INT_SHOWN = "<negative int of 16610 bits>"


@st.composite
def ifvs(draw) -> IFV:
    mu = draw(_degrees)
    nu = draw(st.floats(min_value=0.0, max_value=1.0 - mu, allow_nan=False))
    return IFV(mu, nu)


@st.composite
def ifs_pairs(draw, max_n: int = 4):
    """Two IFSs over one shared universe."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    universe = tuple(f"x{i + 1}" for i in range(n))
    a = IFS(universe, tuple(draw(ifvs()) for _ in range(n)))
    b = IFS(universe, tuple(draw(ifvs()) for _ in range(n)))
    return a, b
