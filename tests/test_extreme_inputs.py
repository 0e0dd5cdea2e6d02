"""Extreme inputs end cleanly: every CLI call on them exits 0, 2 or 3
with no traceback, and a symmetric product that prints is 1/2.

The draws span E/V0 from 1e-14 to 1 - 1e-14, V0 from 1e-3 to 100 eV,
gaps from 1e-4 nm out to the band edge 2 k0 l = 1300, and biases at the
1e-9 eV dispatch seam, at the turning point phi = V0 - E and at
phi = 2 (V0 - E), for every family, with and without the s_fq column.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelnoise.cli import main
from tunnelnoise.units import ELECTRON_MASS, EV, HBAR

# Where the uncertainty pair stops printing on the flat core: 2 k0 l = 1300.
BAND_EDGE = 1300.0


def decades(lo: int, hi: int):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0**x)


ENERGY_FRACTIONS = st.one_of(
    decades(-14, -1),
    decades(-14, -1).map(lambda x: 1.0 - x),
    st.floats(min_value=0.01, max_value=0.99),
)
# Relative offsets from a special bias, both signs and zero.
OFFSETS = st.one_of(
    st.just(0.0),
    decades(-12, -1),
    decades(-12, -1).map(lambda x: -x),
)


@st.composite
def points(draw):
    family = draw(st.sampled_from(["sym", "asym", "field"]))
    v0 = draw(decades(-3, 2))
    e = v0 * draw(ENERGY_FRACTIONS)
    depth = v0 - e
    k0 = math.sqrt(2.0 * ELECTRON_MASS * depth * EV) / HBAR
    band_gap_nm = BAND_EDGE / (2.0 * k0) * 1e9
    gap = draw(st.floats(min_value=1e-4, max_value=max(band_gap_nm, 1e-4)))
    phi = 0.0
    if family != "sym":
        anchor = draw(st.sampled_from([1e-9, depth, 2.0 * depth]))
        phi = anchor * (1.0 + draw(OFFSETS))
    return family, v0, e, phi, gap, draw(st.booleans())


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=800, deadline=None, derandomize=True)
@given(points())
def test_extreme_inputs_exit_cleanly_and_keep_the_symmetric_bound(point):
    family, v0, e, phi, gap, with_s_fq = point
    geometry = ("--barrier", family, "--V0", repr(v0), "--E", repr(e),
                "--phi", repr(phi), "--gap", repr(gap))

    code, out, err = call("solve", *geometry)
    assert code in (0, 3), err
    if code == 0:
        pair = json.loads(out)["uncertainty"]
        if family == "sym":
            assert abs(pair["product_over_hbar"] - 0.5) <= 1e-10, pair

    code, out, err = call("feasibility", *geometry)
    assert code in (0, 2, 3), err

    columns = "T,R,delta_l,delta_p,product" + (",s_fq" if with_s_fq else "")
    code, out, err = call("sweep", *geometry, "--sweep", "gap", "--min", repr(gap),
                          "--max", repr(gap * 1.5), "--steps", "3",
                          "--columns", columns)
    assert code in (0, 2, 3), err
    if code == 0 and family == "sym":
        products = [float(line.split(",")[5]) for line in out.splitlines()[2:]
                    if not line.startswith("#")]
        assert all(abs(p - 0.5) <= 1e-10 for p in products), products
