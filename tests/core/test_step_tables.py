"""Symbolic check of every step table, one recursion level deep.

Each slot holds a signed sum of quadrants or of quadrant products (with a
power of alpha per term).  The real executor runs the real table over
real depth-1 buffers and a real workspace; the symbolic backend keys each
value on the address of the buffer it lives in, so the executor's own
slicing, leaf views and scratch aliasing (two_temp's S/P) are exactly
what is checked, for the derived variants — alpha on the final writes,
relabeled (transposed) A and B — too.
"""

import numpy as np
import pytest

from repro.core.strassen import STRASSEN_TABLE
from repro.core.winograd import SCHEDULE_TABLES
from repro.layout.matrix import MortonMatrix
from repro.layout.relabel import quadrant_slices, transposed_view


def _addr(x):
    return x.__array_interface__["data"][0]


def _combine(*signed):
    out = {}
    for sign, x in signed:
        for term, coeff in x.items():
            out[term] = out.get(term, 0) + sign * coeff
    return {t: c for t, c in out.items() if c}


class SymOps:
    """The op vocabulary over symbolic values, one per buffer address.

    ``val`` maps ``(factors, alpha_power)`` to a coefficient; every
    destination written is recorded.
    """

    def __init__(self):
        self.vals = {}
        self.written = []

    def get(self, x):
        assert _addr(x) in self.vals, "slot read before it was written"
        return self.vals[_addr(x)]

    def _set(self, dst, val, scaled=False):
        self.written.append(_addr(dst))
        self.vals[_addr(dst)] = {(f, p + scaled): c for (f, p), c in val.items()}

    def add(self, dst, x, y):
        self._set(dst, _combine((1, self.get(x)), (1, self.get(y))))

    def sub(self, dst, x, y):
        self._set(dst, _combine((1, self.get(x)), (-1, self.get(y))))

    def iadd(self, dst, x):
        self.add(dst, dst, x)

    def add3(self, dst, x, y, z):
        self._set(dst, _combine(*((1, self.get(m)) for m in (x, y, z))))

    def add_scale(self, dst, x, y, alpha):
        self._set(dst, _combine((1, self.get(x)), (1, self.get(y))), scaled=True)

    def iadd_scale(self, dst, x, alpha):
        self.add_scale(dst, dst, x, alpha)

    def add3_scale(self, dst, x, y, z, alpha):
        self._set(
            dst, _combine(*((1, self.get(m)) for m in (x, y, z))), scaled=True
        )

    def leaf_mult(self, a, b, dst):
        assert a.shape == b.shape == dst.shape == (2, 2)  # kernel tile views
        prod = {}
        for (fa, pa), ca in self.get(a).items():
            for (fb, pb), cb in self.get(b).items():
                assert fa[0][0] == "A" and fb[0][0] == "B", (fa, fb)
                key = (fa + fb, pa + pb)
                prod[key] = prod.get(key, 0) + ca * cb
        self._set(dst, prod)


def _depth1():
    """Depth-1 operands of 2x2 tiles: each quadrant is one leaf tile."""
    return tuple(
        MortonMatrix(buf=np.zeros(16), rows=4, cols=4, tile_r=2, tile_c=2,
                     depth=1)
        for _ in "ABC"
    )


QUADS_AB = [f"{m}{i}{j}" for m in "AB" for i in (1, 2) for j in (1, 2)]

# The engine relabels a transposed A or B only for the out-of-place
# Winograd tables; in-place ones and Strassen always see plain operands.
VARIANTS = [
    (name, relabeled, alpha)
    for name in SCHEDULE_TABLES
    for relabeled in (False, True)
    for alpha in (1.0, 0.5)
    if not (relabeled and SCHEDULE_TABLES[name].in_place)
] + [("strassen", False, 1.0), ("strassen", False, 0.5)]


@pytest.mark.parametrize("name,relabeled,alpha", VARIANTS)
def test_table_computes_every_c_quadrant(name, relabeled, alpha):
    table = STRASSEN_TABLE if name == "strassen" else SCHEDULE_TABLES[name]
    a, b, c = _depth1()
    ws = table.workspace(1, 2, 2, 2)
    ops = SymOps()
    quads = {}
    for side, m in (("A", a), ("B", b), ("C", c)):
        # A relabeled operand stores its op-geometry 12 and 21 swapped.
        for (i, j), q in zip(((1, 1), (1, 2), (2, 1), (2, 2)),
                             quadrant_slices(m.buf, relabeled and side != "C")):
            quads[f"{side}{i}{j}"] = q
    for slot in QUADS_AB:
        ops.vals[_addr(quads[slot])] = {((slot,), 0): 1}
    if relabeled:
        a, b = transposed_view(a), transposed_view(b)
    table.run(a, b, c, ops, ws, alpha=alpha)
    power = int(alpha != 1.0)
    for i in (1, 2):
        for j in (1, 2):
            expect = {((f"A{i}{k}", f"B{k}{j}"), power): 1 for k in (1, 2)}
            assert ops.get(quads[f"C{i}{j}"]) == expect, f"C{i}{j}"
    operand_writes = {_addr(quads[s]) for s in QUADS_AB} & set(ops.written)
    assert bool(operand_writes) == (name == "ip_overwrite")
