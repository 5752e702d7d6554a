"""Symbolic check of every step table, one recursion level deep.

Each slot holds a signed sum of quadrants or of quadrant products (with a
power of alpha per term); the executor runs the real table over it, so the
derived variants — prepacked top level, alpha on the final writes — are
checked exactly as the numeric path runs them.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.strassen import STRASSEN_TABLE
from repro.core.winograd import FUSED_PACKS_A, FUSED_PACKS_B, SCHEDULE_TABLES


class Sym:
    """A leaf slot: ``val`` maps ``(factors, alpha_power)`` to a coefficient."""

    depth = 0

    def __init__(self, name, val=None):
        self.name, self.val = name, val


class SymMatrix:
    """A depth-1 operand whose quadrants are leaf slots."""

    depth = 1

    def __init__(self, side, init):
        names = [f"{side}{i}{j}" for i in (1, 2) for j in (1, 2)]
        self.quads = tuple(
            Sym(n, {((n,), 0): 1} if init else None) for n in names
        )

    def quadrants(self):
        return self.quads


def _combine(*signed):
    out = {}
    for sign, x in signed:
        assert x.val is not None, f"{x.name} read before it was written"
        for term, coeff in x.val.items():
            out[term] = out.get(term, 0) + sign * coeff
    return {t: c for t, c in out.items() if c}


class SymOps:
    """The op vocabulary over symbolic slots; records every destination."""

    def __init__(self):
        self.written = []

    def _set(self, dst, val, scaled=False):
        self.written.append(dst)
        dst.val = {(f, p + scaled): c for (f, p), c in val.items()}

    def add(self, dst, x, y):
        self._set(dst, _combine((1, x), (1, y)))

    def sub(self, dst, x, y):
        self._set(dst, _combine((1, x), (-1, y)))

    def iadd(self, dst, x):
        self.add(dst, dst, x)

    def add3(self, dst, x, y, z):
        self._set(dst, _combine((1, x), (1, y), (1, z)))

    def add_scale(self, dst, x, y, alpha):
        self._set(dst, _combine((1, x), (1, y)), scaled=True)

    def iadd_scale(self, dst, x, alpha):
        self.add_scale(dst, dst, x, alpha)

    def add3_scale(self, dst, x, y, z, alpha):
        self._set(dst, _combine((1, x), (1, y), (1, z)), scaled=True)

    def leaf_mult(self, a, b, dst):
        prod = {}
        for (fa, pa), ca in _combine((1, a)).items():
            for (fb, pb), cb in _combine((1, b)).items():
                assert fa[0][0] == "A" and fb[0][0] == "B", (fa, fb)
                key = (fa + fb, pa + pb)
                prod[key] = prod.get(key, 0) + ca * cb
        self._set(dst, prod)


def _workspace(table):
    """Symbolic scratch with the real layout's aliasing (two_temp's S/P)."""
    real = table.workspace(1, 2, 2, 2).levels
    slots = {}
    for s in table.scratch:
        buf = getattr(real[0], s.lower()).buf
        twin = [slots[o] for o in slots
                if np.shares_memory(buf, getattr(real[0], o.lower()).buf)]
        slots[s.lower()] = twin[0] if twin else Sym(s)
    level = SimpleNamespace(**{n: slots.get(n) for n in "stpq"})
    return SimpleNamespace(schedule=table.layout, at=lambda depth: level)


VARIANTS = [
    (name, prepacked, alpha)
    for name in SCHEDULE_TABLES
    for prepacked in (False, True)
    for alpha in (1.0, 0.5)
] + [("strassen", False, 1.0), ("strassen", False, 0.5)]


@pytest.mark.parametrize("name,prepacked,alpha", VARIANTS)
def test_table_computes_every_c_quadrant(name, prepacked, alpha):
    table = STRASSEN_TABLE if name == "strassen" else SCHEDULE_TABLES[name]
    a, b, c = SymMatrix("A", True), SymMatrix("B", True), SymMatrix("C", False)
    ws = _workspace(table)
    if prepacked:
        slots = dict(zip(
            [q.name for m in (a, b, c) for q in m.quads],
            a.quads + b.quads + c.quads,
        ))
        slots.update({s: getattr(ws.at(0), s.lower()) for s in table.scratch})
        packs = {}
        for side, table_packs in ((a, FUSED_PACKS_A), (b, FUSED_PACKS_B)):
            for label, sign, (r0, c0), (r1, c1) in table_packs:
                x, y = side.quads[2 * r0 + c0], side.quads[2 * r1 + c1]
                packs[label] = _combine((1, x), (1 if sign == "+" else -1, y))
        for label, val in packs.items():
            slots[table.pack_slots[label]].val = val
    ops = SymOps()
    table.run(a, b, c, ops, ws, alpha=alpha, prepacked=prepacked)
    power = int(alpha != 1.0)
    for i in (1, 2):
        for j in (1, 2):
            expect = {((f"A{i}{k}", f"B{k}{j}"), power): 1 for k in (1, 2)}
            assert c.quads[2 * (i - 1) + j - 1].val == expect, f"C{i}{j}"
    operand_writes = [d for d in ops.written if d in a.quads + b.quads]
    assert bool(operand_writes) == (name == "ip_overwrite")
