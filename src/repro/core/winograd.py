"""The Strassen-Winograd recursion on Morton-ordered operands.

This implements the paper's Section 2 equation set verbatim — the Winograd
variant with 7 recursive products and the minimum 15 matrix additions::

    S1 = A21 + A22      T1 = B12 - B11
    S2 = S1  - A11      T2 = B22 - T1
    S3 = A11 - A21      T3 = B22 - B12
    S4 = A12 - S2       T4 = B21 - T2

    P1 = A11.B11  P2 = A12.B21  P3 = S1.T1  P4 = S2.T2
    P5 = S3.T3    P6 = S4.B22   P7 = A22.T4

    C11 = U1 = P1 + P2          U2 = P1 + P4        U3 = U2 + P5
    C21 = U4 = U3 + P7          C22 = U5 = U3 + P3
    U6 = U2 + P3                C12 = U7 = U6 + P6

The recursion never descends below the Morton leaf tiles: by construction
(dynamic truncation, Section 3.4) the operands' depth *is* the recursion
depth, and leaves are multiplied by the conventional kernel.

Step tables
-----------
Each memory schedule linearises those equations once, as a
:class:`StepTable`: one row ``(op, dst, *srcs)`` per operation over one
level's slots — the quadrants ``A11`` .. ``C22`` and the scratch ``S``
(A-shaped sums), ``T`` (B-shaped sums), ``P``/``Q`` (C-shaped products).
``mul`` rows recurse (``dst = srcs[0] . srcs[1]``); any other op is the
backend pass ``ops.<op>(dst, *srcs)``.  One executor
(:meth:`StepTable.execute`) runs every table on raw buffers, deriving
from the rows:

* **lowering** — operands, products and scratch are flat ndarrays, of
  one product or of ``n`` products interleaved tile by tile (the stacked
  layout of :mod:`repro.layout.matrix`); a node's quadrants are
  contiguous slices, so the passes see flat arrays and the leaf kernel
  sees tile views — one ``(n, c, r)`` stack per leaf site when ``n >
  1``.  No per-node matrix object is built.
* **alpha** — each C quadrant's last write runs in its scaled form
  (``add_scale``, ``iadd_scale``, ``add3_scale``); a depth-0 product
  scales its leaf.  Sub-products are never scaled.
* **relabeling** — a transposed operand, and the scratch of its kind
  (``S`` for A, ``T`` for B, since sums of relabeled quadrants keep the
  operand's native permutation), descend in quadrant order
  :data:`~repro.layout.relabel.RELABEL_ORDER`; products stay plain.
* **requirements** — the backend must implement the ops the rows name,
  and each level allocates the scratch slots they touch
  (:meth:`StepTable.workspace`).

The tests run every table on a symbolic backend and check that each C
quadrant comes out as exactly its two product terms, in all variants.

Memory schedules
----------------
``memory=`` selects one of three tables:

* ``classic`` — S/T/P/Q scratch per level; every addition is an in-place
  whole-buffer vector operation.
* ``two_temp`` — Boyer, Dumas, Pernet & Zhou's two-temporary schedule:
  the C quadrants receive the products directly; only an A-shaped X
  (``S``, which doubles as the C-shaped ``P`` staging P1) and a B-shaped
  Y (``T``) remain per level (see :mod:`repro.core.workspace`).
* ``ip_overwrite`` — the fully in-place variant: **A and B are
  clobbered** and no scratch at all is allocated.  Requires uniform tile
  geometry (``tile_m == tile_k == tile_n``) because A-, B- and C-shaped
  intermediates share each other's quadrant slots.

All three perform the identical floating-point operations modulo
*commuting* the operands of two additions (U4's ``U3 + P7`` vs
``P7 + U3``, and the staging of U2/U3), which IEEE-754 addition renders
bit-identical — the property tests assert exact equality, not closeness.
The low-memory schedules additionally fuse the three-operand U7 chain
into a single :meth:`~repro.core.ops.NumpyOps.add3` pass.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..layout.matrix import MortonMatrix
from ..layout.relabel import PLAIN_ORDER, RELABEL_ORDER, transposed_view
from .ops import NumpyOps, WinogradOps
from .workspace import Workspace

__all__ = [
    "winograd_multiply",
    "multiply_morton",
    "MEMORY_SCHEDULES",
    "SCHEDULE_TABLES",
    "StepTable",
    "bind_pass",
    "resolve_memory",
]

#: Selectable memory schedules, in decreasing scratch order.
MEMORY_SCHEDULES = ("classic", "two_temp", "ip_overwrite")

#: Slots of one recursion level in executor order: the operand and
#: product quadrants, then the scratch slots — a workspace level's
#: ``s``/``t``/``p``/``q``, mapped to the operand whose shape each holds.
QUADRANT_SLOTS = tuple(f"{m}{i}{j}" for m in "ABC" for i in (1, 2) for j in (1, 2))
SCRATCH_SLOTS = {"S": "A", "T": "B", "P": "C", "Q": "C"}
#: The alpha-carrying form of each pass that can write a C quadrant last
#: (a leaf product takes ``alpha`` itself).
_SCALED = {
    "add": "add_scale", "iadd": "iadd_scale", "add3": "add3_scale",
    "leaf_mult": "leaf_mult",
}


def _compile(rows: tuple, index: dict[str, int]) -> tuple:
    """``(op, final, i, j, k, l)`` per row: ``final`` marks a C quadrant's
    last write, and ``i..l`` index the call's arguments in a level's slot
    tuple (``mul`` rows as ``(x, y, dst)``; ``None`` pads short rows)."""
    last = {row[1]: i for i, row in enumerate(rows) if row[1][0] == "C"}
    finals = set(last.values())
    out = []
    for n, (op, dst, *srcs) in enumerate(rows):
        args = [index[s] for s in ((*srcs, dst) if op == "mul" else (dst, *srcs))]
        out.append((op, n in finals, *args, *[None] * (4 - len(args))))
    return tuple(out)


def bind_pass(ops: WinogradOps, op: str, alpha: float = 1.0):
    """The backend method that runs ``op``.

    ``alpha != 1`` selects the pass's scaled form with ``alpha`` bound:
    that is how a C quadrant's final write, or a depth-0 leaf product,
    carries the scale.  Raises ``ValueError`` naming the pass when the
    backend lacks it.
    """
    scaled = alpha != 1.0
    name = _SCALED[op] if scaled else op
    fn = getattr(ops, name, None)
    if fn is None:
        raise ValueError(
            f"ops backend {type(ops).__name__} lacks the {name!r} pass "
            "this schedule needs"
        )
    return partial(fn, alpha=alpha) if scaled else fn


class StepTable:
    """One schedule of the 7-product recursion, written once as data.

    ``rows`` are ``(op, dst, *srcs)`` tuples over :data:`QUADRANT_SLOTS`
    and :data:`SCRATCH_SLOTS` (see the module docstring); ``layout`` is
    the :class:`~repro.core.workspace.Workspace` schedule whose levels
    hold the table's scratch slots.
    """

    def __init__(self, name: str, layout: str, rows) -> None:
        self.name = name
        self.layout = layout
        self.rows = tuple(rows)
        used = {slot for row in self.rows for slot in row[1:]}
        #: Scratch slots the rows touch, in executor order.
        self.scratch = tuple(s for s in SCRATCH_SLOTS if s in used)
        #: Whether rows overwrite operand quadrants.  Such a table
        #: clobbers A and B, reuses slots across operand shapes (so needs
        #: uniform tiles) and cannot write through relabeled operands.
        self.in_place = any(row[1][0] in "AB" for row in self.rows)
        #: Backend passes the rows name (``mul`` is the recursion itself).
        self.ops = tuple(dict.fromkeys(r[0] for r in self.rows if r[0] != "mul"))
        index = {s: i for i, s in enumerate(QUADRANT_SLOTS + self.scratch)}
        self._program = _compile(self.rows, index)

    # -------------------------------------------------------------- scratch

    def workspace(
        self, depth: int, tile_m: int, tile_k: int, tile_n: int,
        dtype=np.float64, cap: "int | None" = None, stagger: int = 0,
    ) -> Workspace:
        """Scratch for this table over a depth-``depth`` recursion.

        Every level holds the table's scratch slots in its ``layout``
        (``two_temp`` backs S and P with one buffer).  ``cap`` and
        ``stagger`` stack and offset its buffers for the batched path
        (:class:`~repro.core.workspace.Workspace`).
        """
        return Workspace(
            depth, tile_m, tile_k, tile_n, with_q="Q" in self.scratch,
            schedule=self.layout, dtype=dtype, cap=cap, stagger=stagger,
        )

    def _scratch(self, workspace, depth: int, sizes: dict, n: int) -> tuple:
        """The raw scratch buffers whose slots have depth ``depth``.

        ``sizes`` maps each operand kind to one item's element count in
        its slots; an ``n``-item batch takes each slot's first ``n`` item
        lengths, from a workspace stacked for at least ``n`` items.  A
        workspace of another layout or geometry is rejected.
        """
        if not self.scratch:
            return ()
        level = workspace.at(depth) if workspace.schedule == self.layout else None
        views = [getattr(level, s.lower(), None) for s in self.scratch]
        if None in views:
            q = ", with_q=True" if "Q" in self.scratch else ""
            raise ValueError(
                f"the {self.name!r} schedule needs a workspace built with "
                f"schedule={self.layout!r}{q}"
            )
        bufs = []
        for slot, view in zip(self.scratch, views):
            want, room = sizes[SCRATCH_SLOTS[slot]], view.batch or 1
            if view.size != want or n > room:
                raise ValueError(
                    f"workspace slot {slot} at depth {depth} holds {room} x "
                    f"{view.size} elements; the operands need {n} x {want}"
                )
            bufs.append(view.buf[: n * want])
        return tuple(bufs)

    # ------------------------------------------------------------- executor

    def run(
        self,
        a,
        b,
        c,
        ops: WinogradOps,
        workspace=None,
        alpha: float = 1.0,
    ) -> None:
        """Execute ``c = alpha . a . b`` over Morton operands.

        ``a``/``b`` may be plain, relabeled (:class:`TransposedView`) or
        stacked; they are lowered to their raw buffers once, here,
        and :meth:`execute` runs the recursion on those.
        """
        self.execute(
            a.buf, b.buf, c.buf, (a.tile_r, a.tile_c, b.tile_c), a.depth,
            ops, workspace, alpha,
            (getattr(a, "transposed", False), getattr(b, "transposed", False)),
        )

    def execute(
        self,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        tiles: tuple[int, int, int],
        depth: int,
        ops: WinogradOps,
        workspace=None,
        alpha: float = 1.0,
        relabeled: tuple[bool, bool] = (False, False),
    ) -> None:
        """The one executor: ``z = alpha . x . y`` with this table at every
        level, over raw Morton buffers.

        ``x``/``y``/``z`` are the flat A/B/C buffers of a depth-``depth``
        recursion over ``tiles = (tile_m, tile_k, tile_n)`` leaves (op
        geometry): of one product, or of ``n`` products interleaved tile
        by tile (:mod:`repro.layout.matrix`), ``n`` being ``z.size`` over
        one item's C elements.  ``relabeled`` marks A/B stored transposed:
        those buffers, and the S/T scratch of their kind, descend in
        :data:`~repro.layout.relabel.RELABEL_ORDER` and yield transposed
        leaf views.  Each node slices its buffers into contiguous
        quadrants; a depth-1 node also views them as leaf tiles for the
        kernel (:func:`_leaves`).  Only the top level scales its final
        writes.  Without a ``workspace``, scratch is allocated in
        the operands' dtype.  Raises ``ValueError`` naming any op the
        backend lacks, when the buffers' lengths disagree, or when the
        workspace was built for another layout or geometry.
        """
        tm, tk, tn = tiles
        geo = {"A": (tm, tk, relabeled[0]), "B": (tk, tn, relabeled[1]),
               "C": (tm, tn, False)}
        n = _items(x, y, z, _level_sizes(tiles, depth))
        if depth == 0:
            bind_pass(ops, "leaf_mult", alpha)(*(
                _leaves(buf, *geo[kind], 1, n)[0]
                for buf, kind in ((x, "A"), (y, "B"), (z, "C"))
            ))
            return
        if self.scratch and workspace is None:
            workspace = self.workspace(
                depth, tm, tk, tn, dtype=np.result_type(x.dtype, y.dtype),
                cap=None if n == 1 else n,
            )
        levels = [
            self._scratch(workspace, d, _level_sizes(tiles, d), n)
            for d in range(depth)
        ]
        leaf = bind_pass(ops, "leaf_mult")
        passes = {op: bind_pass(ops, op) for op in self.ops}
        program = self._program
        finals = {
            op: bind_pass(ops, op, alpha) for op, final, *_ in program if final
        }
        kinds = [SCRATCH_SLOTS[s] for s in self.scratch]
        n_slots = len(QUADRANT_SLOTS) + len(kinds)
        # Relabeling, as data: the quadrant order each kind descends in.
        order = {k: RELABEL_ORDER if g[2] else PLAIN_ORDER for k, g in geo.items()}

        def cuts(kind: str, d: int) -> tuple:
            """Slice of each op-geometry quadrant of a depth-``d + 1`` node."""
            r, c, _ = geo[kind]
            q = (r << d) * (c << d) * n
            return tuple(slice(i * q, (i + 1) * q) for i in order[kind])

        def run(program, v) -> None:
            for fn, i, j, k, l in program:
                if l is not None:
                    fn(v[i], v[j], v[k], v[l])
                elif k is not None:
                    fn(v[i], v[j], v[k])
                else:
                    fn(v[i], v[j])

        def node(d: int, program):
            """The function running one depth-``d`` node's rows."""
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = (
                cuts(kind, d - 1) for kind in "ABC"
            )
            scratch = levels[d - 1]
            if d > 1:
                def rec(x, y, z) -> None:
                    run(program, (
                        x[a0], x[a1], x[a2], x[a3], y[b0], y[b1], y[b2], y[b3],
                        z[c0], z[c1], z[c2], z[c3], *scratch,
                    ))
                return rec
            # Children are leaves: the slot tuple carries every slot twice,
            # flat for the addition passes and then as a kernel view.
            ga, gb, gc = geo["A"], geo["B"], geo["C"]
            (o0, o1, o2, o3), (p0, p1, p2, p3) = order["A"], order["B"]
            tiles0 = tuple(
                _leaves(buf, *geo[kind], 1, n)[0]
                for buf, kind in zip(scratch, kinds)
            )

            def rec(x, y, z) -> None:
                ta = _leaves(x, *ga, 4, n)
                tb, tc = _leaves(y, *gb, 4, n), _leaves(z, *gc, 4, n)
                run(program, (
                    x[a0], x[a1], x[a2], x[a3], y[b0], y[b1], y[b2], y[b3],
                    z[c0], z[c1], z[c2], z[c3], *scratch,
                    ta[o0], ta[o1], ta[o2], ta[o3], tb[p0], tb[p1], tb[p2],
                    tb[p3], tc[0], tc[1], tc[2], tc[3], *tiles0,
                ))
            return rec

        def bind(rows, mul, finals) -> list:
            # At a depth-1 node, products are leaves: ``mul`` is then the
            # leaf kernel itself, reading the kernel views.
            shift = n_slots if mul is leaf else 0
            return [
                (mul, args[0] + shift, args[1] + shift, args[2] + shift, None)
                if op == "mul" else ((finals if final else passes)[op], *args)
                for op, final, *args in rows
            ]

        rec = leaf
        for d in range(1, depth):
            rec = node(d, bind(program, rec, passes))
        node(depth, bind(program, rec, finals))(x, y, z)


def _level_sizes(tiles: tuple[int, int, int], depth: int) -> dict:
    """One item's element count in a depth-``depth`` slot of each kind."""
    tm, tk, tn = tiles
    return {
        kind: (r << depth) * (c << depth)
        for kind, (r, c) in (("A", (tm, tk)), ("B", (tk, tn)), ("C", (tm, tn)))
    }


def _items(x: np.ndarray, y: np.ndarray, z: np.ndarray, sizes: dict) -> int:
    """How many interleaved items the flat A/B/C buffers hold.

    ``sizes`` is one item's element count per kind; the three buffers
    must be flat and agree on the count.
    """
    n = z.size // sizes["C"]
    if not (
        n >= 1 and x.ndim == y.ndim == z.ndim == 1
        and (x.size, y.size, z.size)
        == (n * sizes["A"], n * sizes["B"], n * sizes["C"])
    ):
        raise ValueError(
            f"buffers of shapes {x.shape}, {y.shape}, {z.shape} are not "
            f"flat stacks of one count of {sizes['A']}/{sizes['B']}/"
            f"{sizes['C']}-element A/B/C items"
        )
    return n


def _leaves(buf: np.ndarray, r: int, c: int, relabeled: bool, count: int = 4,
            n: int = 1):
    """The ``count`` leaf sites a buffer holds, as kernel views on axis 0.

    ``buf`` is ``count`` consecutive leaf sites of ``n`` interleaved
    ``r x c`` (op geometry) tiles each.  With ``n = 1`` a plain tile is
    stored column-major and a relabeled one is the stored transpose, read
    row-major — either way the 2-D view is the ``(r, c)`` op-geometry
    tile.  With ``n > 1`` each site is one contiguous stack, viewed as
    ``(n, c, r)``: each item's tile transposed, the form the batched
    kernels take — a plain operand's site in C order as stored, a
    relabeled one's the stored ``(n, r, c)``, transposed.
    """
    if n == 1:
        if relabeled:
            return buf.reshape(count, r, c)
        return buf.reshape(count, c, r).transpose(0, 2, 1)
    if relabeled:
        return buf.reshape(count, n, r, c).transpose(0, 1, 3, 2)
    return buf.reshape(count, n, c, r)


CLASSIC = StepTable("classic", "classic", (
    # Phase 1: the five products that consume the S/T chains.  Each S_i/T_i
    # is formed in place the moment its predecessors are dead — the
    # common-subexpression reuse that gives Winograd its 15 additions.
    ("sub", "S", "A11", "A21"),          # S3
    ("sub", "T", "B22", "B12"),          # T3
    ("mul", "P", "S", "T"),              # P <- P5 = S3.T3
    ("add", "S", "A21", "A22"),          # S1
    ("sub", "T", "B12", "B11"),          # T1
    ("mul", "C22", "S", "T"),            # C22 <- P3 = S1.T1
    ("sub", "S", "S", "A11"),            # S2 = S1 - A11
    ("sub", "T", "B22", "T"),            # T2 = B22 - T1
    ("mul", "C11", "S", "T"),            # C11 <- P4 = S2.T2
    ("sub", "S", "A12", "S"),            # S4 = A12 - S2
    ("sub", "T", "B21", "T"),            # T4 = B21 - T2
    ("mul", "C12", "S", "B22"),          # C12 <- P6 = S4.B22
    ("mul", "C21", "A22", "T"),          # C21 <- P7 = A22.T4
    # Phase 2: the plain products and the U-chain.  P1 stages in Q; P2
    # reuses P once U3 has been consumed.  U7 reads P3 before U5 makes
    # C22 final.
    ("mul", "Q", "A11", "B11"),          # Q <- P1
    ("iadd", "C11", "Q"),                # C11 = U2 = P1 + P4
    ("iadd", "P", "C11"),                # P   = U3 = U2 + P5
    ("iadd", "C12", "C11"),              # C12 = U6 = P6 + U2
    ("iadd", "C12", "C22"),              # C12 = U7 = U6 + P3
    ("iadd", "C21", "P"),                # C21 = U4 = U3 + P7
    ("iadd", "C22", "P"),                # C22 = U5 = U3 + P3
    ("mul", "P", "A12", "B21"),          # P <- P2
    ("add", "C11", "Q", "P"),            # C11 = U1 = P1 + P2
))

TWO_TEMP = StepTable("two_temp", "two_temp", (
    # Boyer et al.'s two temporaries: X is slot S (and, once the S-chain
    # is dead, the C-shaped slot P over the same buffer), Y is slot T.
    # A and B are never written.
    ("sub", "S", "A11", "A21"),          # X = S3
    ("sub", "T", "B22", "B12"),          # Y = T3
    ("mul", "C21", "S", "T"),            # C21 <- P5 = S3.T3
    ("add", "S", "A21", "A22"),          # X = S1
    ("sub", "T", "B12", "B11"),          # Y = T1
    ("mul", "C22", "S", "T"),            # C22 <- P3 = S1.T1
    ("sub", "S", "S", "A11"),            # X = S2 = S1 - A11
    ("sub", "T", "B22", "T"),            # Y = T2 = B22 - T1
    ("mul", "C12", "S", "T"),            # C12 <- P4 = S2.T2
    ("sub", "S", "A12", "S"),            # X = S4 = A12 - S2
    ("mul", "C11", "S", "B22"),          # C11 <- P6 = S4.B22
    ("mul", "P", "A11", "B11"),          # X <- P1 (S-chain is dead)
    ("iadd", "C12", "P"),                # C12 = U2 = P4 + P1
    ("iadd", "C21", "C12"),              # C21 = U3 = P5 + U2
    ("add3", "C12", "C11", "C12", "C22"),  # C12 = U7 = (P6 + U2) + P3
    ("iadd", "C22", "C21"),              # C22 = U5 = P3 + U3
    ("sub", "T", "B21", "T"),            # Y = T4 = B21 - T2
    ("mul", "C11", "A22", "T"),          # C11 <- P7 (P6 consumed)
    ("iadd", "C21", "C11"),              # C21 = U4 = U3 + P7
    ("mul", "C11", "A12", "B21"),        # C11 <- P2 (P7 consumed)
    ("add", "C11", "P", "C11"),          # C11 = U1 = P1 + P2
))

IP_OVERWRITE = StepTable("ip_overwrite", "ip_overwrite", (
    # Each intermediate lands in a quadrant slot whose value is dead.
    ("sub", "C11", "A11", "A21"),        # C11 <- S3
    ("sub", "C12", "B22", "B12"),        # C12 <- T3
    ("mul", "C21", "C11", "C12"),        # C21 <- P5 (consumes S3, T3)
    ("add", "A21", "A21", "A22"),        # A21 <- S1
    ("sub", "B12", "B12", "B11"),        # B12 <- T1
    ("sub", "C12", "A21", "A11"),        # C12 <- S2 = S1 - A11
    ("mul", "C11", "A11", "B11"),        # C11 <- P1 (A11, B11 die)
    ("sub", "B11", "B22", "B12"),        # B11 <- T2 = B22 - T1
    ("mul", "C22", "A21", "B12"),        # C22 <- P3 (S1, T1 die)
    ("sub", "A21", "A12", "C12"),        # A21 <- S4 = A12 - S2
    ("sub", "B12", "B21", "B11"),        # B12 <- T4 = B21 - T2
    ("mul", "A11", "C12", "B11"),        # A11 <- P4 (S2, T2 die)
    ("mul", "C12", "A21", "B22"),        # C12 <- P6 (S4, B22 die)
    ("mul", "B22", "A22", "B12"),        # B22 <- P7 (A22, T4 die)
    ("mul", "A22", "A12", "B21"),        # A22 <- P2 (A12, B21 die)
    ("iadd", "A11", "C11"),              # A11 = U2 = P4 + P1
    ("iadd", "C21", "A11"),              # C21 = U3 = P5 + U2
    ("add3", "C12", "C12", "A11", "C22"),  # C12 = U7 = (P6 + U2) + P3
    ("iadd", "C22", "C21"),              # C22 = U5 = P3 + U3
    ("iadd", "C21", "B22"),              # C21 = U4 = U3 + P7
    ("iadd", "C11", "A22"),              # C11 = U1 = P1 + P2
))

#: The step table of each memory schedule.
SCHEDULE_TABLES = {t.name: t for t in (CLASSIC, TWO_TEMP, IP_OVERWRITE)}


def resolve_memory(memory: "str | None") -> str:
    """Canonicalise a ``memory=`` schedule name (``None`` -> ``classic``)."""
    if memory is None:
        return "classic"
    m = str(memory).strip().lower().replace("-", "_")
    if m == "ip":
        m = "ip_overwrite"
    if m not in MEMORY_SCHEDULES:
        raise ValueError(
            f"unknown memory schedule {memory!r}; "
            f"expected one of {MEMORY_SCHEDULES} (or the alias 'ip')"
        )
    return m


def _check_conformable(a: MortonMatrix, b: MortonMatrix, c: MortonMatrix) -> None:
    if not (a.depth == b.depth == c.depth):
        raise ValueError(
            f"operand depths differ: A={a.depth}, B={b.depth}, C={c.depth}; "
            "a GEMM must use a common recursion depth (select_common_tiling)"
        )
    if a.tile_c != b.tile_r:
        raise ValueError(
            f"inner tile edges disagree: A tiles {a.tile_r}x{a.tile_c}, "
            f"B tiles {b.tile_r}x{b.tile_c}"
        )
    if c.tile_r != a.tile_r or c.tile_c != b.tile_c:
        raise ValueError(
            f"C tiles {c.tile_r}x{c.tile_c} do not match product "
            f"{a.tile_r}x{b.tile_c}"
        )


def winograd_multiply(
    a: MortonMatrix,
    b: MortonMatrix,
    c: MortonMatrix,
    ops: WinogradOps | None = None,
    workspace: Workspace | None = None,
    memory: "str | None" = "classic",
    alpha: float = 1.0,
    beta: float = 0.0,
    trans_a: bool = False,
    trans_b: bool = False,
) -> MortonMatrix:
    """Compute ``C = alpha . op(A) . op(B) + beta . C`` over Morton operands.

    With the default spec (``alpha=1, beta=0``, no transposes) ``c``'s
    buffer is overwritten entirely (including its pad).  ``alpha`` is
    folded into the recursion's final U-adds (or the leaf product at
    depth 0) — never a separate scaling pass.  ``beta != 0`` stages the
    product in a same-geometry temporary and folds it into the live ``c``
    with one streaming :meth:`~repro.core.ops.NumpyOps.accumulate` pass.
    ``trans_a``/``trans_b`` wrap the operand in a zero-copy
    :class:`~repro.layout.relabel.TransposedView` (quadrant relabeling;
    rejected for ``ip_overwrite``, whose slot-reuse schedule requires the
    plain permutation — transpose during conversion there instead).

    ``ops`` selects the backend (arithmetic or trace emission);
    ``workspace`` may be shared across calls of the same geometry and
    must have been built for the requested ``memory`` schedule (without
    one, scratch is allocated in the operands' dtype).  With
    ``memory="ip_overwrite"`` **the contents of** ``a`` **and** ``b``
    **are destroyed** and no workspace is used.

    The operands may equally be same-shape stacked Morton matrices
    holding ``B`` items each (interleaved tile by tile, see
    :mod:`repro.layout.matrix`, with a workspace stacked for at least
    ``B`` items): every quadrant of a stack is one contiguous range, so
    one call then multiplies the whole batch — every addition a single
    1-D ufunc over all ``B`` items' parts, every leaf product one batched
    ``matmul`` over a contiguous ``(B, T, T)`` stack — with per-item
    results bit-identical to the unbatched path (same addition order
    throughout).
    ``ip_overwrite`` is not offered for batches (the batched path never
    clobbers operands).
    """
    memory = resolve_memory(memory)
    table = SCHEDULE_TABLES[memory]
    if trans_a:
        a = transposed_view(a)
    if trans_b:
        b = transposed_view(b)
    relabeled = getattr(a, "transposed", False) or getattr(b, "transposed", False)
    if table.in_place and relabeled:
        raise ValueError(
            f"memory={memory!r} cannot consume relabeled (transposed) "
            "operands: the in-place schedule writes products into A/B "
            "quadrant slots, which live in the plain Morton permutation; "
            "fold the transpose into the conversion instead"
        )
    _check_conformable(a, b, c)
    if ops is None:
        ops = NumpyOps()
    if beta != 0.0 and not hasattr(ops, "accumulate"):
        raise ValueError(
            f"ops backend {type(ops).__name__} lacks the accumulate pass "
            "required by beta != 0"
        )
    if table.in_place:
        if getattr(a, "batch", None) is not None:
            raise ValueError(
                f"memory={memory!r} is not supported for batched operands"
            )
        if a.depth > 0 and not (a.tile_r == a.tile_c == b.tile_c):
            raise ValueError(
                f"{memory} needs uniform tile geometry (tile_m == tile_k "
                f"== tile_n); got {a.tile_r}x{a.tile_c} . {b.tile_r}x{b.tile_c}"
            )

    # beta: the recursion always produces a *fresh* product, so a live C
    # is preserved by computing alpha.op(A).op(B) into a same-shape
    # staging buffer and folding it in with one streaming accumulate pass
    # (elementwise identical to the reference ``c *= beta; c += d``).
    target = c.buf if beta == 0.0 else np.empty_like(c.buf)
    table.execute(
        a.buf, b.buf, target, (a.tile_r, a.tile_c, b.tile_c), a.depth, ops,
        workspace, alpha,
        (getattr(a, "transposed", False), getattr(b, "transposed", False)),
    )
    if beta != 0.0:
        ops.accumulate(c.buf, target, beta)
    return c


def multiply_morton(
    a: MortonMatrix,
    b: MortonMatrix,
    ops: WinogradOps | None = None,
) -> MortonMatrix:
    """Convenience wrapper: allocate C, run the recursion.

    With the default arithmetic backend the call routes through the
    default session's pooled per-geometry workspace *and output buffer*
    (:meth:`repro.engine.GemmSession.multiply_morton`) instead of
    allocating fresh scratch per call — the returned matrix stays valid
    until the next same-geometry call, so copy it to keep results across
    calls.  A custom ``ops`` backend (e.g. the trace emitter) cannot
    share pooled numeric scratch and keeps the direct allocating path.
    Either way C has the operands' dtype.
    """
    if ops is None:
        from ..engine.session import default_session  # avoid import cycle

        return default_session().multiply_morton(a, b)
    c = MortonMatrix(
        buf=np.empty(
            (a.tile_r << a.depth) * (b.tile_c << b.depth),
            dtype=np.result_type(a.buf.dtype, b.buf.dtype),
        ),
        rows=a.rows,
        cols=b.cols,
        tile_r=a.tile_r,
        tile_c=b.tile_c,
        depth=a.depth,
    )
    return winograd_multiply(a, b, c, ops=ops)
