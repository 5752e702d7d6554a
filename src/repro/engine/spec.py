"""``GemmSpec``: the frozen operation descriptor of a planned GEMM.

A :class:`~repro.engine.plan.PlanKey` froze *geometry* (dims, tilings,
schedule); everything else the BLAS contract varies per call — ``alpha``,
``beta``, the transpose flags, the computation dtype — used to be applied
as an epilogue.  That split breaks down once the semantics are folded
*into* the compiled artefact (alpha into the final U-adds, beta into the
output conversion, transposes into quadrant relabels): two calls with
different specs now need different compiled plans, so the spec must be
part of the key.

:class:`GemmSpec` is that missing half: a frozen, hashable value object
with a :meth:`GemmSpec.coerce` constructor mirroring
:meth:`repro.core.truncation.TruncationPolicy.coerce` — every public
surface funnels its loose ``alpha=``/``beta=``/``op_a=``/``trans_a=``
keywords through one normalisation point, and malformed input fails with
a :class:`~repro.errors.PlanError` before any planning happens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import PlanError

__all__ = ["GemmSpec"]

#: dtypes the engine plans for (see PlanKey: float64 is the paper's
#: workload, float32 doubles the effective cache).
_SUPPORTED_DTYPES = ("float64", "float32")


def _parse_trans(name: str, value) -> bool:
    """Normalise a transpose spelling (bool or BLAS op string) to a bool."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        low = value.strip().lower()
        if low in ("n", "notrans", "no"):
            return False
        if low in ("t", "trans", "c"):
            return True
        raise PlanError(
            f"malformed {name} {value!r}; expected a bool or one of "
            "'n'/'notrans'/'no'/'t'/'trans'/'c'"
        )
    # OpKind is a str subclass and is caught above; anything else is junk.
    raise PlanError(f"malformed {name} {value!r}; expected a bool or op string")


def _coerce_dtype(value) -> str:
    if value is None:
        return "float64"
    name = np.dtype(value).name
    if name not in _SUPPORTED_DTYPES:
        raise PlanError(
            f"unsupported dtype {name!r}; the engine plans for "
            f"{' and '.join(_SUPPORTED_DTYPES)}"
        )
    return name


@dataclass(frozen=True)
class GemmSpec:
    """The operation half of a plan key: ``C = alpha·op(A)·op(B) + beta·C``.

    Frozen and hashable so it can live inside ``PlanKey``.  ``dtype`` is
    the *computation* dtype (operands are cast on entry); the transpose
    flags describe the logical operands, not their storage.
    """

    alpha: float = 1.0
    beta: float = 0.0
    trans_a: bool = False
    trans_b: bool = False
    dtype: str = "float64"

    def __post_init__(self) -> None:
        # Normalise through float() so specs hash/compare by value
        # (5 == 5.0 already, but numpy scalars should not leak into keys).
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "trans_a", bool(self.trans_a))
        object.__setattr__(self, "trans_b", bool(self.trans_b))
        if self.dtype not in _SUPPORTED_DTYPES:
            raise PlanError(
                f"unsupported dtype {self.dtype!r}; the engine plans for "
                f"{' and '.join(_SUPPORTED_DTYPES)}"
            )

    # ------------------------------------------------------------- coerce

    @classmethod
    def coerce(
        cls,
        value=None,
        *,
        alpha=None,
        beta=None,
        op_a=None,
        op_b=None,
        trans_a=None,
        trans_b=None,
        dtype=None,
    ) -> "GemmSpec":
        """Normalise loose call-site keywords into one frozen spec.

        ``value`` may be ``None`` (defaults), an existing :class:`GemmSpec`
        (passed through, then overridden by any explicit keywords), or a
        dict of the dataclass fields.  ``op_a``/``op_b`` accept the BLAS
        op spellings (``"n"``/``"t"``/...); an explicit ``trans_a``/
        ``trans_b`` wins over the corresponding op keyword.  Anything
        malformed raises :class:`~repro.errors.PlanError`.
        """
        if isinstance(value, dict):
            try:
                value = cls(**value)
            except TypeError as exc:
                raise PlanError(f"malformed GemmSpec dict {value!r}: {exc}") from exc
        elif value is not None and not isinstance(value, cls):
            raise PlanError(
                f"cannot coerce {value!r} into a GemmSpec; expected None, "
                "a GemmSpec, or a dict of its fields"
            )

        changes: dict = {}
        if alpha is not None:
            try:
                changes["alpha"] = float(alpha)
            except (TypeError, ValueError) as exc:
                raise PlanError(f"malformed alpha {alpha!r}") from exc
        if beta is not None:
            try:
                changes["beta"] = float(beta)
            except (TypeError, ValueError) as exc:
                raise PlanError(f"malformed beta {beta!r}") from exc
        if op_a is not None:
            changes["trans_a"] = _parse_trans("op_a", op_a)
        if op_b is not None:
            changes["trans_b"] = _parse_trans("op_b", op_b)
        # explicit trans flags take precedence over op spellings
        if trans_a is not None:
            changes["trans_a"] = _parse_trans("trans_a", trans_a)
        if trans_b is not None:
            changes["trans_b"] = _parse_trans("trans_b", trans_b)
        if dtype is not None:
            changes["dtype"] = _coerce_dtype(dtype)
        # The keyword-only path (every multiply) constructs one spec.
        if value is None:
            return cls(**changes)
        return replace(value, **changes) if changes else value

    # --------------------------------------------------------- convenience

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype object for this spec's computation dtype."""
        return np.dtype(self.dtype)

    @property
    def is_default(self) -> bool:
        """True for the plain ``C = A·B`` float64 contract."""
        return self == _DEFAULT

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ("t" if self.trans_a else "n") + ("t" if self.trans_b else "n")
        return (
            f"spec({ops}, alpha={self.alpha:g}, beta={self.beta:g}, "
            f"{self.dtype})"
        )


_DEFAULT = GemmSpec()
