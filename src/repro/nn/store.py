"""Zero-copy flat parameter storage.

Every FL component in this library exchanges models as flat 1-D vectors,
so the dominant per-round cost used to be *marshalling*: each
``get_flat_weights`` concatenated every parameter tensor into a fresh
vector and each ``set_flat_weights`` split one back out, array by array.

:class:`FlatParameterStore` removes that tax structurally. A model owns
**one** contiguous data buffer and one contiguous gradient buffer; every
``Parameter.data`` / ``Parameter.grad`` is rebound to a reshaped *view* of
its slice. Consequences:

- ``get_flat_weights`` is a single ``copy()`` of the data buffer (one
  memcpy) and ``set_flat_weights`` a single vectorized ``copyto``;
- optimizer steps and the proximal gradient hook run as whole-buffer
  elementwise operations instead of per-parameter Python loops — the same
  values a per-parameter loop would produce, because every op involved is
  elementwise;
- the buffer dtype is a knob (``float64`` default for bit-identical
  histories; ``float32`` halves memory bandwidth on every matmul).

Views from contiguous 1-D slices are themselves C-contiguous, so BLAS
kernels see exactly the memory layout they saw with standalone arrays —
which is what keeps the refactor bit-identical at float64.

Non-trainable entries (``Parameter.trainable`` False: batch-norm's running
statistics) sit after every trainable one, so the trainable entries are
the prefix ``data[:trainable]``: the only part an optimizer step or a
proximal pull ever touches.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["FlatParameterStore"]


class FlatParameterStore:
    """Contiguous data/grad buffers backing a model's parameters as views."""

    __slots__ = ("data", "grad", "params", "offsets", "dtype", "trainable")

    def __init__(self, params: Sequence[Parameter], dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported store dtype {dtype!r}")
        # Trainable entries first, each group in the given order.
        self.params = sorted(params, key=lambda p: not p.trainable)
        sizes = [p.data.size for p in self.params]
        total = int(sum(sizes))
        #: Length of the trainable prefix of the flat buffers.
        self.trainable = int(sum(s for p, s in zip(self.params, sizes) if p.trainable))
        self.data = np.empty(total, dtype=self.dtype)
        self.grad = np.zeros(total, dtype=self.dtype)
        self.offsets: list[tuple[int, int]] = []
        pos = 0
        for p, size in zip(self.params, sizes):
            a, b = pos, pos + size
            self.offsets.append((a, b))
            shape = p.data.shape
            # Seed the buffer with the parameter's current values, then
            # rebind data/grad to views so all future mutation is shared.
            self.data[a:b] = np.asarray(p.data, dtype=self.dtype).reshape(-1)
            self.grad[a:b] = np.asarray(p.grad, dtype=self.dtype).reshape(-1)
            p.data = self.data[a:b].reshape(shape)
            p.grad = self.grad[a:b].reshape(shape)
            p.store = self
            pos = b

    @property
    def total(self) -> int:
        return self.data.size

    def covers(self, params: Iterable[Parameter]) -> bool:
        """True when ``params`` is exactly this store's parameter list.

        A whole-buffer operation stands in for "apply this to each of
        ``params``" only if that would visit every slice of the buffer
        exactly once — order is irrelevant for elementwise ops, but
        coverage is not.
        """
        if params is self.params:
            return True
        params = list(params)
        return len(params) == len(self.params) and all(
            p is q for p, q in zip(params, self.params)
        )

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @staticmethod
    def of(params: Sequence[Parameter]) -> "FlatParameterStore":
        """The store backing ``params`` in full.

        Every parameter must belong to the *same* store and the list must
        cover it exactly; anything else (standalone parameters, a subset of
        a model, a mix of models) raises ``ValueError`` — a whole-buffer
        operation cannot stand in for such a list.
        """
        store = getattr(params[0], "store", None) if params else None
        if store is None or not store.covers(params):
            raise ValueError(
                "parameters are not backed by one FlatParameterStore covering "
                "exactly this list (standalone parameters, a subset or "
                "reordering of a model's, or a mix of models); adopt them with "
                "FlatParameterStore(params), as Sequential does"
            )
        return store
