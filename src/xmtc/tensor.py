"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every numeric operation the model needs lives here: matrix product, the
product of a constant sparse matrix (``Csr``, a numpy kernel with scipy's
bits) and a tensor, the dilated residual encoder block (built on the
dilated 1-d convolution, ``conv_product`` and ``conv_backward``), dropout,
relu and sigmoid, row-softmax attention, reductions, row gather and binary
cross-entropy.  Operations executed while a :class:`GradTape` is active
are recorded in insertion order; ``backward`` replays the tape in reverse
and accumulates gradients into every tensor that requires them.  A tensor
that feeds several consumers receives the sum of all incoming
contributions.

A tape node holds no tensor.  It is a pair of its output's gradient cell
(a small ``GradCell``: ``grad``, ``requires_grad`` and ``shape``) and a
backward closure that captures its inputs' cells plus only the arrays its
backward reads: relu a bool mask, dropout its mask bit-packed
(``np.packbits``, one bit per element), add, reshape, the reductions and
the row gather no array of their inputs at all.  So an activation lives
only while user code or a backward that reads it holds it, and a block's
input and the attention's keys are held as their ``rebuild`` where they
have one: a function that repeats the forward on arrays that live anyway
(a gathered parameter, under a dropout's mask) or on what the producing
node keeps, and so re-makes ``data`` bit for bit.  ``dilated_block``
keeps its input's rebuild, its filters and its output's nonzeros with one
packed mask, about 0.4 of an [n, d] array.  Its chain inputs, m [n, c]
arrays, it keeps too while they take at most ``KEEP_CHAIN_BYTES`` (1 MiB:
n <= 655 at c = 100 and rates (1, 2, 4)), so a short document's backward
re-makes no product.  Above that limit its backward re-makes the fused
level-0 product and the chain inputs (at rates (1, 2, 4) three of the
four level-sized products the forward ran, the fused one counting twice),
one block at a time, so the re-made arrays live only while that block's
gradients form.  Kept or re-made, they have the same bits.
``attend`` keeps no weights: its backward re-derives the scores and the
softmax from its queries and keys.  Either fused node's backward is the
chain rule on plain arrays: it computes every gradient, each
intermediate's what its own cell would hold, and ``_accumulate`` drops
those no cell requires.  The replay consumes the tape: each node is
dropped, with its output's gradient and the arrays its closure holds, as
soon as it has run, so after ``backward`` only the leaves (the
parameters) hold a gradient.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GradTapeError, ShapeError

__all__ = [
    "Tensor",
    "GradTape",
    "GradCell",
    "Csr",
    "matmul",
    "spmm",
    "reshape",
    "same_padding",
    "conv_product",
    "conv_backward",
    "dilated_block",
    "add",
    "mul",
    "dropout",
    "attend",
    "sigmoid",
    "logistic",
    "relu",
    "mean",
    "concat",
    "gather_rows",
    "row_sums",
    "bce_loss",
]

_TAPE_STACK: list["GradTape"] = []

_SIGMOID_EPS = 1e-12

# A sparse product gathers its terms in chunks of at most this many float64
# values (512 KiB), or one row's terms where a row has more, so its
# transients do not grow with the matrix.
_SPARSE_BLOCK = 1 << 16

# A recorded ``dilated_block`` keeps its chain inputs, m float64 [n, c]
# arrays, for backward iff they take at most this many bytes (n <= 655 at
# c = 100 and rates (1, 2, 4)); above it, backward re-makes them.
KEEP_CHAIN_BYTES = 1 << 20


class GradCell:
    """The gradient side of a tensor: what the tape and the backward
    closures hold in its place, so that they never keep its ``data``."""

    __slots__ = ("grad", "requires_grad", "shape", "leaf")

    def __init__(self, requires_grad: bool, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.shape = shape
        self.leaf = True  # made by no operation: a parameter when it requires grad


class Tensor:
    """A dense float64 array plus its gradient cell.

    Tensors are value-like: treat ``data`` as immutable once the tensor has
    entered a computation, and keep its shape; only the owning tape's
    backward pass writes to ``grad``.  ``grad`` and ``requires_grad`` live
    in ``cell``, which the tape holds instead of the tensor.
    """

    __slots__ = ("data", "cell", "name", "rebuild")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.cell = GradCell(bool(requires_grad), self.data.shape)
        self.name = name
        self.rebuild = None  # re-makes ``data`` bit for bit, for a backward that reads it

    @property
    def grad(self) -> np.ndarray | None:
        return self.cell.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self.cell.grad = value

    @property
    def requires_grad(self) -> bool:
        return self.cell.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self.cell.requires_grad = bool(value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class GradTape:
    """Ordered record of operations for one reverse pass.

    Nodes are ``(cell, backward_fn)`` pairs: the output's gradient cell and
    its backward closure, never the output tensor.  They are appended as
    operations execute, so insertion order is a valid topological order of
    the computation DAG.  ``backward`` walks the nodes in reverse, once: a
    second call raises.  The walk pops each node as it runs it, so
    afterwards ``nodes`` is empty and no recorded intermediate holds a
    gradient.
    """

    def __init__(self):
        self.nodes: list[tuple[GradCell, object]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    @staticmethod
    def active() -> "GradTape | None":
        """The innermost open tape, the one operations record on, or None."""
        return _TAPE_STACK[-1] if _TAPE_STACK else None

    def _record(self, cell: GradCell, backward_fn) -> None:
        self.nodes.append((cell, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Accumulate the gradient of ``loss`` into every leaf that requires
        one, consuming the tape.

        Each node is popped, its output cell's gradient taken and cleared,
        and its closure run; a node off every path to the loss is dropped
        without running.  The arrays a closure captured and every
        intermediate gradient are freed as soon as the walk passes them, so
        only leaves (the parameters, never recorded) keep ``grad``.
        """
        if self._consumed:
            raise GradTapeError("backward already ran on this tape")
        if loss.data.ndim != 0:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones((), dtype=np.float64)
        nodes = self.nodes
        while nodes:
            cell, backward_fn = nodes.pop()
            g, cell.grad = cell.grad, None
            if g is not None:
                backward_fn(g)


def _accumulate(cell: GradCell, g: np.ndarray) -> None:
    """Add ``g``, of the cell's shape or broadcastable to it, into the
    cell's gradient; a cell that holds none gets ``_fresh_grad``."""
    if not cell.requires_grad:
        return
    if cell.grad is None:
        cell.grad = _fresh_grad(g, cell.shape)
    else:
        cell.grad += g


def _recorded(parents: tuple[Tensor, ...]) -> bool:
    """Whether an operation over ``parents`` goes on the tape."""
    return GradTape.active() is not None and any(p.cell.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, rebuild=None) -> Tensor:
    out = Tensor(data, requires_grad=any(p.cell.requires_grad for p in parents))
    out.cell.leaf = False
    if _recorded(parents):
        GradTape.active()._record(out.cell, backward_fn)
        out.rebuild = rebuild  # only a backward reads it; unrecorded, it would pin arrays
    return out


def _kept(t: Tensor):
    """What a backward that reads ``t.data`` holds: ``t.rebuild``, else the array."""
    data = t.data
    return t.rebuild or (lambda: data)


def _fresh_grad(g: np.ndarray, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """What a cell that held no gradient keeps of ``g``: zeros plus ``g``
    (broadcast to ``shape``), which is ``g`` with each -0.0 made +0.0, in
    one pass.  IEEE addition commutes, so ``g + 0.0`` has the bits of
    ``0.0 + g``, NaN payloads included."""
    return np.add(g, 0.0, out=np.empty(g.shape if shape is None else shape))


def _packed(mask: np.ndarray):
    """A bool array kept as ``np.packbits`` bytes, one bit per element;
    returns the function that unpacks it to its bool array again."""
    shape, size, bits = mask.shape, mask.size, np.packbits(mask)
    return lambda: np.unpackbits(bits, count=size).reshape(shape).view(bool)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-d tensors; gradients for both operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ac, bc = a.cell, b.cell
    # each operand is read only for the other's gradient
    ad = a.data if bc.requires_grad else None
    bd = b.data if ac.requires_grad else None

    def bwd(g):
        if ac.requires_grad:
            _accumulate(ac, g @ bd.T)
        if bc.requires_grad:
            _accumulate(bc, ad.T @ g)

    return _make(a.data @ b.data, (a, b), bwd)


class Csr:
    """A constant sparse [m, k] matrix in compressed-row form: row i holds
    ``data[a]`` at column ``indices[a]`` for a in ``indptr[i]:indptr[i+1]``,
    in that order; a column may repeat.  ``data`` None means every entry
    is 1.0.  ``indptr`` and ``indices`` take scipy's index dtype: int32
    where the shape and the entry count fit in it, else int64.

    ``csr @ x``, for an array x [k, d], is the [m, d] array whose row i is
    ``+0.0 + data[a0] * x[indices[a0]] + data[a1] * x[indices[a1]] + ...``,
    summed left to right in entry order: the sum scipy's CSR product
    forms, so the bits are scipy's.  An empty row is +0.0.  ``T`` is the
    transpose, built on first read and kept; its row j lists column j's
    entries by ascending row (a stable sort), the order in which scipy's
    product with a CSR's transpose (CSC) adds them.  The product's plan is
    kept per width d, so the matrix must not change after its first
    product.
    """

    def __init__(self, indptr, indices, data, shape):
        self.shape = (int(shape[0]), int(shape[1]))
        index = np.int32 if max(*self.shape, len(indices)) < 2**31 else np.int64
        self.indptr = np.asarray(indptr, dtype=index)
        self.indices = np.asarray(indices, dtype=index)
        self.data = None if data is None else np.asarray(data, dtype=np.float64)
        self._plans: dict[int, tuple] = {}

    @functools.cached_property
    def T(self) -> "Csr":
        m, k = self.shape
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(m), np.diff(self.indptr))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(self.indices, minlength=k))])
        return Csr(indptr, rows[order], None if self.data is None else self.data[order], (k, m))

    def _plan(self, d: int) -> tuple:
        """How a product with d columns gathers and sums: (rows [N], columns
        [T], weights [T] or None, chunks).  Each nonempty row takes a width
        S of slots: its entry count n up to 8, above that n rounded up to a
        multiple of 2**(e - 3), for 2**(e - 1) < n <= 2**e (four widths an
        octave, so less than 25% padding).  Runs of at most ``_SPARSE_BLOCK
        // (S * d)`` rows of one width form slot-major [S, R] blocks, laid
        end to end; slot s of a row holds its entry s, or, past its last
        entry, padding, which reads the row's first entry and is zeroed
        after the gather.  A chunk is a run of whole blocks of at most
        ``_SPARSE_BLOCK`` floats (or one larger block): (start, end, the
        padding as a bool mask or None, [(offset, S, R, first row)])."""
        plan = self._plans.get(d)
        if plan is not None:
            return plan
        lengths = np.diff(self.indptr)
        rows = np.flatnonzero(lengths)
        n = lengths[rows]
        step = np.maximum(np.frexp(n - 1)[1] - 3, 0)
        width = ((n + (1 << step) - 1) >> step) << step
        order = np.argsort(width, kind="stable")
        rows, n, width = rows[order], n[order], width[order]
        k = np.arange(rows.size)
        new_width = np.ones(rows.size, dtype=bool)
        new_width[1:] = width[1:] != width[:-1]
        in_run = k - np.maximum.accumulate(np.where(new_width, k, 0))
        first = new_width | (in_run % np.maximum(1, _SPARSE_BLOCK // (width * max(d, 1))) == 0)
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, rows.size))
        size = width[starts] * counts
        offset = np.cumsum(size) - size
        # position q of block b is slot q // R of row starts[b] + q % R
        b = np.repeat(np.arange(starts.size), size)
        slot, j = np.divmod(np.arange(b.size) - offset[b], counts[b])
        row = starts[b] + j
        pad = slot >= n[row]
        entry = self.indptr[rows[row]] + np.where(pad, 0, slot)
        chunks, blocks, lo = [], [], 0
        for o, s, r, r0 in zip(offset.tolist(), width[starts].tolist(), counts.tolist(),
                                starts.tolist()):
            if blocks and (o + s * r - lo) * d > _SPARSE_BLOCK:
                chunks.append((lo, o, blocks))
                lo, blocks = o, []
            blocks.append((o - lo, s, r, r0))
        if blocks:
            chunks.append((lo, b.size, blocks))
        padded = np.logical_or.reduceat(pad, [c[0] for c in chunks]).tolist() if chunks else []
        plan = (rows, self.indices[entry].astype(np.intp),
                None if self.data is None else self.data[entry],
                [(lo, hi, pad[lo:hi] if any_pad else None, blocks)
                 for (lo, hi, blocks), any_pad in zip(chunks, padded)])
        self._plans[d] = plan
        return plan

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Chunk by chunk, in one reused buffer: the terms gathered and
        weighted, the padding set to +0.0 (never 0 * x, which is NaN at an
        inf), and each [S, R, d] block summed along S from +0.0
        (``np.add.reduce`` with ``initial``, which adds S's slots in order
        when R * d > 1, its inner loop then running over R * d; a [S, 1, 1]
        block it would sum pairwise, so that one goes through
        ``np.cumsum``).  A 1.0 weight is skipped, since ``1.0 * v`` has
        ``v``'s bits."""
        d = x.shape[1]
        rows, cols, weights, chunks = self._plan(d)
        sums = np.empty((rows.size, d))
        buf = np.empty(max((hi - lo for lo, hi, _, _ in chunks), default=0) * d)
        for lo, hi, pad, blocks in chunks:
            # mode="clip" (the columns are in range) lets take write into buf unbuffered
            terms = buf[:(hi - lo) * d].reshape(hi - lo, d)
            np.take(x, cols[lo:hi], axis=0, out=terms, mode="clip")
            if weights is not None:
                terms *= weights[lo:hi, None]
            if pad is not None:
                terms[pad] = 0.0
            for o, s, r, r0 in blocks:
                block = terms[o:o + s * r].reshape(s, r, d)
                if s > 1 and r * d > 1:
                    np.add.reduce(block, axis=0, out=sums[r0:r0 + r], initial=0.0)
                else:  # one slot, or an [S, 1, 1] block, which reduce would sum pairwise
                    np.add(np.cumsum(block, axis=0)[-1] if s > 1 else block[0], 0.0,
                           out=sums[r0:r0 + r])
        out = (np.empty if rows.size == self.shape[0] else np.zeros)((self.shape[0], d))
        out[rows] = sums
        return out


def spmm(s: Csr, x: Tensor) -> Tensor:
    """Product of a constant ``Csr`` matrix [m, k] and a 2-d tensor [k, d];
    the gradient flows to ``x`` only, as ``s.T @ g``.  Both products have
    scipy's bits."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"spmm expects a 2-d dense operand, got {x.shape}")
    if s.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm inner dimensions disagree: {s.shape} x {x.shape}")

    xc = x.cell

    def bwd(g):
        _accumulate(xc, s.T @ g)

    return _make(s @ x.data, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    xc = x.cell

    def bwd(g):
        _accumulate(xc, g.reshape(xc.shape))

    return _make(x.data.reshape(shape).copy(), (x,), bwd)


# ---------------------------------------------------------------------------
# convolution


def same_padding(kernel_size: int, dilation: int) -> int:
    """Padding that preserves sequence length: r*(K-1)/2, K odd."""
    return dilation * (kernel_size - 1) // 2


def _windows(xp: np.ndarray, k: int, dilation: int, n_out: int) -> np.ndarray:
    """The im2col buffer [n_out, K*d_in]: row t holds xp[t + dilation*j] for
    j < K, side by side, copied out of a strided view of ``xp``."""
    s0, s1 = xp.strides
    d_in = xp.shape[1]
    windows = as_strided(xp, (n_out, k, d_in), (s0, dilation * s0, s1)).copy()
    return windows.reshape(n_out, k * d_in)


def _padded(x: np.ndarray, k: int, dilation: int) -> np.ndarray:
    p = same_padding(k, dilation)
    return np.pad(x, ((p, p), (0, 0)))


def conv_product(x: np.ndarray, filters: np.ndarray, dilation: int) -> np.ndarray:
    """The length-preserving stride-1 dilated 1-d convolution of an [n,
    d_in] array with [K, d_in, d_out] filters, K odd: kernel taps are
    ``dilation`` positions apart and ``same_padding(K, dilation)`` zeros
    are added on both ends (centered).  One product of the [n, K*d_in]
    window buffer of a padded copy of ``x``; the copy dies once the buffer
    is built, the buffer with the call."""
    k, d_in, d_out = filters.shape
    return _windows(_padded(x, k, dilation), k, dilation, x.shape[0]) @ filters.reshape(
        k * d_in, d_out)


def conv_backward(g: np.ndarray, x, filters: np.ndarray, dilation: int,
                  fc: GradCell) -> np.ndarray:
    """The gradients of ``conv_product`` for its output's gradient ``g``:
    sums the filters' into ``fc`` (``_accumulate`` drops it where ``fc``
    requires none) and returns the input's.  ``x`` is a function that
    returns the input array; the filter gradient calls it to build the
    window buffer again and holds what it returns no longer than that."""
    k, d_in, d_out = filters.shape
    n = g.shape[0]
    windows = _windows(_padded(x(), k, dilation), k, dilation, n)
    _accumulate(fc, (windows.T @ g).reshape(k, d_in, d_out))
    del windows
    padding = same_padding(k, dilation)
    gwin = (g @ filters.reshape(k * d_in, d_out).T).reshape(n, k, d_in)
    gxp = np.zeros((n + 2 * padding, d_in))
    for j in range(k):
        gxp[j * dilation : j * dilation + n] += gwin[:, j, :]
    return gxp[padding : padding + n]


def dilated_block(x: Tensor, level0_residual: Tensor, levels, rates, keep=None,
                  scale: float = 1.0) -> Tensor:
    """One dilated residual block, [n, d] -> [n, c], as one tape node.

    ``level0_residual`` [K, d, 2c] holds level 0's filter and the
    residual's side by side; ``levels`` [K, c, c] are the chain's later
    filters, and ``rates`` gives one dilation per filter.  The output is
    ``relu(chain + residual)``, where the chain runs level 0's columns of
    the fused product through ``levels``, times ``keep * scale`` (inverted
    dropout with a bool mask) when ``keep`` is given.  The forward runs on
    plain arrays with ``conv_product``, so no intermediate outlives it but
    the chain inputs a recorded node keeps.

    The node keeps ``_kept(x)``, the filters' arrays, and its output's
    values other than +0.0 with one bit-packed mask of where they sit (a
    -0.0 is kept too); the output's ``rebuild`` scatters them into zeros.
    Its chain inputs, level 0's half of the fused product and each later
    level's input (m arrays of [n, c], the forward's own; the last level's
    output takes the residual in place), it keeps while they take at most
    ``KEEP_CHAIN_BYTES``; above that its backward re-makes the fused
    product and them from ``x``'s rebuild, with the same bits.  An
    unrecorded block keeps nothing.  The backward is the chain rule on
    plain arrays in the order of the per-op block's seven nodes (relu with
    dropout, the sum, the chain's convolutions, the column halves, the
    fused convolution): it forms every gradient, each intermediate's the
    ``_fresh_grad`` of its one contribution, as its own cell would hold it,
    so the bits are theirs, and ``_accumulate`` drops those no cell
    requires.  It holds each chain input until ``conv_backward`` reads it.
    Where the output is positive, relu and dropout pass ``g * scale``;
    elsewhere they give a zero of either sign (NaN where ``g`` is not
    finite), which changes nothing added into a gradient that starts at +0.0.
    """
    x, fused = _as_tensor(x), _as_tensor(level0_residual)
    filters = [fused, *(_as_tensor(f) for f in levels)]
    rates, m = tuple(rates), len(filters) - 1
    if (x.data.ndim != 2 or x.shape[0] == 0 or fused.data.ndim != 3
            or fused.shape[2] == 0 or fused.shape[2] % 2):
        raise ShapeError(f"dilated_block expects a nonempty x [n, d] and level0_residual "
                         f"[K, d, 2c], got {x.shape} and {fused.shape}")
    n, c = x.shape[0], fused.shape[2] // 2
    for f, io in zip(filters, [(x.shape[1], 2 * c)] + [(c, c)] * m):
        if f.data.ndim != 3 or f.shape[0] % 2 == 0 or f.shape[1:] != io:
            raise ShapeError(f"dilated_block: filter of shape {f.shape} where [K, {io[0]}, "
                             f"{io[1]}] with K odd was expected")
    if len(rates) != m + 1 or not all(isinstance(r, (int, np.integer)) and r >= 1 for r in rates):
        raise ValueError(f"dilated_block needs one positive integer rate per filter, "
                         f"got {rates!r} for {m + 1} filters")

    parents = (x, *filters)
    recorded = _recorded(parents)
    # level i's input at i - 1, kept where small; the last level's output is
    # not one of them, since the residual is summed into it in place
    kept = [] if recorded and m * n * c * 8 <= KEEP_CHAIN_BYTES else None
    pair = conv_product(x.data, fused.data, rates[0])
    h, residual = pair[:, :c].copy(), pair[:, c:].copy()  # so the pair dies here
    del pair
    for f, rate in zip(filters[1:], rates[1:]):
        if kept is not None:
            kept.append(h)
        h = conv_product(h, f.data, rate)
    h += residual
    del residual
    out = np.maximum(h, 0.0, out=h)
    del h
    if keep is not None:
        out *= _checked_mask(out.shape, keep) * scale
    if not recorded:
        return _make(out, parents, None)

    flat = out.reshape(-1)
    stored = flat.view(np.uint64) != 0
    shape, size, where = out.shape, out.size, _packed(stored)
    # a gather or scatter by index runs several times faster than by bool mask
    values = flat[np.flatnonzero(stored)]

    def rebuild():
        full = np.zeros(size)
        full[np.flatnonzero(where())] = values
        return full.reshape(shape)

    xd, xc = _kept(x), x.cell
    arrays, cells = [f.data for f in filters], [f.cell for f in filters]

    def bwd(g):
        nonlocal kept
        chain, kept = kept, None  # so each kept input dies once its level is done
        if chain is None:  # re-made as the forward made them
            chain = []
            if m:
                chain.append(np.ascontiguousarray(conv_product(xd(), arrays[0], rates[0])[:, :c]))
            for w, rate in zip(arrays[1:m], rates[1:m]):
                chain.append(conv_product(chain[-1], w, rate))
        positive = np.zeros(size, dtype=bool)
        positive[np.flatnonzero(where())] = values > 0.0
        # the sum passes its gradient to both terms; zeros plus a fresh
        # gradient has its bits (no -0.0 is left), so both share it
        g_residual = g_h = _fresh_grad(g * (positive.reshape(shape) * scale))
        del positive
        for i in range(m, 0, -1):  # handed over, each input dies once its windows exist
            g_h = _fresh_grad(conv_backward(g_h, chain.pop, arrays[i], rates[i], cells[i]))
        g_pair = np.zeros((n, 2 * c))  # the residual's half first, then the chain's
        g_pair[:, c:] += g_residual
        g_pair[:, :c] += g_h
        del g_residual, g_h
        _accumulate(xc, conv_backward(g_pair, xd, arrays[0], rates[0], cells[0]))

    return _make(out, parents, bwd, rebuild=rebuild)


# ---------------------------------------------------------------------------
# elementwise and reductions


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ac, bc = a.cell, b.cell

    def bwd(g):
        if ac.requires_grad:
            _accumulate(ac, _unbroadcast(g, ac.shape))
        if bc.requires_grad:
            _accumulate(bc, _unbroadcast(g, bc.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting (covers broadcast_mul)."""
    a, b = _as_tensor(a), _as_tensor(b)
    ac, bc = a.cell, b.cell
    # each operand is read only for the other's gradient
    ad = a.data if bc.requires_grad else None
    bd = b.data if ac.requires_grad else None

    def bwd(g):
        if ac.requires_grad:
            _accumulate(ac, _unbroadcast(g * bd, ac.shape))
        if bc.requires_grad:
            _accumulate(bc, _unbroadcast(g * ad, bc.shape))

    return _make(a.data * b.data, (a, b), bwd)


def _checked_mask(shape: tuple[int, ...], keep) -> np.ndarray:
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != shape:
        raise ShapeError(f"dropout mask shape {keep.shape} != input shape {shape}")
    return keep


def dropout(x, keep, scale: float) -> Tensor:
    """Inverted dropout: ``x * (keep * scale)`` for a bool mask ``keep`` of
    x's shape.  The node keeps the mask bit-packed, one bit per element,
    and unpacks it and forms the float factor each time it runs.  Over a
    rebuildable ``x`` the output's rebuild applies the same mask to ``x``'s
    rebuild."""
    x = _as_tensor(x)
    keep = _checked_mask(x.shape, keep)
    xc, xr, kept = x.cell, x.rebuild, _packed(keep)

    def bwd(g):
        _accumulate(xc, g * (kept() * scale))

    return _make(x.data * (keep * scale), (x,), bwd,
                 rebuild=None if xr is None else (lambda: xr() * (kept() * scale)))


def relu(x) -> Tensor:
    """max(x, 0); the node keeps the bool mask ``x > 0``, not ``x``."""
    x = _as_tensor(x)
    xc, positive = x.cell, x.data > 0.0

    def bwd(g):
        _accumulate(xc, g * positive)

    return _make(np.maximum(x.data, 0.0), (x,), bwd)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a plain array.  exp overflows to inf below
    x = -709, which gives the exact limit 0, so the overflow is not
    reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(x) -> Tensor:
    """Logistic function, clamped to the open interval (0, 1).

    The clamp keeps saturated outputs off the exact 0/1 endpoints so
    downstream logs stay finite; the saturated gradient is ~0 either way.
    """
    x = _as_tensor(x)
    out = np.clip(logistic(x.data), _SIGMOID_EPS, 1.0 - _SIGMOID_EPS)
    xc = x.cell

    def bwd(g):
        _accumulate(xc, g * out * (1.0 - out))

    return _make(out, (x,), bwd)


def attend(q: Tensor, x: Tensor) -> tuple[np.ndarray, Tensor]:
    """Row-softmax attention of each query row of ``q`` [K, d] over the rows
    of ``x`` [n, d]: returns the weights ``alpha = softmax(q @ x.T)`` along
    rows, [K, n], as a plain array, and the context ``alpha @ x`` [K, d],
    through which the gradient flows.

    One tape node, which keeps ``q``'s array and ``_kept(x)`` and no
    weights.  Its backward re-makes ``x``, re-derives the scores and alpha
    exactly as the forward did, then forms the gradients that four nodes
    would (a transposed copy, the score product, a max-subtracted row
    softmax and the context product), in their order, each intermediate
    summed into zeros as its own cell would be: the bits are theirs.
    """
    q, x = _as_tensor(q), _as_tensor(x)
    if q.data.ndim != 2 or x.data.ndim != 2 or q.shape[1] != x.shape[1] or x.shape[0] == 0:
        raise ShapeError(f"attend expects q [K, d] and a nonempty x [n, d], "
                         f"got {q.shape} and {x.shape}")
    qd, xd, qc, xc = q.data, _kept(x), q.cell, x.cell

    def weights(xa):
        xt = xa.T.copy()
        scores = qd @ xt
        ez = np.exp(scores - scores.max(axis=1, keepdims=True))  # max-subtracted
        return xt, ez / ez.sum(axis=1, keepdims=True)

    def bwd(g):
        xa = xd()
        xt, alpha = weights(xa)
        g_alpha = _fresh_grad(g @ xa.T)
        _accumulate(xc, alpha.T @ g)
        inner = (g_alpha * alpha).sum(axis=1, keepdims=True)
        g_scores = _fresh_grad(alpha * (g_alpha - inner))
        _accumulate(qc, g_scores @ xt.T)
        _accumulate(xc, _fresh_grad(qd.T @ g_scores).T)

    alpha = weights(x.data)[1]
    return alpha, _make(alpha @ x.data, (q, x), bwd)


def mean(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None:
        axis = int(axis)
    denom = x.data.size if axis is None else x.data.shape[axis]
    if denom == 0:
        raise ValueError("mean over an empty axis")
    xc = x.cell

    def bwd(g):
        if axis is None:
            _accumulate(xc, np.full(xc.shape, 1.0 / denom) * g)
        else:  # q * 1.0 == q, so a broadcast q has the bits of q * ones
            _accumulate(xc, np.broadcast_to(np.expand_dims(g, axis) / denom, xc.shape))

    return _make(x.data.mean(axis=axis), (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    cells = [t.cell for t in tensors]

    def bwd(g):
        for cell, piece in zip(cells, np.split(g, splits, axis=axis)):
            _accumulate(cell, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a [V, d] table; gradients scatter-add back into it.

    Duplicate ids accumulate their gradient contributions additively, first
    into one row per distinct id (``row_sums``), so backward touches only
    the gathered rows of the table's gradient.  A gather from a parameter,
    whose array lives through backward, rebuilds by gathering again.
    """
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d table, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    v = table.shape[0]
    if ids.size:
        bad = ids[(ids < 0) | (ids >= v)]
        if bad.size:
            raise IndexError(f"row id {int(bad[0])} out of range for table with {v} rows")
    td, tc = table.data, table.cell
    out = td[ids] if ids.size else np.zeros((0, table.shape[1]))

    def bwd(g):
        if tc.requires_grad and ids.size:
            uniq, part = row_sums(ids, g)
            if tc.grad is None:
                tc.grad = np.zeros(tc.shape)
            tc.grad[uniq] += part

    return _make(out, (table,), bwd,
                 rebuild=(lambda: td[ids]) if tc.requires_grad and tc.leaf else None)


def row_sums(ids, values: np.ndarray, rows=None, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct id, the sum over j with ``ids[j] == id`` of
    ``weights[j] * values[rows[j]]``; returns (distinct ids ascending,
    [U, d] sums).

    ``rows`` defaults to ``j`` and ``weights`` to 1.  The sum is one
    ``Csr`` product of a [U, len(values)] matrix, whose rows hold each id's
    entries in input order, with ``values``; its size scales with the
    entries, not with the largest id.  With unit weights and distinct rows
    each sum starts from zero and adds in input order, as a scatter-add
    into a zero buffer does, so the result is bit-equal to one.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    # ids * n + j is distinct per entry, so a plain sort keeps input order
    # within an id (and runs several times faster than a stable one)
    order = np.argsort(ids * ids.size + np.arange(ids.size))
    sorted_ids = ids[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(first)
    cols = order if rows is None else np.asarray(rows, dtype=np.int64).reshape(-1)[order]
    data = None if weights is None else np.asarray(weights).reshape(-1)[order]
    s = Csr(np.append(starts, ids.size), cols, data, (starts.size, values.shape[0]))
    return sorted_ids[starts], s @ values


_BCE_EPS = 1e-12


def bce_loss(pred: Tensor, gold) -> Tensor:
    """Multi-label binary cross-entropy, summed over labels.

    ``pred`` holds probabilities; they are clamped to [eps, 1-eps] before the
    logs so confident predictions stay finite.  ``gold`` must be 0/1.
    """
    pred = _as_tensor(pred)
    gold_arr = gold.data if isinstance(gold, Tensor) else np.asarray(gold, dtype=np.float64)
    if gold_arr.shape != pred.shape:
        raise ShapeError(f"pred shape {pred.shape} != gold shape {gold_arr.shape}")
    if not np.isin(gold_arr, (0.0, 1.0)).all():
        raise ValueError("gold labels must be 0 or 1")
    p = np.clip(pred.data, _BCE_EPS, 1.0 - _BCE_EPS)
    loss = float(-(gold_arr * np.log(p) + (1.0 - gold_arr) * np.log1p(-p)).sum())
    pc = pred.cell

    def bwd(g):
        _accumulate(pc, g * (p - gold_arr) / (p * (1.0 - p)))

    return _make(np.asarray(loss), (pred,), bwd)
