"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every numeric operation the model needs lives here: matrix product, the
product of a constant sparse matrix and a tensor, dilated 1-d convolution,
activations, reductions, row gather, column split, and binary cross-entropy.
Operations executed while a :class:`GradTape` is active are recorded in
insertion order; ``backward`` replays the tape in reverse and accumulates
gradients into every tensor that requires them.  A tensor that feeds
several consumers receives the sum of all incoming contributions.

``grad_check`` compares analytic gradients against central finite
differences and is the verification tool behind the gradient test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GradTapeError, ShapeError

__all__ = [
    "Tensor",
    "GradTape",
    "grad_check",
    "GradCheckReport",
    "matmul",
    "spmm",
    "transpose",
    "reshape",
    "conv1d_dilated",
    "same_padding",
    "add",
    "mul",
    "softmax",
    "sigmoid",
    "logistic",
    "relu",
    "tanh",
    "mean",
    "tensor_sum",
    "concat",
    "split_columns",
    "gather_rows",
    "row_sums",
    "bce_loss",
]

_TAPE_STACK: list["GradTape"] = []

_SIGMOID_EPS = 1e-12


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Tensors are value-like: treat ``data`` as immutable once the tensor has
    entered a computation; only the owning tape's backward pass writes to
    ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

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

    Nodes are appended as operations execute, so insertion order is a valid
    topological order of the computation DAG.  ``backward`` walks the nodes
    in reverse; calling it a second time without ``reset`` raises.
    """

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _record(self, out: Tensor, backward_fn) -> None:
        self.nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every recorded tensor reachable from ``loss``."""
        if self._consumed:
            raise GradTapeError("backward already ran on this tape; call reset() first")
        if loss.data.ndim != 0:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones((), dtype=np.float64)
        for out, backward_fn in reversed(self.nodes):
            if out.grad is None:
                continue  # not on a path to the loss
            backward_fn(out.grad)

    def reset(self) -> None:
        self.nodes.clear()
        self._consumed = False


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape._record(out, backward_fn)
    return out


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
    ad, bd = a.data, b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ bd.T)
        if b.requires_grad:
            _accumulate(b, ad.T @ g)

    return _make(ad @ bd, (a, b), bwd)


def spmm(s, x: Tensor) -> Tensor:
    """Product of a constant ``scipy.sparse`` matrix [m, k] and a 2-d tensor
    [k, d]; the gradient flows to ``x`` only, as ``s.T @ g``."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"spmm expects a 2-d dense operand, got {x.shape}")
    if s.shape[1] != x.shape[0]:
        raise ShapeError(f"spmm inner dimensions disagree: {s.shape} x {x.shape}")

    def bwd(g):
        _accumulate(x, s.T @ g)

    return _make(s @ x.data, (x,), bwd)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got {x.shape}")

    def bwd(g):
        _accumulate(x, g.T)

    return _make(x.data.T.copy(), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.shape

    def bwd(g):
        _accumulate(x, g.reshape(old))

    return _make(x.data.reshape(shape).copy(), (x,), bwd)


# ---------------------------------------------------------------------------
# convolution


def same_padding(kernel_size: int, dilation: int) -> int:
    """Padding that preserves sequence length: r*(K-1)/2, K odd (an EncoderConfig rule)."""
    return dilation * (kernel_size - 1) // 2


def _windows(xp: np.ndarray, k: int, dilation: int, n_out: int) -> np.ndarray:
    """The im2col buffer [n_out, K*d_in]: row t holds xp[t + dilation*j] for
    j < K, side by side, copied out of a strided view of ``xp``."""
    s0, s1 = xp.strides
    d_in = xp.shape[1]
    windows = as_strided(xp, (n_out, k, d_in), (s0, dilation * s0, s1)).copy()
    return windows.reshape(n_out, k * d_in)


def conv1d_dilated(
    x: Tensor,
    filters: Tensor,
    dilation: int,
    padding: int,
) -> Tensor:
    """Stride-1 dilated 1-d convolution over a [n, d_in] sequence.

    ``filters`` has shape [K, d_in, d_out].  Kernel taps are spaced
    ``dilation`` positions apart, and ``padding`` zeros are added on both
    ends (centered/same convolution).  The [n, K*d_in] window buffer is
    freed after the forward product: backward keeps only the padded input
    and rebuilds the windows for the filter gradient.
    """
    x, filters = _as_tensor(x), _as_tensor(filters)
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ValueError(f"dilation must be a positive integer, got {dilation!r}")
    if padding < 0:
        raise ValueError(f"padding must be nonnegative, got {padding}")
    if x.data.ndim != 2 or filters.data.ndim != 3:
        raise ShapeError(
            f"conv1d_dilated expects x [n, d_in] and filters [K, d_in, d_out], "
            f"got {x.shape} and {filters.shape}"
        )
    n, d_in = x.shape
    k, f_in, d_out = filters.shape
    if f_in != d_in:
        raise ShapeError(f"filter input channels {f_in} != sequence channels {d_in}")

    xp = np.pad(x.data, ((padding, padding), (0, 0)))
    span = dilation * (k - 1)
    n_out = xp.shape[0] - span
    if n_out < 1:
        raise ShapeError(
            f"sequence of length {n} with padding {padding} is shorter than the "
            f"kernel span {span + 1} (K={k}, dilation={dilation})"
        )

    w2d = filters.data.reshape(k * d_in, d_out)
    out = _windows(xp, k, dilation, n_out) @ w2d

    def bwd(g):
        if filters.requires_grad:
            gw = _windows(xp, k, dilation, n_out).T @ g
            _accumulate(filters, gw.reshape(k, d_in, d_out))
        if x.requires_grad:
            gwin = (g @ w2d.T).reshape(n_out, k, d_in)
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j * dilation : j * dilation + n_out] += gwin[:, j, :]
            _accumulate(x, gxp[padding : padding + n, :])

    return _make(out, (x, filters), bwd)


# ---------------------------------------------------------------------------
# elementwise and reductions


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting (covers broadcast_mul)."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * bd, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ad, b.shape))

    return _make(ad * bd, (a, b), bwd)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        _accumulate(x, g * (x.data > 0.0))

    return _make(out, (x,), bwd)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def bwd(g):
        _accumulate(x, g * (1.0 - out * out))

    return _make(out, (x,), bwd)


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

    def bwd(g):
        _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to 1."""
    x = _as_tensor(x)
    if x.data.ndim == 0:
        raise ValueError("softmax needs at least one axis")
    try:
        axis = int(axis)
        np.moveaxis(x.data, axis, -1)
    except Exception as exc:
        raise ValueError(f"invalid softmax axis {axis} for shape {x.shape}") from exc
    if x.data.shape[axis] == 0:
        raise ValueError(f"softmax over empty axis {axis} of shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    out = ez / ez.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        _accumulate(x, out * (g - inner))

    return _make(out, (x,), bwd)


def mean(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None:
        axis = int(axis)
    denom = x.data.size if axis is None else x.data.shape[axis]
    if denom == 0:
        raise ValueError("mean over an empty axis")

    def bwd(g):
        if axis is None:
            _accumulate(x, np.full_like(x.data, 1.0 / denom) * g)
        else:
            _accumulate(x, np.expand_dims(g, axis) / denom * np.ones_like(x.data))

    return _make(x.data.mean(axis=axis), (x,), bwd)


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    x = _as_tensor(x)
    if axis is not None:
        axis = int(axis)

    def bwd(g):
        if axis is None:
            _accumulate(x, np.full_like(x.data, 1.0) * g)
        else:
            _accumulate(x, np.expand_dims(g, axis) * np.ones_like(x.data))

    return _make(x.data.sum(axis=axis), (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accumulate(t, piece)

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def split_columns(x: Tensor, at: int) -> tuple[Tensor, Tensor]:
    """Split a [n, c] tensor into its columns [0, at) and [at, c).

    Each half's backward adds its gradient into its own columns of
    ``x.grad``, so a tensor split this way gets one gradient buffer.
    """
    x = _as_tensor(x)
    if x.data.ndim != 2 or not 0 < at < x.shape[1]:
        raise ShapeError(f"split_columns needs 0 < at < columns, got at={at} for {x.shape}")

    def half(cols):
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, cols] += g

        return _make(x.data[:, cols], (x,), bwd)

    return half(slice(0, at)), half(slice(at, None))


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a [V, d] table; gradients scatter-add back into it.

    Duplicate ids accumulate their gradient contributions additively, first
    into one row per distinct id (``row_sums``), so backward touches only
    the gathered rows of the table's gradient.
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
    out = table.data[ids] if ids.size else np.zeros((0, table.shape[1]))

    def bwd(g):
        if table.requires_grad and ids.size:
            uniq, part = row_sums(ids, g)
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            table.grad[uniq] += part

    return _make(out, (table,), bwd)


def row_sums(ids, values: np.ndarray, rows=None, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Per distinct id, the sum over j with ``ids[j] == id`` of
    ``weights[j] * values[rows[j]]``; returns (distinct ids ascending,
    [U, d] sums).

    ``rows`` defaults to ``j`` and ``weights`` to 1.  The sum is one product
    of a CSR [U, len(values)] matrix, whose rows hold each id's entries in
    input order, with ``values``; its size scales with the entries, not
    with the largest id.  With unit weights and distinct rows each sum
    starts from zero and adds in input order, as a scatter-add into a zero
    buffer does, so the result is bit-equal to one.
    """
    import scipy.sparse as sp

    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    # ids * n + j is distinct per entry, so a plain sort keeps input order
    # within an id (and runs several times faster than a stable one)
    order = np.argsort(ids * ids.size + np.arange(ids.size))
    sorted_ids = ids[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(first)
    cols = order if rows is None else np.asarray(rows, dtype=np.int64).reshape(-1)[order]
    data = np.ones(ids.size) if weights is None else np.asarray(weights).reshape(-1)[order]
    s = sp.csr_matrix((data, cols, np.append(starts, ids.size)),
                      shape=(starts.size, values.shape[0]))
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

    def bwd(g):
        _accumulate(pred, g * (p - gold_arr) / (p * (1.0 - p)))

    return _make(np.asarray(loss), (pred,), bwd)


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(op, inputs, tol: float = 1e-4, step: float = 1e-5, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``op(*inputs)`` against central differences.

    The output is contracted to a scalar through a fixed random projection so
    structurally degenerate reductions (e.g. summing a softmax) cannot hide a
    wrong gradient.  Errors are measured relative to the gradient's own
    magnitude; the report passes when the worst error is below ``tol``.
    """
    rng = np.random.default_rng(seed)
    checked = [t for t in inputs if isinstance(t, Tensor) and t.requires_grad]
    if not checked:
        raise ValueError("grad_check needs at least one input with requires_grad")

    probe = None

    def scalar_loss():
        nonlocal probe
        out = op(*inputs)
        if probe is None:
            probe = rng.standard_normal(out.shape)
        return tensor_sum(mul(out, Tensor(probe)))

    for t in checked:
        t.zero_grad()
    with GradTape() as tape:
        loss = scalar_loss()
        tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in checked]

    errs = []
    for t, a in zip(checked, analytic):
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(scalar_loss().data)
            flat[i] = orig - step
            lo = float(scalar_loss().data)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        scale = max(np.abs(a).max(initial=0.0), np.abs(num).max(initial=0.0), 1e-8)
        errs.append(float(np.abs(a - num).max(initial=0.0) / scale))
    return GradCheckReport(max_rel_err=max(errs), tol=tol)
